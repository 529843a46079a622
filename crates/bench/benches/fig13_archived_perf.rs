//! Fig 13 — archived throughput vs concurrent tags on Markovian
//! (smoothed + CPT) streams, for Q1 and Q2.
//!
//! Competitors: the Viterbi MAP baseline and naïve sampling over the
//! correlated streams.
//!
//! Paper shape to reproduce: Viterbi and Lahar(Markov) have comparable raw
//! tuple throughput (the CPT streams simply carry ~|support|x more tuples),
//! sampling is orders of magnitude slower, and the *effective objects per
//! second* of the Markovian pipeline trails the real-time pipeline by
//! roughly an order of magnitude (the paper reports 9–10x).

use lahar_baselines::DeterministicCep;
use lahar_bench::*;
use lahar_core::{CompileOptions, Lahar, Sampler, SamplerConfig};
use lahar_query::NormalQuery;

fn main() {
    let ticks = 60;
    let tag_counts: &[usize] = if quick_mode() {
        &[1, 10, 25]
    } else {
        &[1, 10, 25, 50, 75, 100]
    };

    let mut rt_eff_sample = 0.0f64;
    let mut ar_eff_sample = 0.0f64;

    for (qname, extended) in [
        ("Q1 (regular selection)", false),
        ("Q2 (ext. regular seq)", true),
    ] {
        header(
            &format!("Fig 13: archived throughput, {qname}"),
            &[
                "tags",
                "lahar t/s",
                "viterbi t/s",
                "sampling t/s",
                "eff obj/s",
            ],
        );
        for &n in tag_counts {
            let dep = perf_deployment(n, ticks, 7);
            let db = dep.smoothed_database();
            let base = dep.base_database();
            let tags = dep.tag_names();

            let (_, lahar_secs) = timed(|| {
                if extended {
                    let q =
                        lahar_query::parse_and_validate(db.catalog(), db.interner(), q2()).unwrap();
                    let eval = Lahar::compile_with(&db, &q, CompileOptions::new()).unwrap();
                    std::hint::black_box(eval.prob_series(db.horizon()).unwrap());
                } else {
                    for tag in &tags {
                        let q =
                            lahar_query::parse_and_validate(db.catalog(), db.interner(), &q1(tag))
                                .unwrap();
                        let eval = Lahar::compile_with(&db, &q, CompileOptions::new()).unwrap();
                        std::hint::black_box(eval.prob_series(db.horizon()).unwrap());
                    }
                }
            });

            // Viterbi baseline: decode MAP paths, then deterministic CEP.
            let (_, viterbi_secs) = timed(|| {
                let world = dep.viterbi_world(&base);
                if extended {
                    let q = lahar_query::parse_and_validate(base.catalog(), base.interner(), q2())
                        .unwrap();
                    let nq = NormalQuery::from_query(&q);
                    let cep = DeterministicCep::new(&base, &world, &nq).unwrap();
                    std::hint::black_box(cep.detect(&base, &world).unwrap());
                } else {
                    for tag in &tags {
                        let q = lahar_query::parse_and_validate(
                            base.catalog(),
                            base.interner(),
                            &q1(tag),
                        )
                        .unwrap();
                        let nq = NormalQuery::from_query(&q);
                        let cep = DeterministicCep::new(&base, &world, &nq).unwrap();
                        std::hint::black_box(cep.detect(&base, &world).unwrap());
                    }
                }
            });

            let (_, sampling_secs) = timed(|| {
                let config = SamplerConfig::default();
                if extended {
                    let q =
                        lahar_query::parse_and_validate(db.catalog(), db.interner(), q2()).unwrap();
                    let nq = NormalQuery::from_query(&q);
                    let s = Sampler::with_config(&db, &nq, config).unwrap();
                    std::hint::black_box(s.prob_series(&db, db.horizon()));
                } else {
                    for tag in &tags {
                        let q =
                            lahar_query::parse_and_validate(db.catalog(), db.interner(), &q1(tag))
                                .unwrap();
                        let nq = NormalQuery::from_query(&q);
                        let s = Sampler::with_config(&db, &nq, config).unwrap();
                        std::hint::black_box(s.prob_series(&db, db.horizon()));
                    }
                }
            });

            let eff = effective_objects_per_sec(n, ticks, lahar_secs);
            row(
                &n.to_string(),
                &[
                    n as f64,
                    tuples_per_sec(&db, lahar_secs),
                    tuples_per_sec(&db, viterbi_secs),
                    tuples_per_sec(&db, sampling_secs),
                    eff,
                ],
            );
            if !extended && n == *tag_counts.last().unwrap() {
                ar_eff_sample = eff;
                // Matching real-time effective rate for the comparison.
                let rt_db = dep.filtered_database();
                let (_, rt_secs) = timed(|| {
                    for tag in &tags {
                        let q = lahar_query::parse_and_validate(
                            rt_db.catalog(),
                            rt_db.interner(),
                            &q1(tag),
                        )
                        .unwrap();
                        let eval = Lahar::compile_with(&rt_db, &q, CompileOptions::new()).unwrap();
                        std::hint::black_box(eval.prob_series(rt_db.horizon()).unwrap());
                    }
                });
                rt_eff_sample = effective_objects_per_sec(n, ticks, rt_secs);
            }
        }
    }

    println!(
        "\neffective objects/sec: real-time {rt_eff_sample:.0} vs archived {ar_eff_sample:.0} \
         ({:.1}x slowdown; paper reports 9-10x, driven by the CPT tuple blow-up)",
        rt_eff_sample / ar_eff_sample.max(1e-9)
    );
}
