//! Fig 12 — real-time throughput vs concurrent tags, for Q1 (regular
//! selection) and Q2 (extended regular with a sequence).
//!
//! Competitors: the MLE baseline (deterministic CEP on the argmax stream)
//! and naïve random sampling at the paper's ε = δ = 0.1.
//!
//! Paper shape to reproduce: MLE is less than ~2x faster than Lahar on
//! independent streams, while sampling is orders of magnitude slower and
//! degrades further on Q2.

use lahar_baselines::{mle_world, DeterministicCep};
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

    for (qname, extended) in [
        ("Q1 (regular selection)", false),
        ("Q2 (ext. regular seq)", true),
    ] {
        header(
            &format!("Fig 12: real-time throughput, {qname}"),
            &["tags", "lahar t/s", "mle t/s", "sampling t/s", "lahar/mle"],
        );
        for &n in tag_counts {
            let dep = perf_deployment(n, ticks, 7);
            let db = dep.filtered_database();
            let tags = dep.tag_names();

            // Lahar.
            let (_, lahar_secs) = timed(|| {
                if extended {
                    let q =
                        lahar_query::parse_and_validate(db.catalog(), db.interner(), q2()).unwrap();
                    let eval = Lahar::compile_with(&db, &q, CompileOptions::new()).unwrap();
                    let s = eval.prob_series(db.horizon()).unwrap();
                    std::hint::black_box(s);
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

            // MLE baseline: determinize once, then deterministic CEP.
            let (_, mle_secs) = timed(|| {
                let world = mle_world(&db);
                if extended {
                    let q =
                        lahar_query::parse_and_validate(db.catalog(), db.interner(), q2()).unwrap();
                    let nq = NormalQuery::from_query(&q);
                    let cep = DeterministicCep::new(&db, &world, &nq).unwrap();
                    std::hint::black_box(cep.detect(&db, &world).unwrap());
                } else {
                    for tag in &tags {
                        let q =
                            lahar_query::parse_and_validate(db.catalog(), db.interner(), &q1(tag))
                                .unwrap();
                        let nq = NormalQuery::from_query(&q);
                        let cep = DeterministicCep::new(&db, &world, &nq).unwrap();
                        std::hint::black_box(cep.detect(&db, &world).unwrap());
                    }
                }
            });

            // Naïve random sampling (ε = δ = 0.1 → 192 sampled worlds).
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

            let lahar_tps = tuples_per_sec(&db, lahar_secs);
            let mle_tps = tuples_per_sec(&db, mle_secs);
            let sampling_tps = tuples_per_sec(&db, sampling_secs);
            row(
                &n.to_string(),
                &[
                    n as f64,
                    lahar_tps,
                    mle_tps,
                    sampling_tps,
                    lahar_tps / mle_tps,
                ],
            );
        }
    }
    println!(
        "\nshape: MLE within ~2x of Lahar; sampling orders of magnitude slower (paper Fig 12)."
    );
}
