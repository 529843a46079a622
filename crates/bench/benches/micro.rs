//! Criterion micro-benchmarks of the engine's hot paths: NFA stepping,
//! chain evaluation in both modes, interval recurrences, the sampler, and
//! the deterministic CEP baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use lahar_bench::{perf_deployment, q1, q2};
use lahar_core::{ChainEvaluator, CompileOptions, IntervalChain, Lahar, Sampler, SamplerConfig};
use lahar_query::{parse_and_validate, NormalQuery};
use std::hint::black_box;

fn nq(db: &lahar_model::Database, src: &str) -> NormalQuery {
    let q = parse_and_validate(db.catalog(), db.interner(), src).unwrap();
    NormalQuery::from_query(&q)
}

fn bench_chain_step(c: &mut Criterion) {
    let dep = perf_deployment(1, 60, 3);
    let filtered = dep.filtered_database();
    let smoothed = dep.smoothed_database();
    let q = nq(&filtered, &q1("person0"));

    c.bench_function("chain_step_independent", |b| {
        b.iter_batched(
            || ChainEvaluator::new(&filtered, &q.items).unwrap(),
            |mut chain| {
                for _ in 0..60 {
                    black_box(chain.step(&filtered));
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });
    let qm = nq(&smoothed, &q1("person0"));
    c.bench_function("chain_step_markov", |b| {
        b.iter_batched(
            || ChainEvaluator::new(&smoothed, &qm.items).unwrap(),
            |mut chain| {
                for _ in 0..60 {
                    black_box(chain.step(&smoothed));
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_extended(c: &mut Criterion) {
    let dep = perf_deployment(20, 60, 3);
    let db = dep.filtered_database();
    let q = parse_and_validate(db.catalog(), db.interner(), q2()).unwrap();
    c.bench_function("extended_regular_20_tags_60_ticks", |b| {
        b.iter_batched(
            || Lahar::compile_with(&db, &q, CompileOptions::new()).unwrap(),
            |eval| black_box(eval.prob_series(db.horizon()).unwrap()),
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_interval(c: &mut Criterion) {
    let dep = perf_deployment(1, 60, 3);
    let db = dep.smoothed_database();
    let q = nq(&db, &q1("person0"));
    c.bench_function("interval_chain_full_triangle_60", |b| {
        b.iter_batched(
            || IntervalChain::new(&db, &q.items).unwrap(),
            |mut ic| {
                for ts in (0..60).step_by(6) {
                    black_box(ic.prob(&db, ts, 59));
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_sampler(c: &mut Criterion) {
    let dep = perf_deployment(1, 60, 3);
    let db = dep.filtered_database();
    let q = nq(&db, &q1("person0"));
    c.bench_function("sampler_192_worlds_60_ticks", |b| {
        b.iter(|| {
            let s = Sampler::with_config(&db, &q, SamplerConfig::default()).unwrap();
            black_box(s.prob_series(&db, db.horizon()))
        })
    });
}

fn bench_cep_baseline(c: &mut Criterion) {
    let dep = perf_deployment(1, 60, 3);
    let db = dep.filtered_database();
    let world = lahar_baselines::mle_world(&db);
    let q = nq(&db, &q1("person0"));
    c.bench_function("deterministic_cep_60_ticks", |b| {
        b.iter(|| {
            let cep = lahar_baselines::DeterministicCep::new(&db, &world, &q).unwrap();
            black_box(cep.detect(&db, &world).unwrap())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_chain_step, bench_extended, bench_interval, bench_sampler, bench_cep_baseline
}
criterion_main!(benches);
