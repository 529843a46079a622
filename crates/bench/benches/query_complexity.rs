//! §4.3.2 — query-complexity experiment: throughput as the number of
//! subgoals grows, at a fixed 50 concurrent tags.
//!
//! Paper shape to reproduce: real-time (independent) processing keeps up
//! with the trace for up to ~5 subgoals; Markovian processing, which
//! carries more state, stays viable to ~3 subgoals — acceptable because
//! Markovian queries run offline.

use lahar_bench::*;
use lahar_core::{CompileOptions, Lahar};

/// An n-subgoal extended-regular chain through hallways ending in coffee.
fn chain_query(n_subgoals: usize) -> String {
    let mut parts = Vec::new();
    for i in 0..n_subgoals - 1 {
        parts.push(format!("At(p, l{i})[Hallway(l{i})]"));
    }
    parts.push(format!(
        "At(p, l{})[CoffeeRoom(l{})]",
        n_subgoals - 1,
        n_subgoals - 1
    ));
    parts.join(" ; ")
}

fn main() {
    let n_tags = if quick_mode() { 10 } else { 50 };
    let ticks = 60;
    let dep = perf_deployment(n_tags, ticks, 11);
    let filtered = dep.filtered_database();
    let smoothed = dep.smoothed_database();

    header(
        &format!("Query complexity at {n_tags} tags (throughput in tuples/s)"),
        &[
            "subgoals",
            "realtime t/s",
            "markov t/s",
            "rt secs",
            "mk secs",
        ],
    );
    // n = 1 has no shared variable (it is plain Q1 territory, Fig 12);
    // the sweep starts where the join machinery kicks in.
    let max_subgoals = if quick_mode() { 3 } else { 5 };
    for n in 2..=max_subgoals {
        let src = chain_query(n);
        let run = |db: &lahar_model::Database| {
            let q = lahar_query::parse_and_validate(db.catalog(), db.interner(), &src).unwrap();
            let (_, secs) = timed(|| {
                let eval = Lahar::compile_with(db, &q, CompileOptions::new()).unwrap();
                std::hint::black_box(eval.prob_series(db.horizon()).unwrap());
            });
            secs
        };
        let rt = run(&filtered);
        let mk = run(&smoothed);
        row(
            &n.to_string(),
            &[
                n as f64,
                tuples_per_sec(&filtered, rt),
                tuples_per_sec(&smoothed, mk),
                rt,
                mk,
            ],
        );
    }
    println!(
        "\nviability criterion (paper): processing time below the {ticks}-tick trace duration."
    );
}
