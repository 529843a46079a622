//! Engine edge cases: degenerate databases, empty streams, deterministic
//! inputs, and boundary conditions around the horizon.

use lahar_core::{CompileOptions, EngineError, Lahar, Sampler, SamplerConfig};
use lahar_model::{Database, StreamBuilder};
use lahar_query::{parse_and_validate, NormalQuery};

fn empty_db() -> Database {
    let mut db = Database::new();
    db.declare_stream("At", &["p"], &["l"]).unwrap();
    db
}

#[test]
fn query_over_database_with_no_streams() {
    let db = empty_db();
    // No stream can ever match: probability 0 everywhere, horizon 0.
    let series = Lahar::prob_series(&db, "At('joe', 'a')").unwrap();
    assert!(series.is_empty());
}

#[test]
fn query_over_empty_stream() {
    let mut db = empty_db();
    let b = StreamBuilder::new(db.interner(), "At", &["joe"], &["a"]);
    db.add_stream(b.independent(vec![]).unwrap()).unwrap();
    let series = Lahar::prob_series(&db, "At('joe', 'a')").unwrap();
    assert!(series.is_empty());
    // Stepping past the end yields all-bottom probabilities.
    let mut eval = Lahar::compile_with(&db, "At('joe', 'a')", CompileOptions::new()).unwrap();
    for _ in 0..5 {
        assert_eq!(eval.step().unwrap(), 0.0);
    }
}

#[test]
fn deterministic_streams_give_zero_one_answers() {
    let mut db = empty_db();
    let b = StreamBuilder::new(db.interner(), "At", &["joe"], &["a", "b"]);
    db.add_stream(
        b.deterministic(&[Some("a"), None, Some("b"), Some("a")])
            .unwrap(),
    )
    .unwrap();
    let series = Lahar::prob_series(&db, "At('joe','a') ; At('joe','b')").unwrap();
    assert_eq!(series, vec![0.0, 0.0, 1.0, 0.0]);
}

#[test]
fn certain_event_every_step_saturates_kleene() {
    let mut db = empty_db();
    let b = StreamBuilder::new(db.interner(), "At", &["joe"], &["a"]);
    db.add_stream(b.deterministic(&[Some("a"); 5]).unwrap())
        .unwrap();
    let series = Lahar::prob_series(&db, "(At('joe', l))+{}").unwrap();
    assert_eq!(series, vec![1.0; 5]);
}

#[test]
fn probabilities_remain_normalized_under_long_runs() {
    let mut db = empty_db();
    let b = StreamBuilder::new(db.interner(), "At", &["joe"], &["a", "b"]);
    let init = b.marginal(&[("a", 0.5), ("b", 0.5)]).unwrap();
    let cpt = b
        .cpt(&[
            ("a", "a", 0.5),
            ("a", "b", 0.5),
            ("b", "b", 0.5),
            ("b", "a", 0.5),
        ])
        .unwrap();
    db.add_stream(b.markov(init, vec![cpt; 200]).unwrap())
        .unwrap();
    for p in Lahar::prob_series(&db, "At('joe','a') ; At('joe','b')").unwrap() {
        assert!((0.0..=1.0).contains(&p), "{p}");
    }
}

#[test]
fn unknown_stream_type_is_a_validation_error() {
    let db = empty_db();
    match Lahar::compile_with(&db, "Missing('x')", CompileOptions::new()) {
        Err(EngineError::Query(_)) => {}
        other => panic!("expected validation error, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn sampler_on_empty_database_returns_zeroes() {
    let db = empty_db();
    let q = parse_and_validate(db.catalog(), db.interner(), "At(p,'a') ; At(p,'b')").unwrap();
    let nq = NormalQuery::from_query(&q);
    let s = Sampler::with_config(&db, &nq, SamplerConfig::default()).unwrap();
    assert_eq!(s.n_groundings(), 0);
    assert!(s.prob_series(&db, 3).iter().all(|&p| p == 0.0));
}

#[test]
fn queries_at_the_32_subgoal_limit_are_rejected() {
    let mut db = empty_db();
    let b = StreamBuilder::new(db.interner(), "At", &["joe"], &["a"]);
    db.add_stream(b.deterministic(&[Some("a")]).unwrap())
        .unwrap();
    let big = vec!["At('joe','a')"; 33].join(" ; ");
    assert!(Lahar::compile_with(&db, big.as_str(), CompileOptions::new()).is_err());
    let ok = vec!["At('joe','a')"; 32].join(" ; ");
    assert!(Lahar::compile_with(&db, ok.as_str(), CompileOptions::new()).is_ok());
}

#[test]
fn conflicting_simultaneous_streams_combine() {
    // Two people at the same timestep: "someone is at a" unions their
    // independent probabilities.
    let mut db = empty_db();
    for (p, pr) in [("joe", 0.5), ("sue", 0.5)] {
        let b = StreamBuilder::new(db.interner(), "At", &[p], &["a"]);
        db.add_stream(
            b.clone()
                .independent(vec![b.marginal(&[("a", pr)]).unwrap()])
                .unwrap(),
        )
        .unwrap();
    }
    let series = Lahar::prob_series(&db, "At(p, 'a')").unwrap();
    assert!((series[0] - 0.75).abs() < 1e-12);
}

#[test]
fn zero_probability_support_entries_are_harmless() {
    let mut db = empty_db();
    let b = StreamBuilder::new(db.interner(), "At", &["joe"], &["a", "never"]);
    let ms = vec![b.marginal(&[("a", 1.0), ("never", 0.0)]).unwrap()];
    db.add_stream(b.independent(ms).unwrap()).unwrap();
    let series = Lahar::prob_series(&db, "At('joe', 'never')").unwrap();
    assert_eq!(series, vec![0.0]);
}
