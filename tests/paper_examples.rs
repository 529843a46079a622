//! Regression tests pinned to the paper's own examples: every named query
//! must parse, classify, and behave exactly as the paper describes.

use lahar::core::{Algorithm, CompileOptions, Lahar};
use lahar::model::{Database, StreamBuilder};
use lahar::query::{classify, compile_safe_plan, parse_and_validate, NormalQuery, QueryClass};

fn paper_db() -> Database {
    let mut db = Database::new();
    db.declare_stream("At", &["person"], &["loc"]).unwrap();
    db.declare_stream("Carries", &["person", "object"], &["loc"])
        .unwrap();
    db.declare_stream("R", &["k"], &["v"]).unwrap();
    db.declare_stream("S", &["k"], &["v"]).unwrap();
    db.declare_stream("T", &["k"], &["v"]).unwrap();
    for (rel, arity) in [
        ("Hallway", 1),
        ("Person", 1),
        ("Laptop", 1),
        ("Office", 2),
        ("CRoom", 1),
        ("LectureRoom", 1),
    ] {
        db.declare_relation(rel, arity).unwrap();
    }
    db
}

fn class_of(db: &Database, src: &str) -> QueryClass {
    let q = parse_and_validate(db.catalog(), db.interner(), src)
        .unwrap_or_else(|e| panic!("{src}: {e}"));
    classify(db.catalog(), &NormalQuery::from_query(&q))
}

#[test]
fn paper_query_classifications() {
    let db = paper_db();
    let cases = [
        // Ex 2.2 — q_JoeCoffee: constants only.
        (
            "At('Joe','220') ; At('Joe', l)[CRoom(l)] ; At('Joe','220')",
            QueryClass::Regular,
        ),
        // Ex 2.2 — q_AnyCoffee.
        (
            "sigma[Person(p) AND Office(p, l1) AND CRoom(l3)]\
             ( At(p, l1) ; (At(p, l2))+{p | Hallway(l2)} ; At(p, l3) )",
            QueryClass::ExtendedRegular,
        ),
        // Ex 3.2 — q_Joe,hall.
        (
            "At('Joe','a') ; (At('Joe', l))+{| Hallway(l)} ; At('Joe','c')",
            QueryClass::Regular,
        ),
        // Ex 3.6 — q_hall.
        (
            "sigma[Person(x)](At(x,'a') ; (At(x, l2))+{x | Hallway(l2)} ; At(x,'c'))",
            QueryClass::ExtendedRegular,
        ),
        // Ex 3.9 — q_talk.
        (
            "sigma[Person(x) AND Laptop(y) AND Office(x, z) AND LectureRoom(u)]\
             ( Carries(x, y, z) ; (Carries(x, y, _))+{x, y} ; At(x, u) )",
            QueryClass::Safe,
        ),
        // Fig 6 / Ex 3.17.
        ("R(x, _) ; S(x, _) ; T('a', y)", QueryClass::Safe),
        // §3.4 hardness frontier.
        ("sigma[x = y](R(x, _) ; S(y, _))", QueryClass::Unsafe),
        ("R('r', _) ; (S(x, _))+{x}", QueryClass::Unsafe),
        ("R('r', _) ; S(x, _) ; T(x, _)", QueryClass::Unsafe),
        ("R(x, _) ; S('s', _) ; T(x, _)", QueryClass::Unsafe),
    ];
    for (src, want) in cases {
        assert_eq!(class_of(&db, src), want, "{src}");
    }
}

#[test]
fn unsafe_queries_have_no_safe_plan_and_safe_queries_do() {
    let db = paper_db();
    let safe = "R(x, _) ; S(x, _) ; T('a', y)";
    let q = parse_and_validate(db.catalog(), db.interner(), safe).unwrap();
    assert!(compile_safe_plan(db.catalog(), &NormalQuery::from_query(&q)).is_ok());

    for src in [
        "sigma[x = y](R(x, _) ; S(y, _))",
        "R('r', _) ; S(x, _) ; T(x, _)",
        "R(x, _) ; S('s', _) ; T(x, _)",
    ] {
        let q = parse_and_validate(db.catalog(), db.interner(), src).unwrap();
        assert!(
            compile_safe_plan(db.catalog(), &NormalQuery::from_query(&q)).is_err(),
            "{src} must have no safe plan"
        );
    }
}

/// Example 3.11 end to end: q_f and q_s differ exactly as described, on
/// both deterministic and probabilistic data.
#[test]
fn example_3_11_qf_vs_qs() {
    let mut db = Database::new();
    db.declare_stream("R", &[], &["y"]).unwrap();
    let i = db.interner().clone();
    let b = StreamBuilder::new(&i, "R", &[], &["a", "b", "c"]);
    // The deterministic input I = R(a)@0, R(c)@1, R(b)@2.
    db.add_stream(b.deterministic(&[Some("a"), Some("c"), Some("b")]).unwrap())
        .unwrap();

    let qf = Lahar::prob_series(&db, "R('a') ; R('b')").unwrap();
    assert_eq!(qf, vec![0.0, 0.0, 1.0], "q_f is true at t=2");
    let qs = Lahar::prob_series(&db, "sigma[y = 'b'](R('a') ; R(y))").unwrap();
    assert_eq!(qs, vec![0.0, 0.0, 0.0], "q_s is never true");
}

/// The engine's dispatch matches the classification table in §3.
#[test]
fn dispatch_per_class() {
    let mut db = paper_db();
    let i = db.interner().clone();
    for key in ["k1", "k2"] {
        for st in ["R", "S", "T"] {
            let b = StreamBuilder::new(&i, st, &[key], &["a", "b"]);
            let ms = vec![
                b.marginal(&[("a", 0.5)]).unwrap(),
                b.marginal(&[("b", 0.5)]).unwrap(),
            ];
            db.add_stream(b.independent(ms).unwrap()).unwrap();
        }
    }
    let cases = [
        ("R('k1', 'a') ; S('k1', 'b')", Algorithm::Regular),
        ("R(x, 'a') ; S(x, 'b')", Algorithm::ExtendedRegular),
        ("R(x, _) ; S(x, _) ; T('k1', y)", Algorithm::SafePlan),
        ("sigma[x = y](R(x, _) ; S(y, _))", Algorithm::Sampling),
    ];
    for (src, algo) in cases {
        let compiled = Lahar::compile_with(&db, src, CompileOptions::new()).unwrap();
        assert_eq!(compiled.algorithm(), algo, "{src}");
    }
}

/// The complexity claims behind Theorems 3.3/3.7: regular evaluation state
/// does not grow with the stream length, extended regular state grows with
/// the number of keys.
#[test]
fn evaluator_state_scaling() {
    let mut db = Database::new();
    db.declare_stream("At", &["p"], &["l"]).unwrap();
    let i = db.interner().clone();
    for key in ["p1", "p2", "p3", "p4"] {
        let b = StreamBuilder::new(&i, "At", &[key], &["a", "b"]);
        let ms = (0..6)
            .map(|_| b.marginal(&[("a", 0.4), ("b", 0.4)]).unwrap())
            .collect();
        db.add_stream(b.independent(ms).unwrap()).unwrap();
    }
    let stats = lahar::EngineStats::new();
    let options = CompileOptions::new().instrument(&stats);
    let compiled = Lahar::compile_with(&db, "At(p,'a') ; At(p,'b')", options).unwrap();
    assert_eq!(compiled.algorithm(), Algorithm::ExtendedRegular);
    assert_eq!(
        stats.snapshot().bindings_grounded,
        4,
        "one chain per key (Thm 3.7)"
    );
}
