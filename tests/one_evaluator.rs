//! One evaluator for archive and stream: every way of computing a
//! regular or extended regular query's series — offline over the
//! archive, a session ticked from t = 0, a session that registers the
//! query mid-stream, a served late `register` (also on a server whose
//! sessions keep less history than the archive is long, which refuses a
//! registration past that window), and (with the `failpoints` feature)
//! a session recovering from a fault before any checkpoint, embedded
//! and served with bounded history — must agree bit for bit at every
//! tick.

use lahar::core::protocol::WireMarginal;
use lahar::model::{tuple, Database, Marginal, StreamBuilder, Value};
use lahar::{
    Algorithm, CompileOptions, EngineError, Lahar, LaharClient, LaharServer, RealTimeSession,
    ServerConfig, SessionConfig, TickMode, WireCode,
};
use proptest::prelude::*;

const DOMAIN: [&str; 3] = ["a", "h", "c"];

/// Per-key extended sequences, a Kleene-plus shape with a
/// relation-conditioned body, and a fully grounded (regular) query.
const QUERIES: [&str; 4] = [
    "At(p,'a') ; At(p,'c')",
    "At(p,'h') ; At(p,'c')",
    "At(p,'a') ; (At(p, l))+{p | Hallway(l)} ; At(p,'c')",
    "At('p0','a') ; At('p0','c')",
];

#[derive(Debug, Clone)]
struct Archive {
    /// `series[person][t]` = raw weights over [`DOMAIN`] (⊥ absorbs the
    /// rest); people's series lengths differ, so shorter streams read
    /// all-⊥ past their end.
    series: Vec<Vec<(f64, f64, f64)>>,
    /// Tick at which the late registrations happen, `0..=horizon`.
    k: u32,
    /// Tick whose step faults in the recovery leg, `0..horizon`.
    #[cfg_attr(not(feature = "failpoints"), allow(dead_code))]
    fault: u32,
    /// History window of the bounded-history server, `1..=horizon`
    /// (a window must be non-zero; below the horizon the session
    /// retires its history before the archive ends).
    history: u32,
}

fn archive() -> impl Strategy<Value = Archive> {
    let weights = (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64);
    (
        prop::collection::vec(prop::collection::vec(weights, 1..9), 1..7),
        0..1_000_000u32,
        0..1_000_000u32,
        0..1_000_000u32,
    )
        .prop_map(|(series, k_seed, fault_seed, history_seed)| {
            let horizon = series.iter().map(Vec::len).max().unwrap() as u32;
            Archive {
                series,
                k: k_seed % (horizon + 1),
                fault: fault_seed % horizon,
                history: 1 + history_seed % horizon,
            }
        })
}

fn schema(n_people: usize) -> (Database, Vec<StreamBuilder>) {
    let mut db = Database::new();
    db.declare_stream("At", &["person"], &["loc"]).unwrap();
    db.declare_relation("Hallway", 1).unwrap();
    let i = db.interner().clone();
    db.insert_relation_tuple("Hallway", tuple([i.intern("h")]))
        .unwrap();
    let builders = (0..n_people)
        .map(|p| StreamBuilder::new(&i, "At", &[&format!("p{p}")], &DOMAIN))
        .collect();
    (db, builders)
}

fn marginal(b: &StreamBuilder, w: (f64, f64, f64)) -> Marginal {
    let scale = 1.0 / (w.0 + w.1 + w.2 + 1.0);
    b.marginal(&[
        (DOMAIN[0], w.0 * scale),
        (DOMAIN[1], w.1 * scale),
        (DOMAIN[2], w.2 * scale),
    ])
    .unwrap()
}

fn archive_db(a: &Archive) -> Database {
    let (mut db, builders) = schema(a.series.len());
    for (b, rows) in builders.iter().zip(&a.series) {
        let ms = rows.iter().map(|&w| marginal(b, w)).collect();
        db.add_stream(b.clone().independent(ms).unwrap()).unwrap();
    }
    db
}

/// The schema a session or server hosts: the archive's streams, empty.
fn schema_db(n_people: usize) -> Database {
    let (mut db, builders) = schema(n_people);
    for b in builders {
        db.add_stream(b.independent(vec![]).unwrap()).unwrap();
    }
    db
}

fn sequential_session(n_people: usize) -> RealTimeSession {
    let config = SessionConfig::builder()
        .tick_mode(TickMode::Sequential)
        .build()
        .unwrap();
    RealTimeSession::with_config(schema_db(n_people), config).unwrap()
}

/// Stages tick `t` of the archive: every stream still recording.
fn stage(session: &mut RealTimeSession, archive: &Database, t: u32) {
    let staged: Vec<_> = archive
        .streams()
        .iter()
        .filter(|s| (t as usize) < s.len())
        .map(|s| (session.stream_id(s.id()).unwrap(), s.marginal_at(t)))
        .collect();
    session.stage_batch(staged).unwrap();
}

/// Stages tick `t` of the archive and closes it, returning every
/// query's answer.
fn tick_all(session: &mut RealTimeSession, archive: &Database, t: u32) -> Vec<f64> {
    stage(session, archive, t);
    session
        .tick()
        .unwrap()
        .iter()
        .map(|a| a.probability)
        .collect()
}

/// [`tick_all`] for a session hosting one query.
fn tick(session: &mut RealTimeSession, archive: &Database, t: u32) -> f64 {
    let answers = tick_all(session, archive, t);
    assert_eq!(answers.len(), 1);
    answers[0]
}

/// Tick `t` of the archive as a wire frame.
fn wire_frame(archive: &Database, t: u32) -> Vec<WireMarginal> {
    let interner = archive.interner();
    archive
        .streams()
        .iter()
        .filter(|s| (t as usize) < s.len())
        .map(|s| WireMarginal {
            stream_type: interner.resolve(s.id().stream_type).unwrap(),
            key: s
                .id()
                .key
                .iter()
                .map(|v| match v {
                    Value::Str(s) => interner.resolve(*s).unwrap(),
                    other => panic!("non-string key {other:?}"),
                })
                .collect(),
            probs: s.marginal_at(t).probs().to_vec(),
        })
        .collect()
}

fn bits(series: &[f64]) -> Vec<u64> {
    series.iter().map(|p| p.to_bits()).collect()
}

/// A session that faults on tick `fault` before any checkpoint,
/// recovers from the recorded history, and runs on to the horizon.
#[cfg(feature = "failpoints")]
fn recovered_series(a: &Archive, db: &Database, src: &str) -> Vec<f64> {
    use lahar::core::failpoint::{self, FailAction, Schedule};
    let mut session = sequential_session(a.series.len());
    session.register("q", src).unwrap();
    let mut got: Vec<f64> = (0..a.fault).map(|t| tick(&mut session, db, t)).collect();
    failpoint::configure(
        "sequential_step",
        FailAction::Error,
        Schedule::Once { at: 0 },
    );
    stage(&mut session, db, a.fault);
    let faulted = session.tick();
    failpoint::clear_all();
    assert!(faulted.is_err() && session.is_poisoned());
    assert_eq!(session.stats().snapshot().checkpoints_taken, 0);
    got.push(session.recover().unwrap()[0].probability);
    got.extend((a.fault + 1..db.horizon()).map(|t| tick(&mut session, db, t)));
    got
}

/// A served session whose `sequential_step` faults on tick `fault`: the
/// server recovers it inside the command — from its recorded history, or
/// past the history window from its in-memory base — and its series
/// runs on to the horizon.
#[cfg(feature = "failpoints")]
fn served_recovered_series(client: &mut LaharClient, a: &Archive, db: &Database) -> Vec<f64> {
    use lahar::core::failpoint::{self, FailAction, Schedule};
    for t in 0..a.fault {
        client.stage_tick(&wire_frame(db, t)).unwrap();
    }
    failpoint::configure(
        "sequential_step",
        FailAction::Error,
        Schedule::Once { at: 0 },
    );
    client.stage_tick(&wire_frame(db, a.fault)).unwrap();
    let fired = failpoint::trigger_count("sequential_step");
    failpoint::clear_all();
    assert_eq!(fired, 1, "the fault at tick {} never fired", a.fault);
    for t in a.fault + 1..db.horizon() {
        client.stage_tick(&wire_frame(db, t)).unwrap();
    }
    client.series("q").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_evaluation_path_agrees_bit_for_bit(a in archive()) {
        let db = archive_db(&a);
        let horizon = db.horizon();
        let n_people = a.series.len();
        let server = LaharServer::start(
            ServerConfig::builder().n_shards(1).build().unwrap(),
            schema_db(n_people),
        )
        .unwrap();
        let bounded = LaharServer::start(
            ServerConfig::builder()
                .n_shards(1)
                .history_ticks(Some(a.history))
                .build()
                .unwrap(),
            schema_db(n_people),
        )
        .unwrap();
        for (qi, src) in QUERIES.iter().enumerate() {
            let offline = Lahar::compile_with(&db, *src, CompileOptions::new())
                .unwrap()
                .prob_series(horizon)
                .unwrap();
            prop_assert_eq!(offline.len(), horizon as usize);

            let mut from_zero = sequential_session(n_people);
            from_zero.register("q", src).unwrap();
            let live: Vec<f64> = (0..horizon).map(|t| tick(&mut from_zero, &db, t)).collect();
            prop_assert_eq!(bits(&live), bits(&offline), "{}: session from t = 0", src);

            // Registered at tick k beside a query that ran from t = 0.
            let mut late = sequential_session(n_people);
            late.register("warm", "At('p0','h')").unwrap();
            for t in 0..a.k {
                tick_all(&mut late, &db, t);
            }
            late.register("q", src).unwrap();
            let after: Vec<f64> =
                (a.k..horizon).map(|t| tick_all(&mut late, &db, t)[1]).collect();
            prop_assert_eq!(
                bits(&after),
                bits(&offline[a.k as usize..]),
                "{}: registered at tick {}", src, a.k
            );

            let mut client = LaharClient::connect(server.addr(), &format!("q{qi}")).unwrap();
            client.open().unwrap();
            for t in 0..a.k {
                client.stage_tick(&wire_frame(&db, t)).unwrap();
            }
            client.register("q", src).unwrap();
            prop_assert_eq!(
                bits(&client.series("q").unwrap()),
                bits(&offline[..a.k as usize]),
                "{}: served prefix at tick {}", src, a.k
            );
            for t in a.k..horizon {
                client.stage_tick(&wire_frame(&db, t)).unwrap();
            }
            prop_assert_eq!(
                bits(&client.series("q").unwrap()),
                bits(&offline),
                "{}: served series", src
            );

            // Bounded history: registration is exact within the window
            // and refused past it, and the session answers on exactly.
            let mut client =
                LaharClient::connect(bounded.addr(), &format!("q{qi}")).unwrap();
            client.open().unwrap();
            client.register("warm", src).unwrap();
            for t in 0..a.k {
                client.stage_tick(&wire_frame(&db, t)).unwrap();
            }
            let late = client.register("q", src);
            if a.k <= a.history {
                late.unwrap();
                prop_assert_eq!(
                    bits(&client.series("q").unwrap()),
                    bits(&offline[..a.k as usize]),
                    "{}: bounded prefix at tick {}", src, a.k
                );
            } else {
                match late {
                    Err(EngineError::Remote { code, .. }) => {
                        prop_assert_eq!(code, WireCode::HistoryRetired)
                    }
                    other => prop_assert!(false, "{}: expected history_retired, got {:?}", src, other),
                }
            }
            for t in a.k..horizon {
                client.stage_tick(&wire_frame(&db, t)).unwrap();
            }
            prop_assert_eq!(
                bits(&client.series("warm").unwrap()),
                bits(&offline),
                "{}: bounded served series (history {})", src, a.history
            );
            if a.k <= a.history {
                prop_assert_eq!(
                    bits(&client.series("q").unwrap()),
                    bits(&offline),
                    "{}: bounded late series", src
                );
            }

            #[cfg(feature = "failpoints")]
            prop_assert_eq!(
                bits(&recovered_series(&a, &db, src)),
                bits(&offline),
                "{}: recovered from a fault at tick {}", src, a.fault
            );

            #[cfg(feature = "failpoints")]
            {
                let mut client =
                    LaharClient::connect(bounded.addr(), &format!("r{qi}")).unwrap();
                client.open().unwrap();
                client.register("q", src).unwrap();
                prop_assert_eq!(
                    bits(&served_recovered_series(&mut client, &a, &db)),
                    bits(&offline),
                    "{}: served recovery from a fault at tick {} (history {})",
                    src, a.fault, a.history
                );
            }
        }
        for server in [server, bounded] {
            let mut client = LaharClient::connect(server.addr(), "admin").unwrap();
            client.shutdown_server().unwrap();
            server.join().unwrap();
        }
    }
}

/// An archive mixing a Markov stream with an independent one: Markov
/// chains step from the database beside the batched independent ones,
/// and the combination still matches the possible-world oracle.
#[test]
fn mixed_markov_and_independent_archive_matches_oracle() {
    let (mut db, builders) = schema(2);
    let joe = &builders[0];
    let init = joe.marginal(&[("a", 0.6), ("h", 0.2)]).unwrap();
    let cpt = joe
        .cpt(&[
            ("a", "a", 0.5),
            ("a", "c", 0.3),
            ("h", "c", 0.6),
            ("c", "c", 0.7),
            ("c", "a", 0.2),
        ])
        .unwrap();
    db.add_stream(joe.clone().markov(init, vec![cpt.clone(), cpt]).unwrap())
        .unwrap();
    let sue = &builders[1];
    let ms = [(0.7, 0.1, 0.1), (0.2, 0.5, 0.1), (0.1, 0.1, 0.6)]
        .iter()
        .map(|&w| marginal(sue, w))
        .collect();
    db.add_stream(sue.clone().independent(ms).unwrap()).unwrap();
    assert!(db.streams()[0].is_markov() && !db.streams()[1].is_markov());

    for (src, algorithm) in [
        ("At(p,'a') ; At(p,'c')", Algorithm::ExtendedRegular),
        (
            "At(p,'a') ; (At(p, l))+{p | Hallway(l)} ; At(p,'c')",
            Algorithm::ExtendedRegular,
        ),
        ("At('p0','a') ; At('p1','c')", Algorithm::Regular),
    ] {
        let compiled = Lahar::compile_with(&db, src, CompileOptions::new()).unwrap();
        assert_eq!(compiled.algorithm(), algorithm, "{src}");
        let got = compiled.prob_series(db.horizon()).unwrap();
        let q = lahar::query::parse_query(db.interner(), src).unwrap();
        let want = lahar::query::prob_series(&db, &q).unwrap();
        assert_eq!(got.len(), want.len());
        for (t, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() <= 1e-9, "{src} t={t}: {g} vs oracle {w}");
        }
    }
}
