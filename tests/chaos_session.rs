//! Chaos suite: deterministic fault injection against the streaming
//! session's resilience layer (`cargo test --features failpoints`).
//!
//! Every test drives a faulty session and a fault-free sequential
//! reference through the same marginal script and asserts that alerts
//! after recovery are **bit-identical** (`f64::to_bits`) to the
//! reference — the acceptance bar of the resilience layer.
//!
//! The fail-point registry is process-global, so tests serialize on a
//! local mutex and disarm every point on entry and exit.

#![cfg(feature = "failpoints")]

use lahar::core::failpoint::{self, FailAction, Schedule};
use lahar::core::protocol::WireMarginal;
use lahar::core::EngineError;
use lahar::model::{Database, Marginal, StreamBuilder};
use lahar::{
    Lahar, LaharClient, LaharServer, RealTimeSession, ServerConfig, SessionConfig, TickMode,
};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Serializes chaos tests (the fail-point registry is process-global)
/// and guarantees a clean registry on entry and exit.
struct ChaosGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl ChaosGuard {
    fn acquire() -> Self {
        static LOCK: Mutex<()> = Mutex::new(());
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        failpoint::clear_all();
        ChaosGuard(guard)
    }
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        failpoint::clear_all();
    }
}

fn schema_db() -> (Database, StreamBuilder, StreamBuilder) {
    let mut db = Database::new();
    db.declare_stream("At", &["person"], &["loc"]).unwrap();
    let i = db.interner().clone();
    let joe = StreamBuilder::new(&i, "At", &["joe"], &["a", "h", "c"]);
    let sue = StreamBuilder::new(&i, "At", &["sue"], &["a", "h", "c"]);
    db.add_stream(joe.clone().independent(vec![]).unwrap())
        .unwrap();
    db.add_stream(sue.clone().independent(vec![]).unwrap())
        .unwrap();
    (db, joe, sue)
}

/// A fixed 8-tick marginal script over both streams.
fn script(joe: &StreamBuilder, sue: &StreamBuilder) -> Vec<Vec<(usize, Marginal)>> {
    let probs = [
        [("a", 0.6), ("h", 0.2)],
        [("h", 0.5), ("c", 0.3)],
        [("c", 0.7), ("a", 0.1)],
        [("a", 0.4), ("c", 0.4)],
        [("c", 0.9), ("h", 0.05)],
        [("h", 0.3), ("a", 0.5)],
        [("a", 0.8), ("c", 0.1)],
        [("c", 0.6), ("h", 0.2)],
    ];
    probs
        .iter()
        .enumerate()
        .map(|(t, p)| {
            vec![
                (0, joe.marginal(&p[..1 + t % 2]).unwrap()),
                (1, sue.marginal(&p[1..]).unwrap()),
            ]
        })
        .collect()
}

fn register_all(session: &mut RealTimeSession) {
    session.register("ext", "At(p,'a') ; At(p,'c')").unwrap();
    session
        .register("joe", "At('joe','a') ; At('joe','c')")
        .unwrap();
    session.register("sue_h", "At('sue','h')").unwrap();
}

/// Resolves a raw script index to the session's opaque stream handle.
fn sid(session: &RealTimeSession, idx: usize) -> lahar::StreamId {
    session.database().stream_id_at(idx).unwrap()
}

fn parallel_session(config_patch: impl FnOnce(&mut SessionConfig)) -> RealTimeSession {
    let (db, _, _) = schema_db();
    let mut config = SessionConfig::builder()
        .tick_mode(TickMode::Parallel)
        .n_workers(3)
        .build()
        .unwrap();
    config_patch(&mut config);
    let mut session = RealTimeSession::with_config(db, config).unwrap();
    register_all(&mut session);
    session
}

/// Fault-free sequential reference run over the full script.
fn reference_alerts(ticks: &[Vec<(usize, Marginal)>]) -> Vec<Vec<(String, u32, u64)>> {
    let (db, _, _) = schema_db();
    let mut session = RealTimeSession::with_config(
        db,
        SessionConfig::builder()
            .tick_mode(TickMode::Sequential)
            .build()
            .unwrap(),
    )
    .unwrap();
    register_all(&mut session);
    ticks
        .iter()
        .map(|staged| {
            for (idx, m) in staged {
                session.stage(sid(&session, *idx), m.clone()).unwrap();
            }
            session
                .tick()
                .unwrap()
                .into_iter()
                .map(|a| (a.name.to_string(), a.t, a.probability.to_bits()))
                .collect()
        })
        .collect()
}

fn assert_tick_matches(got: &[lahar::core::Alert], want: &[(String, u32, u64)]) {
    assert_eq!(got.len(), want.len());
    for (a, (name, t, bits)) in got.iter().zip(want) {
        assert_eq!(&*a.name, name);
        assert_eq!(a.t, *t);
        assert_eq!(
            a.probability.to_bits(),
            *bits,
            "alert '{}' at t={} diverged: {} vs {}",
            name,
            t,
            a.probability,
            f64::from_bits(*bits)
        );
    }
}

/// Drives `session` through the script, injecting `arm` immediately
/// before tick `fault_at`, and checks: the faulted tick errors with
/// `expect_err`, `recover()` completes it bit-identically to the
/// reference, and every later tick stays bit-identical.
fn run_fault_recover_script(
    mut session: RealTimeSession,
    fault_at: usize,
    arm: impl FnOnce(),
    expect_err: impl FnOnce(&EngineError),
) {
    let (_, joe, sue) = schema_db();
    let ticks = script(&joe, &sue);
    let reference = reference_alerts(&ticks);
    // Option-wrapped so the compiler accepts FnOnce calls inside the
    // loop: the fault fires on exactly one iteration.
    let (mut arm, mut expect_err) = (Some(arm), Some(expect_err));
    for (t, staged) in ticks.iter().enumerate() {
        for (idx, m) in staged {
            session.stage(sid(&session, *idx), m.clone()).unwrap();
        }
        if t == fault_at {
            (arm.take().expect("single fault tick"))();
            let err = session.tick().unwrap_err();
            (expect_err.take().expect("single fault tick"))(&err);
            assert!(err.is_recoverable(), "fault must be recoverable: {err}");
            assert!(session.is_poisoned());
            failpoint::clear_all();
            let alerts = session.recover().unwrap();
            assert!(!session.is_poisoned());
            assert_tick_matches(&alerts, &reference[t]);
        } else {
            assert_tick_matches(&session.tick().unwrap(), &reference[t]);
        }
    }
    assert_eq!(session.stats().snapshot().recoveries, 1);
}

/// Tentpole acceptance: a worker panic mid-run, recover(), and every
/// subsequent tick bit-identical to a fault-free session.
#[test]
fn worker_panic_mid_tick_recovers_bit_identically() {
    let _guard = ChaosGuard::acquire();
    run_fault_recover_script(
        parallel_session(|_| {}),
        3,
        || failpoint::configure("worker_step", FailAction::Panic, Schedule::Once { at: 0 }),
        |err| {
            assert!(
                matches!(
                    err,
                    EngineError::WorkerPanicked {
                        worker: Some(_),
                        ..
                    }
                ),
                "expected a located worker panic, got {err:?}"
            );
        },
    );
}

/// Same fault, but recovery runs from a checkpoint plus the bounded
/// replay log instead of replaying the whole database history.
#[test]
fn worker_panic_recovers_from_checkpoint_and_replay_log() {
    let _guard = ChaosGuard::acquire();
    let session = parallel_session(|c| c.checkpoint_interval = 2);
    run_fault_recover_script(
        session,
        5,
        || failpoint::configure("worker_step", FailAction::Panic, Schedule::Once { at: 0 }),
        |err| assert!(matches!(err, EngineError::WorkerPanicked { .. })),
    );
}

/// An injected structured error (not a panic) takes the same
/// poison-then-recover path.
#[test]
fn injected_worker_error_recovers_bit_identically() {
    let _guard = ChaosGuard::acquire();
    run_fault_recover_script(
        parallel_session(|_| {}),
        2,
        || failpoint::configure("worker_step", FailAction::Error, Schedule::Once { at: 0 }),
        |err| assert_eq!(*err, EngineError::FaultInjected("worker_step".to_owned())),
    );
}

/// A panic on the sequential path drops every shard; recover() must
/// rebuild all of them bit-identically.
#[test]
fn sequential_path_panic_recovers_bit_identically() {
    let _guard = ChaosGuard::acquire();
    let (db, _, _) = schema_db();
    let mut session = RealTimeSession::with_config(
        db,
        SessionConfig::builder()
            .tick_mode(TickMode::Sequential)
            .build()
            .unwrap(),
    )
    .unwrap();
    register_all(&mut session);
    run_fault_recover_script(
        session,
        4,
        || {
            failpoint::configure(
                "sequential_step",
                FailAction::Panic,
                Schedule::Once { at: 1 },
            )
        },
        |err| {
            assert!(
                matches!(err, EngineError::WorkerPanicked { worker: None, .. }),
                "sequential faults carry no worker index, got {err:?}"
            );
        },
    );
}

/// Watchdog: a stalled worker trips the tick deadline, the session
/// poisons and degrades, and after recovery ticks run sequentially
/// (still bit-identical) until degraded mode is cleared.
#[test]
fn tick_timeout_degrades_to_sequential_then_recovers() {
    let _guard = ChaosGuard::acquire();
    let mut session = parallel_session(|c| c.tick_deadline = Some(Duration::from_millis(40)));
    let (_, joe, sue) = schema_db();
    let ticks = script(&joe, &sue);
    let reference = reference_alerts(&ticks);

    for t in 0..2 {
        for (idx, m) in &ticks[t] {
            session.stage(sid(&session, *idx), m.clone()).unwrap();
        }
        assert_tick_matches(&session.tick().unwrap(), &reference[t]);
    }
    let parallel_before = session.stats().snapshot().parallel_ticks;

    // Stall every worker step well past the deadline.
    failpoint::configure(
        "worker_step",
        FailAction::Delay(Duration::from_millis(400)),
        Schedule::EveryNth { n: 1 },
    );
    for (idx, m) in &ticks[2] {
        session.stage(sid(&session, *idx), m.clone()).unwrap();
    }
    let err = session.tick().unwrap_err();
    assert!(
        matches!(err, EngineError::TickTimeout { .. }),
        "expected a watchdog trip, got {err:?}"
    );
    assert!(err.is_recoverable());
    assert!(session.is_poisoned());
    assert!(session.is_degraded());
    failpoint::clear_all();

    let alerts = session.recover().unwrap();
    assert_tick_matches(&alerts, &reference[2]);

    // Degraded mode: later ticks avoid the pool but stay bit-identical.
    for t in 3..6 {
        for (idx, m) in &ticks[t] {
            session.stage(sid(&session, *idx), m.clone()).unwrap();
        }
        assert_tick_matches(&session.tick().unwrap(), &reference[t]);
    }
    let snap = session.stats().snapshot();
    assert_eq!(
        snap.parallel_ticks, parallel_before,
        "degraded ticks must not use the pool"
    );
    assert_eq!(snap.degraded_ticks, 3);
    assert_eq!(snap.recoveries, 1);

    // Clearing degraded mode re-engages the pool, still bit-identical.
    session.clear_degraded();
    for t in 6..8 {
        for (idx, m) in &ticks[t] {
            session.stage(sid(&session, *idx), m.clone()).unwrap();
        }
        assert_tick_matches(&session.tick().unwrap(), &reference[t]);
    }
    assert_eq!(
        session.stats().snapshot().parallel_ticks,
        parallel_before + 2
    );
}

/// A worker panic in the middle of a multi-tick epoch: recover()
/// re-completes the whole in-flight epoch in one call, and its alerts —
/// plus everything before and after — stay bit-identical to the
/// per-tick sequential reference.
#[test]
fn mid_epoch_worker_panic_recovers_whole_epoch_bit_identically() {
    let _guard = ChaosGuard::acquire();
    let mut session = parallel_session(|c| c.max_epoch_ticks = 4);
    let (_, joe, sue) = schema_db();
    let ticks = script(&joe, &sue);
    let reference = reference_alerts(&ticks);
    let to_batch = |session: &RealTimeSession,
                    slice: &[Vec<(usize, Marginal)>]|
     -> Vec<Vec<(lahar::StreamId, Marginal)>> {
        slice
            .iter()
            .map(|staged| {
                staged
                    .iter()
                    .map(|(idx, m)| (sid(session, *idx), m.clone()))
                    .collect()
            })
            .collect()
    };

    // The first epoch (ticks 0–3) closes clean under a single join.
    let batch = to_batch(&session, &ticks[..4]);
    let alerts = session.tick_epoch(batch).unwrap();
    let flat: Vec<_> = reference[..4].iter().flatten().cloned().collect();
    assert_tick_matches(&alerts, &flat);
    assert_eq!(session.stats().snapshot().epochs, 1);

    // Panic partway into the second epoch: with 3 shard jobs each
    // stepping 4 ticks, hit 4 lands after some of the epoch's ticks
    // have already been stepped somewhere — a genuine mid-epoch fault.
    failpoint::configure("worker_step", FailAction::Panic, Schedule::Once { at: 4 });
    let batch = to_batch(&session, &ticks[4..]);
    let err = session.tick_epoch(batch).unwrap_err();
    assert!(
        matches!(err, EngineError::WorkerPanicked { .. }),
        "expected a worker panic, got {err:?}"
    );
    assert!(err.is_recoverable());
    assert!(session.is_poisoned());
    failpoint::clear_all();

    // recover() targets the whole interrupted epoch, not just one tick.
    let alerts = session.recover().unwrap();
    let flat: Vec<_> = reference[4..].iter().flatten().cloned().collect();
    assert_tick_matches(&alerts, &flat);
    assert!(!session.is_poisoned());
    assert_eq!(session.now(), ticks.len() as u32);
    assert_eq!(session.stats().snapshot().recoveries, 1);
}

/// The poisoned-session regression surface: between fault and recovery,
/// every mutating entry point refuses cleanly instead of corrupting or
/// succeeding silently.
#[test]
fn poisoned_window_rejects_mutations_until_recovered() {
    let _guard = ChaosGuard::acquire();
    let mut session = parallel_session(|_| {});
    let (_, joe, sue) = schema_db();
    let ticks = script(&joe, &sue);
    for (idx, m) in &ticks[0] {
        session.stage(sid(&session, *idx), m.clone()).unwrap();
    }
    failpoint::configure("worker_step", FailAction::Panic, Schedule::Once { at: 0 });
    session.tick().unwrap_err();
    failpoint::clear_all();

    let staged = session.stage(sid(&session, 0), joe.marginal(&[("a", 0.5)]).unwrap());
    assert_eq!(staged, Err(EngineError::SessionPoisoned));
    assert_eq!(
        session.register("late", "At('sue','a')").unwrap_err(),
        EngineError::SessionPoisoned
    );
    assert_eq!(session.tick().unwrap_err(), EngineError::SessionPoisoned);

    session.recover().unwrap();
    let (id0, id1) = (sid(&session, 0), sid(&session, 1));
    session
        .stage(id0, joe.marginal(&[("a", 0.5)]).unwrap())
        .unwrap();
    session
        .stage(id1, sue.marginal(&[("h", 0.4)]).unwrap())
        .unwrap();
    session.tick().unwrap();
}

/// The sampler fail point gates Monte Carlo compilation.
#[test]
fn sampler_failpoint_injects_structured_errors() {
    let _guard = ChaosGuard::acquire();
    let mut db = Database::new();
    db.declare_stream("At", &["person"], &["loc"]).unwrap();
    let i = db.interner().clone();
    for p in ["joe", "sue"] {
        let b = StreamBuilder::new(&i, "At", &[p], &["a", "c"]);
        let ms = vec![
            b.marginal(&[("a", 0.5)]).unwrap(),
            b.marginal(&[("c", 0.5)]).unwrap(),
        ];
        db.add_stream(b.independent(ms).unwrap()).unwrap();
    }
    let src = "sigma[x = y](At(x,'a') ; At(y,'c'))";
    failpoint::configure("sampler", FailAction::Error, Schedule::EveryNth { n: 1 });
    assert_eq!(
        Lahar::prob_series(&db, src).unwrap_err(),
        EngineError::FaultInjected("sampler".to_owned())
    );
    failpoint::clear("sampler");
    assert!(Lahar::prob_series(&db, src).is_ok());
}

/// A served session bounded to a 2-tick history retires it on tick 3,
/// then a `worker_step` (parallel path) or `sequential_step` fault —
/// first on a one-tick frame, then in a two-tick epoch (a three-tick
/// frame splits into epochs [5, 6) and [6, 8) at the base re-take; the
/// session's 4 chains check the point once per tick, so hit 4 is tick
/// 6) — is recovered from the in-memory base and replay log: every
/// query's served series stays bit-identical to the fault-free
/// reference.
#[test]
fn retired_served_session_recovers_step_faults_bit_identically() {
    let _guard = ChaosGuard::acquire();
    let (db, joe, sue) = schema_db();
    let ticks = script(&joe, &sue);
    let reference = reference_alerts(&ticks);
    let frames: Vec<Vec<WireMarginal>> = ticks
        .iter()
        .map(|staged| {
            staged
                .iter()
                .map(|(idx, m)| WireMarginal {
                    stream_type: "At".to_owned(),
                    key: vec![["joe", "sue"][*idx].to_owned()],
                    probs: m.probs().to_vec(),
                })
                .collect()
        })
        .collect();
    for (mode, point) in [
        (TickMode::Parallel, "worker_step"),
        (TickMode::Sequential, "sequential_step"),
    ] {
        let config = ServerConfig::builder()
            .n_shards(1)
            .history_ticks(Some(2))
            .session_config(
                SessionConfig::builder()
                    .tick_mode(mode)
                    .n_workers(2)
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap();
        let server = LaharServer::start(config, db.clone()).unwrap();
        let mut client = LaharClient::connect(server.addr(), point).unwrap();
        client.open().unwrap();
        client.register("ext", "At(p,'a') ; At(p,'c')").unwrap();
        client
            .register("joe", "At('joe','a') ; At('joe','c')")
            .unwrap();
        client.register("sue_h", "At('sue','h')").unwrap();
        for frame in &frames[..4] {
            client.stage_tick(frame).unwrap();
        }
        failpoint::configure(point, FailAction::Error, Schedule::Once { at: 0 });
        client.stage_tick(&frames[4]).unwrap();
        assert_eq!(
            failpoint::trigger_count(point),
            1,
            "{point}: one-tick fault"
        );
        failpoint::configure(point, FailAction::Error, Schedule::Once { at: 4 });
        client.stage_epoch(&frames[5..]).unwrap();
        assert_eq!(
            failpoint::trigger_count(point),
            1,
            "{point}: mid-epoch fault"
        );
        failpoint::clear_all();
        for (qi, name) in ["ext", "joe", "sue_h"].into_iter().enumerate() {
            let want: Vec<u64> = reference.iter().map(|tick| tick[qi].2).collect();
            let got: Vec<u64> = client
                .series(name)
                .unwrap()
                .iter()
                .map(|p| p.to_bits())
                .collect();
            assert_eq!(got, want, "{point}: served series of {name}");
        }
        client.shutdown_server().unwrap();
        server.join().unwrap();
    }
}
