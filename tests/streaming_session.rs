//! Streaming-deployment regression suite: the incremental APIs
//! ([`CompiledQuery::step`], [`RealTimeSession::tick`]) must agree with
//! their batch and sequential counterparts on every algorithm path.

use lahar::model::{Database, Marginal, StreamBuilder};
use lahar::{CompileOptions, Lahar, RealTimeSession, SessionConfig, TickMode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A mixed database exercising all four compilation targets.
fn four_class_db() -> Database {
    let mut db = Database::new();
    db.declare_stream("At", &["person"], &["loc"]).unwrap();
    db.declare_stream("Door", &["id"], &["state"]).unwrap();
    db.declare_relation("Hallway", 1).unwrap();
    let i = db.interner().clone();
    db.insert_relation_tuple("Hallway", lahar::model::tuple([i.intern("h")]))
        .unwrap();
    for (p, pa) in [("joe", 0.5), ("sue", 0.3)] {
        let b = StreamBuilder::new(&i, "At", &[p], &["a", "h", "c"]);
        let ms = vec![
            b.marginal(&[("a", pa)]).unwrap(),
            b.marginal(&[("h", 0.6)]).unwrap(),
            b.marginal(&[("c", 0.5), ("h", 0.1)]).unwrap(),
            b.marginal(&[("c", 0.2), ("a", 0.3)]).unwrap(),
        ];
        db.add_stream(b.independent(ms).unwrap()).unwrap();
    }
    let b = StreamBuilder::new(&i, "Door", &["d1"], &["open", "closed"]);
    let ms = vec![
        b.marginal(&[("closed", 0.9)]).unwrap(),
        b.marginal(&[("open", 0.4)]).unwrap(),
        b.marginal(&[("open", 0.7)]).unwrap(),
        b.marginal(&[("closed", 0.5)]).unwrap(),
    ];
    db.add_stream(b.independent(ms).unwrap()).unwrap();
    db
}

/// One query per algorithm class over [`four_class_db`].
fn one_query_per_class() -> [(&'static str, lahar::Algorithm); 4] {
    use lahar::Algorithm::*;
    [
        ("At('joe','a') ; At('joe','c')", Regular),
        ("At(p,'a') ; At(p,'c')", ExtendedRegular),
        ("At(p,'a') ; At(p,'h') ; Door('d1', s)", SafePlan),
        ("sigma[x = y](At(x,'a') ; At(y,'c'))", Sampling),
    ]
}

/// Stepping a compiled query and then asking for the remaining series
/// must continue from the cursor — not restart from t = 0 — on every
/// algorithm path (the safe-plan path used to ignore the cursor).
#[test]
fn step_then_prob_series_continues_from_cursor() {
    let db = four_class_db();
    let horizon = db.horizon();
    for (src, algo) in one_query_per_class() {
        let full = Lahar::compile_with(&db, src, CompileOptions::new())
            .unwrap()
            .prob_series(horizon)
            .unwrap();
        for k in 1..horizon {
            let mut c = Lahar::compile_with(&db, src, CompileOptions::new()).unwrap();
            assert_eq!(c.algorithm(), algo, "{src}");
            let mut got = Vec::with_capacity(horizon as usize);
            for _ in 0..k {
                got.push(c.step().unwrap());
            }
            got.extend(c.prob_series(horizon - k).unwrap());
            assert_eq!(got.len(), full.len(), "{src} k={k}");
            for (t, (g, w)) in got.iter().zip(&full).enumerate() {
                assert!(
                    (g - w).abs() < 1e-12,
                    "{src} (k={k}) t={t}: stepped {g} vs batch {w}"
                );
            }
        }
    }
}

/// A random per-tick marginal over `domain` (with some mass usually left
/// on ⊥ so sequences do not saturate).
fn random_marginal(b: &StreamBuilder, domain: &[&str], rng: &mut SmallRng) -> Marginal {
    let raw: Vec<f64> = domain.iter().map(|_| rng.gen::<f64>()).collect();
    let slack = 0.25 + rng.gen::<f64>();
    let total: f64 = raw.iter().sum::<f64>() + slack;
    let pairs: Vec<(&str, f64)> = domain
        .iter()
        .zip(&raw)
        .map(|(v, p)| (*v, p / total))
        .collect();
    b.marginal(&pairs).unwrap()
}

/// Forced-parallel and forced-sequential sessions fed identical random
/// marginals must emit identical alerts, tick for tick.
#[test]
fn randomized_parallel_session_matches_sequential() {
    const PEOPLE: [&str; 4] = ["p0", "p1", "p2", "p3"];
    const DOMAIN: [&str; 3] = ["a", "h", "c"];
    const TICKS: usize = 8;
    for seed in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ seed);
        let build = || {
            let mut db = Database::new();
            db.declare_stream("At", &["person"], &["loc"]).unwrap();
            db.declare_relation("Hallway", 1).unwrap();
            let i = db.interner().clone();
            db.insert_relation_tuple("Hallway", lahar::model::tuple([i.intern("h")]))
                .unwrap();
            let mut builders = Vec::new();
            for p in PEOPLE {
                let b = StreamBuilder::new(&i, "At", &[p], &DOMAIN);
                db.add_stream(b.clone().independent(vec![]).unwrap())
                    .unwrap();
                builders.push(b);
            }
            (db, builders)
        };
        let (db_seq, builders) = build();
        let (db_par, _) = build();
        let mut seq = RealTimeSession::with_config(
            db_seq,
            SessionConfig::builder()
                .tick_mode(TickMode::Sequential)
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut par = RealTimeSession::with_config(
            db_par,
            SessionConfig::builder()
                .tick_mode(TickMode::Parallel)
                .n_workers(3)
                .build()
                .unwrap(),
        )
        .unwrap();
        for s in [&mut seq, &mut par] {
            s.register("reg", "At('p0','a') ; At('p0','c')").unwrap();
            s.register("ext", "At(p,'a') ; At(p,'c')").unwrap();
            s.register(
                "hall",
                "At(p,'a') ; (At(p, l))+{p | Hallway(l)} ; At(p,'c')",
            )
            .unwrap();
            s.register("single", "At(p, l)[Hallway(l)]").unwrap();
        }
        for _ in 0..TICKS {
            for (idx, b) in builders.iter().enumerate() {
                // Leave some streams unstaged so the ⊥ default runs on
                // both paths too.
                if rng.gen::<f64>() < 0.8 {
                    let m = random_marginal(b, &DOMAIN, &mut rng);
                    let seq_id = seq.database().stream_id_at(idx).unwrap();
                    let par_id = par.database().stream_id_at(idx).unwrap();
                    seq.stage(seq_id, m.clone()).unwrap();
                    par.stage(par_id, m).unwrap();
                }
            }
            let a = seq.tick().unwrap();
            let b = par.tick().unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert!(
                    (x.probability - y.probability).abs() < 1e-12,
                    "seed {seed} t={}: {} sequential {} vs parallel {}",
                    x.t,
                    x.name,
                    x.probability,
                    y.probability
                );
            }
        }
        let snap = par.stats().snapshot();
        assert_eq!(snap.ticks, TICKS as u64);
        assert_eq!(snap.parallel_ticks, TICKS as u64);
        assert!(snap.chains_stepped >= (TICKS * PEOPLE.len()) as u64);
    }
}

/// A query registered mid-session — after ticks carrying real (non-⊥)
/// marginals — must catch up through the recorded history and then agree
/// exactly with a session that had it from the start.
#[test]
fn late_registration_catches_up_after_staged_history() {
    const DOMAIN: [&str; 3] = ["a", "h", "c"];
    let build = || {
        let mut db = Database::new();
        db.declare_stream("At", &["person"], &["loc"]).unwrap();
        let i = db.interner().clone();
        let joe = StreamBuilder::new(&i, "At", &["joe"], &DOMAIN);
        let sue = StreamBuilder::new(&i, "At", &["sue"], &DOMAIN);
        db.add_stream(joe.clone().independent(vec![]).unwrap())
            .unwrap();
        db.add_stream(sue.clone().independent(vec![]).unwrap())
            .unwrap();
        (db, joe, sue)
    };
    let (db_a, joe, sue) = build();
    let (db_b, _, _) = build();
    let mut early = RealTimeSession::new(db_a).unwrap();
    let mut late = RealTimeSession::new(db_b).unwrap();
    let src = "At(p,'a') ; At(p,'c')";
    let q_early = early.register("q", src).unwrap();

    let mut rng = SmallRng::seed_from_u64(99);
    let mut staged: Vec<Vec<Marginal>> = Vec::new();
    for _ in 0..3 {
        let ms = vec![
            random_marginal(&joe, &DOMAIN, &mut rng),
            random_marginal(&sue, &DOMAIN, &mut rng),
        ];
        staged.push(ms);
    }
    for ms in &staged {
        for (s, m) in [(&mut early, ms), (&mut late, ms)] {
            let ids = [
                s.database().stream_id_at(0).unwrap(),
                s.database().stream_id_at(1).unwrap(),
            ];
            s.stage(ids[0], m[0].clone()).unwrap();
            s.stage(ids[1], m[1].clone()).unwrap();
            s.tick().unwrap();
        }
    }
    // Register after three substantive ticks; the replayed history must
    // put the late query on the same footing.
    let q_late = late.register("q", src).unwrap();
    for _ in 0..3 {
        let ms = [
            random_marginal(&joe, &DOMAIN, &mut rng),
            random_marginal(&sue, &DOMAIN, &mut rng),
        ];
        let mut probs = [0.0f64; 2];
        for (which, (s, q)) in [(&mut early, q_early), (&mut late, q_late)]
            .into_iter()
            .enumerate()
        {
            let ids = [
                s.database().stream_id_at(0).unwrap(),
                s.database().stream_id_at(1).unwrap(),
            ];
            s.stage(ids[0], ms[0].clone()).unwrap();
            s.stage(ids[1], ms[1].clone()).unwrap();
            let alerts = s.tick().unwrap();
            probs[which] = alerts[q.index()].probability;
        }
        assert!(
            (probs[0] - probs[1]).abs() < 1e-12,
            "early {} vs late {}",
            probs[0],
            probs[1]
        );
    }
    // And both must equal the batch answer over the accumulated database.
    let batch = Lahar::prob_series(late.database(), src).unwrap();
    assert_eq!(batch.len(), 6);
}

/// Epoch-batched parallel ticks — several per
/// [`RealTimeSession::tick_epoch`] call, with the auto-checkpoint
/// cadence splitting epochs mid-batch — must stay byte-identical to
/// per-tick sequential ticks, and a twin restored from the checkpoint
/// taken *inside* the batch must rejoin the stream bit-for-bit.
#[test]
fn epoch_batches_stay_bit_identical_across_mid_batch_checkpoint() {
    const PEOPLE: [&str; 4] = ["p0", "p1", "p2", "p3"];
    const DOMAIN: [&str; 3] = ["a", "h", "c"];
    const TICKS: usize = 9;
    let build = || {
        let mut db = Database::new();
        db.declare_stream("At", &["person"], &["loc"]).unwrap();
        db.declare_relation("Hallway", 1).unwrap();
        let i = db.interner().clone();
        db.insert_relation_tuple("Hallway", lahar::model::tuple([i.intern("h")]))
            .unwrap();
        let mut builders = Vec::new();
        for p in PEOPLE {
            let b = StreamBuilder::new(&i, "At", &[p], &DOMAIN);
            db.add_stream(b.clone().independent(vec![]).unwrap())
                .unwrap();
            builders.push(b);
        }
        (db, builders)
    };
    let bits = |alerts: &[lahar::Alert]| -> Vec<(String, u32, u64)> {
        alerts
            .iter()
            .map(|a| (a.name.to_string(), a.t, a.probability.to_bits()))
            .collect()
    };
    let to_batch = |session: &RealTimeSession,
                    rows: &[Vec<(usize, Marginal)>]|
     -> Vec<Vec<(lahar::StreamId, Marginal)>> {
        rows.iter()
            .map(|row| {
                row.iter()
                    .map(|(idx, m)| (session.database().stream_id_at(*idx).unwrap(), m.clone()))
                    .collect()
            })
            .collect()
    };

    let mut rng = SmallRng::seed_from_u64(0xEB0C4);
    let (db_seq, builders) = build();
    let (db_par, _) = build();
    let mut seq = RealTimeSession::with_config(
        db_seq,
        SessionConfig::builder()
            .tick_mode(TickMode::Sequential)
            .build()
            .unwrap(),
    )
    .unwrap();
    // Epochs of up to 5 ticks, but the interval-3 auto-checkpoint cadence
    // forces splits at t = 3 and t = 6.
    let mut par = RealTimeSession::with_config(
        db_par,
        SessionConfig::builder()
            .tick_mode(TickMode::Parallel)
            .n_workers(3)
            .max_epoch_ticks(5)
            .checkpoint_interval(3)
            .build()
            .unwrap(),
    )
    .unwrap();
    for s in [&mut seq, &mut par] {
        s.register("reg", "At('p0','a') ; At('p0','c')").unwrap();
        s.register("ext", "At(p,'a') ; At(p,'c')").unwrap();
        s.register(
            "hall",
            "At(p,'a') ; (At(p, l))+{p | Hallway(l)} ; At(p,'c')",
        )
        .unwrap();
    }
    let mut script: Vec<Vec<(usize, Marginal)>> = Vec::new();
    for _ in 0..TICKS {
        let mut row = Vec::new();
        for (idx, b) in builders.iter().enumerate() {
            if rng.gen::<f64>() < 0.8 {
                row.push((idx, random_marginal(b, &DOMAIN, &mut rng)));
            }
        }
        script.push(row);
    }

    // Per-tick sequential reference.
    let mut reference = Vec::new();
    for row in &script {
        for (idx, m) in row {
            let id = seq.database().stream_id_at(*idx).unwrap();
            seq.stage(id, m.clone()).unwrap();
        }
        reference.push(seq.tick().unwrap());
    }

    // One staged batch of 7 ticks: internally three epochs (3 + 3 + 1),
    // with auto-checkpoints landing mid-batch at t = 3 and t = 6.
    let batch = to_batch(&par, &script[..7]);
    let alerts = par.tick_epoch(batch).unwrap();
    let flat: Vec<_> = reference[..7].iter().flatten().cloned().collect();
    assert_eq!(bits(&alerts), bits(&flat));
    let snap = par.stats().snapshot();
    assert_eq!(snap.checkpoints_taken, 2);
    assert_eq!(snap.epochs, 3);
    assert_eq!(snap.epoch_ticks, 7);
    let ckpt = par.last_checkpoint().cloned().unwrap();
    assert_eq!(ckpt.t(), 6, "auto-checkpoint lands inside the batch");

    // A twin restored from the mid-batch checkpoint finishes the stream
    // in one batched call and stays bit-identical.
    let (db_twin, _) = build();
    let mut twin = RealTimeSession::restore(db_twin, &ckpt).unwrap();
    assert_eq!(twin.now(), 6);
    let batch = to_batch(&twin, &script[6..]);
    let twin_alerts = twin.tick_epoch(batch).unwrap();
    let flat: Vec<_> = reference[6..].iter().flatten().cloned().collect();
    assert_eq!(bits(&twin_alerts), bits(&flat));

    // The original finishes its remaining two ticks batched as well.
    let batch = to_batch(&par, &script[7..]);
    let tail = par.tick_epoch(batch).unwrap();
    let flat: Vec<_> = reference[7..].iter().flatten().cloned().collect();
    assert_eq!(bits(&tail), bits(&flat));
    assert_eq!(par.now(), TICKS as u32);
    assert_eq!(twin.now(), TICKS as u32);
}
