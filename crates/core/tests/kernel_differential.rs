//! Differential property tests for the compiled kernel path
//! ([`lahar_core::kernel`]): on random databases, random queries, and
//! random tick schedules, the dense-table/frozen-table path must produce
//! **bit-identical** probabilities to the mutex-interpreter path — both
//! well inside the 1e-12 agreement the engine promises — including
//! across a mid-stream checkpoint/restore and across the sequential vs
//! parallel tick paths.

use lahar_core::{Checkpoint, CompileOptions, Lahar, RealTimeSession, SessionConfig, TickMode};
use lahar_model::{Database, Marginal, StreamBuilder};
use lahar_query::parse_query;
use proptest::prelude::*;

const DOMAIN: [&str; 3] = ["a", "h", "c"];

/// The query pool: per-key extended sequences, a Kleene-plus shape with
/// a relation-conditioned body, and a fully grounded (regular) query.
const QUERIES: [&str; 4] = [
    "At(p,'a') ; At(p,'c')",
    "At(p,'h') ; At(p,'c')",
    "At(p,'a') ; (At(p, l))+{p | Hallway(l)} ; At(p,'c')",
    "At('p0','a') ; At('p0','c')",
];

#[derive(Debug, Clone)]
struct Scenario {
    n_people: usize,
    /// Indices into [`QUERIES`]; registered as q0, q1, … in order.
    queries: Vec<usize>,
    /// `ticks[t][person]` = raw weights over [`DOMAIN`] (⊥ absorbs the rest).
    ticks: Vec<Vec<(f64, f64, f64)>>,
    /// Tick index after which the kernel session is checkpointed and a
    /// restored twin continues alongside it.
    split: usize,
    /// Run the kernel session on the sharded worker pool (the restored
    /// and interpreter sessions stay sequential — answers must still be
    /// bit-identical, worker interleaving is never observable).
    parallel: bool,
}

fn weights() -> impl Strategy<Value = (f64, f64, f64)> {
    (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64)
}

fn scenario() -> impl Strategy<Value = Scenario> {
    // The vendored proptest has no flat-map, so dependent shapes are
    // derived in the map: rows carry the maximum of 3 people and are
    // truncated to `n_people`; the split point is a seed reduced modulo
    // the generated tick count.
    (
        1..4usize,
        prop::collection::vec(0..QUERIES.len(), 1..4),
        prop::collection::vec(prop::collection::vec(weights(), 3), 2..7),
        0..1_000_000usize,
        any::<bool>(),
    )
        .prop_map(|(n_people, queries, ticks, split_seed, parallel)| {
            let split = 1 + split_seed % (ticks.len() - 1);
            let ticks = ticks
                .into_iter()
                .map(|mut row| {
                    row.truncate(n_people);
                    row
                })
                .collect();
            Scenario {
                n_people,
                queries,
                ticks,
                split,
                parallel,
            }
        })
}

fn schema_db(n_people: usize) -> Database {
    let mut db = Database::new();
    db.declare_stream("At", &["person"], &["loc"]).unwrap();
    db.declare_relation("Hallway", 1).unwrap();
    let i = db.interner().clone();
    db.insert_relation_tuple("Hallway", lahar_model::tuple([i.intern("h")]))
        .unwrap();
    for p in 0..n_people {
        let b = StreamBuilder::new(&i, "At", &[&format!("p{p}")], &DOMAIN);
        db.add_stream(b.independent(vec![]).unwrap()).unwrap();
    }
    db
}

fn build_session(s: &Scenario, mode: TickMode, forced: bool) -> RealTimeSession {
    let db = schema_db(s.n_people);
    let config = SessionConfig::builder().tick_mode(mode).build().unwrap();
    let mut session = RealTimeSession::with_config(db, config).unwrap();
    for (i, &q) in s.queries.iter().enumerate() {
        session.register(&format!("q{i}"), QUERIES[q]).unwrap();
    }
    if forced {
        session.force_interpreter(true);
    }
    session
}

/// One tick's marginal for a person: weights scaled so the named
/// outcomes sum below 1 (⊥ absorbs the remainder). Built once per tick
/// and cloned into every session, so all sessions see identical bits.
fn tick_marginal(db_interner: &lahar_model::Interner, p: usize, w: (f64, f64, f64)) -> Marginal {
    let b = StreamBuilder::new(db_interner, "At", &[&format!("p{p}")], &DOMAIN);
    let scale = 1.0 / (w.0 + w.1 + w.2 + 1.0);
    b.marginal(&[
        (DOMAIN[0], w.0 * scale),
        (DOMAIN[1], w.1 * scale),
        (DOMAIN[2], w.2 * scale),
    ])
    .unwrap()
}

/// Alerts reduced to comparable bits: (query name, tick, probability bits).
fn bits(alerts: &[lahar_core::Alert]) -> Vec<(String, u32, u64)> {
    alerts
        .iter()
        .map(|a| (a.name.to_string(), a.t, a.probability.to_bits()))
        .collect()
}

fn run_tick(
    session: &mut RealTimeSession,
    interner: &lahar_model::Interner,
    row: &[(f64, f64, f64)],
) -> Vec<lahar_core::Alert> {
    for (p, &w) in row.iter().enumerate() {
        let id = session.database().stream_id_at(p).unwrap();
        session.stage(id, tick_marginal(interner, p, w)).unwrap();
    }
    session.tick().unwrap()
}

/// The same rows as a staged multi-tick batch for
/// [`RealTimeSession::tick_epoch`] (element `i` = tick `t+i`).
fn epoch_batch(
    session: &RealTimeSession,
    interner: &lahar_model::Interner,
    rows: &[Vec<(f64, f64, f64)>],
) -> Vec<Vec<(lahar_model::StreamId, Marginal)>> {
    rows.iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .map(|(p, &w)| {
                    let id = session.database().stream_id_at(p).unwrap();
                    (id, tick_marginal(interner, p, w))
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Kernel vs interpreter vs checkpoint-restored sessions: the same
    /// staged marginals must yield bit-identical alerts on every tick.
    #[test]
    fn kernel_interpreter_and_restore_agree(s in scenario()) {
        let mode = if s.parallel { TickMode::Parallel } else { TickMode::Sequential };
        let mut kern = build_session(&s, mode, false);
        let mut intp = build_session(&s, TickMode::Sequential, true);
        let interner = kern.database().interner().clone();

        for row in &s.ticks[..s.split] {
            let ka = run_tick(&mut kern, &interner, row);
            let ia = run_tick(&mut intp, &interner, row);
            prop_assert_eq!(bits(&ka), bits(&ia));
        }

        // Mid-stream checkpoint, JSON round-trip, restore into a fresh
        // sequential session over a bare schema database.
        let ckpt = kern.checkpoint().unwrap();
        let parsed = Checkpoint::from_json(&ckpt.to_json()).unwrap();
        let mut restored = RealTimeSession::restore(schema_db(s.n_people), &parsed).unwrap();
        prop_assert_eq!(restored.now(), kern.now());

        for row in &s.ticks[s.split..] {
            let ka = run_tick(&mut kern, &interner, row);
            let ia = run_tick(&mut intp, &interner, row);
            let ra = run_tick(&mut restored, &interner, row);
            let kb = bits(&ka);
            prop_assert_eq!(&kb, &bits(&ia));
            prop_assert_eq!(&kb, &bits(&ra));
        }
    }

    /// Epoch batching: handing the parallel path `split` staged ticks per
    /// [`RealTimeSession::tick_epoch`] call (one worker join per epoch)
    /// must stay bit-identical to per-tick sequential ticks — including
    /// for a twin restored from a mid-stream checkpoint that continues
    /// in batched mode, and for batches longer than `max_epoch_ticks`
    /// (which the session splits into several epochs internally).
    #[test]
    fn epoch_batched_parallel_matches_per_tick_sequential(s in scenario()) {
        let epoch = s.split; // 1..ticks.len(): doubles as the batch size
        let db = schema_db(s.n_people);
        let config = SessionConfig::builder()
            .tick_mode(TickMode::Parallel)
            .max_epoch_ticks(epoch)
            .build()
            .unwrap();
        let mut batched = RealTimeSession::with_config(db, config).unwrap();
        for (i, &q) in s.queries.iter().enumerate() {
            batched.register(&format!("q{i}"), QUERIES[q]).unwrap();
        }
        let mut seq = build_session(&s, TickMode::Sequential, false);
        let interner = seq.database().interner().clone();

        let head = &s.ticks[..s.split];
        let batch = epoch_batch(&batched, &interner, head);
        let ba = batched.tick_epoch(batch).unwrap();
        let mut sa = Vec::new();
        for row in head {
            sa.extend(run_tick(&mut seq, &interner, row));
        }
        prop_assert_eq!(bits(&ba), bits(&sa));

        // Mid-stream checkpoint between epochs; the restored twin keeps
        // the batched parallel config and must track bit-for-bit.
        let ckpt = batched.checkpoint().unwrap();
        let parsed = Checkpoint::from_json(&ckpt.to_json()).unwrap();
        let mut restored = RealTimeSession::restore(schema_db(s.n_people), &parsed).unwrap();
        prop_assert_eq!(restored.now(), batched.now());

        // The tail goes down in ONE tick_epoch call per session; when it
        // is longer than `max_epoch_ticks` the session closes several
        // epochs under the hood.
        let tail = &s.ticks[s.split..];
        let batch = epoch_batch(&batched, &interner, tail);
        let ba = batched.tick_epoch(batch).unwrap();
        let batch = epoch_batch(&restored, &interner, tail);
        let ra = restored.tick_epoch(batch).unwrap();
        let mut sa = Vec::new();
        for row in tail {
            sa.extend(run_tick(&mut seq, &interner, row));
        }
        let bb = bits(&ba);
        prop_assert_eq!(&bb, &bits(&sa));
        prop_assert_eq!(&bb, &bits(&ra));
    }
}

// ---------------------------------------------------------------------------
// Batch mode: independent *and* Markov databases
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct BatchScenario {
    markov: bool,
    query: usize,
    /// `series[person][t]` = raw weights (independent: marginal at `t`;
    /// Markov: row `t` seeds the initial marginal / CPT rows).
    series: Vec<Vec<(f64, f64, f64)>>,
}

fn batch_scenario() -> impl Strategy<Value = BatchScenario> {
    // The possible-worlds oracle is exponential (4^(streams × horizon)
    // worlds), so batch scenarios stay oracle-sized: ≤ 2 streams × 3
    // ticks = 4096 worlds. Per-person series lengths vary independently
    // (unequal stream lengths ⊥-pad to the horizon).
    (
        any::<bool>(),
        0..QUERIES.len(),
        prop::collection::vec(prop::collection::vec(weights(), 2..4), 1..3),
    )
        .prop_map(|(markov, query, series)| BatchScenario {
            markov,
            query,
            series,
        })
}

fn batch_db(s: &BatchScenario) -> Database {
    let mut db = schema_db(0);
    let i = db.interner().clone();
    for (p, rows) in s.series.iter().enumerate() {
        let b = StreamBuilder::new(&i, "At", &[&format!("p{p}")], &DOMAIN);
        let stream = if s.markov {
            // Row 0 seeds the initial marginal; each later row seeds one
            // CPT (every from-outcome gets the same scaled target row,
            // which keeps the chain correlated but trivially valid).
            let init = tick_marginal(&i, p, rows[0]);
            let cpts = rows[1..]
                .iter()
                .map(|&w| {
                    let scale = 1.0 / (w.0 + w.1 + w.2 + 1.0);
                    let mut entries = Vec::new();
                    for from in DOMAIN {
                        entries.push((from, DOMAIN[0], w.0 * scale));
                        entries.push((from, DOMAIN[1], w.1 * scale));
                        entries.push((from, DOMAIN[2], w.2 * scale));
                    }
                    b.cpt(&entries).unwrap()
                })
                .collect();
            b.markov(init, cpts).unwrap()
        } else {
            let ms = rows.iter().map(|&w| tick_marginal(&i, p, w)).collect();
            b.independent(ms).unwrap()
        };
        db.add_stream(stream).unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batch evaluation over independent and Markov databases: the
    /// kernel-backed evaluator, the forced-interpreter evaluator, and
    /// the reference possible-worlds oracle must agree — the first two
    /// bit-for-bit, the oracle within float-reassociation tolerance.
    #[test]
    fn batch_kernel_matches_interpreter_and_oracle(s in batch_scenario()) {
        let db = batch_db(&s);
        let q = parse_query(db.interner(), QUERIES[s.query]).unwrap();
        let horizon = db.horizon();

        let kern = Lahar::compile_with(&db, &q, CompileOptions::new()).unwrap()
            .prob_series(horizon).unwrap();
        let mut forced_eval = Lahar::compile_with(&db, &q, CompileOptions::new()).unwrap();
        forced_eval.force_interpreter(true);
        let forced = forced_eval.prob_series(horizon).unwrap();
        prop_assert_eq!(kern.len(), forced.len());
        for (t, (k, f)) in kern.iter().zip(&forced).enumerate() {
            prop_assert_eq!(k.to_bits(), f.to_bits(), "t={} kern={} forced={}", t, k, f);
        }

        // The oracle sums worlds in enumeration order, so agreement is up
        // to float reassociation over ≤ 4096 terms, not bit-identity.
        let oracle = lahar_query::prob_series(&db, &q).unwrap();
        prop_assert_eq!(kern.len(), oracle.len());
        for (t, (k, o)) in kern.iter().zip(&oracle).enumerate() {
            prop_assert!((k - o).abs() <= 1e-9, "t={} kern={} oracle={}", t, k, o);
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch differential: scalar SoA vs SSE2 vs AVX2 vs legacy interpreter
// ---------------------------------------------------------------------------

use lahar_core::simd::{self, Dispatch};

/// Restores runtime CPU detection even when an assertion unwinds
/// mid-case, so a failing test never leaves a forced dispatch behind
/// for the rest of the binary.
struct DispatchGuard;

impl Drop for DispatchGuard {
    fn drop(&mut self) {
        simd::force_dispatch(None);
    }
}

/// Every kernel dispatch this host can execute: the portable scalar
/// loop always, SSE2 on any x86_64, and AVX2 only when runtime
/// detection reports it (forcing AVX2 on a host without it would
/// execute illegal instructions).
fn forced_dispatches() -> Vec<Dispatch> {
    let mut v = vec![Dispatch::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        v.push(Dispatch::Sse2);
        if matches!(simd::dispatch(), Dispatch::Avx2) {
            v.push(Dispatch::Avx2);
        }
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every compiled dispatch (scalar SoA, SSE2, AVX2 where the host
    /// has it) must produce alerts bit-identical to the legacy
    /// interpreter — including across a mid-stream checkpoint, JSON
    /// round-trip, and restore, and regardless of the lane layouts the
    /// batcher picks under each dispatch.
    #[test]
    fn soa_dispatch_paths_agree(s in scenario()) {
        // Reference: the forced interpreter, outside any dispatch
        // forcing (it never touches the SoA kernels).
        let mut intp = build_session(&s, TickMode::Sequential, true);
        let interner = intp.database().interner().clone();
        let mut reference = Vec::with_capacity(s.ticks.len());
        for row in &s.ticks {
            reference.push(bits(&run_tick(&mut intp, &interner, row)));
        }

        let _guard = DispatchGuard;
        let mode = if s.parallel { TickMode::Parallel } else { TickMode::Sequential };
        for d in forced_dispatches() {
            simd::force_dispatch(Some(d));
            let mut kern = build_session(&s, mode, false);

            for (t, row) in s.ticks[..s.split].iter().enumerate() {
                let ka = bits(&run_tick(&mut kern, &interner, row));
                prop_assert_eq!(&ka, &reference[t], "dispatch {:?} tick {}", d, t);
            }

            // Checkpoint under this dispatch, restore, and let the twin
            // finish the stream alongside the original.
            let ckpt = kern.checkpoint().unwrap();
            let parsed = Checkpoint::from_json(&ckpt.to_json()).unwrap();
            let mut restored =
                RealTimeSession::restore(schema_db(s.n_people), &parsed).unwrap();
            prop_assert_eq!(restored.now(), kern.now());

            for (i, row) in s.ticks[s.split..].iter().enumerate() {
                let t = s.split + i;
                let ka = bits(&run_tick(&mut kern, &interner, row));
                let ra = bits(&run_tick(&mut restored, &interner, row));
                prop_assert_eq!(&ka, &reference[t], "dispatch {:?} tick {}", d, t);
                prop_assert_eq!(&ra, &reference[t], "restored {:?} tick {}", d, t);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Batched fill and cached plans: signed zeros, tiny negatives, scattered lanes
// ---------------------------------------------------------------------------

/// One person's tick: per outcome of [`DOMAIN`] a `(kind, weight)` pair
/// (see [`fill_probs`]), then whether ⊥ is an exact zero and whether
/// that zero is `-0.0`.
type FillPerson = (Vec<(usize, f64)>, bool, bool);

/// A per-binding relation table: each person's own offices, so every
/// binding translates outcomes through its own symbol table and most
/// lanes form groups too small to batch — single-stream chains that
/// step scalar through their outcome projection.
const OFFICE_QUERY: &str = "At(p, l1)[Office(p, l1)] ; At(p, 'c')";

/// The fill scenarios' query pool: [`QUERIES`], then [`OFFICE_QUERY`].
fn fill_query(i: usize) -> &'static str {
    QUERIES.get(i).copied().unwrap_or(OFFICE_QUERY)
}

/// Person `p`'s offices: a nonempty subset of [`DOMAIN`] that differs
/// between any seven consecutive people.
fn offices(p: usize) -> impl Iterator<Item = &'static str> {
    let mask = p % 7 + 1;
    DOMAIN
        .into_iter()
        .enumerate()
        .filter(move |(i, _)| mask & (1 << i) != 0)
        .map(|(_, loc)| loc)
}

/// Batch-sized sessions (at least four lanes per group) over marginals
/// that stress the outcome-major fill: exact zeros, `-0.0`, and the
/// tiny negative probabilities `validate_dist` admits, with lanes bound
/// to contiguous, interleaved, reversed or holed stream indices.
#[derive(Debug, Clone)]
struct FillScenario {
    n_people: usize,
    /// 0: `At` streams contiguous; 1: a two-outcome `Badge` stream after
    /// each `At` stream; 2: `At` streams declared in reverse order;
    /// 3: contiguous with holes — a `Badge` stream after every third
    /// `At` stream, so one group's lanes fill in several runs.
    layout: usize,
    /// Indices into [`fill_query`]; registered as q0, q1, … in order.
    queries: Vec<usize>,
    /// `ticks[t][person]`.
    ticks: Vec<Vec<FillPerson>>,
    /// Tick after which the kernel session is checkpointed and restored.
    split: usize,
    /// Tick at which the kernel session toggles the interpreter on and
    /// off again, invalidating every cached plan.
    toggle: usize,
    parallel: bool,
}

fn fill_scenario() -> impl Strategy<Value = FillScenario> {
    let outcome = (0..4usize, 0.0..1.0f64);
    let person = (
        prop::collection::vec(outcome, DOMAIN.len()),
        any::<bool>(),
        any::<bool>(),
    );
    (
        (4..9usize, 0..4usize),
        prop::collection::vec(0..QUERIES.len() + 1, 1..4),
        prop::collection::vec(prop::collection::vec(person, 8), 3..9),
        (0..1_000_000usize, 0..1_000_000usize),
        any::<bool>(),
    )
        .prop_map(
            |((n_people, layout), queries, ticks, (split_seed, toggle_seed), parallel)| {
                let split = 1 + split_seed % (ticks.len() - 1);
                let toggle = toggle_seed % ticks.len();
                let ticks = ticks
                    .into_iter()
                    .map(|mut row| {
                        row.truncate(n_people);
                        row
                    })
                    .collect();
                FillScenario {
                    n_people,
                    layout,
                    queries,
                    ticks,
                    split,
                    toggle,
                    parallel,
                }
            },
        )
}

fn fill_db(s: &FillScenario) -> Database {
    let mut db = Database::new();
    db.declare_stream("At", &["person"], &["loc"]).unwrap();
    db.declare_stream("Badge", &["person"], &["state"]).unwrap();
    db.declare_relation("Hallway", 1).unwrap();
    db.declare_relation("Office", 2).unwrap();
    let i = db.interner().clone();
    db.insert_relation_tuple("Hallway", lahar_model::tuple([i.intern("h")]))
        .unwrap();
    let people: Vec<usize> = match s.layout {
        2 => (0..s.n_people).rev().collect(),
        _ => (0..s.n_people).collect(),
    };
    for p in people {
        let key = format!("p{p}");
        for loc in offices(p) {
            let office = lahar_model::tuple([i.intern(&key), i.intern(loc)]);
            db.insert_relation_tuple("Office", office).unwrap();
        }
        let at = StreamBuilder::new(&i, "At", &[&key], &DOMAIN);
        db.add_stream(at.independent(vec![]).unwrap()).unwrap();
        if s.layout == 1 || (s.layout == 3 && p % 3 == 2) {
            let badge = StreamBuilder::new(&i, "Badge", &[&key], &["in"]);
            db.add_stream(badge.independent(vec![]).unwrap()).unwrap();
        }
    }
    db
}

/// One person's probabilities over [`DOMAIN`] then ⊥. Outcome kinds:
/// 0 → `0.0`, 1 → `-0.0`, 2 → a negative no smaller than `-1e-7`,
/// 3 → a positive share of the weight. ⊥ takes the remainder, or is an
/// exact (possibly negative) zero when the positive shares can carry
/// the whole unit.
fn fill_probs(outcomes: &[(usize, f64)], bottom_zero: bool, bottom_negative: bool) -> Vec<f64> {
    let weight: f64 = outcomes
        .iter()
        .filter(|(kind, _)| *kind == 3)
        .map(|(_, w)| w)
        .sum();
    let exact_bottom = bottom_zero && weight > 0.0;
    let scale = if exact_bottom {
        1.0 / weight
    } else {
        1.0 / (weight + 1.0)
    };
    let mut probs: Vec<f64> = outcomes
        .iter()
        .map(|&(kind, w)| match kind {
            0 => 0.0,
            1 => -0.0,
            2 => -w * 1e-7,
            _ => w * scale,
        })
        .collect();
    let bottom = if exact_bottom {
        if bottom_negative {
            -0.0
        } else {
            0.0
        }
    } else {
        1.0 - probs.iter().sum::<f64>()
    };
    probs.push(bottom);
    probs
}

/// Stages one tick (`At` streams only; `Badge` streams stay ⊥) and
/// closes it.
fn fill_tick(session: &mut RealTimeSession, row: &[FillPerson]) -> Vec<(String, u32, u64)> {
    let db = session.database();
    let mut batch = Vec::with_capacity(row.len());
    for (p, (outcomes, bottom_zero, bottom_negative)) in row.iter().enumerate() {
        let key = StreamBuilder::new(db.interner(), "At", &[&format!("p{p}")], &DOMAIN);
        let id = db.stream_id(key.key()).unwrap();
        let domain = db.streams()[id.index()].domain();
        let probs = fill_probs(outcomes, *bottom_zero, *bottom_negative);
        batch.push((id, Marginal::new(domain, probs).unwrap()));
    }
    session.stage_batch(batch).unwrap();
    bits(&session.tick().unwrap())
}

/// Every chain's checkpointed forward state (`t`, `dist`, `dfa_sets`).
fn chain_states(ckpt: &Checkpoint) -> lahar_core::json::JsonValue {
    let doc = lahar_core::json::parse(&ckpt.to_json()).unwrap();
    doc.get("chains").unwrap().clone()
}

/// Every chain's discovered DFA state sets, in chain order.
fn dfa_sets(states: &lahar_core::json::JsonValue) -> Vec<lahar_core::json::JsonValue> {
    let lahar_core::json::JsonValue::Array(chains) = states else {
        panic!("chain states are an array");
    };
    chains
        .iter()
        .map(|c| c.get("dfa_sets").unwrap().clone())
        .collect()
}

/// All-⊥ ticks closed after the scenario before the resident window: ⊥
/// alone reaches a fixed set of states within these, so the window
/// after them discovers nothing.
const BOTTOM_SETTLE: usize = 8;
/// All-⊥ ticks of the resident window, between two checkpoints.
const BOTTOM_RESIDENT: usize = 3;

/// What [`bottom_tail`] observed: the tail's alert bits and the chain
/// states at both of its checkpoints.
#[derive(Debug, PartialEq)]
struct BottomTail {
    alerts: Vec<Vec<(String, u32, u64)>>,
    settled: lahar_core::json::JsonValue,
    resident: lahar_core::json::JsonValue,
}

/// Closes the all-⊥ tail: [`BOTTOM_SETTLE`] ticks, a checkpoint,
/// [`BOTTOM_RESIDENT`] ticks and a second checkpoint.
fn bottom_tail(session: &mut RealTimeSession) -> BottomTail {
    let mut alerts = Vec::new();
    for _ in 0..BOTTOM_SETTLE {
        alerts.push(bits(&session.tick().unwrap()));
    }
    let settled = chain_states(&session.checkpoint().unwrap());
    for _ in 0..BOTTOM_RESIDENT {
        alerts.push(bits(&session.tick().unwrap()));
    }
    let resident = chain_states(&session.checkpoint().unwrap());
    BottomTail {
        alerts,
        settled,
        resident,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The outcome-major fill, the cached plans and group-resident
    /// state against the forced interpreter, under every dispatch:
    /// alerts bit-identical on every tick, checkpointed chain states
    /// (discovery order included) identical at the split, and a restored
    /// twin tracking both. An all-⊥ tail then checkpoints again after
    /// [`BOTTOM_RESIDENT`] ticks that discover no state, so the second
    /// checkpoint writes back several ticks a group kept resident.
    #[test]
    fn batched_fill_and_cached_plans_match_the_interpreter(s in fill_scenario()) {
        let build = |mode: TickMode, forced: bool| {
            let config = SessionConfig::builder().tick_mode(mode).build().unwrap();
            let mut session = RealTimeSession::with_config(fill_db(&s), config).unwrap();
            for (i, &q) in s.queries.iter().enumerate() {
                session.register(&format!("q{i}"), fill_query(q)).unwrap();
            }
            session.force_interpreter(forced);
            session
        };
        let mut intp = build(TickMode::Sequential, true);
        let mut reference = Vec::with_capacity(s.ticks.len());
        let mut reference_states = None;
        for (t, row) in s.ticks.iter().enumerate() {
            reference.push(fill_tick(&mut intp, row));
            if t + 1 == s.split {
                reference_states = Some(chain_states(&intp.checkpoint().unwrap()));
            }
        }
        let reference_states = reference_states.unwrap();
        let reference_tail = bottom_tail(&mut intp);
        prop_assert_eq!(
            dfa_sets(&reference_tail.settled),
            dfa_sets(&reference_tail.resident),
            "the resident window discovered a state"
        );

        let _guard = DispatchGuard;
        let mode = if s.parallel { TickMode::Parallel } else { TickMode::Sequential };
        for d in forced_dispatches() {
            simd::force_dispatch(Some(d));
            let mut kern = build(mode, false);
            let mut restored: Option<RealTimeSession> = None;
            for (t, row) in s.ticks.iter().enumerate() {
                if t == s.toggle {
                    kern.force_interpreter(true);
                    kern.force_interpreter(false);
                }
                let ka = fill_tick(&mut kern, row);
                prop_assert_eq!(&ka, &reference[t], "dispatch {:?} tick {}", d, t);
                if let Some(twin) = restored.as_mut() {
                    let ra = fill_tick(twin, row);
                    prop_assert_eq!(&ra, &reference[t], "restored {:?} tick {}", d, t);
                }
                if t + 1 == s.split {
                    let ckpt = kern.checkpoint().unwrap();
                    prop_assert_eq!(&chain_states(&ckpt), &reference_states, "dispatch {:?}", d);
                    let parsed = Checkpoint::from_json(&ckpt.to_json()).unwrap();
                    restored = Some(RealTimeSession::restore(fill_db(&s), &parsed).unwrap());
                }
            }
            let tail = bottom_tail(&mut kern);
            prop_assert_eq!(&tail, &reference_tail, "dispatch {:?} all-⊥ tail", d);
        }
    }
}
