//! Streaming-session throughput: sequential vs sharded-parallel ticks.
//!
//! Builds a push-based [`RealTimeSession`] tracking ≥1k per-key chains
//! (several extended-regular queries over hundreds of keyed streams) and
//! measures end-to-end tick throughput on both tick paths. On a
//! multi-core host the parallel path should approach `min(workers,
//! shards)`-fold speedup, since per-key chains are embarrassingly
//! parallel (Thm 3.7); on a single core it quantifies the handoff
//! overhead instead. Also prints the session's own latency telemetry
//! (`EngineStats` snapshot) for the parallel run.

use lahar_bench::report::{self, num, text};
use lahar_bench::{header, median, quick_mode, row, timed};
use lahar_core::json::JsonValue;
use lahar_core::protocol::WireMarginal;
use lahar_core::{
    Durability, LaharClient, LaharServer, RealTimeSession, Sampler, SamplerConfig, ServerConfig,
    SessionConfig, TickMode,
};
use lahar_model::{Database, Domain, Marginal, Stream, StreamBuilder, StreamKey};
use lahar_query::NormalQuery;

const DOMAIN: [&str; 3] = ["a", "h", "c"];
/// Chains per person: the three registered extended queries below.
const QUERIES_PER_KEY: usize = 3;
/// Timing runs per arm; every recorded figure is the median run (see
/// [`median`]), so one preempted run cannot move a committed number.
const RUNS: usize = 3;
/// Timing runs of the headline 1050-chain sequential and parallel arms,
/// whose minimum, median and maximum go to `BENCH_streaming.json`.
const LEDGER_RUNS: usize = 5;

/// Untimed warm-up ticks before each timed window. Beyond one-off setup
/// (chain compilation, shard spawning, pool spawn), the first ~24 ticks
/// of this workload are the automaton discovery transient: mass
/// propagates into new states, each lane appends local ids, and the
/// batched path rebuilds its per-group layout snapshots and transition
/// columns. Kernel counters go flat once the reachable closure is
/// discovered — the steady state a long-running streaming session
/// spends its life in, which is what the timed window measures.
fn warmup_ticks(n_ticks: usize) -> usize {
    n_ticks.max(32)
}

/// The headline figures of the largest workload: ticks/s as
/// `[min, median, max]` over the runs of each arm.
struct Headline {
    chains: usize,
    seq: [f64; 3],
    par: [f64; 3],
    /// Per chain per tick, of the median sequential run.
    ns_per_chain_step: f64,
    hit_rate: f64,
}

fn build_session(n_people: usize, mode: TickMode) -> (RealTimeSession, Vec<Vec<Marginal>>) {
    let config = SessionConfig::builder().tick_mode(mode).build().unwrap();
    build_session_with(n_people, config)
}

fn build_session_with(
    n_people: usize,
    config: SessionConfig,
) -> (RealTimeSession, Vec<Vec<Marginal>>) {
    let mut db = Database::new();
    db.declare_stream("At", &["person"], &["loc"]).unwrap();
    db.declare_relation("Hallway", 1).unwrap();
    let i = db.interner().clone();
    db.insert_relation_tuple("Hallway", lahar_model::tuple([i.intern("h")]))
        .unwrap();
    let mut ticks: Vec<Vec<Marginal>> = Vec::with_capacity(n_people);
    for p in 0..n_people {
        let b = StreamBuilder::new(&i, "At", &[&format!("p{p}")], &DOMAIN);
        // A small deterministic rotation of marginals, distinct per key.
        let phase = p % 3;
        ticks.push(vec![
            b.marginal(&[(DOMAIN[phase], 0.7), (DOMAIN[(phase + 1) % 3], 0.2)])
                .unwrap(),
            b.marginal(&[(DOMAIN[(phase + 1) % 3], 0.5)]).unwrap(),
            b.marginal(&[(DOMAIN[(phase + 2) % 3], 0.6), (DOMAIN[phase], 0.1)])
                .unwrap(),
        ]);
        db.add_stream(b.independent(vec![]).unwrap()).unwrap();
    }
    let mut session = RealTimeSession::with_config(db, config).unwrap();
    session.register("q_ac", "At(p,'a') ; At(p,'c')").unwrap();
    session.register("q_hc", "At(p,'h') ; At(p,'c')").unwrap();
    session
        .register(
            "q_hall",
            "At(p,'a') ; (At(p, l))+{p | Hallway(l)} ; At(p,'c')",
        )
        .unwrap();
    assert_eq!(session.n_chains(), n_people * QUERIES_PER_KEY);
    (session, ticks)
}

/// The schema/stream template [`LaharServer`] serves from: the same
/// keyed `At` streams as [`build_session`], without a session on top.
fn build_template(n_people: usize) -> Database {
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

/// Three rotating wire frames for `n_people` keyed streams — the
/// loopback serve-path workload shared by the durability and
/// observability benches.
fn loopback_frames(n_people: usize) -> Vec<Vec<WireMarginal>> {
    (0..3)
        .map(|t| {
            (0..n_people)
                .map(|p| {
                    let phase = (p + t) % 3;
                    let mut probs = vec![0.0; DOMAIN.len() + 1];
                    probs[phase] = 0.7;
                    probs[(phase + 1) % 3] = 0.2;
                    let bot = 1.0 - probs.iter().sum::<f64>();
                    *probs.last_mut().unwrap() = bot;
                    WireMarginal {
                        stream_type: "At".to_owned(),
                        key: vec![format!("p{p}")],
                        probs,
                    }
                })
                .collect()
        })
        .collect()
}

/// Ticks/s over the real serve path (in-process server + loopback TCP,
/// one `stage`+`tick` round trip per tick) at each WAL fsync policy.
fn durability_bench(n_people: usize, n_ticks: usize) -> Vec<(&'static str, f64)> {
    let frames = loopback_frames(n_people);
    let mut out = Vec::new();
    for (name, level) in [
        ("none", Durability::None),
        ("batch", Durability::Batch),
        ("always", Durability::Always),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "lahar-bench-durability-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = ServerConfig::builder()
            .checkpoint_dir(&dir)
            .session_config(SessionConfig::builder().durability(level).build().unwrap())
            .build()
            .unwrap();
        let server = LaharServer::start(config, build_template(n_people)).unwrap();
        let mut client = LaharClient::connect(server.addr(), "bench").unwrap();
        client.open().unwrap();
        client.register("q_ac", "At(p,'a') ; At(p,'c')").unwrap();
        for frame in &frames {
            client.stage_tick(frame).unwrap(); // warm-up, untimed
        }
        let mut runs: Vec<f64> = (0..RUNS)
            .map(|_| {
                timed(|| {
                    for t in 0..n_ticks {
                        std::hint::black_box(client.stage_tick(&frames[t % frames.len()]).unwrap());
                    }
                })
                .1
            })
            .collect();
        let secs = median(&mut runs);
        client.shutdown_server().unwrap();
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        out.push((name, n_ticks as f64 / secs));
    }
    out
}

/// Round-trips/s over the serve path with the request-observability
/// instrumentation in its three states: tracer off (the production
/// default — one relaxed atomic load per span site), tracer on
/// (per-thread ring recording with the request id threaded through),
/// and tracer on with a zero-threshold slow log (every request writes
/// a JSONL entry — the instrumentation worst case). Same workload and
/// durability level (`none`) as [`durability_bench`]'s baseline arm,
/// so the off column is directly comparable to `ticks_per_sec_none`.
fn serve_observability_bench(n_people: usize, n_ticks: usize) -> Vec<(&'static str, f64)> {
    let frames = loopback_frames(n_people);
    let mut out = Vec::new();
    for arm in ["off", "on", "on_slowlog"] {
        let dir = std::env::temp_dir().join(format!(
            "lahar-bench-observability-{}-{arm}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut builder = ServerConfig::builder().checkpoint_dir(&dir).session_config(
            SessionConfig::builder()
                .durability(Durability::None)
                .build()
                .unwrap(),
        );
        if arm != "off" {
            lahar_core::trace::enable();
        }
        if arm == "on_slowlog" {
            builder = builder.slow_request_ms(0).slow_log(dir.join("slow.jsonl"));
        }
        let server =
            LaharServer::start(builder.build().unwrap(), build_template(n_people)).unwrap();
        let mut client = LaharClient::connect(server.addr(), "bench").unwrap();
        client.open().unwrap();
        client.register("q_ac", "At(p,'a') ; At(p,'c')").unwrap();
        for frame in &frames {
            client.stage_tick(frame).unwrap(); // warm-up, untimed
        }
        let mut runs: Vec<f64> = (0..RUNS)
            .map(|_| {
                timed(|| {
                    for t in 0..n_ticks {
                        std::hint::black_box(client.stage_tick(&frames[t % frames.len()]).unwrap());
                    }
                })
                .1
            })
            .collect();
        let secs = median(&mut runs);
        client.shutdown_server().unwrap();
        server.join().unwrap();
        lahar_core::trace::disable();
        lahar_core::trace::clear();
        let _ = std::fs::remove_dir_all(&dir);
        out.push((arm, n_ticks as f64 / secs));
    }
    out
}

fn run_ticks(session: &mut RealTimeSession, ticks: &[Vec<Marginal>], n_ticks: usize) {
    for t in 0..n_ticks {
        let batch = ticks.iter().enumerate().map(|(idx, per_key)| {
            let id = session.database().stream_id_at(idx).unwrap();
            (id, per_key[t % per_key.len()].clone())
        });
        // Collected first: `stage_batch` borrows the session mutably
        // while `database()` borrows it shared.
        let batch: Vec<_> = batch.collect();
        session.stage_batch(batch).unwrap();
        std::hint::black_box(session.tick().unwrap());
    }
}

/// Same ticks, but staged `epoch` at a time through
/// [`RealTimeSession::tick_epoch`] (one worker join per epoch).
/// The R/S/T keyed-stream database the #P-hard queries h1..h4 run on
/// (same schema as the `unsafe_queries` bench, longer horizon — no
/// exact oracle is needed here, only throughput).
fn sampler_db(seed: u64, horizon: usize) -> Database {
    let mut db = Database::new();
    for st in ["R", "S", "T"] {
        db.declare_stream(st, &["k"], &["v"]).unwrap();
    }
    let i = db.interner().clone();
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    for st in ["R", "S", "T"] {
        for key in ["k1", "k2"] {
            let b = StreamBuilder::new(&i, st, &[key], &["x"]);
            let ms = (0..horizon)
                .map(|_| b.marginal(&[("x", rng.gen_range(0.2..0.8))]).unwrap())
                .collect();
            db.add_stream(b.independent(ms).unwrap()).unwrap();
        }
    }
    db
}

/// The three `fanout_tick` queries (perfbench), registered by the
/// registration bench.
const FANOUT_QUERIES: [&str; 3] = [
    "At(p, l1)[Hallway(l1)] ; At(p, l2)[CoffeeRoom(l2)]",
    "At(p, l1)[NotRoom(l1)] ; At(p, l2)[NotRoom(l2)] ; At(p, l3)[CoffeeRoom(l3)]",
    "At(p, l1)[Office(p, l1)] ; (At(p, l))+{p | Hallway(l)} ; At(p, l2)[CoffeeRoom(l2)]",
];

/// The `fanout_tick` session template at `n_tags` keys: the RFID
/// deployment's schema and relations (at most 20 people, the rest
/// objects) with one empty `At` stream per tag over the building's
/// locations.
fn rfid_template(n_tags: usize) -> Database {
    let n_people = n_tags.clamp(1, 20);
    let dep = lahar_rfid::Deployment::simulate(lahar_rfid::DeploymentConfig {
        ticks: 1,
        n_people,
        n_objects: n_tags - n_people,
        ..lahar_rfid::DeploymentConfig::default()
    });
    let mut db = dep.base_database();
    let i = db.interner().clone();
    let domain = Domain::new(
        1,
        dep.plan
            .locations()
            .iter()
            .map(|l| lahar_model::tuple([i.intern(&l.name)]))
            .collect(),
    )
    .unwrap();
    for tag in dep.tag_names() {
        let id = StreamKey {
            stream_type: i.intern("At"),
            key: lahar_model::tuple([i.intern(&tag)]),
        };
        db.add_stream(Stream::independent(id, domain.clone(), Vec::new()).unwrap())
            .unwrap();
    }
    db
}

/// Registration cost against the key count: the wall time of
/// `register` for the three `fanout_tick` queries on a fresh session at
/// 100/350/1000 keys, and the log-log slope of its median against keys.
/// Grounding an extended regular query is O(bindings) (Thm 3.7), so the
/// slope should read ≈ 1; a per-binding scan of every stream reads ≈ 2.
fn registration_bench() {
    const KEYS: [usize; 3] = [100, 350, 1000];
    let runs = if quick_mode() { 5 } else { 9 };
    println!();
    header(
        "Registration (3 fanout_tick queries)",
        &["keys", "chains", "min ms", "median ms", "max ms"],
    );
    let mut sizes = Vec::new();
    let mut points = Vec::new();
    for n_keys in KEYS {
        let template = rfid_template(n_keys);
        let mut times = Vec::with_capacity(runs);
        let mut chains = 0;
        for _ in 0..runs {
            let mut session =
                RealTimeSession::with_config(template.clone(), SessionConfig::default()).unwrap();
            let ((), secs) = timed(|| {
                for (k, src) in FANOUT_QUERIES.iter().enumerate() {
                    session.register(&format!("q{k}"), src).unwrap();
                }
            });
            chains = session.n_chains();
            times.push(secs * 1e3);
        }
        let med = median(&mut times);
        let (min, max) = (times[0], times[times.len() - 1]);
        row(&format!("{n_keys}"), &[chains as f64, min, med, max]);
        points.push(((n_keys as f64).ln(), med.ln()));
        let entry: std::collections::BTreeMap<String, JsonValue> = [
            ("keys", n_keys as f64),
            ("chains", chains as f64),
            ("min_ms", min),
            ("median_ms", med),
            ("max_ms", max),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), num(v)))
        .collect();
        sizes.push(JsonValue::Object(entry));
    }
    // Least-squares slope of ln(median) against ln(keys).
    let n = points.len() as f64;
    let (mx, my) = (
        points.iter().map(|p| p.0).sum::<f64>() / n,
        points.iter().map(|p| p.1).sum::<f64>() / n,
    );
    let slope = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>()
        / points.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>();
    println!("log-log slope of register time against keys: {slope:.3}");
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    report::write_section(
        "registration",
        vec![
            ("mode", text(if quick_mode() { "quick" } else { "full" })),
            ("queries", num(FANOUT_QUERIES.len() as f64)),
            ("runs", num(runs as f64)),
            ("sizes", JsonValue::Array(sizes)),
            ("slope", num(slope)),
            ("host_cores", num(cores as f64)),
        ],
    );
}

/// World-steps per second of the Monte Carlo sampler on the #P-hard
/// queries h1..h4 (§3.4), word-level vs scalar. The word path advances
/// 64 Bernoulli worlds per `u64` per transition (Prop 3.20); the scalar
/// path steps one world's NFA state set at a time. h2 binds a Kleene's
/// shared variable mid-sequence — the shape the grounded-NFA simulation
/// cannot express — so both its arms run the semantic fallback
/// (speedup ≈ 1) and it is excluded from the word-level speedup floor.
fn sampler_throughput_bench() {
    const HORIZON: usize = 12;
    let queries = [
        ("h1", "sigma[x = y](R(x, _) ; S(y, _))", false),
        ("h2", "R('k1', _) ; (S(x, _))+{x}", true),
        ("h3", "R('k1', _) ; S(x, _) ; T(x, _)", false),
        ("h4", "R(x, _) ; S('k1', _) ; T(x, _)", false),
    ];
    let db = sampler_db(5, HORIZON);
    let config = SamplerConfig {
        epsilon: 0.02,
        delta: 0.01,
        seed: 1234,
        ..Default::default()
    };
    let worlds = config.n_samples();
    println!();
    header(
        "Sampler throughput (word-level vs scalar, #P-hard queries)",
        &["query", "word worlds/s", "scalar worlds/s", "speedup"],
    );
    let mut fields = vec![
        (
            "mode".to_owned(),
            text(if quick_mode() { "quick" } else { "full" }),
        ),
        ("worlds".to_owned(), num(worlds as f64)),
        ("horizon".to_owned(), num(HORIZON as f64)),
    ];
    for (name, src, fallback) in queries {
        let q = lahar_query::parse_and_validate(db.catalog(), db.interner(), src).unwrap();
        let nq = NormalQuery::from_query(&q);
        // Construction (grounding enumeration, NFA compilation, and for
        // h2 the fallback's world evaluation) is identical across arms
        // and excluded: the section prices the per-tick world loop.
        let mut word_runs: Vec<f64> = (0..RUNS)
            .map(|_| {
                let s = Sampler::with_config(&db, &nq, config).unwrap();
                timed(|| s.prob_series(&db, HORIZON as u32)).1
            })
            .collect();
        let mut scalar_runs: Vec<f64> = (0..RUNS)
            .map(|_| {
                let s = Sampler::with_config(&db, &nq, config).unwrap();
                timed(|| s.prob_series_scalar(&db, HORIZON as u32)).1
            })
            .collect();
        let world_steps = (worlds * HORIZON) as f64;
        let word_wps = world_steps / median(&mut word_runs);
        let scalar_wps = world_steps / median(&mut scalar_runs);
        let speedup = word_wps / scalar_wps;
        row(name, &[word_wps, scalar_wps, speedup]);
        if !fallback {
            assert!(
                speedup >= 10.0,
                "{name}: word-level sampler only {speedup:.1}x the scalar sampler \
                 ({word_wps:.0} vs {scalar_wps:.0} worlds/s)"
            );
        }
        fields.push((format!("{name}_word_worlds_per_sec"), num(word_wps)));
        fields.push((format!("{name}_scalar_worlds_per_sec"), num(scalar_wps)));
        fields.push((format!("{name}_speedup"), num(speedup)));
        if fallback {
            fields.push((format!("{name}_semantic_fallback"), num(1.0)));
        }
    }
    let borrowed: Vec<(&str, lahar_core::json::JsonValue)> = fields
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    report::write_section("sampler_throughput", borrowed);
}

fn run_epochs(
    session: &mut RealTimeSession,
    ticks: &[Vec<Marginal>],
    n_ticks: usize,
    epoch: usize,
) {
    let mut t = 0;
    while t < n_ticks {
        let k = epoch.min(n_ticks - t);
        let batch: Vec<Vec<_>> = (t..t + k)
            .map(|tt| {
                ticks
                    .iter()
                    .enumerate()
                    .map(|(idx, per_key)| {
                        let id = session.database().stream_id_at(idx).unwrap();
                        (id, per_key[tt % per_key.len()].clone())
                    })
                    .collect()
            })
            .collect();
        std::hint::black_box(session.tick_epoch(batch).unwrap());
        t += k;
    }
}

fn main() {
    let (people_counts, n_ticks): (&[usize], usize) = if quick_mode() {
        // 40 ticks, not 10: with the one-off costs moved to the untimed
        // warm-up, the measured window still has to be long enough that
        // per-tick jitter doesn't dominate the quick-mode numbers.
        (&[40, 350], 40)
    } else {
        (&[40, 120, 350, 700], 25)
    };
    header(
        "Streaming session throughput (sequential vs parallel ticks)",
        &[
            "chains",
            "seq ticks/s",
            "par ticks/s",
            "speedup",
            "par p50 ms",
        ],
    );
    // Headline numbers for BENCH_streaming.json, taken at the largest
    // workload of the sweep.
    let mut headline: Option<Headline> = None;
    for &n_people in people_counts {
        // Each arm runs `RUNS` times (the headline workload
        // `LEDGER_RUNS` times) on a fresh session, warmed to steady state
        // (see [`warmup_ticks`]), and records the median run; the
        // telemetry below is read from the last run (counter totals are
        // identical across runs).
        let runs = if n_people == *people_counts.last().unwrap() {
            LEDGER_RUNS
        } else {
            RUNS
        };
        let warmup = warmup_ticks(n_ticks);
        let mut seq_runs = Vec::new();
        let mut seq_last = None;
        for _ in 0..runs {
            let (mut seq, ticks) = build_session(n_people, TickMode::Sequential);
            run_ticks(&mut seq, &ticks, warmup);
            seq_runs.push(timed(|| run_ticks(&mut seq, &ticks, n_ticks)).1);
            seq_last = Some(seq);
        }
        let seq_secs = median(&mut seq_runs);
        let seq = seq_last.expect("RUNS >= 1");

        let mut par_runs = Vec::new();
        let mut par_last = None;
        for _ in 0..runs {
            let (mut par, ticks) = build_session(n_people, TickMode::Parallel);
            run_ticks(&mut par, &ticks, warmup);
            par_runs.push(timed(|| run_ticks(&mut par, &ticks, n_ticks)).1);
            par_last = Some(par);
        }
        let par_secs = median(&mut par_runs);
        let par = par_last.expect("RUNS >= 1");

        let snap = par.stats().snapshot();
        assert_eq!(snap.parallel_ticks, (n_ticks + warmup) as u64);
        // Both paths answered every query: spot-check agreement via the
        // latency histogram being fully populated.
        assert_eq!(snap.tick_latency.count, (n_ticks + warmup) as u64);
        let n_chains = n_people * QUERIES_PER_KEY;
        let seq_snap = seq.stats().snapshot();
        let kernel_total =
            seq_snap.kernel_fast_steps + seq_snap.kernel_frozen_steps + seq_snap.kernel_slow_steps;
        let hit_rate = if kernel_total > 0 {
            (seq_snap.kernel_fast_steps + seq_snap.kernel_frozen_steps) as f64 / kernel_total as f64
        } else {
            0.0
        };
        // Sorted by `median`: the fastest run is the last.
        let spread = |sorted: &[f64], median_secs: f64| {
            let rate = |secs: f64| n_ticks as f64 / secs;
            [
                rate(sorted[sorted.len() - 1]),
                rate(median_secs),
                rate(sorted[0]),
            ]
        };
        headline = Some(Headline {
            chains: n_chains,
            seq: spread(&seq_runs, seq_secs),
            par: spread(&par_runs, par_secs),
            ns_per_chain_step: seq_secs * 1e9 / (n_ticks * n_chains) as f64,
            hit_rate,
        });
        row(
            &format!("{n_chains}"),
            &[
                n_ticks as f64 / seq_secs,
                n_ticks as f64 / par_secs,
                seq_secs / par_secs,
                snap.tick_latency.p50_ns as f64 / 1e6,
            ],
        );
    }

    // Compiled kernels vs the interpreter, single-threaded, on the
    // largest workload: force_interpreter(true) pins every chain to the
    // mutex interpreter path (answers are bit-identical either way).
    let n_people = *people_counts.last().unwrap();
    header(
        "Kernel vs interpreter (sequential ticks)",
        &[
            "chains",
            "kern ticks/s",
            "intp ticks/s",
            "speedup",
            "hit rate",
        ],
    );
    let mut kern_runs = Vec::new();
    let mut kern_last = None;
    for _ in 0..RUNS {
        let (mut kern, ticks) = build_session(n_people, TickMode::Sequential);
        run_ticks(&mut kern, &ticks, warmup_ticks(n_ticks));
        kern_runs.push(timed(|| run_ticks(&mut kern, &ticks, n_ticks)).1);
        kern_last = Some(kern);
    }
    let kern_secs = median(&mut kern_runs);
    let kern = kern_last.expect("RUNS >= 1");
    let ksnap = kern.stats().snapshot();
    let ktotal = ksnap.kernel_fast_steps + ksnap.kernel_frozen_steps + ksnap.kernel_slow_steps;
    let kernel_hit_rate = if ktotal > 0 {
        (ksnap.kernel_fast_steps + ksnap.kernel_frozen_steps) as f64 / ktotal as f64
    } else {
        0.0
    };
    let mut intp_runs = Vec::new();
    for _ in 0..RUNS {
        let (mut intp, ticks) = build_session(n_people, TickMode::Sequential);
        intp.force_interpreter(true);
        // Same warm-up for a fair A/B; the forced interpreter memoizes
        // nothing, so only the kernel arm actually benefits.
        run_ticks(&mut intp, &ticks, warmup_ticks(n_ticks));
        intp_runs.push(timed(|| run_ticks(&mut intp, &ticks, n_ticks)).1);
    }
    let intp_secs = median(&mut intp_runs);
    row(
        &format!("{}", n_people * QUERIES_PER_KEY),
        &[
            n_ticks as f64 / kern_secs,
            n_ticks as f64 / intp_secs,
            intp_secs / kern_secs,
            kernel_hit_rate,
        ],
    );

    let Headline {
        chains,
        seq: [seq_min, seq_tps, seq_max],
        par: [par_min, par_tps, par_max],
        ns_per_chain_step,
        hit_rate,
    } = headline.expect("at least one workload ran");
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    report::write_section(
        "streaming_throughput",
        vec![
            ("mode", text(if quick_mode() { "quick" } else { "full" })),
            ("chains", num(chains as f64)),
            ("ticks", num(n_ticks as f64)),
            ("runs", num(LEDGER_RUNS as f64)),
            ("host_cores", num(cores as f64)),
            ("seq_ticks_per_sec", num(seq_tps)),
            ("seq_ticks_per_sec_min", num(seq_min)),
            ("seq_ticks_per_sec_max", num(seq_max)),
            ("par_ticks_per_sec", num(par_tps)),
            ("par_ticks_per_sec_min", num(par_min)),
            ("par_ticks_per_sec_max", num(par_max)),
            ("ns_per_chain_step", num(ns_per_chain_step)),
            ("kernel_hit_rate", num(hit_rate)),
            ("interpreter_ticks_per_sec", num(n_ticks as f64 / intp_secs)),
            ("kernel_speedup_vs_interpreter", num(intp_secs / kern_secs)),
        ],
    );
    // Per-worker-count scaling at the 1050-chain workload: epoch-batched
    // parallel ticks (8 staged ticks per tick_epoch call, one pool join
    // per epoch) against the per-tick sequential baseline. Recorded to
    // BENCH_streaming.json so parallel-path regressions show up in the
    // perf trajectory; on a host with ≥ 4 cores, losing to sequential at
    // 4 workers fails the run outright.
    const MATRIX_PEOPLE: usize = 350; // × 3 queries = 1050 chains
    const MATRIX_WORKERS: [usize; 3] = [1, 2, 4];
    const MATRIX_EPOCH: usize = 8;
    println!();
    header(
        "Worker scaling (epoch-batched parallel, 1050 chains)",
        &["workers", "ticks/s", "speedup vs seq"],
    );
    let mut mseq_runs = Vec::new();
    for _ in 0..RUNS {
        let (mut mseq, ticks) = build_session(MATRIX_PEOPLE, TickMode::Sequential);
        run_ticks(&mut mseq, &ticks, warmup_ticks(n_ticks));
        mseq_runs.push(timed(|| run_ticks(&mut mseq, &ticks, n_ticks)).1);
    }
    let mseq_secs = median(&mut mseq_runs);
    let mseq_tps = n_ticks as f64 / mseq_secs;
    row("seq", &[mseq_tps, 1.0]);
    let mut matrix_fields = vec![
        ("mode", text(if quick_mode() { "quick" } else { "full" })),
        ("chains", num((MATRIX_PEOPLE * QUERIES_PER_KEY) as f64)),
        ("ticks", num(n_ticks as f64)),
        ("epoch_ticks", num(MATRIX_EPOCH as f64)),
        ("seq_ticks_per_sec", num(mseq_tps)),
    ];
    let mut par4_tps = None;
    for workers in MATRIX_WORKERS {
        let config = SessionConfig::builder()
            .tick_mode(TickMode::Parallel)
            .n_workers(workers)
            .build()
            .unwrap();
        let mut par_runs = Vec::new();
        for _ in 0..RUNS {
            let (mut par, ticks) = build_session_with(MATRIX_PEOPLE, config);
            run_epochs(&mut par, &ticks, warmup_ticks(n_ticks), MATRIX_EPOCH);
            par_runs.push(timed(|| run_epochs(&mut par, &ticks, n_ticks, MATRIX_EPOCH)).1);
        }
        let par_secs = median(&mut par_runs);
        let tps = n_ticks as f64 / par_secs;
        row(&format!("par {workers}w"), &[tps, mseq_secs / par_secs]);
        let key = match workers {
            1 => "par_ticks_per_sec_w1",
            2 => "par_ticks_per_sec_w2",
            _ => "par_ticks_per_sec_w4",
        };
        matrix_fields.push((key, num(tps)));
        if workers >= 4 {
            par4_tps = Some(tps);
        }
    }
    matrix_fields.push(("host_cores", num(cores as f64)));
    report::write_section("streaming_worker_matrix", matrix_fields);
    if cores >= 4 {
        let par4 = par4_tps.expect("4-worker arm ran");
        assert!(
            par4 >= mseq_tps,
            "parallel path lost on a {cores}-core host: 4 workers {par4:.1} ticks/s \
             vs sequential {mseq_tps:.1} ticks/s"
        );
    }

    // Span-recording overhead: the identical parallel run with the
    // tracer off (the default — one relaxed atomic load per span site)
    // and on (per-thread ring-buffer recording). The *off* column is
    // the deployment-relevant number and must stay in the noise; the
    // *on* column prices span recording (per shard epoch and per SoA
    // group; the kernels are the same either way) for when it is needed.
    let n_people = *people_counts.last().unwrap();
    println!();
    header(
        "Span recording overhead (parallel ticks)",
        &["chains", "off ticks/s", "on ticks/s", "overhead %"],
    );
    let mut off_runs = Vec::new();
    for _ in 0..RUNS {
        let (mut off, ticks) = build_session(n_people, TickMode::Parallel);
        run_ticks(&mut off, &ticks, 1);
        off_runs.push(timed(|| run_ticks(&mut off, &ticks, n_ticks)).1);
    }
    let off_secs = median(&mut off_runs);
    lahar_core::trace::enable();
    let mut on_runs = Vec::new();
    for _ in 0..RUNS {
        let (mut on, ticks) = build_session(n_people, TickMode::Parallel);
        run_ticks(&mut on, &ticks, 1);
        on_runs.push(timed(|| run_ticks(&mut on, &ticks, n_ticks)).1);
    }
    let on_secs = median(&mut on_runs);
    lahar_core::trace::disable();
    lahar_core::trace::clear();
    row(
        &format!("{}", n_people * QUERIES_PER_KEY),
        &[
            n_ticks as f64 / off_secs,
            n_ticks as f64 / on_secs,
            (on_secs / off_secs - 1.0) * 100.0,
        ],
    );

    // WAL overhead on the serve path: `none` prices the TCP round trip
    // itself, `batch` adds one write(2) per acknowledged tick, `always`
    // adds an fsync per tick. Recorded to BENCH_streaming.json so WAL
    // regressions show up in the perf trajectory.
    let dur_people = 40;
    let dur_ticks = if quick_mode() { 60 } else { 200 };
    println!();
    header(
        "Durability overhead (serve path, per-tick acks)",
        &["level", "ticks/s", "overhead %"],
    );
    let dur_results = durability_bench(dur_people, dur_ticks);
    let dur_base = dur_results[0].1;
    let mut dur_fields = vec![
        ("mode", text(if quick_mode() { "quick" } else { "full" })),
        ("keyed_streams", num(dur_people as f64)),
        ("ticks", num(dur_ticks as f64)),
    ];
    for (level, tps) in &dur_results {
        row(level, &[*tps, (dur_base / tps - 1.0) * 100.0]);
        let (tps_key, overhead_key) = match *level {
            "none" => ("ticks_per_sec_none", None),
            "batch" => ("ticks_per_sec_batch", Some("overhead_batch_pct")),
            _ => ("ticks_per_sec_always", Some("overhead_always_pct")),
        };
        dur_fields.push((tps_key, num(*tps)));
        if let Some(key) = overhead_key {
            dur_fields.push((key, num((dur_base / tps - 1.0) * 100.0)));
        }
    }
    report::write_section("durability_overhead", dur_fields);

    // Request-observability overhead on the same serve-path workload:
    // the tracing-off arm is the deployment configuration and must stay
    // within noise of the durability `none` baseline above; the other
    // arms price turning the diagnostics on.
    println!();
    header(
        "Request observability overhead (serve path, per-tick acks)",
        &["tracing", "rt/s", "overhead %"],
    );
    let obs_results = serve_observability_bench(dur_people, dur_ticks);
    let obs_base = obs_results[0].1;
    let mut obs_fields = vec![
        ("mode", text(if quick_mode() { "quick" } else { "full" })),
        ("keyed_streams", num(dur_people as f64)),
        ("ticks", num(dur_ticks as f64)),
        ("durability_none_baseline_rt_per_sec", num(dur_base)),
    ];
    for (arm, tps) in &obs_results {
        row(arm, &[*tps, (obs_base / tps - 1.0) * 100.0]);
        let (tps_key, overhead_key) = match *arm {
            "off" => ("rt_per_sec_off", Some("off_vs_durability_none_pct")),
            "on" => ("rt_per_sec_on", Some("overhead_on_pct")),
            _ => ("rt_per_sec_on_slowlog", Some("overhead_on_slowlog_pct")),
        };
        obs_fields.push((tps_key, num(*tps)));
        let overhead = match *arm {
            // The off arm is measured against the durability bench's
            // identically-configured `none` arm — the PR-over-PR
            // regression hook (the acceptance bound is < 3%).
            "off" => (dur_base / tps - 1.0) * 100.0,
            _ => (obs_base / tps - 1.0) * 100.0,
        };
        if let Some(key) = overhead_key {
            obs_fields.push((key, num(overhead)));
        }
    }
    report::write_section("serve_observability", obs_fields);

    sampler_throughput_bench();
    registration_bench();

    // The telemetry snapshot itself, as the deployment-facing JSON.
    let (mut par, ticks) = build_session(people_counts[0], TickMode::Parallel);
    run_ticks(&mut par, &ticks, 3);
    println!(
        "\nsample EngineStats snapshot:\n{}",
        par.stats().snapshot().to_json()
    );
}
