//! `fanout_tick`: an embedded `RealTimeSession` with the default
//! configuration, ~350 keyed `At` streams × 3 extended-regular queries
//! (~1050 chains), driven closed-loop one `stage_batch` + `tick` at a
//! time on a cyclic replay of RFID-simulator marginals.
//!
//! The run is cut into episodes of [`EPISODE_TICKS`] timed ticks. Each
//! episode builds a fresh session (one set-up sample), warms it up and
//! times its ticks. The first and the last episode then check every
//! alert against offline `Lahar::prob_series` over the same marginals
//! (checking every episode would take longer than the timed ticks
//! themselves); every episode checks its alert counts. Episodes bound the
//! session's recorded history, so memory does not grow with run length,
//! and give identical inputs, so each episode's kernel counters repeat
//! exactly.

use crate::data::{self, Q_COFFEE, Q_HALL_COFFEE, Q_KLEENE};
use crate::stats::{self, median, self_time_by_name};
use crate::trace::Tracer;
use crate::{affinity, Args, Report};
use lahar_core::{CompileOptions, Lahar, RealTimeSession, SessionConfig, StatsSnapshot};
use lahar_model::{Marginal, StreamId};
use std::time::Instant;

const N_TAGS: usize = 350;
/// Length of the recorded window the session replays cyclically.
const WINDOW: usize = 64;
/// Untimed warm-up ticks per episode: the automaton-discovery transient
/// (`streaming_throughput` documents ~24 ticks of it). Counted in set-up.
const WARMUP_TICKS: usize = 32;
/// Timed ticks per episode: enough for each episode's own p99 to have
/// ten samples beyond it, and for the timed ticks to outweigh the
/// episode's set-up.
const EPISODE_TICKS: usize = 2200;
/// The share of a run's episodes its figures are taken over: the
/// cheapest eighth, so that a run slowed by the host for most of its
/// length is still measured on the episodes it left alone.
const KEPT_SHARE: f64 = 0.125;
/// How long a traced run evaluates the offline archive mix.
const ARCHIVE_SECONDS: f64 = 3.0;
const QUERIES: [(&str, &str); 3] = [
    ("q_hall_coffee", Q_HALL_COFFEE),
    ("q_coffee", Q_COFFEE),
    ("q_kleene", Q_KLEENE),
];

struct Episode {
    setup_s: f64,
    /// Time spent in `stage_batch` + `tick` over the timed ticks, failed
    /// ones included.
    loop_s: f64,
    tick_s: Vec<f64>,
    ack_s: Vec<f64>,
    /// One `query_s` sample, taken after the episode's ticks in traced
    /// runs (the only ones that print it).
    query_s: Option<f64>,
    before: StatsSnapshot,
    after: StatsSnapshot,
    traced: bool,
}

pub fn run(args: &Args) -> Result<Report, String> {
    let dep = data::deployment(N_TAGS, WINDOW, args.seed);
    let rec = data::record(&dep);
    eprintln!(
        "fanout_tick: {} streams, domain {}, window {WINDOW} ticks",
        rec.template.streams().len(),
        rec.template.streams()[0].domain().len()
    );
    let mut report = Report::default();
    let mut tracer = Tracer::new(false, Instant::now());
    // `query_s` input: the recorded window as an offline database.
    let window = data::replayed_database(&rec.template, &rec.ticks, 0, rec.ticks.len());
    let mut episodes: Vec<Episode> = Vec::new();
    let mut timed_s = 0.0;
    while timed_s < args.seconds || episodes.len() < 3 {
        // A traced run alternates pairs of traced and untraced episodes
        // on the same inputs, so each CPU runs both: their kernel
        // counters must agree exactly, and their tick rates give the
        // tracing overhead.
        tracer.set_on(args.trace && (episodes.len() / 2).is_multiple_of(2));
        // Episodes alternate between the two CPUs (see `affinity`).
        let cpu = args.cpus.for_window(episodes.len());
        affinity::pin_current_thread(cpu).map_err(|e| format!("pinning to CPU {cpu}: {e}"))?;
        let last_s = episodes.last().map_or(0.0, |e: &Episode| e.loop_s);
        let verify = episodes.is_empty() || timed_s + last_s >= args.seconds;
        let ep = episode(&rec, &window, verify, args.trace, &mut tracer, &mut report)?;
        timed_s += ep.loop_s;
        episodes.push(ep);
    }

    // Every figure is the median over episodes of that episode's own
    // figure, taken over the KEPT_SHARE of the episodes that the host
    // slowed least (`stats::cheapest`): the episodes repeat identical
    // work, so they differ only by that. Rates and set-up come from the
    // episodes with the least time per tick, latencies from those with
    // the lowest median tick.
    let per_tick_s: Vec<f64> = episodes
        .iter()
        .map(|e| e.loop_s / e.tick_s.len().max(1) as f64)
        .collect();
    let pick = |cost: &[f64]| -> Vec<&Episode> {
        stats::cheapest(cost, KEPT_SHARE)
            .into_iter()
            .map(|i| &episodes[i])
            .collect()
    };
    let kept = pick(&per_tick_s);
    let quickest = pick(
        &episodes
            .iter()
            .map(|e| {
                if e.tick_s.is_empty() {
                    f64::INFINITY
                } else {
                    median(&e.tick_s)
                }
            })
            .collect::<Vec<_>>(),
    );
    let per_episode =
        |f: &dyn Fn(&Episode) -> f64| median(&kept.iter().map(|e| f(e)).collect::<Vec<_>>());
    report.set("setup_s", per_episode(&|e| e.setup_s));
    // Closed ticks over the time spent in the engine's calls, so an
    // occasional stall in the engine lowers the rate as much as it costs.
    report.set(
        "ticks_per_s",
        per_episode(&|e| e.tick_s.len() as f64 / e.loop_s),
    );
    let windows = |f: fn(&Episode) -> &[f64]| quickest.iter().map(|e| f(e)).collect::<Vec<_>>();
    for (name, samples, p) in [
        ("tick_p50_ms", windows(|e| &e.tick_s), 0.50),
        ("tick_p99_ms", windows(|e| &e.tick_s), 0.99),
        ("ack_p50_ms", windows(|e| &e.ack_s), 0.50),
        ("ack_p99_ms", windows(|e| &e.ack_s), 0.99),
        // The embedded session has no read call of its own: `tick()`
        // returns every query's probability, so a read is a `tick()`.
        ("read_p50_ms", windows(|e| &e.ack_s), 0.50),
        ("read_p95_ms", windows(|e| &e.ack_s), 0.95),
    ] {
        report.set_windowed_pct_ms(name, &samples, p);
    }
    report.set("peak_rss_mb", crate::peak_rss_mb("self"));

    // Kernel counters: one episode's timed ticks, identical in every
    // episode (traced or not) because the inputs are.
    let first = &episodes[0];
    let counts = kernel_counts(&first.before, &first.after);
    for (i, ep) in episodes.iter().enumerate().skip(1) {
        let again = kernel_counts(&ep.before, &ep.after);
        report.check(again == counts, || {
            format!(
                "episode {i} ({}) kernel counters {again:?} differ from episode 0 ({}) {counts:?}",
                if ep.traced { "traced" } else { "untraced" },
                if first.traced { "traced" } else { "untraced" }
            )
        });
    }
    // On the detail line of every run, so an untraced run's counters can
    // be compared with a traced run's per-layer ones.
    for (name, v) in [
        "kernel.steps_fast",
        "kernel.steps_frozen",
        "kernel.steps_slow",
        "kernel.steps_soa",
        "kernel.steps_simd",
    ]
    .into_iter()
    .zip(counts)
    {
        report.detail(name, v as f64);
    }
    report.detail("episodes", episodes.len() as f64);
    report.detail("episodes_kept", kept.len() as f64);
    // The rate over every episode, kept or not, for comparison.
    report.detail(
        "ticks_per_s_all",
        1.0 / (per_tick_s.iter().sum::<f64>() / per_tick_s.len() as f64),
    );
    if args.trace {
        report.set("query_s", per_episode(&|e| e.query_s.unwrap_or(f64::NAN)));
        let [fast, frozen, slow, soa, simd, hits, misses, par, n_ticks, chains] = counts;
        report.set("kernel.steps_fast", fast as f64);
        report.set("kernel.steps_frozen", frozen as f64);
        report.set("kernel.steps_slow", slow as f64);
        report.set("kernel.steps_soa", soa as f64);
        report.set("kernel.steps_simd", simd as f64);
        report.set("kernel.sym_cache_lookups", (hits + misses) as f64);
        report.set(
            "kernel.sym_cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        report.set(
            "session.parallel_tick_ratio",
            par as f64 / n_ticks.max(1) as f64,
        );
        report.set("session.ticks", n_ticks as f64);
        report.set("session.chains_stepped", chains as f64);

        let spans = tracer.spans();
        let self_ns = self_time_by_name(spans);
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count().max(1) as f64;
        let traced_eps = episodes.iter().filter(|e| e.traced).count() as f64;
        let tick_ns = self_ns.get("session.tick").copied().unwrap_or(0) as f64;
        report.set(
            "session.stage_us",
            self_ns.get("session.stage_batch").copied().unwrap_or(0) as f64
                / count("session.stage_batch")
                / 1e3,
        );
        report.set("session.tick_us", tick_ns / count("session.tick") / 1e3);
        report.set(
            "kernel.ns_per_chain_step",
            tick_ns / (chains as f64 * traced_eps).max(1.0),
        );
        report.set("trace.spans", spans.len() as f64);
        // Time per tick of the traced and of the untraced episodes, each
        // over its own cheapest share, as for every other figure.
        let per_tick = |traced: bool| {
            let cost: Vec<f64> = episodes
                .iter()
                .zip(&per_tick_s)
                .filter(|(e, _)| e.traced == traced)
                .map(|(_, c)| *c)
                .collect();
            median(
                &stats::cheapest(&cost, KEPT_SHARE)
                    .into_iter()
                    .map(|i| cost[i])
                    .collect::<Vec<_>>(),
            )
        };
        report.set(
            "trace.overhead_pct",
            (per_tick(true) / per_tick(false) - 1.0) * 100.0,
        );
        let path = args
            .work_dir
            .join(format!("fanout_tick-seed{}.trace.json", args.seed));
        tracer
            .write_chrome_json(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        // The offline archive layers ride on this traced run.
        let path = args
            .work_dir
            .join(format!("archive-seed{}.trace.json", args.seed));
        crate::archive::measure(args.seed, ARCHIVE_SECONDS, &path, &mut report)?;
    }
    Ok(report)
}

/// The kernel path counters a run must reproduce, as deltas between two
/// snapshots: fast, frozen, slow, soa, simd steps, symbol-cache hits and
/// misses, parallel ticks, ticks, chains stepped.
fn kernel_counts(a: &StatsSnapshot, b: &StatsSnapshot) -> [u64; 10] {
    [
        b.kernel_fast_steps - a.kernel_fast_steps,
        b.kernel_frozen_steps - a.kernel_frozen_steps,
        b.kernel_slow_steps - a.kernel_slow_steps,
        b.kernel_soa_steps - a.kernel_soa_steps,
        b.kernel_simd_steps - a.kernel_simd_steps,
        b.sym_cache_hits - a.sym_cache_hits,
        b.sym_cache_misses - a.sym_cache_misses,
        b.parallel_ticks - a.parallel_ticks,
        b.ticks - a.ticks,
        b.chains_stepped - a.chains_stepped,
    ]
}

fn batch(ids: &[StreamId], tick: &[Marginal]) -> Vec<(StreamId, Marginal)> {
    ids.iter().copied().zip(tick.iter().cloned()).collect()
}

fn episode(
    rec: &data::Recorded,
    window: &lahar_model::Database,
    verify: bool,
    sample_query: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Episode, String> {
    let e = |e: lahar_core::EngineError| e.to_string();
    let n_total = WARMUP_TICKS + EPISODE_TICKS;

    let started = Instant::now();
    let mut session =
        RealTimeSession::with_config(rec.template.clone(), SessionConfig::default()).map_err(e)?;
    let setup_pause = Instant::now();
    let ids: Vec<StreamId> = rec
        .template
        .streams()
        .iter()
        .map(|s| session.stream_id(s.id()).expect("template stream"))
        .collect();
    // Warm-up inputs, prepared before the clock resumes.
    let warmup: Vec<_> = (0..WARMUP_TICKS)
        .map(|k| batch(&ids, &rec.ticks[k % rec.ticks.len()]))
        .collect();
    let setup_resume = Instant::now();
    for (name, src) in QUERIES {
        session.register(name, src).map_err(e)?;
    }
    let mut series: Vec<Vec<f64>> = vec![Vec::with_capacity(n_total); QUERIES.len()];
    let mut record = |alerts: Vec<lahar_core::Alert>, report: &mut Report| {
        report.check(alerts.len() == QUERIES.len(), || {
            format!(
                "tick returned {} alerts for {} queries",
                alerts.len(),
                QUERIES.len()
            )
        });
        for a in alerts {
            series[a.query.index()].push(a.probability);
        }
    };
    for b in warmup {
        session.stage_batch(b).map_err(e)?;
        let alerts = session.tick().map_err(e)?;
        record(alerts, report);
    }
    let setup_s = (setup_pause - started).as_secs_f64() + setup_resume.elapsed().as_secs_f64();

    let before = session.stats().snapshot();
    let mut tick_s = Vec::with_capacity(EPISODE_TICKS);
    let mut ack_s = Vec::with_capacity(EPISODE_TICKS);
    let mut loop_s = 0.0;
    for k in WARMUP_TICKS..n_total {
        // Each tick's input is built just before it is timed, as a
        // deployment receives it.
        let b = batch(&ids, &rec.ticks[k % rec.ticks.len()]);
        let root = tracer.begin("fanout.tick");
        let t0 = Instant::now();
        let span = tracer.begin("session.stage_batch");
        let staged = session.stage_batch(b);
        tracer.end(span);
        let t1 = Instant::now();
        let span = tracer.begin("session.tick");
        let ticked = session.tick();
        tracer.end(span);
        let t2 = Instant::now();
        tracer.end(root);
        loop_s += (t2 - t0).as_secs_f64();
        report.attempt(1);
        match staged.and(ticked) {
            Ok(alerts) => {
                tick_s.push((t2 - t0).as_secs_f64());
                ack_s.push((t2 - t1).as_secs_f64());
                record(alerts, report);
            }
            Err(err) => report.fail(format!("tick failed: {err}")),
        }
    }
    let after = session.stats().snapshot();

    drop(session);
    if verify {
        check_offline(rec, &series, n_total, tracer, report)?;
    }
    let query_s = if sample_query {
        Some(offline_query_s(window)?)
    } else {
        None
    };
    Ok(Episode {
        setup_s,
        loop_s,
        tick_s,
        ack_s,
        query_s,
        before,
        after,
        traced: tracer.is_on(),
    })
}

/// Output check: every alert bit-identical to the offline engine over
/// the same marginals.
fn check_offline(
    rec: &data::Recorded,
    series: &[Vec<f64>],
    n_ticks: usize,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let e = |e: lahar_core::EngineError| e.to_string();
    let offline = data::replayed_database(&rec.template, &rec.ticks, 0, n_ticks);
    let mut reference = Vec::new();
    for (_, src) in QUERIES {
        let span = tracer.begin("engine.offline_series");
        let q = Lahar::compile_with(&offline, src, CompileOptions::new()).map_err(e)?;
        reference.push(q.prob_series(n_ticks as u32).map_err(e)?);
        tracer.end(span);
    }
    for ((name, _), (online, offline)) in QUERIES.iter().zip(series.iter().zip(&reference)) {
        let same = online.len() == offline.len()
            && online
                .iter()
                .zip(offline)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        report.check(same, || {
            format!("{name}: session series differs from offline prob_series")
        });
    }
    Ok(())
}

/// One `query_s` sample: offline compile + evaluate of the three
/// queries over the recorded window. Taken once per episode, so the
/// samples spread over the whole run like the ticks do.
fn offline_query_s(window: &lahar_model::Database) -> Result<f64, String> {
    let e = |e: lahar_core::EngineError| e.to_string();
    let t0 = Instant::now();
    for (_, src) in QUERIES {
        let q = Lahar::compile_with(window, src, CompileOptions::new()).map_err(e)?;
        std::hint::black_box(q.prob_series(window.horizon()).map_err(e)?);
    }
    Ok(t0.elapsed().as_secs_f64())
}
