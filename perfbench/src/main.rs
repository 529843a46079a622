//! The lahar benchmark: two workloads, measured end to end and per
//! layer from outside the engine. See `BENCHMARK.json` at the root of
//! the repository for the metric catalogue and `README.md` beside this
//! package for what each metric means on each workload.
//!
//! ```text
//! lahar-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--lahar PATH]
//! ```
//!
//! Prints progress and per-metric sample counts on stderr, a detail
//! line on stdout, and as the last stdout line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod affinity;
mod archive;
mod data;
mod fanout;
mod served;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ticks_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run. A layer a workload
/// does not exercise reads 0. The first eight are end-to-end figures:
/// every run measures them, but on a shared host they move with other
/// tenants' load by more than any bound an end-to-end metric may carry,
/// so they are reported unbounded, beside the layers that explain them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sustained_acks_per_s", "1/s"),
    ("tick_p50_ms", "ms"),
    ("ack_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("tick_p99_ms", "ms"),
    ("ack_p99_ms", "ms"),
    ("read_p95_ms", "ms"),
    ("query_s", "s"),
    ("session.stage_us", "us"),
    ("session.tick_us", "us"),
    ("kernel.ns_per_chain_step", "ns"),
    ("kernel.steps_fast", "count"),
    ("kernel.steps_frozen", "count"),
    ("kernel.steps_slow", "count"),
    ("kernel.steps_soa", "count"),
    ("kernel.steps_simd", "count"),
    ("kernel.sym_cache_hit_ratio", "ratio"),
    ("kernel.sym_cache_lookups", "count"),
    ("session.parallel_tick_ratio", "ratio"),
    ("session.ticks", "count"),
    ("session.chains_stepped", "count"),
    ("query.parse_ms", "ms"),
    ("engine.compile_ms", "ms"),
    ("regular.eval_ms", "ms"),
    ("extended.eval_ms", "ms"),
    ("chain.ns_per_step", "ns"),
    ("safeplan.eval_ms", "ms"),
    ("sampler.eval_ms", "ms"),
    ("sampler.worlds_per_s", "1/s"),
    ("protocol.parse_request_us", "us"),
    ("protocol.encode_response_us", "us"),
    ("server.queue_wait_p50_us", "us"),
    ("server.queue_wait_p99_us", "us"),
    ("server.execute_p50_us", "us"),
    ("server.execute_p99_us", "us"),
    ("server.respond_p50_us", "us"),
    ("server.respond_p99_us", "us"),
    ("server.overloaded", "count"),
    ("server.wal_append_p50_us", "us"),
    ("server.wal_append_p99_us", "us"),
    ("wal.bytes_per_ack", "bytes"),
    ("gen.late_p99_ms", "ms"),
    ("gen.inflight_max", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.decode_ms", "ms"),
    ("session.restore_ms", "ms"),
    ("wal.read_segment_ms", "ms"),
    ("engine.backfill_ms", "ms"),
    ("server.restores", "count"),
    ("error_rate", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// The run's arguments.
#[derive(Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `lahar` executable the served workloads start.
    pub lahar: Option<PathBuf>,
    /// Where traced runs write their span files (inside the checkout).
    pub work_dir: PathBuf,
    /// This run's scratch directory under `work_dir`, removed when the
    /// run ends, however it ends.
    pub scratch: PathBuf,
    /// The CPUs `fanout_tick` alternates between.
    pub cpus: affinity::CpuPair,
}

/// What a workload measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    /// Sample count and percentile actually used, per latency metric.
    samples: BTreeMap<&'static str, (usize, f64)>,
    /// Why each failed op failed (first few only).
    failures: Vec<String>,
    /// Extra figures printed on the detail line, traced or not.
    detail: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Sets a latency metric, in milliseconds, from a percentile of
    /// samples taken in seconds, and records its sample count.
    pub fn set_pct_ms(&mut self, name: &'static str, samples_s: &[f64], p: f64) {
        let pct = stats::percentile(samples_s, p);
        self.set(name, pct.value * 1e3);
        self.samples.insert(name, (pct.n, pct.rank));
    }

    /// Sets a latency metric, in milliseconds, to the median over
    /// windows of each window's own percentile, for runs cut into
    /// windows so that one window disturbed by the host cannot move it.
    /// Records the per-window sample count (the smallest) and rank.
    pub fn set_windowed_pct_ms(&mut self, name: &'static str, windows_s: &[&[f64]], p: f64) {
        let pcts: Vec<stats::Pct> = windows_s.iter().map(|w| stats::percentile(w, p)).collect();
        self.set(
            name,
            stats::median(&pcts.iter().map(|x| x.value).collect::<Vec<_>>()) * 1e3,
        );
        let worst = pcts
            .iter()
            .min_by_key(|x| x.n)
            .expect("at least one window");
        self.samples.insert(name, (worst.n, worst.rank));
    }

    /// Takes the metrics `names` (those `other` set), the operation
    /// counts and the failures of a scenario run inside this one.
    pub fn adopt(&mut self, other: Report, names: &[&'static str]) {
        for name in names {
            if let Some(v) = other.metrics.get(name) {
                self.metrics.insert(name, *v);
            }
            if let Some(s) = other.samples.get(name) {
                self.samples.insert(name, *s);
            }
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 20usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    /// Adds a figure to the detail line.
    pub fn detail(&mut self, name: &'static str, value: f64) {
        self.detail.insert(name, value);
    }

    /// Records `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records one failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            let why = why.into();
            eprintln!("perfbench: FAILED: {why}");
            self.failures.push(why);
        }
    }

    /// Checks `ok`, counting one attempted check and, when it does not
    /// hold, one failure.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempt(1);
        if !ok {
            self.fail(why());
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_owned(), value.clone());
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("--{k} is required"));
    let workload = get("workload")?.clone();
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed expects a whole number".to_owned())?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number".to_owned())?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    let work_dir = flags
        .get("work-dir")
        .map_or_else(|| target.join("perfbench-work"), PathBuf::from);
    let scratch = work_dir.join(format!("run-{}", std::process::id()));
    let cpus = affinity::CpuPair::choose().map_err(|e| format!("reading the CPU mask: {e}"))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        lahar: flags.get("lahar").map(PathBuf::from),
        work_dir,
        scratch,
        cpus,
    })
}

/// Peak resident set (VmHWM) of process `pid` (`"self"` for this one),
/// in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest string that reads back to the same
        // f64: every measured digit, nothing invented.
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: creating {}: {e}", args.scratch.display());
        return ExitCode::FAILURE;
    }
    let result = match args.workload.as_str() {
        "fanout_tick" => fanout::run(&args),
        "served_ingest" => served::run_ingest(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&args.scratch);
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    report.set("error_rate", error_rate);
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let value = match report.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: {}: no value for {name}", args.workload);
                return ExitCode::FAILURE;
            }
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let samples: Vec<String> = report
        .samples
        .iter()
        .map(|(name, (n, rank))| format!("\"{name}\": {{\"n\": {n}, \"percentile\": {rank:.4}}}"))
        .collect();
    for (name, (n, rank)) in &report.samples {
        eprintln!("perfbench: {name}: {n} samples, percentile {rank:.4}");
    }
    // The detail line also carries every figure the run measured that the
    // result line does not, such as an untraced run's latencies.
    let unprinted = report
        .metrics
        .iter()
        .filter(|(name, _)| !wanted.iter().any(|(n, _)| n == *name));
    let detail: Vec<String> = report
        .detail
        .iter()
        .chain(unprinted)
        .map(|(name, v)| format!("\"{name}\": {}", json_number(*v)))
        .collect();
    println!(
        "{{\"samples\": {{{}}}, \"detail\": {{{}}}}}",
        samples.join(", "),
        detail.join(", ")
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue above and `BENCHMARK.json` must name the same
    /// metrics with the same units.
    #[test]
    fn metric_catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = lahar_core::json::parse(&text).expect("BENCHMARK.json parses");
        for (section, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(section)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(|v| v.as_str()).unwrap().to_owned(),
                        m.get("unit").and_then(|v| v.as_str()).unwrap().to_owned(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(listed, ours, "{section} differs from BENCHMARK.json");
        }
    }
}
