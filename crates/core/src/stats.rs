//! Engine observability: tick-latency histograms, throughput counters,
//! sampler world counts, safe-plan→sampler fallback accounting, and a
//! per-query metrics registry.
//!
//! [`EngineStats`] is a cheaply cloneable handle (an `Arc` over atomics)
//! shared between the engine, the [`crate::RealTimeSession`] tick loop,
//! its parallel workers, and — when [`crate::SessionConfig::metrics_addr`]
//! is set — the [`crate::MetricsServer`] scrape thread.
//! [`EngineStats::snapshot`] freezes a consistent-enough view for
//! dashboards; [`StatsSnapshot::to_json`] renders it as a JSON document
//! and [`crate::expose::to_prometheus`] as Prometheus text, both without
//! any serialization dependency.
//!
//! Global counters aggregate across the whole session; the per-query
//! registry (one labeled slot per [`crate::QueryId`], carrying a step
//! latency histogram, tick count, chain count, and the latest alert
//! probability) is what gives the `/metrics` endpoint its
//! `{query="...",id="..."}`-labeled series.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of power-of-two latency buckets (bucket `i` covers
/// `[2^i, 2^{i+1})` nanoseconds; the last bucket is open-ended).
const N_BUCKETS: usize = 64;

/// Upper bound on distinct fallback-reason labels. Once hit, new reasons
/// are folded into [`FALLBACK_OVERFLOW_LABEL`], so a pathological query
/// mix cannot grow the reason map (or the exposition's label
/// cardinality) without limit. The overflow label itself may become the
/// `MAX_FALLBACK_REASONS + 1`-th entry.
const MAX_FALLBACK_REASONS: usize = 24;

/// Bucket that absorbs fallback reasons past the cardinality cap.
const FALLBACK_OVERFLOW_LABEL: &str = "other";

/// Power-of-two-bucket latency histogram. Private to the stats layer
/// except for the serve path's per-request phase histograms
/// ([`crate::server`]), which reuse it behind their own mutex.
#[derive(Debug)]
pub(crate) struct Histogram {
    counts: [u64; N_BUCKETS],
    n: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: [0; N_BUCKETS],
            n: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl Histogram {
    fn export(&self) -> HistogramState {
        HistogramState {
            counts: self.counts.to_vec(),
            n: self.n,
            sum_ns: self.sum_ns,
            min_ns: self.min_ns,
            max_ns: self.max_ns,
        }
    }

    fn import(state: &HistogramState) -> Self {
        let mut counts = [0u64; N_BUCKETS];
        for (dst, src) in counts.iter_mut().zip(state.counts.iter()) {
            *dst = *src;
        }
        Self {
            counts,
            n: state.n,
            sum_ns: state.sum_ns,
            min_ns: state.min_ns,
            max_ns: state.max_ns,
        }
    }

    /// Samples recorded so far.
    pub(crate) fn count(&self) -> u64 {
        self.n
    }

    pub(crate) fn record(&mut self, ns: u64) {
        let bucket = (63 - ns.max(1).leading_zeros()) as usize;
        self.counts[bucket.min(N_BUCKETS - 1)] += 1;
        self.n += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Estimates quantile `q` by locating the rank's bucket and linearly
    /// interpolating within it (samples are assumed uniform inside a
    /// bucket). The bucket's range is clamped to the observed
    /// `[min_ns, max_ns]`, which tightens the first and last non-empty
    /// buckets to real data instead of power-of-two boundaries.
    fn quantile_ns(&self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((self.n as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let before = seen;
            seen += c;
            if seen >= rank {
                let lower = (1u64 << i).max(self.min_ns);
                let upper = if i + 1 >= 64 {
                    u64::MAX
                } else {
                    1u64 << (i + 1)
                }
                .min(self.max_ns)
                .max(lower);
                let fraction = (rank - before) as f64 / c as f64;
                return lower + (fraction * (upper - lower) as f64).round() as u64;
            }
        }
        self.max_ns
    }

    pub(crate) fn summarize(&self) -> LatencySnapshot {
        let buckets = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (1u64 << b, c))
            .collect();
        LatencySnapshot {
            count: self.n,
            sum_ns: self.sum_ns,
            min_ns: if self.n == 0 { 0 } else { self.min_ns },
            max_ns: self.max_ns,
            mean_ns: if self.n == 0 {
                0.0
            } else {
                self.sum_ns as f64 / self.n as f64
            },
            p50_ns: self.quantile_ns(0.50),
            p95_ns: self.quantile_ns(0.95),
            p99_ns: self.quantile_ns(0.99),
            buckets,
        }
    }
}

/// Per-query slot in the metrics registry.
#[derive(Debug, Default)]
struct QueryMetrics {
    name: String,
    chains: u64,
    ticks: u64,
    last_probability: f64,
    step_latency: Histogram,
}

#[derive(Debug, Default)]
struct Inner {
    ticks: AtomicU64,
    epochs: AtomicU64,
    epoch_ticks: AtomicU64,
    parallel_ticks: AtomicU64,
    degraded_ticks: AtomicU64,
    recoveries: AtomicU64,
    checkpoints_taken: AtomicU64,
    chains_stepped: AtomicU64,
    bindings_grounded: AtomicU64,
    alerts_emitted: AtomicU64,
    marginals_staged: AtomicU64,
    sampler_compilations: AtomicU64,
    sampler_worlds: AtomicU64,
    fallbacks: AtomicU64,
    kernel_fast_steps: AtomicU64,
    kernel_frozen_steps: AtomicU64,
    kernel_slow_steps: AtomicU64,
    kernel_soa_steps: AtomicU64,
    kernel_simd_steps: AtomicU64,
    sym_cache_hits: AtomicU64,
    sym_cache_misses: AtomicU64,
    automata_shared: AtomicU64,
    automata_attached: AtomicU64,
    wal_appends: AtomicU64,
    wal_bytes: AtomicU64,
    wal_segments: AtomicU64,
    wal_replayed_ticks: AtomicU64,
    checkpoints_quarantined: AtomicU64,
    // Live health flags (runtime-only, never checkpointed): mirrors of
    // the session's poisoned/degraded state and the server's WAL-broken
    // state, published here so the `/healthz` readiness probe can read
    // them without a handle on the session itself.
    health_poisoned: AtomicU64,
    health_degraded: AtomicU64,
    health_wal_broken: AtomicU64,
    tick_latency: Mutex<Histogram>,
    fsync_latency: Mutex<Histogram>,
    fallback_reasons: Mutex<BTreeMap<String, u64>>,
    per_query: Mutex<BTreeMap<usize, QueryMetrics>>,
}

/// Raw latency-histogram state inside a [`StatsState`].
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct HistogramState {
    pub(crate) counts: Vec<u64>,
    pub(crate) n: u64,
    pub(crate) sum_ns: u64,
    pub(crate) min_ns: u64,
    pub(crate) max_ns: u64,
}

/// Raw per-query registry slot inside a [`StatsState`].
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct QueryState {
    pub(crate) id: u64,
    pub(crate) name: String,
    pub(crate) chains: u64,
    pub(crate) ticks: u64,
    pub(crate) last_probability: f64,
    pub(crate) step_latency: HistogramState,
}

/// Raw counter values extracted from [`EngineStats`] for inclusion in a
/// session checkpoint. Unlike [`StatsSnapshot`] this is lossless: the
/// full histograms are preserved, not just their summaries.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct StatsState {
    pub(crate) ticks: u64,
    pub(crate) epochs: u64,
    pub(crate) epoch_ticks: u64,
    pub(crate) parallel_ticks: u64,
    pub(crate) degraded_ticks: u64,
    pub(crate) recoveries: u64,
    pub(crate) checkpoints_taken: u64,
    pub(crate) chains_stepped: u64,
    pub(crate) bindings_grounded: u64,
    pub(crate) alerts_emitted: u64,
    pub(crate) marginals_staged: u64,
    pub(crate) sampler_compilations: u64,
    pub(crate) sampler_worlds: u64,
    pub(crate) fallbacks: u64,
    pub(crate) kernel_fast_steps: u64,
    pub(crate) kernel_frozen_steps: u64,
    pub(crate) kernel_slow_steps: u64,
    pub(crate) kernel_soa_steps: u64,
    pub(crate) kernel_simd_steps: u64,
    pub(crate) sym_cache_hits: u64,
    pub(crate) sym_cache_misses: u64,
    pub(crate) automata_shared: u64,
    pub(crate) automata_attached: u64,
    pub(crate) fallback_reasons: BTreeMap<String, u64>,
    pub(crate) tick_latency: HistogramState,
    /// Per-query registry slots in ascending id order.
    pub(crate) per_query: Vec<QueryState>,
}

/// Shared, thread-safe engine metrics. Cloning yields another handle to
/// the same counters.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    inner: Arc<Inner>,
}

impl EngineStats {
    /// A fresh, zeroed set of counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed session tick: its wall-clock latency, how
    /// many per-binding chains were stepped, and whether the sharded
    /// parallel path ran it.
    pub fn record_tick(&self, latency: Duration, chains_stepped: u64, parallel: bool) {
        self.inner.ticks.fetch_add(1, Ordering::Relaxed);
        if parallel {
            self.inner.parallel_ticks.fetch_add(1, Ordering::Relaxed);
        }
        self.inner
            .chains_stepped
            .fetch_add(chains_stepped, Ordering::Relaxed);
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.inner.tick_latency.lock().unwrap().record(ns);
    }

    /// Records chains grounded for a newly registered query.
    pub fn record_grounding(&self, bindings: u64) {
        self.inner
            .bindings_grounded
            .fetch_add(bindings, Ordering::Relaxed);
    }

    /// Records alerts emitted by a tick.
    pub fn record_alerts(&self, n: u64) {
        self.inner.alerts_emitted.fetch_add(n, Ordering::Relaxed);
    }

    /// Records marginals staged into a session (one per
    /// [`crate::RealTimeSession::stage`] call).
    pub fn record_staged(&self, n: u64) {
        self.inner.marginals_staged.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a Monte Carlo compilation simulating `worlds` sampled
    /// worlds.
    pub fn record_sampler(&self, worlds: u64) {
        self.inner
            .sampler_compilations
            .fetch_add(1, Ordering::Relaxed);
        self.inner
            .sampler_worlds
            .fetch_add(worlds, Ordering::Relaxed);
    }

    /// Records one closed epoch covering `ticks` session ticks under a
    /// single shard join (see
    /// [`crate::RealTimeSession::tick_epoch`]). `epoch_ticks / epochs`
    /// is the realized average epoch length.
    pub fn record_epoch(&self, ticks: u64) {
        self.inner.epochs.fetch_add(1, Ordering::Relaxed);
        self.inner.epoch_ticks.fetch_add(ticks, Ordering::Relaxed);
    }

    /// Records a tick that *wanted* the parallel path but was diverted
    /// onto the sequential one by degraded mode (after a watchdog
    /// timeout). Ticks that were configured sequential to begin with
    /// are not degraded and are not counted here.
    pub fn record_degraded_tick(&self) {
        self.inner.degraded_ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a successful [`crate::RealTimeSession::recover`] call.
    pub fn record_recovery(&self) {
        self.inner.recoveries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a checkpoint being taken (manual or automatic).
    pub fn record_checkpoint(&self) {
        self.inner.checkpoints_taken.fetch_add(1, Ordering::Relaxed);
    }

    /// Records kernel-path telemetry for one tick: how many chain
    /// transitions were served by each path (local dense table / shared
    /// frozen table / mutex interpreter / batched struct-of-arrays
    /// lanes, scalar or SIMD) and the per-tick symbol-distribution
    /// cache's hit/miss counts.
    pub(crate) fn record_kernel(&self, k: &crate::kernel::KernelTickStats) {
        let i = &self.inner;
        i.kernel_fast_steps
            .fetch_add(k.steps.fast, Ordering::Relaxed);
        i.kernel_frozen_steps
            .fetch_add(k.steps.frozen, Ordering::Relaxed);
        i.kernel_slow_steps
            .fetch_add(k.steps.slow, Ordering::Relaxed);
        i.kernel_soa_steps.fetch_add(k.steps.soa, Ordering::Relaxed);
        i.kernel_simd_steps
            .fetch_add(k.steps.simd, Ordering::Relaxed);
        i.sym_cache_hits.fetch_add(k.sym_hits, Ordering::Relaxed);
        i.sym_cache_misses
            .fetch_add(k.sym_misses, Ordering::Relaxed);
    }

    /// Publishes the shared-automaton gauges: how many distinct compiled
    /// automata back the session's chains and how many chains are
    /// attached to one.
    pub(crate) fn record_automata(&self, shared: u64, attached: u64) {
        self.inner.automata_shared.store(shared, Ordering::Relaxed);
        self.inner
            .automata_attached
            .store(attached, Ordering::Relaxed);
    }

    /// Records one write-ahead-log record appended (and acknowledged as
    /// durable) of `bytes` framed bytes.
    pub fn record_wal_append(&self, bytes: u64) {
        self.inner.wal_appends.fetch_add(1, Ordering::Relaxed);
        self.inner.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one `fsync`/`fdatasync` of the log or a checkpoint and
    /// its wall-clock latency — the direct price of the durability
    /// level.
    pub fn record_fsync(&self, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.inner.fsync_latency.lock().unwrap().record(ns);
    }

    /// Publishes the live WAL segment count for the session (gauge).
    pub fn set_wal_segments(&self, n: u64) {
        self.inner.wal_segments.store(n, Ordering::Relaxed);
    }

    /// Publishes whether the session is poisoned (a tick panicked or
    /// timed out mid-flight and the session refuses further work until
    /// [`crate::RealTimeSession::recover`]).
    pub fn set_poisoned(&self, poisoned: bool) {
        self.inner
            .health_poisoned
            .store(u64::from(poisoned), Ordering::Relaxed);
    }

    /// Whether the session is currently poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.inner.health_poisoned.load(Ordering::Relaxed) != 0
    }

    /// Publishes whether the session is running degraded (sequential
    /// fallback after a parallel-path watchdog timeout).
    pub fn set_degraded(&self, degraded: bool) {
        self.inner
            .health_degraded
            .store(u64::from(degraded), Ordering::Relaxed);
    }

    /// Whether the session is currently degraded.
    pub fn is_degraded(&self) -> bool {
        self.inner.health_degraded.load(Ordering::Relaxed) != 0
    }

    /// Publishes whether the session's write-ahead log is broken (an
    /// append or fsync failed; mutations are refused with the
    /// `durability` error code until recovery).
    pub fn set_wal_broken(&self, broken: bool) {
        self.inner
            .health_wal_broken
            .store(u64::from(broken), Ordering::Relaxed);
    }

    /// Whether the session's write-ahead log is broken.
    pub fn is_wal_broken(&self) -> bool {
        self.inner.health_wal_broken.load(Ordering::Relaxed) != 0
    }

    /// Records ticks re-applied from the write-ahead log during a
    /// restart recovery.
    pub fn record_wal_replayed(&self, ticks: u64) {
        self.inner
            .wal_replayed_ticks
            .fetch_add(ticks, Ordering::Relaxed);
    }

    /// Records a corrupt checkpoint generation quarantined (renamed
    /// `.corrupt`) during a restore scan.
    pub fn record_checkpoint_quarantined(&self, n: u64) {
        self.inner
            .checkpoints_quarantined
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Records an exact-path→sampler fallback and why it happened. At
    /// most [`MAX_FALLBACK_REASONS`](self) distinct reason strings are
    /// kept; later novel reasons count against the `"other"` bucket.
    pub fn record_fallback(&self, reason: &str) {
        self.inner.fallbacks.fetch_add(1, Ordering::Relaxed);
        let mut reasons = self.inner.fallback_reasons.lock().unwrap();
        let label = if reasons.contains_key(reason) || reasons.len() < MAX_FALLBACK_REASONS {
            reason
        } else {
            FALLBACK_OVERFLOW_LABEL
        };
        *reasons.entry(label.to_owned()).or_insert(0) += 1;
    }

    /// Creates (or re-labels) the per-query registry slot for query
    /// `id`. Counters already accumulated under the id survive, which
    /// makes re-registration during checkpoint restore and recovery a
    /// no-op.
    pub fn register_query(&self, id: usize, name: &str, chains: u64) {
        let mut reg = self.inner.per_query.lock().unwrap();
        let slot = reg.entry(id).or_default();
        slot.name = name.to_owned();
        slot.chains = chains;
    }

    /// Records one closed tick for query `id`: the wall-clock
    /// nanoseconds its chains took this tick (`None` when unknown, e.g.
    /// a tick completed by [`crate::RealTimeSession::recover`]) and the
    /// alert probability it produced.
    pub fn record_query_tick(&self, id: usize, step_ns: Option<u64>, probability: f64) {
        self.record_query_ticks([(id, step_ns, probability)]);
    }

    /// Records one closed tick for many queries under a single registry
    /// lock — the session's per-tick path, where locking per query would
    /// dominate at thousands of registered queries.
    pub fn record_query_ticks(&self, entries: impl IntoIterator<Item = (usize, Option<u64>, f64)>) {
        let mut reg = self.inner.per_query.lock().unwrap();
        for (id, step_ns, probability) in entries {
            let slot = reg.entry(id).or_default();
            slot.ticks += 1;
            slot.last_probability = probability;
            if let Some(ns) = step_ns {
                slot.step_latency.record(ns);
            }
        }
    }

    /// Freezes the current counter values.
    pub fn snapshot(&self) -> StatsSnapshot {
        let i = &self.inner;
        let latency = i.tick_latency.lock().unwrap().summarize();
        let fsync_latency = i.fsync_latency.lock().unwrap().summarize();
        let per_query = i
            .per_query
            .lock()
            .unwrap()
            .iter()
            .map(|(&id, q)| QuerySnapshot {
                id,
                name: q.name.clone(),
                chains: q.chains,
                ticks: q.ticks,
                last_probability: q.last_probability,
                step_latency: q.step_latency.summarize(),
            })
            .collect();
        StatsSnapshot {
            ticks: i.ticks.load(Ordering::Relaxed),
            epochs: i.epochs.load(Ordering::Relaxed),
            epoch_ticks: i.epoch_ticks.load(Ordering::Relaxed),
            parallel_ticks: i.parallel_ticks.load(Ordering::Relaxed),
            degraded_ticks: i.degraded_ticks.load(Ordering::Relaxed),
            recoveries: i.recoveries.load(Ordering::Relaxed),
            checkpoints_taken: i.checkpoints_taken.load(Ordering::Relaxed),
            chains_stepped: i.chains_stepped.load(Ordering::Relaxed),
            bindings_grounded: i.bindings_grounded.load(Ordering::Relaxed),
            alerts_emitted: i.alerts_emitted.load(Ordering::Relaxed),
            marginals_staged: i.marginals_staged.load(Ordering::Relaxed),
            sampler_compilations: i.sampler_compilations.load(Ordering::Relaxed),
            sampler_worlds: i.sampler_worlds.load(Ordering::Relaxed),
            fallbacks: i.fallbacks.load(Ordering::Relaxed),
            kernel_fast_steps: i.kernel_fast_steps.load(Ordering::Relaxed),
            kernel_frozen_steps: i.kernel_frozen_steps.load(Ordering::Relaxed),
            kernel_slow_steps: i.kernel_slow_steps.load(Ordering::Relaxed),
            kernel_soa_steps: i.kernel_soa_steps.load(Ordering::Relaxed),
            kernel_simd_steps: i.kernel_simd_steps.load(Ordering::Relaxed),
            sym_cache_hits: i.sym_cache_hits.load(Ordering::Relaxed),
            sym_cache_misses: i.sym_cache_misses.load(Ordering::Relaxed),
            automata_shared: i.automata_shared.load(Ordering::Relaxed),
            automata_attached: i.automata_attached.load(Ordering::Relaxed),
            wal_appends: i.wal_appends.load(Ordering::Relaxed),
            wal_bytes: i.wal_bytes.load(Ordering::Relaxed),
            wal_segments: i.wal_segments.load(Ordering::Relaxed),
            wal_replayed_ticks: i.wal_replayed_ticks.load(Ordering::Relaxed),
            checkpoints_quarantined: i.checkpoints_quarantined.load(Ordering::Relaxed),
            fallback_reasons: i.fallback_reasons.lock().unwrap().clone(),
            tick_latency: latency,
            fsync_latency,
            per_query,
        }
    }

    /// Extracts the complete raw counter state (lossless, unlike
    /// [`EngineStats::snapshot`]) for inclusion in a session checkpoint.
    pub(crate) fn export_state(&self) -> StatsState {
        let i = &self.inner;
        let per_query = i
            .per_query
            .lock()
            .unwrap()
            .iter()
            .map(|(&id, q)| QueryState {
                id: id as u64,
                name: q.name.clone(),
                chains: q.chains,
                ticks: q.ticks,
                last_probability: q.last_probability,
                step_latency: q.step_latency.export(),
            })
            .collect();
        StatsState {
            ticks: i.ticks.load(Ordering::Relaxed),
            epochs: i.epochs.load(Ordering::Relaxed),
            epoch_ticks: i.epoch_ticks.load(Ordering::Relaxed),
            parallel_ticks: i.parallel_ticks.load(Ordering::Relaxed),
            degraded_ticks: i.degraded_ticks.load(Ordering::Relaxed),
            recoveries: i.recoveries.load(Ordering::Relaxed),
            checkpoints_taken: i.checkpoints_taken.load(Ordering::Relaxed),
            chains_stepped: i.chains_stepped.load(Ordering::Relaxed),
            bindings_grounded: i.bindings_grounded.load(Ordering::Relaxed),
            alerts_emitted: i.alerts_emitted.load(Ordering::Relaxed),
            marginals_staged: i.marginals_staged.load(Ordering::Relaxed),
            sampler_compilations: i.sampler_compilations.load(Ordering::Relaxed),
            sampler_worlds: i.sampler_worlds.load(Ordering::Relaxed),
            fallbacks: i.fallbacks.load(Ordering::Relaxed),
            kernel_fast_steps: i.kernel_fast_steps.load(Ordering::Relaxed),
            kernel_frozen_steps: i.kernel_frozen_steps.load(Ordering::Relaxed),
            kernel_slow_steps: i.kernel_slow_steps.load(Ordering::Relaxed),
            kernel_soa_steps: i.kernel_soa_steps.load(Ordering::Relaxed),
            kernel_simd_steps: i.kernel_simd_steps.load(Ordering::Relaxed),
            sym_cache_hits: i.sym_cache_hits.load(Ordering::Relaxed),
            sym_cache_misses: i.sym_cache_misses.load(Ordering::Relaxed),
            automata_shared: i.automata_shared.load(Ordering::Relaxed),
            automata_attached: i.automata_attached.load(Ordering::Relaxed),
            fallback_reasons: i.fallback_reasons.lock().unwrap().clone(),
            tick_latency: i.tick_latency.lock().unwrap().export(),
            per_query,
        }
    }

    /// Overwrites this handle's counters in place with checkpointed
    /// state. In-place (rather than swapping in a fresh handle) so every
    /// clone of the handle — worker threads, a running
    /// [`crate::MetricsServer`] — observes the restored values.
    pub(crate) fn load_state(&self, state: &StatsState) {
        let i = &self.inner;
        i.ticks.store(state.ticks, Ordering::Relaxed);
        i.epochs.store(state.epochs, Ordering::Relaxed);
        i.epoch_ticks.store(state.epoch_ticks, Ordering::Relaxed);
        i.parallel_ticks
            .store(state.parallel_ticks, Ordering::Relaxed);
        i.degraded_ticks
            .store(state.degraded_ticks, Ordering::Relaxed);
        i.recoveries.store(state.recoveries, Ordering::Relaxed);
        i.checkpoints_taken
            .store(state.checkpoints_taken, Ordering::Relaxed);
        i.chains_stepped
            .store(state.chains_stepped, Ordering::Relaxed);
        i.bindings_grounded
            .store(state.bindings_grounded, Ordering::Relaxed);
        i.alerts_emitted
            .store(state.alerts_emitted, Ordering::Relaxed);
        i.marginals_staged
            .store(state.marginals_staged, Ordering::Relaxed);
        i.sampler_compilations
            .store(state.sampler_compilations, Ordering::Relaxed);
        i.sampler_worlds
            .store(state.sampler_worlds, Ordering::Relaxed);
        i.fallbacks.store(state.fallbacks, Ordering::Relaxed);
        i.kernel_fast_steps
            .store(state.kernel_fast_steps, Ordering::Relaxed);
        i.kernel_frozen_steps
            .store(state.kernel_frozen_steps, Ordering::Relaxed);
        i.kernel_slow_steps
            .store(state.kernel_slow_steps, Ordering::Relaxed);
        i.kernel_soa_steps
            .store(state.kernel_soa_steps, Ordering::Relaxed);
        i.kernel_simd_steps
            .store(state.kernel_simd_steps, Ordering::Relaxed);
        i.sym_cache_hits
            .store(state.sym_cache_hits, Ordering::Relaxed);
        i.sym_cache_misses
            .store(state.sym_cache_misses, Ordering::Relaxed);
        i.automata_shared
            .store(state.automata_shared, Ordering::Relaxed);
        i.automata_attached
            .store(state.automata_attached, Ordering::Relaxed);
        *i.fallback_reasons.lock().unwrap() = state.fallback_reasons.clone();
        *i.tick_latency.lock().unwrap() = Histogram::import(&state.tick_latency);
        *i.per_query.lock().unwrap() = state
            .per_query
            .iter()
            .map(|q| {
                (
                    q.id as usize,
                    QueryMetrics {
                        name: q.name.clone(),
                        chains: q.chains,
                        ticks: q.ticks,
                        last_probability: q.last_probability,
                        step_latency: Histogram::import(&q.step_latency),
                    },
                )
            })
            .collect();
    }

    /// Builds a fresh handle pre-loaded with checkpointed counter state.
    #[cfg(test)]
    pub(crate) fn from_state(state: &StatsState) -> Self {
        let stats = Self::new();
        stats.load_state(state);
        stats
    }
}

/// Latency-histogram summary inside a [`StatsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Total recorded time, nanoseconds (saturating).
    pub sum_ns: u64,
    /// Fastest sample, nanoseconds.
    pub min_ns: u64,
    /// Slowest sample, nanoseconds.
    pub max_ns: u64,
    /// Mean latency, nanoseconds.
    pub mean_ns: f64,
    /// Median estimate (within-bucket linear interpolation),
    /// nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile estimate, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile estimate, nanoseconds.
    pub p99_ns: u64,
    /// Non-empty `(bucket_lower_bound_ns, count)` pairs; bucket `b`
    /// covers `[b, 2b)` nanoseconds.
    pub buckets: Vec<(u64, u64)>,
}

/// One query's slot in a [`StatsSnapshot`]'s per-query registry.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySnapshot {
    /// The registered [`crate::QueryId`]'s index.
    pub id: usize,
    /// The registered name.
    pub name: String,
    /// Per-key chains the query grounds to.
    pub chains: u64,
    /// Ticks this query has closed.
    pub ticks: u64,
    /// The probability of the query's most recent alert.
    pub last_probability: f64,
    /// Wall-clock time this query's chains take per tick.
    pub step_latency: LatencySnapshot,
}

/// A frozen view of [`EngineStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Session ticks processed.
    pub ticks: u64,
    /// Epochs closed (each a single shard join covering ≥ 1 ticks).
    pub epochs: u64,
    /// Session ticks covered by those epochs; `epoch_ticks / epochs` is
    /// the realized average epoch length.
    pub epoch_ticks: u64,
    /// Ticks that ran on the sharded parallel path.
    pub parallel_ticks: u64,
    /// Ticks forced onto the sequential path by degraded mode (after a
    /// watchdog timeout).
    pub degraded_ticks: u64,
    /// Successful session recoveries.
    pub recoveries: u64,
    /// Checkpoints taken (manual or automatic).
    pub checkpoints_taken: u64,
    /// Per-binding chains stepped across all ticks.
    pub chains_stepped: u64,
    /// Per-key chains grounded at query registration (or instrumented
    /// compilation).
    pub bindings_grounded: u64,
    /// Alerts emitted by ticks.
    pub alerts_emitted: u64,
    /// Marginals staged by the inference layer.
    pub marginals_staged: u64,
    /// Monte Carlo compilations.
    pub sampler_compilations: u64,
    /// Total sampled worlds across those compilations.
    pub sampler_worlds: u64,
    /// Exact-path→sampler fallbacks.
    pub fallbacks: u64,
    /// Chain transitions served by a chain's local dense table (the
    /// lock-free compiled-kernel fast path).
    pub kernel_fast_steps: u64,
    /// Chain transitions served by a shared frozen transition table.
    pub kernel_frozen_steps: u64,
    /// Chain transitions resolved by the on-the-fly (mutex) interpreter.
    pub kernel_slow_steps: u64,
    /// Routed state×symbol×lane products executed by the batched
    /// struct-of-arrays kernel on the scalar lane loop.
    pub kernel_soa_steps: u64,
    /// Routed state×symbol×lane products executed by the batched
    /// struct-of-arrays kernel through an explicit SIMD path
    /// (SSE2/AVX2).
    pub kernel_simd_steps: u64,
    /// Per-tick symbol-distribution cache hits (distribution reused).
    pub sym_cache_hits: u64,
    /// Per-tick symbol-distribution cache misses (distribution built).
    pub sym_cache_misses: u64,
    /// Distinct shared compiled automata backing the session's chains
    /// (gauge).
    pub automata_shared: u64,
    /// Chains attached to a shared compiled automaton (gauge).
    pub automata_attached: u64,
    /// Write-ahead-log records appended (each covering one acked
    /// mutation).
    pub wal_appends: u64,
    /// Framed bytes appended to the write-ahead log.
    pub wal_bytes: u64,
    /// Live write-ahead-log segment files (gauge).
    pub wal_segments: u64,
    /// Ticks re-applied from the write-ahead log during restart
    /// recovery.
    pub wal_replayed_ticks: u64,
    /// Corrupt checkpoint generations quarantined during restore scans.
    pub checkpoints_quarantined: u64,
    /// Fallback reason → occurrence count (bounded cardinality; overflow
    /// lands in `"other"`).
    pub fallback_reasons: BTreeMap<String, u64>,
    /// Tick-latency histogram summary.
    pub tick_latency: LatencySnapshot,
    /// Log/checkpoint fsync latency histogram summary (`count` is the
    /// number of fsyncs issued).
    pub fsync_latency: LatencySnapshot,
    /// Per-query registry slots in ascending id order.
    pub per_query: Vec<QuerySnapshot>,
}

impl StatsSnapshot {
    /// Renders the snapshot as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(1024);
        write!(
            out,
            "{{\"ticks\":{},\"epochs\":{},\"epoch_ticks\":{},\
             \"parallel_ticks\":{},\"degraded_ticks\":{},\
             \"recoveries\":{},\"checkpoints_taken\":{},\"chains_stepped\":{},\
             \"bindings_grounded\":{},\"alerts_emitted\":{},\"marginals_staged\":{},\
             \"sampler\":{{\"compilations\":{},\"worlds\":{}}},",
            self.ticks,
            self.epochs,
            self.epoch_ticks,
            self.parallel_ticks,
            self.degraded_ticks,
            self.recoveries,
            self.checkpoints_taken,
            self.chains_stepped,
            self.bindings_grounded,
            self.alerts_emitted,
            self.marginals_staged,
            self.sampler_compilations,
            self.sampler_worlds,
        )
        .unwrap();
        write!(
            out,
            "\"kernel\":{{\"fast_steps\":{},\"frozen_steps\":{},\"slow_steps\":{},\
             \"soa_steps\":{},\"simd_steps\":{},\
             \"sym_cache_hits\":{},\"sym_cache_misses\":{},\
             \"automata_shared\":{},\"automata_attached\":{}}},",
            self.kernel_fast_steps,
            self.kernel_frozen_steps,
            self.kernel_slow_steps,
            self.kernel_soa_steps,
            self.kernel_simd_steps,
            self.sym_cache_hits,
            self.sym_cache_misses,
            self.automata_shared,
            self.automata_attached,
        )
        .unwrap();
        write!(
            out,
            "\"wal\":{{\"appends\":{},\"bytes\":{},\"segments\":{},\
             \"replayed_ticks\":{},\"checkpoints_quarantined\":{}}},",
            self.wal_appends,
            self.wal_bytes,
            self.wal_segments,
            self.wal_replayed_ticks,
            self.checkpoints_quarantined,
        )
        .unwrap();
        write!(
            out,
            "\"fallbacks\":{{\"count\":{},\"reasons\":{{",
            self.fallbacks
        )
        .unwrap();
        for (i, (reason, count)) in self.fallback_reasons.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::json::push_string(&mut out, reason);
            write!(out, ":{count}").unwrap();
        }
        out.push_str("}},\"tick_latency_ns\":");
        push_latency(&mut out, &self.tick_latency);
        out.push_str(",\"fsync_latency_ns\":");
        push_latency(&mut out, &self.fsync_latency);
        out.push_str(",\"queries\":[");
        for (i, q) in self.per_query.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{{\"id\":{},\"name\":", q.id).unwrap();
            crate::json::push_string(&mut out, &q.name);
            write!(
                out,
                ",\"chains\":{},\"ticks\":{},\"last_probability\":",
                q.chains, q.ticks
            )
            .unwrap();
            crate::json::push_f64(&mut out, q.last_probability);
            out.push_str(",\"step_latency_ns\":");
            push_latency(&mut out, &q.step_latency);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn push_latency(out: &mut String, l: &LatencySnapshot) {
    use std::fmt::Write;
    // A non-finite mean (possible in a hand-built snapshot) would emit a
    // bare NaN/inf token, which is not JSON; push_f64 guards it to 0.
    write!(
        out,
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":",
        l.count, l.sum_ns, l.min_ns, l.max_ns
    )
    .unwrap();
    crate::json::push_f64(out, l.mean_ns);
    write!(
        out,
        ",\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
        l.p50_ns, l.p95_ns, l.p99_ns
    )
    .unwrap();
    for (i, (lower, count)) in l.buckets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "[{lower},{count}]").unwrap();
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_handles() {
        let stats = EngineStats::new();
        let clone = stats.clone();
        stats.record_tick(Duration::from_micros(10), 5, false);
        clone.record_tick(Duration::from_micros(20), 7, true);
        stats.record_grounding(3);
        stats.record_alerts(2);
        stats.record_staged(4);
        stats.record_sampler(1024);
        stats.record_fallback("safe: no safe plan exists");
        stats.record_fallback("safe: no safe plan exists");
        let snap = stats.snapshot();
        assert_eq!(snap.ticks, 2);
        assert_eq!(snap.parallel_ticks, 1);
        assert_eq!(snap.chains_stepped, 12);
        assert_eq!(snap.bindings_grounded, 3);
        assert_eq!(snap.alerts_emitted, 2);
        assert_eq!(snap.marginals_staged, 4);
        assert_eq!(snap.sampler_compilations, 1);
        assert_eq!(snap.sampler_worlds, 1024);
        assert_eq!(snap.fallbacks, 2);
        assert_eq!(
            snap.fallback_reasons.get("safe: no safe plan exists"),
            Some(&2)
        );
        assert_eq!(snap.tick_latency.count, 2);
        assert!(snap.tick_latency.min_ns <= snap.tick_latency.max_ns);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let stats = EngineStats::new();
        for us in [1u64, 2, 4, 8, 100, 200, 400, 800, 1600, 10_000] {
            stats.record_tick(Duration::from_micros(us), 1, false);
        }
        let l = stats.snapshot().tick_latency;
        assert_eq!(l.count, 10);
        assert!(l.p50_ns >= l.min_ns);
        assert!(l.p95_ns >= l.p50_ns);
        assert!(l.p99_ns >= l.p95_ns);
        assert!(l.p99_ns <= l.max_ns);
        assert_eq!(l.buckets.iter().map(|(_, c)| c).sum::<u64>(), 10);
    }

    /// Pins the within-bucket linear interpolation: four samples landing
    /// in the `[1024, 2048)` bucket with observed min 1100 and max 1900
    /// put the median halfway through the clamped bucket range.
    #[test]
    fn quantiles_interpolate_within_buckets() {
        let stats = EngineStats::new();
        for ns in [1100u64, 1300, 1700, 1900] {
            stats.record_tick(Duration::from_nanos(ns), 1, false);
        }
        let l = stats.snapshot().tick_latency;
        // rank(p50) = 2 of 4 → fraction 0.5 of [1100, 1900].
        assert_eq!(l.p50_ns, 1500);
        // rank(p95) = rank(p99) = 4 → the top of the clamped range,
        // which is the true max, not the 2048 bucket boundary.
        assert_eq!(l.p95_ns, 1900);
        assert_eq!(l.p99_ns, 1900);

        // Across buckets: 2 samples in [1024, 2048), 2 in [4096, 8192).
        let stats = EngineStats::new();
        for ns in [1024u64, 2000, 5000, 6000] {
            stats.record_tick(Duration::from_nanos(ns), 1, false);
        }
        let l = stats.snapshot().tick_latency;
        // rank(p50) = 2 → top of the first bucket, clamped nowhere
        // below 2048 but capped by nothing: lower = 1024, upper = 2048.
        assert_eq!(l.p50_ns, 2048);
        // rank(p95) = 4 → top of [4096, 8192) clamped to max = 6000.
        assert_eq!(l.p95_ns, 6000);
    }

    #[test]
    fn fallback_reason_cardinality_is_bounded() {
        let stats = EngineStats::new();
        for i in 0..MAX_FALLBACK_REASONS + 5 {
            stats.record_fallback(&format!("reason {i}"));
        }
        // A repeat of an already-tracked reason still lands on its own
        // label.
        stats.record_fallback("reason 0");
        let snap = stats.snapshot();
        assert_eq!(snap.fallbacks, (MAX_FALLBACK_REASONS + 6) as u64);
        assert_eq!(snap.fallback_reasons.len(), MAX_FALLBACK_REASONS + 1);
        assert_eq!(snap.fallback_reasons.get(FALLBACK_OVERFLOW_LABEL), Some(&5));
        assert_eq!(snap.fallback_reasons.get("reason 0"), Some(&2));
        assert!(!snap
            .fallback_reasons
            .contains_key(&format!("reason {MAX_FALLBACK_REASONS}")));
    }

    #[test]
    fn per_query_registry_tracks_latency_and_probability() {
        let stats = EngineStats::new();
        stats.register_query(0, "coffee", 24);
        stats.register_query(1, "wandering", 24);
        stats.record_query_tick(0, Some(1000), 0.25);
        stats.record_query_tick(0, Some(3000), 0.75);
        stats.record_query_tick(1, None, 0.5);
        let snap = stats.snapshot();
        assert_eq!(snap.per_query.len(), 2);
        let q0 = &snap.per_query[0];
        assert_eq!((q0.id, q0.name.as_str(), q0.chains), (0, "coffee", 24));
        assert_eq!(q0.ticks, 2);
        assert_eq!(q0.last_probability, 0.75);
        assert_eq!(q0.step_latency.count, 2);
        assert_eq!(q0.step_latency.sum_ns, 4000);
        // A None latency (recovery-completed tick) counts the tick but
        // not a histogram sample.
        let q1 = &snap.per_query[1];
        assert_eq!(q1.ticks, 1);
        assert_eq!(q1.step_latency.count, 0);
        // Re-registration preserves accumulated counters.
        stats.register_query(0, "coffee", 24);
        let again = stats.snapshot();
        assert_eq!(again.per_query[0].ticks, 2);
    }

    #[test]
    fn json_snapshot_is_well_formed() {
        let stats = EngineStats::new();
        stats.record_tick(Duration::from_micros(42), 9, true);
        stats.record_fallback("needs \"quoting\"\n");
        stats.register_query(0, "q \"uoted\"", 1);
        stats.record_query_tick(0, Some(500), 0.5);
        let json = stats.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"ticks\":1"));
        assert!(json.contains("\"chains_stepped\":9"));
        assert!(json.contains("\\\"quoting\\\"\\n"));
        // Balanced braces/brackets outside of strings.
        let (mut depth, mut in_str, mut esc) = (0i32, false, false);
        for c in json.chars() {
            match (in_str, esc, c) {
                (true, true, _) => esc = false,
                (true, false, '\\') => esc = true,
                (true, false, '"') => in_str = false,
                (true, _, _) => {}
                (false, _, '"') => in_str = true,
                (false, _, '{') | (false, _, '[') => depth += 1,
                (false, _, '}') | (false, _, ']') => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn empty_snapshot_renders() {
        let snap = EngineStats::new().snapshot();
        assert_eq!(snap.ticks, 0);
        let json = snap.to_json();
        assert!(json.contains("\"count\":0"));
        assert!(json.contains("\"buckets\":[]"));
        assert!(json.contains("\"queries\":[]"));
    }

    #[test]
    fn empty_and_populated_snapshots_parse_as_json() {
        let stats = EngineStats::new();
        // Empty histogram first — this is the case that used to risk a
        // bare NaN token for the mean.
        let doc = crate::json::parse(&stats.snapshot().to_json()).unwrap();
        let lat = doc.get("tick_latency_ns").unwrap();
        assert_eq!(lat.get("count").unwrap().as_u64(), Some(0));
        assert_eq!(lat.get("mean").unwrap().as_f64(), Some(0.0));

        stats.record_tick(Duration::from_micros(7), 3, true);
        stats.record_epoch(2);
        stats.record_degraded_tick();
        stats.record_recovery();
        stats.record_checkpoint();
        stats.record_staged(2);
        stats.record_fallback("needs \"quoting\"\n");
        stats.register_query(3, "q", 2);
        stats.record_query_tick(3, Some(1234), 0.1 + 0.2);
        let doc = crate::json::parse(&stats.snapshot().to_json()).unwrap();
        assert_eq!(doc.get("epochs").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("epoch_ticks").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("degraded_ticks").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("recoveries").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("checkpoints_taken").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("marginals_staged").unwrap().as_u64(), Some(2));
        let queries = doc.get("queries").unwrap().as_array().unwrap();
        assert_eq!(queries.len(), 1);
        assert_eq!(queries[0].get("id").unwrap().as_u64(), Some(3));
        // Bit-exact float through the hand-rolled writer and parser.
        assert_eq!(
            queries[0]
                .get("last_probability")
                .unwrap()
                .as_f64()
                .unwrap()
                .to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
    }

    #[test]
    fn kernel_counters_accumulate_and_render() {
        let stats = EngineStats::new();
        let tick = crate::kernel::KernelTickStats {
            steps: crate::kernel::KernelCounters {
                fast: 100,
                frozen: 20,
                slow: 5,
                soa: 64,
                simd: 16,
            },
            sym_hits: 40,
            sym_misses: 10,
        };
        stats.record_kernel(&tick);
        stats.record_kernel(&tick);
        stats.record_automata(3, 12);
        // Gauges overwrite, counters accumulate.
        stats.record_automata(4, 16);
        let snap = stats.snapshot();
        assert_eq!(snap.kernel_fast_steps, 200);
        assert_eq!(snap.kernel_frozen_steps, 40);
        assert_eq!(snap.kernel_slow_steps, 10);
        assert_eq!(snap.kernel_soa_steps, 128);
        assert_eq!(snap.kernel_simd_steps, 32);
        assert_eq!(snap.sym_cache_hits, 80);
        assert_eq!(snap.sym_cache_misses, 20);
        assert_eq!(snap.automata_shared, 4);
        assert_eq!(snap.automata_attached, 16);
        let doc = crate::json::parse(&snap.to_json()).unwrap();
        let kernel = doc.get("kernel").unwrap();
        assert_eq!(kernel.get("fast_steps").unwrap().as_u64(), Some(200));
        assert_eq!(kernel.get("soa_steps").unwrap().as_u64(), Some(128));
        assert_eq!(kernel.get("simd_steps").unwrap().as_u64(), Some(32));
        assert_eq!(kernel.get("sym_cache_hits").unwrap().as_u64(), Some(80));
        assert_eq!(kernel.get("automata_shared").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn wal_counters_accumulate_and_render() {
        let stats = EngineStats::new();
        stats.record_wal_append(120);
        stats.record_wal_append(80);
        stats.record_fsync(Duration::from_micros(350));
        stats.set_wal_segments(3);
        stats.set_wal_segments(2);
        stats.record_wal_replayed(17);
        stats.record_checkpoint_quarantined(1);
        let snap = stats.snapshot();
        assert_eq!(snap.wal_appends, 2);
        assert_eq!(snap.wal_bytes, 200);
        assert_eq!(snap.wal_segments, 2);
        assert_eq!(snap.wal_replayed_ticks, 17);
        assert_eq!(snap.checkpoints_quarantined, 1);
        assert_eq!(snap.fsync_latency.count, 1);
        let doc = crate::json::parse(&snap.to_json()).unwrap();
        let wal = doc.get("wal").unwrap();
        assert_eq!(wal.get("appends").unwrap().as_u64(), Some(2));
        assert_eq!(wal.get("bytes").unwrap().as_u64(), Some(200));
        assert_eq!(wal.get("segments").unwrap().as_u64(), Some(2));
        assert_eq!(wal.get("replayed_ticks").unwrap().as_u64(), Some(17));
        let fsync = doc.get("fsync_latency_ns").unwrap();
        assert_eq!(fsync.get("count").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn non_finite_mean_is_guarded_in_json() {
        let mut snap = EngineStats::new().snapshot();
        snap.tick_latency.mean_ns = f64::NAN;
        let doc = crate::json::parse(&snap.to_json()).expect("NaN mean must not break JSON");
        let lat = doc.get("tick_latency_ns").unwrap();
        assert_eq!(lat.get("mean").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn stats_state_round_trips_losslessly() {
        let stats = EngineStats::new();
        for us in [3u64, 17, 290, 5_000] {
            stats.record_tick(Duration::from_micros(us), 4, us % 2 == 0);
        }
        stats.record_epoch(3);
        stats.record_epoch(1);
        stats.record_degraded_tick();
        stats.record_recovery();
        stats.record_checkpoint();
        stats.record_grounding(6);
        stats.record_alerts(2);
        stats.record_staged(8);
        stats.record_sampler(512);
        stats.record_fallback("why");
        stats.record_kernel(&crate::kernel::KernelTickStats {
            steps: crate::kernel::KernelCounters {
                fast: 10,
                frozen: 4,
                slow: 2,
                soa: 8,
                simd: 1,
            },
            sym_hits: 7,
            sym_misses: 3,
        });
        stats.record_automata(2, 6);
        stats.register_query(0, "q0", 3);
        stats.record_query_tick(0, Some(777), 0.5400000000000001);
        let state = stats.export_state();
        let restored = EngineStats::from_state(&state);
        assert_eq!(restored.export_state(), state);
        assert_eq!(restored.snapshot(), stats.snapshot());
    }

    /// `load_state` must restore counters through existing clones of the
    /// handle — the property a live scrape endpoint depends on across a
    /// checkpoint restore.
    #[test]
    fn load_state_is_visible_through_existing_handles() {
        let stats = EngineStats::new();
        let observer = stats.clone();
        let donor = EngineStats::new();
        donor.record_tick(Duration::from_micros(10), 2, false);
        donor.register_query(1, "restored", 2);
        stats.load_state(&donor.export_state());
        assert_eq!(observer.snapshot(), donor.snapshot());
        assert_eq!(observer.snapshot().per_query[0].name, "restored");
    }
}
