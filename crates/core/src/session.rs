//! Push-based real-time processing sessions.
//!
//! The batch API ([`crate::Lahar`]) evaluates over a finished database;
//! a [`RealTimeSession`] is the *streaming* deployment mode of the paper's
//! real-time scenario (§2.4): the inference layer pushes one marginal per
//! declared stream per tick, and every registered (regular or extended
//! regular — the streaming classes of Theorems 3.3/3.7) query advances by
//! exactly one step, emitting `μ(q@t)` as the tick closes.
//!
//! # Sharded, epoch-batched parallel ticks
//!
//! Internally the session owns every registered query's per-key chains
//! directly, partitioned into contiguous, balanced *shards* — each a
//! [`ChainSet`], the type every regular and extended evaluation steps
//! ([`crate::streaming`]). Every
//! shard advances through one job — step the shard through the epoch's
//! ticks with the batched kernel of [`crate::soa`], catching panics —
//! run either inline on the caller's thread (sequential) or on the
//! process-shared worker pool ([`crate::pool`]). The tick's marginals
//! are written once into a dense outcome-major frame as the tick
//! closes and shared with the jobs behind an `Arc`; each job hands its
//! shard back with the per-chain probabilities, one merge routine takes
//! every result home, and the session recombines per-query answers on
//! the caller's thread in canonical binding order (`1 − Π(1 − pᵢ)` for
//! extended regular queries — Theorem 3.7's combination). Both paths
//! therefore run the same arithmetic in the same order, so parallel
//! ticks reproduce sequential answers. [`SessionConfig`] picks the path:
//! [`TickMode::Auto`] engages the pool once the session tracks at least
//! `parallel_threshold` chains and more than one worker is available.
//!
//! When the caller can stage several ticks at once
//! ([`RealTimeSession::tick_epoch`] — the path `stage_batch` ingest,
//! replays, and history backfills use), the session hands all of them
//! to each shard in one *epoch* job: jobs advance their chains through
//! every tick of the epoch before the single epoch join,
//! turning `k` cross-thread barriers into one while alert emission,
//! stats, auto-checkpoint cadence, and watchdog/poison/recover
//! semantics stay tick-accurate. [`SessionConfig::max_epoch_ticks`]
//! bounds how many ticks one join may cover.
//!
//! Sessions also keep [`EngineStats`]: per-tick latency histograms,
//! chains-stepped/bindings-grounded counters, and alert counts, all
//! snapshotable as JSON via [`crate::StatsSnapshot::to_json`].
//!
//! ```
//! use lahar_core::RealTimeSession;
//! use lahar_model::{Database, StreamBuilder};
//!
//! let mut db = Database::new();
//! db.declare_stream("At", &["person"], &["loc"]).unwrap();
//! let b = StreamBuilder::new(db.interner(), "At", &["joe"], &["office", "coffee"]);
//! db.add_stream(b.clone().independent(vec![]).unwrap()).unwrap();
//!
//! let mut session = RealTimeSession::new(db).unwrap();
//! let q = session
//!     .register("coffee", "At('joe','office') ; At('joe','coffee')")
//!     .unwrap();
//! let at_joe = session.stream_id(b.key()).unwrap();
//! session.stage(at_joe, b.marginal(&[("office", 0.9)]).unwrap()).unwrap();
//! let alerts = session.tick().unwrap();
//! assert_eq!(alerts[0].query, q);
//! session.stage(at_joe, b.marginal(&[("coffee", 0.6)]).unwrap()).unwrap();
//! let alerts = session.tick().unwrap();
//! assert!((alerts[0].probability - 0.54).abs() < 1e-9);
//! ```

use crate::chain::{ChainEvaluator, ChainState, TickFrame};
use crate::checkpoint::{Checkpoint, QueryMeta, CHECKPOINT_VERSION, OLDEST_READABLE_VERSION};
use crate::error::{panic_message, EngineError};
use crate::kernel::{KernelTickStats, SymCache};
use crate::stats::EngineStats;
use crate::streaming::{ground, ChainSet, HistoryFrames, QueryKind};
use lahar_model::{Database, Marginal, StreamData, StreamId, StreamKey};
use lahar_query::{classify, parse_and_validate, NormalQuery, Query, QueryError};
use std::net::SocketAddr;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Opaque identifier of a registered query within a session.
///
/// Produced by [`RealTimeSession::register`]; the only thing callers can
/// do with it is compare it, hash it, or read its registration order via
/// [`QueryId::index`] (queries are numbered `0, 1, …` in registration
/// order, which is also the order of [`Alert`]s within a tick).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryId(pub(crate) usize);

impl QueryId {
    /// The query's registration index (0-based, registration order).
    pub fn index(self) -> usize {
        self.0
    }
}

/// One query's answer for the tick that just closed.
#[derive(Debug, Clone)]
pub struct Alert {
    /// Which query.
    pub query: QueryId,
    /// The registered name. Shared (`Arc<str>`) so emitting an alert per
    /// query per tick never allocates.
    pub name: Arc<str>,
    /// The closed timestep.
    pub t: u32,
    /// `μ(q@t)`.
    pub probability: f64,
}

/// Which tick path a session uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TickMode {
    /// Parallel once the session tracks at least
    /// [`SessionConfig::parallel_threshold`] chains and more than one
    /// worker is available; sequential below that.
    #[default]
    Auto,
    /// Always step chains in place on the caller's thread.
    Sequential,
    /// Always step shards on the worker pool.
    Parallel,
}

/// Tuning knobs for [`RealTimeSession`].
///
/// Construct via [`SessionConfig::builder`] (validated) or start from
/// [`SessionConfig::default`] and adjust fields. The struct is
/// `#[non_exhaustive]`: downstream code cannot use struct-literal
/// construction, so fields can be added without breaking callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct SessionConfig {
    /// Which tick path to use.
    pub tick_mode: TickMode,
    /// Worker threads for the parallel path; `0` means one per core
    /// available when the session is created.
    pub n_workers: usize,
    /// Minimum total chain count for [`TickMode::Auto`] to engage the
    /// parallel path. Below it, per-tick work is too small to amortize
    /// the cross-thread handoff.
    pub parallel_threshold: usize,
    /// Upper bound on how many staged ticks one epoch join may cover
    /// (see [`RealTimeSession::tick_epoch`]). Larger epochs amortize
    /// the shard handoff over more chain-steps; the watchdog deadline
    /// scales with the actual epoch length, so the knob trades handoff
    /// overhead against fault-detection latency. `1` degenerates to a
    /// join per tick.
    pub max_epoch_ticks: usize,
    /// Take an automatic [`RealTimeSession::checkpoint`] every this many
    /// closed ticks (`0` disables auto-checkpointing). Auto-checkpoints
    /// bound the recovery replay log to at most this many ticks.
    pub checkpoint_interval: usize,
    /// Watchdog deadline for a parallel tick. When the worker pool takes
    /// longer than this to return every shard, the tick fails with
    /// [`EngineError::TickTimeout`] and — after
    /// [`RealTimeSession::recover`] — the session runs *degraded*,
    /// forcing the sequential path until
    /// [`RealTimeSession::clear_degraded`]. `None` disables the
    /// watchdog.
    pub tick_deadline: Option<Duration>,
    /// Serve live metrics over HTTP from this address (see
    /// [`crate::MetricsServer`]): `GET /metrics` (Prometheus text
    /// format), `GET /healthz`, `GET /trace`. Port `0` picks a free
    /// port; [`RealTimeSession::metrics_addr`] reports the bound one.
    /// `None` (the default) serves nothing.
    pub metrics_addr: Option<SocketAddr>,
    /// Enable structured span tracing ([`crate::trace`]) when the
    /// session is created. The tracer is process-global, so this is a
    /// convenience for [`crate::trace::enable`]; spans export via
    /// [`crate::trace::chrome_trace_json`] or the `/trace` endpoint.
    pub trace: bool,
    /// Write-ahead-log fsync policy for served sessions (see
    /// [`crate::Durability`]): what an acknowledged `stage`/`tick`
    /// batch is guaranteed to survive. Applied by [`crate::LaharServer`]
    /// when a checkpoint directory is configured; a standalone
    /// [`RealTimeSession`] keeps no log. Defaults to
    /// [`crate::Durability::None`] (acks promise only the in-memory
    /// apply).
    pub durability: crate::wal::Durability,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            tick_mode: TickMode::Auto,
            n_workers: 0,
            parallel_threshold: 256,
            max_epoch_ticks: 32,
            checkpoint_interval: 0,
            tick_deadline: None,
            metrics_addr: None,
            trace: false,
            durability: crate::wal::Durability::None,
        }
    }
}

impl SessionConfig {
    /// A validating builder — the recommended way to construct a config.
    ///
    /// ```
    /// use lahar_core::{SessionConfig, TickMode};
    /// let config = SessionConfig::builder()
    ///     .tick_mode(TickMode::Parallel)
    ///     .n_workers(4)
    ///     .checkpoint_interval(64)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(config.n_workers, 4);
    /// ```
    pub fn builder() -> SessionConfigBuilder {
        SessionConfigBuilder::default()
    }
}

/// Builder for [`SessionConfig`] with build-time validation.
///
/// Setters record *explicit* choices; fields left unset keep their
/// [`SessionConfig::default`] values. [`SessionConfigBuilder::build`]
/// rejects contradictions a raw struct would silently accept:
///
/// * an explicit `checkpoint_interval(0)` — `0` is the "disabled"
///   sentinel, which you get by not calling the setter;
/// * an explicit `n_workers(0)` — `0` is the "one per core" sentinel,
///   which you get by not calling the setter;
/// * an explicit `max_epoch_ticks(0)` — an epoch covers at least one
///   tick.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionConfigBuilder {
    tick_mode: Option<TickMode>,
    n_workers: Option<usize>,
    parallel_threshold: Option<usize>,
    max_epoch_ticks: Option<usize>,
    checkpoint_interval: Option<usize>,
    tick_deadline: Option<Duration>,
    metrics_addr: Option<SocketAddr>,
    trace: Option<bool>,
    durability: Option<crate::wal::Durability>,
}

impl SessionConfigBuilder {
    /// Sets [`SessionConfig::tick_mode`].
    pub fn tick_mode(mut self, mode: TickMode) -> Self {
        self.tick_mode = Some(mode);
        self
    }

    /// Sets [`SessionConfig::n_workers`]. Must be non-zero: the "one
    /// worker per core" default is chosen by *not* calling this.
    pub fn n_workers(mut self, n: usize) -> Self {
        self.n_workers = Some(n);
        self
    }

    /// Sets [`SessionConfig::parallel_threshold`].
    pub fn parallel_threshold(mut self, chains: usize) -> Self {
        self.parallel_threshold = Some(chains);
        self
    }

    /// Sets [`SessionConfig::max_epoch_ticks`]. Must be non-zero: an
    /// epoch covers at least one tick.
    pub fn max_epoch_ticks(mut self, ticks: usize) -> Self {
        self.max_epoch_ticks = Some(ticks);
        self
    }

    /// Sets [`SessionConfig::checkpoint_interval`]. Must be non-zero:
    /// auto-checkpointing is disabled by *not* calling this.
    pub fn checkpoint_interval(mut self, ticks: usize) -> Self {
        self.checkpoint_interval = Some(ticks);
        self
    }

    /// Sets [`SessionConfig::tick_deadline`].
    pub fn tick_deadline(mut self, deadline: Duration) -> Self {
        self.tick_deadline = Some(deadline);
        self
    }

    /// Sets [`SessionConfig::metrics_addr`].
    pub fn metrics_addr(mut self, addr: SocketAddr) -> Self {
        self.metrics_addr = Some(addr);
        self
    }

    /// Sets [`SessionConfig::trace`].
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = Some(on);
        self
    }

    /// Sets [`SessionConfig::durability`].
    pub fn durability(mut self, level: crate::wal::Durability) -> Self {
        self.durability = Some(level);
        self
    }

    /// Validates the explicit choices and produces the config.
    pub fn build(self) -> Result<SessionConfig, EngineError> {
        if self.checkpoint_interval == Some(0) {
            return Err(EngineError::InvalidConfig(
                "checkpoint_interval must be non-zero (omit the setter to \
                 disable auto-checkpointing)"
                    .to_owned(),
            ));
        }
        if self.n_workers == Some(0) {
            return Err(EngineError::InvalidConfig(
                "n_workers must be non-zero (omit the setter for one worker \
                 per core)"
                    .to_owned(),
            ));
        }
        if self.max_epoch_ticks == Some(0) {
            return Err(EngineError::InvalidConfig(
                "max_epoch_ticks must be non-zero (an epoch covers at least \
                 one tick)"
                    .to_owned(),
            ));
        }
        let defaults = SessionConfig::default();
        Ok(SessionConfig {
            tick_mode: self.tick_mode.unwrap_or(defaults.tick_mode),
            n_workers: self.n_workers.unwrap_or(defaults.n_workers),
            parallel_threshold: self
                .parallel_threshold
                .unwrap_or(defaults.parallel_threshold),
            max_epoch_ticks: self.max_epoch_ticks.unwrap_or(defaults.max_epoch_ticks),
            checkpoint_interval: self
                .checkpoint_interval
                .unwrap_or(defaults.checkpoint_interval),
            tick_deadline: self.tick_deadline,
            metrics_addr: self.metrics_addr,
            trace: self.trace.unwrap_or(defaults.trace),
            durability: self.durability.unwrap_or(defaults.durability),
        })
    }
}

struct Registered {
    name: Arc<str>,
    kind: QueryKind,
    /// The query's source text, kept for structural rebuilds during
    /// [`RealTimeSession::recover`] and for checkpoints. `None` when the
    /// query was registered from an AST
    /// ([`RealTimeSession::register_query`]), which makes the session
    /// non-checkpointable and the query non-recoverable.
    source: Option<String>,
    /// Global chain-sequence index of this query's first chain.
    first_chain: usize,
    n_chains: usize,
}

/// How many ticks of marginal history a served session keeps by default
/// (see [`crate::ServerConfig::history_ticks`]); also how often a
/// retired session restored under an unbounded setting re-takes its
/// recovery base.
pub(crate) const DEFAULT_HISTORY_TICKS: u32 = 64;

/// `(shard index, stepped shard + its epoch's kernel counters | fault)`.
type Reply = (usize, Result<(ChainSet, KernelTickStats), EngineError>);

/// One epoch's merged shard results, reused across epochs.
#[derive(Default)]
struct EpochOutput {
    /// Per-chain probabilities, tick-major, global sequence order.
    probs: Vec<f64>,
    /// Wall-clock nanoseconds per query index.
    query_ns: Vec<u64>,
    kernel: KernelTickStats,
    /// The first shard fault; its shard's chains are lost.
    fault: Option<EngineError>,
}

/// The job every epoch runs once per non-empty shard: on the shared
/// pool thread that picked it up (`worker: Some`, fail point
/// `worker_step`) or inline on the session's thread (`worker: None`,
/// fail point `sequential_step`). Panics are caught and reported as
/// [`EngineError::WorkerPanicked`].
fn run_shard_epoch(
    shard: &mut ChainSet,
    ticks: &[Arc<TickFrame>],
    n_queries: usize,
    cache: &mut SymCache,
    worker: Option<usize>,
) -> Result<KernelTickStats, EngineError> {
    let span = crate::trace::span("worker_step")
        .with("chains", shard.len() as u64)
        .with("ticks", ticks.len() as u64);
    let (failpoint, _span) = match worker {
        Some(w) => ("worker_step", span.with("worker", w as u64)),
        None => ("sequential_step", span),
    };
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        shard.step_epoch(ticks, n_queries, cache, failpoint)
    }))
    .unwrap_or_else(|payload| {
        Err(EngineError::WorkerPanicked {
            worker,
            message: panic_message(payload),
        })
    })
}

/// A push-based session over independent (real-time) streams.
///
/// Streams (with their keys and domains) must be declared up front —
/// matching the paper's architecture where "each query is run in a
/// separate process which receives one stream from the particle filter
/// per ... key" — because the streaming evaluators size their per-key
/// state at registration (Thm 3.7's `O(m)`).
pub struct RealTimeSession {
    db: Database,
    staged: Vec<Option<Marginal>>,
    queries: Vec<Registered>,
    /// All chains of all queries, contiguous in global sequence order,
    /// one [`ChainSet`] per shard.
    shards: Vec<Option<ChainSet>>,
    total_chains: usize,
    config: SessionConfig,
    /// Shard count the parallel path uses: [`effective_workers_of`] the
    /// config, resolved once — looking up the available cores reads
    /// cgroup files, which costs more than a whole sequential tick's
    /// routing. Decoupled from the shared pool's thread count: shards
    /// are a per-session partition, threads a per-process budget.
    workers: usize,
    /// Set when a tick fault lost chain state (worker panic, injected
    /// error, watchdog timeout, or sequential-path panic). A poisoned
    /// session refuses every mutating entry point until
    /// [`RealTimeSession::recover`] repairs it.
    poisoned: bool,
    /// How many ticks the epoch being stepped right now covers; `0`
    /// between epochs. A fault mid-epoch leaves it set, telling
    /// [`RealTimeSession::recover`] how far past `t` the already
    /// recorded marginals reach.
    epoch_in_flight: u32,
    /// Set by a watchdog timeout: the pool is considered unreliable, so
    /// every future tick takes the sequential path (and is counted as a
    /// degraded tick) until [`RealTimeSession::clear_degraded`].
    degraded: bool,
    /// Reply channel of an epoch abandoned by the watchdog. Its jobs may
    /// still occupy shared-pool threads; [`RealTimeSession::recover`]
    /// drains it (discarding the stale replies) so the rebuilt session
    /// doesn't queue behind its own stragglers.
    stalled_epoch: Option<Receiver<Reply>>,
    /// The most recent checkpoint (manual or automatic); the fast
    /// restore base for [`RealTimeSession::recover`].
    last_checkpoint: Option<Checkpoint>,
    /// Frames of every tick closed since the recovery base
    /// (`replay_log[i]` belongs to tick `replay_base + i`, including the
    /// currently failed tick when poisoned). Truncated at each
    /// checkpoint and base re-take, so auto-checkpointing bounds it to
    /// [`SessionConfig::checkpoint_interval`] entries and a retired
    /// history to one window. Only maintained once a base exists:
    /// before that, recovery replays from the database's recorded
    /// history instead.
    replay_log: Vec<Arc<TickFrame>>,
    /// Tick index of `replay_log[0]`: where the recovery base stands.
    replay_base: u32,
    /// Chain states at `replay_base` (global chain order) when they are
    /// newer than `last_checkpoint`: the in-memory recovery base a
    /// session with bounded history re-takes (never persisted). `None`
    /// means the last checkpoint, if any, is the base.
    base: Option<Vec<ChainState>>,
    /// Record marginal history only for the first this many ticks, then
    /// retire it — set by the serving layer
    /// ([`crate::ServerConfig::history_ticks`]). `None`, the standalone
    /// default, records all of it.
    history_ticks: Option<u32>,
    /// The marginal history is gone: registration is refused
    /// ([`EngineError::HistoryRetired`]) and recovery restarts lost
    /// chains from the recovery base, whose replay log covers every
    /// tick since.
    retired: bool,
    stats: EngineStats,
    /// Live scrape endpoint, running while the session exists (see
    /// [`SessionConfig::metrics_addr`]). Holds a clone of `stats`, which
    /// is why restores load counter state in place rather than swapping
    /// the handle.
    metrics_server: Option<crate::expose::MetricsServer>,
    /// Symbol-distribution cache for the sequential tick path (workers
    /// own their own); cleared once per tick, arena reused across ticks.
    sym_cache: SymCache,
    /// Tick frames no epoch or replay log holds any more, reused by the
    /// next epoch instead of allocating.
    spare_frames: Vec<TickFrame>,
    /// Where each epoch's shard results are merged.
    epoch_out: EpochOutput,
    t: u32,
}

impl RealTimeSession {
    /// Creates a session over a database whose streams are all independent
    /// and empty (relations and catalog are used as-is).
    pub fn new(db: Database) -> Result<Self, EngineError> {
        Self::with_config(db, SessionConfig::default())
    }

    /// Creates a session with explicit tick-path tuning.
    pub fn with_config(db: Database, config: SessionConfig) -> Result<Self, EngineError> {
        for s in db.streams() {
            if !matches!(s.data(), StreamData::Independent(ms) if ms.is_empty()) {
                return Err(EngineError::Query(QueryError::NotInClass(
                    "real-time session requires empty independent streams".to_owned(),
                )));
            }
        }
        let staged = vec![None; db.streams().len()];
        if config.trace {
            crate::trace::enable();
        }
        let stats = EngineStats::new();
        let metrics_server = match config.metrics_addr {
            Some(addr) => Some(crate::expose::MetricsServer::start(addr, stats.clone())?),
            None => None,
        };
        Ok(Self {
            db,
            staged,
            queries: Vec::new(),
            shards: vec![Some(ChainSet::new(0, Vec::new()))],
            total_chains: 0,
            workers: effective_workers_of(&config),
            config,
            poisoned: false,
            epoch_in_flight: 0,
            degraded: false,
            stalled_epoch: None,
            last_checkpoint: None,
            replay_log: Vec::new(),
            replay_base: 0,
            base: None,
            history_ticks: None,
            retired: false,
            stats,
            metrics_server,
            sym_cache: SymCache::new(),
            spare_frames: Vec::new(),
            epoch_out: EpochOutput::default(),
            t: 0,
        })
    }

    /// The number of ticks closed so far.
    pub fn now(&self) -> u32 {
        self.t
    }

    /// Read access to the underlying database. A served session whose
    /// marginal history was retired records no marginals any more.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The session's metrics handle (cloneable; see
    /// [`EngineStats::snapshot`]).
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The address the metrics endpoint actually bound (resolves a
    /// requested port `0`), or `None` when
    /// [`SessionConfig::metrics_addr`] was unset.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_server.as_ref().map(|s| s.addr())
    }

    /// Total per-key chains across all registered queries.
    pub fn n_chains(&self) -> usize {
        self.total_chains
    }

    /// True when a tick fault has poisoned the session. Every mutating
    /// entry point ([`RealTimeSession::stage`],
    /// [`RealTimeSession::register`], [`RealTimeSession::tick`],
    /// [`RealTimeSession::checkpoint`]) fails with
    /// [`EngineError::SessionPoisoned`] until
    /// [`RealTimeSession::recover`] succeeds.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// True when a watchdog timeout has forced the session onto the
    /// sequential path (see [`SessionConfig::tick_deadline`]).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Re-enables the parallel path after degraded mode (e.g. once the
    /// load spike that tripped the watchdog has passed).
    pub fn clear_degraded(&mut self) {
        self.degraded = false;
        self.stats.set_degraded(false);
    }

    /// The most recent checkpoint taken (manually or automatically), if
    /// any.
    pub fn last_checkpoint(&self) -> Option<&Checkpoint> {
        self.last_checkpoint.as_ref()
    }

    /// Forces every chain onto the interpreted (mutex) transition path,
    /// bypassing the dense compiled tables. Answers are bit-identical
    /// either way; this exists so benchmarks and differential tests can
    /// measure/verify the compiled kernels against the interpreter.
    pub fn force_interpreter(&mut self, on: bool) {
        for slot in &mut self.shards {
            if let Some(shard) = slot.as_mut() {
                for (_, chain) in shard.chains() {
                    chain.force_interpreter(on);
                }
            }
        }
    }

    /// Whether the configured [`TickMode`] asks for the parallel path,
    /// before the degraded-mode override. An epoch actually runs
    /// parallel only when this holds *and* the session is not degraded;
    /// the distinction is what `lahar_degraded_ticks` counts — ticks
    /// genuinely diverted off the pool, not ticks that never wanted it.
    fn wants_parallel(&self) -> bool {
        match self.config.tick_mode {
            TickMode::Sequential => false,
            TickMode::Parallel => true,
            TickMode::Auto => {
                self.workers > 1 && self.total_chains >= self.config.parallel_threshold
            }
        }
    }

    /// Registers a textual query; it must be in one of the streaming
    /// classes (regular or extended regular). Queries registered after
    /// ticks have closed are fast-forwarded through the recorded history
    /// so their answers stay aligned with the session clock; once that
    /// history is retired (served sessions only) registration fails with
    /// [`EngineError::HistoryRetired`].
    pub fn register(&mut self, name: &str, src: &str) -> Result<QueryId, EngineError> {
        self.register_with_series(name, src).map(|(id, _)| id)
    }

    /// [`RealTimeSession::register`], also returning the query's answers
    /// for the already-closed ticks — the fast-forward's per-tick
    /// results, so the serving layer's `series` starts at t = 0 without
    /// a second evaluation.
    pub(crate) fn register_with_series(
        &mut self,
        name: &str,
        src: &str,
    ) -> Result<(QueryId, Vec<f64>), EngineError> {
        self.ensure_live()?;
        let q = parse_and_validate(self.db.catalog(), self.db.interner(), src)?;
        self.register_impl(name, &q, Some(src.to_owned()))
    }

    /// Registers an AST query. Because the source text is not available,
    /// a session holding AST-registered queries cannot be checkpointed
    /// or structurally recovered — prefer [`RealTimeSession::register`]
    /// when resilience matters.
    pub fn register_query(&mut self, name: &str, q: &Query) -> Result<QueryId, EngineError> {
        self.ensure_live()?;
        self.register_impl(name, q, None).map(|(id, _)| id)
    }

    fn register_impl(
        &mut self,
        name: &str,
        q: &Query,
        source: Option<String>,
    ) -> Result<(QueryId, Vec<f64>), EngineError> {
        if self.retired {
            return Err(EngineError::HistoryRetired { t: self.t });
        }
        let (kind, chains) = compile_chains(&self.db, q)?;
        let query_index = self.queries.len();
        let n_chains = chains.len();
        let mut set = ChainSet::new(0, chains.into_iter().map(|c| (query_index, c)).collect());
        // Fast-forward through already-closed ticks so the new query's
        // clock matches the session's.
        let mut series = Vec::with_capacity(self.t as usize);
        self.replay(&mut set, 0, self.t, |_, probs| {
            series.push(kind.combine(probs))
        })?;
        self.queries.push(Registered {
            name: Arc::from(name),
            kind,
            source,
            first_chain: self.total_chains,
            n_chains,
        });
        self.total_chains += n_chains;
        self.stats.record_grounding(n_chains as u64);
        self.stats
            .register_query(query_index, name, n_chains as u64);
        self.repartition(set.into_chains());
        self.record_automata_stats();
        Ok((QueryId(query_index), series))
    }

    /// Recounts how many chains run on a shared compiled automaton and
    /// how many distinct automata back them, publishing both gauges.
    fn record_automata_stats(&mut self) {
        let mut ids: Vec<usize> = Vec::new();
        let mut attached = 0u64;
        for slot in &mut self.shards {
            let Some(shard) = slot.as_mut() else { continue };
            for (_, chain) in shard.chains().iter() {
                let id = chain.automaton_id();
                attached += 1;
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
        }
        self.stats.record_automata(ids.len() as u64, attached);
    }

    /// Rebalances all chains (plus `appended`, which go at the end of the
    /// global order) into contiguous shards, one per slot.
    fn repartition(&mut self, appended: Vec<(usize, ChainEvaluator)>) {
        let n_shards = self.shards.len();
        let mut all: Vec<(usize, ChainEvaluator)> = Vec::with_capacity(self.total_chains);
        for slot in &mut self.shards {
            let shard = slot.take().expect("repartition requires all shards home");
            all.extend(shard.into_chains());
        }
        all.extend(appended);
        debug_assert_eq!(all.len(), self.total_chains);
        let base = all.len() / n_shards;
        let extra = all.len() % n_shards;
        let mut rest = all;
        let mut start = 0;
        for (i, slot) in self.shards.iter_mut().enumerate() {
            let take = base + usize::from(i < extra);
            let tail = rest.split_off(take);
            *slot = Some(ChainSet::new(start, rest));
            start += take;
            rest = tail;
        }
    }

    /// Re-homes every chain across exactly `n` shards. All chains are
    /// collected from the *old* layout before the shard list is
    /// resized — the historical bug here truncated first, silently
    /// dropping the trailing shards' chains whenever the count shrank
    /// (e.g. restoring a wide checkpoint onto a narrower worker
    /// config).
    fn ensure_shards(&mut self, n: usize) {
        let n = n.max(1);
        if self.shards.len() == n {
            return;
        }
        let mut all: Vec<(usize, ChainEvaluator)> = Vec::with_capacity(self.total_chains);
        for slot in &mut self.shards {
            let shard = slot.take().expect("all shards home between ticks");
            all.extend(shard.into_chains());
        }
        self.shards = (0..n).map(|_| Some(ChainSet::new(0, Vec::new()))).collect();
        self.repartition(all);
    }

    fn ensure_live(&self) -> Result<(), EngineError> {
        if self.poisoned {
            return Err(EngineError::SessionPoisoned);
        }
        Ok(())
    }

    /// Resolves the opaque [`StreamId`] handle for a declared stream's
    /// identity key — shorthand for `database().stream_id(key)`.
    pub fn stream_id(&self, key: &StreamKey) -> Option<StreamId> {
        self.db.stream_id(key)
    }

    /// Stages the current tick's marginal for the identified stream.
    /// Unstaged streams default to all-⊥ ("no event") when the tick
    /// closes.
    ///
    /// The handle must come from this session's database (see
    /// [`RealTimeSession::stream_id`]) or a schema-identical clone of
    /// it, such as the manifest the session was loaded from.
    pub fn stage(&mut self, stream: StreamId, marginal: Marginal) -> Result<(), EngineError> {
        self.stage_batch([(stream, marginal)])
    }

    /// The validation half of [`RealTimeSession::stage`], shared with
    /// the epoch path so a whole epoch can be vetted *before* any tick
    /// of it mutates the database.
    fn check_stageable(&self, stream: StreamId, marginal: &Marginal) -> Result<(), EngineError> {
        let stream_index = stream.index();
        if stream_index >= self.staged.len() {
            return Err(EngineError::NoRelevantStreams);
        }
        let domain = self.db.streams()[stream_index].domain();
        if marginal.probs().len() != domain.len() {
            return Err(EngineError::Model(
                lahar_model::ModelError::DimensionMismatch {
                    expected: domain.len(),
                    got: marginal.probs().len(),
                },
            ));
        }
        Ok(())
    }

    /// Stages one tick's marginals for several streams at once — the
    /// batched ingestion entry point the serving layer uses, so one
    /// network frame can carry a whole tick's worth of staging. Stops at
    /// the first error; earlier entries stay staged.
    pub fn stage_batch(
        &mut self,
        marginals: impl IntoIterator<Item = (StreamId, Marginal)>,
    ) -> Result<(), EngineError> {
        self.ensure_live()?;
        let mut staged = 0;
        let outcome = marginals.into_iter().try_for_each(|(stream, marginal)| {
            self.check_stageable(stream, &marginal)?;
            self.staged[stream.index()] = Some(marginal);
            staged += 1;
            Ok(())
        });
        self.stats.record_staged(staged);
        outcome
    }

    /// Closes the tick: appends every staged marginal (⊥ for unstaged
    /// streams), advances all registered queries one step — in place or
    /// across the worker pool, per [`SessionConfig`] — and returns their
    /// alerts for the closed timestep.
    pub fn tick(&mut self) -> Result<Vec<Alert>, EngineError> {
        self.tick_epoch(vec![Vec::new()])
    }

    /// Closes `ticks.len()` ticks as one or more *epochs*: each element
    /// is one tick's stage batch (the first also folds in anything
    /// already staged via [`RealTimeSession::stage`]), and the parallel
    /// path ships up to [`SessionConfig::max_epoch_ticks`] of them to
    /// each shard per join. Alerts come back flattened tick-major — for
    /// each closed tick, one alert per registered query in index order —
    /// bit-identical to closing the same ticks one
    /// [`RealTimeSession::tick`] at a time.
    ///
    /// Auto-checkpoint cadence is preserved exactly: epochs are split at
    /// [`SessionConfig::checkpoint_interval`] boundaries so snapshots
    /// land on the same ticks they would have under per-tick stepping
    /// (and, in a served session with bounded history, at the ticks
    /// where it retires its history or re-takes its recovery base).
    pub fn tick_epoch(
        &mut self,
        ticks: Vec<Vec<(StreamId, Marginal)>>,
    ) -> Result<Vec<Alert>, EngineError> {
        self.ensure_live()?;
        let mut alerts = Vec::with_capacity(ticks.len() * self.queries.len());
        let mut queue = ticks.into_iter();
        let mut remaining = queue.len();
        while remaining > 0 {
            let chunk_len = self.epoch_chunk_len(remaining);
            let interval = self.config.checkpoint_interval;
            let chunk: Vec<_> = queue.by_ref().take(chunk_len).collect();
            remaining -= chunk_len;
            alerts.extend(self.close_epoch(chunk)?);
            if interval > 0 && (self.t as usize).is_multiple_of(interval) {
                // Auto-checkpointing needs every query's source text;
                // with AST-registered queries this surfaces as a tick
                // error rather than silently skipping the snapshot.
                self.checkpoint()?;
            }
        }
        Ok(alerts)
    }

    /// How many of `remaining` queued ticks the next epoch covers: at
    /// most [`SessionConfig::max_epoch_ticks`], never crossing a
    /// [`SessionConfig::checkpoint_interval`] boundary or a recovery
    /// base re-take. Exposed so the serving layer can feed
    /// [`RealTimeSession::tick_epoch`] exactly one epoch at a time (its
    /// per-query alert series then stays exact even when an epoch faults
    /// and recovery re-completes it).
    pub(crate) fn epoch_chunk_len(&self, remaining: usize) -> usize {
        let mut chunk_len = remaining.min(self.config.max_epoch_ticks.max(1));
        let interval = self.config.checkpoint_interval;
        if interval > 0 {
            chunk_len = chunk_len.min(interval - (self.t as usize % interval));
        }
        if let Some(left) = self.ticks_to_base() {
            // A base due now is re-taken as the epoch starts, opening a
            // whole window.
            let left = match left {
                0 => self.base_window().unwrap_or(1),
                left => left,
            };
            chunk_len = chunk_len.min(left.max(1) as usize);
        }
        chunk_len
    }

    /// How often the recovery base is re-taken, in ticks: the history
    /// window of a session with bounded history; `None` for one that
    /// keeps its whole history.
    fn base_window(&self) -> Option<u32> {
        match (self.history_ticks, self.retired) {
            (Some(n), _) => Some(n),
            (None, true) => Some(DEFAULT_HISTORY_TICKS),
            (None, false) => None,
        }
    }

    /// How many more ticks may close before the recovery base must be
    /// re-taken — retiring the history the first time. `Some(0)`: before
    /// the next tick.
    fn ticks_to_base(&self) -> Option<u32> {
        let window = self.base_window()?;
        let since = if self.retired {
            self.t.saturating_sub(self.replay_base)
        } else {
            self.t
        };
        Some(window.saturating_sub(since))
    }

    /// Re-takes the recovery base: the chains' states now, with the
    /// replay log's frames handed back to `spare_frames`, so the log
    /// never holds more than one window. The first re-take retires the
    /// marginal history (from the database, and from a checkpoint held
    /// for its chain states).
    fn retake_base(&mut self) -> Result<(), EngineError> {
        let base = self.export_chains()?;
        if !self.retired {
            self.retired = true;
            self.db.clear_marginals();
            if let Some(ckpt) = &mut self.last_checkpoint {
                ckpt.history = None;
            }
        }
        self.base = Some(base);
        self.reset_replay_log();
        Ok(())
    }

    /// Starts an empty replay log at the current tick; the old log's
    /// frames serve later epochs.
    fn reset_replay_log(&mut self) {
        self.spare_frames.extend(
            self.replay_log
                .drain(..)
                .filter_map(|frame| Arc::try_unwrap(frame).ok()),
        );
        self.replay_base = self.t;
    }

    /// Chain states at `replay_base`, where [`RealTimeSession::recover`]
    /// restarts lost chains: the re-taken base, else the last
    /// checkpoint's.
    fn base_chains(&self) -> Option<&[ChainState]> {
        self.base
            .as_deref()
            .or_else(|| self.last_checkpoint.as_ref().map(|c| c.chains.as_slice()))
    }

    /// Bounds the marginal history to the first `ticks` ticks (`None`
    /// keeps all of it) — the serving layer's
    /// [`crate::ServerConfig::history_ticks`]. A session already past
    /// the window (restored from an older checkpoint) retires its
    /// history now.
    pub(crate) fn retain_history(&mut self, ticks: Option<u32>) -> Result<(), EngineError> {
        self.history_ticks = ticks;
        match ticks {
            Some(n) if !self.retired && self.t > n => self.retake_base(),
            _ => Ok(()),
        }
    }

    /// Every registered query's answers for the closed ticks, stepped
    /// again over the recorded history by the session's own chain-set
    /// replay — for a restored checkpoint that carries no series.
    pub(crate) fn series_from_history(&mut self) -> Result<Vec<Vec<f64>>, EngineError> {
        let mut chains = Vec::with_capacity(self.total_chains);
        let mut shapes = Vec::with_capacity(self.queries.len());
        for (qi, reg) in self.queries.iter().enumerate() {
            let source = reg.source.as_ref().ok_or_else(|| {
                EngineError::CheckpointUnsupported(format!(
                    "query '{}' was registered from an AST without source text",
                    reg.name
                ))
            })?;
            let q = parse_and_validate(self.db.catalog(), self.db.interner(), source)?;
            let (_, compiled) = compile_chains(&self.db, &q)?;
            chains.extend(compiled.into_iter().map(|c| (qi, c)));
            shapes.push((reg.kind, reg.first_chain..reg.first_chain + reg.n_chains));
        }
        let mut set = ChainSet::new(0, chains);
        let mut series = vec![Vec::with_capacity(self.t as usize); shapes.len()];
        self.replay(&mut set, 0, self.t, |_, probs| {
            for ((kind, range), out) in shapes.iter().zip(&mut series) {
                out.push(kind.combine(&probs[range.clone()]));
            }
        })?;
        Ok(series)
    }

    /// Every chain's forward state, in global chain order.
    fn export_chains(&mut self) -> Result<Vec<ChainState>, EngineError> {
        let mut chains = vec![None; self.total_chains];
        for slot in &mut self.shards {
            let shard = slot.as_mut().expect("all shards home between ticks");
            let start = shard.start;
            for (offset, (_, chain)) in shard.chains().iter().enumerate() {
                chains[start + offset] = Some(chain.export_state()?);
            }
        }
        Ok(chains
            .into_iter()
            .map(|c| c.expect("shards cover every chain"))
            .collect())
    }

    /// Closes one epoch of `ticks.len()` ≥ 1 ticks under a single join.
    fn close_epoch(
        &mut self,
        ticks: Vec<Vec<(StreamId, Marginal)>>,
    ) -> Result<Vec<Alert>, EngineError> {
        let k = ticks.len();
        debug_assert!(k >= 1, "an epoch covers at least one tick");
        let started = Instant::now();
        let _tick_span = crate::trace::span("tick")
            .with("t", u64::from(self.t))
            .with("chains", self.total_chains as u64)
            .with("ticks", k as u64);
        // Vet the whole epoch before the first mutation: a bad marginal
        // in tick j must not leave ticks 0..j already pushed into the
        // history with their chains never stepped.
        for batch in &ticks {
            for (stream, marginal) in batch {
                self.check_stageable(*stream, marginal)?;
            }
        }
        if self.ticks_to_base() == Some(0) {
            self.retake_base()?;
        }
        let mut epoch: Vec<Arc<TickFrame>> = Vec::with_capacity(k);
        for batch in ticks {
            self.stats.record_staged(batch.len() as u64);
            for (stream, marginal) in batch {
                self.staged[stream.index()] = Some(marginal);
            }
            let mut frame = match self.spare_frames.pop() {
                Some(frame) => frame,
                None => {
                    TickFrame::new(self.db.streams().iter().map(|s| s.domain().len()).collect())
                }
            };
            for (slot, stream) in self.staged.iter_mut().zip(self.db.streams()) {
                slot.get_or_insert_with(|| Marginal::all_bottom(stream.domain()));
            }
            frame.fill(|s| self.staged[s].as_ref().map_or(&[], |m| m.probs()));
            // Moved, not cloned: the frame already holds the numbers.
            for idx in 0..self.staged.len() {
                let marginal = self.staged[idx].take().expect("every stream staged above");
                if !self.retired {
                    self.db.push_marginal_at(idx, marginal)?;
                }
            }
            let frame = Arc::new(frame);
            if self.base_chains().is_some() {
                // Appended before stepping so the marginals of an epoch
                // that faults mid-step are already available to
                // recover().
                self.replay_log.push(frame.clone());
            }
            epoch.push(frame);
        }
        let wants_parallel = self.wants_parallel();
        // Degraded mode overrides every `TickMode`: after a watchdog
        // timeout the pool is not trusted until clear_degraded().
        let parallel = wants_parallel && !self.degraded;
        self.epoch_in_flight = k as u32;
        let total = self.total_chains;
        let mut out = std::mem::take(&mut self.epoch_out);
        out.probs.clear();
        out.probs.resize(k * total, 0.0);
        out.query_ns.clear();
        out.query_ns.resize(self.queries.len(), 0);
        out.kernel = KernelTickStats::default();
        if parallel {
            self.step_chains_parallel(&epoch, &mut out);
        } else {
            self.step_chains_sequential(&epoch, &mut out);
        }
        if let Some(e) = out.fault.take() {
            // A lost shard means lost chain state: refuse further ticks
            // instead of silently answering from part of the chains.
            // `epoch_in_flight` stays set for recover().
            self.poisoned = true;
            self.stats.set_poisoned(true);
            self.epoch_out = out;
            return Err(e);
        }
        self.epoch_in_flight = 0;
        // Frames nothing else holds any more (no replay log, no worker)
        // serve the next epoch.
        self.spare_frames.extend(
            epoch
                .into_iter()
                .filter_map(|frame| Arc::try_unwrap(frame).ok()),
        );
        self.stats.record_kernel(&out.kernel);
        self.stats.record_epoch(k as u64);
        let per_tick_elapsed = started.elapsed() / k as u32;
        let mut alerts = Vec::with_capacity(k * self.queries.len());
        for j in 0..k {
            let tick_alerts = self.combine_alerts(&out.probs[j * total..(j + 1) * total], self.t);
            self.t += 1;
            self.stats
                .record_tick(per_tick_elapsed, self.total_chains as u64, parallel);
            if wants_parallel && !parallel {
                self.stats.record_degraded_tick();
            }
            self.stats.record_alerts(tick_alerts.len() as u64);
            self.stats
                .record_query_ticks(tick_alerts.iter().map(|alert| {
                    (
                        alert.query.0,
                        out.query_ns.get(alert.query.0).map(|ns| ns / k as u64),
                        alert.probability,
                    )
                }));
            alerts.extend(tick_alerts);
        }
        self.epoch_out = out;
        Ok(alerts)
    }

    /// Recombines per-chain probabilities (global sequence order) into
    /// per-query alerts for the closing tick `t`.
    fn combine_alerts(&self, probs: &[f64], t: u32) -> Vec<Alert> {
        self.queries
            .iter()
            .enumerate()
            .map(|(i, reg)| Alert {
                query: QueryId(i),
                name: reg.name.clone(),
                t,
                probability: reg
                    .kind
                    .combine(&probs[reg.first_chain..reg.first_chain + reg.n_chains]),
            })
            .collect()
    }

    /// Takes shard `w` out for an epoch; an empty shard stays home.
    fn take_busy_shard(&mut self, w: usize) -> Option<ChainSet> {
        let slot = &mut self.shards[w];
        match slot.take().expect("all shards home between ticks") {
            shard if shard.is_empty() => {
                *slot = Some(shard);
                None
            }
            shard => Some(shard),
        }
    }

    /// Merges one shard's epoch result into `out` — its probabilities
    /// into global sequence order, its per-query times and kernel
    /// counters into the totals — and re-homes the shard. A faulted
    /// shard stays lost, and the epoch's first fault is kept.
    fn merge_reply(&mut self, (w, result): Reply, out: &mut EpochOutput) {
        let (shard, kernel) = match result {
            Ok(done) => done,
            Err(e) => {
                out.fault.get_or_insert(e);
                return;
            }
        };
        let (n, total) = (shard.len(), self.total_chains);
        for (j, tick_probs) in shard.probs.chunks_exact(n).enumerate() {
            let at = j * total + shard.start;
            out.probs[at..at + n].copy_from_slice(tick_probs);
        }
        for (total_ns, &ns) in out.query_ns.iter_mut().zip(&shard.query_ns) {
            *total_ns = total_ns.saturating_add(ns);
        }
        out.kernel.add(&kernel);
        self.shards[w] = Some(shard);
    }

    /// Runs every shard's epoch job inline on the caller's thread, with
    /// the session's symbol cache, merging the results exactly as the
    /// parallel path does. A shard that faults loses its chains; the
    /// others still step, as they would on the pool.
    fn step_chains_sequential(&mut self, epoch: &[Arc<TickFrame>], out: &mut EpochOutput) {
        let n_queries = self.queries.len();
        for w in 0..self.shards.len() {
            let Some(mut shard) = self.take_busy_shard(w) else {
                continue;
            };
            let result = run_shard_epoch(&mut shard, epoch, n_queries, &mut self.sym_cache, None);
            self.merge_reply((w, result.map(|kernel| (shard, kernel))), out);
        }
    }

    /// Ships each shard to the shared pool with the whole epoch's
    /// frames and merges the replies — one join for the entire epoch.
    /// With [`SessionConfig::tick_deadline`] set, a watchdog bounds how
    /// long the pool may hold the epoch (the per-tick deadline × epoch
    /// length): exceeding it loses the shards still out (recoverable)
    /// and flips the session into degraded mode. The reply channel is
    /// fresh per epoch, so a late reply from an abandoned epoch lands on
    /// a dead receiver instead of a later epoch's join.
    fn step_chains_parallel(&mut self, epoch: &[Arc<TickFrame>], out: &mut EpochOutput) {
        self.ensure_shards(self.workers);
        let deadline = self
            .config
            .tick_deadline
            .map(|d| d.saturating_mul(epoch.len() as u32))
            .map(|d| (d, Instant::now() + d));
        let (reply_tx, replies) = channel::<Reply>();
        let mut in_flight = 0usize;
        for w in 0..self.shards.len() {
            let Some(mut shard) = self.take_busy_shard(w) else {
                continue;
            };
            let ticks = epoch.to_vec();
            let n_queries = self.queries.len();
            let reply_tx = reply_tx.clone();
            crate::pool::spawn(move || {
                let result = crate::pool::with_sym_cache(|cache| {
                    run_shard_epoch(&mut shard, &ticks, n_queries, cache, Some(w))
                });
                // After a watchdog trip the receiver is gone and the
                // reply is discarded here.
                let _ = reply_tx.send((w, result.map(|kernel| (shard, kernel))));
            });
            in_flight += 1;
        }
        drop(reply_tx);
        for _ in 0..in_flight {
            let reply = match deadline {
                None => replies.recv().map_err(|_| None),
                Some((budget, until)) => {
                    let remaining = until.saturating_duration_since(Instant::now());
                    replies.recv_timeout(remaining).map_err(|e| match e {
                        RecvTimeoutError::Timeout => Some(budget),
                        RecvTimeoutError::Disconnected => None,
                    })
                }
            };
            match reply {
                Ok(reply) => self.merge_reply(reply, out),
                Err(Some(budget)) => {
                    // Watchdog tripped: shards still in flight are
                    // treated as lost (their late replies land on this
                    // epoch's dropped receiver), and the pool is no
                    // longer trusted until the caller clears degraded
                    // mode. The abandoned jobs still occupy shared-pool
                    // threads; keep the receiver so recover() can wait
                    // for them to drain before re-engaging the pool.
                    self.degraded = true;
                    self.stats.set_degraded(true);
                    out.fault
                        .get_or_insert(EngineError::TickTimeout { deadline: budget });
                    self.stalled_epoch = Some(replies);
                    break;
                }
                Err(None) => {
                    out.fault.get_or_insert(EngineError::WorkerPanicked {
                        worker: None,
                        message: "session worker pool disconnected".to_owned(),
                    });
                    break;
                }
            }
        }
    }

    /// Snapshots the complete session — per-chain forward distributions
    /// and automaton cursors, registered queries, staged marginals, the
    /// recorded marginal history (unless retired), the timestep, and
    /// stats — into a versioned [`Checkpoint`] (serializable via
    /// [`Checkpoint::to_json`]). Also resets the recovery replay log, so
    /// future [`RealTimeSession::recover`] calls restart from this
    /// snapshot. Requires every query to have been registered from
    /// source text.
    pub fn checkpoint(&mut self) -> Result<Checkpoint, EngineError> {
        self.ensure_live()?;
        let _span = crate::trace::span("checkpoint")
            .with("t", u64::from(self.t))
            .with("chains", self.total_chains as u64);
        let queries = self
            .queries
            .iter()
            .map(|reg| {
                let source = reg.source.clone().ok_or_else(|| {
                    EngineError::CheckpointUnsupported(format!(
                        "query '{}' was registered from an AST without source text",
                        reg.name
                    ))
                })?;
                Ok(QueryMeta {
                    name: reg.name.to_string(),
                    source,
                    extended: matches!(reg.kind, QueryKind::Extended),
                    n_chains: reg.n_chains,
                })
            })
            .collect::<Result<Vec<_>, EngineError>>()?;
        let chains = self.export_chains()?;
        let staged = self
            .staged
            .iter()
            .map(|s| s.as_ref().map(|m| m.probs().to_vec()))
            .collect();
        let history = (!self.retired).then(|| {
            self.db
                .streams()
                .iter()
                .map(|s| {
                    s.marginals()
                        .expect("session streams are independent")
                        .iter()
                        .map(|m| m.probs().to_vec())
                        .collect()
                })
                .collect()
        });
        self.stats.record_checkpoint();
        let ckpt = Checkpoint {
            version: CHECKPOINT_VERSION,
            t: self.t,
            config: self.config,
            staged,
            queries,
            chains,
            history,
            series: None,
            stats: self.stats.export_state(),
        };
        self.last_checkpoint = Some(ckpt.clone());
        self.base = None;
        self.reset_replay_log();
        Ok(ckpt)
    }

    /// Rebuilds a session from a [`Checkpoint`] over a fresh database
    /// with the same schema (declared streams, relations, catalog) as
    /// the checkpointed one, using the checkpointed [`SessionConfig`].
    /// The restored session is bit-identical to the original at the
    /// checkpoint: the same marginal history (none, if the checkpointed
    /// session had retired it), chain states, staged marginals, clock,
    /// and stats, producing the same alerts for the same future ticks.
    /// Checkpoints of format version 6 and later restore.
    pub fn restore(db: Database, ckpt: &Checkpoint) -> Result<Self, EngineError> {
        Self::restore_with_config(db, ckpt, ckpt.config)
    }

    /// [`RealTimeSession::restore`] with an overriding config (e.g. to
    /// restore onto a machine with a different worker count — the tick
    /// path never changes answers).
    pub fn restore_with_config(
        db: Database,
        ckpt: &Checkpoint,
        config: SessionConfig,
    ) -> Result<Self, EngineError> {
        if !(OLDEST_READABLE_VERSION..=CHECKPOINT_VERSION).contains(&ckpt.version) {
            return Err(EngineError::CheckpointCorrupt(format!(
                "unsupported checkpoint version {} (this build reads versions \
                 {OLDEST_READABLE_VERSION}-{CHECKPOINT_VERSION})",
                ckpt.version
            )));
        }
        let mut session = Self::with_config(db, config)?;
        let n_streams = session.db.streams().len();
        let history = ckpt.history.as_deref().unwrap_or(&[]);
        if ckpt.staged.len() != n_streams || (ckpt.history.is_some() && history.len() != n_streams)
        {
            return Err(EngineError::CheckpointCorrupt(format!(
                "checkpoint covers {} streams but the database declares {}",
                ckpt.staged.len(),
                n_streams
            )));
        }
        session.retired = ckpt.history.is_none();
        for (si, hist) in history.iter().enumerate() {
            if hist.len() != ckpt.t as usize {
                return Err(EngineError::CheckpointCorrupt(format!(
                    "stream {si} records {} ticks but the checkpoint clock is {}",
                    hist.len(),
                    ckpt.t
                )));
            }
        }
        let rebuild_marginal = |session: &Self, si: usize, probs: &[f64]| {
            let domain = session.db.streams()[si].domain();
            Marginal::new(domain, probs.to_vec()).map_err(|e| {
                EngineError::CheckpointCorrupt(format!("stream {si} marginal invalid: {e}"))
            })
        };
        for t in 0..history.first().map_or(0, Vec::len) {
            for (si, hist) in history.iter().enumerate() {
                let m = rebuild_marginal(&session, si, &hist[t])?;
                let id = session.db.streams()[si].id().clone();
                session.db.push_marginal(&id, m)?;
            }
        }
        for si in 0..n_streams {
            if let Some(probs) = &ckpt.staged[si] {
                session.staged[si] = Some(rebuild_marginal(&session, si, probs)?);
            }
        }
        session.t = ckpt.t;
        let mut chain_cursor = 0usize;
        for meta in &ckpt.queries {
            let q = parse_and_validate(session.db.catalog(), session.db.interner(), &meta.source)
                .map_err(|e| {
                EngineError::CheckpointCorrupt(format!(
                    "query '{}' failed to re-parse: {e}",
                    meta.name
                ))
            })?;
            let (kind, mut chains) = compile_chains(&session.db, &q)?;
            if matches!(kind, QueryKind::Extended) != meta.extended || chains.len() != meta.n_chains
            {
                return Err(EngineError::CheckpointCorrupt(format!(
                    "query '{}' recompiled to a different shape than checkpointed",
                    meta.name
                )));
            }
            for chain in &mut chains {
                let state = ckpt.chains.get(chain_cursor).ok_or_else(|| {
                    EngineError::CheckpointCorrupt("chain state list too short".to_owned())
                })?;
                chain.restore_state(state)?;
                if chain.next_t() != ckpt.t {
                    return Err(EngineError::CheckpointCorrupt(format!(
                        "chain {chain_cursor} is at t={} but the checkpoint clock is {}",
                        chain.next_t(),
                        ckpt.t
                    )));
                }
                chain_cursor += 1;
            }
            let query_index = session.queries.len();
            session.queries.push(Registered {
                name: Arc::from(meta.name.as_str()),
                kind,
                source: Some(meta.source.clone()),
                first_chain: session.total_chains,
                n_chains: chains.len(),
            });
            session.total_chains += chains.len();
            session.repartition(chains.into_iter().map(|c| (query_index, c)).collect());
        }
        if chain_cursor != ckpt.chains.len() {
            return Err(EngineError::CheckpointCorrupt(format!(
                "checkpoint carries {} chain states but queries compile to {chain_cursor}",
                ckpt.chains.len()
            )));
        }
        // Mirror the checkpointed session's shard layout (its configured
        // worker count): restoring a wide checkpoint onto a narrower
        // config then genuinely exercises the shard-shrink path on the
        // first parallel tick, instead of silently starting from one
        // shard.
        session.ensure_shards(effective_workers_of(&ckpt.config));
        // In place, not a handle swap: a metrics server started by
        // with_config above already holds a clone of session.stats.
        session.stats.load_state(&ckpt.stats);
        // Gauges describe the rebuilt chains, not the checkpointed ones.
        session.record_automata_stats();
        // The serving layer keeps the series; the session keeps the rest
        // as its recovery base.
        let mut base = ckpt.clone();
        base.series = None;
        session.last_checkpoint = Some(base);
        session.replay_base = ckpt.t;
        Ok(session)
    }

    /// Steps `set` — chains all at tick `from` — through the closed
    /// ticks `from..to`: over the replay log's frames where it covers
    /// them (ticks since the last checkpoint), over frames filled from
    /// the recorded history elsewhere. Both carry exactly the marginals
    /// the live ticks stepped on, and the set steps through the live
    /// kernel, so the result is bit-identical to having stepped live.
    /// `on_tick` sees each tick's per-chain probabilities (set order).
    fn replay(
        &mut self,
        set: &mut ChainSet,
        from: u32,
        to: u32,
        mut on_tick: impl FnMut(u32, &[f64]),
    ) -> Result<(), EngineError> {
        let mut history: Option<HistoryFrames> = None;
        let mut kernel = KernelTickStats::default();
        // Room for the query index of a registration in progress.
        let n_queries = self.queries.len() + 1;
        for t in from..to {
            let logged = t
                .checked_sub(self.replay_base)
                .and_then(|d| self.replay_log.get(d as usize));
            let frame: &TickFrame = match logged {
                Some(frame) => frame,
                None if self.retired => {
                    return Err(EngineError::RecoveryFailed(format!(
                        "tick {t} predates the recovery base and the marginal history \
                         is retired"
                    )))
                }
                None => history
                    .get_or_insert_with(|| HistoryFrames::new(&self.db, set.chains()))
                    .fill(&self.db, t),
            };
            kernel.add(&set.step_epoch(
                std::slice::from_ref(&frame),
                n_queries,
                &mut self.sym_cache,
                "history_step",
            )?);
            on_tick(t, &set.probs);
        }
        self.stats.record_kernel(&kernel);
        Ok(())
    }

    /// Repairs a poisoned session and completes the interrupted epoch,
    /// returning its ticks' alerts (flattened tick-major, like
    /// [`RealTimeSession::tick_epoch`]).
    ///
    /// Shards lost to the fault (a panicked worker's chains, or every
    /// chain after a sequential-path fault) are rebuilt structurally
    /// from their queries' source text, fast-forwarded from the recovery
    /// base — the last [`RealTimeSession::checkpoint`], or the chain
    /// states a served session re-takes once it retires its history —
    /// plus the bounded replay log, or from the database's full recorded
    /// history when no base exists — and recombined with the surviving shards' answers. The
    /// completed ticks' alerts, and all subsequent ticks', are
    /// bit-identical to a run that never faulted. After a
    /// [`EngineError::TickTimeout`] the session stays in degraded
    /// (sequential) mode; see [`RealTimeSession::clear_degraded`].
    pub fn recover(&mut self) -> Result<Vec<Alert>, EngineError> {
        if !self.poisoned {
            return Err(EngineError::RecoveryFailed(
                "session is not poisoned".to_owned(),
            ));
        }
        let started = Instant::now();
        // Every poisoning fault happens inside an epoch after all of its
        // ticks' marginals were recorded, so chains must reach the end
        // of the interrupted epoch (`t + 1` for faults injected outside
        // any epoch, e.g. by tests poisoning the session by hand).
        let k = self.epoch_in_flight.max(1);
        let target = self.t + k;
        let _span = crate::trace::span("recover")
            .with("t", u64::from(self.t))
            .with("chains", self.total_chains as u64)
            .with("ticks", u64::from(k));
        // A watchdog-abandoned epoch may still have jobs running on
        // shared-pool threads. Wait for them to finish (their stale
        // replies are discarded) so future parallel epochs don't queue
        // behind this session's own stragglers. Other faults drop the
        // reply channel with step_chains_parallel, and late replies land
        // harmlessly on the dead receiver.
        if let Some(stalled) = self.stalled_epoch.take() {
            while stalled.recv().is_ok() {}
        }
        let n_shards = self.shards.len();
        let mut slots: Vec<Option<(usize, ChainEvaluator)>> =
            (0..self.total_chains).map(|_| None).collect();
        for shard in self.shards.iter_mut().filter_map(Option::take) {
            let start = shard.start;
            for (offset, entry) in shard.into_chains().into_iter().enumerate() {
                slots[start + offset] = Some(entry);
            }
        }
        // A surviving shard finished the epoch, but only retains its
        // *final* accept probability. For a one-tick epoch that is
        // exactly the lost tick's answer; a longer epoch also needs the
        // intermediate ticks', so every chain is rebuilt and replayed
        // (the replay log already holds all k ticks' marginals).
        if k > 1 {
            slots.iter_mut().for_each(|slot| *slot = None);
        }
        let base = self.t;
        let mut probs: Vec<Vec<f64>> = vec![vec![0.0; self.total_chains]; k as usize];
        for (g, slot) in slots.iter().enumerate() {
            if let Some((_, chain)) = slot {
                probs[0][g] = chain.accept_prob();
            }
        }
        // `(global index, (query index, chain))` of every lost chain,
        // rebuilt from its query's source and restored to the last
        // checkpoint's state when that holds one.
        let mut rebuilt: Vec<(usize, (usize, ChainEvaluator))> = Vec::new();
        for (qi, reg) in self.queries.iter().enumerate() {
            let range = reg.first_chain..reg.first_chain + reg.n_chains;
            if slots[range.clone()].iter().all(Option::is_some) {
                continue;
            }
            let source = reg.source.as_ref().ok_or_else(|| {
                EngineError::RecoveryFailed(format!(
                    "query '{}' was registered from an AST without source text",
                    reg.name
                ))
            })?;
            let q =
                parse_and_validate(self.db.catalog(), self.db.interner(), source).map_err(|e| {
                    EngineError::RecoveryFailed(format!(
                        "query '{}' failed to re-parse: {e}",
                        reg.name
                    ))
                })?;
            let (kind, chains) = compile_chains(&self.db, &q)?;
            if kind != reg.kind || chains.len() != reg.n_chains {
                return Err(EngineError::RecoveryFailed(format!(
                    "query '{}' recompiled to a different shape",
                    reg.name
                )));
            }
            for (g, mut chain) in range.zip(chains) {
                if slots[g].is_some() {
                    continue;
                }
                if let Some(state) = self.base_chains().and_then(|b| b.get(g)) {
                    chain.restore_state(state)?;
                }
                rebuilt.push((g, (qi, chain)));
            }
        }
        // Chains the last checkpoint predates start at tick 0; they catch
        // up to the restored ones first, then all step on together.
        let level = rebuilt
            .iter()
            .map(|(_, (_, c))| c.next_t())
            .max()
            .unwrap_or(target);
        let (behind, level_with): (Vec<_>, Vec<_>) = rebuilt
            .into_iter()
            .partition(|(_, (_, c))| c.next_t() < level);
        let (mut gs, behind): (Vec<usize>, Vec<_>) = behind.into_iter().unzip();
        let mut set = ChainSet::new(0, behind);
        if !set.is_empty() {
            self.replay(&mut set, 0, level, |_, _| {})?;
        }
        let mut chains = set.into_chains();
        for (g, entry) in level_with {
            gs.push(g);
            chains.push(entry);
        }
        let mut set = ChainSet::new(0, chains);
        if !set.is_empty() {
            self.replay(&mut set, level, target, |t, tick_probs| {
                if t >= base {
                    for (&g, &p) in gs.iter().zip(tick_probs) {
                        probs[(t - base) as usize][g] = p;
                    }
                }
            })?;
        }
        for (g, entry) in gs.into_iter().zip(set.into_chains()) {
            slots[g] = Some(entry);
        }
        let all: Vec<(usize, ChainEvaluator)> = slots
            .into_iter()
            .map(|slot| slot.expect("every chain survived or was rebuilt"))
            .collect();
        debug_assert!(all.iter().all(|(_, c)| c.next_t() == target));
        self.shards = (0..n_shards)
            .map(|_| Some(ChainSet::new(0, Vec::new())))
            .collect();
        self.repartition(all);
        self.record_automata_stats();
        self.poisoned = false;
        self.stats.set_poisoned(false);
        self.epoch_in_flight = 0;
        let per_tick_elapsed = started.elapsed() / k;
        let mut alerts = Vec::with_capacity(k as usize * self.queries.len());
        for tick_probs in &probs {
            let tick_alerts = self.combine_alerts(tick_probs, self.t);
            self.t += 1;
            self.stats
                .record_tick(per_tick_elapsed, self.total_chains as u64, false);
            self.stats.record_alerts(tick_alerts.len() as u64);
            for alert in &tick_alerts {
                // Per-chain timing was lost with the failed epoch; count
                // the tick without a latency sample.
                self.stats
                    .record_query_tick(alert.query.0, None, alert.probability);
            }
            alerts.extend(tick_alerts);
        }
        debug_assert_eq!(self.t, target);
        self.stats.record_recovery();
        Ok(alerts)
    }
}

/// Shard count a config's parallel path uses (`n_workers`, or one per
/// available core for the `0` sentinel).
fn effective_workers_of(config: &SessionConfig) -> usize {
    if config.n_workers > 0 {
        config.n_workers
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Compiles a streaming query into its recombination kind and per-key
/// chains in canonical binding order (see [`ground`]).
fn compile_chains(
    db: &Database,
    q: &Query,
) -> Result<(QueryKind, Vec<ChainEvaluator>), EngineError> {
    let nq = NormalQuery::from_query(q);
    ground(db, &nq, classify(db.catalog(), &nq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Lahar;
    use lahar_model::StreamBuilder;

    fn schema_db() -> (Database, StreamBuilder, StreamBuilder) {
        let mut db = Database::new();
        db.declare_stream("At", &["person"], &["loc"]).unwrap();
        db.declare_relation("Hallway", 1).unwrap();
        let i = db.interner().clone();
        db.insert_relation_tuple("Hallway", lahar_model::tuple([i.intern("h")]))
            .unwrap();
        let joe = StreamBuilder::new(&i, "At", &["joe"], &["a", "h", "c"]);
        let sue = StreamBuilder::new(&i, "At", &["sue"], &["a", "h", "c"]);
        db.add_stream(joe.clone().independent(vec![]).unwrap())
            .unwrap();
        db.add_stream(sue.clone().independent(vec![]).unwrap())
            .unwrap();
        (db, joe, sue)
    }

    /// Test shorthand: the opaque handle for the stream at `idx`.
    fn sid(s: &RealTimeSession, idx: usize) -> StreamId {
        s.database().stream_id_at(idx).unwrap()
    }

    /// The streaming session must produce exactly the batch answers.
    #[test]
    fn incremental_equals_batch() {
        let (db, joe, sue) = schema_db();
        let mut session = RealTimeSession::new(db).unwrap();
        session
            .register("regular", "At('joe','a') ; At('joe','c')")
            .unwrap();
        session
            .register("extended", "At(p,'a') ; At(p,'c')")
            .unwrap();

        let joe_ticks = [
            joe.marginal(&[("a", 0.6), ("h", 0.3)]).unwrap(),
            joe.marginal(&[("h", 0.5)]).unwrap(),
            joe.marginal(&[("c", 0.7)]).unwrap(),
        ];
        let sue_ticks = [
            sue.marginal(&[("a", 0.9)]).unwrap(),
            sue.marginal(&[("c", 0.4)]).unwrap(),
            sue.marginal(&[("c", 0.2), ("h", 0.3)]).unwrap(),
        ];
        let (joe_id, sue_id) = (sid(&session, 0), sid(&session, 1));
        let mut streamed: Vec<Vec<f64>> = vec![Vec::new(); 2];
        for t in 0..3 {
            session.stage(joe_id, joe_ticks[t].clone()).unwrap();
            session.stage(sue_id, sue_ticks[t].clone()).unwrap();
            for alert in session.tick().unwrap() {
                assert_eq!(alert.t, t as u32);
                streamed[alert.query.index()].push(alert.probability);
            }
        }

        // Batch reference over the session's accumulated database.
        let batch_db = session.database();
        for (qi, src) in [
            (0, "At('joe','a') ; At('joe','c')"),
            (1, "At(p,'a') ; At(p,'c')"),
        ] {
            let batch = Lahar::prob_series(batch_db, src).unwrap();
            for (t, (s, b)) in streamed[qi].iter().zip(&batch).enumerate() {
                assert!((s - b).abs() < 1e-12, "query {qi} t={t}: {s} vs {b}");
            }
        }
    }

    #[test]
    fn unstaged_streams_default_to_bottom() {
        let (db, joe, _) = schema_db();
        let mut session = RealTimeSession::new(db).unwrap();
        let q = session.register("q", "At('joe','a')").unwrap();
        session
            .stage(sid(&session, 0), joe.marginal(&[("a", 0.5)]).unwrap())
            .unwrap();
        let alerts = session.tick().unwrap();
        assert!((alerts[q.index()].probability - 0.5).abs() < 1e-12);
        // Nothing staged: the tick closes with no events anywhere.
        let alerts = session.tick().unwrap();
        assert_eq!(alerts[q.index()].probability, 0.0);
    }

    #[test]
    fn rejects_non_streaming_queries_and_bad_input() {
        let (db, joe, _) = schema_db();
        let mut session = RealTimeSession::new(db).unwrap();
        // Unsafe query: not streamable.
        assert!(session
            .register("bad", "sigma[x = y](At(x,'a') ; At(y,'c'))")
            .is_err());
        // Wrong-dimension marginal.
        let other = StreamBuilder::new(session.database().interner(), "At", &["zz"], &["only"]);
        assert!(session
            .stage(sid(&session, 0), other.marginal(&[("only", 1.0)]).unwrap())
            .is_err());
        // Unknown stream identity resolves to no handle.
        assert!(session.stream_id(other.key()).is_none());
        let _ = joe;
    }

    /// The config builder rejects values that would otherwise fail (or
    /// silently disable features) deep inside the session.
    #[test]
    fn config_builder_validates_at_build_time() {
        let ok = SessionConfig::builder()
            .tick_mode(TickMode::Parallel)
            .n_workers(4)
            .checkpoint_interval(64)
            .build()
            .unwrap();
        assert_eq!(ok.n_workers, 4);
        assert_eq!(ok.checkpoint_interval, 64);
        // Defaults flow through untouched fields.
        assert_eq!(
            ok.parallel_threshold,
            SessionConfig::default().parallel_threshold
        );
        assert!(matches!(
            SessionConfig::builder().checkpoint_interval(0).build(),
            Err(EngineError::InvalidConfig(_))
        ));
        assert!(matches!(
            SessionConfig::builder().n_workers(0).build(),
            Err(EngineError::InvalidConfig(_))
        ));
        assert!(matches!(
            SessionConfig::builder().max_epoch_ticks(0).build(),
            Err(EngineError::InvalidConfig(_))
        ));
    }

    /// Batched staging is equivalent to staging one at a time.
    #[test]
    fn stage_batch_matches_individual_staging() {
        let (db, joe, sue) = schema_db();
        let mut session = RealTimeSession::new(db).unwrap();
        let q = session.register("x", "At(p,'a')").unwrap();
        session
            .stage_batch([
                (sid(&session, 0), joe.marginal(&[("a", 0.5)]).unwrap()),
                (sid(&session, 1), sue.marginal(&[("a", 0.25)]).unwrap()),
            ])
            .unwrap();
        let alerts = session.tick().unwrap();
        let expect = 1.0 - (1.0 - 0.5) * (1.0 - 0.25);
        assert!((alerts[q.index()].probability - expect).abs() < 1e-12);
    }

    /// The deprecated index-addressed shim forwards to the handle path
    /// and rejects out-of-range indices.
    #[test]
    fn session_requires_empty_independent_streams() {
        let (_, joe, _) = schema_db();
        let mut db = Database::new();
        db.declare_stream("At", &["person"], &["loc"]).unwrap();
        let i = db.interner().clone();
        let b = StreamBuilder::new(&i, "At", &["joe"], &["a"]);
        db.add_stream(
            b.clone()
                .independent(vec![b.marginal(&[]).unwrap()])
                .unwrap(),
        )
        .unwrap();
        assert!(RealTimeSession::new(db).is_err());
        let _ = joe;
    }

    #[test]
    fn late_registration_fast_forwards_through_history() {
        let (db, joe, _) = schema_db();
        let mut session = RealTimeSession::new(db).unwrap();
        session
            .stage(sid(&session, 0), joe.marginal(&[("a", 1.0)]).unwrap())
            .unwrap();
        session.tick().unwrap();
        // Registered after one tick: replays the recorded history so its
        // first alert is the true μ(q@1) over the full stream.
        let q = session
            .register("late", "At('joe','a') ; At('joe','c')")
            .unwrap();
        session
            .stage(sid(&session, 0), joe.marginal(&[("c", 0.8)]).unwrap())
            .unwrap();
        let alerts = session.tick().unwrap();
        assert_eq!(alerts[q.index()].t, 1);
        assert!((alerts[q.index()].probability - 0.8).abs() < 1e-12);
    }

    /// Forced-parallel ticks answer exactly like a forced-sequential
    /// session fed the same marginals.
    #[test]
    fn parallel_ticks_match_sequential() {
        let mk = |mode| {
            let (db, joe, sue) = schema_db();
            let session = RealTimeSession::with_config(
                db,
                SessionConfig::builder()
                    .tick_mode(mode)
                    .n_workers(3)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            (session, joe, sue)
        };
        let (mut seq, joe, sue) = mk(TickMode::Sequential);
        let (mut par, _, _) = mk(TickMode::Parallel);
        for s in [&mut seq, &mut par] {
            s.register("r", "At('joe','a') ; At('joe','c')").unwrap();
            s.register("x", "At(p,'a') ; At(p,'c')").unwrap();
            s.register("h", "At(p, l)[Hallway(l)]").unwrap();
        }
        let ticks = [
            vec![(0, joe.marginal(&[("a", 0.6), ("h", 0.3)]).unwrap())],
            vec![
                (0, joe.marginal(&[("c", 0.5)]).unwrap()),
                (1, sue.marginal(&[("a", 0.8)]).unwrap()),
            ],
            vec![(1, sue.marginal(&[("c", 0.9), ("h", 0.05)]).unwrap())],
        ];
        for staged in &ticks {
            for (idx, m) in staged {
                seq.stage(sid(&seq, *idx), m.clone()).unwrap();
                par.stage(sid(&par, *idx), m.clone()).unwrap();
            }
            let a = seq.tick().unwrap();
            let b = par.tick().unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.t, y.t);
                assert!(
                    (x.probability - y.probability).abs() < 1e-12,
                    "{}: {} vs {}",
                    x.name,
                    x.probability,
                    y.probability
                );
            }
        }
        let snap = par.stats().snapshot();
        assert_eq!(snap.ticks, 3);
        assert_eq!(snap.parallel_ticks, 3);
        assert_eq!(seq.stats().snapshot().parallel_ticks, 0);
    }

    /// Chains partition into contiguous balanced shards covering every
    /// registered chain exactly once.
    #[test]
    fn shards_stay_contiguous_and_balanced() {
        let (db, _, _) = schema_db();
        let mut session = RealTimeSession::with_config(
            db,
            SessionConfig::builder()
                .tick_mode(TickMode::Parallel)
                .n_workers(3)
                .build()
                .unwrap(),
        )
        .unwrap();
        session.register("a", "At(p,'h') ; At(p,'a')").unwrap(); // 2 chains
        session.register("b", "At('joe','a')").unwrap(); // 1 chain
        session.register("c", "At(p,'a') ; At(p,'c')").unwrap(); // 2 chains
        session.tick().unwrap(); // forces the pool + repartition
        assert_eq!(session.n_chains(), 5);
        let shards = &session.shards;
        assert_eq!(shards.len(), 3);
        let mut covered = 0;
        for slot in shards {
            let shard = slot.as_ref().unwrap();
            assert_eq!(shard.start, covered);
            covered += shard.len();
            assert!((1..=2).contains(&shard.len()));
        }
        assert_eq!(covered, 5);
    }

    /// Regression: `stage()` and `register()` used to succeed on a
    /// poisoned session because liveness was only checked in `tick()`.
    #[test]
    fn poisoned_session_rejects_every_mutating_entry_point() {
        let (db, joe, _) = schema_db();
        let mut session = RealTimeSession::new(db).unwrap();
        session.register("q", "At('joe','a')").unwrap();
        session.poisoned = true;
        let staged = session.stage(sid(&session, 0), joe.marginal(&[("a", 0.5)]).unwrap());
        assert_eq!(staged, Err(EngineError::SessionPoisoned));
        assert_eq!(
            session.register("late", "At('joe','h')").unwrap_err(),
            EngineError::SessionPoisoned
        );
        let ast = parse_and_validate(
            session.database().catalog(),
            session.database().interner(),
            "At('joe','h')",
        )
        .unwrap();
        assert_eq!(
            session.register_query("late", &ast).unwrap_err(),
            EngineError::SessionPoisoned
        );
        assert_eq!(session.tick().unwrap_err(), EngineError::SessionPoisoned);
        assert!(matches!(
            session.checkpoint().unwrap_err(),
            EngineError::SessionPoisoned
        ));
        assert!(EngineError::SessionPoisoned.is_recoverable());
        assert!(session.is_poisoned());
    }

    /// Simulates the state a mid-tick fault leaves behind (marginals
    /// recorded, every shard lost, clock not advanced) and checks that
    /// recover() completes the tick bit-identically to a fault-free
    /// session.
    #[test]
    fn recover_rebuilds_lost_shards_bit_identically() {
        let (db, joe, sue) = schema_db();
        let mut faulty = RealTimeSession::new(db).unwrap();
        let (db2, _, _) = schema_db();
        let mut reference = RealTimeSession::new(db2).unwrap();
        for s in [&mut faulty, &mut reference] {
            s.register("x", "At(p,'a') ; At(p,'c')").unwrap();
            s.register("r", "At('joe','a')").unwrap();
        }
        let ticks = [
            vec![(0usize, joe.marginal(&[("a", 0.6)]).unwrap())],
            vec![
                (0, joe.marginal(&[("c", 0.4)]).unwrap()),
                (1, sue.marginal(&[("a", 0.7)]).unwrap()),
            ],
        ];
        for staged in &ticks {
            for (idx, m) in staged {
                faulty.stage(sid(&faulty, *idx), m.clone()).unwrap();
                reference.stage(sid(&reference, *idx), m.clone()).unwrap();
            }
            faulty.tick().unwrap();
            reference.tick().unwrap();
        }
        // Fault injection by hand: the failing tick records its
        // marginals, then loses every shard before the clock advances —
        // exactly what a sequential-path panic leaves behind.
        let fault_tick = vec![(1usize, sue.marginal(&[("c", 0.9)]).unwrap())];
        for (idx, m) in &fault_tick {
            faulty.stage(sid(&faulty, *idx), m.clone()).unwrap();
            reference.stage(sid(&reference, *idx), m.clone()).unwrap();
        }
        let reference_alerts = reference.tick().unwrap();
        for idx in 0..faulty.staged.len() {
            let marginal = faulty.staged[idx]
                .take()
                .unwrap_or_else(|| Marginal::all_bottom(faulty.db.streams()[idx].domain()));
            let id = faulty.db.streams()[idx].id().clone();
            faulty.db.push_marginal(&id, marginal).unwrap();
        }
        let n_shards = faulty.shards.len();
        faulty.shards = (0..n_shards).map(|_| None).collect();
        faulty.poisoned = true;

        let recovered_alerts = faulty.recover().unwrap();
        assert!(!faulty.is_poisoned());
        assert_eq!(recovered_alerts.len(), reference_alerts.len());
        for (a, b) in recovered_alerts.iter().zip(&reference_alerts) {
            assert_eq!(a.t, b.t);
            assert_eq!(
                a.probability.to_bits(),
                b.probability.to_bits(),
                "{}: {} vs {}",
                a.name,
                a.probability,
                b.probability
            );
        }
        assert_eq!(faulty.stats().snapshot().recoveries, 1);
        // Subsequent ticks stay bit-identical too.
        faulty
            .stage(sid(&faulty, 0), joe.marginal(&[("c", 0.3)]).unwrap())
            .unwrap();
        reference
            .stage(sid(&reference, 0), joe.marginal(&[("c", 0.3)]).unwrap())
            .unwrap();
        let a = faulty.tick().unwrap();
        let b = reference.tick().unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.probability.to_bits(), y.probability.to_bits());
        }
        // Recovering a healthy session is an error.
        assert!(matches!(
            faulty.recover().unwrap_err(),
            EngineError::RecoveryFailed(_)
        ));
    }

    /// A session bounded to a 3-tick history window answers every tick
    /// bit-identically to one keeping its whole history: it retires the
    /// history when tick 4 closes, holds at most one window of replay
    /// frames, refuses late registration, recovers lost shards from its
    /// in-memory base, and checkpoints and restores without history.
    #[test]
    fn retired_history_recovers_and_restores_bit_identically() {
        let (db, joe, sue) = schema_db();
        let mut bounded = RealTimeSession::new(db).unwrap();
        bounded.retain_history(Some(3)).unwrap();
        let (db2, _, _) = schema_db();
        let mut full = RealTimeSession::new(db2).unwrap();
        for s in [&mut bounded, &mut full] {
            s.register("x", "At(p,'a') ; At(p,'c')").unwrap();
            s.register("r", "At('joe','a') ; At('joe','c')").unwrap();
        }
        let vals = ["a", "h", "c"];
        let tick_marginals = |t: usize| {
            [
                joe.marginal(&[(vals[t % 3], 0.6), (vals[(t + 1) % 3], 0.3)])
                    .unwrap(),
                sue.marginal(&[(vals[(t + 2) % 3], 0.5)]).unwrap(),
            ]
        };
        let step = |s: &mut RealTimeSession, t: usize| -> Vec<u64> {
            let batch: Vec<_> = tick_marginals(t)
                .into_iter()
                .enumerate()
                .map(|(i, m)| (sid(s, i), m))
                .collect();
            s.stage_batch(batch).unwrap();
            s.tick()
                .unwrap()
                .iter()
                .map(|a| a.probability.to_bits())
                .collect()
        };
        for t in 0..3 {
            assert_eq!(step(&mut bounded, t), step(&mut full, t), "tick {t}");
        }
        // Within the window the history is still recorded.
        assert!(!bounded.retired);
        assert_eq!(bounded.database().streams()[0].len(), 3);
        for t in 3..11 {
            assert_eq!(step(&mut bounded, t), step(&mut full, t), "tick {t}");
            assert!(bounded.replay_log.len() <= 3, "tick {t}");
        }
        assert!(bounded.retired);
        assert!(bounded.database().streams().iter().all(|s| s.is_empty()));
        assert_eq!(
            bounded.register("late", "At(p,'c')").unwrap_err(),
            EngineError::HistoryRetired { t: 11 }
        );

        // Fault injection by hand: tick 11's frame reaches the replay
        // log, then every shard is lost before the clock advances.
        let marginals = tick_marginals(11);
        let mut frame = TickFrame::new(marginals.iter().map(|m| m.probs().len()).collect());
        frame.fill(|s| marginals[s].probs());
        bounded.replay_log.push(Arc::new(frame));
        bounded.shards = (0..bounded.shards.len()).map(|_| None).collect();
        bounded.poisoned = true;
        let recovered: Vec<u64> = bounded
            .recover()
            .unwrap()
            .iter()
            .map(|a| a.probability.to_bits())
            .collect();
        assert_eq!(recovered, step(&mut full, 11));
        for t in 12..14 {
            assert_eq!(step(&mut bounded, t), step(&mut full, t), "tick {t}");
        }

        let ckpt = bounded.checkpoint().unwrap();
        assert!(ckpt.history.is_none());
        let (db3, _, _) = schema_db();
        let mut restored = RealTimeSession::restore(db3, &ckpt).unwrap();
        assert!(restored.retired);
        assert!(matches!(
            restored.register("late", "At(p,'c')"),
            Err(EngineError::HistoryRetired { .. })
        ));
        for t in 14..18 {
            assert_eq!(step(&mut restored, t), step(&mut full, t), "tick {t}");
        }
    }

    #[test]
    fn checkpoint_restore_round_trips_to_identical_alerts() {
        let (db, joe, sue) = schema_db();
        let mut original = RealTimeSession::new(db).unwrap();
        original.register("x", "At(p,'a') ; At(p,'c')").unwrap();
        original.register("r", "At('joe','a')").unwrap();
        for m in [
            (0usize, joe.marginal(&[("a", 0.6), ("h", 0.2)]).unwrap()),
            (1, sue.marginal(&[("a", 0.5)]).unwrap()),
        ] {
            original.stage(sid(&original, m.0), m.1).unwrap();
            original.tick().unwrap();
        }
        // Stage something *before* checkpointing: staged state must
        // survive the round trip.
        original
            .stage(sid(&original, 1), sue.marginal(&[("c", 0.8)]).unwrap())
            .unwrap();
        let ckpt = original.checkpoint().unwrap();
        assert_eq!(ckpt.t(), 2);
        assert_eq!(ckpt.n_queries(), 2);
        assert_eq!(original.stats().snapshot().checkpoints_taken, 1);

        // Serialize → parse → restore over a fresh schema-only database.
        let ckpt = Checkpoint::from_json(&ckpt.to_json()).unwrap();
        let (fresh_db, _, _) = schema_db();
        let mut restored = RealTimeSession::restore(fresh_db, &ckpt).unwrap();
        assert_eq!(restored.now(), original.now());
        assert_eq!(restored.n_chains(), original.n_chains());
        assert_eq!(
            restored.stats().snapshot().checkpoints_taken,
            original.stats().snapshot().checkpoints_taken
        );

        // Identical futures: same staged carry-over, same next ticks.
        for s in [&mut original, &mut restored] {
            let id = sid(s, 0);
            s.stage(id, joe.marginal(&[("c", 0.7)]).unwrap()).unwrap();
        }
        let a = original.tick().unwrap();
        let b = restored.tick().unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.t, y.t);
            assert_eq!(x.probability.to_bits(), y.probability.to_bits());
        }
        // And the accumulated histories agree with the batch engine.
        for src in ["At(p,'a') ; At(p,'c')", "At('joe','a')"] {
            let sa = Lahar::prob_series(original.database(), src).unwrap();
            let sb = Lahar::prob_series(restored.database(), src).unwrap();
            assert_eq!(sa.len(), sb.len());
            for (x, y) in sa.iter().zip(&sb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn checkpoint_requires_source_registered_queries() {
        let (db, _, _) = schema_db();
        let mut session = RealTimeSession::new(db).unwrap();
        let ast = parse_and_validate(
            session.database().catalog(),
            session.database().interner(),
            "At('joe','a')",
        )
        .unwrap();
        session.register_query("ast", &ast).unwrap();
        assert!(matches!(
            session.checkpoint().unwrap_err(),
            EngineError::CheckpointUnsupported(_)
        ));
    }

    #[test]
    fn auto_checkpointing_follows_interval_and_bounds_replay_log() {
        let (db, joe, _) = schema_db();
        let mut session = RealTimeSession::with_config(
            db,
            SessionConfig::builder()
                .checkpoint_interval(2)
                .build()
                .unwrap(),
        )
        .unwrap();
        session.register("q", "At('joe','a')").unwrap();
        assert!(session.last_checkpoint().is_none());
        for i in 0..6 {
            session
                .stage(
                    sid(&session, 0),
                    joe.marginal(&[("a", 0.1 * (i + 1) as f64)]).unwrap(),
                )
                .unwrap();
            session.tick().unwrap();
            // The replay log only accumulates ticks since the newest
            // checkpoint: never more than the interval.
            assert!(session.replay_log.len() < 2);
        }
        let ckpt = session.last_checkpoint().expect("auto-checkpoint taken");
        assert_eq!(ckpt.t(), 6);
        assert_eq!(session.stats().snapshot().checkpoints_taken, 3);
    }

    #[test]
    fn degraded_mode_forces_sequential_ticks() {
        let (db, joe, _) = schema_db();
        let mut session = RealTimeSession::with_config(
            db,
            SessionConfig::builder()
                .tick_mode(TickMode::Parallel)
                .n_workers(2)
                .build()
                .unwrap(),
        )
        .unwrap();
        session.register("q", "At(p,'a')").unwrap();
        session
            .stage(sid(&session, 0), joe.marginal(&[("a", 0.4)]).unwrap())
            .unwrap();
        session.tick().unwrap();
        assert_eq!(session.stats().snapshot().parallel_ticks, 1);
        // A watchdog trip sets this; simulate it directly.
        session.degraded = true;
        assert!(session.is_degraded());
        session
            .stage(sid(&session, 0), joe.marginal(&[("a", 0.2)]).unwrap())
            .unwrap();
        session.tick().unwrap();
        let snap = session.stats().snapshot();
        assert_eq!(
            snap.parallel_ticks, 1,
            "degraded tick must not use the pool"
        );
        assert_eq!(snap.degraded_ticks, 1);
        session.clear_degraded();
        session.tick().unwrap();
        assert_eq!(session.stats().snapshot().parallel_ticks, 2);
    }

    /// A whole epoch handed to `tick_epoch` answers bit-identically to
    /// the same marginals fed through per-tick sequential `tick` calls,
    /// and closes under a single join (one epoch recorded).
    #[test]
    fn epoch_batched_ticks_match_per_tick_sequential() {
        let mk = |mode| {
            let (db, joe, sue) = schema_db();
            let session = RealTimeSession::with_config(
                db,
                SessionConfig::builder()
                    .tick_mode(mode)
                    .n_workers(3)
                    .max_epoch_ticks(8)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            (session, joe, sue)
        };
        let (mut seq, joe, sue) = mk(TickMode::Sequential);
        let (mut par, _, _) = mk(TickMode::Parallel);
        for s in [&mut seq, &mut par] {
            s.register("r", "At('joe','a') ; At('joe','c')").unwrap();
            s.register("x", "At(p,'a') ; At(p,'c')").unwrap();
        }
        let epoch: Vec<Vec<(StreamId, Marginal)>> = vec![
            vec![(
                sid(&par, 0),
                joe.marginal(&[("a", 0.6), ("h", 0.3)]).unwrap(),
            )],
            vec![
                (sid(&par, 0), joe.marginal(&[("c", 0.5)]).unwrap()),
                (sid(&par, 1), sue.marginal(&[("a", 0.8)]).unwrap()),
            ],
            Vec::new(),
            vec![(sid(&par, 1), sue.marginal(&[("c", 0.9)]).unwrap())],
            vec![(sid(&par, 0), joe.marginal(&[("a", 0.15)]).unwrap())],
        ];
        let mut reference = Vec::new();
        for batch in &epoch {
            for (id, m) in batch {
                seq.stage(*id, m.clone()).unwrap();
            }
            reference.extend(seq.tick().unwrap());
        }
        let batched = par.tick_epoch(epoch).unwrap();
        assert_eq!(batched.len(), reference.len());
        for (a, b) in batched.iter().zip(&reference) {
            assert_eq!(a.t, b.t);
            assert_eq!(
                a.probability.to_bits(),
                b.probability.to_bits(),
                "{} t={}: {} vs {}",
                a.name,
                a.t,
                a.probability,
                b.probability
            );
        }
        let snap = par.stats().snapshot();
        assert_eq!(snap.ticks, 5);
        assert_eq!(snap.parallel_ticks, 5);
        assert_eq!(snap.epochs, 1, "five ticks, one join");
        assert_eq!(snap.epoch_ticks, 5);
        // Per-tick mode records one single-tick epoch per tick.
        let snap = seq.stats().snapshot();
        assert_eq!((snap.epochs, snap.epoch_ticks), (5, 5));
    }

    /// Epochs split at `max_epoch_ticks` and at auto-checkpoint
    /// boundaries, so batching never changes checkpoint cadence.
    #[test]
    fn epochs_split_at_checkpoint_boundaries() {
        let (db, joe, _) = schema_db();
        let mut session = RealTimeSession::with_config(
            db,
            SessionConfig::builder()
                .checkpoint_interval(2)
                .max_epoch_ticks(8)
                .build()
                .unwrap(),
        )
        .unwrap();
        session.register("q", "At('joe','a')").unwrap();
        let id = sid(&session, 0);
        let epoch: Vec<Vec<(StreamId, Marginal)>> = (0..5)
            .map(|i| vec![(id, joe.marginal(&[("a", 0.1 * (i + 1) as f64)]).unwrap())])
            .collect();
        session.tick_epoch(epoch).unwrap();
        let snap = session.stats().snapshot();
        assert_eq!(snap.ticks, 5);
        // Interval-2 boundaries at t=2 and t=4 split the batch 2+2+1.
        assert_eq!(snap.epochs, 3);
        assert_eq!(snap.epoch_ticks, 5);
        assert_eq!(snap.checkpoints_taken, 2);
        let ckpt = session.last_checkpoint().expect("auto-checkpoint taken");
        assert_eq!(ckpt.t(), 4);
        // The replay log only spans ticks since that checkpoint.
        assert_eq!(session.replay_log.len(), 1);
    }

    /// Regression: shrinking the shard layout used to
    /// `truncate(n_workers)` first, dropping every chain in the trailing
    /// shards. Restoring a checkpoint taken under a wider worker count
    /// onto a narrower config exercises exactly that path; the restored
    /// session must keep all chains and answer bit-identically.
    #[test]
    fn shard_shrink_on_restore_keeps_every_chain() {
        let (db, joe, sue) = schema_db();
        let mut original = RealTimeSession::with_config(
            db,
            SessionConfig::builder()
                .tick_mode(TickMode::Parallel)
                .n_workers(4)
                .build()
                .unwrap(),
        )
        .unwrap();
        original.register("a", "At(p,'h') ; At(p,'a')").unwrap();
        original.register("b", "At('joe','a')").unwrap();
        original.register("c", "At(p,'a') ; At(p,'c')").unwrap();
        assert_eq!(original.n_chains(), 5);
        for m in [
            (0usize, joe.marginal(&[("a", 0.6), ("h", 0.2)]).unwrap()),
            (1, sue.marginal(&[("h", 0.5)]).unwrap()),
        ] {
            original.stage(sid(&original, m.0), m.1).unwrap();
            original.tick().unwrap();
        }
        let ckpt = Checkpoint::from_json(&original.checkpoint().unwrap().to_json()).unwrap();

        let (fresh_db, _, _) = schema_db();
        let narrow = SessionConfig::builder()
            .tick_mode(TickMode::Parallel)
            .n_workers(2)
            .build()
            .unwrap();
        let mut restored = RealTimeSession::restore_with_config(fresh_db, &ckpt, narrow).unwrap();
        // The restore mirrors the checkpoint's 4-shard layout, so the
        // first parallel tick below must shrink 4 → 2.
        assert_eq!(restored.shards.len(), 4);
        assert_eq!(restored.n_chains(), 5);

        for s in [&mut original, &mut restored] {
            let (j, u) = (sid(s, 0), sid(s, 1));
            s.stage(j, joe.marginal(&[("c", 0.7)]).unwrap()).unwrap();
            s.stage(u, sue.marginal(&[("a", 0.4), ("c", 0.3)]).unwrap())
                .unwrap();
        }
        let a = original.tick().unwrap();
        let b = restored.tick().unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.t, y.t);
            assert_eq!(
                x.probability.to_bits(),
                y.probability.to_bits(),
                "{}: {} vs {}",
                x.name,
                x.probability,
                y.probability
            );
        }
        // The shrink rebalanced instead of truncating: every chain is
        // still present, partitioned over the narrower layout.
        assert_eq!(restored.shards.len(), 2);
        let covered: usize = restored
            .shards
            .iter()
            .map(|s| s.as_ref().unwrap().len())
            .sum();
        assert_eq!(covered, 5);
    }

    /// Regression: ticks that never asked for the parallel path (mode
    /// Sequential) used to count as "degraded" whenever the flag was
    /// set. Only genuine diversions off the pool count now.
    #[test]
    fn sequential_ticks_never_count_as_degraded() {
        let (db, joe, _) = schema_db();
        let mut session = RealTimeSession::with_config(
            db,
            SessionConfig::builder()
                .tick_mode(TickMode::Sequential)
                .build()
                .unwrap(),
        )
        .unwrap();
        session.register("q", "At(p,'a')").unwrap();
        session.degraded = true;
        session
            .stage(sid(&session, 0), joe.marginal(&[("a", 0.4)]).unwrap())
            .unwrap();
        session.tick().unwrap();
        let snap = session.stats().snapshot();
        assert_eq!(snap.ticks, 1);
        assert_eq!(snap.parallel_ticks, 0);
        assert_eq!(
            snap.degraded_ticks, 0,
            "a sequential-mode tick is not a diversion"
        );
    }

    #[test]
    fn stats_record_ticks_and_groundings() {
        let (db, joe, _) = schema_db();
        let mut session = RealTimeSession::new(db).unwrap();
        session.register("x", "At(p,'a') ; At(p,'c')").unwrap();
        session
            .stage(sid(&session, 0), joe.marginal(&[("a", 0.4)]).unwrap())
            .unwrap();
        session.tick().unwrap();
        session.tick().unwrap();
        let snap = session.stats().snapshot();
        assert_eq!(snap.ticks, 2);
        assert_eq!(snap.bindings_grounded, 2);
        assert_eq!(snap.chains_stepped, 4);
        assert_eq!(snap.alerts_emitted, 2);
        assert_eq!(snap.tick_latency.count, 2);
        let json = snap.to_json();
        assert!(json.contains("\"ticks\":2"));
    }

    // -----------------------------------------------------------------
    // Group-resident state: between ticks a batched group, not its
    // chains, holds the lanes' state. Every path that reads or moves the
    // chains must first write it back.
    // -----------------------------------------------------------------

    /// People in [`crowd_db`]: enough lanes per query for SoA groups.
    const CROWD: usize = 8;
    const CROWD_QUERIES: [(&str, &str); 2] = [
        ("x", "At(p,'a') ; At(p,'c')"),
        ("k", "At(p,'a') ; (At(p, l))+{p | Hallway(l)} ; At(p,'c')"),
    ];

    fn crowd_db() -> Database {
        let mut db = Database::new();
        db.declare_stream("At", &["person"], &["loc"]).unwrap();
        db.declare_relation("Hallway", 1).unwrap();
        let i = db.interner().clone();
        db.insert_relation_tuple("Hallway", lahar_model::tuple([i.intern("h")]))
            .unwrap();
        for p in 0..CROWD {
            let b = StreamBuilder::new(&i, "At", &[&format!("p{p}")], &["a", "h", "c"]);
            db.add_stream(b.independent(vec![]).unwrap()).unwrap();
        }
        db
    }

    /// A crowd session with [`CROWD_QUERIES`] registered; `forced`
    /// pins every chain to the interpreter (the reference twin).
    fn crowd_session(config: SessionConfig, forced: bool) -> RealTimeSession {
        let mut session = RealTimeSession::with_config(crowd_db(), config).unwrap();
        for (name, src) in CROWD_QUERIES {
            session.register(name, src).unwrap();
        }
        session.force_interpreter(forced);
        session
    }

    /// Tick `t`'s marginals: a rotation over a, h, c that differs per
    /// person.
    fn crowd_batch(s: &RealTimeSession, t: usize) -> Vec<(StreamId, Marginal)> {
        let vals = ["a", "h", "c"];
        (0..CROWD)
            .map(|p| {
                let i = s.database().interner();
                let b = StreamBuilder::new(i, "At", &[&format!("p{p}")], &vals);
                let (v, w) = (vals[(t + p) % 3], vals[(t + 2 * p + 1) % 3]);
                let m = if v == w {
                    b.marginal(&[(v, 0.55)])
                } else {
                    b.marginal(&[(v, 0.5), (w, 0.25)])
                };
                (sid(s, p), m.unwrap())
            })
            .collect()
    }

    /// Stages and closes tick `t`, returning the alerts' bits.
    fn crowd_tick(s: &mut RealTimeSession, t: usize) -> Vec<(usize, u32, u64)> {
        let batch = crowd_batch(s, t);
        s.stage_batch(batch).unwrap();
        alert_bits(&s.tick().unwrap())
    }

    fn alert_bits(alerts: &[Alert]) -> Vec<(usize, u32, u64)> {
        alerts
            .iter()
            .map(|a| (a.query.index(), a.t, a.probability.to_bits()))
            .collect()
    }

    /// The most ticks any shard's group holds back from its chains.
    fn max_pending(s: &RealTimeSession) -> u32 {
        s.shards
            .iter()
            .flatten()
            .map(ChainSet::max_pending)
            .max()
            .unwrap_or(0)
    }

    /// Closes ticks `from..to` on both sessions, asserting equal alerts.
    fn crowd_ticks_agree(
        a: &mut RealTimeSession,
        b: &mut RealTimeSession,
        ticks: std::ops::Range<usize>,
    ) {
        for t in ticks {
            assert_eq!(crowd_tick(a, t), crowd_tick(b, t), "tick {t}");
        }
    }

    /// Ticks after which the crowd's discovery has settled and its
    /// groups have stayed resident for at least three ticks.
    const CROWD_WARM: usize = 12;

    /// A query registered after resident ticks repartitions every
    /// shard: the groups write back before the chains move, so the
    /// following alerts and every chain's state match the interpreter.
    #[test]
    fn late_registration_after_resident_ticks_matches_the_interpreter() {
        let mut kern = crowd_session(SessionConfig::default(), false);
        let mut intp = crowd_session(SessionConfig::default(), true);
        crowd_ticks_agree(&mut kern, &mut intp, 0..CROWD_WARM);
        assert!(max_pending(&kern) >= 3, "no group stayed resident");
        for s in [&mut kern, &mut intp] {
            s.register("late", "At(p,'h') ; At(p,'c')").unwrap();
        }
        intp.force_interpreter(true);
        crowd_ticks_agree(&mut kern, &mut intp, CROWD_WARM..CROWD_WARM + 6);
        assert_eq!(kern.export_chains().unwrap(), intp.export_chains().unwrap());
    }

    /// A checkpoint taken while groups are resident carries the written
    /// back state: it equals the interpreter's, and the restored twin
    /// answers bit-identically from there.
    #[test]
    fn checkpoint_after_resident_ticks_restores_bit_identically() {
        let mut kern = crowd_session(SessionConfig::default(), false);
        let mut intp = crowd_session(SessionConfig::default(), true);
        crowd_ticks_agree(&mut kern, &mut intp, 0..CROWD_WARM);
        assert!(max_pending(&kern) >= 3, "no group stayed resident");
        let ckpt = kern.checkpoint().unwrap();
        assert_eq!(ckpt.chains, intp.checkpoint().unwrap().chains);
        let ckpt = Checkpoint::from_json(&ckpt.to_json()).unwrap();
        let mut restored = RealTimeSession::restore(crowd_db(), &ckpt).unwrap();
        for t in CROWD_WARM..CROWD_WARM + 6 {
            let want = crowd_tick(&mut intp, t);
            assert_eq!(crowd_tick(&mut kern, t), want, "tick {t}");
            assert_eq!(crowd_tick(&mut restored, t), want, "restored tick {t}");
        }
        let want = intp.export_chains().unwrap();
        assert_eq!(kern.export_chains().unwrap(), want);
        assert_eq!(restored.export_chains().unwrap(), want);
    }

    /// A fault that loses one shard while the other's groups are
    /// resident: recovery reads the surviving shard's answers from its
    /// written-back chains and rebuilds the lost one, and the session
    /// then tracks the interpreter bit for bit.
    #[test]
    fn recover_after_resident_ticks_matches_the_interpreter() {
        let config = SessionConfig::builder()
            .tick_mode(TickMode::Parallel)
            .n_workers(2)
            .build()
            .unwrap();
        let mut kern = crowd_session(config, false);
        let mut intp = crowd_session(SessionConfig::default(), true);
        crowd_ticks_agree(&mut kern, &mut intp, 0..CROWD_WARM);
        assert_eq!(kern.shards.len(), 2);
        assert!(max_pending(&kern) >= 3, "no group stayed resident");

        // Fault injection by hand, as a worker fault in shard 1 leaves
        // the session: the tick's marginals recorded, shard 0 stepped
        // (its groups still resident), shard 1 lost.
        let t = CROWD_WARM;
        let want = crowd_tick(&mut intp, t);
        let batch = crowd_batch(&kern, t);
        kern.stage_batch(batch).unwrap();
        let lens = kern.db.streams().iter().map(|s| s.domain().len()).collect();
        let mut frame = TickFrame::new(lens);
        frame.fill(|s| kern.staged[s].as_ref().unwrap().probs());
        for idx in 0..kern.staged.len() {
            let marginal = kern.staged[idx].take().unwrap();
            kern.db.push_marginal_at(idx, marginal).unwrap();
        }
        let n_queries = kern.queries.len();
        let frames = [Arc::new(frame)];
        let shard = kern.shards[0].as_mut().unwrap();
        run_shard_epoch(shard, &frames, n_queries, &mut SymCache::new(), None).unwrap();
        assert!(kern.shards[0].as_ref().unwrap().max_pending() >= 4);
        kern.shards[1] = None;
        kern.epoch_in_flight = 1;
        kern.poisoned = true;

        assert_eq!(alert_bits(&kern.recover().unwrap()), want);
        crowd_ticks_agree(&mut kern, &mut intp, t + 1..t + 6);
        assert_eq!(kern.export_chains().unwrap(), intp.export_chains().unwrap());
    }
}
