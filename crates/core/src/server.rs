//! `lahar serve`: a sharded multi-session network service.
//!
//! [`LaharServer`] binds a [`std::net::TcpListener`] and hosts any
//! number of named [`crate::RealTimeSession`]s over the newline-delimited
//! JSON protocol of [`crate::protocol`] (spec: `PROTOCOL.md`). The
//! threading model is deliberately boring, matching the zero-dependency
//! style of [`crate::expose::MetricsServer`]:
//!
//! * one **acceptor** thread (`lahar-serve`) accepts connections and
//!   spawns a blocking reader thread per client;
//! * `n_shards` **shard worker** threads (`lahar-shard-N`) each own the
//!   sessions that hash to them — a session lives on exactly one shard,
//!   so session state is single-threaded and needs no locking;
//! * connection threads route each command to its session's shard over a
//!   **bounded** [`std::sync::mpsc::sync_channel`]. When a shard's queue
//!   is full the command is rejected *immediately* with an `overloaded`
//!   response — the server never buffers without bound, and the client
//!   decides whether to back off and retry.
//!
//! Integration with the rest of the engine:
//!
//! * staging uses [`crate::RealTimeSession::stage_batch`], so one wire
//!   frame feeds the kernel fast path with a whole tick's marginals;
//! * every hosted session's stats merge into one `/metrics` exposition
//!   (label `session="<name>"`) together with the server's own queue
//!   gauges, served by a [`MetricsServer`] with a custom renderer;
//! * recoverable tick faults (worker panics, tick timeouts, injected
//!   failpoints) trigger [`crate::RealTimeSession::recover`] instead of
//!   killing the server — the interrupted tick completes bit-identically
//!   and its alerts still extend the query series;
//! * graceful shutdown writes a final checkpoint per session into
//!   [`ServerConfig::checkpoint_dir`], and [`Command::Open`] restores
//!   from it on restart, so a serve → shutdown → serve cycle continues
//!   the same series bit-identically;
//! * durability: with `--durability batch|always`
//!   ([`crate::SessionConfig::durability`]), every acknowledged
//!   mutation is appended to a per-session write-ahead log
//!   ([`crate::wal`]) *before* the ack leaves the server, and
//!   checkpoints are persisted as atomic checksummed **generations**
//!   (tmp file + fsync + rename, CRC-carrying envelope). On restart,
//!   `open` restores the newest generation that verifies — torn or
//!   corrupt ones are quarantined as `*.corrupt` and the scan falls
//!   back to the previous generation — and replays the uncovered log
//!   tail on top, so even `kill -9` mid-write loses no acknowledged
//!   tick;
//! * bounded state: a hosted session records marginal history only for
//!   its first [`ServerConfig::history_ticks`] ticks. After that it
//!   keeps only its live state — chain states, staged marginals, each
//!   query's `series` and an in-memory recovery base — so its memory,
//!   checkpoints and restores no longer carry the history (only the
//!   `series` grows, 8 bytes per tick per query); a later `register` is
//!   refused (`history_retired`) rather than answered approximately.

use crate::checkpoint::{self, Checkpoint};
use crate::error::EngineError;
use crate::expose::{to_prometheus_sessions, MetricsServer};
use crate::protocol::{Command, Response, WireAlert, WireCode, WireMarginal, PROTOCOL_VERSION};
use crate::session::{Alert, RealTimeSession, SessionConfig, DEFAULT_HISTORY_TICKS};
use crate::stats::{EngineStats, Histogram, StatsSnapshot};
use crate::trace;
use crate::wal::{self, Durability, WalMarginal, WalOp, WalWriter};
use lahar_model::{Database, Marginal, StreamId, StreamKey, Value};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of [`LaharServer`].
///
/// Construct it with [`ServerConfig::builder`], which validates at
/// build time (address collisions, zero queue/session caps, an
/// `evict_after` without a checkpoint dir). **Direct field construction
/// and field-by-field mutation are deprecated**: the struct stays
/// `#[non_exhaustive]` with public fields only so existing deployments
/// keep compiling, but new knobs are added builder-first and a mutated
/// config is only re-validated when [`LaharServer::start`] runs.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Address to listen on (port 0 picks a free port; see
    /// [`LaharServer::addr`] for the resolved one).
    pub addr: SocketAddr,
    /// Metrics endpoint for the merged per-session exposition (`None`
    /// disables it). Must differ from `addr`.
    pub metrics_addr: Option<SocketAddr>,
    /// Number of shard worker threads (0 = one per available core).
    pub n_shards: usize,
    /// Bound of each shard's command queue; a full queue answers
    /// `overloaded` instead of buffering.
    pub queue_cap: usize,
    /// Maximum number of hosted sessions across all shards; an `open`
    /// beyond this answers a `session_limit` error. Sessions are created
    /// only by `open` (other commands answer `unknown_session`), so
    /// arbitrary wire-supplied names cannot grow server state without
    /// bound. Evicted sessions still count — eviction bounds memory,
    /// not the namespace.
    pub max_sessions: usize,
    /// Where shutdown checkpoints are written and restarts restore from
    /// (`None` disables persistence).
    pub checkpoint_dir: Option<PathBuf>,
    /// Template configuration for hosted sessions. `metrics_addr` is
    /// ignored here — the server owns its endpoints.
    pub session_config: SessionConfig,
    /// How many ticks of marginal history each hosted session records
    /// (default 64; `None` keeps all of it). A query registered within
    /// the window is fast-forwarded through the history so its `series`
    /// starts at t = 0. Once a session closes tick `history_ticks + 1`
    /// it drops the history and keeps only its live state (each query's
    /// `series` still grows by 8 bytes per tick); `register` then
    /// answers `history_retired`. Must be non-zero: the window is also
    /// how often a session re-takes its recovery base.
    pub history_ticks: Option<u32>,
    /// Artificial per-command processing delay in every shard worker — a
    /// test/ops knob for driving the backpressure path deterministically.
    pub shard_delay: Option<Duration>,
    /// Threshold of the structured slow-request log: a request whose
    /// phase total (`queue_wait + execute + wal_append + respond`)
    /// reaches this many milliseconds is logged as one JSONL entry.
    /// `None` disables the log.
    pub slow_request_ms: Option<u64>,
    /// Where slow-request entries are appended; `None` writes them to
    /// stderr. Only consulted when `slow_request_ms` is set.
    pub slow_log: Option<PathBuf>,
    /// Cold-session tiering: a hosted session idle for this long is
    /// checkpointed to [`ServerConfig::checkpoint_dir`] and dropped
    /// from memory, then restored bit-identically (checkpoint +
    /// write-ahead tail) by the next command that touches it. `None`
    /// keeps every opened session resident forever. Requires a
    /// checkpoint dir.
    pub evict_after: Option<Duration>,
}

impl ServerConfig {
    /// A builder that validates at build time — the only supported way
    /// to construct a config. See [`ServerConfigBuilder`].
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder::default()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".parse().expect("valid literal"),
            metrics_addr: None,
            n_shards: 0,
            queue_cap: 64,
            max_sessions: 1024,
            checkpoint_dir: None,
            session_config: SessionConfig::default(),
            history_ticks: Some(DEFAULT_HISTORY_TICKS),
            shard_delay: None,
            slow_request_ms: None,
            slow_log: None,
            evict_after: None,
        }
    }
}

/// Builder for [`ServerConfig`], mirroring
/// [`crate::SessionConfigBuilder`]: every knob is optional, defaults
/// come from [`ServerConfig::default`], and invalid combinations are
/// rejected by [`ServerConfigBuilder::build`] with
/// [`EngineError::InvalidConfig`] instead of surfacing as runtime
/// surprises.
///
/// ```ignore
/// let config = ServerConfig::builder()
///     .addr("127.0.0.1:0".parse().unwrap())
///     .n_shards(2)
///     .evict_after(Duration::from_secs(300))
///     .checkpoint_dir("/var/lib/lahar")
///     .build()?;
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServerConfigBuilder {
    addr: Option<SocketAddr>,
    metrics_addr: Option<SocketAddr>,
    n_shards: Option<usize>,
    queue_cap: Option<usize>,
    max_sessions: Option<usize>,
    checkpoint_dir: Option<PathBuf>,
    session_config: Option<SessionConfig>,
    history_ticks: Option<Option<u32>>,
    shard_delay: Option<Duration>,
    slow_request_ms: Option<u64>,
    slow_log: Option<PathBuf>,
    evict_after: Option<Duration>,
}

impl ServerConfigBuilder {
    /// Sets the serve address (port 0 picks a free port).
    #[must_use]
    pub fn addr(mut self, addr: SocketAddr) -> Self {
        self.addr = Some(addr);
        self
    }

    /// Enables the metrics endpoint on `addr` (must differ from the
    /// serve address).
    #[must_use]
    pub fn metrics_addr(mut self, addr: SocketAddr) -> Self {
        self.metrics_addr = Some(addr);
        self
    }

    /// Sets the shard worker count (0 = one per available core).
    #[must_use]
    pub fn n_shards(mut self, n: usize) -> Self {
        self.n_shards = Some(n);
        self
    }

    /// Sets the bound of each shard's command queue (must be non-zero).
    #[must_use]
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = Some(cap);
        self
    }

    /// Sets the hosted-session cap (must be non-zero).
    #[must_use]
    pub fn max_sessions(mut self, cap: usize) -> Self {
        self.max_sessions = Some(cap);
        self
    }

    /// Sets where checkpoints are written and restarts restore from.
    #[must_use]
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Sets the template configuration for hosted sessions.
    #[must_use]
    pub fn session_config(mut self, config: SessionConfig) -> Self {
        self.session_config = Some(config);
        self
    }

    /// Sets how many ticks of marginal history each hosted session
    /// records (`None` keeps all of it); see
    /// [`ServerConfig::history_ticks`].
    #[must_use]
    pub fn history_ticks(mut self, ticks: Option<u32>) -> Self {
        self.history_ticks = Some(ticks);
        self
    }

    /// Injects an artificial per-command delay in every shard worker (a
    /// test/ops knob for driving backpressure deterministically).
    #[must_use]
    pub fn shard_delay(mut self, delay: Duration) -> Self {
        self.shard_delay = Some(delay);
        self
    }

    /// Enables the slow-request log at the given threshold (ms).
    #[must_use]
    pub fn slow_request_ms(mut self, ms: u64) -> Self {
        self.slow_request_ms = Some(ms);
        self
    }

    /// Appends slow-request entries to `path` instead of stderr.
    #[must_use]
    pub fn slow_log(mut self, path: impl Into<PathBuf>) -> Self {
        self.slow_log = Some(path.into());
        self
    }

    /// Evicts sessions idle for `idle` to checkpoint storage, restoring
    /// them lazily (and bit-identically) on the next touching command.
    /// Requires [`ServerConfigBuilder::checkpoint_dir`]; must be
    /// non-zero.
    #[must_use]
    pub fn evict_after(mut self, idle: Duration) -> Self {
        self.evict_after = Some(idle);
        self
    }

    /// Validates the combination and produces the config.
    ///
    /// Rejected: a zero `queue_cap` or `max_sessions`, a zero
    /// `evict_after`, a `metrics_addr` equal to the serve address (when
    /// neither is port 0), `evict_after` without a `checkpoint_dir`
    /// (there is nowhere to evict to), and a zero `history_ticks`.
    pub fn build(self) -> Result<ServerConfig, EngineError> {
        let defaults = ServerConfig::default();
        if self.queue_cap == Some(0) {
            return Err(EngineError::InvalidConfig(
                "queue_cap must be non-zero (a zero-capacity queue rejects everything)".to_owned(),
            ));
        }
        if self.max_sessions == Some(0) {
            return Err(EngineError::InvalidConfig(
                "max_sessions must be non-zero (a zero cap rejects every open)".to_owned(),
            ));
        }
        if self.evict_after == Some(Duration::ZERO) {
            return Err(EngineError::InvalidConfig(
                "evict_after must be non-zero (zero would evict a session mid-conversation)"
                    .to_owned(),
            ));
        }
        if self.evict_after.is_some() && self.checkpoint_dir.is_none() {
            return Err(EngineError::InvalidConfig(
                "evict_after requires a checkpoint dir (evicted sessions live there)".to_owned(),
            ));
        }
        if self.history_ticks == Some(Some(0)) {
            return Err(EngineError::InvalidConfig(HISTORY_TICKS_ZERO.to_owned()));
        }
        let addr = self.addr.unwrap_or(defaults.addr);
        if let Some(maddr) = self.metrics_addr {
            if maddr == addr && addr.port() != 0 {
                return Err(EngineError::InvalidConfig(
                    "metrics_addr collides with the serve addr".to_owned(),
                ));
            }
        }
        Ok(ServerConfig {
            addr,
            metrics_addr: self.metrics_addr,
            n_shards: self.n_shards.unwrap_or(defaults.n_shards),
            queue_cap: self.queue_cap.unwrap_or(defaults.queue_cap),
            max_sessions: self.max_sessions.unwrap_or(defaults.max_sessions),
            checkpoint_dir: self.checkpoint_dir,
            session_config: self.session_config.unwrap_or(defaults.session_config),
            history_ticks: self.history_ticks.unwrap_or(defaults.history_ticks),
            shard_delay: self.shard_delay,
            slow_request_ms: self.slow_request_ms,
            slow_log: self.slow_log,
            evict_after: self.evict_after,
        })
    }
}

/// Why a zero [`ServerConfig::history_ticks`] is refused.
const HISTORY_TICKS_ZERO: &str = "history_ticks must be non-zero (the window is also the \
     recovery-base cadence, so zero would cut every epoch to one tick)";

/// Request-scoped context carried with a job from the connection
/// reactor to its shard worker.
struct RequestCtx {
    /// Client-supplied correlation id, echoed in the response and
    /// attached (as the `req` span argument) on both threads.
    id: Option<u64>,
    /// Wire-command label (see [`COMMAND_LABELS`]).
    command: &'static str,
    /// When the reactor enqueued the job; the worker's dequeue time
    /// minus this is the `queue_wait` phase.
    enqueued: Instant,
}

/// A worker's answer: the response plus the phases measured on the
/// worker thread.
pub(crate) struct WorkerReply {
    pub(crate) response: Response,
    pub(crate) queue_wait_ns: u64,
    pub(crate) execute_ns: u64,
    pub(crate) wal_ns: u64,
}

/// Where a worker's answer goes: back to the reactor's completion
/// queue, addressed by (connection, response slot). The reactor matches
/// it to the connection's ordered output queue, so responses flush in
/// request order even when shards finish out of order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplyTo {
    pub(crate) conn_id: u64,
    pub(crate) seq: u64,
}

/// A finished worker job travelling back to the reactor.
pub(crate) struct Completion {
    pub(crate) to: ReplyTo,
    pub(crate) reply: WorkerReply,
}

/// One command in flight to a shard worker.
struct Job {
    session: String,
    cmd: Command,
    /// The request frame the command was decoded from, as it arrived;
    /// the write-ahead log records it verbatim.
    frame: String,
    ctx: RequestCtx,
    reply: ReplyTo,
}

enum ShardMsg {
    Job(Job),
    /// Checkpoint every hosted session and exit.
    Shutdown,
}

struct Shard {
    sender: SyncSender<ShardMsg>,
    /// Commands currently queued (approximate; the `/metrics` gauge).
    depth: Arc<AtomicUsize>,
}

/// One hosted session's registry entry: the stats handle that feeds the
/// merged `/metrics` exposition, plus whether the session is currently
/// evicted to checkpoint storage (resident memory freed; the next
/// touching command restores it).
pub(crate) struct SessionEntry {
    pub(crate) name: String,
    pub(crate) stats: EngineStats,
    pub(crate) evicted: bool,
}

pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    /// The *resolved* serve address (never port 0).
    #[allow(dead_code)] // kept for diagnostics; the reactor owns the listener
    pub(crate) addr: SocketAddr,
    template: Database,
    shards: Vec<Shard>,
    pub(crate) shutting_down: AtomicBool,
    /// Commands rejected with `overloaded`.
    overloaded_total: AtomicU64,
    /// One entry per session ever opened (evicted ones included — the
    /// session *namespace* is bounded by `max_sessions`, resident
    /// memory by eviction).
    registry: Mutex<Vec<SessionEntry>>,
    /// Sessions evicted to checkpoint storage since start.
    evictions_total: AtomicU64,
    /// Evicted sessions restored by a touching command since start.
    restores_total: AtomicU64,
    /// Per-command phase histograms and outcome counters.
    pub(crate) requests: RequestStats,
    /// The structured slow-request log, when enabled.
    pub(crate) slow_log: Option<SlowLog>,
    /// Finished worker jobs waiting for the reactor to flush them.
    pub(crate) completions: Mutex<Vec<Completion>>,
    /// Write end of the reactor's wake pipe (a loopback socket pair):
    /// one byte here pulls the reactor out of `poll` so it notices new
    /// completions or the shutdown flag. Non-blocking; a full buffer
    /// means a wake is already pending, so the failed write is fine.
    wake: TcpStream,
}

impl Shared {
    /// Wakes the reactor out of `poll`. Called by a shard worker whose
    /// completion push made the queue non-empty, and by
    /// [`initiate_shutdown`].
    pub(crate) fn wake_reactor(&self) {
        // &TcpStream implements Write; WouldBlock means wakes are
        // already pending and the reactor will drain them.
        let _ = (&self.wake).write(&[1]);
    }
}

/// The serve-loop handle. Dropping it (or calling
/// [`LaharServer::shutdown`]) stops the service gracefully,
/// checkpointing every hosted session first.
pub struct LaharServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    /// Name of the reactor thread; see [`LaharServer::conn_thread_name`].
    conn_thread: String,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    metrics: Option<MetricsServer>,
}

/// Builds the reactor's wake channel: a connected loopback TCP pair
/// (bind an ephemeral listener, connect, accept, drop the listener).
/// std offers no `pipe(2)`, and a socket pair polls identically. Both
/// ends are non-blocking: the writer never stalls a worker, the reader
/// drains whatever is buffered.
fn wake_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let writer = TcpStream::connect(listener.local_addr()?)?;
    let (reader, _) = listener.accept()?;
    writer.set_nonblocking(true)?;
    reader.set_nonblocking(true)?;
    Ok((writer, reader))
}

impl LaharServer {
    /// Binds the configured address and starts serving sessions created
    /// from (schema-only clones of) `template`.
    pub fn start(config: ServerConfig, template: Database) -> Result<Self, EngineError> {
        if config.queue_cap == 0 {
            return Err(EngineError::InvalidConfig(
                "queue_cap must be non-zero (a zero-capacity queue rejects everything)".to_owned(),
            ));
        }
        if config.max_sessions == 0 {
            return Err(EngineError::InvalidConfig(
                "max_sessions must be non-zero (a zero cap rejects every open)".to_owned(),
            ));
        }
        // Two port-0 addresses never collide — the OS picks distinct
        // free ports for each bind.
        if config.metrics_addr == Some(config.addr) && config.addr.port() != 0 {
            return Err(EngineError::InvalidConfig(
                "metrics_addr collides with the serve addr".to_owned(),
            ));
        }
        if config.session_config.durability != Durability::None && config.checkpoint_dir.is_none() {
            return Err(EngineError::InvalidConfig(
                "durability requires a checkpoint dir (the write-ahead log lives there)".to_owned(),
            ));
        }
        if config.evict_after == Some(Duration::ZERO) {
            return Err(EngineError::InvalidConfig(
                "evict_after must be non-zero (zero would evict a session mid-conversation)"
                    .to_owned(),
            ));
        }
        if config.evict_after.is_some() && config.checkpoint_dir.is_none() {
            return Err(EngineError::InvalidConfig(
                "evict_after requires a checkpoint dir (evicted sessions live there)".to_owned(),
            ));
        }
        if config.history_ticks == Some(0) {
            return Err(EngineError::InvalidConfig(HISTORY_TICKS_ZERO.to_owned()));
        }
        for stream in template.streams() {
            if !stream.is_empty() {
                return Err(EngineError::InvalidConfig(
                    "the server template database must be schema-only (no recorded marginals)"
                        .to_owned(),
                ));
            }
        }
        // The crash harness arms torn-write faults in a *spawned*
        // server through the environment; a plain serve never has the
        // variable set.
        #[cfg(feature = "failpoints")]
        crate::failpoint::configure_from_env();
        let n_shards = if config.n_shards == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.n_shards
        };
        let listener = TcpListener::bind(config.addr)
            .map_err(|e| EngineError::ServerUnavailable(format!("bind {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| EngineError::ServerUnavailable(format!("local_addr: {e}")))?;

        let mut shards = Vec::with_capacity(n_shards);
        let mut receivers = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let (tx, rx) = sync_channel(config.queue_cap);
            shards.push(Shard {
                sender: tx,
                depth: Arc::new(AtomicUsize::new(0)),
            });
            receivers.push(rx);
        }
        let slow_log = match config.slow_request_ms {
            None => None,
            Some(ms) => Some(
                SlowLog::open(Duration::from_millis(ms), config.slow_log.as_deref())
                    .map_err(|e| EngineError::InvalidConfig(format!("slow log: {e}")))?,
            ),
        };
        let (wake_writer, wake_reader) = wake_pair()
            .map_err(|e| EngineError::ServerUnavailable(format!("reactor wake pipe: {e}")))?;
        let shared = Arc::new(Shared {
            config,
            addr,
            template,
            shards,
            shutting_down: AtomicBool::new(false),
            overloaded_total: AtomicU64::new(0),
            registry: Mutex::new(Vec::new()),
            evictions_total: AtomicU64::new(0),
            restores_total: AtomicU64::new(0),
            requests: RequestStats::new(),
            slow_log,
            completions: Mutex::new(Vec::new()),
            wake: wake_writer,
        });

        let mut workers = Vec::with_capacity(n_shards);
        for (i, rx) in receivers.into_iter().enumerate() {
            let shared = shared.clone();
            let depth = shared.shards[i].depth.clone();
            let handle = std::thread::Builder::new()
                .name(format!("lahar-shard-{i}"))
                .spawn(move || shard_worker(&shared, i, rx, &depth))
                .map_err(|e| EngineError::ServerUnavailable(format!("spawn shard {i}: {e}")))?;
            workers.push(handle);
        }

        let metrics = match shared.config.metrics_addr {
            None => None,
            Some(maddr) => {
                let metrics_shared = shared.clone();
                let health_shared = shared.clone();
                Some(MetricsServer::start_with_renderers(
                    maddr,
                    Arc::new(move || render_metrics(&metrics_shared)),
                    Arc::new(move || {
                        let registry = health_shared.registry.lock().expect("registry lock");
                        crate::expose::health_report(
                            registry.iter().map(|e| (e.name.as_str(), &e.stats)),
                        )
                    }),
                )?)
            }
        };

        // One readiness-driven reactor owns the listener and every
        // client socket: thousands of idle connections cost file
        // descriptors, not threads. The name keeps the `lahar-conn`
        // prefix so request traces still attribute `serve_request`
        // spans to the connection layer; the per-process server number
        // after it tells apart the servers one process hosts.
        static SERVERS_STARTED: AtomicU64 = AtomicU64::new(0);
        let conn_thread = format!(
            "lahar-conn-{}",
            SERVERS_STARTED.fetch_add(1, Ordering::Relaxed)
        );
        let reactor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(conn_thread.clone())
                .spawn(move || crate::reactor::run(listener, wake_reader, &shared))
                .map_err(|e| EngineError::ServerUnavailable(format!("spawn reactor: {e}")))?
        };

        Ok(Self {
            shared,
            addr,
            conn_thread,
            reactor: Some(reactor),
            workers,
            metrics,
        })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Name of the one thread serving this server's client connections
    /// (`lahar-conn-<n>`, `n` numbering the servers started in this
    /// process). Connections never get threads of their own.
    pub fn conn_thread_name(&self) -> &str {
        &self.conn_thread
    }

    /// The resolved metrics address, when exposition is enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(MetricsServer::addr)
    }

    /// Blocks until the serve loop exits — i.e. until a client sends
    /// `shutdown` (or another thread calls [`LaharServer::shutdown`] via
    /// a clone of the handle's internals). Joins every thread; hosted
    /// sessions have been checkpointed when this returns.
    pub fn join(mut self) -> Result<(), EngineError> {
        self.join_inner();
        Ok(())
    }

    /// Initiates graceful shutdown (idempotent) and waits for it to
    /// finish: every shard checkpoints its sessions, all threads join.
    pub fn shutdown(mut self) -> Result<(), EngineError> {
        initiate_shutdown(&self.shared);
        self.join_inner();
        Ok(())
    }

    fn join_inner(&mut self) {
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Drop the metrics endpoint last so `/metrics` stays scrapable
        // while sessions flush their final checkpoints.
        self.metrics = None;
    }
}

impl Drop for LaharServer {
    fn drop(&mut self) {
        initiate_shutdown(&self.shared);
        self.join_inner();
    }
}

/// Starts graceful shutdown: flags the service down, enqueues the
/// checkpoint-and-exit sentinel on every shard, and wakes the reactor
/// so it stops accepting and drains in-flight responses.
pub(crate) fn initiate_shutdown(shared: &Shared) {
    if shared.shutting_down.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    for shard in &shared.shards {
        // Blocking send: the sentinel must arrive even when the queue is
        // momentarily full. Workers drain queued commands first, so
        // accepted work is never silently dropped.
        let _ = shard.sender.send(ShardMsg::Shutdown);
    }
    shared.wake_reactor();
}

// ---------------------------------------------------------------------
// Request observability
// ---------------------------------------------------------------------

/// Wire-command labels in exposition order; `invalid` is the row for
/// frames that never parsed into a command.
const COMMAND_LABELS: [&str; 10] = [
    "ping",
    "open",
    "register",
    "stage",
    "stage_ticks",
    "tick",
    "series",
    "checkpoint",
    "shutdown",
    "invalid",
];

/// Request phases recorded per command (exposition label `phase`).
const PHASE_LABELS: [&str; 4] = ["queue_wait", "execute", "wal_append", "respond"];

/// Cap on distinct outcome codes tracked per command; later novel codes
/// fold into `other` (mirrors the fallback-reason cardinality bound).
const MAX_CODES_PER_COMMAND: usize = 12;

/// Slow-log rate bound: entries past this per-second cap are counted
/// and surfaced as `"suppressed"` on the next logged entry instead of
/// being written — a latency storm must not make the log the next
/// bottleneck.
const SLOW_LOG_MAX_PER_SEC: u32 = 100;

pub(crate) fn command_label(cmd: &Command) -> &'static str {
    match cmd {
        Command::Ping => "ping",
        Command::Open { .. } => "open",
        Command::Register { .. } => "register",
        Command::Stage { .. } => "stage",
        Command::StageTicks { .. } => "stage_ticks",
        Command::Tick { .. } => "tick",
        Command::Series { .. } => "series",
        Command::Checkpoint { .. } => "checkpoint",
        Command::Shutdown => "shutdown",
    }
}

fn label_index(label: &str) -> usize {
    COMMAND_LABELS
        .iter()
        .position(|l| *l == label)
        .expect("known command label")
}

pub(crate) fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A span carrying the request id as its `req` argument when present.
pub(crate) fn req_span(name: &'static str, id: Option<u64>) -> trace::Span {
    let span = trace::span(name);
    match id {
        Some(id) => span.with("req", id),
        None => span,
    }
}

thread_local! {
    /// Nanoseconds spent in write-ahead appends by the worker-thread
    /// command currently executing (the `wal_append` phase): reset per
    /// job by [`shard_worker`], accumulated by [`wal_append`].
    static WAL_NS: Cell<u64> = const { Cell::new(0) };
}

/// Per-command × per-phase duration histograms plus outcome counters,
/// exported as `lahar_server_request_duration_seconds{command,phase}`
/// and `lahar_server_requests_total{command,code}`.
pub(crate) struct RequestStats {
    /// One row per [`COMMAND_LABELS`] entry, one histogram per phase.
    durations: Mutex<Vec<[Histogram; PHASE_LABELS.len()]>>,
    /// One outcome-code map per command, bounded by
    /// [`MAX_CODES_PER_COMMAND`].
    codes: Mutex<Vec<BTreeMap<String, u64>>>,
}

impl RequestStats {
    fn new() -> Self {
        Self {
            durations: Mutex::new(
                (0..COMMAND_LABELS.len())
                    .map(|_| std::array::from_fn(|_| Histogram::default()))
                    .collect(),
            ),
            codes: Mutex::new(vec![BTreeMap::new(); COMMAND_LABELS.len()]),
        }
    }

    /// Records one finished request: all four phase durations (inline
    /// answers record zero worker phases) and its outcome code.
    pub(crate) fn record(
        &self,
        label: &'static str,
        phases_ns: [u64; PHASE_LABELS.len()],
        code: &str,
    ) {
        let idx = label_index(label);
        {
            let mut durations = self.durations.lock().expect("durations lock");
            for (h, ns) in durations[idx].iter_mut().zip(phases_ns) {
                h.record(ns);
            }
        }
        let mut codes = self.codes.lock().expect("codes lock");
        let per = &mut codes[idx];
        if per.len() >= MAX_CODES_PER_COMMAND && !per.contains_key(code) {
            *per.entry("other".to_owned()).or_insert(0) += 1;
        } else {
            *per.entry(code.to_owned()).or_insert(0) += 1;
        }
    }

    /// Renders both request metrics in Prometheus text format. Commands
    /// never seen emit nothing; a seen command emits every phase.
    fn to_prometheus(&self) -> String {
        use crate::expose::{push_header, push_histogram, push_label_value, push_sample};
        let mut out = String::with_capacity(2048);
        push_header(
            &mut out,
            "lahar_server_request_duration_seconds",
            "Server-side request latency by command and phase \
             (queue_wait / execute / wal_append / respond).",
            "histogram",
        );
        {
            let durations = self.durations.lock().expect("durations lock");
            for (ci, row) in durations.iter().enumerate() {
                if row.iter().all(|h| h.count() == 0) {
                    continue;
                }
                for (pi, h) in row.iter().enumerate() {
                    let labels = format!(
                        "command=\"{}\",phase=\"{}\"",
                        COMMAND_LABELS[ci], PHASE_LABELS[pi]
                    );
                    push_histogram(
                        &mut out,
                        "lahar_server_request_duration_seconds",
                        &labels,
                        &h.summarize(),
                    );
                }
            }
        }
        push_header(
            &mut out,
            "lahar_server_requests_total",
            "Requests handled, by command and outcome code (ok, or the error code).",
            "counter",
        );
        {
            let codes = self.codes.lock().expect("codes lock");
            for (ci, per) in codes.iter().enumerate() {
                for (code, count) in per {
                    let mut labels = format!("command=\"{}\",code=", COMMAND_LABELS[ci]);
                    push_label_value(&mut labels, code);
                    push_sample(
                        &mut out,
                        "lahar_server_requests_total",
                        &labels,
                        &count.to_string(),
                    );
                }
            }
        }
        out
    }
}

/// Everything the reactor needs to answer, meter, and slow-log one
/// request.
pub(crate) struct RequestOutcome {
    /// Command label, or `invalid` when the frame never parsed.
    pub(crate) label: &'static str,
    /// Echoed correlation id.
    pub(crate) id: Option<u64>,
    /// Target session, when the command named one.
    pub(crate) session: Option<String>,
    pub(crate) response: Response,
    pub(crate) queue_wait_ns: u64,
    pub(crate) execute_ns: u64,
    pub(crate) wal_ns: u64,
}

impl RequestOutcome {
    /// An answer produced on the reactor thread itself (pings, protocol
    /// errors, backpressure rejections): no worker phases.
    pub(crate) fn inline(
        label: &'static str,
        id: Option<u64>,
        session: Option<String>,
        response: Response,
    ) -> Self {
        Self {
            label,
            id,
            session,
            response,
            queue_wait_ns: 0,
            execute_ns: 0,
            wal_ns: 0,
        }
    }

    /// The outcome code the counters and slow log record: `ok` for
    /// every success shape, the error code otherwise.
    pub(crate) fn code(&self) -> &str {
        match &self.response {
            Response::Error { code, .. } => code.as_str(),
            _ => "ok",
        }
    }
}

/// Structured, rate-bounded slow-request log: one JSONL entry per
/// request whose phase total meets [`ServerConfig::slow_request_ms`].
pub(crate) struct SlowLog {
    threshold: Duration,
    sink: Mutex<SlowSink>,
}

struct SlowSink {
    out: Box<dyn std::io::Write + Send>,
    /// Start of the current one-second rate window.
    window: Instant,
    /// Entries written in the current window.
    in_window: u32,
    /// Entries dropped by the rate bound since the last written entry.
    suppressed: u64,
}

impl SlowLog {
    fn open(threshold: Duration, path: Option<&Path>) -> std::io::Result<Self> {
        let out: Box<dyn std::io::Write + Send> = match path {
            Some(path) => Box::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            ),
            None => Box::new(std::io::stderr()),
        };
        Ok(Self {
            threshold,
            sink: Mutex::new(SlowSink {
                out,
                window: Instant::now(),
                in_window: 0,
                suppressed: 0,
            }),
        })
    }

    /// Logs `outcome` when its phase total meets the threshold and the
    /// per-second rate bound allows another entry.
    pub(crate) fn observe(&self, outcome: &RequestOutcome, respond_ns: u64) {
        let total = outcome
            .queue_wait_ns
            .saturating_add(outcome.execute_ns)
            .saturating_add(outcome.wal_ns)
            .saturating_add(respond_ns);
        if Duration::from_nanos(total) < self.threshold {
            return;
        }
        let mut sink = self.sink.lock().expect("slow log lock");
        if sink.window.elapsed() >= Duration::from_secs(1) {
            sink.window = Instant::now();
            sink.in_window = 0;
        }
        if sink.in_window >= SLOW_LOG_MAX_PER_SEC {
            sink.suppressed += 1;
            return;
        }
        sink.in_window += 1;
        let suppressed = std::mem::take(&mut sink.suppressed);
        let ts_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
        let mut entry = String::with_capacity(192);
        entry.push_str("{\"ts_ms\":");
        entry.push_str(&ts_ms.to_string());
        entry.push_str(",\"id\":");
        match outcome.id {
            Some(id) => entry.push_str(&id.to_string()),
            None => entry.push_str("null"),
        }
        entry.push_str(",\"session\":");
        match &outcome.session {
            Some(session) => crate::json::push_string(&mut entry, session),
            None => entry.push_str("null"),
        }
        entry.push_str(",\"command\":\"");
        entry.push_str(outcome.label);
        entry.push('"');
        for (phase, ns) in [
            ("queue_wait_ns", outcome.queue_wait_ns),
            ("execute_ns", outcome.execute_ns),
            ("wal_append_ns", outcome.wal_ns),
            ("respond_ns", respond_ns),
        ] {
            entry.push_str(",\"");
            entry.push_str(phase);
            entry.push_str("\":");
            entry.push_str(&ns.to_string());
        }
        entry.push_str(",\"outcome\":");
        crate::json::push_string(&mut entry, outcome.code());
        if suppressed > 0 {
            entry.push_str(",\"suppressed\":");
            entry.push_str(&suppressed.to_string());
        }
        entry.push_str("}\n");
        let _ = sink.out.write_all(entry.as_bytes());
        let _ = sink.out.flush();
    }
}

/// What [`dispatch`] did with one parsed frame.
pub(crate) enum Dispatched {
    /// Answered on the reactor thread itself (protocol errors, pings,
    /// shutdown acks, backpressure rejections): flush as-is, zero
    /// worker phases.
    Inline(RequestOutcome),
    /// Enqueued to the session's shard, addressed back to
    /// `(conn_id, seq)`; the worker's [`Completion`] closes the slot.
    /// The metadata here is what the reactor needs to meter and
    /// slow-log the answer when it arrives.
    Enqueued {
        label: &'static str,
        id: Option<u64>,
        session: String,
    },
}

/// Routes one parsed frame on the reactor thread: protocol errors and
/// server-level commands are answered inline; session commands travel
/// to their shard's bounded queue, together with the `frame` text they
/// were decoded from and wrapped in a [`RequestCtx`], and the
/// worker's phase timings come back as a [`Completion`] addressed to
/// `(conn_id, seq)`. Never blocks.
pub(crate) fn dispatch(
    shared: &Shared,
    parsed: Result<(Command, Option<u64>), EngineError>,
    frame: &str,
    conn_id: u64,
    seq: u64,
) -> Dispatched {
    let (cmd, id) = match parsed {
        Ok(pair) => pair,
        Err(e) => {
            return Dispatched::Inline(RequestOutcome::inline(
                "invalid",
                None,
                None,
                Response::Error {
                    code: WireCode::Protocol,
                    message: e.to_string(),
                },
            ))
        }
    };
    let label = command_label(&cmd);
    let session = match &cmd {
        Command::Ping => {
            return Dispatched::Inline(RequestOutcome::inline(
                label,
                id,
                None,
                Response::Pong {
                    version: PROTOCOL_VERSION,
                },
            ))
        }
        Command::Shutdown => {
            // No side effects here: the reactor initiates the teardown
            // only after this ack has been written and flushed.
            return Dispatched::Inline(RequestOutcome::inline(
                label,
                id,
                None,
                Response::ShuttingDown,
            ));
        }
        other => other.session().expect("session command").to_owned(),
    };
    let shutting_down = || Response::Error {
        code: WireCode::ShuttingDown,
        message: "server is shutting down".to_owned(),
    };
    if shared.shutting_down.load(Ordering::SeqCst) {
        return Dispatched::Inline(RequestOutcome::inline(
            label,
            id,
            Some(session),
            shutting_down(),
        ));
    }
    let shard = &shared.shards[shard_of(&session, shared.shards.len())];
    let job = ShardMsg::Job(Job {
        session: session.clone(),
        cmd,
        frame: frame.to_owned(),
        ctx: RequestCtx {
            id,
            command: label,
            enqueued: Instant::now(),
        },
        reply: ReplyTo { conn_id, seq },
    });
    // Count the enqueue *before* try_send: the worker decrements on
    // dequeue, and incrementing afterwards would let a fast dequeue's
    // fetch_sub land first and wrap the gauge below zero.
    shard.depth.fetch_add(1, Ordering::SeqCst);
    match shard.sender.try_send(job) {
        Ok(()) => Dispatched::Enqueued { label, id, session },
        Err(TrySendError::Full(_)) => {
            shard.depth.fetch_sub(1, Ordering::SeqCst);
            shared.overloaded_total.fetch_add(1, Ordering::SeqCst);
            Dispatched::Inline(RequestOutcome::inline(
                label,
                id,
                Some(session),
                Response::Error {
                    code: WireCode::Overloaded,
                    message: format!(
                        "shard queue full ({} pending); back off and retry",
                        shared.config.queue_cap
                    ),
                },
            ))
        }
        Err(TrySendError::Disconnected(_)) => {
            shard.depth.fetch_sub(1, Ordering::SeqCst);
            Dispatched::Inline(RequestOutcome::inline(
                label,
                id,
                Some(session),
                shutting_down(),
            ))
        }
    }
}

/// FNV-1a over the session name. Checkpoint filenames (and shard
/// placement) must be a fixed function of the session string across
/// builds — std's `DefaultHasher` algorithm is explicitly unspecified,
/// and a toolchain upgrade changing it would make every existing
/// checkpoint silently unfindable on restart.
fn fnv1a(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in s.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Stable session→shard placement (stable across restarts too, though
/// only checkpoints — not shard placement — need to survive those).
fn shard_of(session: &str, n_shards: usize) -> usize {
    (fnv1a(session) % n_shards as u64) as usize
}

/// The filename stem shared by a session's checkpoint generations
/// (`{stem}.g{gen:08}.ckpt.json`) and WAL segments
/// (`{stem}.g{gen:08}.wal`): a sanitized name for readability plus a
/// stable hash for uniqueness (session names come off the wire and must
/// not traverse paths).
fn session_stem(session: &str) -> String {
    let safe: String = session
        .chars()
        .take(48)
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{safe}-{:016x}", fnv1a(session))
}

// ---------------------------------------------------------------------
// Shard workers
// ---------------------------------------------------------------------

/// One hosted session plus the live per-query series the `series`
/// command answers from.
struct Hosted {
    session: RealTimeSession,
    /// Query name → index.
    by_name: HashMap<String, usize>,
    /// Per query index: μ(q@t) for t = 0..now, accumulated from alerts
    /// (and carried by checkpoints, so a restore never recomputes it).
    series: Vec<Vec<f64>>,
    /// Filename stem of this session's checkpoint generations and WAL
    /// segments (see [`session_stem`]).
    stem: String,
    /// Write-ahead appender; `None` when durability is
    /// [`Durability::None`], no checkpoint dir is configured, or the
    /// log failed (`wal_broken`).
    wal: Option<WalWriter>,
    /// An append failed mid-frame: the segment may end in garbage that
    /// would orphan anything written after it, so mutations are refused
    /// until a restart re-establishes a clean log.
    wal_broken: bool,
    /// Newest persisted checkpoint generation (0 = none yet).
    persisted_gen: u64,
    /// Session time of that generation.
    persisted_t: u32,
    /// When a command last touched this session; the eviction sweep
    /// compares this against [`ServerConfig::evict_after`].
    last_touched: Instant,
}

impl Hosted {
    fn fresh(session: RealTimeSession, stem: String) -> Self {
        Self {
            session,
            by_name: HashMap::new(),
            series: Vec::new(),
            stem,
            wal: None,
            wal_broken: false,
            persisted_gen: 0,
            persisted_t: 0,
            last_touched: Instant::now(),
        }
    }

    /// Stops logging after a failed append or rotation: the log may now
    /// end in a partial frame, or sit in a segment that a newer
    /// generation closed, so mutations are refused until a restart
    /// re-establishes a clean log.
    fn break_wal(&mut self) {
        self.wal = None;
        self.wal_broken = true;
        self.session.stats().set_wal_broken(true);
    }

    fn record_alerts(&mut self, alerts: &[Alert]) {
        for alert in alerts {
            let idx = alert.query.index();
            if let Some(series) = self.series.get_mut(idx) {
                series.push(alert.probability);
            }
        }
    }
}

fn shard_worker(
    shared: &Arc<Shared>,
    idx: usize,
    rx: Receiver<ShardMsg>,
    depth: &Arc<AtomicUsize>,
) {
    let mut sessions: HashMap<String, Hosted> = HashMap::new();
    // With tiering enabled the blocking recv gains a timeout so an idle
    // shard still wakes to sweep; a busy shard sweeps between jobs
    // instead (recv_timeout never times out under sustained load). The
    // sweep interval is a quarter of the idle threshold, clamped so it
    // neither spins nor lets a session overstay by much.
    let sweep = shared
        .config
        .evict_after
        .map(|idle| (idle / 4).clamp(Duration::from_millis(50), Duration::from_secs(1)));
    let mut last_sweep = Instant::now();
    loop {
        let msg = match sweep {
            None => match rx.recv() {
                Ok(msg) => msg,
                Err(_) => break,
            },
            Some(interval) => match rx.recv_timeout(interval) {
                Ok(msg) => msg,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    evict_idle_sessions(shared, &mut sessions);
                    last_sweep = Instant::now();
                    continue;
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
            },
        };
        match msg {
            ShardMsg::Shutdown => break,
            ShardMsg::Job(job) => {
                depth.fetch_sub(1, Ordering::SeqCst);
                let queue_wait_ns = elapsed_ns(job.ctx.enqueued);
                let span = req_span("shard_dequeue", job.ctx.id).with("shard", idx as u64);
                let _ = job.ctx.command; // carried for future routing/logging
                if let Some(delay) = shared.config.shard_delay {
                    std::thread::sleep(delay);
                }
                WAL_NS.set(0);
                let started = Instant::now();
                let response =
                    handle_command(shared, &mut sessions, &job.session, job.cmd, &job.frame);
                let wal_ns = WAL_NS.get();
                let execute_ns = elapsed_ns(started).saturating_sub(wal_ns);
                drop(span);
                let was_empty = {
                    let mut completions = shared.completions.lock().expect("completions lock");
                    completions.push(Completion {
                        to: job.reply,
                        reply: WorkerReply {
                            response,
                            queue_wait_ns,
                            execute_ns,
                            wal_ns,
                        },
                    });
                    completions.len() == 1
                };
                // Only the push that makes the queue non-empty wakes the
                // reactor: any later push lands before the reactor's next
                // take, and that take is already owed a wake (see the
                // drain-then-take order in `reactor::run`).
                if was_empty {
                    shared.wake_reactor();
                }
                if let Some(interval) = sweep {
                    if last_sweep.elapsed() >= interval {
                        evict_idle_sessions(shared, &mut sessions);
                        last_sweep = Instant::now();
                    }
                }
            }
        }
    }
    // Graceful exit: flush a final checkpoint per hosted session.
    for (name, hosted) in &mut sessions {
        if let Err(e) = write_checkpoint(shared, hosted) {
            eprintln!("lahar-serve: final checkpoint for session '{name}' failed: {e}");
        }
    }
}

/// Checkpoints-and-drops every hosted session on this shard idle past
/// [`ServerConfig::evict_after`], freeing its resident memory.
///
/// With an active write-ahead log the drop alone suffices: the newest
/// persisted generation plus the uncovered log tail already reconstruct
/// the session bit-identically (the restore is exactly `open`'s proven
/// recovery path). Without one, a fresh checkpoint generation is
/// written first, and a write failure aborts the eviction — dropping
/// state that exists nowhere else would not be tiering, it would be
/// data loss. Poisoned and log-broken sessions stay resident: their
/// recovery needs the live state.
fn evict_idle_sessions(shared: &Shared, sessions: &mut HashMap<String, Hosted>) {
    let Some(idle) = shared.config.evict_after else {
        return;
    };
    let due: Vec<String> = sessions
        .iter()
        .filter(|(_, h)| {
            h.last_touched.elapsed() >= idle && !h.wal_broken && !h.session.is_poisoned()
        })
        .map(|(name, _)| name.clone())
        .collect();
    for name in due {
        let mut hosted = sessions.remove(&name).expect("listed above");
        if hosted.wal.is_none() {
            if let Err(e) = write_checkpoint(shared, &mut hosted) {
                eprintln!("lahar-serve: eviction checkpoint for session '{name}' failed: {e}");
                sessions.insert(name, hosted);
                continue;
            }
        }
        {
            let mut registry = shared.registry.lock().expect("registry lock");
            if let Some(entry) = registry.iter_mut().find(|e| e.name == name) {
                entry.evicted = true;
            }
        }
        shared.evictions_total.fetch_add(1, Ordering::SeqCst);
    }
}

/// `ckpt` carrying every hosted query's series cut to the checkpoint
/// clock: an auto-checkpoint can land mid-epoch, before the alerts of
/// the epoch's later ticks extended the series.
fn with_series(mut ckpt: Checkpoint, series: &[Vec<f64>]) -> Checkpoint {
    let t = ckpt.t() as usize;
    ckpt.series = Some(
        series
            .iter()
            .map(|s| s[..t.min(s.len())].to_vec())
            .collect(),
    );
    ckpt
}

/// Takes a checkpoint and persists it as the next generation when a
/// checkpoint dir is set.
fn write_checkpoint(shared: &Shared, hosted: &mut Hosted) -> Result<Checkpoint, EngineError> {
    let ckpt = with_series(hosted.session.checkpoint()?, &hosted.series);
    if let Some(dir) = &shared.config.checkpoint_dir {
        persist_generation(dir, hosted, &ckpt)?;
    }
    Ok(ckpt)
}

/// Persists `ckpt` atomically as generation `persisted_gen + 1`
/// (tmp + fsync + rename), rotates the WAL onto the new generation's
/// segment, and garbage-collects files no longer needed for recovery.
/// The *previous* generation is kept as the fallback for a torn newest
/// one, together with every WAL segment from that fallback onward.
///
/// A failed write or rotation breaks an active log. After a failed
/// rotation, nothing may be appended to the segment the new generation
/// closed, because replay decodes only its last record (see
/// [`replay_wal`]). After a failed write, the segment would go on
/// collecting acknowledged records that a later generation, captured
/// at the older crossing, would close — and replay would skip them.
fn persist_generation(
    dir: &Path,
    hosted: &mut Hosted,
    ckpt: &Checkpoint,
) -> Result<(), EngineError> {
    let gen = hosted.persisted_gen + 1;
    if let Err(e) = checkpoint::write_generation(dir, &hosted.stem, gen, ckpt) {
        if hosted.wal.is_some() {
            hosted.break_wal();
        }
        return Err(EngineError::DurabilityIo(format!(
            "checkpoint generation {gen}: {e}"
        )));
    }
    hosted.persisted_gen = gen;
    hosted.persisted_t = ckpt.t();
    if let Some(w) = &mut hosted.wal {
        if let Err(e) = w.rotate(gen) {
            hosted.break_wal();
            return Err(EngineError::DurabilityIo(format!(
                "wal rotate to g{gen}: {e}"
            )));
        }
    }
    let keep_from = gen.saturating_sub(1);
    checkpoint::gc_generations(dir, &hosted.stem, keep_from);
    wal::gc_segments(dir, &hosted.stem, keep_from);
    hosted
        .session
        .stats()
        .set_wal_segments(wal::list_segments(dir, &hosted.stem).len() as u64);
    Ok(())
}

/// Persists the checkpoint the session captured at a
/// [`crate::SessionConfig::checkpoint_interval`] crossing, if it is
/// newer than the last persisted generation. This is the only automatic
/// persist: shutdown, eviction and the `checkpoint` command write their
/// own generations. `last_checkpoint` holds only an interval capture, a
/// `checkpoint`-command capture (persisted as it was taken) or the
/// restored checkpoint (already persisted); the session's recovery base
/// is kept apart from it and is never written.
fn persist_auto_checkpoint(shared: &Shared, hosted: &mut Hosted) -> Result<(), EngineError> {
    let Some(dir) = &shared.config.checkpoint_dir else {
        return Ok(());
    };
    let Some(ckpt) = hosted.session.last_checkpoint() else {
        return Ok(());
    };
    if hosted.persisted_gen > 0 && ckpt.t() <= hosted.persisted_t {
        return Ok(());
    }
    let ckpt = with_series(ckpt.clone(), &hosted.series);
    persist_generation(dir, hosted, &ckpt)
}

/// The session config hosted sessions actually run under: the template,
/// minus the metrics endpoint the server itself owns.
fn hosted_config(shared: &Shared) -> SessionConfig {
    let mut config = shared.config.session_config;
    config.metrics_addr = None;
    config
}

/// A new hosted session with the server's history window.
fn fresh_session(shared: &Shared, config: SessionConfig) -> Result<RealTimeSession, EngineError> {
    let mut session = RealTimeSession::with_config(shared.template.clone(), config)?;
    session.retain_history(shared.config.history_ticks)?;
    Ok(session)
}

/// Fetches or creates/restores the named session on this shard. Only
/// the `open` handler calls this; every other command requires the
/// session to already exist.
///
/// Restore is a three-step recovery, not a single file read: (1) scan
/// checkpoint generations newest-first, quarantining any that fail
/// their envelope checksum, and take each query's series from the
/// generation; (2) replay the uncovered write-ahead tail on top of the
/// restored snapshot, extending the series; (3) if anything was
/// replayed — or a segment ended torn, a generation was quarantined, or
/// the generation predates series (format 6, whose series is stepped
/// once from its history) — persist a fresh generation so the on-disk
/// state converges again.
fn open_session<'m>(
    shared: &Shared,
    sessions: &'m mut HashMap<String, Hosted>,
    name: &str,
) -> Result<(&'m mut Hosted, bool), EngineError> {
    // Entry-style would borrow `sessions` for the whole call; a plain
    // contains_key keeps the construction path readable.
    if !sessions.contains_key(name) {
        let config = hosted_config(shared);
        let stem = session_stem(name);
        let mut was_restored = false;
        let hosted = match &shared.config.checkpoint_dir {
            None => Hosted::fresh(fresh_session(shared, config)?, stem),
            Some(dir) => {
                let loaded = checkpoint::load_newest(dir, &stem)?;
                let quarantined = loaded.as_ref().map_or(0, |l| l.quarantined.len());
                let mut series_rebuilt = false;
                let mut hosted = match loaded {
                    None => Hosted::fresh(fresh_session(shared, config)?, stem),
                    Some(l) => {
                        was_restored = true;
                        let mut session = RealTimeSession::restore_with_config(
                            shared.template.clone(),
                            &l.checkpoint,
                            config,
                        )?;
                        let series = match l.checkpoint.series {
                            Some(series) => series,
                            None => {
                                series_rebuilt = true;
                                session.series_from_history()?
                            }
                        };
                        let t = l.checkpoint.t as usize;
                        if series.len() != l.checkpoint.queries.len()
                            || series.iter().any(|s| s.len() != t)
                        {
                            return Err(EngineError::CheckpointCorrupt(format!(
                                "checkpoint series do not cover its {} queries over {t} ticks",
                                l.checkpoint.queries.len()
                            )));
                        }
                        session.retain_history(shared.config.history_ticks)?;
                        let by_name = l
                            .checkpoint
                            .queries
                            .iter()
                            .enumerate()
                            .map(|(idx, q)| (q.name.clone(), idx))
                            .collect();
                        Hosted {
                            session,
                            by_name,
                            series,
                            stem,
                            wal: None,
                            wal_broken: false,
                            persisted_gen: l.gen,
                            persisted_t: l.checkpoint.t,
                            last_touched: Instant::now(),
                        }
                    }
                };
                if quarantined > 0 {
                    hosted
                        .session
                        .stats()
                        .record_checkpoint_quarantined(quarantined as u64);
                }
                let replay = replay_wal(dir, &mut hosted)?;
                if replay.ticks > 0 {
                    hosted.session.stats().record_wal_replayed(replay.ticks);
                    was_restored = true;
                }
                if config.durability != Durability::None {
                    let writer = WalWriter::open(
                        dir,
                        &hosted.stem,
                        hosted.persisted_gen,
                        replay.next_seq,
                        config.durability,
                    )
                    .map_err(|e| EngineError::DurabilityIo(format!("wal open: {e}")))?
                    .with_stats(hosted.session.stats().clone());
                    hosted.wal = Some(writer);
                }
                // Converge the on-disk state: a replayed tail, a torn
                // segment end, or a quarantined generation all mean the
                // newest good checkpoint lags (or trails garbage) — a
                // fresh generation resets the recovery baseline and
                // rotates the log off any torn segment, so new appends
                // never land after garbage.
                if replay.ticks > 0
                    || replay.applied > 0
                    || replay.torn
                    || replay.legacy
                    || series_rebuilt
                    || quarantined > 0
                {
                    write_checkpoint(shared, &mut hosted)?;
                } else {
                    hosted
                        .session
                        .stats()
                        .set_wal_segments(wal::list_segments(dir, &hosted.stem).len() as u64);
                }
                hosted
            }
        };
        {
            let mut registry = shared.registry.lock().expect("registry lock");
            match registry.iter_mut().find(|e| e.name == name) {
                Some(entry) => {
                    // Re-materializing an evicted session: swap in the
                    // fresh stats handle (the old session's is gone)
                    // and count the restore.
                    entry.stats = hosted.session.stats().clone();
                    if std::mem::take(&mut entry.evicted) {
                        shared.restores_total.fetch_add(1, Ordering::SeqCst);
                    }
                }
                None => registry.push(SessionEntry {
                    name: name.to_owned(),
                    stats: hosted.session.stats().clone(),
                    evicted: false,
                }),
            }
        }
        sessions.insert(name.to_owned(), hosted);
        return Ok((sessions.get_mut(name).expect("just inserted"), was_restored));
    }
    Ok((sessions.get_mut(name).expect("checked"), false))
}

/// What [`replay_wal`] recovered.
#[derive(Debug, Default)]
struct WalReplay {
    /// Ticks closed during replay.
    ticks: u64,
    /// Non-tick records applied (staging, registration).
    applied: u64,
    /// Whether any segment ended in a torn frame (discarded).
    torn: bool,
    /// Whether any record came from a version-1 segment, which new
    /// appends must not extend.
    legacy: bool,
    /// One past the highest intact sequence number seen (the opened
    /// writer continues from here).
    next_seq: u64,
}

/// Replays every uncovered write-ahead record onto the restored
/// session through [`apply`], the path live commands take, so the
/// hosted per-query series extends exactly as it did live.
///
/// Coverage: staging and registration records in segments *older* than
/// the restored generation are captured by the checkpoint itself and are
/// skipped. Tick records are self-aligning against the session clock — a
/// record closing `t0 .. t0 + n` replays only the suffix past `now()`,
/// which handles both fully-covered records and the one straddling
/// record an auto-checkpoint can split (the snapshot lands mid-epoch,
/// covering a prefix of the record's ticks). That straddling record can
/// only be the last one of a segment older than the restored generation
/// — the command whose interval crossing the generation captured; the
/// log rotates right after the persist, or breaks, and a failed
/// persist breaks it too — so the older records are not decoded at all,
/// and a restore does not grow with the ticks logged between two
/// generations. Their headers are still checked: a record logged past
/// the restored clock in such a segment, or a tick record starting past
/// the session clock, would be replayed at the wrong tick, so either is
/// refused as corrupt rather than applied.
fn replay_wal(dir: &Path, hosted: &mut Hosted) -> Result<WalReplay, EngineError> {
    let restored_gen = hosted.persisted_gen;
    let restored_t = u64::from(hosted.session.now());
    let mut replay = WalReplay::default();
    for (gen, path) in wal::list_segments(dir, &hosted.stem) {
        let read = wal::read_segment(&path)
            .map_err(|e| EngineError::CheckpointCorrupt(format!("read wal {path:?}: {e}")))?;
        if read.torn {
            eprintln!("lahar-serve: discarding torn tail of wal segment {path:?}");
            replay.torn = true;
        }
        let covered = if gen < restored_gen {
            if let Some(late) = read.records.iter().find(|r| r.t0 > restored_t) {
                return Err(EngineError::CheckpointCorrupt(format!(
                    "wal record {} at t0 = {} in {path:?} lies past generation {restored_gen} \
                     (t = {restored_t})",
                    late.seq, late.t0
                )));
            }
            read.records.len().saturating_sub(1)
        } else {
            0
        };
        for record in read.records.into_iter().skip(covered) {
            replay.next_seq = replay.next_seq.max(record.seq + 1);
            let db = hosted.session.database();
            let mutation = match record.op {
                WalOp::Frame(frame) => {
                    let (cmd, _) = crate::protocol::parse_request(&frame).map_err(|e| {
                        EngineError::CheckpointCorrupt(format!("wal frame {}: {e}", record.seq))
                    })?;
                    mutation(db, cmd)?
                }
                WalOp::Staged(ms) => {
                    replay.legacy = true;
                    Mutation::Stage(resolve_indexed(db, ms)?)
                }
                WalOp::Ticks(ticks) => {
                    replay.legacy = true;
                    Mutation::Ticks(
                        ticks
                            .into_iter()
                            .map(|tick| resolve_indexed(db, tick))
                            .collect::<Result<_, _>>()?,
                    )
                }
                WalOp::Register { name, query } => {
                    replay.legacy = true;
                    Mutation::Register { name, query }
                }
            };
            let mutation = match mutation {
                Mutation::Register { ref name, .. }
                    if gen < restored_gen || hosted.by_name.contains_key(name) =>
                {
                    continue
                }
                Mutation::Stage(_) if gen < restored_gen => continue,
                Mutation::Ticks(mut ticks) => {
                    let now = u64::from(hosted.session.now());
                    if record.t0 > now {
                        return Err(EngineError::CheckpointCorrupt(format!(
                            "wal tick record {} starts at t0 = {} past the session clock {now}",
                            record.seq, record.t0
                        )));
                    }
                    let covered = usize::try_from(now - record.t0).unwrap_or(usize::MAX);
                    if covered >= ticks.len() {
                        continue; // fully covered by the checkpoint
                    }
                    ticks.drain(..covered);
                    replay.ticks += ticks.len() as u64;
                    Mutation::Ticks(ticks)
                }
                other => {
                    replay.applied += 1;
                    other
                }
            };
            apply(hosted, mutation)?;
        }
    }
    Ok(replay)
}

/// Resolves version-1 logged index+probability marginals back into
/// staging pairs.
fn resolve_indexed(
    db: &Database,
    ms: Vec<WalMarginal>,
) -> Result<Vec<(StreamId, Marginal)>, EngineError> {
    ms.into_iter()
        .map(|m| {
            let id = db.stream_id_at(m.stream).ok_or_else(|| {
                EngineError::CheckpointCorrupt(format!(
                    "wal references stream index {} beyond the database",
                    m.stream
                ))
            })?;
            let marginal = Marginal::new(db.streams()[m.stream].domain(), m.probs)?;
            Ok((id, marginal))
        })
        .collect()
}

/// Appends the request frame that caused a mutation to the session's
/// write-ahead log (no-op without one), honouring append-before-ack: an
/// I/O failure returns the error response the caller must send
/// *instead of* the ack, and breaks the log — the segment may now end in
/// a partial frame, and appending past it would silently orphan every
/// later record at recovery time.
fn wal_append(hosted: &mut Hosted, t0: u64, frame: &str) -> Result<(), Response> {
    let Some(w) = &mut hosted.wal else {
        return Ok(());
    };
    let started = Instant::now();
    let result = w.append(t0, frame);
    WAL_NS.with(|ns| ns.set(ns.get().saturating_add(elapsed_ns(started))));
    match result {
        Ok(_) => Ok(()),
        Err(e) => {
            hosted.break_wal();
            Err(engine_error(EngineError::DurabilityIo(format!(
                "wal append: {e}"
            ))))
        }
    }
}

/// Registers a query on the hosted session. The session's fast-forward
/// through the closed ticks yields the query's answers so far, which
/// become the `series` prefix, so `series` always starts at t = 0. Past
/// the session's history window the session refuses
/// ([`EngineError::HistoryRetired`]), before anything is logged.
fn register_query(hosted: &mut Hosted, name: &str, query: &str) -> Result<usize, EngineError> {
    let (id, prefix) = hosted.session.register_with_series(name, query)?;
    let idx = id.index();
    debug_assert_eq!(idx, hosted.series.len());
    hosted.by_name.insert(name.to_owned(), idx);
    hosted.series.push(prefix);
    Ok(idx)
}

/// Closes a whole batch of ticks, one epoch at a time so that a
/// recoverable mid-epoch fault (worker panic, deadline, injected
/// failpoint) only ever interrupts the epoch currently in flight:
/// recovery re-completes it bit-identically and the loop carries on with
/// the rest of the batch, so one bad tick never takes the server down.
/// Every closed tick's alerts are recorded, so the hosted per-query
/// series stays exact across faults.
fn tick_epoch_with_recovery(
    hosted: &mut Hosted,
    ticks: Vec<Vec<(StreamId, Marginal)>>,
) -> Result<Vec<Alert>, EngineError> {
    let _span = trace::span("tick_epoch").with("ticks", ticks.len() as u64);
    let mut all = Vec::with_capacity(ticks.len());
    let mut queue = ticks.into_iter();
    let mut remaining = queue.len();
    while remaining > 0 {
        let chunk_len = hosted.session.epoch_chunk_len(remaining);
        let chunk: Vec<_> = queue.by_ref().take(chunk_len).collect();
        remaining -= chunk_len;
        let alerts = match hosted.session.tick_epoch(chunk) {
            Ok(alerts) => alerts,
            Err(e) if e.is_recoverable() => hosted.session.recover()?,
            Err(e) => return Err(e),
        };
        hosted.record_alerts(&alerts);
        all.extend(alerts);
    }
    Ok(all)
}

fn wire_alerts(alerts: &[Alert]) -> Vec<WireAlert> {
    alerts
        .iter()
        .map(|a| WireAlert {
            query: a.query.index(),
            name: a.name.to_string(),
            t: a.t,
            probability: a.probability,
        })
        .collect()
}

/// Resolves a wire marginal to a `(StreamId, Marginal)` staging pair,
/// moving its probabilities into the marginal. Names are only looked
/// up, never interned: the interner is shared by every hosted session,
/// so interning keys off the wire would let bogus frames grow it
/// without bound.
fn resolve_marginal(db: &Database, m: WireMarginal) -> Result<(StreamId, Marginal), EngineError> {
    let interner = db.interner();
    let unknown = || {
        EngineError::Protocol(format!(
            "unknown stream {}({})",
            m.stream_type,
            m.key.join(", ")
        ))
    };
    let stream_type = interner.lookup(&m.stream_type).ok_or_else(unknown)?;
    let key = m
        .key
        .iter()
        .map(|k| interner.lookup(k).map(Value::Str))
        .collect::<Option<Box<[_]>>>()
        .ok_or_else(unknown)?;
    let id = db
        .stream_id(&StreamKey { stream_type, key })
        .ok_or_else(unknown)?;
    let marginal = Marginal::new(db.streams()[id.index()].domain(), m.probs)?;
    Ok((id, marginal))
}

fn resolve_batch(
    db: &Database,
    marginals: Vec<WireMarginal>,
) -> Result<Vec<(StreamId, Marginal)>, EngineError> {
    marginals
        .into_iter()
        .map(|m| resolve_marginal(db, m))
        .collect()
}

/// A state change resolved against the session's database: what a live
/// command and a replayed log record both come down to.
enum Mutation {
    /// A query registered mid-stream.
    Register { name: String, query: String },
    /// Marginals staged with the tick left open.
    Stage(Vec<(StreamId, Marginal)>),
    /// Closed ticks, oldest first: element `i` holds the marginals of
    /// tick `t0 + i` (an empty one closes a tick over whatever was
    /// staged, every other stream at ⊥).
    Ticks(Vec<Vec<(StreamId, Marginal)>>),
}

/// The mutation a session command asks for. `stage` with `tick: true`
/// and a bare `tick` are one-tick epochs, so every closed tick goes
/// through [`tick_epoch_with_recovery`].
fn mutation(db: &Database, cmd: Command) -> Result<Mutation, EngineError> {
    Ok(match cmd {
        Command::Register { name, query, .. } => Mutation::Register { name, query },
        Command::Stage {
            marginals, tick, ..
        } => {
            let batch = resolve_batch(db, marginals)?;
            if tick {
                Mutation::Ticks(vec![batch])
            } else {
                Mutation::Stage(batch)
            }
        }
        Command::StageTicks { ticks, .. } => {
            let ticks = ticks
                .into_iter()
                .map(|tick| resolve_batch(db, tick))
                .collect::<Result<Vec<_>, _>>()?;
            if ticks.is_empty() {
                return Err(EngineError::Protocol(
                    "'ticks' must close at least one tick".to_owned(),
                ));
            }
            Mutation::Ticks(ticks)
        }
        Command::Tick { .. } => Mutation::Ticks(vec![Vec::new()]),
        other => {
            return Err(EngineError::Protocol(format!(
                "'{}' changes no session state",
                command_label(&other)
            )))
        }
    })
}

/// What applying a [`Mutation`] produced.
enum Applied {
    Registered(usize),
    Staged(usize),
    Ticked(Vec<Alert>),
}

/// Applies one mutation to a hosted session: the one apply path, taken
/// by live commands and by write-ahead replay alike. Logging the frame
/// and persisting auto-checkpoints are the live caller's business.
fn apply(hosted: &mut Hosted, mutation: Mutation) -> Result<Applied, EngineError> {
    match mutation {
        Mutation::Register { name, query } => {
            register_query(hosted, &name, &query).map(Applied::Registered)
        }
        Mutation::Stage(batch) => {
            let n = batch.len();
            hosted.session.stage_batch(batch)?;
            Ok(Applied::Staged(n))
        }
        Mutation::Ticks(ticks) => tick_epoch_with_recovery(hosted, ticks).map(Applied::Ticked),
    }
}

fn engine_error(e: EngineError) -> Response {
    let code = match &e {
        EngineError::Protocol(_) => WireCode::BadRequest,
        EngineError::SessionPoisoned => WireCode::Poisoned,
        EngineError::DurabilityIo(_) => WireCode::Durability,
        EngineError::HistoryRetired { .. } => WireCode::HistoryRetired,
        _ => WireCode::Engine,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

/// Executes one session command; `frame` is the request as it arrived,
/// logged verbatim when the command mutates the session.
fn handle_command(
    shared: &Shared,
    sessions: &mut HashMap<String, Hosted>,
    session_name: &str,
    cmd: Command,
    frame: &str,
) -> Response {
    // Session ops can panic (they also run user-ish query compilation);
    // a panic must poison one command, not the shard thread.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        handle_command_inner(shared, sessions, session_name, cmd, frame)
    }));
    match result {
        Ok(response) => response,
        Err(payload) => Response::Error {
            code: WireCode::Engine,
            message: format!(
                "command handler panicked: {}",
                crate::error::panic_message(payload)
            ),
        },
    }
}

fn handle_command_inner(
    shared: &Shared,
    sessions: &mut HashMap<String, Hosted>,
    session_name: &str,
    cmd: Command,
    frame: &str,
) -> Response {
    // Only `open` creates a *new* session; every other command
    // addressed to a name never opened is rejected, so mistyped or
    // hostile wire-supplied names cannot accumulate server state. A
    // name that is in the registry but evicted is different: any
    // command touching it restores it lazily through `open`'s recovery
    // path, so tiering stays invisible on the wire.
    let is_open = matches!(cmd, Command::Open { .. });
    let (hosted, restored) = if sessions.contains_key(session_name) {
        (sessions.get_mut(session_name).expect("checked"), false)
    } else {
        // Not resident: consult the registry for the name's status.
        let known = {
            let registry = shared.registry.lock().expect("registry lock");
            registry.iter().any(|e| e.name == session_name)
        };
        if !known && !is_open {
            return Response::Error {
                code: WireCode::UnknownSession,
                message: format!(
                    "session '{session_name}' is not open on this server; send open first"
                ),
            };
        }
        // The namespace cap applies to genuinely new names only:
        // evicted sessions already hold a registry slot and must stay
        // reopenable even at the cap.
        if !known
            && shared.registry.lock().expect("registry lock").len() >= shared.config.max_sessions
        {
            return Response::Error {
                code: WireCode::SessionLimit,
                message: format!(
                    "server already hosts its maximum of {} sessions",
                    shared.config.max_sessions
                ),
            };
        }
        match open_session(shared, sessions, session_name) {
            Ok(pair) => pair,
            Err(e) => return engine_error(e),
        }
    };
    hosted.last_touched = Instant::now();
    // A session poisoned by an earlier fault heals before the next
    // command; the recovered tick's alerts still extend the series.
    if hosted.session.is_poisoned() {
        match hosted.session.recover() {
            Ok(alerts) => hosted.record_alerts(&alerts),
            Err(e) => return engine_error(e),
        }
    }
    // Once the log has failed, refuse mutations *before* applying them:
    // acking (or even just applying) unlogged mutations would silently
    // widen the gap between memory and disk.
    if hosted.wal_broken
        && matches!(
            cmd,
            Command::Register { .. }
                | Command::Stage { .. }
                | Command::StageTicks { .. }
                | Command::Tick { .. }
        )
    {
        return engine_error(EngineError::DurabilityIo(
            "an earlier write-ahead append failed; restart the server to recover".to_owned(),
        ));
    }
    let mutation = match cmd {
        Command::Open { .. } => {
            return Response::Opened {
                t: hosted.session.now(),
                restored,
            }
        }
        Command::Series { query, .. } => {
            return match hosted.by_name.get(&query) {
                None => Response::Error {
                    code: WireCode::UnknownQuery,
                    message: format!("no query named '{query}' in session '{session_name}'"),
                },
                Some(&idx) => Response::Series {
                    series: hosted.series[idx].clone(),
                    query,
                },
            }
        }
        Command::Checkpoint { .. } => {
            return match write_checkpoint(shared, hosted) {
                Ok(ckpt) => Response::Checkpointed { t: ckpt.t() },
                Err(e) => engine_error(e),
            }
        }
        Command::Ping | Command::Shutdown => {
            return Response::Error {
                code: WireCode::BadRequest,
                message: "server-level command routed to a shard".to_owned(),
            }
        }
        Command::Register { ref name, .. } if hosted.by_name.contains_key(name) => {
            return Response::Error {
                code: WireCode::BadRequest,
                message: format!("query '{name}' is already registered"),
            }
        }
        cmd => match mutation(hosted.session.database(), cmd) {
            Ok(mutation) => mutation,
            Err(e) => return engine_error(e),
        },
    };
    let t0 = u64::from(hosted.session.now());
    let applied = match apply(hosted, mutation) {
        Ok(applied) => applied,
        Err(e) => return engine_error(e),
    };
    if let Err(resp) = wal_append(hosted, t0, frame) {
        return resp;
    }
    match applied {
        Applied::Registered(idx) => Response::Registered { query: idx },
        Applied::Staged(n) => Response::Staged { staged: n },
        Applied::Ticked(alerts) => {
            if let Err(e) = persist_auto_checkpoint(shared, hosted) {
                return engine_error(e);
            }
            Response::Ticked {
                t: hosted.session.now(),
                alerts: wire_alerts(&alerts),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// Renders every hosted session's snapshot (label `session="..."`) plus
/// the server's own queue/backpressure gauges.
fn render_metrics(shared: &Shared) -> String {
    let (snaps, resident, evicted) = {
        let registry = shared.registry.lock().expect("registry lock");
        let snaps: Vec<(String, StatsSnapshot)> = registry
            .iter()
            .map(|e| (e.name.clone(), e.stats.snapshot()))
            .collect();
        let evicted = registry.iter().filter(|e| e.evicted).count();
        (snaps, registry.len() - evicted, evicted)
    };
    let refs: Vec<(&str, &StatsSnapshot)> = snaps
        .iter()
        .map(|(name, snap)| (name.as_str(), snap))
        .collect();
    let mut out = to_prometheus_sessions(&refs);
    writeln!(
        out,
        "# HELP lahar_server_queue_depth Commands queued per shard.\n\
         # TYPE lahar_server_queue_depth gauge"
    )
    .unwrap();
    for (i, shard) in shared.shards.iter().enumerate() {
        writeln!(
            out,
            "lahar_server_queue_depth{{shard=\"{i}\"}} {}",
            shard.depth.load(Ordering::SeqCst)
        )
        .unwrap();
    }
    writeln!(
        out,
        "# HELP lahar_server_queue_cap Bound of each shard's command queue.\n\
         # TYPE lahar_server_queue_cap gauge\n\
         lahar_server_queue_cap {}",
        shared.config.queue_cap
    )
    .unwrap();
    writeln!(
        out,
        "# HELP lahar_server_overloaded_total Commands rejected with an overloaded response.\n\
         # TYPE lahar_server_overloaded_total counter\n\
         lahar_server_overloaded_total {}",
        shared.overloaded_total.load(Ordering::SeqCst)
    )
    .unwrap();
    writeln!(
        out,
        "# HELP lahar_server_sessions Sessions hosted across all shards (resident + evicted).\n\
         # TYPE lahar_server_sessions gauge\n\
         lahar_server_sessions {}",
        resident + evicted
    )
    .unwrap();
    writeln!(
        out,
        "# HELP lahar_server_sessions_resident Hosted sessions currently held in memory.\n\
         # TYPE lahar_server_sessions_resident gauge\n\
         lahar_server_sessions_resident {resident}"
    )
    .unwrap();
    writeln!(
        out,
        "# HELP lahar_server_sessions_evicted Hosted sessions tiered out to checkpoint storage.\n\
         # TYPE lahar_server_sessions_evicted gauge\n\
         lahar_server_sessions_evicted {evicted}"
    )
    .unwrap();
    writeln!(
        out,
        "# HELP lahar_server_evictions_total Idle sessions evicted to checkpoint storage.\n\
         # TYPE lahar_server_evictions_total counter\n\
         lahar_server_evictions_total {}",
        shared.evictions_total.load(Ordering::SeqCst)
    )
    .unwrap();
    writeln!(
        out,
        "# HELP lahar_server_restores_total Evicted sessions restored by a touching command.\n\
         # TYPE lahar_server_restores_total counter\n\
         lahar_server_restores_total {}",
        shared.restores_total.load(Ordering::SeqCst)
    )
    .unwrap();
    out.push_str(&shared.requests.to_prometheus());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lahar_model::StreamBuilder;

    #[test]
    fn bogus_wire_keys_do_not_grow_the_interner() {
        let mut db = Database::new();
        db.declare_stream("At", &["person"], &["loc"]).unwrap();
        let b = StreamBuilder::new(db.interner(), "At", &["joe"], &["a", "h"]);
        db.add_stream(b.independent(vec![]).unwrap()).unwrap();
        let before = db.interner().len();
        for i in 0..100_000 {
            let m = WireMarginal {
                stream_type: "At".to_owned(),
                key: vec![format!("bogus-{i}")],
                probs: vec![0.5, 0.25, 0.25],
            };
            let err = resolve_marginal(&db, m).unwrap_err();
            assert!(matches!(err, EngineError::Protocol(_)), "{err}");
        }
        assert_eq!(db.interner().len(), before);
        // A known stream still resolves, its probabilities moved in.
        let m = WireMarginal {
            stream_type: "At".to_owned(),
            key: vec!["joe".to_owned()],
            probs: vec![0.5, 0.25, 0.25],
        };
        let (id, marginal) = resolve_marginal(&db, m).unwrap();
        assert_eq!(id.index(), 0);
        assert_eq!(marginal.probs(), &[0.5, 0.25, 0.25]);
    }

    /// A zero history window is refused by the builder and by `start`
    /// (for a config assembled field by field); one tick and the whole
    /// history are accepted.
    #[test]
    fn zero_history_ticks_is_refused() {
        let err = ServerConfig::builder()
            .history_ticks(Some(0))
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig(_)), "{err}");
        for ticks in [Some(1), None] {
            let config = ServerConfig::builder()
                .history_ticks(ticks)
                .build()
                .unwrap();
            assert_eq!(config.history_ticks, ticks);
        }
        let config = ServerConfig {
            history_ticks: Some(0),
            ..ServerConfig::default()
        };
        let err = LaharServer::start(config, Database::new()).err().unwrap();
        assert!(matches!(err, EngineError::InvalidConfig(_)), "{err}");
    }
}
