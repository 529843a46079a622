//! The served workload, `served_ingest`, and the cold_restore scenario
//! its traced runs add: a `lahar serve` child process driven over TCP with newline-delimited JSON frames (PROTOCOL.md),
//! open loop, from at most two threads and two connections.

use crate::data::{self, Recorded, Q_COFFEE, Q_HALL_COFFEE};
use crate::stats::{
    self, histogram_delta, histogram_quantile, median, parse_prometheus, SampleKey,
};
use crate::trace::Tracer;
use crate::{Args, Report};
use lahar_core::protocol::{
    encode_request, encode_response_with_id, parse_request, parse_response_with_id, Command,
    Response,
};
use lahar_core::{Checkpoint, Lahar, RealTimeSession};
use lahar_model::Database;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, Command as Process, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const N_TAGS: usize = 40;
/// Tags (streams) of the cold_restore deployment.
const COLD_TAGS: usize = 20;
/// Length of the recorded window each session replays cyclically.
const WINDOW: usize = 64;
const QUERIES: [(&str, &str); 2] = [("q_hall_coffee", Q_HALL_COFFEE), ("q_coffee", Q_COFFEE)];
/// Untimed warm-up ticks per session, counted in set-up.
const WARMUP_TICKS: usize = 32;
/// Server starts per run; `setup_s` is their median.
const INGEST_SETUPS: usize = 5;
/// The `ack_p99_ms` limit a ladder step must meet to count as sustained.
const ACK_LIMIT_S: f64 = 0.05;
/// Most requests the generator keeps in flight on one connection: half
/// the server's per-shard `queue_cap` (64), so an `overloaded` refusal
/// means the server fell behind, not the generator. A due frame held
/// back at the cap is sent late, and its latency, timed from the
/// schedule, shows it.
const INFLIGHT_CAP: u64 = 32;
/// How long the generator waits for an outstanding response.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

// served_ingest
const INGEST_SESSIONS: usize = 8;
/// Rounds per run, each an operating step and then a ladder. A figure
/// of the run is the median over the [`KEPT_SHARE`] of its operating
/// steps, or of its ladders, that the host slowed least
/// (`stats::cheapest`).
const ROUNDS: usize = 5;
/// The share of a run's windows (rounds, read windows) its figures are
/// taken over.
const KEPT_SHARE: f64 = 0.25;
/// The operating rate in ticks per second (each tick is a `stage` frame
/// and a `tick` frame) and its share of the run's seconds, split over
/// the rounds. The latency metrics and the server layers come from
/// these steps.
const OPERATING_RATE: f64 = 200.0;
const OPERATING_SHARE: f64 = 0.2;
/// The ladder: [`LADDER_STEPS`] offered rates rising from
/// [`LADDER_FROM`] ticks per second by 2^(1/4) (about 19 %) a step, to
/// about 4500 ticks per second, each held for [`LADDER_STEP_SHARE`] of
/// the run's seconds split over the rounds. The steps run back to back
/// as one schedule, so a backlog left by one step carries into the next,
/// and every step always runs, so every run offers the same load.
const LADDER_FROM: f64 = 400.0;
const LADDER_STEPS: usize = 15;
const LADDER_STEP_SHARE: f64 = 0.025;
/// The saturating step that closes the ladder's schedule, and its share
/// of the run's seconds split over the rounds: about three times what
/// the server sustains on a 2-core host (about 2000 ticks per second),
/// so the server works through a backlog the whole step and the rate it
/// acknowledges ticks at is its capacity (`ticks_per_s`).
const SATURATE_RATE: f64 = 6400.0;
const SATURATE_SHARE: f64 = 0.06;
/// Closed-loop `series` reads after the last round, and how many of them
/// make one percentile window (ten beyond its p95).
const INGEST_READS: usize = 2000;
const READ_WINDOW: usize = 200;

// cold_restore
/// How long the cold_restore scenario of a traced served_ingest run
/// reads evicted sessions: 200 reads, ten beyond their p95.
const COLD_SECONDS: f64 = 10.0;
/// The per-layer metrics the cold_restore scenario reports.
const COLD_LAYERS: [&str; 7] = [
    "read_p95_ms",
    "checkpoint.bytes",
    "checkpoint.decode_ms",
    "session.restore_ms",
    "wal.read_segment_ms",
    "engine.backfill_ms",
    "server.restores",
];
const COLD_SESSIONS: usize = 20;
const HOT_SESSIONS: usize = 2;
/// Ticks of history each cold session is built with.
const COLD_HISTORY: usize = 64;
/// Ticks per `stage_ticks` frame while building history.
const HISTORY_CHUNK: usize = 16;
/// Idle time after which the server evicts a session. A cold session is
/// read once a second, so it is evicted between two of its reads; a hot
/// session is written every 20 ms, so only a host pause of about this
/// long evicts it (and its restore would break `restores == reads`).
const EVICT_AFTER_MS: u64 = 400;
/// Reads of evicted sessions per second.
const READ_RATE: f64 = 20.0;
/// Hot-session ticks per second (two frames each).
const HOT_RATE: f64 = 100.0;

// ---------------------------------------------------------------------
// The server child.

struct Server {
    child: Child,
    addr: SocketAddr,
    metrics: SocketAddr,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    fn start(lahar: &Path, manifest: &Path, ckpt: &Path, extra: &[&str]) -> Result<Self, String> {
        let mut child = Process::new(lahar)
            .arg("serve")
            .arg("--manifest")
            .arg(manifest)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--metrics-addr",
                "127.0.0.1:0",
                "--durability",
                "batch",
            ])
            .arg("--checkpoint-dir")
            .arg(ckpt)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", lahar.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
        let mut addr = None;
        let mut metrics = None;
        while addr.is_none() || metrics.is_none() {
            let Some(Ok(line)) = lines.next() else {
                let _ = child.kill();
                let _ = child.wait();
                return Err("lahar serve exited before announcing its addresses".to_owned());
            };
            if let Some(a) = line.strip_prefix("serving on ") {
                addr = a.trim().parse().ok();
            } else if let Some(m) = line.strip_prefix("metrics: http://") {
                metrics = m.trim().trim_end_matches("/metrics").parse().ok();
            } else {
                eprintln!("lahar serve: {line}");
            }
        }
        let stderr = std::thread::spawn(move || {
            for line in lines.map_while(Result::ok) {
                eprintln!("lahar serve: {line}");
            }
        });
        Ok(Self {
            child,
            addr: addr.expect("parsed"),
            metrics: metrics.expect("parsed"),
            stderr: Some(stderr),
        })
    }

    fn connect(&self) -> Result<Conn, String> {
        Conn::connect(self.addr)
    }

    fn scrape(&self) -> Result<BTreeMap<SampleKey, f64>, String> {
        let mut s = TcpStream::connect(self.metrics).map_err(|e| format!("metrics: {e}"))?;
        s.set_read_timeout(Some(RESPONSE_TIMEOUT))
            .map_err(|e| e.to_string())?;
        write!(s, "GET /metrics HTTP/1.0\r\nHost: {}\r\n\r\n", self.metrics)
            .map_err(|e| e.to_string())?;
        let mut body = String::new();
        s.read_to_string(&mut body)
            .map_err(|e| format!("metrics: {e}"))?;
        let body = body
            .split_once("\r\n\r\n")
            .map_or(body.as_str(), |(_, b)| b);
        Ok(parse_prometheus(body))
    }

    fn peak_rss_mb(&self) -> f64 {
        crate::peak_rss_mb(&self.child.id().to_string())
    }

    /// Asks the server to shut down and waits for the process to end.
    fn shutdown(mut self) -> Result<(), String> {
        let asked = self
            .connect()
            .and_then(|mut c| c.call(&Command::Shutdown).map(|_| ()));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("lahar serve exited with {status}")),
                Ok(None) if Instant::now() < deadline && asked.is_ok() => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => return Err(format!("lahar serve did not shut down ({asked:?})")),
            }
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Connections.

/// Newline-framed reads with a timeout.
struct Lines {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Lines {
    /// The next complete line, or `None` when `timeout` passes first.
    fn next(&mut self, timeout: Duration) -> Result<Option<String>, String> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return String::from_utf8(line[..pos].to_vec())
                    .map(Some)
                    .map_err(|_| "response is not UTF-8".to_owned());
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            self.stream
                .set_read_timeout(Some(left.max(Duration::from_micros(50))))
                .map_err(|e| e.to_string())?;
            let mut chunk = [0u8; 64 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".to_owned()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

/// A blocking request/response connection for set-up and checks.
struct Conn {
    writer: TcpStream,
    lines: Lines,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Self {
            writer: stream.try_clone().map_err(|e| e.to_string())?,
            lines: Lines {
                stream,
                buf: Vec::new(),
            },
        })
    }

    fn call(&mut self, cmd: &Command) -> Result<Response, String> {
        let mut line = encode_request(cmd, None);
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        let reply = self
            .lines
            .next(RESPONSE_TIMEOUT)?
            .ok_or("no response within the timeout")?;
        match parse_response_with_id(&reply).map_err(|e| e.to_string())? {
            (Response::Error { code, message }, _) => {
                Err(format!("{cmd:?} answered {code:?}: {message}"))
            }
            (r, _) => Ok(r),
        }
    }
}

/// One frame of an open-loop schedule.
struct Frame {
    /// When the frame is due, seconds after the schedule starts.
    due_s: f64,
    /// The encoded request, newline included.
    line: String,
}

/// What a generator run saw: per frame, when it was sent and when its response
/// arrived (seconds after the schedule start), and the response.
#[derive(Default)]
struct Outcome {
    sent_s: Vec<f64>,
    recv_s: Vec<f64>,
    responses: Vec<String>,
    inflight_max: u64,
}

/// Drives `frames` over `conn` on schedule with a writer thread and a
/// reader (the calling thread): the served_ingest generator.
fn drive_split(conn: &mut Conn, frames: &[Frame]) -> Result<Outcome, String> {
    let sent = AtomicU64::new(0);
    let received = AtomicU64::new(0);
    let start = Instant::now();
    let mut writer = conn.writer.try_clone().map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let w = scope.spawn(|| -> Result<Vec<f64>, String> {
            let mut sent_s = Vec::with_capacity(frames.len());
            for f in frames {
                wait_until(start, f.due_s);
                while sent.load(Ordering::SeqCst) - received.load(Ordering::SeqCst) >= INFLIGHT_CAP
                {
                    std::thread::sleep(Duration::from_micros(50));
                }
                writer
                    .write_all(f.line.as_bytes())
                    .map_err(|e| e.to_string())?;
                sent_s.push(start.elapsed().as_secs_f64());
                sent.fetch_add(1, Ordering::SeqCst);
            }
            Ok(sent_s)
        });
        let mut out = Outcome::default();
        let mut read_err = None;
        while out.responses.len() < frames.len() {
            let inflight = sent
                .load(Ordering::SeqCst)
                .saturating_sub(received.load(Ordering::SeqCst));
            out.inflight_max = out.inflight_max.max(inflight);
            match conn.lines.next(RESPONSE_TIMEOUT) {
                Ok(Some(line)) => {
                    out.recv_s.push(start.elapsed().as_secs_f64());
                    out.responses.push(line);
                    received.fetch_add(1, Ordering::SeqCst);
                }
                Ok(None) => {
                    read_err = Some("timed out waiting for a response".to_owned());
                    break;
                }
                Err(e) => {
                    read_err = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = read_err {
            // Unblock a writer stuck at the in-flight cap.
            received.store(u64::MAX / 2, Ordering::SeqCst);
            let _ = w.join();
            return Err(e);
        }
        out.sent_s = w
            .join()
            .map_err(|_| "writer thread panicked".to_owned())??;
        Ok(out)
    })
}

/// Drives `frames` over `conn` on schedule from the calling thread
/// alone, reading responses while it waits for the next frame to fall
/// due: the cold_restore generator, one per connection.
fn drive_single(conn: &mut Conn, frames: &[Frame], start: Instant) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut next = 0;
    while out.responses.len() < frames.len() {
        let inflight = (next - out.responses.len()) as u64;
        out.inflight_max = out.inflight_max.max(inflight);
        let now = start.elapsed().as_secs_f64();
        if next < frames.len() && frames[next].due_s <= now && inflight < INFLIGHT_CAP {
            conn.writer
                .write_all(frames[next].line.as_bytes())
                .map_err(|e| e.to_string())?;
            out.sent_s.push(start.elapsed().as_secs_f64());
            next += 1;
            continue;
        }
        let wait = if next < frames.len() && inflight < INFLIGHT_CAP {
            Duration::from_secs_f64((frames[next].due_s - now).max(0.0))
        } else {
            RESPONSE_TIMEOUT
        };
        match conn.lines.next(wait)? {
            Some(line) => {
                out.recv_s.push(start.elapsed().as_secs_f64());
                out.responses.push(line);
            }
            None if wait == RESPONSE_TIMEOUT => {
                return Err("timed out waiting for a response".to_owned())
            }
            None => {}
        }
    }
    Ok(out)
}

/// Sleeps until `due_s` after `start`, spinning only the last stretch
/// (shorter than the scheduler's wake-up delay) so the generator takes
/// little CPU from the server it shares the host with.
fn wait_until(start: Instant, due_s: f64) {
    loop {
        let left = due_s - start.elapsed().as_secs_f64();
        if left <= 0.0 {
            return;
        }
        if left > 0.00015 {
            std::thread::sleep(Duration::from_secs_f64(left - 0.0001));
        } else {
            std::hint::spin_loop();
        }
    }
}

// ---------------------------------------------------------------------
// Shared pieces.

/// One served session's replay: its name and where in the recorded
/// window its ticks start.
struct Feed {
    name: String,
    offset: usize,
    ticks: usize,
}

impl Feed {
    fn new(name: String, offset: usize) -> Self {
        Self {
            name,
            offset,
            ticks: 0,
        }
    }

    /// The `stage` frame for this session's next tick.
    fn stage(&mut self, rec: &Recorded) -> Command {
        let pos = (self.offset + self.ticks) % rec.frames.len();
        self.ticks += 1;
        Command::Stage {
            session: self.name.clone(),
            marginals: rec.frames[pos].clone(),
            tick: false,
        }
    }

    fn tick(&self) -> Command {
        Command::Tick {
            session: self.name.clone(),
        }
    }

    fn series(&self, query: &str) -> Command {
        Command::Series {
            session: self.name.clone(),
            query: query.to_owned(),
        }
    }

    /// The offline reference series of every query over this session's
    /// ticks so far.
    fn reference(&self, rec: &Recorded, served: &Database) -> Result<Vec<Vec<f64>>, String> {
        let db = data::replayed_database(served, &rec.ticks, self.offset, self.ticks);
        QUERIES
            .iter()
            .map(|(_, src)| Lahar::prob_series(&db, src).map_err(|e| e.to_string()))
            .collect()
    }
}

/// One session's series, one per query.
type Series = Vec<Vec<f64>>;

/// Every feed's offline reference series, and the median time one
/// feed's took to compile and evaluate (`query_s`).
fn offline_references(
    feeds: &[Feed],
    rec: &Recorded,
    served: &Database,
) -> Result<(Vec<Series>, f64), String> {
    let mut times = Vec::with_capacity(feeds.len());
    let mut out = Vec::with_capacity(feeds.len());
    for f in feeds {
        let t0 = Instant::now();
        out.push(f.reference(rec, served)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((out, median(&times)))
}

/// Opens `feed`'s session, registers the queries and closes
/// `warmup` ticks, one `stage`+`tick` round trip each.
fn open_session(
    conn: &mut Conn,
    rec: &Recorded,
    feed: &mut Feed,
    warmup: usize,
) -> Result<(), String> {
    conn.call(&Command::Open {
        session: feed.name.clone(),
    })?;
    for (name, src) in QUERIES {
        conn.call(&Command::Register {
            session: feed.name.clone(),
            name: name.to_owned(),
            query: src.to_owned(),
        })?;
    }
    for _ in 0..warmup {
        conn.call(&feed.stage(rec))?;
        conn.call(&feed.tick())?;
    }
    Ok(())
}

fn frame(cmd: &Command, id: u64, due_s: f64) -> Frame {
    let mut line = encode_request(cmd, Some(id));
    line.push('\n');
    Frame { due_s, line }
}

/// Parses a response and checks it is not an error and echoes `id`.
fn ok_response(line: &str, id: u64) -> Result<Response, String> {
    match parse_response_with_id(line) {
        Ok((Response::Error { code, message }, _)) => Err(format!("error {code:?}: {message}")),
        Ok((_, echoed)) if echoed != Some(id) => {
            Err(format!("response id {echoed:?} for request {id}"))
        }
        Ok((r, _)) => Ok(r),
        Err(e) => Err(format!("unparseable response: {e}")),
    }
}

fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A fresh, empty directory in the run's scratch directory.
fn fresh_dir(args: &Args, name: &str) -> Result<PathBuf, String> {
    let dir = args.scratch.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

fn lahar_bin(args: &Args) -> Result<&Path, String> {
    args.lahar
        .as_deref()
        .ok_or_else(|| "served workloads need --lahar PATH (the lahar executable)".to_owned())
}

/// The `server.*`, `wal.*` and `kernel.steps_*` per-layer metrics
/// between two scrapes taken around a timed window. Phase histograms are
/// summed over every command, which are the window's commands alone.
fn server_layers(
    before: &BTreeMap<SampleKey, f64>,
    after: &BTreeMap<SampleKey, f64>,
    acks: u64,
    report: &mut Report,
) {
    const NAME: &str = "lahar_server_request_duration_seconds";
    for (phase, p50, p99) in [
        (
            "queue_wait",
            "server.queue_wait_p50_us",
            "server.queue_wait_p99_us",
        ),
        ("execute", "server.execute_p50_us", "server.execute_p99_us"),
        ("respond", "server.respond_p50_us", "server.respond_p99_us"),
        (
            "wal_append",
            "server.wal_append_p50_us",
            "server.wal_append_p99_us",
        ),
    ] {
        let h = histogram_delta(before, after, NAME, &[("phase", phase)]);
        report.set(p50, histogram_quantile(&h, 0.50).unwrap_or(0.0) * 1e6);
        report.set(p99, histogram_quantile(&h, 0.99).unwrap_or(0.0) * 1e6);
    }
    let delta =
        |name: &str| stats::sum_samples(after, name, &[]) - stats::sum_samples(before, name, &[]);
    report.set("server.overloaded", delta("lahar_server_overloaded_total"));
    report.set(
        "wal.bytes_per_ack",
        delta("lahar_wal_bytes_total") / acks.max(1) as f64,
    );
    report.set("server.restores", delta("lahar_server_restores_total"));
    let steps = |path: &str| {
        stats::sum_samples(after, "lahar_kernel_steps_total", &[("path", path)])
            - stats::sum_samples(before, "lahar_kernel_steps_total", &[("path", path)])
    };
    report.set("kernel.steps_fast", steps("fast"));
    report.set("kernel.steps_frozen", steps("frozen"));
    report.set("kernel.steps_slow", steps("slow"));
    report.set("kernel.steps_soa", steps("scalar_soa"));
    report.set("kernel.steps_simd", steps("simd"));
}

/// `protocol.*`: replays request lines through `parse_request` and the
/// matching responses through `encode_response_with_id`, one call at a
/// time, and reports the median per call.
fn protocol_layers(
    requests: &[&str],
    responses: &[&str],
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let mut parse = Vec::with_capacity(requests.len());
    for line in requests {
        let line = line.trim_end();
        let span = tracer.begin("protocol.parse_request");
        let t0 = Instant::now();
        let parsed = std::hint::black_box(parse_request(line));
        parse.push(t0.elapsed().as_secs_f64());
        tracer.end(span);
        report.check(parsed.is_ok(), || {
            format!("replayed frame does not parse: {parsed:?}")
        });
    }
    let mut encode = Vec::with_capacity(responses.len());
    for line in responses {
        let Ok((r, id)) = parse_response_with_id(line) else {
            continue;
        };
        let span = tracer.begin("protocol.encode_response");
        let t0 = Instant::now();
        let encoded = std::hint::black_box(encode_response_with_id(&r, id));
        encode.push(t0.elapsed().as_secs_f64());
        tracer.end(span);
        report.check(encoded == *line, || {
            "re-encoded response differs from the wire".to_owned()
        });
    }
    if !parse.is_empty() {
        report.set("protocol.parse_request_us", median(&parse) * 1e6);
    }
    if !encode.is_empty() {
        report.set("protocol.encode_response_us", median(&encode) * 1e6);
    }
}

/// Records one client-side span per request, from when it was due to
/// when its response arrived, tagged with the request id.
fn request_spans(
    tracer: &mut Tracer,
    start: Instant,
    first_id: u64,
    frames: &[Frame],
    out: &Outcome,
) {
    for (k, (f, recv)) in frames.iter().zip(&out.recv_s).enumerate() {
        tracer.record(
            "client.request",
            start + Duration::from_secs_f64(f.due_s),
            start + Duration::from_secs_f64(*recv),
            Some(first_id + k as u64),
        );
    }
}

// ---------------------------------------------------------------------
// served_ingest

/// A run of ticks at one offered rate within a schedule.
struct Step {
    rate: f64,
    /// When the step's first tick is due, seconds after the schedule
    /// starts.
    start_s: f64,
    /// The step's frames, as indices into the schedule.
    frames: Range<usize>,
}

struct StepResult {
    ack_s: Vec<f64>,
    tick_s: Vec<f64>,
    /// When each tick's `tick` frame was acknowledged, seconds after the
    /// schedule starts.
    tick_recv_s: Vec<f64>,
    late_s: Vec<f64>,
    /// The p99 of every ack latency of the step (or the highest
    /// percentile with ten samples beyond it).
    ack_p99_s: f64,
    sustained: bool,
}

/// Appends `rate` ticks per second for `seconds` to `frames`, due from
/// `start_s` on, round-robin over `feeds`: each tick a `stage` frame and
/// a `tick` frame, due together.
fn plan_step(
    rate: f64,
    seconds: f64,
    start_s: f64,
    feeds: &mut [Feed],
    rec: &Recorded,
    next_id: &mut u64,
    frames: &mut Vec<Frame>,
) -> Step {
    let n_ticks = (rate * seconds).round().max(1.0) as usize;
    let first = frames.len();
    for j in 0..n_ticks {
        let feed = &mut feeds[j % feeds.len()];
        let due = start_s + stats::scheduled_s(j as u64, rate);
        frames.push(frame(&feed.stage(rec), *next_id, due));
        frames.push(frame(&feed.tick(), *next_id + 1, due));
        *next_id += 2;
    }
    Step {
        rate,
        start_s,
        frames: first..frames.len(),
    }
}

impl Step {
    /// When the step's last tick is due plus one tick interval: when the
    /// next step starts.
    fn end_s(&self) -> f64 {
        self.start_s + stats::scheduled_s(self.frames.len() as u64 / 2, self.rate)
    }
}

/// Checks `step`'s responses in a schedule whose first frame has id
/// `first_id`, and times each from its scheduled send.
fn evaluate_step(
    step: &Step,
    first_id: u64,
    frames: &[Frame],
    out: &Outcome,
    report: &mut Report,
) -> StepResult {
    let n = step.frames.len();
    let mut ack_s = Vec::with_capacity(n);
    let mut tick_s = Vec::with_capacity(n / 2);
    let mut tick_recv_s = Vec::with_capacity(n / 2);
    let mut errors = 0u64;
    for k in step.frames.clone() {
        let i = k - step.frames.start;
        let id = first_id + k as u64;
        let line = &out.responses[k];
        report.attempt(1);
        let latency =
            stats::open_loop_latency_s((i / 2) as u64, step.rate, out.recv_s[k] - step.start_s);
        match ok_response(line, id) {
            Ok(r) => {
                let kind_ok = if i.is_multiple_of(2) {
                    matches!(r, Response::Staged { .. })
                } else {
                    matches!(r, Response::Ticked { ref alerts, .. } if alerts.len() == QUERIES.len())
                };
                if kind_ok {
                    ack_s.push(latency);
                    if i % 2 == 1 {
                        // Stage and tick frames are due together.
                        tick_s.push(latency);
                        tick_recv_s.push(out.recv_s[k]);
                    }
                } else {
                    errors += 1;
                    report.fail(format!("request {id}: unexpected response {line}"));
                }
            }
            Err(e) => {
                errors += 1;
                report.fail(format!("request {id}: {e}"));
            }
        }
    }
    let late_s: Vec<f64> = frames[step.frames.clone()]
        .iter()
        .zip(&out.sent_s[step.frames.clone()])
        .map(|(f, s)| s - f.due_s)
        .collect();
    // Over the whole step, not per window: a backlog that grows through
    // the step must fail it even when its first frames were fast.
    let ack_p99_s = if ack_s.is_empty() {
        f64::INFINITY
    } else {
        stats::percentile(&ack_s, 0.99).value
    };
    StepResult {
        sustained: errors == 0 && ack_p99_s <= ACK_LIMIT_S,
        ack_p99_s,
        ack_s,
        tick_s,
        tick_recv_s,
        late_s,
    }
}

/// What one ladder measured.
struct Ladder {
    /// The rate at which a step's ack p99 reaches the limit, in acks per
    /// second. A step below it that a host stall failed does not lower
    /// it.
    sustained_acks_per_s: f64,
    /// Ticks acknowledged per second through the saturating step.
    saturated_ticks_per_s: f64,
    inflight_max: u64,
}

/// One ladder closed by the saturating step, as one schedule.
fn ladder_round(
    args: &Args,
    conn: &mut Conn,
    feeds: &mut [Feed],
    rec: &Recorded,
    next_id: &mut u64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Ladder, String> {
    let step_s = args.seconds * LADDER_STEP_SHARE / ROUNDS as f64;
    let mut frames = Vec::new();
    let first_id = *next_id;
    let mut steps: Vec<Step> = Vec::with_capacity(LADDER_STEPS);
    for k in 0..LADDER_STEPS {
        let from = steps.last().map_or(0.0, Step::end_s);
        let rate = LADDER_FROM * 2f64.powf(k as f64 / 4.0);
        steps.push(plan_step(
            rate,
            step_s,
            from,
            feeds,
            rec,
            next_id,
            &mut frames,
        ));
    }
    let saturate = plan_step(
        SATURATE_RATE,
        args.seconds * SATURATE_SHARE / ROUNDS as f64,
        steps.last().map_or(0.0, Step::end_s),
        feeds,
        rec,
        next_id,
        &mut frames,
    );
    let start = Instant::now();
    let out = drive_split(conn, &frames)?;
    request_spans(tracer, start, first_id, &frames, &out);
    let ladder: Vec<stats::LadderStep> = steps
        .iter()
        .map(|step| {
            let r = evaluate_step(step, first_id, &frames, &out, report);
            stats::LadderStep {
                rate: step.rate,
                tail_s: r.ack_p99_s,
                sustained: r.sustained,
            }
        })
        .collect();
    // Two acknowledged frames per tick.
    let sustained_acks_per_s = 2.0 * stats::sustained_rate(&ladder, ACK_LIMIT_S);
    // Capacity: ticks acknowledged per second through the saturating
    // step, from the last response before the step to its last tick's
    // acknowledgement. The server answers in bursts, so the whole step
    // is one window.
    let sat = evaluate_step(&saturate, first_id, &frames, &out, report);
    let from = out.recv_s[saturate.frames.start - 1];
    let to = sat.tick_recv_s.last().copied().unwrap_or(from);
    let saturated_ticks_per_s = sat.tick_recv_s.len() as f64 / (to - from).max(1e-9);
    let log: Vec<String> = ladder
        .iter()
        .map(|s| {
            let mark = if s.sustained { "" } else { "x" };
            format!("{:.0}:{:.1}{mark}", s.rate, s.tail_s * 1e3)
        })
        .collect();
    eprintln!(
        "served_ingest: ladder (ticks/s:ack p99 ms, x = not sustained): {}",
        log.join(" ")
    );
    Ok(Ladder {
        sustained_acks_per_s,
        saturated_ticks_per_s,
        inflight_max: out.inflight_max,
    })
}

pub fn run_ingest(args: &Args) -> Result<Report, String> {
    let lahar = lahar_bin(args)?;
    let dep = data::deployment(N_TAGS, WINDOW, args.seed);
    let rec = data::record(&dep);
    let manifest = fresh_dir(args, "ingest-manifest")?;
    data::write_manifest(&manifest, &rec.template).map_err(|e| format!("writing manifest: {e}"))?;
    let served = data::load_manifest(&manifest)?;
    let mut report = Report::default();
    let mut tracer = Tracer::new(args.trace, Instant::now());

    let mut setup_s = Vec::new();
    let mut hosted = None;
    for i in 0..INGEST_SETUPS {
        let ckpt = fresh_dir(args, &format!("ingest-ckpt{i}"))?;
        let t0 = Instant::now();
        let server = Server::start(lahar, &manifest, &ckpt, &[])?;
        let mut conn = server.connect()?;
        let mut feeds: Vec<Feed> = (0..INGEST_SESSIONS)
            .map(|s| Feed::new(format!("ingest-{s}"), s * WINDOW / INGEST_SESSIONS))
            .collect();
        for feed in &mut feeds {
            open_session(&mut conn, &rec, feed, WARMUP_TICKS)?;
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some((old, _, _, old_ckpt)) = hosted.replace((server, conn, feeds, ckpt)) {
            old.shutdown()?;
            let _ = std::fs::remove_dir_all(old_ckpt);
        }
    }
    let (server, mut conn, mut feeds, _) = hosted.expect("at least one set-up");
    let mut next_id = 1u64;

    // ROUNDS rounds of an operating step and a ladder, so that a stretch
    // of the run where the host is slow moves some rounds only.
    let mut ops: Vec<StepResult> = Vec::with_capacity(ROUNDS);
    let mut ladders: Vec<Ladder> = Vec::with_capacity(ROUNDS);
    // The first operating step, between the two scrapes the server
    // layers are read from, and its frames for the protocol replay.
    let mut layers = None;
    for round in 0..ROUNDS {
        let mut frames = Vec::new();
        let first_id = next_id;
        let step = plan_step(
            OPERATING_RATE,
            args.seconds * OPERATING_SHARE / ROUNDS as f64,
            0.0,
            &mut feeds,
            &rec,
            &mut next_id,
            &mut frames,
        );
        let before = server.scrape()?;
        let start = Instant::now();
        let out = drive_split(&mut conn, &frames)?;
        let after = server.scrape()?;
        request_spans(&mut tracer, start, first_id, &frames, &out);
        let op = evaluate_step(&step, first_id, &frames, &out, &mut report);
        let ladder = ladder_round(
            args,
            &mut conn,
            &mut feeds,
            &rec,
            &mut next_id,
            &mut tracer,
            &mut report,
        )?;
        eprintln!(
            "served_ingest: round {round}: operating {OPERATING_RATE}/s ack p99 {:.2} ms; {:.0} acks/s sustained; saturated at {:.0} ticks/s",
            op.ack_p99_s * 1e3,
            ladder.sustained_acks_per_s,
            ladder.saturated_ticks_per_s,
        );
        if round == 0 {
            layers = Some((before, after, op.ack_s.len() as u64, frames, out));
        }
        ops.push(op);
        ladders.push(ladder);
    }
    // Each figure comes from the KEPT_SHARE of the rounds in which the host
    // slowed the server least (`stats::cheapest`): the operating
    // steps with the lowest median ack, the ladders with the highest
    // saturated rate.
    let ops: Vec<&StepResult> = stats::cheapest(
        &ops.iter()
            .map(|op| {
                if op.ack_s.is_empty() {
                    f64::INFINITY
                } else {
                    median(&op.ack_s)
                }
            })
            .collect::<Vec<_>>(),
        KEPT_SHARE,
    )
    .into_iter()
    .map(|i| &ops[i])
    .collect();
    let inflight_max = ladders.iter().map(|l| l.inflight_max).max().unwrap_or(0);
    let ladders: Vec<&Ladder> = stats::cheapest(
        &ladders
            .iter()
            .map(|l| 1.0 / l.saturated_ticks_per_s)
            .collect::<Vec<_>>(),
        KEPT_SHARE,
    )
    .into_iter()
    .map(|i| &ladders[i])
    .collect();

    // Output checks: no silent drop, and the served series bit-identical
    // to the offline engine. The reads double as `read_p50_ms` samples,
    // in windows of READ_WINDOW reads.
    let mut check = server.connect()?;
    for feed in &feeds {
        let t = match check.call(&Command::Open {
            session: feed.name.clone(),
        })? {
            Response::Opened { t, .. } => t as usize,
            other => return Err(format!("open answered {other:?}")),
        };
        report.check(t == feed.ticks, || {
            format!(
                "{}: clock {t} but {} ticks acknowledged",
                feed.name, feed.ticks
            )
        });
    }
    let (references, query_s) = offline_references(&feeds, &rec, &served)?;
    let mut reads: Vec<Vec<f64>> = Vec::with_capacity(INGEST_READS / READ_WINDOW);
    for w in 0..INGEST_READS / READ_WINDOW {
        reads.push({
            let mut read_s = Vec::with_capacity(READ_WINDOW);
            for i in w * READ_WINDOW..(w + 1) * READ_WINDOW {
                let s = i % feeds.len();
                let q = (i / feeds.len()) % QUERIES.len();
                let t0 = Instant::now();
                let reply = check.call(&feeds[s].series(QUERIES[q].0));
                read_s.push(t0.elapsed().as_secs_f64());
                report.attempt(1);
                let r = &references[s][q];
                match reply {
                    Ok(Response::Series { series, .. }) if bit_identical(&series, r) => {}
                    Ok(Response::Series { series, .. }) => {
                        let first = series
                            .iter()
                            .zip(r)
                            .position(|(a, b)| a.to_bits() != b.to_bits());
                        report.fail(format!(
                            "{}: served series differs from offline (len {} vs {}, first difference at {first:?}: {:?} vs {:?})",
                            feeds[s].name,
                            series.len(),
                            r.len(),
                            first.map(|i| series[i]),
                            first.map(|i| r[i])
                        ))
                    }
                    other => report.fail(format!("series answered {other:?}")),
                }
            }
            read_s
        });
    }
    let rss = server.peak_rss_mb();
    drop(check);
    drop(conn);
    server.shutdown()?;

    report.set("setup_s", median(&setup_s));
    report.set(
        "ticks_per_s",
        median(
            &ladders
                .iter()
                .map(|l| l.saturated_ticks_per_s)
                .collect::<Vec<_>>(),
        ),
    );
    // One latency window per operating step.
    let tick_rounds: Vec<&[f64]> = ops.iter().map(|op| op.tick_s.as_slice()).collect();
    let ack_rounds: Vec<&[f64]> = ops.iter().map(|op| op.ack_s.as_slice()).collect();
    report.set_windowed_pct_ms("tick_p50_ms", &tick_rounds, 0.50);
    report.set_windowed_pct_ms("tick_p99_ms", &tick_rounds, 0.99);
    report.set_windowed_pct_ms("ack_p50_ms", &ack_rounds, 0.50);
    report.set_windowed_pct_ms("ack_p99_ms", &ack_rounds, 0.99);
    report.set(
        "sustained_acks_per_s",
        median(
            &ladders
                .iter()
                .map(|l| l.sustained_acks_per_s)
                .collect::<Vec<_>>(),
        ),
    );
    let read_windows: Vec<&[f64]> = stats::cheapest(
        &reads.iter().map(|w| median(w)).collect::<Vec<_>>(),
        KEPT_SHARE,
    )
    .into_iter()
    .map(|i| reads[i].as_slice())
    .collect();
    report.set_windowed_pct_ms("read_p50_ms", &read_windows, 0.50);
    report.set_windowed_pct_ms("read_p95_ms", &read_windows, 0.95);
    report.set("query_s", query_s);
    report.set("peak_rss_mb", rss);
    if args.trace {
        let (before, after, acks, frames, out) = layers.expect("at least one round");
        server_layers(&before, &after, acks, &mut report);
        let requests: Vec<&str> = frames.iter().take(2000).map(|f| f.line.as_str()).collect();
        let responses: Vec<&str> = out
            .responses
            .iter()
            .take(2000)
            .map(String::as_str)
            .collect();
        protocol_layers(&requests, &responses, &mut tracer, &mut report);
        let late: Vec<f64> = ops
            .iter()
            .flat_map(|op| op.late_s.iter().copied())
            .collect();
        report.set_pct_ms("gen.late_p99_ms", &late, 0.99);
        report.set("gen.inflight_max", inflight_max as f64);
        report.set("trace.spans", tracer.spans().len() as f64);
        let path = args
            .work_dir
            .join(format!("served_ingest-seed{}.trace.json", args.seed));
        tracer
            .write_chrome_json(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        // The restore path rides on this traced run: a short cold_restore
        // scenario on a server of its own, whose restore layers and
        // evicted-session reads join this run's per-layer metrics.
        let cold = run_cold(&Args {
            seconds: COLD_SECONDS,
            ..args.clone()
        })?;
        report.adopt(cold, &COLD_LAYERS);
    }
    Ok(report)
}

// ---------------------------------------------------------------------
// cold_restore

/// The cold_restore scenario: `lahar serve --evict-after-ms` with cold
/// sessions read while evicted (each read restores one) and hot
/// sessions written alongside.
fn run_cold(args: &Args) -> Result<Report, String> {
    let lahar = lahar_bin(args)?;
    let dep = data::deployment(COLD_TAGS, WINDOW, args.seed);
    let rec = data::record(&dep);
    let manifest = fresh_dir(args, "cold-manifest")?;
    data::write_manifest(&manifest, &rec.template).map_err(|e| format!("writing manifest: {e}"))?;
    let served = data::load_manifest(&manifest)?;
    let mut report = Report::default();
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let evict = format!("{EVICT_AFTER_MS}");

    let ckpt = fresh_dir(args, "cold-ckpt")?;
    let server = Server::start(lahar, &manifest, &ckpt, &["--evict-after-ms", &evict])?;
    let mut conn = server.connect()?;
    let mut cold: Vec<Feed> = (0..COLD_SESSIONS)
        .map(|s| Feed::new(format!("cold-{s:02}"), s * 7 % WINDOW))
        .collect();
    for feed in &mut cold {
        open_session(&mut conn, &rec, feed, 0)?;
        while feed.ticks < COLD_HISTORY {
            let n = HISTORY_CHUNK.min(COLD_HISTORY - feed.ticks);
            let ticks = (0..n)
                .map(|_| match feed.stage(&rec) {
                    Command::Stage { marginals, .. } => marginals,
                    _ => unreachable!("stage builds a stage command"),
                })
                .collect();
            conn.call(&Command::StageTicks {
                session: feed.name.clone(),
                ticks,
            })?;
        }
        // A checkpoint generation per cold session, so every timed
        // read restores from a checkpoint. Taken at once, before the
        // session can idle long enough to be evicted.
        conn.call(&Command::Checkpoint {
            session: feed.name.clone(),
        })?;
    }
    let mut hot: Vec<Feed> = (0..HOT_SESSIONS)
        .map(|s| Feed::new(format!("hot-{s}"), s * 13 % WINDOW))
        .collect();
    for feed in &mut hot {
        open_session(&mut conn, &rec, feed, WARMUP_TICKS)?;
    }
    // Every session idles until the server has tiered it out.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let m = server.scrape()?;
        let evicted = stats::sum_samples(&m, "lahar_server_sessions_evicted", &[]);
        if evicted as usize >= COLD_SESSIONS + HOT_SESSIONS {
            break;
        }
        if Instant::now() > deadline {
            return Err(format!("only {evicted} sessions evicted after 60 s"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // References: what a never-evicted session answers, from the
    // offline engine over the same marginals.
    let (references, _) = offline_references(&cold, &rec, &served)?;

    // Schedules, built before the window opens.
    let n_reads = (READ_RATE * args.seconds).round().max(1.0) as usize;
    let mut next_id = 1u64;
    let read_first_id = next_id;
    let reads: Vec<Frame> = (0..n_reads)
        .map(|i| {
            let s = i % COLD_SESSIONS;
            let q = (i / COLD_SESSIONS) % QUERIES.len();
            let f = frame(&cold[s].series(QUERIES[q].0), next_id, i as f64 / READ_RATE);
            next_id += 1;
            f
        })
        .collect();
    let n_hot = (HOT_RATE * args.seconds).round().max(1.0) as usize;
    let hot_first_id = next_id;
    let mut writes = Vec::with_capacity(2 * n_hot);
    for j in 0..n_hot {
        let feed = &mut hot[j % HOT_SESSIONS];
        let due = j as f64 / HOT_RATE;
        writes.push(frame(&feed.stage(&rec), next_id, due));
        writes.push(frame(&feed.tick(), next_id + 1, due));
        next_id += 2;
    }

    let mut read_conn = server.connect()?;
    let mut write_conn = server.connect()?;
    // The hot sessions come back (restored) just before the window
    // opens; from then on their writes keep them resident.
    for feed in &hot {
        conn.call(&Command::Open {
            session: feed.name.clone(),
        })?;
    }
    drop(conn);
    let before = server.scrape()?;
    let start = Instant::now();
    let (read_out, write_out) = std::thread::scope(|scope| {
        let w = scope.spawn(|| drive_single(&mut write_conn, &writes, start));
        let r = drive_single(&mut read_conn, &reads, start);
        (r, w.join().map_err(|_| "hot writer panicked".to_owned()))
    });
    let read_out = read_out?;
    let write_out = write_out??;
    let after = server.scrape()?;
    request_spans(&mut tracer, start, read_first_id, &reads, &read_out);
    request_spans(&mut tracer, start, hot_first_id, &writes, &write_out);

    // Reads: every one restored an evicted session and answered the
    // never-evicted series.
    let mut read_s = Vec::with_capacity(n_reads);
    for (i, line) in read_out.responses.iter().enumerate() {
        report.attempt(1);
        let s = i % COLD_SESSIONS;
        let q = (i / COLD_SESSIONS) % QUERIES.len();
        match ok_response(line, read_first_id + i as u64) {
            Ok(Response::Series { series, .. }) if bit_identical(&series, &references[s][q]) => {
                read_s.push(stats::open_loop_latency_s(
                    i as u64,
                    READ_RATE,
                    read_out.recv_s[i],
                ));
            }
            Ok(_) => report.fail(format!(
                "{}: restored series differs from the reference",
                cold[s].name
            )),
            Err(e) => report.fail(format!("read {i}: {e}")),
        }
    }
    let restores = stats::sum_samples(&after, "lahar_server_restores_total", &[])
        - stats::sum_samples(&before, "lahar_server_restores_total", &[]);
    report.check(restores as usize == n_reads, || {
        format!("{restores} restores for {n_reads} reads of evicted sessions")
    });
    report.set("server.restores", restores);
    // Hot writes: every one acknowledged, and the clocks agree.
    for (k, line) in write_out.responses.iter().enumerate() {
        report.attempt(1);
        if let Err(e) = ok_response(line, hot_first_id + k as u64) {
            report.fail(format!("hot write {k}: {e}"));
        }
    }
    let mut check = server.connect()?;
    for feed in &hot {
        let t = match check.call(&Command::Open {
            session: feed.name.clone(),
        })? {
            Response::Opened { t, .. } => t as usize,
            other => return Err(format!("open answered {other:?}")),
        };
        report.check(t == feed.ticks, || {
            format!(
                "{}: clock {t} but {} ticks acknowledged",
                feed.name, feed.ticks
            )
        });
    }
    report.set_pct_ms("read_p95_ms", &read_s, 0.95);
    if args.trace {
        restore_layers(&ckpt, &cold, &served, &mut tracer, &mut report)?;
        let path = args
            .work_dir
            .join(format!("cold_restore-seed{}.trace.json", args.seed));
        tracer
            .write_chrome_json(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    drop(check);
    drop(read_conn);
    drop(write_conn);
    server.shutdown()?;
    Ok(report)
}

/// The newest file in `dir` named `{stem}.g{gen}{suffix}` for a stem
/// starting with `prefix`.
fn newest(dir: &Path, prefix: &str, suffix: &str) -> Option<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix) && n.ends_with(suffix))
        })
        .collect();
    found.sort();
    found.pop()
}

/// `checkpoint.*`, `session.restore_ms`, `wal.read_segment_ms` and
/// `engine.backfill_ms`: the restore path's steps, timed on the files
/// the server restored the cold sessions from.
fn restore_layers(
    ckpt: &Path,
    cold: &[Feed],
    served: &Database,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let mut bytes = Vec::new();
    let mut decode = Vec::new();
    let mut restore = Vec::new();
    let mut segment = Vec::new();
    let mut backfill = Vec::new();
    for feed in cold.iter().take(8) {
        let prefix = format!("{}-", feed.name);
        let Some(path) = newest(ckpt, &prefix, ".ckpt.json") else {
            report.fail(format!("{}: no checkpoint generation on disk", feed.name));
            continue;
        };
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        bytes.push(text.len() as f64);
        let root = tracer.begin("restore");
        let span = tracer.begin("checkpoint.from_envelope");
        let t0 = Instant::now();
        let parsed = Checkpoint::from_envelope(&text);
        decode.push(t0.elapsed().as_secs_f64());
        tracer.end(span);
        let ck = parsed.map_err(|e| e.to_string())?;
        let span = tracer.begin("session.restore");
        let t0 = Instant::now();
        let session = RealTimeSession::restore(served.clone(), &ck).map_err(|e| e.to_string())?;
        restore.push(t0.elapsed().as_secs_f64());
        tracer.end(span);
        if let Some(seg) = newest(ckpt, &prefix, ".wal") {
            let span = tracer.begin("wal.read_segment");
            let t0 = Instant::now();
            let read = lahar_core::wal::read_segment(&seg).map_err(|e| e.to_string())?;
            segment.push(t0.elapsed().as_secs_f64());
            tracer.end(span);
            report.check(!read.torn, || format!("{}: torn WAL segment", feed.name));
        }
        let span = tracer.begin("engine.backfill");
        let t0 = Instant::now();
        for (_, src) in QUERIES {
            std::hint::black_box(
                Lahar::prob_series(session.database(), src).map_err(|e| e.to_string())?,
            );
        }
        backfill.push(t0.elapsed().as_secs_f64());
        tracer.end(span);
        tracer.end(root);
    }
    if !bytes.is_empty() {
        report.set("checkpoint.bytes", median(&bytes));
        report.set("checkpoint.decode_ms", median(&decode) * 1e3);
        report.set("session.restore_ms", median(&restore) * 1e3);
        report.set("engine.backfill_ms", median(&backfill) * 1e3);
    }
    if !segment.is_empty() {
        report.set("wal.read_segment_ms", median(&segment) * 1e3);
    }
    Ok(())
}
