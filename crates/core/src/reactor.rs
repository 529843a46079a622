//! The readiness-driven connection reactor behind [`crate::LaharServer`].
//!
//! One thread per server (`lahar-conn-<n>`) owns the listening socket and
//! every client connection, multiplexed with `poll(2)` through the
//! [`crate::sys_poll`] shim: a thousand idle clients cost a thousand
//! file descriptors and **zero** threads, and the only other threads in
//! the serve path are the `n_shards` session workers. This replaces the
//! earlier thread-per-connection model, whose per-client stacks were
//! the scaling ceiling.
//!
//! The wire behaviour is unchanged (`PROTOCOL.md` v1):
//!
//! * **Frame assembly** is incremental: bytes accumulate in a
//!   per-connection buffer and a command is parsed only when its
//!   newline arrives, so a frame split across arbitrarily delayed
//!   writes — the mid-frame-pause case the old reader preserved across
//!   read timeouts — reassembles exactly.
//! * **Responses flush in request order.** Each parsed command claims
//!   the next slot in its connection's output queue; inline answers
//!   (pings, protocol errors, backpressure rejections) fill their slot
//!   immediately, shard-executed commands fill it when the worker's
//!   [`Completion`] arrives. A client may pipeline freely and still
//!   observe answers in the order it asked.
//! * **Shutdown acks flush first.** `shutdown` marks its slot; the
//!   teardown starts only after that ack's last byte is written, so the
//!   client always holds the response before the server exits.
//!
//! Workers hand answers back through [`Shared::completions`] and wake
//! the reactor out of `poll` with one byte on a loopback socket pair —
//! the only cross-thread signalling in the serve path.
//!
//! Slow or dead peers cannot wedge the loop: every socket is
//! non-blocking, a connection with pending output that makes no write
//! progress for [`WRITE_STALL`] is dropped, and the shutdown drain is
//! bounded by [`DRAIN_DEADLINE`].

use crate::protocol::{
    encode_response_with_id, parse_request, Response, WireCode, MAX_FRAME_BYTES,
};
use crate::server::{
    dispatch, elapsed_ns, initiate_shutdown, req_span, Dispatched, RequestOutcome, Shared,
};
use crate::sys_poll::{poll_fds, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on one `poll` nap: the loop also has time-based duties
/// (write-stall detection, shutdown drain) that must run without a
/// readiness event.
const POLL_TIMEOUT_MS: i32 = 250;

/// A connection with pending output whose socket accepts no bytes for
/// this long is declared dead and dropped.
const WRITE_STALL: Duration = Duration::from_secs(10);

/// How long the shutdown drain waits for in-flight responses to flush
/// before the reactor exits anyway.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

#[cfg(unix)]
fn stream_fd(s: &TcpStream) -> i32 {
    use std::os::fd::AsRawFd;
    s.as_raw_fd()
}
#[cfg(unix)]
fn listener_fd(l: &TcpListener) -> i32 {
    use std::os::fd::AsRawFd;
    l.as_raw_fd()
}
// On non-unix targets `sys_poll` degrades to a timed nap that reports
// every watched entry ready, so any non-negative placeholder works.
#[cfg(not(unix))]
fn stream_fd(_: &TcpStream) -> i32 {
    0
}
#[cfg(not(unix))]
fn listener_fd(_: &TcpListener) -> i32 {
    0
}

/// One response slot in a connection's ordered output queue.
enum Slot {
    /// The command is executing on its shard; the worker's
    /// [`Completion`] addressed to this slot's `(conn_id, seq)` fills
    /// it. [`crate::server::Completion`]
    Pending {
        label: &'static str,
        id: Option<u64>,
        session: String,
    },
    /// The answer is encoded and flushing (possibly across several
    /// partial writes).
    Ready {
        bytes: Vec<u8>,
        written: usize,
        outcome: RequestOutcome,
        /// When the answer became flushable; last-byte-written minus
        /// this is the `respond` phase.
        ready_at: Instant,
        /// This is a `shutdown` ack: initiate the teardown once its
        /// last byte is out.
        shutdown_after: bool,
    },
}

/// How many bytes one `read(2)` may take: a whole 12 KB `stage` frame
/// in one call.
const READ_CHUNK: usize = 64 << 10;

/// One client connection's state.
struct Conn {
    stream: TcpStream,
    /// Read buffer; `rbuf[..filled]` holds the partial NDJSON frame
    /// carried across reads: a command split across arbitrarily many
    /// writes (or an arbitrarily long pause) reassembles when its
    /// newline finally arrives. Reads land straight in the spare tail,
    /// which is zeroed once when the buffer grows and reused after.
    rbuf: Vec<u8>,
    /// Bytes of `rbuf` that hold received data.
    filled: usize,
    /// How far `rbuf` has been scanned for a newline already.
    scanned: usize,
    /// An oversized frame was answered; its bytes are dropped through
    /// the next newline.
    discarding: bool,
    /// Ordered response slots; the front flushes first.
    out: VecDeque<Slot>,
    /// Sequence number of `out.front()`; slot `seq` lives at index
    /// `seq - head_seq`.
    head_seq: u64,
    /// Sequence number the next parsed command claims.
    next_seq: u64,
    /// The peer half-closed its write side; the connection lingers
    /// only until its remaining output drains.
    eof: bool,
    /// Last time a flush made progress (or the queue was empty).
    last_progress: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            rbuf: Vec::new(),
            filled: 0,
            scanned: 0,
            discarding: false,
            out: VecDeque::new(),
            head_seq: 0,
            next_seq: 0,
            eof: false,
            last_progress: Instant::now(),
        }
    }

    /// Whether the front slot has bytes waiting for the socket.
    fn wants_write(&self) -> bool {
        matches!(self.out.front(), Some(Slot::Ready { .. }))
    }
}

/// Encodes `outcome` into a flushable [`Slot::Ready`].
fn ready_slot(outcome: RequestOutcome, shutdown_after: bool) -> Slot {
    let mut bytes = encode_response_with_id(&outcome.response, outcome.id).into_bytes();
    bytes.push(b'\n');
    Slot::Ready {
        bytes,
        written: 0,
        outcome,
        ready_at: Instant::now(),
        shutdown_after,
    }
}

/// The reactor loop. Runs until shutdown (a `shutdown` command, a
/// [`crate::LaharServer::shutdown`] call, or drop of the handle) has
/// been initiated *and* in-flight responses have drained (bounded by
/// [`DRAIN_DEADLINE`]).
pub(crate) fn run(listener: TcpListener, wake: TcpStream, shared: &Arc<Shared>) {
    if listener.set_nonblocking(true).is_err() {
        // Without a non-blocking listener the loop cannot multiplex;
        // flag the server down rather than serve wrongly.
        initiate_shutdown(shared);
        return;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn_id: u64 = 0;
    let mut shutdown_since: Option<Instant> = None;

    loop {
        let shutting_down = shared.shutting_down.load(Ordering::SeqCst);
        if shutting_down && shutdown_since.is_none() {
            shutdown_since = Some(Instant::now());
        }
        if let Some(since) = shutdown_since {
            let drained = conns.values().all(|c| c.out.is_empty());
            if drained || since.elapsed() >= DRAIN_DEADLINE {
                return;
            }
        }

        // --- Build the fd set: wake pipe, listener, every connection.
        let mut fds = Vec::with_capacity(conns.len() + 2);
        let mut ids = Vec::with_capacity(conns.len());
        fds.push(PollFd::new(stream_fd(&wake), POLLIN));
        let listener_slot = if shutting_down {
            None
        } else {
            fds.push(PollFd::new(listener_fd(&listener), POLLIN));
            Some(fds.len() - 1)
        };
        for (&id, conn) in &conns {
            let mut events = 0;
            if !conn.eof {
                events |= POLLIN;
            }
            if conn.wants_write() {
                events |= POLLOUT;
            }
            // A fully-quiesced connection (half-closed, queue empty) is
            // removed below; until then always watch for errors, which
            // poll reports regardless of `events`.
            fds.push(PollFd::new(stream_fd(&conn.stream), events));
            ids.push(id);
        }
        if poll_fds(&mut fds, POLL_TIMEOUT_MS).is_err() {
            // Only pathological errors (EINVAL/ENOMEM) reach here —
            // EINTR is retried inside. Back off instead of spinning.
            std::thread::sleep(Duration::from_millis(10));
        }

        // --- Drain the wake pipe (level-triggered; empty it fully),
        // *then* take the completion queue. Workers wake the reactor
        // only when their push makes the queue non-empty, so this order
        // is what keeps a completion from being stranded: a push seen
        // as non-empty happened before the take below, which collects
        // it, and a push into an empty queue leaves a wake byte that
        // this drain consumed (the take then follows the push) or that
        // the next poll reports.
        if fds[0].revents & (POLLIN | POLLERR | POLLHUP) != 0 {
            let mut buf = [0u8; 64];
            loop {
                match (&wake).read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
        }

        // --- Fill slots from finished worker jobs.
        let completions = std::mem::take(&mut *shared.completions.lock().expect("completions"));
        for done in completions {
            let Some(conn) = conns.get_mut(&done.to.conn_id) else {
                continue; // the client is gone; nobody to answer
            };
            let idx = (done.to.seq - conn.head_seq) as usize;
            let Some(slot) = conn.out.get_mut(idx) else {
                continue;
            };
            let Slot::Pending { label, id, session } = slot else {
                continue;
            };
            let outcome = RequestOutcome {
                label,
                id: *id,
                session: Some(std::mem::take(session)),
                response: done.reply.response,
                queue_wait_ns: done.reply.queue_wait_ns,
                execute_ns: done.reply.execute_ns,
                wal_ns: done.reply.wal_ns,
            };
            *slot = ready_slot(outcome, false);
        }

        // --- Accept new connections.
        if let Some(slot) = listener_slot {
            if fds[slot].revents & POLLIN != 0 {
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // One small flushed frame per response;
                            // without TCP_NODELAY Nagle can hold it for
                            // the peer's delayed ACK.
                            let _ = stream.set_nodelay(true);
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            conns.insert(next_conn_id, Conn::new(stream));
                            next_conn_id += 1;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => break, // transient (ECONNABORTED etc.)
                    }
                }
            }
        }

        // --- Read, parse, dispatch.
        let mut dead: Vec<u64> = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let revents = fds[i + 1 + usize::from(listener_slot.is_some())].revents;
            if revents & POLLNVAL != 0 {
                dead.push(id);
                continue;
            }
            let conn = conns.get_mut(&id).expect("listed");
            if revents & (POLLIN | POLLERR | POLLHUP) != 0
                && !conn.eof
                && !read_and_dispatch(conn, id, shared)
            {
                dead.push(id);
                continue;
            }
            // Flush whatever is flushable, whether or not POLLOUT fired
            // — a completion may have landed while the socket was
            // already writable.
            if !flush_conn(conn, shared) {
                dead.push(id);
                continue;
            }
            if conn.eof && conn.out.is_empty() {
                dead.push(id); // quiesced half-close: nothing left to say
            } else if conn.wants_write() && conn.last_progress.elapsed() >= WRITE_STALL {
                dead.push(id); // dead peer with backed-up output
            }
        }
        for id in dead {
            conns.remove(&id);
        }
    }
}

/// Reads every available byte from `conn`, parses complete frames, and
/// dispatches them (claiming output slots in arrival order). Returns
/// `false` when the connection is broken and must be dropped.
fn read_and_dispatch(conn: &mut Conn, conn_id: u64, shared: &Arc<Shared>) -> bool {
    loop {
        if conn.rbuf.len() < conn.filled + READ_CHUNK {
            conn.rbuf.resize(conn.filled + READ_CHUNK, 0);
        }
        match conn.stream.read(&mut conn.rbuf[conn.filled..]) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => {
                conn.filled += n;
                // A peer may keep the socket readable indefinitely;
                // deframe as soon as the buffer passes the cap.
                if conn.filled > MAX_FRAME_BYTES {
                    dispatch_frames(conn, conn_id, shared);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    dispatch_frames(conn, conn_id, shared);
    true
}

/// Parses and dispatches every complete frame in `rbuf`, in place; the
/// trailing partial (if any) stays for however long its remainder
/// takes to arrive, unless it already exceeds [`MAX_FRAME_BYTES`].
fn dispatch_frames(conn: &mut Conn, conn_id: u64, shared: &Arc<Shared>) {
    let mut start = 0;
    let mut scan_from = conn.scanned;
    while let Some(nl) = conn.rbuf[scan_from..conn.filled]
        .iter()
        .position(|&b| b == b'\n')
    {
        let end = scan_from + nl;
        let frame = start..end;
        start = end + 1;
        scan_from = start;
        if std::mem::take(&mut conn.discarding) {
            continue; // the tail of an oversized frame, already answered
        }
        if frame.len() > MAX_FRAME_BYTES {
            refuse_oversized(conn);
            continue;
        }
        let text = String::from_utf8_lossy(&conn.rbuf[frame]);
        let line = text.trim_end();
        if line.trim_start().is_empty() {
            continue;
        }
        let parsed = parse_request(line);
        let span = req_span(
            "serve_request",
            parsed.as_ref().ok().and_then(|(_, id)| *id),
        );
        let seq = conn.next_seq;
        conn.next_seq += 1;
        match dispatch(shared, parsed, line, conn_id, seq) {
            Dispatched::Inline(outcome) => {
                let closing = matches!(outcome.response, Response::ShuttingDown);
                conn.out.push_back(ready_slot(outcome, closing));
            }
            Dispatched::Enqueued { label, id, session } => {
                conn.out.push_back(Slot::Pending { label, id, session });
            }
        }
        drop(span);
    }
    conn.rbuf.copy_within(start..conn.filled, 0);
    conn.filled -= start;
    if !conn.discarding && conn.filled > MAX_FRAME_BYTES {
        refuse_oversized(conn);
        conn.discarding = true;
    }
    if conn.discarding {
        conn.filled = 0;
    }
    conn.scanned = conn.filled;
}

/// Answers a frame longer than [`MAX_FRAME_BYTES`] with a `protocol`
/// error in its request-order slot.
fn refuse_oversized(conn: &mut Conn) {
    conn.next_seq += 1;
    let refused = Response::Error {
        code: WireCode::Protocol,
        message: format!("bad frame: longer than {MAX_FRAME_BYTES} bytes"),
    };
    conn.out.push_back(ready_slot(
        RequestOutcome::inline("invalid", None, None, refused),
        false,
    ));
}

/// Flushes the connection's front slots for as long as the socket
/// accepts bytes, recording request metrics (and the slow log) as each
/// response completes. Returns `false` when the connection is broken.
fn flush_conn(conn: &mut Conn, shared: &Arc<Shared>) -> bool {
    loop {
        let Some(Slot::Ready {
            bytes,
            written,
            outcome,
            ready_at,
            shutdown_after,
        }) = conn.out.front_mut()
        else {
            if conn.out.is_empty() {
                conn.last_progress = Instant::now();
            }
            return true; // nothing flushable (empty or waiting on a worker)
        };
        while *written < bytes.len() {
            match conn.stream.write(&bytes[*written..]) {
                Ok(0) => return false,
                Ok(n) => {
                    *written += n;
                    conn.last_progress = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        let respond_ns = elapsed_ns(*ready_at);
        shared.requests.record(
            outcome.label,
            [
                outcome.queue_wait_ns,
                outcome.execute_ns,
                outcome.wal_ns,
                respond_ns,
            ],
            outcome.code(),
        );
        if let Some(slow) = &shared.slow_log {
            slow.observe(outcome, respond_ns);
        }
        let closing = *shutdown_after;
        conn.out.pop_front();
        conn.head_seq += 1;
        if closing {
            // The ack is on the wire; now (and only now) start the
            // teardown, mirroring the flush-then-shutdown order the
            // threaded server guaranteed.
            initiate_shutdown(shared);
            return false; // close this connection; drain handles the rest
        }
    }
}
