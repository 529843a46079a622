//! Wire protocol of `lahar serve` (see `PROTOCOL.md` at the repo root).
//!
//! Frames are newline-delimited JSON: one request object per line from
//! the client, one response object per line from the server, answered in
//! order. The encoding is hand-rolled over [`crate::json`] — the same
//! dependency-free writer/parser the checkpoint format uses — so
//! probabilities survive the wire **bit-identically** (shortest
//! round-trip `f64` form on both directions).
//!
//! Requests carry a `"cmd"` tag, responses a `"type"` tag. An optional
//! `"v"` field on any request pins the protocol version; the server
//! rejects frames whose version it does not speak. The module is used by
//! both sides ([`crate::server`] and [`crate::client`]) and by the
//! round-trip proptests, so the two implementations cannot drift.
//!
//! Durability does not change the wire shapes — it changes what a
//! successful response *promises*. Under
//! [`crate::wal::Durability::Batch`] or `Always`, a mutating command is
//! acknowledged only after its record reached the session's write-ahead
//! log, so an acknowledged tick survives a `kill -9` of the server; a
//! failed append answers the `"durability"` error code with nothing
//! applied-and-acked. See `PROTOCOL.md` § Acknowledgement durability.

use crate::error::EngineError;
use crate::json::{self, Cursor, JsonError};

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u32 = 1;

/// Longest request frame a server accepts, newline excluded — far above
/// any frame this crate's clients send. A longer one is answered with
/// one `protocol` error and its bytes are dropped through the next
/// newline, so a peer that never sends `\n` cannot grow a connection's
/// read buffer past this (plus one read).
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// A stream identity plus one tick's marginal, as carried on the wire.
///
/// `probs` lists the full distribution in domain order — including the
/// ⊥ ("no event") outcome — exactly as
/// [`lahar_model::Marginal::probs`] stores it.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMarginal {
    /// The stream type (a declared stream schema name).
    pub stream_type: String,
    /// The stream key (string-valued key attributes only).
    pub key: Vec<String>,
    /// The distribution over the stream's domain, ⊥ included.
    pub probs: Vec<f64>,
}

/// One query alert, as carried on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireAlert {
    /// Index of the query within its session.
    pub query: usize,
    /// The query's registered name.
    pub name: String,
    /// The timestep the alert closes.
    pub t: u32,
    /// μ(q@t).
    pub probability: f64,
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Liveness / version probe. Needs no session.
    Ping,
    /// Ensures the named session exists (restoring it from the server's
    /// checkpoint directory when a snapshot is on disk).
    Open {
        /// The session name.
        session: String,
    },
    /// Registers a named query from source text.
    Register {
        /// The session name.
        session: String,
        /// The query's name (unique per session).
        name: String,
        /// Query source text.
        query: String,
    },
    /// Stages one tick's marginals; with `tick: true` also closes the
    /// tick in the same frame (the batched ingest path).
    Stage {
        /// The session name.
        session: String,
        /// Marginals to stage, one per stream.
        marginals: Vec<WireMarginal>,
        /// Close the tick after staging.
        tick: bool,
    },
    /// Stages and closes a whole epoch of ticks in one frame: element
    /// `i` of `ticks` carries the marginals of tick `t+i` (an empty
    /// element closes a tick with every stream at ⊥). The server answers
    /// one [`Response::Ticked`] whose alerts span every closed tick in
    /// order — the batched ingest path that lets the session amortise
    /// one worker-pool join over the whole epoch.
    StageTicks {
        /// The session name.
        session: String,
        /// One marginal batch per tick, oldest first.
        ticks: Vec<Vec<WireMarginal>>,
    },
    /// Closes the current tick (unstaged streams read ⊥).
    Tick {
        /// The session name.
        session: String,
    },
    /// The full accumulated probability series of a registered query.
    Series {
        /// The session name.
        session: String,
        /// The query's registered name.
        query: String,
    },
    /// Takes a checkpoint now (also written to the server's checkpoint
    /// directory when one is configured).
    Checkpoint {
        /// The session name.
        session: String,
    },
    /// Gracefully stops the whole server: every hosted session writes a
    /// final checkpoint, then the process-level serve loop exits.
    Shutdown,
}

impl Command {
    /// The session a command routes to (`None` for server-level ones).
    pub fn session(&self) -> Option<&str> {
        match self {
            Command::Ping | Command::Shutdown => None,
            Command::Open { session }
            | Command::Register { session, .. }
            | Command::Stage { session, .. }
            | Command::StageTicks { session, .. }
            | Command::Tick { session }
            | Command::Series { session, .. }
            | Command::Checkpoint { session } => Some(session),
        }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Command::Ping`].
    Pong {
        /// The protocol version the server speaks.
        version: u32,
    },
    /// Answer to [`Command::Open`].
    Opened {
        /// The session's current timestep.
        t: u32,
        /// Whether the session was restored from a checkpoint on disk.
        restored: bool,
    },
    /// Answer to [`Command::Register`].
    Registered {
        /// Index of the query within its session.
        query: usize,
    },
    /// Answer to [`Command::Stage`] with `tick: false`.
    Staged {
        /// How many marginals were staged.
        staged: usize,
    },
    /// Answer to [`Command::Tick`] (and to [`Command::Stage`] with
    /// `tick: true`).
    Ticked {
        /// The session's timestep after the tick.
        t: u32,
        /// One alert per registered query, in query-index order.
        alerts: Vec<WireAlert>,
    },
    /// Answer to [`Command::Series`].
    Series {
        /// The query's registered name.
        query: String,
        /// μ(q@t) for t = 0..now, bit-identical to the session's alerts.
        series: Vec<f64>,
    },
    /// Answer to [`Command::Checkpoint`].
    Checkpointed {
        /// The timestep the checkpoint captures.
        t: u32,
    },
    /// Answer to [`Command::Shutdown`]; the connection closes after it.
    ShuttingDown,
    /// Any failure. `code` is machine-readable;
    /// [`WireCode::Overloaded`] means the target shard's bounded queue
    /// was full and the client should back off and retry — the frame
    /// was **not** enqueued.
    Error {
        /// Machine-readable error code.
        code: WireCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Machine-readable wire error codes, typed.
///
/// Each variant round-trips to the exact protocol-v1 string (the
/// `"code"` field of an error frame) via [`WireCode::as_str`] and
/// [`WireCode::from_wire`] — the wire shapes are unchanged; only the
/// in-process representation is typed. Both the server and
/// [`crate::client::RetryPolicy`] match on this enum, never on `&str`,
/// so retry/idempotence decisions are exhaustive matches the compiler
/// checks. Codes from a newer server that this build does not know
/// parse as [`WireCode::Other`] instead of failing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WireCode {
    /// Backpressure rejection: the target shard's bounded queue was
    /// full; the frame was **not** enqueued and a retry is safe.
    Overloaded,
    /// A session-addressed command whose session has not been opened on
    /// this server (sessions are created only by `open`).
    UnknownSession,
    /// Answer to `open` when the server already hosts its configured
    /// maximum number of sessions.
    SessionLimit,
    /// `series` named a query the session has not registered.
    UnknownQuery,
    /// A well-formed frame carrying an invalid request (duplicate query
    /// name, empty epoch, command not routable over the wire, …).
    BadRequest,
    /// A write-ahead-log append failed; the command was **not** applied
    /// and the session refuses further mutations until reopened.
    Durability,
    /// The frame itself was malformed (bad JSON, unknown command,
    /// unsupported version).
    Protocol,
    /// An engine-level failure while executing the command.
    Engine,
    /// The session is poisoned by an earlier failure and was recovered;
    /// the command was not applied.
    Poisoned,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// `register` arrived after the session stopped recording marginal
    /// history; the query was **not** registered (its answers for the
    /// closed ticks cannot be computed exactly any more).
    HistoryRetired,
    /// A code this build does not know (forward compatibility: newer
    /// servers may answer codes older clients have no variant for).
    Other(String),
}

impl WireCode {
    /// The exact protocol-v1 string this code encodes as.
    pub fn as_str(&self) -> &str {
        match self {
            WireCode::Overloaded => "overloaded",
            WireCode::UnknownSession => "unknown_session",
            WireCode::SessionLimit => "session_limit",
            WireCode::UnknownQuery => "unknown_query",
            WireCode::BadRequest => "bad_request",
            WireCode::Durability => "durability",
            WireCode::Protocol => "protocol",
            WireCode::Engine => "engine",
            WireCode::Poisoned => "poisoned",
            WireCode::ShuttingDown => "shutting_down",
            WireCode::HistoryRetired => "history_retired",
            WireCode::Other(s) => s,
        }
    }

    /// Parses a wire string back into the typed code. Unknown strings
    /// become [`WireCode::Other`] — never an error — so old clients
    /// keep interoperating with newer servers.
    pub fn from_wire(s: &str) -> WireCode {
        match s {
            "overloaded" => WireCode::Overloaded,
            "unknown_session" => WireCode::UnknownSession,
            "session_limit" => WireCode::SessionLimit,
            "unknown_query" => WireCode::UnknownQuery,
            "bad_request" => WireCode::BadRequest,
            "durability" => WireCode::Durability,
            "protocol" => WireCode::Protocol,
            "engine" => WireCode::Engine,
            "poisoned" => WireCode::Poisoned,
            "shutting_down" => WireCode::ShuttingDown,
            "history_retired" => WireCode::HistoryRetired,
            other => WireCode::Other(other.to_owned()),
        }
    }
}

impl std::fmt::Display for WireCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn push_str_field(out: &mut String, name: &str, value: &str) {
    out.push(',');
    out.push('"');
    out.push_str(name);
    out.push_str("\":");
    json::push_string(out, value);
}

fn push_marginal_list(out: &mut String, marginals: &[WireMarginal]) {
    out.push('[');
    for (i, m) in marginals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"type\":");
        json::push_string(out, &m.stream_type);
        out.push_str(",\"key\":[");
        for (j, k) in m.key.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json::push_string(out, k);
        }
        out.push_str("],\"probs\":[");
        for (j, p) in m.probs.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json::push_f64(out, *p);
        }
        out.push_str("]}");
    }
    out.push(']');
}

fn push_marginals(out: &mut String, marginals: &[WireMarginal]) {
    out.push_str(",\"marginals\":");
    push_marginal_list(out, marginals);
}

/// Encodes a command as one JSON line (no trailing newline). The output
/// never contains a raw newline: [`json::push_string`] escapes them, so
/// the frame boundary is unambiguous.
pub fn encode_command(c: &Command) -> String {
    encode_request(c, None)
}

/// Encodes a command with an optional request `id` (additive protocol v1
/// field; servers echo it verbatim in the matching response).
pub fn encode_request(c: &Command, id: Option<u64>) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"v\":");
    out.push_str(&PROTOCOL_VERSION.to_string());
    if let Some(id) = id {
        out.push_str(",\"id\":");
        out.push_str(&id.to_string());
    }
    out.push_str(",\"cmd\":");
    match c {
        Command::Ping => out.push_str("\"ping\""),
        Command::Shutdown => out.push_str("\"shutdown\""),
        Command::Open { session } => {
            out.push_str("\"open\"");
            push_str_field(&mut out, "session", session);
        }
        Command::Register {
            session,
            name,
            query,
        } => {
            out.push_str("\"register\"");
            push_str_field(&mut out, "session", session);
            push_str_field(&mut out, "name", name);
            push_str_field(&mut out, "query", query);
        }
        Command::Stage {
            session,
            marginals,
            tick,
        } => {
            out.push_str("\"stage\"");
            push_str_field(&mut out, "session", session);
            push_marginals(&mut out, marginals);
            out.push_str(",\"tick\":");
            out.push_str(if *tick { "true" } else { "false" });
        }
        Command::StageTicks { session, ticks } => {
            out.push_str("\"stage_ticks\"");
            push_str_field(&mut out, "session", session);
            out.push_str(",\"ticks\":[");
            for (i, tick) in ticks.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_marginal_list(&mut out, tick);
            }
            out.push(']');
        }
        Command::Tick { session } => {
            out.push_str("\"tick\"");
            push_str_field(&mut out, "session", session);
        }
        Command::Series { session, query } => {
            out.push_str("\"series\"");
            push_str_field(&mut out, "session", session);
            push_str_field(&mut out, "query", query);
        }
        Command::Checkpoint { session } => {
            out.push_str("\"checkpoint\"");
            push_str_field(&mut out, "session", session);
        }
    }
    out.push('}');
    out
}

/// Encodes a response, echoing the request's `id` when one was given.
/// Every response shape — including errors — carries the echo, so a
/// client can correlate replies even across failures.
pub fn encode_response_with_id(r: &Response, id: Option<u64>) -> String {
    let mut out = encode_response(r);
    if let Some(id) = id {
        debug_assert!(out.ends_with('}'));
        out.pop();
        out.push_str(",\"id\":");
        out.push_str(&id.to_string());
        out.push('}');
    }
    out
}

/// Encodes a response as one JSON line (no trailing newline).
pub fn encode_response(r: &Response) -> String {
    let mut out = String::with_capacity(128);
    match r {
        Response::Pong { version } => {
            out.push_str("{\"type\":\"pong\",\"ok\":true,\"version\":");
            out.push_str(&version.to_string());
            out.push('}');
        }
        Response::Opened { t, restored } => {
            out.push_str("{\"type\":\"opened\",\"ok\":true,\"t\":");
            out.push_str(&t.to_string());
            out.push_str(",\"restored\":");
            out.push_str(if *restored { "true" } else { "false" });
            out.push('}');
        }
        Response::Registered { query } => {
            out.push_str("{\"type\":\"registered\",\"ok\":true,\"query\":");
            out.push_str(&query.to_string());
            out.push('}');
        }
        Response::Staged { staged } => {
            out.push_str("{\"type\":\"staged\",\"ok\":true,\"staged\":");
            out.push_str(&staged.to_string());
            out.push('}');
        }
        Response::Ticked { t, alerts } => {
            out.push_str("{\"type\":\"ticked\",\"ok\":true,\"t\":");
            out.push_str(&t.to_string());
            out.push_str(",\"alerts\":[");
            for (i, a) in alerts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"query\":");
                out.push_str(&a.query.to_string());
                out.push_str(",\"name\":");
                json::push_string(&mut out, &a.name);
                out.push_str(",\"t\":");
                out.push_str(&a.t.to_string());
                out.push_str(",\"probability\":");
                json::push_f64(&mut out, a.probability);
                out.push('}');
            }
            out.push_str("]}");
        }
        Response::Series { query, series } => {
            out.push_str("{\"type\":\"series\",\"ok\":true,\"query\":");
            json::push_string(&mut out, query);
            out.push_str(",\"series\":[");
            for (i, p) in series.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_f64(&mut out, *p);
            }
            out.push_str("]}");
        }
        Response::Checkpointed { t } => {
            out.push_str("{\"type\":\"checkpointed\",\"ok\":true,\"t\":");
            out.push_str(&t.to_string());
            out.push('}');
        }
        Response::ShuttingDown => {
            out.push_str("{\"type\":\"shutting_down\",\"ok\":true}");
        }
        Response::Error { code, message } => {
            out.push_str("{\"type\":\"error\",\"ok\":false,\"code\":");
            json::push_string(&mut out, code.as_str());
            out.push_str(",\"message\":");
            json::push_string(&mut out, message);
            out.push('}');
        }
    }
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------
//
// Frames decode in one pass over a `json::Cursor`: each known member is
// read straight into a typed slot and every other member is skipped, so
// no tree is built and every probability goes from text to `f64` once.
// A member of the wrong shape does not fail the frame on the spot: its
// slot records the error and the value is skipped. So, as with a parsed
// tree, a later duplicate key replaces it, and a member the command does
// not use cannot fail it.

fn proto_err(msg: impl Into<String>) -> EngineError {
    EngineError::Protocol(msg.into())
}

fn bad_frame(e: JsonError) -> EngineError {
    proto_err(format!("bad frame: {e}"))
}

/// Why a typed read failed.
enum Fail {
    /// The text is not JSON: the whole frame is rejected.
    Json(JsonError),
    /// The text is JSON of the wrong shape for the member.
    Shape(String),
}

impl From<JsonError> for Fail {
    fn from(e: JsonError) -> Self {
        Fail::Json(e)
    }
}

/// A member as last seen in its object: `None` when absent, else its
/// value or what was wrong with it.
type Slot<T> = Option<Result<T, String>>;

/// Reads one member's value into `slot`. A shape error is recorded in
/// the slot, and the value is skipped from its start.
fn member<'a, T>(
    c: &mut Cursor<'a>,
    slot: &mut Slot<T>,
    read: impl FnOnce(&mut Cursor<'a>) -> Result<T, Fail>,
) -> Result<(), JsonError> {
    let mark = c.mark();
    *slot = Some(match read(c) {
        Ok(v) => Ok(v),
        Err(Fail::Shape(why)) => {
            c.rewind(mark);
            c.skip()?;
            Err(why)
        }
        Err(Fail::Json(e)) => return Err(e),
    });
    Ok(())
}

/// The value of a required member, or why there is none.
fn required<T>(slot: Slot<T>, name: &str) -> Result<T, String> {
    match slot {
        None => Err(format!("missing field '{name}'")),
        Some(Ok(v)) => Ok(v),
        Some(Err(why)) => Err(format!("field '{name}' {why}")),
    }
}

/// The value of an optional member; present but malformed is an error.
fn optional<T>(slot: Slot<T>, name: &str) -> Result<Option<T>, String> {
    match slot {
        None => Ok(None),
        some => required(some, name).map(Some),
    }
}

fn shape<T>(why: &str) -> Result<T, Fail> {
    Err(Fail::Shape(why.to_owned()))
}

fn read_string(c: &mut Cursor<'_>) -> Result<String, Fail> {
    if c.peek() != Some(b'"') {
        return shape("is not a string");
    }
    Ok(c.string()?)
}

fn read_u64(c: &mut Cursor<'_>) -> Result<u64, Fail> {
    if !c.at_number() {
        return shape("is not an unsigned integer");
    }
    json::exact_u64(c.number()?).map_or_else(|| shape("is not an unsigned integer"), Ok)
}

fn read_f64(c: &mut Cursor<'_>) -> Result<f64, Fail> {
    if !c.at_number() {
        return shape("is not a number");
    }
    Ok(c.number()?)
}

fn read_bool(c: &mut Cursor<'_>) -> Result<bool, Fail> {
    match c.peek() {
        Some(b't' | b'f') => Ok(c.bool()?),
        _ => shape("is not a boolean"),
    }
}

/// Reads an array whose every element decodes with `read`.
fn read_list<'a, T>(
    c: &mut Cursor<'a>,
    read: impl Fn(&mut Cursor<'a>) -> Result<T, Fail>,
) -> Result<Vec<T>, Fail> {
    let mut out = Vec::new();
    read_list_into(c, &mut out, read).map(|()| out)
}

/// [`read_list`], appending to `out`.
fn read_list_into<'a, T>(
    c: &mut Cursor<'a>,
    out: &mut Vec<T>,
    read: impl Fn(&mut Cursor<'a>) -> Result<T, Fail>,
) -> Result<(), Fail> {
    if c.peek() != Some(b'[') {
        return shape("is not an array");
    }
    c.array(|c| match read(c) {
        Ok(v) => {
            out.push(v);
            Ok(())
        }
        Err(Fail::Shape(why)) => shape(&format!("element {} {why}", out.len())),
        Err(e) => Err(e),
    })
}

/// Reads an array of numbers into an exactly sized `Vec`. The numbers
/// collect in a per-thread scratch buffer first, so a probability vector
/// costs one allocation rather than one per doubling, and the `Vec` a
/// `Marginal` later keeps holds no spare capacity.
fn read_f64s(c: &mut Cursor<'_>) -> Result<Vec<f64>, Fail> {
    thread_local! {
        static SCRATCH: std::cell::Cell<Vec<f64>> = const { std::cell::Cell::new(Vec::new()) };
    }
    let mut scratch = SCRATCH.take();
    scratch.clear();
    let read = read_list_into(c, &mut scratch, read_f64).map(|()| scratch.to_vec());
    SCRATCH.set(scratch);
    read
}

/// Reads an object, handing each member to `read_member`.
fn read_object<'a>(
    c: &mut Cursor<'a>,
    read_member: impl FnMut(&mut Cursor<'a>, &str) -> Result<(), JsonError>,
) -> Result<(), Fail> {
    if c.peek() != Some(b'{') {
        return shape("is not an object");
    }
    Ok(c.object(read_member)?)
}

/// Reads a frame: one object, each member handed to `read_member`. Any
/// other document is still read through, so a malformed one reports
/// what is wrong with it (over-deep nesting, say), then refused.
fn read_frame<'a>(
    line: &'a str,
    read_member: impl FnMut(&mut Cursor<'a>, &str) -> Result<(), JsonError>,
) -> Result<(), EngineError> {
    let mut c = Cursor::new(line);
    if c.peek() != Some(b'{') {
        c.skip().and_then(|()| c.finish()).map_err(bad_frame)?;
        return Err(proto_err("frame is not a JSON object"));
    }
    c.object(read_member)
        .and_then(|()| c.finish())
        .map_err(bad_frame)
}

fn read_marginal(c: &mut Cursor<'_>) -> Result<WireMarginal, Fail> {
    let (mut stream_type, mut key, mut probs) = (None, None, None);
    read_object(c, |c, k| match k {
        "type" => member(c, &mut stream_type, read_string),
        "key" => member(c, &mut key, |c| read_list(c, read_string)),
        "probs" => member(c, &mut probs, read_f64s),
        _ => c.skip(),
    })?;
    let marginal = || {
        Ok(WireMarginal {
            stream_type: required(stream_type, "type")?,
            key: required(key, "key")?,
            probs: required(probs, "probs")?,
        })
    };
    marginal().map_err(Fail::Shape)
}

fn read_marginals(c: &mut Cursor<'_>) -> Result<Vec<WireMarginal>, Fail> {
    read_list(c, read_marginal)
}

/// The members a request frame may carry.
#[derive(Default)]
struct RequestFields {
    v: Slot<u64>,
    id: Slot<u64>,
    cmd: Slot<String>,
    session: Slot<String>,
    name: Slot<String>,
    query: Slot<String>,
    marginals: Slot<Vec<WireMarginal>>,
    tick: Slot<bool>,
    ticks: Slot<Vec<Vec<WireMarginal>>>,
}

impl RequestFields {
    /// The command these members spell. The version is checked first,
    /// then a present `id` (a malformed one is an error rather than
    /// dropped: the client is clearly speaking the extension and would
    /// otherwise mis-correlate replies), then the command's own members.
    fn command(self) -> Result<(Command, Option<u64>), String> {
        if let Some(ver) = optional(self.v, "v")? {
            if ver != u64::from(PROTOCOL_VERSION) {
                return Err(format!(
                    "unsupported protocol version {ver} (this build speaks {PROTOCOL_VERSION})"
                ));
            }
        }
        let id = optional(self.id, "id")?;
        let cmd = match required(self.cmd, "cmd")?.as_str() {
            "ping" => Command::Ping,
            "shutdown" => Command::Shutdown,
            "open" => Command::Open {
                session: required(self.session, "session")?,
            },
            "register" => Command::Register {
                session: required(self.session, "session")?,
                name: required(self.name, "name")?,
                query: required(self.query, "query")?,
            },
            "stage" => Command::Stage {
                session: required(self.session, "session")?,
                marginals: required(self.marginals, "marginals")?,
                tick: required(self.tick, "tick")?,
            },
            "stage_ticks" => Command::StageTicks {
                session: required(self.session, "session")?,
                ticks: required(self.ticks, "ticks")?,
            },
            "tick" => Command::Tick {
                session: required(self.session, "session")?,
            },
            "series" => Command::Series {
                session: required(self.session, "session")?,
                query: required(self.query, "query")?,
            },
            "checkpoint" => Command::Checkpoint {
                session: required(self.session, "session")?,
            },
            other => return Err(format!("unknown command '{other}'")),
        };
        Ok((cmd, id))
    }
}

/// Parses one request line. Rejects frames whose `"v"` field names a
/// version this build does not speak (frames without `"v"` are assumed
/// current).
pub fn parse_command(line: &str) -> Result<Command, EngineError> {
    parse_request(line).map(|(c, _)| c)
}

/// Parses one request line together with its optional correlation `id`,
/// in one typed pass over the text.
pub fn parse_request(line: &str) -> Result<(Command, Option<u64>), EngineError> {
    let mut f = RequestFields::default();
    read_frame(line, |c, key| match key {
        "v" => member(c, &mut f.v, read_u64),
        "id" => member(c, &mut f.id, read_u64),
        "cmd" => member(c, &mut f.cmd, read_string),
        "session" => member(c, &mut f.session, read_string),
        "name" => member(c, &mut f.name, read_string),
        "query" => member(c, &mut f.query, read_string),
        "marginals" => member(c, &mut f.marginals, read_marginals),
        "tick" => member(c, &mut f.tick, read_bool),
        "ticks" => member(c, &mut f.ticks, |c| read_list(c, read_marginals)),
        _ => c.skip(),
    })?;
    f.command().map_err(proto_err)
}

fn read_alert(c: &mut Cursor<'_>) -> Result<WireAlert, Fail> {
    let (mut query, mut name, mut t, mut probability) = (None, None, None, None);
    read_object(c, |c, k| match k {
        "query" => member(c, &mut query, read_u64),
        "name" => member(c, &mut name, read_string),
        "t" => member(c, &mut t, read_u64),
        "probability" => member(c, &mut probability, read_f64),
        _ => c.skip(),
    })?;
    let alert = || {
        Ok(WireAlert {
            query: required(query, "query")? as usize,
            name: required(name, "name")?,
            t: required(t, "t")? as u32,
            probability: required(probability, "probability")?,
        })
    };
    alert().map_err(Fail::Shape)
}

/// The members a response frame may carry. `query` is a name in
/// `series` answers and an index in `registered` ones, so it fills one
/// slot or the other.
#[derive(Default)]
struct ResponseFields {
    id: Slot<u64>,
    kind: Slot<String>,
    version: Slot<u64>,
    t: Slot<u64>,
    restored: Slot<bool>,
    query_name: Slot<String>,
    query_index: Slot<u64>,
    staged: Slot<u64>,
    alerts: Slot<Vec<WireAlert>>,
    series: Slot<Vec<f64>>,
    code: Slot<String>,
    message: Slot<String>,
}

impl ResponseFields {
    fn response(self) -> Result<(Response, Option<u64>), String> {
        let id = optional(self.id, "id")?;
        let t = self.t;
        let r = match required(self.kind, "type")?.as_str() {
            "pong" => Response::Pong {
                version: required(self.version, "version")? as u32,
            },
            "opened" => Response::Opened {
                t: required(t, "t")? as u32,
                restored: required(self.restored, "restored")?,
            },
            "registered" => Response::Registered {
                query: required(self.query_index, "query")? as usize,
            },
            "staged" => Response::Staged {
                staged: required(self.staged, "staged")? as usize,
            },
            "ticked" => Response::Ticked {
                alerts: required(self.alerts, "alerts")?,
                t: required(t, "t")? as u32,
            },
            "series" => Response::Series {
                query: required(self.query_name, "query")?,
                series: required(self.series, "series")?,
            },
            "checkpointed" => Response::Checkpointed {
                t: required(t, "t")? as u32,
            },
            "shutting_down" => Response::ShuttingDown,
            "error" => Response::Error {
                code: WireCode::from_wire(&required(self.code, "code")?),
                message: required(self.message, "message")?,
            },
            other => return Err(format!("unknown response type '{other}'")),
        };
        Ok((r, id))
    }
}

/// Parses one response line.
pub fn parse_response(line: &str) -> Result<Response, EngineError> {
    parse_response_with_id(line).map(|(r, _)| r)
}

/// Parses one response line together with its optional echoed `id`.
pub fn parse_response_with_id(line: &str) -> Result<(Response, Option<u64>), EngineError> {
    let mut f = ResponseFields::default();
    read_frame(line, |c, key| match key {
        "id" => member(c, &mut f.id, read_u64),
        "type" => member(c, &mut f.kind, read_string),
        "version" => member(c, &mut f.version, read_u64),
        "t" => member(c, &mut f.t, read_u64),
        "restored" => member(c, &mut f.restored, read_bool),
        "query" => {
            if c.peek() == Some(b'"') {
                f.query_index = Some(Err("is not an unsigned integer".to_owned()));
                member(c, &mut f.query_name, read_string)
            } else {
                f.query_name = Some(Err("is not a string".to_owned()));
                member(c, &mut f.query_index, read_u64)
            }
        }
        "staged" => member(c, &mut f.staged, read_u64),
        "alerts" => member(c, &mut f.alerts, |c| read_list(c, read_alert)),
        "series" => member(c, &mut f.series, read_f64s),
        "code" => member(c, &mut f.code, read_string),
        "message" => member(c, &mut f.message, read_string),
        _ => c.skip(),
    })?;
    f.response().map_err(proto_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commands() -> Vec<Command> {
        vec![
            Command::Ping,
            Command::Shutdown,
            Command::Open {
                session: "s \"q\"\nnewline".into(),
            },
            Command::Register {
                session: "s".into(),
                name: "coffee".into(),
                query: "At('joe','office') ; At('joe','coffee')".into(),
            },
            Command::Stage {
                session: "s".into(),
                marginals: vec![WireMarginal {
                    stream_type: "At".into(),
                    key: vec!["joe".into(), "2".into()],
                    probs: vec![0.1 + 0.2, 1.0 / 3.0, 0.5400000000000001],
                }],
                tick: true,
            },
            Command::StageTicks {
                session: "s".into(),
                ticks: vec![
                    vec![WireMarginal {
                        stream_type: "At".into(),
                        key: vec!["joe".into()],
                        probs: vec![0.25, 0.75],
                    }],
                    Vec::new(),
                    vec![
                        WireMarginal {
                            stream_type: "At".into(),
                            key: vec!["joe".into()],
                            probs: vec![0.1 + 0.2, 0.7],
                        },
                        WireMarginal {
                            stream_type: "At".into(),
                            key: vec!["sue".into()],
                            probs: vec![5e-324, 1.0],
                        },
                    ],
                ],
            },
            Command::Tick {
                session: "s".into(),
            },
            Command::Series {
                session: "s".into(),
                query: "coffee".into(),
            },
            Command::Checkpoint {
                session: "s".into(),
            },
        ]
    }

    fn responses() -> Vec<Response> {
        vec![
            Response::Pong {
                version: PROTOCOL_VERSION,
            },
            Response::Opened {
                t: 7,
                restored: true,
            },
            Response::Registered { query: 3 },
            Response::Staged { staged: 2 },
            Response::Ticked {
                t: 8,
                alerts: vec![WireAlert {
                    query: 0,
                    name: "coffee ⊥".into(),
                    t: 7,
                    probability: 0.5400000000000001,
                }],
            },
            Response::Series {
                query: "coffee".into(),
                series: vec![0.0, 0.1 + 0.2, 5e-324],
            },
            Response::Checkpointed { t: 8 },
            Response::ShuttingDown,
            Response::Error {
                code: WireCode::Overloaded,
                message: "shard 2 queue full\ndetail".into(),
            },
            Response::Error {
                code: WireCode::Other("code_from_the_future".into()),
                message: "forward compat".into(),
            },
        ]
    }

    #[test]
    fn commands_round_trip_as_single_lines() {
        for c in commands() {
            let line = encode_command(&c);
            assert!(!line.contains('\n'), "frame has a raw newline: {line}");
            assert_eq!(parse_command(&line).unwrap(), c, "{line}");
        }
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        for r in responses() {
            let line = encode_response(&r);
            assert!(!line.contains('\n'), "frame has a raw newline: {line}");
            let back = parse_response(&line).unwrap();
            assert_eq!(back, r, "{line}");
        }
        // Bit-exactness of probabilities specifically.
        let r = Response::Series {
            query: "q".into(),
            series: vec![0.1 + 0.2],
        };
        match parse_response(&encode_response(&r)).unwrap() {
            Response::Series { series, .. } => {
                assert_eq!(series[0].to_bits(), (0.1f64 + 0.2).to_bits());
            }
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn request_ids_round_trip_on_both_directions() {
        for c in commands() {
            let line = encode_request(&c, Some(42));
            assert!(!line.contains('\n'), "frame has a raw newline: {line}");
            let (back, id) = parse_request(&line).unwrap();
            assert_eq!(back, c, "{line}");
            assert_eq!(id, Some(42), "{line}");
            // Frames without an id still parse as id-less.
            let (back, id) = parse_request(&encode_request(&c, None)).unwrap();
            assert_eq!(back, c);
            assert_eq!(id, None);
        }
        for r in responses() {
            // The largest id that survives every f64-backed JSON parser.
            let max_safe = (1u64 << 53) - 1;
            let line = encode_response_with_id(&r, Some(max_safe));
            assert!(!line.contains('\n'), "frame has a raw newline: {line}");
            let (back, id) = parse_response_with_id(&line).unwrap();
            assert_eq!(back, r, "{line}");
            assert_eq!(id, Some(max_safe), "{line}");
            assert_eq!(encode_response_with_id(&r, None), encode_response(&r));
        }
    }

    #[test]
    fn wire_codes_round_trip_to_the_exact_v1_strings() {
        let known = [
            (WireCode::Overloaded, "overloaded"),
            (WireCode::UnknownSession, "unknown_session"),
            (WireCode::SessionLimit, "session_limit"),
            (WireCode::UnknownQuery, "unknown_query"),
            (WireCode::BadRequest, "bad_request"),
            (WireCode::Durability, "durability"),
            (WireCode::Protocol, "protocol"),
            (WireCode::Engine, "engine"),
            (WireCode::Poisoned, "poisoned"),
            (WireCode::ShuttingDown, "shutting_down"),
            (WireCode::HistoryRetired, "history_retired"),
        ];
        for (code, wire) in known {
            assert_eq!(code.as_str(), wire);
            assert_eq!(WireCode::from_wire(wire), code);
            assert_eq!(code.to_string(), wire);
        }
        // Unknown strings survive a round trip rather than erroring.
        let future = WireCode::from_wire("brownout");
        assert_eq!(future, WireCode::Other("brownout".into()));
        assert_eq!(future.as_str(), "brownout");
    }

    #[test]
    fn malformed_request_ids_are_protocol_errors() {
        for bad in [
            "{\"cmd\":\"ping\",\"id\":\"seven\"}",
            "{\"cmd\":\"ping\",\"id\":-1}",
            "{\"cmd\":\"ping\",\"id\":1.5}",
            "{\"cmd\":\"ping\",\"id\":null}",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut line = encode_command(&Command::Ping);
        line = line.replace("\"v\":1", "\"v\":999");
        let err = parse_command(&line).unwrap_err();
        assert!(matches!(err, EngineError::Protocol(_)), "{err}");
        // Frames without a version field are assumed current.
        assert_eq!(parse_command("{\"cmd\":\"ping\"}").unwrap(), Command::Ping);
    }

    #[test]
    fn malformed_frames_are_protocol_errors() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"cmd\":\"nope\"}",
            "{\"cmd\":\"open\"}",
            "{\"cmd\":\"stage\",\"session\":\"s\"}",
            "{\"cmd\":\"stage_ticks\",\"session\":\"s\"}",
            "{\"cmd\":\"stage_ticks\",\"session\":\"s\",\"ticks\":[{}]}",
            "{\"type\":\"mystery\"}",
        ] {
            assert!(parse_command(bad).is_err(), "{bad:?}");
        }
        assert!(parse_response("{\"type\":\"mystery\"}").is_err());
    }
}
