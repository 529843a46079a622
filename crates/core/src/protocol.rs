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
use crate::json::{self, JsonValue};

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

fn proto_err(msg: impl Into<String>) -> EngineError {
    EngineError::Protocol(msg.into())
}

fn req_str(v: &JsonValue, field: &str) -> Result<String, EngineError> {
    v.get(field)
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
        .ok_or_else(|| proto_err(format!("missing or non-string field '{field}'")))
}

fn req_u64(v: &JsonValue, field: &str) -> Result<u64, EngineError> {
    v.get(field)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| proto_err(format!("missing or non-integer field '{field}'")))
}

fn req_bool(v: &JsonValue, field: &str) -> Result<bool, EngineError> {
    match v.get(field) {
        Some(JsonValue::Bool(b)) => Ok(*b),
        _ => Err(proto_err(format!("missing or non-boolean field '{field}'"))),
    }
}

fn f64_array(v: &JsonValue, what: &str) -> Result<Vec<f64>, EngineError> {
    v.as_array()
        .ok_or_else(|| proto_err(format!("{what} is not an array")))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| proto_err(format!("{what} contains a non-number")))
        })
        .collect()
}

fn parse_marginal(m: &JsonValue) -> Result<WireMarginal, EngineError> {
    let key = m
        .get("key")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| proto_err("marginal key is not an array"))?
        .iter()
        .map(|k| {
            k.as_str()
                .map(str::to_owned)
                .ok_or_else(|| proto_err("marginal key element is not a string"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(WireMarginal {
        stream_type: req_str(m, "type")?,
        key,
        probs: f64_array(
            m.get("probs").ok_or_else(|| proto_err("missing 'probs'"))?,
            "probs",
        )?,
    })
}

fn parse_marginals(v: &JsonValue) -> Result<Vec<WireMarginal>, EngineError> {
    v.get("marginals")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| proto_err("missing 'marginals' array"))?
        .iter()
        .map(parse_marginal)
        .collect()
}

fn parse_ticks(v: &JsonValue) -> Result<Vec<Vec<WireMarginal>>, EngineError> {
    v.get("ticks")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| proto_err("missing 'ticks' array"))?
        .iter()
        .map(|tick| {
            tick.as_array()
                .ok_or_else(|| proto_err("ticks element is not an array"))?
                .iter()
                .map(parse_marginal)
                .collect()
        })
        .collect()
}

/// Extracts the optional request-correlation `id` from a parsed frame.
/// A present-but-malformed id is a protocol error rather than being
/// silently dropped — the client is clearly speaking the extension and
/// would otherwise mis-correlate replies.
fn parse_request_id(v: &JsonValue) -> Result<Option<u64>, EngineError> {
    match v.get("id") {
        None => Ok(None),
        Some(id) => id
            .as_u64()
            .map(Some)
            .ok_or_else(|| proto_err("'id' is not an unsigned integer")),
    }
}

/// Parses one request line. Rejects frames whose `"v"` field names a
/// version this build does not speak (frames without `"v"` are assumed
/// current).
pub fn parse_command(line: &str) -> Result<Command, EngineError> {
    parse_request(line).map(|(c, _)| c)
}

/// Parses one request line together with its optional correlation `id`.
pub fn parse_request(line: &str) -> Result<(Command, Option<u64>), EngineError> {
    let v = json::parse(line).map_err(|e| proto_err(format!("bad frame: {e}")))?;
    if let Some(ver) = v.get("v") {
        let ver = ver
            .as_u64()
            .ok_or_else(|| proto_err("'v' is not an integer"))?;
        if ver != u64::from(PROTOCOL_VERSION) {
            return Err(proto_err(format!(
                "unsupported protocol version {ver} (this build speaks {PROTOCOL_VERSION})"
            )));
        }
    }
    let id = parse_request_id(&v)?;
    let cmd = match req_str(&v, "cmd")?.as_str() {
        "ping" => Ok(Command::Ping),
        "shutdown" => Ok(Command::Shutdown),
        "open" => Ok(Command::Open {
            session: req_str(&v, "session")?,
        }),
        "register" => Ok(Command::Register {
            session: req_str(&v, "session")?,
            name: req_str(&v, "name")?,
            query: req_str(&v, "query")?,
        }),
        "stage" => Ok(Command::Stage {
            session: req_str(&v, "session")?,
            marginals: parse_marginals(&v)?,
            tick: req_bool(&v, "tick")?,
        }),
        "stage_ticks" => Ok(Command::StageTicks {
            session: req_str(&v, "session")?,
            ticks: parse_ticks(&v)?,
        }),
        "tick" => Ok(Command::Tick {
            session: req_str(&v, "session")?,
        }),
        "series" => Ok(Command::Series {
            session: req_str(&v, "session")?,
            query: req_str(&v, "query")?,
        }),
        "checkpoint" => Ok(Command::Checkpoint {
            session: req_str(&v, "session")?,
        }),
        other => Err(proto_err(format!("unknown command '{other}'"))),
    }?;
    Ok((cmd, id))
}

/// Parses one response line.
pub fn parse_response(line: &str) -> Result<Response, EngineError> {
    parse_response_with_id(line).map(|(r, _)| r)
}

/// Parses one response line together with its optional echoed `id`.
pub fn parse_response_with_id(line: &str) -> Result<(Response, Option<u64>), EngineError> {
    let v = json::parse(line).map_err(|e| proto_err(format!("bad frame: {e}")))?;
    let id = parse_request_id(&v)?;
    let r = match req_str(&v, "type")?.as_str() {
        "pong" => Ok(Response::Pong {
            version: req_u64(&v, "version")? as u32,
        }),
        "opened" => Ok(Response::Opened {
            t: req_u64(&v, "t")? as u32,
            restored: req_bool(&v, "restored")?,
        }),
        "registered" => Ok(Response::Registered {
            query: req_u64(&v, "query")? as usize,
        }),
        "staged" => Ok(Response::Staged {
            staged: req_u64(&v, "staged")? as usize,
        }),
        "ticked" => {
            let alerts = v
                .get("alerts")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| proto_err("missing 'alerts' array"))?
                .iter()
                .map(|a| {
                    Ok(WireAlert {
                        query: req_u64(a, "query")? as usize,
                        name: req_str(a, "name")?,
                        t: req_u64(a, "t")? as u32,
                        probability: a
                            .get("probability")
                            .and_then(JsonValue::as_f64)
                            .ok_or_else(|| proto_err("missing 'probability'"))?,
                    })
                })
                .collect::<Result<Vec<_>, EngineError>>()?;
            Ok(Response::Ticked {
                t: req_u64(&v, "t")? as u32,
                alerts,
            })
        }
        "series" => Ok(Response::Series {
            query: req_str(&v, "query")?,
            series: f64_array(
                v.get("series")
                    .ok_or_else(|| proto_err("missing 'series'"))?,
                "series",
            )?,
        }),
        "checkpointed" => Ok(Response::Checkpointed {
            t: req_u64(&v, "t")? as u32,
        }),
        "shutting_down" => Ok(Response::ShuttingDown),
        "error" => Ok(Response::Error {
            code: WireCode::from_wire(&req_str(&v, "code")?),
            message: req_str(&v, "message")?,
        }),
        other => Err(proto_err(format!("unknown response type '{other}'"))),
    }?;
    Ok((r, id))
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
