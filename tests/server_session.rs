//! End-to-end suite for `lahar serve`: a real TCP server hosting real
//! sessions, driven through [`LaharClient`]. The acceptance bar is the
//! same as everywhere else in this repo — answers fetched over the wire
//! must be **bit-identical** (`f64::to_bits`) to the offline batch
//! engine, including after a shutdown-checkpoint → restart cycle — plus
//! the serving-specific contracts: explicit, observable backpressure and
//! automatic recovery from injected faults.

use lahar::core::protocol::WireMarginal;
use lahar::model::{Database, StreamBuilder, Value};
use lahar::{EngineError, Lahar, LaharClient, LaharServer, ServerConfig, WireCode};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

const SRC: &str = "At(p,'a') ; At(p,'c')";
const TICKS: u32 = 8;

/// The recorded deployment every test replays: two keyed streams with a
/// deterministic 8-tick script.
fn recorded_db() -> Database {
    let (mut db, builders) = schema_parts();
    for (s, b) in builders.iter().enumerate() {
        let ms = (0..TICKS).map(|t| marginal_at(b, t, s)).collect::<Vec<_>>();
        db.add_stream(b.clone().independent(ms).unwrap()).unwrap();
    }
    db
}

/// The schema-only template the server hosts sessions from.
fn schema_db() -> Database {
    let (mut db, builders) = schema_parts();
    for b in &builders {
        db.add_stream(b.clone().independent(vec![]).unwrap())
            .unwrap();
    }
    db
}

fn schema_parts() -> (Database, Vec<StreamBuilder>) {
    let mut db = Database::new();
    db.declare_stream("At", &["person"], &["loc"]).unwrap();
    let i = db.interner().clone();
    let builders = ["joe", "sue"]
        .iter()
        .map(|p| StreamBuilder::new(&i, "At", &[p], &["a", "h", "c"]))
        .collect();
    (db, builders)
}

fn marginal_at(b: &StreamBuilder, t: u32, stream: usize) -> lahar::model::Marginal {
    let vals = ["a", "h", "c"];
    let k = (t as usize + stream) % 3;
    b.marginal(&[
        (vals[k], 0.55 + 0.03 * stream as f64),
        (vals[(k + 1) % 3], 0.2),
    ])
    .unwrap()
}

/// One wire frame per tick, built from the recorded database — the same
/// marginals, bit for bit, that the offline engine sees.
fn wire_frames(db: &Database) -> Vec<Vec<WireMarginal>> {
    let interner = db.interner();
    (0..TICKS)
        .map(|t| {
            db.streams()
                .iter()
                .map(|stream| WireMarginal {
                    stream_type: interner.resolve(stream.id().stream_type).unwrap(),
                    key: stream
                        .id()
                        .key
                        .iter()
                        .map(|v| match v {
                            Value::Str(s) => interner.resolve(*s).unwrap(),
                            other => panic!("non-string key {other:?}"),
                        })
                        .collect(),
                    probs: stream.marginal_at(t).probs().to_vec(),
                })
                .collect()
        })
        .collect()
}

fn offline_bits() -> Vec<u64> {
    Lahar::prob_series(&recorded_db(), SRC)
        .unwrap()
        .iter()
        .map(|p| p.to_bits())
        .collect()
}

fn bits(series: &[f64]) -> Vec<u64> {
    series.iter().map(|p| p.to_bits()).collect()
}

fn local_config() -> ServerConfig {
    local_builder().build().unwrap()
}

/// The validating builder every test starts from (field-by-field
/// mutation of [`ServerConfig`] is deprecated).
fn local_builder() -> lahar::ServerConfigBuilder {
    ServerConfig::builder().n_shards(2)
}

/// A unique per-test checkpoint directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lahar-server-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Tentpole acceptance: the series fetched over TCP is bit-identical to
/// the offline batch engine, and so are the alerts streamed tick by
/// tick on the way in.
#[test]
fn served_series_is_bit_identical_to_offline() {
    let server = LaharServer::start(local_config(), schema_db()).unwrap();
    let mut client = LaharClient::connect(server.addr(), "e2e").unwrap();
    assert_eq!(
        client.ping().unwrap(),
        lahar::core::protocol::PROTOCOL_VERSION
    );
    let (t, restored) = client.open().unwrap();
    assert_eq!((t, restored), (0, false));
    client.register("q", SRC).unwrap();

    let mut streamed = Vec::new();
    for frame in wire_frames(&recorded_db()) {
        let alerts = client.stage_tick(&frame).unwrap();
        assert_eq!(alerts.len(), 1, "one alert per registered query");
        streamed.push(alerts[0].probability.to_bits());
    }
    let series = client.series("q").unwrap();
    assert_eq!(bits(&series), offline_bits());
    assert_eq!(
        streamed,
        offline_bits(),
        "live alerts must equal the series"
    );

    // Unknown queries answer a typed error, not a hang or a guess.
    match client.series("nope") {
        Err(EngineError::Remote { code, .. }) => assert_eq!(code, WireCode::UnknownQuery),
        other => panic!("expected unknown_query, got {other:?}"),
    }
    client.shutdown_server().unwrap();
    server.join().unwrap();
}

/// A query registered mid-stream catches up through the session history:
/// its series still starts at t = 0 and matches offline bits.
#[test]
fn late_registered_query_series_starts_at_zero() {
    let server = LaharServer::start(local_config(), schema_db()).unwrap();
    let mut client = LaharClient::connect(server.addr(), "late").unwrap();
    client.open().unwrap();
    let frames = wire_frames(&recorded_db());
    for frame in &frames[..4] {
        client.stage_tick(frame).unwrap();
    }
    client.register("q", SRC).unwrap();
    for frame in &frames[4..] {
        client.stage_tick(frame).unwrap();
    }
    assert_eq!(bits(&client.series("q").unwrap()), offline_bits());
}

/// Shutdown checkpoints every hosted session; a fresh server over the
/// same checkpoint directory restores it, and the continued stream stays
/// bit-identical to the uninterrupted offline run.
#[test]
fn restart_from_shutdown_checkpoint_continues_bit_identically() {
    let dir = temp_dir("restart");
    let frames = wire_frames(&recorded_db());

    let config = local_builder().checkpoint_dir(&dir).build().unwrap();
    let server = LaharServer::start(config, schema_db()).unwrap();
    let addr = server.addr();
    let mut client = LaharClient::connect(addr, "durable").unwrap();
    client.open().unwrap();
    client.register("q", SRC).unwrap();
    for frame in &frames[..5] {
        client.stage_tick(frame).unwrap();
    }
    client.shutdown_server().unwrap();
    server.join().unwrap();

    // Same checkpoint dir, fresh process-equivalent server (new port).
    let config = local_builder().checkpoint_dir(&dir).build().unwrap();
    let server = LaharServer::start(config, schema_db()).unwrap();
    let mut client = LaharClient::connect(server.addr(), "durable").unwrap();
    let (t, restored) = client.open().unwrap();
    assert_eq!(
        (t, restored),
        (5, true),
        "session must resume where it stopped"
    );
    for frame in &frames[5..] {
        client.stage_tick(frame).unwrap();
    }
    assert_eq!(bits(&client.series("q").unwrap()), offline_bits());
    client.shutdown_server().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Distinct sessions are fully isolated: concurrent clients replaying
/// the same deployment into different session names each get the exact
/// offline bits.
#[test]
fn concurrent_clients_in_distinct_sessions_agree_with_offline() {
    let config = ServerConfig::builder().n_shards(3).build().unwrap();
    let server = LaharServer::start(config, schema_db()).unwrap();
    let addr = server.addr();
    let want = offline_bits();
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let want = want.clone();
            std::thread::spawn(move || {
                let mut client = LaharClient::connect(addr, &format!("worker-{i}")).unwrap();
                client.open().unwrap();
                client.register("q", SRC).unwrap();
                for frame in wire_frames(&recorded_db()) {
                    loop {
                        match client.stage_tick(&frame) {
                            Ok(_) => break,
                            Err(EngineError::Remote {
                                code: WireCode::Overloaded,
                                ..
                            }) => {
                                std::thread::sleep(std::time::Duration::from_millis(5));
                            }
                            Err(e) => panic!("worker {i}: {e}"),
                        }
                    }
                }
                assert_eq!(bits(&client.series("q").unwrap()), want);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// Backpressure contract: a slow shard with a tiny queue answers
/// `overloaded` instead of buffering without bound, nothing is silently
/// dropped (every accepted tick lands), and the pressure is visible in
/// the merged /metrics exposition.
#[test]
fn backpressure_is_explicit_and_observable() {
    let config = ServerConfig::builder()
        .n_shards(1)
        .queue_cap(1)
        .shard_delay(std::time::Duration::from_millis(60))
        .metrics_addr("127.0.0.1:0".parse().unwrap())
        .build()
        .unwrap();
    let server = LaharServer::start(config, schema_db()).unwrap();
    let addr = server.addr();

    // Prime the session so workers all hit an existing one.
    let mut primer = LaharClient::connect(addr, "busy").unwrap();
    primer.open().unwrap();

    const CLIENTS: usize = 8;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let overloaded = Arc::new(AtomicUsize::new(0));
    let accepted = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = barrier.clone();
            let overloaded = overloaded.clone();
            let accepted = accepted.clone();
            std::thread::spawn(move || {
                let mut client = LaharClient::connect(addr, "busy").unwrap();
                barrier.wait();
                loop {
                    match client.tick() {
                        Ok(_) => {
                            accepted.fetch_add(1, Ordering::SeqCst);
                            return;
                        }
                        Err(EngineError::Remote {
                            code: WireCode::Overloaded,
                            ..
                        }) => {
                            overloaded.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(30));
                        }
                        Err(e) => panic!("unexpected failure under load: {e}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        accepted.load(Ordering::SeqCst),
        CLIENTS,
        "every client's tick must eventually land (no silent drops)"
    );
    assert!(
        overloaded.load(Ordering::SeqCst) > 0,
        "8 simultaneous ticks against a 1-deep queue on a 60ms shard must overload at least once"
    );
    // Every accepted tick really closed: the session clock agrees.
    let (t, restored) = primer.open().unwrap();
    assert_eq!((t, restored), (CLIENTS as u32, false));

    // The pressure is observable: server gauges live next to the
    // session-labelled engine counters in one exposition.
    let metrics = http_get(server.metrics_addr().unwrap(), "/metrics");
    assert!(metrics.contains("lahar_server_queue_cap 1"), "{metrics}");
    assert!(metrics.contains("lahar_server_queue_depth{shard=\"0\"}"));
    assert!(metrics.contains("lahar_server_sessions 1"));
    assert!(metrics.contains("lahar_ticks_total{session=\"busy\"} 8"));
    let total: u64 = metrics
        .lines()
        .find(|l| l.starts_with("lahar_server_overloaded_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap();
    assert_eq!(total as usize, overloaded.load(Ordering::SeqCst));
}

/// A frame split across writes with a pause longer than the server's
/// read timeout must not be corrupted: the reader keeps the partial
/// bytes across the timeout and the request/response pairing survives.
#[test]
fn partial_frame_split_across_read_timeout_is_not_lost() {
    use std::io::{BufRead as _, BufReader, Write as _};

    let server = LaharServer::start(local_config(), schema_db()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    let frame = b"{\"v\":1,\"cmd\":\"ping\"}\n";
    let (head, tail) = frame.split_at(9); // mid-frame, mid-token
    stream.write_all(head).unwrap();
    stream.flush().unwrap();
    // Longer than the server's 500ms read timeout: the slow-client path.
    std::thread::sleep(std::time::Duration::from_millis(700));
    stream.write_all(tail).unwrap();
    stream.flush().unwrap();

    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"pong\""),
        "split frame must still parse as ping, got: {line}"
    );

    // The connection is still healthy and in-order afterwards.
    stream.write_all(frame).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"pong\""), "{line}");
}

/// A frame nested far deeper than the JSON parser's cap (10 KB of `[`)
/// gets a `protocol` error reply instead of overflowing the reactor's
/// stack and aborting the process, and the same connection keeps
/// answering afterwards.
#[test]
fn deeply_nested_frame_is_refused_and_the_connection_survives() {
    use std::io::{BufRead as _, BufReader, Write as _};

    let server = LaharServer::start(local_config(), schema_db()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    let mut frame = "[".repeat(10 * 1024);
    frame.push('\n');
    stream.write_all(frame.as_bytes()).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"protocol\"") && line.contains("nesting"),
        "nested frame must get a protocol error, got: {line}"
    );

    stream.write_all(b"{\"v\":1,\"cmd\":\"ping\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"pong\""), "{line}");
    drop((stream, reader));
    client_free_shutdown(server);
}

/// A peer that streams twice the frame cap without a newline gets one
/// `protocol` error; the rest of that frame is dropped through its
/// newline and the same connection keeps serving.
#[test]
fn oversized_frame_is_refused_and_the_connection_survives() {
    use lahar::core::protocol::MAX_FRAME_BYTES;
    use std::io::{BufRead as _, BufReader, Write as _};

    let server = LaharServer::start(local_config(), schema_db()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    stream.write_all(&vec![b' '; 2 * MAX_FRAME_BYTES]).unwrap();
    stream.write_all(b"\n{\"v\":1,\"cmd\":\"ping\"}\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"protocol\"") && line.contains("longer than"),
        "oversized frame must get a protocol error, got: {line}"
    );
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"pong\""), "{line}");
    drop((stream, reader));
    client_free_shutdown(server);
}

/// Sessions exist only after an explicit `open`: any other command for
/// an unknown name answers `unknown_session` instead of implicitly
/// creating server state, and `open` is bounded by the session cap.
#[test]
fn sessions_require_open_and_respect_the_cap() {
    let config = local_builder().max_sessions(1).build().unwrap();
    let server = LaharServer::start(config, schema_db()).unwrap();

    let mut client = LaharClient::connect(server.addr(), "ghost").unwrap();
    for result in [
        client.tick().map(|_| ()),
        client.series("q").map(|_| ()),
        client.register("q", SRC).map(|_| ()),
        client.checkpoint().map(|_| ()),
    ] {
        match result {
            Err(EngineError::Remote { code, .. }) => assert_eq!(code, WireCode::UnknownSession),
            other => panic!("expected unknown_session, got {other:?}"),
        }
    }

    // An explicit open creates the session and commands start working.
    assert_eq!(client.open().unwrap(), (0, false));
    client.tick().unwrap();

    // The cap bounds hosted sessions; re-opening an existing one is fine.
    let mut second = LaharClient::connect(server.addr(), "overflow").unwrap();
    match second.open() {
        Err(EngineError::Remote { code, .. }) => assert_eq!(code, WireCode::SessionLimit),
        other => panic!("expected session_limit, got {other:?}"),
    }
    assert_eq!(client.open().unwrap(), (1, false));
}

/// Minimal HTTP GET against the server's metrics endpoint.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\nHost: lahar\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or(response)
}

/// Tentpole acceptance: after one of every wire command, the merged
/// /metrics exposition has a `lahar_server_request_duration_seconds`
/// histogram for all four phases of each command and a
/// `lahar_server_requests_total` counter per outcome code — including
/// the error and unparseable-frame rows — and /healthz answers ready.
#[test]
fn request_metrics_cover_every_wire_command_and_phase() {
    let dir = temp_dir("reqmetrics");
    let config = local_builder()
        .metrics_addr("127.0.0.1:0".parse().unwrap())
        .checkpoint_dir(&dir)
        .build()
        .unwrap();
    let server = LaharServer::start(config, schema_db()).unwrap();
    let mut client = LaharClient::connect(server.addr(), "metered").unwrap();

    client.ping().unwrap();
    client.open().unwrap();
    client.register("q", SRC).unwrap();
    let frames = wire_frames(&recorded_db());
    client.stage(&frames[0]).unwrap();
    client.tick().unwrap();
    client.stage_epoch(&frames[1..3]).unwrap();
    client.series("q").unwrap();
    client.checkpoint().unwrap();
    // An error outcome and an unparseable frame land in the counters too.
    match client.series("nope") {
        Err(EngineError::Remote { code, .. }) => assert_eq!(code, WireCode::UnknownQuery),
        other => panic!("expected unknown_query, got {other:?}"),
    }
    {
        use std::io::{BufRead as _, BufReader, Write as _};
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
        raw.write_all(b"this is not a request\n").unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"protocol\""), "{line}");
        // Metrics are recorded after each reply is flushed; a follow-up
        // frame on the same sequential connection guarantees the
        // invalid-frame row is counted before the scrape below.
        raw.write_all(b"{\"v\":1,\"cmd\":\"ping\"}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
    }
    // Same fence for the main connection's unknown_query outcome.
    client.ping().unwrap();

    let maddr = server.metrics_addr().unwrap();
    let metrics = http_get(maddr, "/metrics");
    for command in [
        "ping",
        "open",
        "register",
        "stage",
        "tick",
        "stage_ticks",
        "series",
        "checkpoint",
    ] {
        for phase in ["queue_wait", "execute", "wal_append", "respond"] {
            let needle = format!(
                "lahar_server_request_duration_seconds_bucket\
                 {{command=\"{command}\",phase=\"{phase}\",le=\"+Inf\"}}"
            );
            assert!(metrics.contains(&needle), "missing {needle} in:\n{metrics}");
        }
        let ok = format!("lahar_server_requests_total{{command=\"{command}\",code=\"ok\"}}");
        assert!(metrics.contains(&ok), "missing {ok} in:\n{metrics}");
    }
    assert!(metrics
        .contains("lahar_server_requests_total{command=\"series\",code=\"unknown_query\"} 1"));
    assert!(
        metrics.contains("lahar_server_requests_total{command=\"invalid\",code=\"protocol\"} 1")
    );
    assert!(metrics.contains("lahar_trace_dropped_spans_total"));

    // /healthz is a real readiness verdict now, not a constant.
    let health = http_get(maddr, "/healthz");
    assert!(
        health.contains("\"ok\":true"),
        "unexpected healthz: {health}"
    );

    client.shutdown_server().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A forced-slow request (threshold 0) produces a JSONL slow-log entry
/// whose correlation id matches the id the client's response echoed,
/// with all four phase durations and the outcome.
#[test]
fn slow_log_entry_id_matches_the_response_echo() {
    let dir = temp_dir("slowlog");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("slow.jsonl");
    let config = local_builder()
        .slow_request_ms(0)
        .slow_log(&log)
        .build()
        .unwrap();
    let server = LaharServer::start(config, schema_db()).unwrap();
    let mut client = LaharClient::connect(server.addr(), "sluggish").unwrap();
    client.open().unwrap();
    client.tick().unwrap();
    let tick_id = client.last_id();
    // The slow-log write happens after the tick's reply is flushed; a
    // follow-up request on the same (sequential) connection guarantees
    // the entry is on disk before the file is read.
    client.ping().unwrap();

    let text = std::fs::read_to_string(&log).unwrap();
    // The ping's own entry may still be mid-write when the file is
    // read; the tick entry was flushed before the ping's reply, so it
    // is complete — skip any torn tail instead of failing on it.
    let entry = text
        .lines()
        .filter_map(|l| lahar::core::json::parse(l).ok())
        .find(|e| e.get("command").and_then(|c| c.as_str()) == Some("tick"))
        .expect("tick entry in slow log");
    assert_eq!(entry.get("id").unwrap().as_u64(), Some(tick_id));
    assert_eq!(entry.get("session").unwrap().as_str(), Some("sluggish"));
    assert_eq!(entry.get("outcome").unwrap().as_str(), Some("ok"));
    for phase in ["queue_wait_ns", "execute_ns", "wal_append_ns", "respond_ns"] {
        assert!(
            entry.get(phase).and_then(|v| v.as_u64()).is_some(),
            "missing {phase} in slow-log entry"
        );
    }
    client.shutdown_server().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Chaos, over the wire: N concurrent clients ingest into disjoint
/// sessions — plus two clients sharing one more — while deterministic
/// faults fire on the parallel tick path. The server must stay live,
/// auto-recover every poisoned session, and still answer every series
/// bit-identical to the offline engine.
#[cfg(feature = "failpoints")]
#[test]
fn concurrent_clients_survive_injected_faults() {
    use lahar::core::failpoint::{self, FailAction, Schedule};
    use lahar::core::{SessionConfig, TickMode};
    use std::time::Duration;

    /// Resyncs after a server-side fault: the next command auto-recovers
    /// the session, and `open` reports the tick the session is really at.
    fn resync(client: &mut LaharClient) -> u32 {
        loop {
            match client.open() {
                Ok((now, _)) => return now,
                Err(EngineError::Remote { .. }) => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("resync failed: {e}"),
            }
        }
    }

    failpoint::clear_all();
    let config = local_builder()
        .session_config(
            SessionConfig::builder()
                .tick_mode(TickMode::Parallel)
                .n_workers(2)
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();
    let server = LaharServer::start(config, schema_db()).unwrap();
    let addr = server.addr();

    // Sparse deterministic faults on the shared parallel step path while
    // every client below hammers the server at once.
    failpoint::configure(
        "worker_step",
        FailAction::Error,
        Schedule::EveryNth { n: 7 },
    );

    let want = offline_bits();
    let mut handles: Vec<std::thread::JoinHandle<()>> = (0..3)
        .map(|i| {
            let want = want.clone();
            std::thread::spawn(move || {
                let mut client = LaharClient::connect(addr, &format!("chaos-{i}")).unwrap();
                client.open().unwrap();
                client.register("q", SRC).unwrap();
                let frames = wire_frames(&recorded_db());
                let mut t = 0;
                while (t as usize) < frames.len() {
                    match client.stage_tick(&frames[t as usize]) {
                        Ok(_) => t += 1,
                        Err(EngineError::Remote {
                            code: WireCode::Overloaded,
                            ..
                        }) => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(EngineError::Remote { .. }) => {
                            // A fault landed in this command; recovery may
                            // already have completed the tick, so resync
                            // the clock instead of blindly re-staging.
                            t = resync(&mut client);
                        }
                        Err(e) => panic!("chaos-{i}: {e}"),
                    }
                }
                assert_eq!(bits(&client.series("q").unwrap()), want, "chaos-{i}");
            })
        })
        .collect();
    // Two more clients share one session, each closing empty ticks; the
    // per-session command serialization must keep the clock exact.
    const SHARED_TICKS_EACH: u32 = 4;
    for _ in 0..2 {
        handles.push(std::thread::spawn(move || {
            let mut client = LaharClient::connect(addr, "chaos-shared").unwrap();
            client.open().unwrap();
            let mut closed = 0;
            while closed < SHARED_TICKS_EACH {
                match client.tick() {
                    Ok(_) => closed += 1,
                    Err(EngineError::Remote {
                        code: WireCode::Overloaded,
                        ..
                    }) => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(EngineError::Remote { .. }) => {
                        // Recovery completed the tick server-side; it
                        // still counts as this client's close.
                        resync(&mut client);
                        closed += 1;
                    }
                    Err(e) => panic!("shared client: {e}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    failpoint::clear_all();

    // The shared session closed exactly the ticks its clients sent —
    // nothing lost, nothing double-counted, server still answering.
    let mut c = LaharClient::connect(addr, "chaos-shared").unwrap();
    assert_eq!(c.open().unwrap(), (2 * SHARED_TICKS_EACH, false));
}

/// The `stage_ticks` wire command closes a whole epoch per frame and is
/// bit-identical to per-tick `stage` frames — including when the batch
/// spans several server-side epochs.
#[test]
fn staged_epochs_over_the_wire_match_per_tick_frames() {
    let config = local_builder()
        .session_config(
            lahar::SessionConfig::builder()
                .tick_mode(lahar::TickMode::Parallel)
                .n_workers(2)
                .max_epoch_ticks(3)
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();
    let server = LaharServer::start(config, schema_db()).unwrap();
    let mut client = LaharClient::connect(server.addr(), "epoch").unwrap();
    client.open().unwrap();
    client.register("q", SRC).unwrap();

    // All 8 recorded ticks in one frame: the server closes them as
    // epochs of ≤ 3 ticks, answering one alert per query per tick.
    let frames = wire_frames(&recorded_db());
    let alerts = client.stage_epoch(&frames).unwrap();
    assert_eq!(alerts.len(), TICKS as usize);
    let streamed: Vec<u64> = alerts.iter().map(|a| a.probability.to_bits()).collect();
    assert_eq!(streamed, offline_bits());
    assert_eq!(bits(&client.series("q").unwrap()), offline_bits());
    client.shutdown_server().unwrap();
    server.join().unwrap();
}

/// Every `lahar serve` process runs ONE stepping pool: the number of
/// `lahar-pool-*` threads is set by the machine, not by how many hosted
/// sessions tick in parallel mode. (Before the shared pool, each session
/// spawned its own per-core pool — n_sessions × n_cores threads.)
#[cfg(target_os = "linux")]
#[test]
fn hosted_sessions_share_one_worker_pool() {
    fn pool_threads() -> usize {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|entry| {
                let comm = entry.ok()?.path().join("comm");
                std::fs::read_to_string(comm).ok()
            })
            .filter(|name| name.trim_end().starts_with("lahar-pool"))
            .count()
    }

    let config = local_builder()
        .session_config(
            lahar::SessionConfig::builder()
                .tick_mode(lahar::TickMode::Parallel)
                .n_workers(2)
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();
    let server = LaharServer::start(config, schema_db()).unwrap();
    let frames = wire_frames(&recorded_db());
    let mut counts = Vec::new();
    for s in 0..4 {
        let mut client = LaharClient::connect(server.addr(), &format!("pool-{s}")).unwrap();
        client.open().unwrap();
        client.register("q", SRC).unwrap();
        // Parallel epochs force this session onto the stepping pool.
        client.stage_epoch(&frames).unwrap();
        assert_eq!(bits(&client.series("q").unwrap()), offline_bits());
        counts.push(pool_threads());
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    assert!(counts[0] >= 1, "the pool spawned");
    assert!(
        counts.iter().all(|&c| c == cores),
        "pool threads must stay at {cores} (one per core) regardless of \
         session count, got {counts:?}"
    );
    client_free_shutdown(server);
}

/// Drives a clean shutdown without keeping a client alive (helper for
/// tests that only inspect process state).
fn client_free_shutdown(server: LaharServer) {
    let mut c = LaharClient::connect(server.addr(), "shutdown-helper").unwrap();
    c.shutdown_server().unwrap();
    server.join().unwrap();
}

/// Parses one un-labelled gauge/counter sample out of a Prometheus
/// exposition.
fn metric_value(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no sample {name} in:\n{metrics}"))
}

/// Polls /metrics until the evicted-sessions gauge reaches `want`.
fn await_evicted(maddr: std::net::SocketAddr, want: u64) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let metrics = http_get(maddr, "/metrics");
        if metric_value(&metrics, "lahar_server_sessions_evicted") >= want {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "session never evicted:\n{metrics}"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

/// Cold-session tiering, no durability: an idle session is checkpointed
/// out of memory (the resident/evicted gauges flip), and the next
/// touching command restores it lazily — no explicit re-open — with the
/// continued series bit-identical to the never-evicted offline run.
#[test]
fn evicted_session_restores_bit_identically() {
    let dir = temp_dir("evict");
    let config = local_builder()
        .checkpoint_dir(&dir)
        .evict_after(std::time::Duration::from_millis(200))
        .metrics_addr("127.0.0.1:0".parse().unwrap())
        .build()
        .unwrap();
    let server = LaharServer::start(config, schema_db()).unwrap();
    let maddr = server.metrics_addr().unwrap();
    let mut client = LaharClient::connect(server.addr(), "cold").unwrap();
    client.open().unwrap();
    client.register("q", SRC).unwrap();
    let frames = wire_frames(&recorded_db());
    for frame in &frames[..5] {
        client.stage_tick(frame).unwrap();
    }

    // Go idle past the threshold: the shard sweep tiers the session out.
    await_evicted(maddr, 1);
    let metrics = http_get(maddr, "/metrics");
    assert_eq!(metric_value(&metrics, "lahar_server_sessions_resident"), 0);
    assert_eq!(metric_value(&metrics, "lahar_server_sessions"), 1);
    assert!(metric_value(&metrics, "lahar_server_evictions_total") >= 1);

    // The same connection keeps streaming as if nothing happened.
    for frame in &frames[5..] {
        client.stage_tick(frame).unwrap();
    }
    assert_eq!(bits(&client.series("q").unwrap()), offline_bits());
    let metrics = http_get(maddr, "/metrics");
    assert!(metric_value(&metrics, "lahar_server_restores_total") >= 1);
    assert_eq!(metric_value(&metrics, "lahar_server_sessions_resident"), 1);
    assert_eq!(metric_value(&metrics, "lahar_server_sessions_evicted"), 0);
    client.shutdown_server().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cold-session tiering with durability: an explicit checkpoint midway
/// leaves a write-ahead tail past the eviction checkpoint, eviction
/// drops the session from memory without writing anything new, and the
/// lazy restore replays checkpoint + tail — still bit-identical.
#[test]
fn evicted_session_with_wal_tail_restores_bit_identically() {
    let dir = temp_dir("evict-wal");
    let config = local_builder()
        .checkpoint_dir(&dir)
        .evict_after(std::time::Duration::from_millis(200))
        .metrics_addr("127.0.0.1:0".parse().unwrap())
        .session_config(
            lahar::SessionConfig::builder()
                .durability(lahar::Durability::Batch)
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();
    let server = LaharServer::start(config, schema_db()).unwrap();
    let maddr = server.metrics_addr().unwrap();
    let mut client = LaharClient::connect(server.addr(), "cold-wal").unwrap();
    client.open().unwrap();
    client.register("q", SRC).unwrap();
    let frames = wire_frames(&recorded_db());
    for frame in &frames[..3] {
        client.stage_tick(frame).unwrap();
    }
    // Persist a generation at t = 3 ...
    client.checkpoint().unwrap();
    // ... then keep going: ticks 4 and 5 live only in the log tail.
    for frame in &frames[3..5] {
        client.stage_tick(frame).unwrap();
    }

    await_evicted(maddr, 1);

    // The restore replays the t = 3 checkpoint plus the 2-tick tail;
    // `open` reports the session exactly where it was dropped.
    assert_eq!(client.open().unwrap(), (5, true));
    for frame in &frames[5..] {
        client.stage_tick(frame).unwrap();
    }
    assert_eq!(bits(&client.series("q").unwrap()), offline_bits());
    client.shutdown_server().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tentpole acceptance: 512 concurrent connections are served by ONE
/// connection thread of this server (plus the shard workers) —
/// connections cost file descriptors, not threads — and every
/// connection's command lands: the per-session clocks account for all
/// 512 ticks. Only this server's thread is counted, so servers started
/// by tests running alongside do not disturb the count.
#[cfg(target_os = "linux")]
#[test]
fn reactor_serves_512_connections_from_o_shards_threads() {
    fn conn_threads(name: &str) -> usize {
        // The kernel keeps the first 15 bytes of a thread name.
        let comm_name = &name.as_bytes()[..name.len().min(15)];
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|entry| {
                let comm = entry.ok()?.path().join("comm");
                std::fs::read_to_string(comm).ok()
            })
            .filter(|comm| comm.trim_end().as_bytes() == comm_name)
            .count()
    }

    const CONNS: usize = 512;
    const SESSIONS: usize = 8;
    let server = LaharServer::start(local_config(), schema_db()).unwrap();
    let addr = server.addr();
    let conn_thread = server.conn_thread_name().to_owned();
    assert!(conn_thread.starts_with("lahar-conn-"), "{conn_thread}");

    let mut clients: Vec<LaharClient> = (0..CONNS)
        .map(|i| LaharClient::connect(addr, &format!("fan-{}", i % SESSIONS)).unwrap())
        .collect();
    // Every connection is live (a real request/response round trip),
    // all at once.
    for client in &mut clients {
        assert_eq!(
            client.ping().unwrap(),
            lahar::core::protocol::PROTOCOL_VERSION
        );
    }
    assert_eq!(
        conn_threads(&conn_thread),
        1,
        "512 open connections must still be served by the single reactor thread"
    );

    // Each connection closes one tick on its session; nothing may be
    // silently dropped even with all 512 interleaving.
    for client in clients.iter_mut().take(SESSIONS) {
        client.open().unwrap();
    }
    for client in &mut clients {
        loop {
            match client.tick() {
                Ok(_) => break,
                Err(EngineError::Remote {
                    code: WireCode::Overloaded,
                    ..
                }) => std::thread::sleep(std::time::Duration::from_millis(2)),
                Err(e) => panic!("tick under fan-out failed: {e}"),
            }
        }
    }
    for client in clients.iter_mut().take(SESSIONS) {
        let (t, _) = client.open().unwrap();
        assert_eq!(
            t as usize,
            CONNS / SESSIONS,
            "every accepted tick must land on its session's clock"
        );
    }
    drop(clients);
    client_free_shutdown(server);
}

/// A `stage` frame naming a stream the schema does not have is a
/// `bad_request` — and its names are never interned, so such frames
/// cannot grow the interner every hosted session shares. The same
/// connection keeps staging valid frames afterwards.
#[test]
fn unknown_stream_keys_are_refused_and_the_connection_survives() {
    let server = LaharServer::start(local_config(), schema_db()).unwrap();
    let mut client = LaharClient::connect(server.addr(), "bogus").unwrap();
    client.open().unwrap();
    let frames = wire_frames(&recorded_db());
    let mut bogus = frames[0][0].clone();
    bogus.key = vec!["nobody-by-this-name".to_owned()];
    match client.stage(&[bogus]) {
        Err(EngineError::Remote {
            code: WireCode::BadRequest,
            message,
        }) => assert!(message.contains("unknown stream"), "{message}"),
        other => panic!("a bogus stream key must be a bad_request, got {other:?}"),
    }
    assert_eq!(client.stage(&frames[0]).unwrap(), frames[0].len());
    client.shutdown_server().unwrap();
    server.join().unwrap();
}

/// The checkpoint/WAL file stem of a session: its sanitized name plus a
/// 64-bit FNV-1a hash of it — a fixed function of the name, so files
/// written by one build are found by the next.
fn session_stem(session: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in session.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
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
    format!("{safe}-{hash:016x}")
}

/// A write-ahead segment in the version-1 format (no header; streams
/// addressed by database index), as the previous `WalWriter` wrote it
/// for session `legacy`: register `q`, a two-tick `stage_ticks`, a
/// `stage` of joe plus a `stage`+`tick` of sue at t = 2, a bare `tick`,
/// and a one-tick `stage`+`tick` at t = 4.
const LEGACY_SEGMENT: &str = concat!(
    "00000048 3640bd73 {\"seq\":0,\"t0\":0,\"register\":{\"name\":\"q\",\"query\":\"At(p,'a') ; At(p,'c')\"}}\n",
    "000000d8 3271fc52 {\"seq\":1,\"t0\":0,\"ticks\":[[{\"s\":0,\"p\":[0.55,0.2,0.0,0.25]},{\"s\":1,\"p\":[0.0,0.5800000000000001,0.2,0.21999999999999997]}],[{\"s\":0,\"p\":[0.0,0.55,0.2,0.25]},{\"s\":1,\"p\":[0.2,0.0,0.5800000000000001,0.21999999999999997]}]]}\n",
    "0000003b 2052bf64 {\"seq\":2,\"t0\":2,\"staged\":[{\"s\":0,\"p\":[0.2,0.0,0.55,0.25]}]}\n",
    "00000059 158cc57d {\"seq\":3,\"t0\":2,\"ticks\":[[{\"s\":1,\"p\":[0.5800000000000001,0.2,0.0,0.21999999999999997]}]]}\n",
    "0000001d 81280afc {\"seq\":4,\"t0\":3,\"ticks\":[[]]}\n",
    "00000079 f018b3a1 {\"seq\":5,\"t0\":4,\"ticks\":[[{\"s\":0,\"p\":[0.0,0.55,0.2,0.25]},{\"s\":1,\"p\":[0.2,0.0,0.5800000000000001,0.21999999999999997]}]]}\n",
);

/// A log written in the previous segment format replays bit-identically,
/// recovery rotates off it, and the session then streams (and restarts)
/// on the current format.
#[test]
fn version_one_wal_segment_replays_bit_identically() {
    let dir = temp_dir("legacy-wal");
    std::fs::create_dir_all(&dir).unwrap();
    let stem = session_stem("legacy");
    std::fs::write(dir.join(format!("{stem}.g00000000.wal")), LEGACY_SEGMENT).unwrap();
    // The fixture's script: recorded ticks 0-2 and 4, an all-⊥ tick 3,
    // then recorded ticks 5-7 streamed live below.
    let reference = {
        let (mut db, builders) = schema_parts();
        for (s, b) in builders.iter().enumerate() {
            let ms = (0..TICKS)
                .map(|t| {
                    if t == 3 {
                        b.point(None)
                    } else {
                        marginal_at(b, t, s)
                    }
                })
                .collect::<Vec<_>>();
            db.add_stream(b.clone().independent(ms).unwrap()).unwrap();
        }
        bits(&Lahar::prob_series(&db, SRC).unwrap())
    };
    let config = || {
        local_builder()
            .checkpoint_dir(&dir)
            .session_config(
                lahar::SessionConfig::builder()
                    .durability(lahar::Durability::Batch)
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap()
    };

    let server = LaharServer::start(config(), schema_db()).unwrap();
    let mut client = LaharClient::connect(server.addr(), "legacy").unwrap();
    assert_eq!(client.open().unwrap(), (5, true));
    assert_eq!(bits(&client.series("q").unwrap()), reference[..5]);
    let frames = wire_frames(&recorded_db());
    for frame in &frames[5..] {
        client.stage_tick(frame).unwrap();
    }
    assert_eq!(bits(&client.series("q").unwrap()), reference);
    // Every segment left behind is in the current format.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "wal"))
        .collect();
    segments.sort();
    let newest = std::fs::read(segments.last().unwrap()).unwrap();
    assert!(newest.starts_with(b"lahar-wal 2\n"), "{segments:?}");
    drop(client);
    client_free_shutdown(server);

    let server = LaharServer::start(config(), schema_db()).unwrap();
    let mut client = LaharClient::connect(server.addr(), "legacy").unwrap();
    assert_eq!(client.open().unwrap(), (TICKS, true));
    assert_eq!(bits(&client.series("q").unwrap()), reference);
    drop(client);
    client_free_shutdown(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Marginals of an `n`-tick stream following the recorded script's
/// pattern, as (offline database, one wire frame per tick).
fn long_stream(n: u32) -> (Database, Vec<Vec<WireMarginal>>) {
    let (mut db, builders) = schema_parts();
    for (s, b) in builders.iter().enumerate() {
        let ms = (0..n).map(|t| marginal_at(b, t, s)).collect::<Vec<_>>();
        db.add_stream(b.clone().independent(ms).unwrap()).unwrap();
    }
    let frames = (0..n)
        .map(|t| {
            builders
                .iter()
                .enumerate()
                .map(|(s, b)| WireMarginal {
                    stream_type: "At".to_owned(),
                    key: vec![["joe", "sue"][s].to_owned()],
                    probs: marginal_at(b, t, s).probs().to_vec(),
                })
                .collect()
        })
        .collect();
    (db, frames)
}

/// The newest checkpoint generation in `dir`, as text.
fn newest_generation(dir: &std::path::Path) -> String {
    let mut gens: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(".ckpt.json"))
        .collect();
    gens.sort();
    std::fs::read_to_string(gens.last().expect("a checkpoint generation")).unwrap()
}

/// Byte length of the `"series"` array in a checkpoint document.
fn series_bytes(doc: &str) -> usize {
    let start = doc.find("\"series\":[").expect("a series array") + "\"series\":".len();
    let mut depth = 0;
    for (i, c) in doc[start..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    panic!("unterminated series array");
}

/// Past its history window a served session refuses `register` with a
/// typed `history_retired` error — nothing is logged for the refused
/// frame — and keeps ticking bit-identically, across a restart too.
#[test]
fn register_after_the_history_window_is_refused_and_not_logged() {
    let dir = temp_dir("retired-register");
    let config = || {
        local_builder()
            .checkpoint_dir(&dir)
            .history_ticks(Some(3))
            .session_config(
                lahar::SessionConfig::builder()
                    .durability(lahar::Durability::Batch)
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap()
    };
    let frames = wire_frames(&recorded_db());
    let server = LaharServer::start(config(), schema_db()).unwrap();
    let mut client = LaharClient::connect(server.addr(), "retire").unwrap();
    client.open().unwrap();
    client.register("q", SRC).unwrap();
    for frame in &frames[..3] {
        client.stage_tick(frame).unwrap();
    }
    // t = 3: still inside the window, so a late query is exact.
    client.register("inside", SRC).unwrap();
    assert_eq!(bits(&client.series("inside").unwrap()), offline_bits()[..3]);
    for frame in &frames[3..5] {
        client.stage_tick(frame).unwrap();
    }
    match client.register("refused_q", "At(p,'h')") {
        Err(EngineError::Remote { code, .. }) => assert_eq!(code, WireCode::HistoryRetired),
        other => panic!("expected history_retired, got {other:?}"),
    }
    match client.series("refused_q") {
        Err(EngineError::Remote { code, .. }) => assert_eq!(code, WireCode::UnknownQuery),
        other => panic!("expected unknown_query, got {other:?}"),
    }
    let logged: String = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "wal"))
        .map(|p| String::from_utf8_lossy(&std::fs::read(p).unwrap()).into_owned())
        .collect();
    assert!(
        logged.contains("\"inside\""),
        "the accepted register is logged"
    );
    assert!(
        !logged.contains("refused_q"),
        "a refused register is not logged"
    );
    for frame in &frames[5..] {
        client.stage_tick(frame).unwrap();
    }
    assert_eq!(bits(&client.series("q").unwrap()), offline_bits());
    assert_eq!(bits(&client.series("inside").unwrap()), offline_bits());
    drop(client);
    client_free_shutdown(server);

    let server = LaharServer::start(config(), schema_db()).unwrap();
    let mut client = LaharClient::connect(server.addr(), "retire").unwrap();
    assert_eq!(client.open().unwrap(), (TICKS, true));
    assert_eq!(bits(&client.series("q").unwrap()), offline_bits());
    assert_eq!(bits(&client.series("inside").unwrap()), offline_bits());
    drop(client);
    client_free_shutdown(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A session ticked far past its history window checkpoints no
/// history: its generation at t = 8000 differs from the one at t = 1000
/// only by the series bytes, and an evict → restore at t = 8000 answers
/// the series bit-identically to the offline engine.
#[test]
fn retired_checkpoints_stay_flat_in_age_and_restore_bit_identically() {
    const LONG: u32 = 8000;
    let dir = temp_dir("retired-flat");
    let config = local_builder()
        .checkpoint_dir(&dir)
        .history_ticks(Some(4))
        .evict_after(std::time::Duration::from_millis(200))
        .metrics_addr("127.0.0.1:0".parse().unwrap())
        .build()
        .unwrap();
    let (db, frames) = long_stream(LONG);
    let server = LaharServer::start(config, schema_db()).unwrap();
    let maddr = server.metrics_addr().unwrap();
    let mut client = LaharClient::connect(server.addr(), "aged").unwrap();
    client.open().unwrap();
    client.register("q", SRC).unwrap();
    let mut sizes = Vec::new();
    let mut t = 0;
    for age in [1000, LONG] {
        for chunk in frames[t..age as usize].chunks(500) {
            client.stage_epoch(chunk).unwrap();
        }
        t = age as usize;
        assert_eq!(client.checkpoint().unwrap(), age);
        let doc = newest_generation(&dir);
        assert!(doc.contains("\"retired\":true"), "t = {age}");
        assert!(!doc.contains("\"history\""), "t = {age}");
        sizes.push((doc.len(), series_bytes(&doc)));
    }
    let [(small, small_series), (large, large_series)] = sizes[..] else {
        unreachable!()
    };
    let live_state = |total: usize, series: usize| (total - series) as i64;
    let drift = live_state(large, large_series) - live_state(small, small_series);
    assert!(
        drift.abs() < 512,
        "beyond the series, the t = {LONG} generation ({large} B, series {large_series} B) \
         differs from the t = 1000 one ({small} B, series {small_series} B) by {drift} B"
    );

    await_evicted(maddr, 1);
    assert_eq!(client.open().unwrap(), (LONG, true));
    assert_eq!(
        bits(&client.series("q").unwrap()),
        bits(&Lahar::prob_series(&db, SRC).unwrap())
    );
    drop(client);
    client_free_shutdown(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint written in format 6 (full history, no series) still
/// restores: its series is stepped once from the history and matches
/// the offline engine, the session then retires that history, and the
/// generation written on restore carries the series from then on.
#[test]
fn version_six_checkpoint_restores_with_identical_series() {
    let dir = temp_dir("v6-checkpoint");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join(format!("{}.g00000001.ckpt.json", session_stem("v6"))),
        include_str!("fixtures/checkpoint_v6.ckpt.json"),
    )
    .unwrap();
    let config = || {
        local_builder()
            .checkpoint_dir(&dir)
            .history_ticks(Some(2))
            .build()
            .unwrap()
    };
    let server = LaharServer::start(config(), schema_db()).unwrap();
    let mut client = LaharClient::connect(server.addr(), "v6").unwrap();
    assert_eq!(client.open().unwrap(), (5, true));
    assert_eq!(bits(&client.series("q").unwrap()), offline_bits()[..5]);
    let doc = newest_generation(&dir);
    assert!(doc.contains("\"version\":7") && doc.contains("\"retired\":true"));
    match client.register("late", SRC) {
        Err(EngineError::Remote { code, .. }) => assert_eq!(code, WireCode::HistoryRetired),
        other => panic!("expected history_retired, got {other:?}"),
    }
    for frame in &wire_frames(&recorded_db())[5..] {
        client.stage_tick(frame).unwrap();
    }
    assert_eq!(bits(&client.series("q").unwrap()), offline_bits());
    drop(client);
    client_free_shutdown(server);

    let server = LaharServer::start(config(), schema_db()).unwrap();
    let mut client = LaharClient::connect(server.addr(), "v6").unwrap();
    assert_eq!(client.open().unwrap(), (TICKS, true));
    assert_eq!(bits(&client.series("q").unwrap()), offline_bits());
    drop(client);
    client_free_shutdown(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint generation that cannot be written breaks the session's
/// write-ahead log: the tick that crossed the interval answers a
/// `durability` error, and every later mutation is refused before it is
/// applied — even once the disk would take the write again — so no
/// acknowledged record lands in a segment that a later generation,
/// captured at the older crossing, would close (replay decodes only the
/// last record of such a segment). A restart restores the shutdown
/// generation, and the session — retired past its 2-tick window —
/// finishes the stream bit-identically.
#[test]
fn failed_generation_write_breaks_the_log_and_loses_no_acked_tick() {
    let dir = temp_dir("failed-generation");
    let config = || {
        local_builder()
            .checkpoint_dir(&dir)
            .history_ticks(Some(2))
            .session_config(
                lahar::SessionConfig::builder()
                    .durability(lahar::Durability::Batch)
                    .checkpoint_interval(4)
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap()
    };
    let refused = |result: Result<Vec<lahar::core::protocol::WireAlert>, EngineError>| match result
    {
        Err(EngineError::Remote { code, .. }) => assert_eq!(code, WireCode::Durability),
        other => panic!("expected a durability error, got {other:?}"),
    };
    let frames = wire_frames(&recorded_db());
    let server = LaharServer::start(config(), schema_db()).unwrap();
    let mut client = LaharClient::connect(server.addr(), "failgen").unwrap();
    client.open().unwrap();
    client.register("q", SRC).unwrap();
    for frame in &frames[..3] {
        client.stage_tick(frame).unwrap();
    }
    // A directory squatting on generation 1's temporary file makes the
    // write at the t = 4 crossing fail.
    let blocker = dir.join(format!("{}.g00000001.ckpt.tmp", session_stem("failgen")));
    std::fs::create_dir_all(&blocker).unwrap();
    refused(client.stage_tick(&frames[3]));
    // The tick itself was applied and logged before the persist failed.
    assert_eq!(bits(&client.series("q").unwrap()), offline_bits()[..4]);
    std::fs::remove_dir(&blocker).unwrap();
    // A separate stage and tick: were they acknowledged, the tick would
    // persist the stale t = 4 capture and close the segment behind the
    // stage record.
    match client.stage(&frames[4]) {
        Err(EngineError::Remote { code, .. }) => assert_eq!(code, WireCode::Durability),
        other => panic!("expected a durability error, got {other:?}"),
    }
    refused(client.tick());
    for frame in &frames[4..] {
        refused(client.stage_tick(frame));
    }
    assert_eq!(bits(&client.series("q").unwrap()), offline_bits()[..4]);
    drop(client);
    client_free_shutdown(server);

    let server = LaharServer::start(config(), schema_db()).unwrap();
    let mut client = LaharClient::connect(server.addr(), "failgen").unwrap();
    assert_eq!(client.open().unwrap(), (4, true));
    assert_eq!(bits(&client.series("q").unwrap()), offline_bits()[..4]);
    for frame in &frames[4..] {
        client.stage_tick(frame).unwrap();
    }
    assert_eq!(bits(&client.series("q").unwrap()), offline_bits());
    drop(client);
    client_free_shutdown(server);
    let _ = std::fs::remove_dir_all(&dir);
}
