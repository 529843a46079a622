//! Observability integration suite: the live Prometheus endpoint, the
//! Chrome-trace exporter, and their behaviour on degraded sessions.
//!
//! These tests exercise the full stack end to end — a real
//! [`RealTimeSession`] over a real TCP socket — rather than the encoder
//! units (those live in `lahar-core`). The tracer is process-global, so
//! the tests that enable it serialize on a local mutex.

use lahar::model::{Database, Marginal, StreamBuilder};
use lahar::{RealTimeSession, SessionConfig, TickMode};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that touch the process-global tracer, and tests
/// that tick parallel sessions against the fail-point registry one of
/// them arms (`worker_step` is checked by every parallel tick).
fn lock_tracer() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn schema_db() -> (Database, Vec<StreamBuilder>) {
    let mut db = Database::new();
    db.declare_stream("At", &["person"], &["loc"]).unwrap();
    let i = db.interner().clone();
    let mut builders = Vec::new();
    for p in ["joe", "sue", "ann", "bob", "eve", "max"] {
        let b = StreamBuilder::new(&i, "At", &[p], &["a", "h", "c"]);
        db.add_stream(b.clone().independent(vec![]).unwrap())
            .unwrap();
        builders.push(b);
    }
    (db, builders)
}

/// A live parallel session with the metrics endpoint bound to a free
/// port, two registered queries, and `ticks` substantive ticks played.
fn live_session(ticks: usize, trace: bool) -> RealTimeSession {
    let (db, builders) = schema_db();
    let mut session = RealTimeSession::with_config(
        db,
        SessionConfig::builder()
            .tick_mode(TickMode::Parallel)
            .n_workers(2)
            .metrics_addr("127.0.0.1:0".parse().unwrap())
            .trace(trace)
            .build()
            .unwrap(),
    )
    .unwrap();
    session.register("reach", "At(p,'a') ; At(p,'c')").unwrap();
    session
        .register("joe", "At('joe','a') ; At('joe','c')")
        .unwrap();
    feed(&mut session, &builders, 0..ticks);
    session
}

/// Plays deterministic marginals for the tick range and closes each tick.
fn feed(session: &mut RealTimeSession, builders: &[StreamBuilder], ticks: std::ops::Range<usize>) {
    for t in ticks {
        for (idx, b) in builders.iter().enumerate() {
            let id = session.database().stream_id_at(idx).unwrap();
            session.stage(id, marginal_at(b, t, idx)).unwrap();
        }
        session.tick().unwrap();
    }
}

fn marginal_at(b: &StreamBuilder, t: usize, idx: usize) -> Marginal {
    let vals = ["a", "h", "c"];
    let v = vals[(t + idx) % 3];
    b.marginal(&[(v, 0.7), (vals[(t + idx + 1) % 3], 0.2)])
        .unwrap()
}

/// Raw `GET {path}` over plain TCP; returns (status line, body).
fn scrape(addr: SocketAddr, path: &str) -> (String, String) {
    let mut conn = TcpStream::connect(addr).expect("connecting to metrics endpoint");
    write!(conn, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    let (headers, body) = response
        .split_once("\r\n\r\n")
        .expect("HTTP header/body split");
    let status = headers.lines().next().unwrap_or_default().to_owned();
    (status, body.to_owned())
}

/// Structural validator for the Prometheus text exposition format: every
/// sample line must be `name{labels} value` with a parseable value, and
/// every sampled metric family must have been declared by `# TYPE`.
fn assert_prometheus_well_formed(text: &str) {
    let mut declared: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("# TYPE has a metric name");
            let kind = parts.next().expect("# TYPE has a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram" | "summary"),
                "unknown metric kind in {line:?}"
            );
            declared.push(name.to_owned());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let name = series.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in {line:?}"
        );
        // Histogram samples append _bucket/_sum/_count to the family name.
        assert!(
            declared.iter().any(|d| {
                name == d
                    || name == format!("{d}_bucket")
                    || name == format!("{d}_sum")
                    || name == format!("{d}_count")
            }),
            "sample {name} has no preceding # TYPE declaration"
        );
        if series.contains('{') {
            assert!(series.ends_with('}'), "unterminated label set in {line:?}");
        }
        assert!(
            matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok(),
            "unparseable value in {line:?}"
        );
    }
    assert!(!declared.is_empty(), "no metric families declared");
}

/// Extracts `le -> cumulative count` pairs for one histogram series
/// filtered by a label fragment, in exposition order.
fn bucket_counts(text: &str, family: &str, label_fragment: &str) -> Vec<(String, u64)> {
    text.lines()
        .filter(|l| l.starts_with(&format!("{family}_bucket{{")) && l.contains(label_fragment))
        .map(|l| {
            let le = l
                .split("le=\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .expect("bucket has le label")
                .to_owned();
            let count: u64 = l.rsplit_once(' ').unwrap().1.parse().unwrap();
            (le, count)
        })
        .collect()
}

/// The live endpoint must serve well-formed Prometheus text with
/// per-query-labeled series, a healthz probe, and a 404 fallback.
#[test]
fn live_endpoint_serves_per_query_prometheus_series() {
    const TICKS: usize = 6;
    let _gate = lock_tracer();
    let session = live_session(TICKS, false);
    let addr = session.metrics_addr().expect("endpoint started");

    let (status, body) = scrape(addr, "/healthz");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(body.contains("\"ok\":true"), "unexpected healthz: {body}");

    let (status, metrics) = scrape(addr, "/metrics");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert_prometheus_well_formed(&metrics);

    // Engine-wide counters reflect the session's actual work.
    assert!(metrics.contains(&format!("lahar_ticks_total {TICKS}")));
    assert!(metrics.contains(&format!("lahar_parallel_ticks_total {TICKS}")));
    assert!(metrics.contains(&format!("lahar_tick_latency_seconds_count {TICKS}")));

    // Per-query series carry both the name and the stable id label.
    for (name, id) in [("reach", 0), ("joe", 1)] {
        let labels = format!("{{query=\"{name}\",id=\"{id}\"}}");
        assert!(
            metrics.contains(&format!("lahar_query_ticks_total{labels} {TICKS}")),
            "missing per-query tick counter for {name}:\n{metrics}"
        );
        assert!(metrics.contains(&format!("lahar_query_probability{labels} ")));
        let buckets = bucket_counts(&metrics, "lahar_query_step_latency_seconds", name);
        assert!(!buckets.is_empty(), "no latency buckets for {name}");
        // Buckets are cumulative and end at +Inf == _count.
        assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1));
        let (last_le, last_count) = buckets.last().unwrap();
        assert_eq!(last_le, "+Inf");
        assert_eq!(*last_count, TICKS as u64);
    }

    let (status, _) = scrape(addr, "/nope");
    assert!(status.starts_with("HTTP/1.1 404"), "{status}");
}

/// A traced parallel run must export valid Chrome Trace Event JSON —
/// parseable by our own parser, with complete events carrying numeric
/// timestamps and the tick/worker/batch span taxonomy present. The two
/// shards split seven chains 4/3: the first steps one SoA group, the
/// second's three lanes are too few to batch and step scalar.
#[test]
fn chrome_trace_from_parallel_session_is_valid() {
    let _gate = lock_tracer();
    lahar::core::trace::clear();
    let session = live_session(4, true);

    // The /trace route serves the same document the exporter writes.
    let addr = session.metrics_addr().expect("endpoint started");
    let (status, raw) = scrape(addr, "/trace");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");

    let doc = lahar::core::json::parse(&raw).expect("trace parses as JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut names = std::collections::BTreeSet::new();
    for e in events {
        let ph = e.get("ph").and_then(|v| v.as_str()).expect("ph field");
        assert!(e.get("pid").and_then(|v| v.as_u64()).is_some());
        assert!(e.get("tid").and_then(|v| v.as_u64()).is_some());
        let name = e.get("name").and_then(|v| v.as_str()).expect("name field");
        match ph {
            "X" => {
                assert!(e.get("ts").and_then(|v| v.as_f64()).is_some());
                assert!(e.get("dur").and_then(|v| v.as_f64()).is_some());
                names.insert(name.to_owned());
            }
            "M" => assert_eq!(name, "thread_name"),
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    for expected in ["tick", "worker_step", "soa_group", "scalar_chains"] {
        assert!(names.contains(expected), "no {expected} span in {names:?}");
    }

    drop(session);
    lahar::core::trace::disable();
    lahar::core::trace::clear();
}

/// Tracing observes without changing what it observes: one sequential
/// scenario run traced and untraced produces the same alert bits, the
/// same checkpointed chain states and the same kernel-path counters, so
/// a trace shows the kernels production runs. The query structures are
/// used by no other test here, so each run compiles its automata fresh
/// and the counters repeat exactly.
#[test]
fn tracing_changes_no_answer_state_or_kernel_path() {
    let _gate = lock_tracer();
    let run = |traced: bool| {
        lahar::core::trace::clear();
        if traced {
            lahar::core::trace::enable();
        } else {
            lahar::core::trace::disable();
        }
        let (db, builders) = schema_db();
        let config = SessionConfig::builder()
            .tick_mode(TickMode::Sequential)
            .build()
            .unwrap();
        let mut session = RealTimeSession::with_config(db, config).unwrap();
        // One SoA group of six lanes, plus one multi-stream chain that
        // steps scalar.
        session
            .register("walk", "At(p,'a') ; At(p,'h') ; At(p,'c') ; At(p,'a')")
            .unwrap();
        session
            .register("pair", "At('joe','c') ; At('sue','a') ; At('ann','h')")
            .unwrap();
        let mut alerts = Vec::new();
        for t in 0..8 {
            for (idx, b) in builders.iter().enumerate() {
                let id = session.database().stream_id_at(idx).unwrap();
                session.stage(id, marginal_at(b, t, idx)).unwrap();
            }
            alerts.extend(
                session
                    .tick()
                    .unwrap()
                    .iter()
                    .map(|a| a.probability.to_bits()),
            );
        }
        let ckpt = session.checkpoint().unwrap();
        let chains = lahar::core::json::parse(&ckpt.to_json())
            .unwrap()
            .get("chains")
            .unwrap()
            .clone();
        let s = session.stats().snapshot();
        let kernel = [
            s.kernel_fast_steps,
            s.kernel_frozen_steps,
            s.kernel_slow_steps,
            s.kernel_soa_steps,
            s.kernel_simd_steps,
            s.sym_cache_hits,
            s.sym_cache_misses,
        ];
        lahar::core::trace::disable();
        let trace = lahar::core::trace::chrome_trace_json();
        (alerts, chains, kernel, trace)
    };
    let (alerts, chains, kernel, _) = run(false);
    let (traced_alerts, traced_chains, traced_kernel, trace) = run(true);
    lahar::core::trace::clear();

    assert_eq!(traced_alerts, alerts);
    assert_eq!(traced_chains, chains);
    assert_eq!(
        traced_kernel, kernel,
        "fast/frozen/slow/soa/simd/hits/misses"
    );
    assert!(kernel[3] + kernel[4] > 0, "no batched steps: {kernel:?}");
    for span in ["\"name\":\"soa_group\"", "\"name\":\"scalar_chains\""] {
        assert!(trace.contains(span), "no {span} span in the traced run");
    }
}

/// Prometheus label-value escaping survives the full serve path: a
/// session whose name contains quotes, backslashes, and newlines is
/// opened over TCP, and the server's merged multi-session /metrics
/// exposition still parses with the test-side parser and carries the
/// escaped label (exercising `push_label_value` end to end).
#[test]
fn session_label_escaping_survives_live_server_scrape() {
    use lahar::{LaharClient, LaharServer, ServerConfig};
    let name = "we\"ird\\session\nname";
    let config = ServerConfig::builder()
        .n_shards(2)
        .metrics_addr("127.0.0.1:0".parse().unwrap())
        .build()
        .unwrap();
    let server = LaharServer::start(config, schema_db().0).unwrap();
    let mut client = LaharClient::connect(server.addr(), name).unwrap();
    client.open().unwrap();
    client.tick().unwrap();

    let (status, metrics) = scrape(server.metrics_addr().unwrap(), "/metrics");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert_prometheus_well_formed(&metrics);
    // Raw quote/backslash/newline escaped per the exposition format.
    let escaped = "session=\"we\\\"ird\\\\session\\nname\"";
    assert!(
        metrics.contains(escaped),
        "escaped session label missing:\n{metrics}"
    );
}

/// One request is followable across threads: the connection reader's
/// `serve_request` span and the shard worker's `shard_dequeue` span in
/// the Chrome trace export carry the same `req` argument — the id the
/// client generated and the server echoed.
#[test]
fn chrome_trace_links_one_request_across_reader_and_worker_threads() {
    use lahar::{LaharClient, LaharServer, ServerConfig};
    let _gate = lock_tracer();
    lahar::core::trace::clear();
    lahar::core::trace::enable();

    let config = ServerConfig::builder().n_shards(2).build().unwrap();
    let server = LaharServer::start(config, schema_db().0).unwrap();
    let mut client = LaharClient::connect(server.addr(), "traced").unwrap();
    client.open().unwrap();
    client.tick().unwrap();
    let req = client.last_id();
    // The serve_request span closes just after the reply is flushed; a
    // follow-up on the same sequential connection makes it durable in
    // the rings before the export below.
    client.ping().unwrap();
    lahar::core::trace::disable();

    let raw = lahar::core::trace::chrome_trace_json();
    let doc = lahar::core::json::parse(&raw).expect("trace parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    let mut thread_names = std::collections::BTreeMap::new();
    for e in events {
        if e.get("ph").and_then(|p| p.as_str()) == Some("M") {
            thread_names.insert(
                e.get("tid").and_then(|t| t.as_u64()).unwrap(),
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
                    .unwrap()
                    .to_owned(),
            );
        }
    }
    let span_with_req_on = |span: &str, thread_prefix: &str| {
        events.iter().any(|e| {
            e.get("name").and_then(|n| n.as_str()) == Some(span)
                && e.get("args")
                    .and_then(|a| a.get("req"))
                    .and_then(|r| r.as_u64())
                    == Some(req)
                && e.get("tid")
                    .and_then(|t| t.as_u64())
                    .and_then(|tid| thread_names.get(&tid))
                    .is_some_and(|name| name.starts_with(thread_prefix))
        })
    };
    assert!(
        span_with_req_on("serve_request", "lahar-conn"),
        "no serve_request span with req={req} on a connection-reader thread"
    );
    assert!(
        span_with_req_on("shard_dequeue", "lahar-shard-"),
        "no shard_dequeue span with req={req} on a shard-worker thread"
    );
    // The client side of the same request is in the export too.
    assert!(
        events.iter().any(|e| {
            e.get("name").and_then(|n| n.as_str()) == Some("client_send")
                && e.get("args")
                    .and_then(|a| a.get("req"))
                    .and_then(|r| r.as_u64())
                    == Some(req)
        }),
        "no client_send span with req={req}"
    );

    drop(client);
    drop(server);
    lahar::core::trace::clear();
}

/// Metric snapshots round-trip through a checkpoint: a restored session
/// re-serves the same per-query counters from its endpoint.
#[test]
fn restored_session_reserves_per_query_metrics() {
    let _gate = lock_tracer();
    let (db, builders) = schema_db();
    let mut session = live_session(5, false);
    let ckpt = session.checkpoint().unwrap();
    drop(session);
    drop(builders);

    let restored = RealTimeSession::restore_with_config(
        db,
        &ckpt,
        SessionConfig::builder()
            .tick_mode(TickMode::Parallel)
            .n_workers(2)
            .metrics_addr("127.0.0.1:0".parse().unwrap())
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = restored.metrics_addr().expect("endpoint restarted");
    let (status, metrics) = scrape(addr, "/metrics");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert_prometheus_well_formed(&metrics);
    assert!(metrics.contains("lahar_ticks_total 5"));
    assert!(metrics.contains("lahar_query_ticks_total{query=\"reach\",id=\"0\"} 5"));
    assert!(metrics.contains("lahar_query_step_latency_seconds_count{query=\"reach\",id=\"0\"} 5"));
}

/// A poisoned session must stay observable: the endpoint keeps serving
/// /healthz and /metrics mid-fault, and after recover() the recovery
/// shows up in the scraped counters.
#[cfg(feature = "failpoints")]
#[test]
fn poisoned_session_remains_scrapeable_and_reports_recovery() {
    use lahar::core::failpoint::{self, FailAction, Schedule};

    let _gate = lock_tracer(); // failpoint registry is process-global too
    failpoint::clear_all();
    let (_db, builders) = schema_db();
    let mut session = live_session(3, false);
    let addr = session.metrics_addr().expect("endpoint started");

    failpoint::configure("worker_step", FailAction::Error, Schedule::Once { at: 0 });
    for (idx, b) in builders.iter().enumerate() {
        let id = session.database().stream_id_at(idx).unwrap();
        session.stage(id, marginal_at(b, 3, idx)).unwrap();
    }
    assert!(session.tick().is_err());
    assert!(session.is_poisoned());

    // Observability survives the fault — and /healthz now tells the
    // truth about it: 503 with the poisoned session named (a session's
    // own endpoint reports it under the empty name).
    let (status, body) = scrape(addr, "/healthz");
    assert!(status.starts_with("HTTP/1.1 503"), "{status}");
    assert!(body.contains("\"ok\":false"), "unexpected healthz: {body}");
    assert!(
        body.contains("\"poisoned\":[\"\"]"),
        "unexpected healthz: {body}"
    );
    let (status, metrics) = scrape(addr, "/metrics");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert_prometheus_well_formed(&metrics);
    assert!(metrics.contains("lahar_recoveries_total 0"));

    session.recover().unwrap();
    let (status, body) = scrape(addr, "/healthz");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(body.contains("\"ok\":true"), "healthz must recover: {body}");
    let (_, metrics) = scrape(addr, "/metrics");
    assert!(metrics.contains("lahar_recoveries_total 1"));
    assert!(metrics.contains("lahar_ticks_total 4"));
    failpoint::clear_all();
}
