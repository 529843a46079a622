//! Streaming deployment of the engine: a push-based [`RealTimeSession`]
//! with the sharded parallel tick path, monitored through its full
//! observability stack — the per-query [`lahar::EngineStats`] registry,
//! a live Prometheus `/metrics` endpoint, and Chrome-trace span
//! recording.
//!
//! Simulates a building-sensor feed: per tick, the "inference layer"
//! stages one marginal per tracked person, the session closes the tick —
//! stepping every registered query's chains across a persistent worker
//! pool — and alerts above a probability threshold are printed. While
//! ticks run, the session serves `GET /metrics` from the address given
//! by `--metrics-addr` (default `127.0.0.1:0`, a free port); at the end
//! the example *scrapes its own endpoint* and prints a few of the
//! per-query series a deployment's dashboard would chart. With
//! `--trace-out FILE`, every span is exported as Chrome Trace Event
//! JSON for `chrome://tracing`/Perfetto — the file is re-parsed and
//! validated before the example exits.
//!
//! Run with: `cargo run --release --example streaming_dashboard -- \
//!     [--metrics-addr IP:PORT] [--trace-out FILE]`

use lahar::model::{Database, StreamBuilder};
use lahar::{RealTimeSession, SessionConfig, TickMode};
use std::io::{Read, Write};
use std::net::TcpStream;

const LOCS: [&str; 4] = ["office", "hallway", "kitchen", "lab"];

fn parse_args() -> (std::net::SocketAddr, Option<String>) {
    let mut metrics_addr = "127.0.0.1:0".parse().unwrap();
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--metrics-addr" => {
                let v = args.next().expect("--metrics-addr requires IP:PORT");
                metrics_addr = v.parse().expect("--metrics-addr expects IP:PORT");
            }
            "--trace-out" => {
                trace_out = Some(args.next().expect("--trace-out requires a file path"));
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    (metrics_addr, trace_out)
}

/// Scrapes `GET {path}` from our own metrics endpoint over plain TCP.
fn scrape(addr: std::net::SocketAddr, path: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connecting to metrics endpoint");
    write!(conn, "GET {path} HTTP/1.1\r\nHost: lahar\r\n\r\n").unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    let (headers, body) = response
        .split_once("\r\n\r\n")
        .expect("HTTP response has a header/body split");
    assert!(
        headers.starts_with("HTTP/1.1 200"),
        "scrape of {path} failed: {headers}"
    );
    body.to_owned()
}

fn main() {
    let (metrics_addr, trace_out) = parse_args();
    let mut db = Database::new();
    db.declare_stream("At", &["person"], &["loc"]).unwrap();
    db.declare_relation("Room", 1).unwrap();
    let i = db.interner().clone();
    for loc in ["office", "kitchen", "lab"] {
        db.insert_relation_tuple("Room", lahar::model::tuple([i.intern(loc)]))
            .unwrap();
    }
    let people: Vec<String> = (0..24).map(|p| format!("person{p}")).collect();
    let mut builders = Vec::new();
    for p in &people {
        let b = StreamBuilder::new(&i, "At", &[p], &LOCS);
        db.add_stream(b.clone().independent(vec![]).unwrap())
            .unwrap();
        builders.push(b);
    }

    // Force the parallel path so the example exercises it even below the
    // auto threshold; a real deployment would leave `Auto` in place.
    let mut session = RealTimeSession::with_config(
        db,
        SessionConfig::builder()
            .tick_mode(TickMode::Parallel)
            .metrics_addr(metrics_addr)
            .trace(trace_out.is_some())
            .build()
            .unwrap(),
    )
    .unwrap();
    let endpoint = session.metrics_addr().expect("metrics endpoint started");
    println!("metrics endpoint: http://{endpoint}/metrics");

    // One chain per person each: 48 chains stepped per tick.
    session
        .register("coffee", "At(p,'office') ; At(p,'kitchen')")
        .unwrap();
    session
        .register(
            "wandering",
            "At(p,'office') ; (At(p, l))+{p | Room(l)} ; At(p,'lab')",
        )
        .unwrap();
    println!(
        "session tracking {} chains across {} people\n",
        session.n_chains(),
        people.len()
    );

    // A deterministic little "feed": each person drifts office → hallway
    // → kitchen → lab on their own phase.
    for t in 0..12u32 {
        for (idx, b) in builders.iter().enumerate() {
            let phase = ((t as usize + idx) / 3) % LOCS.len();
            let m = b
                .marginal(&[(LOCS[phase], 0.75), (LOCS[(phase + 1) % 4], 0.15)])
                .unwrap();
            let id = session.database().stream_id_at(idx).unwrap();
            session.stage(id, m).unwrap();
        }
        for alert in session.tick().unwrap() {
            if alert.probability > 0.5 {
                println!(
                    "t={:>2}  {:<10} μ = {:.3}",
                    alert.t, alert.name, alert.probability
                );
            }
        }
    }

    // The endpoint also answers /healthz while ticks run: a JSON
    // readiness report that stays `"ok":true` while the session is
    // healthy.
    let health = scrape(endpoint, "/healthz");
    assert!(
        health.contains("\"ok\":true"),
        "unexpected healthz: {health}"
    );
    println!("healthz: ok");

    // Scrape our own /metrics and show the per-query series a dashboard
    // would chart.
    let metrics = scrape(endpoint, "/metrics");
    assert!(metrics.contains("lahar_query_ticks_total{query=\"coffee\""));
    assert!(metrics.contains("lahar_query_step_latency_seconds_bucket{query=\"wandering\""));
    assert!(metrics.contains("lahar_kernel_steps_total{path=\"fast\"}"));
    println!("\nscraped per-query series from /metrics:");
    for line in metrics.lines().filter(|l| {
        l.starts_with("lahar_query_ticks_total{")
            || l.starts_with("lahar_query_probability{")
            || l.starts_with("lahar_query_step_latency_seconds_count{")
            || l.starts_with("lahar_tick_latency_seconds_count")
            || l.starts_with("lahar_kernel_steps_total{")
            || l.starts_with("lahar_kernel_sym_cache_total{")
            || l.starts_with("lahar_kernel_automata_")
    }) {
        println!("  {line}");
    }

    if let Some(path) = &trace_out {
        lahar::core::trace::write_chrome_trace(path).unwrap();
        // Validate: the file must re-parse as Chrome Trace Event JSON
        // and contain the tick/worker/batch span taxonomy.
        let raw = std::fs::read_to_string(path).unwrap();
        let doc = lahar::core::json::parse(&raw).expect("trace file parses as JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        let has = |name: &str| {
            events
                .iter()
                .any(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
        };
        assert!(has("tick") && has("worker_step") && has("soa_group"));
        println!("\nchrome trace: {} events -> {path}", events.len());
    }

    println!(
        "\nengine telemetry:\n{}",
        session.stats().snapshot().to_json()
    );
}
