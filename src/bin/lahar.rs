//! `lahar` — command-line interface to the Lahar engine.
//!
//! ```text
//! lahar simulate --out DIR [--ticks N] [--people N] [--objects N]
//!                [--seed N] [--archived]     generate a deployment, save streams
//! lahar classify --manifest DIR QUERY        classify a query and show its plan
//! lahar query    --manifest DIR QUERY        evaluate μ(q@t) over saved streams
//! lahar replay   --manifest DIR QUERY        replay saved streams tick by tick
//!                [--metrics-addr IP:PORT] [--metrics-out FILE]
//!                [--trace-out FILE] [--threshold P]
//! lahar demo                                 built-in end-to-end walkthrough
//! ```
//!
//! `simulate` writes a `manifest.txt` (schema + relations) and one
//! `<stream>.lstream` binary image per stream; `classify`/`query` load
//! them back. The on-disk format is `lahar_model::encode_stream`.

use lahar::core::protocol::WireMarginal;
use lahar::core::{CompileOptions, Lahar};
use lahar::model::{decode_stream, encode_stream, tuple, Database, Stream, Value};
use lahar::query::{classify, compile_safe_plan, parse_and_validate, NormalQuery, QueryClass};
use lahar::rfid::{Deployment, DeploymentConfig};
use lahar::{
    Durability, EngineError, LaharClient, LaharServer, RealTimeSession, RetryPolicy, ServerConfig,
    SessionConfig, WireCode,
};
use std::collections::BTreeMap;
use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("classify") => cmd_classify(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("bench-ingest") => cmd_bench_ingest(&args[1..]),
        Some("probe") => cmd_probe(&args[1..]),
        Some("demo") => cmd_demo(),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try --help")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "lahar — event queries on correlated probabilistic streams\n\n\
         USAGE:\n  \
         lahar simulate --out DIR [--ticks N] [--people N] [--objects N] [--seed N] [--archived]\n  \
         lahar classify --manifest DIR 'QUERY'\n  \
         lahar query    --manifest DIR 'QUERY'\n  \
         lahar replay   --manifest DIR 'QUERY' [--metrics-addr IP:PORT] [--metrics-out FILE]\n  \
         \x20               [--trace-out FILE] [--threshold P] [--epoch N]\n  \
         lahar serve    --manifest DIR --addr IP:PORT [--metrics-addr IP:PORT] [--shards N]\n  \
         \x20               [--queue-cap N] [--max-sessions N] [--checkpoint-dir DIR]\n  \
         \x20               [--durability none|batch|always] [--checkpoint-interval N]\n  \
         \x20               [--slow-request-ms N] [--slow-log FILE] [--trace] [--trace-out FILE]\n  \
         \x20               [--evict-after-ms N] [--history-ticks N|all]\n  \
         lahar ingest   --manifest DIR --addr IP:PORT 'QUERY' [--session NAME] [--ticks N]\n  \
         \x20               [--epoch N] [--scrape URL] [--shutdown]\n  \
         lahar bench-ingest --manifest DIR [--addr IP:PORT] [--connections N] [--sessions M]\n  \
         \x20               [--ticks N] [--shards N] [--queue-cap N] [--evict-after-ms N]\n  \
         \x20               [--quick] [--out FILE]\n  \
         lahar probe    --manifest DIR --addr IP:PORT 'QUERY' [--session NAME] [--shutdown]\n  \
         lahar demo\n\n\
         QUERY SYNTAX (see README):\n  \
         At('joe','a') ; (At('joe', l))+{{| Hallway(l)}} ; At('joe','c')\n  \
         sigma[Person(p)](At(p,'a') ; At(p,'c'))"
    );
}

/// Minimal flag parser: `--key value` pairs plus positional arguments.
/// Flags that never take a value — without this list a trailing
/// positional (e.g. the query after `--shutdown`) would be swallowed
/// as the flag's value.
const BOOL_FLAGS: [&str; 4] = ["archived", "shutdown", "trace", "quick"];

fn parse_flags(args: &[String]) -> Result<(BTreeMap<String, String>, Vec<String>), String> {
    let mut flags = BTreeMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            // Boolean flags take no value; other flags take one when
            // followed by anything that isn't itself a flag.
            match it.peek() {
                Some(v) if !v.starts_with("--") && !BOOL_FLAGS.contains(&name) => {
                    flags.insert(name.to_owned(), it.next().unwrap().clone());
                }
                _ => {
                    flags.insert(name.to_owned(), "true".to_owned());
                }
            }
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((flags, positional))
}

fn get_usize(flags: &BTreeMap<String, String>, key: &str, default: usize) -> Result<usize, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} expects a number, got {v:?}")),
    }
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args)?;
    let out = PathBuf::from(
        flags
            .get("out")
            .ok_or("simulate requires --out DIR".to_owned())?,
    );
    let config = DeploymentConfig {
        ticks: get_usize(&flags, "ticks", 300)?,
        n_people: get_usize(&flags, "people", 4)?,
        n_objects: get_usize(&flags, "objects", 0)?,
        seed: get_usize(&flags, "seed", 42)? as u64,
        ..DeploymentConfig::default()
    };
    let archived = flags.contains_key("archived");
    eprintln!(
        "simulating {} ticks, {} people, {} objects ({}) ...",
        config.ticks,
        config.n_people,
        config.n_objects,
        if archived {
            "archived/smoothed"
        } else {
            "real-time/filtered"
        }
    );
    let dep = Deployment::simulate(config);
    let db = if archived {
        dep.smoothed_database()
    } else {
        dep.filtered_database()
    };
    fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    write_manifest(&out, &db, &dep)?;
    for (i, stream) in db.streams().iter().enumerate() {
        let bytes = encode_stream(db.interner(), stream);
        let name = stream.id().display(db.interner());
        let safe: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let path = out.join(format!("{i:03}_{safe}.lstream"));
        fs::write(&path, &bytes).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!(
        "wrote {} streams ({} relational tuples) to {}",
        db.streams().len(),
        db.relational_tuple_count(),
        out.display()
    );
    Ok(())
}

fn write_manifest(out: &Path, db: &Database, dep: &Deployment) -> Result<(), String> {
    let mut manifest = String::new();
    let i = db.interner();
    for schema in db.catalog().streams() {
        let name = i.resolve(schema.name).unwrap_or_default();
        let attrs: Vec<String> = schema
            .attrs
            .iter()
            .map(|a| i.resolve(*a).unwrap_or_default())
            .collect();
        let (keys, vals) = attrs.split_at(schema.key_arity);
        manifest.push_str(&format!(
            "stream {name} {} | {}\n",
            keys.join(" "),
            vals.join(" ")
        ));
    }
    for schema in db.catalog().relations() {
        let name = i.resolve(schema.name).unwrap_or_default();
        if let Some(rel) = db.relation(schema.name) {
            for t in rel.iter() {
                let vals: Vec<String> = t
                    .iter()
                    .map(|v| match v {
                        lahar::model::Value::Str(s) => i.resolve(*s).unwrap_or_default(),
                        lahar::model::Value::Int(n) => n.to_string(),
                        lahar::model::Value::Bool(b) => b.to_string(),
                    })
                    .collect();
                manifest.push_str(&format!("tuple {name} {}\n", vals.join(" ")));
            }
            manifest.push_str(&format!("relation {name} {}\n", schema.arity));
        }
    }
    manifest.push_str(&format!("# people: {}\n", dep.people.len()));
    let path = out.join("manifest.txt");
    fs::write(&path, manifest).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn load_database(dir: &Path) -> Result<Database, String> {
    load_database_impl(dir, true)
}

/// Loads a saved deployment. With `with_data` false the streams come
/// back *empty* (schema, keys, and domains only) — the shape
/// [`RealTimeSession`] requires, since a session is fed marginals tick
/// by tick rather than reading recorded ones.
fn load_database_impl(dir: &Path, with_data: bool) -> Result<Database, String> {
    let manifest = fs::read_to_string(dir.join("manifest.txt"))
        .map_err(|e| format!("reading manifest in {}: {e}", dir.display()))?;
    let mut db = Database::new();
    // Declarations first (relation lines may follow their tuples).
    let mut pending_tuples: Vec<(String, Vec<String>)> = Vec::new();
    for line in manifest.lines() {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("stream") => {
                let name = parts.next().ok_or("bad stream line")?;
                let rest: Vec<&str> = parts.collect();
                let split = rest
                    .iter()
                    .position(|&s| s == "|")
                    .ok_or("stream line missing '|'")?;
                let keys: Vec<&str> = rest[..split].to_vec();
                let vals: Vec<&str> = rest[split + 1..].to_vec();
                db.declare_stream(name, &keys, &vals)
                    .map_err(|e| e.to_string())?;
            }
            Some("relation") => {
                let name = parts.next().ok_or("bad relation line")?;
                let arity: usize = parts
                    .next()
                    .ok_or("relation line missing arity")?
                    .parse()
                    .map_err(|_| "bad relation arity")?;
                db.declare_relation(name, arity)
                    .map_err(|e| e.to_string())?;
            }
            Some("tuple") => {
                let name = parts.next().ok_or("bad tuple line")?.to_owned();
                pending_tuples.push((name, parts.map(str::to_owned).collect()));
            }
            _ => {}
        }
    }
    let interner = db.interner().clone();
    for (rel, vals) in pending_tuples {
        let t = tuple(vals.iter().map(|v| interner.intern(v)));
        db.insert_relation_tuple(&rel, t)
            .map_err(|e| e.to_string())?;
    }
    // Stream images.
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "lstream"))
        .collect();
    entries.sort();
    for path in entries {
        let bytes = fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let stream = decode_stream(&interner, bytes.into())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let stream = if with_data {
            stream
        } else {
            Stream::independent(stream.id().clone(), stream.domain().clone(), Vec::new())
                .map_err(|e| e.to_string())?
        };
        db.add_stream(stream).map_err(|e| e.to_string())?;
    }
    Ok(db)
}

fn manifest_db(args: &[String]) -> Result<(Database, String), String> {
    let (flags, positional) = parse_flags(args)?;
    let dir = PathBuf::from(
        flags
            .get("manifest")
            .ok_or("requires --manifest DIR".to_owned())?,
    );
    let query = positional
        .first()
        .ok_or("requires a query argument".to_owned())?
        .clone();
    Ok((load_database(&dir)?, query))
}

fn cmd_classify(args: &[String]) -> Result<(), String> {
    let (db, src) = manifest_db(args)?;
    let q = parse_and_validate(db.catalog(), db.interner(), &src).map_err(|e| e.to_string())?;
    let nq = NormalQuery::from_query(&q);
    let class = classify(db.catalog(), &nq);
    println!("query:  {src}");
    println!("class:  {class}");
    match class {
        QueryClass::Unsafe => {
            println!("plan:   none (provably #P-hard; the engine samples)");
        }
        _ => match compile_safe_plan(db.catalog(), &nq) {
            Ok(plan) => {
                println!("plan:");
                for line in plan.display(db.interner()).lines() {
                    println!("  {line}");
                }
            }
            Err(e) => println!("plan:   {e}"),
        },
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let (db, src) = manifest_db(args)?;
    let compiled =
        Lahar::compile_with(&db, src.as_str(), CompileOptions::new()).map_err(|e| e.to_string())?;
    let algorithm = compiled.algorithm();
    let series = compiled
        .prob_series(db.horizon())
        .map_err(|e| e.to_string())?;
    eprintln!("algorithm: {algorithm}");
    println!("t,probability");
    for (t, p) in series.iter().enumerate() {
        println!("{t},{p:.6}");
    }
    Ok(())
}

/// Replays a saved deployment through a [`RealTimeSession`] tick by
/// tick — the observability showcase: `--metrics-addr` serves live
/// Prometheus metrics while the replay runs, `--metrics-out` dumps the
/// final scrape to a file, and `--trace-out` records every tick's spans
/// as a Chrome Trace Event file.
fn cmd_replay(args: &[String]) -> Result<(), String> {
    let (flags, positional) = parse_flags(args)?;
    let dir = PathBuf::from(
        flags
            .get("manifest")
            .ok_or("replay requires --manifest DIR".to_owned())?,
    );
    let src = positional
        .first()
        .ok_or("replay requires a query argument".to_owned())?;
    let threshold: f64 = match flags.get("threshold") {
        None => 0.5,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--threshold expects a probability, got {v:?}"))?,
    };
    let mut builder = SessionConfig::builder();
    if let Some(addr) = flags.get("metrics-addr") {
        builder = builder.metrics_addr(
            addr.parse()
                .map_err(|_| format!("--metrics-addr expects IP:PORT, got {addr:?}"))?,
        );
    }
    if flags.contains_key("trace-out") {
        builder = builder.trace(true);
    }
    // `--epoch N` feeds the session N ticks per call; the session joins
    // its worker pool once per epoch instead of once per tick.
    let epoch = get_usize(&flags, "epoch", 1)?.max(1);
    builder = builder.max_epoch_ticks(epoch);
    let config = builder.build().map_err(|e| e.to_string())?;

    let full = load_database_impl(&dir, true)?;
    let session_db = load_database_impl(&dir, false)?;
    let mut session =
        RealTimeSession::with_config(session_db, config).map_err(|e| e.to_string())?;
    if let Some(addr) = session.metrics_addr() {
        eprintln!("metrics: http://{addr}/metrics (healthz, trace)");
    }
    session.register("replay", src).map_err(|e| e.to_string())?;

    println!("t,probability");
    let mut t = 0;
    while t < full.horizon() {
        let batch_end = (t + epoch as u32).min(full.horizon());
        let mut batch = Vec::with_capacity((batch_end - t) as usize);
        for bt in t..batch_end {
            let mut staged = Vec::with_capacity(full.streams().len());
            for si in 0..full.streams().len() {
                let id = session
                    .database()
                    .stream_id_at(si)
                    .ok_or_else(|| format!("stream {si} missing from session database"))?;
                staged.push((id, full.streams()[si].marginal_at(bt)));
            }
            batch.push(staged);
        }
        t = batch_end;
        for alert in session.tick_epoch(batch).map_err(|e| e.to_string())? {
            println!("{},{:.6}", alert.t, alert.probability);
            if alert.probability >= threshold {
                eprintln!(
                    "ALERT t={} {} p={:.4}",
                    alert.t, alert.name, alert.probability
                );
            }
        }
    }

    let snap = session.stats().snapshot();
    if let Some(path) = flags.get("metrics-out") {
        lahar::core::expose::write_prometheus(path, &snap)
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote Prometheus dump to {path}");
    }
    if let Some(path) = flags.get("trace-out") {
        lahar::core::trace::write_chrome_trace(path).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote Chrome trace to {path}");
    }
    eprintln!("{}", snap.to_json());
    Ok(())
}

/// Hosts the manifest's schema as a multi-session network service:
/// clients create named sessions, stream marginals, and read series over
/// the newline-delimited JSON protocol (see PROTOCOL.md). Blocks until a
/// client sends `shutdown`; every hosted session is checkpointed into
/// `--checkpoint-dir` on the way down and restored on the next start.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args)?;
    let dir = PathBuf::from(
        flags
            .get("manifest")
            .ok_or("serve requires --manifest DIR".to_owned())?,
    );
    let template = load_database_impl(&dir, false)?;
    let mut builder = ServerConfig::builder();
    if let Some(addr) = flags.get("addr") {
        builder = builder.addr(parse_addr("addr", addr)?);
    }
    if let Some(addr) = flags.get("metrics-addr") {
        builder = builder.metrics_addr(parse_addr("metrics-addr", addr)?);
    }
    if flags.contains_key("shards") {
        builder = builder.n_shards(get_usize(&flags, "shards", 0)?);
    }
    if flags.contains_key("queue-cap") {
        builder = builder.queue_cap(get_usize(&flags, "queue-cap", 0)?);
    }
    if flags.contains_key("max-sessions") {
        builder = builder.max_sessions(get_usize(&flags, "max-sessions", 0)?);
    }
    if let Some(d) = flags.get("checkpoint-dir") {
        builder = builder.checkpoint_dir(d);
    }
    if flags.contains_key("durability") || flags.contains_key("checkpoint-interval") {
        let mut session = SessionConfig::builder();
        if let Some(level) = flags.get("durability") {
            session =
                session.durability(Durability::parse(level).ok_or_else(|| {
                    format!("--durability expects none|batch|always, got {level:?}")
                })?);
        }
        if flags.contains_key("checkpoint-interval") {
            let interval = get_usize(&flags, "checkpoint-interval", 0)?;
            if interval == 0 {
                return Err(
                    "--checkpoint-interval must be non-zero (omit it to disable)".to_owned(),
                );
            }
            session = session.checkpoint_interval(interval);
        }
        builder = builder.session_config(session.build().map_err(|e| e.to_string())?);
    }
    if flags.contains_key("slow-request-ms") {
        builder = builder.slow_request_ms(get_usize(&flags, "slow-request-ms", 0)? as u64);
    }
    if let Some(path) = flags.get("slow-log") {
        builder = builder.slow_log(path);
    }
    if flags.contains_key("evict-after-ms") {
        let ms = get_usize(&flags, "evict-after-ms", 0)?;
        builder = builder.evict_after(std::time::Duration::from_millis(ms as u64));
    }
    if let Some(ticks) = flags.get("history-ticks") {
        builder = builder.history_ticks(parse_history_ticks(ticks)?);
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    // `--trace-out` implies tracing; `--trace` alone streams spans into
    // the rings for the live `/trace` endpoint on --metrics-addr.
    if flags.contains_key("trace") || flags.contains_key("trace-out") {
        lahar::core::trace::enable();
    }
    let server = LaharServer::start(config, template).map_err(|e| e.to_string())?;
    eprintln!("serving on {}", server.addr());
    if let Some(maddr) = server.metrics_addr() {
        eprintln!("metrics: http://{maddr}/metrics");
    }
    let result = server.join().map_err(|e| e.to_string());
    if let Some(path) = flags.get("trace-out") {
        lahar::core::trace::write_chrome_trace(path).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote Chrome trace to {path}");
    }
    result
}

/// `--history-ticks N|all`: ticks of marginal history a hosted session
/// records (at least 1), or `all` to keep the whole history.
fn parse_history_ticks(value: &str) -> Result<Option<u32>, String> {
    match value {
        "all" => Ok(None),
        n => match n.parse() {
            Ok(0) | Err(_) => Err(format!(
                "--history-ticks expects a positive tick count or 'all', got {n:?}"
            )),
            Ok(ticks) => Ok(Some(ticks)),
        },
    }
}

/// One wire frame per tick: every stream's marginal at `t`, addressed by
/// stream type and key strings.
fn wire_tick(db: &Database, t: u32) -> Result<Vec<WireMarginal>, String> {
    let interner = db.interner();
    db.streams()
        .iter()
        .map(|stream| {
            let id = stream.id();
            let stream_type = interner
                .resolve(id.stream_type)
                .ok_or("unresolvable stream type symbol")?;
            let key = id
                .key
                .iter()
                .map(|v| match v {
                    Value::Str(s) => interner
                        .resolve(*s)
                        .ok_or_else(|| "unresolvable key symbol".to_owned()),
                    other => Err(format!("non-string stream key {other:?} cannot be sent")),
                })
                .collect::<Result<Vec<String>, String>>()?;
            Ok(WireMarginal {
                stream_type,
                key,
                probs: stream.marginal_at(t).probs().to_vec(),
            })
        })
        .collect()
}

/// Streams the manifest's recorded marginals into a served session tick
/// by tick, then prints the server-computed series as CSV. The client
/// carries a [`RetryPolicy`], so `overloaded` responses (and a server
/// that is still binding its port) are retried with jittered
/// exponential backoff — the client side of the server's backpressure
/// contract.
fn cmd_ingest(args: &[String]) -> Result<(), String> {
    let (flags, positional) = parse_flags(args)?;
    let dir = PathBuf::from(
        flags
            .get("manifest")
            .ok_or("ingest requires --manifest DIR".to_owned())?,
    );
    let addr = parse_addr(
        "addr",
        flags.get("addr").ok_or("ingest requires --addr IP:PORT")?,
    )?;
    let src = positional
        .first()
        .ok_or("ingest requires a query argument".to_owned())?;
    let session = flags.get("session").map_or("default", String::as_str);
    let db = load_database_impl(&dir, true)?;
    let ticks = match flags.get("ticks") {
        None => db.horizon(),
        Some(_) => get_usize(&flags, "ticks", 0)?.min(db.horizon() as usize) as u32,
    };

    // A CLI ingest would rather wait out a saturated shard (or a server
    // that is still starting) than die mid-stream: give the default
    // policy extra patience.
    let policy = RetryPolicy {
        max_retries: 24,
        ..RetryPolicy::default()
    };
    let mut client =
        LaharClient::connect_with_retry(addr, session, policy).map_err(|e| e.to_string())?;
    let (t0, restored) = client.open().map_err(|e| e.to_string())?;
    eprintln!(
        "session '{session}' at t={t0}{}",
        if restored { " (restored)" } else { "" }
    );
    let query_name = "q";
    match client.register(query_name, src) {
        Ok(_) => {}
        // Re-running against a restored session: the query is already there.
        Err(EngineError::Remote {
            code: WireCode::BadRequest,
            message,
        }) => {
            eprintln!("note: {message}");
        }
        Err(e) => return Err(e.to_string()),
    }

    // `--epoch N` ships N ticks per frame; the server closes them as
    // batched epochs (one worker-pool join per epoch).
    let epoch = get_usize(&flags, "epoch", 1)?.max(1) as u32;
    // Resume where the session already is (t0 > 0 after a restore), so
    // re-running the same ingest never double-stages a tick.
    let mut t = t0;
    while t < ticks {
        let batch_end = (t + epoch).min(ticks);
        // Backpressure (`overloaded`) is handled inside the client by
        // its retry policy; an error surfacing here is terminal.
        if epoch == 1 {
            let frame = wire_tick(&db, t)?;
            client.stage_tick(&frame).map_err(|e| e.to_string())?;
        } else {
            let frames = (t..batch_end)
                .map(|bt| wire_tick(&db, bt))
                .collect::<Result<Vec<_>, String>>()?;
            client.stage_epoch(&frames).map_err(|e| e.to_string())?;
        }
        t = batch_end;
    }

    let series = client.series(query_name).map_err(|e| e.to_string())?;
    println!("t,probability");
    for (t, p) in series.iter().enumerate() {
        println!("{t},{p:.6}");
    }

    if let Some(url) = flags.get("scrape") {
        let body = http_get(url)?;
        let interesting: Vec<&str> = body
            .lines()
            .filter(|l| l.starts_with("lahar_") && l.contains("session="))
            .take(20)
            .collect();
        eprintln!("--- scraped {url} ({} bytes) ---", body.len());
        for line in interesting {
            eprintln!("{line}");
        }
    }
    if flags.contains_key("shutdown") {
        client.shutdown_server().map_err(|e| e.to_string())?;
        eprintln!("server shutting down");
    }
    Ok(())
}

/// A latency percentile over a sorted sample, in milliseconds.
fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)] as f64 / 1e6
}

/// First sample value of a Prometheus gauge/counter in `body`, by exact
/// metric name (labels, if any, are not matched).
fn scrape_metric(body: &str, name: &str) -> Option<f64> {
    body.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        let rest = rest.trim_start();
        if rest.is_empty() || l.starts_with('#') {
            return None;
        }
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// What one bench connection reports back: ticks acknowledged,
/// `overloaded` responses absorbed, and per-request latencies.
struct ConnReport {
    acked: u64,
    overloaded: u64,
    latencies_ns: Vec<u64>,
}

/// How many bench connections may be connecting at once. The server's
/// listen backlog is std's 128; when more simultaneous connects than
/// that arrive before the reactor accepts them, the kernel drops the
/// excess SYNs and each dropped client waits out the 1 s SYN
/// retransmit, which the arm's wall time would then measure.
const CONNECT_WINDOW: usize = 64;

/// One bench connection: open the shared session (then signal
/// `opened`), then drive `ticks` `stage_tick` round trips, counting
/// `overloaded` pushback explicitly (no [`RetryPolicy`] — the bench
/// *is* the backpressure accountant) and retrying the same tick with
/// bounded exponential backoff, so an acknowledged tick count is
/// exact: nothing is silently dropped.
fn bench_connection(
    addr: SocketAddr,
    session: &str,
    ticks: usize,
    frames: &[Vec<WireMarginal>],
    opened: &std::sync::mpsc::Sender<()>,
) -> Result<ConnReport, String> {
    // Retry the connect itself a few times before declaring the server
    // gone.
    let mut client = {
        let mut attempt = 0u32;
        loop {
            match LaharClient::connect(addr, session) {
                Ok(c) => break c,
                Err(_) if attempt < 8 => {
                    std::thread::sleep(std::time::Duration::from_millis(25 << attempt.min(4)));
                    attempt += 1;
                }
                Err(e) => return Err(format!("connect {addr}: {e}")),
            }
        }
    };
    let mut report = ConnReport {
        acked: 0,
        overloaded: 0,
        latencies_ns: Vec::with_capacity(ticks),
    };
    // `open` rides the same shard queues as everything else, so a
    // connect storm can see `overloaded` before the first tick.
    let mut backoff = 0u32;
    loop {
        match client.open() {
            Ok(_) => break,
            Err(EngineError::Remote {
                code: WireCode::Overloaded,
                ..
            }) => {
                report.overloaded += 1;
                std::thread::sleep(std::time::Duration::from_millis(1 << backoff.min(6)));
                backoff += 1;
            }
            Err(e) => return Err(format!("open: {e}")),
        }
    }
    let _ = opened.send(());
    for k in 0..ticks {
        let frame = &frames[k % frames.len()];
        let mut backoff = 0u32;
        loop {
            let start = std::time::Instant::now();
            match client.stage_tick(frame) {
                Ok(_) => {
                    report.latencies_ns.push(start.elapsed().as_nanos() as u64);
                    report.acked += 1;
                    break;
                }
                Err(EngineError::Remote {
                    code: WireCode::Overloaded,
                    ..
                }) => {
                    report.overloaded += 1;
                    std::thread::sleep(std::time::Duration::from_millis(1 << backoff.min(6)));
                    backoff += 1;
                }
                Err(e) => return Err(format!("stage_tick: {e}")),
            }
        }
    }
    Ok(report)
}

/// Load generator for the serve path: `--connections` concurrent
/// clients round-robin over `--sessions` hosted sessions, each driving
/// `--ticks` `stage_tick` round trips as fast as the server
/// acknowledges them. Reports overload pushback and latency
/// percentiles per arm, asserts **zero silent drops** (every session's
/// final clock equals the ticks its clients got acknowledged), and —
/// when self-hosting with `--evict-after-ms` — asserts cold-session
/// tiering converges (`resident` drains to 0 while the registry still
/// holds every session). Results land in `--out` (default
/// `BENCH_serve.json`).
///
/// Without `--addr` the bench self-hosts an in-process [`LaharServer`]
/// per arm from `--manifest`'s schema; with `--addr` it drives an
/// external server (tiering assertions are skipped — no metrics
/// endpoint is assumed). A self-hosted run also measures how a served
/// session's checkpoint and restore scale with its age (the `age`
/// section, see [`age_report`]).
fn cmd_bench_ingest(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args)?;
    let dir = PathBuf::from(
        flags
            .get("manifest")
            .ok_or("bench-ingest requires --manifest DIR".to_owned())?,
    );
    let quick = flags.contains_key("quick");
    let sessions = get_usize(&flags, "sessions", 8)?.max(1);
    let ticks = get_usize(&flags, "ticks", if quick { 8 } else { 16 })?.max(1);
    let out = flags
        .get("out")
        .map_or_else(|| "BENCH_serve.json".to_owned(), String::clone);
    let external = match flags.get("addr") {
        Some(addr) => Some(parse_addr("addr", addr)?),
        None => None,
    };
    let evict_after_ms = if flags.contains_key("evict-after-ms") {
        Some(get_usize(&flags, "evict-after-ms", 0)? as u64)
    } else {
        None
    };
    let arms: Vec<usize> = match flags.get("connections") {
        Some(_) => vec![get_usize(&flags, "connections", 0)?.max(1)],
        None if quick => vec![256],
        None => vec![64, 256, 512],
    };

    // Wire frames are the same for every connection: precompute a small
    // window of the manifest's recorded marginals and cycle through it.
    let full = load_database_impl(&dir, true)?;
    if full.horizon() == 0 {
        return Err("bench-ingest needs a manifest with recorded ticks".to_owned());
    }
    let window = full.horizon().min(64);
    let frames: std::sync::Arc<Vec<Vec<WireMarginal>>> = std::sync::Arc::new(
        (0..window)
            .map(|t| wire_tick(&full, t))
            .collect::<Result<_, _>>()?,
    );

    let mut arm_reports: Vec<String> = Vec::new();
    let mut tiering_report: Option<String> = None;

    for (arm_idx, &connections) in arms.iter().enumerate() {
        // Self-hosted servers are per-arm so arms never share clocks;
        // sessions are arm-scoped either way for the same reason.
        let hosted = match external {
            Some(_) => None,
            None => {
                let ckpt = std::env::temp_dir().join(format!(
                    "lahar-bench-ingest-{}-{arm_idx}",
                    std::process::id()
                ));
                let _ = fs::remove_dir_all(&ckpt);
                fs::create_dir_all(&ckpt)
                    .map_err(|e| format!("creating {}: {e}", ckpt.display()))?;
                let mut builder = ServerConfig::builder()
                    .metrics_addr(parse_addr("metrics-addr", "127.0.0.1:0")?)
                    .n_shards(get_usize(&flags, "shards", 0)?)
                    .checkpoint_dir(&ckpt);
                if flags.contains_key("queue-cap") {
                    builder = builder.queue_cap(get_usize(&flags, "queue-cap", 0)?);
                }
                if let Some(ms) = evict_after_ms {
                    builder = builder.evict_after(std::time::Duration::from_millis(ms));
                }
                let config = builder.build().map_err(|e| e.to_string())?;
                let template = load_database_impl(&dir, false)?;
                let server = LaharServer::start(config, template).map_err(|e| e.to_string())?;
                Some((server, ckpt))
            }
        };
        let addr = match (&hosted, external) {
            (Some((server, _)), _) => server.addr(),
            (None, Some(addr)) => addr,
            (None, None) => unreachable!(),
        };

        eprintln!(
            "arm {arm_idx}: {connections} connections x {sessions} sessions x {ticks} ticks \
             against {addr} ..."
        );
        let started = std::time::Instant::now();
        // At most CONNECT_WINDOW connections are between `connect` and
        // their answered `open` at once: each opened connection lets
        // the next thread start.
        let (opened_tx, opened_rx) = std::sync::mpsc::channel::<()>();
        let handles: Vec<_> = (0..connections)
            .map(|i| {
                if i >= CONNECT_WINDOW {
                    let _ = opened_rx.recv();
                }
                let frames = std::sync::Arc::clone(&frames);
                let session = format!("bench-a{arm_idx}-{}", i % sessions);
                let opened = opened_tx.clone();
                std::thread::spawn(move || {
                    let report = bench_connection(addr, &session, ticks, &frames, &opened);
                    if report.is_err() {
                        let _ = opened.send(()); // never leave the window short
                    }
                    report
                })
            })
            .collect();
        let mut latencies: Vec<u64> = Vec::with_capacity(connections * ticks);
        let mut acked = 0u64;
        let mut overloaded = 0u64;
        for h in handles {
            let report = h
                .join()
                .map_err(|_| "bench connection panicked".to_owned())??;
            acked += report.acked;
            overloaded += report.overloaded;
            latencies.extend(report.latencies_ns);
        }
        let elapsed = started.elapsed().as_secs_f64();
        latencies.sort_unstable();

        // Zero-silent-drop: every acknowledged tick must be visible in
        // its session's clock. Connections sharing a session interleave,
        // but `stage_tick` is one atomic command, so the clocks add up
        // exactly — `open` (idempotent) reads them back.
        let expected_total = (connections * ticks) as u64;
        if acked != expected_total {
            return Err(format!(
                "arm {arm_idx}: acked {acked} != offered {expected_total}"
            ));
        }
        for s in 0..sessions {
            let conns_here = (connections + sessions - 1 - s) / sessions;
            if conns_here == 0 {
                continue;
            }
            let want = (conns_here * ticks) as u32;
            let mut client = LaharClient::connect(addr, &format!("bench-a{arm_idx}-{s}"))
                .map_err(|e| e.to_string())?;
            let (t, _) = client.open().map_err(|e| e.to_string())?;
            if t != want {
                return Err(format!(
                    "silent drop: session bench-a{arm_idx}-{s} clock {t} != acked {want}"
                ));
            }
        }
        eprintln!(
            "arm {arm_idx}: {acked} acks in {elapsed:.2}s ({:.0} acks/s), \
             {overloaded} overloaded retries, p99 {:.2}ms — zero silent drops",
            acked as f64 / elapsed,
            percentile_ms(&latencies, 0.99),
        );
        arm_reports.push(format!(
            "    {{\"connections\": {connections}, \"sessions\": {sessions}, \
             \"ticks_per_conn\": {ticks}, \"total_acks\": {acked}, \
             \"overloaded_retries\": {overloaded}, \"elapsed_s\": {elapsed:.3}, \
             \"acks_per_s\": {:.1}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \
             \"p99_ms\": {:.3}, \"zero_silent_drop\": true}}",
            acked as f64 / elapsed,
            percentile_ms(&latencies, 0.50),
            percentile_ms(&latencies, 0.95),
            percentile_ms(&latencies, 0.99),
        ));

        // Tiering: with eviction armed, an idle server must drain every
        // hosted session out of memory while the registry (and thus the
        // `lahar_server_sessions` total) keeps them addressable.
        if let Some((server, _)) = &hosted {
            if let (Some(ms), Some(maddr)) = (evict_after_ms, server.metrics_addr()) {
                let url = format!("http://{maddr}/metrics");
                let deadline =
                    std::time::Instant::now() + std::time::Duration::from_millis(ms * 20 + 15_000);
                let (resident, total) = loop {
                    let body = http_get(&url)?;
                    let resident =
                        scrape_metric(&body, "lahar_server_sessions_resident").unwrap_or(f64::NAN);
                    let total = scrape_metric(&body, "lahar_server_sessions ").unwrap_or(f64::NAN);
                    if resident == 0.0 || std::time::Instant::now() >= deadline {
                        break (resident, total);
                    }
                    std::thread::sleep(std::time::Duration::from_millis(50));
                };
                let body = http_get(&url)?;
                let evicted =
                    scrape_metric(&body, "lahar_server_sessions_evicted").unwrap_or(f64::NAN);
                let evictions =
                    scrape_metric(&body, "lahar_server_evictions_total").unwrap_or(f64::NAN);
                let restores =
                    scrape_metric(&body, "lahar_server_restores_total").unwrap_or(f64::NAN);
                if resident.is_nan() || resident > sessions as f64 {
                    return Err(format!(
                        "tiering: resident {resident} exceeds active sessions {sessions}"
                    ));
                }
                if resident != 0.0 {
                    return Err(format!(
                        "tiering: {resident} sessions still resident after idling past \
                         evict_after={ms}ms"
                    ));
                }
                eprintln!(
                    "arm {arm_idx}: tiering converged — resident {resident}, evicted {evicted}, \
                     total {total}, {evictions} evictions / {restores} restores"
                );
                tiering_report = Some(format!(
                    "  \"tiering\": {{\"evict_after_ms\": {ms}, \"resident_after_idle\": {resident}, \
                     \"evicted_after_idle\": {evicted}, \"sessions_total\": {total}, \
                     \"evictions_total\": {evictions}, \"restores_total\": {restores}}},"
                ));
            }
        }

        if let Some((server, ckpt)) = hosted {
            server.shutdown().map_err(|e| e.to_string())?;
            let _ = fs::remove_dir_all(&ckpt);
        }
    }

    let age = match external {
        Some(_) => None,
        None => {
            let ages: &[u32] = if quick {
                &[1_000, 4_000, 16_000]
            } else {
                &[1_000, 4_000, 16_000, 64_000, 256_000]
            };
            Some(age_report(&dir, &frames, ages)?)
        }
    };
    let sections: Vec<String> = tiering_report.into_iter().chain(age).collect();
    let json = format!(
        "{{\n  \"bench\": \"serve_ingest\",\n  \"quick\": {quick},\n{}\n  \"arms\": [\n{}\n  ]\n}}\n",
        sections.join("\n"),
        arm_reports.join(",\n"),
    );
    fs::write(&out, &json).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(())
}

/// Byte length of the `"series"` array in a checkpoint document (its
/// answers are plain numbers, so the first bracket that closes the
/// array's opening one ends it).
fn series_bytes(doc: &str) -> usize {
    let Some(at) = doc.find("\"series\":[") else {
        return 0;
    };
    let start = at + "\"series\":".len();
    let mut depth = 0usize;
    for (i, c) in doc[start..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' if depth == 1 => return i + 1,
            ']' => depth -= 1,
            _ => {}
        }
    }
    doc.len() - start
}

/// The query the `age` section's session runs: the serve smoke's query
/// over a `lahar simulate` deployment (its `Room` and `CoffeeRoom`
/// relations).
const AGE_QUERY: &str = "At(p, l1)[Room(l1)] ; At(p, l2)[CoffeeRoom(l2)]";

/// The `age` section of `BENCH_serve.json`: how a served session's
/// checkpoint and restore scale with its age. One self-hosted session
/// (default `--history-ticks`, batch durability, a checkpoint every
/// 1000 ticks, so every generation follows the same amount of log)
/// registers [`AGE_QUERY`] at t = 0 and is fed the manifest window in
/// `stage_ticks` frames of up to 256 ticks. At each age (a multiple of
/// 1000, where a generation lands and leaves an empty write-ahead tail)
/// it reports that generation's bytes and the bytes of its series,
/// idles until the server evicts the session, and reports the latency
/// of the first reply — an `open` — which restores it.
fn age_report(dir: &Path, frames: &[Vec<WireMarginal>], ages: &[u32]) -> Result<String, String> {
    let ckpt = std::env::temp_dir().join(format!("lahar-bench-age-{}", std::process::id()));
    let _ = fs::remove_dir_all(&ckpt);
    let config = ServerConfig::builder()
        .metrics_addr(parse_addr("metrics-addr", "127.0.0.1:0")?)
        .n_shards(1)
        .checkpoint_dir(&ckpt)
        .evict_after(std::time::Duration::from_millis(100))
        .session_config(
            SessionConfig::builder()
                .durability(Durability::Batch)
                .checkpoint_interval(1_000)
                .build()
                .map_err(|e| e.to_string())?,
        )
        .build()
        .map_err(|e| e.to_string())?;
    let history_ticks = config.history_ticks;
    let server =
        LaharServer::start(config, load_database_impl(dir, false)?).map_err(|e| e.to_string())?;
    let metrics = format!(
        "http://{}/metrics",
        server.metrics_addr().expect("metrics enabled")
    );
    let mut client = LaharClient::connect(server.addr(), "age").map_err(|e| e.to_string())?;
    client.open().map_err(|e| e.to_string())?;
    client
        .register("q", AGE_QUERY)
        .map_err(|e| format!("registering the age query {AGE_QUERY:?}: {e}"))?;
    let mut points = Vec::new();
    let mut t = 0u32;
    for &age in ages {
        while t < age {
            let n = (age - t).min(256);
            let epoch: Vec<_> = (t..t + n)
                .map(|k| frames[k as usize % frames.len()].clone())
                .collect();
            client.stage_epoch(&epoch).map_err(|e| e.to_string())?;
            t += n;
        }
        let newest = fs::read_dir(&ckpt)
            .map_err(|e| e.to_string())?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.to_string_lossy().ends_with(".ckpt.json"))
            .max()
            .ok_or("no checkpoint generation written")?;
        let doc = fs::read_to_string(&newest).map_err(|e| e.to_string())?;
        if !doc.contains(&format!("\"t\":{age},")) {
            return Err(format!(
                "age {age}: the newest generation is not at t = {age}"
            ));
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while scrape_metric(&http_get(&metrics)?, "lahar_server_sessions_evicted") != Some(1.0) {
            if std::time::Instant::now() >= deadline {
                return Err(format!("age {age}: session never evicted"));
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let started = std::time::Instant::now();
        let (now, restored) = client.open().map_err(|e| e.to_string())?;
        let restore_ms = started.elapsed().as_secs_f64() * 1e3;
        if (now, restored) != (age, true) {
            return Err(format!(
                "age {age}: open after eviction answered t={now}, restored={restored}"
            ));
        }
        eprintln!(
            "age {age}: checkpoint {} B (series {} B), evict -> first reply {restore_ms:.2} ms",
            doc.len(),
            series_bytes(&doc)
        );
        points.push(format!(
            "{{\"t\": {age}, \"checkpoint_bytes\": {}, \"series_bytes\": {}, \
             \"restore_ms\": {restore_ms:.3}}}",
            doc.len(),
            series_bytes(&doc)
        ));
    }
    client.shutdown_server().map_err(|e| e.to_string())?;
    server.join().map_err(|e| e.to_string())?;
    let _ = fs::remove_dir_all(&ckpt);
    let mut section = String::from("  \"age\": {\"query\": ");
    lahar::core::json::push_string(&mut section, AGE_QUERY);
    let history = history_ticks.map_or("null".to_owned(), |n| n.to_string());
    section.push_str(&format!(
        ", \"history_ticks\": {history}, \"points\": [\n    {}\n  ]}},",
        points.join(",\n    ")
    ));
    Ok(section)
}

/// Drives one of every wire command against a live server — the
/// observability smoke: after a probe, `/metrics` has a
/// `lahar_server_request_duration_seconds` histogram and a
/// `lahar_server_requests_total` counter for each command, and a
/// traced server has spans for the whole request path. Prints one
/// `probe <command>: ...` line per command.
fn cmd_probe(args: &[String]) -> Result<(), String> {
    let (flags, positional) = parse_flags(args)?;
    let dir = PathBuf::from(
        flags
            .get("manifest")
            .ok_or("probe requires --manifest DIR".to_owned())?,
    );
    let addr = parse_addr(
        "addr",
        flags.get("addr").ok_or("probe requires --addr IP:PORT")?,
    )?;
    let src = positional
        .first()
        .ok_or("probe requires a query argument".to_owned())?;
    let session = flags.get("session").map_or("probe", String::as_str);
    let db = load_database_impl(&dir, true)?;
    if db.horizon() < 3 {
        return Err("probe needs a manifest with at least 3 recorded ticks".to_owned());
    }

    let mut client = LaharClient::connect_with_retry(
        addr,
        session,
        RetryPolicy {
            max_retries: 24,
            ..RetryPolicy::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let t = client.ping().map_err(|e| e.to_string())?;
    println!("probe ping: t={t}");
    let (t0, restored) = client.open().map_err(|e| e.to_string())?;
    println!("probe open: t={t0} restored={restored}");
    match client.register("q", src) {
        Ok(n) => println!("probe register: {n} chains"),
        Err(EngineError::Remote {
            code: WireCode::BadRequest,
            message,
        }) => {
            println!("probe register: already registered ({message})");
        }
        Err(e) => return Err(e.to_string()),
    }
    let staged = client
        .stage(&wire_tick(&db, t0)?)
        .map_err(|e| e.to_string())?;
    println!("probe stage: {staged} streams");
    let alerts = client.tick().map_err(|e| e.to_string())?;
    println!("probe tick: {} alerts", alerts.len());
    let frames = vec![wire_tick(&db, t0 + 1)?, wire_tick(&db, t0 + 2)?];
    let alerts = client.stage_epoch(&frames).map_err(|e| e.to_string())?;
    println!("probe stage_ticks: {} alerts", alerts.len());
    let series = client.series("q").map_err(|e| e.to_string())?;
    println!("probe series: {} points", series.len());
    match client.checkpoint() {
        Ok(t) => println!("probe checkpoint: t={t}"),
        // Servers without --checkpoint-dir reject the command; the
        // request still lands in the per-command metrics, which is all
        // the probe needs.
        Err(EngineError::Remote { code, .. }) => println!("probe checkpoint: rejected ({code})"),
        Err(e) => return Err(e.to_string()),
    }
    if flags.contains_key("shutdown") {
        client.shutdown_server().map_err(|e| e.to_string())?;
        println!("probe shutdown: ok");
    }
    println!("probe last request id: {}", client.last_id());
    Ok(())
}

fn parse_addr(flag: &str, value: &str) -> Result<SocketAddr, String> {
    value
        .parse()
        .map_err(|_| format!("--{flag} expects IP:PORT, got {value:?}"))
}

/// Minimal HTTP/1.0 GET (no external tooling needed in CI smoke tests).
fn http_get(url: &str) -> Result<String, String> {
    use std::io::{Read as _, Write as _};
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("--scrape expects an http:// URL, got {url:?}"))?;
    let (host, path) = rest.split_once('/').unwrap_or((rest, ""));
    let mut stream = std::net::TcpStream::connect(host).map_err(|e| format!("{host}: {e}"))?;
    write!(stream, "GET /{path} HTTP/1.0\r\nHost: {host}\r\n\r\n").map_err(|e| e.to_string())?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| e.to_string())?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or(&response);
    Ok(body.to_owned())
}

fn cmd_demo() -> Result<(), String> {
    let dir = std::env::temp_dir().join("lahar-demo");
    let _ = fs::remove_dir_all(&dir);
    cmd_simulate(&[
        "--out".to_owned(),
        dir.display().to_string(),
        "--ticks".to_owned(),
        "120".to_owned(),
        "--people".to_owned(),
        "2".to_owned(),
    ])?;
    println!("\n--- classify ---");
    cmd_classify(&[
        "--manifest".to_owned(),
        dir.display().to_string(),
        "At('person0', l1)[NotRoom(l1)] ; At('person0', l2)[CoffeeRoom(l2)]".to_owned(),
    ])?;
    println!("\n--- query (first 10 rows) ---");
    let (db, src) = manifest_db(&[
        "--manifest".to_owned(),
        dir.display().to_string(),
        "At(p, l1)[NotRoom(l1)] ; At(p, l2)[CoffeeRoom(l2)]".to_owned(),
    ])?;
    let series = Lahar::prob_series(&db, &src).map_err(|e| e.to_string())?;
    for (t, p) in series.iter().take(10).enumerate() {
        println!("t={t}: {p:.4}");
    }
    println!("...\ndemo data left in {}", dir.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::parse_history_ticks;

    #[test]
    fn history_ticks_flag_takes_a_positive_count_or_all() {
        assert_eq!(parse_history_ticks("all"), Ok(None));
        assert_eq!(parse_history_ticks("1"), Ok(Some(1)));
        assert_eq!(parse_history_ticks("64"), Ok(Some(64)));
        for bad in ["0", "-1", "", "none"] {
            assert!(parse_history_ticks(bad).is_err(), "{bad:?}");
        }
    }
}
