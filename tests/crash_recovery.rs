//! Process-level crash-recovery harness: a real `lahar serve` process is
//! spawned, fed over TCP, and killed with SIGKILL at randomized points —
//! including (under `--features failpoints`) mid-WAL-append and
//! mid-checkpoint-write torn-write faults. A fresh process over the same
//! checkpoint directory must then recover **every acknowledged tick**,
//! with the recovered `μ(q@t)` series bit-identical to the offline
//! engine's prefix, and keep serving: the continued stream must land on
//! the exact full-series bits.
//!
//! The durability contract under test (`batch` and `always` levels):
//! a tick is acknowledged only after its WAL record hit the kernel via
//! `write(2)`, so no SIGKILL can un-ack it. `LAHAR_CRASH_ITERS` bounds
//! the randomized kill count (default 20).

use lahar::core::protocol::WireMarginal;
use lahar::model::{encode_stream, Database, StreamBuilder, Value};
use lahar::{EngineError, Lahar, LaharClient};
use std::io::BufRead as _;
use std::io::BufReader;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::Duration;

const SRC: &str = "At(p,'a') ; At(p,'c')";
const TICKS: u32 = 24;
/// Auto-checkpoint interval handed to every spawned server: small enough
/// that kills land before, between, and after generation persists.
const INTERVAL: &str = "5";
/// `--history-ticks` of the bounded-history runs: with [`TICKS`] = 24,
/// kills land both before and after the session retires its history.
const HISTORY: &str = "4";

// ---------------------------------------------------------------------
// Deployment fixture (same shape as tests/server_session.rs, longer).

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

fn recorded_db() -> Database {
    let (mut db, builders) = schema_parts();
    for (s, b) in builders.iter().enumerate() {
        let ms = (0..TICKS).map(|t| marginal_at(b, t, s)).collect::<Vec<_>>();
        db.add_stream(b.clone().independent(ms).unwrap()).unwrap();
    }
    db
}

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

/// The offline engine's full series — the bit-exact reference every
/// recovered prefix is held to.
fn reference_bits() -> Vec<u64> {
    Lahar::prob_series(&recorded_db(), SRC)
        .unwrap()
        .iter()
        .map(|p| p.to_bits())
        .collect()
}

fn bits(series: &[f64]) -> Vec<u64> {
    series.iter().map(|p| p.to_bits()).collect()
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

// ---------------------------------------------------------------------
// Spawning and killing real server processes.

/// The manifest directory every spawned server loads its schema from —
/// written once per test process.
fn manifest_dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("lahar-crash-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest.txt"), "stream At person | loc\n").unwrap();
        let db = recorded_db();
        for (i, stream) in db.streams().iter().enumerate() {
            let bytes = encode_stream(db.interner(), stream);
            std::fs::write(dir.join(format!("{i:03}_s.lstream")), &bytes).unwrap();
        }
        dir
    })
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lahar-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Serve {
    child: Child,
    addr: SocketAddr,
}

/// Spawns a real `lahar serve` with the crash-harness configuration and
/// waits for its "serving on" line. `failpoints` arms torn-write faults
/// in the child via `LAHAR_FAILPOINTS` (builds without the feature
/// ignore the variable); `history` is its `--history-ticks` (`None`
/// keeps the server default, which these scripts never reach).
fn spawn_serve(
    ckpt: &Path,
    durability: &str,
    failpoints: Option<&str>,
    history: Option<&str>,
) -> Serve {
    spawn_serve_every(ckpt, durability, failpoints, INTERVAL, history)
}

/// [`spawn_serve`] with an auto-checkpoint every `interval` ticks.
fn spawn_serve_every(
    ckpt: &Path,
    durability: &str,
    failpoints: Option<&str>,
    interval: &str,
    history: Option<&str>,
) -> Serve {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lahar"));
    cmd.args([
        "serve",
        "--manifest",
        &manifest_dir().display().to_string(),
        "--addr",
        "127.0.0.1:0",
        "--checkpoint-dir",
        &ckpt.display().to_string(),
        "--durability",
        durability,
        "--checkpoint-interval",
        interval,
        "--shards",
        "2",
    ])
    .stdin(Stdio::null())
    .stdout(Stdio::null())
    .stderr(Stdio::piped());
    if let Some(ticks) = history {
        cmd.args(["--history-ticks", ticks]);
    }
    cmd.env_remove("LAHAR_FAILPOINTS");
    if let Some(spec) = failpoints {
        cmd.env("LAHAR_FAILPOINTS", spec);
    }
    let mut child = cmd.spawn().expect("spawn lahar serve");
    let mut reader = BufReader::new(child.stderr.take().unwrap());
    let mut addr = None;
    let mut line = String::new();
    while reader.read_line(&mut line).unwrap_or(0) > 0 {
        if let Some(rest) = line.trim().strip_prefix("serving on ") {
            addr = Some(rest.parse().expect("serve address"));
            break;
        }
        line.clear();
    }
    // Keep draining stderr so the child can never block on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).unwrap_or(0) > 0 {
            sink.clear();
        }
    });
    let Some(addr) = addr else {
        let _ = child.kill();
        panic!("serve exited before reporting its address");
    };
    Serve { child, addr }
}

/// Sends SIGKILL to `pid` — the one thing a durability layer cannot
/// negotiate with. (`Child::kill` needs `&mut`, and the harness kills
/// from a second thread while the main one is mid-request.)
fn sigkill(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    unsafe {
        kill(pid as i32, 9);
    }
}

/// Restarts over `ckpt` (with the crashed server's `history`), asserts
/// the recovered state covers every acknowledged tick with
/// offline-bit-identical answers, then drives the session to the full
/// script and checks the complete series. Returns the recovered tick
/// count.
fn verify_recovery_and_finish(
    ckpt: &Path,
    durability: &str,
    history: Option<&str>,
    acked: u32,
    frames: &[Vec<WireMarginal>],
    reference: &[u64],
) -> u32 {
    let mut serve = spawn_serve(ckpt, durability, None, history);
    let mut client = LaharClient::connect(serve.addr, "crash").unwrap();
    let (t, _restored) = client.open().unwrap();
    assert!(
        t >= acked,
        "recovery lost acknowledged ticks: recovered t={t}, acked {acked}"
    );
    assert!(t <= TICKS, "recovered t={t} beyond the script");
    match client.series("q") {
        Ok(series) => {
            assert_eq!(series.len(), t as usize, "series length != recovered clock");
            assert_eq!(
                bits(&series),
                &reference[..t as usize],
                "recovered series prefix diverged from the offline engine"
            );
        }
        // The kill landed before the registration was acknowledged (so
        // it is allowed to be lost) — re-register and carry on.
        Err(EngineError::Remote {
            code: lahar::WireCode::UnknownQuery,
            ..
        }) => {
            assert_eq!(acked, 0, "q lost after {acked} acked ticks");
            client.register("q", SRC).unwrap();
        }
        Err(e) => panic!("series after recovery: {e}"),
    }
    for frame in &frames[t as usize..] {
        client.stage_tick(frame).unwrap();
    }
    assert_eq!(
        bits(&client.series("q").unwrap()),
        reference,
        "continued stream diverged after recovery"
    );
    client.shutdown_server().unwrap();
    let _ = serve.child.wait();
    t
}

// ---------------------------------------------------------------------
// The harness proper.

/// Tentpole acceptance: ≥ 20 randomized SIGKILLs (seeded, so a failure
/// reproduces), alternating `batch` and `always` durability, against a
/// server keeping the whole history — and the same 20 kills again
/// against one bounded to a 4-tick history, so kills land before and
/// after retirement. Every acknowledged tick must survive,
/// bit-identically, and the recovered server must finish the stream on
/// the exact offline bits.
#[test]
fn kill_nine_at_randomized_points_loses_no_acknowledged_tick() {
    let iters: u64 = std::env::var("LAHAR_CRASH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20);
    let frames = wire_frames(&recorded_db());
    let reference = reference_bits();

    for (iter, history) in (0..iters).flat_map(|i| [(i, None), (i, Some(HISTORY))]) {
        let seed = splitmix64(0x5EED_CAFE ^ iter);
        let durability = if iter % 2 == 0 { "batch" } else { "always" };
        // Kill after a random number of acks plus a random in-flight
        // delay, so kills land between commands, mid-request, mid-WAL
        // append, and mid-auto-checkpoint.
        let kill_after = (seed % u64::from(TICKS)) as usize;
        let delay = Duration::from_micros(splitmix64(seed) % 3_000);

        let ckpt = temp_dir(&format!("kill-{iter}-{}", history.unwrap_or("all")));
        let mut serve = spawn_serve(&ckpt, durability, None, history);
        let mut client = LaharClient::connect(serve.addr, "crash").unwrap();
        client.open().unwrap();
        client.register("q", SRC).unwrap();

        let mut acked: u32 = 0;
        for frame in &frames[..kill_after] {
            client.stage_tick(frame).unwrap();
            acked += 1;
        }
        let pid = serve.child.id();
        let killer = std::thread::spawn(move || {
            std::thread::sleep(delay);
            sigkill(pid);
        });
        for frame in &frames[kill_after..] {
            match client.stage_tick(frame) {
                Ok(_) => acked += 1,
                Err(_) => break,
            }
        }
        killer.join().unwrap();
        let _ = serve.child.wait();

        let t = verify_recovery_and_finish(&ckpt, durability, history, acked, &frames, &reference);
        eprintln!(
            "crash iter {iter}: {durability}, history {history:?}, killed after {acked} acks \
             (+{delay:?}), recovered t={t}"
        );
        let _ = std::fs::remove_dir_all(&ckpt);
    }
}

/// Clean-shutdown generations survive having their newest file torn:
/// restore quarantines it, falls back to the previous generation, and
/// the WAL replay still reaches the exact pre-shutdown clock — with the
/// whole history kept, and with it retired after 4 ticks.
#[test]
fn torn_newest_generation_falls_back_and_replays_to_the_full_clock() {
    for history in [None, Some(HISTORY)] {
        torn_newest_generation_run(history);
    }
}

fn torn_newest_generation_run(history: Option<&str>) {
    let frames = wire_frames(&recorded_db());
    let reference = reference_bits();
    let ckpt = temp_dir(&format!("torn-newest-{}", history.unwrap_or("all")));

    let mut serve = spawn_serve(&ckpt, "batch", None, history);
    let mut client = LaharClient::connect(serve.addr, "crash").unwrap();
    client.open().unwrap();
    client.register("q", SRC).unwrap();
    const RAN: u32 = 12;
    for frame in &frames[..RAN as usize] {
        client.stage_tick(frame).unwrap();
    }
    client.shutdown_server().unwrap();
    let _ = serve.child.wait();

    // Tear the newest generation in place (a torn write the atomic
    // tmp+rename protocol would never produce, i.e. real disk damage).
    let mut gens: Vec<PathBuf> = std::fs::read_dir(&ckpt)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.to_string_lossy().ends_with(".ckpt.json"))
        .collect();
    gens.sort();
    assert!(
        gens.len() >= 2,
        "expected a fallback generation on disk, found {gens:?}"
    );
    let newest = gens.last().unwrap();
    let full = std::fs::read(newest).unwrap();
    std::fs::write(newest, &full[..full.len() / 2]).unwrap();

    let t = verify_recovery_and_finish(&ckpt, "batch", history, RAN, &frames, &reference);
    assert_eq!(
        t, RAN,
        "fallback + WAL replay must reach the exact pre-shutdown clock"
    );
    let _ = std::fs::remove_dir_all(&ckpt);
}

/// The write-ahead log replays every kind of logged frame onto the
/// checkpoint it extends: `stage_ticks` batches of 3 that straddle the
/// every-4-ticks auto-checkpoints (each snapshot lands mid-epoch, so
/// replay must take only the uncovered suffix of that record), a query
/// registered mid-stream, and bare `tick`s. After a SIGKILL with no
/// clean shutdown, both series are bit-identical to the offline engine.
#[test]
fn kill_nine_replays_straddling_epochs_registration_and_bare_ticks() {
    const LATE_SRC: &str = "At(p,'h') ; At(p,'a')";
    enum Step {
        Epoch,
        Tick,
        Register,
    }
    use Step::{Epoch, Register, Tick};
    let script = [
        Epoch, Epoch, Register, Tick, Epoch, Tick, Epoch, Epoch, Tick, Epoch,
    ];
    let frames = wire_frames(&recorded_db());
    let ckpt = temp_dir("straddle");
    let mut serve = spawn_serve_every(&ckpt, "batch", None, "4", None);
    let mut client = LaharClient::connect(serve.addr, "crash").unwrap();
    client.open().unwrap();
    client.register("q", SRC).unwrap();
    let mut bare = Vec::new();
    let mut t = 0usize;
    for step in &script {
        match step {
            Epoch => {
                client.stage_epoch(&frames[t..t + 3]).unwrap();
                t += 3;
            }
            Tick => {
                client.tick().unwrap();
                bare.push(t);
                t += 1;
            }
            Register => {
                client.register("late", LATE_SRC).unwrap();
            }
        }
    }
    sigkill(serve.child.id());
    let _ = serve.child.wait();

    // Offline reference: the recorded marginals, all-⊥ at bare ticks.
    let (mut db, builders) = schema_parts();
    for (s, b) in builders.iter().enumerate() {
        let ms = (0..t as u32)
            .map(|tick| {
                if bare.contains(&(tick as usize)) {
                    b.point(None)
                } else {
                    marginal_at(b, tick, s)
                }
            })
            .collect::<Vec<_>>();
        db.add_stream(b.clone().independent(ms).unwrap()).unwrap();
    }

    let mut serve = spawn_serve_every(&ckpt, "batch", None, "4", None);
    let mut client = LaharClient::connect(serve.addr, "crash").unwrap();
    assert_eq!(client.open().unwrap(), (t as u32, true));
    for (name, src) in [("q", SRC), ("late", LATE_SRC)] {
        assert_eq!(
            bits(&client.series(name).unwrap()),
            bits(&Lahar::prob_series(&db, src).unwrap()),
            "recovered series of {name} diverged from the offline engine"
        );
    }
    client.shutdown_server().unwrap();
    let _ = serve.child.wait();
    let _ = std::fs::remove_dir_all(&ckpt);
}

/// Torn-write fault on the WAL append path: the server writes half a
/// frame, fsyncs the tear, and dies (`abort`). Recovery must stop the
/// replay at the torn frame — losing only unacknowledged work — and
/// rotate the log so the tear never shadows later appends.
#[cfg(feature = "failpoints")]
#[test]
fn torn_wal_append_recovers_the_acked_prefix() {
    let frames = wire_frames(&recorded_db());
    let reference = reference_bits();
    // Append #0 is the query registration; later ones are tick records,
    // chosen to land before, at, and after auto-checkpoint boundaries.
    for at in [0u64, 1, 5, 9] {
        let ckpt = temp_dir(&format!("torn-wal-{at}"));
        let mut serve = spawn_serve(
            &ckpt,
            "batch",
            Some(&format!("wal_append=error:once@{at}")),
            None,
        );
        let mut client = LaharClient::connect(serve.addr, "crash").unwrap();
        client.open().unwrap();
        let mut acked: u32 = 0;
        if client.register("q", SRC).is_ok() {
            for frame in &frames {
                match client.stage_tick(frame) {
                    Ok(_) => acked += 1,
                    Err(_) => break,
                }
            }
        }
        let _ = serve.child.wait();
        let t = verify_recovery_and_finish(&ckpt, "batch", None, acked, &frames, &reference);
        eprintln!("torn WAL append @{at}: {acked} acks, recovered t={t}");
        let _ = std::fs::remove_dir_all(&ckpt);
    }
}

/// Torn-write fault on the checkpoint path: a half-written generation
/// lands under the *final* name and the process dies mid-persist.
/// Recovery must quarantine it, fall back (to the previous generation,
/// or to fresh + full replay when none exists), and lose nothing acked
/// — with the whole history kept, and with it retired after 4 ticks.
#[cfg(feature = "failpoints")]
#[test]
fn torn_checkpoint_write_falls_back_and_replays_the_wal() {
    let frames = wire_frames(&recorded_db());
    let reference = reference_bits();
    // @0 tears the very first generation (no fallback: fresh + replay);
    // @1 tears the second (fallback to generation 1 + WAL tail).
    for (history, at) in [None, Some(HISTORY)]
        .into_iter()
        .flat_map(|h| [(h, 0u64), (h, 1)])
    {
        let ckpt = temp_dir(&format!("torn-ckpt-{at}-{}", history.unwrap_or("all")));
        let mut serve = spawn_serve(
            &ckpt,
            "batch",
            Some(&format!("checkpoint_write=error:once@{at}")),
            history,
        );
        let mut client = LaharClient::connect(serve.addr, "crash").unwrap();
        client.open().unwrap();
        client.register("q", SRC).unwrap();
        let mut acked: u32 = 0;
        for frame in &frames {
            match client.stage_tick(frame) {
                Ok(_) => acked += 1,
                Err(_) => break,
            }
        }
        assert!(
            acked < TICKS,
            "the armed checkpoint tear never fired (acked all {acked} ticks)"
        );
        let _ = serve.child.wait();
        let t = verify_recovery_and_finish(&ckpt, "batch", history, acked, &frames, &reference);
        eprintln!("torn checkpoint @{at} (history {history:?}): {acked} acks, recovered t={t}");
        let _ = std::fs::remove_dir_all(&ckpt);
    }
}
