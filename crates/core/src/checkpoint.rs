//! Versioned snapshots of a [`crate::RealTimeSession`].
//!
//! The real-time path is an `O(1)`-space forward computation per chain
//! (§3 of the paper), so the *complete* session state — per-chain
//! forward distributions and automaton cursors, registered queries,
//! staged marginals, the recorded marginal history (none once a served
//! session has retired it), the timestep, and stats — is small and
//! cheap to capture; a served session's checkpoint also carries each
//! query's answer series, cut to the checkpoint clock. A [`Checkpoint`]
//! is that capture; [`Checkpoint::to_json`] / [`Checkpoint::from_json`]
//! move it through a versioned, hand-rolled JSON document (the repo
//! convention — no serde), with every float in shortest round-trip
//! form so a restore is **bit-identical**: a session rebuilt with
//! [`crate::RealTimeSession::restore`] produces exactly the alerts the
//! original would have for the same future ticks.
//!
//! Checkpoints also anchor in-place recovery: the session keeps its
//! latest checkpoint (or, once a served session retires its history, a
//! newer in-memory base of chain states) plus a bounded replay log of
//! tick frames since, and [`crate::RealTimeSession::recover`] rebuilds
//! shards lost to a fault from those instead of from the full history.

use crate::chain::ChainState;
use crate::error::EngineError;
use crate::json::{self, JsonValue};
use crate::session::{SessionConfig, TickMode};
use crate::stats::{HistogramState, QueryState, StatsState};
use std::collections::BTreeMap;
use std::time::Duration;

/// The checkpoint format version this build writes and reads.
///
/// Version history: 1 — initial format (PR 2); 2 — config gained
/// `metrics_addr`/`trace`, stats gained `marginals_staged` and the
/// `per_query` registry; 3 — stats gained the kernel-path counters
/// (`kernel_*_steps`, `sym_cache_*`) and shared-automaton gauges;
/// 4 — config gained `serve_addr`; 5 — config gained
/// `max_epoch_ticks`, stats gained the epoch counters
/// (`epochs`/`epoch_ticks`); 6 — config gained `durability`, and
/// persisted checkpoints are wrapped in the CRC-carrying envelope
/// ([`Checkpoint::to_envelope`]); 7 — config dropped `serve_addr`, the
/// document records whether the session `retired` its marginal history
/// (a retired session's has no `history`), and a served session's
/// checkpoint carries each query's `series` (this build, which also
/// reads version 6).
pub const CHECKPOINT_VERSION: u32 = 7;

/// The oldest checkpoint format version this build still reads.
pub(crate) const OLDEST_READABLE_VERSION: u32 = 6;

/// Document-type marker embedded in every checkpoint.
const FORMAT: &str = "lahar-checkpoint";

/// Document-type marker on the first line of an enveloped checkpoint.
const ENVELOPE_FORMAT: &str = "lahar-checkpoint-envelope";

/// Envelope framing version (independent of [`CHECKPOINT_VERSION`]).
const ENVELOPE_VERSION: u32 = 1;

/// One registered query as captured in a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QueryMeta {
    /// Registered name.
    pub(crate) name: String,
    /// Source text (required: structural restore re-compiles it).
    pub(crate) source: String,
    /// True for extended-regular recombination (`1 − Π(1 − pᵢ)`).
    pub(crate) extended: bool,
    /// Per-key chain count at capture time (validated on restore).
    pub(crate) n_chains: usize,
}

/// A complete, versioned snapshot of a [`crate::RealTimeSession`].
///
/// Produced by [`crate::RealTimeSession::checkpoint`], consumed by
/// [`crate::RealTimeSession::restore`]. Serializable with
/// [`Checkpoint::to_json`] and [`Checkpoint::from_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    pub(crate) version: u32,
    /// Ticks closed when the snapshot was taken.
    pub(crate) t: u32,
    pub(crate) config: SessionConfig,
    /// Staged (not yet ticked) marginal probabilities per stream.
    pub(crate) staged: Vec<Option<Vec<f64>>>,
    pub(crate) queries: Vec<QueryMeta>,
    /// Per-chain forward state in global chain-sequence order.
    pub(crate) chains: Vec<ChainState>,
    /// `history[stream][tick][outcome]` — the full recorded marginal
    /// history, so a cold restore rebuilds an identical database.
    /// `None` when the session had retired it.
    pub(crate) history: Option<Vec<Vec<Vec<f64>>>>,
    /// `series[query][tick]` — a served session's answers for ticks
    /// `0..t`, which a restore extends through the write-ahead tail.
    /// `None` for a standalone session's checkpoint.
    pub(crate) series: Option<Vec<Vec<f64>>>,
    pub(crate) stats: StatsState,
}

impl Checkpoint {
    /// The format version of this checkpoint.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The session clock (ticks closed) at capture time.
    pub fn t(&self) -> u32 {
        self.t
    }

    /// Number of registered queries captured.
    pub fn n_queries(&self) -> usize {
        self.queries.len()
    }

    /// Number of per-key chains captured.
    pub fn n_chains(&self) -> usize {
        self.chains.len()
    }

    /// The session configuration captured with the snapshot (the
    /// default configuration [`crate::RealTimeSession::restore`] resumes
    /// under).
    pub fn config(&self) -> SessionConfig {
        self.config
    }

    /// Serializes the checkpoint as a versioned JSON document. All
    /// floats are written in shortest round-trip form, so
    /// [`Checkpoint::from_json`] reproduces this checkpoint bit for bit.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"format\":");
        json::push_string(&mut out, FORMAT);
        out.push_str(&format!(",\"version\":{},\"t\":{},", self.version, self.t));
        out.push_str("\"config\":");
        push_config(&mut out, &self.config);
        out.push_str(",\"staged\":[");
        for (i, staged) in self.staged.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match staged {
                None => out.push_str("null"),
                Some(probs) => push_f64_array(&mut out, probs),
            }
        }
        out.push_str("],\"queries\":[");
        for (i, q) in self.queries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::push_string(&mut out, &q.name);
            out.push_str(",\"source\":");
            json::push_string(&mut out, &q.source);
            out.push_str(&format!(
                ",\"extended\":{},\"n_chains\":{}}}",
                q.extended, q.n_chains
            ));
        }
        out.push_str("],\"chains\":[");
        for (i, c) in self.chains.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"t\":{},\"dist\":", c.t));
            push_f64_array(&mut out, &c.dist);
            out.push_str(",\"dfa_sets\":[");
            for (j, set) in c.dfa_sets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_u64_array(&mut out, set.iter().map(|&s| u64::from(s)));
            }
            out.push_str("]}");
        }
        out.push_str(&format!("],\"retired\":{}", self.history.is_none()));
        if let Some(history) = &self.history {
            out.push_str(",\"history\":[");
            for (i, stream) in history.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                for (j, tick) in stream.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    push_f64_array(&mut out, tick);
                }
                out.push(']');
            }
            out.push(']');
        }
        out.push_str(",\"series\":");
        match &self.series {
            None => out.push_str("null"),
            Some(series) => {
                out.push('[');
                for (i, answers) in series.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_f64_array(&mut out, answers);
                }
                out.push(']');
            }
        }
        out.push_str(",\"stats\":");
        push_stats(&mut out, &self.stats);
        out.push('}');
        out
    }

    /// Parses a checkpoint produced by [`Checkpoint::to_json`] of this
    /// build or of a version-6 build (whose config still names a
    /// `serve_addr`, ignored here, and which carries no series). Any
    /// structural problem — wrong document type, unsupported version,
    /// missing or mistyped fields — is reported as
    /// [`EngineError::CheckpointCorrupt`].
    pub fn from_json(input: &str) -> Result<Self, EngineError> {
        let doc = json::parse(input).map_err(|e| EngineError::CheckpointCorrupt(e.to_string()))?;
        if doc.get("format").and_then(JsonValue::as_str) != Some(FORMAT) {
            return Err(corrupt("not a lahar-checkpoint document"));
        }
        let version = get_u64(&doc, "version")? as u32;
        if !(OLDEST_READABLE_VERSION..=CHECKPOINT_VERSION).contains(&version) {
            return Err(EngineError::CheckpointCorrupt(format!(
                "unsupported checkpoint version {version} (this build reads versions \
                 {OLDEST_READABLE_VERSION}-{CHECKPOINT_VERSION})"
            )));
        }
        let t = get_u64(&doc, "t")? as u32;
        let config = parse_config(get(&doc, "config")?)?;
        let staged = get_array(&doc, "staged")?
            .iter()
            .map(|v| match v {
                JsonValue::Null => Ok(None),
                other => f64_array(other, "staged marginal").map(Some),
            })
            .collect::<Result<_, _>>()?;
        let queries = get_array(&doc, "queries")?
            .iter()
            .map(|v| {
                Ok(QueryMeta {
                    name: get_str(v, "name")?,
                    source: get_str(v, "source")?,
                    extended: get_bool(v, "extended")?,
                    n_chains: get_u64(v, "n_chains")? as usize,
                })
            })
            .collect::<Result<_, EngineError>>()?;
        let chains = get_array(&doc, "chains")?
            .iter()
            .map(|v| {
                let dfa_sets = get_array(v, "dfa_sets")?
                    .iter()
                    .map(|set| {
                        Ok(u64_array(set, "dfa set")?
                            .into_iter()
                            .map(|s| s as u32)
                            .collect())
                    })
                    .collect::<Result<_, EngineError>>()?;
                Ok(ChainState {
                    t: get_u64(v, "t")? as u32,
                    dist: f64_array(get(v, "dist")?, "chain dist")?,
                    dfa_sets,
                })
            })
            .collect::<Result<_, EngineError>>()?;
        // Version 6 predates retirement and series: it always carries
        // the history and never a series.
        let retired = version > 6 && get_bool(&doc, "retired")?;
        let history = if retired {
            None
        } else {
            Some(
                get_array(&doc, "history")?
                    .iter()
                    .map(|stream| {
                        stream
                            .as_array()
                            .ok_or_else(|| corrupt("stream history is not an array"))?
                            .iter()
                            .map(|tick| f64_array(tick, "history marginal"))
                            .collect::<Result<_, _>>()
                    })
                    .collect::<Result<_, EngineError>>()?,
            )
        };
        let series = match doc.get("series") {
            None if version == 6 => None,
            None => return Err(corrupt("missing field 'series'")),
            Some(JsonValue::Null) => None,
            Some(series) => Some(
                series
                    .as_array()
                    .ok_or_else(|| corrupt("field 'series' is not an array"))?
                    .iter()
                    .map(|answers| f64_array(answers, "query series"))
                    .collect::<Result<_, _>>()?,
            ),
        };
        let stats = parse_stats(get(&doc, "stats")?)?;
        Ok(Self {
            version,
            t,
            config,
            staged,
            queries,
            chains,
            history,
            series,
            stats,
        })
    }

    /// Serializes the checkpoint inside the CRC-carrying envelope that
    /// persisted (on-disk) checkpoints use. Line 1 is a small header
    /// recording the IEEE CRC-32 and exact byte length of the payload;
    /// line 2 is the [`Checkpoint::to_json`] document. A torn or
    /// bit-flipped file therefore fails [`Checkpoint::from_envelope`]
    /// loudly instead of restoring garbage.
    pub fn to_envelope(&self) -> String {
        let payload = self.to_json();
        let mut out = String::with_capacity(payload.len() + 96);
        out.push_str("{\"format\":");
        json::push_string(&mut out, ENVELOPE_FORMAT);
        out.push_str(&format!(
            ",\"v\":{ENVELOPE_VERSION},\"crc32\":{},\"len\":{}}}\n",
            crate::wal::crc32(payload.as_bytes()),
            payload.len()
        ));
        out.push_str(&payload);
        out
    }

    /// Parses an enveloped checkpoint, verifying length and checksum
    /// before touching the payload. Every failure mode — missing or
    /// malformed header, truncated payload, checksum mismatch —
    /// reports [`EngineError::CheckpointCorrupt`] with the reason.
    pub fn from_envelope(text: &str) -> Result<Self, EngineError> {
        let (header, payload) = text
            .split_once('\n')
            .ok_or_else(|| corrupt("checkpoint envelope has no header line"))?;
        let header =
            json::parse(header).map_err(|e| corrupt(&format!("checkpoint envelope: {e}")))?;
        if header.get("format").and_then(JsonValue::as_str) != Some(ENVELOPE_FORMAT) {
            return Err(corrupt("not a lahar-checkpoint-envelope document"));
        }
        let v = get_u64(&header, "v")? as u32;
        if v != ENVELOPE_VERSION {
            return Err(EngineError::CheckpointCorrupt(format!(
                "unsupported envelope version {v} (this build reads version {ENVELOPE_VERSION})"
            )));
        }
        let len = get_u64(&header, "len")? as usize;
        let crc = get_u64(&header, "crc32")? as u32;
        if payload.len() != len {
            return Err(EngineError::CheckpointCorrupt(format!(
                "checkpoint payload is {} bytes, envelope promises {len} (torn write?)",
                payload.len()
            )));
        }
        let actual = crate::wal::crc32(payload.as_bytes());
        if actual != crc {
            return Err(EngineError::CheckpointCorrupt(format!(
                "checkpoint checksum mismatch: envelope {crc:08x}, payload {actual:08x}"
            )));
        }
        Self::from_json(payload)
    }
}

// ---------------------------------------------------------------------
// Generation-numbered checkpoint files.
//
// Persisted checkpoints are written as `{stem}.g{gen:08}.ckpt.json`,
// atomically (tmp + fsync + rename) and enveloped, so a crash at any
// byte of the write leaves either the complete new generation or no
// trace of it. Restore scans generations newest-first and falls back
// past torn/corrupt files, quarantining them as `.corrupt` so the
// evidence survives but never blocks a later scan.

/// The on-disk path of checkpoint generation `gen` for `stem`.
pub fn generation_path(dir: &std::path::Path, stem: &str, gen: u64) -> std::path::PathBuf {
    dir.join(format!("{stem}.g{gen:08}.ckpt.json"))
}

/// All persisted generations for `stem` in `dir`, ascending.
pub fn list_generations(dir: &std::path::Path, stem: &str) -> Vec<(u64, std::path::PathBuf)> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    let prefix = format!("{stem}.g");
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(rest) = name.strip_prefix(&prefix) {
            if let Some(digits) = rest.strip_suffix(".ckpt.json") {
                if let Ok(gen) = digits.parse::<u64>() {
                    found.push((gen, entry.path()));
                }
            }
        }
    }
    found.sort();
    found
}

/// Atomically persists `ckpt` as generation `gen`: the envelope is
/// written to a `.tmp` sibling, fsynced, and renamed into place (with a
/// best-effort directory fsync), so no crash point can leave a torn
/// file under the final name. Returns the final path.
pub fn write_generation(
    dir: &std::path::Path,
    stem: &str,
    gen: u64,
    ckpt: &Checkpoint,
) -> std::io::Result<std::path::PathBuf> {
    use std::io::Write;
    let _span = crate::trace::span("checkpoint_persist").with("gen", gen);
    std::fs::create_dir_all(dir)?;
    let path = generation_path(dir, stem, gen);
    let bytes = ckpt.to_envelope();
    // Torn-write fault injection: scribble a partial envelope straight
    // onto the final name and die, simulating the disk corruption the
    // atomic protocol is designed to survive — restore must quarantine
    // this generation and fall back.
    if crate::failpoint::check("checkpoint_write").is_err() {
        let _ = std::fs::write(&path, &bytes.as_bytes()[..bytes.len() / 2]);
        std::process::abort();
    }
    let tmp = dir.join(format!("{stem}.g{gen:08}.ckpt.tmp"));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &path)?;
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(path)
}

/// A checkpoint recovered by [`load_newest`].
#[derive(Debug)]
pub struct LoadedGeneration {
    /// The generation number that verified.
    pub gen: u64,
    /// The restored checkpoint.
    pub checkpoint: Checkpoint,
    /// Corrupt newer generations quarantined (renamed `*.corrupt`)
    /// while falling back to this one.
    pub quarantined: Vec<std::path::PathBuf>,
}

/// Scans `dir` for `stem`'s checkpoint generations newest-first and
/// returns the first that verifies. Torn or corrupt generations are
/// quarantined as `{name}.corrupt` and skipped; `Ok(None)` means no
/// generation exists (or every one was corrupt — the caller starts
/// fresh and the WAL replays from `t = 0`).
pub fn load_newest(
    dir: &std::path::Path,
    stem: &str,
) -> Result<Option<LoadedGeneration>, EngineError> {
    let _span = crate::trace::span("checkpoint_restore");
    let mut quarantined = Vec::new();
    for (gen, path) in list_generations(dir, stem).into_iter().rev() {
        let parsed = std::fs::read_to_string(&path)
            .map_err(|e| EngineError::CheckpointCorrupt(format!("unreadable checkpoint: {e}")))
            .and_then(|text| Checkpoint::from_envelope(&text));
        match parsed {
            Ok(checkpoint) => {
                return Ok(Some(LoadedGeneration {
                    gen,
                    checkpoint,
                    quarantined,
                }))
            }
            Err(EngineError::CheckpointCorrupt(why)) => {
                let mut target = path.clone().into_os_string();
                target.push(".corrupt");
                let target = std::path::PathBuf::from(target);
                if std::fs::rename(&path, &target).is_ok() {
                    quarantined.push(target);
                } else {
                    quarantined.push(path.clone());
                }
                eprintln!(
                    "lahar: quarantined corrupt checkpoint generation {gen} ({}): {why}",
                    path.display()
                );
            }
            Err(other) => return Err(other),
        }
    }
    Ok(None)
}

/// Removes generations `< keep_from` (and stray `.tmp` leftovers);
/// returns how many checkpoint files were deleted.
pub fn gc_generations(dir: &std::path::Path, stem: &str, keep_from: u64) -> usize {
    let mut removed = 0;
    for (gen, path) in list_generations(dir, stem) {
        if gen < keep_from && std::fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}

fn push_f64_array(out: &mut String, values: &[f64]) {
    out.push('[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_f64(out, v);
    }
    out.push(']');
}

fn push_u64_array(out: &mut String, values: impl IntoIterator<Item = u64>) {
    out.push('[');
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

fn push_config(out: &mut String, c: &SessionConfig) {
    let mode = match c.tick_mode {
        TickMode::Auto => "auto",
        TickMode::Sequential => "sequential",
        TickMode::Parallel => "parallel",
    };
    out.push_str("{\"tick_mode\":");
    json::push_string(out, mode);
    out.push_str(&format!(
        ",\"n_workers\":{},\"parallel_threshold\":{},\"max_epoch_ticks\":{},\"checkpoint_interval\":{},\"tick_deadline_ns\":",
        c.n_workers, c.parallel_threshold, c.max_epoch_ticks, c.checkpoint_interval
    ));
    match c.tick_deadline {
        None => out.push_str("null"),
        Some(d) => out.push_str(&u64::try_from(d.as_nanos()).unwrap_or(u64::MAX).to_string()),
    }
    out.push_str(",\"metrics_addr\":");
    match c.metrics_addr {
        None => out.push_str("null"),
        Some(addr) => json::push_string(out, &addr.to_string()),
    }
    out.push_str(",\"durability\":");
    json::push_string(out, c.durability.as_str());
    out.push_str(&format!(",\"trace\":{}}}", c.trace));
}

fn parse_config(v: &JsonValue) -> Result<SessionConfig, EngineError> {
    let tick_mode = match get_str(v, "tick_mode")?.as_str() {
        "auto" => TickMode::Auto,
        "sequential" => TickMode::Sequential,
        "parallel" => TickMode::Parallel,
        other => {
            return Err(EngineError::CheckpointCorrupt(format!(
                "unknown tick mode '{other}'"
            )))
        }
    };
    let tick_deadline = match get(v, "tick_deadline_ns")? {
        JsonValue::Null => None,
        other => {
            Some(Duration::from_nanos(other.as_u64().ok_or_else(|| {
                corrupt("tick_deadline_ns is not an integer")
            })?))
        }
    };
    let metrics_addr = match get(v, "metrics_addr")? {
        JsonValue::Null => None,
        other => Some(
            other
                .as_str()
                .ok_or_else(|| corrupt("metrics_addr is not a string"))?
                .parse()
                .map_err(|_| corrupt("metrics_addr is not a socket address"))?,
        ),
    };
    let durability = get_str(v, "durability")?;
    let durability = crate::wal::Durability::parse(&durability).ok_or_else(|| {
        EngineError::CheckpointCorrupt(format!("unknown durability level '{durability}'"))
    })?;
    Ok(SessionConfig {
        tick_mode,
        n_workers: get_u64(v, "n_workers")? as usize,
        parallel_threshold: get_u64(v, "parallel_threshold")? as usize,
        max_epoch_ticks: get_u64(v, "max_epoch_ticks")? as usize,
        checkpoint_interval: get_u64(v, "checkpoint_interval")? as usize,
        tick_deadline,
        metrics_addr,
        durability,
        trace: get_bool(v, "trace")?,
    })
}

fn push_histogram_state(out: &mut String, h: &HistogramState) {
    out.push_str("{\"counts\":");
    push_u64_array(out, h.counts.iter().copied());
    out.push_str(&format!(
        ",\"n\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
        h.n, h.sum_ns, h.min_ns, h.max_ns
    ));
}

fn push_stats(out: &mut String, s: &StatsState) {
    out.push_str(&format!(
        "{{\"ticks\":{},\"epochs\":{},\"epoch_ticks\":{},\"parallel_ticks\":{},\
         \"degraded_ticks\":{},\"recoveries\":{},\
         \"checkpoints_taken\":{},\"chains_stepped\":{},\"bindings_grounded\":{},\
         \"alerts_emitted\":{},\"marginals_staged\":{},\"sampler_compilations\":{},\
         \"sampler_worlds\":{},\"fallbacks\":{},\"kernel_fast_steps\":{},\
         \"kernel_frozen_steps\":{},\"kernel_slow_steps\":{},\
         \"kernel_soa_steps\":{},\"kernel_simd_steps\":{},\"sym_cache_hits\":{},\
         \"sym_cache_misses\":{},\"automata_shared\":{},\"automata_attached\":{},\
         \"fallback_reasons\":{{",
        s.ticks,
        s.epochs,
        s.epoch_ticks,
        s.parallel_ticks,
        s.degraded_ticks,
        s.recoveries,
        s.checkpoints_taken,
        s.chains_stepped,
        s.bindings_grounded,
        s.alerts_emitted,
        s.marginals_staged,
        s.sampler_compilations,
        s.sampler_worlds,
        s.fallbacks,
        s.kernel_fast_steps,
        s.kernel_frozen_steps,
        s.kernel_slow_steps,
        s.kernel_soa_steps,
        s.kernel_simd_steps,
        s.sym_cache_hits,
        s.sym_cache_misses,
        s.automata_shared,
        s.automata_attached,
    ));
    for (i, (reason, count)) in s.fallback_reasons.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_string(out, reason);
        out.push_str(&format!(":{count}"));
    }
    out.push_str("},\"tick_latency\":");
    push_histogram_state(out, &s.tick_latency);
    out.push_str(",\"per_query\":[");
    for (i, q) in s.per_query.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"id\":{},\"name\":", q.id));
        json::push_string(out, &q.name);
        out.push_str(&format!(
            ",\"chains\":{},\"ticks\":{},\"last_probability\":",
            q.chains, q.ticks
        ));
        json::push_f64(out, q.last_probability);
        out.push_str(",\"step_latency\":");
        push_histogram_state(out, &q.step_latency);
        out.push('}');
    }
    out.push_str("]}");
}

fn parse_stats(v: &JsonValue) -> Result<StatsState, EngineError> {
    let reasons = get(v, "fallback_reasons")?
        .as_object()
        .ok_or_else(|| corrupt("fallback_reasons is not an object"))?;
    let mut fallback_reasons = BTreeMap::new();
    for (k, count) in reasons {
        fallback_reasons.insert(
            k.clone(),
            count
                .as_u64()
                .ok_or_else(|| corrupt("fallback count is not an integer"))?,
        );
    }
    let tick_latency = parse_histogram_state(get(v, "tick_latency")?)?;
    let per_query = get_array(v, "per_query")?
        .iter()
        .map(|q| {
            Ok(QueryState {
                id: get_u64(q, "id")?,
                name: get_str(q, "name")?,
                chains: get_u64(q, "chains")?,
                ticks: get_u64(q, "ticks")?,
                last_probability: get(q, "last_probability")?
                    .as_f64()
                    .ok_or_else(|| corrupt("last_probability is not a number"))?,
                step_latency: parse_histogram_state(get(q, "step_latency")?)?,
            })
        })
        .collect::<Result<_, EngineError>>()?;
    Ok(StatsState {
        ticks: get_u64(v, "ticks")?,
        epochs: get_u64(v, "epochs")?,
        epoch_ticks: get_u64(v, "epoch_ticks")?,
        parallel_ticks: get_u64(v, "parallel_ticks")?,
        degraded_ticks: get_u64(v, "degraded_ticks")?,
        recoveries: get_u64(v, "recoveries")?,
        checkpoints_taken: get_u64(v, "checkpoints_taken")?,
        chains_stepped: get_u64(v, "chains_stepped")?,
        bindings_grounded: get_u64(v, "bindings_grounded")?,
        alerts_emitted: get_u64(v, "alerts_emitted")?,
        marginals_staged: get_u64(v, "marginals_staged")?,
        sampler_compilations: get_u64(v, "sampler_compilations")?,
        sampler_worlds: get_u64(v, "sampler_worlds")?,
        fallbacks: get_u64(v, "fallbacks")?,
        kernel_fast_steps: get_u64(v, "kernel_fast_steps")?,
        kernel_frozen_steps: get_u64(v, "kernel_frozen_steps")?,
        kernel_slow_steps: get_u64(v, "kernel_slow_steps")?,
        // Added after the stats block was already in the wild: default
        // to 0 so checkpoints written by older builds still restore.
        kernel_soa_steps: get_u64_or_zero(v, "kernel_soa_steps")?,
        kernel_simd_steps: get_u64_or_zero(v, "kernel_simd_steps")?,
        sym_cache_hits: get_u64(v, "sym_cache_hits")?,
        sym_cache_misses: get_u64(v, "sym_cache_misses")?,
        automata_shared: get_u64(v, "automata_shared")?,
        automata_attached: get_u64(v, "automata_attached")?,
        fallback_reasons,
        tick_latency,
        per_query,
    })
}

fn parse_histogram_state(h: &JsonValue) -> Result<HistogramState, EngineError> {
    Ok(HistogramState {
        counts: u64_array(get(h, "counts")?, "histogram counts")?,
        n: get_u64(h, "n")?,
        sum_ns: get_u64(h, "sum_ns")?,
        min_ns: get_u64(h, "min_ns")?,
        max_ns: get_u64(h, "max_ns")?,
    })
}

fn corrupt(msg: &str) -> EngineError {
    EngineError::CheckpointCorrupt(msg.to_owned())
}

fn get<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, EngineError> {
    v.get(key)
        .ok_or_else(|| EngineError::CheckpointCorrupt(format!("missing field '{key}'")))
}

fn get_u64(v: &JsonValue, key: &str) -> Result<u64, EngineError> {
    get(v, key)?
        .as_u64()
        .ok_or_else(|| EngineError::CheckpointCorrupt(format!("field '{key}' is not an integer")))
}

/// Like [`get_u64`] but treats a *missing* key as 0 — for counter fields
/// added after the checkpoint format shipped, so documents written by
/// older builds still restore. A present-but-non-integer value is still
/// corrupt.
fn get_u64_or_zero(v: &JsonValue, key: &str) -> Result<u64, EngineError> {
    match v.get(key) {
        None => Ok(0),
        Some(x) => x.as_u64().ok_or_else(|| {
            EngineError::CheckpointCorrupt(format!("field '{key}' is not an integer"))
        }),
    }
}

fn get_str(v: &JsonValue, key: &str) -> Result<String, EngineError> {
    Ok(get(v, key)?
        .as_str()
        .ok_or_else(|| EngineError::CheckpointCorrupt(format!("field '{key}' is not a string")))?
        .to_owned())
}

fn get_bool(v: &JsonValue, key: &str) -> Result<bool, EngineError> {
    match get(v, key)? {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(EngineError::CheckpointCorrupt(format!(
            "field '{key}' is not a boolean"
        ))),
    }
}

fn get_array<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], EngineError> {
    get(v, key)?
        .as_array()
        .ok_or_else(|| EngineError::CheckpointCorrupt(format!("field '{key}' is not an array")))
}

fn f64_array(v: &JsonValue, what: &str) -> Result<Vec<f64>, EngineError> {
    v.as_array()
        .ok_or_else(|| EngineError::CheckpointCorrupt(format!("{what} is not an array")))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| EngineError::CheckpointCorrupt(format!("{what} holds a non-number")))
        })
        .collect()
}

fn u64_array(v: &JsonValue, what: &str) -> Result<Vec<u64>, EngineError> {
    v.as_array()
        .ok_or_else(|| EngineError::CheckpointCorrupt(format!("{what} is not an array")))?
        .iter()
        .map(|x| {
            x.as_u64().ok_or_else(|| {
                EngineError::CheckpointCorrupt(format!("{what} holds a non-integer"))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            t: 3,
            config: SessionConfig {
                tick_mode: TickMode::Parallel,
                n_workers: 4,
                parallel_threshold: 128,
                max_epoch_ticks: 16,
                checkpoint_interval: 8,
                tick_deadline: Some(Duration::from_millis(250)),
                metrics_addr: Some("127.0.0.1:9633".parse().unwrap()),
                durability: crate::wal::Durability::Batch,
                trace: true,
            },
            staged: vec![None, Some(vec![0.1, 0.2, 0.7])],
            queries: vec![QueryMeta {
                name: "q \"quoted\"".to_owned(),
                source: "At(p,'a') ; At(p,'c')".to_owned(),
                extended: true,
                n_chains: 2,
            }],
            chains: vec![ChainState {
                t: 3,
                dist: vec![0.1 + 0.2, 1.0 / 3.0, 5e-324],
                dfa_sets: vec![vec![0], vec![1, 2]],
            }],
            history: Some(vec![
                vec![
                    vec![0.5, 0.5, 0.0],
                    vec![0.0, 0.0, 1.0],
                    vec![0.25, 0.25, 0.5],
                ],
                vec![vec![1.0, 0.0, 0.0]; 3],
            ]),
            series: Some(vec![vec![0.0, 0.1 + 0.2, 1.0 / 3.0]]),
            stats: StatsState {
                ticks: 3,
                epochs: 2,
                epoch_ticks: 3,
                parallel_ticks: 2,
                degraded_ticks: 1,
                recoveries: 1,
                checkpoints_taken: 1,
                chains_stepped: 9,
                bindings_grounded: 2,
                alerts_emitted: 3,
                marginals_staged: 6,
                sampler_compilations: 0,
                sampler_worlds: 0,
                fallbacks: 1,
                kernel_fast_steps: 120,
                kernel_frozen_steps: 30,
                kernel_slow_steps: 9,
                kernel_soa_steps: 4096,
                kernel_simd_steps: 512,
                sym_cache_hits: 40,
                sym_cache_misses: 11,
                automata_shared: 1,
                automata_attached: 2,
                fallback_reasons: BTreeMap::from([("why\n".to_owned(), 1)]),
                tick_latency: HistogramState {
                    counts: vec![0, 2, 1],
                    n: 3,
                    sum_ns: 12_345,
                    min_ns: 1_000,
                    max_ns: 9_000,
                },
                per_query: vec![QueryState {
                    id: 0,
                    name: "q \"quoted\"".to_owned(),
                    chains: 2,
                    ticks: 3,
                    last_probability: 0.1 + 0.2,
                    step_latency: HistogramState {
                        counts: vec![0, 0, 3],
                        n: 3,
                        sum_ns: 4_242,
                        min_ns: 1_111,
                        max_ns: 2_222,
                    },
                }],
            },
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let ckpt = sample();
        let doc = ckpt.to_json();
        let parsed = Checkpoint::from_json(&doc).unwrap();
        assert_eq!(parsed, ckpt);
        // Exactness down to the bit pattern of every float.
        for (a, b) in ckpt.chains[0].dist.iter().zip(&parsed.chains[0].dist) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Stable serialization: same document on re-encode.
        assert_eq!(parsed.to_json(), doc);
    }

    /// A retired session's checkpoint records that it is retired and
    /// carries no history; a standalone session's carries no series.
    #[test]
    fn retired_and_series_free_checkpoints_round_trip() {
        let mut ckpt = sample();
        ckpt.history = None;
        let doc = ckpt.to_json();
        assert!(doc.contains("\"retired\":true") && !doc.contains("\"history\""));
        assert_eq!(Checkpoint::from_json(&doc).unwrap(), ckpt);
        ckpt.series = None;
        let doc = ckpt.to_json();
        assert!(doc.contains("\"series\":null"));
        assert_eq!(Checkpoint::from_json(&doc).unwrap(), ckpt);
        // Version 7 requires the series field (null or an array).
        let without = doc.replace(",\"series\":null", "");
        assert!(Checkpoint::from_json(&without).is_err());
    }

    /// A version-6 document — config naming a `serve_addr`, no
    /// `retired` flag, no series — still parses; the address is
    /// ignored.
    #[test]
    fn version_six_documents_still_parse() {
        let mut ckpt = sample();
        ckpt.version = 6;
        ckpt.series = None;
        let doc = ckpt
            .to_json()
            .replace(
                ",\"durability\":",
                ",\"serve_addr\":\"127.0.0.1:9634\",\"durability\":",
            )
            .replace("\"retired\":false,", "")
            .replace(",\"series\":null", "");
        assert!(doc.contains("serve_addr") && !doc.contains("retired"));
        assert_eq!(Checkpoint::from_json(&doc).unwrap(), ckpt);
    }

    /// Checkpoints written before the batched-kernel counters existed
    /// lack `kernel_soa_steps`/`kernel_simd_steps`; they must still
    /// restore, defaulting the missing counters to 0.
    #[test]
    fn stats_missing_soa_counters_default_to_zero() {
        let doc = sample()
            .to_json()
            .replace("\"kernel_soa_steps\":4096,", "")
            .replace("\"kernel_simd_steps\":512,", "");
        let parsed = Checkpoint::from_json(&doc).unwrap();
        assert_eq!(parsed.stats.kernel_soa_steps, 0);
        assert_eq!(parsed.stats.kernel_simd_steps, 0);
        // A present-but-non-integer value is still rejected.
        let bad = sample()
            .to_json()
            .replace("\"kernel_soa_steps\":4096", "\"kernel_soa_steps\":\"no\"");
        assert!(Checkpoint::from_json(&bad).is_err());
    }

    #[test]
    fn empty_histogram_sentinels_round_trip() {
        let mut ckpt = sample();
        ckpt.stats.tick_latency = HistogramState {
            counts: vec![0; 64],
            n: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        };
        let parsed = Checkpoint::from_json(&ckpt.to_json()).unwrap();
        assert_eq!(parsed.stats.tick_latency.min_ns, u64::MAX);
    }

    #[test]
    fn rejects_corrupt_documents() {
        assert!(Checkpoint::from_json("not json").is_err());
        assert!(Checkpoint::from_json("{}").is_err());
        assert!(Checkpoint::from_json("{\"format\":\"other\"}").is_err());
        let mut wrong_version = sample();
        wrong_version.version = CHECKPOINT_VERSION + 1;
        let doc = wrong_version.to_json();
        let err = Checkpoint::from_json(&doc).unwrap_err();
        assert!(matches!(err, EngineError::CheckpointCorrupt(_)));
        // Truncated document.
        let doc = sample().to_json();
        assert!(Checkpoint::from_json(&doc[..doc.len() - 2]).is_err());
    }

    #[test]
    fn envelope_round_trip_is_exact() {
        let ckpt = sample();
        let enveloped = ckpt.to_envelope();
        assert_eq!(Checkpoint::from_envelope(&enveloped).unwrap(), ckpt);
    }

    #[test]
    fn envelope_rejects_torn_and_flipped_documents() {
        let enveloped = sample().to_envelope();
        // Truncation at any point fails the length or header check.
        for cut in [0, 10, enveloped.len() / 2, enveloped.len() - 1] {
            let err = Checkpoint::from_envelope(&enveloped[..cut]).unwrap_err();
            assert!(
                matches!(err, EngineError::CheckpointCorrupt(_)),
                "cut {cut}"
            );
        }
        // A single flipped payload character fails the checksum.
        let flipped = enveloped.replacen("\"t\":3", "\"t\":7", 1);
        assert_ne!(flipped, enveloped);
        let err = Checkpoint::from_envelope(&flipped).unwrap_err();
        assert!(matches!(err, EngineError::CheckpointCorrupt(_)));
        assert!(err.to_string().contains("checksum"));
        // Empty input.
        assert!(Checkpoint::from_envelope("").is_err());
    }

    #[test]
    fn generation_scan_falls_back_past_corrupt_files() {
        let dir = std::env::temp_dir().join(format!("lahar_ckpt_gen_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = sample();
        write_generation(&dir, "s", 1, &ckpt).unwrap();
        write_generation(&dir, "s", 2, &ckpt).unwrap();
        // Tear the newest generation in place.
        let newest = generation_path(&dir, "s", 2);
        let full = std::fs::read_to_string(&newest).unwrap();
        std::fs::write(&newest, &full[..full.len() / 2]).unwrap();
        let loaded = load_newest(&dir, "s").unwrap().unwrap();
        assert_eq!(loaded.gen, 1);
        assert_eq!(loaded.checkpoint, ckpt);
        assert_eq!(loaded.quarantined.len(), 1);
        assert!(loaded.quarantined[0]
            .to_string_lossy()
            .ends_with(".corrupt"));
        assert!(loaded.quarantined[0].exists());
        // The torn file no longer shadows the scan.
        assert_eq!(list_generations(&dir, "s").len(), 1);
        // GC keeps the survivor.
        assert_eq!(gc_generations(&dir, "s", 1), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
