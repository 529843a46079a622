//! Per-session write-ahead tick log.
//!
//! The engine's contract after PR 7 is that an **acknowledged tick is
//! durable**: once `lahar serve` answers a `stage`/`stage_ticks`/`tick`
//! request, a crash (up to and including `kill -9`) must not lose it.
//! Checkpoints alone cannot give that — they are periodic, and
//! re-capturing a full [`crate::Checkpoint`] per tick would be O(history)
//! per ack. So every state-mutating command is first applied to the
//! in-memory session and then appended here as one framed record; on
//! restart, [`crate::LaharServer`] restores the newest good checkpoint
//! and replays the log tail on top of it, converging bit-identically to
//! the pre-crash series.
//!
//! # Segment format
//!
//! A session's log is a sequence of *segment* files named
//! `{stem}.g{generation:08}.wal` next to the checkpoint generations.
//! Segment `gN` holds exactly the records appended **after** checkpoint
//! generation `N` was persisted (`g0` precedes any checkpoint); the
//! writer rotates to a new segment whenever a checkpoint generation is
//! persisted, and segments older than the oldest retained checkpoint
//! generation are garbage-collected.
//!
//! A segment opens with one header line naming its format version,
//! then holds one line per record, length- and checksum-framed around
//! the payload so a torn tail (partial write at the crash point) is
//! detected and discarded rather than misparsed:
//!
//! ```text
//! lahar-wal 2\n
//! <len:08x> <crc32:08x> <seq> <t0> <frame>\n
//! ```
//!
//! `len` is the byte length of the payload (everything between the
//! second space and the newline); `crc32` is the IEEE CRC-32 of those
//! bytes. `seq` and `t0` are decimal. `frame` is the mutating request
//! exactly as it arrived on the wire — one NDJSON line of
//! `crate::protocol`, which never holds a raw newline — so logging
//! converts no number to text and replay decodes it with the same
//! [`crate::protocol::parse_request`] the live server uses. Readers stop
//! at the first frame whose length, checksum, or trailing newline does
//! not check out ([`SegmentRead::torn`]).
//!
//! Segments without a header are version 1, the format earlier builds
//! wrote. Their payloads are JSON records that address streams by database index
//! (`{"seq":…,"t0":…,"ticks":[[{"s":0,"p":[…]}]]}`, or `"staged"` /
//! `"register"` in place of `"ticks"`). They are still read, into
//! [`WalOp::Staged`], [`WalOp::Ticks`] and [`WalOp::Register`], but
//! never written; recovery rotates off them at once.
//!
//! # Fsync policy
//!
//! [`Durability`] (from `SessionConfig::durability` /
//! `lahar serve --durability`) picks the cost of the guarantee:
//!
//! * [`Durability::None`] — no log at all; an ack only promises the
//!   in-memory apply (pre-PR 7 behaviour).
//! * [`Durability::Batch`] — the record is written to the OS before the
//!   ack (`write(2)`, no fsync; fsync happens at checkpoint/rotation).
//!   Acked ticks survive **process death** (the page cache persists a
//!   `kill -9`) but not a whole-host power loss.
//! * [`Durability::Always`] — fsync per append; acked ticks survive
//!   power loss at the price of one `fdatasync` per acked batch.

use crate::error::EngineError;
use crate::json::{self, JsonValue};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What an acknowledgement is allowed to promise: the fsync policy of
/// the per-session write-ahead log. See the module docs for the exact
/// guarantee at each level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// No write-ahead log: acknowledged ticks since the last checkpoint
    /// are lost on process death.
    #[default]
    None,
    /// Log every acked batch with `write(2)` before the ack; fsync only
    /// at checkpoint boundaries. Survives `kill -9`, not power loss.
    Batch,
    /// Log and fsync every acked batch before the ack. Survives power
    /// loss.
    Always,
}

impl Durability {
    /// Parses the CLI / config spelling (`none`, `batch`, `always`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(Self::None),
            "batch" => Some(Self::Batch),
            "always" => Some(Self::Always),
            _ => None,
        }
    }

    /// The CLI / config spelling of this level.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::None => "none",
            Self::Batch => "batch",
            Self::Always => "always",
        }
    }
}

/// The segment format this build writes (see the module docs).
pub const SEGMENT_VERSION: u32 = 2;

/// What a version-2 segment starts with; the version follows.
const HEADER_PREFIX: &str = "lahar-wal ";

/// One staged marginal in a version-1 record: the stream's index in
/// database order plus the full probability vector in domain order, ⊥
/// last — the same layout as `Marginal::probs()`.
#[derive(Debug, Clone, PartialEq)]
pub struct WalMarginal {
    /// Stream index in database declaration order.
    pub stream: usize,
    /// Full probability vector, domain order, ⊥ last.
    pub probs: Vec<f64>,
}

/// The state mutation a record captures.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A mutating request frame, verbatim (version-2 segments).
    Frame(String),
    /// Version 1: `stage` with `tick: false`, the tick left open.
    Staged(Vec<WalMarginal>),
    /// Version 1: one or more closed ticks (`stage` with `tick: true`,
    /// bare `tick`, or a whole `stage_ticks` epoch): `ticks[i]` holds
    /// the marginals staged for tick `t0 + i`; an empty list is an
    /// all-⊥ tick.
    Ticks(Vec<Vec<WalMarginal>>),
    /// Version 1: a query registered mid-stream.
    Register {
        /// Registered query name.
        name: String,
        /// Query source text.
        query: String,
    },
}

/// One framed log record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Monotonic per-session sequence number (diagnostic ordering).
    pub seq: u64,
    /// The session clock when the mutation was applied; a record that
    /// closes `n` ticks covers session times `t0 .. t0 + n`.
    pub t0: u64,
    /// The logged mutation.
    pub op: WalOp,
}

impl WalRecord {
    /// Parses a version-2 payload: `<seq> <t0> <frame>`.
    fn from_v2(payload: &str) -> Option<Self> {
        let mut parts = payload.splitn(3, ' ');
        let seq = parts.next()?.parse().ok()?;
        let t0 = parts.next()?.parse().ok()?;
        let frame = parts.next()?;
        Some(Self {
            seq,
            t0,
            op: WalOp::Frame(frame.to_owned()),
        })
    }

    /// Parses a version-1 payload (read-only; nothing writes it now).
    fn from_v1(payload: &str) -> Result<Self, EngineError> {
        let doc = json::parse(payload).map_err(|e| corrupt(&format!("wal record: {e}")))?;
        let seq = get_u64(&doc, "seq")?;
        let t0 = get_u64(&doc, "t0")?;
        let op = if let Some(staged) = doc.get("staged") {
            WalOp::Staged(parse_marginals(staged)?)
        } else if let Some(ticks) = doc.get("ticks") {
            WalOp::Ticks(
                ticks
                    .as_array()
                    .ok_or_else(|| corrupt("wal ticks is not an array"))?
                    .iter()
                    .map(parse_marginals)
                    .collect::<Result<_, _>>()?,
            )
        } else if let Some(reg) = doc.get("register") {
            WalOp::Register {
                name: get_str(reg, "name")?,
                query: get_str(reg, "query")?,
            }
        } else {
            return Err(corrupt("wal record has no operation field"));
        };
        Ok(Self { seq, t0, op })
    }
}

fn parse_marginals(v: &JsonValue) -> Result<Vec<WalMarginal>, EngineError> {
    v.as_array()
        .ok_or_else(|| corrupt("wal marginal list is not an array"))?
        .iter()
        .map(|m| {
            let probs = m
                .get("p")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| corrupt("wal marginal has no probability array"))?
                .iter()
                .map(|p| {
                    p.as_f64()
                        .ok_or_else(|| corrupt("wal marginal holds a non-number"))
                })
                .collect::<Result<_, _>>()?;
            Ok(WalMarginal {
                stream: get_u64(m, "s")? as usize,
                probs,
            })
        })
        .collect()
}

fn corrupt(msg: &str) -> EngineError {
    EngineError::CheckpointCorrupt(msg.to_owned())
}

fn get_u64(v: &JsonValue, key: &str) -> Result<u64, EngineError> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| corrupt(&format!("wal field '{key}' is not an integer")))
}

fn get_str(v: &JsonValue, key: &str) -> Result<String, EngineError> {
    Ok(v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| corrupt(&format!("wal field '{key}' is not a string")))?
        .to_owned())
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3), slicing-by-8. Shared with the checkpoint
// envelope — the workspace deliberately carries no external crates.

/// `CRC32_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so eight table lookups advance the CRC by eight bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            k += 1;
        }
        i += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// IEEE CRC-32 of `bytes` (the same polynomial as zip/PNG).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Segment files.

/// The segment file holding records appended after checkpoint
/// generation `gen` (`g0` precedes any checkpoint).
pub fn segment_path(dir: &Path, stem: &str, gen: u64) -> PathBuf {
    dir.join(format!("{stem}.g{gen:08}.wal"))
}

/// All of a session's segments in `dir`, ascending by generation.
pub fn list_segments(dir: &Path, stem: &str) -> Vec<(u64, PathBuf)> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    let prefix = format!("{stem}.g");
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(rest) = name.strip_prefix(&prefix) {
            if let Some(digits) = rest.strip_suffix(".wal") {
                if let Ok(gen) = digits.parse::<u64>() {
                    found.push((gen, entry.path()));
                }
            }
        }
    }
    found.sort();
    found
}

/// Removes segments with generation `< keep_from`; returns how many
/// were deleted. Failures to delete are ignored (a leftover segment is
/// harmless — replay skips covered records).
pub fn gc_segments(dir: &Path, stem: &str, keep_from: u64) -> usize {
    let mut removed = 0;
    for (gen, path) in list_segments(dir, stem) {
        if gen < keep_from && std::fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// The decoded contents of one segment file.
#[derive(Debug, Default)]
pub struct SegmentRead {
    /// Every intact record, in append order.
    pub records: Vec<WalRecord>,
    /// True when the file ended in a torn frame (bad length, checksum,
    /// or missing trailing newline) — everything before it is intact.
    pub torn: bool,
}

/// Reads and verifies a segment, stopping at the first torn frame. A
/// segment whose header names a version this build does not know is an
/// `InvalidData` error rather than a guess.
pub fn read_segment(path: &Path) -> std::io::Result<SegmentRead> {
    let bytes = std::fs::read(path)?;
    let mut out = SegmentRead::default();
    let (version, mut at) = if bytes.starts_with(HEADER_PREFIX.as_bytes()) {
        let Some(nl) = bytes.iter().position(|&b| b == b'\n') else {
            out.torn = true; // died while writing the header
            return Ok(out);
        };
        let version = std::str::from_utf8(&bytes[HEADER_PREFIX.len()..nl])
            .ok()
            .and_then(|v| v.parse::<u32>().ok());
        if version != Some(SEGMENT_VERSION) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{path:?} is not a version-{SEGMENT_VERSION} wal segment"),
            ));
        }
        (SEGMENT_VERSION, nl + 1)
    } else if !bytes.is_empty() && HEADER_PREFIX.as_bytes().starts_with(&bytes) {
        out.torn = true; // died while writing the header
        return Ok(out);
    } else {
        (1, 0) // no header: a version-1 segment
    };
    while at < bytes.len() {
        // Header: 8 hex chars, ' ', 8 hex chars, ' '.
        let Some(header) = bytes.get(at..at + 18) else {
            out.torn = true;
            break;
        };
        let Ok(header) = std::str::from_utf8(header) else {
            out.torn = true;
            break;
        };
        let (len, crc) = match (
            u32::from_str_radix(&header[0..8], 16),
            u32::from_str_radix(&header[9..17], 16),
        ) {
            (Ok(len), Ok(crc)) if &header[8..9] == " " && &header[17..18] == " " => (len, crc),
            _ => {
                out.torn = true;
                break;
            }
        };
        let start = at + 18;
        let end = start + len as usize;
        if end >= bytes.len() || bytes[end] != b'\n' {
            out.torn = true;
            break;
        }
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            out.torn = true;
            break;
        }
        let record = std::str::from_utf8(payload).ok().and_then(|payload| {
            if version == SEGMENT_VERSION {
                WalRecord::from_v2(payload)
            } else {
                WalRecord::from_v1(payload).ok()
            }
        });
        let Some(record) = record else {
            out.torn = true;
            break;
        };
        out.records.push(record);
        at = end + 1;
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Writer.

/// Appender for one session's log. Owned by the serving shard that owns
/// the session; never constructed when the policy is
/// [`Durability::None`].
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    stem: String,
    gen: u64,
    next_seq: u64,
    durability: Durability,
    file: File,
    stats: Option<crate::stats::EngineStats>,
}

impl WalWriter {
    /// Opens (appending) the segment for checkpoint generation `gen`.
    pub fn open(
        dir: &Path,
        stem: &str,
        gen: u64,
        next_seq: u64,
        durability: Durability,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let file = open_segment(&segment_path(dir, stem, gen))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            stem: stem.to_owned(),
            gen,
            next_seq,
            durability,
            file,
            stats: None,
        })
    }

    /// Routes append/fsync telemetry into a session's [`crate::EngineStats`].
    pub fn with_stats(mut self, stats: crate::stats::EngineStats) -> Self {
        self.stats = Some(stats);
        self
    }

    /// The checkpoint generation the current segment follows.
    pub fn gen(&self) -> u64 {
        self.gen
    }

    /// Appends one mutating request frame, verbatim, as a framed
    /// record, honouring the fsync policy, and returns the record's
    /// sequence number. The ack for the mutation must not be sent until
    /// this returns.
    pub fn append(&mut self, t0: u64, frame: &str) -> std::io::Result<u64> {
        let _span = crate::trace::span("wal_append").with("t0", t0);
        let seq = self.next_seq;
        let mut line = Vec::with_capacity(frame.len() + 64);
        line.extend_from_slice(&[b' '; 18]);
        write!(line, "{seq} {t0} ")?;
        line.extend_from_slice(frame.as_bytes());
        let payload = &line[18..];
        let header = format!("{:08x} {:08x} ", payload.len(), crc32(payload));
        line[..18].copy_from_slice(header.as_bytes());
        line.push(b'\n');
        // Torn-write fault injection: write a partial frame, then die
        // exactly as a power cut mid-append would — the recovery path
        // must discard the torn tail and keep everything before it.
        if crate::failpoint::check("wal_append").is_err() {
            let _ = self.file.write_all(&line[..line.len() / 2]);
            let _ = self.file.sync_data();
            std::process::abort();
        }
        self.file.write_all(&line)?;
        if self.durability == Durability::Always {
            self.sync()?;
        }
        self.next_seq = seq + 1;
        if let Some(stats) = &self.stats {
            stats.record_wal_append(line.len() as u64);
        }
        Ok(seq)
    }

    /// Fsyncs the current segment, recording the latency.
    pub fn sync(&mut self) -> std::io::Result<()> {
        let _span = crate::trace::span("wal_fsync");
        let started = Instant::now();
        self.file.sync_data()?;
        if let Some(stats) = &self.stats {
            stats.record_fsync(started.elapsed());
        }
        Ok(())
    }

    /// Rotates to the segment following checkpoint generation
    /// `new_gen`: fsyncs and closes the current segment, then opens the
    /// new one. Called right after a checkpoint generation is
    /// persisted, so replay can treat segment `gN` as strictly
    /// post-checkpoint-`N`.
    pub fn rotate(&mut self, new_gen: u64) -> std::io::Result<()> {
        self.sync()?;
        self.file = open_segment(&segment_path(&self.dir, &self.stem, new_gen))?;
        self.gen = new_gen;
        Ok(())
    }
}

/// Opens a segment for appending, writing the format header first when
/// the file is new.
fn open_segment(path: &Path) -> std::io::Result<File> {
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    if file.metadata()?.len() == 0 {
        file.write_all(format!("{HEADER_PREFIX}{SEGMENT_VERSION}\n").as_bytes())?;
    }
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lahar_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Request frames as the reactor hands them over: one line each,
    /// with escapes and non-ASCII text passed through untouched.
    fn sample_frames() -> Vec<(u64, &'static str)> {
        vec![
            (
                0,
                r#"{"v":1,"cmd":"register","session":"s","name":"q \"quoted\"\n","query":"At(p,'a') ; At(p,'c')"}"#,
            ),
            (
                0,
                r#"{"v":1,"cmd":"stage","session":"s","marginals":[{"type":"At","key":["jöe"],"probs":[0.30000000000000004,5e-324,0.0]}],"tick":false}"#,
            ),
            (
                0,
                r#"{"cmd":"stage_ticks", "session":"s","ticks":[[{"type":"At","key":["joe"],"probs":[0.3333333333333333,0.5]}],[]]}"#,
            ),
        ]
    }

    /// Byte-at-a-time CRC-32: the reference the sliced one must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_reference() {
        let mut state = 0x5EED_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let data: Vec<u8> = (0..4096 + 16).map(|_| next() as u8).collect();
        for len in 0..=4096 {
            // Every length, each from an unaligned start as well.
            let offset = (next() % 16) as usize;
            for bytes in [&data[..len], &data[offset..offset + len]] {
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "len {len} at {offset}");
            }
        }
    }

    #[test]
    fn append_read_round_trip_is_verbatim() {
        let dir = temp_dir("roundtrip");
        let mut w = WalWriter::open(&dir, "s", 0, 7, Durability::Batch).unwrap();
        for (t0, frame) in sample_frames() {
            w.append(t0, frame).unwrap();
        }
        let path = segment_path(&dir, "s", 0);
        assert!(std::fs::read(&path).unwrap().starts_with(b"lahar-wal 2\n"));
        let read = read_segment(&path).unwrap();
        assert!(!read.torn);
        assert_eq!(read.records.len(), 3);
        for (i, (record, (t0, frame))) in read.records.iter().zip(sample_frames()).enumerate() {
            assert_eq!(record.seq, 7 + i as u64);
            assert_eq!(record.t0, t0);
            assert_eq!(record.op, WalOp::Frame(frame.to_owned()));
        }
        // Reopening an existing segment appends without a second header.
        drop(w);
        let mut w = WalWriter::open(&dir, "s", 0, 10, Durability::Always).unwrap();
        w.append(2, r#"{"cmd":"tick","session":"s"}"#).unwrap();
        let read = read_segment(&path).unwrap();
        assert!(!read.torn);
        assert_eq!(read.records.len(), 4);
        assert_eq!(read.records[3].seq, 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_detected_and_prefix_survives() {
        let dir = temp_dir("torn");
        let mut w = WalWriter::open(&dir, "s", 2, 0, Durability::Batch).unwrap();
        for (t0, frame) in sample_frames() {
            w.append(t0, frame).unwrap();
        }
        drop(w);
        let path = segment_path(&dir, "s", 2);
        let full = std::fs::read(&path).unwrap();
        // Truncate at every byte boundary inside the final frame: the
        // first two records must always survive, torn must be flagged.
        // The header line holds the first newline.
        let second_end = {
            let mut seen = 0;
            full.iter()
                .position(|&b| {
                    if b == b'\n' {
                        seen += 1;
                    }
                    seen == 3
                })
                .unwrap()
                + 1
        };
        // A cut exactly at the record boundary (`second_end`) is a
        // clean two-record file, not a torn one; every cut strictly
        // inside the final frame must be flagged.
        for cut in second_end + 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let read = read_segment(&path).unwrap();
            assert!(read.torn, "cut at {cut} not flagged");
            assert_eq!(read.records.len(), 2, "cut at {cut} lost intact prefix");
        }
        // A flipped payload bit fails the checksum.
        let mut flipped = full.clone();
        let last = flipped.len() - 10;
        flipped[last] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        let read = read_segment(&path).unwrap();
        assert!(read.torn);
        assert_eq!(read.records.len(), 2);
        // A header cut short is torn with nothing in it; a header from a
        // newer format is an error, not a guess.
        for cut in 1..HEADER_PREFIX.len() + 2 {
            std::fs::write(&path, &full[..cut]).unwrap();
            let read = read_segment(&path).unwrap();
            assert!(read.torn && read.records.is_empty(), "header cut at {cut}");
        }
        std::fs::write(&path, b"lahar-wal 3\n").unwrap();
        let err = read_segment(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_one_segments_still_read() {
        let dir = temp_dir("v1");
        let path = segment_path(&dir, "s", 0);
        // Written by a version-1 `WalWriter`: no header, JSON records
        // addressing streams by database index.
        std::fs::write(
            &path,
            concat!(
                "00000048 3640bd73 {\"seq\":0,\"t0\":0,\"register\":{\"name\":\"q\",\"query\":\"At(p,'a') ; At(p,'c')\"}}\n",
                "0000003b 2052bf64 {\"seq\":2,\"t0\":2,\"staged\":[{\"s\":0,\"p\":[0.2,0.0,0.55,0.25]}]}\n",
                "0000001d 81280afc {\"seq\":4,\"t0\":3,\"ticks\":[[]]}\n",
            ),
        )
        .unwrap();
        let read = read_segment(&path).unwrap();
        assert!(!read.torn);
        let ops: Vec<(u64, u64, WalOp)> = read
            .records
            .into_iter()
            .map(|r| (r.seq, r.t0, r.op))
            .collect();
        assert_eq!(
            ops,
            vec![
                (
                    0,
                    0,
                    WalOp::Register {
                        name: "q".to_owned(),
                        query: "At(p,'a') ; At(p,'c')".to_owned()
                    }
                ),
                (
                    2,
                    2,
                    WalOp::Staged(vec![WalMarginal {
                        stream: 0,
                        probs: vec![0.2, 0.0, 0.55, 0.25]
                    }])
                ),
                (4, 3, WalOp::Ticks(vec![vec![]])),
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_and_gc_manage_segments() {
        let dir = temp_dir("rotate");
        let tick = r#"{"cmd":"tick","session":"s"}"#;
        let mut w = WalWriter::open(&dir, "s", 0, 0, Durability::Batch).unwrap();
        w.append(0, tick).unwrap();
        w.rotate(1).unwrap();
        w.append(1, tick).unwrap();
        w.rotate(2).unwrap();
        assert_eq!(w.gen(), 2);
        let gens: Vec<u64> = list_segments(&dir, "s")
            .into_iter()
            .map(|(g, _)| g)
            .collect();
        assert_eq!(gens, vec![0, 1, 2]);
        assert_eq!(gc_segments(&dir, "s", 1), 1);
        let gens: Vec<u64> = list_segments(&dir, "s")
            .into_iter()
            .map(|(g, _)| g)
            .collect();
        assert_eq!(gens, vec![1, 2]);
        // Sequence numbers survive rotation; an empty rotated-to
        // segment is just its header.
        let read = read_segment(&segment_path(&dir, "s", 1)).unwrap();
        assert_eq!(read.records[0].seq, 1);
        let read = read_segment(&segment_path(&dir, "s", 2)).unwrap();
        assert!(!read.torn && read.records.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durability_parse_round_trips() {
        for level in [Durability::None, Durability::Batch, Durability::Always] {
            assert_eq!(Durability::parse(level.as_str()), Some(level));
        }
        assert_eq!(Durability::parse("fsync"), None);
    }
}
