//! Property tests for the `lahar serve` wire protocol: every command and
//! response must survive encode → arbitrary transport re-chunking →
//! decode losslessly, with probabilities bit-identical, and the decoder
//! must reject malformed frames instead of guessing.

use lahar_core::json;
use lahar_core::protocol::{
    encode_command, encode_response, parse_command, parse_request, parse_response, Command,
    Response, WireAlert, WireCode, WireMarginal, PROTOCOL_VERSION,
};
use lahar_core::EngineError;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read};

// -- generators -------------------------------------------------------

/// Strings that stress JSON escaping: quotes, backslashes, newlines,
/// unicode, and the empty string. (The vendored proptest has no regex
/// string strategy, so strings come from an indexed pool plus a
/// generated alphanumeric suffix.)
fn wire_string() -> impl Strategy<Value = String> {
    const POOL: [&str; 6] = [
        "plain-name_0",
        "with \"quotes\" and \\backslashes\\",
        "line\nbreak\ttab",
        "ünïcode — λahar",
        "",
        "{\"json\":[looking]}",
    ];
    (0..POOL.len(), 0..1_000_000usize).prop_map(|(i, salt)| {
        if salt % 3 == 0 {
            format!("{}-{salt}", POOL[i])
        } else {
            POOL[i].to_owned()
        }
    })
}

/// Probabilities including awkward but finite values.
fn prob() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0..1.0f64,
        Just(0.1 + 0.2),
        Just(f64::MIN_POSITIVE),
        Just(1.0 - f64::EPSILON),
        Just(0.0),
        Just(1.0),
    ]
}

fn wire_marginal() -> impl Strategy<Value = WireMarginal> {
    (
        wire_string(),
        prop::collection::vec(wire_string(), 0..3),
        prop::collection::vec(prob(), 1..5),
    )
        .prop_map(|(stream_type, key, probs)| WireMarginal {
            stream_type,
            key,
            probs,
        })
}

fn wire_alert() -> impl Strategy<Value = WireAlert> {
    (0..8usize, wire_string(), 0..1000u32, prob()).prop_map(|(query, name, t, probability)| {
        WireAlert {
            query,
            name,
            t,
            probability,
        }
    })
}

fn command() -> impl Strategy<Value = Command> {
    prop_oneof![
        Just(Command::Ping),
        Just(Command::Shutdown),
        wire_string().prop_map(|session| Command::Open { session }),
        (wire_string(), wire_string(), wire_string()).prop_map(|(session, name, query)| {
            Command::Register {
                session,
                name,
                query,
            }
        }),
        (
            wire_string(),
            prop::collection::vec(wire_marginal(), 0..4),
            any::<bool>()
        )
            .prop_map(|(session, marginals, tick)| Command::Stage {
                session,
                marginals,
                tick
            }),
        wire_string().prop_map(|session| Command::Tick { session }),
        (wire_string(), wire_string())
            .prop_map(|(session, query)| Command::Series { session, query }),
        wire_string().prop_map(|session| Command::Checkpoint { session }),
    ]
}

fn response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Pong {
            version: PROTOCOL_VERSION
        }),
        Just(Response::ShuttingDown),
        (0..100u32, any::<bool>()).prop_map(|(t, restored)| Response::Opened { t, restored }),
        (0..8usize).prop_map(|query| Response::Registered { query }),
        (0..64usize).prop_map(|staged| Response::Staged { staged }),
        (0..100u32, prop::collection::vec(wire_alert(), 0..4))
            .prop_map(|(t, alerts)| Response::Ticked { t, alerts }),
        (wire_string(), prop::collection::vec(prob(), 0..6))
            .prop_map(|(query, series)| Response::Series { query, series }),
        (0..100u32).prop_map(|t| Response::Checkpointed { t }),
        // Arbitrary code strings exercise both the known-variant and
        // `Other` paths of the typed `WireCode` round-trip.
        (wire_string(), wire_string()).prop_map(|(code, message)| Response::Error {
            code: WireCode::from_wire(&code),
            message,
        }),
    ]
}

// -- hand-written frames ----------------------------------------------

/// Deterministic choices for one hand-written frame (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// JSON whitespace of random length (no newline: it ends a frame).
    fn ws(&mut self) -> &'static str {
        ["", "", " ", "\t", "  ", " \t\r "][self.below(6)]
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    json::push_string(&mut out, s);
    out
}

/// Any JSON value, nested arrays and objects included.
fn junk(rng: &mut Rng, depth: usize) -> String {
    match rng.below(if depth == 0 { 4 } else { 6 }) {
        0 => json_str(["", "x", "\"q\" \\ ⊥"][rng.below(3)]),
        1 => ["0", "-1.5e-3", "12345678901234567890", "2E+2"][rng.below(4)].to_owned(),
        2 => ["true", "false"][rng.below(2)].to_owned(),
        3 => "null".to_owned(),
        4 => {
            let items: Vec<String> = (0..rng.below(4)).map(|_| junk(rng, depth - 1)).collect();
            format!("[{}{}]", items.join(&format!(",{}", rng.ws())), rng.ws())
        }
        _ => {
            let members = (0..rng.below(4))
                .map(|i| (format!("k{i}"), junk(rng, depth - 1)))
                .collect();
            object(rng, members)
        }
    }
}

/// Writes `members` as an object in a random order, with unknown
/// members mixed in and random whitespace between tokens.
fn object(rng: &mut Rng, mut members: Vec<(String, String)>) -> String {
    for i in 0..rng.below(3) {
        let value = junk(rng, 3);
        members.push((format!("unknown_{i}"), value));
    }
    rng.shuffle(&mut members);
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| {
            format!(
                "{}{}{}:{}{}{}",
                rng.ws(),
                json_str(k),
                rng.ws(),
                rng.ws(),
                v,
                rng.ws()
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Writes a probability in one of several spellings; the decoded value
/// must be what `json::parse` makes of the same text.
fn number(rng: &mut Rng, p: f64) -> (String, f64) {
    let text = match rng.below(4) {
        0 => format!("{p:?}"),
        1 => format!("{p:e}"),
        2 => format!("{p:.20}"),
        _ => format!("{p:E}"),
    };
    let parsed = json::parse(&text).unwrap().as_f64().unwrap();
    (text, parsed)
}

/// Writes a marginal; returns the text and the marginal the text means.
fn marginal(rng: &mut Rng, m: &WireMarginal) -> (String, WireMarginal) {
    let (texts, probs): (Vec<String>, Vec<f64>) = m.probs.iter().map(|&p| number(rng, p)).unzip();
    let keys: Vec<String> = m.key.iter().map(|k| json_str(k)).collect();
    let sep = format!("{},", rng.ws());
    let members = vec![
        ("type".to_owned(), json_str(&m.stream_type)),
        ("key".to_owned(), format!("[{}]", keys.join(","))),
        ("probs".to_owned(), format!("[{}]", texts.join(&sep))),
    ];
    let text = object(rng, members);
    let meant = WireMarginal { probs, ..m.clone() };
    (text, meant)
}

fn marginal_list(rng: &mut Rng, ms: &[WireMarginal]) -> (String, Vec<WireMarginal>) {
    let (texts, meant): (Vec<String>, Vec<WireMarginal>) =
        ms.iter().map(|m| marginal(rng, m)).unzip();
    (format!("[{}{}]", rng.ws(), texts.join(",")), meant)
}

/// Writes `cmd` by hand: shuffled members, random whitespace, unknown
/// members, and one key written twice (the first time with a junk
/// value). Returns the frame and the command it means.
fn hand_written(cmd: &Command, id: Option<u64>, seed: u64) -> (String, Command) {
    let rng = &mut Rng(seed);
    let s = |v: &str| json_str(v);
    let mut members = vec![("v".to_owned(), "1".to_owned())];
    if let Some(id) = id {
        members.push(("id".to_owned(), id.to_string()));
    }
    let mut meant = cmd.clone();
    let mut add = |k: &str, v: String| members.push((k.to_owned(), v));
    match (cmd, &mut meant) {
        (Command::Ping, _) => add("cmd", s("ping")),
        (Command::Shutdown, _) => add("cmd", s("shutdown")),
        (Command::Open { session }, _) => {
            add("cmd", s("open"));
            add("session", s(session));
        }
        (
            Command::Register {
                session,
                name,
                query,
            },
            _,
        ) => {
            add("cmd", s("register"));
            add("session", s(session));
            add("name", s(name));
            add("query", s(query));
        }
        (
            Command::Stage {
                session,
                marginals,
                tick,
            },
            Command::Stage {
                marginals: meant, ..
            },
        ) => {
            add("cmd", s("stage"));
            add("session", s(session));
            let (text, m) = marginal_list(rng, marginals);
            *meant = m;
            add("marginals", text);
            add("tick", tick.to_string());
        }
        (Command::StageTicks { session, ticks }, Command::StageTicks { ticks: meant, .. }) => {
            add("cmd", s("stage_ticks"));
            add("session", s(session));
            let mut texts = Vec::new();
            for (tick, meant) in ticks.iter().zip(meant.iter_mut()) {
                let (text, m) = marginal_list(rng, tick);
                *meant = m;
                texts.push(text);
            }
            add("ticks", format!("[{}]", texts.join(",")));
        }
        (Command::Tick { session }, _) => {
            add("cmd", s("tick"));
            add("session", s(session));
        }
        (Command::Series { session, query }, _) => {
            add("cmd", s("series"));
            add("session", s(session));
            add("query", s(query));
        }
        (Command::Checkpoint { session }, _) => {
            add("cmd", s("checkpoint"));
            add("session", s(session));
        }
        _ => unreachable!("command and its copy have the same shape"),
    }
    // Duplicate one member: a junk value first, the real one last.
    let dup = rng.below(members.len());
    let first = (members[dup].0.clone(), junk(rng, 2));
    let text = object(rng, members);
    let key = json_str(&first.0);
    let at = text.find(&key).expect("every member is written");
    let frame = format!("{}{}:{},{}", &text[..at], key, first.1, &text[at..]);
    (format!("{}{frame}{}", rng.ws(), rng.ws()), meant)
}

// -- transport re-chunking --------------------------------------------

/// A reader that hands out the underlying bytes in caller-chosen chunk
/// sizes, mimicking arbitrary TCP segmentation.
struct Chunked {
    data: Vec<u8>,
    pos: usize,
    chunks: Vec<usize>,
    turn: usize,
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let chunk = self.chunks[self.turn % self.chunks.len()].max(1);
        self.turn += 1;
        let n = chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity for commands, and every frame is
    /// a single line (no raw newlines survive escaping).
    #[test]
    fn commands_round_trip(cmd in command()) {
        let line = encode_command(&cmd);
        prop_assert!(!line.contains('\n'), "frame not single-line: {line}");
        prop_assert_eq!(parse_command(&line).unwrap(), cmd);
    }

    /// A frame written by hand — members in any order, arbitrary
    /// whitespace, unknown members (nested arrays and objects
    /// included), one key given twice — decodes to the command it
    /// means, and every probability to the bits `json::parse` reads
    /// from the same number text.
    #[test]
    fn hand_written_frames_decode_like_the_tree(
        cmd in command(),
        id in prop::option::of(0..1u64 << 53),
        seed in 0..u64::MAX,
    ) {
        let (frame, meant) = hand_written(&cmd, id, seed);
        let (got, got_id) = parse_request(&frame)
            .unwrap_or_else(|e| panic!("{e} in {frame}"));
        prop_assert_eq!(got_id, id);
        let probs = |c: &Command| -> Vec<u64> {
            match c {
                Command::Stage { marginals, .. } => {
                    marginals.iter().flat_map(|m| m.probs.iter().map(|p| p.to_bits())).collect()
                }
                Command::StageTicks { ticks, .. } => ticks
                    .iter()
                    .flatten()
                    .flat_map(|m| m.probs.iter().map(|p| p.to_bits()))
                    .collect(),
                _ => Vec::new(),
            }
        };
        prop_assert_eq!(probs(&got), probs(&meant), "{}", frame);
        prop_assert_eq!(got, meant, "{}", frame);
    }

    /// encode → decode is the identity for responses, including f64
    /// bit patterns.
    #[test]
    fn responses_round_trip(r in response()) {
        let line = encode_response(&r);
        prop_assert!(!line.contains('\n'));
        prop_assert_eq!(parse_response(&line).unwrap(), r);
    }

    /// A pipelined stream of frames split across arbitrary read-chunk
    /// boundaries reassembles into exactly the sent commands — the
    /// framing layer (BufRead::read_line over newline-delimited frames)
    /// is agnostic to TCP segmentation.
    #[test]
    fn frames_survive_arbitrary_chunking(
        cmds in prop::collection::vec(command(), 1..8),
        chunks in prop::collection::vec(1..23usize, 1..6),
    ) {
        let mut wire = Vec::new();
        for cmd in &cmds {
            wire.extend_from_slice(encode_command(cmd).as_bytes());
            wire.push(b'\n');
        }
        let mut reader = BufReader::with_capacity(
            7, // tiny buffer so refills interleave with chunk boundaries
            Chunked { data: wire, pos: 0, chunks, turn: 0 },
        );
        let mut got = Vec::new();
        let mut line = String::new();
        while {
            line.clear();
            reader.read_line(&mut line).unwrap() > 0
        } {
            got.push(parse_command(line.trim_end()).unwrap());
        }
        prop_assert_eq!(got, cmds);
    }

    /// Truncating a frame at any byte boundary never parses as valid —
    /// it is a protocol error, not a silent mis-read. (Truncations that
    /// happen to end on a complete JSON object of the same shape do not
    /// exist because the object closes only at the final brace.)
    #[test]
    fn truncated_frames_are_rejected(cmd in command(), cut in 0.0..1.0f64) {
        let line = encode_command(&cmd);
        let at = 1 + ((line.len() - 1) as f64 * cut) as usize;
        if at < line.len() {
            // Cut on a char boundary at or below `at`.
            let mut at = at;
            while !line.is_char_boundary(at) {
                at -= 1;
            }
            if at > 0 {
                let err = parse_command(&line[..at]);
                prop_assert!(
                    matches!(err, Err(EngineError::Protocol(_))),
                    "truncated frame parsed: {:?} from {}",
                    err,
                    &line[..at]
                );
            }
        }
    }
}

#[test]
fn garbage_frames_are_protocol_errors() {
    for bad in [
        "",
        "not json",
        "42",
        "[]",
        "{}",
        r#"{"cmd":"no_such_command"}"#,
        r#"{"type":"pong"}"#,               // a response is not a command
        r#"{"cmd":"open"}"#,                // missing session
        r#"{"cmd":"stage","session":"s"}"#, // missing marginals
    ] {
        assert!(
            matches!(parse_command(bad), Err(EngineError::Protocol(_))),
            "accepted: {bad}"
        );
        assert!(
            matches!(parse_response(bad), Err(EngineError::Protocol(_))),
            "response parser accepted: {bad}"
        );
    }
}

/// Skipped values obey the same nesting cap as decoded ones: an unknown
/// member nested ten thousand levels deep is a `protocol` error, not a
/// stack overflow.
#[test]
fn deeply_nested_unknown_member_is_a_protocol_error() {
    let frame = format!("{{\"cmd\":\"ping\",\"x\":{}", "[".repeat(10_000));
    match parse_command(&frame) {
        Err(EngineError::Protocol(message)) => assert!(message.contains("nesting"), "{message}"),
        other => panic!("deep frame decoded as {other:?}"),
    }
}
