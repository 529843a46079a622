//! The offline archive layers: `Lahar::compile_with` +
//! `CompiledQuery::prob_series`, with no session and no server, measured
//! in `fanout_tick`'s traced run (see `README.md` for why this is not a
//! workload of its own).
//!
//! The mix: Q1 for every tag (regular), Q2 and the coffee query
//! (extended regular) over the smoothed Markov RFID archive, the
//! paper's Fig 6 safe query `R(x,_) ; S(x,_) ; T('w',y)` over synthetic
//! streams, and the #P-hard `h3` through the sampler at a fixed
//! (ε, δ, seed), evaluated again and again with spans around each call.

use crate::data::{self, Q_COFFEE, Q_HALL_COFFEE};
use crate::stats::self_time_by_name;
use crate::trace::Tracer;
use crate::Report;
use lahar_core::{
    Algorithm, CompileOptions, EngineStats, Lahar, SafePlanExecutor, Sampler, SamplerConfig,
};
use lahar_model::{decode_stream, Database, Stream, StreamData};
use lahar_query::{compile_safe_plan, NormalQuery};
use std::path::Path;
use std::time::Instant;

const RFID_TAGS: usize = 20;
const RFID_TICKS: usize = 120;
const SAFE_TAGS: usize = 12;
const SAFE_TICKS: usize = 40;
const H3_KEYS: [&str; 3] = ["k1", "k2", "k3"];
const H3_TICKS: usize = 40;
const SAFE_QUERY: &str = "R(x, _) ; S(x, _) ; T('w', y)";
const H3_QUERY: &str = "R('k1', _) ; S(x, _) ; T(x, _)";
/// The sampler's fixed accuracy and seed.
const SAMPLER: SamplerConfig = SamplerConfig {
    epsilon: 0.05,
    delta: 0.01,
    seed: 0x5eed_1a4a,
    grounding_cap: 1 << 16,
};
/// Tolerance of the exact evaluators against the possible-world oracle.
const ORACLE_TOL: f64 = 1e-9;

/// Which archive a query of the mix runs over.
#[derive(Clone, Copy)]
enum Archive {
    Rfid,
    Safe,
    H3,
}

struct MixQuery {
    label: String,
    archive: Archive,
    src: String,
    expect: Algorithm,
    /// Per-key chains one step of this query advances (regular: 1).
    keys: usize,
}

/// The three archives.
struct Archives {
    rfid: Database,
    safe: Database,
    h3: Database,
}

impl Archives {
    fn get(&self, a: Archive) -> &Database {
        match a {
            Archive::Rfid => &self.rfid,
            Archive::Safe => &self.safe,
            Archive::H3 => &self.h3,
        }
    }
}

/// Evaluates the mix repeatedly for `seconds` (at least twice), sets the
/// offline layers' per-layer metrics from the spans, runs the output
/// checks, and writes the spans to `trace_path`.
pub fn measure(
    seed: u64,
    seconds: f64,
    trace_path: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let dep = data::deployment(RFID_TAGS, RFID_TICKS, seed);
    let safe_tags: Vec<String> = (0..SAFE_TAGS).map(|t| format!("tag{t}")).collect();
    let safe_tag_refs: Vec<&str> = safe_tags.iter().map(String::as_str).collect();
    let archives = Archives {
        rfid: dep.smoothed_database(),
        safe: data::rst_database(&safe_tag_refs, &["w"], SAFE_TICKS, seed ^ 0x5afe),
        h3: data::rst_database(&H3_KEYS, &H3_KEYS, H3_TICKS, seed ^ 0x4033),
    };
    let tags = dep.tag_names();
    let mut mix: Vec<MixQuery> = tags
        .iter()
        .map(|tag| MixQuery {
            label: format!("q1:{tag}"),
            archive: Archive::Rfid,
            src: format!("At('{tag}', l)[Hallway(l)]"),
            expect: Algorithm::Regular,
            keys: 1,
        })
        .collect();
    for (label, src) in [("q2", Q_HALL_COFFEE), ("coffee", Q_COFFEE)] {
        mix.push(MixQuery {
            label: label.to_owned(),
            archive: Archive::Rfid,
            src: src.to_owned(),
            expect: Algorithm::ExtendedRegular,
            keys: tags.len(),
        });
    }
    mix.push(MixQuery {
        label: "fig6_safe".to_owned(),
        archive: Archive::Safe,
        src: SAFE_QUERY.to_owned(),
        expect: Algorithm::SafePlan,
        keys: 1,
    });
    mix.push(MixQuery {
        label: "h3".to_owned(),
        archive: Archive::H3,
        src: H3_QUERY.to_owned(),
        expect: Algorithm::Sampling,
        keys: 1,
    });

    let mut tracer = Tracer::new(true, Instant::now());
    let stats = EngineStats::new();
    let mut mixes = 0usize;
    let mut chain_steps = 0u64;
    let mut first: Vec<Vec<f64>> = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || mixes < 2 {
        let root = tracer.begin("archive.mix");
        for (qi, q) in mix.iter().enumerate() {
            let db = archives.get(q.archive);
            let horizon = db.horizon();
            report.attempt(1);
            let span = tracer.begin("query.parse");
            let ast = lahar_query::parse_and_validate(db.catalog(), db.interner(), &q.src);
            tracer.end(span);
            let ast = ast.map_err(|e| format!("{}: parse: {e}", q.label))?;
            let span = tracer.begin("engine.compile");
            let compiled = Lahar::compile_with(
                db,
                &ast,
                CompileOptions::new()
                    .sampler_config(SAMPLER)
                    .instrument(&stats),
            );
            tracer.end(span);
            let compiled = compiled.map_err(|e| format!("{}: compile: {e}", q.label))?;
            let algorithm = compiled.algorithm();
            let span = tracer.begin(match algorithm {
                Algorithm::Regular => "regular.eval",
                Algorithm::ExtendedRegular => "extended.eval",
                Algorithm::SafePlan => "safeplan.eval",
                Algorithm::Sampling => "sampler.eval",
            });
            let series = compiled.prob_series(horizon);
            tracer.end(span);
            let series = series.map_err(|e| format!("{}: evaluate: {e}", q.label))?;
            if algorithm != q.expect {
                report.fail(format!(
                    "{}: ran as {algorithm}, expected {}",
                    q.label, q.expect
                ));
            }
            if matches!(algorithm, Algorithm::Regular | Algorithm::ExtendedRegular) {
                chain_steps += u64::from(horizon) * q.keys as u64;
            }
            // Every mix must reproduce the first one bit for bit (the
            // sampler too: its seed is fixed).
            if first.len() <= qi {
                first.push(series);
            } else if !bit_identical(&first[qi], &series) {
                report.fail(format!("{}: series changed between repetitions", q.label));
            }
        }
        tracer.end(root);
        mixes += 1;
    }

    let self_ns = self_time_by_name(tracer.spans());
    let ns = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
    for (metric, span) in [
        ("query.parse_ms", "query.parse"),
        ("engine.compile_ms", "engine.compile"),
        ("regular.eval_ms", "regular.eval"),
        ("extended.eval_ms", "extended.eval"),
        ("safeplan.eval_ms", "safeplan.eval"),
        ("sampler.eval_ms", "sampler.eval"),
    ] {
        report.set(metric, ns(span) / 1e6 / mixes as f64);
    }
    report.set(
        "chain.ns_per_step",
        (ns("regular.eval") + ns("extended.eval")) / chain_steps.max(1) as f64,
    );
    report.set(
        "sampler.worlds_per_s",
        stats.snapshot().sampler_worlds as f64 / (ns("sampler.eval") / 1e9).max(1e-12),
    );
    tracer
        .write_chrome_json(trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    check_oracle(&archives, &dep, report)?;
    check_sampler_on_safe(&archives.safe, report)
}

fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The first `ticks` ticks of a Markov or independent stream.
fn prefix(s: &Stream, ticks: usize) -> Stream {
    match s.data() {
        StreamData::Markov { initial, cpts } => Stream::markov(
            s.id().clone(),
            s.domain().clone(),
            initial.clone(),
            cpts[..ticks - 1].to_vec(),
        ),
        StreamData::Independent(ms) => {
            Stream::independent(s.id().clone(), s.domain().clone(), ms[..ticks].to_vec())
        }
    }
    .expect("a prefix of a valid stream is valid")
}

fn key_name(db: &Database, s: &Stream) -> String {
    match s.id().key.first() {
        Some(lahar_model::Value::Str(sym)) => db.interner().resolve(*sym).unwrap_or_default(),
        _ => String::new(),
    }
}

fn max_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Exact evaluators against the possible-world oracle, on prefixes of
/// the archives small enough to enumerate: one tag's first 3 ticks of
/// the RFID archive, and one `R`/`S` pair plus `T('w')` for 2 ticks of
/// the safe archive.
fn check_oracle(
    archives: &Archives,
    dep: &lahar_rfid::Deployment,
    report: &mut Report,
) -> Result<(), String> {
    let e = |e: lahar_core::EngineError| e.to_string();
    let tag = dep.tag_names()[0].clone();
    let mut rfid = dep.base_database();
    let mut safe = data::rst_schema();
    for (from, into, ticks, keep) in [
        (&archives.rfid, &mut rfid, 3, &[tag.as_str()][..]),
        (&archives.safe, &mut safe, 2, &["tag0", "w"][..]),
    ] {
        for s in from.streams() {
            if keep.contains(&key_name(from, s).as_str()) {
                // Re-encode so the prefix re-interns into `into`.
                let img = lahar_model::encode_stream(from.interner(), &prefix(s, ticks));
                let s = decode_stream(into.interner(), img).map_err(|e| e.to_string())?;
                into.add_stream(s).map_err(|e| e.to_string())?;
            }
        }
    }
    for (db, src) in [
        (&rfid, format!("At('{tag}', l)[Hallway(l)]")),
        (&rfid, Q_HALL_COFFEE.to_owned()),
        (&rfid, Q_COFFEE.to_owned()),
        (&safe, SAFE_QUERY.to_owned()),
    ] {
        let ast = lahar_query::parse_and_validate(db.catalog(), db.interner(), &src)
            .map_err(|e| e.to_string())?;
        let exact = Lahar::compile_with(db, &ast, CompileOptions::new())
            .map_err(e)?
            .prob_series(db.horizon())
            .map_err(e)?;
        let oracle = lahar_query::prob_series(db, &ast).map_err(|e| e.to_string())?;
        let diff = max_diff(&exact, &oracle);
        report.check(diff <= ORACLE_TOL, || {
            format!("{src}: exact answer is {diff:e} from the possible-world oracle")
        });
    }
    Ok(())
}

/// The sampler, run on the safe query at its fixed seed, must stay
/// within ε of the safe plan's exact answer at every tick.
fn check_sampler_on_safe(db: &Database, report: &mut Report) -> Result<(), String> {
    let ast = lahar_query::parse_and_validate(db.catalog(), db.interner(), SAFE_QUERY)
        .map_err(|e| e.to_string())?;
    let nq = NormalQuery::from_query(&ast);
    let plan = compile_safe_plan(db.catalog(), &nq).map_err(|e| e.to_string())?;
    let exact = SafePlanExecutor::new(db, &plan)
        .and_then(|mut x| x.prob_series(db.horizon()))
        .map_err(|e| e.to_string())?;
    let sampled = Sampler::with_config(db, &nq, SAMPLER)
        .map_err(|e| e.to_string())?
        .prob_series(db, db.horizon());
    let diff = max_diff(&exact, &sampled);
    report.check(diff <= SAMPLER.epsilon, || {
        format!(
            "sampler on the safe query is {diff} from the safe plan (ε = {})",
            SAMPLER.epsilon
        )
    });
    Ok(())
}
