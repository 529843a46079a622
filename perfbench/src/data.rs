//! Input generation. Every workload derives its inputs from the run's
//! seed through the RFID simulator (`lahar-rfid`) or a seeded synthetic
//! generator, before any set-up clock starts.

use lahar_core::protocol::WireMarginal;
use lahar_model::{encode_stream, Database, Marginal, Stream, Value};
use lahar_rfid::{Deployment, DeploymentConfig, MovementConfig};
use std::path::Path;

/// Q2 of the paper (§4.3): hallway, then the coffee room.
pub const Q_HALL_COFFEE: &str = "At(p, l1)[Hallway(l1)] ; At(p, l2)[CoffeeRoom(l2)]";
/// The coffee-room query: outside any room for two steps, then inside
/// the coffee room.
pub const Q_COFFEE: &str =
    "At(p, l1)[NotRoom(l1)] ; At(p, l2)[NotRoom(l2)] ; At(p, l3)[CoffeeRoom(l3)]";
/// Kleene plus: own office, any number of hallway steps, coffee room.
pub const Q_KLEENE: &str =
    "At(p, l1)[Office(p, l1)] ; (At(p, l))+{p | Hallway(l)} ; At(p, l2)[CoffeeRoom(l2)]";

/// A simulated deployment of `n_tags` tags over `ticks` ticks, shaped
/// like the paper's performance experiments (Figs 12/13): at most 20
/// people, the rest objects that follow them.
pub fn deployment(n_tags: usize, ticks: usize, seed: u64) -> Deployment {
    let n_people = n_tags.clamp(1, 20);
    Deployment::simulate(DeploymentConfig {
        ticks,
        n_people,
        n_objects: n_tags - n_people,
        seed,
        movement: MovementConfig {
            dwell_mean: 6.0,
            ..MovementConfig::default()
        },
        ..DeploymentConfig::default()
    })
}

/// Recorded real-time inputs: the deployment's schema with empty
/// streams (what a session is built on) and, per tick, every stream's
/// particle-filter marginal.
pub struct Recorded {
    pub template: Database,
    /// `ticks[t][stream]`, streams in template order.
    pub ticks: Vec<Vec<Marginal>>,
    /// The same marginals as wire frames.
    pub frames: Vec<Vec<WireMarginal>>,
}

pub fn record(dep: &Deployment) -> Recorded {
    let filtered = dep.filtered_database();
    let mut template = dep.base_database();
    for s in filtered.streams() {
        let stream = Stream::independent(s.id().clone(), s.domain().clone(), Vec::new())
            .expect("empty stream");
        template.add_stream(stream).expect("distinct stream keys");
    }
    // base_database() interns symbols in a fixed order, so the filtered
    // database's symbols mean the same in the template; check it.
    for (a, b) in template.streams().iter().zip(filtered.streams()) {
        assert_eq!(
            a.id().display(template.interner()),
            b.id().display(filtered.interner()),
            "stream keys differ between the template and the recorded database"
        );
    }
    let horizon = filtered.horizon();
    let ticks: Vec<Vec<Marginal>> = (0..horizon)
        .map(|t| {
            filtered
                .streams()
                .iter()
                .map(|s| s.marginal_at(t))
                .collect()
        })
        .collect();
    let frames = ticks
        .iter()
        .map(|tick| {
            template
                .streams()
                .iter()
                .zip(tick)
                .map(|(s, m)| WireMarginal {
                    stream_type: "At".to_owned(),
                    key: key_strings(&template, s),
                    probs: m.probs().to_vec(),
                })
                .collect()
        })
        .collect();
    Recorded {
        template,
        ticks,
        frames,
    }
}

fn key_strings(db: &Database, s: &Stream) -> Vec<String> {
    s.id()
        .key
        .iter()
        .map(|v| match v {
            Value::Str(sym) => db.interner().resolve(*sym).expect("interned key"),
            other => panic!("non-string stream key {other:?}"),
        })
        .collect()
}

/// An offline database holding `template`'s schema with the streams'
/// marginals for `n_ticks` ticks of the cyclic replay of `ticks`
/// starting at replay position `from`.
pub fn replayed_database(
    template: &Database,
    ticks: &[Vec<Marginal>],
    from: usize,
    n_ticks: usize,
) -> Database {
    let mut db = template.clone();
    for k in 0..n_ticks {
        for (i, m) in ticks[(from + k) % ticks.len()].iter().enumerate() {
            db.push_marginal_at(i, m.clone())
                .expect("recorded marginals fit the domain");
        }
    }
    db
}

fn value_string(db: &Database, v: &Value) -> String {
    match v {
        Value::Str(s) => db.interner().resolve(*s).expect("interned value"),
        Value::Int(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
    }
}

/// Writes `template` as a `lahar serve --manifest` directory: the
/// `manifest.txt` schema and relations plus one (empty) stream image
/// per stream.
pub fn write_manifest(dir: &Path, template: &Database) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let i = template.interner();
    let mut manifest = String::new();
    for schema in template.catalog().streams() {
        let attrs: Vec<String> = schema
            .attrs
            .iter()
            .map(|a| i.resolve(*a).unwrap_or_default())
            .collect();
        let (keys, vals) = attrs.split_at(schema.key_arity);
        manifest.push_str(&format!(
            "stream {} {} | {}\n",
            i.resolve(schema.name).unwrap_or_default(),
            keys.join(" "),
            vals.join(" ")
        ));
    }
    for schema in template.catalog().relations() {
        let name = i.resolve(schema.name).unwrap_or_default();
        if let Some(rel) = template.relation(schema.name) {
            for t in rel.iter() {
                let vals: Vec<String> = t.iter().map(|v| value_string(template, v)).collect();
                manifest.push_str(&format!("tuple {name} {}\n", vals.join(" ")));
            }
        }
        manifest.push_str(&format!("relation {name} {}\n", schema.arity));
    }
    std::fs::write(dir.join("manifest.txt"), manifest)?;
    for (n, stream) in template.streams().iter().enumerate() {
        std::fs::write(
            dir.join(format!("{n:04}.lstream")),
            encode_stream(i, stream),
        )?;
    }
    Ok(())
}

/// Values of the synthetic `R`/`S`/`T` streams.
const RST_VALUES: [&str; 4] = ["v0", "v1", "v2", "v3"];

/// A database with the `R`, `S`, `T` stream schema (key `k`, value
/// `v`) and no streams.
pub fn rst_schema() -> Database {
    let mut db = Database::new();
    for st in ["R", "S", "T"] {
        db.declare_stream(st, &["k"], &["v"]).expect("fresh schema");
    }
    db
}

/// Seeded synthetic independent streams for the paper's Fig 6 safe
/// query `R(x,_) ; S(x,_) ; T('w',y)`: an `R` and an `S` stream per
/// tag plus one shared witness stream `T('w')`. `tags` lists the keys of
/// the `R`/`S` pairs; `t_keys` the keys of `T` streams.
pub fn rst_database(tags: &[&str], t_keys: &[&str], ticks: usize, seed: u64) -> Database {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut db = rst_schema();
    let i = db.interner().clone();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut marginals = |b: &lahar_model::StreamBuilder, density: f64| -> Vec<Marginal> {
        (0..ticks)
            .map(|_| {
                if rng.gen::<f64>() < density {
                    let v = RST_VALUES[rng.gen_range(0..RST_VALUES.len())];
                    b.marginal(&[(v, 0.3 + 0.6 * rng.gen::<f64>())])
                        .expect("valid marginal")
                } else {
                    b.marginal(&[]).expect("valid marginal")
                }
            })
            .collect()
    };
    for tag in tags {
        for st in ["R", "S"] {
            let b = lahar_model::StreamBuilder::new(&i, st, &[tag], &RST_VALUES);
            let ms = marginals(&b, 0.5);
            db.add_stream(b.independent(ms).expect("valid stream"))
                .expect("distinct keys");
        }
    }
    for key in t_keys {
        let b = lahar_model::StreamBuilder::new(&i, "T", &[key], &RST_VALUES);
        let ms = marginals(&b, 0.4);
        db.add_stream(b.independent(ms).expect("valid stream"))
            .expect("distinct keys");
    }
    db
}

/// Loads a directory [`write_manifest`] wrote the way `lahar serve
/// --manifest` does: declarations in file order, then relation tuples,
/// then the stream images, emptied. Symbols are interned in the same
/// order as in the server, so per-key chains are combined in the same
/// order and offline answers are bit-identical to served ones.
pub fn load_manifest(dir: &Path) -> Result<Database, String> {
    let text = std::fs::read_to_string(dir.join("manifest.txt")).map_err(|e| e.to_string())?;
    let mut db = Database::new();
    let mut tuples: Vec<(String, Vec<String>)> = Vec::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("stream") => {
                let name = parts.next().ok_or("bad stream line")?;
                let rest: Vec<&str> = parts.collect();
                let split = rest
                    .iter()
                    .position(|&s| s == "|")
                    .ok_or("stream line without '|'")?;
                db.declare_stream(name, &rest[..split], &rest[split + 1..])
                    .map_err(|e| e.to_string())?;
            }
            Some("relation") => {
                let name = parts.next().ok_or("bad relation line")?;
                let arity = parts
                    .next()
                    .and_then(|a| a.parse().ok())
                    .ok_or("bad relation arity")?;
                db.declare_relation(name, arity)
                    .map_err(|e| e.to_string())?;
            }
            Some("tuple") => {
                let name = parts.next().ok_or("bad tuple line")?.to_owned();
                tuples.push((name, parts.map(str::to_owned).collect()));
            }
            _ => {}
        }
    }
    let interner = db.interner().clone();
    for (rel, vals) in tuples {
        db.insert_relation_tuple(
            &rel,
            lahar_model::tuple(vals.iter().map(|v| interner.intern(v))),
        )
        .map_err(|e| e.to_string())?;
    }
    let mut images: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "lstream"))
        .collect();
    images.sort();
    for path in images {
        let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
        let s = lahar_model::decode_stream(&interner, bytes.into()).map_err(|e| e.to_string())?;
        let s = Stream::independent(s.id().clone(), s.domain().clone(), Vec::new())
            .map_err(|e| e.to_string())?;
        db.add_stream(s).map_err(|e| e.to_string())?;
    }
    Ok(db)
}
