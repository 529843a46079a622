//! The top-level Lahar engine: classify, compile, evaluate.
//!
//! [`Lahar::compile_with`] runs the static analysis (§3) and picks the cheapest
//! exact algorithm for the query's class — streaming Markov chains for
//! Regular queries, per-key chains for Extended Regular queries, the
//! interval algebra for Safe queries — and falls back to the (ε, δ) Monte
//! Carlo sampler for everything else (including the #P-hard queries of
//! §3.4 and the few safe shapes whose `seq` operator the exact algebra
//! does not cover; see DESIGN.md).

use crate::error::EngineError;
use crate::safeplan::SafePlanExecutor;
use crate::sampler::{Sampler, SamplerConfig};
use crate::stats::EngineStats;
use crate::streaming::{ground, Archived, QueryKind};
use lahar_model::Database;
use lahar_query::{
    classify, compile_safe_plan, parse_and_validate, NormalQuery, Query, QueryClass, QueryError,
};

/// Which algorithm a compiled query uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// §3.1 streaming Markov chain.
    Regular,
    /// §3.2 per-key independent chains.
    ExtendedRegular,
    /// §3.3 safe-plan interval algebra.
    SafePlan,
    /// §3.5 Monte Carlo sampling.
    Sampling,
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Algorithm::Regular => "regular (streaming chain)",
            Algorithm::ExtendedRegular => "extended regular (per-key chains)",
            Algorithm::SafePlan => "safe plan (interval algebra)",
            Algorithm::Sampling => "monte carlo sampling",
        };
        f.write_str(s)
    }
}

/// A query compiled against a database snapshot.
pub struct CompiledQuery<'db> {
    db: &'db Database,
    plan: Plan<'db>,
}

enum Plan<'db> {
    /// Regular or extended regular: the query's chains, stepped over
    /// the archive's recorded marginals.
    Streaming(Archived),
    /// Offline safe-plan executor, with the next timestep for the
    /// incremental [`CompiledQuery::step`] API.
    Safe { exec: SafePlanExecutor<'db>, t: u32 },
    /// Monte Carlo sampler.
    Sampled(Sampler),
}

impl CompiledQuery<'_> {
    /// The algorithm in use.
    pub fn algorithm(&self) -> Algorithm {
        match &self.plan {
            Plan::Streaming(eval) => match eval.kind {
                QueryKind::Regular => Algorithm::Regular,
                QueryKind::Extended => Algorithm::ExtendedRegular,
            },
            Plan::Safe { .. } => Algorithm::SafePlan,
            Plan::Sampled(_) => Algorithm::Sampling,
        }
    }

    /// Consumes the next timestep and returns `μ(q@t)` for it (safe plans
    /// compute the point probability directly).
    pub fn step(&mut self) -> Result<f64, EngineError> {
        match &mut self.plan {
            Plan::Streaming(eval) => eval.step(self.db),
            Plan::Safe { exec, t } => {
                let now = *t;
                *t += 1;
                exec.prob_at(now)
            }
            Plan::Sampled(eval) => Ok(eval.step(self.db)),
        }
    }

    /// The next `horizon` values of `μ(q@t)`, starting from the current
    /// cursor (`t = 0` for a freshly compiled query).
    pub fn prob_series(mut self, horizon: u32) -> Result<Vec<f64>, EngineError> {
        match &mut self.plan {
            // The batch interval-algebra path is only equivalent from a
            // fresh cursor; a stepped executor must continue from `t`.
            Plan::Safe { exec, t: 0 } => exec.prob_series(horizon),
            _ => (0..horizon).map(|_| self.step()).collect(),
        }
    }

    /// Test/bench hook: pins every chain of a regular or extended
    /// regular query to the shared automaton's interpreter path (see
    /// [`ChainEvaluator::force_interpreter`](crate::ChainEvaluator::force_interpreter));
    /// answers are identical, only the transition-resolution speed
    /// differs. Other algorithms ignore it.
    pub fn force_interpreter(&mut self, on: bool) {
        if let Plan::Streaming(eval) = &mut self.plan {
            eval.force_interpreter(on);
        }
    }
}

/// A query handed to [`Lahar::compile_with`]: either source text (parsed
/// and validated against the database) or an already-validated AST.
/// Usually built implicitly via `Into`:
///
/// ```ignore
/// Lahar::compile_with(&db, "At('joe','a')", CompileOptions::new())?;
/// Lahar::compile_with(&db, &ast, CompileOptions::new())?;
/// ```
pub enum QuerySource<'a> {
    /// Query source text, parsed and validated at compile time.
    Text(&'a str),
    /// An already-validated AST.
    Ast(&'a Query),
}

impl<'a> From<&'a str> for QuerySource<'a> {
    fn from(src: &'a str) -> Self {
        QuerySource::Text(src)
    }
}

impl<'a> From<&'a Query> for QuerySource<'a> {
    fn from(q: &'a Query) -> Self {
        QuerySource::Ast(q)
    }
}

/// Options for [`Lahar::compile_with`]. The default is the default
/// sampler configuration and no instrumentation.
#[derive(Clone, Copy, Default)]
pub struct CompileOptions<'s> {
    sampler: SamplerConfig,
    stats: Option<&'s EngineStats>,
}

impl<'s> CompileOptions<'s> {
    /// Default options: default [`SamplerConfig`], no instrumentation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Uses `config` when compilation lands on (or falls back to) the
    /// Monte Carlo sampler.
    pub fn sampler_config(mut self, config: SamplerConfig) -> Self {
        self.sampler = config;
        self
    }

    /// Records grounded chains, sampler world counts and
    /// exact-path→sampler fallbacks (with their reasons) into `stats`.
    pub fn instrument(mut self, stats: &'s EngineStats) -> Self {
        self.stats = Some(stats);
        self
    }
}

/// The Lahar engine facade.
pub struct Lahar;

impl Lahar {
    /// Classifies and compiles a query — text or AST — under `options`.
    /// This is the single compilation entry point.
    pub fn compile_with<'db, 'a>(
        db: &'db Database,
        query: impl Into<QuerySource<'a>>,
        options: CompileOptions<'_>,
    ) -> Result<CompiledQuery<'db>, EngineError> {
        let parsed;
        let q = match query.into() {
            QuerySource::Text(src) => {
                parsed = parse_and_validate(db.catalog(), db.interner(), src)?;
                &parsed
            }
            QuerySource::Ast(q) => q,
        };
        Self::compile_inner(db, q, options.sampler, options.stats)
    }

    fn compile_inner<'db>(
        db: &'db Database,
        q: &Query,
        sampler_config: SamplerConfig,
        stats: Option<&EngineStats>,
    ) -> Result<CompiledQuery<'db>, EngineError> {
        let sample = |nq: &NormalQuery, fallback_reason: Option<&str>| {
            if let (Some(stats), Some(reason)) = (stats, fallback_reason) {
                stats.record_fallback(reason);
            }
            let eval = Sampler::with_config(db, nq, sampler_config)?;
            if let Some(stats) = stats {
                stats.record_sampler(eval.n_samples() as u64);
            }
            Ok(Plan::Sampled(eval))
        };
        let nq = NormalQuery::from_query(q);
        let plan = match classify(db.catalog(), &nq) {
            class @ (QueryClass::Regular | QueryClass::ExtendedRegular) => {
                match ground(db, &nq, class) {
                    Ok((kind, chains)) => {
                        if let Some(stats) = stats {
                            stats.record_grounding(chains.len() as u64);
                        }
                        Ok(Plan::Streaming(Archived::new(db, kind, chains)))
                    }
                    // A regular query with a free key variable can make
                    // the joint hidden chain exponential in the number of
                    // streams; the sampler simulates the same product
                    // space world by world instead.
                    Err(e @ EngineError::StateSpaceTooLarge { .. }) => {
                        let class = match class {
                            QueryClass::Regular => "regular",
                            _ => "extended",
                        };
                        sample(&nq, Some(&format!("{class}: {e}")))
                    }
                    Err(e) => Err(e),
                }
            }
            QueryClass::Safe => {
                // A classified-safe query can still fall outside the exact
                // algebra (planner refusal or unsupported seq shape), which
                // the planner and executor report as `NotInClass`; only
                // those documented refusals fall back to the sampler.
                // Anything else (model errors, caps) is a real failure and
                // propagates.
                match compile_safe_plan(db.catalog(), &nq)
                    .map_err(EngineError::from)
                    .and_then(|plan| SafePlanExecutor::new(db, &plan))
                {
                    Ok(exec) => Ok(Plan::Safe { exec, t: 0 }),
                    Err(EngineError::Query(QueryError::NotInClass(reason))) => {
                        sample(&nq, Some(&reason))
                    }
                    Err(e) => Err(e),
                }
            }
            QueryClass::Unsafe => sample(&nq, None),
        }?;
        Ok(CompiledQuery { db, plan })
    }

    /// One-shot: the full probability series of a textual query.
    pub fn prob_series(db: &Database, src: &str) -> Result<Vec<f64>, EngineError> {
        let horizon = db.horizon();
        Self::compile_with(db, src, CompileOptions::new())?.prob_series(horizon)
    }

    /// The class a textual query falls into (parse + classify only).
    pub fn classify(db: &Database, src: &str) -> Result<QueryClass, EngineError> {
        let q = parse_and_validate(db.catalog(), db.interner(), src)?;
        Ok(classify(db.catalog(), &NormalQuery::from_query(&q)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lahar_model::StreamBuilder;
    use lahar_query::prob_series as oracle_series;

    fn db() -> Database {
        let mut db = Database::new();
        db.declare_stream("At", &["person"], &["loc"]).unwrap();
        db.declare_stream("Door", &["id"], &["state"]).unwrap();
        db.declare_relation("Hallway", 1).unwrap();
        let i = db.interner().clone();
        db.insert_relation_tuple("Hallway", lahar_model::tuple([i.intern("h")]))
            .unwrap();
        for (p, pa) in [("joe", 0.5), ("sue", 0.3)] {
            let b = StreamBuilder::new(&i, "At", &[p], &["a", "h", "c"]);
            let ms = vec![
                b.marginal(&[("a", pa)]).unwrap(),
                b.marginal(&[("h", 0.6)]).unwrap(),
                b.marginal(&[("c", 0.5), ("h", 0.1)]).unwrap(),
            ];
            db.add_stream(b.independent(ms).unwrap()).unwrap();
        }
        let b = StreamBuilder::new(&i, "Door", &["d1"], &["open", "closed"]);
        let ms = vec![
            b.marginal(&[("closed", 0.9)]).unwrap(),
            b.marginal(&[("open", 0.4)]).unwrap(),
            b.marginal(&[("open", 0.7)]).unwrap(),
        ];
        db.add_stream(b.independent(ms).unwrap()).unwrap();
        db
    }

    #[test]
    fn dispatch_matches_classification() {
        let db = db();
        let cases = [
            ("At('joe','a') ; At('joe','c')", Algorithm::Regular),
            ("At(p,'a') ; At(p,'c')", Algorithm::ExtendedRegular),
            ("At(p,'a') ; At(p,'h') ; Door('d1', s)", Algorithm::SafePlan),
            ("sigma[x = y](At(x,'a') ; At(y,'c'))", Algorithm::Sampling),
        ];
        for (src, algo) in cases {
            let c = Lahar::compile_with(&db, src, CompileOptions::new()).unwrap();
            assert_eq!(c.algorithm(), algo, "{src}");
        }
    }

    #[test]
    fn exact_paths_match_oracle_end_to_end() {
        let db = db();
        for src in [
            "At('joe','a') ; At('joe','c')",
            "At(p,'a') ; At(p,'c')",
            "At(p,'a') ; At(p,'h') ; Door('d1', s)",
        ] {
            let got = Lahar::prob_series(&db, src).unwrap();
            let q = lahar_query::parse_query(db.interner(), src).unwrap();
            let want = oracle_series(&db, &q).unwrap();
            for (t, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!((g - w).abs() < 1e-9, "{src} t={t}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn classification_facade() {
        let db = db();
        assert_eq!(
            Lahar::classify(&db, "At('joe','a')").unwrap(),
            QueryClass::Regular
        );
        assert_eq!(
            Lahar::classify(&db, "At(p,'a') ; At(p,'c')").unwrap(),
            QueryClass::ExtendedRegular
        );
    }

    #[test]
    fn invalid_queries_surface_errors() {
        let db = db();
        assert!(Lahar::compile_with(&db, "Nope(x)", CompileOptions::new()).is_err());
        assert!(Lahar::compile_with(&db, "At(x", CompileOptions::new()).is_err());
    }

    /// Instrumented compilation records sampler use, and distinguishes
    /// genuinely unsafe queries (no fallback — sampling is the plan)
    /// from exact-path refusals (fallback, with the documented reason).
    #[test]
    fn instrumented_compilation_records_fallbacks() {
        let mut db = db();
        let i = db.interner().clone();
        db.declare_relation("OpenState", 1).unwrap();
        db.insert_relation_tuple("OpenState", lahar_model::tuple([i.intern("open")]))
            .unwrap();

        let stats = EngineStats::new();
        let q = parse_and_validate(
            db.catalog(),
            db.interner(),
            "sigma[x = y](At(x,'a') ; At(y,'c'))",
        )
        .unwrap();
        let c = Lahar::compile_with(&db, &q, CompileOptions::new().instrument(&stats)).unwrap();
        assert_eq!(c.algorithm(), Algorithm::Sampling);
        let snap = stats.snapshot();
        assert_eq!(snap.fallbacks, 0, "unsafe is not a fallback");
        assert_eq!(snap.sampler_compilations, 1);
        assert!(snap.sampler_worlds > 0);

        // Classified safe, but the outer selection associates a predicate
        // with the seq-appended item, a shape the exact algebra does not
        // cover: falls back, and the reason lands in the snapshot.
        let stats = EngineStats::new();
        let src = "sigma[OpenState(s)](At(p,'a') ; At(p,'h') ; Door('d1', s))";
        let q = parse_and_validate(db.catalog(), db.interner(), src).unwrap();
        assert_eq!(
            classify(db.catalog(), &NormalQuery::from_query(&q)),
            QueryClass::Safe
        );
        let c = Lahar::compile_with(&db, &q, CompileOptions::new().instrument(&stats)).unwrap();
        assert_eq!(c.algorithm(), Algorithm::Sampling);
        let snap = stats.snapshot();
        assert_eq!(snap.fallbacks, 1);
        let (reason, count) = snap.fallback_reasons.iter().next().unwrap();
        assert_eq!(*count, 1);
        assert!(reason.contains("seq with associated predicate"), "{reason}");
    }
}
