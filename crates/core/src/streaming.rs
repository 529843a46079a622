//! Streaming evaluation of Regular Queries (§3.1, Theorem 3.3) and
//! Extended Regular Queries (§3.2, Theorem 3.7).
//!
//! A regular query is one Markov chain over (hidden value × automaton
//! state): `O(1)` state in the stream length and `O(1)` work per
//! timestep. An extended regular query grounds its shared variables —
//! syntactically independent (Def 3.4) — over every candidate key
//! binding; the per-binding instances use disjoint tuple sets, hence are
//! independent, and combine as `P[q] = 1 − Π_i (1 − p_i(t))`: `O(m)`
//! state in the number of distinct keys, each step `O(m)`.
//!
//! Every such evaluation steps a [`ChainSet`] one [`TickFrame`] at a
//! time through the batched kernel of [`crate::soa`]. The real-time and
//! archived scenarios differ only in where a tick's marginals come
//! from: a session stages them, while an archive — or a session's own
//! recorded history, for late registration and recovery — fills them
//! through [`HistoryFrames`]. Markov-mode chains of the archived
//! scenario carry the hidden value in their state, so they step one at
//! a time from the database ([`Archived`]).

use crate::chain::{query_automaton, ChainEvaluator, TickFrame, DEFAULT_STATE_CAP};
use crate::error::EngineError;
use crate::kernel::{KernelTickStats, SymCache};
use crate::translate::{enumerate_bindings, substitute_items};
use lahar_model::{Database, Marginal};
use lahar_query::{shared_vars, NormalQuery, QueryClass, QueryError};
use std::borrow::Borrow;

/// Default cap on the number of grounded per-key chains.
pub const DEFAULT_BINDING_CAP: usize = 1 << 20;

/// How a streaming query recombines its chains' probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueryKind {
    /// Single chain; its accept probability is the answer.
    Regular,
    /// Per-key chains combined as `1 − Π(1 − pᵢ)` (Thm 3.7).
    Extended,
}

impl QueryKind {
    /// The query's answer from its chains' probabilities, in canonical
    /// binding order.
    pub(crate) fn combine(self, probs: &[f64]) -> f64 {
        match self {
            QueryKind::Regular => probs[0],
            // Thm 3.7: per-key instances are independent, so their
            // combination is 1 − Π(1 − pᵢ), multiplied in canonical
            // binding order for reproducibility.
            QueryKind::Extended => 1.0 - probs.iter().fold(1.0, |none, p| none * (1.0 - p)),
        }
    }
}

/// Grounds a streaming query of class `class` into its recombination
/// kind and per-key chains in canonical binding order. The result is a
/// pure function of the query and the database *schema* (declared
/// streams, keys, domains, relations) — never of recorded marginals —
/// which is what makes structural rebuilds during recovery
/// deterministic. Grounding costs O(bindings × |dom| × items): the
/// automaton is resolved once per query, and a binding's streams come
/// from the database's key index rather than a scan.
pub(crate) fn ground(
    db: &Database,
    nq: &NormalQuery,
    class: QueryClass,
) -> Result<(QueryKind, Vec<ChainEvaluator>), EngineError> {
    match class {
        QueryClass::Regular => Ok((
            QueryKind::Regular,
            vec![ChainEvaluator::new(db, &nq.items)?],
        )),
        QueryClass::ExtendedRegular => {
            // One automaton for every binding: substitution never
            // changes the query's structure.
            let automaton = query_automaton(&nq.items);
            let shared: Vec<_> = shared_vars(&nq.items).into_iter().collect();
            let chains = enumerate_bindings(db, &nq.items, &shared, DEFAULT_BINDING_CAP)?
                .iter()
                .map(|binding| {
                    let items = substitute_items(&nq.items, binding);
                    let automaton = automaton.clone();
                    ChainEvaluator::with_automaton(db, &items, automaton, DEFAULT_STATE_CAP)
                })
                .collect::<Result<_, _>>()?;
            Ok((QueryKind::Extended, chains))
        }
        other => Err(EngineError::Query(QueryError::NotInClass(format!(
            "streaming (regular or extended regular); query is {other}"
        )))),
    }
}

/// A run of independent-mode chains stepped together, one tick frame
/// at a time: a session shard, the chains a late registration or a
/// recovery fast-forwards, or an archived query's chains.
pub(crate) struct ChainSet {
    /// Global sequence index of `chains[0]` (a session shard's offset).
    pub(crate) start: usize,
    /// `(query index, evaluator)` in global sequence order. Private: a
    /// resident SoA group holds its chains' state between ticks, so every
    /// read goes through [`ChainSet::chains`] or
    /// [`ChainSet::into_chains`], which settle first.
    chains: Vec<(usize, ChainEvaluator)>,
    /// Reusable SoA batch scratch ([`crate::soa`]); holds resident
    /// groups' state between ticks, travels with the set to worker
    /// threads.
    scratch: crate::soa::SoaScratch,
    /// The last stepped epoch's per-chain probabilities (tick-major,
    /// set order) and wall-clock nanoseconds per query index, as
    /// [`ChainSet::step_epoch`] writes them; reused across epochs.
    pub(crate) probs: Vec<f64>,
    pub(crate) query_ns: Vec<u64>,
}

impl ChainSet {
    /// A set with fresh scratch: the SoA plan belongs to one chain
    /// list, so every rebuilt list starts a new one.
    pub(crate) fn new(start: usize, chains: Vec<(usize, ChainEvaluator)>) -> Self {
        Self {
            start,
            chains,
            scratch: crate::soa::SoaScratch::default(),
            probs: Vec::new(),
            query_ns: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.chains.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.chains.is_empty()
    }

    /// The chains, each holding its current state: resident groups
    /// write theirs back first ([`crate::soa::settle`]), and the next
    /// tick reads the chains again, so callers may read or change them.
    pub(crate) fn chains(&mut self) -> &mut [(usize, ChainEvaluator)] {
        crate::soa::settle(&mut self.chains, &mut self.scratch);
        &mut self.chains
    }

    /// The settled chains, moved out (a repartition, or a recovery
    /// rebuilding the shard list).
    pub(crate) fn into_chains(mut self) -> Vec<(usize, ChainEvaluator)> {
        crate::soa::settle(&mut self.chains, &mut self.scratch);
        self.chains
    }

    /// See [`crate::soa::SoaScratch::max_pending`].
    #[cfg(test)]
    pub(crate) fn max_pending(&self) -> u32 {
        self.scratch.max_pending()
    }

    /// Steps every chain through every tick of an epoch — set-major, so
    /// one chain's working set stays hot across its `k` steps — into
    /// `probs` and `query_ns`, returning the kernel-path counters. Each
    /// tick gets its own cache generation ([`SymCache::begin_tick`]):
    /// within one tick all chains step against the same marginals, so
    /// chains with equal `(streams, syms)` signatures share one
    /// union-convolution; across ticks they never share distributions.
    pub(crate) fn step_epoch<F: Borrow<TickFrame>>(
        &mut self,
        ticks: &[F],
        n_queries: usize,
        cache: &mut SymCache,
        failpoint: &'static str,
    ) -> Result<KernelTickStats, EngineError> {
        let n = self.chains.len();
        self.probs.clear();
        self.probs.resize(ticks.len() * n, 0.0);
        self.query_ns.clear();
        self.query_ns.resize(n_queries, 0);
        let mut kernel = KernelTickStats::default();
        for (j, frame) in ticks.iter().enumerate() {
            cache.begin_tick();
            kernel.add(&crate::soa::step_shard_chains(
                &mut self.chains,
                frame.borrow(),
                cache,
                failpoint,
                &mut self.scratch,
                &mut self.probs[j * n..(j + 1) * n],
                &mut self.query_ns,
            )?);
        }
        Ok(kernel)
    }
}

/// Fills one reused [`TickFrame`] from a database's recorded marginals,
/// for the streams a set of chains reads: a past tick of a session, or
/// a tick of an archive. Other streams get a zero-length domain in the
/// frame and are never written. A stream past its recorded end reads
/// all-⊥, as [`lahar_model::Stream::marginal_at`] does.
pub(crate) struct HistoryFrames {
    frame: TickFrame,
    /// Per stream: its all-⊥ marginal when a chain reads it, empty
    /// otherwise.
    bottoms: Vec<Vec<f64>>,
}

impl HistoryFrames {
    /// Frames over the streams `chains` read (all independent-mode).
    pub(crate) fn new(db: &Database, chains: &[(usize, ChainEvaluator)]) -> Self {
        let mut bottoms = vec![Vec::new(); db.streams().len()];
        for (_, chain) in chains {
            for &s in chain.streams() {
                if bottoms[s].is_empty() {
                    bottoms[s] = Marginal::all_bottom(db.streams()[s].domain())
                        .probs()
                        .to_vec();
                }
            }
        }
        Self {
            frame: TickFrame::new(bottoms.iter().map(Vec::len).collect()),
            bottoms,
        }
    }

    /// The frame of tick `t`, read straight from the recorded marginal
    /// slices.
    pub(crate) fn fill(&mut self, db: &Database, t: u32) -> &TickFrame {
        let Self { frame, bottoms } = self;
        frame.fill(|s| match db.streams()[s].marginals() {
            Some(recorded) if !bottoms[s].is_empty() => recorded
                .get(t as usize)
                .map_or(bottoms[s].as_slice(), |m| m.probs()),
            _ => &[],
        });
        frame
    }
}

/// A streaming query evaluated over an archive (the batch API): its
/// independent-mode chains step as one [`ChainSet`] over frames filled
/// from the recorded marginals, and its Markov-mode chains — the
/// archived scenario — step one at a time from the database.
pub(crate) struct Archived {
    pub(crate) kind: QueryKind,
    set: ChainSet,
    /// `(position in binding order, chain)` per Markov-mode chain.
    markov: Vec<(usize, ChainEvaluator)>,
    frames: HistoryFrames,
    cache: SymCache,
    /// Every chain's probability this tick in binding order, merged
    /// from both modes (only read when there are Markov chains).
    probs: Vec<f64>,
    t: u32,
}

impl Archived {
    /// Splits the grounded `chains` by mode, keeping binding order.
    pub(crate) fn new(db: &Database, kind: QueryKind, chains: Vec<ChainEvaluator>) -> Self {
        let n = chains.len();
        let (mut indep, mut markov) = (Vec::new(), Vec::new());
        for (i, chain) in chains.into_iter().enumerate() {
            if chain.is_independent() {
                indep.push((0, chain));
            } else {
                markov.push((i, chain));
            }
        }
        Self {
            kind,
            frames: HistoryFrames::new(db, &indep),
            set: ChainSet::new(0, indep),
            probs: vec![0.0; n],
            markov,
            cache: SymCache::new(),
            t: 0,
        }
    }

    /// Consumes the next timestep and returns `μ(q@t)` for it.
    pub(crate) fn step(&mut self, db: &Database) -> Result<f64, EngineError> {
        if !self.set.is_empty() {
            let frame = self.frames.fill(db, self.t);
            self.set.step_epoch(
                std::slice::from_ref(&frame),
                1,
                &mut self.cache,
                "history_step",
            )?;
        }
        self.t += 1;
        if self.markov.is_empty() {
            return Ok(self.kind.combine(&self.set.probs));
        }
        let mut indep = self.set.probs.iter();
        let mut markov = self.markov.iter_mut().peekable();
        for (i, p) in self.probs.iter_mut().enumerate() {
            *p = match markov.next_if(|(at, _)| *at == i) {
                Some((_, chain)) => chain.step(db),
                None => *indep.next().expect("one probability per independent chain"),
            };
        }
        Ok(self.kind.combine(&self.probs))
    }

    /// See [`crate::CompiledQuery::force_interpreter`].
    pub(crate) fn force_interpreter(&mut self, on: bool) {
        let indep = self.set.chains().iter_mut();
        for (_, chain) in indep.chain(self.markov.iter_mut()) {
            chain.force_interpreter(on);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lahar_model::StreamBuilder;
    use lahar_query::{classify, parse_query, prob_series};

    fn compile(db: &Database, src: &str) -> Result<Archived, EngineError> {
        let q = parse_query(db.interner(), src).unwrap();
        let nq = NormalQuery::from_query(&q);
        let (kind, chains) = ground(db, &nq, classify(db.catalog(), &nq))?;
        Ok(Archived::new(db, kind, chains))
    }

    fn series(db: &Database, src: &str) -> (Vec<f64>, Vec<f64>) {
        let mut eval = compile(db, src).unwrap();
        let got = (0..db.horizon()).map(|_| eval.step(db).unwrap()).collect();
        let q = parse_query(db.interner(), src).unwrap();
        (got, prob_series(db, &q).unwrap())
    }

    fn assert_matches_oracle(db: &Database, src: &str) {
        let (got, want) = series(db, src);
        for (t, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g - w).abs() < 1e-9,
                "{src} at t={t}: chain {g} vs oracle {w}\nchain {got:?}\noracle {want:?}"
            );
        }
    }

    fn indep_db() -> Database {
        let mut db = Database::new();
        db.declare_stream("At", &["person"], &["loc"]).unwrap();
        db.declare_relation("Hallway", 1).unwrap();
        let i = db.interner().clone();
        db.insert_relation_tuple("Hallway", lahar_model::tuple([i.intern("h")]))
            .unwrap();
        let b = StreamBuilder::new(&i, "At", &["joe"], &["a", "h", "c"]);
        let ms = vec![
            b.marginal(&[("a", 0.6), ("h", 0.3)]).unwrap(),
            b.marginal(&[("h", 0.5), ("c", 0.2)]).unwrap(),
            b.marginal(&[("c", 0.7), ("a", 0.1)]).unwrap(),
            b.marginal(&[("c", 0.4), ("h", 0.4)]).unwrap(),
        ];
        db.add_stream(b.independent(ms).unwrap()).unwrap();
        db
    }

    fn markov_db() -> Database {
        let mut db = Database::new();
        db.declare_stream("At", &["person"], &["loc"]).unwrap();
        db.declare_relation("Hallway", 1).unwrap();
        let i = db.interner().clone();
        db.insert_relation_tuple("Hallway", lahar_model::tuple([i.intern("h")]))
            .unwrap();
        let b = StreamBuilder::new(&i, "At", &["joe"], &["a", "h", "c"]);
        let init = b.marginal(&[("a", 0.7), ("h", 0.2)]).unwrap();
        let cpt = b
            .cpt(&[
                ("a", "a", 0.5),
                ("a", "h", 0.4),
                ("h", "h", 0.3),
                ("h", "c", 0.5),
                ("h", "a", 0.1),
                ("c", "c", 0.8),
                ("c", "h", 0.1),
            ])
            .unwrap();
        db.add_stream(b.markov(init, vec![cpt.clone(), cpt.clone(), cpt]).unwrap())
            .unwrap();
        db
    }

    fn db_two_people() -> Database {
        let mut db = Database::new();
        db.declare_stream("At", &["person"], &["loc"]).unwrap();
        db.declare_relation("Hallway", 1).unwrap();
        db.declare_relation("Person", 1).unwrap();
        let i = db.interner().clone();
        db.insert_relation_tuple("Hallway", lahar_model::tuple([i.intern("h")]))
            .unwrap();
        for p in ["joe", "sue"] {
            db.insert_relation_tuple("Person", lahar_model::tuple([i.intern(p)]))
                .unwrap();
        }
        let b = StreamBuilder::new(&i, "At", &["joe"], &["a", "h", "c"]);
        let ms = vec![
            b.marginal(&[("a", 0.6), ("h", 0.3)]).unwrap(),
            b.marginal(&[("h", 0.5), ("c", 0.2)]).unwrap(),
            b.marginal(&[("c", 0.7)]).unwrap(),
        ];
        db.add_stream(b.independent(ms).unwrap()).unwrap();
        let b = StreamBuilder::new(&i, "At", &["sue"], &["a", "h", "c"]);
        let ms = vec![
            b.marginal(&[("a", 0.9)]).unwrap(),
            b.marginal(&[("h", 0.2), ("a", 0.4)]).unwrap(),
            b.marginal(&[("c", 0.5), ("h", 0.3)]).unwrap(),
        ];
        db.add_stream(b.independent(ms).unwrap()).unwrap();
        db
    }

    #[test]
    fn regular_queries_match_oracle_in_both_scenarios() {
        for src in [
            "At('joe', 'c')",
            "At('joe','a') ; At('joe','c')",
            "At('joe','a') ; (At('joe', l))+{| Hallway(l)} ; At('joe','c')",
            "(At('joe', l))+{| Hallway(l)}",
            "At('joe','a') ; At('joe','h') ; At('joe','c')",
        ] {
            assert_matches_oracle(&indep_db(), src);
            assert_matches_oracle(&markov_db(), src);
        }
    }

    #[test]
    fn inner_vs_outer_selection_differ_and_match_oracle() {
        // Ex 3.11 on probabilistic data: q_f vs q_s.
        let qf = "At('joe','a') ; At('joe','c')";
        let qs = "sigma[l = 'c'](At('joe','a') ; At('joe', l))";
        assert_matches_oracle(&indep_db(), qs);
        let (qf, _) = series(&indep_db(), qf);
        let (qs, _) = series(&indep_db(), qs);
        assert!(qf.iter().zip(&qs).any(|(a, b)| (a - b).abs() > 1e-9));
    }

    #[test]
    fn multi_stream_regular_query_matches_oracle() {
        // Two independent keys referenced by one regular query.
        let mut db = indep_db();
        let i = db.interner().clone();
        let b = StreamBuilder::new(&i, "At", &["sue"], &["a", "h", "c"]);
        let ms = vec![
            b.marginal(&[("c", 0.5)]).unwrap(),
            b.marginal(&[("a", 0.9)]).unwrap(),
            b.marginal(&[("c", 0.6), ("h", 0.2)]).unwrap(),
            b.marginal(&[("h", 0.5)]).unwrap(),
        ];
        db.add_stream(b.independent(ms).unwrap()).unwrap();
        assert_matches_oracle(&db, "At('joe','a') ; At('sue','c')");
    }

    #[test]
    fn multi_stream_markov_product_chain_matches_oracle() {
        let mut db = markov_db();
        let i = db.interner().clone();
        let b = StreamBuilder::new(&i, "At", &["sue"], &["a", "c"]);
        let init = b.marginal(&[("a", 0.5), ("c", 0.3)]).unwrap();
        let cpt = b
            .cpt(&[("a", "c", 0.6), ("a", "a", 0.2), ("c", "c", 0.9)])
            .unwrap();
        db.add_stream(b.markov(init, vec![cpt.clone(), cpt.clone(), cpt]).unwrap())
            .unwrap();
        assert_matches_oracle(&db, "At('joe','a') ; At('sue','c')");
    }

    #[test]
    fn extended_queries_match_oracle() {
        assert_matches_oracle(&db_two_people(), "At(p,'a') ; At(p,'c')");
        assert_matches_oracle(
            &db_two_people(),
            "sigma[Person(x)](At(x,'a') ; (At(x, l2))+{x | Hallway(l2)} ; At(x,'c'))",
        );
    }

    #[test]
    fn markov_streams_per_key_match_oracle() {
        let mut db = Database::new();
        db.declare_stream("At", &["person"], &["loc"]).unwrap();
        let i = db.interner().clone();
        for (p, stay) in [("joe", 0.8), ("sue", 0.4)] {
            let b = StreamBuilder::new(&i, "At", &[p], &["a", "c"]);
            let init = b.marginal(&[("a", 0.6), ("c", 0.1)]).unwrap();
            let cpt = b
                .cpt(&[("a", "a", stay), ("a", "c", 0.9 - stay), ("c", "c", 0.7)])
                .unwrap();
            db.add_stream(b.markov(init, vec![cpt.clone(), cpt]).unwrap())
                .unwrap();
        }
        assert_matches_oracle(&db, "At(p,'a') ; At(p,'c')");
    }

    #[test]
    fn one_chain_per_key_in_binding_order() {
        let eval = compile(&db_two_people(), "At(p,'a') ; At(p,'c')").unwrap();
        assert_eq!(eval.kind, QueryKind::Extended);
        assert_eq!(eval.set.len(), 2);
        assert!(eval.markov.is_empty());
        assert_eq!(QueryKind::Extended.combine(&[0.5, 0.5]), 0.75);
        assert_eq!(QueryKind::Regular.combine(&[0.25]), 0.25);
    }

    #[test]
    fn rejects_non_streaming_queries() {
        let mut db = db_two_people();
        db.declare_stream("Badge", &["person"], &["v"]).unwrap();
        let i = db.interner().clone();
        let b = StreamBuilder::new(&i, "Badge", &["joe"], &["x"]);
        db.add_stream(b.independent(vec![]).unwrap()).unwrap();
        // p shared but missing from the last subgoal: not extended regular.
        assert!(compile(&db, "At(p,'a') ; At(p,'h') ; Badge(r, _)").is_err());
    }

    #[test]
    fn frames_cover_only_read_streams_and_read_bottom_past_the_end() {
        let db = db_two_people();
        let mut eval = compile(&db, "At('sue','a')").unwrap();
        let mut frames = HistoryFrames::new(&db, eval.set.chains());
        assert!(frames.bottoms[0].is_empty(), "joe's stream is not read");
        let sue = &db.streams()[1];
        let frame = frames.fill(&db, 1);
        let row: Vec<f64> = (0..sue.domain().len()).map(|d| frame.row(d)[1]).collect();
        assert_eq!(row, sue.marginal_at(1).probs());
        let frame = frames.fill(&db, 99);
        let row: Vec<f64> = (0..sue.domain().len()).map(|d| frame.row(d)[1]).collect();
        assert_eq!(row, Marginal::all_bottom(sue.domain()).probs());
    }

    #[test]
    fn probability_never_exceeds_one() {
        let (got, _) = series(&markov_db(), "(At('joe', l))+{}");
        for p in got {
            assert!((0.0..=1.0 + 1e-12).contains(&p));
        }
    }
}
