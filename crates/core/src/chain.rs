//! The Markov chain over (hidden stream values × automaton states)
//! — the evaluation engine of §3.1.2.
//!
//! For a (grounded) regular query, the relevant streams form a joint hidden
//! Markov chain; the automaton reads, at each timestep, the symbol set
//! induced by the hidden value. [`ChainEvaluator`] maintains the exact
//! joint distribution `P[M(t) = (h, Q)]` where `h` is the joint stream
//! value and `Q` the (determinized-on-the-fly) NFA state set, advancing it
//! by one matrix-vector product per timestep:
//!
//! ```text
//! P[M(t) = (σ′, q′)] = Σ_{σ,q : δ(q,σ′)=q′} C(t)(σ′, σ) · P[M(t−1) = (σ, q)]
//! ```
//!
//! Every chain reads its automaton through the compiled kernels of
//! [`crate::kernel`]: an `Arc`-shared automaton per query structure and
//! a per-chain [`LocalDfa`] whose dense table numbers states in the
//! chain's own discovery order. Two modes mirror the paper's two
//! scenarios:
//!
//! * **Markov** (archived): the hidden value is carried in the state and
//!   evolved through the per-stream CPTs (a tensor contraction per axis, so
//!   a step costs `O(n_dfa · n_joint · Σ_s k_s)` rather than
//!   `O(n_dfa · n_joint²)`).
//! * **Independent** (real-time): "the next letter seen by the automaton is
//!   independent of the previously seen letters", so only the distribution
//!   over automaton states is kept — the paper's "smaller automaton". This
//!   is the hot path.
//!
//! Both keep flat double-buffered mass vectors, so a steady-state step
//! allocates nothing and touches no hash map; independent chains also
//! cache their accepting mass.
//!
//! The evaluator also supports *draining*: removing the accepting mass
//! after each step turns the tracked mass into `P[h, Q ∧ not accepted
//! since the last drain start]`, which is how interval probabilities
//! `P[q[ts, tf]]` are computed for safe plans (§3.3.1).

use crate::error::EngineError;
use crate::kernel::{self, KernelCounters, LocalDfa, SigKey, SymCache};
use crate::translate::{build_regex, relevant_streams, symbol_table};
use lahar_automata::{Nfa, SymbolSet};
use lahar_model::{Database, Stream, StreamData};
use lahar_query::{NormalItem, QueryError};
use std::sync::Arc;

/// Default cap on the joint hidden state space.
pub const DEFAULT_STATE_CAP: usize = 1 << 14;

/// Lane identity handed to the SoA batcher: chains batch together only
/// when the automaton pointer and the full `l2s` layout match, which
/// (by construction of local discovery order) also makes their
/// accepting words and float accumulation order identical.
pub(crate) struct SoaDesc<'a> {
    pub(crate) automaton_ptr: usize,
    pub(crate) l2s: &'a [u32],
    pub(crate) acc_words: &'a [u64],
}

/// Where an independent-mode step reads this tick's marginals from.
pub(crate) enum MarginalSource<'a> {
    /// `marginal_at(t)` of each relevant stream ([`ChainEvaluator::step`],
    /// which the safe plan's interval chains use).
    Db(&'a Database),
    /// A tick frame: a session's, or one filled from recorded history
    /// (also on worker threads, where the database is not shareable).
    Frame(&'a TickFrame),
}

/// One closed session tick: every stream's marginal, written once when
/// the tick closes and then read by every chain. Outcome-major —
/// `p[d * n_streams + s]` is stream `s`'s probability of outcome `d`
/// (`+0.0` past the end of a shorter domain) — so one outcome's
/// probabilities across all streams form a contiguous row, the order
/// the batched fill in [`crate::soa`] consumes. A frame is reused from
/// tick to tick: a stream's domain never changes, so each tick
/// overwrites exactly the cells the last one wrote.
pub(crate) struct TickFrame {
    n_streams: usize,
    /// Domain size per stream.
    lens: Vec<usize>,
    p: Vec<f64>,
}

impl TickFrame {
    /// An all-zero frame for streams with the given domain sizes.
    pub(crate) fn new(lens: Vec<usize>) -> Self {
        let width = lens.iter().copied().max().unwrap_or(0);
        Self {
            n_streams: lens.len(),
            p: vec![0.0; width * lens.len()],
            lens,
        }
    }

    /// Writes every stream's marginal into the frame: `probs(s)` is
    /// stream `s`'s, one probability per outcome of its domain. Streams
    /// go in blocks of eight, so a block writes whole cache lines of
    /// each outcome row rather than one cell per line; a full block of
    /// equal domains (the common case) copies without a per-cell bounds
    /// branch.
    pub(crate) fn fill<'m>(&mut self, probs: impl Fn(usize) -> &'m [f64]) {
        const BLOCK: usize = 8;
        let n = self.n_streams;
        let mut block: [&[f64]; BLOCK] = [&[]; BLOCK];
        for s0 in (0..n).step_by(BLOCK) {
            let m = BLOCK.min(n - s0);
            let mut width = 0;
            for (j, marginal) in block[..m].iter_mut().enumerate() {
                *marginal = probs(s0 + j);
                debug_assert_eq!(marginal.len(), self.lens[s0 + j]);
                width = width.max(marginal.len());
            }
            if m == BLOCK && block.iter().all(|marginal| marginal.len() == width) {
                let cols: [&[f64]; BLOCK] = std::array::from_fn(|j| &block[j][..width]);
                for d in 0..width {
                    let row = &mut self.p[d * n + s0..d * n + s0 + BLOCK];
                    for (cell, col) in row.iter_mut().zip(&cols) {
                        *cell = col[d];
                    }
                }
                continue;
            }
            for d in 0..width {
                let row = &mut self.p[d * n + s0..d * n + s0 + m];
                for (cell, marginal) in row.iter_mut().zip(&block[..m]) {
                    if let Some(&p) = marginal.get(d) {
                        *cell = p;
                    }
                }
            }
        }
    }

    /// Outcome `d`'s probability in every stream, indexed by stream.
    pub(crate) fn row(&self, d: usize) -> &[f64] {
        &self.p[d * self.n_streams..(d + 1) * self.n_streams]
    }

    /// Stream `s`'s marginal, outcome by outcome.
    fn stream(&self, s: usize) -> impl Iterator<Item = f64> + Clone + '_ {
        self.p[s..]
            .iter()
            .step_by(self.n_streams)
            .take(self.lens[s])
            .copied()
    }
}

/// The symbol distribution of a chain that reads one independent
/// stream, as a projection: the table's distinct symbol sets ascending
/// (`support`) and, per outcome, its entry there (`slot_of`). A tick's
/// distribution is then one add per outcome, with no sort or merge. The
/// SoA batcher fills a uniform group's probability matrix through the
/// same projection.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Projection {
    pub(crate) support: Vec<SymbolSet>,
    pub(crate) slot_of: Vec<u32>,
}

impl Projection {
    fn new(syms: &[SymbolSet]) -> Self {
        let mut support = syms.to_vec();
        support.sort_unstable_by_key(|sym| sym.0);
        support.dedup();
        let slot_of = syms
            .iter()
            .map(|sym| {
                let slot = support.binary_search_by_key(&sym.0, |s| s.0);
                slot.expect("outcome symbol is in the support") as u32
            })
            .collect();
        Self { support, slot_of }
    }

    /// This tick's distribution from the stream's marginal (`probs`,
    /// outcome by outcome) into `out`: the entries some nonzero outcome
    /// reaches, ascending. Bit-identical to [`union_convolution`] over
    /// the one stream, which pushes `1.0 * p_d` per nonzero outcome,
    /// stable-sorts and merges left to right: each entry here sums its
    /// outcomes in ascending `d` from `+0.0`, `0.0 + x == x` for the
    /// first nonzero `x`, and the ±0.0 outcomes the convolution skips
    /// change no bit of a sum that started at `+0.0`.
    fn fill(
        &self,
        probs: impl Iterator<Item = f64>,
        out: &mut Vec<(SymbolSet, f64)>,
        hit: &mut Vec<bool>,
    ) {
        out.clear();
        out.extend(self.support.iter().map(|&sym| (sym, 0.0)));
        hit.clear();
        hit.resize(self.support.len(), false);
        for (&slot, p) in self.slot_of.iter().zip(probs) {
            out[slot as usize].1 += p;
            hit[slot as usize] |= p != 0.0;
        }
        let mut hits = hit.iter();
        out.retain(|_| *hits.next().expect("one flag per entry"));
    }
}

/// Serializable forward state of an independent-mode [`ChainEvaluator`]:
/// everything `O(1)`-space in the stream length (§3's real-time
/// scenario), which is exactly what makes session checkpoints cheap.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ChainState {
    /// Next timestep the chain will consume.
    pub(crate) t: u32,
    /// Tracked mass per discovered DFA state (independent mode keeps a
    /// single scalar per state).
    pub(crate) dist: Vec<f64>,
    /// Discovered DFA state sets in discovery order (NFA state indices).
    pub(crate) dfa_sets: Vec<Vec<u32>>,
}

/// Markov-mode (archived scenario) representation: `dist[q * n_joint +
/// h]` is the mass in local automaton state `q` with joint hidden value
/// `h`; `next` is the reused double buffer.
#[derive(Debug, Clone)]
struct MarkovChain {
    dist: Vec<f64>,
    next: Vec<f64>,
    scratch: Vec<f64>,
    scratch2: Vec<f64>,
}

/// Independent-mode (real-time scenario) representation. `mass[q]` is
/// the probability mass in local automaton state `q`; `next_mass` is
/// the reused double buffer; `accept` caches the accepting mass so
/// [`ChainEvaluator::accept_prob`] is `O(1)`.
#[derive(Debug, Clone)]
struct IndepChain {
    mass: Vec<f64>,
    next_mass: Vec<f64>,
    accept: f64,
    sig: SigKey,
    /// Set when the chain reads exactly one stream: its distribution
    /// comes straight from the marginal, never through the cache.
    proj: Option<Projection>,
    /// Per-tick `(local slot, probability)` scratch.
    slots: Vec<(u32, f64)>,
    /// Symbol-distribution buffers for cache-less stepping.
    dist_buf: Vec<(SymbolSet, f64)>,
    tmp_buf: Vec<(SymbolSet, f64)>,
    /// Per projection entry: did a nonzero outcome reach it this tick?
    hit: Vec<bool>,
}

/// Which representation the evaluator uses for the hidden chain.
#[derive(Debug, Clone)]
enum Repr {
    /// Real-time scenario: hidden value forgotten between steps.
    Indep(IndepChain),
    /// Archived scenario: joint hidden value carried in the state.
    Markov(MarkovChain),
}

/// Exact streaming evaluator for a grounded regular query.
#[derive(Debug, Clone)]
pub struct ChainEvaluator {
    /// Indices into `db.streams()` of the relevant streams.
    streams: Vec<usize>,
    /// Domain size (including ⊥) per relevant stream.
    sizes: Vec<usize>,
    /// Joint hidden state count (product of sizes; 1 when no stream is
    /// relevant).
    n_joint: usize,
    /// Per relevant stream: symbol set per outcome.
    syms: Vec<Vec<SymbolSet>>,
    /// FNV-1a over `syms`, fixed at construction (the tables never
    /// change); see [`ChainEvaluator::syms_fingerprint`].
    syms_fp: u64,
    /// Local slot of the joint symbol per joint hidden outcome (Markov
    /// mode).
    joint_slots: Vec<u32>,
    /// This chain's view of the query structure's shared automaton.
    local: LocalDfa,
    repr: Repr,
    /// Next timestep to consume.
    t: u32,
}

/// FNV-1a over per-stream symbol-translation tables (see
/// [`ChainEvaluator::syms_fingerprint`]).
fn fingerprint_syms(syms: &[Vec<SymbolSet>]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for table in syms {
        h ^= table.len() as u64 + 1;
        h = h.wrapping_mul(0x100000001b3);
        for &sym in table {
            h ^= sym.0;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// The shared automaton of a query structure. [`build_regex`] depends
/// only on the item count and Kleene flags — constants shift symbol
/// *tables*, not the automaton — so every grounded binding of one query
/// resolves to the same compiled DFA, in both modes, through the
/// registry; the NFA is only compiled on a registry miss.
pub(crate) fn query_automaton(items: &[NormalItem]) -> Arc<kernel::SharedAutomaton> {
    let regex = build_regex(items);
    let key = format!("{regex:?}");
    kernel::shared_automaton(&key, || Nfa::compile(&regex)).0
}

impl ChainEvaluator {
    /// Builds an evaluator for grounded items over the database, with the
    /// default hidden-state cap.
    pub fn new(db: &Database, items: &[NormalItem]) -> Result<Self, EngineError> {
        Self::with_cap(db, items, DEFAULT_STATE_CAP)
    }

    /// Builds an evaluator with an explicit joint-state cap.
    pub fn with_cap(db: &Database, items: &[NormalItem], cap: usize) -> Result<Self, EngineError> {
        Self::with_automaton(db, items, query_automaton(items), cap)
    }

    /// Builds an evaluator over an automaton already resolved for the
    /// items' structure ([`query_automaton`]): the per-binding chains
    /// of one grounded query share one resolution.
    pub(crate) fn with_automaton(
        db: &Database,
        items: &[NormalItem],
        automaton: Arc<kernel::SharedAutomaton>,
        cap: usize,
    ) -> Result<Self, EngineError> {
        let streams = relevant_streams(db, items);
        let mut sizes = Vec::with_capacity(streams.len());
        let mut syms = Vec::with_capacity(streams.len());
        let mut any_markov = false;
        for &si in &streams {
            let s = &db.streams()[si];
            sizes.push(s.domain().len());
            syms.push(symbol_table(db, s, items)?);
            any_markov |= s.is_markov();
        }
        let mut local = LocalDfa::new(automaton);
        // The joint hidden space only materializes in Markov mode;
        // independent mode tracks automaton states alone, so many relevant
        // streams are fine there. The product is overflow-checked: dozens
        // of Markov streams would overflow long before being representable.
        let (n_joint, joint_slots, repr) = if any_markov {
            let n_joint = sizes
                .iter()
                .try_fold(1usize, |acc, &k| acc.checked_mul(k))
                .ok_or(EngineError::StateSpaceTooLarge {
                    size: usize::MAX,
                    cap,
                })?
                .max(1);
            if n_joint > cap {
                return Err(EngineError::StateSpaceTooLarge { size: n_joint, cap });
            }
            // Slots only index the local dense table; interning them up
            // front discovers no state.
            let joint_slots = (0..n_joint)
                .map(|h| {
                    let mut rem = h;
                    let mut set = SymbolSet::EMPTY;
                    for (s, &k) in sizes.iter().enumerate() {
                        let d = rem % k;
                        rem /= k;
                        set = set.union(syms[s][d]);
                    }
                    local.slot_of(set)
                })
                .collect();
            // All mass starts in the initial automaton state; the hidden
            // part is filled lazily on the first step (the hidden value at
            // t = 0 is drawn fresh from the initial marginals).
            let mut dist = vec![0.0; n_joint];
            dist[0] = 1.0;
            let markov = MarkovChain {
                dist,
                next: Vec::new(),
                scratch: vec![0.0; n_joint],
                scratch2: vec![0.0; n_joint],
            };
            (n_joint, joint_slots, Repr::Markov(markov))
        } else {
            let mass = vec![1.0];
            let accept = accept_scan(&mass, local.accepting_mask());
            let indep = IndepChain {
                sig: SigKey::new(&streams, &syms),
                proj: (syms.len() == 1).then(|| Projection::new(&syms[0])),
                mass,
                next_mass: Vec::new(),
                accept,
                slots: Vec::new(),
                dist_buf: Vec::new(),
                tmp_buf: Vec::new(),
                hit: Vec::new(),
            };
            (1, Vec::new(), Repr::Indep(indep))
        };
        let syms_fp = fingerprint_syms(&syms);
        Ok(Self {
            streams,
            sizes,
            n_joint,
            syms,
            syms_fp,
            joint_slots,
            local,
            repr,
            t: 0,
        })
    }

    /// The timestep the next [`ChainEvaluator::step`] will consume.
    pub fn next_t(&self) -> u32 {
        self.t
    }

    /// Number of DFA states discovered so far (by this chain).
    pub fn n_dfa_states(&self) -> usize {
        self.local.n_states()
    }

    /// Total probability mass currently tracked (1.0 unless draining).
    pub fn tracked_mass(&self) -> f64 {
        match &self.repr {
            Repr::Markov(m) => m
                .dist
                .chunks_exact(self.n_joint)
                .map(|v| v.iter().sum::<f64>())
                .sum(),
            Repr::Indep(k) => k.mass.iter().sum(),
        }
    }

    /// Probability mass currently in accepting automaton states — the
    /// query's probability at the last consumed timestep. `O(1)` for
    /// independent-mode chains (the kernel tracks it incrementally).
    pub fn accept_prob(&self) -> f64 {
        match &self.repr {
            Repr::Markov(m) => {
                let p: f64 = m
                    .dist
                    .chunks_exact(self.n_joint)
                    .enumerate()
                    .filter(|(q, _)| self.local.is_accepting(*q as u32))
                    .map(|(_, v)| v.iter().sum::<f64>())
                    .sum();
                // Guard against -1e-18-style float dust; the `+ 0.0` also
                // normalizes -0.0 (which clamp passes through) to +0.0 so
                // reported probabilities never render as "-0.000000".
                p.clamp(0.0, 1.0) + 0.0
            }
            Repr::Indep(k) => k.accept,
        }
    }

    /// Removes and returns the accepting mass (interval-probability mode).
    pub fn drain_accepting(&mut self) -> f64 {
        let (mass, n_joint) = match &mut self.repr {
            Repr::Markov(m) => (&mut m.dist, self.n_joint),
            Repr::Indep(k) => {
                k.accept = 0.0;
                (&mut k.mass, 1)
            }
        };
        let mut drained = 0.0;
        for (q, v) in mass.chunks_exact_mut(n_joint).enumerate() {
            if self.local.is_accepting(q as u32) {
                for slot in v {
                    drained += *slot;
                    *slot = 0.0;
                }
            }
        }
        drained
    }

    /// True when the evaluator runs in the real-time (independent)
    /// representation — the only mode [`crate::RealTimeSession`] uses.
    pub fn is_independent(&self) -> bool {
        matches!(self.repr, Repr::Indep(_))
    }

    /// Test/bench hook: route every transition through the shared
    /// automaton's interpreter, bypassing the per-chain dense table and
    /// the frozen table. Results are identical (the interpreter and the
    /// compiled tables answer from the same determinization); only the
    /// speed differs.
    pub fn force_interpreter(&mut self, on: bool) {
        self.local.set_force_interpreter(on);
    }

    /// Indices into `db.streams()` of the streams this chain reads.
    pub(crate) fn streams(&self) -> &[usize] {
        &self.streams
    }

    /// Per relevant stream: its symbol set per outcome.
    #[cfg(test)]
    pub(crate) fn syms(&self) -> &[Vec<SymbolSet>] {
        &self.syms
    }

    /// Drains the kernel-path counters accumulated since the last call.
    pub(crate) fn take_kernel_counters(&mut self) -> KernelCounters {
        self.local.take_counters()
    }

    /// Identity of the shared automaton this chain is attached to
    /// (pointer-stable for the automaton's lifetime), for telemetry.
    pub(crate) fn automaton_id(&self) -> usize {
        Arc::as_ptr(self.local.automaton()) as usize
    }

    /// The chain's lane identity for the SoA batcher: automaton pointer
    /// plus local state numbering and accepting words. `None` when the
    /// chain can't join a batch (Markov mode, or the interpreter is
    /// forced — the forced path must exercise the interpreter per chain).
    pub(crate) fn soa_descriptor(&self) -> Option<SoaDesc<'_>> {
        self.batchable().then(|| SoaDesc {
            automaton_ptr: self.automaton_id(),
            l2s: self.local.local_to_shared(),
            acc_words: self.local.accepting_mask(),
        })
    }

    /// Whether the chain can join an SoA batch (see
    /// [`ChainEvaluator::soa_descriptor`]).
    fn batchable(&self) -> bool {
        self.is_independent() && !self.local.forces_interpreter()
    }

    /// The shared automaton handle, for batch-level transition resolution.
    pub(crate) fn soa_automaton(&self) -> Arc<kernel::SharedAutomaton> {
        Arc::clone(self.local.automaton())
    }

    /// Maps a shared state id into this chain's local numbering without
    /// assigning one (the batcher never mutates chain layouts).
    pub(crate) fn soa_peek_local(&self, shared_id: u32) -> Option<u32> {
        self.local.peek_local(shared_id)
    }

    /// The current mass vector (read side of the SoA gather).
    pub(crate) fn soa_mass(&self) -> Option<&[f64]> {
        match &self.repr {
            Repr::Indep(k) => Some(&k.mass),
            Repr::Markov(_) => None,
        }
    }

    /// The `(stream index, projection)` when this chain reads exactly
    /// one independent stream — the shape whose symbol distribution the
    /// batcher fills straight from the staged marginal, bypassing the
    /// per-chain convolution cache.
    pub(crate) fn soa_single_stream(&self) -> Option<(usize, &Projection)> {
        match &self.repr {
            Repr::Indep(k) => k.proj.as_ref().map(|proj| (self.streams[0], proj)),
            Repr::Markov(_) => None,
        }
    }

    /// FNV-1a over the symbol-translation tables, for batch grouping:
    /// chains of *different* queries can share a compiled automaton
    /// (same regex over match bits) while translating stream outcomes
    /// differently, and such lanes must not share a probability matrix.
    /// Collisions are safe — they only merge groups, and the batcher
    /// re-checks the tables exactly before using the shared-table fill.
    /// Computed once at construction — the tables are immutable.
    pub(crate) fn syms_fingerprint(&self) -> u64 {
        self.syms_fp
    }

    /// What the SoA planner's cached plan depends on for this chain: the
    /// local numbering's version while the chain can join a batch, `None`
    /// when it cannot (see [`ChainEvaluator::soa_descriptor`]). Any
    /// discovery, checkpoint import or interpreter toggle changes it.
    pub(crate) fn soa_stamp(&self) -> Option<u64> {
        self.batchable().then(|| self.local.layout_version())
    }

    /// Memoized FNV-1a fingerprint of the local state numbering (see
    /// [`LocalDfa::layout_fp`]).
    pub(crate) fn layout_fp(&self) -> u64 {
        self.local.layout_fp()
    }

    /// Assigns local ids to every state this chain's next step would
    /// discover, in the exact order the scalar routing loop would:
    /// occupied states ascending, then this tick's distribution entries
    /// ascending by symbol set (`active_syms` must be that sorted
    /// nonzero-probability support). After the call the local numbering
    /// is identical to what a scalar step would have produced, so the
    /// batcher can refresh its layout snapshot and keep the lanes
    /// batched through a discovery tick instead of falling back.
    pub(crate) fn soa_discover(&mut self, active_syms: &[SymbolSet]) {
        let k = match &mut self.repr {
            Repr::Indep(k) => k,
            Repr::Markov(_) => unreachable!("soa_discover on a Markov chain"),
        };
        k.slots.clear();
        for &sym in active_syms {
            k.slots.push((self.local.slot_of(sym), 0.0));
        }
        let n_q = k.mass.len();
        for q in 0..n_q {
            if k.mass[q] == 0.0 {
                continue;
            }
            for i in 0..k.slots.len() {
                let (slot, _) = k.slots[i];
                self.local.step(q as u32, slot);
            }
        }
    }

    /// This tick's symbol-distribution index in `cache` for this chain's
    /// signature, computing it on a miss — the exact cache protocol of
    /// the scalar step, shared so both paths resolve identically.
    pub(crate) fn sym_dist_index(&mut self, frame: &TickFrame, cache: &mut SymCache) -> u32 {
        let streams = &self.streams;
        let syms = &self.syms;
        let t = self.t;
        let k = match &mut self.repr {
            Repr::Indep(k) => k,
            Repr::Markov(_) => unreachable!("sym_dist_index on a Markov chain"),
        };
        match cache.lookup(&k.sig) {
            Some(idx) => idx,
            None => cache.insert_with(k.sig.clone(), |out, tmp| {
                union_convolution(streams, syms, &MarginalSource::Frame(frame), t, out, tmp)
            }),
        }
    }

    /// Writes back `ticks` batched steps a group kept resident: lane
    /// `lane` of the `lanes`-wide `mass` matrix becomes the mass vector,
    /// the accepting sum is clamped exactly like [`accept_scan`], and
    /// the clock advances by `ticks`. Between those ticks the group's
    /// matrices, not this chain, held the state; [`crate::soa::settle`]
    /// calls this before anything reads or moves the chain.
    pub(crate) fn soa_write_back(
        &mut self,
        mass: &[f64],
        lane: usize,
        lanes: usize,
        accept_sum: f64,
        ticks: u32,
    ) {
        let k = match &mut self.repr {
            Repr::Indep(k) => k,
            Repr::Markov(_) => unreachable!("soa_write_back on a Markov chain"),
        };
        let n_states = mass.len() / lanes.max(1);
        k.mass.clear();
        k.mass.extend((0..n_states).map(|q| mass[q * lanes + lane]));
        k.accept = accept_sum.clamp(0.0, 1.0) + 0.0;
        self.t += ticks;
    }

    /// Exports the forward state (timestep, per-DFA-state mass, and the
    /// DFA discovery order) of an independent-mode evaluator.
    pub(crate) fn export_state(&self) -> Result<ChainState, EngineError> {
        match &self.repr {
            Repr::Markov(_) => Err(EngineError::CheckpointUnsupported(
                "only independent-mode chains can be checkpointed".to_owned(),
            )),
            Repr::Indep(k) => Ok(ChainState {
                t: self.t,
                dist: k.mass.clone(),
                dfa_sets: self.local.export_sets(),
            }),
        }
    }

    /// Restores checkpointed forward state into a structurally rebuilt
    /// evaluator (same query, same database schema). After this call the
    /// evaluator is bit-identical to the one that exported the state:
    /// the DFA discovery order is replayed so local state ids line up,
    /// and future steps therefore accumulate in the same float order.
    pub(crate) fn restore_state(&mut self, state: &ChainState) -> Result<(), EngineError> {
        let k = match &mut self.repr {
            Repr::Markov(_) => {
                return Err(EngineError::CheckpointUnsupported(
                    "only independent-mode chains can be restored".to_owned(),
                ))
            }
            Repr::Indep(k) => k,
        };
        self.local
            .import_sets(&state.dfa_sets)
            .map_err(EngineError::CheckpointCorrupt)?;
        if state.dist.len() > self.local.n_states() {
            return Err(EngineError::CheckpointCorrupt(format!(
                "chain mass vector covers {} DFA states but only {} were discovered",
                state.dist.len(),
                self.local.n_states()
            )));
        }
        k.mass.clear();
        k.mass.extend_from_slice(&state.dist);
        k.accept = accept_scan(&k.mass, self.local.accepting_mask());
        self.t = state.t;
        Ok(())
    }

    /// Consumes timestep `t = next_t()`: evolves the hidden chain, feeds
    /// the induced symbol to the automaton, and returns the probability
    /// that the query is satisfied at `t`.
    pub fn step(&mut self, db: &Database) -> f64 {
        match self.repr {
            Repr::Indep(_) => self.step_independent(&MarginalSource::Db(db), None),
            Repr::Markov(_) => self.step_markov(db),
        }
        self.t += 1;
        self.accept_prob()
    }

    /// Consumes timestep `t = next_t()` of an independent-mode evaluator
    /// from a session tick's frame, without touching the database — how
    /// session ticks step chains, on worker threads too. The arithmetic
    /// is shared with [`ChainEvaluator::step`], so both produce the same
    /// result for the same inputs. With a per-tick symbol-distribution
    /// `cache`, chains sharing a `(streams, syms)` signature reuse one
    /// union-convolution per tick; the caller must clear it between
    /// ticks ([`SymCache::begin_tick`]), and all chains served by one
    /// cache generation must be at the same timestep.
    pub(crate) fn step_frame(
        &mut self,
        frame: &TickFrame,
        cache: Option<&mut SymCache>,
    ) -> Result<f64, EngineError> {
        if !self.is_independent() {
            return Err(EngineError::Query(QueryError::NotInClass(
                "session ticks require an independent-mode chain".to_owned(),
            )));
        }
        self.step_independent(&MarginalSource::Frame(frame), cache);
        self.t += 1;
        Ok(self.accept_prob())
    }

    fn step_independent(&mut self, source: &MarginalSource<'_>, cache: Option<&mut SymCache>) {
        let Self {
            streams,
            syms,
            local,
            repr,
            t,
            ..
        } = self;
        let t = *t;
        let k = match repr {
            Repr::Indep(k) => k,
            Repr::Markov(_) => unreachable!("step_independent on a Markov chain"),
        };
        // This tick's distribution over symbol sets: projected from the
        // marginal for a single-stream chain, cached per signature when a
        // per-tick cache is supplied, recomputed into the chain's reusable
        // buffers otherwise. Either way a flat sorted vector — sorted
        // application keeps floating-point accumulation order (and
        // therefore the engine's output) fully deterministic.
        let dist: &[(SymbolSet, f64)] = match (&k.proj, cache) {
            (Some(proj), _) => {
                match *source {
                    MarginalSource::Db(db) => {
                        let marginal = db.streams()[streams[0]].marginal_at(t);
                        let probs = marginal.probs().iter().copied();
                        proj.fill(probs, &mut k.dist_buf, &mut k.hit);
                    }
                    MarginalSource::Frame(frame) => {
                        proj.fill(frame.stream(streams[0]), &mut k.dist_buf, &mut k.hit)
                    }
                }
                &k.dist_buf
            }
            (None, Some(c)) => {
                let idx = match c.lookup(&k.sig) {
                    Some(idx) => idx,
                    None => c.insert_with(k.sig.clone(), |out, tmp| {
                        union_convolution(streams, syms, source, t, out, tmp)
                    }),
                };
                c.dist(idx)
            }
            (None, None) => {
                union_convolution(streams, syms, source, t, &mut k.dist_buf, &mut k.tmp_buf);
                &k.dist_buf
            }
        };
        // Resolve each symbol set to its local slot once per tick…
        k.slots.clear();
        for &(sym, p) in dist {
            k.slots.push((local.slot_of(sym), p));
        }
        // …then route mass through the dense table into the double buffer.
        let n_q = k.mass.len();
        k.next_mass.clear();
        k.next_mass.resize(local.n_states(), 0.0);
        for q in 0..n_q {
            let mass = k.mass[q];
            if mass == 0.0 {
                continue;
            }
            for i in 0..k.slots.len() {
                let (slot, p) = k.slots[i];
                let q2 = local.step(q as u32, slot) as usize;
                if q2 >= k.next_mass.len() {
                    k.next_mass.resize(q2 + 1, 0.0);
                }
                k.next_mass[q2] += mass * p;
            }
        }
        std::mem::swap(&mut k.mass, &mut k.next_mass);
        k.accept = accept_scan(&k.mass, local.accepting_mask());
    }

    fn step_markov(&mut self, db: &Database) {
        let Self {
            streams,
            sizes,
            n_joint,
            joint_slots,
            local,
            repr,
            t,
            ..
        } = self;
        let (n_joint, t) = (*n_joint, *t);
        let m = match repr {
            Repr::Markov(m) => m,
            Repr::Indep(_) => unreachable!("step_markov on an independent chain"),
        };
        m.next.clear();
        m.next.resize(m.dist.len(), 0.0);
        for q in 0..m.dist.len() / n_joint {
            let total: f64 = m.dist[q * n_joint..(q + 1) * n_joint].iter().sum();
            if total == 0.0 {
                continue;
            }
            // Evolve the hidden part of this automaton state's mass. At
            // t = 0 the hidden values are drawn fresh from the initial
            // marginals (the pre-initial hidden component is a dummy
            // scalar in slot 0).
            if t == 0 {
                m.fill_initial_hidden(db, q, streams, sizes, n_joint);
            } else {
                m.evolve_hidden(db, q, t, streams, sizes, n_joint);
            }
            // Route each hidden value's mass through the automaton.
            for (h, &mass) in m.scratch.iter().enumerate() {
                if mass == 0.0 {
                    continue;
                }
                let q2 = local.step(q as u32, joint_slots[h]) as usize;
                if (q2 + 1) * n_joint > m.next.len() {
                    m.next.resize((q2 + 1) * n_joint, 0.0);
                }
                m.next[q2 * n_joint + h] += mass;
            }
        }
        std::mem::swap(&mut m.dist, &mut m.next);
    }
}

#[cfg(test)]
thread_local! {
    /// Counts states visited by [`accept_scan`], so tests can assert
    /// that [`ChainEvaluator::accept_prob`] stays O(1) per step: the
    /// scan runs once inside each step (bounded by the state count),
    /// and reads never rescan. Thread-local, so concurrently running
    /// tests never bump each other's counts.
    pub(crate) static ACCEPT_SCAN_STATES: std::cell::Cell<u64> =
        const { std::cell::Cell::new(0) };
}

/// Accepting mass of a flat state-mass vector, in ascending state order
/// (the accumulation order the interpreted path used, so cached values
/// are bit-identical to a fresh scan). `accepting` is the packed u64
/// mask (bit `q % 64` of word `q / 64`); iterating set bits ascending
/// visits exactly the accepting states in ascending order.
fn accept_scan(mass: &[f64], accepting: &[u64]) -> f64 {
    let mut p = 0.0;
    for (w, &word) in accepting.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let q = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if let Some(&m) = mass.get(q) {
                p += m;
            }
            #[cfg(test)]
            ACCEPT_SCAN_STATES.with(|c| c.set(c.get() + 1));
        }
    }
    // Guard against -1e-18-style float dust; the `+ 0.0` also normalizes
    // -0.0 (which clamp passes through) to +0.0 so reported probabilities
    // never render as "-0.000000".
    p.clamp(0.0, 1.0) + 0.0
}

/// Distribution over symbol sets at one timestep, combining independent
/// streams by union-convolution into a flat vector sorted by symbol set.
/// Duplicate keys are merged in generation order (stable sort), which for
/// single-stream chains reproduces the accumulation order of the original
/// hash-map implementation exactly.
pub(crate) fn union_convolution(
    streams: &[usize],
    syms: &[Vec<SymbolSet>],
    source: &MarginalSource<'_>,
    t: u32,
    out: &mut Vec<(SymbolSet, f64)>,
    tmp: &mut Vec<(SymbolSet, f64)>,
) {
    out.clear();
    out.push((SymbolSet::EMPTY, 1.0));
    for (s, &si) in streams.iter().enumerate() {
        match *source {
            MarginalSource::Db(db) => {
                let marginal = db.streams()[si].marginal_at(t);
                convolve_stream(marginal.probs().iter().copied(), &syms[s], out, tmp);
            }
            MarginalSource::Frame(frame) => convolve_stream(frame.stream(si), &syms[s], out, tmp),
        }
    }
}

/// One step of [`union_convolution`]: folds a stream's marginal (`probs`,
/// outcome by outcome) into the distribution `out`.
fn convolve_stream(
    probs: impl Iterator<Item = f64> + Clone,
    syms: &[SymbolSet],
    out: &mut Vec<(SymbolSet, f64)>,
    tmp: &mut Vec<(SymbolSet, f64)>,
) {
    tmp.clear();
    for &(sym, p) in out.iter() {
        for (d, pd) in probs.clone().enumerate() {
            if pd == 0.0 {
                continue;
            }
            tmp.push((sym.union(syms[d]), p * pd));
        }
    }
    tmp.sort_by_key(|&(sym, _)| sym.0);
    out.clear();
    for &(sym, p) in tmp.iter() {
        match out.last_mut() {
            Some(last) if last.0 == sym => last.1 += p,
            _ => out.push((sym, p)),
        }
    }
}

impl MarkovChain {
    /// Fills `self.scratch` with the product of the relevant streams'
    /// initial marginals, scaled by the mass in `dist[q]` (a scalar at
    /// t = 0).
    fn fill_initial_hidden(
        &mut self,
        db: &Database,
        q: usize,
        streams: &[usize],
        sizes: &[usize],
        n_joint: usize,
    ) {
        let mass = self.dist[q * n_joint];
        self.scratch.fill(0.0);
        for h in 0..n_joint {
            let mut rem = h;
            let mut p = mass;
            for (s, &k) in sizes.iter().enumerate() {
                let d = rem % k;
                rem /= k;
                let stream = &db.streams()[streams[s]];
                p *= stream.marginal_at(0).prob(d);
                if p == 0.0 {
                    break;
                }
            }
            self.scratch[h] = p;
        }
    }

    /// Evolves `dist[q]` one step through the joint CPT into
    /// `self.scratch` (tensor contraction, one axis per stream).
    fn evolve_hidden(
        &mut self,
        db: &Database,
        q: usize,
        t: u32,
        streams: &[usize],
        sizes: &[usize],
        n_joint: usize,
    ) {
        self.scratch
            .copy_from_slice(&self.dist[q * n_joint..(q + 1) * n_joint]);
        for (s, &si) in streams.iter().enumerate() {
            let stream = &db.streams()[si];
            let k = sizes[s];
            let stride: usize = sizes[..s].iter().product();
            let outer: usize = n_joint / (k * stride);
            self.scratch2.fill(0.0);
            match stream.data() {
                StreamData::Independent(_) => {
                    // Rank-1 transition: marginalize the axis out, then
                    // redistribute by the next marginal.
                    let next = stream.marginal_at(t);
                    for o in 0..outer {
                        for inner in 0..stride {
                            let base = o * k * stride + inner;
                            let mut sum = 0.0;
                            for d in 0..k {
                                sum += self.scratch[base + d * stride];
                            }
                            if sum == 0.0 {
                                continue;
                            }
                            for d2 in 0..k {
                                self.scratch2[base + d2 * stride] += sum * next.prob(d2);
                            }
                        }
                    }
                }
                StreamData::Markov { .. } => {
                    let cpt = markov_cpt(stream, t);
                    for o in 0..outer {
                        for inner in 0..stride {
                            let base = o * k * stride + inner;
                            for d in 0..k {
                                let p = self.scratch[base + d * stride];
                                if p == 0.0 {
                                    continue;
                                }
                                for d2 in 0..k {
                                    let w = cpt(d2, d);
                                    if w != 0.0 {
                                        self.scratch2[base + d2 * stride] += p * w;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            std::mem::swap(&mut self.scratch, &mut self.scratch2);
        }
    }
}

/// A closure view over the stream's CPT for step `t-1 → t`, falling back to
/// all-⊥ beyond the recorded end.
fn markov_cpt(stream: &Stream, t: u32) -> impl Fn(usize, usize) -> f64 + '_ {
    let bottom = stream.domain().bottom();
    let cpt = match stream.data() {
        StreamData::Markov { cpts, .. } => cpts.get((t as usize).wrapping_sub(1)),
        StreamData::Independent(_) => None,
    };
    move |d_next, d_prev| match cpt {
        Some(c) => c.get(d_next, d_prev),
        None => {
            if d_next == bottom {
                1.0
            } else {
                0.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lahar_model::StreamBuilder;
    use lahar_query::{parse_query, NormalQuery};

    fn scans() -> u64 {
        ACCEPT_SCAN_STATES.with(|c| c.get())
    }

    fn indep_db() -> Database {
        let mut db = Database::new();
        db.declare_stream("At", &["person"], &["loc"]).unwrap();
        let i = db.interner().clone();
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

    /// A Markov `joe` stream beside an independent `sue` stream, eight
    /// ticks each: chains over both run in Markov mode and exercise both
    /// hidden-evolution branches.
    fn markov_db() -> Database {
        let mut db = Database::new();
        db.declare_stream("At", &["person"], &["loc"]).unwrap();
        let i = db.interner().clone();
        let joe = StreamBuilder::new(&i, "At", &["joe"], &["a", "h", "c"]);
        let init = joe.marginal(&[("a", 0.7), ("h", 0.2)]).unwrap();
        let cpts = [
            [0.5, 0.4, 0.3, 0.5, 0.1, 0.8, 0.1],
            [0.3, 0.6, 0.2, 0.3, 0.4, 0.6, 0.3],
        ]
        .map(|[aa, ah, hh, hc, ha, cc, ch]| {
            joe.cpt(&[
                ("a", "a", aa),
                ("a", "h", ah),
                ("h", "h", hh),
                ("h", "c", hc),
                ("h", "a", ha),
                ("c", "c", cc),
                ("c", "h", ch),
            ])
            .unwrap()
        });
        let cpts = (0..7).map(|t| cpts[t % 2].clone()).collect();
        db.add_stream(joe.markov(init, cpts).unwrap()).unwrap();
        let sue = StreamBuilder::new(&i, "At", &["sue"], &["a", "c"]);
        let ms = [(0.3, 0.1), (0.0, 0.6), (0.2, 0.7), (0.0, 0.9), (0.5, 0.3)]
            .iter()
            .cycle()
            .take(8)
            .map(|&(a, c)| sue.marginal(&[("a", a), ("c", c)]).unwrap())
            .collect();
        db.add_stream(sue.independent(ms).unwrap()).unwrap();
        db
    }

    /// Markov-mode answers, pinned bit for bit: the mass layout follows
    /// local discovery order and each step accumulates in (state
    /// ascending, hidden value ascending) order, so a change to either
    /// shows up here. Each tick records the accept probability, and for
    /// the drained case also the drained and the remaining mass. Runs two
    /// ticks past the recorded end (all-⊥).
    #[test]
    fn markov_series_bits_are_pinned() {
        let db = markov_db();
        let cases: [(&str, bool, &[u64]); 3] = [
            (
                "At('joe','a') ; At('joe','h') ; At('sue','c')",
                false,
                &[
                    0,
                    0,
                    4596229664506252362,
                    4598632785267417260,
                    4585697265393066971,
                    4580880838962165482,
                    4593506469492511070,
                    4591159073827212286,
                    0,
                    0,
                ],
            ),
            (
                "At('joe','h') ; At('sue','a') ; At('joe','c') ; At('sue','c')",
                false,
                &[
                    0,
                    0,
                    0,
                    0,
                    4577538501073566160,
                    4569572159353184230,
                    4591645707691162652,
                    4590838821349688641,
                    0,
                    0,
                ],
            ),
            (
                "At('joe','a') ; At('sue','c')",
                true,
                &[
                    0,
                    0,
                    4607182418800017408,
                    4601237667291888353,
                    4601237667291888353,
                    4603399395113026192,
                    4596734067664517858,
                    4596734067664517858,
                    4600336947366414258,
                    4592057529811456338,
                    4592057529811456338,
                    4598488670079341403,
                    4572045694795242988,
                    4572045694795242989,
                    4598404362694317029,
                    4566441919822101409,
                    4566441919822101410,
                    4598369991221960937,
                    4578099512677707851,
                    4578099512677707850,
                    4598130644717604556,
                    4576710611199538074,
                    4576710611199538073,
                    4597783332878949269,
                    0,
                    0,
                    4597783332878949269,
                    0,
                    0,
                    4597783332878949269,
                ],
            ),
        ];
        for (src, drained, want) in cases {
            let q = parse_query(db.interner(), src).unwrap();
            let nq = NormalQuery::from_query(&q);
            let mut chain = ChainEvaluator::new(&db, &nq.items).unwrap();
            assert!(!chain.is_independent());
            let mut got = Vec::new();
            for _ in 0..10 {
                got.push(chain.step(&db).to_bits());
                if drained {
                    got.push(chain.drain_accepting().to_bits());
                    got.push(chain.tracked_mass().to_bits());
                }
            }
            assert_eq!(got, want, "{src}");
        }
    }

    /// Both modes step through the same registry automaton: a Markov
    /// chain and an independent chain of one query hold one `Arc`.
    #[test]
    fn markov_and_independent_chains_share_one_automaton() {
        let src = "At('joe','a') ; At('joe','h')";
        let chain_over = |db: &Database| {
            let q = parse_query(db.interner(), src).unwrap();
            ChainEvaluator::new(db, &NormalQuery::from_query(&q).items).unwrap()
        };
        let (markov, indep) = (markov_db(), indep_db());
        let (mut markov, indep) = (chain_over(&markov), chain_over(&indep));
        assert!(!markov.is_independent() && indep.is_independent());
        assert!(Arc::ptr_eq(
            markov.local.automaton(),
            indep.local.automaton()
        ));
        markov.step(&markov_db());
        assert!(
            markov.n_dfa_states() > 1,
            "the Markov step discovered no state"
        );
    }

    /// `accept_prob` must be a cached read: the accepting scan runs once
    /// per consumed tick (bounded by the accepting-state count), and
    /// repeated reads between ticks never rescan the mass vector. The
    /// scan counter makes that observable without timing anything.
    #[test]
    fn accept_prob_reads_never_rescan() {
        let db = indep_db();
        let q = parse_query(db.interner(), "At('joe', 'a') ; At('joe', 'h')").unwrap();
        let nq = NormalQuery::from_query(&q);
        let mut chain = ChainEvaluator::new(&db, &nq.items).unwrap();

        let mut per_step = Vec::new();
        for _ in 0..db.horizon() {
            let before = scans();
            let p = chain.step(&db);
            let after_step = scans();
            per_step.push(after_step - before);

            // Reads are O(1): hammering accept_prob touches zero states.
            for _ in 0..1000 {
                assert_eq!(chain.accept_prob(), p);
            }
            assert_eq!(
                scans(),
                after_step,
                "accept_prob() rescanned the mass vector"
            );
        }

        // Per-tick scan work is bounded by the DFA's accepting-state
        // count, not the stream length: the per-step cost never grows.
        let bound = per_step[0].max(1);
        for (t, &d) in per_step.iter().enumerate() {
            assert!(
                d <= bound,
                "tick {t} scanned {d} states, more than the first tick's {bound}"
            );
        }
    }

    /// The frame is a transpose: across a block boundary, with unequal
    /// domains and with full blocks of equal ones, row `d` holds every
    /// stream's outcome `d` (`+0.0` past a shorter domain) and each
    /// stream reads back exactly its marginal, also after a refill.
    #[test]
    fn tick_frame_is_outcome_major() {
        for lens in [
            (0..19).map(|s| 2 + s % 4).collect::<Vec<usize>>(),
            (0..19).map(|s| if s < 16 { 5 } else { 3 }).collect(),
        ] {
            check_frame_transpose(lens);
        }
    }

    fn check_frame_transpose(lens: Vec<usize>) {
        let mut frame = TickFrame::new(lens.clone());
        for round in 0..2 {
            let marginals: Vec<Vec<f64>> = lens
                .iter()
                .enumerate()
                .map(|(s, &len)| {
                    (0..len)
                        .map(|d| (round * 1000 + s * 10 + d) as f64)
                        .collect()
                })
                .collect();
            frame.fill(|s| &marginals[s]);
            for d in 0..5 {
                for (s, marginal) in marginals.iter().enumerate() {
                    let want = marginal.get(d).copied().unwrap_or(0.0);
                    assert_eq!(frame.row(d)[s].to_bits(), want.to_bits(), "d={d} s={s}");
                }
            }
            for (s, marginal) in marginals.iter().enumerate() {
                assert_eq!(&frame.stream(s).collect::<Vec<_>>(), marginal);
            }
        }
    }

    /// The batched SoA commit hands the chain a precomputed accepting
    /// sum; committing must not trigger a fresh scan either.
    #[test]
    fn soa_commit_does_not_rescan() {
        let db = indep_db();
        let q = parse_query(db.interner(), "At('joe', 'a') ; At('joe', 'h')").unwrap();
        let nq = NormalQuery::from_query(&q);
        let mut chain = ChainEvaluator::new(&db, &nq.items).unwrap();
        chain.step(&db); // discover states so the mass vector is real

        let n = match &chain.repr {
            Repr::Indep(k) => k.mass.len(),
            Repr::Markov(_) => unreachable!(),
        };
        let next = vec![0.5; n];
        let before = scans();
        chain.soa_write_back(&next, 0, 1, 0.25, 3);
        assert_eq!(scans(), before);
        assert_eq!(chain.accept_prob(), 0.25);
        assert_eq!(chain.next_t(), 4);
    }

    /// A single-stream chain's projection reproduces the union
    /// convolution bit for bit, entries included: signed zeros, tiny
    /// negatives that cancel to a zero sum, and outcomes sharing a
    /// symbol set.
    #[test]
    fn projection_matches_union_convolution() {
        let a = SymbolSet(0b01);
        let c = SymbolSet(0b10);
        let syms = [a, SymbolSet::EMPTY, a, c, SymbolSet::EMPTY];
        let proj = Projection::new(&syms);
        assert_eq!(proj.support, vec![SymbolSet::EMPTY, a, c]);
        let cases: [[f64; 5]; 4] = [
            [0.25, 0.5, 0.125, 0.0, 0.125],
            [-0.0, 0.0, -0.0, 1.0, 0.0],
            [1e-7, 0.0, -1e-7, 0.3, 0.7],
            [0.1, 0.2, 0.3, 0.15, 0.25],
        ];
        let (mut got, mut hit) = (Vec::new(), Vec::new());
        let (mut want, mut tmp) = (Vec::new(), Vec::new());
        for probs in cases {
            proj.fill(probs.iter().copied(), &mut got, &mut hit);
            want.clear();
            want.push((SymbolSet::EMPTY, 1.0));
            convolve_stream(probs.iter().copied(), &syms, &mut want, &mut tmp);
            let bits = |d: &[(SymbolSet, f64)]| -> Vec<(u64, u64)> {
                d.iter().map(|(s, p)| (s.0, p.to_bits())).collect()
            };
            assert_eq!(bits(&got), bits(&want), "{probs:?}");
        }
    }
}
