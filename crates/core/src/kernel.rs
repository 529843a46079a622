//! Compiled dense kernels every chain steps through, in both modes.
//!
//! Three cooperating pieces turn the interpreted per-chain automaton walk
//! into table lookups (the classic NFA-interpreter → compiled-DFA jump):
//!
//! * [`SharedAutomaton`] — one append-only, on-the-fly-determinized DFA
//!   per query *structure*, shared behind an `Arc` by every grounded
//!   binding (and, via a global registry keyed by the compiled regex,
//!   across queries and sessions with the same shape). Once no new DFA
//!   state or symbol set has been discovered for
//!   [`FREEZE_AFTER_QUIET`] resolutions, the automaton freezes into a
//!   dense `next[q * n_slots + slot]` transition table with a
//!   precomputed accepting mask; a novel symbol set or state simply
//!   misses the table and falls back to the mutex-protected
//!   interpreter, which refreezes once things go quiet again.
//! * [`LocalDfa`] — each chain's *private* view of the shared automaton.
//!   Chains keep their own dense state numbering in **local discovery
//!   order** (exactly the ids a private determinization of the chain's
//!   own steps would assign), so mass-vector layout, float accumulation order, and
//!   checkpointed `dfa_sets` stay bit-identical to the interpreted
//!   path and independent of how many chains share the automaton or
//!   which worker thread touched it first. The local dense table
//!   `trans[q * stride + slot]` is the per-step fast path: no locks, no
//!   hashing, one bounds-checked load.
//! * [`SymCache`] + [`SigKey`] — chains whose `(streams, symbol table)`
//!   signature matches compute identical per-tick symbol distributions;
//!   the session computes each distinct distribution once per tick and
//!   shares the flat sorted `Vec<(SymbolSet, f64)>` across every chain
//!   in the registry.

use lahar_automata::{BitSet, Nfa, SymbolSet};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, RwLock, Weak};

/// Sentinel for "not yet resolved" in dense transition tables.
pub(crate) const UNKNOWN: u32 = u32::MAX;

/// Consecutive interpreter resolutions without a new DFA state or symbol
/// slot after which the shared automaton freezes into a dense table.
pub(crate) const FREEZE_AFTER_QUIET: u32 = 64;

/// Upper bound on DFA states a freeze will close over; automata larger
/// than this stay on the interpreter (the dense grid would be wasteful).
const FREEZE_STATE_CAP: usize = 4096;

/// Which path resolved a transition that missed the local dense table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Via {
    /// Served lock-free from the frozen dense table.
    Frozen,
    /// Served by the mutex-protected on-the-fly interpreter.
    Interpreter,
}

/// Per-chain kernel path counters, harvested each tick by the session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct KernelCounters {
    /// Transitions served by the chain's local dense table.
    pub fast: u64,
    /// Transitions served by the shared frozen table.
    pub frozen: u64,
    /// Transitions that took the interpreter (mutex) path.
    pub slow: u64,
    /// Lane-transitions routed by the batched struct-of-arrays kernel
    /// (scalar flat-loop dispatch).
    pub soa: u64,
    /// Lane-transitions routed by the batched kernel's explicit SIMD
    /// dispatch (AVX2/SSE2).
    pub simd: u64,
}

impl KernelCounters {
    pub(crate) fn add(&mut self, other: KernelCounters) {
        self.fast += other.fast;
        self.frozen += other.frozen;
        self.slow += other.slow;
        self.soa += other.soa;
        self.simd += other.simd;
    }
}

/// Aggregated kernel telemetry for one shard-step (or one tick).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KernelTickStats {
    /// Dense/frozen/interpreter transition counts.
    pub steps: KernelCounters,
    /// Symbol-distribution cache hits.
    pub sym_hits: u64,
    /// Symbol-distribution cache misses (distributions computed).
    pub sym_misses: u64,
}

impl KernelTickStats {
    pub(crate) fn add(&mut self, other: &KernelTickStats) {
        self.steps.add(other.steps);
        self.sym_hits += other.sym_hits;
        self.sym_misses += other.sym_misses;
    }
}

// ---------------------------------------------------------------------------
// Shared automaton
// ---------------------------------------------------------------------------

/// Mutex-protected mutable core of a [`SharedAutomaton`]: the on-the-fly
/// determinization state, shared by all chains bound to this automaton.
/// State and slot ids here are *shared* ids; chains remap them to local
/// discovery order (see [`LocalDfa`]) so nothing observable depends on
/// the cross-chain interleaving of discoveries.
#[derive(Debug)]
struct SharedDfa {
    sets: Vec<BitSet>,
    ids: HashMap<BitSet, u32>,
    /// `(shared state, shared slot) -> shared state` memo.
    trans: HashMap<(u32, u32), u32>,
    accepting: Vec<bool>,
    slot_ids: HashMap<SymbolSet, u32>,
    slot_syms: Vec<SymbolSet>,
    /// Interpreter resolutions since the last new state/slot discovery.
    quiet: u32,
    /// Set when the automaton is too large to freeze densely.
    freeze_disabled: bool,
}

impl SharedDfa {
    /// Interns `sym`, returning its shared slot id.
    fn slot_locked(&mut self, sym: SymbolSet) -> u32 {
        match self.slot_ids.get(&sym) {
            Some(&s) => s,
            None => {
                let id = self.slot_syms.len() as u32;
                self.slot_syms.push(sym);
                self.slot_ids.insert(sym, id);
                self.quiet = 0;
                id
            }
        }
    }

    /// The memoized transition `δ(q, slot)`, discovering states as needed.
    fn resolve_slot_locked(&mut self, nfa: &Nfa, q: u32, slot: u32) -> (u32, bool) {
        if let Some(&q2) = self.trans.get(&(q, slot)) {
            self.quiet = self.quiet.saturating_add(1);
            return (q2, self.accepting[q2 as usize]);
        }
        let next = nfa.step(&self.sets[q as usize], self.slot_syms[slot as usize]);
        let id = match self.ids.get(&next) {
            Some(&id) => id,
            None => {
                let id = self.sets.len() as u32;
                self.accepting.push(nfa.is_accepting(&next));
                self.ids.insert(next.clone(), id);
                self.sets.push(next);
                self.quiet = 0;
                id
            }
        };
        self.trans.insert((q, slot), id);
        (id, self.accepting[id as usize])
    }
}

/// Frozen dense compilation of a [`SharedDfa`] snapshot: complete over
/// its `n_states × n_slots` grid, so any in-bounds hit is a valid
/// transition forever (DFA transitions never change, the automaton only
/// grows). Novel states or symbol sets miss the bounds/slot lookup and
/// fall back to the interpreter.
#[derive(Debug)]
struct FrozenTable {
    /// `next[q * n_slots + slot]` — shared state ids.
    next: Vec<u32>,
    /// Accepting mask per shared state id.
    accepting: Vec<bool>,
    n_states: usize,
    n_slots: usize,
    slot_ids: HashMap<SymbolSet, u32>,
}

/// An `Arc`-shared, append-only compiled automaton: one per distinct
/// query structure, shared by every grounded binding of that structure.
#[derive(Debug)]
pub(crate) struct SharedAutomaton {
    nfa: Nfa,
    inner: Mutex<SharedDfa>,
    frozen: RwLock<Option<Arc<FrozenTable>>>,
}

impl SharedAutomaton {
    pub(crate) fn new(nfa: Nfa) -> Self {
        let initial = nfa.initial().clone();
        let accepting = vec![nfa.is_accepting(&initial)];
        let inner = SharedDfa {
            ids: HashMap::from([(initial.clone(), 0)]),
            sets: vec![initial],
            trans: HashMap::new(),
            accepting,
            slot_ids: HashMap::new(),
            slot_syms: Vec::new(),
            quiet: 0,
            freeze_disabled: false,
        };
        Self {
            nfa,
            inner: Mutex::new(inner),
            frozen: RwLock::new(None),
        }
    }

    pub(crate) fn nfa(&self) -> &Nfa {
        &self.nfa
    }

    /// Whether the initial state (shared id 0) is accepting.
    pub(crate) fn initial_accepting(&self) -> bool {
        self.inner.lock().unwrap().accepting[0]
    }

    /// True once a frozen dense table has been built (test aid).
    #[cfg(test)]
    pub(crate) fn is_frozen(&self) -> bool {
        self.frozen.read().unwrap().is_some()
    }

    /// Resolves `δ(q, sym)` for a shared state id, preferring the frozen
    /// dense table when allowed. Returns the shared successor id, its
    /// accepting bit, and which path served the lookup.
    pub(crate) fn resolve(&self, q: u32, sym: SymbolSet, allow_frozen: bool) -> (u32, bool, Via) {
        if allow_frozen {
            if let Some(f) = self.frozen.read().unwrap().as_ref() {
                if let Some(&slot) = f.slot_ids.get(&sym) {
                    if (q as usize) < f.n_states {
                        let q2 = f.next[q as usize * f.n_slots + slot as usize];
                        return (q2, f.accepting[q2 as usize], Via::Frozen);
                    }
                }
            }
        }
        let mut inner = self.inner.lock().unwrap();
        let slot = inner.slot_locked(sym);
        let (q2, acc) = inner.resolve_slot_locked(&self.nfa, q, slot);
        if inner.quiet >= FREEZE_AFTER_QUIET {
            self.refreeze(&mut inner);
        }
        (q2, acc, Via::Interpreter)
    }

    /// Builds (or extends) the frozen dense table: closes the transition
    /// grid over every known `(state, slot)` pair — which may itself
    /// discover states — then snapshots it densely.
    fn refreeze(&self, inner: &mut SharedDfa) {
        inner.quiet = 0;
        if inner.freeze_disabled {
            return;
        }
        if let Some(f) = self.frozen.read().unwrap().as_ref() {
            if f.n_states >= inner.sets.len() && f.n_slots >= inner.slot_syms.len() {
                return; // nothing new since the last freeze
            }
        }
        let mut q = 0;
        while q < inner.sets.len() {
            if inner.sets.len() > FREEZE_STATE_CAP {
                inner.freeze_disabled = true;
                return;
            }
            for slot in 0..inner.slot_syms.len() as u32 {
                inner.resolve_slot_locked(&self.nfa, q as u32, slot);
            }
            q += 1;
        }
        let (n_states, n_slots) = (inner.sets.len(), inner.slot_syms.len());
        let mut next = vec![UNKNOWN; n_states * n_slots];
        for q in 0..n_states as u32 {
            for slot in 0..n_slots as u32 {
                next[q as usize * n_slots + slot as usize] = inner.trans[&(q, slot)];
            }
        }
        let table = FrozenTable {
            next,
            accepting: inner.accepting.clone(),
            n_states,
            n_slots,
            slot_ids: inner.slot_ids.clone(),
        };
        *self.frozen.write().unwrap() = Some(Arc::new(table));
        inner.quiet = 0;
    }

    /// Interns a state set (checkpoint restore), returning its shared id
    /// and accepting bit.
    fn intern_set(&self, bits: BitSet) -> (u32, bool) {
        let mut inner = self.inner.lock().unwrap();
        match inner.ids.get(&bits) {
            Some(&id) => (id, inner.accepting[id as usize]),
            None => {
                let id = inner.sets.len() as u32;
                let acc = self.nfa.is_accepting(&bits);
                inner.accepting.push(acc);
                inner.ids.insert(bits.clone(), id);
                inner.sets.push(bits);
                inner.quiet = 0;
                (id, acc)
            }
        }
    }

    /// The NFA state indices of shared state `id`, sorted ascending
    /// (checkpoint export).
    fn set_bits(&self, id: u32) -> Vec<u32> {
        self.inner.lock().unwrap().sets[id as usize]
            .iter()
            .map(|i| i as u32)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Global automaton registry
// ---------------------------------------------------------------------------

static REGISTRY: OnceLock<Mutex<HashMap<String, Weak<SharedAutomaton>>>> = OnceLock::new();

/// Returns the shared automaton for a query structure (keyed by its
/// compiled regex), building it on first use. Returns `(automaton,
/// reused)` where `reused` is true when an existing automaton was
/// attached rather than compiled fresh.
pub(crate) fn shared_automaton(
    key: &str,
    build: impl FnOnce() -> Nfa,
) -> (Arc<SharedAutomaton>, bool) {
    let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = registry.lock().unwrap();
    if let Some(existing) = map.get(key).and_then(Weak::upgrade) {
        return (existing, true);
    }
    let automaton = Arc::new(SharedAutomaton::new(build()));
    map.insert(key.to_owned(), Arc::downgrade(&automaton));
    // Opportunistically drop entries whose automata have been dropped.
    map.retain(|_, w| w.strong_count() > 0);
    (automaton, false)
}

// ---------------------------------------------------------------------------
// Per-chain local view
// ---------------------------------------------------------------------------

/// A chain's private dense view of a [`SharedAutomaton`].
///
/// Local state ids are assigned in **this chain's** discovery order —
/// identical to what a private determinization of its own steps would
/// assign — so the mass vector layout, accumulation order, and
/// checkpointed `dfa_sets` are independent of sharing. `trans[q * stride + slot]` (local ids on
/// both axes) is the allocation- and lock-free fast path.
#[derive(Debug, Clone)]
pub(crate) struct LocalDfa {
    shared: Arc<SharedAutomaton>,
    /// Local id -> shared id, in local discovery order (0 = initial).
    local_to_shared: Vec<u32>,
    /// Shared id -> local id ([`UNKNOWN`] = not seen by this chain).
    shared_to_local: Vec<u32>,
    /// Accepting mask per local id, packed 64 states per word
    /// (bit `q % 64` of word `q / 64`).
    acc_words: Vec<u64>,
    /// Bumped whenever the local state numbering changes (new state
    /// discovered or a checkpoint import rebuilt it). The SoA planner
    /// keys its cached plan on this, so a stale batch layout can never
    /// be applied.
    layout_version: u64,
    /// Dense transitions: `trans[q * stride + slot]`, [`UNKNOWN`] = miss.
    trans: Vec<u32>,
    stride: usize,
    /// Sorted `(symbol set, local slot)` for branch-free binary lookup.
    slot_ids: Vec<(SymbolSet, u32)>,
    /// Local slot -> symbol set.
    slot_syms: Vec<SymbolSet>,
    /// Test hook: bypass both dense tables, forcing every transition
    /// through the shared interpreter (identical results, no compilation).
    force_interpreter: bool,
    counters: KernelCounters,
    /// `(layout_version stamp, fingerprint)` memo for
    /// [`LocalDfa::layout_fp`]: the SoA planner fingerprints every
    /// chain's numbering every tick, and the numbering only changes when
    /// `layout_version` bumps. `u64::MAX` stamp = not yet computed.
    fp_memo: std::cell::Cell<(u64, u64)>,
}

const INITIAL_STRIDE: usize = 4;

/// Sets or clears bit `q` in a packed accepting mask, growing it to
/// cover `q`.
fn set_acc_bit(words: &mut Vec<u64>, q: usize, accepting: bool) {
    let w = q / 64;
    if w >= words.len() {
        words.resize(w + 1, 0);
    }
    if accepting {
        words[w] |= 1u64 << (q % 64);
    } else {
        words[w] &= !(1u64 << (q % 64));
    }
}

impl LocalDfa {
    pub(crate) fn new(shared: Arc<SharedAutomaton>) -> Self {
        let mut acc_words = Vec::new();
        set_acc_bit(&mut acc_words, 0, shared.initial_accepting());
        Self {
            shared,
            local_to_shared: vec![0],
            shared_to_local: vec![0],
            acc_words,
            layout_version: 0,
            trans: vec![UNKNOWN; INITIAL_STRIDE],
            stride: INITIAL_STRIDE,
            slot_ids: Vec::new(),
            slot_syms: Vec::new(),
            force_interpreter: false,
            counters: KernelCounters::default(),
            fp_memo: std::cell::Cell::new((u64::MAX, 0)),
        }
    }

    pub(crate) fn automaton(&self) -> &Arc<SharedAutomaton> {
        &self.shared
    }

    pub(crate) fn n_states(&self) -> usize {
        self.local_to_shared.len()
    }

    pub(crate) fn is_accepting(&self, q: u32) -> bool {
        (self.acc_words[q as usize / 64] >> (q % 64)) & 1 != 0
    }

    /// Packed accepting mask: bit `q % 64` of word `q / 64` is set when
    /// local state `q` accepts.
    pub(crate) fn accepting_mask(&self) -> &[u64] {
        &self.acc_words
    }

    /// Local ids in discovery order → shared ids (the lane-layout
    /// identity the SoA batcher groups on).
    pub(crate) fn local_to_shared(&self) -> &[u32] {
        &self.local_to_shared
    }

    /// The local id of a shared state if this chain has discovered it,
    /// without assigning one (the batcher must never mutate numbering).
    pub(crate) fn peek_local(&self, shared_id: u32) -> Option<u32> {
        match self.shared_to_local.get(shared_id as usize) {
            Some(&l) if l != UNKNOWN => Some(l),
            _ => None,
        }
    }

    /// FNV-1a fingerprint of `local_to_shared`, memoized against
    /// `layout_version` (equal fingerprints are confirmed by exact slice
    /// comparison wherever grouping decisions depend on them).
    pub(crate) fn layout_fp(&self) -> u64 {
        let (stamp, fp) = self.fp_memo.get();
        if stamp == self.layout_version {
            return fp;
        }
        let mut h: u64 = 0xcbf29ce484222325;
        for &v in &self.local_to_shared {
            h ^= u64::from(v);
            h = h.wrapping_mul(0x100000001b3);
        }
        self.fp_memo.set((self.layout_version, h));
        h
    }

    /// Monotone stamp of the local numbering; see `layout_version` docs.
    /// The SoA planner keeps a shard's plan while every chain's stamp is
    /// unchanged ([`crate::chain::ChainEvaluator::soa_stamp`]).
    pub(crate) fn layout_version(&self) -> u64 {
        self.layout_version
    }

    pub(crate) fn forces_interpreter(&self) -> bool {
        self.force_interpreter
    }

    pub(crate) fn set_force_interpreter(&mut self, on: bool) {
        self.force_interpreter = on;
    }

    pub(crate) fn take_counters(&mut self) -> KernelCounters {
        std::mem::take(&mut self.counters)
    }

    /// Interns a symbol set to its local slot id.
    pub(crate) fn slot_of(&mut self, sym: SymbolSet) -> u32 {
        match self.slot_ids.binary_search_by_key(&sym.0, |&(s, _)| s.0) {
            Ok(i) => self.slot_ids[i].1,
            Err(i) => {
                let id = self.slot_syms.len() as u32;
                self.slot_syms.push(sym);
                self.slot_ids.insert(i, (sym, id));
                if self.slot_syms.len() > self.stride {
                    self.grow_stride();
                }
                id
            }
        }
    }

    fn grow_stride(&mut self) {
        let new_stride = (self.stride * 2).max(INITIAL_STRIDE);
        let n = self.local_to_shared.len();
        let mut trans = vec![UNKNOWN; n * new_stride];
        for q in 0..n {
            trans[q * new_stride..q * new_stride + self.stride]
                .copy_from_slice(&self.trans[q * self.stride..(q + 1) * self.stride]);
        }
        self.trans = trans;
        self.stride = new_stride;
    }

    /// Maps a shared state id to this chain's local numbering, assigning
    /// the next local id on first sight (local discovery order).
    fn local_of(&mut self, shared_id: u32, accepting: bool) -> u32 {
        let si = shared_id as usize;
        if si >= self.shared_to_local.len() {
            self.shared_to_local.resize(si + 1, UNKNOWN);
        }
        let cur = self.shared_to_local[si];
        if cur != UNKNOWN {
            return cur;
        }
        let id = self.local_to_shared.len() as u32;
        self.local_to_shared.push(shared_id);
        set_acc_bit(&mut self.acc_words, id as usize, accepting);
        self.shared_to_local[si] = id;
        self.trans.extend(std::iter::repeat_n(UNKNOWN, self.stride));
        self.layout_version += 1;
        id
    }

    /// The transition `δ(q, slot)` in local ids: dense-table hit when
    /// compiled, shared frozen table or interpreter otherwise.
    #[inline]
    pub(crate) fn step(&mut self, q: u32, slot: u32) -> u32 {
        let idx = q as usize * self.stride + slot as usize;
        if !self.force_interpreter {
            let t = self.trans[idx];
            if t != UNKNOWN {
                self.counters.fast += 1;
                return t;
            }
        }
        let sym = self.slot_syms[slot as usize];
        let shared_q = self.local_to_shared[q as usize];
        let (sq2, acc, via) = self.shared.resolve(shared_q, sym, !self.force_interpreter);
        match via {
            Via::Frozen => self.counters.frozen += 1,
            Via::Interpreter => self.counters.slow += 1,
        }
        let q2 = self.local_of(sq2, acc);
        if !self.force_interpreter {
            self.trans[q as usize * self.stride + slot as usize] = q2;
        }
        q2
    }

    /// Exports local state sets (sorted NFA state indices) in local
    /// discovery order.
    pub(crate) fn export_sets(&self) -> Vec<Vec<u32>> {
        self.local_to_shared
            .iter()
            .map(|&sid| self.shared.set_bits(sid))
            .collect()
    }

    /// Re-interns checkpointed state sets (original local discovery
    /// order), rebuilding the local numbering so restored chains are
    /// bit-identical to the exporter. Dense memos are dropped; they
    /// re-resolve lazily with identical results.
    pub(crate) fn import_sets(&mut self, sets: &[Vec<u32>]) -> Result<(), String> {
        let n_nfa = self.shared.nfa().n_states();
        let mut local_to_shared = Vec::with_capacity(sets.len());
        let mut accepting = Vec::with_capacity(sets.len());
        for (idx, states) in sets.iter().enumerate() {
            let mut bs = BitSet::new(n_nfa);
            for &s in states {
                if s as usize >= n_nfa {
                    return Err(format!(
                        "DFA set {idx} references NFA state {s} but the automaton has {n_nfa}"
                    ));
                }
                bs.insert(s as usize);
            }
            if idx == 0 && bs != *self.shared.nfa().initial() {
                return Err(
                    "checkpointed DFA sets do not start with this automaton's initial set"
                        .to_owned(),
                );
            }
            let (sid, acc) = self.shared.intern_set(bs);
            if local_to_shared.contains(&sid) {
                return Err("checkpointed DFA sets contain duplicates".to_owned());
            }
            local_to_shared.push(sid);
            accepting.push(acc);
        }
        if local_to_shared.is_empty() {
            return Err(
                "checkpointed DFA sets do not start with this automaton's initial set".to_owned(),
            );
        }
        let max_shared = *local_to_shared.iter().max().unwrap() as usize;
        let mut shared_to_local = vec![UNKNOWN; max_shared + 1];
        for (local, &sid) in local_to_shared.iter().enumerate() {
            shared_to_local[sid as usize] = local as u32;
        }
        self.trans = vec![UNKNOWN; local_to_shared.len() * self.stride];
        self.acc_words.clear();
        for (local, &acc) in accepting.iter().enumerate() {
            set_acc_bit(&mut self.acc_words, local, acc);
        }
        self.local_to_shared = local_to_shared;
        self.shared_to_local = shared_to_local;
        self.slot_ids.clear();
        self.slot_syms.clear();
        self.layout_version += 1;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Per-tick symbol-distribution cache
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct SigData {
    hash: u64,
    streams: Vec<usize>,
    syms: Vec<Vec<SymbolSet>>,
}

/// Hash-consed `(streams, symbol table)` signature of a chain: two
/// chains with equal signatures compute identical per-tick symbol
/// distributions from the same staged marginals.
#[derive(Debug, Clone)]
pub(crate) struct SigKey(Arc<SigData>);

impl SigKey {
    pub(crate) fn new(streams: &[usize], syms: &[Vec<SymbolSet>]) -> Self {
        // FNV-1a over the structure: deterministic across runs/threads.
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100000001b3);
        };
        mix(streams.len() as u64);
        for &s in streams {
            mix(s as u64);
        }
        for table in syms {
            mix(table.len() as u64);
            for sym in table {
                mix(sym.0);
            }
        }
        Self(Arc::new(SigData {
            hash: h,
            streams: streams.to_vec(),
            syms: syms.to_vec(),
        }))
    }

    /// The FNV-1a fingerprint (what [`SigHasher`] passes through).
    #[cfg(test)]
    pub(crate) fn fingerprint(&self) -> u64 {
        self.0.hash
    }

    /// Test-only: a key with a *forged* fingerprint, for exercising the
    /// equal-hash/different-content fallback in [`SigKey::eq`] that the
    /// pass-through [`SigHasher`] makes load-bearing.
    #[cfg(test)]
    pub(crate) fn forged(hash: u64, streams: &[usize], syms: &[Vec<SymbolSet>]) -> Self {
        Self(Arc::new(SigData {
            hash,
            streams: streams.to_vec(),
            syms: syms.to_vec(),
        }))
    }
}

impl PartialEq for SigKey {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.0.hash == other.0.hash
                && self.0.streams == other.0.streams
                && self.0.syms == other.0.syms)
    }
}
impl Eq for SigKey {}
impl std::hash::Hash for SigKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

/// Per-tick cache of symbol distributions keyed by chain signature.
/// Cleared (but not deallocated) at every tick; one instance lives per
/// sequential session and per worker thread.
/// Pass-through hasher for [`SymCache`]'s map: [`SigKey`] already carries
/// a well-mixed FNV-1a fingerprint, so re-hashing it through SipHash per
/// chain per tick is pure overhead on the hot path.
#[derive(Debug, Default)]
struct SigHasher(u64);

impl std::hash::Hasher for SigHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("SigKey hashes via write_u64 only");
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

#[derive(Debug, Default)]
pub(crate) struct SymCache {
    map: HashMap<SigKey, u32, std::hash::BuildHasherDefault<SigHasher>>,
    /// Arena of distributions; the first `live` entries are valid this tick.
    dists: Vec<Vec<(SymbolSet, f64)>>,
    live: usize,
    /// Scratch for union-convolution (reused across fills).
    tmp: Vec<(SymbolSet, f64)>,
    hits: u64,
    misses: u64,
}

impl SymCache {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Invalidates every entry (start of a tick), keeping allocations.
    pub(crate) fn begin_tick(&mut self) {
        self.map.clear();
        self.live = 0;
    }

    /// Looks up this tick's distribution for a signature.
    pub(crate) fn lookup(&mut self, key: &SigKey) -> Option<u32> {
        let found = self.map.get(key).copied();
        if found.is_some() {
            self.hits += 1;
        }
        found
    }

    /// Computes and stores a distribution via `fill(out, tmp)`.
    pub(crate) fn insert_with(
        &mut self,
        key: SigKey,
        fill: impl FnOnce(&mut Vec<(SymbolSet, f64)>, &mut Vec<(SymbolSet, f64)>),
    ) -> u32 {
        if self.live == self.dists.len() {
            self.dists.push(Vec::new());
        }
        let idx = self.live;
        let out = &mut self.dists[idx];
        out.clear();
        fill(out, &mut self.tmp);
        self.map.insert(key, idx as u32);
        self.live += 1;
        self.misses += 1;
        idx as u32
    }

    pub(crate) fn dist(&self, idx: u32) -> &[(SymbolSet, f64)] {
        &self.dists[idx as usize]
    }

    /// Drains the hit/miss counters accumulated since the last call.
    pub(crate) fn take_counters(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.hits),
            std::mem::take(&mut self.misses),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lahar_automata::Regex;

    fn sample_automaton() -> Arc<SharedAutomaton> {
        // .* ; {bit0} ; {bit1} — a two-step sequence over match bits.
        let regex = Regex::any_star()
            .then(Regex::superset(SymbolSet(0b01)))
            .then(Regex::superset(SymbolSet(0b10)));
        Arc::new(SharedAutomaton::new(Nfa::compile(&regex)))
    }

    #[test]
    fn local_ids_follow_local_discovery_order() {
        let shared = sample_automaton();
        let mut a = LocalDfa::new(shared.clone());
        let mut b = LocalDfa::new(shared);
        let s0 = SymbolSet(0b01);
        let s1 = SymbolSet(0b10);
        // Chain a discovers via s0 first; chain b via s1 first. Their
        // local numbering must match what a private determinization would do.
        let a_slot0 = a.slot_of(s0);
        let a_q1 = a.step(0, a_slot0);
        let b_slot1 = b.slot_of(s1);
        let b_q1 = b.step(0, b_slot1);
        assert_eq!(a_q1, 1);
        assert_eq!(b_q1, 1);
        // But they can map to different shared ids.
        let a_sets = a.export_sets();
        let b_sets = b.export_sets();
        assert_eq!(a_sets.len(), 2);
        assert_eq!(b_sets.len(), 2);
        assert_ne!(a_sets[1], b_sets[1]);
    }

    /// The SoA planner keeps its cached plan while `layout_version` holds: it
    /// must bump on every numbering change (state discovery, checkpoint
    /// import) and stay put across read-only lookups like `peek_local`.
    #[test]
    fn layout_version_bumps_only_on_numbering_changes() {
        let shared = sample_automaton();
        let mut dfa = LocalDfa::new(shared);
        assert_eq!(dfa.layout_version(), 0);
        let slot = dfa.slot_of(SymbolSet(0b01));
        let q1 = dfa.step(0, slot);
        let after_discovery = dfa.layout_version();
        assert!(after_discovery > 0, "discovery must bump the version");
        // Read-only batcher probes leave the numbering alone.
        let shared_q1 = dfa.local_to_shared()[q1 as usize];
        assert_eq!(dfa.peek_local(shared_q1), Some(q1));
        let _ = dfa.accepting_mask();
        assert_eq!(dfa.layout_version(), after_discovery);
        // Re-stepping an already-discovered transition is also stable.
        let _ = dfa.step(0, slot);
        assert_eq!(dfa.layout_version(), after_discovery);
        // A checkpoint import rebuilds the numbering and must bump.
        let sets = dfa.export_sets();
        dfa.import_sets(&sets).unwrap();
        assert!(dfa.layout_version() > after_discovery);
    }

    #[test]
    fn dense_table_and_interpreter_agree() {
        let shared = sample_automaton();
        let mut fast = LocalDfa::new(shared.clone());
        let mut slow = LocalDfa::new(shared);
        slow.set_force_interpreter(true);
        let alphabet = [
            SymbolSet(0),
            SymbolSet(0b01),
            SymbolSet(0b10),
            SymbolSet(0b11),
        ];
        for round in 0..200u32 {
            let sym = alphabet[(round % 4) as usize];
            let (fs, ss) = (fast.slot_of(sym), slow.slot_of(sym));
            for q in 0..fast.n_states().min(slow.n_states()) as u32 {
                assert_eq!(fast.step(q, fs), slow.step(q, ss), "round {round} q {q}");
            }
        }
        let c = fast.take_counters();
        assert!(c.fast > 0, "dense path never hit: {c:?}");
        let c = slow.take_counters();
        assert_eq!(c.fast, 0, "forced interpreter used the dense path");
    }

    #[test]
    fn automaton_freezes_after_quiet_period() {
        let shared = sample_automaton();
        let mut chain = LocalDfa::new(shared.clone());
        let alphabet = [
            SymbolSet(0),
            SymbolSet(0b01),
            SymbolSet(0b10),
            SymbolSet(0b11),
        ];
        // A fresh chain per round defeats the local table, forcing the
        // shared path until the freeze threshold trips.
        for _ in 0..FREEZE_AFTER_QUIET + 8 {
            let mut fresh = LocalDfa::new(shared.clone());
            for sym in alphabet {
                let slot = fresh.slot_of(sym);
                let q = fresh.step(0, slot);
                let slot2 = fresh.slot_of(sym);
                fresh.step(q, slot2);
            }
        }
        assert!(shared.is_frozen());
        // Frozen answers must agree with this chain's (dense) answers.
        let mut frozen_hits = 0;
        let mut fresh = LocalDfa::new(shared);
        for sym in alphabet {
            let slot = fresh.slot_of(sym);
            let chain_slot = chain.slot_of(sym);
            assert_eq!(fresh.step(0, slot), chain.step(0, chain_slot));
            frozen_hits += fresh.take_counters().frozen;
        }
        assert!(frozen_hits > 0, "fresh chain never hit the frozen table");
    }

    #[test]
    fn registry_shares_by_key_and_drops_dead_entries() {
        let build = || Nfa::compile(&Regex::any_star().then(Regex::superset(SymbolSet(0b01))));
        let (a, a_reused) = shared_automaton("kernel-test-key-1", build);
        let (b, b_reused) = shared_automaton("kernel-test-key-1", build);
        assert!(!a_reused);
        assert!(b_reused);
        assert!(Arc::ptr_eq(&a, &b));
        drop((a, b));
        let (_c, c_reused) = shared_automaton("kernel-test-key-1", build);
        assert!(!c_reused, "dead registry entry was resurrected");
    }

    #[test]
    fn sym_cache_shares_by_signature() {
        let syms_a = vec![vec![SymbolSet(0b01), SymbolSet(0)]];
        let syms_b = vec![vec![SymbolSet(0b10), SymbolSet(0)]];
        let k1 = SigKey::new(&[0], &syms_a);
        let k2 = SigKey::new(&[0], &syms_a);
        let k3 = SigKey::new(&[0], &syms_b);
        assert_eq!(k1, k2);
        assert_ne!(k1, k3);
        let mut cache = SymCache::new();
        cache.begin_tick();
        assert!(cache.lookup(&k1).is_none());
        let idx = cache.insert_with(k1, |out, _| out.push((SymbolSet(0b01), 1.0)));
        assert_eq!(cache.lookup(&k2), Some(idx));
        assert!(cache.lookup(&k3).is_none());
        assert_eq!(cache.dist(idx), &[(SymbolSet(0b01), 1.0)]);
        let (hits, misses) = cache.take_counters();
        assert_eq!((hits, misses), (1, 1));
        cache.begin_tick();
        assert!(cache.lookup(&k2).is_none(), "cache must clear per tick");
    }

    mod sigkey_collisions {
        use super::*;
        use proptest::prelude::*;

        fn syms_strategy() -> impl Strategy<Value = Vec<Vec<SymbolSet>>> {
            prop::collection::vec(
                prop::collection::vec((0u64..16).prop_map(SymbolSet), 1..4),
                1..3,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The pass-through [`SigHasher`] forwards the FNV
            /// fingerprint straight into the map, so two signatures
            /// with equal fingerprints but different content land in
            /// the same bucket and only [`SigKey::eq`]'s content
            /// comparison keeps them apart. Forge that collision and
            /// assert the cache never conflates the distributions.
            #[test]
            fn equal_fingerprints_different_content_stay_distinct(
                streams_a in prop::collection::vec(0usize..8, 1..4),
                streams_b in prop::collection::vec(0usize..8, 1..4),
                syms_a in syms_strategy(),
                syms_b in syms_strategy(),
                hash in 0u64..u64::MAX,
            ) {
                if streams_a == streams_b && syms_a == syms_b {
                    return Ok(()); // not a collision, nothing to check
                }
                let ka = SigKey::forged(hash, &streams_a, &syms_a);
                let kb = SigKey::forged(hash, &streams_b, &syms_b);
                prop_assert_eq!(ka.fingerprint(), kb.fingerprint());
                prop_assert!(ka != kb, "forged keys compare equal");

                let mut cache = SymCache::new();
                cache.begin_tick();
                let ia = cache.insert_with(ka.clone(), |out, _| {
                    out.push((SymbolSet(0b01), 0.25));
                });
                // The colliding key must MISS, not alias onto ka's entry.
                prop_assert_eq!(cache.lookup(&kb), None);
                let ib = cache.insert_with(kb.clone(), |out, _| {
                    out.push((SymbolSet(0b10), 0.75));
                });
                prop_assert!(ia != ib, "colliding keys shared a cache slot");
                prop_assert_eq!(cache.lookup(&ka), Some(ia));
                prop_assert_eq!(cache.lookup(&kb), Some(ib));
                prop_assert_eq!(cache.dist(ia), &[(SymbolSet(0b01), 0.25)][..]);
                prop_assert_eq!(cache.dist(ib), &[(SymbolSet(0b10), 0.75)][..]);
            }
        }
    }
}
