//! Batched struct-of-arrays stepping for the session hot path.
//!
//! The scalar path steps one chain at a time: per chain, a symbol-cache
//! probe, a slot binary-search per distribution entry, and a
//! bounds-checked `step()` per `(state, slot)` pair. At ~1k chains per
//! tick the per-chain bookkeeping dominates the actual arithmetic.
//!
//! This module regroups the work *across* chains. Chains that share a
//! [`SharedAutomaton`] **and** the same local state numbering (identical
//! `local_to_shared`, hence identical accepting masks and identical
//! float accumulation order) are packed into one *batch*: a contiguous
//! mass matrix `mass[state][lane]` (lane = chain), a per-tick
//! probability matrix `pmat[dist_entry][lane]` over the *union* symbol
//! support, and one transition column per `(state, dist_entry)` resolved
//! once per batch instead of once per chain. The per-tick inner loop is
//! then a flat `next[q2][lane] += mass[q][lane] * pmat[di][lane]` over
//! lanes — autovectorizable, or dispatched to the explicit AVX2/SSE2
//! kernels in [`crate::simd`].
//!
//! # Per-tick work
//!
//! * **Plan once.** The partition into batches depends only on each
//!   chain's batch eligibility and local numbering, so a shard's plan is
//!   kept while every chain's [`ChainEvaluator::soa_stamp`] is unchanged
//!   — every tick once discovery has settled — and each batch keeps its
//!   cross-tick caches (shape, transition columns, resident mass).
//! * **Fill outcome-major, run by run.** Batches whose lanes each read
//!   one stream through the same outcome projection
//!   ([`crate::chain::Projection`]) fill `pmat` straight from the tick's
//!   [`TickFrame`]: for each outcome `d`, frame row `d` is added into
//!   `pmat` row `slot_of[d]`, one slice add per run of lanes whose
//!   streams are contiguous. A layout split (one query's lanes spread
//!   over two numberings) leaves holes in a group's streams; each hole
//!   only starts a new run. Every row is added, whatever it holds, and
//!   a slot's inputs are scanned for a nonzero only until the slot turns
//!   active.
//! * **Keep the state in the group.** A group that commits through the
//!   fused path keeps its `next` matrix and accepting sums as the truth
//!   and reports each lane's probability from them; its chains' mass,
//!   accepting mass and clock go stale. The next tick swaps the matrix
//!   back in without reading a chain. [`settle`] writes the state back
//!   into the chains before anything reads or moves them: a replan, a
//!   discovery or scalar fallback inside the group, and every access
//!   through [`crate::streaming::ChainSet::chains`] (checkpoint export,
//!   repartition, recovery, interpreter toggles).
//!
//! # Bit-identity
//!
//! The engine guarantees bit-identical results across stepping paths,
//! and batching preserves it *exactly*, not approximately:
//!
//! * Per lane, contributions to each target state are applied in
//!   `(state ascending, dist entry ascending)` order — the same order
//!   as the scalar loop, because each lane's distribution is a sorted
//!   subsequence of the sorted union support — and each `pmat` cell
//!   sums its outcomes in ascending order from `+0.0`, as the scalar
//!   projection does.
//! * Union-support entries a lane doesn't have get probability `+0.0`,
//!   and every frame row is added whether or not it holds a nonzero, so
//!   padding and zero outcomes only ever add `±0.0`. Every accumulator
//!   starts at `+0.0` and so is never `-0.0` (a sum that cancels rounds
//!   to `+0.0`), and adding `±0.0` to anything but `-0.0` changes no
//!   bit — padding is invisible, tiny negative probabilities (which
//!   `validate_dist` admits) included.
//! * Whether an entry is routed at all (`active`) comes from the inputs,
//!   not the sums: an entry whose nonzero inputs cancel to `+0.0` is
//!   still routed, as the scalar path routes it.
//! * A resident group's matrix holds exactly the columns a commit would
//!   have written to the chains, and each lane's probability is its
//!   accepting sum clamped as the chain would clamp it, so keeping the
//!   state in the group changes no bit.
//! * The SIMD kernels are element-wise multiply-then-add (never FMA),
//!   so each lane's arithmetic is IEEE-identical to scalar.
//!
//! A batch only takes the fast path when every transition out of an
//! *occupied* state lands in the lanes' existing local numbering. A
//! transition that would have to discover a new local state triggers a
//! per-lane discovery pass in the exact scalar order, after which the
//! batch retries; lanes whose numberings diverge are split into
//! sub-batches or stepped scalar for that tick. In steady state — the
//! automaton's reachable closure discovered, which the freeze
//! heuristics reach within a few ticks — every tick takes the fast path.

use crate::chain::{ChainEvaluator, Projection, TickFrame};
use crate::error::EngineError;
use crate::kernel::{KernelTickStats, SymCache, Via, UNKNOWN};
use crate::simd;
use lahar_automata::SymbolSet;
use std::time::Instant;

/// Below this many lanes a batch isn't worth its per-tick setup
/// (support merge + column resolution); such chains step scalar.
const MIN_LANES: usize = 4;

/// Lanes per route/accept/commit block: 64 lanes × 8 bytes = one 512 B
/// row segment, so a block's mass, next, and pmat rows all sit in L1
/// while every (state, support) pair is applied to it.
const LANE_BLOCK: usize = 64;

/// Reusable per-shard scratch for the batched path. Carried inside the
/// shard so allocations survive across ticks (and travel with the shard
/// to worker threads), and between ticks the state of resident groups
/// (see [`Group::pending`]).
///
/// The scratch belongs to one shard's chain list: the session gives a
/// shard a fresh scratch whenever it rebuilds the list (repartition,
/// restore, recovery), after settling the old one.
#[derive(Default)]
pub(crate) struct SoaScratch {
    groups: Vec<Group>,
    /// Chain indices stepped scalar (non-independent, forced
    /// interpreter, or in a group below [`MIN_LANES`]).
    singles: Vec<usize>,
    /// Per chain, its [`ChainEvaluator::soa_stamp`] when `groups` and
    /// `singles` were planned. The plan stands while every stamp still
    /// matches; empty means no plan.
    stamps: Vec<Option<u64>>,
    /// How many times a plan was built (read by unit tests).
    #[cfg(test)]
    plans_built: u64,
}

#[cfg(test)]
impl SoaScratch {
    /// The most ticks any group holds uncommitted to its chains.
    pub(crate) fn max_pending(&self) -> u32 {
        self.groups.iter().map(|g| g.pending).max().unwrap_or(0)
    }
}

/// One batch: chains sharing an automaton and a local state numbering.
#[derive(Default)]
struct Group {
    ptr: usize,
    layout_hash: u64,
    /// Fingerprint of the lanes' symbol-translation tables: chains of
    /// different queries sharing an automaton stay in separate groups.
    syms_hash: u64,
    /// Chain indices (shard order) — the lanes.
    lanes: Vec<usize>,
    /// `(query index, lane count)` per run of one query's lanes, for
    /// apportioning the group's wall time per query.
    lane_queries: Vec<(usize, u64)>,
    /// Per lane: this tick's distribution index in the symbol cache.
    dist_idx: Vec<u32>,
    /// Sorted union of the lanes' distribution supports.
    support: Vec<SymbolSet>,
    /// `pmat[di * lanes + lane]` — per-lane probability on the union
    /// support (`+0.0` where a lane lacks the entry).
    pmat: Vec<f64>,
    /// `cols[q * support + di]` — local target state, [`UNKNOWN`] when
    /// outside the lanes' numbering (legal only over zero-mass rows).
    /// Cached across ticks: fully determined by (automaton, layout
    /// contents, support contents), so it is reused as long as
    /// `cols_ptr` matches and the layout and support compare equal, and
    /// only columns newly active this tick still resolve.
    cols: Vec<u32>,
    /// Per support entry: was its `cols` column resolved (under the
    /// cached layout)? Inactive columns stay unresolved until a tick
    /// activates them.
    cols_resolved: Vec<bool>,
    /// Cells of resolved columns whose target is outside the lanes'
    /// numbering, skipped because their row was zero-mass. Re-checked
    /// each tick against `row_occ`: a gap whose row gains mass either
    /// resolves into the numbering or forces a discovery.
    gaps: Vec<(u32, u32)>,
    /// Per state: does any lane carry nonzero mass there this tick?
    row_occ: Vec<bool>,
    /// The automaton `ptr` the cached `cols` was resolved against
    /// (group slots are reused across plans, so the slot's key can
    /// change under a cache built for another automaton).
    cols_ptr: usize,
    /// The lane list the cached shape below was verified against. Lanes
    /// and their chains' symbol tables are immutable per (query,
    /// binding), so an unchanged lane list keeps the whole phase-1 shape
    /// — uniformity, `stream_idx`, `runs`, `support`, `slot_of` — valid.
    shape_lanes: Vec<usize>,
    /// Cached [`single_stream_shape`] verdict for `shape_lanes`.
    shape_uniform: bool,
    /// Uniform shape: per lane, its single stream's index in the frame.
    stream_idx: Vec<u32>,
    /// Uniform shape: `(first lane, first stream, length)` per maximal
    /// run of lanes whose streams are consecutive, so a frame row fills
    /// a `pmat` row with one slice add per run.
    runs: Vec<(usize, usize, usize)>,
    /// Accepting local states (ascending), rebuilt with the layout.
    acc_rows: Vec<u32>,
    /// Per support entry: does any lane carry nonzero probability on it?
    /// Inactive columns route only `+0.0` and are skipped bit-identically.
    active: Vec<bool>,
    /// Single-stream direct fill: outcome index → support slot.
    slot_of: Vec<u32>,
    /// `mass[q * lanes + lane]` / `next[...]` — the SoA mass matrices.
    mass: Vec<f64>,
    next: Vec<f64>,
    /// Per-lane accepting-mass accumulator.
    acc: Vec<f64>,
    /// Copy of the (shared) layout: local → shared ids, accepting words.
    l2s: Vec<u32>,
    acc_words: Vec<u64>,
    /// Scratch for deduplicating distribution indices.
    uniq: Vec<u32>,
    /// Ticks committed through the fused path since the lanes' chains
    /// were last written. While nonzero the group is *resident*: `next`
    /// holds every lane's mass vector and `acc` its accepting sum, and
    /// the chains lag by this many ticks. The next tick swaps `next` in
    /// instead of reading the chains; [`settle_group`] writes it back.
    pending: u32,
}

/// FNV-1a over a layout (local → shared id map) for cheap grouping;
/// equal hashes are confirmed by exact slice comparison before joining.
/// The hot paths read the memoized copy ([`crate::chain::ChainEvaluator::
/// layout_fp`]); this reference implementation pins the hash order the
/// memo must reproduce.
#[cfg(test)]
fn layout_fingerprint(l2s: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &v in l2s {
        h ^= u64::from(v);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Steps every chain in the shard through one tick's frame — batched
/// where layouts allow, scalar otherwise — writing each chain's accept
/// probability to `probs` (shard order) and adding each query's wall
/// time to `query_ns` (indexed by query; a batch's time is apportioned
/// evenly across its lanes). Returns the tick's kernel counters.
///
/// Traced as one `soa_group` span per batch (its lane and query counts)
/// and one `scalar_chains` span over the leftovers, so tracing never
/// changes which path a chain takes.
pub(crate) fn step_shard_chains(
    chains: &mut [(usize, ChainEvaluator)],
    frame: &TickFrame,
    cache: &mut SymCache,
    failpoint: &'static str,
    scratch: &mut SoaScratch,
    probs: &mut [f64],
    query_ns: &mut [u64],
) -> Result<KernelTickStats, EngineError> {
    // The batch path checks all failpoints up front (a faulted tick
    // mutates no chain at all — strictly cleaner than the scalar path's
    // partial progress; recovery semantics are identical either way).
    for _ in chains.iter() {
        crate::failpoint::check(failpoint)?;
    }
    let mut kernel = KernelTickStats::default();

    plan_groups(chains, scratch);

    // Step the batches (each group is homogeneous in layout, not
    // necessarily in query, so per-query time is apportioned per lane).
    for g in &mut scratch.groups {
        let _span = crate::trace::span("soa_group")
            .with("lanes", g.lanes.len() as u64)
            .with("queries", g.lane_queries.len() as u64);
        let started = Instant::now();
        step_group(g, chains, frame, cache, &mut kernel, probs, true)?;
        let per_lane = elapsed_ns(started) / g.lanes.len().max(1) as u64;
        for &(qi, n) in &g.lane_queries {
            query_ns[qi] = query_ns[qi].saturating_add(per_lane * n);
        }
    }

    // Step the leftovers scalar, one chain at a time.
    let _span = (!scratch.singles.is_empty())
        .then(|| crate::trace::span("scalar_chains").with("chains", scratch.singles.len() as u64));
    for &idx in &scratch.singles {
        let started = Instant::now();
        let (qi, chain) = &mut chains[idx];
        probs[idx] = chain.step_frame(frame, Some(cache))?;
        kernel.steps.add(chain.take_kernel_counters());
        query_ns[*qi] = query_ns[*qi].saturating_add(elapsed_ns(started));
    }

    let (sym_hits, sym_misses) = cache.take_counters();
    kernel.sym_hits += sym_hits;
    kernel.sym_misses += sym_misses;
    Ok(kernel)
}

/// Writes every resident group's state back into its chains, after
/// which the chains are the truth again (and the next tick reads them).
/// Called before anything reads or moves a shard's chains.
pub(crate) fn settle(chains: &mut [(usize, ChainEvaluator)], scratch: &mut SoaScratch) {
    for g in &mut scratch.groups {
        settle_group(g, chains);
    }
}

/// [`settle`] for one group: lane `i`'s column of `next` and accepting
/// sum `acc[i]` go to chain `lanes[i]`, whose clock advances by the
/// pending ticks.
fn settle_group(g: &mut Group, chains: &mut [(usize, ChainEvaluator)]) {
    if g.pending == 0 {
        return;
    }
    let lanes = g.lanes.len();
    for (lane, &idx) in g.lanes.iter().enumerate() {
        chains[idx]
            .1
            .soa_write_back(&g.next, lane, lanes, g.acc[lane], g.pending);
    }
    g.pending = 0;
}

/// Partitions the shard's chains into layout-homogeneous groups plus a
/// scalar leftover list, reusing the scratch's allocations. The plan
/// only depends on each chain's batch eligibility and local numbering,
/// so it is kept while every chain's [`ChainEvaluator::soa_stamp`] is
/// unchanged — in steady state, every tick — and group slots keep their
/// cross-tick caches (shape, transition columns, residency). A new plan
/// first settles the old groups: it reassigns their slots.
fn plan_groups(chains: &mut [(usize, ChainEvaluator)], scratch: &mut SoaScratch) {
    if scratch.stamps.len() == chains.len()
        && !chains.is_empty()
        && chains
            .iter()
            .zip(&scratch.stamps)
            .all(|((_, chain), &stamp)| chain.soa_stamp() == stamp)
    {
        return;
    }
    settle(chains, scratch);
    #[cfg(test)]
    {
        scratch.plans_built += 1;
    }
    scratch.stamps.clear();
    scratch
        .stamps
        .extend(chains.iter().map(|(_, chain)| chain.soa_stamp()));
    for g in &mut scratch.groups {
        g.lanes.clear();
    }
    scratch.singles.clear();
    for (idx, (_, chain)) in chains.iter().enumerate() {
        let Some(desc) = chain.soa_descriptor() else {
            scratch.singles.push(idx);
            continue;
        };
        let key = (
            desc.automaton_ptr,
            chain.layout_fp(),
            chain.syms_fingerprint(),
        );
        // Linear scan: group counts stay small (one per automaton ×
        // layout variant × query symbol table present in the shard).
        let found = scratch.groups.iter_mut().find(|g| {
            (g.ptr, g.layout_hash, g.syms_hash) == key
                && g.lanes.first().is_none_or(|&rep| {
                    chains[rep]
                        .1
                        .soa_descriptor()
                        .is_some_and(|r| r.l2s == desc.l2s)
                })
        });
        match found {
            Some(g) => g.lanes.push(idx),
            None => {
                // Reuse an empty group slot before allocating a new one.
                if let Some(g) = scratch.groups.iter_mut().find(|g| g.lanes.is_empty()) {
                    g.ptr = key.0;
                    g.layout_hash = key.1;
                    g.syms_hash = key.2;
                    g.lanes.push(idx);
                } else {
                    scratch.groups.push(Group {
                        ptr: key.0,
                        layout_hash: key.1,
                        syms_hash: key.2,
                        lanes: vec![idx],
                        ..Group::default()
                    });
                }
            }
        }
    }
    // Undersized groups step scalar.
    for g in &mut scratch.groups {
        if g.lanes.len() < MIN_LANES {
            scratch.singles.append(&mut g.lanes);
        }
    }
    scratch.groups.retain(|g| !g.lanes.is_empty());
    // Keep the scalar leftovers in shard order (append may interleave).
    scratch.singles.sort_unstable();
    for g in &mut scratch.groups {
        g.lane_queries.clear();
        for &idx in &g.lanes {
            let qi = chains[idx].0;
            match g.lane_queries.last_mut() {
                Some((q, n)) if *q == qi => *n += 1,
                _ => g.lane_queries.push((qi, 1)),
            }
        }
    }
}

/// The shared outcome projection when every lane of the group reads
/// exactly one independent stream through the same symbol table (the
/// shape every per-key grounding of a single-stream query produces).
fn single_stream_shape<'c>(
    g: &Group,
    chains: &'c [(usize, ChainEvaluator)],
) -> Option<&'c Projection> {
    let (_, rep) = chains[*g.lanes.first()?].1.soa_single_stream()?;
    for &idx in &g.lanes[1..] {
        let (_, proj) = chains[idx].1.soa_single_stream()?;
        if proj != rep {
            return None;
        }
    }
    Some(rep)
}

/// Steps one batch through one tick: resolve per-lane distributions,
/// merge the union support, resolve transition columns, then route mass
/// in flat lane loops. Falls back to per-chain scalar stepping when a
/// transition out of an occupied state would leave the lanes' numbering.
#[allow(clippy::too_many_arguments)] // one hot internal call site
fn step_group(
    g: &mut Group,
    chains: &mut [(usize, ChainEvaluator)],
    frame: &TickFrame,
    cache: &mut SymCache,
    kernel: &mut KernelTickStats,
    probs: &mut [f64],
    allow_split: bool,
) -> Result<(), EngineError> {
    let lanes = g.lanes.len();
    // An unchanged lane list is the precondition for every cross-tick
    // cache below (captured before the shape block refreshes it). A
    // resident group always has one: a replan settles first.
    let shape_ok = g.shape_lanes == g.lanes;
    assert!(shape_ok || g.pending == 0, "resident group changed lanes");

    // Phases 1–2: per-lane symbol distributions on a shared sorted
    // support, as `pmat[di * lanes + lane]`.
    //
    // Fast shape: every lane reads exactly one independent stream
    // through the same outcome projection, so the support is the
    // projection's (fixed for the group) and each lane's probabilities
    // come straight from the tick frame — no signature hashing, no
    // per-chain cache entry — summed exactly as the scalar projection
    // sums them. Shape revalidation is a single lane-list compare in
    // steady state: symbol tables are fixed per (query, binding), so the
    // uniformity verdict, per-lane stream runs, union support, and slot
    // map all survive as long as the planner produced the same lanes.
    let support_same;
    if !shape_ok {
        let uniform = single_stream_shape(g, chains);
        g.shape_lanes.clear();
        g.shape_lanes.extend_from_slice(&g.lanes);
        g.shape_uniform = uniform.is_some();
        if let Some(proj) = uniform {
            // An unchanged support keeps the cached transition columns
            // below alive; a changed one replaces it.
            support_same = proj.support == g.support;
            if !support_same {
                g.support.clone_from(&proj.support);
            }
            g.slot_of.clone_from(&proj.slot_of);
            g.stream_idx.clear();
            g.runs.clear();
            for (lane, &idx) in g.lanes.iter().enumerate() {
                let (si, _) = chains[idx].1.soa_single_stream().expect("uniform lane");
                g.stream_idx.push(si as u32);
                match g.runs.last_mut() {
                    Some((_, s0, len)) if *s0 + *len == si => *len += 1,
                    _ => g.runs.push((lane, si, 1)),
                }
            }
        } else {
            support_same = false;
        }
    } else {
        support_same = g.shape_uniform;
    }
    let is_uniform = g.shape_uniform;
    g.active.clear();
    g.pmat.clear();
    if is_uniform {
        // Outcome-major: frame row `d` lands in `pmat` row `slot_of[d]`,
        // one slice add per run of lanes, so each lane still sums its
        // outcomes in ascending `d` from +0.0. Rows are added whatever
        // they hold — a ±0.0 changes no bit of a sum started at +0.0.
        // `active` is taken from the inputs, not from the sums: tiny
        // negative probabilities (which `validate_dist` admits) can
        // cancel to a zero sum on an outcome the scalar path still
        // routes. A slot's inputs are only scanned until it turns active.
        let s_len = g.support.len();
        g.active.resize(s_len, false);
        g.pmat.resize(s_len * lanes, 0.0);
        for (d, &slot) in g.slot_of.iter().enumerate() {
            let slot = slot as usize;
            let row = frame.row(d);
            let dst = &mut g.pmat[slot * lanes..(slot + 1) * lanes];
            for &(lane, s, len) in &g.runs {
                simd::add_lanes(&mut dst[lane..lane + len], &row[s..s + len]);
            }
            if !g.active[slot] {
                g.active[slot] = g
                    .runs
                    .iter()
                    .any(|&(_, s, len)| row[s..s + len].iter().any(|&p| p != 0.0));
            }
        }
    } else {
        // General shape: per-lane distributions through the symbol
        // cache (the exact scalar protocol), union support, two-pointer
        // alignment. Every support entry is nonzero in some lane. The
        // support varies with the tick's distributions, so the column
        // cache is not used here (`support_same` is already false for
        // every non-uniform shape).
        g.support.clear();
        g.dist_idx.clear();
        for &idx in &g.lanes {
            g.dist_idx.push(chains[idx].1.sym_dist_index(frame, cache));
        }
        g.uniq.clear();
        g.uniq.extend_from_slice(&g.dist_idx);
        g.uniq.sort_unstable();
        g.uniq.dedup();
        for &di in &g.uniq {
            g.support.extend(cache.dist(di).iter().map(|&(sym, _)| sym));
        }
        g.support.sort_unstable_by_key(|sym| sym.0);
        g.support.dedup();
        let s_len = g.support.len();
        g.active.resize(s_len, true);
        g.pmat.resize(s_len * lanes, 0.0);
        for (lane, &di) in g.dist_idx.iter().enumerate() {
            let dist = cache.dist(di);
            let mut s = 0;
            for &(sym, p) in dist {
                while g.support[s].0 < sym.0 {
                    s += 1;
                }
                debug_assert_eq!(g.support[s].0, sym.0);
                g.pmat[s * lanes + lane] = p;
            }
        }
    }
    let s_len = g.support.len();

    // Phases 3–5, with one discovery retry. A resolution miss (unknown
    // target out of an occupied state) means this is a discovery tick:
    // each lane assigns the new local ids in the exact scalar order
    // (`soa_discover`), the layout snapshot refreshes, and the batch
    // retries — so warmup ticks stay batched instead of falling back to
    // the full per-chain scalar machinery. Only if the lanes' numberings
    // diverge during discovery (their occupied sets differ) does the
    // group step scalar this tick; the next tick's planner regroups.
    let mut n_states;
    let mut discovered = false;
    loop {
        // Layout snapshot from the representative lane (identical across
        // the group by construction, re-verified after discovery). An
        // unchanged layout keeps the cached columns alive and skips the
        // copies.
        let layout_same;
        {
            let rep = chains[g.lanes[0]]
                .1
                .soa_descriptor()
                .expect("group members are SoA-eligible");
            layout_same = rep.l2s == g.l2s.as_slice();
            if !layout_same {
                g.l2s.clear();
                g.l2s.extend_from_slice(rep.l2s);
                g.acc_words.clear();
                g.acc_words.extend_from_slice(rep.acc_words);
                g.acc_rows.clear();
                for (w, &word) in g.acc_words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let q = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        if q < rep.l2s.len() {
                            g.acc_rows.push(q as u32);
                        }
                    }
                }
            }
        }
        n_states = g.l2s.len();

        // Phase 3: the mass matrix. A resident group's `next` matrix
        // holds every lane's current mass vector, so it is swapped in
        // without reading a chain. Its layout cannot have moved (only a
        // discovery moves it, and that settles first); should it differ
        // anyway, the state goes back to the chains and is gathered from
        // there. Occupancy is rescanned from the matrix either way — the
        // gap re-check below needs it exact, not conservative.
        let resident = g.pending > 0 && layout_same && g.next.len() == n_states * lanes;
        if !resident {
            settle_group(g, chains);
        }
        if resident {
            std::mem::swap(&mut g.mass, &mut g.next);
            g.row_occ.clear();
            g.row_occ.resize(n_states, false);
            for (q, occ) in g.row_occ.iter_mut().enumerate() {
                *occ = g.mass[q * lanes..(q + 1) * lanes].iter().any(|&m| m != 0.0);
            }
        } else {
            // Full gather (zero-padded: lanes whose mass vector is
            // shorter than the layout contribute exactly +0.0).
            g.mass.clear();
            g.mass.resize(n_states * lanes, 0.0);
            g.row_occ.clear();
            g.row_occ.resize(n_states, false);
            for (lane, &idx) in g.lanes.iter().enumerate() {
                let mass = chains[idx].1.soa_mass().expect("SoA-eligible lane");
                for (q, &m) in mass.iter().enumerate().take(n_states) {
                    g.mass[q * lanes + lane] = m;
                    if m != 0.0 {
                        g.row_occ[q] = true;
                    }
                }
            }
        }

        // Phase 4: transition columns over (state × support), resolved
        // once per batch through the shared automaton (frozen table or
        // interpreter — never a chain's numbering, which only
        // `soa_discover` touches).
        let automaton = chains[g.lanes[0]].1.soa_automaton();
        let cache_live = g.cols_ptr == g.ptr
            && layout_same
            && support_same
            && is_uniform
            && g.cols.len() == n_states * s_len
            && g.cols_resolved.len() == s_len;
        if !cache_live {
            g.cols.clear();
            g.cols.resize(n_states * s_len, UNKNOWN);
            g.cols_resolved.clear();
            g.cols_resolved.resize(s_len, false);
            g.gaps.clear();
            g.cols_ptr = g.ptr;
        }
        let mut fast_ok = true;
        // Re-check cached gap cells: a gap whose row is still zero-mass
        // (or whose column is inactive) keeps contributing exactly
        // nothing; one whose row gained mass under an active column
        // must resolve now — into the numbering, or via a discovery.
        let mut gi = 0;
        while fast_ok && gi < g.gaps.len() {
            let (di, q) = (g.gaps[gi].0 as usize, g.gaps[gi].1 as usize);
            if !g.active[di] || !g.row_occ[q] {
                gi += 1;
                continue;
            }
            let (sq2, _acc, via) = automaton.resolve(g.l2s[q], g.support[di], true);
            match via {
                Via::Frozen => kernel.steps.frozen += 1,
                Via::Interpreter => kernel.steps.slow += 1,
            }
            match chains[g.lanes[0]].1.soa_peek_local(sq2) {
                Some(local) => {
                    g.cols[q * s_len + di] = local;
                    g.gaps.swap_remove(gi);
                }
                None => fast_ok = false,
            }
        }
        // Resolve the columns active this tick that the cache doesn't
        // already hold. In steady state every recurring column is
        // cached, so the shared automaton (and its locks) is not
        // touched at all. A cached column that went inactive still
        // routes — its lanes all carry +0.0 there, which is
        // bit-invisible.
        'resolve: for di in 0..s_len {
            if !fast_ok {
                break;
            }
            // An inactive, unresolved column carries +0.0 in every
            // lane; the scalar path never resolves it, and routing it
            // would add only +0.0 — skip it (its cols entries stay
            // UNKNOWN).
            if !g.active[di] || g.cols_resolved[di] {
                continue;
            }
            let sym = g.support[di];
            for q in 0..n_states {
                let (sq2, _acc, via) = automaton.resolve(g.l2s[q], sym, true);
                match via {
                    Via::Frozen => kernel.steps.frozen += 1,
                    Via::Interpreter => kernel.steps.slow += 1,
                }
                match chains[g.lanes[0]].1.soa_peek_local(sq2) {
                    Some(local) => g.cols[q * s_len + di] = local,
                    None => {
                        // Legal only if no lane occupies q: the scalar
                        // path would never resolve transitions out of a
                        // zero-mass state, so skipping them is
                        // bit-identical. Any occupied lane means a
                        // discovery is due.
                        if g.row_occ[q] {
                            fast_ok = false;
                            break 'resolve;
                        }
                        // Remember the gap: if this row gains mass in a
                        // later tick the cell must resolve then.
                        g.gaps.push((di as u32, q as u32));
                    }
                }
            }
            g.cols_resolved[di] = true;
        }
        if fast_ok {
            break;
        }
        if !discovered {
            discovered = true;
            // Discovery reads each lane's mass from its chain, and a
            // split or fallback steps the chains: a resident state was
            // swapped into `mass` above (last tick's accepting sums are
            // still in `acc`), so swap it back and hand it over first.
            if g.pending > 0 {
                std::mem::swap(&mut g.mass, &mut g.next);
                settle_group(g, chains);
            }
            // Discovery pass: per lane, in the exact scalar order, so
            // the refreshed numbering is bit-for-bit what a scalar tick
            // would have produced. A lane's entries are those of its
            // scalar distribution: the symbols of its nonzero inputs
            // (uniform shape), or its cached distribution as is.
            let mut act: Vec<SymbolSet> = Vec::with_capacity(s_len);
            let mut hit = vec![false; s_len];
            for (lane, &idx) in g.lanes.iter().enumerate() {
                act.clear();
                if is_uniform {
                    hit.fill(false);
                    let si = g.stream_idx[lane] as usize;
                    for (d, &slot) in g.slot_of.iter().enumerate() {
                        if frame.row(d)[si] != 0.0 {
                            hit[slot as usize] = true;
                        }
                    }
                    act.extend(
                        g.support
                            .iter()
                            .zip(&hit)
                            .filter(|(_, &h)| h)
                            .map(|(&sym, _)| sym),
                    );
                } else {
                    act.extend(cache.dist(g.dist_idx[lane]).iter().map(|&(sym, _)| sym));
                }
                let (_, chain) = &mut chains[idx];
                chain.soa_discover(&act);
                kernel.steps.add(chain.take_kernel_counters());
            }
            // Lanes that occupied different states discovered different
            // ids; the snapshot above is only valid if every lane still
            // shares the representative's numbering.
            let rep_fp = chains[g.lanes[0]].1.layout_fp();
            let agree = g.lanes[1..]
                .iter()
                .all(|&idx| chains[idx].1.layout_fp() == rep_fp);
            if agree {
                continue;
            }
            if allow_split {
                // Diverging discovery tick: the lanes now carry
                // different numberings (they occupied different states
                // when the new ids were assigned), but each numbering
                // is still shared by many lanes — so re-partition by
                // layout and step one sub-batch per partition instead
                // of dropping the whole group to scalar. One level
                // only: a sub-batch that diverges again steps scalar.
                let mut parts: Vec<(u64, Group)> = Vec::new();
                for &idx in &g.lanes {
                    let fp = chains[idx].1.layout_fp();
                    match parts.iter_mut().find(|(p, _)| *p == fp) {
                        Some((_, sub)) => sub.lanes.push(idx),
                        None => parts.push((
                            fp,
                            Group {
                                ptr: g.ptr,
                                layout_hash: fp,
                                syms_hash: g.syms_hash,
                                lanes: vec![idx],
                                ..Group::default()
                            },
                        )),
                    }
                }
                // The sub-batches last only this tick, so their state
                // goes straight back to the chains.
                for (_, mut sub) in parts {
                    step_group(&mut sub, chains, frame, cache, kernel, probs, false)?;
                    settle_group(&mut sub, chains);
                }
                return Ok(());
            }
        }
        // Scalar fallback (discovery already ran, so these steps resolve
        // the same transitions the batch would have).
        for &idx in &g.lanes {
            let (_, chain) = &mut chains[idx];
            probs[idx] = chain.step_frame(frame, Some(cache))?;
            kernel.steps.add(chain.take_kernel_counters());
        }
        return Ok(());
    }

    // Phases 6–8 fused, in blocks of [`LANE_BLOCK`] lanes: route, then
    // accepting mass, then each lane's probability, all while the
    // block's rows are cache-hot. Blocking over lanes is invisible to
    // the arithmetic — every lane still receives its contributions in
    // (q ascending, di ascending) order, the scalar accumulation order,
    // and its accepting sum still adds states ascending (same order as
    // `accept_scan`). Zero-mass rows and inactive columns contribute
    // exactly +0.0 everywhere, so skipping them is bit-invisible. The
    // result stays in `next` and `acc` (the group is resident): no
    // chain is written.
    g.next.clear();
    g.next.resize(n_states * lanes, 0.0);
    g.acc.clear();
    g.acc.resize(lanes, 0.0);
    let mut lb = 0;
    while lb < lanes {
        let le = (lb + LANE_BLOCK).min(lanes);
        for q in 0..n_states {
            if !g.row_occ[q] {
                continue;
            }
            for di in 0..s_len {
                if !g.active[di] {
                    continue;
                }
                let q2 = g.cols[q * s_len + di] as usize;
                if q2 as u32 == UNKNOWN {
                    continue;
                }
                let next_row = &mut g.next[q2 * lanes + lb..q2 * lanes + le];
                let mass_row = &g.mass[q * lanes + lb..q * lanes + le];
                let p_row = &g.pmat[di * lanes + lb..di * lanes + le];
                simd::mul_add_lanes(next_row, mass_row, p_row);
            }
        }
        for &q in &g.acc_rows {
            let q = q as usize;
            simd::add_lanes(&mut g.acc[lb..le], &g.next[q * lanes + lb..q * lanes + le]);
        }
        for (&idx, &acc) in g.lanes[lb..le].iter().zip(&g.acc[lb..le]) {
            // Clamped as `accept_scan` and the write-back clamp it.
            probs[idx] = acc.clamp(0.0, 1.0) + 0.0;
        }
        lb = le;
    }
    g.pending += 1;
    let n_active = g.active.iter().filter(|&&a| a).count();
    let routed = (n_states * n_active * lanes) as u64;
    if simd::dispatch().is_simd() {
        kernel.steps.simd += routed;
    } else {
        kernel.steps.soa += routed;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lahar_model::{Database, StreamBuilder};
    use lahar_query::{parse_query, NormalQuery};

    const PEOPLE: usize = 6;

    /// `PEOPLE` empty independent `At` streams over `a, h, c` (+ ⊥) and
    /// one grounded `a ; c` chain per person: one automaton, one symbol
    /// table, so all of them plan into a single group.
    fn people_chains() -> (Database, Vec<(usize, ChainEvaluator)>) {
        let mut db = Database::new();
        db.declare_stream("At", &["person"], &["loc"]).unwrap();
        let i = db.interner().clone();
        for p in 0..PEOPLE {
            let b = StreamBuilder::new(&i, "At", &[&format!("p{p}")], &["a", "h", "c"]);
            db.add_stream(b.independent(vec![]).unwrap()).unwrap();
        }
        let chains = (0..PEOPLE).map(|p| (0, person_chain(&db, p))).collect();
        (db, chains)
    }

    fn person_chain(db: &Database, p: usize) -> ChainEvaluator {
        let q = parse_query(db.interner(), &format!("At('p{p}','a') ; At('p{p}','c')")).unwrap();
        ChainEvaluator::new(db, &NormalQuery::from_query(&q).items).unwrap()
    }

    /// A frame where every stream has probability `a` on `a` (the rest
    /// on ⊥).
    fn frame(db: &Database, a: f64) -> TickFrame {
        let marginals: Vec<Vec<f64>> = db
            .streams()
            .iter()
            .map(|s| {
                let mut probs = vec![0.0; s.domain().len()];
                probs[0] = a;
                probs[s.domain().bottom()] = 1.0 - a;
                probs
            })
            .collect();
        let mut frame = TickFrame::new(marginals.iter().map(Vec::len).collect());
        frame.fill(|s| &marginals[s]);
        frame
    }

    /// A frame where stream `s` of `n` has probability `a · (s + 1) / n`
    /// on `a` and `c` on `c` (the rest on ⊥), so lanes differ.
    fn frame_ac(db: &Database, a: f64, c: f64) -> TickFrame {
        let n = db.streams().len() as f64;
        let marginals: Vec<Vec<f64>> = db
            .streams()
            .iter()
            .enumerate()
            .map(|(s, stream)| {
                let mut probs = vec![0.0; stream.domain().len()];
                probs[0] = a * (s + 1) as f64 / n;
                probs[2] = c;
                probs[stream.domain().bottom()] = 1.0 - probs[0] - c;
                probs
            })
            .collect();
        let mut frame = TickFrame::new(marginals.iter().map(Vec::len).collect());
        frame.fill(|s| &marginals[s]);
        frame
    }

    /// Steps one tick and returns each chain's probability, as bits.
    fn step_probs(
        chains: &mut [(usize, ChainEvaluator)],
        frame: &TickFrame,
        scratch: &mut SoaScratch,
    ) -> Vec<u64> {
        let mut cache = SymCache::new();
        cache.begin_tick();
        let mut probs = vec![0.0; chains.len()];
        let mut query_ns = vec![0; 1];
        step_shard_chains(
            chains,
            frame,
            &mut cache,
            "sequential_step",
            scratch,
            &mut probs,
            &mut query_ns,
        )
        .unwrap();
        probs.iter().map(|p| p.to_bits()).collect()
    }

    /// Steps one tick and returns how many plans the scratch has built.
    fn tick(
        chains: &mut [(usize, ChainEvaluator)],
        frame: &TickFrame,
        scratch: &mut SoaScratch,
    ) -> u64 {
        step_probs(chains, frame, scratch);
        scratch.plans_built
    }

    /// A group that discovers a state while resident writes its state
    /// back before the discovery reads it: every tick's probabilities
    /// and the final chain states match the same chains stepped one at
    /// a time through the interpreter.
    #[test]
    fn discovery_in_a_resident_group_matches_scalar_steps() {
        let (db, mut chains) = people_chains();
        let (_, mut scalar) = people_chains();
        for (_, chain) in &mut scalar {
            chain.force_interpreter(true);
        }
        let (mut scratch, mut scalar_scratch) = (SoaScratch::default(), SoaScratch::default());
        // `a` ticks move mass between the lanes' states and stop
        // discovering after the first few, so the group stays resident;
        // the first `c` then discovers the accepting state.
        const WARM: usize = 8;
        let mut schedule: Vec<TickFrame> = (0..WARM).map(|_| frame_ac(&db, 0.5, 0.0)).collect();
        schedule.push(frame_ac(&db, 0.25, 0.5));
        schedule.push(frame_ac(&db, 0.5, 0.25));
        for (t, frame) in schedule.iter().enumerate() {
            if t == WARM {
                assert!(scratch.max_pending() >= 3, "the group is not resident");
            }
            let got = step_probs(&mut chains, frame, &mut scratch);
            let want = step_probs(&mut scalar, frame, &mut scalar_scratch);
            assert_eq!(got, want, "tick {t}");
        }
        settle(&mut chains, &mut scratch);
        for ((_, batched), (_, one_by_one)) in chains.iter().zip(&scalar) {
            assert_eq!(batched.export_state(), one_by_one.export_state());
        }
    }

    /// The plan is kept while no chain changes and rebuilt after each
    /// event that can change it: a state discovery, a changed chain list
    /// (what a repartition hands a shard) and a `force_interpreter`
    /// toggle.
    #[test]
    fn cached_plan_is_rebuilt_exactly_when_a_chain_changes() {
        let (db, mut chains) = people_chains();
        let mut scratch = SoaScratch::default();
        let bottom = frame(&db, 0.0);
        let some_a = frame(&db, 0.5);

        // A first tick plans; the first ⊥ steps out of the initial state
        // discover the ⊥-only states, after which ⊥ discovers nothing and
        // the plan is kept.
        assert_eq!(tick(&mut chains, &bottom, &mut scratch), 1);
        assert_eq!(scratch.groups.len(), 1);
        assert_eq!(scratch.groups[0].lanes.len(), PEOPLE);
        assert!(scratch.singles.is_empty());
        for _ in 0..3 {
            tick(&mut chains, &bottom, &mut scratch);
        }
        let settled = scratch.plans_built;
        assert_eq!(tick(&mut chains, &bottom, &mut scratch), settled);

        // `a` discovers a state in every lane: the next tick replans,
        // then the plan holds again.
        assert_eq!(tick(&mut chains, &some_a, &mut scratch), settled);
        assert_eq!(tick(&mut chains, &bottom, &mut scratch), settled + 1);
        for _ in 0..3 {
            tick(&mut chains, &bottom, &mut scratch);
        }
        let settled = scratch.plans_built;
        assert_eq!(tick(&mut chains, &bottom, &mut scratch), settled);

        // Forcing the interpreter takes a chain out of its batch, and
        // releasing it puts it back.
        chains[2].1.force_interpreter(true);
        assert_eq!(tick(&mut chains, &bottom, &mut scratch), settled + 1);
        assert_eq!(scratch.singles, vec![2]);
        assert_eq!(tick(&mut chains, &bottom, &mut scratch), settled + 1);
        chains[2].1.force_interpreter(false);
        assert_eq!(tick(&mut chains, &bottom, &mut scratch), settled + 2);
        assert!(scratch.singles.is_empty());
        let settled = settled + 2;

        // A changed chain list (what a repartition hands a shard, along
        // with a fresh scratch) replans.
        // The groups hold the chains' state; settle before reading it.
        settle(&mut chains, &mut scratch);
        let t = chains[0].1.next_t();
        let mut extra = person_chain(&db, 0);
        for _ in 0..t {
            extra.step_frame(&bottom, None).unwrap();
        }
        chains.push((0, extra));
        assert_eq!(tick(&mut chains, &bottom, &mut scratch), settled + 1);
        assert_eq!(
            scratch.groups[0].lanes.len() + scratch.singles.len(),
            PEOPLE + 1
        );
    }

    #[test]
    fn layout_fingerprint_separates_orders() {
        assert_ne!(
            layout_fingerprint(&[0, 1, 2]),
            layout_fingerprint(&[0, 2, 1])
        );
        assert_eq!(layout_fingerprint(&[0, 1]), layout_fingerprint(&[0, 1]));
        assert_ne!(layout_fingerprint(&[0, 1]), layout_fingerprint(&[0, 1, 2]));
    }
}
