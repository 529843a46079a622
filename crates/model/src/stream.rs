//! Probabilistic event streams.
//!
//! A stream (paper §2.1/§2.3) is the sequence of probabilistic events with a
//! fixed type and a fixed event key, one event per timestep. Lahar handles
//! two representations:
//!
//! * [`StreamData::Independent`]: one marginal distribution per timestep,
//!   with events at distinct timesteps independent. This is the *real-time*
//!   scenario (filtered particle-filter output).
//! * [`StreamData::Markov`]: an initial marginal plus one conditional
//!   probability table per step, `E(t)(d′, d) = P[e(t+1) = d′ | e(t) = d]`.
//!   This is the *archived* scenario (smoothed output with correlations).
//!
//! Streams are indexed by a global discrete clock starting at `t = 0`.
//! Timesteps beyond the recorded length are deterministically ⊥.

use crate::dist::{Cpt, Domain, Marginal, ModelError};
use crate::value::{Interner, Tuple};
use rand::Rng;
use std::fmt;
use std::sync::Arc;

/// Identity of a stream: its type name plus its event key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StreamKey {
    /// The stream type (a [`crate::StreamSchema`] name).
    pub stream_type: crate::value::Symbol,
    /// The event key shared by every event in the stream.
    pub key: Tuple,
}

impl StreamKey {
    /// Renders e.g. `At('Joe')`.
    pub fn display(&self, interner: &Interner) -> String {
        let name = interner
            .resolve(self.stream_type)
            .unwrap_or_else(|| format!("#{}", self.stream_type.0));
        format!("{name}{}", crate::value::display_tuple(&self.key, interner))
    }
}

/// The probabilistic payload of a stream.
#[derive(Debug, Clone)]
pub enum StreamData {
    /// Per-timestep marginals; timesteps are mutually independent.
    Independent(Vec<Marginal>),
    /// Markovian correlations.
    Markov {
        /// The marginal at `t = 0`.
        initial: Marginal,
        /// `cpts[t]` is the transition from timestep `t` to `t + 1`.
        cpts: Vec<Cpt>,
    },
}

/// A probabilistic event stream.
#[derive(Debug, Clone)]
pub struct Stream {
    id: StreamKey,
    domain: Arc<Domain>,
    data: StreamData,
}

impl Stream {
    /// Builds an independent stream from per-timestep marginals.
    pub fn independent(
        id: StreamKey,
        domain: Arc<Domain>,
        marginals: Vec<Marginal>,
    ) -> Result<Self, ModelError> {
        for m in &marginals {
            if m.probs().len() != domain.len() {
                return Err(ModelError::DimensionMismatch {
                    expected: domain.len(),
                    got: m.probs().len(),
                });
            }
        }
        Ok(Self {
            id,
            domain,
            data: StreamData::Independent(marginals),
        })
    }

    /// Builds a Markovian stream from an initial marginal and per-step CPTs.
    pub fn markov(
        id: StreamKey,
        domain: Arc<Domain>,
        initial: Marginal,
        cpts: Vec<Cpt>,
    ) -> Result<Self, ModelError> {
        if initial.probs().len() != domain.len() {
            return Err(ModelError::DimensionMismatch {
                expected: domain.len(),
                got: initial.probs().len(),
            });
        }
        for c in &cpts {
            if c.dim() != domain.len() {
                return Err(ModelError::DimensionMismatch {
                    expected: domain.len(),
                    got: c.dim(),
                });
            }
        }
        Ok(Self {
            id,
            domain,
            data: StreamData::Markov { initial, cpts },
        })
    }

    /// The stream identity (type + key).
    pub fn id(&self) -> &StreamKey {
        &self.id
    }

    /// The value domain (shared, includes ⊥).
    pub fn domain(&self) -> &Arc<Domain> {
        &self.domain
    }

    /// The payload representation.
    pub fn data(&self) -> &StreamData {
        &self.data
    }

    /// True for Markovian (archived/smoothed) streams.
    pub fn is_markov(&self) -> bool {
        matches!(self.data, StreamData::Markov { .. })
    }

    /// Number of recorded timesteps (`t = 0 .. len-1`).
    pub fn len(&self) -> usize {
        match &self.data {
            StreamData::Independent(ms) => ms.len(),
            StreamData::Markov { cpts, .. } => cpts.len() + 1,
        }
    }

    /// True when the stream records no timesteps at all.
    pub fn is_empty(&self) -> bool {
        matches!(&self.data, StreamData::Independent(ms) if ms.is_empty())
    }

    /// The marginal distribution at timestep `t`.
    ///
    /// For Markov streams this runs the forward recursion from the initial
    /// marginal (`O(t · n²)`); use [`Stream::all_marginals`] when several
    /// timesteps are needed. Timesteps beyond the end are all-⊥.
    pub fn marginal_at(&self, t: u32) -> Marginal {
        let t = t as usize;
        match &self.data {
            StreamData::Independent(ms) => ms
                .get(t)
                .cloned()
                .unwrap_or_else(|| Marginal::all_bottom(&self.domain)),
            StreamData::Markov { initial, cpts } => {
                if t >= self.len() {
                    return Marginal::all_bottom(&self.domain);
                }
                let mut cur = initial.probs().to_vec();
                let mut next = vec![0.0; cur.len()];
                for cpt in cpts.iter().take(t) {
                    cpt.apply(&cur, &mut next);
                    std::mem::swap(&mut cur, &mut next);
                }
                Marginal::new(&self.domain, cur).expect("forward pass preserves normalization")
            }
        }
    }

    /// Borrowed view of an independent stream's recorded marginals
    /// (`None` for Markov streams, whose marginals are derived, not
    /// stored — use [`Stream::all_marginals`] there). This is the
    /// allocation-free state-extraction path used by session
    /// checkpointing.
    pub fn marginals(&self) -> Option<&[Marginal]> {
        match &self.data {
            StreamData::Independent(ms) => Some(ms),
            StreamData::Markov { .. } => None,
        }
    }

    /// All marginals `t = 0 .. len-1` in a single forward pass.
    pub fn all_marginals(&self) -> Vec<Marginal> {
        match &self.data {
            StreamData::Independent(ms) => ms.clone(),
            StreamData::Markov { initial, cpts } => {
                let mut out = Vec::with_capacity(self.len());
                let mut cur = initial.probs().to_vec();
                let mut next = vec![0.0; cur.len()];
                out.push(initial.clone());
                for cpt in cpts {
                    cpt.apply(&cur, &mut next);
                    std::mem::swap(&mut cur, &mut next);
                    out.push(
                        Marginal::new(&self.domain, cur.clone())
                            .expect("forward pass preserves normalization"),
                    );
                }
                out
            }
        }
    }

    /// The transition CPT from timestep `t` to `t + 1`.
    ///
    /// For independent streams this materializes the rank-1 CPT of the
    /// marginal at `t + 1`; evaluators on hot paths should branch on
    /// [`Stream::data`] instead.
    pub fn cpt_at(&self, t: u32) -> Cpt {
        let t = t as usize;
        match &self.data {
            StreamData::Independent(ms) => {
                let next = ms
                    .get(t + 1)
                    .cloned()
                    .unwrap_or_else(|| Marginal::all_bottom(&self.domain));
                Cpt::independent(&next)
            }
            StreamData::Markov { cpts, .. } => match cpts.get(t) {
                Some(c) => c.clone(),
                None => Cpt::independent(&Marginal::all_bottom(&self.domain)),
            },
        }
    }

    /// Returns a copy of the stream with small probabilities pruned away:
    /// CPT entries (and marginal entries) below `epsilon` are dropped and
    /// the distributions renormalized — the paper's storage optimization
    /// (§4.3.2). The result is an approximation; the `ablations` bench
    /// quantifies the size/quality trade-off.
    #[must_use]
    pub fn pruned(&self, epsilon: f64) -> Stream {
        let prune_marginal = |m: &Marginal| -> Marginal {
            let mut probs: Vec<f64> = m
                .probs()
                .iter()
                .map(|&p| if p < epsilon { 0.0 } else { p })
                .collect();
            let total: f64 = probs.iter().sum();
            if total > 0.0 {
                for p in probs.iter_mut() {
                    *p /= total;
                }
                Marginal::new(&self.domain, probs).expect("renormalized")
            } else {
                m.clone()
            }
        };
        let data = match &self.data {
            StreamData::Independent(ms) => {
                StreamData::Independent(ms.iter().map(prune_marginal).collect())
            }
            StreamData::Markov { initial, cpts } => StreamData::Markov {
                initial: prune_marginal(initial),
                cpts: cpts.iter().map(|c| c.pruned(epsilon)).collect(),
            },
        };
        Stream {
            id: self.id.clone(),
            domain: self.domain.clone(),
            data,
        }
    }

    /// Appends one timestep to an *independent* stream (the real-time
    /// ingestion path: one marginal per tick from the inference layer).
    /// Markovian streams are archived artifacts and reject appends.
    pub fn push_marginal(&mut self, marginal: Marginal) -> Result<(), ModelError> {
        if marginal.probs().len() != self.domain.len() {
            return Err(ModelError::DimensionMismatch {
                expected: self.domain.len(),
                got: marginal.probs().len(),
            });
        }
        match &mut self.data {
            StreamData::Independent(ms) => {
                ms.push(marginal);
                Ok(())
            }
            StreamData::Markov { .. } => Err(ModelError::TimeOutOfRange {
                t: self.len() as u32,
                len: self.len(),
            }),
        }
    }

    /// Drops an independent stream's recorded marginals (Markov streams
    /// are left as they are).
    pub(crate) fn clear_marginals(&mut self) {
        if let StreamData::Independent(ms) = &mut self.data {
            *ms = Vec::new();
        }
    }

    /// Samples one trajectory (an outcome index per timestep) from the
    /// stream's distribution.
    pub fn sample_trajectory<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.len());
        match &self.data {
            StreamData::Independent(ms) => {
                for m in ms {
                    out.push(sample_index(m.probs(), rng));
                }
            }
            StreamData::Markov { initial, cpts } => {
                let mut cur = sample_index(initial.probs(), rng);
                out.push(cur);
                let n = self.domain.len();
                let mut col = vec![0.0; n];
                for cpt in cpts {
                    for (d_next, slot) in col.iter_mut().enumerate() {
                        *slot = cpt.get(d_next, cur);
                    }
                    cur = sample_index(&col, rng);
                    out.push(cur);
                }
            }
        }
        out
    }

    /// Enumerates every trajectory with non-zero probability, together with
    /// its probability `μ(d̄)` (paper Eq. 1).
    ///
    /// Exponential in the stream length — intended for the possible-world
    /// oracle on tiny test inputs only.
    pub fn enumerate_trajectories(&self) -> Vec<(Vec<usize>, f64)> {
        let n = self.domain.len();
        let mut acc: Vec<(Vec<usize>, f64)> = vec![(Vec::new(), 1.0)];
        for t in 0..self.len() {
            let mut next_acc = Vec::new();
            for (traj, p) in &acc {
                for d in 0..n {
                    let step_p = match &self.data {
                        StreamData::Independent(ms) => ms[t].prob(d),
                        StreamData::Markov { initial, cpts } => {
                            if t == 0 {
                                initial.prob(d)
                            } else {
                                cpts[t - 1].get(d, traj[t - 1])
                            }
                        }
                    };
                    if step_p > 0.0 {
                        let mut traj2 = traj.clone();
                        traj2.push(d);
                        next_acc.push((traj2, p * step_p));
                    }
                }
            }
            acc = next_acc;
        }
        acc
    }

    /// Probability of a full trajectory under this stream (Eq. 1).
    pub fn trajectory_prob(&self, traj: &[usize]) -> f64 {
        assert_eq!(traj.len(), self.len(), "trajectory length mismatch");
        let mut p = 1.0;
        for (t, &d) in traj.iter().enumerate() {
            p *= match &self.data {
                StreamData::Independent(ms) => ms[t].prob(d),
                StreamData::Markov { initial, cpts } => {
                    if t == 0 {
                        initial.prob(d)
                    } else {
                        cpts[t - 1].get(d, traj[t - 1])
                    }
                }
            };
            if p == 0.0 {
                break;
            }
        }
        p
    }

    /// Relational tuple count of this stream in the paper's encoding:
    /// `E(ID, T, A1..Ak, P)` for independent streams (one tuple per non-zero
    /// marginal entry) and `E(ID, T, A′, A, P)` for Markov streams (one tuple
    /// per non-zero CPT entry, plus the initial marginal).
    pub fn relational_tuple_count(&self) -> usize {
        match &self.data {
            StreamData::Independent(ms) => ms
                .iter()
                .map(|m| m.probs().iter().filter(|&&p| p > 0.0).count())
                .sum(),
            StreamData::Markov { initial, cpts } => {
                initial.probs().iter().filter(|&&p| p > 0.0).count()
                    + cpts.iter().map(Cpt::nonzero_entries).sum::<usize>()
            }
        }
    }
}

impl fmt::Display for StreamKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream#{}/{:?}", self.stream_type.0, self.key)
    }
}

/// Samples an index from an unnormalized weight vector.
pub(crate) fn sample_index<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> usize {
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0, "cannot sample from all-zero weights");
    let mut u = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{tuple, Interner};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn dom2() -> Arc<Domain> {
        Domain::new(1, vec![tuple([1i64]), tuple([2i64])]).unwrap()
    }

    fn id(i: &Interner) -> StreamKey {
        StreamKey {
            stream_type: i.intern("At"),
            key: tuple([i.intern("joe")]),
        }
    }

    fn indep_stream() -> Stream {
        let i = Interner::new();
        let d = dom2();
        Stream::independent(
            id(&i),
            d.clone(),
            vec![
                Marginal::new(&d, vec![0.5, 0.3, 0.2]).unwrap(),
                Marginal::new(&d, vec![0.1, 0.8, 0.1]).unwrap(),
            ],
        )
        .unwrap()
    }

    fn markov_stream() -> Stream {
        let i = Interner::new();
        let d = dom2();
        let initial = Marginal::new(&d, vec![0.5, 0.5, 0.0]).unwrap();
        // Sticky chain: stay with 0.8, move to the other non-bottom with 0.1,
        // drop to bottom with 0.1; from bottom stay bottom.
        let cpt = Cpt::new(
            3,
            vec![
                0.8, 0.1, 0.0, //
                0.1, 0.8, 0.0, //
                0.1, 0.1, 1.0,
            ],
        )
        .unwrap();
        Stream::markov(id(&i), d, initial, vec![cpt.clone(), cpt]).unwrap()
    }

    #[test]
    fn lengths_and_kinds() {
        assert_eq!(indep_stream().len(), 2);
        assert!(!indep_stream().is_markov());
        assert_eq!(markov_stream().len(), 3);
        assert!(markov_stream().is_markov());
    }

    #[test]
    fn marginals_view_matches_recorded_data() {
        let s = indep_stream();
        let view = s.marginals().expect("independent stream exposes marginals");
        assert_eq!(view.len(), s.len());
        for (t, m) in view.iter().enumerate() {
            assert_eq!(m.probs(), s.marginal_at(t as u32).probs());
        }
        assert!(markov_stream().marginals().is_none());
    }

    #[test]
    fn marginal_beyond_end_is_bottom() {
        let s = indep_stream();
        let m = s.marginal_at(99);
        assert_eq!(m.prob(s.domain().bottom()), 1.0);
        let s = markov_stream();
        let m = s.marginal_at(99);
        assert_eq!(m.prob(s.domain().bottom()), 1.0);
    }

    #[test]
    fn markov_marginals_follow_forward_recursion() {
        let s = markov_stream();
        let m1 = s.marginal_at(1);
        // P[X1=0] = 0.8*0.5 + 0.1*0.5 = 0.45; symmetric for X1=1;
        // P[X1=bot] = 0.1.
        assert!((m1.prob(0) - 0.45).abs() < 1e-12);
        assert!((m1.prob(1) - 0.45).abs() < 1e-12);
        assert!((m1.prob(2) - 0.10).abs() < 1e-12);
        let all = s.all_marginals();
        assert_eq!(all.len(), 3);
        for t in 0..3 {
            assert_eq!(all[t].probs(), s.marginal_at(t as u32).probs());
        }
    }

    #[test]
    fn enumeration_matches_trajectory_prob_and_sums_to_one() {
        for s in [indep_stream(), markov_stream()] {
            let trajs = s.enumerate_trajectories();
            let total: f64 = trajs.iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-9, "total {total}");
            for (traj, p) in &trajs {
                assert!((s.trajectory_prob(traj) - p).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn enumeration_marginals_match_forward_marginals() {
        let s = markov_stream();
        let trajs = s.enumerate_trajectories();
        for t in 0..s.len() {
            for d in 0..s.domain().len() {
                let enumerated: f64 = trajs
                    .iter()
                    .filter(|(traj, _)| traj[t] == d)
                    .map(|(_, p)| p)
                    .sum();
                let direct = s.marginal_at(t as u32).prob(d);
                assert!(
                    (enumerated - direct).abs() < 1e-9,
                    "t={t} d={d}: {enumerated} vs {direct}"
                );
            }
        }
    }

    #[test]
    fn sampling_approximates_marginals() {
        let s = markov_stream();
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 20_000;
        let mut counts = vec![0usize; s.domain().len()];
        for _ in 0..n {
            let traj = s.sample_trajectory(&mut rng);
            counts[traj[1]] += 1;
        }
        let m1 = s.marginal_at(1);
        for d in 0..s.domain().len() {
            let freq = counts[d] as f64 / n as f64;
            assert!(
                (freq - m1.prob(d)).abs() < 0.02,
                "d={d}: {freq} vs {}",
                m1.prob(d)
            );
        }
    }

    #[test]
    fn relational_tuple_counts() {
        let s = indep_stream();
        assert_eq!(s.relational_tuple_count(), 6);
        let s = markov_stream();
        // initial: 2 nonzero; each CPT has 7 nonzero entries.
        assert_eq!(s.relational_tuple_count(), 2 + 14);
    }

    #[test]
    fn pruned_stream_shrinks_and_stays_valid() {
        let s = markov_stream();
        let pruned = s.pruned(0.15);
        assert!(pruned.relational_tuple_count() < s.relational_tuple_count());
        // Marginals still normalize.
        for t in 0..pruned.len() as u32 {
            let m = pruned.marginal_at(t);
            let sum: f64 = m.probs().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
        // Small enough epsilon is a no-op.
        let same = s.pruned(1e-12);
        assert_eq!(same.relational_tuple_count(), s.relational_tuple_count());
    }

    #[test]
    fn independent_cpt_view() {
        let s = indep_stream();
        let cpt = s.cpt_at(0);
        for d_prev in 0..3 {
            assert!((cpt.get(1, d_prev) - 0.8).abs() < 1e-12);
        }
    }
}
