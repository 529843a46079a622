//! The probabilistic event database.
//!
//! A [`Database`] (paper §2.3) holds a set of probabilistic event streams —
//! distinct streams are independent, while a single stream may carry
//! Markovian correlations — plus optional standard relations (`Hallway`,
//! `Office`, …) used by query predicates.

use crate::dist::ModelError;
use crate::schema::{Catalog, CatalogError};
use crate::stream::{Stream, StreamKey};
use crate::value::{Interner, Symbol, Tuple, Value};
use crate::world::{GroundEvent, World};
use rand::Rng;
use std::collections::{HashMap, HashSet};

/// A deterministic, time-invariant relation (e.g. the set of hallway
/// locations).
#[derive(Debug, Clone, Default)]
pub struct Relation {
    arity: usize,
    tuples: HashSet<Tuple>,
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Self {
            arity,
            tuples: HashSet::new(),
        }
    }

    /// Inserts a tuple; returns an error on arity mismatch.
    pub fn insert(&mut self, t: Tuple) -> Result<(), ModelError> {
        if t.len() != self.arity {
            return Err(ModelError::ArityMismatch {
                expected: self.arity,
                got: t.len(),
            });
        }
        self.tuples.insert(t);
        Ok(())
    }

    /// Membership test.
    pub fn contains(&self, t: &[Value]) -> bool {
        self.tuples.contains(t)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterates over the tuples (unordered).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }
}

/// Opaque handle to one stream of one [`Database`].
///
/// A `StreamId` is obtained from [`Database::stream_id`] (lookup by
/// [`StreamKey`]) or [`Database::stream_id_at`] (lookup by position) and
/// is only meaningful for the database — or a schema-identical clone,
/// such as a checkpoint-restored session database — that produced it.
/// It exists so per-tick hot paths (staging, ingestion) can address
/// streams in `O(1)` without the caller juggling raw `usize` positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(usize);

impl StreamId {
    /// The position of the stream in [`Database::streams`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// A probabilistic event database: streams + relations + catalog.
#[derive(Debug, Clone, Default)]
pub struct Database {
    interner: Interner,
    catalog: Catalog,
    streams: Vec<Stream>,
    by_id: HashMap<StreamKey, usize>,
    relations: HashMap<Symbol, Relation>,
}

impl Database {
    /// An empty database with a fresh interner and catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared string interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The schema catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Declares a stream type (see [`Catalog::declare_stream`]).
    pub fn declare_stream(
        &mut self,
        name: &str,
        key_attrs: &[&str],
        value_attrs: &[&str],
    ) -> Result<(), CatalogError> {
        self.catalog
            .declare_stream(&self.interner, name, key_attrs, value_attrs)?;
        Ok(())
    }

    /// Declares a standard relation and returns a handle for inserting.
    pub fn declare_relation(&mut self, name: &str, arity: usize) -> Result<(), CatalogError> {
        let schema = self.catalog.declare_relation(&self.interner, name, arity)?;
        self.relations.insert(schema.name, Relation::new(arity));
        Ok(())
    }

    /// Inserts a tuple into a declared relation.
    pub fn insert_relation_tuple(&mut self, name: &str, t: Tuple) -> Result<(), ModelError> {
        let sym = self.interner.intern(name);
        let rel = self
            .relations
            .get_mut(&sym)
            .ok_or_else(|| ModelError::UnknownTuple(format!("relation {name} not declared")))?;
        rel.insert(t)
    }

    /// Looks up a relation by name symbol.
    pub fn relation(&self, name: Symbol) -> Option<&Relation> {
        self.relations.get(&name)
    }

    /// Adds a stream; rejects a second stream with the same (type, key).
    pub fn add_stream(&mut self, stream: Stream) -> Result<(), ModelError> {
        if self.by_id.contains_key(stream.id()) {
            return Err(ModelError::DuplicateStream(
                stream.id().display(&self.interner),
            ));
        }
        self.by_id.insert(stream.id().clone(), self.streams.len());
        self.streams.push(stream);
        Ok(())
    }

    /// All streams, in insertion order.
    pub fn streams(&self) -> &[Stream] {
        &self.streams
    }

    /// Appends one timestep's marginal to the identified (independent)
    /// stream — the real-time ingestion path.
    pub fn push_marginal(
        &mut self,
        id: &StreamKey,
        marginal: crate::dist::Marginal,
    ) -> Result<(), ModelError> {
        let idx = *self
            .by_id
            .get(id)
            .ok_or_else(|| ModelError::UnknownTuple(id.display(&self.interner)))?;
        self.streams[idx].push_marginal(marginal)
    }

    /// [`Database::push_marginal`] addressed by stream index (position in
    /// [`Database::streams`]) — the per-tick ingestion hot path, where the
    /// caller already resolved the index and an id lookup per append would
    /// be pure overhead.
    pub fn push_marginal_at(
        &mut self,
        idx: usize,
        marginal: crate::dist::Marginal,
    ) -> Result<(), ModelError> {
        let stream = self
            .streams
            .get_mut(idx)
            .ok_or_else(|| ModelError::UnknownTuple(format!("stream index {idx}")))?;
        stream.push_marginal(marginal)
    }

    /// Drops every independent stream's recorded marginals, keeping the
    /// declared streams, relations and catalog — what a session whose
    /// marginal history is bounded does once it stops recording.
    pub fn clear_marginals(&mut self) {
        for stream in &mut self.streams {
            stream.clear_marginals();
        }
    }

    /// Looks up a stream by identity.
    pub fn stream(&self, id: &StreamKey) -> Option<&Stream> {
        self.by_id.get(id).map(|&i| &self.streams[i])
    }

    /// Resolves a stream's opaque [`StreamId`] handle from its identity
    /// key — the typed replacement for addressing streams by raw index.
    pub fn stream_id(&self, key: &StreamKey) -> Option<StreamId> {
        self.by_id.get(key).copied().map(StreamId)
    }

    /// The [`StreamId`] of the stream at `index` (its position in
    /// [`Database::streams`]), when one exists.
    pub fn stream_id_at(&self, index: usize) -> Option<StreamId> {
        (index < self.streams.len()).then_some(StreamId(index))
    }

    /// Handles for every stream, in insertion order.
    pub fn stream_ids(&self) -> impl Iterator<Item = StreamId> {
        (0..self.streams.len()).map(StreamId)
    }

    /// Streams of a given type.
    pub fn streams_of_type(&self, stream_type: Symbol) -> impl Iterator<Item = &Stream> {
        self.streams
            .iter()
            .filter(move |s| s.id().stream_type == stream_type)
    }

    /// The horizon: one past the last recorded timestep across all streams.
    pub fn horizon(&self) -> u32 {
        self.streams
            .iter()
            .map(|s| s.len() as u32)
            .max()
            .unwrap_or(0)
    }

    /// Total relational tuple count across all streams (paper Fig 8(b)).
    pub fn relational_tuple_count(&self) -> usize {
        self.streams
            .iter()
            .map(Stream::relational_tuple_count)
            .sum()
    }

    /// Materializes the world induced by one trajectory per stream
    /// (`trajectories[i]` belongs to `self.streams()[i]`).
    pub fn world_from_trajectories(&self, trajectories: &[Vec<usize>]) -> World {
        assert_eq!(trajectories.len(), self.streams.len());
        let mut events = Vec::new();
        for (stream, traj) in self.streams.iter().zip(trajectories) {
            let dom = stream.domain();
            for (t, &d) in traj.iter().enumerate() {
                if let Some(values) = dom.tuple(d) {
                    events.push(GroundEvent {
                        stream_type: stream.id().stream_type,
                        key: stream.id().key.clone(),
                        values: values.clone(),
                        t: t as u32,
                    });
                }
            }
        }
        let t_max = self.horizon().saturating_sub(1);
        World::new(events, t_max)
    }

    /// Enumerates **all** possible worlds with their probabilities `μ(W)`.
    ///
    /// The result is the exact distribution the query semantics is defined
    /// over; the total probability sums to 1. Exponential — test-sized
    /// databases only.
    pub fn enumerate_worlds(&self) -> Vec<(World, f64)> {
        let per_stream: Vec<Vec<(Vec<usize>, f64)>> = self
            .streams
            .iter()
            .map(Stream::enumerate_trajectories)
            .collect();
        let mut worlds = Vec::new();
        let mut choice = vec![0usize; per_stream.len()];
        loop {
            let mut p = 1.0;
            let mut trajs = Vec::with_capacity(per_stream.len());
            for (i, options) in per_stream.iter().enumerate() {
                let (traj, tp) = &options[choice[i]];
                p *= tp;
                trajs.push(traj.clone());
            }
            if p > 0.0 {
                worlds.push((self.world_from_trajectories(&trajs), p));
            }
            // Odometer increment over the per-stream option indices.
            let mut i = 0;
            loop {
                if i == per_stream.len() {
                    return worlds;
                }
                choice[i] += 1;
                if choice[i] < per_stream[i].len() {
                    break;
                }
                choice[i] = 0;
                i += 1;
            }
        }
    }

    /// Samples a single world from the database's distribution.
    pub fn sample_world<R: Rng + ?Sized>(&self, rng: &mut R) -> World {
        let trajs: Vec<Vec<usize>> = self
            .streams
            .iter()
            .map(|s| s.sample_trajectory(rng))
            .collect();
        self.world_from_trajectories(&trajs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Domain, Marginal};
    use crate::value::tuple;

    fn tiny_db() -> Database {
        let mut db = Database::new();
        db.declare_stream("At", &["person"], &["loc"]).unwrap();
        let i = db.interner().clone();
        let dom = Domain::new(1, vec![tuple([i.intern("a")]), tuple([i.intern("b")])]).unwrap();
        let id = StreamKey {
            stream_type: i.intern("At"),
            key: tuple([i.intern("joe")]),
        };
        let s = Stream::independent(
            id,
            dom.clone(),
            vec![
                Marginal::new(&dom, vec![0.5, 0.5, 0.0]).unwrap(),
                Marginal::new(&dom, vec![0.0, 0.7, 0.3]).unwrap(),
            ],
        )
        .unwrap();
        db.add_stream(s).unwrap();
        db
    }

    #[test]
    fn duplicate_streams_rejected() {
        let mut db = tiny_db();
        let dup = db.streams()[0].clone();
        assert!(db.add_stream(dup).is_err());
    }

    #[test]
    fn relations_round_trip() {
        let mut db = tiny_db();
        db.declare_relation("Hallway", 1).unwrap();
        let i = db.interner().clone();
        db.insert_relation_tuple("Hallway", tuple([i.intern("h1")]))
            .unwrap();
        let rel = db.relation(i.intern("Hallway")).unwrap();
        assert!(rel.contains(&tuple([i.intern("h1")])));
        assert!(!rel.contains(&tuple([i.intern("h2")])));
        assert!(db
            .insert_relation_tuple("Hallway", tuple([i.intern("a"), i.intern("b")]))
            .is_err());
        assert!(db
            .insert_relation_tuple("Nope", tuple([i.intern("x")]))
            .is_err());
    }

    #[test]
    fn world_enumeration_sums_to_one() {
        let db = tiny_db();
        let worlds = db.enumerate_worlds();
        // t0: 2 options, t1: 2 options -> 4 worlds.
        assert_eq!(worlds.len(), 4);
        let total: f64 = worlds.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn worlds_respect_bottom() {
        let db = tiny_db();
        // The world where t1 draws bottom has a single event.
        let worlds = db.enumerate_worlds();
        let with_one_event: f64 = worlds
            .iter()
            .filter(|(w, _)| w.len() == 1)
            .map(|(_, p)| p)
            .sum();
        // P[bottom at t1] = 0.3 (both t0 choices).
        assert!((with_one_event - 0.3).abs() < 1e-9);
    }

    #[test]
    fn horizon_and_tuple_count() {
        let db = tiny_db();
        assert_eq!(db.horizon(), 2);
        assert_eq!(db.relational_tuple_count(), 4);
    }

    #[test]
    fn multi_stream_enumeration_is_product() {
        let mut db = tiny_db();
        let i = db.interner().clone();
        let dom = Domain::new(1, vec![tuple([i.intern("a")])]).unwrap();
        let id = StreamKey {
            stream_type: i.intern("At"),
            key: tuple([i.intern("sue")]),
        };
        let s = Stream::independent(
            id,
            dom.clone(),
            vec![Marginal::new(&dom, vec![0.4, 0.6]).unwrap()],
        )
        .unwrap();
        db.add_stream(s).unwrap();
        let worlds = db.enumerate_worlds();
        assert_eq!(worlds.len(), 8);
        let total: f64 = worlds.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
