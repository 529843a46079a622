//! # lahar-core — the Lahar event-query engine
//!
//! Exact and approximate evaluation of event queries on correlated
//! probabilistic streams, implementing §3 of *Event Queries on Correlated
//! Probabilistic Streams* (Ré, Letchner, Balazinska, Suciu — SIGMOD 2008):
//!
//! | Class (static analysis) | Evaluator | Cost |
//! |---|---|---|
//! | Regular (Def 3.1) | [`ChainEvaluator`] — symbol-set translation + NFA simulated as a Markov chain over (hidden value × automaton state) | `O(1)` space, streaming (Thm 3.3) |
//! | Extended regular (Def 3.5) | one [`ChainEvaluator`] per key binding, stepped together and combined as `1 − Π(1 − pᵢ)` | `O(m)` space (Thm 3.7) |
//! | Safe (Def 3.8) | [`SafePlanExecutor`] — interval algebra with the latest-precursor/latest-witness `seq` factorization | `O(|W| T²)` offline (Thm 3.10) |
//! | Unsafe (§3.4, #P-hard) | [`Sampler`] — (ε, δ) Monte Carlo with bitvector world-parallel NFA simulation | Prop 3.20 |
//!
//! The easiest entry point is the [`Lahar`] facade:
//!
//! ```
//! use lahar_core::Lahar;
//! use lahar_model::{Database, StreamBuilder};
//!
//! let mut db = Database::new();
//! db.declare_stream("At", &["person"], &["loc"]).unwrap();
//! let b = StreamBuilder::new(db.interner(), "At", &["joe"], &["office", "coffee"]);
//! let marginals = vec![
//!     b.marginal(&[("office", 0.9)]).unwrap(),
//!     b.marginal(&[("coffee", 0.6), ("office", 0.3)]).unwrap(),
//! ];
//! db.add_stream(b.independent(marginals).unwrap()).unwrap();
//!
//! let series = Lahar::prob_series(&db, "At('joe','office') ; At('joe','coffee')").unwrap();
//! assert!((series[1] - 0.54).abs() < 1e-9);
//! ```
//!
//! Every exact evaluator in this crate is property-tested against the
//! possible-world oracle of `lahar-query` (`prob_series`).

#![warn(missing_docs)]
#![deny(unsafe_code)] // sole exception: the annotated `simd` kernel module
#![allow(clippy::needless_range_loop)] // numeric kernels index flat matrices

mod chain;
pub mod checkpoint;
mod client;
mod engine;
mod error;
pub mod expose;
pub mod failpoint;
#[cfg(test)]
mod grounding_tests;
mod interval;
pub mod json;
mod kernel;
mod occurrence;
mod pool;
pub mod protocol;
mod reactor;
mod safeplan;
mod sampler;
mod server;
mod session;
#[allow(unsafe_code)] // see the module's unsafe-audit policy
pub mod simd;
mod soa;
mod stats;
mod streaming;
#[allow(unsafe_code)] // see the module's unsafe-audit policy
mod sys_poll;
pub mod trace;
mod translate;
pub mod wal;

pub use chain::{ChainEvaluator, DEFAULT_STATE_CAP};
pub use checkpoint::{Checkpoint, CHECKPOINT_VERSION};
pub use client::{LaharClient, RetryPolicy};
pub use engine::{Algorithm, CompileOptions, CompiledQuery, Lahar, QuerySource};
pub use error::EngineError;
pub use expose::{health_report, HealthRenderer, MetricsRenderer, MetricsServer};
pub use interval::IntervalChain;
pub use occurrence::{OccurrenceModel, TpTw};
pub use protocol::WireCode;
pub use safeplan::SafePlanExecutor;
pub use sampler::{Sampler, SamplerConfig};
pub use server::{LaharServer, ServerConfig, ServerConfigBuilder};
pub use session::{Alert, QueryId, RealTimeSession, SessionConfig, SessionConfigBuilder, TickMode};
pub use stats::{EngineStats, LatencySnapshot, QuerySnapshot, StatsSnapshot};
pub use streaming::DEFAULT_BINDING_CAP;
pub use translate::{build_regex, substitute_items, symbols_for_event};
pub use wal::Durability;
