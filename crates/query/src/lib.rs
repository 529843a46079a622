//! # lahar-query — the Lahar event query language
//!
//! The query language of *Event Queries on Correlated Probabilistic
//! Streams* (SIGMOD 2008) — a strict subset of Cayuga with selections,
//! left-associative sequencing, joins via shared variables, and
//! parameterized Kleene plus — together with everything static about it:
//!
//! * [`Query`]/[`BaseQuery`]/[`Cond`] — the AST (§2.2, Definition 2.1) and
//!   a text [`parser`](parse_query).
//! * [`eval_query`]/[`satisfied_at`]/[`prob_at`] — the Fig-2 denotational
//!   semantics on deterministic worlds and the possible-world probability
//!   oracle (Definition 2.3), used as the specification for every
//!   evaluator in `lahar-core`.
//! * [`NormalQuery`] — selection push-down into the canonical
//!   one-predicate-per-subgoal form required by the translation (§3.1.1).
//! * [`classify`] and friends — the Regular / Extended-Regular / Safe /
//!   Unsafe static analysis (Definitions 3.1, 3.4, 3.5, 3.8).
//! * [`compile_safe_plan`] — Algorithm 1, producing [`SafePlan`] trees for
//!   the probabilistic stream algebra of §3.3.

#![warn(missing_docs)]

mod analysis;
mod ast;
mod matching;
mod normalize;
mod parser;
mod plan;
mod semantics;

pub use analysis::{
    cannot_unify, classify, is_extended_regular, is_regular, is_safe, shared_vars,
    streams_disjoint, syntactically_independent, validate, QueryClass, MAX_SUBGOALS,
};
pub use ast::{BaseQuery, CmpOp, Cond, Query, Subgoal, Term, Var};
pub use matching::{eval_cond, match_event, Binding, Lookup, Matcher, QueryError};
pub use normalize::{NormalItem, NormalQuery, ResidualCond};
pub use parser::{parse_and_validate, parse_query};
pub use plan::{compile_safe_plan, SafePlan};
pub use semantics::{eval_query, prob_at, prob_series, satisfied_at, ResultEvent};
