//! Subgoal-to-event matching and condition evaluation under a binding.

use crate::ast::{Cond, Subgoal, Term, Var};
use lahar_model::{Database, GroundEvent, Symbol, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A variable binding produced by matching.
pub type Binding = BTreeMap<Var, Value>;

/// Errors raised during query validation or evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A condition references a variable that is not bound at that point.
    UnboundVar(String),
    /// A condition references an undeclared relation.
    UnknownRelation(String),
    /// A subgoal references an undeclared stream type.
    UnknownStream(String),
    /// A subgoal or relation atom has the wrong number of arguments.
    ArityMismatch {
        /// The offending atom, rendered.
        atom: String,
        /// Expected arity.
        expected: usize,
        /// Actual arity.
        got: usize,
    },
    /// A Kleene plus exports a variable that does not occur in its subgoal.
    BadKleeneVar(String),
    /// The query exceeds the 32-subgoal translation limit.
    TooManySubgoals(usize),
    /// A parse error (position and message).
    Parse {
        /// Byte offset in the input.
        offset: usize,
        /// Human-readable message.
        message: String,
    },
    /// The query is not in the class required by the invoked algorithm.
    NotInClass(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnboundVar(v) => write!(f, "unbound variable {v}"),
            QueryError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            QueryError::UnknownStream(s) => write!(f, "unknown stream type {s}"),
            QueryError::ArityMismatch {
                atom,
                expected,
                got,
            } => write!(f, "{atom}: expected {expected} arguments, got {got}"),
            QueryError::BadKleeneVar(v) => {
                write!(
                    f,
                    "Kleene-shared variable {v} does not occur in its subgoal"
                )
            }
            QueryError::TooManySubgoals(n) => {
                write!(
                    f,
                    "query has {n} subgoals; the translation supports at most 32"
                )
            }
            QueryError::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            QueryError::NotInClass(c) => write!(f, "query is not {c}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Where a condition reads its variables: a [`Binding`], or the
/// variables one match bound layered over the binding it extended.
pub trait Lookup {
    /// The value bound to `v`, if any.
    fn lookup(&self, v: Var) -> Option<Value>;
}

impl Lookup for Binding {
    fn lookup(&self, v: Var) -> Option<Value> {
        self.get(&v).copied()
    }
}

/// The variables a match bound (`fresh`, never already in `outer`)
/// layered over the binding the match extended.
struct Layered<'a, L: ?Sized> {
    fresh: &'a [(Var, Value)],
    outer: &'a L,
}

impl<L: Lookup + ?Sized> Lookup for Layered<'_, L> {
    fn lookup(&self, v: Var) -> Option<Value> {
        match self.fresh.iter().find(|(w, _)| *w == v) {
            Some(&(_, value)) => Some(value),
            None => self.outer.lookup(v),
        }
    }
}

/// Matches events against subgoals — the one matcher behind both the
/// possible-world semantics ([`match_event`]) and the symbol
/// translation of the streaming engine. It reads an event's key and
/// value slices in place, binds the variables a subgoal introduces
/// into a reused buffer and probes relations through a reused tuple,
/// so matching many events with one matcher allocates nothing once
/// the buffers have grown.
#[derive(Debug, Clone, Default)]
pub struct Matcher {
    /// Variables bound by the last match, in first-occurrence order.
    fresh: Vec<(Var, Value)>,
    /// Relation probe tuple.
    probe: Vec<Value>,
}

impl Matcher {
    /// Matches the event `stream_type(key…, values…)` against subgoal
    /// `goal` under the existing binding `outer`, then checks the inner
    /// condition `cond` on the extended binding. On a match, the
    /// matcher holds the variables the subgoal bound, for
    /// [`Matcher::eval_cond`].
    ///
    /// Variables bound in `outer` act as constants (this is how shared
    /// variables constrain successor choice in the sequence semantics);
    /// repeated variables within the subgoal must match equal values.
    #[allow(clippy::too_many_arguments)]
    pub fn match_event<L: Lookup + ?Sized>(
        &mut self,
        db: &Database,
        goal: &Subgoal,
        cond: &Cond,
        stream_type: Symbol,
        key: &[Value],
        values: &[Value],
        outer: &L,
    ) -> Result<bool, QueryError> {
        self.fresh.clear();
        if stream_type != goal.stream_type || key.len() + values.len() != goal.args.len() {
            return Ok(false);
        }
        for (term, &actual) in goal.args.iter().zip(key.iter().chain(values)) {
            match term {
                Term::Const(c) => {
                    if *c != actual {
                        return Ok(false);
                    }
                }
                Term::Var(v) => {
                    let bound = Layered {
                        fresh: &self.fresh,
                        outer,
                    }
                    .lookup(*v);
                    match bound {
                        Some(bound) if bound != actual => return Ok(false),
                        Some(_) => {}
                        None => self.fresh.push((*v, actual)),
                    }
                }
            }
        }
        self.eval_cond(db, cond, outer)
    }

    /// Evaluates `cond` on the last match's binding: its fresh
    /// variables layered over `outer`.
    pub fn eval_cond<L: Lookup + ?Sized>(
        &mut self,
        db: &Database,
        cond: &Cond,
        outer: &L,
    ) -> Result<bool, QueryError> {
        let Self { fresh, probe } = self;
        eval(db, cond, &Layered { fresh, outer }, probe)
    }
}

/// Attempts to match `event` against subgoal `goal` under an existing
/// `binding`, then checks the inner condition `cond` on the extended
/// binding (see [`Matcher::match_event`]).
///
/// Returns the extended binding on success.
pub fn match_event(
    db: &Database,
    goal: &Subgoal,
    cond: &Cond,
    event: &GroundEvent,
    binding: &Binding,
) -> Result<Option<Binding>, QueryError> {
    let mut matcher = Matcher::default();
    let matched = matcher.match_event(
        db,
        goal,
        cond,
        event.stream_type,
        &event.key,
        &event.values,
        binding,
    )?;
    Ok(matched.then(|| {
        let mut extended = binding.clone();
        extended.extend(matcher.fresh.iter().copied());
        extended
    }))
}

/// Resolves a term to a value under a binding.
fn resolve<L: Lookup + ?Sized>(term: &Term, vars: &L) -> Result<Value, QueryError> {
    match term {
        Term::Const(c) => Ok(*c),
        Term::Var(v) => vars
            .lookup(*v)
            .ok_or_else(|| QueryError::UnboundVar(format!("?{}", v.0 .0))),
    }
}

/// Evaluates a condition under a binding, consulting the database's
/// standard relations for [`Cond::Rel`] atoms.
pub fn eval_cond<L: Lookup + ?Sized>(
    db: &Database,
    cond: &Cond,
    vars: &L,
) -> Result<bool, QueryError> {
    eval(db, cond, vars, &mut Vec::new())
}

/// [`eval_cond`] with a caller-owned relation probe tuple.
fn eval<L: Lookup + ?Sized>(
    db: &Database,
    cond: &Cond,
    vars: &L,
    probe: &mut Vec<Value>,
) -> Result<bool, QueryError> {
    match cond {
        Cond::True => Ok(true),
        Cond::Cmp { op, lhs, rhs } => {
            let l = resolve(lhs, vars)?;
            let r = resolve(rhs, vars)?;
            Ok(op.apply(l, r))
        }
        Cond::Rel { name, args } => {
            let rel = db.relation(*name).ok_or_else(|| {
                QueryError::UnknownRelation(db.interner().resolve(*name).unwrap_or_default())
            })?;
            probe.clear();
            for t in args {
                probe.push(resolve(t, vars)?);
            }
            Ok(rel.contains(probe))
        }
        Cond::And(a, b) => Ok(eval(db, a, vars, probe)? && eval(db, b, vars, probe)?),
        Cond::Or(a, b) => Ok(eval(db, a, vars, probe)? || eval(db, b, vars, probe)?),
        Cond::Not(a) => Ok(!eval(db, a, vars, probe)?),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;
    use lahar_model::{tuple, Database, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.declare_stream("At", &["person"], &["loc"]).unwrap();
        db.declare_relation("Hallway", 1).unwrap();
        let i = db.interner().clone();
        db.insert_relation_tuple("Hallway", tuple([i.intern("h1")]))
            .unwrap();
        db
    }

    fn event(db: &Database, person: &str, loc: &str, t: u32) -> GroundEvent {
        let i = db.interner();
        GroundEvent {
            stream_type: i.intern("At"),
            key: tuple([i.intern(person)]),
            values: tuple([i.intern(loc)]),
            t,
        }
    }

    #[test]
    fn match_binds_variables() {
        let db = db();
        let i = db.interner().clone();
        let x = Var(i.intern("x"));
        let g = Subgoal {
            stream_type: i.intern("At"),
            args: vec![Term::Var(x), Term::Const(Value::Str(i.intern("h1")))],
        };
        let e = event(&db, "joe", "h1", 3);
        let b = match_event(&db, &g, &Cond::True, &e, &Binding::new())
            .unwrap()
            .unwrap();
        assert_eq!(b[&x], Value::Str(i.intern("joe")));
        // Constant mismatch.
        let e2 = event(&db, "joe", "h2", 4);
        assert!(match_event(&db, &g, &Cond::True, &e2, &Binding::new())
            .unwrap()
            .is_none());
    }

    #[test]
    fn existing_binding_constrains_match() {
        let db = db();
        let i = db.interner().clone();
        let x = Var(i.intern("x"));
        let g = Subgoal {
            stream_type: i.intern("At"),
            args: vec![Term::Var(x), Term::Var(Var(i.intern("l")))],
        };
        let mut b = Binding::new();
        b.insert(x, Value::Str(i.intern("sue")));
        let e = event(&db, "joe", "h1", 1);
        assert!(match_event(&db, &g, &Cond::True, &e, &b).unwrap().is_none());
        let e2 = event(&db, "sue", "h1", 1);
        assert!(match_event(&db, &g, &Cond::True, &e2, &b)
            .unwrap()
            .is_some());
    }

    #[test]
    fn repeated_var_in_subgoal_requires_equal_values() {
        let db = db();
        let i = db.interner().clone();
        let x = Var(i.intern("x"));
        let g = Subgoal {
            stream_type: i.intern("At"),
            args: vec![Term::Var(x), Term::Var(x)],
        };
        let e = event(&db, "joe", "joe", 1);
        assert!(match_event(&db, &g, &Cond::True, &e, &Binding::new())
            .unwrap()
            .is_some());
        let e2 = event(&db, "joe", "h1", 1);
        assert!(match_event(&db, &g, &Cond::True, &e2, &Binding::new())
            .unwrap()
            .is_none());
    }

    #[test]
    fn inner_condition_filters_match() {
        let db = db();
        let i = db.interner().clone();
        let l = Var(i.intern("l"));
        let g = Subgoal {
            stream_type: i.intern("At"),
            args: vec![Term::Var(Var(i.intern("x"))), Term::Var(l)],
        };
        let cond = Cond::Rel {
            name: i.intern("Hallway"),
            args: vec![Term::Var(l)],
        };
        let hall = event(&db, "joe", "h1", 1);
        let office = event(&db, "joe", "o2", 1);
        assert!(match_event(&db, &g, &cond, &hall, &Binding::new())
            .unwrap()
            .is_some());
        assert!(match_event(&db, &g, &cond, &office, &Binding::new())
            .unwrap()
            .is_none());
    }

    #[test]
    fn cond_evaluation() {
        let db = db();
        let i = db.interner().clone();
        let x = Var(i.intern("x"));
        let mut b = Binding::new();
        b.insert(x, Value::Int(5));
        let gt = Cond::Cmp {
            op: CmpOp::Gt,
            lhs: Term::Var(x),
            rhs: Term::Const(Value::Int(3)),
        };
        assert!(eval_cond(&db, &gt, &b).unwrap());
        let and = gt.clone().and(Cond::Not(Box::new(gt.clone())));
        assert!(!eval_cond(&db, &and, &b).unwrap());
        let or = Cond::Or(Box::new(Cond::Not(Box::new(gt.clone()))), Box::new(gt));
        assert!(eval_cond(&db, &or, &b).unwrap());
        // Unbound variable errors out.
        let y = Var(i.intern("y"));
        let bad = Cond::Cmp {
            op: CmpOp::Eq,
            lhs: Term::Var(y),
            rhs: Term::Const(Value::Int(1)),
        };
        assert!(eval_cond(&db, &bad, &b).is_err());
        // Unknown relation errors out.
        let bad_rel = Cond::Rel {
            name: i.intern("Nope"),
            args: vec![],
        };
        assert!(eval_cond(&db, &bad_rel, &b).is_err());
    }
}
