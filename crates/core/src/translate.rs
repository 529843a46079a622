//! The §3.1.1 translation: regular queries → symbolic regular expressions
//! plus a per-event symbol table.
//!
//! For a regular query with subgoals `g1 … gn`, the symbol universe is
//! `L_q = {m_1 … m_n, a_1 … a_n}`: at timestep `t`, the input symbol set
//! `S(t)` contains `m_i` when some event at `t` unifies with `g_i` (and
//! satisfies its inner predicate), and additionally `a_i` when the event
//! also satisfies the associated predicate `σ_i` (the per-repetition
//! predicate `θ2` for Kleene items). The translation of the query is
//!
//! ```text
//! first item, goal:    {a_1}
//! first item, kleene:  {a_1}, ((¬{m_1, a_1})*, {a_1})*
//! later item, goal:    (¬{m_i, a_i})*, {a_i}
//! later item, kleene:  ((¬{m_i, a_i})*, {a_i})+
//! ```
//!
//! concatenated and prefixed with `.*` (queries may begin at any time).
//!
//! Symbols are assigned bits `m_i ↦ 2i`, `a_i ↦ 2i + 1`.

use crate::error::EngineError;
use lahar_automata::{Regex, SymbolSet};
use lahar_model::{Database, GroundEvent, Stream, StreamId, StreamKey, Symbol, Value};
use lahar_query::{BaseQuery, Binding, Cond, Matcher, NormalItem, Subgoal, Term, Var};

/// Bit index of the *match* symbol of item `i`.
pub fn m_bit(i: usize) -> u32 {
    (2 * i) as u32
}

/// Bit index of the *accept* symbol of item `i`.
pub fn a_bit(i: usize) -> u32 {
    (2 * i + 1) as u32
}

/// Builds the paper's regular expression for a sequence of (grounded,
/// regular) items, including the leading `.*`.
pub fn build_regex(items: &[NormalItem]) -> Regex {
    let mut e = Regex::any_star();
    for (i, item) in items.iter().enumerate() {
        let ma = SymbolSet::singleton(m_bit(i)).union(SymbolSet::singleton(a_bit(i)));
        let a = SymbolSet::singleton(a_bit(i));
        let is_kleene = item.base.is_kleene();
        if i == 0 {
            // No predecessor: the first occurrence is unconstrained by
            // successor competition.
            e = e.then(Regex::superset(a));
            if is_kleene {
                e = e.then(Regex::disjoint(ma).star().then(Regex::superset(a)).star());
            }
        } else if is_kleene {
            e = e.then(Regex::disjoint(ma).star().then(Regex::superset(a)).plus());
        } else {
            e = e.then(Regex::disjoint(ma).star()).then(Regex::superset(a));
        }
    }
    e
}

/// Substitutes constants for variables throughout a sequence of items
/// (used to ground the `reg⟨V⟩` leaf of safe plans and the per-binding
/// chains of extended regular queries).
pub fn substitute_items(items: &[NormalItem], binding: &Binding) -> Vec<NormalItem> {
    items
        .iter()
        .map(|item| NormalItem {
            base: substitute_base(&item.base, binding),
            assoc: substitute_cond(&item.assoc, binding),
        })
        .collect()
}

fn substitute_base(base: &BaseQuery, binding: &Binding) -> BaseQuery {
    match base {
        BaseQuery::Goal { goal, cond } => BaseQuery::Goal {
            goal: substitute_goal(goal, binding),
            cond: substitute_cond(cond, binding),
        },
        BaseQuery::Kleene {
            goal,
            cond,
            shared,
            each,
        } => BaseQuery::Kleene {
            goal: substitute_goal(goal, binding),
            cond: substitute_cond(cond, binding),
            shared: shared
                .iter()
                .copied()
                .filter(|v| !binding.contains_key(v))
                .collect(),
            each: substitute_cond(each, binding),
        },
    }
}

fn substitute_goal(goal: &Subgoal, binding: &Binding) -> Subgoal {
    Subgoal {
        stream_type: goal.stream_type,
        args: goal
            .args
            .iter()
            .map(|t| substitute_term(t, binding))
            .collect(),
    }
}

fn substitute_term(t: &Term, binding: &Binding) -> Term {
    match t {
        Term::Var(v) => match binding.get(v) {
            Some(val) => Term::Const(*val),
            None => *t,
        },
        Term::Const(_) => *t,
    }
}

/// Substitutes constants for bound variables in a condition.
pub fn substitute_cond(c: &Cond, binding: &Binding) -> Cond {
    match c {
        Cond::True => Cond::True,
        Cond::Cmp { op, lhs, rhs } => Cond::Cmp {
            op: *op,
            lhs: substitute_term(lhs, binding),
            rhs: substitute_term(rhs, binding),
        },
        Cond::Rel { name, args } => Cond::Rel {
            name: *name,
            args: args.iter().map(|t| substitute_term(t, binding)).collect(),
        },
        Cond::And(a, b) => Cond::And(
            Box::new(substitute_cond(a, binding)),
            Box::new(substitute_cond(b, binding)),
        ),
        Cond::Or(a, b) => Cond::Or(
            Box::new(substitute_cond(a, binding)),
            Box::new(substitute_cond(b, binding)),
        ),
        Cond::Not(a) => Cond::Not(Box::new(substitute_cond(a, binding))),
    }
}

/// True when `stream` could produce an event unifying with some item's
/// subgoal: the stream type matches and every key-position constant in the
/// subgoal equals the stream's key component.
pub fn stream_relevant(db: &Database, stream: &Stream, items: &[NormalItem]) -> bool {
    items.iter().any(|item| {
        let goal = item.base.goal();
        if goal.stream_type != stream.id().stream_type {
            return false;
        }
        let schema = match db.catalog().stream(goal.stream_type) {
            Some(s) => s,
            None => return false,
        };
        (0..schema.key_arity).all(|i| match &goal.args[i] {
            Term::Const(c) => stream.id().key.get(i) == Some(c),
            Term::Var(_) => true,
        })
    })
}

/// The indices (into `db.streams()`) of the streams relevant to the
/// items, sorted and deduplicated. When every item's subgoal names all
/// of its key attributes by constants — every per-binding chain of an
/// extended regular query keyed by its shared variables — the streams
/// come from the database's key index; otherwise every stream is
/// checked with [`stream_relevant`].
pub fn relevant_streams(db: &Database, items: &[NormalItem]) -> Vec<usize> {
    if let Some(mut found) = keyed_streams(db, items) {
        found.sort_unstable();
        found.dedup();
        return found;
    }
    db.streams()
        .iter()
        .enumerate()
        .filter(|(_, s)| stream_relevant(db, s, items))
        .map(|(i, _)| i)
        .collect()
}

/// The streams the items' fully constant keys name, or `None` when some
/// item's key holds a variable. An item of an undeclared stream type
/// names no stream.
fn keyed_streams(db: &Database, items: &[NormalItem]) -> Option<Vec<usize>> {
    let mut found = Vec::with_capacity(items.len());
    for item in items {
        let goal = item.base.goal();
        let Some(schema) = db.catalog().stream(goal.stream_type) else {
            continue;
        };
        let key = goal
            .args
            .get(..schema.key_arity)?
            .iter()
            .map(|t| match t {
                Term::Const(c) => Some(*c),
                Term::Var(_) => None,
            })
            .collect::<Option<_>>()?;
        let id = StreamKey {
            stream_type: goal.stream_type,
            key,
        };
        found.extend(db.stream_id(&id).map(StreamId::index));
    }
    Some(found)
}

/// The per-outcome symbol table of one stream: `syms[d]` is the symbol set
/// contributed by the event "stream emits outcome `d`" (empty for ⊥ and
/// for outcomes matching no subgoal).
pub fn symbol_table(
    db: &Database,
    stream: &Stream,
    items: &[NormalItem],
) -> Result<Vec<SymbolSet>, EngineError> {
    let mut matcher = Matcher::default();
    let id = stream.id();
    let mut table = (stream.domain().iter())
        .map(|(_, values)| symbols_of(&mut matcher, db, (id.stream_type, &id.key, values), items))
        .collect::<Result<Vec<_>, _>>()?;
    table.push(SymbolSet::EMPTY); // ⊥
    Ok(table)
}

/// The symbol set contributed by a single deterministic event.
pub fn symbols_for_event(
    db: &Database,
    event: &GroundEvent,
    items: &[NormalItem],
) -> Result<SymbolSet, EngineError> {
    symbols_of(
        &mut Matcher::default(),
        db,
        (event.stream_type, &event.key, &event.values),
        items,
    )
}

/// The symbol set of the event `(stream type, key, values)`, matched
/// with a reused matcher.
fn symbols_of(
    matcher: &mut Matcher,
    db: &Database,
    (stream_type, key, values): (Symbol, &[Value], &[Value]),
    items: &[NormalItem],
) -> Result<SymbolSet, EngineError> {
    let unbound = Binding::new();
    let mut set = SymbolSet::EMPTY;
    for (i, item) in items.iter().enumerate() {
        let goal = item.base.goal();
        let inner = item.base.inner_cond();
        if matcher.match_event(db, goal, inner, stream_type, key, values, &unbound)? {
            set.insert(m_bit(i));
            let accept_cond: &Cond = match &item.base {
                BaseQuery::Kleene { each, .. } => each,
                BaseQuery::Goal { .. } => &item.assoc,
            };
            if matcher.eval_cond(db, accept_cond, &unbound)? {
                set.insert(a_bit(i));
            }
        }
    }
    Ok(set)
}

/// Candidate constants for grounding a variable: the values observed at
/// `x`'s positions across the database's streams, intersected over the
/// subgoals in which `x` occurs.
pub fn candidate_values(db: &Database, items: &[NormalItem], x: Var) -> Vec<Value> {
    use std::collections::BTreeSet;
    let mut candidates: Option<BTreeSet<Value>> = None;
    for item in items {
        let goal = item.base.goal();
        let positions = goal.positions_of(x);
        if positions.is_empty() {
            continue;
        }
        let schema = match db.catalog().stream(goal.stream_type) {
            Some(s) => s,
            None => continue,
        };
        let mut here = BTreeSet::new();
        for stream in db.streams_of_type(goal.stream_type) {
            for &pos in &positions {
                if schema.is_key_position(pos) {
                    if let Some(v) = stream.id().key.get(pos) {
                        here.insert(*v);
                    }
                } else {
                    let vpos = pos - schema.key_arity;
                    for (_, values) in stream.domain().iter() {
                        if let Some(v) = values.get(vpos) {
                            here.insert(*v);
                        }
                    }
                }
            }
        }
        candidates = Some(match candidates {
            None => here,
            Some(prev) => prev.intersection(&here).copied().collect(),
        });
    }
    candidates
        .map(|s| s.into_iter().collect())
        .unwrap_or_default()
}

/// Grounds a tuple of variables over their candidate sets, returning every
/// joint binding.
pub fn enumerate_bindings(
    db: &Database,
    items: &[NormalItem],
    vars: &[Var],
    cap: usize,
) -> Result<Vec<Binding>, EngineError> {
    let per_var: Vec<Vec<Value>> = vars
        .iter()
        .map(|&x| candidate_values(db, items, x))
        .collect();
    let count: usize = per_var.iter().map(Vec::len).product();
    if count > cap {
        return Err(EngineError::TooManyGroundings { count, cap });
    }
    let mut out = vec![Binding::new()];
    for (x, values) in vars.iter().zip(&per_var) {
        let mut next = Vec::with_capacity(out.len() * values.len());
        for b in &out {
            for v in values {
                let mut b2 = b.clone();
                b2.insert(*x, *v);
                next.push(b2);
            }
        }
        out = next;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lahar_model::{StreamBuilder, Value};
    use lahar_query::{parse_query, NormalQuery};

    fn db_with_joe_sue() -> Database {
        let mut db = Database::new();
        db.declare_stream("At", &["person"], &["loc"]).unwrap();
        db.declare_relation("Hallway", 1).unwrap();
        let i = db.interner().clone();
        db.insert_relation_tuple("Hallway", lahar_model::tuple([i.intern("h1")]))
            .unwrap();
        for person in ["joe", "sue"] {
            let b = StreamBuilder::new(&i, "At", &[person], &["a", "h1", "c"]);
            let m = b.marginal(&[("a", 0.5), ("h1", 0.5)]).unwrap();
            let s = b.independent(vec![m]).unwrap();
            db.add_stream(s).unwrap();
        }
        db
    }

    fn items(db: &Database, src: &str) -> Vec<NormalItem> {
        let q = parse_query(db.interner(), src).unwrap();
        NormalQuery::from_query(&q).items
    }

    #[test]
    fn regex_shapes_match_the_paper() {
        let db = db_with_joe_sue();
        // Two plain goals: .* {a0} ¬{m1,a1}* {a1}.
        let it = items(&db, "At('joe','a') ; At('joe','c')");
        let e = build_regex(&it);
        assert_eq!(e.to_string(), "(.*, {1}, ¬{2,3}*, {3})");
        // Goal then kleene then goal.
        let it = items(&db, "At('joe','a') ; (At('joe', l))+{} ; At('joe','c')");
        let e = build_regex(&it);
        assert_eq!(e.to_string(), "(.*, {1}, (¬{2,3}*, {3})+, ¬{4,5}*, {5})");
        // Kleene first.
        let it = items(&db, "(At('joe', l))+{}");
        let e = build_regex(&it);
        assert_eq!(e.to_string(), "(.*, {1}, (¬{0,1}*, {1})*)");
    }

    #[test]
    fn ex_3_11_symbol_translation_differs_for_qf_and_qs() {
        // q_f = R('a'); R('b')  vs  q_s = sigma[y='b'](R('a'); R(y)).
        let mut db = Database::new();
        db.declare_stream("R", &[], &["y"]).unwrap();
        let i = db.interner().clone();
        let b = StreamBuilder::new(&i, "R", &[], &["a", "b", "c"]);
        let s = b.deterministic(&[Some("a"), Some("c"), Some("b")]).unwrap();
        db.add_stream(s).unwrap();
        let stream = &db.streams()[0];

        let qf = items(&db, "R('a') ; R('b')");
        let table = symbol_table(&db, stream, &qf).unwrap();
        let d = |name: &str| {
            stream
                .domain()
                .index_of(&lahar_model::tuple([i.intern(name)]))
                .unwrap()
        };
        // For q_f, R(c) produces no symbols at all (it does not unify with
        // the constant pattern R('b')).
        assert_eq!(table[d("c")], SymbolSet::EMPTY);
        assert!(table[d("a")].contains(m_bit(0)) && table[d("a")].contains(a_bit(0)));
        assert!(table[d("b")].contains(m_bit(1)) && table[d("b")].contains(a_bit(1)));

        let qs = items(&db, "sigma[y = 'b'](R('a') ; R(y))");
        let table = symbol_table(&db, stream, &qs).unwrap();
        // For q_s, R(c) unifies with R(y) (m_1) but fails y='b' (no a_1):
        // exactly the paper's table in §3.1.1.
        assert!(table[d("c")].contains(m_bit(1)));
        assert!(!table[d("c")].contains(a_bit(1)));
        assert!(table[d("b")].contains(a_bit(1)));
        // R(a) also unifies with R(y).
        assert!(table[d("a")].contains(m_bit(1)));
        assert!(!table[d("a")].contains(a_bit(1)));
    }

    #[test]
    fn relevance_filters_by_key_constants() {
        let db = db_with_joe_sue();
        let it = items(&db, "At('joe','a') ; At('joe','c')");
        let rel = relevant_streams(&db, &it);
        assert_eq!(rel.len(), 1);
        assert_eq!(
            db.streams()[rel[0]].id().key[0],
            Value::Str(db.interner().intern("joe"))
        );
        // A variable key makes every At stream relevant.
        let it = items(&db, "At(p,'a') ; At(p,'c')");
        assert_eq!(relevant_streams(&db, &it).len(), 2);
    }

    #[test]
    fn substitution_grounds_vars_and_prunes_kleene_shared() {
        let db = db_with_joe_sue();
        let i = db.interner().clone();
        let it = items(&db, "At(p,'a') ; (At(p, l))+{p}");
        let mut binding = Binding::new();
        binding.insert(Var(i.intern("p")), Value::Str(i.intern("joe")));
        let grounded = substitute_items(&it, &binding);
        assert_eq!(
            grounded[0].base.goal().args[0],
            Term::Const(Value::Str(i.intern("joe")))
        );
        match &grounded[1].base {
            BaseQuery::Kleene { shared, .. } => assert!(shared.is_empty()),
            other => panic!("expected kleene, got {other:?}"),
        }
    }

    #[test]
    fn candidate_values_intersect_across_subgoals() {
        let db = db_with_joe_sue();
        let i = db.interner().clone();
        let it = items(&db, "At(p,'a') ; At(p,'c')");
        let p = Var(i.intern("p"));
        let vals = candidate_values(&db, &it, p);
        assert_eq!(vals.len(), 2); // joe and sue.
        let bindings = enumerate_bindings(&db, &it, &[p], 100).unwrap();
        assert_eq!(bindings.len(), 2);
        assert!(matches!(
            enumerate_bindings(&db, &it, &[p], 1),
            Err(EngineError::TooManyGroundings { .. })
        ));
    }

    #[test]
    fn inner_cond_gates_match_symbol() {
        let db = db_with_joe_sue();
        let it = items(&db, "At('joe', l)[Hallway(l)]");
        let stream = &db.streams()[0];
        let table = symbol_table(&db, stream, &it).unwrap();
        let i = db.interner().clone();
        let d = |name: &str| {
            stream
                .domain()
                .index_of(&lahar_model::tuple([i.intern(name)]))
                .unwrap()
        };
        // 'a' is not a hallway: no m-symbol at all (inner condition is part
        // of matching).
        assert_eq!(table[d("a")], SymbolSet::EMPTY);
        assert!(table[d("h1")].contains(m_bit(0)));
        assert!(table[d("h1")].contains(a_bit(0)));
    }
}
