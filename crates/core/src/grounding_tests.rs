//! Differential test of grounding: over random schemas and queries,
//! every binding's relevant streams and symbol tables, and every chain
//! [`ground`] builds, must equal what the full-scan path computes — a
//! scan of every stream per binding, and symbols matched through a
//! cloned [`GroundEvent`] and a [`Binding`] map per (outcome × item),
//! kept here verbatim as the reference. Errors must be the same variant
//! with the same text, and all chains of one query share one automaton.

use crate::chain::ChainEvaluator;
use crate::error::EngineError;
use crate::kernel;
use crate::streaming::{ground, DEFAULT_BINDING_CAP};
use crate::translate::{
    a_bit, build_regex, enumerate_bindings, m_bit, relevant_streams, substitute_items, symbol_table,
};
use crate::{RealTimeSession, SessionConfig, TickMode};
use lahar_automata::{Nfa, SymbolSet};
use lahar_model::{tuple, Database, Domain, GroundEvent, Stream, StreamKey, Value};
use lahar_query::{
    classify, match_event, parse_query, shared_vars, BaseQuery, Binding, Cond, NormalItem,
    NormalQuery, Query, QueryClass, QueryError, Subgoal, Term, Var,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Constants for keys and values alike, so a variable shared between a
/// key and a value position can match.
const POOL: [&str; 3] = ["a", "b", "c"];
const VARS: [&str; 3] = ["x", "y", "z"];

// --- The reference: the full-scan, allocating grounding path ---------

fn ref_stream_relevant(db: &Database, stream: &Stream, items: &[NormalItem]) -> bool {
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

fn ref_relevant_streams(db: &Database, items: &[NormalItem]) -> Vec<usize> {
    db.streams()
        .iter()
        .enumerate()
        .filter(|(_, s)| ref_stream_relevant(db, s, items))
        .map(|(i, _)| i)
        .collect()
}

fn ref_match_event(
    db: &Database,
    goal: &Subgoal,
    cond: &Cond,
    event: &GroundEvent,
    binding: &Binding,
) -> Result<Option<Binding>, QueryError> {
    if event.stream_type != goal.stream_type || event.arity() != goal.args.len() {
        return Ok(None);
    }
    let mut extended = binding.clone();
    for (i, term) in goal.args.iter().enumerate() {
        let actual = event.attr(i);
        match term {
            Term::Const(c) => {
                if *c != actual {
                    return Ok(None);
                }
            }
            Term::Var(v) => match extended.get(v) {
                Some(&bound) if bound != actual => return Ok(None),
                Some(_) => {}
                None => {
                    extended.insert(*v, actual);
                }
            },
        }
    }
    if ref_eval_cond(db, cond, &extended)? {
        Ok(Some(extended))
    } else {
        Ok(None)
    }
}

fn ref_resolve(term: &Term, binding: &Binding) -> Result<Value, QueryError> {
    match term {
        Term::Const(c) => Ok(*c),
        Term::Var(v) => binding
            .get(v)
            .copied()
            .ok_or_else(|| QueryError::UnboundVar(format!("?{}", v.0 .0))),
    }
}

fn ref_eval_cond(db: &Database, cond: &Cond, binding: &Binding) -> Result<bool, QueryError> {
    match cond {
        Cond::True => Ok(true),
        Cond::Cmp { op, lhs, rhs } => {
            let l = ref_resolve(lhs, binding)?;
            let r = ref_resolve(rhs, binding)?;
            Ok(op.apply(l, r))
        }
        Cond::Rel { name, args } => {
            let rel = db.relation(*name).ok_or_else(|| {
                QueryError::UnknownRelation(db.interner().resolve(*name).unwrap_or_default())
            })?;
            let vals: Result<Vec<Value>, _> =
                args.iter().map(|t| ref_resolve(t, binding)).collect();
            Ok(rel.contains(&vals?))
        }
        Cond::And(a, b) => Ok(ref_eval_cond(db, a, binding)? && ref_eval_cond(db, b, binding)?),
        Cond::Or(a, b) => Ok(ref_eval_cond(db, a, binding)? || ref_eval_cond(db, b, binding)?),
        Cond::Not(a) => Ok(!ref_eval_cond(db, a, binding)?),
    }
}

fn ref_symbols_for_event(
    db: &Database,
    event: &GroundEvent,
    items: &[NormalItem],
) -> Result<SymbolSet, EngineError> {
    let mut set = SymbolSet::EMPTY;
    for (i, item) in items.iter().enumerate() {
        let goal = item.base.goal();
        let inner = item.base.inner_cond();
        if let Some(binding) = ref_match_event(db, goal, inner, event, &Binding::new())? {
            set.insert(m_bit(i));
            let accept_cond: &Cond = match &item.base {
                BaseQuery::Kleene { each, .. } => each,
                BaseQuery::Goal { .. } => &item.assoc,
            };
            if ref_eval_cond(db, accept_cond, &binding)? {
                set.insert(a_bit(i));
            }
        }
    }
    Ok(set)
}

fn ref_symbol_table(
    db: &Database,
    stream: &Stream,
    items: &[NormalItem],
) -> Result<Vec<SymbolSet>, EngineError> {
    let domain = stream.domain();
    let mut table = vec![SymbolSet::EMPTY; domain.len()];
    for (d, values) in domain.iter() {
        let event = GroundEvent {
            stream_type: stream.id().stream_type,
            key: stream.id().key.clone(),
            values: values.clone(),
            t: 0,
        };
        table[d] = ref_symbols_for_event(db, &event, items)?;
    }
    Ok(table)
}

/// One chain as the reference grounds it: its streams and their tables.
type RefChain = (Vec<usize>, Vec<Vec<SymbolSet>>);

fn ref_chain(db: &Database, items: &[NormalItem]) -> Result<RefChain, EngineError> {
    let streams = ref_relevant_streams(db, items);
    let syms = streams
        .iter()
        .map(|&si| ref_symbol_table(db, &db.streams()[si], items))
        .collect::<Result<_, _>>()?;
    Ok((streams, syms))
}

/// Results compared as their `Debug` text: same variant, same message.
fn shown<T: std::fmt::Debug, E: std::fmt::Debug>(r: &Result<T, E>) -> String {
    format!("{r:?}")
}

// --- Random schemas and queries --------------------------------------

/// Two stream types `R`, `S` with key arities `ka`, one value attribute
/// each; relations `P` (arity 1) and `Q` (arity 2). Each possible key
/// gets a stream with probability ½, over a random non-empty subset of
/// the pool in random order.
fn random_db(rng: &mut SmallRng, ka: [usize; 2]) -> Database {
    let mut db = Database::new();
    for (name, arity) in [("R", ka[0]), ("S", ka[1])] {
        let keys: Vec<String> = (0..arity).map(|k| format!("k{k}")).collect();
        let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
        db.declare_stream(name, &keys, &["v"]).unwrap();
    }
    db.declare_relation("P", 1).unwrap();
    db.declare_relation("Q", 2).unwrap();
    let i = db.interner().clone();
    let c = |rng: &mut SmallRng| i.intern(POOL[rng.gen_range(0..POOL.len())]);
    for _ in 0..rng.gen_range(0..3) {
        let t = tuple([c(rng)]);
        db.insert_relation_tuple("P", t).unwrap();
    }
    for _ in 0..rng.gen_range(0..5) {
        let t = tuple([c(rng), c(rng)]);
        db.insert_relation_tuple("Q", t).unwrap();
    }
    for (name, arity) in [("R", ka[0]), ("S", ka[1])] {
        let n_keys = POOL.len().pow(arity as u32);
        for k in 0..n_keys {
            if rng.gen::<bool>() {
                continue;
            }
            let key: Vec<Value> = (0..arity)
                .map(|pos| {
                    let digit = k / POOL.len().pow(pos as u32) % POOL.len();
                    Value::Str(i.intern(POOL[digit]))
                })
                .collect();
            let mut values: Vec<&str> = POOL.iter().copied().filter(|_| rng.gen()).collect();
            if values.is_empty() {
                values.push(POOL[rng.gen_range(0..POOL.len())]);
            }
            for j in (1..values.len()).rev() {
                values.swap(j, rng.gen_range(0..j + 1));
            }
            let domain =
                Domain::new(1, values.iter().map(|v| tuple([i.intern(v)])).collect()).unwrap();
            let id = StreamKey {
                stream_type: i.intern(name),
                key: key.into_boxed_slice(),
            };
            db.add_stream(Stream::independent(id, domain, Vec::new()).unwrap())
                .unwrap();
        }
    }
    db
}

fn random_term(rng: &mut SmallRng) -> String {
    if rng.gen_range(0..5) < 3 {
        VARS[rng.gen_range(0..VARS.len())].to_owned()
    } else {
        format!("'{}'", POOL[rng.gen_range(0..POOL.len())])
    }
}

/// A condition over the variable pool: comparisons, relation atoms
/// (rarely an undeclared one), negation, disjunction and conjunction.
/// Its variables need not be bound where it is evaluated.
fn random_cond(rng: &mut SmallRng, depth: u32) -> String {
    let leaf = depth == 0 || rng.gen_range(0..3) == 0;
    if leaf {
        return match rng.gen_range(0..12) {
            0 => "true".to_owned(),
            1..=3 => {
                let op = ["=", "!="][rng.gen_range(0..2usize)];
                format!("{} {op} {}", random_term(rng), random_term(rng))
            }
            4..=6 => format!("P({})", random_term(rng)),
            7..=10 => format!("Q({}, {})", random_term(rng), random_term(rng)),
            _ => format!("Z({})", random_term(rng)),
        };
    }
    match rng.gen_range(0..3) {
        0 => format!("NOT ({})", random_cond(rng, depth - 1)),
        1 => format!(
            "({}) OR ({})",
            random_cond(rng, depth - 1),
            random_cond(rng, depth - 1)
        ),
        _ => format!(
            "({}) AND ({})",
            random_cond(rng, depth - 1),
            random_cond(rng, depth - 1)
        ),
    }
}

/// One to three items over `R`/`S`: goals with an optional inner
/// condition, or Kleene plus items with a shared set and an `each`
/// condition. Terms repeat variables and mix in constants at key and
/// value positions.
fn random_query(rng: &mut SmallRng, ka: [usize; 2]) -> String {
    let n_items = rng.gen_range(1..4);
    let items: Vec<String> = (0..n_items)
        .map(|_| {
            let (name, arity) = if rng.gen() {
                ("R", ka[0])
            } else {
                ("S", ka[1])
            };
            let args: Vec<String> = (0..=arity).map(|_| random_term(rng)).collect();
            let mut goal = format!("{name}({})", args.join(", "));
            if rng.gen_range(0..3) == 0 {
                goal = format!("{goal}[{}]", random_cond(rng, 2));
            }
            if rng.gen_range(0..4) == 0 {
                let shared: Vec<&str> = args
                    .iter()
                    .map(String::as_str)
                    .filter(|a| VARS.contains(a) && rng.gen())
                    .collect();
                format!(
                    "({goal})+{{{} | {}}}",
                    shared.join(", "),
                    random_cond(rng, 2)
                )
            } else {
                goal
            }
        })
        .collect();
    items.join(" ; ")
}

// --- The properties ---------------------------------------------------

/// Every binding over `vars`: relevance, symbol tables of every stream
/// and the semantics' `match_event` agree with the reference.
fn check_bindings(db: &Database, items: &[NormalItem], vars: &[Var]) -> Result<(), TestCaseError> {
    let Ok(bindings) = enumerate_bindings(db, items, vars, 1 << 12) else {
        return Ok(());
    };
    for binding in &bindings {
        let grounded = substitute_items(items, binding);
        prop_assert_eq!(
            relevant_streams(db, &grounded),
            ref_relevant_streams(db, &grounded)
        );
        for stream in db.streams() {
            prop_assert_eq!(
                shown(&symbol_table(db, stream, &grounded)),
                shown(&ref_symbol_table(db, stream, &grounded))
            );
            // The possible-world semantics' matcher, under the binding
            // as the outer (already bound) variables.
            for (_, values) in stream.domain().iter() {
                let event = GroundEvent {
                    stream_type: stream.id().stream_type,
                    key: stream.id().key.clone(),
                    values: values.clone(),
                    t: 0,
                };
                for item in items {
                    let (goal, cond) = (item.base.goal(), item.base.inner_cond());
                    prop_assert_eq!(
                        shown(&match_event(db, goal, cond, &event, binding)),
                        shown(&ref_match_event(db, goal, cond, &event, binding))
                    );
                }
            }
        }
    }
    Ok(())
}

/// A streaming query's chains equal the reference's per-binding chains
/// (or fail with the reference's first error), share one automaton —
/// the one the per-binding registry lookup resolves — and publish the
/// same automata gauges from a session.
fn check_ground(
    db: &Database,
    q: &Query,
    nq: &NormalQuery,
    class: QueryClass,
) -> Result<(), TestCaseError> {
    let binding_items: Vec<Vec<NormalItem>> = match class {
        QueryClass::Regular => vec![nq.items.clone()],
        QueryClass::ExtendedRegular => {
            let shared: Vec<Var> = shared_vars(&nq.items).into_iter().collect();
            match enumerate_bindings(db, &nq.items, &shared, DEFAULT_BINDING_CAP) {
                Ok(bindings) => bindings
                    .iter()
                    .map(|b| substitute_items(&nq.items, b))
                    .collect(),
                Err(_) => return Ok(()),
            }
        }
        _ => return Ok(()),
    };
    let reference: Result<Vec<RefChain>, EngineError> = binding_items
        .iter()
        .map(|items| ref_chain(db, items))
        .collect();
    let got = ground(db, nq, class);
    let chains: Vec<ChainEvaluator> = match (&got, &reference) {
        (Ok((_, chains)), Ok(reference)) => {
            prop_assert_eq!(chains.len(), reference.len());
            for (chain, (streams, syms)) in chains.iter().zip(reference) {
                prop_assert_eq!(chain.streams(), &streams[..]);
                prop_assert_eq!(chain.syms(), &syms[..]);
            }
            chains.clone()
        }
        (Err(e), Err(r)) => {
            prop_assert_eq!(format!("{e:?}"), format!("{r:?}"));
            return Ok(());
        }
        _ => {
            return Err(TestCaseError::fail(format!(
                "ground {} but the reference {}",
                shown(&got.as_ref().map(|_| ())),
                shown(&reference.as_ref().map(|_| ()))
            )))
        }
    };
    let ids: Vec<usize> = chains.iter().map(ChainEvaluator::automaton_id).collect();
    prop_assert!(
        ids.windows(2).all(|w| w[0] == w[1]),
        "chains split automata"
    );
    for items in &binding_items {
        let regex = build_regex(items);
        let (automaton, reused) =
            kernel::shared_automaton(&format!("{regex:?}"), || Nfa::compile(&regex));
        prop_assert!(reused, "a binding's structure resolved a fresh automaton");
        prop_assert_eq!(std::sync::Arc::as_ptr(&automaton) as usize, ids[0]);
    }
    let config = SessionConfig::builder()
        .tick_mode(TickMode::Sequential)
        .build()
        .unwrap();
    let mut session = RealTimeSession::with_config(db.clone(), config).unwrap();
    session.register_query("q", q).unwrap();
    let snap = session.stats().snapshot();
    prop_assert_eq!(snap.automata_shared, u64::from(!chains.is_empty()));
    prop_assert_eq!(snap.automata_attached, chains.len() as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn grounding_matches_the_full_scan_path(
        ka_r in 1usize..3,
        ka_s in 1usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ka = [ka_r, ka_s];
        let db = random_db(&mut rng, ka);
        for _ in 0..4 {
            let src = random_query(&mut rng, ka);
            let Ok(q) = parse_query(db.interner(), &src) else {
                return Err(TestCaseError::fail(format!("generated {src} does not parse")));
            };
            let nq = NormalQuery::from_query(&q);
            let shared: Vec<Var> = shared_vars(&nq.items).into_iter().collect();
            let all: Vec<Var> = nq
                .items
                .iter()
                .flat_map(|item| item.base.goal().vars())
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            for vars in [Vec::new(), shared, all] {
                check_bindings(&db, &nq.items, &vars)?;
            }
            let class = classify(db.catalog(), &nq);
            check_ground(&db, &q, &nq, class)?;
        }
    }
}
