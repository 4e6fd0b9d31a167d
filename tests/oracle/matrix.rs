//! The matrix of production sources. Each [`Entry`] opens one source over
//! a [`World`] and answers every battery and generated query from it;
//! [`run_matrix`] compares each answer with `eval.rs` on the state the
//! entry reads and counts the comparisons per entry.
//!
//! A test runs the matrix by listing its entries: a new source (say, a
//! database under a page budget) is one more [`entry`] in that list, and
//! the function that opens it.

use crate::oracle::world::{
    canonical, case_strategy, Case, Relations, State, World, BATTERY, GENERATED,
};
use hrdm_query::{
    evaluate, parse_query, run_query, IndexSource, PipelineError, Query, QueryResult,
};
use hrdm_storage::DbSnapshot;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::sync::Arc;

/// What a source answered: a result, or the text of the evaluation error
/// it reported. Every other failure (cancelled, capped, transport) panics
/// on the spot.
pub type Answer = Result<QueryResult, String>;

/// Answers one query, parsed and as text; `None` where the entry does not
/// apply to the query.
type Answerer<'w> = Box<dyn FnMut(&Query, &str) -> Option<Answer> + 'w>;

/// An opened source: the state it reads, and how it answers.
pub struct Opened<'w> {
    state: State,
    answer: Answerer<'w>,
}

/// A source reading `state` that answers with `f`.
pub fn on<'w>(state: State, f: impl FnMut(&Query, &str) -> Option<Answer> + 'w) -> Opened<'w> {
    Opened {
        state,
        answer: Box::new(f),
    }
}

/// One source of the matrix.
pub struct Entry {
    name: &'static str,
    open: fn(&World) -> Opened<'_>,
}

/// The source `name`, opened over each case's world by `open`.
pub const fn entry(name: &'static str, open: fn(&World) -> Opened<'_>) -> Entry {
    Entry { name, open }
}

/// The message of an evaluation failure; any other failure is a bug.
pub fn failure(e: impl Into<PipelineError>) -> String {
    match e.into() {
        PipelineError::Eval(e) => e.to_string(),
        other => panic!("not an evaluation failure: {other}"),
    }
}

/// A planned answer as the matrix compares it.
pub fn planned(r: Result<QueryResult, PipelineError>) -> Option<Answer> {
    Some(r.map_err(failure))
}

/// Planned execution on `src`.
#[allow(dead_code)] // not every test binary plans on a borrowed source
pub fn planned_on(state: State, src: &dyn IndexSource) -> Opened<'_> {
    on(state, move |q, _| planned(run_query(q, src)))
}

/// Planned execution on a snapshot of the attached engine.
#[allow(dead_code)] // not every test binary reads the attached engine
pub fn attached<'w>(state: State, snap: Arc<DbSnapshot>) -> Opened<'w> {
    on(state, move |q, _| planned(run_query(q, &*snap)))
}

/// A comparable form: the canonical rendering, or the error's text.
pub fn canon<E: Display>(r: &Result<QueryResult, E>) -> String {
    match r {
        Ok(r) => canonical(r),
        Err(e) => format!("error: {e}"),
    }
}

/// Runs generated cases through `entries`: every entry answers the battery
/// and the case's generated queries after the case's history, and each
/// answer must equal `eval.rs`'s on the state the entry reads. By default
/// it runs enough cases that an entry answering every query makes at
/// least `comparisons` comparisons; `PROPTEST_CASES` sets the case count
/// instead. Fails if an entry never compared anything.
pub fn run_matrix(comparisons: usize, entries: &[Entry]) {
    let per_case = BATTERY.len() + GENERATED;
    let cases = ProptestConfig::from_env_or(comparisons.div_ceil(per_case) as u32).cases;
    let names: Vec<&str> = entries.iter().map(|e| e.name).collect();
    let (strategy, mut rng) = (case_strategy(), TestRng::from_name(&names.join("|")));
    let mut tally: BTreeMap<&str, u64> = names.iter().map(|&n| (n, 0)).collect();
    tally.insert(EVOLVED, 0);
    for _ in 0..cases {
        let case = strategy.generate(&mut rng);
        run_case(&case, entries, &mut tally);
    }
    eprintln!("comparisons per matrix entry over {cases} case(s): {tally:#?}");
    let idle: Vec<_> = tally.iter().filter(|(_, &n)| n == 0).collect();
    assert!(idle.is_empty(), "matrix entries that never ran: {idle:?}");
}

/// `eval.rs`'s answer to `q` on `state`, as every source must repeat it.
/// Where `eval.rs` fails, a battery query must fail with its very error
/// (`exact`). A generated query may combine ill-typed operands, and the
/// planner may meet a different one first than `eval.rs` does, so every
/// source must fail with the planner's error on the same state instead.
fn expected(q: &Query, state: &Relations, exact: bool) -> String {
    match evaluate(q, state) {
        Ok(r) => canonical(&r),
        Err(e) if exact => format!("error: {e}"),
        Err(e) => match run_query(q, state) {
            Err(PipelineError::Eval(planned)) => format!("error: {planned}"),
            _ => format!("error: {e}"),
        },
    }
}

/// The tally row counting the comparisons made on evolved schemes.
const EVOLVED: &str = "(of all: after schema evolution)";

fn run_case(case: &Case, entries: &[Entry], tally: &mut BTreeMap<&str, u64>) {
    let world = World::build(case);
    let battery = BATTERY.iter().map(|&(name, text)| {
        let q = parse_query(text).unwrap_or_else(|e| panic!("`{text}`: {e}"));
        (name, text.to_string(), q)
    });
    let generated = case
        .queries
        .iter()
        .map(|q| ("generated", q.to_string(), q.clone()));
    let queries: Vec<(&str, String, Query)> = battery.chain(generated).collect();
    // `eval.rs`'s answers, per state, as far as some entry reads it.
    let mut reference: [Option<Vec<String>>; 3] = Default::default();
    for entry in entries {
        let mut source = (entry.open)(&world);
        let state = source.state as usize;
        let reference = reference[state].get_or_insert_with(|| {
            let on = &world.states[state];
            queries
                .iter()
                .map(|(name, _, q)| expected(q, on, *name != "generated"))
                .collect()
        });
        for ((name, text, q), want) in queries.iter().zip(reference.iter()) {
            let Some(got) = (source.answer)(q, text) else {
                continue;
            };
            if canon(&got) != *want {
                panic!(
                    "{}: {name} `{text}` diverged from eval.rs\n got: {}\nwant: {want}\nhistory: {:?}",
                    entry.name,
                    canon(&got),
                    case.history
                );
            }
            *tally.get_mut(entry.name).unwrap() += 1;
            *tally.get_mut(EVOLVED).unwrap() += u64::from(world.evolved);
        }
    }
}
