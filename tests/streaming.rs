//! The pull-based streaming executor against `eval.rs` (see
//! `oracle/mod.rs`): under batch caps, row caps and cancels, after
//! generated histories and on fixed states — including the 100 000-tuple
//! gates whose probe counts are exact.

mod common;
mod oracle;

use hrdm_core::prelude::{Lifespan, Relation};
use hrdm_query::{
    evaluate, parse_query, stream_query_on_snapshot, CancelProbe, ExecOptions, IndexSource,
    PipelineError, Query, QueryResult, StreamedQuery,
};
use hrdm_storage::{ConcurrentDatabase, DbSnapshot};
use oracle::matrix::{canon, entry, failure, on, run_matrix, Opened};
use oracle::world::{evt_scheme, evt_tup, r_scheme, r_tup, seeded, tmp, State, World, BATTERY};
use proptest::test_runner::TestRng;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, OnceLock};

/// Batches of `batch_rows`.
fn stream_options(batch_rows: usize) -> ExecOptions {
    ExecOptions {
        batch_rows,
        ..ExecOptions::default()
    }
}

/// Streams `text` to the end, checking the per-batch invariants on the
/// way: no empty batch, none over the cap, never more rows than
/// `max_rows`, the stream's own accounting equal to what arrived, and a
/// stream fused after its last batch or error.
fn run_stream(
    src: &dyn IndexSource,
    text: &str,
    opts: &ExecOptions,
) -> Result<QueryResult, PipelineError> {
    let mut stream = match stream_query_on_snapshot(text, src, opts)? {
        StreamedQuery::Rows(stream) => stream,
        scalar => return scalar.collect(),
    };
    let (mut rows, mut batches) = (Vec::new(), 0u64);
    let end = loop {
        match stream.next_batch() {
            Ok(Some(batch)) => {
                assert!(!batch.is_empty(), "`{text}`: an empty batch surfaced");
                assert!(
                    batch.len() <= opts.batch_rows,
                    "`{text}`: batch over the cap"
                );
                batches += 1;
                rows.extend(batch.into_rows());
            }
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    let seen = rows.len() as u64;
    assert!(
        seen <= opts.max_rows.unwrap_or(u64::MAX),
        "`{text}`: cap overshot"
    );
    assert!(
        matches!(stream.next_batch(), Ok(None)),
        "`{text}`: not fused"
    );
    end?;
    assert_eq!(stream.rows_streamed(), seen, "`{text}`: row accounting");
    assert_eq!(
        stream.batches_streamed(),
        batches,
        "`{text}`: batch accounting"
    );
    let scheme = stream.scheme().clone();
    Ok(QueryResult::Relation(Relation::from_parts_unchecked(
        scheme, rows,
    )))
}

/// `opts` with a cancel probe that fires from its `fire_at`-th check on,
/// and the count of checks it sees.
fn probed(opts: &ExecOptions, fire_at: usize) -> (ExecOptions, Arc<AtomicUsize>) {
    let checks = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&checks);
    let cancel: CancelProbe = Arc::new(move || seen.fetch_add(1, SeqCst) + 1 >= fire_at);
    let opts = ExecOptions {
        cancel: Some(cancel),
        ..opts.clone()
    };
    (opts, checks)
}

/// Runs `text` under a cancel probe firing from its `fire_at`-th check on.
/// It must end in `Cancelled` — never in a value or a clean end of
/// stream. Returns the checks the probe saw.
fn cancelled_at(src: &dyn IndexSource, text: &str, opts: &ExecOptions, fire_at: usize) -> usize {
    let (opts, checks) = probed(opts, fire_at);
    match run_stream(src, text, &opts) {
        Err(PipelineError::Cancelled) => checks.load(SeqCst),
        other => panic!(
            "`{text}`: cancelled at check {fire_at}: {:?}",
            other.map(|_| "a value")
        ),
    }
}

/// Runs `text` under `max_rows: cap`: it must end in the row limit, never
/// in a value or a clean end of stream.
fn capped_at(src: &dyn IndexSource, text: &str, opts: &ExecOptions, cap: u64) {
    let opts = ExecOptions {
        max_rows: Some(cap),
        ..opts.clone()
    };
    match run_stream(src, text, &opts) {
        Err(PipelineError::Limit(_)) => {}
        other => panic!("`{text}`: capped at {cap}: {:?}", other.map(|_| "a value")),
    }
}

/// The stream over the attached engine's final state, or over the
/// snapshot taken mid-history.
fn stream(w: &World, state: State, batch_rows: usize) -> Opened<'_> {
    let snap = match state {
        State::Mid => Arc::clone(&w.mid),
        _ => w.part.snapshot(),
    };
    let opts = stream_options(batch_rows);
    on(state, move |_, text| {
        Some(run_stream(&*snap, text, &opts).map_err(failure))
    })
}

/// The stream, in batches of 1, 7 and 4096 rows, answers as `eval.rs`
/// does after every generated history — with no empty batch, none over
/// the cap, and its own row and batch counts equal to what arrived. At
/// least 256 states × 39 queries per entry.
#[test]
fn streaming_matches_the_evaluator_on_random_states() {
    run_matrix(
        9_984,
        &[
            entry("stream/serial/1", |w| stream(w, State::Final, 1)),
            entry("stream/serial/7", |w| stream(w, State::Final, 7)),
            entry("stream/serial/4096", |w| stream(w, State::Final, 4096)),
        ],
    );
}

/// A snapshot taken while the writer is still applying the history
/// streams what `eval.rs` answers on that snapshot's own state, after the
/// writer has moved on. At least 256 races × 12 queries on the snapshot;
/// the settled state is the entries' above.
#[test]
fn streaming_agrees_with_the_evaluator_under_a_live_writer() {
    run_matrix(
        3_072,
        &[entry("stream/mid-history", |w| stream(w, State::Mid, 7))],
    );
}

/// A relation answer of `n > 0` rows ends in the row limit under a cap
/// of `n − 1`.
fn row_cap_probe(w: &World) -> Opened<'_> {
    let snap = w.part.snapshot();
    let opts = ExecOptions {
        batch_rows: 7,
        ..ExecOptions::default()
    };
    on(State::Final, move |q, text| {
        let answer = run_stream(&*snap, text, &opts);
        let n = match (q, &answer) {
            (Query::Relation(_), Ok(QueryResult::Relation(r))) if !r.is_empty() => r.len() as u64,
            _ => return None,
        };
        capped_at(&*snap, text, &opts, n - 1);
        Some(answer.map_err(failure))
    })
}

/// Under a row cap of one less than its answer, a relation stream ends in
/// the row limit, never in a clean partial result.
#[test]
fn row_cap_truncates_the_stream() {
    run_matrix(1_000, &[entry("stream/row-cap probe", row_cap_probe)]);
}

/// A serial run counts the probe's checks; a probe firing at a random one
/// of them must cancel the query at exactly that check.
fn cancel_probe(w: &World) -> Opened<'_> {
    let snap = w.part.snapshot();
    let opts = ExecOptions {
        batch_rows: 7,
        ..ExecOptions::default()
    };
    let mut rng = TestRng::new(w.seed);
    on(State::Final, move |_, text| {
        let (counting, checks) = probed(&opts, usize::MAX);
        let answer = run_stream(&*snap, text, &counting);
        let total = checks.load(SeqCst) as u64;
        if total == 0 {
            return None;
        }
        let fire_at = 1 + rng.below(total) as usize;
        let stopped = cancelled_at(&*snap, text, &opts, fire_at);
        assert_eq!(
            stopped, fire_at,
            "`{text}`: checks went on after the probe fired"
        );
        Some(answer.map_err(failure))
    })
}

/// A cancel probe firing at a random one of a query's checks stops it at
/// exactly that check, with `Cancelled`, and the stream is fused after.
#[test]
fn cancel_aborts_within_one_batch() {
    run_matrix(1_000, &[entry("stream/cancel probe", cancel_probe)]);
}

/// A fixed dense state answers the battery through the stream, in batches
/// of 1, 7 and 4096 rows.
#[test]
fn streaming_matches_the_evaluator_on_the_battery() {
    let dir = tmp("seeded");
    seeded(&dir);
    let db = ConcurrentDatabase::open(&dir).unwrap();
    let snap = db.snapshot();
    for batch_rows in [1, 7, 4096] {
        let opts = stream_options(batch_rows);
        for (name, q) in BATTERY {
            let want = canon(&evaluate(&parse_query(q).unwrap(), &*snap));
            let got = canon(&run_stream(&*snap, q, &opts).map_err(failure));
            assert_eq!(got, want, "{name} `{q}` at {batch_rows} rows");
        }
    }
    drop((snap, db));
    std::fs::remove_dir_all(&dir).ok();
}

/// 100 000 tuples in `r` and in `evt`, 40 in `g` (on `r`'s scheme): every
/// input of a binary operator spans hundreds of batches. `evt`'s `AT`
/// points into its own lifespan when `aim` holds — every tuple then joins
/// one `g` tuple — and outside every lifespan otherwise, so that a
/// TIMEJOIN finds no pair at all. Built once per `aim`.
fn big(aim: bool) -> Arc<DbSnapshot> {
    static BIG: [OnceLock<ConcurrentDatabase>; 2] = [OnceLock::new(), OnceLock::new()];
    let db = BIG[usize::from(aim)].get_or_init(|| {
        let db = ConcurrentDatabase::new();
        let events = |e: i64| evt_tup(e, e % 4000, 10, if aim { e % 4000 + 5 } else { 5000 });
        for (name, scheme, tuples) in [
            (
                "r",
                r_scheme(),
                (0..100_000).map(|k| r_tup(k, k % 4000, 10, k)).collect(),
            ),
            ("evt", evt_scheme(), (0..100_000).map(events).collect()),
            (
                "g",
                r_scheme(),
                (0..40).map(|k| r_tup(k, k * 100, 99, k)).collect(),
            ),
        ] {
            db.create_relation(name, scheme.clone()).unwrap();
            // Distinct keys by construction: skip `with_tuples`' check.
            let contents = Relation::from_distinct_unchecked(scheme, tuples);
            db.put_relation(name, contents).unwrap();
        }
        db
    });
    db.snapshot()
}

/// Batches of 256 rows: a full drain of 100 000 tuples is 391 of them.
fn big_batches() -> ExecOptions {
    ExecOptions {
        batch_rows: 256,
        ..ExecOptions::default()
    }
}

/// A `WHEN` or aggregate root gates every pull: a cancel stops it long before a full
/// drain, with `Cancelled` and never a partial value.
#[test]
fn when_over_a_big_scan_observes_cancel_within_one_batch() {
    let snap = big(false);
    for q in [
        "WHEN (r)",
        "WHEN (SELECT-WHEN (V >= 0) (r))",
        "WHEN (SELECT-WHEN (V < 0) (r))",
        "COUNT V (SELECT-WHEN (V >= 0) (r))",
    ] {
        // Nowhere near the ~400 batches of a full drain.
        let checks = cancelled_at(&*snap, q, &big_batches(), 3);
        assert!(checks < 40, "`{q}`: {checks} probe checks before stopping");
    }
}

/// A binary operator pulls its probe side through the gate — even where
/// the probe emits nothing (duplicates, removals, no join partner), so
/// that no batch reaches the stream's own gate: a cancel stops it at the
/// very check that fires.
#[test]
fn binary_operators_observe_cancel_within_one_probe_batch() {
    let snap = big(false);
    // 391 batches, plus one empty pull.
    let (build, probe) = (392, 392);
    for (q, fire_at) in [
        // The build side is drained and streamed out first (391 root
        // pulls); the probe side's duplicates add nothing.
        ("r UNION r", build + 391 + probe / 2),
        ("r MINUS r", build + 1 + probe / 2),
        // `g`'s own partition map is the build table: nothing drained.
        ("evt TIMEJOIN@AT g", 1 + probe / 2),
    ] {
        assert_eq!(
            cancelled_at(&*snap, q, &big_batches(), fire_at),
            fire_at,
            "`{q}`"
        );
    }
}

/// Rows reaching a `WHEN` or aggregate root count against `max_rows` like
/// rows streamed to a client, in lifespan-only mode too, and rows the
/// chain under the root filters away do not.
#[test]
fn when_and_aggregates_honour_the_row_cap() {
    let snap = big(true);
    for q in [
        "WHEN (r)",
        "WHEN (SELECT-WHEN (V >= 0) (r))",
        "WHEN (PROJECT [V] (r))",
        "TIMESLICE (WHEN (r)) (r)",
        "MAX V (r)",
    ] {
        capped_at(&*snap, q, &big_batches(), 1_000);
    }
    let capped = ExecOptions {
        max_rows: Some(1_000),
        ..big_batches()
    };
    // 500 rows reach the root; the other 99 500 never count.
    let few = run_stream(&*snap, "WHEN (SELECT-WHEN (V < 500) (r))", &capped);
    assert_eq!(few, Ok(QueryResult::Lifespan(Lifespan::interval(0, 509))));
}

/// A binary operator whose output outgrows `max_rows` mid-probe ends in
/// the limit, having streamed no more than the cap.
#[test]
fn binary_operators_hit_the_row_cap_mid_probe() {
    let snap = big(true);
    for q in [
        "TIMESLICE [0..1999] (r) UNION TIMESLICE [2000..4096] (r)",
        "r MINUS TIMESLICE [0..999] (r)",
        "evt TIMEJOIN@AT g",
    ] {
        capped_at(&*snap, q, &big_batches(), 50_000);
    }
}
