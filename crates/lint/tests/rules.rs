//! Fixture-driven proof that every rule fires on known violations and
//! stays quiet on waived/clean code.

use std::collections::BTreeSet;
use std::path::PathBuf;

use hrdm_lint::{run, LintConfig, Report};

const ALL_RULES: [&str; 6] = [
    "atomic-ordering",
    "lock-order",
    "no-panic",
    "wire-exhaustiveness",
    "bounded-alloc",
    "oracle-only",
];

fn lint_fixture(which: &str) -> Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(which);
    run(&LintConfig::for_root(&root), None).expect("fixture lints")
}

fn sites<'a>(report: &'a Report, rule: &str) -> Vec<(&'a str, usize)> {
    report
        .violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| (v.file.as_str(), v.line))
        .collect()
}

#[test]
fn every_rule_fires_on_the_bad_fixture() {
    let report = lint_fixture("bad");
    let fired: BTreeSet<&str> = report.violations.iter().map(|v| v.rule).collect();
    for rule in ALL_RULES {
        assert!(
            fired.contains(rule),
            "rule `{rule}` did not fire on the bad fixture; fired: {fired:?}"
        );
    }
}

#[test]
fn atomic_ordering_flags_the_relaxed_site() {
    let report = lint_fixture("bad");
    assert_eq!(
        sites(&report, "atomic-ordering"),
        vec![("crates/storage/src/stats.rs", 11)]
    );
}

#[test]
fn lock_order_reports_the_inversion_cycle() {
    let report = lint_fixture("bad");
    let cycles: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "lock-order")
        .collect();
    assert_eq!(cycles.len(), 1, "exactly one cycle: {cycles:?}");
    let v = cycles[0];
    assert!(v.message.contains("storage/inner") && v.message.contains("storage/queue"));
    // Every acquisition site of the cycle is carried as evidence.
    assert!(v.anchors.len() >= 4, "anchors: {:?}", v.anchors);
    assert!(v
        .anchors
        .iter()
        .all(|(f, _)| f == "crates/storage/src/concurrent.rs"));
}

#[test]
fn no_panic_flags_lib_code_but_not_poisoning_or_tests() {
    let report = lint_fixture("bad");
    let flagged = sites(&report, "no-panic");
    // `risky`'s unwrap (line 7) and `fail`'s panic! (line 11) — NOT the
    // lock-poisoning expect (line 15) and NOT the test-module unwrap.
    assert_eq!(
        flagged,
        vec![
            ("crates/storage/src/panics.rs", 7),
            ("crates/storage/src/panics.rs", 11),
        ]
    );
}

#[test]
fn wire_exhaustiveness_reports_every_missing_leg() {
    let report = lint_fixture("bad");
    let messages: Vec<&str> = report
        .violations
        .iter()
        .filter(|v| v.rule == "wire-exhaustiveness")
        .map(|v| v.message.as_str())
        .collect();
    assert!(
        messages
            .iter()
            .any(|m| m.contains("Drop") && m.contains("encode_frame_into")),
        "missing encode arm not reported: {messages:?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("0x03") && m.contains("decode_frame_traced")),
        "missing decode arm not reported: {messages:?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("Drop") && m.contains("kind_index")),
        "stale kind_index not reported: {messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("[false; 2]")),
        "stale coverage pin not reported: {messages:?}"
    );
}

#[test]
fn bounded_alloc_flags_the_uncapped_decode_allocation() {
    let report = lint_fixture("bad");
    let flagged = sites(&report, "bounded-alloc");
    assert_eq!(flagged, vec![("crates/net/src/frame.rs", 39)]);
}

#[test]
fn oracle_only_flags_serve_path_calls_and_the_allow_but_not_tests() {
    let report = lint_fixture("bad");
    // The `#[allow(deprecated)]` (line 5), the `eval::` path and the
    // `evaluate(` call on line 7, `eval_lifespan` (line 11) — NOT the
    // look-alike names on line 15 and NOT the test module's oracle call.
    assert_eq!(
        sites(&report, "oracle-only"),
        vec![
            ("crates/query/src/serve.rs", 5),
            ("crates/query/src/serve.rs", 7),
            ("crates/query/src/serve.rs", 7),
            ("crates/query/src/serve.rs", 11),
        ]
    );
}

#[test]
fn clean_fixture_passes_with_waivers_accounted() {
    let report = lint_fixture("clean");
    assert!(
        report.clean(),
        "clean fixture has violations: {:#?}",
        report.violations
    );
    // The waived Relaxed counter and the waived lock cycle are recorded,
    // not silently dropped.
    let waived: BTreeSet<&str> = report.waived.iter().map(|v| v.rule).collect();
    assert!(waived.contains("atomic-ordering"), "waived: {waived:?}");
    assert!(waived.contains("lock-order"), "waived: {waived:?}");
    assert!(waived.contains("oracle-only"), "waived: {waived:?}");
}

#[test]
fn rule_filter_restricts_the_run() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad");
    let report = run(&LintConfig::for_root(&root), Some("no-panic")).expect("fixture lints");
    assert!(report.violations.iter().all(|v| v.rule == "no-panic"));
    assert!(!report.violations.is_empty());
}
