//! The self-run: the HRDM workspace itself must be lint-clean, and every
//! rule must demonstrably have examined the files it claims to govern
//! (a rule that silently no-ops would pass a bare "no violations" test).

use std::path::PathBuf;

use hrdm_lint::{run, LintConfig};

#[test]
fn workspace_is_lint_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run(&LintConfig::for_root(&root), None).expect("workspace lints");
    let rendered: Vec<String> = report
        .violations
        .iter()
        .map(|v| format!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message))
        .collect();
    assert!(
        report.clean(),
        "the workspace has unwaived lint violations:\n{}",
        rendered.join("\n")
    );

    // Prove the rules actually ran over the real tree: the wire rule saw
    // both the frame file and the coverage pin, bounded-alloc saw every
    // configured decode file, and the broad rules saw a plausible share
    // of the workspace's library files.
    assert_eq!(report.rule_stats["wire-exhaustiveness"], 2);
    assert_eq!(report.rule_stats["bounded-alloc"], 12);
    assert!(
        report.rule_stats["no-panic"] >= 20,
        "{:?}",
        report.rule_stats
    );
    assert!(
        report.rule_stats["lock-order"] >= 40,
        "{:?}",
        report.rule_stats
    );
    assert!(
        report.rule_stats["atomic-ordering"] >= 40,
        "{:?}",
        report.rule_stats
    );
    assert!(
        report.rule_stats["oracle-only"] >= 40,
        "{:?}",
        report.rule_stats
    );

    // Waivers exist and every one of them is load-bearing evidence the
    // waiver machinery is exercised by the real workspace.
    assert!(
        !report.waived.is_empty(),
        "expected the workspace's documented waivers to register"
    );
}
