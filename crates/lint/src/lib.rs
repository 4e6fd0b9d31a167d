//! `hrdm-lint` — workspace-aware static analysis for the HRDM engine.
//!
//! The engine carries invariants no general-purpose tool checks: Relaxed
//! atomics are only sound in the metrics crate, locks must be acquired in
//! a consistent order across the group-commit core, library code on the
//! storage/net paths must not panic, the 19-kind wire protocol must stay
//! exhaustively wired, decode-side allocations must be capped before
//! trusting wire- or disk-derived lengths, and the reference evaluator must
//! stay a test-side oracle. This crate scans the workspace with a masking
//! lexer (no `syn`; string literals, comments, and `#[cfg(test)]` regions
//! are excluded) and enforces those invariants as six rules, with inline `// lint: <rule>-ok(<reason>)` waivers and a
//! checked-in `lint.allow` prefix allowlist for sanctioned exceptions.
//!
//! Run it with `cargo run -p hrdm-lint`; it exits non-zero on any
//! unwaived violation. The rule catalog lives in [`rules`].

#![forbid(unsafe_code)]

pub mod allowlist;
pub mod lexer;
pub mod rules;
pub mod waiver;
pub mod workspace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use allowlist::Allowlist;
use workspace::SourceFile;

/// One rule violation (possibly waived).
#[derive(Clone, Debug)]
pub struct Violation {
    /// Rule that fired, e.g. `no-panic`.
    pub rule: &'static str,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// Extra evidence sites (used by lock-order cycles, where a single
    /// violation spans several acquisition points).
    pub anchors: Vec<(String, usize)>,
}

/// The outcome of a full lint run.
#[derive(Default)]
pub struct Report {
    /// Violations not covered by a waiver or the allowlist.
    pub violations: Vec<Violation>,
    /// Violations that were covered, kept for `--verbose` accounting.
    pub waived: Vec<Violation>,
    /// Per-rule count of files each rule actually examined — the
    /// self-check test uses this to prove rules did not silently no-op.
    pub rule_stats: BTreeMap<&'static str, usize>,
}

impl Report {
    /// True when no unwaived violations remain.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// What to scan and which paths carry special meaning per rule.
pub struct LintConfig {
    /// Workspace root (the directory holding the top-level `Cargo.toml`).
    pub root: PathBuf,
    /// Crates where `Ordering::Relaxed` is sanctioned (metrics only).
    pub obs_crates: Vec<String>,
    /// Crates whose non-test library code must not panic.
    pub panic_crates: Vec<String>,
    /// Files whose decode paths must cap allocations.
    pub decode_files: Vec<String>,
    /// The wire-format definition file.
    pub frame_file: String,
    /// The proptest strategy-coverage pin for the wire format.
    pub coverage_file: String,
    /// The reference evaluator: the differential oracle only test code
    /// may reach.
    pub oracle_file: String,
}

impl LintConfig {
    /// The engine's own configuration, rooted at `root`.
    pub fn for_root(root: &Path) -> LintConfig {
        LintConfig {
            root: root.to_path_buf(),
            obs_crates: vec!["obs".into()],
            panic_crates: vec![
                "storage".into(),
                "net".into(),
                "query".into(),
                "core".into(),
            ],
            decode_files: vec![
                "crates/net/src/frame.rs".into(),
                "crates/storage/src/codec.rs".into(),
                "crates/storage/src/catalog.rs".into(),
                "crates/storage/src/wal.rs".into(),
                "crates/storage/src/database.rs".into(),
                "crates/storage/src/heap.rs".into(),
                "crates/storage/src/page.rs".into(),
                // Out-of-core layer: page faults and B+tree node reads
                // size buffers from on-disk bytes.
                "crates/storage/src/pool.rs".into(),
                "crates/storage/src/btree.rs".into(),
                "crates/storage/src/paged.rs".into(),
                // Streaming executor: batch buffers sized from caller-
                // supplied options must be capped before allocation.
                "crates/query/src/exec.rs".into(),
                // Telemetry HTTP plane: the request-head reader grows a
                // buffer from socket bytes and must stay bounded.
                "crates/net/src/http.rs".into(),
            ],
            frame_file: "crates/net/src/frame.rs".into(),
            coverage_file: "crates/net/tests/protocol.rs".into(),
            oracle_file: "crates/query/src/eval.rs".into(),
        }
    }
}

/// Runs every rule (or just `only`, if given) over the workspace at
/// `config.root` and partitions the results by waiver/allowlist coverage.
pub fn run(config: &LintConfig, only: Option<&str>) -> Result<Report, String> {
    let files = workspace::load_workspace(&config.root)?;
    let allow = Allowlist::load(&config.root)?;
    let mut report = Report::default();

    // Malformed waivers are violations in their own right — an
    // unparseable waiver must not silently fail to waive.
    for file in &files {
        for bad in &file.waivers.bad {
            report.violations.push(Violation {
                rule: "waiver-syntax",
                file: file.rel.clone(),
                line: bad.line,
                message: bad.message.clone(),
                anchors: Vec::new(),
            });
        }
    }

    for rule in rules::all() {
        if only.is_some_and(|name| name != rule.name()) {
            continue;
        }
        let raw = rule.check(config, &files, &mut report.rule_stats);
        for v in raw {
            if covered(&files, &allow, &v) {
                report.waived.push(v);
            } else {
                report.violations.push(v);
            }
        }
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// A violation is covered if its primary site — or, for multi-site
/// violations like lock cycles, *any* anchor — carries a waiver, or if
/// the allowlist exempts the file from the rule.
fn covered(files: &[SourceFile], allow: &Allowlist, v: &Violation) -> bool {
    if allow.covers(v.rule, &v.file) {
        return true;
    }
    let mut sites: Vec<(&str, usize)> = vec![(v.file.as_str(), v.line)];
    sites.extend(v.anchors.iter().map(|(f, l)| (f.as_str(), *l)));
    sites.iter().any(|(file, line)| {
        if allow.covers(v.rule, file) {
            return true;
        }
        files
            .iter()
            .find(|sf| sf.rel == *file)
            .is_some_and(|sf| sf.waivers.covers(v.rule, *line).is_some())
    })
}
