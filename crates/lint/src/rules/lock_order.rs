//! `lock-order`: flags potential lock-acquisition inversion cycles.
//!
//! The group-commit core holds several locks (`inner`, `queue`,
//! `published`, per-ticket mutexes) and the net server adds its own
//! (`sessions`, and each session's inbox, which cancel probes only
//! `try_lock`). A deadlock needs two threads acquiring
//! the same pair in opposite orders — invisible to any single function
//! review once acquisition chains cross function boundaries.
//!
//! The rule extracts, per function, the sequence of `.lock()` /
//! `.read()` / `.write()` acquisitions (zero-argument calls only, so
//! `stream.read(&mut buf)` io never counts) with a held-set tracked by
//! binding: `let`-bound guards and guards acquired in `match`/`if let`
//! headers live until their brace scope closes or an explicit
//! `drop(var)`; unbound temporaries live to the end of their statement.
//! Held-lock → newly-acquired-lock edges are recorded, calls to
//! functions defined in the *same file* are resolved and contribute the
//! callee's transitive acquisitions (file-local resolution keeps
//! name-collision noise out). Lock nodes are crate-qualified for the
//! same reason. A direct re-acquire of a held lock is reported as a
//! self-cycle; call-derived self-edges are dropped (the callee may be
//! invoked with the lock *not* held on other paths — too noisy).
//!
//! Cycles (SCCs of the global graph, plus direct self-edges) are
//! violations; each carries every acquisition site as an anchor, and a
//! waiver on *any* anchor waives the cycle.

use std::collections::{BTreeMap, BTreeSet};

use super::Rule;
use crate::lexer::FnSpan;
use crate::workspace::{FileClass, SourceFile};
use crate::{LintConfig, Violation};

/// See module docs.
pub struct LockOrder;

/// One lock acquisition site.
#[derive(Clone, Debug)]
struct Acq {
    /// Crate-qualified lock name, e.g. `storage/queue`.
    lock: String,
    /// Workspace-relative file.
    file: String,
    /// 1-based line.
    line: usize,
}

/// A call to a same-file function while locks were held.
struct Call {
    callee: String,
    held: Vec<Acq>,
    file: String,
    line: usize,
}

/// An ordering edge: `from` held while `to` is acquired.
struct Edge {
    from: String,
    to: String,
    anchors: Vec<(String, usize)>,
}

#[derive(Default)]
struct FnFacts {
    direct: Vec<Acq>,
    calls: Vec<Call>,
}

impl Rule for LockOrder {
    fn name(&self) -> &'static str {
        "lock-order"
    }

    fn describe(&self) -> &'static str {
        "no lock-acquisition inversion cycles across the workspace"
    }

    fn check(
        &self,
        _config: &LintConfig,
        files: &[SourceFile],
        stats: &mut BTreeMap<&'static str, usize>,
    ) -> Vec<Violation> {
        // Pass 1: per-function facts, keyed (file, fn name).
        let mut facts: BTreeMap<(String, String), FnFacts> = BTreeMap::new();
        let mut edges: Vec<Edge> = Vec::new();
        for file in files {
            if !matches!(file.class, FileClass::Lib | FileClass::Bin) {
                continue;
            }
            *stats.entry(self.name()).or_insert(0) += 1;
            let local_fns: BTreeSet<&str> = file
                .lexed
                .functions
                .iter()
                .map(|f| f.name.as_str())
                .collect();
            for func in &file.lexed.functions {
                if file.lexed.in_test_region(func.header_start) {
                    continue;
                }
                let f = scan_function(file, func, &local_fns, &mut edges);
                let key = (file.rel.clone(), func.name.clone());
                let entry = facts.entry(key).or_default();
                entry.direct.extend(f.direct);
                entry.calls.extend(f.calls);
            }
        }

        // Pass 2: transitive acquisitions per function (file-local call
        // resolution), then call-derived edges.
        let mut memo: BTreeMap<(String, String), BTreeMap<String, Acq>> = BTreeMap::new();
        let keys: Vec<(String, String)> = facts.keys().cloned().collect();
        for key in &keys {
            closure(key, &facts, &mut memo, &mut BTreeSet::new());
        }
        for (key, f) in &facts {
            for call in &f.calls {
                let callee_key = (key.0.clone(), call.callee.clone());
                let Some(acquired) = memo.get(&callee_key) else {
                    continue;
                };
                for held in &call.held {
                    for (lock, site) in acquired {
                        if *lock == held.lock {
                            continue; // call-derived self-edges: dropped
                        }
                        edges.push(Edge {
                            from: held.lock.clone(),
                            to: lock.clone(),
                            anchors: vec![
                                (held.file.clone(), held.line),
                                (call.file.clone(), call.line),
                                (site.file.clone(), site.line),
                            ],
                        });
                    }
                }
            }
        }

        // Pass 3: cycles. Direct self-edges first, then multi-node SCCs.
        let mut out = Vec::new();
        for e in &edges {
            if e.from == e.to {
                let (file, line) = e.anchors[0].clone();
                out.push(Violation {
                    rule: self.name(),
                    file,
                    line,
                    message: format!(
                        "lock `{}` re-acquired while already held — self-deadlock",
                        e.from
                    ),
                    anchors: e.anchors.clone(),
                });
            }
        }
        for scc in sccs(&edges) {
            let members: BTreeSet<&String> = scc.iter().collect();
            let mut anchors: Vec<(String, usize)> = Vec::new();
            for e in &edges {
                if e.from != e.to && members.contains(&e.from) && members.contains(&e.to) {
                    anchors.extend(e.anchors.iter().cloned());
                }
            }
            anchors.sort();
            anchors.dedup();
            let (file, line) = anchors
                .first()
                .cloned()
                .unwrap_or_else(|| (String::from("<workspace>"), 0));
            out.push(Violation {
                rule: self.name(),
                file,
                line,
                message: format!(
                    "potential lock-order inversion among {{{}}}: threads can acquire \
                     these locks in opposite orders",
                    scc.join(", ")
                ),
                anchors,
            });
        }
        out
    }
}

/// Forward-scans one function body: records acquisitions, ordering
/// edges against the running held-set, and same-file calls.
fn scan_function(
    file: &SourceFile,
    func: &FnSpan,
    local_fns: &BTreeSet<&str>,
    edges: &mut Vec<Edge>,
) -> FnFacts {
    let masked = &file.lexed.masked;
    let bytes = masked.as_bytes();
    let mut facts = FnFacts::default();
    // Held guards: (acq, bind_depth, var name if let-bound, temp?).
    let mut held: Vec<(Acq, i32, Option<String>, bool)> = Vec::new();
    let mut depth = 0i32;
    let mut i = func.body_start;
    while i < func.body_end {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                held.retain(|(_, bind, _, _)| *bind <= depth);
            }
            b';' => held.retain(|(_, _, _, temp)| !temp),
            b'.' => {
                if let Some(method_len) = lock_method_at(masked, i) {
                    let lock = format!(
                        "{}/{}",
                        file.crate_name,
                        receiver_of(masked, func.body_start, i)
                    );
                    let acq = Acq {
                        lock,
                        file: file.rel.clone(),
                        line: file.lexed.line_of(i),
                    };
                    for (h, _, _, _) in &held {
                        edges.push(Edge {
                            from: h.lock.clone(),
                            to: acq.lock.clone(),
                            anchors: vec![(h.file.clone(), h.line), (acq.file.clone(), acq.line)],
                        });
                    }
                    facts.direct.push(acq.clone());
                    let (bound, var) = binding_of(masked, func.body_start, i);
                    held.push((acq, depth, var, !bound));
                    i += method_len;
                    continue;
                }
            }
            _ => {}
        }
        // `drop(var)` releases a named guard.
        if bytes[i] == b'd' && masked[i..].starts_with("drop(") {
            let var: String = masked[i + 5..func.body_end.min(i + 64)]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            held.retain(|(_, _, v, _)| v.as_deref() != Some(var.as_str()));
        }
        // Same-file call while locks are held: `foo(` or `self.foo(`.
        if !held.is_empty() && (bytes[i].is_ascii_alphabetic() || bytes[i] == b'_') {
            let start = i;
            let mut j = i;
            while j < func.body_end && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            let ident = &masked[start..j];
            let bare = start == 0 || {
                let p = bytes[start - 1];
                !(p.is_ascii_alphanumeric() || p == b'_' || p == b':')
            };
            let self_call = masked[..start].ends_with("self.");
            let receiver_ok = self_call || (bare && !masked[..start].ends_with('.'));
            if receiver_ok
                && bytes.get(j) == Some(&b'(')
                && local_fns.contains(ident)
                && ident != func.name
            {
                facts.calls.push(Call {
                    callee: ident.to_string(),
                    held: held.iter().map(|(a, _, _, _)| a.clone()).collect(),
                    file: file.rel.clone(),
                    line: file.lexed.line_of(start),
                });
            }
            i = j;
            continue;
        }
        i += 1;
    }
    facts
}

/// Is `masked[i..]` a zero-argument `.lock()`/`.read()`/`.write()`?
/// Returns the matched length.
fn lock_method_at(masked: &str, i: usize) -> Option<usize> {
    for m in [".lock()", ".read()", ".write()"] {
        if masked[i..].starts_with(m) {
            return Some(m.len());
        }
    }
    None
}

/// The lock's name: the last path segment before the method dot.
fn receiver_of(masked: &str, floor: usize, dot: usize) -> String {
    let bytes = masked.as_bytes();
    let end = dot;
    let mut start = end;
    while start > floor {
        let b = bytes[start - 1];
        if b.is_ascii_alphanumeric() || b == b'_' {
            start -= 1;
        } else {
            break;
        }
    }
    if start == end {
        return "<expr>".into();
    }
    // `self.published.read()` names the field, not `self`.
    masked[start..end].to_string()
}

/// Transitive set of locks acquired by a function and its same-file
/// callees, with one representative site per lock. Memoized; recursion
/// cycles bottom out to the already-accumulated set.
fn closure(
    key: &(String, String),
    facts: &BTreeMap<(String, String), FnFacts>,
    memo: &mut BTreeMap<(String, String), BTreeMap<String, Acq>>,
    visiting: &mut BTreeSet<(String, String)>,
) -> BTreeMap<String, Acq> {
    if let Some(m) = memo.get(key) {
        return m.clone();
    }
    if !visiting.insert(key.clone()) {
        return BTreeMap::new();
    }
    let mut acc: BTreeMap<String, Acq> = BTreeMap::new();
    if let Some(f) = facts.get(key) {
        for a in &f.direct {
            acc.entry(a.lock.clone()).or_insert_with(|| a.clone());
        }
        for c in &f.calls {
            let callee_key = (key.0.clone(), c.callee.clone());
            for (l, a) in closure(&callee_key, facts, memo, visiting) {
                acc.entry(l).or_insert(a);
            }
        }
    }
    visiting.remove(key);
    memo.insert(key.clone(), acc.clone());
    acc
}

/// Is the acquisition bound (guard outlives the statement)? True for
/// `let` statements and `match`/`if let`/`while let` headers; the bound
/// variable name is returned for `let` so `drop(var)` can release it.
fn binding_of(masked: &str, floor: usize, at: usize) -> (bool, Option<String>) {
    let bytes = masked.as_bytes();
    let mut s = at;
    while s > floor && !matches!(bytes[s - 1], b';' | b'{' | b'}') {
        s -= 1;
    }
    let stmt = &masked[s..at];
    let trimmed = stmt.trim_start();
    if let Some(rest) = trimmed.strip_prefix("let ") {
        let rest = rest.trim_start().trim_start_matches("mut ");
        let var: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        return (true, if var.is_empty() { None } else { Some(var) });
    }
    for kw in ["match ", "if let ", "while let "] {
        if trimmed.contains(kw) {
            return (true, None);
        }
    }
    (false, None)
}

/// Strongly connected components with ≥ 2 nodes (Kosaraju).
fn sccs(edges: &[Edge]) -> Vec<Vec<String>> {
    let mut nodes: BTreeSet<&String> = BTreeSet::new();
    for e in edges {
        nodes.insert(&e.from);
        nodes.insert(&e.to);
    }
    let nodes: Vec<&String> = nodes.into_iter().collect();
    let index: BTreeMap<&String, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let n = nodes.len();
    let mut fwd = vec![Vec::new(); n];
    let mut rev = vec![Vec::new(); n];
    for e in edges {
        if e.from == e.to {
            continue;
        }
        let (a, b) = (index[&e.from], index[&e.to]);
        fwd[a].push(b);
        rev[b].push(a);
    }
    // First pass: finish order.
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for s in 0..n {
        if visited[s] {
            continue;
        }
        // Iterative DFS with an explicit post-visit marker.
        let mut stack = vec![(s, false)];
        while let Some((v, post)) = stack.pop() {
            if post {
                order.push(v);
                continue;
            }
            if visited[v] {
                continue;
            }
            visited[v] = true;
            stack.push((v, true));
            for &w in &fwd[v] {
                if !visited[w] {
                    stack.push((w, false));
                }
            }
        }
    }
    // Second pass: components on the reversed graph.
    let mut comp = vec![usize::MAX; n];
    let mut count = 0usize;
    for &s in order.iter().rev() {
        if comp[s] != usize::MAX {
            continue;
        }
        let mut stack = vec![s];
        comp[s] = count;
        while let Some(v) = stack.pop() {
            for &w in &rev[v] {
                if comp[w] == usize::MAX {
                    comp[w] = count;
                    stack.push(w);
                }
            }
        }
        count += 1;
    }
    let mut groups: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (i, &c) in comp.iter().enumerate() {
        groups.entry(c).or_default().push(nodes[i].clone());
    }
    groups.into_values().filter(|g| g.len() >= 2).collect()
}
