//! Per-query span tracing: wall-time trees built with RAII guards.
//!
//! A [`Span`] wraps one unit of work (a plan operator, a commit
//! phase). Entering a span pushes a node onto a **thread-local** open
//! stack; dropping the guard pops it, stamps the elapsed wall time,
//! and attaches it to its parent — so nested `Span::enter` calls build
//! the same tree as the call graph. Collection only happens inside
//! [`with_trace`]; outside it (or with observability disabled) a span
//! is one thread-local read and no allocation, so a layer can leave its
//! spans in place permanently without a measurable cost in production
//! paths. (The query executor does not use spans: its operators keep
//! their own `ExecStats`, which is what `EXPLAIN ANALYZE` renders.)

use std::cell::RefCell;
use std::time::Instant;

/// One node of a trace tree: a named unit of work, its inclusive wall
/// time, the rows it produced (when recorded), and its children in
/// execution order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceNode {
    /// The span name given to [`Span::enter`].
    pub name: &'static str,
    /// Inclusive wall time of the span, in nanoseconds.
    pub wall_ns: u64,
    /// Output rows recorded with [`SpanGuard::record_rows`], if any.
    pub rows: Option<u64>,
    /// Child spans, in the order they were entered.
    pub children: Vec<TraceNode>,
}

struct OpenSpan {
    node: TraceNode,
    started: Instant,
}

struct Collector {
    /// Open spans, innermost last.
    stack: Vec<OpenSpan>,
    /// Completed top-level spans.
    roots: Vec<TraceNode>,
}

thread_local! {
    static ACTIVE: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Runs `f` with span collection active on this thread and returns its
/// result together with the completed top-level trace trees (one per
/// outermost [`Span::enter`] during `f`). Nested `with_trace` calls
/// each collect their own trees; the outer collection pauses for the
/// duration. If observability is disabled ([`crate::enabled`] is
/// false), `f` runs untraced and the tree list is empty.
pub fn with_trace<R>(f: impl FnOnce() -> R) -> (R, Vec<TraceNode>) {
    if !crate::enabled() {
        return (f(), Vec::new());
    }
    let previous = ACTIVE.with(|a| {
        a.borrow_mut().replace(Collector {
            stack: Vec::new(),
            roots: Vec::new(),
        })
    });
    // Restore the previous collector even if `f` panics, so a caught
    // panic (e.g. in tests) cannot leak a stale collector into later
    // work on this thread.
    struct Restore(Option<Collector>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            ACTIVE.with(|a| *a.borrow_mut() = prev);
        }
    }
    let restore = Restore(previous);
    let result = f();
    let collector = ACTIVE.with(|a| a.borrow_mut().take());
    let roots = collector.map(|c| c.roots).unwrap_or_default();
    drop(restore);
    (result, roots)
}

/// A traced unit of work. See [`with_trace`].
pub struct Span;

impl Span {
    /// Opens a span named `name`. The returned guard closes it on
    /// drop, recording the elapsed wall time into the active trace.
    /// When no trace is active this is one thread-local read.
    pub fn enter(name: &'static str) -> SpanGuard {
        let index = ACTIVE.with(|a| {
            let mut active = a.borrow_mut();
            match active.as_mut() {
                Some(c) => {
                    c.stack.push(OpenSpan {
                        node: TraceNode {
                            name,
                            wall_ns: 0,
                            rows: None,
                            children: Vec::new(),
                        },
                        started: Instant::now(),
                    });
                    Some(c.stack.len() - 1)
                }
                None => None,
            }
        });
        SpanGuard { index }
    }
}

/// RAII guard for an open [`Span`]; closes the span on drop.
pub struct SpanGuard {
    /// This span's position in the open stack, `None` when untraced.
    index: Option<usize>,
}

impl SpanGuard {
    /// Records the number of rows this span's operator produced; shown
    /// as `rows=N` in EXPLAIN ANALYZE output.
    pub fn record_rows(&self, rows: u64) {
        let Some(index) = self.index else { return };
        ACTIVE.with(|a| {
            if let Some(c) = a.borrow_mut().as_mut() {
                if let Some(open) = c.stack.get_mut(index) {
                    open.node.rows = Some(rows);
                }
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.index.is_none() {
            return;
        }
        ACTIVE.with(|a| {
            if let Some(c) = a.borrow_mut().as_mut() {
                if let Some(mut open) = c.stack.pop() {
                    open.node.wall_ns = open.started.elapsed().as_nanos() as u64;
                    match c.stack.last_mut() {
                        Some(parent) => parent.node.children.push(open.node),
                        None => c.roots.push(open.node),
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_mirrors_the_call_graph() {
        let ((), roots) = with_trace(|| {
            let outer = Span::enter("outer");
            {
                let a = Span::enter("a");
                a.record_rows(3);
                drop(a);
                let _b = Span::enter("b");
            }
            outer.record_rows(1);
        });
        assert_eq!(roots.len(), 1);
        let outer = &roots[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.rows, Some(1));
        assert_eq!(outer.children.len(), 2);
        assert_eq!(outer.children[0].name, "a");
        assert_eq!(outer.children[0].rows, Some(3));
        assert_eq!(outer.children[1].name, "b");
        assert!(outer.children[1].children.is_empty());
    }

    #[test]
    fn spans_outside_a_trace_are_free_of_effect() {
        let guard = Span::enter("untraced");
        guard.record_rows(9);
        drop(guard);
        let ((), roots) = with_trace(|| {
            let _s = Span::enter("traced");
        });
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "traced");
    }

    #[test]
    fn wall_time_is_inclusive_of_children() {
        let ((), roots) = with_trace(|| {
            let _outer = Span::enter("outer");
            let inner = Span::enter("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
            drop(inner);
        });
        let outer = &roots[0];
        let inner = &outer.children[0];
        assert!(inner.wall_ns > 0);
        assert!(outer.wall_ns >= inner.wall_ns);
    }
}
