//! Request-scoped trace propagation.
//!
//! A trace id is a non-zero `u128` minted once per request by whoever
//! originates it (the net client mints one per wire request; local
//! shells may mint their own). It travels in the wire frame header, so
//! every surface a request touches — `EXPLAIN ANALYZE`, the slow-query
//! log, structured error frames, and the flight recorder — can report
//! the id the originator already holds.
//!
//! ## The ambient current trace
//!
//! Rather than threading the id through every call signature, the
//! serving thread installs it with [`set_current`] for the duration of
//! one request; recording sites read it back with [`current`]. The
//! slot is thread-local, so concurrent sessions on separate worker
//! threads never observe each other's ids. The guard restores the
//! previous value on drop (nesting is safe), including on unwind.
//!
//! Zero is the reserved "no trace" id: [`set_current`] with 0 installs
//! nothing and [`current`] never returns it. Under the `HRDM_OBS_OFF`
//! kill switch [`TraceContext::mint`] returns the zero context, so
//! disabling observability silently disables propagation everywhere
//! without any call-site changes.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

thread_local! {
    static CURRENT: Cell<u128> = const { Cell::new(0) };
}

/// Process-wide mint counter: guarantees ids minted by one process are
/// distinct even within a single clock tick.
static MINT_SEQ: AtomicU64 = AtomicU64::new(0);

/// The identity of one request: a process-unique id plus the name of
/// the component that minted it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace id (0 = absent, never minted while enabled).
    pub id: u128,
    /// Who minted it (e.g. the client name sent in `Hello`).
    pub origin: String,
}

impl TraceContext {
    /// Mints a fresh context. The id mixes wall-clock nanoseconds, a
    /// process-wide counter, and a hash of `origin`, giving ids that
    /// are unique per process and overwhelmingly unique across
    /// processes — collision resistance for dashboards, not security.
    /// Returns the zero context when observability is disabled.
    pub fn mint(origin: &str) -> TraceContext {
        let id = if crate::enabled() { mint_id(origin) } else { 0 };
        TraceContext {
            id,
            origin: origin.to_string(),
        }
    }

    /// The zero (absent) context.
    pub fn none() -> TraceContext {
        TraceContext {
            id: 0,
            origin: String::new(),
        }
    }
}

fn mint_id(origin: &str) -> u128 {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let seq = MINT_SEQ.fetch_add(1, Ordering::Relaxed);
    // FNV-1a over the origin, folded with the counter into the low half.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in origin.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    let low = h ^ seq.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15;
    let id = (nanos << 32) ^ u128::from(low);
    if id == 0 {
        1
    } else {
        id
    }
}

/// Restores the previously-current trace id when dropped.
pub struct TraceScope {
    prev: u128,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Installs `id` as the calling thread's current trace for the lifetime
/// of the returned guard. Id 0 (and the kill switch) install nothing —
/// the guard still restores correctly.
pub fn set_current(id: u128) -> TraceScope {
    let prev = CURRENT.with(|c| c.get());
    if id != 0 && crate::enabled() {
        CURRENT.with(|c| c.set(id));
    }
    TraceScope { prev }
}

/// The calling thread's current trace id, if a non-zero one is
/// installed and observability is enabled.
pub fn current() -> Option<u128> {
    if !crate::enabled() {
        return None;
    }
    let id = CURRENT.with(|c| c.get());
    if id == 0 {
        None
    } else {
        Some(id)
    }
}

/// Renders a trace id as the canonical 32-digit lowercase hex string.
pub fn render(id: u128) -> String {
    format!("{id:032x}")
}

/// Parses the canonical 32-digit hex rendering back into an id.
pub fn parse(s: &str) -> Option<u128> {
    if s.len() != 32 {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minted_ids_are_unique_and_nonzero() {
        crate::set_enabled(true);
        let a = TraceContext::mint("t");
        let b = TraceContext::mint("t");
        assert_ne!(a.id, 0);
        assert_ne!(b.id, 0);
        assert_ne!(a.id, b.id);
        assert_eq!(a.origin, "t");
    }

    #[test]
    fn scope_installs_and_restores() {
        crate::set_enabled(true);
        assert_eq!(current(), None);
        {
            let _outer = set_current(7);
            assert_eq!(current(), Some(7));
            {
                let _inner = set_current(9);
                assert_eq!(current(), Some(9));
            }
            assert_eq!(current(), Some(7));
            {
                let _zero = set_current(0);
                assert_eq!(current(), Some(7), "zero installs nothing");
            }
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn render_parse_round_trip() {
        let id = 0x00ab_cdef_0123_4567_89ab_cdef_0123_4567u128;
        let s = render(id);
        assert_eq!(s.len(), 32);
        assert_eq!(parse(&s), Some(id));
        assert_eq!(parse("zz"), None);
    }
}
