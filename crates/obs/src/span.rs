//! Monotonic timing spans with nesting.
//!
//! A span measures one stage of work on one thread: [`crate::span()`] returns
//! a guard, dropping it ends the span. Spans nest — a per-thread stack
//! tracks depth, and the begin/end bookkeeping is counted globally so tests
//! can assert pairing (every end has a begin, depth returns to zero) even
//! when the work in between panicked and unwound through the guard.
//!
//! Timing uses [`Instant`] (monotonic; wall clocks step under NTP), and
//! each completed span feeds the histogram `span.<name>.ns`, which is where
//! per-stage timings in `RunMetrics` come from.

use crate::metrics::registry;
use crate::sink;
use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Live guard for one span; ends the span (and records its duration) on
/// drop. Inert when observability was disabled at creation time.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard {
    pub(crate) fn disabled() -> SpanGuard {
        SpanGuard { name: "", start: None }
    }

    pub(crate) fn begin(name: &'static str) -> SpanGuard {
        let depth = STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.push(name);
            s.len() - 1
        });
        registry().counter("obs.span.begin").inc();
        let start = Instant::now();
        sink::emit_span("span_begin", name, depth, start - process_epoch(), None);
        SpanGuard { name, start: Some(start) }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur = start.elapsed();
        let depth = STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Pop our own frame. Unwinding drops inner guards first, so the
            // top is ours unless a caller leaked a guard across threads;
            // search defensively rather than corrupting the stack.
            match s.iter().rposition(|n| *n == self.name) {
                Some(i) => {
                    s.remove(i);
                    i
                }
                None => 0,
            }
        });
        registry().counter("obs.span.end").inc();
        registry().histogram(&format!("span.{}.ns", self.name)).observe(dur.as_nanos() as u64);
        sink::emit_span("span_end", self.name, depth, start - process_epoch(), Some(dur));
    }
}

/// Depth of the current thread's span stack (0 when no span is open).
/// Tests use this to assert that unwinding restored balance.
pub fn thread_span_depth() -> usize {
    STACK.with(|s| s.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_enabled;

    #[test]
    fn spans_nest_and_unwind_cleanly() {
        let _l = crate::test_lock();
        set_enabled(true);
        let before_begin = registry().counter("obs.span.begin").get();
        let before_end = registry().counter("obs.span.end").get();
        {
            let _a = SpanGuard::begin("outer");
            assert_eq!(thread_span_depth(), 1);
            let _b = SpanGuard::begin("inner");
            assert_eq!(thread_span_depth(), 2);
        }
        assert_eq!(thread_span_depth(), 0);
        // A panic that unwinds through guards still ends them.
        let r = std::panic::catch_unwind(|| {
            let _g = SpanGuard::begin("doomed");
            panic!("boom");
        });
        assert!(r.is_err());
        assert_eq!(thread_span_depth(), 0);
        let begun = registry().counter("obs.span.begin").get() - before_begin;
        let ended = registry().counter("obs.span.end").get() - before_end;
        assert_eq!(begun, 3);
        assert_eq!(ended, 3);
        assert!(registry().histogram("span.doomed.ns").count() >= 1);
    }
}
