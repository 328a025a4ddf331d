//! `sm-trace` — structured tracing for the whole matching pipeline.
//!
//! One [`Trace`] handle is attached to a run's configuration and cloned
//! into every phase: graph loading, filtering, ordering, candidate-space
//! construction, enumeration, and the worker pool. It provides
//!
//! * **hierarchical spans** ([`Trace::span`]) timed on the monotonic
//!   clock, with implicit per-thread parenting (RAII guards) plus
//!   explicit parenting ([`Trace::span_under`]) for worker threads;
//! * a **counter registry** ([`counters`]) flushed once per run/worker
//!   from plain worker-local [`CounterBlock`]s, so the hot path never
//!   touches shared state;
//! * **exporters** ([`profile`]): a human-readable span tree, a JSONL
//!   run profile, and a flamegraph-compatible folded-stacks dump.
//!
//! A trace records no outcome of its own: whether a run was cut short
//! is its `Outcome`, and whoever builds a profile's
//! [`profile::RunMeta`] sets `cancelled` from it. What each worker did
//! is its `worker` span and the `morsel` spans under it.
//!
//! The disabled handle ([`Trace::disabled`]) is a `None` — every call is
//! one branch on an `Option`, so the layer stays permanently wired into
//! the hot paths at <2% cost.

pub mod counters;
pub mod json;
pub mod profile;

pub use counters::{AtomicCounterBlock, Counter, CounterBlock};
pub use json::Json;
pub use profile::{RunProfile, SpanNode};

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Sentinel `end_ns` of a span that has not closed yet.
const OPEN: u64 = u64::MAX;

/// One completed (or still-open) span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id (index into the trace's span table).
    pub id: u32,
    /// Parent span id, `None` for roots.
    pub parent: Option<u32>,
    /// Phase name (stable, snake_case-ish: `run`, `plan`, `filter`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the trace epoch (monotonic clock).
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch; equals `u64::MAX` while
    /// the span is open.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Whether the span has been closed.
    pub fn closed(&self) -> bool {
        self.end_ns != OPEN
    }

    /// Span duration in nanoseconds (0 while open).
    pub fn dur_ns(&self) -> u64 {
        if self.closed() {
            self.end_ns.saturating_sub(self.start_ns)
        } else {
            0
        }
    }
}

/// Everything a finished trace collected, copied out for export.
#[derive(Clone, Debug, Default)]
pub struct TraceSnapshot {
    /// All spans, in creation order (ids are indices).
    pub spans: Vec<SpanRecord>,
    /// Flushed per-worker counter blocks `(worker, block)`; a worker may
    /// appear more than once (e.g. one flush per run on reused workers).
    pub counters: Vec<(usize, CounterBlock)>,
}

impl TraceSnapshot {
    /// Merge of every flushed counter block: sums add, gauges take the
    /// max — the run totals the tables report.
    pub fn totals(&self) -> CounterBlock {
        let mut t = CounterBlock::new();
        for (_, b) in &self.counters {
            t.merge(b);
        }
        t
    }
}

struct TraceInner {
    t0: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    /// Per-thread stack of open span ids, for implicit parenting.
    stacks: Mutex<HashMap<ThreadId, Vec<u32>>>,
    counters: Mutex<Vec<(usize, CounterBlock)>>,
}

/// A cloneable tracing handle. `disabled()` is a `None` inside — every
/// operation short-circuits on one branch, which is what keeps the layer
/// affordable on permanently-instrumented hot paths.
#[derive(Clone, Default)]
pub struct Trace(Option<Arc<TraceInner>>);

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "Trace(enabled)"
        } else {
            "Trace(disabled)"
        })
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Trace {
    /// The no-op handle (the default on every config).
    pub fn disabled() -> Trace {
        Trace(None)
    }

    /// A live trace with its epoch at "now".
    pub fn enabled() -> Trace {
        Trace(Some(Arc::new(TraceInner {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            stacks: Mutex::new(HashMap::new()),
            counters: Mutex::new(Vec::new()),
        })))
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Nanoseconds since the trace epoch (0 when disabled).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match &self.0 {
            Some(inner) => inner.t0.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Open a span under the current thread's innermost open span (or as
    /// a root). Close it by dropping the guard.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let parent = self.current_span();
        self.span_under(parent, name)
    }

    /// Open a span under an explicit parent — how worker threads attach
    /// their spans beneath the coordinator's `parallel` span. The new
    /// span still becomes the innermost span *of this thread*, so nested
    /// `span()` calls parent correctly.
    pub fn span_under(&self, parent: Option<u32>, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.0 else {
            return SpanGuard { trace: None, id: 0 };
        };
        let start_ns = inner.t0.elapsed().as_nanos() as u64;
        let id = {
            let mut spans = inner.spans.lock().unwrap();
            let id = spans.len() as u32;
            spans.push(SpanRecord {
                id,
                parent,
                name,
                start_ns,
                end_ns: OPEN,
            });
            id
        };
        inner
            .stacks
            .lock()
            .unwrap()
            .entry(std::thread::current().id())
            .or_default()
            .push(id);
        SpanGuard {
            trace: Some(Arc::clone(inner)),
            id,
        }
    }

    /// The current thread's innermost open span id, if any.
    pub fn current_span(&self) -> Option<u32> {
        let inner = self.0.as_ref()?;
        inner
            .stacks
            .lock()
            .unwrap()
            .get(&std::thread::current().id())
            .and_then(|s| s.last().copied())
    }

    /// Flush a worker-local counter block into the registry. Call once
    /// per run (sequential) or once per worker (parallel); totals are the
    /// merge of every flushed block. Zero blocks are skipped.
    pub fn flush_counters(&self, worker: usize, block: &CounterBlock) {
        if let Some(inner) = &self.0 {
            if !block.is_zero() {
                inner.counters.lock().unwrap().push((worker, block.clone()));
            }
        }
    }

    /// Copy out everything collected so far. Returns an empty snapshot
    /// for a disabled handle.
    pub fn snapshot(&self) -> TraceSnapshot {
        match &self.0 {
            Some(inner) => TraceSnapshot {
                spans: inner.spans.lock().unwrap().clone(),
                counters: inner.counters.lock().unwrap().clone(),
            },
            None => TraceSnapshot::default(),
        }
    }
}

/// RAII guard returned by [`Trace::span`]: dropping it closes the span
/// at "now" and pops it from the owning thread's stack. Guards from a
/// disabled trace are inert.
#[must_use = "dropping the guard is what closes the span"]
pub struct SpanGuard {
    trace: Option<Arc<TraceInner>>,
    id: u32,
}

impl SpanGuard {
    /// The span id (for [`Trace::span_under`] from other threads).
    /// `None` for guards of a disabled trace.
    pub fn id(&self) -> Option<u32> {
        self.trace.as_ref().map(|_| self.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = &self.trace else { return };
        let end_ns = inner.t0.elapsed().as_nanos() as u64;
        inner.spans.lock().unwrap()[self.id as usize].end_ns = end_ns;
        let mut stacks = inner.stacks.lock().unwrap();
        if let Some(stack) = stacks.get_mut(&std::thread::current().id()) {
            // Usually the top; remove by id to survive out-of-order drops.
            if let Some(pos) = stack.iter().rposition(|&s| s == self.id) {
                stack.remove(pos);
            }
            if stack.is_empty() {
                stacks.remove(&std::thread::current().id());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let t = Trace::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.now_ns(), 0);
        {
            let g = t.span("run");
            assert_eq!(g.id(), None);
            assert_eq!(t.current_span(), None);
        }
        let mut b = CounterBlock::new();
        b.bump(Counter::Recursions);
        t.flush_counters(0, &b);
        let snap = t.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.totals().is_zero());
    }

    #[test]
    fn spans_nest_within_a_thread() {
        let t = Trace::enabled();
        {
            let run = t.span("run");
            assert_eq!(t.current_span(), run.id());
            {
                let plan = t.span("plan");
                let _filter = t.span("filter");
                let snap = t.snapshot();
                assert_eq!(snap.spans[1].parent, run.id());
                assert_eq!(snap.spans[2].parent, plan.id());
                assert!(!snap.spans[2].closed());
            }
            // children closed, run still open and current again
            assert_eq!(t.current_span(), run.id());
        }
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 3);
        assert!(snap.spans.iter().all(|s| s.closed()));
        assert!(snap.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(snap.spans[0].parent, None);
    }

    #[test]
    fn span_under_parents_across_threads() {
        let t = Trace::enabled();
        let parallel = t.span("parallel");
        let pid = parallel.id();
        let t2 = t.clone();
        std::thread::scope(|s| {
            s.spawn(|| {
                let w = t2.span_under(pid, "worker");
                // implicit nesting continues on the worker thread
                let m = t2.span("morsel");
                drop(m);
                drop(w);
            });
        });
        drop(parallel);
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 3);
        let worker = snap.spans.iter().find(|s| s.name == "worker").unwrap();
        let morsel = snap.spans.iter().find(|s| s.name == "morsel").unwrap();
        assert_eq!(worker.parent, pid);
        assert_eq!(morsel.parent, Some(worker.id));
        assert!(snap.spans.iter().all(|s| s.closed()));
    }

    #[test]
    fn totals_merge_flushed_blocks() {
        let t = Trace::enabled();
        let mut a = CounterBlock::new();
        a.add(Counter::Recursions, 10);
        a.record_max(Counter::PeakDepth, 3);
        let mut b = CounterBlock::new();
        b.add(Counter::Recursions, 5);
        b.record_max(Counter::PeakDepth, 7);
        t.flush_counters(0, &a);
        t.flush_counters(1, &b);
        t.flush_counters(2, &CounterBlock::new()); // zero block skipped
        let snap = t.snapshot();
        assert_eq!(snap.counters.len(), 2);
        let totals = snap.totals();
        assert_eq!(totals.get(Counter::Recursions), 15);
        assert_eq!(totals.get(Counter::PeakDepth), 7);
    }

    #[test]
    fn monotone_now() {
        let t = Trace::enabled();
        let a = t.now_ns();
        let b = t.now_ns();
        assert!(b >= a);
    }
}
