//! Fair multi-source morsel scheduling: the multi-query counterpart of
//! [`crate::pool`].
//!
//! [`crate::pool::MorselQueue`] distributes the morsels of *one* run
//! across a fixed set of workers. A query service has the inverse
//! problem: many concurrent runs ("sources"), one shared worker pool, and
//! a fairness requirement — a query with a million root candidates must
//! not starve the ten-candidate query submitted after it. The
//! [`FairScheduler`] solves this with round-robin dispatch at morsel
//! granularity: workers [`claim`](FairScheduler::claim) one morsel at a
//! time, and consecutive claims rotate over the registered sources, so
//! every active source advances at the same morsel rate regardless of its
//! total size.
//!
//! The scheduler is deliberately engine-agnostic (`T` is whatever a
//! morsel means to the caller) and blocking: workers park on a condvar
//! when no source has work and are woken by
//! [`register`](FairScheduler::register) or
//! [`shutdown`](FairScheduler::shutdown). Lifecycle bookkeeping is
//! built in — [`complete`](FairScheduler::complete) reports exactly once,
//! to exactly one worker, that a source is fully drained (no queued
//! morsels, none in flight), which is the finalize-the-query signal a
//! service needs.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Identifies one registered morsel source (one query run).
pub type SourceId = u64;

/// What a blocking [`FairScheduler::claim`] returned.
#[derive(Debug, PartialEq, Eq)]
pub enum Claim<T> {
    /// One morsel of `source`. The worker must call
    /// [`FairScheduler::complete`] with this id when the morsel is done.
    Morsel {
        /// The source the morsel belongs to.
        source: SourceId,
        /// The morsel payload.
        item: T,
    },
    /// The scheduler was shut down; the worker should exit.
    Shutdown,
}

struct Source<T> {
    id: SourceId,
    morsels: VecDeque<T>,
    in_flight: usize,
}

struct Inner<T> {
    sources: Vec<Source<T>>,
    /// Round-robin position: index into `sources` of the next source to
    /// serve.
    cursor: usize,
    next_id: SourceId,
    shutdown: bool,
}

/// A blocking, round-robin-fair morsel scheduler over dynamically
/// registered sources. See the module docs for the protocol.
pub struct FairScheduler<T> {
    inner: Mutex<Inner<T>>,
    work: Condvar,
}

impl<T> Default for FairScheduler<T> {
    fn default() -> Self {
        FairScheduler::new()
    }
}

impl<T> FairScheduler<T> {
    /// An empty scheduler.
    pub fn new() -> Self {
        FairScheduler {
            inner: Mutex::new(Inner {
                sources: Vec::new(),
                cursor: 0,
                next_id: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
        }
    }

    /// Register a new source with its morsel list and wake parked
    /// workers. Registering an empty list is allowed; the source is
    /// trivially drained and never surfaces in a claim, so the caller
    /// must finalize it itself (a real service finalizes zero-work
    /// queries at submission).
    pub fn register(&self, morsels: impl IntoIterator<Item = T>) -> SourceId {
        let mut inner = self.inner.lock().unwrap();
        let id = inner.next_id;
        inner.next_id += 1;
        let queue: VecDeque<T> = morsels.into_iter().collect();
        if !queue.is_empty() {
            inner.sources.push(Source {
                id,
                morsels: queue,
                in_flight: 0,
            });
            drop(inner);
            self.work.notify_all();
        }
        id
    }

    /// Drop every still-queued morsel of `source` (e.g. its query was
    /// cancelled), returning how many were dropped. Morsels already in
    /// flight keep running; the source stays registered until they
    /// [`complete`](FairScheduler::complete).
    pub fn revoke(&self, source: SourceId) -> usize {
        let mut inner = self.inner.lock().unwrap();
        let Some(idx) = inner.sources.iter().position(|s| s.id == source) else {
            return 0;
        };
        let dropped = inner.sources[idx].morsels.len();
        inner.sources[idx].morsels.clear();
        if inner.sources[idx].in_flight == 0 {
            inner.sources.remove(idx);
            if inner.cursor > idx {
                inner.cursor -= 1;
            }
        }
        dropped
    }

    /// Block until a morsel is available (or the scheduler shuts down)
    /// and claim it. Consecutive claims rotate round-robin over the
    /// sources that currently have queued morsels.
    pub fn claim(&self) -> Claim<T> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.shutdown {
                return Claim::Shutdown;
            }
            let n = inner.sources.len();
            let start = if n == 0 { 0 } else { inner.cursor % n };
            let mut found = None;
            for off in 0..n {
                let idx = (start + off) % n;
                if !inner.sources[idx].morsels.is_empty() {
                    found = Some(idx);
                    break;
                }
            }
            if let Some(idx) = found {
                let src = &mut inner.sources[idx];
                let item = src.morsels.pop_front().expect("non-empty by scan");
                src.in_flight += 1;
                let id = src.id;
                inner.cursor = (idx + 1) % n.max(1);
                return Claim::Morsel { source: id, item };
            }
            inner = self.work.wait(inner).unwrap();
        }
    }

    /// Report one claimed morsel of `source` finished. Returns `true`
    /// exactly once per source: on the call that drains it (no queued
    /// morsels, no other morsel in flight), after which the source is
    /// deregistered. The `true` return is the caller's signal to finalize
    /// the source's run.
    pub fn complete(&self, source: SourceId) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let Some(idx) = inner.sources.iter().position(|s| s.id == source) else {
            return false;
        };
        let src = &mut inner.sources[idx];
        debug_assert!(src.in_flight > 0, "complete without a claim");
        src.in_flight -= 1;
        if src.in_flight == 0 && src.morsels.is_empty() {
            inner.sources.remove(idx);
            if inner.cursor > idx {
                inner.cursor -= 1;
            }
            true
        } else {
            false
        }
    }

    /// Number of sources still registered (queued or in flight).
    pub fn live_sources(&self) -> usize {
        self.inner.lock().unwrap().sources.len()
    }

    /// Shut down: every parked or future [`claim`](FairScheduler::claim)
    /// returns [`Claim::Shutdown`]. Queued morsels are abandoned.
    pub fn shutdown(&self) {
        self.inner.lock().unwrap().shutdown = true;
        self.work.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::scoped_map;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn round_robin_alternates_sources() {
        let s = FairScheduler::new();
        let a = s.register(vec![1, 2, 3]);
        let b = s.register(vec![10, 20, 30]);
        let mut order = Vec::new();
        for _ in 0..6 {
            match s.claim() {
                Claim::Morsel { source, item } => {
                    order.push((source, item));
                    s.complete(source);
                }
                Claim::Shutdown => panic!("not shut down"),
            }
        }
        // strict alternation: a,b,a,b,a,b (ids in registration order)
        let sources: Vec<SourceId> = order.iter().map(|(s, _)| *s).collect();
        assert_eq!(sources, vec![a, b, a, b, a, b]);
        // FIFO within a source
        let a_items: Vec<i32> = order
            .iter()
            .filter(|(s, _)| *s == a)
            .map(|(_, i)| *i)
            .collect();
        assert_eq!(a_items, vec![1, 2, 3]);
        assert_eq!(s.live_sources(), 0);
    }

    #[test]
    fn complete_reports_drain_exactly_once() {
        let s = FairScheduler::new();
        let id = s.register(vec![1, 2]);
        let Claim::Morsel { source: s1, .. } = s.claim() else {
            panic!()
        };
        let Claim::Morsel { source: s2, .. } = s.claim() else {
            panic!()
        };
        assert_eq!((s1, s2), (id, id));
        // first completion: still one in flight
        assert!(!s.complete(id));
        // second completion drains the source
        assert!(s.complete(id));
        // source is gone now
        assert!(!s.complete(id));
    }

    #[test]
    fn empty_registration_never_surfaces() {
        let s: FairScheduler<u32> = FairScheduler::new();
        s.register(Vec::new());
        assert_eq!(s.live_sources(), 0);
        s.shutdown();
        assert_eq!(s.claim(), Claim::Shutdown);
    }

    #[test]
    fn revoke_drops_queued_morsels() {
        let s = FairScheduler::new();
        let id = s.register(vec![1, 2, 3, 4]);
        let Claim::Morsel { .. } = s.claim() else {
            panic!()
        };
        assert_eq!(s.revoke(id), 3);
        // the in-flight morsel still completes, and that drains the source
        assert!(s.complete(id));
        assert_eq!(s.live_sources(), 0);
        // revoking an unknown source is a no-op
        assert_eq!(s.revoke(999), 0);
    }

    #[test]
    fn shutdown_unblocks_parked_workers() {
        let s: FairScheduler<u32> = FairScheduler::new();
        let done = AtomicUsize::new(0);
        scoped_map(3, |wid| {
            if wid == 0 {
                // give the others a moment to park
                std::thread::sleep(std::time::Duration::from_millis(10));
                s.shutdown();
            } else {
                assert_eq!(s.claim(), Claim::Shutdown);
                done.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn register_wakes_claimers() {
        let s: FairScheduler<u32> = FairScheduler::new();
        let executed = AtomicUsize::new(0);
        scoped_map(4, |wid| {
            if wid == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
                s.register(0..32u32);
                // drain-finalization happens on some worker; wait for it
                while s.live_sources() > 0 {
                    std::thread::yield_now();
                }
                s.shutdown();
            } else {
                while let Claim::Morsel { source, .. } = s.claim() {
                    executed.fetch_add(1, Ordering::Relaxed);
                    s.complete(source);
                }
            }
        });
        assert_eq!(executed.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn fairness_interleaves_a_large_and_a_small_source() {
        let s = FairScheduler::new();
        let big = s.register(0..100u32);
        let small = s.register(0..3u32);
        // claims alternate, so the small source finishes within 6 claims
        let mut small_done_at = None;
        for step in 0..103 {
            let Claim::Morsel { source, .. } = s.claim() else {
                panic!()
            };
            if s.complete(source) && source == small {
                small_done_at = Some(step);
            }
        }
        let _ = big;
        assert_eq!(s.live_sources(), 0);
        assert!(
            small_done_at.expect("small source drained") <= 5,
            "small source starved: done at {small_done_at:?}"
        );
    }
}
