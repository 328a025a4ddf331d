//! The one morsel scheduler: every parallel run in the workspace — the
//! query service's workers, one intra-query parallel run, one
//! incremental-maintenance batch — draws its morsels from a
//! [`FairScheduler`] through the one worker loop,
//! [`FairScheduler::serve`].
//!
//! A source is one run's morsel list (see [`crate::pool::morsels`]). The
//! scheduler keeps one FIFO queue per source and dispatches round-robin at
//! morsel granularity: workers [`claim`](FairScheduler::claim) one morsel
//! at a time, and consecutive claims rotate over the registered sources,
//! so a query with a million root candidates cannot starve the
//! ten-candidate query submitted after it. Within one source the queue is
//! shared, so a worker that finishes a cheap morsel takes the next one
//! while another grinds a hub-rooted subtree — the dynamic balancing of
//! morsel-driven parallelism (Leis et al., SIGMOD 2014) with a single
//! dispatcher queue; the per-socket queues that paper keeps for NUMA
//! locality are what a multi-socket machine would add.
//!
//! The scheduler is deliberately engine-agnostic (`T` is whatever a
//! morsel means to the caller) and blocking: workers park on a condvar
//! when no source has work and are woken by
//! [`register`](FairScheduler::register) or
//! [`shutdown`](FairScheduler::shutdown). Lifecycle bookkeeping is
//! built in — [`complete`](FairScheduler::complete) reports exactly once,
//! to exactly one worker, that a source is fully drained (no queued
//! morsels, none in flight). [`FairScheduler::serve`] hands that signal
//! to the caller's *drained hook*: the service finalizes the query; a
//! scoped run ([`run_scoped`]) shuts its private scheduler down, which
//! releases its parked workers.

use crate::pool::scoped_map;
use crate::trace::{Counter, CounterBlock, Trace};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

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
        // Built before locking: the caller's iterator runs while workers
        // keep claiming.
        let queue: VecDeque<T> = morsels.into_iter().collect();
        let mut inner = self.inner.lock().unwrap();
        let id = inner.next_id;
        inner.next_id += 1;
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
    /// returns [`Claim::Shutdown`]. Queued morsels are abandoned. Never
    /// panics: the flag is valid whatever a panicked lock holder left, and
    /// a worker unwinding out of [`serve`](FairScheduler::serve) calls
    /// this from `Drop`.
    pub fn shutdown(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.shutdown = true;
        drop(inner);
        self.work.notify_all();
    }

    /// The worker loop: claim a morsel, run `step` on it, complete it —
    /// until [`Claim::Shutdown`]. A `step` returning `false` (its run was
    /// cancelled or hit its cap) revokes the rest of that source's queue.
    /// The completion that drains a source passes the morsel to
    /// `drained`, exactly once per source.
    ///
    /// Returns this worker's counter block with `morsels_executed`,
    /// `busy_ns` (time in `step`) and `idle_ns` (time in `claim`). With
    /// an enabled `trace` the worker opens a `worker` span under
    /// `parent` and wraps every morsel in a `morsel` span; with a
    /// disabled one every trace touch is one branch.
    pub fn serve(
        &self,
        mut step: impl FnMut(&T) -> bool,
        mut drained: impl FnMut(T),
        trace: &Trace,
        parent: Option<u32>,
    ) -> CounterBlock {
        let worker_span = trace
            .is_enabled()
            .then(|| trace.span_under(parent, "worker"));
        let mut block = CounterBlock::new();
        loop {
            let waiting = Instant::now();
            let claim = self.claim();
            block.add(Counter::IdleNs, waiting.elapsed().as_nanos() as u64);
            let Claim::Morsel { source, item } = claim else {
                break;
            };
            block.bump(Counter::MorselsExecuted);
            let working = Instant::now();
            let keep_going = {
                let _morsel_span = trace.is_enabled().then(|| trace.span("morsel"));
                step(&item)
            };
            block.add(Counter::BusyNs, working.elapsed().as_nanos() as u64);
            if !keep_going {
                self.revoke(source);
            }
            if self.complete(source) {
                drained(item);
            }
        }
        drop(worker_span);
        block
    }
}

/// Run one list of morsels to completion on `threads` scoped workers,
/// each serving a private [`FairScheduler`] with its own state from
/// `init(worker)`; the drained hook shuts the scheduler down, which
/// releases the workers parked in `claim`. Returns every worker's final
/// state and scheduler counter block (see [`FairScheduler::serve`]) in
/// worker order. An empty list returns at once and spawns nothing.
pub fn run_scoped<T, S>(
    morsels: impl IntoIterator<Item = T>,
    threads: usize,
    init: impl Fn(usize) -> S + Sync,
    step: impl Fn(&mut S, &T) -> bool + Sync,
    trace: &Trace,
    parent: Option<u32>,
) -> Vec<(S, CounterBlock)>
where
    T: Send,
    S: Send,
{
    let sched = FairScheduler::new();
    sched.register(morsels);
    if sched.live_sources() == 0 {
        return Vec::new();
    }
    scoped_map(threads, |worker| {
        // A worker leaves `serve` on shutdown or by unwinding out of
        // `step`; either way no other worker may stay parked.
        let _release = ShutdownOnDrop(&sched);
        let mut state = init(worker);
        let block = sched.serve(
            |item| step(&mut state, item),
            |_| sched.shutdown(),
            trace,
            parent,
        );
        (state, block)
    })
}

struct ShutdownOnDrop<'a, T>(&'a FairScheduler<T>);

impl<T> Drop for ShutdownOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;
    use std::ops::Range;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// The one loop under seeded schedules: threads {1, 2, 4, 8} × a stop
    /// at the first, middle or last morsel, or none. Each morsel spins a
    /// seeded amount so the interleavings differ from cell to cell.
    #[test]
    fn serve_drains_once_and_stops_promptly() {
        const N: usize = 48;
        let mut rng = Rng64::seed_from_u64(0x5C4ED);
        for threads in [1usize, 2, 4, 8] {
            for stop in [None, Some(0), Some(N / 2), Some(N - 1)] {
                let spins: Vec<u32> = (0..N).map(|_| rng.gen_range(0..4000u32)).collect();
                let sched = FairScheduler::new();
                sched.register(0..N);
                let stopped = AtomicBool::new(false);
                let (started, late, drained) = (
                    AtomicUsize::new(0),
                    AtomicUsize::new(0),
                    AtomicUsize::new(0),
                );
                // Returning at all means the drained hook's shutdown woke
                // every parked worker.
                let metrics = scoped_map(threads, |_| {
                    let step = |&i: &usize| {
                        if stopped.load(Ordering::SeqCst) {
                            // Claimed before any revoke, started after the stop.
                            late.fetch_add(1, Ordering::SeqCst);
                            return false;
                        }
                        started.fetch_add(1, Ordering::SeqCst);
                        for _ in 0..spins[i] {
                            std::hint::spin_loop();
                        }
                        if Some(i) == stop {
                            stopped.store(true, Ordering::SeqCst);
                            return false;
                        }
                        true
                    };
                    let hook = |_| {
                        drained.fetch_add(1, Ordering::SeqCst);
                        sched.shutdown();
                    };
                    sched.serve(step, hook, &Trace::disabled(), None)
                });
                let what = format!("threads={threads} stop={stop:?}");
                let (started, late) = (started.into_inner(), late.into_inner());
                assert_eq!(drained.into_inner(), 1, "{what}");
                assert_eq!(sched.live_sources(), 0, "{what}: a claim never completed");
                let claimed: u64 = metrics
                    .iter()
                    .map(|b| b.get(Counter::MorselsExecuted))
                    .sum();
                assert_eq!(claimed as usize, started + late, "{what}");
                match stop {
                    None => assert_eq!((started, late), (N, 0), "{what}"),
                    // Each worker that started a morsel after the stop
                    // revoked the queue right after it: no further claims.
                    Some(_) => assert!(late < threads, "{what}: {late} late starts"),
                }
            }
        }
    }

    #[test]
    fn run_scoped_of_nothing_returns_at_once() {
        let out = run_scoped(
            Vec::<u32>::new(),
            4,
            |_| -> u32 { unreachable!("no worker may start") },
            |_, _| true,
            &Trace::disabled(),
            None,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn run_scoped_executes_every_morsel_exactly_once() {
        let sum = AtomicU64::new(0);
        let results = run_scoped(
            crate::pool::morsels(997, 4),
            4,
            |_wid| 0u64,
            |local, r: &Range<usize>| {
                *local += r.len() as u64;
                sum.fetch_add(r.clone().map(|x| x as u64).sum(), Ordering::Relaxed);
                true
            },
            &Trace::disabled(),
            None,
        );
        assert_eq!(results.len(), 4);
        let total_entries: u64 = results.iter().map(|(s, _)| *s).sum();
        assert_eq!(total_entries, 997);
        assert_eq!(sum.load(Ordering::Relaxed), (0..997u64).sum());
        let total_morsels: u64 = results
            .iter()
            .map(|(_, b)| b.get(Counter::MorselsExecuted))
            .sum();
        let expected = 997usize.div_ceil(crate::pool::morsel_size_for(997, 4)) as u64;
        assert_eq!(total_morsels, expected);
    }

    #[test]
    fn a_long_first_morsel_does_not_hold_back_the_queue() {
        // Every worker's first morsel waits until each of the four holds
        // one: a worker sitting on a long morsel leaves the queue to the
        // others.
        let first_morsels = Barrier::new(4);
        let results = run_scoped(
            0..64u32,
            4,
            |_| 0u64,
            |done, _| {
                if *done == 0 {
                    first_morsels.wait();
                }
                *done += 1;
                true
            },
            &Trace::disabled(),
            None,
        );
        assert_eq!(results.iter().map(|(done, _)| done).sum::<u64>(), 64);
        for (done, m) in &results {
            assert!(
                *done >= 1 && m.get(Counter::MorselsExecuted) == *done,
                "{done} vs {m:?}"
            );
        }
    }

    #[test]
    fn run_scoped_records_spans() {
        let trace = Trace::enabled();
        let root = trace.span("parallel");
        // Each worker's first morsel waits for the other's, so both take
        // part however the threads are scheduled.
        let first_morsels = Barrier::new(2);
        let results = run_scoped(
            0..8u32,
            2,
            |_| 0u64,
            |n, _| {
                if *n == 0 {
                    first_morsels.wait();
                }
                *n += 1;
                true
            },
            &trace,
            root.id(),
        );
        drop(root);
        assert_eq!(results.iter().map(|(n, _)| n).sum::<u64>(), 8);
        assert!(results
            .iter()
            .all(|(n, b)| *n >= 1 && b.get(Counter::MorselsExecuted) == *n));
        let snap = trace.snapshot();
        let workers = snap.spans.iter().filter(|s| s.name == "worker").count();
        let morsels = snap.spans.iter().filter(|s| s.name == "morsel").count();
        assert_eq!(workers, 2);
        assert_eq!(morsels, 8);
        assert!(snap.spans.iter().all(|s| s.closed()));
        // worker spans hang off the parallel root
        assert!(snap
            .spans
            .iter()
            .filter(|s| s.name == "worker")
            .all(|s| s.parent == Some(0)));
    }

    #[test]
    fn a_panicking_step_releases_the_parked_workers() {
        // One morsel, two workers: the one without it parks in `claim`
        // until the other's unwinding shuts the scheduler down, so the
        // panic reaches the caller instead of hanging the scope.
        let run = std::panic::catch_unwind(|| {
            let step = |_: &mut (), _: &u32| -> bool { panic!("step failed") };
            run_scoped(0..1u32, 2, |_| (), step, &Trace::disabled(), None)
        });
        assert!(run.is_err());
    }

    #[test]
    fn run_scoped_cancel_closes_every_span() {
        let trace = Trace::enabled();
        let out = run_scoped(vec![1u32, 2, 3], 1, |_| (), |_, _| false, &trace, None);
        // The first morsel stops the run and revokes the other two.
        assert_eq!(out[0].1.get(Counter::MorselsExecuted), 1);
        let snap = trace.snapshot();
        assert_eq!(snap.spans.iter().filter(|s| s.name == "morsel").count(), 1);
        assert!(snap.spans.iter().all(|s| s.closed()));
    }

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
