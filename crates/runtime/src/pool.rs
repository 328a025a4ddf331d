//! Morsel-driven work distribution with work stealing (after Leis et al.,
//! "Morsel-Driven Parallelism", SIGMOD 2014), built on `std::thread::scope`
//! — no external crates, no unsafe.
//!
//! The unit of work is a *morsel*: a small contiguous chunk of a task
//! list (for subgraph enumeration, a chunk of the depth-0 root
//! candidates). Morsels are dealt round-robin into per-worker queues;
//! each worker drains its own queue front-to-back and, when empty,
//! *steals* a morsel from the back of the richest other queue. Under the
//! skewed subtree sizes of power-law graphs this keeps every worker busy
//! until the global work list is exhausted — the dynamic balancing a
//! static root partition cannot provide.
//!
//! Morsel-size policy: [`morsel_size_for`] targets at least
//! [`MORSELS_PER_WORKER`] morsels per worker (so there is enough slack to
//! steal) and caps morsels at [`MAX_MORSEL`] entries (so one hub-rooted
//! morsel cannot dominate a run), with a floor of one entry.

use crate::metrics::WorkerMetrics;
use crate::trace::{EventKind, EventRing, Trace};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

/// Minimum morsels dealt per worker (steal slack).
pub const MORSELS_PER_WORKER: usize = 8;

/// Maximum entries per morsel.
pub const MAX_MORSEL: usize = 64;

/// The morsel size for `n` work items across `threads` workers:
/// `clamp(n / (threads · MORSELS_PER_WORKER), 1, MAX_MORSEL)`.
pub fn morsel_size_for(n: usize, threads: usize) -> usize {
    (n / (threads.max(1) * MORSELS_PER_WORKER)).clamp(1, MAX_MORSEL)
}

/// Split `0..n` into contiguous morsels of [`morsel_size_for`] entries,
/// dealt round-robin across `threads` queues (round-robin decorrelates
/// queue load when expensive roots cluster, e.g. low-id hubs in RMAT).
pub fn deal_morsels(n: usize, threads: usize) -> Vec<Vec<Range<usize>>> {
    let threads = threads.max(1);
    let size = morsel_size_for(n, threads);
    let mut queues: Vec<Vec<Range<usize>>> = vec![Vec::new(); threads];
    let mut start = 0usize;
    let mut k = 0usize;
    while start < n {
        let end = (start + size).min(n);
        queues[k % threads].push(start..end);
        start = end;
        k += 1;
    }
    queues
}

/// How a morsel was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Popped<T> {
    /// From the worker's own queue.
    Local(T),
    /// Stolen from another worker's queue.
    Stolen(T),
}

/// A fixed set of per-worker morsel queues with stealing. Work only ever
/// leaves the queues (nothing is pushed after construction), so a pop
/// returning `None` after a full scan means the run is drained.
pub struct MorselQueue<T> {
    queues: Vec<Mutex<VecDeque<T>>>,
}

impl<T> MorselQueue<T> {
    /// Build from one pre-dealt queue per worker.
    pub fn new(queues: Vec<Vec<T>>) -> Self {
        MorselQueue {
            queues: queues
                .into_iter()
                .map(|q| Mutex::new(q.into_iter().collect()))
                .collect(),
        }
    }

    /// Number of worker queues.
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Pop the next morsel for `worker`: own queue front first, then the
    /// back of the currently richest other queue. `None` = all queues
    /// empty.
    pub fn pop(&self, worker: usize) -> Option<Popped<T>> {
        if let Some(t) = self.queues[worker].lock().unwrap().pop_front() {
            return Some(Popped::Local(t));
        }
        loop {
            // Pick the victim with the most queued morsels.
            let mut victim = None;
            let mut best = 0usize;
            for (i, q) in self.queues.iter().enumerate() {
                if i == worker {
                    continue;
                }
                let len = q.lock().unwrap().len();
                if len > best {
                    best = len;
                    victim = Some(i);
                }
            }
            let v = victim?;
            // The victim may have been drained between the scan and the
            // lock; rescan rather than give up.
            if let Some(t) = self.queues[v].lock().unwrap().pop_back() {
                return Some(Popped::Stolen(t));
            }
        }
    }

    /// Run the full pool to completion: one scoped worker per queue. Each
    /// worker builds its state with `init(worker_id)`, then executes
    /// morsels via `step` (returning `false` stops that worker early, e.g.
    /// on cancellation). Returns each worker's final state and metrics,
    /// indexed by worker id.
    pub fn run<S, I, F>(&self, init: I, step: F) -> Vec<(S, WorkerMetrics)>
    where
        T: Send,
        S: Send,
        I: Fn(usize) -> S + Sync,
        F: Fn(usize, &mut S, T) -> bool + Sync,
    {
        self.run_traced(init, step, &Trace::disabled(), None)
    }

    /// [`MorselQueue::run`] with tracing: each worker opens a span under
    /// `parent`, wraps every morsel in a `morsel` span, and logs
    /// morsel-start/finish, steal and early-stop events into a private
    /// ring flushed when the worker exits (including on cancellation).
    /// With a disabled trace this is exactly `run` — every trace touch is
    /// one branch.
    pub fn run_traced<S, I, F>(
        &self,
        init: I,
        step: F,
        trace: &Trace,
        parent: Option<u32>,
    ) -> Vec<(S, WorkerMetrics)>
    where
        T: Send,
        S: Send,
        I: Fn(usize) -> S + Sync,
        F: Fn(usize, &mut S, T) -> bool + Sync,
    {
        let threads = self.workers();
        scoped_map(threads, |wid| {
            let worker_span = trace
                .is_enabled()
                .then(|| trace.span_under(parent, "worker"));
            let mut ring = EventRing::default();
            let mut state = init(wid);
            let mut metrics = WorkerMetrics::default();
            let mut seq = 0u64;
            loop {
                let waiting = Instant::now();
                let popped = self.pop(wid);
                let wait = waiting.elapsed();
                metrics.idle += wait;
                let (morsel, stolen) = match popped {
                    Some(Popped::Local(t)) => (t, false),
                    Some(Popped::Stolen(t)) => (t, true),
                    None => break,
                };
                metrics.morsels += 1;
                if stolen {
                    metrics.steals += 1;
                    metrics.steal_wait += wait;
                }
                if trace.is_enabled() {
                    if stolen {
                        ring.push(trace.now_ns(), EventKind::Steal, seq);
                    }
                    ring.push(trace.now_ns(), EventKind::MorselStart, seq);
                }
                let working = Instant::now();
                let keep_going = {
                    let _morsel_span = trace.is_enabled().then(|| trace.span("morsel"));
                    step(wid, &mut state, morsel)
                };
                metrics.busy += working.elapsed();
                if trace.is_enabled() {
                    ring.push(trace.now_ns(), EventKind::MorselFinish, seq);
                }
                seq += 1;
                if !keep_going {
                    if trace.is_enabled() {
                        ring.push(trace.now_ns(), EventKind::Cancel, 0);
                        trace.mark_cancelled();
                    }
                    break;
                }
            }
            trace.flush_ring(wid, &ring);
            drop(worker_span);
            (state, metrics)
        })
    }
}

/// Run `f(0..threads)` on scoped OS threads and collect the results in
/// worker order. The replacement for `crossbeam::scope` everywhere in the
/// workspace.
pub fn scoped_map<R, F>(threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 {
        return vec![f(0)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let f = &f;
                scope.spawn(move || f(i))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn morsel_size_policy() {
        // small inputs: one entry per morsel
        assert_eq!(morsel_size_for(4, 4), 1);
        // mid-size: n / (threads * 8)
        assert_eq!(morsel_size_for(6400, 4), 200.min(MAX_MORSEL));
        // capped at MAX_MORSEL
        assert_eq!(morsel_size_for(1_000_000, 2), MAX_MORSEL);
        // degenerate thread count
        assert_eq!(morsel_size_for(100, 0), 100 / MORSELS_PER_WORKER);
    }

    #[test]
    fn deal_covers_everything_once() {
        let queues = deal_morsels(1000, 3);
        assert_eq!(queues.len(), 3);
        let mut covered = vec![false; 1000];
        for q in &queues {
            for r in q {
                for i in r.clone() {
                    assert!(!covered[i], "entry {i} dealt twice");
                    covered[i] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c));
        // round-robin keeps queue sizes within one morsel of each other
        let sizes: Vec<usize> = queues.iter().map(|q| q.len()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn deal_empty_input() {
        let queues = deal_morsels(0, 4);
        assert!(queues.iter().all(|q| q.is_empty()));
    }

    #[test]
    fn pop_drains_own_then_steals() {
        let q = MorselQueue::new(vec![vec![1, 2], vec![10, 11, 12]]);
        assert_eq!(q.pop(0), Some(Popped::Local(1)));
        assert_eq!(q.pop(0), Some(Popped::Local(2)));
        // own queue empty: steal from the back of the richer queue
        assert_eq!(q.pop(0), Some(Popped::Stolen(12)));
        assert_eq!(q.pop(1), Some(Popped::Local(10)));
        assert_eq!(q.pop(1), Some(Popped::Local(11)));
        assert_eq!(q.pop(0), None);
        assert_eq!(q.pop(1), None);
    }

    #[test]
    fn run_executes_every_morsel_exactly_once() {
        let queues = deal_morsels(997, 4);
        let q = MorselQueue::new(queues);
        let sum = AtomicU64::new(0);
        let results = q.run(
            |_wid| 0u64,
            |_wid, local, r: Range<usize>| {
                *local += r.len() as u64;
                sum.fetch_add(r.clone().map(|x| x as u64).sum(), Ordering::Relaxed);
                true
            },
        );
        assert_eq!(results.len(), 4);
        let total_entries: u64 = results.iter().map(|(s, _)| *s).sum();
        assert_eq!(total_entries, 997);
        assert_eq!(sum.load(Ordering::Relaxed), (0..997u64).sum());
        let total_morsels: u64 = results.iter().map(|(_, m)| m.morsels).sum();
        let expected = 997usize.div_ceil(morsel_size_for(997, 4)) as u64;
        assert_eq!(total_morsels, expected);
    }

    #[test]
    fn skew_produces_steals() {
        // All the work in worker 0's queue: the other workers must steal.
        // Worker 0 holds its first morsel until each of them has one.
        let q = MorselQueue::new(vec![(0..64).collect::<Vec<u32>>(), vec![], vec![], vec![]]);
        let first_morsels = std::sync::Barrier::new(4);
        let results = q.run(
            |_| 0u64,
            |_, local, _m| {
                if *local == 0 {
                    first_morsels.wait();
                }
                *local += 1;
                true
            },
        );
        let done: u64 = results.iter().map(|(s, _)| *s).sum();
        assert_eq!(done, 64);
        for (done, m) in &results[1..] {
            assert!(
                *done >= 1 && m.steals == *done,
                "no steals despite maximal skew"
            );
        }
    }

    #[test]
    fn early_stop_halts_one_worker() {
        let q = MorselQueue::new(vec![vec![1, 2, 3], vec![]]);
        let results = q.run(
            |_| 0u32,
            |_, n, _| {
                *n += 1;
                false // every worker stops after one morsel
            },
        );
        let executed: u32 = results.iter().map(|(s, _)| *s).sum();
        assert!(executed <= 2, "{executed}"); // at most one morsel per worker
    }

    #[test]
    fn run_traced_records_spans_and_events() {
        let trace = Trace::enabled();
        let root = trace.span("parallel");
        let q = MorselQueue::new(vec![(0..8).collect::<Vec<u32>>(), vec![]]);
        // Each worker's first morsel waits for the other's: worker 0 sits
        // on seven queued morsels until worker 1, whose own queue is empty,
        // has stolen one.
        let first_morsels = std::sync::Barrier::new(2);
        let results = q.run_traced(
            |_| 0u64,
            |_, n, _m| {
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
        let done: u64 = results.iter().map(|(s, _)| *s).sum();
        assert_eq!(done, 8);
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
        // every executed morsel logged a start and a finish
        let starts: u64 = snap
            .events
            .iter()
            .flat_map(|w| &w.tail)
            .filter(|e| e.kind == EventKind::MorselStart)
            .count() as u64;
        assert_eq!(starts, 8);
        // worker 1 ran only stolen morsels, worker 0 only its own, and
        // steal_wait is accounted within idle
        assert!(results[1].0 >= 1);
        assert_eq!(results[1].1.steals, results[1].0);
        assert_eq!(results[0].1.steals, 0);
        for (_, m) in &results {
            assert!(m.steal_wait <= m.idle);
            if m.steals == 0 {
                assert_eq!(m.steal_wait, std::time::Duration::ZERO);
            }
        }
        assert!(!trace.was_cancelled());
    }

    #[test]
    fn run_traced_cancel_flushes_ring() {
        let trace = Trace::enabled();
        let q = MorselQueue::new(vec![vec![1u32, 2, 3]]);
        let _ = q.run_traced(|_| (), |_, _, _| false, &trace, None);
        assert!(trace.was_cancelled());
        let snap = trace.snapshot();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].tail.last().unwrap().kind, EventKind::Cancel);
        assert!(snap.spans.iter().all(|s| s.closed()));
    }

    #[test]
    fn scoped_map_orders_results() {
        let out = scoped_map(5, |i| i * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
        assert_eq!(scoped_map(1, |i| i), vec![0]);
    }
}
