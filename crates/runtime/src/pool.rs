//! Morsel chunking and scoped worker threads — `std` only, no unsafe.
//!
//! The unit of parallel work is a *morsel*: a small contiguous chunk of a
//! task list (for subgraph enumeration, a position range over the depth-0
//! root candidates; for incremental maintenance, a range of (delta edge ×
//! seed program) units). [`morsels`] cuts `0..n` into such chunks, and
//! [`crate::sched::FairScheduler`] hands them out — to the service's
//! long-lived workers and to the scoped workers of one run
//! ([`crate::sched::run_scoped`]) alike.
//!
//! Morsel-size policy: [`morsel_size_for`] targets at least
//! [`MORSELS_PER_WORKER`] morsels per worker (so a worker that draws a
//! cheap morsel finds more queued work while a hub-rooted one runs) and
//! caps morsels at [`MAX_MORSEL`] entries (so one hub-rooted morsel cannot
//! dominate a run), with a floor of one entry.

use std::ops::Range;

/// Minimum morsels per worker (balancing slack).
pub const MORSELS_PER_WORKER: usize = 8;

/// Maximum entries per morsel.
pub const MAX_MORSEL: usize = 64;

/// The morsel size for `n` work items across `threads` workers:
/// `clamp(n / (threads · MORSELS_PER_WORKER), 1, MAX_MORSEL)`.
pub fn morsel_size_for(n: usize, threads: usize) -> usize {
    (n / (threads.max(1) * MORSELS_PER_WORKER)).clamp(1, MAX_MORSEL)
}

/// `0..n` cut into contiguous morsels of [`morsel_size_for`] entries, in
/// order; empty for `n = 0`.
pub fn morsels(n: usize, threads: usize) -> impl Iterator<Item = Range<usize>> {
    let size = morsel_size_for(n, threads);
    (0..n)
        .step_by(size)
        .map(move |start| start..(start + size).min(n))
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
    fn morsels_cover_everything_once_in_order() {
        let chunks: Vec<Range<usize>> = morsels(1000, 3).collect();
        let size = morsel_size_for(1000, 3);
        assert_eq!(chunks.len(), 1000usize.div_ceil(size));
        let mut next = 0;
        for r in &chunks {
            assert_eq!(r.start, next, "gap or overlap at {next}");
            assert!(!r.is_empty() && r.len() <= size);
            next = r.end;
        }
        assert_eq!(next, 1000);
    }

    #[test]
    fn morsels_of_empty_input() {
        assert_eq!(morsels(0, 4).count(), 0);
    }

    #[test]
    fn scoped_map_orders_results() {
        let out = scoped_map(5, |i| i * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
        assert_eq!(scoped_map(1, |i| i), vec![0]);
    }
}
