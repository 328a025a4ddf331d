//! Rolling-window event counting: per-second buckets over the last
//! minute, so rates (q/s, embeddings/s, cache hit rate) are computable
//! from inside the process without an external scraper.
//!
//! Each slot is **one** `AtomicU64` packing `second << COUNT_BITS |
//! count`. Packing the slot's second next to its count makes
//! reset-on-rotate a single CAS: a recorder that finds a stale second in
//! its slot swaps in a fresh `(second, n)` word, so no reader ever sees
//! a half-reset slot and no background sweeper thread is needed. Counts
//! saturate at 2^40−1 per second — far above any realistic event rate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Seconds covered by the window.
pub const WINDOW_SECS: u64 = 60;

const COUNT_BITS: u64 = 40;
const COUNT_MASK: u64 = (1 << COUNT_BITS) - 1;

/// A 60-second rolling event counter.
pub struct RollingWindow {
    slots: [AtomicU64; WINDOW_SECS as usize],
    start: Instant,
}

impl Default for RollingWindow {
    fn default() -> Self {
        RollingWindow::new()
    }
}

impl RollingWindow {
    /// An empty window starting now.
    pub fn new() -> Self {
        RollingWindow::anchored(Instant::now())
    }

    /// An empty window whose clock starts at `start`. Windows sharing an
    /// anchor share second boundaries, so one [`RollingWindow::second`]
    /// read can feed [`RollingWindow::record_at`] on all of them.
    pub fn anchored(start: Instant) -> Self {
        RollingWindow {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
            start,
        }
    }

    /// The current second of this window's clock — pass it to
    /// [`RollingWindow::record_at`] to batch several window records
    /// against a single clock read.
    pub fn second(&self) -> u64 {
        // Seconds start at 1 so second 0 ("never written") is distinct
        // from a slot legitimately written in the first second.
        self.start.elapsed().as_secs() + 1
    }

    /// Count `n` events now.
    #[inline]
    pub fn record(&self, n: u64) {
        self.record_at(self.second(), n);
    }

    /// Events counted over the last [`WINDOW_SECS`] seconds.
    pub fn total(&self) -> u64 {
        self.total_at(self.second())
    }

    /// Mean events/second over the window. Divides by the elapsed
    /// lifetime while the window is still filling, so early rates are
    /// not diluted by seconds that never existed.
    pub fn rate(&self) -> f64 {
        let second = self.second();
        self.total_at(second) as f64 / second.clamp(1, WINDOW_SECS) as f64
    }

    /// Count `n` events at an explicit `second` (from
    /// [`RollingWindow::second`] of a window sharing this anchor).
    pub fn record_at(&self, second: u64, n: u64) {
        let slot = &self.slots[(second % WINDOW_SECS) as usize];
        let mut cur = slot.load(Ordering::Relaxed);
        loop {
            let next = if cur >> COUNT_BITS == second {
                // Same second: bump the packed count (saturating).
                (second << COUNT_BITS) | (cur & COUNT_MASK).saturating_add(n).min(COUNT_MASK)
            } else {
                // Slot holds an expired second: replace wholesale.
                (second << COUNT_BITS) | n.min(COUNT_MASK)
            };
            match slot.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub(crate) fn total_at(&self, second: u64) -> u64 {
        let oldest = second.saturating_sub(WINDOW_SECS - 1);
        self.slots
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .filter(|v| {
                let sec = v >> COUNT_BITS;
                sec >= oldest && sec <= second
            })
            .map(|v| v & COUNT_MASK)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_within_window() {
        let w = RollingWindow::new();
        w.record_at(1, 5);
        w.record_at(1, 2);
        w.record_at(30, 3);
        assert_eq!(w.total_at(30), 10);
    }

    #[test]
    fn expires_old_seconds() {
        let w = RollingWindow::new();
        w.record_at(1, 100);
        w.record_at(70, 1);
        // Second 1 is outside [11, 70].
        assert_eq!(w.total_at(70), 1);
        // A slot reused for a new second forgets the old count.
        w.record_at(1 + WINDOW_SECS, 4);
        assert_eq!(w.total_at(70), 5);
    }

    #[test]
    fn slot_reuse_replaces_stale_count() {
        let w = RollingWindow::new();
        w.record_at(2, 9);
        w.record_at(2 + WINDOW_SECS, 1); // same slot, later second
        assert_eq!(w.total_at(2 + WINDOW_SECS), 1);
    }

    #[test]
    fn live_clock_path_works() {
        let w = RollingWindow::new();
        w.record(3);
        w.record(4);
        assert_eq!(w.total(), 7);
        assert!(w.rate() >= 7.0); // elapsed < 1s ⇒ divisor is 1
    }

    #[test]
    fn rate_uses_elapsed_while_filling() {
        let w = RollingWindow::new();
        w.record_at(2, 10);
        assert_eq!(w.total_at(2), 10);
        // At second 2 the window has existed 2s: rate = 5/s, not 10/60.
        let second = 2u64;
        let rate = w.total_at(second) as f64 / second.clamp(1, WINDOW_SECS) as f64;
        assert_eq!(rate, 5.0);
    }

    #[test]
    fn concurrent_records_all_land() {
        let w = std::sync::Arc::new(RollingWindow::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let w = w.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        w.record_at(5, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(w.total_at(5), 40_000);
    }
}
