//! The pool view of a parallel run: one [`CounterBlock`] per worker, and
//! the pool-level totals read off them — morsels executed, busy/idle
//! wall-clock, scratch reuse. Scaling behavior should be observable in
//! the experiment tables, not guessed from total wall-clock.

use crate::trace::{Counter, CounterBlock};
use std::time::Duration;

/// Metrics of a whole parallel run: each worker's counter block, indexed
/// by worker id. The scheduler loop writes `morsels_executed`, `busy_ns`
/// and `idle_ns` into it, the engine runs the worker executed everything
/// else (`scratch_reuses` among them).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Per-worker counter blocks, indexed by worker id.
    pub workers: Vec<CounterBlock>,
}

impl PoolMetrics {
    fn total(&self, c: Counter) -> u64 {
        self.workers.iter().map(|w| w.get(c)).sum()
    }

    /// Total morsels executed across workers.
    pub fn total_morsels(&self) -> u64 {
        self.total(Counter::MorselsExecuted)
    }

    /// Always 0: every run draws its morsels from one shared queue, so
    /// there is nothing to steal. Kept only because the frozen benchmark
    /// (`benchmark/src/layers.rs`) reads it into `runtime.steals`.
    pub fn total_steals(&self) -> u64 {
        0
    }

    /// Total scratch-arena reuses across workers.
    pub fn total_scratch_reuse(&self) -> u64 {
        self.total(Counter::ScratchReuses)
    }

    /// Total time spent idle in `claim` across workers.
    pub fn total_idle(&self) -> Duration {
        Duration::from_nanos(self.total(Counter::IdleNs))
    }

    /// Fraction of worker wall-clock spent executing morsels
    /// (`busy / (busy + idle)`, summed over workers), in `[0, 1]`. 1.0
    /// for an empty pool.
    pub fn busy_fraction(&self) -> f64 {
        let busy = self.total(Counter::BusyNs) as f64;
        let total = busy + self.total(Counter::IdleNs) as f64;
        if total <= 0.0 {
            1.0
        } else {
            busy / total
        }
    }

    /// Per-worker rendering: `w0 m=5/r=4/idle=10.0ms …` — `idle` is the
    /// time the worker spent waiting in `claim`.
    pub fn per_worker(&self) -> String {
        self.workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                format!(
                    "w{i} m={}/r={}/idle={:.1}ms",
                    w.get(Counter::MorselsExecuted),
                    w.get(Counter::ScratchReuses),
                    w.get(Counter::IdleNs) as f64 / 1e6,
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(morsels: u64, busy_ms: u64, idle_ms: u64) -> CounterBlock {
        let mut b = CounterBlock::new();
        b.add(Counter::MorselsExecuted, morsels);
        b.add(Counter::BusyNs, busy_ms * 1_000_000);
        b.add(Counter::IdleNs, idle_ms * 1_000_000);
        b.add(Counter::ScratchReuses, morsels.saturating_sub(1));
        b
    }

    #[test]
    fn totals_and_busy_fraction() {
        let m = PoolMetrics {
            workers: vec![w(5, 30, 10), w(7, 40, 0)],
        };
        assert_eq!(m.total_morsels(), 12);
        assert_eq!(m.total_steals(), 0);
        let f = m.busy_fraction();
        assert!((f - 70.0 / 80.0).abs() < 1e-9, "{f}");
        assert_eq!(m.total_scratch_reuse(), 10);
        assert_eq!(m.total_idle(), Duration::from_millis(10));
        assert_eq!(
            m.per_worker(),
            "w0 m=5/r=4/idle=10.0ms w1 m=7/r=6/idle=0.0ms"
        );
    }

    #[test]
    fn empty_pool_is_fully_busy() {
        assert_eq!(PoolMetrics::default().busy_fraction(), 1.0);
    }

    /// Pools merge worker by worker through the block merge: the totals
    /// of the merged pool are the sums of the parts'.
    #[test]
    fn worker_blocks_merge_into_pool_totals() {
        let mut a = w(1, 5, 5); // r=0
        a.merge(&w(2, 10, 0)); // r=1
        let m = PoolMetrics { workers: vec![a] };
        assert_eq!(m.total_morsels(), 3);
        assert_eq!(m.total_scratch_reuse(), 1);
        assert_eq!(m.total_idle(), Duration::from_millis(5));
        assert!((m.busy_fraction() - 15.0 / 20.0).abs() < 1e-9);
    }
}
