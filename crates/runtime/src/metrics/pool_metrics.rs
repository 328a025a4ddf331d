//! Per-worker execution counters for parallel runs: morsels executed,
//! busy/idle wall-clock, scratch reuse. Scaling behavior should be
//! observable in the experiment tables, not guessed from total wall-clock.

use std::time::Duration;

/// Counters of one worker of a [`crate::sched::FairScheduler::serve`]
/// loop.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerMetrics {
    /// Morsels this worker executed.
    pub morsels: u64,
    /// Time spent executing morsels.
    pub busy: Duration,
    /// Time spent waiting in `claim` for a morsel (or for the shutdown
    /// that ends the run).
    pub idle: Duration,
    /// Runs for which this worker's scratch arena was already shaped and
    /// no allocation happened (filled in by the execution layer; the loop
    /// itself leaves it 0).
    pub scratch_reuse: u64,
}

impl WorkerMetrics {
    /// Merge another worker's counters into this one.
    pub fn merge(&mut self, other: &WorkerMetrics) {
        self.morsels += other.morsels;
        self.busy += other.busy;
        self.idle += other.idle;
        self.scratch_reuse += other.scratch_reuse;
    }
}

/// Metrics of a whole parallel run: one entry per worker.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerMetrics>,
}

impl PoolMetrics {
    /// Total morsels executed across workers.
    pub fn total_morsels(&self) -> u64 {
        self.workers.iter().map(|w| w.morsels).sum()
    }

    /// Always 0: every run draws its morsels from one shared queue, so
    /// there is nothing to steal. Kept only because the frozen benchmark
    /// (`benchmark/src/layers.rs`) reads it into `runtime.steals`.
    pub fn total_steals(&self) -> u64 {
        0
    }

    /// Total scratch-arena reuses across workers.
    pub fn total_scratch_reuse(&self) -> u64 {
        self.workers.iter().map(|w| w.scratch_reuse).sum()
    }

    /// Total time spent idle in `claim` across workers.
    pub fn total_idle(&self) -> Duration {
        self.workers.iter().map(|w| w.idle).sum()
    }

    /// Mean fraction of worker wall-clock spent executing morsels
    /// (`busy / (busy + idle)`), in `[0, 1]`. 1.0 for an empty pool.
    pub fn busy_fraction(&self) -> f64 {
        if self.workers.is_empty() {
            return 1.0;
        }
        let (busy, total) = self.workers.iter().fold((0.0, 0.0), |(b, t), w| {
            (
                b + w.busy.as_secs_f64(),
                t + w.busy.as_secs_f64() + w.idle.as_secs_f64(),
            )
        });
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
                    w.morsels,
                    w.scratch_reuse,
                    w.idle.as_secs_f64() * 1e3,
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(morsels: u64, busy_ms: u64, idle_ms: u64) -> WorkerMetrics {
        WorkerMetrics {
            morsels,
            busy: Duration::from_millis(busy_ms),
            idle: Duration::from_millis(idle_ms),
            scratch_reuse: morsels.saturating_sub(1),
        }
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

    #[test]
    fn merge_accumulates() {
        let mut a = w(1, 5, 5); // r=0
        a.merge(&w(2, 10, 0)); // r=1
        let expected = WorkerMetrics {
            scratch_reuse: 1,
            ..w(3, 15, 5)
        };
        assert_eq!(a, expected);
    }
}
