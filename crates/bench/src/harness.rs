//! Query-set evaluation: run one pipeline over a set of queries
//! (optionally across threads) and aggregate the paper's metrics.

use sm_graph::Graph;
use sm_match::{DataContext, MatchConfig, MatchOutput, Outcome, Pipeline};
use std::time::Duration;

/// Per-query outcome retained for aggregation.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Plan-build time (filter + build + order): everything before the
    /// executor starts enumerating.
    pub plan_build: Duration,
    /// Enumeration time. For unsolved queries this is clamped to the time
    /// limit, as the paper does for its averages.
    pub enumeration: Duration,
    /// Matches found.
    pub matches: u64,
    /// Why the run ended.
    pub outcome: Outcome,
    /// Average candidate count.
    pub candidate_avg: f64,
    /// Auxiliary structure bytes.
    pub space_memory: usize,
}

impl QueryResult {
    fn from_output(out: &MatchOutput, limit: Option<Duration>) -> Self {
        let unsolved = out.unsolved();
        let enumeration = if unsolved {
            limit.unwrap_or(out.enum_time)
        } else {
            out.enum_time
        };
        QueryResult {
            plan_build: out.plan_build_time(),
            enumeration,
            matches: out.matches,
            outcome: out.outcome,
            candidate_avg: out.candidate_avg,
            space_memory: out.space_memory,
        }
    }

    /// Killed by the time limit.
    pub fn unsolved(&self) -> bool {
        self.outcome == Outcome::TimedOut
    }
}

/// Aggregated metrics over one query set (the paper's reporting unit).
#[derive(Clone, Debug)]
pub struct SetSummary {
    /// Per-query results, in query order.
    pub results: Vec<QueryResult>,
}

impl SetSummary {
    /// Mean plan-build time in ms (the paper's "preprocessing time").
    pub fn avg_plan_build_ms(&self) -> f64 {
        mean(
            self.results
                .iter()
                .map(|r| r.plan_build.as_secs_f64() * 1e3),
        )
    }

    /// Mean enumeration time in ms (unsolved clamped to the limit).
    pub fn avg_enum_ms(&self) -> f64 {
        mean(
            self.results
                .iter()
                .map(|r| r.enumeration.as_secs_f64() * 1e3),
        )
    }

    /// Standard deviation of the enumeration time in ms (Figure 12).
    pub fn sd_enum_ms(&self) -> f64 {
        let xs: Vec<f64> = self
            .results
            .iter()
            .map(|r| r.enumeration.as_secs_f64() * 1e3)
            .collect();
        if xs.len() < 2 {
            return 0.0;
        }
        let m = mean(xs.iter().copied());
        (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
    }

    /// Number of unsolved (killed) queries.
    pub fn unsolved(&self) -> usize {
        self.results.iter().filter(|r| r.unsolved()).count()
    }

    /// Mean candidate count (Figure 8).
    pub fn avg_candidates(&self) -> f64 {
        mean(self.results.iter().map(|r| r.candidate_avg))
    }

    /// Mean number of matches among solved queries (Figure 17's result
    /// count), `None` if more than half the queries are unsolved — the
    /// paper discards such points.
    pub fn avg_matches_if_mostly_solved(&self) -> Option<f64> {
        if self.results.is_empty() || self.unsolved() * 2 > self.results.len() {
            return None;
        }
        let solved: Vec<f64> = self
            .results
            .iter()
            .filter(|r| !r.unsolved())
            .map(|r| r.matches as f64)
            .collect();
        (!solved.is_empty()).then(|| mean(solved.iter().copied()))
    }

    /// Buckets for Figure 13: fraction of queries with enumeration time in
    /// `[0, t1)`, `[t1, t2)`, `[t2, limit)`, and unsolved.
    pub fn time_buckets(&self, t1: Duration, t2: Duration) -> [f64; 4] {
        let n = self.results.len().max(1) as f64;
        let mut b = [0.0f64; 4];
        for r in &self.results {
            let idx = if r.unsolved() {
                3
            } else if r.enumeration < t1 {
                0
            } else if r.enumeration < t2 {
                1
            } else {
                2
            };
            b[idx] += 1.0;
        }
        b.iter_mut().for_each(|x| *x /= n);
        b
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut s, mut n) = (0.0, 0usize);
    for x in xs {
        s += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        s / n as f64
    }
}

/// Evaluate `pipeline` over `queries`, optionally across `threads`
/// (timings are per-query wall clock; use 1 thread for clean numbers).
pub fn eval_query_set(
    pipeline: &Pipeline,
    queries: &[Graph],
    g: &DataContext<'_>,
    config: &MatchConfig,
    threads: usize,
) -> SetSummary {
    let limit = config.time_limit;
    if threads <= 1 || queries.len() <= 1 {
        let results = queries
            .iter()
            .map(|q| QueryResult::from_output(&pipeline.run(q, g, config), limit))
            .collect();
        return SetSummary { results };
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let per_worker = sm_runtime::pool::scoped_map(threads.min(queries.len()), |_wid| {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if i >= queries.len() {
                break;
            }
            let r = QueryResult::from_output(&pipeline.run(&queries[i], g, config), limit);
            mine.push((i, r));
        }
        mine
    });
    let mut slots: Vec<Option<QueryResult>> = vec![None; queries.len()];
    for (i, r) in per_worker.into_iter().flatten() {
        slots[i] = Some(r);
    }
    SetSummary {
        results: slots
            .into_iter()
            .map(|r| r.expect("all slots filled"))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_match::fixtures::{paper_data, paper_query};
    use sm_match::{Algorithm, DataContext};

    #[test]
    fn eval_sequential_and_parallel_agree_on_counts() {
        let g = paper_data();
        let gc = DataContext::new(&g);
        let queries: Vec<_> = (0..6).map(|_| paper_query()).collect();
        let p = Algorithm::GraphQl.optimized();
        let cfg = MatchConfig::default();
        let seq = eval_query_set(&p, &queries, &gc, &cfg, 1);
        let par = eval_query_set(&p, &queries, &gc, &cfg, 3);
        assert_eq!(seq.results.len(), 6);
        for (a, b) in seq.results.iter().zip(&par.results) {
            assert_eq!(a.matches, b.matches);
        }
        assert_eq!(seq.unsolved(), 0);
        assert!(seq.avg_candidates() > 0.0);
    }

    fn outcome(unsolved: bool) -> Outcome {
        if unsolved {
            Outcome::TimedOut
        } else {
            Outcome::Complete
        }
    }

    #[test]
    fn summary_math() {
        let mk = |ms: u64, unsolved: bool| QueryResult {
            plan_build: Duration::from_millis(1),
            enumeration: Duration::from_millis(ms),
            matches: 1,
            outcome: outcome(unsolved),
            candidate_avg: 2.0,
            space_memory: 0,
        };
        let s = SetSummary {
            results: vec![mk(10, false), mk(30, false), mk(1000, true)],
        };
        assert!((s.avg_enum_ms() - (10.0 + 30.0 + 1000.0) / 3.0).abs() < 1e-9);
        assert_eq!(s.unsolved(), 1);
        let b = s.time_buckets(Duration::from_millis(20), Duration::from_millis(100));
        assert!((b[0] - 1.0 / 3.0).abs() < 1e-9);
        assert!((b[1] - 1.0 / 3.0).abs() < 1e-9);
        assert!((b[2] - 0.0).abs() < 1e-9);
        assert!((b[3] - 1.0 / 3.0).abs() < 1e-9);
        assert!(s.sd_enum_ms() > 0.0);
        // 1/3 unsolved → still reports mean matches of solved
        assert!(s.avg_matches_if_mostly_solved().is_some());
    }

    #[test]
    fn mostly_unsolved_discarded() {
        let mk = |unsolved: bool| QueryResult {
            plan_build: Duration::ZERO,
            enumeration: Duration::from_millis(1),
            matches: 5,
            outcome: outcome(unsolved),
            candidate_avg: 0.0,
            space_memory: 0,
        };
        let s = SetSummary {
            results: vec![mk(true), mk(true), mk(false)],
        };
        assert!(s.avg_matches_if_mostly_solved().is_none());
    }
}
