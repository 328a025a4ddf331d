//! [`Executor`]: runs a compiled [`QueryPlan`] against a data graph.
//!
//! The executor is the entry point for whole-plan execution — sequential
//! or intra-query parallel — of any plan: which instantiation of the one
//! engine loop runs (static or adaptive order, failing sets on or off) is
//! read off the plan by the engine itself, so nothing here forks on it.
//! The plan is borrowed immutably: one plan can back any number of
//! executions, and all workers of a parallel run share it by reference.

use crate::enumerate::engine::{enumerate_with, EngineInput};
use crate::enumerate::parallel::{enumerate_parallel, ParallelStrategy};
use crate::enumerate::scratch::Scratch;
use crate::enumerate::{EnumStats, MatchSink, Outcome, SampleSink, Termination};
use crate::plan::QueryPlan;
use sm_graph::{Graph, VertexId};
use sm_runtime::{Counter, CounterBlock};

/// Executes a [`QueryPlan`] against one data graph.
pub struct Executor<'a> {
    plan: &'a QueryPlan,
    g: &'a Graph,
}

impl<'a> Executor<'a> {
    /// An executor for `plan` over `g`.
    pub fn new(plan: &'a QueryPlan, g: &'a Graph) -> Self {
        Executor { plan, g }
    }

    /// The plan this executor runs.
    pub fn plan(&self) -> &'a QueryPlan {
        self.plan
    }

    /// Sequential execution with a fresh scratch arena.
    pub fn run<S: MatchSink>(&self, sink: &mut S) -> EnumStats {
        let mut scratch = Scratch::new();
        self.run_with_scratch(&mut scratch, sink)
    }

    /// Sequential execution reusing a caller-owned [`Scratch`] — repeated
    /// executions of same-shaped plans allocate nothing.
    pub fn run_with_scratch<S: MatchSink>(&self, scratch: &mut Scratch, sink: &mut S) -> EnumStats {
        let trace = self.plan.config.trace.clone();
        let span = trace.is_enabled().then(|| trace.span("execute"));
        let mut stats = enumerate_with(&EngineInput::new(self.plan, self.g), scratch, sink);
        stats.counters.merge(&self.run_tally(&stats));
        trace.flush_counters(0, &stats.counters);
        drop(span);
        stats
    }

    /// Parallel execution across `threads` workers, each with its own
    /// sink (`S::default()`) and scratch arena, all sharing the plan
    /// immutably: `C(root)` is cut into position ranges, one engine run
    /// per range. `threads <= 1` is a sequential run of the *same* plan;
    /// the plan is never rebuilt. `ParallelStrategy` has one value; the
    /// parameter stays for existing callers.
    pub fn run_parallel<S: MatchSink + Default + Send>(
        &self,
        threads: usize,
        _strategy: ParallelStrategy,
    ) -> (EnumStats, Vec<S>) {
        if threads <= 1 {
            let mut sink = S::default();
            let stats = self.run(&mut sink);
            return (stats, vec![sink]);
        }
        let (mut stats, sinks) = enumerate_parallel(&EngineInput::new(self.plan, self.g), threads);
        // The workers flushed their own blocks; the run-level tally follows
        // as worker 0's, so the trace sums to `stats.counters`.
        let tally = self.run_tally(&stats);
        stats.counters.merge(&tally);
        self.plan.config.trace.flush_counters(0, &tally);
        (stats, sinks)
    }

    /// The per-run counters no engine invocation can tell on its own (a
    /// parallel run is many of them): a count-only run, and a top-k run
    /// that stopped at its `k`.
    fn run_tally(&self, stats: &EnumStats) -> CounterBlock {
        let mut tally = CounterBlock::new();
        let sem = self.plan.config.semantics;
        if !sem.emits() {
            tally.bump(Counter::CountOnlyRuns);
        }
        if let Termination::TopK(k) = sem.termination {
            if stats.matches == k && stats.outcome == Outcome::CapReached {
                tally.bump(Counter::TopkEarlyExits);
            }
        }
        tally
    }

    /// Execute a plan whose termination is [`Termination::SampleK`]:
    /// enumerates to exhaustion (uniformity requires seeing every match)
    /// while reservoir-sampling the stream, and returns the sampled
    /// embeddings alongside the stats. Deterministic per the semantics'
    /// seed; sequential by construction — per-worker reservoirs would not
    /// be a uniform sample of the union.
    ///
    /// Panics if the plan's termination is not `SampleK`.
    pub fn run_sample(&self) -> (EnumStats, Vec<Vec<VertexId>>) {
        let Termination::SampleK(k, seed) = self.plan.config.semantics.termination else {
            panic!("run_sample requires SampleK termination semantics");
        };
        let mut sink = SampleSink::new(k, seed);
        let stats = self.run(&mut sink);
        (stats, sink.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{CountSink, LcMethod, MatchConfig};
    use crate::fixtures::{paper_data, paper_query};
    use crate::plan::QueryPlan;
    use crate::{DataContext, QueryContext};

    fn plan_and_graph() -> (QueryPlan, sm_graph::Graph) {
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let cand = crate::filter::ldf::ldf_candidates(&qc, &gc);
        let plan = QueryPlan::assemble(
            &q,
            cand,
            vec![0, 1, 2, 3],
            None,
            None,
            LcMethod::CandidateScan,
            MatchConfig::default(),
            false,
        );
        (plan, g)
    }

    #[test]
    fn one_plan_many_executions() {
        let (plan, g) = plan_and_graph();
        let exec = Executor::new(&plan, &g);
        let mut scratch = Scratch::new();
        for round in 0u64..3 {
            let mut sink = CountSink;
            let stats = exec.run_with_scratch(&mut scratch, &mut sink);
            assert_eq!(stats.matches, 1);
            // This run's reuse, not the scratch's lifetime total: every
            // run after the first finds the arena shaped.
            assert_eq!(
                stats.counters.get(Counter::ScratchReuses),
                (round > 0) as u64
            );
        }
        // Parallel execution of the very same plan agrees.
        let (par, _sinks) = exec.run_parallel::<CountSink>(4, ParallelStrategy::Morsel);
        assert_eq!(par.matches, 1);
    }
}
