//! Intra-query parallel enumeration.
//!
//! The paper notes that CECI (and Glasgow) have parallel variants that
//! split the search across workers. The subtree below one depth-0
//! candidate of a power-law data graph can be orders of magnitude larger
//! than another's, so how the roots are split matters: `0..|C(root)|` is
//! cut into small contiguous position ranges ([`sm_runtime::morsels`])
//! that the workers pull one at a time from one shared queue
//! ([`sm_runtime::run_scoped`], the same scheduler and worker loop the
//! query service runs), so a hub-rooted subtree occupies one worker while
//! the others drain the rest instead of serializing the run.
//!
//! A partition is nothing but ranges over `C(root)`
//! ([`EngineInput::root`]), which every plan understands — static or
//! adaptive order, any [`crate::enumerate::LcMethod`], failing sets on or
//! off — so every plan is split the same way.
//!
//! Every worker executes the same immutable `&QueryPlan` and owns one
//! [`Scratch`] arena for the whole run, so in steady state a morsel
//! allocates nothing — the per-worker
//! [`WorkerMetrics::scratch_reuse`] counter reports exactly how many
//! morsels hit that fast path.
//!
//! The workers share a [`SharedControl`]: the match cap applies to the
//! *sum* across workers, and one worker's deadline/cap cancels everyone
//! through the run's [`sm_runtime::CancelToken`].
//!
//! Matches are streamed into per-worker sinks (each worker gets
//! `S::default()`); the caller merges them if it needs the embeddings.
//! Counts and search-tree sizes are summed; the reported elapsed time is
//! the wall-clock of the whole region, and [`EnumStats::parallel`] carries
//! the per-worker morsel/busy/idle counters.

use crate::enumerate::control::SharedControl;
use crate::enumerate::engine::{enumerate, enumerate_with, EngineInput};
use crate::enumerate::scratch::Scratch;
use crate::enumerate::{EnumStats, MatchSink, Outcome};
use sm_runtime::trace::{Counter, CounterBlock};
use sm_runtime::{morsels, run_scoped, CancelReason, PoolMetrics, WorkerMetrics};
use std::ops::Range;
use std::time::Instant;

/// Mirror a worker's loop metrics into its counter block, so the JSONL
/// profile carries morsel/busy/idle numbers per worker next to the engine
/// counters.
fn mirror_metrics(block: &mut CounterBlock, m: &WorkerMetrics) {
    block.set(Counter::MorselsExecuted, m.morsels);
    block.set(Counter::ScratchReuses, m.scratch_reuse);
    block.set(Counter::BusyNs, m.busy.as_nanos() as u64);
    block.set(Counter::IdleNs, m.idle.as_nanos() as u64);
}

/// How the ranges of `C(root)` are distributed across workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParallelStrategy {
    /// Morsel-driven: workers pull small root ranges from one shared
    /// queue, which balances skewed subtree sizes dynamically.
    Morsel,
}

/// Run the engine across `threads` workers. Returns the merged stats and
/// each worker's sink. The partition is over `input.root` — exactly what
/// a sequential run would iterate at depth 0.
pub fn enumerate_parallel<S: MatchSink + Default + Send>(
    input: &EngineInput<'_>,
    threads: usize,
) -> (EnumStats, Vec<S>) {
    assert!(threads >= 1);
    let started = Instant::now();
    let plan = input.plan;
    let threads = threads.min(input.root.len().max(1));
    let trace = plan.config.trace.clone();
    if threads <= 1 {
        let _exec_span = trace.is_enabled().then(|| trace.span("execute"));
        let mut sink = S::default();
        let stats = enumerate(input, &mut sink);
        trace.flush_counters(0, &stats.counters);
        return (stats, vec![sink]);
    }
    let parallel_span = trace.is_enabled().then(|| trace.span("parallel"));
    let parent = parallel_span.as_ref().and_then(|s| s.id());
    let shared = SharedControl::for_run(&plan.config, started);
    let per_worker = run_scoped(
        morsels(input.root.len(), threads),
        threads,
        |_wid| WorkerStats::<S>::default(),
        |w, morsel| run_range(input, morsel, &shared, w),
        &trace,
        parent,
    );

    let mut matches = 0u64;
    let mut recursions = 0u64;
    let mut scratch_reuse = 0u64;
    let mut outcome = Outcome::Complete;
    let mut sinks = Vec::with_capacity(per_worker.len());
    let mut metrics = PoolMetrics::default();
    let mut counters = CounterBlock::new();
    for (wid, (mut w, mut m)) in per_worker.into_iter().enumerate() {
        m.scratch_reuse = w.scratch.reuses();
        matches += w.matches;
        recursions += w.recursions;
        scratch_reuse += m.scratch_reuse;
        outcome = outcome.worst(w.outcome);
        mirror_metrics(&mut w.counters, &m);
        counters.merge(&w.counters);
        trace.flush_counters(wid, &w.counters);
        sinks.push(w.sink);
        metrics.workers.push(m);
    }
    // The run token records why the run stopped, even for workers that
    // never got to observe it themselves.
    match shared.cancel.cancelled() {
        Some(CancelReason::Deadline) => outcome = Outcome::TimedOut,
        Some(CancelReason::Stopped) => outcome = outcome.worst(Outcome::CapReached),
        None => {}
    }
    (
        EnumStats {
            matches,
            recursions,
            elapsed: started.elapsed(),
            outcome,
            parallel: Some(metrics),
            scratch_reuse,
            counters,
        },
        sinks,
    )
}

struct WorkerStats<S> {
    sink: S,
    /// Worker-local scratch arena, reused across every morsel this worker
    /// executes.
    scratch: Scratch,
    matches: u64,
    recursions: u64,
    outcome: Outcome,
    /// Registry counters merged across every morsel this worker executed.
    counters: CounterBlock,
}

impl<S: Default> Default for WorkerStats<S> {
    fn default() -> Self {
        WorkerStats {
            sink: S::default(),
            scratch: Scratch::new(),
            matches: 0,
            recursions: 0,
            outcome: Outcome::Complete,
            counters: CounterBlock::new(),
        }
    }
}

/// One engine run over one morsel (an offset range into `input.root`),
/// accumulated into the worker's state. Returns `false` once the run is
/// cancelled.
fn run_range<S: MatchSink>(
    input: &EngineInput<'_>,
    morsel: &Range<usize>,
    shared: &SharedControl,
    w: &mut WorkerStats<S>,
) -> bool {
    if shared.cancel.cancelled().is_some() {
        return false;
    }
    let base = input.root.start;
    let worker_input = EngineInput {
        plan: input.plan,
        g: input.g,
        root: base + morsel.start as u32..base + morsel.end as u32,
        shared: Some(shared),
    };
    let stats = enumerate_with(&worker_input, &mut w.scratch, &mut w.sink);
    w.matches += stats.matches;
    w.recursions += stats.recursions;
    w.counters.merge(&stats.counters);
    w.outcome = w.outcome.worst(stats.outcome);
    stats.outcome == Outcome::Complete
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate_space::{CandidateSpace, SpaceCoverage};
    use crate::enumerate::{CollectSink, CountSink, MatchConfig};
    use crate::fixtures::{paper_data, paper_query};
    use crate::plan::QueryPlan;
    use crate::{DataContext, QueryContext};
    use sm_graph::gen::rmat::{rmat_graph, RmatParams};

    #[test]
    fn parallel_counts_match_sequential() {
        let g = rmat_graph(2000, 10.0, 3, RmatParams::PAPER, 21);
        let q =
            sm_graph::builder::graph_from_edges(&[0, 1, 2, 0], &[(0, 1), (1, 2), (2, 3), (0, 2)]);
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let cand = crate::filter::gql::gql_candidates(&qc, &gc, Default::default(), 0);
        if cand.any_empty() {
            return;
        }
        let order = vec![0, 1, 2, 3];
        let space =
            CandidateSpace::build(&q, &g, &cand, SpaceCoverage::OrderDirected(&order), false);
        let plan = QueryPlan::assemble(
            &q,
            cand,
            order,
            None,
            Some(space),
            crate::enumerate::LcMethod::Intersect,
            MatchConfig::find_all(),
            false,
        );
        let input = EngineInput::new(&plan, &g);
        let mut seq_sink = CountSink;
        let seq = enumerate(&input, &mut seq_sink);
        for threads in [1usize, 2, 4, 7] {
            let (par, _sinks) = enumerate_parallel::<CountSink>(&input, threads);
            assert_eq!(par.matches, seq.matches, "{threads} threads");
            assert_eq!(par.outcome, Outcome::Complete);
            if threads > 1 {
                let m = par.parallel.expect("parallel metrics missing");
                assert_eq!(m.workers.len(), threads);
                assert!(m.total_morsels() > 0);
                // Every worker that ran more than one morsel reused its
                // scratch for all but the first.
                for w in &m.workers {
                    assert_eq!(w.scratch_reuse, w.morsels.saturating_sub(1));
                }
            }
        }
    }

    #[test]
    fn parallel_collect_gathers_all_embeddings() {
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
            crate::enumerate::LcMethod::CandidateScan,
            MatchConfig::find_all(),
            false,
        );
        let input = EngineInput::new(&plan, &g);
        let (stats, sinks) = enumerate_parallel::<CollectSink>(&input, 3);
        let total: usize = sinks.iter().map(|s| s.matches.len()).sum();
        assert_eq!(stats.matches as usize, total);
        assert_eq!(total, 1);
    }

    #[test]
    fn global_cap_applies_to_the_sum() {
        let g = rmat_graph(3000, 16.0, 1, RmatParams::PAPER, 5);
        let q = sm_graph::builder::graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let cand = crate::filter::ldf::ldf_candidates(&qc, &gc);
        let cfg = MatchConfig {
            max_matches: Some(500),
            ..Default::default()
        };
        let fixed = QueryPlan::assemble(
            &q,
            cand,
            vec![1, 0, 2],
            None,
            None,
            crate::enumerate::LcMethod::Direct,
            cfg.clone(),
            false,
        );
        let adaptive = crate::Algorithm::DpIso
            .optimized()
            .plan(&q, &gc, &cfg)
            .expect("satisfiable");
        assert!(adaptive.adaptive);
        for plan in [&fixed, &adaptive] {
            let input = EngineInput::new(plan, &g);
            let (stats, _sinks) = enumerate_parallel::<CountSink>(&input, 4);
            let what = format!("adaptive={}", plan.adaptive);
            assert_eq!(stats.outcome, Outcome::CapReached, "{what}");
            // Cap slots are allocated from one shared counter, so the
            // sum across workers is exact under any interleaving.
            assert_eq!(stats.matches, 500, "{what}");
        }
    }

    #[test]
    fn caller_token_cancels_parallel_run() {
        let g = rmat_graph(3000, 16.0, 1, RmatParams::PAPER, 5);
        let q = sm_graph::builder::graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let cand = crate::filter::ldf::ldf_candidates(&qc, &gc);
        let token = sm_runtime::CancelToken::new();
        token.cancel(CancelReason::Stopped); // cancelled before the run
        let cfg = MatchConfig::find_all().with_cancel(token.clone());
        let plan = QueryPlan::assemble(
            &q,
            cand,
            vec![1, 0, 2],
            None,
            None,
            crate::enumerate::LcMethod::Direct,
            cfg,
            false,
        );
        let input = EngineInput::new(&plan, &g);
        let (stats, _sinks) = enumerate_parallel::<CountSink>(&input, 4);
        assert_eq!(stats.outcome, Outcome::CapReached);
        // pre-cancelled: engines stop at their first poll; the caller's
        // own token must stay cancelled but un-mutated by the run
        assert_eq!(token.cancelled(), Some(CancelReason::Stopped));
    }
}
