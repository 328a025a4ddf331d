//! End-to-end observability tests: a traced pipeline run must produce a
//! structurally valid profile that survives the JSONL round trip, and a
//! *cancelled* run must still close every span and flush its partial
//! counters — the trace of an interrupted run is complete, not corrupt.

use sm_graph::builder::graph_from_edges;
use sm_graph::Graph;
use sm_match::enumerate::parallel::ParallelStrategy;
use sm_match::enumerate::CountSink;
use sm_match::{Algorithm, DataContext, Executor, MatchConfig, MatchSemantics, Outcome, Pipeline};
use sm_runtime::trace::profile::{RunMeta, RunProfile};
use sm_runtime::{CancelReason, CancelToken, Counter, Trace};

/// A same-label clique: `n·(n-1)` matches for a single-edge query, plenty
/// of work to interrupt.
fn clique(n: usize) -> Graph {
    let labels = vec![0u32; n];
    let mut edges = Vec::new();
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            edges.push((a, b));
        }
    }
    graph_from_edges(&labels, &edges)
}

/// The profile of a run that ended with `outcome`: like every builder of
/// a `RunMeta`, it marks the profile partial from the outcome.
fn profile_of(trace: &Trace, threads: usize, outcome: Outcome) -> RunProfile {
    RunProfile::from_snapshot(
        RunMeta {
            dataset: "test".into(),
            query: "q".into(),
            config: "cell".into(),
            threads,
            cancelled: outcome != Outcome::Complete,
        },
        &trace.snapshot(),
    )
}

#[test]
fn sequential_run_round_trips_through_jsonl() {
    let q = sm_match::fixtures::paper_query();
    let g = sm_match::fixtures::paper_data();
    let gc = DataContext::new(&g);
    let trace = Trace::enabled();
    let p = Algorithm::GraphQl.optimized();
    let cfg = MatchConfig::default().with_trace(trace.clone());
    let out = {
        let _run = trace.span("run");
        p.run(&q, &gc, &cfg)
    };
    assert_eq!(out.matches, 1);

    let profile = profile_of(&trace, 1, out.outcome);
    assert!(!profile.meta.cancelled);
    profile.validate().expect("structurally valid");
    // Span nesting: plan and execute under run, filter under plan.
    let names: Vec<&str> = profile.spans.iter().map(|s| s.name.as_str()).collect();
    for phase in ["run", "plan", "filter", "order", "build", "execute"] {
        assert!(names.contains(&phase), "missing {phase} in {names:?}");
    }
    let by_name = |n: &str| profile.spans.iter().find(|s| s.name == n).unwrap();
    assert_eq!(by_name("plan").parent, Some(by_name("run").id));
    assert_eq!(by_name("filter").parent, Some(by_name("plan").id));
    assert_eq!(by_name("execute").parent, Some(by_name("run").id));
    // Monotone timestamps along the phases.
    assert!(by_name("filter").start_ns <= by_name("order").start_ns);
    assert!(by_name("order").start_ns <= by_name("build").start_ns);
    assert!(by_name("build").end_ns <= by_name("execute").end_ns);
    // Counters made it through the flush.
    assert_eq!(profile.totals.get(Counter::Matches), 1);
    assert!(profile.totals.get(Counter::Recursions) >= 1);
    assert!(profile.totals.get(Counter::PeakDepth) >= 1);

    // JSONL round trip preserves everything.
    let text = profile.to_jsonl();
    let back = RunProfile::parse_jsonl(&text).expect("re-parse");
    assert_eq!(back, profile);
    back.validate().expect("still valid after round trip");
}

#[test]
fn parallel_totals_are_the_sum_of_worker_blocks() {
    let q = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
    let g = clique(12);
    let gc = DataContext::new(&g);
    let trace = Trace::enabled();
    let p = Algorithm::GraphQl.optimized();
    let cfg = MatchConfig::find_all().with_trace(trace.clone());
    let out = {
        let _run = trace.span("run");
        p.run_parallel(&q, &gc, &cfg, 4)
    };
    assert_eq!(out.outcome, Outcome::Complete);
    assert!(out.matches > 0);

    let profile = profile_of(&trace, 4, out.outcome);
    // validate() checks totals == merge of per-worker blocks; also assert
    // the sum property directly for the additive counters we care about.
    profile.validate().expect("valid parallel profile");
    assert!(
        profile.counters.len() >= 2,
        "expected multiple worker blocks"
    );
    let sum: u64 = profile
        .counters
        .iter()
        .map(|(_, b)| b.get(Counter::Matches))
        .sum();
    assert_eq!(sum, profile.totals.get(Counter::Matches));
    assert_eq!(profile.totals.get(Counter::Matches), out.matches);
    assert!(profile.totals.get(Counter::MorselsExecuted) > 0);
    // Worker spans hang under the coordinator's parallel span.
    let names: Vec<&str> = profile.spans.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"parallel"), "{names:?}");
    assert!(names.contains(&"worker"), "{names:?}");
    assert!(names.contains(&"morsel"), "{names:?}");
    // Round trip.
    let back = RunProfile::parse_jsonl(&profile.to_jsonl()).unwrap();
    assert_eq!(back, profile);
}

/// The counter block is the one store of a run's numbers, on every path
/// of `Executor::run_parallel` (threads {1, 2, 4}; capped by a top-k
/// bound and uncapped; count-only and materializing):
/// * the profile's summed counters equal the run's, registry-wide — the
///   run-level tally (`count_only_runs`, `topk_early_exits`) included;
/// * `EnumStats.{matches, recursions}` are the block's `matches` and
///   `recursions`;
/// * a parallel run's `PoolMetrics` totals are the block's merged
///   `morsels_executed`, `scratch_reuses` and `idle_ns`.
#[test]
fn profile_totals_equal_run_counters_at_every_thread_count() {
    let q = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
    let g = clique(12); // 1320 matches
    let gc = DataContext::new(&g);
    // The GraphQL filter flushes nothing at plan time, so the profile
    // holds the execution's counters alone.
    let p = Algorithm::GraphQl.optimized();
    let cases = [
        MatchSemantics::default(),
        MatchSemantics::default().count_only(),
        MatchSemantics::default().top_k(7),
        MatchSemantics::default().count_only().top_k(7),
    ];
    for semantics in cases {
        for threads in [1, 2, 4] {
            let trace = Trace::enabled();
            let cfg = MatchConfig::find_all()
                .with_semantics(semantics)
                .with_trace(trace.clone());
            let plan = p.plan(&q, &gc, &cfg).expect("satisfiable");
            let (stats, _) = Executor::new(&plan, &g)
                .run_parallel::<CountSink>(threads, ParallelStrategy::Morsel);
            let cell = format!("{semantics:?} threads={threads}");
            let c = &stats.counters;
            let capped = semantics.cap().is_some();
            assert_eq!(stats.matches, if capped { 7 } else { 1320 }, "{cell}");
            assert_eq!(c.get(Counter::Matches), stats.matches, "{cell}");
            assert_eq!(c.get(Counter::Recursions), stats.recursions, "{cell}");
            assert_eq!(
                c.get(Counter::CountOnlyRuns),
                !semantics.emits() as u64,
                "{cell}"
            );
            assert_eq!(c.get(Counter::TopkEarlyExits), capped as u64, "{cell}");
            match &stats.parallel {
                Some(pool) => {
                    assert!(threads > 1, "{cell}");
                    let morsels = c.get(Counter::MorselsExecuted);
                    assert_eq!(pool.total_morsels(), morsels, "{cell}");
                    let reuses = c.get(Counter::ScratchReuses);
                    assert_eq!(pool.total_scratch_reuse(), reuses, "{cell}");
                    let idle_ns = pool.total_idle().as_nanos() as u64;
                    assert_eq!(idle_ns, c.get(Counter::IdleNs), "{cell}");
                }
                None => {
                    assert_eq!(threads, 1, "{cell}");
                    assert_eq!(c.get(Counter::MorselsExecuted), 0, "{cell}");
                }
            }
            let profile = profile_of(&trace, threads, stats.outcome);
            profile.validate().expect("valid profile");
            for c in Counter::ALL {
                assert_eq!(
                    profile.totals.get(c),
                    stats.counters.get(c),
                    "{} differs: {cell}",
                    c.name()
                );
            }
        }
    }
}

#[test]
fn cancelled_run_still_produces_a_complete_trace() {
    // Cap a huge find-all at 5 matches: the run is cancelled mid-flight.
    let q = graph_from_edges(&[0, 0], &[(0, 1)]);
    let g = clique(40); // 1560 matches available
    let gc = DataContext::new(&g);
    let trace = Trace::enabled();
    let p = Algorithm::GraphQl.optimized();
    let cfg = MatchConfig {
        max_matches: Some(5),
        trace: trace.clone(),
        ..Default::default()
    };
    let out = {
        let _run = trace.span("run");
        p.run_parallel(&q, &gc, &cfg, 2)
    };
    assert_eq!(out.outcome, Outcome::CapReached);

    let profile = profile_of(&trace, 2, out.outcome);
    assert!(profile.meta.cancelled, "a capped run's profile is partial");
    // Every span is closed despite the early unwind, and partial counters
    // were flushed (validate also re-checks totals vs per-worker blocks).
    profile
        .validate()
        .expect("cancelled run trace is well-formed");
    assert!(profile.totals.get(Counter::Matches) >= 5);
    assert!(profile.totals.get(Counter::Recursions) > 0);
    // Round trip of a cancelled profile too.
    let back = RunProfile::parse_jsonl(&profile.to_jsonl()).unwrap();
    assert_eq!(back, profile);
}

#[test]
fn caller_cancellation_closes_spans() {
    // A token cancelled before the run starts: the engines stop almost
    // immediately, yet the trace must still be coherent.
    let q = sm_match::fixtures::paper_query();
    let g = sm_match::fixtures::paper_data();
    let gc = DataContext::new(&g);
    let token = CancelToken::new();
    token.cancel(CancelReason::Stopped);
    let trace = Trace::enabled();
    let p = Pipeline::new(
        "t",
        sm_match::FilterKind::GraphQl,
        sm_match::OrderKind::GraphQl,
        sm_match::LcMethod::Intersect,
    );
    let cfg = MatchConfig::find_all()
        .with_cancel(token)
        .with_trace(trace.clone());
    let out = {
        let _run = trace.span("run");
        p.run(&q, &gc, &cfg)
    };
    let profile = profile_of(&trace, 1, out.outcome);
    profile
        .validate()
        .expect("well-formed despite instant cancel");
    assert!(profile.spans.iter().all(|s| s.end_ns != u64::MAX));
}

#[test]
fn disabled_trace_leaves_no_footprint_but_stats_still_carry_counters() {
    let q = sm_match::fixtures::paper_query();
    let g = sm_match::fixtures::paper_data();
    let gc = DataContext::new(&g);
    let p = Algorithm::GraphQl.optimized();
    let cfg = MatchConfig::default(); // trace disabled
    let out = p.run(&q, &gc, &cfg);
    assert_eq!(out.matches, 1);
    // The disabled handle records nothing...
    let snap = Trace::disabled().snapshot();
    assert!(snap.spans.is_empty());
    assert!(snap.counters.is_empty());
    // ...but EnumStats counters are populated regardless of tracing.
    let plan = p.plan(&q, &gc, &cfg).unwrap();
    let mut sink = sm_match::enumerate::CountSink;
    let stats = sm_match::Executor::new(&plan, gc.graph).run(&mut sink);
    assert_eq!(stats.counters.get(Counter::Matches), 1);
    assert!(stats.counters.get(Counter::Recursions) >= 1);
}
