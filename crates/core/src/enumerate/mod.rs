//! Enumeration methods (Section 3.3 of the paper): the recursive
//! backtracking of Algorithm 1, parameterized by how local candidates
//! `LC(u, M)` are computed.
//!
//! | Method | Paper algorithm | Cost (α backward neighbors, β edge test) |
//! |---|---|---|
//! | [`LcMethod::Direct`] | Alg. 2 (QuickSI / RI) | `O(d_G · (α−1) · β)` |
//! | [`LcMethod::CandidateScan`] | Alg. 3 (GraphQL) | `O(\|C(u)\| · α · β)` |
//! | [`LcMethod::TreeIndex`] | Alg. 4 (CFL) | `O(\|A(parent)\| · (α−1) · β)` |
//! | [`LcMethod::Intersect`] | Alg. 5 (CECI / DP-iso) | `O(min \|A\| · (α−1))` |
//!
//! The candidate loop exists once, in [`engine`], monomorphized over the
//! "next vertex" step — the static order with the methods above, or
//! [`adaptive`], DP-iso's runtime vertex selection — and over
//! [`failing_sets`], DP-iso's failing-set pruning, portable across all
//! methods (the study's Section 5.4 evaluates exactly that).

pub mod adaptive;
pub mod control;
pub mod engine;
pub mod failing_sets;
pub mod parallel;
pub mod scratch;
pub mod semantics;

pub use semantics::{Injectivity, MatchSemantics, OutputMode, Termination};

use sm_graph::VertexId;
use sm_intersect::IntersectKind;
use sm_runtime::{CancelToken, CounterBlock, PoolMetrics, Trace};
use std::time::{Duration, Instant};

/// The paper's default output cap: queries stop after 10^5 matches.
pub const DEFAULT_MATCH_CAP: u64 = 100_000;

/// The registry counter that tallies intersections of `kind` — how the
/// engines attribute each `intersect_buf` call to its kernel.
pub fn intersect_counter(kind: IntersectKind) -> sm_runtime::Counter {
    match kind {
        IntersectKind::Merge => sm_runtime::Counter::IntersectMerge,
        IntersectKind::Galloping => sm_runtime::Counter::IntersectGalloping,
        IntersectKind::Hybrid => sm_runtime::Counter::IntersectHybrid,
        IntersectKind::Bsr => sm_runtime::Counter::IntersectQfilter,
    }
}

/// How `LC(u, M)` is computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LcMethod {
    /// Loop over `N(M[u.p])` with LDF + edge checks (Algorithm 2).
    Direct,
    /// Loop over the whole `C(u)` with edge checks (Algorithm 3).
    CandidateScan,
    /// Read the tree-edge list from `A`, verify non-tree backward edges
    /// against `G` (Algorithm 4).
    TreeIndex,
    /// Intersect the `A` lists of all backward neighbors (Algorithm 5).
    Intersect,
}

impl LcMethod {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            LcMethod::Direct => "Direct",
            LcMethod::CandidateScan => "CandidateScan",
            LcMethod::TreeIndex => "TreeIndex",
            LcMethod::Intersect => "Intersect",
        }
    }

    /// Whether this method requires a prebuilt [`crate::CandidateSpace`].
    pub fn needs_space(self) -> bool {
        matches!(self, LcMethod::TreeIndex | LcMethod::Intersect)
    }
}

/// Who picks the filter/order/kernel composition a query runs under.
///
/// The enumeration engines never read this flag — a compiled
/// [`crate::QueryPlan`] is always concrete. It is the *plan-selection*
/// contract between a caller and a planning layer: [`PlanSelection::Fixed`]
/// means "run exactly the pipeline I configured", while
/// [`PlanSelection::Auto`] asks a hosting layer (the `sm-planner` crate's
/// cost model, via the service or the bench harness) to score
/// filter × order × kernel combinations against graph statistics and pick
/// the plan itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PlanSelection {
    /// The caller's configured pipeline is used verbatim (the default).
    #[default]
    Fixed,
    /// A self-tuning planner chooses the filter/order/kernel combo per
    /// query from cardinality estimates and cross-run feedback.
    Auto,
}

/// Runtime knobs of an enumeration run.
#[derive(Clone, Debug)]
pub struct MatchConfig {
    /// Stop after this many matches (paper default: 10^5). `None` = all.
    pub max_matches: Option<u64>,
    /// Kill the enumeration after this long (paper: 5 minutes).
    pub time_limit: Option<Duration>,
    /// Enable DP-iso's failing-set pruning.
    pub failing_sets: bool,
    /// Set-intersection kernel for [`LcMethod::Intersect`].
    pub intersect: IntersectKind,
    /// Enable VF2++'s extra runtime label-frequency filter (only
    /// meaningful with [`LcMethod::Direct`]).
    pub vf2pp_rule: bool,
    /// Caller-side cancellation: when set, the engines poll this token
    /// (in addition to `time_limit`) and stop with
    /// [`Outcome::CapReached`] when it is cancelled. `None` = only the
    /// config's own limits apply.
    pub cancel: Option<CancelToken>,
    /// What counts as a match, what the run produces, and when it stops
    /// (default: the paper's mode — isomorphism, materialized
    /// embeddings, exhaustive).
    pub semantics: MatchSemantics,
    /// Observability handle: spans, counters and event rings flow through
    /// here to every phase of the run. The default
    /// [`Trace::disabled`] handle costs one branch per touch point.
    pub trace: Trace,
    /// Plan-selection mode: `Fixed` (default) runs the caller's
    /// configured pipeline; `Auto` asks a hosting planner layer to pick
    /// the filter/order/kernel combo (see [`PlanSelection`]).
    pub plan: PlanSelection,
    /// Mid-run misprediction guard: when set, the engines flush their
    /// live backtrack count into this monitor at every cancellation-poll
    /// boundary, and the monitor cancels the run token once the count
    /// exceeds its budget — the bailout half of the planner's jump-redo
    /// path. `None` (default) costs nothing.
    pub bailout: Option<std::sync::Arc<control::BailoutMonitor>>,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            max_matches: Some(DEFAULT_MATCH_CAP),
            time_limit: None,
            failing_sets: false,
            intersect: IntersectKind::Hybrid,
            vf2pp_rule: false,
            cancel: None,
            semantics: MatchSemantics::default(),
            trace: Trace::disabled(),
            plan: PlanSelection::default(),
            bailout: None,
        }
    }
}

impl MatchConfig {
    /// Find **all** matches, no cap, no time limit.
    pub fn find_all() -> Self {
        MatchConfig {
            max_matches: None,
            time_limit: None,
            ..Default::default()
        }
    }

    /// Builder-style: set the time limit.
    pub fn with_time_limit(mut self, d: Duration) -> Self {
        self.time_limit = Some(d);
        self
    }

    /// Builder-style: toggle failing sets.
    pub fn with_failing_sets(mut self, on: bool) -> Self {
        self.failing_sets = on;
        self
    }

    /// Builder-style: attach a caller-side cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Builder-style: attach a tracing handle. Every phase of a run with
    /// this config records spans/counters/events into it.
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// Builder-style: set the match semantics.
    pub fn with_semantics(mut self, semantics: MatchSemantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// Builder-style: set the plan-selection mode (see [`PlanSelection`]).
    pub fn with_plan(mut self, plan: PlanSelection) -> Self {
        self.plan = plan;
        self
    }

    /// Builder-style: attach a jump-redo bailout monitor. Engines flush
    /// live backtrack counts into it at poll boundaries; the monitor
    /// cancels the run when its budget is exceeded.
    pub fn with_bailout(mut self, monitor: std::sync::Arc<control::BailoutMonitor>) -> Self {
        self.bailout = Some(monitor);
        self
    }

    /// The match cap actually in force: `max_matches` composed with a
    /// [`Termination::TopK`] bound by minimum.
    pub fn effective_cap(&self) -> Option<u64> {
        match (self.max_matches, self.semantics.cap()) {
            (Some(m), Some(k)) => Some(m.min(k)),
            (m, k) => m.or(k),
        }
    }

    /// The run-scoped [`CancelToken`] for an enumeration starting at
    /// `started`: the config's deadline, chained under the caller's token
    /// when one is attached (so cancelling the run never cancels the
    /// caller's token, but the caller's cancellation reaches the run).
    pub fn run_token(&self, started: Instant) -> CancelToken {
        let deadline = self.time_limit.map(|d| started + d);
        match &self.cancel {
            Some(outer) => outer.child(deadline),
            None => CancelToken::with_deadline(deadline),
        }
    }
}

/// Why an enumeration run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Search space exhausted: the match count is exact.
    Complete,
    /// Stopped at `max_matches`.
    CapReached,
    /// Killed by the time limit — an *unsolved* query in paper terms.
    TimedOut,
}

impl Outcome {
    /// Severity rank for merging per-worker (or per-morsel) outcomes:
    /// `Complete < CapReached < TimedOut`. One timed-out worker makes the
    /// whole run partial no matter how many others completed.
    pub fn severity(self) -> u8 {
        match self {
            Outcome::Complete => 0,
            Outcome::CapReached => 1,
            Outcome::TimedOut => 2,
        }
    }

    /// The more severe of two outcomes (see [`Outcome::severity`]) — the
    /// single merge rule used by the parallel engine, the service's
    /// morsel aggregation, and the sharded router.
    pub fn worst(self, other: Outcome) -> Outcome {
        if other.severity() > self.severity() {
            other
        } else {
            self
        }
    }
}

/// Counters of one enumeration run.
#[derive(Clone, Debug)]
pub struct EnumStats {
    /// Matches emitted.
    pub matches: u64,
    /// Recursive `Enumerate` invocations (search-tree nodes).
    pub recursions: u64,
    /// Wall-clock time of the enumeration phase.
    pub elapsed: Duration,
    /// Why the run ended.
    pub outcome: Outcome,
    /// Per-worker morsel/steal/busy counters of a parallel run
    /// (`None` for sequential runs).
    pub parallel: Option<PoolMetrics>,
    /// Nanoseconds spent compiling the [`crate::plan::QueryPlan`] this run
    /// executed (filter + order + auxiliary build); 0 when unknown to the
    /// engine (e.g. a hand-assembled plan).
    pub plan_build_ns: u64,
    /// Total scratch-arena reuses across workers: how many runs/morsels hit
    /// the zero-allocation fast path of
    /// [`scratch::Scratch::prepare`].
    pub scratch_reuse: u64,
    /// The run's registry counters (intersections by kernel, backtracks,
    /// peak depth, LC cache hits, …) — a merged view over what the
    /// engines accumulated, populated whether or not a trace is attached.
    pub counters: CounterBlock,
}

impl EnumStats {
    /// Paper terminology: a query killed by the time limit.
    pub fn unsolved(&self) -> bool {
        self.outcome == Outcome::TimedOut
    }
}

/// Receives each match as it is found. The mapping slice is indexed by
/// query vertex id: `m[u] = v`.
pub trait MatchSink {
    /// Called once per match.
    fn on_match(&mut self, m: &[VertexId]);
}

/// Count-only sink (the paper's measurement mode).
#[derive(Default)]
pub struct CountSink;

impl MatchSink for CountSink {
    #[inline]
    fn on_match(&mut self, _m: &[VertexId]) {}
}

/// Collects every match (examples / small queries).
#[derive(Default)]
pub struct CollectSink {
    /// The collected matches, each indexed by query vertex id.
    pub matches: Vec<Vec<VertexId>>,
}

impl MatchSink for CollectSink {
    fn on_match(&mut self, m: &[VertexId]) {
        self.matches.push(m.to_vec());
    }
}

/// Seeded reservoir sampler over the match stream: after a complete
/// enumeration, [`SampleSink::samples`] holds a uniform sample of up to
/// `k` embeddings (exactly `k` when the graph has at least `k` matches).
/// This implements [`Termination::SampleK`] — uniformity requires seeing
/// every match, so the enumeration still runs to exhaustion. Sequential
/// runs only: per-worker reservoirs are not a uniform sample of the
/// union.
pub struct SampleSink {
    k: usize,
    rng: sm_runtime::rng::Rng64,
    seen: u64,
    /// The sampled embeddings (order arbitrary).
    pub samples: Vec<Vec<VertexId>>,
}

impl SampleSink {
    /// Reservoir of capacity `k`, deterministic per `seed`.
    pub fn new(k: u64, seed: u64) -> Self {
        SampleSink {
            k: k as usize,
            rng: sm_runtime::rng::Rng64::seed_from_u64(seed),
            seen: 0,
            samples: Vec::new(),
        }
    }
}

impl MatchSink for SampleSink {
    fn on_match(&mut self, m: &[VertexId]) {
        self.seen += 1;
        if self.samples.len() < self.k {
            self.samples.push(m.to_vec());
        } else if self.k > 0 {
            let j = self.rng.next_u64_below(self.seen);
            if (j as usize) < self.k {
                self.samples[j as usize].clear();
                self.samples[j as usize].extend_from_slice(m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults() {
        let c = MatchConfig::default();
        assert_eq!(c.max_matches, Some(DEFAULT_MATCH_CAP));
        assert!(!c.failing_sets);
        let all = MatchConfig::find_all();
        assert_eq!(all.max_matches, None);
    }

    #[test]
    fn method_properties() {
        assert!(LcMethod::Intersect.needs_space());
        assert!(LcMethod::TreeIndex.needs_space());
        assert!(!LcMethod::Direct.needs_space());
        assert!(!LcMethod::CandidateScan.needs_space());
        assert_eq!(LcMethod::Direct.name(), "Direct");
    }

    #[test]
    fn collect_sink_gathers() {
        let mut s = CollectSink::default();
        s.on_match(&[1, 2]);
        s.on_match(&[3, 4]);
        assert_eq!(s.matches, vec![vec![1, 2], vec![3, 4]]);
    }
}
