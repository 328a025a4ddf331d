//! Expected answers, computed by a configuration that shares as little
//! as possible with the ones under test: LDF filter (label + degree
//! only), RI order, the merge kernel, one thread, a direct
//! `Pipeline::run` with no service, cache or shard in the way.
//! Failing-set pruning is always on: without it the 32-vertex queries of
//! `match-plan` do not finish under so weak a filter.

use std::time::Duration;
use subgraph_matching::graph::Graph;
use subgraph_matching::intersect::IntersectKind;
use subgraph_matching::matching::{
    DataContext, FilterKind, LcMethod, MatchConfig, OrderKind, Outcome, Pipeline,
};

/// A query the oracle itself cannot finish in this long is a broken
/// workload definition, reported as a failure.
pub const SAFETY_LIMIT: Duration = Duration::from_secs(20);

pub fn reference() -> (Pipeline, MatchConfig) {
    let pipeline = Pipeline::new(
        "oracle",
        FilterKind::Ldf,
        OrderKind::Ri,
        LcMethod::Intersect,
    );
    let config = MatchConfig {
        intersect: IntersectKind::Merge,
        time_limit: Some(SAFETY_LIMIT),
        failing_sets: true,
        ..MatchConfig::default()
    };
    (pipeline, config)
}

/// The number of embeddings of `q`, stopping at `cap`: a capped query
/// must return exactly the cap. `None` when the safety limit hit.
pub fn expected_count(q: &Graph, ctx: &DataContext<'_>, cap: Option<u64>) -> Option<u64> {
    let (pipeline, mut config) = reference();
    config.max_matches = cap;
    config.semantics = config.semantics.count_only();
    let out = pipeline.run(q, ctx, &config);
    (out.outcome != Outcome::TimedOut).then_some(out.matches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subgraph_matching::graph::builder::graph_from_edges;

    #[test]
    fn counts_and_caps() {
        let q = graph_from_edges(&[0, 0], &[(0, 1)]);
        let g = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let ctx = DataContext::new(&g);
        assert_eq!(expected_count(&q, &ctx, None), Some(4));
        assert_eq!(expected_count(&q, &ctx, Some(3)), Some(3));
    }
}
