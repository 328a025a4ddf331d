//! The paper's named algorithm compositions.
//!
//! [`Algorithm::original`] reproduces each algorithm as published;
//! [`Algorithm::optimized`] applies the study's Section 5.2 optimization —
//! maintain candidate edges for **all** query edges and compute local
//! candidates by set intersection (Algorithm 5) — plus, for QuickSI, RI
//! and VF2++, the Section 5.3 substitution of GraphQL's candidate sets
//! for plain LDF, and the removal of VF2++'s extra runtime rules.

use crate::enumerate::LcMethod;
use crate::filter::FilterKind;
use crate::order::OrderKind;
use crate::pipeline::Pipeline;

/// The seven framework algorithms of the study (Glasgow lives in the
/// `sm-glasgow` crate, outside the framework, as in the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// QuickSI (Shang et al., PVLDB 2008).
    QuickSi,
    /// GraphQL (He & Singh, SIGMOD 2008).
    GraphQl,
    /// CFL (Bi et al., SIGMOD 2016).
    Cfl,
    /// CECI (Bhattarai et al., SIGMOD 2019).
    Ceci,
    /// DP-iso (Han et al., SIGMOD 2019).
    DpIso,
    /// RI (Bonnici et al., BMC Bioinformatics 2013).
    Ri,
    /// VF2++ (Jüttner & Madarasi, DAM 2018).
    Vf2pp,
}

impl Algorithm {
    /// Paper abbreviation (QSI, GQL, CFL, CECI, DP, RI, 2PP).
    pub fn abbrev(self) -> &'static str {
        match self {
            Algorithm::QuickSi => "QSI",
            Algorithm::GraphQl => "GQL",
            Algorithm::Cfl => "CFL",
            Algorithm::Ceci => "CECI",
            Algorithm::DpIso => "DP",
            Algorithm::Ri => "RI",
            Algorithm::Vf2pp => "2PP",
        }
    }

    /// All seven, in the paper's listing order.
    pub fn all() -> [Algorithm; 7] {
        [
            Algorithm::QuickSi,
            Algorithm::GraphQl,
            Algorithm::Cfl,
            Algorithm::Ceci,
            Algorithm::DpIso,
            Algorithm::Ri,
            Algorithm::Vf2pp,
        ]
    }

    /// The original composition, prefixed `O-` in the paper's Figure 16.
    pub fn original(self) -> Pipeline {
        let name = format!("O-{}", self.abbrev());
        match self {
            Algorithm::QuickSi => {
                Pipeline::new(name, FilterKind::Ldf, OrderKind::QuickSi, LcMethod::Direct)
            }
            Algorithm::GraphQl => Pipeline::new(
                name,
                FilterKind::GraphQl,
                OrderKind::GraphQl,
                LcMethod::CandidateScan,
            ),
            Algorithm::Cfl => {
                Pipeline::new(name, FilterKind::Cfl, OrderKind::Cfl, LcMethod::TreeIndex)
            }
            Algorithm::Ceci => {
                Pipeline::new(name, FilterKind::Ceci, OrderKind::Ceci, LcMethod::Intersect)
            }
            Algorithm::DpIso => Pipeline::new(
                name,
                FilterKind::DpIso,
                OrderKind::Adaptive,
                LcMethod::Intersect,
            ),
            Algorithm::Ri => Pipeline::new(name, FilterKind::Ldf, OrderKind::Ri, LcMethod::Direct),
            Algorithm::Vf2pp => {
                let mut p =
                    Pipeline::new(name, FilterKind::Ldf, OrderKind::Vf2pp, LcMethod::Direct);
                p.vf2pp_rule = true;
                p
            }
        }
    }

    /// The study's optimized composition (Sections 5.2–5.3).
    pub fn optimized(self) -> Pipeline {
        let name = self.abbrev().to_string();
        match self {
            Algorithm::QuickSi => Pipeline::new(
                name,
                FilterKind::GraphQl,
                OrderKind::QuickSi,
                LcMethod::Intersect,
            ),
            Algorithm::GraphQl => Pipeline::new(
                name,
                FilterKind::GraphQl,
                OrderKind::GraphQl,
                LcMethod::Intersect,
            ),
            Algorithm::Cfl => {
                Pipeline::new(name, FilterKind::Cfl, OrderKind::Cfl, LcMethod::Intersect)
            }
            Algorithm::Ceci => {
                Pipeline::new(name, FilterKind::Ceci, OrderKind::Ceci, LcMethod::Intersect)
            }
            Algorithm::DpIso => Pipeline::new(
                name,
                FilterKind::DpIso,
                OrderKind::Adaptive,
                LcMethod::Intersect,
            ),
            Algorithm::Ri => Pipeline::new(
                name,
                FilterKind::GraphQl,
                OrderKind::Ri,
                LcMethod::Intersect,
            ),
            Algorithm::Vf2pp => Pipeline::new(
                name,
                FilterKind::GraphQl,
                OrderKind::Vf2pp,
                LcMethod::Intersect,
            ),
        }
    }
}

/// The paper's concluding recommendation (Section 6): GraphQL's
/// candidate computation, GraphQL's ordering on dense data graphs and
/// RI's on sparse ones, CECI/DP-iso-style candidate index with
/// set-intersection local candidates (QFilter-style intersection on very
/// dense graphs), and failing-set pruning on large queries only.
///
/// On top of the paper's rules, the pipeline sets
/// [`Pipeline::leaves_last`]: a count-only plan never roots at a
/// degree-1 query vertex and matches every leaf last
/// ([`crate::order::leaves_last`], after CFL's and DP-iso's leaf
/// decompositions), so the leaves fall into the counted suffix.
/// Materializing plans keep the GraphQL / RI order.
///
/// Returns the pipeline plus the matching [`crate::MatchConfig`] tuned to
/// the workload.
///
/// ```
/// use sm_graph::GraphStats;
/// use sm_match::algorithm::recommended;
/// use sm_match::fixtures::{paper_data, paper_query};
/// use sm_match::DataContext;
///
/// let g = paper_data();
/// let q = paper_query();
/// let (pipeline, config) = recommended(&GraphStats::of(&g), q.num_vertices());
/// let ctx = DataContext::new(&g);
/// assert_eq!(pipeline.run(&q, &ctx, &config).matches, 1);
/// ```
pub fn recommended(
    data_stats: &sm_graph::GraphStats,
    query_size: usize,
) -> (Pipeline, crate::MatchConfig) {
    // "Adopt the ordering methods of GraphQL and RI on dense and sparse
    // data graphs respectively." The paper's dense datasets (hu, eu) sit
    // near d = 37, its sparse ones (yt, wn) below 9; split in between.
    let dense = data_stats.avg_degree >= 15.0;
    let order = if dense {
        OrderKind::GraphQl
    } else {
        OrderKind::Ri
    };
    let mut pipeline = Pipeline::new(
        format!("REC-{}", if dense { "GQL" } else { "RI" }),
        FilterKind::GraphQl,
        order,
        LcMethod::Intersect,
    );
    pipeline.leaves_last = true;
    let mut config = crate::MatchConfig::default();
    // "If the data graphs are very dense, then use QFilter."
    if data_stats.avg_degree >= 30.0 {
        config.intersect = sm_intersect::IntersectKind::Bsr;
    }
    // "Enable the failing sets pruning on large queries, but disable it
    // on small ones." The paper's crossover sits around 16 vertices
    // (Figure 15a).
    config.failing_sets = query_size >= 16;
    (pipeline, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_data, paper_query};
    use crate::reference::brute_force_count;
    use crate::{DataContext, MatchConfig};

    #[test]
    fn every_original_composition_agrees_with_brute_force() {
        let q = paper_query();
        let g = paper_data();
        let gc = DataContext::new(&g);
        let want = brute_force_count(&q, &g, None);
        for alg in Algorithm::all() {
            let out = alg.original().run(&q, &gc, &MatchConfig::default());
            assert_eq!(out.matches, want, "O-{}", alg.abbrev());
        }
    }

    #[test]
    fn every_optimized_composition_agrees_with_brute_force() {
        let q = paper_query();
        let g = paper_data();
        let gc = DataContext::new(&g);
        let want = brute_force_count(&q, &g, None);
        for alg in Algorithm::all() {
            let out = alg.optimized().run(&q, &gc, &MatchConfig::default());
            assert_eq!(out.matches, want, "{}", alg.abbrev());
            // and with failing sets
            let cfg = MatchConfig::default().with_failing_sets(true);
            let out = alg.optimized().run(&q, &gc, &cfg);
            assert_eq!(out.matches, want, "{}fs", alg.abbrev());
        }
    }

    #[test]
    fn recommended_follows_the_papers_rules() {
        use sm_graph::GraphStats;
        let sparse = GraphStats {
            num_vertices: 1000,
            num_edges: 2500,
            num_labels: 10,
            avg_degree: 5.0,
            max_degree: 40,
        };
        let (p, c) = super::recommended(&sparse, 8);
        assert_eq!(p.order, crate::OrderKind::Ri);
        assert!(!c.failing_sets);
        assert_eq!(c.intersect, sm_intersect::IntersectKind::Hybrid);

        let dense = GraphStats {
            num_vertices: 1000,
            num_edges: 18_000,
            num_labels: 10,
            avg_degree: 36.0,
            max_degree: 300,
        };
        let (p, c) = super::recommended(&dense, 24);
        assert_eq!(p.order, crate::OrderKind::GraphQl);
        assert!(c.failing_sets);
        assert_eq!(c.intersect, sm_intersect::IntersectKind::Bsr);
        assert_eq!(p.filter, crate::FilterKind::GraphQl);
        assert_eq!(p.method, crate::LcMethod::Intersect);
        assert!(p.leaves_last);
    }

    #[test]
    fn names() {
        assert_eq!(Algorithm::Vf2pp.abbrev(), "2PP");
        assert_eq!(Algorithm::DpIso.original().name, "O-DP");
        assert_eq!(Algorithm::GraphQl.optimized().name, "GQL");
        assert!(Algorithm::Vf2pp.original().vf2pp_rule);
        assert!(!Algorithm::Vf2pp.optimized().vf2pp_rule);
        for alg in Algorithm::all() {
            assert!(!alg.original().leaves_last && !alg.optimized().leaves_last);
        }
    }
}
