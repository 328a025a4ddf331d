//! Neighbor-label-frequency filtering (NLF): LDF plus the requirement that
//! for every label `l` among `u`'s neighbors, `|N(u, l)| ≤ |N(v, l)|`.

use crate::candidates::Candidates;
use crate::context::{DataContext, QueryContext};
use crate::filter::common::ldf_nlf_sets;

/// LDF + NLF candidate sets for every query vertex.
pub fn nlf_candidates(q: &QueryContext<'_>, g: &DataContext<'_>) -> Candidates {
    Candidates::new(ldf_nlf_sets(q, g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_data, paper_query};
    use crate::{DataContext, QueryContext};

    #[test]
    fn nlf_is_subset_of_ldf() {
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let ldf = crate::filter::ldf::ldf_candidates(&qc, &gc);
        let nlf = nlf_candidates(&qc, &gc);
        for u in q.vertices() {
            for &v in nlf.get(u) {
                assert!(ldf.get(u).contains(&v), "u={u} v={v}");
            }
        }
    }

    #[test]
    fn completeness_on_fixture() {
        // The known match must survive.
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let c = nlf_candidates(&qc, &gc);
        for (u, &v) in crate::fixtures::paper_match().iter().enumerate() {
            assert!(c.get(u as u32).contains(&v));
        }
    }

    #[test]
    fn nlf_prunes_u0_competitors() {
        // u0 needs a B neighbor and a C neighbor: pendant A vertices fail.
        let q = paper_query();
        let g = paper_data();
        let qc = QueryContext::new(&q);
        let gc = DataContext::new(&g);
        let c = nlf_candidates(&qc, &gc);
        assert_eq!(c.get(0), &[0]);
    }
}
