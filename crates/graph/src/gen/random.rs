//! Erdős–Rényi graphs and label assignment strategies.

use crate::builder::GraphBuilder;
use crate::graph::Graph;
use crate::types::Label;
use sm_runtime::rng::Rng64;

/// G(n, m): a uniform random graph with `n` vertices and (approximately,
/// after dedup) `m` edges, labels uniform over `0..num_labels`.
pub fn erdos_renyi(n: usize, m: usize, num_labels: usize, seed: u64) -> Graph {
    assert!(num_labels >= 1);
    let mut rng = Rng64::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, m);
    for _ in 0..n {
        b.add_vertex(rng.gen_range(0..num_labels as Label));
    }
    if n >= 2 {
        for _ in 0..m {
            let u = rng.gen_range(0..n) as u32;
            let mut v = rng.gen_range(0..n) as u32;
            while v == u {
                v = rng.gen_range(0..n) as u32;
            }
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Replace the labels of `g` with uniform draws from `0..num_labels`
/// (the relabeling the paper applies to unlabeled datasets).
pub fn assign_labels_uniform(g: &Graph, num_labels: usize, seed: u64) -> Graph {
    assert!(num_labels >= 1);
    let mut rng = Rng64::seed_from_u64(seed);
    relabel(g, |_| rng.gen_range(0..num_labels as Label))
}

/// Zipf-distributed label assignment: label `l` is drawn with probability
/// proportional to `1/(l+1)^s`. Real vertex-labeled graphs (protein
/// families, paper venues, site categories) have a few frequent labels and
/// a long tail; uniform assignment makes label filtering unrealistically
/// selective.
pub fn assign_labels_zipf(g: &Graph, num_labels: usize, s: f64, seed: u64) -> Graph {
    assert!(num_labels >= 1);
    let mut rng = Rng64::seed_from_u64(seed);
    // cumulative weights
    let mut cum = Vec::with_capacity(num_labels);
    let mut total = 0.0f64;
    for l in 0..num_labels {
        total += 1.0 / ((l + 1) as f64).powf(s);
        cum.push(total);
    }
    relabel(g, |_| {
        let x = rng.gen_f64() * total;
        cum.partition_point(|&c| c < x) as Label
    })
}

/// Skewed label assignment: a `dominant_share` fraction of vertices get
/// label 0 and the remainder are uniform over the other labels. Models
/// WordNet, where more than 80 % of vertices share one label.
pub fn assign_labels_skewed(g: &Graph, num_labels: usize, dominant_share: f64, seed: u64) -> Graph {
    assert!(num_labels >= 1);
    assert!((0.0..=1.0).contains(&dominant_share));
    let mut rng = Rng64::seed_from_u64(seed);
    relabel(g, |_| {
        if num_labels == 1 || rng.gen_f64() < dominant_share {
            0
        } else {
            rng.gen_range(1..num_labels as Label)
        }
    })
}

fn relabel(g: &Graph, mut f: impl FnMut(u32) -> Label) -> Graph {
    let mut b = GraphBuilder::with_capacity(g.num_vertices(), g.num_edges());
    for v in g.vertices() {
        b.add_vertex(f(v));
    }
    for (u, v) in g.edges() {
        b.add_edge(u, v);
    }
    b.build()
}

/// Keep each edge of `g` independently with probability `share` — the
/// density sweep of the paper's friendster experiment (Figure 18, 40/60/80 %
/// of edges).
pub fn sample_edges(g: &Graph, share: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&share));
    let mut rng = Rng64::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(g.num_vertices(), g.num_edges());
    for v in g.vertices() {
        b.add_vertex(g.label(v));
    }
    for (u, v) in g.edges() {
        if rng.gen_f64() < share {
            b.add_edge(u, v);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn er_shape() {
        let g = erdos_renyi(100, 300, 4, 5);
        assert_eq!(g.num_vertices(), 100);
        assert!(g.num_edges() <= 300);
        assert!(g.num_edges() > 250); // few collisions at this density
    }

    #[test]
    fn er_deterministic() {
        let a = erdos_renyi(50, 100, 3, 9);
        let b = erdos_renyi(50, 100, 3, 9);
        assert!(a.vertices().all(|v| a.neighbors(v) == b.neighbors(v)));
    }

    #[test]
    fn uniform_relabel_preserves_structure() {
        let g = erdos_renyi(60, 120, 2, 1);
        let g2 = assign_labels_uniform(&g, 8, 2);
        assert_eq!(g2.num_edges(), g.num_edges());
        assert!(g2.vertices().all(|v| g2.label(v) < 8));
        assert!(g2.vertices().all(|v| g2.neighbors(v) == g.neighbors(v)));
    }

    #[test]
    fn skewed_labels_dominant_share() {
        let g = erdos_renyi(2000, 4000, 2, 3);
        let g2 = assign_labels_skewed(&g, 5, 0.85, 4);
        let zero = g2.vertices().filter(|&v| g2.label(v) == 0).count();
        let share = zero as f64 / 2000.0;
        assert!(share > 0.80 && share < 0.90, "share {share}");
    }

    #[test]
    fn edge_sampling_bounds() {
        let g = erdos_renyi(200, 1000, 2, 6);
        let h = sample_edges(&g, 0.5, 7);
        assert_eq!(h.num_vertices(), g.num_vertices());
        let ratio = h.num_edges() as f64 / g.num_edges() as f64;
        assert!(ratio > 0.4 && ratio < 0.6, "ratio {ratio}");
        assert_eq!(sample_edges(&g, 0.0, 1).num_edges(), 0);
        assert_eq!(sample_edges(&g, 1.0, 1).num_edges(), g.num_edges());
    }
}

#[cfg(test)]
mod zipf_tests {
    use super::*;

    #[test]
    fn zipf_labels_are_skewed_and_in_range() {
        let g = erdos_renyi(5000, 10_000, 2, 1);
        let g2 = assign_labels_zipf(&g, 10, 1.0, 2);
        assert!(g2.vertices().all(|v| g2.label(v) < 10));
        let freq0 = g2.vertices().filter(|&v| g2.label(v) == 0).count();
        let freq9 = g2.vertices().filter(|&v| g2.label(v) == 9).count();
        // label 0 should be roughly 10x as frequent as label 9
        assert!(freq0 > freq9 * 4, "freq0={freq0} freq9={freq9}");
        // structure preserved
        assert_eq!(g2.num_edges(), g.num_edges());
    }

    #[test]
    fn zipf_single_label() {
        let g = erdos_renyi(50, 100, 3, 1);
        let g2 = assign_labels_zipf(&g, 1, 1.0, 0);
        assert!(g2.vertices().all(|v| g2.label(v) == 0));
    }
}
