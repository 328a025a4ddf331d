//! Stand-ins for the study's datasets.
//!
//! The eight real-world graphs of the paper's Table 3 are not
//! redistributable here, so each is replaced by a deterministic RMAT
//! power-law graph matching its **shape**: vertex count (scaled down for
//! the larger graphs so the full suite runs on a laptop), average degree,
//! label-set size, and — for WordNet — the heavily skewed label
//! distribution (>80 % of vertices share one label) that drives the
//! paper's `wn` findings. The per-dataset scaling is recorded in
//! [`DatasetSpec::paper_vertices`] / [`DatasetSpec::paper_edges`] and in
//! DESIGN.md.
//!
//! Query workloads follow Table 4: per dataset, a `Q4` set plus dense
//! (`d(q) ≥ 3`) and sparse (`d(q) < 3`) sets at increasing sizes, capped
//! at 20 vertices for the two hard datasets (`hu`, `wn`) and 32 elsewhere.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sm_graph::gen::query::{generate_query_set, Density, QuerySetSpec};
use sm_graph::gen::random::{assign_labels_skewed, assign_labels_zipf};
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::{Graph, GraphStats};
use std::path::{Path, PathBuf};

/// Bumped whenever the generation recipe changes, so stale cache files are
/// ignored.
pub const CACHE_VERSION: u32 = 2;

/// Zipf exponent for the label distributions of the non-WordNet datasets.
/// Real label frequencies (protein families, categories) are heavy-tailed;
/// uniform labels would make the LDF/NLF filters unrealistically strong.
pub const LABEL_ZIPF_S: f64 = 1.0;

/// Shape parameters of one stand-in dataset.
#[derive(Clone, Copy, Debug)]
pub struct DatasetSpec {
    /// Full name, e.g. `"Yeast"`.
    pub name: &'static str,
    /// Paper abbreviation, e.g. `"ye"`.
    pub abbrev: &'static str,
    /// Paper category, e.g. `"Biology"`.
    pub category: &'static str,
    /// Stand-in vertex count (scaled for the large graphs).
    pub num_vertices: usize,
    /// Target average degree (matches Table 3).
    pub avg_degree: f64,
    /// Label-set size |Σ| (matches Table 3).
    pub num_labels: usize,
    /// Fraction of vertices sharing label 0 (WordNet's skew), if any.
    pub label_skew: Option<f64>,
    /// Generation seed.
    pub seed: u64,
    /// |V| of the original dataset, for documentation.
    pub paper_vertices: usize,
    /// |E| of the original dataset, for documentation.
    pub paper_edges: usize,
    /// Largest query size in this dataset's Table 4 workload (20 or 32).
    pub max_query_size: usize,
}

/// The eight stand-ins of Table 3, in the paper's order.
pub fn all_datasets() -> [DatasetSpec; 8] {
    [
        DatasetSpec {
            name: "Yeast",
            abbrev: "ye",
            category: "Biology",
            num_vertices: 3_112,
            avg_degree: 8.0,
            num_labels: 71,
            label_skew: None,
            seed: 0xEA01,
            paper_vertices: 3_112,
            paper_edges: 12_519,
            max_query_size: 32,
        },
        DatasetSpec {
            name: "Human",
            abbrev: "hu",
            category: "Biology",
            num_vertices: 4_674,
            avg_degree: 36.9,
            num_labels: 44,
            label_skew: None,
            seed: 0xEA02,
            paper_vertices: 4_674,
            paper_edges: 86_282,
            max_query_size: 20,
        },
        DatasetSpec {
            name: "HPRD",
            abbrev: "hp",
            category: "Biology",
            num_vertices: 9_460,
            avg_degree: 7.4,
            num_labels: 307,
            label_skew: None,
            seed: 0xEA03,
            paper_vertices: 9_460,
            paper_edges: 34_998,
            max_query_size: 32,
        },
        DatasetSpec {
            name: "WordNet",
            abbrev: "wn",
            category: "Lexical",
            num_vertices: 30_000,
            avg_degree: 3.1,
            num_labels: 5,
            label_skew: Some(0.82),
            seed: 0xEA04,
            paper_vertices: 76_853,
            paper_edges: 120_399,
            max_query_size: 20,
        },
        DatasetSpec {
            name: "US Patents",
            abbrev: "up",
            category: "Citation",
            num_vertices: 100_000,
            avg_degree: 8.8,
            num_labels: 20,
            label_skew: None,
            seed: 0xEA05,
            paper_vertices: 3_774_768,
            paper_edges: 16_518_947,
            max_query_size: 32,
        },
        DatasetSpec {
            name: "Youtube",
            abbrev: "yt",
            category: "Social",
            num_vertices: 80_000,
            avg_degree: 5.3,
            num_labels: 25,
            label_skew: None,
            seed: 0xEA06,
            paper_vertices: 1_134_890,
            paper_edges: 2_987_624,
            max_query_size: 32,
        },
        DatasetSpec {
            name: "DBLP",
            abbrev: "db",
            category: "Social",
            num_vertices: 60_000,
            avg_degree: 6.6,
            num_labels: 15,
            label_skew: None,
            seed: 0xEA07,
            paper_vertices: 317_080,
            paper_edges: 1_049_866,
            max_query_size: 32,
        },
        DatasetSpec {
            name: "eu2005",
            abbrev: "eu",
            category: "Web",
            num_vertices: 60_000,
            avg_degree: 37.4,
            num_labels: 40,
            label_skew: None,
            seed: 0xEA08,
            paper_vertices: 862_664,
            paper_edges: 16_138_468,
            max_query_size: 32,
        },
    ]
}

/// Look up a dataset by abbreviation (`ye`, `hu`, `hp`, `wn`, `up`, `yt`,
/// `db`, `eu`).
pub fn by_abbrev(abbrev: &str) -> Option<DatasetSpec> {
    all_datasets().into_iter().find(|d| d.abbrev == abbrev)
}

/// The small datasets Glasgow can handle in the paper (Section 5.5).
pub fn glasgow_capable() -> [&'static str; 3] {
    ["hp", "ye", "hu"]
}

/// Generate the stand-in graph for `spec` (deterministic).
pub fn generate(spec: &DatasetSpec) -> Graph {
    let g = rmat_graph(
        spec.num_vertices,
        spec.avg_degree,
        spec.num_labels,
        RmatParams::PAPER,
        spec.seed,
    );
    match spec.label_skew {
        Some(share) => assign_labels_skewed(&g, spec.num_labels, share, spec.seed ^ 0x5EED),
        None => assign_labels_zipf(&g, spec.num_labels, LABEL_ZIPF_S, spec.seed ^ 0x21FF),
    }
}

/// Default on-disk cache directory (`$SM_DATA_DIR` or `target/sm-datasets`).
pub fn default_cache_dir() -> PathBuf {
    std::env::var_os("SM_DATA_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/sm-datasets"))
}

/// Load the stand-in from the cache, generating and caching it on a miss.
pub fn load_or_generate(spec: &DatasetSpec, cache_dir: &Path) -> Graph {
    let path = cache_dir.join(format!("{}.v{}.graph", spec.abbrev, CACHE_VERSION));
    if path.exists() {
        if let Ok(g) = sm_graph::io::load_graph(&path) {
            return g;
        }
    }
    let g = generate(spec);
    if std::fs::create_dir_all(cache_dir).is_ok() {
        let _ = sm_graph::io::save_graph(&g, &path);
    }
    g
}

/// Table 4's query-set shapes for a dataset: `Q4` plus dense and sparse
/// sets stepping up to [`DatasetSpec::max_query_size`].
pub fn query_set_specs(spec: &DatasetSpec, queries_per_set: usize) -> Vec<QuerySetSpec> {
    let sizes: &[usize] = if spec.max_query_size == 20 {
        &[8, 12, 16, 20]
    } else {
        &[8, 16, 24, 32]
    };
    let mut out = vec![QuerySetSpec {
        num_vertices: 4,
        density: Density::Any,
        count: queries_per_set,
    }];
    for &s in sizes {
        out.push(QuerySetSpec {
            num_vertices: s,
            density: Density::Dense,
            count: queries_per_set,
        });
    }
    for &s in sizes {
        out.push(QuerySetSpec {
            num_vertices: s,
            density: Density::Sparse,
            count: queries_per_set,
        });
    }
    out
}

/// Generate one query set for a dataset (deterministic per set shape).
pub fn queries(g: &Graph, spec: &DatasetSpec, set: QuerySetSpec) -> Vec<Graph> {
    let seed = spec.seed
        ^ ((set.num_vertices as u64) << 32)
        ^ match set.density {
            Density::Dense => 0xD,
            Density::Sparse => 0x5,
            Density::Any => 0xA,
        };
    generate_query_set(g, set, seed)
}

/// A loaded dataset: spec, graph, and its realized statistics.
pub struct Dataset {
    /// The shape spec.
    pub spec: DatasetSpec,
    /// The stand-in graph.
    pub graph: Graph,
    /// Realized statistics (degree will track, not exactly equal, the
    /// target).
    pub stats: GraphStats,
}

impl Dataset {
    /// Load (or generate) the stand-in for `abbrev`.
    pub fn load(abbrev: &str) -> Option<Dataset> {
        let spec = by_abbrev(abbrev)?;
        let graph = load_or_generate(&spec, &default_cache_dir());
        let stats = GraphStats::of(&graph);
        Some(Dataset { spec, graph, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_datasets_with_unique_abbrevs() {
        let ds = all_datasets();
        assert_eq!(ds.len(), 8);
        let abbrevs: std::collections::HashSet<_> = ds.iter().map(|d| d.abbrev).collect();
        assert_eq!(abbrevs.len(), 8);
        assert!(by_abbrev("ye").is_some());
        assert!(by_abbrev("zz").is_none());
    }

    #[test]
    fn yeast_standin_matches_shape() {
        let spec = by_abbrev("ye").unwrap();
        let g = generate(&spec);
        assert_eq!(g.num_vertices(), 3112);
        let d = g.avg_degree();
        assert!((d - 8.0).abs() < 1.5, "avg degree {d}");
        assert!(g.num_labels() <= 71);
    }

    #[test]
    fn wordnet_standin_is_label_skewed() {
        let spec = by_abbrev("wn").unwrap();
        let g = generate(&spec);
        let zero = g.vertices().filter(|&v| g.label(v) == 0).count();
        let share = zero as f64 / g.num_vertices() as f64;
        assert!(share > 0.78, "dominant share {share}");
        assert!(g.num_labels() <= 5);
    }

    #[test]
    fn query_specs_follow_table4() {
        let hu = by_abbrev("hu").unwrap();
        let specs = query_set_specs(&hu, 10);
        let names: Vec<String> = specs.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["Q4", "Q8D", "Q12D", "Q16D", "Q20D", "Q8S", "Q12S", "Q16S", "Q20S"]
        );
        let ye = by_abbrev("ye").unwrap();
        let names: Vec<String> = query_set_specs(&ye, 10).iter().map(|s| s.name()).collect();
        assert!(names.contains(&"Q32D".to_string()));
        assert!(names.contains(&"Q32S".to_string()));
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = by_abbrev("ye").unwrap();
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.num_edges(), b.num_edges());
        assert!(a.vertices().all(|v| a.neighbors(v) == b.neighbors(v)));
    }

    #[test]
    fn cache_round_trip() {
        let spec = by_abbrev("ye").unwrap();
        let dir = std::env::temp_dir().join("sm_datasets_test_cache");
        let _ = std::fs::remove_dir_all(&dir);
        let g1 = load_or_generate(&spec, &dir);
        assert!(dir.join(format!("ye.v{CACHE_VERSION}.graph")).exists());
        let g2 = load_or_generate(&spec, &dir);
        assert_eq!(g1.num_edges(), g2.num_edges());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queries_have_requested_shape() {
        let spec = by_abbrev("ye").unwrap();
        let g = generate(&spec);
        let set = QuerySetSpec {
            num_vertices: 8,
            density: Density::Dense,
            count: 5,
        };
        let qs = queries(&g, &spec, set);
        assert!(!qs.is_empty());
        for q in &qs {
            assert_eq!(q.num_vertices(), 8);
            assert!(q.avg_degree() >= 3.0);
            assert!(q.is_connected());
        }
    }

    #[test]
    fn glasgow_capable_are_the_small_ones() {
        for ab in glasgow_capable() {
            let spec = by_abbrev(ab).unwrap();
            assert!(spec.num_vertices < 10_000);
        }
    }
}
