//! A Glasgow-style constraint-programming subgraph solver (Archibald et
//! al., CPAIOR 2019), the out-of-framework comparator of the study's
//! Section 3.5 and Figure 16.
//!
//! Subgraph matching is modelled as a CP problem: each query vertex is a
//! variable whose domain is a bitset over data vertices; each query edge
//! is a constraint. The solver:
//!
//! * seeds domains with unary constraints — label, degree, and
//!   neighbourhood degree sequence dominance;
//! * on each assignment `u → v`, propagates: neighbor domains intersect
//!   `N(v)`'s bitset, `v` is removed everywhere (all-different), and a
//!   counting Hall check prunes pigeonhole-infeasible states;
//! * picks the next variable by smallest remaining domain (MRV) and tries
//!   values in descending-degree order, Glasgow's bias toward finding an
//!   embedding quickly;
//! * enumerates all solutions under the usual cap/time limit.
//!
//! Like the original, it materializes one adjacency bitset **per data
//! vertex** — `O(|V(G)|²/8)` bytes — plus per-depth domain copies. That
//! footprint is checked against [`GlasgowConfig::memory_budget_bytes`]
//! before solving, reproducing the paper's observation that Glasgow only
//! runs on the small datasets (`hp`, `ye`, `hu`) and exhausts memory on
//! the rest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sm_graph::{Graph, VertexId};
use sm_runtime::trace::{Counter, CounterBlock, Trace};
use sm_runtime::{CancelReason, CancelToken};
use std::time::{Duration, Instant};

/// Configuration of a Glasgow run.
#[derive(Clone, Debug)]
pub struct GlasgowConfig {
    /// Stop after this many matches.
    pub max_matches: Option<u64>,
    /// Kill the search after this long.
    pub time_limit: Option<Duration>,
    /// Refuse to run if the estimated footprint exceeds this (default 2 GiB,
    /// mirroring "runs out of memory on other datasets").
    pub memory_budget_bytes: usize,
    /// Caller-side cancellation: when set, the solver polls this token in
    /// addition to `time_limit` and stops early (without marking the run
    /// timed out) when it is cancelled.
    pub cancel: Option<CancelToken>,
    /// Observability handle: `init`/`search` spans plus the
    /// `glasgow_nodes` / `glasgow_propagations` counters flow through here.
    pub trace: Trace,
}

impl Default for GlasgowConfig {
    fn default() -> Self {
        GlasgowConfig {
            max_matches: Some(100_000),
            time_limit: None,
            memory_budget_bytes: 2 << 30,
            cancel: None,
            trace: Trace::disabled(),
        }
    }
}

/// Why a Glasgow run could not start or finish.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GlasgowError {
    /// Estimated memory exceeds the budget.
    OutOfMemory {
        /// Bytes the solver would need.
        required: usize,
        /// Configured budget.
        budget: usize,
    },
}

impl std::fmt::Display for GlasgowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GlasgowError::OutOfMemory { required, budget } => write!(
                f,
                "glasgow would need ~{required} bytes of bitset state, budget is {budget}"
            ),
        }
    }
}

impl std::error::Error for GlasgowError {}

/// Result counters of a Glasgow run.
#[derive(Clone, Debug)]
pub struct GlasgowStats {
    /// Matches found.
    pub matches: u64,
    /// Search nodes explored.
    pub nodes: u64,
    /// Wall-clock time including domain initialization.
    pub elapsed: Duration,
    /// Whether the time limit killed the search.
    pub timed_out: bool,
}

/// Estimated bitset footprint: adjacency rows + per-depth domain copies.
pub fn estimate_memory(q: &Graph, g: &Graph) -> usize {
    let n = g.num_vertices();
    let words_per_row = n.div_ceil(64);
    let nq = q.num_vertices();
    let adjacency = n * words_per_row * 8;
    let domains = nq * nq * words_per_row * 8; // one domain set per depth
    adjacency + domains
}

/// Find all matches of `q` in `g` with the CP solver.
///
/// ```
/// use sm_graph::builder::graph_from_edges;
/// use sm_glasgow::{glasgow_match, GlasgowConfig};
///
/// let q = graph_from_edges(&[0, 1], &[(0, 1)]);
/// let g = graph_from_edges(&[0, 1, 1], &[(0, 1), (0, 2)]);
/// let stats = glasgow_match(&q, &g, &GlasgowConfig::default()).unwrap();
/// assert_eq!(stats.matches, 2);
/// ```
pub fn glasgow_match(
    q: &Graph,
    g: &Graph,
    config: &GlasgowConfig,
) -> Result<GlasgowStats, GlasgowError> {
    let required = estimate_memory(q, g);
    if required > config.memory_budget_bytes {
        return Err(GlasgowError::OutOfMemory {
            required,
            budget: config.memory_budget_bytes,
        });
    }
    let started = Instant::now();
    let trace = config.trace.clone();
    let run_span = trace.is_enabled().then(|| trace.span("glasgow"));
    let init_span = trace.is_enabled().then(|| trace.span("init"));
    let n = g.num_vertices();
    let nq = q.num_vertices();
    let words = n.div_ceil(64);

    // Adjacency bitsets: row v = N(v).
    let mut adj = vec![0u64; n * words];
    for v in g.vertices() {
        let row = v as usize * words;
        for &w in g.neighbors(v) {
            adj[row + (w as usize >> 6)] |= 1u64 << (w & 63);
        }
    }

    // Initial domains from unary constraints.
    let mut root_domains = vec![0u64; nq * words];
    let g_nds = degree_sequences(g);
    let q_nds = degree_sequences(q);
    for u in q.vertices() {
        let row = u as usize * words;
        for &v in g.vertices_with_label(q.label(u)).iter() {
            if g.degree(v) >= q.degree(u) && nds_dominates(&g_nds[v as usize], &q_nds[u as usize]) {
                root_domains[row + (v as usize >> 6)] |= 1u64 << (v & 63);
            }
        }
        if root_domains[row..row + words].iter().all(|&w| w == 0) {
            return Ok(GlasgowStats {
                matches: 0,
                nodes: 0,
                elapsed: started.elapsed(),
                timed_out: false,
            });
        }
    }

    let mut solver = Solver {
        q,
        g,
        words,
        adj: &adj,
        // depth-indexed domain arenas: depth d uses rows [d * nq * words ..]
        arena: vec![0u64; (nq + 1) * nq * words],
        assigned: vec![u32::MAX; nq],
        assigned_mask: vec![false; nq],
        cap: config.max_matches.unwrap_or(u64::MAX),
        cancel: {
            let deadline = config.time_limit.map(|d| started + d);
            match &config.cancel {
                Some(outer) => outer.child(deadline),
                None => CancelToken::with_deadline(deadline),
            }
        },
        halted: false,
        timed_out: false,
        counters: CounterBlock::new(),
    };
    solver.arena[..nq * words].copy_from_slice(&root_domains);
    drop(init_span);
    let search_span = trace.is_enabled().then(|| trace.span("search"));
    solver.search(0);
    drop(search_span);
    trace.flush_counters(0, &solver.counters);
    drop(run_span);
    Ok(GlasgowStats {
        matches: solver.counters.get(Counter::Matches),
        nodes: solver.counters.get(Counter::GlasgowNodes),
        elapsed: started.elapsed(),
        timed_out: solver.timed_out,
    })
}

/// Sorted-descending neighbour degree sequence of every vertex.
fn degree_sequences(g: &Graph) -> Vec<Vec<u32>> {
    g.vertices()
        .map(|v| {
            let mut ds: Vec<u32> = g.neighbors(v).iter().map(|&w| g.degree(w) as u32).collect();
            ds.sort_unstable_by(|a, b| b.cmp(a));
            ds
        })
        .collect()
}

/// Whether the data sequence dominates the query sequence elementwise.
fn nds_dominates(data: &[u32], query: &[u32]) -> bool {
    data.len() >= query.len() && query.iter().zip(data).all(|(qd, gd)| gd >= qd)
}

struct Solver<'a> {
    q: &'a Graph,
    g: &'a Graph,
    words: usize,
    adj: &'a [u64],
    arena: Vec<u64>,
    assigned: Vec<u32>,
    assigned_mask: Vec<bool>,
    cap: u64,
    cancel: CancelToken,
    halted: bool,
    timed_out: bool,
    /// The run's counters: `glasgow_nodes` and `matches` are ticked here
    /// and read back into [`GlasgowStats`].
    counters: CounterBlock,
}

impl Solver<'_> {
    fn domain_size(&self, depth: usize, u: usize) -> u32 {
        let nq = self.q.num_vertices();
        let base = depth * nq * self.words + u * self.words;
        self.arena[base..base + self.words]
            .iter()
            .map(|w| w.count_ones())
            .sum()
    }

    fn stopped(&self) -> bool {
        self.halted || self.counters.get(Counter::Matches) >= self.cap
    }

    fn search(&mut self, depth: usize) {
        self.counters.bump(Counter::GlasgowNodes);
        if self.counters.get(Counter::GlasgowNodes) & 0x3FF == 0 {
            if let Some(reason) = self.cancel.poll() {
                self.halted = true;
                self.timed_out = reason == CancelReason::Deadline;
            }
        }
        if self.stopped() {
            return;
        }
        let nq = self.q.num_vertices();
        if depth == nq {
            self.counters.bump(Counter::Matches);
            return;
        }
        // MRV: unassigned variable with smallest domain.
        let u = (0..nq)
            .filter(|&u| !self.assigned_mask[u])
            .min_by_key(|&u| (self.domain_size(depth, u), u))
            .expect("depth < nq implies an unassigned variable");
        // Hall/pigeonhole check: union of unassigned domains must offer at
        // least as many values as there are unassigned variables.
        if !self.union_large_enough(depth) {
            return;
        }
        // Values in descending degree (Glasgow's value heuristic).
        let mut values = self.domain_values(depth, u);
        values.sort_unstable_by_key(|&v| (std::cmp::Reverse(self.g.degree(v)), v));
        for v in values {
            if self.stopped() {
                return;
            }
            if self.propagate(depth, u, v) {
                self.assigned[u] = v;
                self.assigned_mask[u] = true;
                self.counters
                    .record_max(Counter::PeakDepth, depth as u64 + 1);
                self.search(depth + 1);
                self.assigned_mask[u] = false;
                self.assigned[u] = u32::MAX;
                self.counters.bump(Counter::Backtracks);
            }
        }
    }

    fn domain_values(&self, depth: usize, u: usize) -> Vec<VertexId> {
        let nq = self.q.num_vertices();
        let base = depth * nq * self.words + u * self.words;
        let mut out = Vec::new();
        for (wi, &word) in self.arena[base..base + self.words].iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros();
                out.push((wi as u32) << 6 | bit);
                w &= w - 1;
            }
        }
        out
    }

    /// Counting all-different: the union of the unassigned domains must
    /// hold at least as many values as variables remain.
    fn union_large_enough(&self, depth: usize) -> bool {
        let nq = self.q.num_vertices();
        let remaining = (0..nq).filter(|&u| !self.assigned_mask[u]).count();
        let base = depth * nq * self.words;
        let mut count = 0usize;
        for wi in 0..self.words {
            let mut union = 0u64;
            for u in 0..nq {
                if !self.assigned_mask[u] {
                    union |= self.arena[base + u * self.words + wi];
                }
            }
            count += union.count_ones() as usize;
            if count >= remaining {
                return true;
            }
        }
        count >= remaining
    }

    /// Copy depth's domains to depth+1 applying the assignment `u → v`.
    /// Returns false if some unassigned domain empties (dead end).
    fn propagate(&mut self, depth: usize, u: usize, v: VertexId) -> bool {
        self.counters.bump(Counter::GlasgowPropagations);
        let nq = self.q.num_vertices();
        let words = self.words;
        let src = depth * nq * words;
        let dst = (depth + 1) * nq * words;
        let vrow = v as usize * words;
        let is_nbr: Vec<bool> = {
            let mut m = vec![false; nq];
            for &u2 in self.q.neighbors(u as u32) {
                m[u2 as usize] = true;
            }
            m
        };
        // Index-driven on purpose: u2 selects aligned regions of three
        // parallel arrays (arena src/dst rows and the neighbor mask).
        #[allow(clippy::needless_range_loop)]
        for u2 in 0..nq {
            if u2 == u {
                // pin the assignment
                for wi in 0..words {
                    self.arena[dst + u2 * words + wi] = 0;
                }
                self.arena[dst + u2 * words + (v as usize >> 6)] = 1u64 << (v & 63);
                continue;
            }
            if self.assigned_mask[u2] {
                let av = self.assigned[u2];
                for wi in 0..words {
                    self.arena[dst + u2 * words + wi] = 0;
                }
                self.arena[dst + u2 * words + (av as usize >> 6)] = 1u64 << (av & 63);
                continue;
            }
            let mut nonzero = 0u64;
            for wi in 0..words {
                let mut w = self.arena[src + u2 * words + wi];
                if is_nbr[u2] {
                    w &= self.adj[vrow + wi];
                }
                self.arena[dst + u2 * words + wi] = w;
                nonzero |= w;
            }
            // all-different: drop v
            let cell = dst + u2 * words + (v as usize >> 6);
            self.arena[cell] &= !(1u64 << (v & 63));
            if nonzero == 0 || (!self.domain_nonzero(dst + u2 * words)) {
                return false;
            }
        }
        true
    }

    fn domain_nonzero(&self, base: usize) -> bool {
        self.arena[base..base + self.words].iter().any(|&w| w != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_graph::builder::graph_from_edges;
    // The Figure 1 fixtures live in sm-match (a dev-dependency) so the
    // same graphs back every crate's tests.
    use sm_match::fixtures::{paper_data, paper_query};

    #[test]
    fn finds_the_unique_match() {
        let stats = glasgow_match(&paper_query(), &paper_data(), &GlasgowConfig::default())
            .expect("fits in memory");
        assert_eq!(stats.matches, 1);
        assert!(!stats.timed_out);
        assert!(stats.nodes >= 1);
    }

    #[test]
    fn triangle_counts() {
        let tri = graph_from_edges(&[0; 3], &[(0, 1), (1, 2), (0, 2)]);
        let k4 = graph_from_edges(&[0; 4], &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let stats = glasgow_match(&tri, &k4, &GlasgowConfig::default()).unwrap();
        assert_eq!(stats.matches, 24);
    }

    #[test]
    fn memory_budget_enforced() {
        let q = paper_query();
        let g = paper_data();
        let tight = GlasgowConfig {
            memory_budget_bytes: 16,
            ..Default::default()
        };
        match glasgow_match(&q, &g, &tight) {
            Err(GlasgowError::OutOfMemory { required, budget }) => {
                assert!(required > budget);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn match_cap() {
        let edge = graph_from_edges(&[0, 0], &[(0, 1)]);
        let k4 = graph_from_edges(&[0; 4], &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let cfg = GlasgowConfig {
            max_matches: Some(3),
            ..Default::default()
        };
        let stats = glasgow_match(&edge, &k4, &cfg).unwrap();
        assert_eq!(stats.matches, 3);
    }

    #[test]
    fn nds_rejects_weak_neighborhoods() {
        // query u needs a neighbor of degree 2; data v's neighbors all have
        // degree 1 → NDS prunes v before search.
        assert!(nds_dominates(&[3, 2, 1], &[2, 1]));
        assert!(!nds_dominates(&[1, 1], &[2]));
        assert!(!nds_dominates(&[3], &[2, 2]));
    }

    #[test]
    fn no_label_match_returns_zero() {
        let q = graph_from_edges(&[7, 7], &[(0, 1)]);
        let g = graph_from_edges(&[0, 0], &[(0, 1)]);
        let stats = glasgow_match(&q, &g, &GlasgowConfig::default()).unwrap();
        assert_eq!(stats.matches, 0);
    }
}
