//! [`VersionedGraph`]: an immutable CSR base plus per-epoch overlays.
//!
//! # Layout
//!
//! The base is a plain [`sm_graph::Graph`] together with its
//! [`sm_graph::NlfIndex`], both built exactly once. Every committed
//! [`UpdateBatch`] produces a new *cumulative* overlay: copy-on-write maps
//! from vertex to patched adjacency / NLF row and from label to patched
//! label bucket, each value an `Arc` shared with the previous overlay
//! unless this commit touched it. A [`Snapshot`] is one `Arc` to one
//! overlay, so pinning an epoch is O(1) and every read is at most one
//! hash probe before falling through to the base arrays.
//!
//! # Incremental index maintenance
//!
//! Commits never rebuild an index. The label bucket of a label gains or
//! loses exactly the ids added/deleted under it; the NLF row of a vertex
//! is adjusted by the labels of the neighbors that arrived or left; all
//! untouched rows keep pointing into the base. Materializing a snapshot
//! back into CSR form (see [`Snapshot::materialize`]) likewise copies
//! untouched NLF rows instead of re-scanning adjacency.
//!
//! # Compaction
//!
//! When the overlay grows past a threshold (measured in delta edges plus
//! added vertices), the current view is folded into a fresh base and the
//! overlay resets to empty. Compaction changes no observable state —
//! snapshots taken earlier keep their old `Arc` and stay exactly
//! consistent. Tombstoned vertices survive compaction as isolated
//! vertices that keep their label but are excluded from label buckets,
//! so the view's semantics do not depend on how often compaction ran.

use crate::batch::UpdateBatch;
use crate::view::GraphView;
use sm_graph::{Graph, Label, NlfIndex, VertexId};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// The immutable foundation of a [`VersionedGraph`]: a CSR graph and its
/// NLF index, built once per compaction cycle.
struct Base {
    graph: Graph,
    nlf: NlfIndex,
}

/// One cumulative overlay over a [`Base`]. Immutable once published; a
/// [`Snapshot`] is an `Arc` to one of these.
pub(crate) struct LayerData {
    base: Arc<Base>,
    epoch: u64,
    /// Patched sorted adjacency per touched vertex (tombstones and
    /// vertices added after the base always have an entry).
    adj: HashMap<VertexId, Arc<Vec<VertexId>>>,
    /// Patched NLF rows, same key set as `adj`.
    nlf: HashMap<VertexId, Arc<Vec<(Label, u32)>>>,
    /// Patched label buckets (labels whose live-vertex set differs from
    /// the base, including every label with a tombstoned vertex).
    label_buckets: HashMap<Label, Arc<Vec<VertexId>>>,
    /// Labels of vertices added after the base (ids `base_n..`).
    added_labels: Arc<Vec<Label>>,
    /// Deleted vertex ids. Never reused; survive compaction.
    tombstones: Arc<HashSet<VertexId>>,
    num_edges: usize,
    /// `|E(view) Δ E(base)|` — the overlay's live edge footprint.
    delta_edges_live: usize,
}

impl LayerData {
    fn base_n(&self) -> usize {
        self.base.graph.num_vertices()
    }

    fn n(&self) -> usize {
        self.base_n() + self.added_labels.len()
    }

    fn is_tombstoned(&self, v: VertexId) -> bool {
        self.tombstones.contains(&v)
    }

    fn label_of(&self, v: VertexId) -> Label {
        let v = v as usize;
        if v < self.base_n() {
            self.base.graph.label(v as VertexId)
        } else {
            self.added_labels[v - self.base_n()]
        }
    }

    fn neighbors_of(&self, v: VertexId) -> &[VertexId] {
        if let Some(a) = self.adj.get(&v) {
            a
        } else if (v as usize) < self.base_n() {
            self.base.graph.neighbors(v)
        } else {
            &[]
        }
    }

    fn nlf_of(&self, v: VertexId) -> &[(Label, u32)] {
        if let Some(r) = self.nlf.get(&v) {
            r
        } else if (v as usize) < self.base_n() {
            self.base.nlf.entry(v)
        } else {
            &[]
        }
    }

    fn bucket(&self, l: Label) -> &[VertexId] {
        if let Some(b) = self.label_buckets.get(&l) {
            b
        } else {
            self.base.graph.vertices_with_label(l)
        }
    }

    fn has_edge_view(&self, u: VertexId, v: VertexId) -> bool {
        let (nu, nv) = (self.neighbors_of(u), self.neighbors_of(v));
        let (list, key) = if nu.len() <= nv.len() {
            (nu, v)
        } else {
            (nv, u)
        };
        list.binary_search(&key).is_ok()
    }
}

/// A pinned, immutable view of a [`VersionedGraph`] at one epoch.
///
/// Cloning is an `Arc` bump; every read goes through at most one hash
/// probe into the overlay before falling through to the base CSR. A
/// snapshot stays valid (and unchanged) across later commits and
/// compactions — this is what lets in-flight queries finish against a
/// consistent graph while updaters move the head forward.
#[derive(Clone)]
pub struct Snapshot {
    layer: Arc<LayerData>,
}

impl Snapshot {
    /// The epoch this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.layer.epoch
    }

    /// Whether vertex `v` has been deleted (degree 0, excluded from
    /// label buckets, id never reused).
    pub fn is_tombstoned(&self, v: VertexId) -> bool {
        self.layer.is_tombstoned(v)
    }

    /// The overlay's live edge footprint `|E(view) Δ E(base)|`.
    pub fn delta_edges_live(&self) -> usize {
        self.layer.delta_edges_live
    }

    /// Fold this view into a standalone CSR graph plus its NLF index.
    ///
    /// The graph keeps tombstoned vertices as isolated vertices carrying
    /// their original label, so vertex ids are stable; connected queries
    /// (degree ≥ 1 everywhere) cannot match them. The NLF index is
    /// assembled row-by-row from the view — untouched rows are copied
    /// from the base index rather than recomputed from adjacency.
    pub fn materialize(&self) -> (Graph, NlfIndex) {
        let layer = &*self.layer;
        let n = self.num_vertices();
        let base_n = layer.base_n();
        let base_labels = layer.base.graph.csr().2;

        // Every per-vertex row of the view is already a sorted adjacency
        // slice (base CSR row or patched overlay row), so the CSR is
        // assembled by splicing: maximal runs of untouched base vertices
        // are bulk-copied, only patched rows are written individually.
        // With a small overlay this is a handful of memcpys over the base
        // arrays, which is what keeps installs, snapshot writes, and
        // recovery cheap.
        let mut touched: Vec<usize> = layer
            .adj
            .keys()
            .map(|&v| v as usize)
            .filter(|&v| v < base_n)
            .collect();
        touched.sort_unstable();

        let mut out = Spliced {
            offsets: Vec::with_capacity(n + 1),
            neighbors: Vec::with_capacity(layer.num_edges * 2),
            nlf_offsets: Vec::with_capacity(n + 1),
            entries: Vec::with_capacity(layer.base.nlf.csr().1.len() + 64),
            sigs: Vec::with_capacity(n),
        };
        out.offsets.push(0);
        out.nlf_offsets.push(0);
        let mut prev = 0usize;
        for &t in &touched {
            out.copy_run(&layer.base, prev, t);
            out.push_row(layer, t);
            prev = t + 1;
        }
        out.copy_run(&layer.base, prev, base_n);
        for v in base_n..n {
            out.push_row(layer, v);
        }

        let mut labels = Vec::with_capacity(n);
        labels.extend_from_slice(base_labels);
        labels.extend_from_slice(&layer.added_labels);
        let g = Graph::from_csr_unchecked(out.offsets, out.neighbors, labels);
        let nlf = NlfIndex::from_csr_unchecked(out.nlf_offsets, out.entries, out.sigs);
        (g, nlf)
    }
}

/// The arrays [`Snapshot::materialize`] splices: the graph's CSR and the
/// NLF index's CSR plus one signature per row.
struct Spliced {
    offsets: Vec<usize>,
    neighbors: Vec<VertexId>,
    nlf_offsets: Vec<usize>,
    entries: Vec<(Label, u32)>,
    sigs: Vec<u64>,
}

impl Spliced {
    /// Bulk-copy the untouched base run `[a, b)`: row contents and
    /// signatures are identical, so the new offsets are the base offsets
    /// plus however far this view has drifted from the base so far.
    fn copy_run(&mut self, base: &Base, a: usize, b: usize) {
        if a >= b {
            return;
        }
        let (base_off, base_adj, _) = base.graph.csr();
        let shift = self.neighbors.len().wrapping_sub(base_off[a]);
        self.neighbors
            .extend_from_slice(&base_adj[base_off[a]..base_off[b]]);
        self.offsets
            .extend(base_off[a + 1..=b].iter().map(|&o| o.wrapping_add(shift)));
        let (bn_off, bn_entries) = base.nlf.csr();
        let nshift = self.entries.len().wrapping_sub(bn_off[a]);
        self.entries
            .extend_from_slice(&bn_entries[bn_off[a]..bn_off[b]]);
        self.nlf_offsets
            .extend(bn_off[a + 1..=b].iter().map(|&o| o.wrapping_add(nshift)));
        self.sigs.extend_from_slice(&base.nlf.signatures()[a..b]);
    }

    /// Write the view's row of `v` (a patched base vertex or one added
    /// after the base), computing only its signature.
    fn push_row(&mut self, layer: &LayerData, v: usize) {
        self.neighbors
            .extend_from_slice(layer.neighbors_of(v as VertexId));
        self.offsets.push(self.neighbors.len());
        let row = layer.nlf_of(v as VertexId);
        self.entries.extend_from_slice(row);
        self.nlf_offsets.push(self.entries.len());
        self.sigs.push(NlfIndex::signature_of(row));
    }
}

impl GraphView for Snapshot {
    fn num_vertices(&self) -> usize {
        self.layer.n()
    }

    fn num_edges(&self) -> usize {
        self.layer.num_edges
    }

    fn label(&self, v: VertexId) -> Label {
        self.layer.label_of(v)
    }

    fn degree(&self, v: VertexId) -> usize {
        self.layer.neighbors_of(v).len()
    }

    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.layer.neighbors_of(v)
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.layer.has_edge_view(u, v)
    }

    fn nlf_entry(&self, v: VertexId) -> &[(Label, u32)] {
        self.layer.nlf_of(v)
    }

    fn label_frequency(&self, l: Label) -> usize {
        self.layer.bucket(l).len()
    }

    fn vertices_with_label(&self, l: Label) -> &[VertexId] {
        self.layer.bucket(l)
    }
}

/// What one [`VersionedGraph::commit`] actually changed, after
/// normalization (no-ops dropped, vertex deletions expanded into their
/// incident edge deletions, delete+insert pairs cancelled).
#[derive(Clone, Debug)]
pub struct CommitInfo {
    /// Epoch of the post-commit view.
    pub epoch: u64,
    /// Ids assigned to the vertices added by this batch, in batch order.
    pub vertices_added: Vec<VertexId>,
    /// Vertices tombstoned by this batch (sorted).
    pub vertices_deleted: Vec<VertexId>,
    /// Edges that exist after but not before, as `(min, max)`, sorted.
    pub edges_inserted: Vec<(VertexId, VertexId)>,
    /// Edges that exist before but not after, as `(min, max)`, sorted.
    pub edges_deleted: Vec<(VertexId, VertexId)>,
    /// Sorted labels touched by the batch: labels of added/deleted
    /// vertices and of the endpoints of inserted/deleted edges. A cached
    /// plan whose query labels are disjoint from this set is unaffected
    /// by the commit.
    pub affected_labels: Vec<Label>,
}

impl CommitInfo {
    /// Whether the batch changed nothing after normalization.
    pub fn is_noop(&self) -> bool {
        self.vertices_added.is_empty()
            && self.vertices_deleted.is_empty()
            && self.edges_inserted.is_empty()
            && self.edges_deleted.is_empty()
    }
}

/// The result of a commit: the view just before, the view just after,
/// and the normalized delta between them — exactly what the incremental
/// enumeration in [`crate::incremental`] consumes.
pub struct Committed {
    /// View at the pre-commit epoch.
    pub pre: Snapshot,
    /// View at the post-commit epoch.
    pub post: Snapshot,
    /// The normalized delta.
    pub info: CommitInfo,
}

/// Point-in-time statistics of a [`VersionedGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VersionedStats {
    /// Current epoch (bumped by every effective commit).
    pub epoch: u64,
    /// Total vertex ids (live + tombstoned).
    pub num_vertices: usize,
    /// Live undirected edges.
    pub num_edges: usize,
    /// Tombstoned vertex count.
    pub tombstones: usize,
    /// `|E(view) Δ E(base)|` of the current overlay.
    pub delta_edges_live: usize,
    /// Commits applied (effective ones — no-op batches don't count).
    pub commits: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Snapshots handed out via [`VersionedGraph::snapshot`].
    pub snapshots_pinned: u64,
}

struct Inner {
    layer: Arc<LayerData>,
    commits: u64,
    compactions: u64,
    snapshots_pinned: u64,
}

/// A dynamic graph: immutable CSR base, per-epoch overlays, snapshot
/// isolation, and threshold-triggered compaction.
///
/// Single writer (commits serialize on an internal lock), any number of
/// concurrent readers via [`VersionedGraph::snapshot`].
pub struct VersionedGraph {
    inner: Mutex<Inner>,
    threshold: usize,
}

fn norm(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

impl VersionedGraph {
    /// Wrap `graph` as epoch 0 with the default compaction threshold
    /// (`max(1024, |E|/4)` overlay entries).
    pub fn new(graph: Graph) -> Self {
        let threshold = (graph.num_edges() / 4).max(1024);
        Self::with_threshold(graph, threshold)
    }

    /// Wrap `graph` with an explicit compaction threshold: the overlay is
    /// folded into a fresh base whenever `delta_edges_live + added
    /// vertices` exceeds `threshold` after a commit.
    pub fn with_threshold(graph: Graph, threshold: usize) -> Self {
        let nlf = graph.build_nlf();
        let num_edges = graph.num_edges();
        let layer = LayerData {
            base: Arc::new(Base { graph, nlf }),
            epoch: 0,
            adj: HashMap::new(),
            nlf: HashMap::new(),
            label_buckets: HashMap::new(),
            added_labels: Arc::new(Vec::new()),
            tombstones: Arc::new(HashSet::new()),
            num_edges,
            delta_edges_live: 0,
        };
        VersionedGraph {
            inner: Mutex::new(Inner {
                layer: Arc::new(layer),
                commits: 0,
                compactions: 0,
                snapshots_pinned: 0,
            }),
            threshold,
        }
    }

    /// Wrap an already-materialized CSR + NLF pair as epoch 0 — the
    /// recovery path of `sm-durable`, where the snapshot file stores both
    /// arrays and neither index should be recomputed. Uses the default
    /// compaction threshold.
    pub fn from_materialized(graph: Graph, nlf: NlfIndex) -> Self {
        let threshold = (graph.num_edges() / 4).max(1024);
        let num_edges = graph.num_edges();
        let layer = LayerData {
            base: Arc::new(Base { graph, nlf }),
            epoch: 0,
            adj: HashMap::new(),
            nlf: HashMap::new(),
            label_buckets: HashMap::new(),
            added_labels: Arc::new(Vec::new()),
            tombstones: Arc::new(HashSet::new()),
            num_edges,
            delta_edges_live: 0,
        };
        VersionedGraph {
            inner: Mutex::new(Inner {
                layer: Arc::new(layer),
                commits: 0,
                compactions: 0,
                snapshots_pinned: 0,
            }),
            threshold,
        }
    }

    /// Materialize the current head into a standalone CSR graph and NLF
    /// index without pinning a snapshot — the export hook the durability
    /// layer uses when writing an on-disk snapshot. Returns the head
    /// epoch alongside the folded arrays; `snapshots_pinned` is not
    /// bumped because nothing stays pinned after the fold.
    pub fn export_head(&self) -> (u64, Graph, NlfIndex) {
        let layer = self.inner.lock().unwrap().layer.clone();
        let epoch = layer.epoch;
        let (graph, nlf) = Snapshot { layer }.materialize();
        (epoch, graph, nlf)
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().unwrap().layer.epoch
    }

    /// Pin the current epoch. O(1); the snapshot stays consistent across
    /// later commits and compactions.
    pub fn snapshot(&self) -> Snapshot {
        let mut inner = self.inner.lock().unwrap();
        inner.snapshots_pinned += 1;
        Snapshot {
            layer: inner.layer.clone(),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> VersionedStats {
        let inner = self.inner.lock().unwrap();
        VersionedStats {
            epoch: inner.layer.epoch,
            num_vertices: inner.layer.n(),
            num_edges: inner.layer.num_edges,
            tombstones: inner.layer.tombstones.len(),
            delta_edges_live: inner.layer.delta_edges_live,
            commits: inner.commits,
            compactions: inner.compactions,
            snapshots_pinned: inner.snapshots_pinned,
        }
    }

    /// Fold the current overlay into a fresh base now, regardless of the
    /// threshold. Returns `false` if the overlay was already empty.
    pub fn compact(&self) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if inner.layer.delta_edges_live == 0 && inner.layer.added_labels.is_empty() {
            return false;
        }
        Self::compact_locked(&mut inner);
        true
    }

    fn compact_locked(inner: &mut Inner) {
        let snap = Snapshot {
            layer: inner.layer.clone(),
        };
        let (graph, nlf) = snap.materialize();
        let tombstones = inner.layer.tombstones.clone();
        // Tombstones persist as isolated vertices in the new base, whose
        // label index therefore includes them; re-patch their buckets so
        // the view's label buckets stay tombstone-free across compaction.
        let tomb_labels: BTreeSet<Label> = tombstones.iter().map(|&v| graph.label(v)).collect();
        let mut label_buckets = HashMap::new();
        for l in tomb_labels {
            let b: Vec<VertexId> = graph
                .vertices_with_label(l)
                .iter()
                .copied()
                .filter(|v| !tombstones.contains(v))
                .collect();
            label_buckets.insert(l, Arc::new(b));
        }
        let num_edges = graph.num_edges();
        inner.layer = Arc::new(LayerData {
            base: Arc::new(Base { graph, nlf }),
            epoch: inner.layer.epoch,
            adj: HashMap::new(),
            nlf: HashMap::new(),
            label_buckets,
            added_labels: Arc::new(Vec::new()),
            tombstones,
            num_edges,
            delta_edges_live: 0,
        });
        inner.compactions += 1;
    }

    /// Commit `batch` atomically, producing the next epoch.
    ///
    /// Normalization: vertex additions first (ids assigned densely from
    /// the current count), then edge deletions — explicit ones plus every
    /// edge incident to a deleted vertex — then edge insertions.
    /// Self-loops, duplicates, deletions of absent edges, insertions of
    /// present edges, edges referencing tombstoned or out-of-range
    /// endpoints, and delete+insert pairs of the same present edge all
    /// normalize away. A batch that changes nothing returns with
    /// `pre`/`post` at the same epoch and an empty [`CommitInfo`].
    pub fn commit(&self, batch: &UpdateBatch) -> Committed {
        let mut inner = self.inner.lock().unwrap();
        let pre = Snapshot {
            layer: inner.layer.clone(),
        };
        let old = &pre.layer;
        let base_n = old.base_n();
        let n0 = old.n();

        // Vertex additions: ids n0..n0+k in batch order.
        let vertices_added: Vec<VertexId> = (0..batch.add_vertices.len())
            .map(|i| (n0 + i) as VertexId)
            .collect();
        let n1 = n0 + vertices_added.len();

        // Vertex deletions: existing, live, deduplicated.
        let mut vertices_deleted: Vec<VertexId> = batch
            .delete_vertices
            .iter()
            .copied()
            .filter(|&v| (v as usize) < n0 && !old.is_tombstoned(v))
            .collect();
        vertices_deleted.sort_unstable();
        vertices_deleted.dedup();
        let del_verts: HashSet<VertexId> = vertices_deleted.iter().copied().collect();

        // Edge deletions: explicit ones that exist, plus all edges
        // incident to a deleted vertex.
        let mut deleted: HashSet<(VertexId, VertexId)> = HashSet::new();
        for &(u, v) in &batch.delete_edges {
            if u == v {
                continue;
            }
            let e = norm(u, v);
            if (e.1 as usize) < n0 && old.has_edge_view(e.0, e.1) {
                deleted.insert(e);
            }
        }
        for &v in &vertices_deleted {
            for &w in old.neighbors_of(v) {
                deleted.insert(norm(v, w));
            }
        }

        // Edge insertions: live endpoints, not already present after the
        // deletions above. A delete+insert pair of a present edge cancels.
        let mut inserted: Vec<(VertexId, VertexId)> = Vec::new();
        let mut ins_seen: HashSet<(VertexId, VertexId)> = HashSet::new();
        for &(u, v) in &batch.add_edges {
            if u == v {
                continue;
            }
            let e = norm(u, v);
            if (e.1 as usize) >= n1
                || del_verts.contains(&e.0)
                || del_verts.contains(&e.1)
                || old.is_tombstoned(e.0)
                || old.is_tombstoned(e.1)
                || !ins_seen.insert(e)
            {
                continue;
            }
            if deleted.remove(&e) {
                continue; // present, deleted, re-inserted: net no-op
            }
            if (e.1 as usize) < n0 && old.has_edge_view(e.0, e.1) {
                continue;
            }
            inserted.push(e);
        }
        let mut edges_deleted: Vec<(VertexId, VertexId)> = deleted.into_iter().collect();
        edges_deleted.sort_unstable();
        inserted.sort_unstable();
        let edges_inserted = inserted;

        if vertices_added.is_empty()
            && vertices_deleted.is_empty()
            && edges_inserted.is_empty()
            && edges_deleted.is_empty()
        {
            let info = CommitInfo {
                epoch: old.epoch,
                vertices_added,
                vertices_deleted,
                edges_inserted,
                edges_deleted,
                affected_labels: Vec::new(),
            };
            return Committed {
                post: pre.clone(),
                pre,
                info,
            };
        }

        // --- Apply: copy-on-write per touched vertex / label. ---
        let mut adj = old.adj.clone();
        let mut nlf = old.nlf.clone();
        let mut label_buckets = old.label_buckets.clone();

        let added_labels: Arc<Vec<Label>> = if batch.add_vertices.is_empty() {
            old.added_labels.clone()
        } else {
            let mut a = (*old.added_labels).clone();
            a.extend(batch.add_vertices.iter().copied());
            Arc::new(a)
        };
        let tombstones: Arc<HashSet<VertexId>> = if vertices_deleted.is_empty() {
            old.tombstones.clone()
        } else {
            let mut t = (*old.tombstones).clone();
            t.extend(vertices_deleted.iter().copied());
            Arc::new(t)
        };

        let label_of = |w: VertexId| -> Label {
            if (w as usize) < base_n {
                old.base.graph.label(w)
            } else {
                added_labels[(w as usize) - base_n]
            }
        };

        // Per-vertex adjacency deltas from the effective edge sets.
        let mut touched: BTreeMap<VertexId, (Vec<VertexId>, Vec<VertexId>)> = BTreeMap::new();
        for &(u, v) in &edges_inserted {
            touched.entry(u).or_default().0.push(v);
            touched.entry(v).or_default().0.push(u);
        }
        for &(u, v) in &edges_deleted {
            touched.entry(u).or_default().1.push(v);
            touched.entry(v).or_default().1.push(u);
        }
        // Added and deleted vertices get explicit (possibly empty) rows.
        for &v in vertices_added.iter().chain(&vertices_deleted) {
            touched.entry(v).or_default();
        }

        for (&v, (add, rem)) in &touched {
            let mut list: Vec<VertexId> = if (v as usize) < n0 {
                old.neighbors_of(v).to_vec()
            } else {
                Vec::new()
            };
            if !rem.is_empty() {
                let rs: HashSet<VertexId> = rem.iter().copied().collect();
                list.retain(|w| !rs.contains(w));
            }
            list.extend(add.iter().copied());
            list.sort_unstable();
            // Incremental NLF maintenance: adjust this row by the labels
            // of the neighbors that arrived or left.
            let old_row = if (v as usize) < n0 {
                old.nlf_of(v)
            } else {
                &[]
            };
            let mut counts: BTreeMap<Label, i64> =
                old_row.iter().map(|&(l, c)| (l, c as i64)).collect();
            for &w in add.iter() {
                *counts.entry(label_of(w)).or_insert(0) += 1;
            }
            for &w in rem.iter() {
                *counts.entry(label_of(w)).or_insert(0) -= 1;
            }
            let row: Vec<(Label, u32)> = counts
                .into_iter()
                .filter(|&(_, c)| c > 0)
                .map(|(l, c)| (l, c as u32))
                .collect();
            adj.insert(v, Arc::new(list));
            nlf.insert(v, Arc::new(row));
        }

        // Label buckets: append added ids (always larger than any live
        // id, so buckets stay sorted), drop deleted ids.
        let mut bucket_add: BTreeMap<Label, Vec<VertexId>> = BTreeMap::new();
        for (i, &l) in batch.add_vertices.iter().enumerate() {
            bucket_add.entry(l).or_default().push((n0 + i) as VertexId);
        }
        let mut bucket_del: BTreeMap<Label, HashSet<VertexId>> = BTreeMap::new();
        for &v in &vertices_deleted {
            bucket_del.entry(label_of(v)).or_default().insert(v);
        }
        let bucket_labels: BTreeSet<Label> = bucket_add
            .keys()
            .chain(bucket_del.keys())
            .copied()
            .collect();
        for l in bucket_labels {
            let mut b: Vec<VertexId> = old.bucket(l).to_vec();
            if let Some(dead) = bucket_del.get(&l) {
                b.retain(|v| !dead.contains(v));
            }
            if let Some(new_ids) = bucket_add.get(&l) {
                b.extend(new_ids.iter().copied());
            }
            label_buckets.insert(l, Arc::new(b));
        }

        // Overlay footprint relative to the base.
        let in_base = |e: (VertexId, VertexId)| -> bool {
            (e.1 as usize) < base_n && old.base.graph.has_edge(e.0, e.1)
        };
        let mut dl = old.delta_edges_live as i64;
        for &e in &edges_inserted {
            dl += if in_base(e) { -1 } else { 1 };
        }
        for &e in &edges_deleted {
            dl += if in_base(e) { 1 } else { -1 };
        }
        debug_assert!(dl >= 0);

        let affected_labels: BTreeSet<Label> = batch
            .add_vertices
            .iter()
            .copied()
            .chain(vertices_deleted.iter().map(|&v| label_of(v)))
            .chain(
                edges_inserted
                    .iter()
                    .chain(&edges_deleted)
                    .flat_map(|&(u, v)| [label_of(u), label_of(v)]),
            )
            .collect();

        let epoch = old.epoch + 1;
        let num_edges = old.num_edges + edges_inserted.len() - edges_deleted.len();
        let new_layer = Arc::new(LayerData {
            base: old.base.clone(),
            epoch,
            adj,
            nlf,
            label_buckets,
            added_labels,
            tombstones,
            num_edges,
            delta_edges_live: dl as usize,
        });
        let post = Snapshot {
            layer: new_layer.clone(),
        };
        inner.layer = new_layer;
        inner.commits += 1;

        let overlay = inner.layer.delta_edges_live + inner.layer.added_labels.len();
        if overlay > self.threshold {
            Self::compact_locked(&mut inner);
        }

        Committed {
            pre,
            post,
            info: CommitInfo {
                epoch,
                vertices_added,
                vertices_deleted,
                edges_inserted,
                edges_deleted,
                affected_labels: affected_labels.into_iter().collect(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_graph::builder::graph_from_edges;

    fn path4() -> Graph {
        // 0 - 1 - 2 - 3, labels A B A B
        graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn edge_insert_updates_view_and_indexes() {
        let vg = VersionedGraph::new(path4());
        let c = vg.commit(&UpdateBatch::new().add_edge(0, 3));
        assert_eq!(c.info.edges_inserted, vec![(0, 3)]);
        assert!(c.info.edges_deleted.is_empty());
        let s = vg.snapshot();
        assert_eq!(s.epoch(), 1);
        assert!(s.has_edge(0, 3));
        assert_eq!(s.num_edges(), 4);
        assert_eq!(s.neighbors(0), &[1, 3]);
        assert_eq!(s.neighbors(3), &[0, 2]);
        // NLF rows patched incrementally: 0 gained a B neighbor.
        assert_eq!(s.nlf_entry(0), &[(1, 2)]);
        assert_eq!(s.nlf_entry(3), &[(0, 2)]);
        // Pre-commit view unchanged.
        assert!(!c.pre.has_edge(0, 3));
        assert_eq!(c.pre.nlf_entry(0), &[(1, 1)]);
        assert_eq!(c.info.affected_labels, vec![0, 1]);
    }

    #[test]
    fn edge_delete_and_noop_normalization() {
        let vg = VersionedGraph::new(path4());
        let c = vg.commit(
            &UpdateBatch::new()
                .delete_edge(2, 1) // present (normalized to (1,2))
                .delete_edge(0, 3) // absent: no-op
                .add_edge(0, 1) // present: no-op
                .add_edge(1, 1) // self-loop: no-op
                .add_edge(0, 99), // out of range: no-op
        );
        assert_eq!(c.info.edges_deleted, vec![(1, 2)]);
        assert!(c.info.edges_inserted.is_empty());
        let s = vg.snapshot();
        assert!(!s.has_edge(1, 2));
        assert_eq!(s.num_edges(), 2);
        assert_eq!(s.nlf_entry(1), &[(0, 1)]);
    }

    #[test]
    fn delete_insert_pair_cancels() {
        let vg = VersionedGraph::new(path4());
        let c = vg.commit(&UpdateBatch::new().delete_edge(0, 1).add_edge(1, 0));
        assert!(c.info.is_noop());
        assert_eq!(vg.epoch(), 0, "no-op batches do not bump the epoch");
        assert!(vg.snapshot().has_edge(0, 1));
    }

    #[test]
    fn vertex_add_gets_dense_ids_and_bucket() {
        let vg = VersionedGraph::new(path4());
        let c = vg.commit(
            &UpdateBatch::new()
                .add_vertex(0)
                .add_vertex(2)
                .add_edge(4, 1),
        );
        assert_eq!(c.info.vertices_added, vec![4, 5]);
        let s = vg.snapshot();
        assert_eq!(s.num_vertices(), 6);
        assert_eq!(s.label(4), 0);
        assert_eq!(s.label(5), 2);
        assert_eq!(s.vertices_with_label(0), &[0, 2, 4]);
        assert_eq!(s.vertices_with_label(2), &[5]);
        assert_eq!(s.label_frequency(2), 1);
        assert_eq!(s.neighbors(4), &[1]);
        assert_eq!(s.degree(5), 0);
        assert_eq!(s.nlf_entry(4), &[(1, 1)]);
        // vertex 1 gained an A neighbor
        assert_eq!(s.nlf_entry(1), &[(0, 3)]);
    }

    #[test]
    fn vertex_delete_tombstones_and_drops_incident_edges() {
        let vg = VersionedGraph::new(path4());
        let c = vg.commit(&UpdateBatch::new().delete_vertex(1));
        assert_eq!(c.info.vertices_deleted, vec![1]);
        assert_eq!(c.info.edges_deleted, vec![(0, 1), (1, 2)]);
        let s = vg.snapshot();
        assert!(s.is_tombstoned(1));
        assert_eq!(s.num_vertices(), 4, "ids are stable");
        assert_eq!(s.degree(1), 0);
        assert!(s.neighbors(1).is_empty());
        assert_eq!(s.vertices_with_label(1), &[3]);
        assert_eq!(s.num_edges(), 1);
        assert_eq!(s.nlf_entry(0), &[] as &[(Label, u32)]);
        // Edges to a tombstone are rejected.
        let c2 = vg.commit(&UpdateBatch::new().add_edge(0, 1));
        assert!(c2.info.is_noop());
    }

    #[test]
    fn snapshots_pin_their_epoch() {
        let vg = VersionedGraph::new(path4());
        let s0 = vg.snapshot();
        vg.commit(&UpdateBatch::new().delete_edge(0, 1).add_edge(0, 2));
        let s1 = vg.snapshot();
        assert_eq!((s0.epoch(), s1.epoch()), (0, 1));
        assert!(s0.has_edge(0, 1) && !s0.has_edge(0, 2));
        assert!(!s1.has_edge(0, 1) && s1.has_edge(0, 2));
        assert_eq!(s0.num_edges(), 3);
        assert_eq!(s1.num_edges(), 3);
    }

    #[test]
    fn materialize_round_trips() {
        let vg = VersionedGraph::new(path4());
        vg.commit(
            &UpdateBatch::new()
                .add_vertex(1)
                .add_edge(4, 0)
                .add_edge(4, 2)
                .delete_edge(1, 2),
        );
        let s = vg.snapshot();
        let (g, nlf) = s.materialize();
        assert_eq!(g.num_vertices(), s.num_vertices());
        assert_eq!(g.num_edges(), s.num_edges());
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(g.neighbors(v), s.neighbors(v));
            assert_eq!(g.label(v), s.label(v));
            assert_eq!(nlf.entry(v), s.nlf_entry(v));
        }
        let fresh = g.build_nlf();
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(nlf.entry(v), fresh.entry(v));
        }
    }

    #[test]
    fn compaction_preserves_the_view() {
        let vg = VersionedGraph::with_threshold(path4(), 2);
        // 3 delta edges + 1 added vertex > 2 → compacts.
        let c = vg.commit(
            &UpdateBatch::new()
                .add_vertex(0)
                .add_edge(4, 1)
                .add_edge(0, 2)
                .delete_edge(2, 3),
        );
        let st = vg.stats();
        assert_eq!(st.compactions, 1);
        assert_eq!(st.delta_edges_live, 0);
        let s = vg.snapshot();
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.num_vertices(), 5);
        assert!(s.has_edge(4, 1) && s.has_edge(0, 2) && !s.has_edge(2, 3));
        // The post snapshot from before compaction agrees exactly.
        for v in 0..5 {
            assert_eq!(s.neighbors(v), c.post.neighbors(v));
            assert_eq!(s.nlf_entry(v), c.post.nlf_entry(v));
        }
    }

    #[test]
    fn compaction_keeps_tombstones_out_of_buckets() {
        let vg = VersionedGraph::with_threshold(path4(), 1);
        vg.commit(&UpdateBatch::new().delete_vertex(0).add_edge(1, 3));
        let st = vg.stats();
        assert_eq!(st.compactions, 1);
        let s = vg.snapshot();
        assert!(s.is_tombstoned(0));
        assert_eq!(s.vertices_with_label(0), &[2]);
        assert_eq!(s.label_frequency(0), 1);
        assert_eq!(s.label(0), 0, "tombstones keep their label");
        // Still cannot connect to a tombstone after compaction.
        assert!(vg.commit(&UpdateBatch::new().add_edge(0, 2)).info.is_noop());
    }

    #[test]
    fn forced_compact_and_stats() {
        let vg = VersionedGraph::new(path4());
        assert!(!vg.compact(), "empty overlay: nothing to fold");
        vg.commit(&UpdateBatch::new().add_edge(0, 3));
        let _ = vg.snapshot();
        assert!(vg.compact());
        let st = vg.stats();
        assert_eq!(st.epoch, 1);
        assert_eq!(st.commits, 1);
        assert_eq!(st.compactions, 1);
        assert_eq!(st.snapshots_pinned, 1);
        assert_eq!(st.delta_edges_live, 0);
        assert_eq!(st.num_edges, 4);
    }
}
