//! [`VersionedGraph`]: an immutable CSR base plus per-epoch overlays.
//!
//! # Layout
//!
//! The base is a plain [`sm_graph::Graph`] together with its
//! [`sm_graph::NlfIndex`], both built exactly once. Every committed
//! [`UpdateBatch`] produces a new *cumulative* overlay: the patched
//! adjacency + NLF rows in copy-on-write pages of vertices, each row an
//! `Arc` shared with the previous overlay unless this commit touched it.
//! The next overlay copies one pointer per page and rewrites only the
//! pages the batch touches, so a commit costs O(batch + |V| / page)
//! however many rows earlier commits patched. A [`Snapshot`] is one `Arc`
//! to one overlay, so pinning an epoch is O(1) and every read is two
//! array reads into the pages before falling through to the base arrays.
//!
//! # Incremental index maintenance
//!
//! Commits never rebuild an index. The NLF row of a vertex is adjusted
//! by the labels of the neighbors that arrived or left; all untouched
//! rows keep pointing into the base. The overlay keeps no label index:
//! nothing reads one off a view, and [`Snapshot::materialize`] builds the
//! folded graph's from its labels.
//!
//! # Epochs
//!
//! A graph counts its epochs from the one it was built at:
//! [`VersionedGraph::new`] starts at 0, and
//! [`VersionedGraph::from_materialized`] at the epoch its caller names —
//! a service seeds its twin at its own epoch, so a snapshot, a commit
//! and the service report one number.
//!
//! # Back to CSR: one splice kernel, two callers
//!
//! A view goes back to flat CSR + NLF arrays through one kernel
//! (`splice`): bulk-copy the rows of a source pair of arrays that the
//! view did not change, rewrite the rows it did, append the vertices
//! the source lacks. No row is re-scanned and no index is rebuilt.
//! - [`Snapshot::materialize`] splices the *base* with every row the
//!   overlay patched, so its cost grows with the overlay's age.
//!   Recovery (once per replayed run of batches), export and compaction
//!   use it.
//! - [`Committed::splice_post`] splices the *pre* epoch's arrays, which
//!   a service installed last time, with only the rows this commit
//!   touched: O(|V| + |E|) of memcpy plus O(batch) per install, however
//!   old the overlay is.
//!
//! The overlay stays although installs no longer read the base through
//! it: it is what makes pinning an epoch an `Arc` bump instead of a
//! copy of the graph, and it is how the incremental engine reads the
//! pre and post views of a commit.
//!
//! # Compaction
//!
//! When the overlay grows past a threshold (measured in delta edges plus
//! added vertices), the current view is folded into a fresh base and the
//! overlay resets to empty. Compaction changes no observable state —
//! snapshots taken earlier keep their old `Arc` and stay exactly
//! consistent. Tombstoned vertices survive compaction as isolated
//! vertices that keep their label, so the view's semantics do not depend
//! on how often compaction ran.

use crate::batch::UpdateBatch;
use sm_graph::{Graph, Label, NlfIndex, VertexId};
use sm_match::ChangeSet;
use sm_runtime::trace::{Counter, CounterBlock};
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};

/// The immutable foundation of a [`VersionedGraph`]: a CSR graph and its
/// NLF index, built once per compaction cycle.
struct Base {
    graph: Graph,
    nlf: NlfIndex,
}

/// Vertices per page of [`Patched`].
const PAGE: usize = 128;

/// One patched vertex: its sorted adjacency and its NLF row.
struct Row {
    adj: Vec<VertexId>,
    nlf: Vec<(Label, u32)>,
}

/// An overlay's patched rows, in copy-on-write pages of [`PAGE`] vertex
/// ids. Cloning copies one `Arc` per page; [`Patched::insert`] copies
/// the one page it writes if an older overlay still shares it.
#[derive(Clone, Default)]
struct Patched {
    pages: Vec<Option<Arc<Page>>>,
}

/// [`PAGE`] consecutive vertex ids, `None` where a vertex is unpatched.
type Page = Vec<Option<Arc<Row>>>;

impl Patched {
    fn get(&self, v: VertexId) -> Option<&Row> {
        let v = v as usize;
        self.pages.get(v / PAGE)?.as_ref()?[v % PAGE].as_deref()
    }

    fn insert(&mut self, v: VertexId, row: Row) {
        let v = v as usize;
        if self.pages.len() <= v / PAGE {
            self.pages.resize(v / PAGE + 1, None);
        }
        let page = self.pages[v / PAGE].get_or_insert_with(|| Arc::new(vec![None; PAGE]));
        Arc::make_mut(page)[v % PAGE] = Some(Arc::new(row));
    }

    /// The patched vertex ids, ascending.
    fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        let pages = self.pages.iter().enumerate();
        pages
            .filter_map(|(p, page)| Some((p * PAGE, page.as_ref()?)))
            .flat_map(|(first, page)| {
                let rows = page.iter().enumerate();
                rows.filter_map(move |(i, row)| row.as_ref().map(|_| first + i))
            })
    }
}

/// One cumulative overlay over a [`Base`]. Immutable once published; a
/// [`Snapshot`] is an `Arc` to one of these.
pub(crate) struct LayerData {
    base: Arc<Base>,
    epoch: u64,
    /// Patched adjacency and NLF row per touched vertex (tombstones and
    /// vertices added after the base always have one).
    rows: Patched,
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
}

/// A pinned, immutable view of a [`VersionedGraph`] at one epoch.
///
/// Cloning is an `Arc` bump; every read looks the vertex up in the
/// overlay's pages before falling through to the base CSR. These readers
/// are the only ones: a commit and the splice kernel read through them
/// too. A snapshot stays valid (and unchanged) across later commits and
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

    /// Whether vertex `v` has been deleted (degree 0, id never reused).
    pub fn is_tombstoned(&self, v: VertexId) -> bool {
        self.layer.tombstones.contains(&v)
    }

    /// Number of vertices (tombstoned ids included — ids are stable).
    pub fn num_vertices(&self) -> usize {
        self.layer.base_n() + self.layer.added_labels.len()
    }

    /// Number of undirected edges currently live.
    pub fn num_edges(&self) -> usize {
        self.layer.num_edges
    }

    /// Label of vertex `v`.
    pub fn label(&self, v: VertexId) -> Label {
        let (layer, v) = (&*self.layer, v as usize);
        match v.checked_sub(layer.base_n()) {
            None => layer.base.graph.label(v as VertexId),
            Some(i) => layer.added_labels[i],
        }
    }

    /// Degree of `v` (0 for tombstones).
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Sorted neighbor list of `v`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let layer = &*self.layer;
        if let Some(r) = layer.rows.get(v) {
            &r.adj
        } else if (v as usize) < layer.base_n() {
            layer.base.graph.neighbors(v)
        } else {
            &[]
        }
    }

    /// Whether the undirected edge `(u, v)` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (nu, nv) = (self.neighbors(u), self.neighbors(v));
        let (list, key) = if nu.len() <= nv.len() {
            (nu, v)
        } else {
            (nv, u)
        };
        list.binary_search(&key).is_ok()
    }

    /// Sorted `(label, count)` pairs describing `N(v)`'s label multiset —
    /// the NLF row of `v`, patched per commit rather than rebuilt.
    pub fn nlf_entry(&self, v: VertexId) -> &[(Label, u32)] {
        let layer = &*self.layer;
        if let Some(r) = layer.rows.get(v) {
            &r.nlf
        } else if (v as usize) < layer.base_n() {
            layer.base.nlf.entry(v)
        } else {
            &[]
        }
    }

    /// Fold this view into a standalone CSR graph plus its NLF index.
    ///
    /// The graph keeps tombstoned vertices as isolated vertices carrying
    /// their original label, so vertex ids are stable; connected queries
    /// (degree ≥ 1 everywhere) cannot match them. The arrays are spliced
    /// from the base's by the one splice kernel: every row the overlay
    /// patched is rewritten, every other row is bulk-copied, so the cost
    /// grows with the overlay's age until the next compaction. A service
    /// installs each epoch from the last one instead
    /// ([`Committed::splice_post`]); this fold is for recovery, export
    /// and compaction.
    pub fn materialize(&self) -> (Graph, NlfIndex) {
        let base = &self.layer.base;
        let base_n = base.graph.num_vertices();
        let touched: Vec<usize> = self.layer.rows.ids().take_while(|&v| v < base_n).collect();
        splice(&base.graph, &base.nlf, &touched, self)
    }
}

/// The one splice kernel behind [`Snapshot::materialize`] and
/// [`Committed::splice_post`]: assemble `view`'s CSR graph and NLF index
/// from a source pair (`graph`, `nlf`) whose rows equal the view's
/// everywhere except at `touched` (sorted, distinct, all below the
/// source's vertex count) and at the ids the source lacks (`src_n..n`,
/// vertices added since). Maximal runs of untouched source rows are
/// bulk-copied with their offsets shifted; only the touched and the new
/// rows are read from the view, and only their NLF signatures are
/// computed; the label index is the source's, extended by the added
/// vertices. Every output array is allocated at its exact final length,
/// so the splice never reallocates.
fn splice(graph: &Graph, nlf: &NlfIndex, touched: &[usize], view: &Snapshot) -> (Graph, NlfIndex) {
    let (src_n, n) = (graph.num_vertices(), view.num_vertices());
    let row = |v: usize| view.nlf_entry(v as VertexId).len();
    let dropped: usize = touched
        .iter()
        .map(|&t| nlf.entry(t as VertexId).len())
        .sum();
    let written: usize =
        touched.iter().map(|&t| row(t)).sum::<usize>() + (src_n..n).map(row).sum::<usize>();
    let mut out = Spliced {
        offsets: Vec::with_capacity(n + 1),
        neighbors: Vec::with_capacity(view.num_edges() * 2),
        nlf_offsets: Vec::with_capacity(n + 1),
        entries: Vec::with_capacity(nlf.csr().1.len() - dropped + written),
        sigs: Vec::with_capacity(n),
    };
    out.offsets.push(0);
    out.nlf_offsets.push(0);
    let mut prev = 0usize;
    for &t in touched {
        out.copy_run(graph, nlf, prev, t);
        out.push_row(view, t);
        prev = t + 1;
    }
    out.copy_run(graph, nlf, prev, src_n);
    for v in src_n..n {
        out.push_row(view, v);
    }
    debug_assert_eq!(out.neighbors.len(), out.neighbors.capacity());
    debug_assert_eq!(out.entries.len(), out.entries.capacity());

    let mut labels = Vec::with_capacity(n);
    labels.extend_from_slice(graph.csr().2);
    labels.extend((src_n..n).map(|v| view.label(v as VertexId)));
    let index = graph.label_index().extended(&labels);
    let g = Graph::from_csr_unchecked(out.offsets, out.neighbors, labels, index);
    let nlf = NlfIndex::from_csr_unchecked(out.nlf_offsets, out.entries, out.sigs);
    (g, nlf)
}

/// The arrays [`splice`] assembles: the graph's CSR and the NLF index's
/// CSR plus one signature per row.
struct Spliced {
    offsets: Vec<usize>,
    neighbors: Vec<VertexId>,
    nlf_offsets: Vec<usize>,
    entries: Vec<(Label, u32)>,
    sigs: Vec<u64>,
}

impl Spliced {
    /// Bulk-copy the untouched source run `[a, b)`: row contents and
    /// signatures are identical, so the new offsets are the source
    /// offsets plus however far the output has drifted from the source
    /// so far.
    fn copy_run(&mut self, graph: &Graph, nlf: &NlfIndex, a: usize, b: usize) {
        if a >= b {
            return;
        }
        let (src_off, src_adj, _) = graph.csr();
        let shift = self.neighbors.len().wrapping_sub(src_off[a]);
        self.neighbors
            .extend_from_slice(&src_adj[src_off[a]..src_off[b]]);
        self.offsets
            .extend(src_off[a + 1..=b].iter().map(|&o| o.wrapping_add(shift)));
        let (sn_off, sn_entries) = nlf.csr();
        let nshift = self.entries.len().wrapping_sub(sn_off[a]);
        self.entries
            .extend_from_slice(&sn_entries[sn_off[a]..sn_off[b]]);
        self.nlf_offsets
            .extend(sn_off[a + 1..=b].iter().map(|&o| o.wrapping_add(nshift)));
        self.sigs.extend_from_slice(&nlf.signatures()[a..b]);
    }

    /// Write the view's row of `v` (a touched source vertex or one the
    /// source lacks), computing only its signature.
    fn push_row(&mut self, view: &Snapshot, v: usize) {
        self.neighbors
            .extend_from_slice(view.neighbors(v as VertexId));
        self.offsets.push(self.neighbors.len());
        let row = view.nlf_entry(v as VertexId);
        self.entries.extend_from_slice(row);
        self.nlf_offsets.push(self.entries.len());
        self.sigs.push(NlfIndex::signature_of(row));
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

impl Committed {
    /// Splice the post epoch's CSR graph and NLF index from the *pre*
    /// epoch's arrays, `graph` and `nlf`, which the caller installed
    /// last time: only the rows this commit touched are rewritten — the
    /// endpoints of the inserted and deleted edges, the deleted vertices,
    /// and the added vertices appended at the end — and every other row
    /// is bulk-copied. The cost is O(|V| + |E|) of memcpy plus O(batch),
    /// however old the overlay is. The result equals
    /// `self.post.materialize()` row for row.
    ///
    /// # Panics
    ///
    /// If `graph` / `nlf` do not have the pre epoch's shape (vertex,
    /// edge and NLF row counts): a caller holding some other epoch's
    /// arrays would otherwise install a silently wrong graph.
    pub fn splice_post(&self, graph: &Graph, nlf: &NlfIndex) -> (Graph, NlfIndex) {
        let pre_n = self.pre.num_vertices();
        assert!(
            graph.num_vertices() == pre_n
                && graph.num_edges() == self.pre.num_edges()
                && nlf.signatures().len() == pre_n,
            "splice_post: the arrays are not the pre epoch's"
        );
        let touched: Vec<usize> = self
            .touched()
            .into_iter()
            .map(|v| v as usize)
            .take_while(|&v| v < pre_n)
            .collect();
        splice(graph, nlf, &touched, &self.post)
    }

    /// The vertices whose row this commit changed, ascending: the
    /// endpoints of the inserted and deleted edges, the deleted vertices
    /// and the added ones.
    pub fn touched(&self) -> Vec<VertexId> {
        let info = &self.info;
        let mut touched: Vec<VertexId> = info
            .edges_inserted
            .iter()
            .chain(&info.edges_deleted)
            .flat_map(|&(u, v)| [u, v])
            .chain(info.vertices_deleted.iter().copied())
            .chain(info.vertices_added.iter().copied())
            .collect();
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// This commit's [`ChangeSet`]: every touched vertex with its degree
    /// and NLF row at the pre epoch, absent for the added ones — what
    /// [`sm_match::Pipeline::patch`] needs to bring a plan across it.
    pub fn changes(&self) -> ChangeSet {
        let pre = &self.pre;
        ChangeSet::new(self.touched().into_iter().map(|v| {
            let row =
                ((v as usize) < pre.num_vertices()).then(|| (pre.degree(v), pre.nlf_entry(v)));
            (v, row)
        }))
    }
}

struct Inner {
    layer: Arc<LayerData>,
    /// `snapshots_pinned` and `compactions`.
    counters: CounterBlock,
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
        let nlf = graph.build_nlf();
        Self::from_materialized(graph, nlf, 0)
    }

    /// Wrap `graph` as epoch 0 with an explicit compaction threshold: the
    /// overlay is folded into a fresh base whenever `delta_edges_live +
    /// added vertices` exceeds `threshold` after a commit.
    pub fn with_threshold(graph: Graph, threshold: usize) -> Self {
        let nlf = graph.build_nlf();
        Self::from_base(Base { graph, nlf }, threshold, 0)
    }

    /// Wrap an already-built CSR + NLF pair as `epoch`, with the default
    /// compaction threshold: the install path of a service, which built
    /// the NLF index for its own compiles and seeds its twin at its own
    /// epoch, and the recovery path of `sm-durable`, whose snapshot file
    /// stores both arrays and the epoch. Neither index is recomputed.
    pub fn from_materialized(graph: Graph, nlf: NlfIndex, epoch: u64) -> Self {
        let threshold = (graph.num_edges() / 4).max(1024);
        Self::from_base(Base { graph, nlf }, threshold, epoch)
    }

    /// `epoch` over `base` with an empty overlay.
    fn from_base(base: Base, threshold: usize, epoch: u64) -> Self {
        let layer = LayerData {
            num_edges: base.graph.num_edges(),
            base: Arc::new(base),
            epoch,
            rows: Patched::default(),
            added_labels: Arc::new(Vec::new()),
            tombstones: Arc::new(HashSet::new()),
            delta_edges_live: 0,
        };
        VersionedGraph {
            inner: Mutex::new(Inner {
                layer: Arc::new(layer),
                counters: CounterBlock::new(),
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
        inner.counters.bump(Counter::SnapshotsPinned);
        Snapshot {
            layer: inner.layer.clone(),
        }
    }

    /// `snapshots_pinned` and `compactions` so far, and the current
    /// overlay's `delta_edges_live` gauge, as a registry block.
    pub fn counters(&self) -> CounterBlock {
        let inner = self.inner.lock().unwrap();
        let mut b = inner.counters.clone();
        b.set(Counter::DeltaEdgesLive, inner.layer.delta_edges_live as u64);
        b
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
        let num_edges = graph.num_edges();
        inner.layer = Arc::new(LayerData {
            base: Arc::new(Base { graph, nlf }),
            epoch: inner.layer.epoch,
            rows: Patched::default(),
            added_labels: Arc::new(Vec::new()),
            tombstones: inner.layer.tombstones.clone(),
            num_edges,
            delta_edges_live: 0,
        });
        inner.counters.bump(Counter::Compactions);
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
        let old = &*pre.layer;
        let n0 = pre.num_vertices();

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
            .filter(|&v| (v as usize) < n0 && !pre.is_tombstoned(v))
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
            if (e.1 as usize) < n0 && pre.has_edge(e.0, e.1) {
                deleted.insert(e);
            }
        }
        for &v in &vertices_deleted {
            for &w in pre.neighbors(v) {
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
                || pre.is_tombstoned(e.0)
                || pre.is_tombstoned(e.1)
                || !ins_seen.insert(e)
            {
                continue;
            }
            if deleted.remove(&e) {
                continue; // present, deleted, re-inserted: net no-op
            }
            if (e.1 as usize) < n0 && pre.has_edge(e.0, e.1) {
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
            };
            return Committed {
                post: pre.clone(),
                pre,
                info,
            };
        }

        // --- Apply: copy-on-write per touched vertex. ---
        let mut rows = old.rows.clone();

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
            match (w as usize).checked_sub(n0) {
                None => pre.label(w),
                Some(i) => batch.add_vertices[i],
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
            let mut list = pre.neighbors(v).to_vec();
            if !rem.is_empty() {
                let rs: HashSet<VertexId> = rem.iter().copied().collect();
                list.retain(|w| !rs.contains(w));
            }
            list.extend(add.iter().copied());
            list.sort_unstable();
            // Incremental NLF maintenance: adjust this row by the labels
            // of the neighbors that arrived or left.
            let mut counts: BTreeMap<Label, i64> = pre
                .nlf_entry(v)
                .iter()
                .map(|&(l, c)| (l, c as i64))
                .collect();
            for &w in add.iter() {
                *counts.entry(label_of(w)).or_insert(0) += 1;
            }
            for &w in rem.iter() {
                *counts.entry(label_of(w)).or_insert(0) -= 1;
            }
            let nlf: Vec<(Label, u32)> = counts
                .into_iter()
                .filter(|&(_, c)| c > 0)
                .map(|(l, c)| (l, c as u32))
                .collect();
            rows.insert(v, Row { adj: list, nlf });
        }

        // Overlay footprint relative to the base.
        let in_base = |e: (VertexId, VertexId)| -> bool {
            (e.1 as usize) < old.base_n() && old.base.graph.has_edge(e.0, e.1)
        };
        let mut dl = old.delta_edges_live as i64;
        for &e in &edges_inserted {
            dl += if in_base(e) { -1 } else { 1 };
        }
        for &e in &edges_deleted {
            dl += if in_base(e) { 1 } else { -1 };
        }
        debug_assert!(dl >= 0);

        let epoch = old.epoch + 1;
        let num_edges = old.num_edges + edges_inserted.len() - edges_deleted.len();
        let new_layer = Arc::new(LayerData {
            base: old.base.clone(),
            epoch,
            rows,
            added_labels,
            tombstones,
            num_edges,
            delta_edges_live: dl as usize,
        });
        let post = Snapshot {
            layer: new_layer.clone(),
        };
        inner.layer = new_layer;

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
        // The commit's change set: both endpoints, with their pre rows.
        assert_eq!(c.touched(), vec![0, 3]);
        let changes = c.changes();
        let rows: Vec<_> = changes.rows().collect();
        assert_eq!(
            rows,
            vec![(0, Some((1, &[(1, 1)][..]))), (3, Some((1, &[(0, 1)][..])))]
        );
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
    fn vertex_add_gets_dense_ids_and_labels() {
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
        let st = vg.counters();
        assert_eq!(st.get(Counter::Compactions), 1);
        assert_eq!(st.get(Counter::DeltaEdgesLive), 0);
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
    fn compaction_keeps_tombstones() {
        let vg = VersionedGraph::with_threshold(path4(), 1);
        vg.commit(&UpdateBatch::new().delete_vertex(0).add_edge(1, 3));
        assert_eq!(vg.counters().get(Counter::Compactions), 1);
        let s = vg.snapshot();
        assert!(s.is_tombstoned(0));
        assert_eq!(s.label(0), 0, "tombstones keep their label");
        // Still cannot connect to a tombstone after compaction.
        assert!(vg.commit(&UpdateBatch::new().add_edge(0, 2)).info.is_noop());
    }

    #[test]
    fn forced_compact_and_counters() {
        let vg = VersionedGraph::new(path4());
        assert!(!vg.compact(), "empty overlay: nothing to fold");
        vg.commit(&UpdateBatch::new().add_edge(0, 3));
        let _ = vg.snapshot();
        assert!(vg.compact());
        let mut want = CounterBlock::new();
        want.add(Counter::SnapshotsPinned, 1);
        want.add(Counter::Compactions, 1);
        assert_eq!(vg.counters(), want);
        assert_eq!(vg.epoch(), 1);
        assert_eq!(vg.snapshot().num_edges(), 4);
    }

    #[test]
    fn a_seeded_graph_counts_from_its_epoch() {
        let g = path4();
        let nlf = g.build_nlf();
        let vg = VersionedGraph::from_materialized(g, nlf, 7);
        assert_eq!((vg.epoch(), vg.snapshot().epoch()), (7, 7));
        let c = vg.commit(&UpdateBatch::new().add_edge(0, 3));
        assert_eq!((c.pre.epoch(), c.post.epoch(), c.info.epoch), (7, 8, 8));
        let noop = vg.commit(&UpdateBatch::new().add_edge(0, 3));
        assert_eq!(noop.info.epoch, 8, "a no-op keeps the epoch");
        assert!(vg.compact());
        assert_eq!(vg.snapshot().epoch(), 8, "compaction keeps the epoch");
    }
}
