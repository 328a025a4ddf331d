//! Update and crash-recovery conformance for any tier that holds an
//! `sm_service::UpdateState`: the cases take the tier as an input
//! ([`DurableTier`] + its config), so `Service` (this crate's
//! `tests/durable.rs`) and `ShardedService` at 1 and 2 shards
//! (`crates/shard/tests/durable.rs`, which includes this file by path)
//! run the same byte-cut, second-crash, registration-race, pinned-epoch
//! and counter-oracle schedules against the one protocol they share.

use sm_delta::{Snapshot, UpdateBatch, UpdateStream, UpdateStreamSpec};
use sm_graph::builder::graph_from_edges;
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::{Graph, VertexId};
use sm_match::enumerate::CollectSink;
use sm_match::{Algorithm, DataContext, MatchConfig};
use sm_runtime::trace::CounterBlock;
use sm_service::{
    DurabilityOptions, FsyncPolicy, QueryRequest, RecoveryReport, ResultStream, Service,
    ServiceConfig, StandingId,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// What the conformance cases need from a durable tier.
pub trait DurableTier: Sized {
    /// Everything besides the graph and the directory (shard count
    /// included).
    type Config: Clone;
    fn new(graph: Graph, cfg: Self::Config) -> Self;
    fn new_durable(
        graph: Graph,
        cfg: Self::Config,
        dir: &Path,
        opts: DurabilityOptions,
    ) -> io::Result<Self>;
    fn open(dir: &Path, cfg: Self::Config, opts: DurabilityOptions) -> io::Result<Self>;
    /// Apply a batch; `true` iff it was effective.
    fn apply(&self, batch: &UpdateBatch) -> bool;
    fn snapshot(&self) -> Snapshot;
    fn snapshot_now(&self) -> io::Result<bool>;
    fn epoch(&self) -> u64;
    fn submit(&self, req: QueryRequest) -> ResultStream;
    fn recovery_report(&self) -> Option<RecoveryReport>;
    fn register_standing(&self, query: &Graph) -> Option<StandingId>;
    fn standing_matches(&self, id: StandingId) -> Vec<Vec<VertexId>>;
    fn counters(&self) -> CounterBlock;
}

impl DurableTier for Service {
    type Config = ServiceConfig;
    fn new(graph: Graph, cfg: ServiceConfig) -> Self {
        Service::new(graph, cfg)
    }
    fn new_durable(
        graph: Graph,
        cfg: ServiceConfig,
        dir: &Path,
        opts: DurabilityOptions,
    ) -> io::Result<Self> {
        Service::new_durable(graph, cfg, dir, opts)
    }
    fn open(dir: &Path, cfg: ServiceConfig, opts: DurabilityOptions) -> io::Result<Self> {
        Service::open(dir, cfg, opts)
    }
    fn apply(&self, batch: &UpdateBatch) -> bool {
        !self.apply_update(batch).noop
    }
    fn snapshot(&self) -> Snapshot {
        Service::snapshot(self)
    }
    fn snapshot_now(&self) -> io::Result<bool> {
        Service::snapshot_now(self)
    }
    fn epoch(&self) -> u64 {
        Service::epoch(self)
    }
    fn submit(&self, req: QueryRequest) -> ResultStream {
        Service::submit(self, req)
    }
    fn recovery_report(&self) -> Option<RecoveryReport> {
        Service::recovery_report(self)
    }
    fn register_standing(&self, query: &Graph) -> Option<StandingId> {
        Service::register_standing(self, query)
    }
    fn standing_matches(&self, id: StandingId) -> Vec<Vec<VertexId>> {
        Service::standing_matches(self, id)
    }
    fn counters(&self) -> CounterBlock {
        Service::counters(self)
    }
}

pub fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "sm-durable-conformance-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read durable dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy file");
    }
}

/// Total size of every file in a durable directory. Equal before a crash
/// image is reopened and after `open()` returns iff replay appended
/// nothing (recovery's own fresh WAL segment is empty).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read durable dir")
        .map(|e| e.expect("dir entry").metadata().expect("metadata").len())
        .sum()
}

pub fn edge_query() -> Graph {
    graph_from_edges(&[0, 0], &[(0, 1)])
}

pub fn no_snapshot_opts() -> DurabilityOptions {
    DurabilityOptions {
        fsync: FsyncPolicy::Off,
        snapshot_threshold_bytes: 0, // manual snapshots only
        ..Default::default()
    }
}

pub fn sorted_embeddings<T: DurableTier>(svc: &T, q: &Graph) -> Vec<Vec<VertexId>> {
    let mut m: Vec<Vec<VertexId>> = svc.submit(QueryRequest::streaming(q.clone())).collect();
    m.sort_unstable();
    m
}

/// Generate `n` batches by running a seeded stream against `svc`'s own
/// evolving graph, applying each as it is generated. Returns the batches
/// so a second tier can replay the identical sequence.
pub fn drive<T: DurableTier>(svc: &T, n: usize, seed: u64) -> Vec<UpdateBatch> {
    let mut stream = UpdateStream::new(
        UpdateStreamSpec {
            batch_size: 6,
            ..Default::default()
        },
        seed,
    );
    (0..n)
        .map(|_| {
            let b = stream.next_batch(&svc.snapshot());
            svc.apply(&b);
            b
        })
        .collect()
}

/// Small graph and batches keep the final record short enough to cut at
/// every byte without the test crawling.
fn small_graph() -> Graph {
    rmat_graph(60, 3.0, 3, RmatParams::PAPER, 5)
}

/// The directory's one WAL segment.
fn only_segment(dir: &Path) -> PathBuf {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "seg"))
        .expect("one WAL segment")
}

/// Frame-walk a WAL segment: byte offset where the final record starts.
fn last_record_start(seg: &[u8]) -> usize {
    let mut pos = 0usize;
    let mut last = 0usize;
    while pos + 8 <= seg.len() {
        let len = u32::from_le_bytes(seg[pos..pos + 4].try_into().unwrap()) as usize;
        if pos + 8 + len > seg.len() {
            break;
        }
        last = pos;
        pos += 8 + len;
    }
    assert_eq!(pos, seg.len(), "writer left no torn tail of its own");
    last
}

/// Truncating or corrupting the final WAL record at *any* byte recovers
/// to the last fully committed epoch; the intact log recovers to the
/// final one.
pub fn recovery_lands_on_last_committed_epoch_at_every_cut<T: DurableTier>(cfg: T::Config) {
    let dir = tmp_dir("cuts");
    let twin = T::new(small_graph(), cfg.clone());
    let durable = T::new_durable(small_graph(), cfg.clone(), &dir, no_snapshot_opts()).unwrap();
    let mut stream = UpdateStream::new(
        UpdateStreamSpec {
            batch_size: 3,
            ..Default::default()
        },
        21,
    );
    // Twin states after each effective batch: epoch + probe embeddings.
    let mut prefix_states = vec![(twin.epoch(), sorted_embeddings(&twin, &edge_query()))];
    let mut applied = 0;
    while applied < 5 {
        let b = stream.next_batch(&twin.snapshot());
        let effective = twin.apply(&b);
        durable.apply(&b);
        if effective {
            prefix_states.push((twin.epoch(), sorted_embeddings(&twin, &edge_query())));
            applied += 1;
        }
    }
    drop(durable);

    let seg_path = only_segment(&dir);
    let seg = std::fs::read(&seg_path).unwrap();
    let last = last_record_start(&seg);
    let full_state = prefix_states.last().unwrap();
    let cut_state = &prefix_states[prefix_states.len() - 2];
    let reopen_with = |tag: &str, bytes: &[u8]| {
        let scratch = tmp_dir(tag);
        copy_dir(&dir, &scratch);
        std::fs::write(scratch.join(seg_path.file_name().unwrap()), bytes).unwrap();
        let rec = T::open(&scratch, cfg.clone(), no_snapshot_opts()).unwrap();
        let state = (rec.epoch(), sorted_embeddings(&rec, &edge_query()));
        drop(rec);
        let _ = std::fs::remove_dir_all(&scratch);
        state
    };

    for cut in last..=seg.len() {
        // Truncate the final record at `cut` bytes...
        let expect = if cut == seg.len() {
            full_state
        } else {
            cut_state
        };
        assert_eq!(
            &reopen_with("cut-case", &seg[..cut]),
            expect,
            "state after cut at byte {cut}"
        );
        // ...and corrupt one byte there instead (skip cut == len: no
        // byte to flip).
        if cut < seg.len() {
            let mut bad = seg.clone();
            bad[cut] ^= 0x5A;
            assert_eq!(
                &reopen_with("flip-case", &bad),
                cut_state,
                "state after flip at byte {cut}"
            );
        }
    }
}

/// First recovery drops a torn record; updates it acknowledges afterwards
/// must survive the NEXT crash — before recovery truncated the torn
/// bytes off disk, the second scan stopped at them and silently
/// discarded everything logged after the first crash.
pub fn updates_acknowledged_after_a_torn_tail_recovery_survive_a_second_crash<T: DurableTier>(
    cfg: T::Config,
) {
    let dir = tmp_dir("torn-then-crash");
    let twin = T::new(small_graph(), cfg.clone());
    let durable = T::new_durable(small_graph(), cfg.clone(), &dir, no_snapshot_opts()).unwrap();
    for b in drive(&twin, 4, 31) {
        durable.apply(&b);
    }
    drop(durable);
    // Crash tears the final WAL record mid-write.
    let seg_path = only_segment(&dir);
    let seg = std::fs::read(&seg_path).unwrap();
    let cut = last_record_start(&seg) + 5;
    std::fs::write(&seg_path, &seg[..cut]).unwrap();

    let recovered = T::open(&dir, cfg.clone(), no_snapshot_opts()).unwrap();
    assert!(recovered.recovery_report().unwrap().dropped_bytes > 0);
    let post = drive(&recovered, 3, 57);
    let expect_epoch = recovered.epoch();
    let expect = sorted_embeddings(&recovered, &edge_query());
    drop(recovered);

    let again = T::open(&dir, cfg, no_snapshot_opts()).unwrap();
    let report = again.recovery_report().unwrap();
    assert_eq!(
        report.dropped_bytes, 0,
        "first recovery removed the torn bytes"
    );
    assert_eq!(
        again.epoch(),
        expect_epoch,
        "post-recovery batches replayed"
    );
    assert_eq!(sorted_embeddings(&again, &edge_query()), expect);
    assert!(!post.is_empty());
}

/// Every embedding of `q` in `g`, sorted, in query vertex-id order: the
/// set a standing query must hold.
fn all_embeddings(q: &Graph, g: &Graph) -> Vec<Vec<VertexId>> {
    let mut sink = CollectSink::default();
    Algorithm::GraphQl.optimized().run_with_sink(
        q,
        &DataContext::new(g),
        &MatchConfig::find_all(),
        &mut sink,
    );
    sink.matches.sort_unstable();
    sink.matches
}

/// A standing query registered while another thread applies updates
/// misses no commit's delta: the registration enumerates, pushes and
/// logs between two commits. Every set equals a fresh enumeration of the
/// final graph, live and after `open`.
pub fn registrations_racing_updates_stay_exact<T: DurableTier + Sync>(cfg: T::Config) {
    const REGISTRATIONS: usize = 16;
    let dir = tmp_dir("race");
    let graph = rmat_graph(3000, 4.0, 3, RmatParams::PAPER, 53);
    let tier = T::new_durable(graph, cfg.clone(), &dir, no_snapshot_opts()).unwrap();
    let wedge = graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2)]);
    let registered = AtomicBool::new(false);
    let ids: Vec<StandingId> = std::thread::scope(|s| {
        s.spawn(|| {
            let spec = UpdateStreamSpec {
                batch_size: 8,
                ..Default::default()
            };
            let mut stream = UpdateStream::new(spec, 61);
            while !registered.load(Ordering::Relaxed) {
                tier.apply(&stream.next_batch(&tier.snapshot()));
            }
        });
        while tier.epoch() == 0 {
            std::thread::yield_now();
        }
        let ids = (0..REGISTRATIONS)
            .map(|_| tier.register_standing(&wedge).expect("a wedge registers"))
            .collect();
        registered.store(true, Ordering::Relaxed);
        ids
    });
    let want = all_embeddings(&wedge, &tier.snapshot().materialize().0);
    let stale = |t: &T| {
        ids.iter()
            .filter(|&&id| t.standing_matches(id) != want)
            .count()
    };
    assert_eq!(stale(&tier), 0, "stale sets of {REGISTRATIONS}, live");
    drop(tier);
    let reopened = T::open(&dir, cfg, no_snapshot_opts()).unwrap();
    assert_eq!(
        stale(&reopened),
        0,
        "stale sets of {REGISTRATIONS}, reopened"
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pinned snapshot names the tier epoch: on a fresh tier, after
/// updates, after a snapshot file plus a tail of updates, and after
/// `open` replayed that tail. The tier has one epoch, not one for the
/// head and another for its versioned twin.
pub fn pinned_snapshots_name_the_tier_epoch<T: DurableTier>(cfg: T::Config) {
    let dir = tmp_dir("pinned-epoch");
    let tier = T::new_durable(small_graph(), cfg.clone(), &dir, no_snapshot_opts()).unwrap();
    let pinned = |t: &T, what: &str| {
        assert_eq!(t.snapshot().epoch(), t.epoch(), "pinned epoch, {what}");
    };
    pinned(&tier, "fresh");
    drive(&tier, 4, 13);
    assert!(tier.epoch() > 0, "the stream produced effective batches");
    pinned(&tier, "after updates");
    assert!(tier.snapshot_now().unwrap());
    drive(&tier, 3, 17);
    pinned(&tier, "after a snapshot file and a tail");
    let epoch = tier.epoch();
    drop(tier);
    let reopened = T::open(&dir, cfg, no_snapshot_opts()).unwrap();
    assert!(reopened.recovery_report().unwrap().replayed_batches > 0);
    assert_eq!(reopened.epoch(), epoch);
    pinned(&reopened, "after open");
    drive(&reopened, 2, 19);
    pinned(&reopened, "after open and updates");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tier's counters outside the `*_ns` timings, non-zero ones only, in
/// registry order, by name: the form the oracle below pins.
fn untimed(b: &CounterBlock) -> Vec<(&'static str, u64)> {
    b.iter_nonzero()
        .filter(|(c, _)| !c.name().ends_with("_ns"))
        .map(|(c, v)| (c.name(), v))
        .collect()
}

/// One fixed, single-threaded script that moves every counter source a
/// tier merges — the plan cache (hits, misses, LRU evictions, a
/// semantics split), the planner (an Auto-mode compile on a second,
/// in-memory tier built from `auto`), the update state (updates,
/// standing maintenance, a pin), the versioned twin, the journal (WAL
/// appends, `snapshot_now`), `swap` (a graph swap where the tier has
/// one), and recovery (`open` with a WAL tail, then one more update) —
/// and pins every counter outside the `*_ns` timings, value for value:
/// `live` is the durable tier's block merged with the Auto tier's,
/// `recovered` the reopened tier's. A source whose merge went missing
/// shows as a counter gone from the block.
pub fn counters_match_the_recorded_oracle<T: DurableTier>(
    cfg: T::Config,
    auto: T::Config,
    swap: impl Fn(&T),
    live: &[(&str, u64)],
    recovered: &[(&str, u64)],
) {
    let dir = tmp_dir("oracle");
    let wedge = graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2)]);
    let renumbered = graph_from_edges(&[1, 0, 0], &[(0, 1), (0, 2)]);
    let triangle = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
    let count = |t: &T, q: &Graph| t.submit(QueryRequest::count(q.clone())).wait();

    let tier = T::new_durable(small_graph(), cfg.clone(), &dir, no_snapshot_opts()).unwrap();
    count(&tier, &wedge); // miss
    count(&tier, &renumbered); // hit: the same canonical form
    sorted_embeddings(&tier, &edge_query()); // miss, rows streamed
    count(&tier, &edge_query()); // miss: a semantics split
    count(&tier, &triangle); // miss, evicts past the capacity
    count(&tier, &wedge); // as the LRU left it; cached after
    drive(&tier, 3, 7);
    count(&tier, &wedge); // patched forward: a hit
    tier.register_standing(&wedge).expect("a wedge registers");
    drive(&tier, 3, 8);
    let _pinned = tier.snapshot();
    assert!(tier.snapshot_now().unwrap());
    swap(&tier);
    drive(&tier, 2, 9); // the WAL tail `open` replays

    let autotuned = T::new(small_graph(), auto);
    count(&autotuned, &wedge); // the planner ranks and compiles
    count(&autotuned, &renumbered); // hit
    count(&autotuned, &triangle);
    let mut merged = tier.counters();
    merged.merge(&autotuned.counters());
    assert_eq!(untimed(&merged), live.to_vec(), "live counters");
    drop((tier, autotuned));

    let reopened = T::open(&dir, cfg, no_snapshot_opts()).unwrap();
    drive(&reopened, 1, 10);
    assert_eq!(
        untimed(&reopened.counters()),
        recovered.to_vec(),
        "recovered counters"
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
