//! Pull-based streaming result delivery with bounded buffering.
//!
//! A [`ResultStream`] is the client half of one submitted query: a
//! bounded embedding buffer plus, eventually, a terminal [`QueryReport`].
//! Embeddings cross it only as flat [`EmbeddingBlock`]s: a worker hands
//! over a block of rows with `StreamCore::push_block` (one lock, at most
//! one wake-up) and the consumer takes everything buffered under one
//! lock. Producers **block when the buffer is full**, counted in rows —
//! that is the backpressure: a slow consumer throttles enumeration
//! instead of growing an unbounded buffer. Producers never deadlock on an
//! absent consumer because every blocking wait re-checks the run's
//! cancellation token and the client-cancel flag; dropping the stream
//! cancels the query, which unblocks everything within a poll interval.
//!
//! A stream can instead be [`pulled`](ResultStream::pulled) from a
//! [`PullSource`] on the consumer's own thread — how the sharded router
//! merges its shards' streams — under the same contract.
//!
//! The terminal report carries one of the five service outcomes
//! ([`ServiceOutcome`]) along with the partial counts accumulated up to
//! that point, so a deadline kill still tells the client how far it got.

use sm_graph::VertexId;
use sm_runtime::metrics::Histogram;
use sm_runtime::{CancelReason, CancelToken};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a blocked producer sleeps between cancellation re-checks.
/// Bounds the time a deadline/cancel takes to unblock a full buffer.
const PUSH_RECHECK: Duration = Duration::from_millis(20);

/// Why a query finished — the terminal state of every [`ResultStream`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServiceOutcome {
    /// Enumeration ran to completion; counts are exact.
    #[default]
    Complete,
    /// The per-query embedding cap was hit; counts equal the cap.
    CapHit,
    /// The per-query deadline expired; counts are partial.
    Deadline,
    /// The client cancelled (explicitly or by dropping the stream).
    Cancelled,
    /// Admission control refused the query; nothing ran.
    Rejected,
}

impl ServiceOutcome {
    /// Stable lowercase name (table/JSONL friendly).
    pub fn name(self) -> &'static str {
        match self {
            ServiceOutcome::Complete => "complete",
            ServiceOutcome::CapHit => "cap_hit",
            ServiceOutcome::Deadline => "deadline",
            ServiceOutcome::Cancelled => "cancelled",
            ServiceOutcome::Rejected => "rejected",
        }
    }

    /// Severity rank for merging the outcomes of fanned-out sub-queries:
    /// `Complete < CapHit < Deadline < Cancelled < Rejected`. A router
    /// that scatters one query across shards reports the worst per-shard
    /// outcome, so a deadline on any shard marks the merged counts
    /// partial.
    pub fn severity(self) -> u8 {
        match self {
            ServiceOutcome::Complete => 0,
            ServiceOutcome::CapHit => 1,
            ServiceOutcome::Deadline => 2,
            ServiceOutcome::Cancelled => 3,
            ServiceOutcome::Rejected => 4,
        }
    }

    /// The more severe of two outcomes (see
    /// [`severity`](ServiceOutcome::severity)).
    pub fn worst(self, other: ServiceOutcome) -> ServiceOutcome {
        if other.severity() > self.severity() {
            other
        } else {
            self
        }
    }
}

/// Terminal report of one query: the outcome plus whatever was counted
/// before the run ended. The default is a `Complete` report of nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryReport {
    /// Why the query finished.
    pub outcome: ServiceOutcome,
    /// Embeddings counted (exact across workers, even at the cap).
    pub matches: u64,
    /// Search-tree nodes visited.
    pub recursions: u64,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Plan-compile time in nanoseconds (0 on a cache hit).
    pub plan_build_ns: u64,
    /// Wall-clock time from admission to the terminal state.
    pub elapsed: Duration,
}

impl QueryReport {
    /// The report of a query refused at the door: nothing ran, nothing
    /// is counted.
    pub fn rejected(elapsed: Duration) -> Self {
        QueryReport {
            outcome: ServiceOutcome::Rejected,
            elapsed,
            ..QueryReport::default()
        }
    }
}

/// Rows a producer collects before it hands its block over (fewer when
/// the stream's capacity is smaller, see `StreamCore::flush_rows`).
const BLOCK_ROWS: usize = 1024;

/// A dense table of embeddings, [`stride`](EmbeddingBlock::stride) vertex
/// ids per row — the only unit that crosses a stream. The first row
/// pushed into an empty block fixes its width.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EmbeddingBlock {
    stride: usize,
    /// `data.len() / stride`, kept so per-row callers never divide.
    rows: usize,
    data: Vec<VertexId>,
}

impl EmbeddingBlock {
    /// Vertex ids per row (the query's vertex count).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of rows held.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether the block holds no row.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `i`: client vertex ids, indexed by query vertex.
    pub fn row(&self, i: usize) -> &[VertexId] {
        &self.data[i * self.stride..(i + 1) * self.stride]
    }

    /// The rows, in the order they were pushed.
    pub fn iter(&self) -> impl Iterator<Item = &[VertexId]> {
        self.data.chunks_exact(self.stride.max(1))
    }

    /// Append one row. Panics when its width differs from the rows
    /// already held, or is zero.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = VertexId>) {
        let before = self.data.len();
        self.data.extend(row);
        let width = self.data.len() - before;
        if before == 0 {
            self.stride = width;
        }
        assert!(width > 0 && width == self.stride, "row width mismatch");
        self.rows += 1;
    }

    /// Append every row of `other` (one copy, no per-row work).
    pub fn append(&mut self, other: &EmbeddingBlock) {
        if self.data.is_empty() {
            self.stride = other.stride;
        }
        assert_eq!(self.stride, other.stride, "block stride mismatch");
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    /// Keep the first `rows` rows.
    pub fn truncate(&mut self, rows: usize) {
        self.rows = self.rows.min(rows);
        self.data.truncate(self.rows * self.stride);
    }

    /// Drop every row, keeping the allocation.
    pub fn clear(&mut self) {
        self.truncate(0);
    }
}

struct StreamInner {
    /// Rows handed over and not yet taken by the consumer.
    buf: EmbeddingBlock,
    report: Option<QueryReport>,
    /// When the terminal report was installed — the start of the drain
    /// phase the metrics layer measures.
    finished_at: Option<Instant>,
    /// Metrics histogram receiving the drain duration once the consumer
    /// reaches the terminal `None` (absent when metrics are disabled).
    drain_hist: Option<Arc<Histogram>>,
}

/// Shared state between the service's workers (producers) and one
/// [`ResultStream`] (the consumer).
pub(crate) struct StreamCore {
    inner: Mutex<StreamInner>,
    /// Consumer waits here for an embedding or the terminal report.
    avail: Condvar,
    /// Producers wait here for buffer space.
    space: Condvar,
    capacity: usize,
    /// Rows at which a producer hands its block over: a full block, or
    /// the whole capacity when that is smaller, so `stream_capacity`
    /// still bounds how far a producer runs ahead of the consumer.
    pub(crate) flush_rows: usize,
    /// The run's cancellation token: producers re-check it while blocked
    /// so a deadline or cancel never strands them on a full buffer.
    cancel: CancelToken,
    /// Set by [`ResultStream::cancel`] or by dropping the stream —
    /// distinguishes a client abort from a cap kill on the shared token.
    pub(crate) client_cancelled: AtomicBool,
}

impl StreamCore {
    /// `drain_hist` is the metrics histogram the drain duration is
    /// recorded into when the consumer reaches the terminal `None`
    /// (`None` when metrics are disabled) — taken at construction so the
    /// submit path pays no extra lock to install it.
    pub(crate) fn new(
        capacity: usize,
        cancel: CancelToken,
        drain_hist: Option<Arc<Histogram>>,
    ) -> Arc<Self> {
        Arc::new(StreamCore {
            inner: Mutex::new(StreamInner {
                buf: EmbeddingBlock::default(),
                report: None,
                finished_at: None,
                drain_hist,
            }),
            avail: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
            flush_rows: BLOCK_ROWS.min(capacity.max(1)),
            cancel,
            client_cancelled: AtomicBool::new(false),
        })
    }

    /// Hand over every row of `block` under one lock, blocking while the
    /// buffer cannot take them. Returns `false` when the rows were
    /// dropped instead (client cancelled or gone, or deadline on a full
    /// buffer) — the caller may stop producing.
    pub(crate) fn push_block(&self, block: &EmbeddingBlock) -> bool {
        let mut inner = self.inner.lock().expect("stream poisoned");
        loop {
            if self.client_cancelled.load(Ordering::Relaxed) {
                return false;
            }
            let held = inner.buf.rows();
            if held == 0 || held + block.rows() <= self.capacity {
                inner.buf.append(block);
                // The consumer only ever waits on an empty buffer.
                if held == 0 {
                    self.avail.notify_one();
                }
                return true;
            }
            // Deadline kills drop further deliveries (partial results are
            // partial); cap kills keep delivering — every within-cap match
            // must reach the client for counts to agree.
            if self.cancel.poll() == Some(CancelReason::Deadline) {
                return false;
            }
            let (guard, _) = self
                .space
                .wait_timeout(inner, PUSH_RECHECK)
                .expect("stream poisoned");
            inner = guard;
        }
    }

    /// Install the terminal report and wake everyone.
    pub(crate) fn finish(&self, report: QueryReport) {
        let mut inner = self.inner.lock().expect("stream poisoned");
        inner.report = Some(report);
        inner.finished_at = Some(Instant::now());
        self.avail.notify_all();
        self.space.notify_all();
    }

    /// The client aborts: producers stop at their next poll or push.
    /// The flag is set under the lock, so a producer between its check
    /// and its wait cannot miss the wake-up.
    fn cancel_by_client(&self) {
        let _inner = self.inner.lock().expect("stream poisoned");
        self.client_cancelled.store(true, Ordering::Relaxed);
        self.cancel.cancel(CancelReason::Stopped);
        // Unblock producers stuck on a full buffer so they observe the flag.
        self.space.notify_all();
    }

    /// Swap everything buffered into `block` (empty on entry) under one
    /// lock, blocking while the buffer is empty and the query still
    /// runs. `false` once the query is terminal and drained.
    fn take(&self, block: &mut EmbeddingBlock) -> bool {
        let mut inner = self.inner.lock().expect("stream poisoned");
        loop {
            if !inner.buf.is_empty() {
                // The producers get the emptied allocation back.
                std::mem::swap(block, &mut inner.buf);
                self.space.notify_all();
                return true;
            }
            if inner.report.is_some() {
                // First terminal read closes the drain phase.
                if let Some(hist) = inner.drain_hist.take() {
                    if let Some(at) = inner.finished_at {
                        hist.record(at.elapsed().as_nanos() as u64);
                    }
                }
                return false;
            }
            inner = self.avail.wait(inner).expect("stream poisoned");
        }
    }
}

/// A producer a [`ResultStream`] pulls on the consumer's own thread
/// ([`ResultStream::pulled`]); the stream adds no buffer of its own.
pub trait PullSource: Send + Sync {
    /// Append the next rows to `out` (empty on entry), blocking while
    /// none is ready, or return the terminal report (after serving any
    /// rows appended with it). Not called again after a report.
    fn pull(&mut self, out: &mut EmbeddingBlock) -> Option<QueryReport>;

    /// The client cancelled: pulling on reaches a `Cancelled` report.
    /// Dropping the source before its report is the other client abort.
    fn cancel(&self);
}

/// The client half of one submitted query: pull embeddings with
/// [`Iterator::next`] or [`next_block`](ResultStream::next_block), then
/// read the terminal [`QueryReport`]. Dropping the stream cancels the
/// query.
pub struct ResultStream {
    source: Source,
    /// Consumer-local rows; those before `cursor` were already served.
    block: EmbeddingBlock,
    cursor: usize,
}

/// Where a [`ResultStream`]'s rows come from.
enum Source {
    /// Pushed by the service's workers into a bounded buffer.
    Channel(Arc<StreamCore>),
    /// Pulled on the consumer's thread; the report once it is terminal.
    Pulled(Box<dyn PullSource>, Option<QueryReport>),
}

impl ResultStream {
    pub(crate) fn new(core: Arc<StreamCore>) -> Self {
        ResultStream::with_source(Source::Channel(core))
    }

    /// A stream that pulls its rows and report from `source` on the
    /// consumer's thread.
    pub fn pulled(source: impl PullSource + 'static) -> Self {
        ResultStream::with_source(Source::Pulled(Box::new(source), None))
    }

    fn with_source(source: Source) -> Self {
        ResultStream {
            source,
            block: EmbeddingBlock::default(),
            cursor: 0,
        }
    }

    /// A stream that is born terminal (admission rejection).
    pub fn terminal(report: QueryReport) -> Self {
        let core = StreamCore::new(1, CancelToken::new(), None);
        core.finish(report);
        ResultStream::new(core)
    }

    /// The terminal report, once [`Iterator::next`] has returned
    /// `None`. `None` while the query is still running or either buffer
    /// (the stream's or the consumer-local block) still holds embeddings.
    pub fn report(&self) -> Option<QueryReport> {
        let served = self.cursor == self.block.rows();
        match &self.source {
            Source::Channel(core) => {
                let inner = core.inner.lock().expect("stream poisoned");
                let drained = inner.buf.is_empty() && served;
                inner.report.clone().filter(|_| drained)
            }
            Source::Pulled(_, report) => report.clone().filter(|_| served),
        }
    }

    /// Abort the query. Enumeration stops at the next poll; the stream
    /// still terminates with a report (outcome
    /// [`ServiceOutcome::Cancelled`]).
    pub fn cancel(&self) {
        match &self.source {
            Source::Channel(core) => core.cancel_by_client(),
            Source::Pulled(source, _) => source.cancel(),
        }
    }

    /// Drain the stream (discarding any remaining embeddings) and return
    /// the terminal report.
    pub fn wait(mut self) -> QueryReport {
        while self.next_block().is_some() {}
        self.report().expect("terminal without a report")
    }

    /// Pull every embedding not yet served as one borrowed block — no
    /// per-row allocation, one lock per block. Blocks while nothing is
    /// buffered and the query still runs; `None` is the same terminal
    /// state as [`Iterator::next`]'s.
    pub fn next_block(&mut self) -> Option<&EmbeddingBlock> {
        if self.cursor < self.block.rows() {
            self.block.data.drain(..self.cursor * self.block.stride);
            self.block.rows -= self.cursor;
        } else if !self.refill() {
            return None;
        }
        self.cursor = self.block.rows();
        Some(&self.block)
    }

    /// Replace the (served) local block with the next rows: everything
    /// buffered, taken under one lock, or the source's next pull.
    /// Blocks while none is ready and the query still runs. `false` once
    /// the query is terminal and drained.
    fn refill(&mut self) -> bool {
        self.block.clear();
        self.cursor = 0;
        match &mut self.source {
            Source::Channel(core) => core.take(&mut self.block),
            Source::Pulled(source, report) => {
                if report.is_none() {
                    *report = source.pull(&mut self.block);
                }
                !self.block.is_empty()
            }
        }
    }
}

impl Iterator for ResultStream {
    type Item = Vec<VertexId>;

    /// Pull the next embedding (client vertex ids, indexed by query
    /// vertex), blocking while the buffer is empty and the query still
    /// runs. `None` means the query reached a terminal state and the
    /// buffer is drained — [`report`](ResultStream::report) is now
    /// available. Count-only queries yield no embeddings, just the
    /// terminal `None`.
    fn next(&mut self) -> Option<Vec<VertexId>> {
        if self.cursor == self.block.rows() && !self.refill() {
            return None;
        }
        self.cursor += 1;
        Some(self.block.row(self.cursor - 1).to_vec())
    }
}

impl Drop for ResultStream {
    /// Abandoning a live query cancels it — don't burn workers on results
    /// nobody will read. No producer pushes after the terminal report. A
    /// pulled stream drops its source, which aborts what it pulls from.
    fn drop(&mut self) {
        if let Source::Channel(core) = &self.source {
            if core.inner.lock().expect("stream poisoned").report.is_none() {
                core.cancel_by_client();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// A block holding `rows` — one-row blocks keep the row-at-a-time
    /// tests below literal.
    fn block(rows: &[&[VertexId]]) -> EmbeddingBlock {
        let mut b = EmbeddingBlock::default();
        for r in rows {
            b.push_row(r.iter().copied());
        }
        b
    }

    fn report(outcome: ServiceOutcome) -> QueryReport {
        QueryReport {
            outcome,
            ..QueryReport::default()
        }
    }

    #[test]
    fn push_then_pull_then_terminal() {
        let core = StreamCore::new(4, CancelToken::new(), None);
        assert!(core.push_block(&block(&[&[1, 2]])));
        assert!(core.push_block(&block(&[&[3, 4]])));
        core.finish(report(ServiceOutcome::Complete));
        let mut s = ResultStream::new(core);
        assert_eq!(s.next(), Some(vec![1, 2]));
        assert_eq!(s.next(), Some(vec![3, 4]));
        assert_eq!(s.next(), None);
        assert_eq!(s.report().unwrap().outcome, ServiceOutcome::Complete);
    }

    #[test]
    fn full_buffer_blocks_until_consumed() {
        let core = StreamCore::new(1, CancelToken::new(), None);
        assert!(core.push_block(&block(&[&[0]])));
        let producer = {
            let core = core.clone();
            thread::spawn(move || core.push_block(&block(&[&[1]])))
        };
        let mut s = ResultStream::new(core.clone());
        assert_eq!(s.next(), Some(vec![0]));
        assert!(producer.join().unwrap(), "push proceeds once space frees");
        assert_eq!(s.next(), Some(vec![1]));
        core.finish(report(ServiceOutcome::Complete));
        assert_eq!(s.next(), None);
    }

    #[test]
    fn dropping_the_stream_cancels_and_unblocks_producers() {
        let token = CancelToken::new();
        let core = StreamCore::new(1, token.clone(), None);
        assert!(core.push_block(&block(&[&[0]])));
        let producer = {
            let core = core.clone();
            thread::spawn(move || core.push_block(&block(&[&[1]])))
        };
        let s = ResultStream::new(core.clone());
        drop(s);
        assert!(!producer.join().unwrap(), "push fails after consumer drop");
        assert_eq!(token.cancelled(), Some(CancelReason::Stopped));
        assert!(core.client_cancelled.load(Ordering::Relaxed));
    }

    #[test]
    fn deadline_cancel_unblocks_a_full_buffer() {
        let token = CancelToken::new();
        let core = StreamCore::new(1, token.clone(), None);
        assert!(core.push_block(&block(&[&[0]])));
        token.cancel(CancelReason::Deadline);
        assert!(
            !core.push_block(&block(&[&[1]])),
            "blocked push observes the deadline"
        );
    }

    #[test]
    fn cap_cancel_keeps_delivering_within_cap_matches() {
        let token = CancelToken::new();
        let core = StreamCore::new(1, token.clone(), None);
        // A cap kill (Stopped, not client-initiated) must not drop
        // embeddings the engine already counted as within-cap.
        token.cancel(CancelReason::Stopped);
        assert!(core.push_block(&block(&[&[7]])));
        let mut s = ResultStream::new(core.clone());
        assert_eq!(s.next(), Some(vec![7]));
        core.finish(report(ServiceOutcome::CapHit));
        assert_eq!(s.next(), None);
    }

    #[test]
    fn rejected_stream_is_born_terminal() {
        let mut s = ResultStream::terminal(report(ServiceOutcome::Rejected));
        assert_eq!(s.next(), None);
        assert_eq!(s.report().unwrap().outcome, ServiceOutcome::Rejected);
    }

    #[test]
    fn outcome_severity_merge() {
        use ServiceOutcome::*;
        assert_eq!(Complete.worst(Complete), Complete);
        assert_eq!(Complete.worst(CapHit), CapHit);
        assert_eq!(Deadline.worst(CapHit), Deadline);
        assert_eq!(Cancelled.worst(Rejected), Rejected);
        assert_eq!(Rejected.worst(Complete), Rejected);
    }

    /// Serves `blocks` one per pull, then `outcome`; `cancelled` and
    /// `dropped` record what the stream did to it.
    struct Scripted {
        blocks: Vec<EmbeddingBlock>,
        outcome: ServiceOutcome,
        cancelled: Arc<AtomicBool>,
        dropped: Arc<AtomicBool>,
    }

    impl Scripted {
        fn new(blocks: Vec<EmbeddingBlock>) -> (Self, Arc<AtomicBool>, Arc<AtomicBool>) {
            let (cancelled, dropped) = (Arc::default(), Arc::default());
            let source = Scripted {
                blocks,
                outcome: ServiceOutcome::Complete,
                cancelled: Arc::clone(&cancelled),
                dropped: Arc::clone(&dropped),
            };
            (source, cancelled, dropped)
        }
    }

    impl PullSource for Scripted {
        fn pull(&mut self, out: &mut EmbeddingBlock) -> Option<QueryReport> {
            if self.blocks.is_empty() || self.cancelled.load(Ordering::Relaxed) {
                let outcome = if self.cancelled.load(Ordering::Relaxed) {
                    ServiceOutcome::Cancelled
                } else {
                    self.outcome
                };
                return Some(report(outcome));
            }
            out.append(&self.blocks.remove(0));
            None
        }

        fn cancel(&self) {
            self.cancelled.store(true, Ordering::Relaxed);
        }
    }

    impl Drop for Scripted {
        fn drop(&mut self) {
            self.dropped.store(true, Ordering::Relaxed);
        }
    }

    #[test]
    fn pulled_stream_serves_rows_then_report() {
        let blocks = vec![block(&[&[1, 2], &[3, 4]]), block(&[&[5, 6]])];
        let (source, _, dropped) = Scripted::new(blocks);
        let mut s = ResultStream::pulled(source);
        assert!(s.report().is_none(), "nothing pulled yet");
        assert_eq!(s.next(), Some(vec![1, 2]));
        assert_eq!(s.next_block(), Some(&block(&[&[3, 4]])));
        assert_eq!(s.next(), Some(vec![5, 6]));
        assert!(s.report().is_none(), "the source is not terminal yet");
        assert_eq!(s.next(), None);
        assert_eq!(s.report().unwrap().outcome, ServiceOutcome::Complete);
        assert_eq!(s.next_block(), None, "terminal stays terminal");
        drop(s);
        assert!(dropped.load(Ordering::Relaxed));
    }

    #[test]
    fn pulled_stream_cancel_and_drop_reach_the_source() {
        let (source, cancelled, _) = Scripted::new(vec![block(&[&[1]]), block(&[&[2]])]);
        let mut s = ResultStream::pulled(source);
        assert_eq!(s.next(), Some(vec![1]));
        s.cancel();
        assert!(cancelled.load(Ordering::Relaxed));
        assert_eq!(s.wait().outcome, ServiceOutcome::Cancelled);

        let (source, cancelled, dropped) = Scripted::new(vec![block(&[&[1]])]);
        drop(ResultStream::pulled(source));
        assert!(dropped.load(Ordering::Relaxed), "drop reaches the source");
        assert!(!cancelled.load(Ordering::Relaxed));
    }

    #[test]
    fn wait_drains_and_reports() {
        let core = StreamCore::new(4, CancelToken::new(), None);
        assert!(core.push_block(&block(&[&[1]])));
        core.finish(report(ServiceOutcome::Complete));
        let s = ResultStream::new(core);
        assert_eq!(s.wait().outcome, ServiceOutcome::Complete);
    }

    #[test]
    fn rows_and_blocks_pull_the_same_stream() {
        let core = StreamCore::new(8, CancelToken::new(), None);
        assert!(core.push_block(&block(&[&[1, 2], &[3, 4], &[5, 6]])));
        let mut s = ResultStream::new(core.clone());
        assert_eq!(s.next(), Some(vec![1, 2]));
        core.finish(report(ServiceOutcome::Complete));
        assert!(s.report().is_none(), "the local block still holds rows");
        // A block pull mid-block serves exactly the rows `next` has not.
        assert_eq!(s.next_block(), Some(&block(&[&[3, 4], &[5, 6]])));
        assert!(s.report().is_some());
        assert_eq!(s.next_block(), None);
        assert_eq!(s.next(), None);
    }

    #[test]
    fn backpressure_counts_rows_not_blocks() {
        let core = StreamCore::new(3, CancelToken::new(), None);
        assert_eq!(core.flush_rows, 3);
        assert!(core.push_block(&block(&[&[0], &[1]])));
        let producer = {
            let core = core.clone();
            // 2 held + 2 offered > 3: blocks until the consumer takes.
            thread::spawn(move || core.push_block(&block(&[&[2], &[3]])))
        };
        let mut s = ResultStream::new(core.clone());
        assert_eq!(s.next_block().map(EmbeddingBlock::rows), Some(2));
        assert!(producer.join().unwrap());
        core.finish(report(ServiceOutcome::Complete));
        assert_eq!(s.by_ref().count(), 2);
    }

    // ---- seeded transport property ----

    use sm_graph::gen::query::{extract_query, Density};
    use sm_graph::gen::random::erdos_renyi;
    use sm_match::enumerate::CollectSink;
    use sm_match::{Algorithm, DataContext, Executor, MatchConfig};
    use sm_runtime::check::Check;
    use sm_runtime::rng::Rng64;
    use sm_runtime::{ensure, ensure_eq};
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Scenario {
        Complete,
        CapHit,
        Deadline,
        Cancel,
        DropMidBlock,
    }

    /// The embeddings a direct `Executor::run` finds for a seeded query
    /// on a seeded graph (at most 3000 of them, in emission order).
    fn direct_run(data_seed: u64, query_seed: u64, qsize: usize) -> Vec<Vec<VertexId>> {
        let g = erdos_renyi(40, 110, 1, data_seed);
        let mut rng = Rng64::seed_from_u64(query_seed);
        let Some(q) = (0..30).find_map(|_| extract_query(&g, qsize, Density::Any, &mut rng)) else {
            return Vec::new();
        };
        let ctx = DataContext::new(&g);
        let plan = Algorithm::GraphQl
            .optimized()
            .plan(&q, &ctx, &MatchConfig::find_all())
            .expect("an extracted query has candidates");
        let mut sink = CollectSink::default();
        Executor::new(&plan, &g).run(&mut sink);
        sink.matches.truncate(3000);
        sink.matches
    }

    /// Push `truth` through a real stream the way the service's workers
    /// do — two producers with a `block_rows`-row local block each, the
    /// first row early, a flush at the end, the last one out installing
    /// the report — while this thread pulls with a seeded mix of `next()`
    /// and `next_block()`. `cut` is the row at which the scenario's event
    /// fires. Returns the rows pulled and the report (none after a drop).
    fn run_transport(
        truth: &Arc<Vec<Vec<VertexId>>>,
        block_rows: usize,
        capacity: usize,
        scenario: Scenario,
        cut: usize,
        pull_seed: u64,
    ) -> Result<(Vec<Vec<VertexId>>, Option<QueryReport>), String> {
        const PRODUCERS: usize = 2;
        let token = CancelToken::new();
        let core = StreamCore::new(capacity, token.clone(), None);
        let flush_rows = block_rows.min(capacity);
        let cap = if scenario == Scenario::CapHit {
            cut
        } else {
            truth.len()
        };
        // `RunControl::record_match`'s slot counter: a row is within the
        // cap iff its slot is, and the cap'th slot stops the run.
        let slots = Arc::new(AtomicUsize::new(0));
        let first_row_sent = Arc::new(AtomicBool::new(false));
        let running = Arc::new(AtomicUsize::new(PRODUCERS));
        let (done_tx, done_rx) = mpsc::channel();
        for p in 0..PRODUCERS {
            let (truth, core, token) = (truth.clone(), core.clone(), token.clone());
            let (slots, first_row_sent) = (slots.clone(), first_row_sent.clone());
            let (running, done_tx) = (running.clone(), done_tx.clone());
            thread::spawn(move || {
                let mut local = EmbeddingBlock::default();
                for row in truth.iter().skip(p).step_by(PRODUCERS) {
                    if token.poll().is_some() {
                        break;
                    }
                    let slot = slots.fetch_add(1, Ordering::Relaxed);
                    if slot >= cap {
                        break;
                    }
                    if scenario == Scenario::CapHit && slot + 1 == cap {
                        token.cancel(CancelReason::Stopped);
                    }
                    if scenario == Scenario::Deadline && slot + 1 == cut {
                        token.cancel(CancelReason::Deadline);
                    }
                    local.push_row(row.iter().copied());
                    if local.rows() >= flush_rows || !first_row_sent.swap(true, Ordering::Relaxed) {
                        core.push_block(&local);
                        local.clear();
                    }
                }
                if !local.is_empty() {
                    core.push_block(&local);
                }
                if running.fetch_sub(1, Ordering::SeqCst) == 1 {
                    let outcome = if core.client_cancelled.load(Ordering::Relaxed) {
                        ServiceOutcome::Cancelled
                    } else {
                        match scenario {
                            Scenario::CapHit => ServiceOutcome::CapHit,
                            Scenario::Deadline => ServiceOutcome::Deadline,
                            _ => ServiceOutcome::Complete,
                        }
                    };
                    core.finish(QueryReport {
                        matches: slots.load(Ordering::Relaxed).min(cap) as u64,
                        ..report(outcome)
                    });
                }
                let _ = done_tx.send(());
            });
        }

        let mut stream = ResultStream::new(core);
        let mut rows: Vec<Vec<VertexId>> = Vec::new();
        let mut rng = Rng64::seed_from_u64(pull_seed);
        let mut fired = false;
        let report = loop {
            if !fired && rows.len() >= cut {
                fired = true;
                match scenario {
                    Scenario::Cancel => stream.cancel(),
                    Scenario::DropMidBlock => break None,
                    _ => {}
                }
            }
            // A drop must land mid-block, so its rows come one at a time.
            if scenario == Scenario::DropMidBlock || rng.gen_range(0..2u32) == 0 {
                match stream.next() {
                    Some(row) => rows.push(row),
                    None => break stream.report(),
                }
            } else {
                match stream.next_block() {
                    Some(b) => rows.extend(b.iter().map(<[VertexId]>::to_vec)),
                    None => break stream.report(),
                }
            }
        };
        drop(stream);
        for _ in 0..PRODUCERS {
            done_rx
                .recv_timeout(Duration::from_secs(20))
                .map_err(|_| "a producer was left blocked".to_string())?;
        }
        Ok((rows, report))
    }

    #[test]
    fn block_transport_delivers_the_direct_runs_rows() {
        let gen = |rng: &mut Rng64, size: u32| {
            let qsize = 3 + (size as usize * 3 / 100).min(2); // 3..=5
            (
                rng.gen_range(0..5000u64),
                rng.gen_range(0..5000u64),
                qsize,
                rng.gen_range(0..u64::MAX),
            )
        };
        Check::new("block_transport_delivers_the_direct_runs_rows")
            .cases(6)
            .run(gen, |&(data_seed, query_seed, qsize, seed)| {
                let truth = Arc::new(direct_run(data_seed, query_seed, qsize));
                if truth.is_empty() {
                    return Ok(());
                }
                let mut want = (*truth).clone();
                want.sort();
                let cut = 1 + (seed % truth.len() as u64) as usize;
                for block_rows in [1, 7, 1024] {
                    for capacity in [1, 2, 1024] {
                        for scenario in [
                            Scenario::Complete,
                            Scenario::CapHit,
                            Scenario::Deadline,
                            Scenario::Cancel,
                            Scenario::DropMidBlock,
                        ] {
                            let at = format!(
                                "{scenario:?} block {block_rows} capacity {capacity} cut {cut}"
                            );
                            let (mut rows, report) =
                                run_transport(&truth, block_rows, capacity, scenario, cut, seed)
                                    .map_err(|e| format!("{e} ({at})"))?;
                            rows.sort();
                            // Every row is one of the run's, at most once.
                            ensure!(
                                rows.windows(2).all(|w| w[0] != w[1]),
                                "duplicate row ({at})"
                            );
                            ensure!(
                                rows.iter().all(|r| want.binary_search(r).is_ok()),
                                "foreign row ({at})"
                            );
                            if scenario == Scenario::DropMidBlock {
                                continue;
                            }
                            let report = report.ok_or(format!("no terminal report ({at})"))?;
                            match report.outcome {
                                ServiceOutcome::Complete => {
                                    // A cancel can land after the last row.
                                    ensure!(
                                        matches!(scenario, Scenario::Complete | Scenario::Cancel),
                                        "complete under {at}"
                                    );
                                    ensure_eq!(rows, want, "{at}");
                                }
                                ServiceOutcome::CapHit => ensure_eq!(rows.len(), cut, "{at}"),
                                ServiceOutcome::Deadline => {
                                    ensure_eq!(scenario, Scenario::Deadline, "{at}")
                                }
                                _ => ensure_eq!(scenario, Scenario::Cancel, "{at}"),
                            }
                            if matches!(
                                report.outcome,
                                ServiceOutcome::Complete | ServiceOutcome::CapHit
                            ) {
                                ensure_eq!(rows.len() as u64, report.matches, "{at}");
                            }
                        }
                    }
                }
                Ok(())
            });
    }
}
