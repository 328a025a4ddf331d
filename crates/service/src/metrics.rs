//! Always-on service telemetry: latency histograms per phase and
//! terminal outcome, rolling-window rates, a slow-query log with
//! adaptive tail capture, and a coherent exposition snapshot
//! ([`MetricsReport`]) rendered as Prometheus-style text.
//!
//! Where `sm-trace` profiles one run deeply on request, this layer
//! watches *every* query cheaply: the per-query cost is a handful of
//! relaxed atomic increments at submit/activate/finalize — never
//! per-embedding, never inside enumeration — so it defaults **on**
//! ([`MetricsConfig::enabled`]). The `experiments metrics-overhead` CI
//! gate holds the enabled path within 2% of a disabled build.
//!
//! The per-canonical-form statistics collected here (slow-query log
//! keyed by canonical fingerprint, counter deltas per query) are the
//! observed-behavior feedstock the ROADMAP's self-tuning planner item
//! calls for: the paper's central result is that no filter/order/kernel
//! combination dominates, so a serving tier must *measure* per workload.

use crate::stream::ServiceOutcome;
use sm_runtime::metrics::prom;
use sm_runtime::metrics::registry::{FamilySnapshot, Kind, SeriesSnapshot, Value};
use sm_runtime::metrics::{HistSnapshot, Histogram, Registry, RollingWindow, WINDOW_SECS};
use sm_runtime::trace::{Counter, CounterBlock};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Telemetry configuration of a [`crate::Service`].
#[derive(Clone)]
pub struct MetricsConfig {
    /// Record per-query telemetry (histograms, windows, slow log).
    /// Defaults to `true` — the disabled path exists for overhead
    /// measurement, not as the recommended state.
    pub enabled: bool,
    /// Slow-query log capacity: the N slowest canonical forms retained.
    pub slow_log_capacity: usize,
    /// Latency threshold arming adaptive tail capture: when a query's
    /// total latency crosses it, the service compiles the *next*
    /// occurrence of the same canonical form with a full `sm-trace`
    /// profile attached and stores the rendered tree in the slow-query
    /// log. `None` disables capture (the slow log itself stays on).
    pub slow_threshold: Option<Duration>,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            enabled: true,
            slow_log_capacity: 16,
            slow_threshold: None,
        }
    }
}

/// The five terminal outcomes in severity order — index with
/// [`ServiceOutcome::severity`].
const OUTCOMES: [ServiceOutcome; 5] = [
    ServiceOutcome::Complete,
    ServiceOutcome::CapHit,
    ServiceOutcome::Deadline,
    ServiceOutcome::Cancelled,
    ServiceOutcome::Rejected,
];

/// One slow-query log entry: the worst observed occurrence of one
/// canonical query form.
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// Canonical-form fingerprint (the plan-cache key component) — ties
    /// the entry to a query *shape*, not one submission.
    pub canon_hash: u64,
    /// Terminal outcome of the worst occurrence.
    pub outcome: ServiceOutcome,
    /// Total latency (submit → terminal) of the worst occurrence.
    pub elapsed: Duration,
    /// Matches counted.
    pub matches: u64,
    /// Search-tree nodes visited.
    pub recursions: u64,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Plan-compile nanoseconds (0 on a cache hit).
    pub plan_build_ns: u64,
    /// Plan choice summary (method + adaptive flag).
    pub plan: String,
    /// Merged registry-counter deltas of the query's own execution.
    pub counters: CounterBlock,
    /// Rendered `sm-trace` span tree from adaptive tail capture, once
    /// a re-occurrence ran traced.
    pub profile: Option<String>,
}

/// Bounded slow-query log: one entry per canonical form, keeping each
/// form's worst occurrence, evicting the fastest entry at capacity.
struct SlowLog {
    entries: Vec<SlowQuery>,
    capacity: usize,
}

impl SlowLog {
    fn note(&mut self, q: SlowQuery) {
        if let Some(existing) = self
            .entries
            .iter_mut()
            .find(|e| e.canon_hash == q.canon_hash)
        {
            // A fresh profile is worth attaching even when this
            // occurrence was faster than the recorded worst.
            if q.profile.is_some() && existing.profile.is_none() {
                existing.profile = q.profile.clone();
            }
            if q.elapsed <= existing.elapsed {
                // Order unchanged: skip the re-sort. This is the common
                // case once the log converges — every query at or above
                // the floor but not beating its own form's worst.
                return;
            }
            let profile = existing.profile.take();
            *existing = q;
            existing.profile = existing.profile.take().or(profile);
        } else {
            self.entries.push(q);
        }
        self.entries.sort_by_key(|q| std::cmp::Reverse(q.elapsed));
        self.entries.truncate(self.capacity.max(1));
    }
}

struct MetricsInner {
    cfg: MetricsConfig,
    start: Instant,
    queue_wait: Arc<Histogram>,
    plan: Arc<Histogram>,
    execute: Arc<Histogram>,
    drain: Arc<Histogram>,
    result_size: Arc<Histogram>,
    /// Total submit→terminal latency, one histogram per outcome
    /// (indexed by severity).
    total: [Arc<Histogram>; 5],
    win_queries: RollingWindow,
    win_embeddings: RollingWindow,
    win_updates: RollingWindow,
    win_lookups: RollingWindow,
    win_hits: RollingWindow,
    slow: Mutex<SlowLog>,
    /// Lock-free admission floor for the slow log: the fastest recorded
    /// entry's elapsed nanoseconds (0 while the log is empty). A query
    /// faster than every logged entry cannot change the log — at worst
    /// it would no-op against its own form's recorded worst — so the
    /// steady-state terminal path compares one relaxed load and skips
    /// the log entirely (no `SlowQuery` allocation, no mutex).
    slow_floor: AtomicU64,
    /// Canonical forms armed for tail capture: the next submission of
    /// one of these compiles a traced plan.
    armed: Mutex<HashSet<u64>>,
}

/// The service's telemetry handle. Mirrors `Trace`'s representation —
/// `None` when disabled, so every touch point costs one well-predicted
/// branch in the disabled state. Clone shares the same sink.
#[derive(Clone)]
pub struct ServiceMetrics(Option<Arc<MetricsInner>>);

impl ServiceMetrics {
    /// Build per `cfg` (a disabled handle when `cfg.enabled` is false).
    pub fn new(cfg: MetricsConfig) -> Self {
        if !cfg.enabled {
            return ServiceMetrics(None);
        }
        let registry = Registry::new();
        let h = |name: &str| registry.histogram(name, &[]);
        let total =
            OUTCOMES.map(|o| registry.histogram("query_total_ns", &[("outcome", o.name())]));
        // All windows share one clock anchor, so the observe paths read
        // the clock once and feed every window via `record_at`.
        let start = Instant::now();
        ServiceMetrics(Some(Arc::new(MetricsInner {
            queue_wait: h("query_queue_wait_ns"),
            plan: h("query_plan_ns"),
            execute: h("query_execute_ns"),
            drain: h("query_drain_ns"),
            result_size: h("query_result_size"),
            total,
            win_queries: RollingWindow::anchored(start),
            win_embeddings: RollingWindow::anchored(start),
            win_updates: RollingWindow::anchored(start),
            win_lookups: RollingWindow::anchored(start),
            win_hits: RollingWindow::anchored(start),
            slow: Mutex::new(SlowLog {
                entries: Vec::new(),
                capacity: cfg.slow_log_capacity,
            }),
            slow_floor: AtomicU64::new(0),
            armed: Mutex::new(HashSet::new()),
            start,
            cfg,
        })))
    }

    /// A handle that records nothing.
    pub fn disabled() -> Self {
        ServiceMetrics(None)
    }

    /// Whether telemetry is being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record one plan-cache consultation: the plan phase duration and
    /// the hit/miss for the windowed cache hit rate.
    #[inline]
    pub(crate) fn observe_plan(&self, ns: u64, cache_hit: bool) {
        if let Some(m) = &self.0 {
            m.plan.record(ns);
            let sec = m.win_lookups.second();
            m.win_lookups.record_at(sec, 1);
            if cache_hit {
                m.win_hits.record_at(sec, 1);
            }
        }
    }

    /// Record the time a query spent queued before activation.
    #[inline]
    pub(crate) fn observe_queue_wait(&self, ns: u64) {
        if let Some(m) = &self.0 {
            m.queue_wait.record(ns);
        }
    }

    /// Record one update batch (for the updates/s window).
    #[inline]
    pub(crate) fn observe_update(&self) {
        if let Some(m) = &self.0 {
            m.win_updates.record(1);
        }
    }

    /// The stream-drain histogram handle, for `StreamCore` to record
    /// terminal-read latency into.
    pub(crate) fn drain_hist(&self) -> Option<Arc<Histogram>> {
        self.0.as_ref().map(|m| m.drain.clone())
    }

    /// Whether a query with this terminal `outcome` and latency should
    /// pay for slow-log bookkeeping (the `SlowQuery` construction plus
    /// the log mutex). One relaxed load in the common case — a query
    /// faster than every logged entry cannot change the log. Deadline
    /// hits and threshold crossings always log.
    #[inline]
    pub(crate) fn should_log(&self, outcome: ServiceOutcome, elapsed: Duration) -> bool {
        let Some(m) = &self.0 else { return false };
        outcome == ServiceOutcome::Deadline
            || m.cfg.slow_threshold.is_some_and(|t| elapsed >= t)
            || elapsed.as_nanos() as u64 >= m.slow_floor.load(Ordering::Relaxed)
    }

    /// Record a query reaching its terminal state. `slow` carries the
    /// per-query detail for the slow log; callers prefilter with
    /// [`ServiceMetrics::should_log`], so a `Some` here is noted
    /// unconditionally (the log enforces its own capacity).
    pub(crate) fn observe_terminal(
        &self,
        outcome: ServiceOutcome,
        total_ns: u64,
        execute_ns: u64,
        matches: u64,
        slow: Option<SlowQuery>,
    ) {
        let Some(m) = &self.0 else { return };
        m.total[outcome.severity() as usize].record(total_ns);
        m.execute.record(execute_ns);
        m.result_size.record(matches);
        let sec = m.win_queries.second();
        m.win_queries.record_at(sec, 1);
        if matches > 0 {
            m.win_embeddings.record_at(sec, matches);
        }
        if let Some(q) = slow {
            if m.cfg.slow_threshold.is_some_and(|t| q.elapsed >= t) && q.profile.is_none() {
                // Tail capture: trace the next occurrence of this form.
                m.armed.lock().expect("armed poisoned").insert(q.canon_hash);
            }
            let mut log = m.slow.lock().expect("slow log poisoned");
            log.note(q);
            // Entries are sorted slowest-first: the floor is the last.
            let floor = log
                .entries
                .last()
                .map_or(0, |e| e.elapsed.as_nanos() as u64);
            m.slow_floor.store(floor, Ordering::Relaxed);
        }
    }

    /// Consume an armed tail capture for `canon_hash`: returns true at
    /// most once per arming — the caller compiles this occurrence with a
    /// trace attached. Arming only happens when a slow threshold is
    /// configured, so the no-threshold fast path skips the lock.
    pub(crate) fn take_armed(&self, canon_hash: u64) -> bool {
        match &self.0 {
            Some(m) if m.cfg.slow_threshold.is_some() => {
                m.armed.lock().expect("armed poisoned").remove(&canon_hash)
            }
            _ => false,
        }
    }

    /// A coherent snapshot of everything this handle has observed,
    /// combined with the service's registry `counters` block.
    pub(crate) fn report(&self, counters: CounterBlock) -> MetricsReport {
        let Some(m) = &self.0 else {
            return MetricsReport::disabled(counters);
        };
        MetricsReport {
            enabled: true,
            window_secs: m.start.elapsed().as_secs().clamp(1, WINDOW_SECS),
            queue_wait: m.queue_wait.snapshot(),
            plan: m.plan.snapshot(),
            execute: m.execute.snapshot(),
            drain: m.drain.snapshot(),
            result_size: m.result_size.snapshot(),
            total_by_outcome: OUTCOMES
                .iter()
                .enumerate()
                .map(|(i, o)| (o.name(), m.total[i].snapshot()))
                .collect(),
            win_queries: m.win_queries.total(),
            win_embeddings: m.win_embeddings.total(),
            win_updates: m.win_updates.total(),
            win_lookups: m.win_lookups.total(),
            win_hits: m.win_hits.total(),
            counters,
            slow: m.slow.lock().expect("slow log poisoned").entries.clone(),
        }
    }
}

/// A coherent snapshot of one service's telemetry: per-phase and
/// per-outcome latency distributions, last-minute window totals, the
/// merged registry counters, and the slow-query log.
///
/// Reports are mergeable ([`MetricsReport::merge_from`]) the same way
/// the underlying histograms are — the sharded router's
/// `metrics_report()` is exactly a merge of its shards'.
#[derive(Clone, Debug)]
pub struct MetricsReport {
    /// Whether the producing service records telemetry at all.
    pub enabled: bool,
    /// Seconds the rolling window actually spans (1..=60; lower while
    /// the service is young) — the denominator for the `*_per_sec`
    /// rates.
    pub window_secs: u64,
    /// Queue wait: plan ready to activation.
    pub queue_wait: HistSnapshot,
    /// Plan phase: cache consultation + compile on miss.
    pub plan: HistSnapshot,
    /// Execution: activation to terminal.
    pub execute: HistSnapshot,
    /// Stream drain: terminal report installed to client finishing the
    /// stream.
    pub drain: HistSnapshot,
    /// Matches per query.
    pub result_size: HistSnapshot,
    /// Total submit→terminal latency, per terminal outcome.
    pub total_by_outcome: Vec<(&'static str, HistSnapshot)>,
    /// Queries reaching a terminal state within the window.
    pub win_queries: u64,
    /// Embeddings counted within the window.
    pub win_embeddings: u64,
    /// Update batches applied within the window.
    pub win_updates: u64,
    /// Plan-cache consultations within the window.
    pub win_lookups: u64,
    /// Plan-cache hits within the window.
    pub win_hits: u64,
    /// The service's merged registry counters (same block as
    /// `Service::counters()`).
    pub counters: CounterBlock,
    /// Slow-query log, slowest first.
    pub slow: Vec<SlowQuery>,
}

impl MetricsReport {
    fn disabled(counters: CounterBlock) -> Self {
        MetricsReport {
            enabled: false,
            window_secs: 1,
            queue_wait: HistSnapshot::empty(),
            plan: HistSnapshot::empty(),
            execute: HistSnapshot::empty(),
            drain: HistSnapshot::empty(),
            result_size: HistSnapshot::empty(),
            total_by_outcome: OUTCOMES
                .iter()
                .map(|o| (o.name(), HistSnapshot::empty()))
                .collect(),
            win_queries: 0,
            win_embeddings: 0,
            win_updates: 0,
            win_lookups: 0,
            win_hits: 0,
            counters,
            slow: Vec::new(),
        }
    }

    /// Total submit→terminal latency across all outcomes.
    pub fn total(&self) -> HistSnapshot {
        let mut merged = HistSnapshot::empty();
        for (_, h) in &self.total_by_outcome {
            merged.merge(h);
        }
        merged
    }

    /// Queries/second over the rolling window.
    pub fn qps(&self) -> f64 {
        self.win_queries as f64 / self.window_secs as f64
    }

    /// Embeddings/second over the rolling window.
    pub fn embeddings_per_sec(&self) -> f64 {
        self.win_embeddings as f64 / self.window_secs as f64
    }

    /// Update batches/second over the rolling window.
    pub fn updates_per_sec(&self) -> f64 {
        self.win_updates as f64 / self.window_secs as f64
    }

    /// Plan-cache hit rate over the rolling window (0.0 when idle).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.win_lookups == 0 {
            0.0
        } else {
            self.win_hits as f64 / self.win_lookups as f64
        }
    }

    /// Merge another service's report into this one: histograms merge,
    /// window totals add, counters merge under the registry's sum/gauge
    /// rules, slow logs interleave keeping the slowest.
    pub fn merge_from(&mut self, other: &MetricsReport) {
        self.enabled |= other.enabled;
        self.window_secs = self.window_secs.max(other.window_secs);
        self.queue_wait.merge(&other.queue_wait);
        self.plan.merge(&other.plan);
        self.execute.merge(&other.execute);
        self.drain.merge(&other.drain);
        self.result_size.merge(&other.result_size);
        for ((_, a), (_, b)) in self
            .total_by_outcome
            .iter_mut()
            .zip(&other.total_by_outcome)
        {
            a.merge(b);
        }
        self.win_queries += other.win_queries;
        self.win_embeddings += other.win_embeddings;
        self.win_updates += other.win_updates;
        self.win_lookups += other.win_lookups;
        self.win_hits += other.win_hits;
        self.counters.merge(&other.counters);
        let cap = self.slow.len().max(other.slow.len()).max(1);
        self.slow.extend(other.slow.iter().cloned());
        self.slow.sort_by_key(|q| std::cmp::Reverse(q.elapsed));
        self.slow.truncate(cap);
    }

    /// The report as registry families, every series tagged with
    /// `extra` labels (the sharded renderer passes `shard="i"`).
    pub fn families(&self, extra: &[(&str, &str)]) -> Vec<FamilySnapshot> {
        let labeled = |labels: &[(&str, &str)]| -> Vec<(String, String)> {
            let mut v: Vec<(String, String)> = labels
                .iter()
                .chain(extra)
                .map(|(k, val)| (k.to_string(), val.to_string()))
                .collect();
            v.sort();
            v
        };
        let hist = |name: &str, h: &HistSnapshot| FamilySnapshot {
            name: name.to_string(),
            kind: Kind::Histogram,
            series: vec![SeriesSnapshot {
                labels: labeled(&[]),
                value: Value::Histogram(h.clone()),
            }],
        };
        let float = |name: &str, v: f64| FamilySnapshot {
            name: name.to_string(),
            kind: Kind::Gauge,
            series: vec![SeriesSnapshot {
                labels: labeled(&[]),
                value: Value::Float(v),
            }],
        };
        let mut fams = vec![
            hist("query_queue_wait_ns", &self.queue_wait),
            hist("query_plan_ns", &self.plan),
            hist("query_execute_ns", &self.execute),
            hist("query_drain_ns", &self.drain),
            hist("query_result_size", &self.result_size),
            FamilySnapshot {
                name: "query_total_ns".to_string(),
                kind: Kind::Histogram,
                series: self
                    .total_by_outcome
                    .iter()
                    .map(|(o, h)| SeriesSnapshot {
                        labels: labeled(&[("outcome", o)]),
                        value: Value::Histogram(h.clone()),
                    })
                    .collect(),
            },
            float("rate_queries_per_sec", self.qps()),
            float("rate_embeddings_per_sec", self.embeddings_per_sec()),
            float("rate_updates_per_sec", self.updates_per_sec()),
            float("cache_hit_rate_window", self.cache_hit_rate()),
        ];
        for c in Counter::ALL {
            fams.push(FamilySnapshot {
                name: c.name().to_string(),
                kind: if c.is_gauge() {
                    Kind::Gauge
                } else {
                    Kind::Counter
                },
                series: vec![SeriesSnapshot {
                    labels: labeled(&[]),
                    value: if c.is_gauge() {
                        Value::Gauge(self.counters.get(c))
                    } else {
                        Value::Counter(self.counters.get(c))
                    },
                }],
            });
        }
        fams.sort_by(|a, b| a.name.cmp(&b.name));
        fams
    }

    /// Prometheus-style text exposition of the whole report.
    pub fn to_prometheus(&self) -> String {
        prom::render(&self.families(&[]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(hash: u64, ms: u64) -> SlowQuery {
        SlowQuery {
            canon_hash: hash,
            outcome: ServiceOutcome::Complete,
            elapsed: Duration::from_millis(ms),
            matches: 1,
            recursions: 2,
            cache_hit: false,
            plan_build_ns: 0,
            plan: "test".to_string(),
            counters: CounterBlock::new(),
            profile: None,
        }
    }

    #[test]
    fn slow_log_keeps_top_n_by_form() {
        let mut log = SlowLog {
            entries: Vec::new(),
            capacity: 2,
        };
        log.note(entry(1, 10));
        log.note(entry(2, 30));
        log.note(entry(3, 20));
        assert_eq!(
            log.entries.iter().map(|e| e.canon_hash).collect::<Vec<_>>(),
            [2, 3]
        );
        // Same form again, slower: updates in place, no duplicate.
        log.note(entry(3, 50));
        assert_eq!(log.entries[0].canon_hash, 3);
        assert_eq!(log.entries.len(), 2);
        // Faster occurrence of a logged form does not regress the entry.
        log.note(entry(3, 5));
        assert_eq!(log.entries[0].elapsed, Duration::from_millis(50));
    }

    #[test]
    fn slow_log_profile_attaches_without_regressing() {
        let mut log = SlowLog {
            entries: Vec::new(),
            capacity: 4,
        };
        log.note(entry(7, 100));
        let mut captured = entry(7, 10);
        captured.profile = Some("tree".to_string());
        log.note(captured);
        assert_eq!(log.entries[0].elapsed, Duration::from_millis(100));
        assert_eq!(log.entries[0].profile.as_deref(), Some("tree"));
    }

    #[test]
    fn terminal_observations_reach_the_report() {
        let m = ServiceMetrics::new(MetricsConfig::default());
        m.observe_plan(1_000, true);
        m.observe_plan(2_000, false);
        m.observe_queue_wait(500);
        m.observe_terminal(
            ServiceOutcome::Complete,
            10_000,
            8_000,
            3,
            Some(entry(1, 1)),
        );
        m.observe_terminal(
            ServiceOutcome::Deadline,
            90_000,
            80_000,
            0,
            Some(entry(2, 9)),
        );
        let r = m.report(CounterBlock::new());
        assert!(r.enabled);
        assert_eq!(r.total().count(), 2);
        assert_eq!(r.win_queries, 2);
        assert_eq!(r.win_embeddings, 3);
        assert_eq!(r.win_lookups, 2);
        assert_eq!(r.win_hits, 1);
        assert_eq!(r.cache_hit_rate(), 0.5);
        assert_eq!(r.slow[0].canon_hash, 2, "slowest first");
        let deadline = r
            .total_by_outcome
            .iter()
            .find(|(o, _)| *o == "deadline")
            .unwrap();
        assert_eq!(deadline.1.count(), 1);
    }

    #[test]
    fn threshold_arms_tail_capture_once() {
        let m = ServiceMetrics::new(MetricsConfig {
            slow_threshold: Some(Duration::from_millis(5)),
            ..MetricsConfig::default()
        });
        m.observe_terminal(ServiceOutcome::Complete, 0, 0, 0, Some(entry(9, 50)));
        assert!(m.take_armed(9));
        assert!(!m.take_armed(9), "arming is consumed");
        // Below threshold: never armed.
        m.observe_terminal(ServiceOutcome::Complete, 0, 0, 0, Some(entry(11, 1)));
        assert!(!m.take_armed(11));
    }

    #[test]
    fn disabled_handle_is_inert() {
        let m = ServiceMetrics::disabled();
        assert!(!m.is_enabled());
        m.observe_plan(1, true);
        m.observe_terminal(ServiceOutcome::Complete, 1, 1, 1, None);
        assert!(m.drain_hist().is_none());
        let r = m.report(CounterBlock::new());
        assert!(!r.enabled);
        assert_eq!(r.total().count(), 0);
    }

    #[test]
    fn merged_report_combines_shards() {
        let a = ServiceMetrics::new(MetricsConfig::default());
        let b = ServiceMetrics::new(MetricsConfig::default());
        a.observe_terminal(ServiceOutcome::Complete, 1_000, 900, 2, None);
        b.observe_terminal(ServiceOutcome::Complete, 3_000, 2_500, 5, None);
        let mut merged = a.report(CounterBlock::new());
        merged.merge_from(&b.report(CounterBlock::new()));
        assert_eq!(merged.total().count(), 2);
        assert_eq!(merged.win_embeddings, 7);
        assert_eq!(merged.total().max(), 3_000);
    }

    #[test]
    fn prometheus_text_round_trips() {
        let m = ServiceMetrics::new(MetricsConfig::default());
        m.observe_terminal(ServiceOutcome::Complete, 5_000, 4_000, 2, None);
        let mut counters = CounterBlock::new();
        counters.add(Counter::QueriesAdmitted, 1);
        let text = m.report(counters).to_prometheus();
        let samples = prom::parse(&text).expect("rendered text parses");
        assert!(samples
            .iter()
            .any(|s| s.name == "sm_queries_admitted" && s.value == 1.0));
        assert!(samples.iter().any(|s| s.name == "sm_query_total_ns_count"
            && s.labels
                .contains(&("outcome".to_string(), "complete".to_string()))));
        assert!(samples.iter().any(|s| s.name == "sm_rate_queries_per_sec"));
    }
}
