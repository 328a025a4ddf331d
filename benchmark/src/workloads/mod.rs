//! The six workloads and the loop that measures them.
//!
//! Every workload is a closed loop (a caller waits for its reply before
//! sending the next request) with at most two client threads, built from
//! the same steps: set up [`SETUP_REPS`] or more times, run one untimed warm-up
//! pass, run timed passes of a fixed amount of work until `--seconds`
//! have been measured, read the process's peak memory, then check every
//! recorded answer against the oracle.

pub mod matching;
pub mod serve;
pub mod shard;
pub mod update;

use crate::metrics::Metrics;
use crate::span::SpanBuf;
use crate::stats;
use std::time::Instant;

/// Workload names, in the order they run. Final: later issues cite them.
pub const NAMES: [&str; 6] = [
    "match-enum",
    "match-plan",
    "serve-hot",
    "serve-cold",
    "update-durable",
    "shard-scatter",
];

/// Set-up is sub-second, so one run sets up several times and reports
/// the median: at least this often,
pub const SETUP_REPS: usize = 3;
/// and, while set-ups are so short that a scheduling hiccup is a tenth of
/// one, until this many seconds were spent on them or this many ran.
const SETUP_SECONDS: f64 = 1.0;
const SETUP_REPS_MAX: usize = 9;

/// Fewest timed passes in a measured run.
pub const MIN_PASSES: usize = 5;

/// Fewest pooled latency samples in a measured run: p95 then has ten
/// samples beyond it.
pub const MIN_SAMPLES: usize = 200;

#[derive(Clone, Debug)]
pub struct RunOpts {
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// Tiny sizes, all oracles, numbers not meant to be read.
    pub quick: bool,
    /// Self-check: corrupt one expected answer (and, where there is one,
    /// one WAL tail byte); the run must then report failures.
    pub sabotage: bool,
}

impl RunOpts {
    /// `full` in a measured run, `quick` in a quick one.
    pub fn size(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// What one workload run found.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
}

pub fn run(name: &str, opts: &RunOpts) -> Result<Report, String> {
    match name {
        "match-enum" => matching::run(matching::Shape::Enum, opts),
        "match-plan" => matching::run(matching::Shape::Plan, opts),
        "serve-hot" => serve::run(serve::Shape::Hot, opts),
        "serve-cold" => serve::run(serve::Shape::Cold, opts),
        "update-durable" => update::run(opts),
        "shard-scatter" => shard::run(opts),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

/// Run `build` several times (see [`SETUP_REPS`]); keep the last result
/// and report the median wall time in seconds.
pub fn median_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS_MAX);
    let mut last = None;
    while times.len() < SETUP_REPS
        || (times.len() < SETUP_REPS_MAX && times.iter().sum::<f64>() < SETUP_SECONDS)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS > 0"), stats::median(&times))
}

pub enum PassKind {
    WarmUp,
    Timed(usize),
}

impl PassKind {
    /// 0 for the warm-up, then 1, 2, … (the high bits of query ids).
    pub fn index(&self) -> usize {
        match self {
            PassKind::WarmUp => 0,
            PassKind::Timed(i) => i + 1,
        }
    }
}

/// One pass: the wall time of its operations (drawing the pass's inputs
/// is not part of it), how many completed, and each one's latency.
pub struct Pass {
    pub wall_s: f64,
    pub ops: u64,
    pub lat_ms: Vec<f64>,
}

/// The timed section of a run.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall seconds and completed operations of each timed pass.
    pub passes: Vec<(f64, u64)>,
    /// Client-observed latencies pooled over all timed passes.
    pub lat_ms: Vec<f64>,
    /// Median traced pass wall / median untraced pass wall (traced run).
    pub trace_overhead: f64,
}

impl Measured {
    /// Median over passes of operations per second.
    pub fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .passes
            .iter()
            .map(|&(wall, ops)| ops as f64 / wall.max(1e-9))
            .collect();
        stats::median(&rates)
    }

    pub fn ops(&self) -> u64 {
        self.passes.iter().map(|p| p.1).sum()
    }
}

/// Warm up, then run timed passes until `opts.seconds` of pass time are
/// measured.
///
/// Untraced: every pass runs with span recording off. Traced: passes
/// alternate untraced/traced (same work, interleaved so drift hits both
/// sides) for half of `opts.seconds` — the other half of the budget goes
/// to the layer probes — and spans of traced passes land in `rec`.
pub fn measure(
    opts: &RunOpts,
    rec: &mut SpanBuf,
    mut pass: impl FnMut(PassKind, &mut SpanBuf) -> Pass,
) -> Measured {
    let mut off = SpanBuf::new(false);
    pass(PassKind::WarmUp, &mut off);
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (min_passes, min_samples) = if opts.quick {
        (1, 0)
    } else if opts.trace {
        (2, 0)
    } else {
        (MIN_PASSES, MIN_SAMPLES)
    };
    let mut out = Measured::default();
    let mut traced_walls = Vec::new();
    let mut spent = 0.0;
    let mut idx = 0;
    while out.passes.len() < min_passes || out.lat_ms.len() < min_samples || spent < budget {
        let p = pass(PassKind::Timed(idx), &mut off);
        spent += p.wall_s;
        out.passes.push((p.wall_s, p.ops));
        out.lat_ms.extend(p.lat_ms);
        idx += 1;
        if opts.trace {
            let token = rec.open("pass", 0);
            let wall = pass(PassKind::Timed(idx), rec).wall_s;
            rec.close(token);
            spent += wall;
            traced_walls.push(wall);
            idx += 1;
        }
    }
    let untraced: Vec<f64> = out.passes.iter().map(|p| p.0).collect();
    out.trace_overhead = if traced_walls.is_empty() {
        1.0
    } else {
        stats::median(&traced_walls) / stats::median(&untraced).max(1e-12)
    };
    out
}

/// Fill in the end-to-end metrics every workload reports.
pub fn end_to_end(m: &mut Metrics, setup_s: f64, measured: &Measured, peak_rss_mb: f64) {
    let lat = stats::sorted(measured.lat_ms.clone());
    m.set("setup_s", setup_s);
    m.set("queries_per_s", measured.ops_per_s());
    m.set("query_p50_ms", stats::percentile(&lat, 0.5).unwrap_or(0.0));
    m.set("query_p95_ms", stats::tail_percentile(&lat));
    m.set("peak_rss_mb", peak_rss_mb);
}

/// Tallies answers against expectations.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// The first few mismatches, for the report.
    pub examples: Vec<String>,
}

impl Verdict {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.examples.len() < 5 {
                self.examples.push(what());
            }
        }
    }
}
