//! `sm-runtime` — the hermetic execution substrate the rest of the
//! subgraph-matching system runs on.
//!
//! The study's engines (and the paper's Table 1 survey) all face the same
//! systems problems once a query leaves the single-threaded toy regime:
//!
//! * **skewed intra-query parallelism** — the subtrees below depth-0
//!   candidates of a power-law data graph differ in size by orders of
//!   magnitude, so a static partition of the root leaves most workers idle
//!   while one grinds a hub; [`pool`] cuts the root into small morsels and
//!   every worker pulls the next one from a shared queue (morsel-driven
//!   parallelism, after Leis et al., SIGMOD 2014);
//! * **multi-query fairness** — a service multiplexing many concurrent
//!   queries onto one pool must dispatch at morsel granularity,
//!   round-robin across the active runs, or one huge query starves every
//!   small one; [`sched`] is the one scheduler and worker loop every
//!   parallel run uses;
//! * **cooperative cancellation** — per-query kill limits, global match
//!   caps and caller-side aborts all need the same "poll a flag cheaply,
//!   stop soon" protocol ([`cancel`]);
//! * **observability** — scaling claims are guesses unless per-worker
//!   morsel/busy/idle counters are reported ([`metrics`]), and phase
//!   claims are guesses unless spans and counters share one schema
//!   ([`trace`]);
//! * **hermetic builds** — the workspace must compile and test fully
//!   offline, so the randomness the generators and the property tests need
//!   lives in-repo ([`rng`], [`check`]) instead of in external crates.
//!
//! Everything here is `std`-only by design: no external dependencies, no
//! build scripts, no feature detection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod check;
pub mod metrics;
pub mod pool;
pub mod rng;
pub mod sched;
pub mod trace;

pub use cancel::{CancelReason, CancelToken};
pub use metrics::{HistSnapshot, Histogram, PoolMetrics};
pub use pool::morsels;
pub use rng::Rng64;
pub use sched::{run_scoped, Claim, FairScheduler, SourceId};
pub use trace::{Counter, CounterBlock, RunProfile, Trace};
