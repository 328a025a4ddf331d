//! `sm-metrics`: the always-on telemetry spine (see OBSERVABILITY.md
//! "Metrics").
//!
//! Where `sm-trace` is per-run and opt-in — a deep profile of one
//! execution — this module is cheap enough to leave on in steady-state
//! serving: lock-free log-linear [`Histogram`]s for latency/size
//! distributions ([`hist`]) and a Prometheus-style text exposition of
//! named, labelled series with a parser for CI round-trips ([`prom`]).
//! The service layer composes these into `Service::metrics_report()`;
//! nothing here knows about queries or shards. Every exported series is
//! cumulative: a rate is the change in a series between two reads,
//! divided by the time between them, taken by the reader.
//!
//! [`PoolMetrics`] is no long-lived series: it is the per-worker view of
//! one parallel run's counter blocks, threaded through return values.

pub mod hist;
mod pool_metrics;
pub mod prom;

pub use hist::{HistSnapshot, Histogram};
pub use pool_metrics::PoolMetrics;
pub use prom::{FamilySnapshot, Kind, Labels, SeriesSnapshot, Value};
