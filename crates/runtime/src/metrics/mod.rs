//! `sm-metrics`: the always-on telemetry spine (see OBSERVABILITY.md
//! "Metrics").
//!
//! Where `sm-trace` is per-run and opt-in — a deep profile of one
//! execution — this module is cheap enough to leave on in steady-state
//! serving: lock-free log-linear [`Histogram`]s for latency/size
//! distributions ([`hist`]), a [`RollingWindow`] ring for rates over the
//! last minute ([`window`]), a [`Registry`] of named counter/gauge/
//! histogram series with labeled dimensions ([`registry`]), and a
//! Prometheus-style text exposition with a parser for CI round-trips
//! ([`prom`]). The service layer composes these into
//! `Service::metrics_report()`; nothing here knows about queries or
//! shards.
//!
//! [`PoolMetrics`] is no long-lived series: it is the per-worker view of
//! one parallel run's counter blocks, threaded through return values.

pub mod hist;
mod pool_metrics;
pub mod prom;
pub mod registry;
pub mod window;

pub use hist::{HistSnapshot, Histogram};
pub use pool_metrics::PoolMetrics;
pub use registry::{
    CounterCell, FamilySnapshot, GaugeCell, Kind, Labels, Registry, SeriesSnapshot, Value,
};
pub use window::{RollingWindow, WINDOW_SECS};
