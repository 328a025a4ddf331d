//! Shared harness utilities for the experiment binary: query-set
//! evaluation, aggregation, the Fig. 10 kernel micro-benchmark, and table
//! printing in the shape the paper reports.

#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod harness;
pub mod micro;
pub mod profile;
pub mod table;

pub use args::HarnessOptions;
pub use harness::{eval_query_set, QueryResult, SetSummary};
