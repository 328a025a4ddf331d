//! Shared harness utilities for the experiment binary: query-set
//! evaluation, aggregation, and table printing in the shape the paper
//! reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod harness;
pub mod profile;
pub mod table;

pub use args::HarnessOptions;
pub use harness::{eval_query_set, QueryResult, SetSummary};
