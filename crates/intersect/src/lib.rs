//! Sorted-set intersection kernels.
//!
//! The paper's Section 3.3.2 and Figure 10 hinge on how fast the local
//! candidate computation of CECI/DP-iso (Algorithm 5) can intersect
//! candidate adjacency lists. This crate provides the competing kernels:
//!
//! * [`merge`] — the textbook two-pointer merge, `O(|a| + |b|)`.
//! * [`galloping`] — binary-search (exponential probe) intersection,
//!   `O(|a| log |b|)`, the right choice when `|a| ≪ |b|`.
//! * [`hybrid`] — the EmptyHeaded-style policy the paper adopts: merge
//!   when cardinalities are similar, galloping otherwise.
//! * [`bsr`] — a portable block-bitmap layout standing in for QFilter's
//!   SIMD intersection (Han et al., SIGMOD 2018): each element is encoded
//!   as a (base, 32-bit bitmap) pair, so one word-AND covers up to 32
//!   elements of a dense set. Like QFilter it wins on dense neighbor sets
//!   and loses its layout overhead on sparse ones.
//!
//! All kernels compute the intersection of two strictly-ascending `u32`
//! slices into a caller-provided buffer so the enumeration hot loop never
//! allocates. [`intersect_count`] and [`BsrView::intersect_count`] run the
//! same kernels but only count, which is all the last level of a
//! count-only search needs.

#![warn(missing_docs)]

pub mod bsr;
pub mod kernels;

pub use bsr::{BsrSet, BsrView};
pub use kernels::{
    galloping, hybrid, intersect_buf, intersect_count, intersect_nonempty, merge, IntersectKind,
    HYBRID_RATIO,
};
