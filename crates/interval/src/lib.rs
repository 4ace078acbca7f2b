//! Interval arithmetic and partial cost ordering.
//!
//! This crate provides the numeric foundation of dynamic-plan optimization
//! as described in *Optimization of Dynamic Query Evaluation Plans* (Cole &
//! Graefe, SIGMOD 1994), the completion of *Dynamic Query Evaluation Plans*
//! (Graefe & Ward, SIGMOD 1989): cost-model parameters that are unknown at
//! compile-time (selectivities of unbound predicates, available memory) are
//! represented as closed intervals `[lo, hi]` instead of point estimates.
//!
//! Costs computed from interval parameters are themselves intervals, and two
//! cost intervals that *overlap* are **incomparable** — neither plan can be
//! proven cheaper for every possible run-time binding. Incomparability is
//! what induces the *partial order* on plans that the dynamic-plan optimizer
//! exploits: all mutually incomparable alternatives are retained and linked
//! under a choose-plan operator.
//!
//! The central types are:
//!
//! * [`Interval`] — a closed, finite interval over `f64` with arithmetic
//!   (`+`, `-`, `*`, pointwise min/max, hull) and monotone function mapping.
//! * [`PartialCmp`] — the four-valued comparison result
//!   (`Less`/`Greater`/`Equal`/`Incomparable`) returned by
//!   [`Interval::compare`].
//! * [`ParamValue`] — an uncertain parameter: either a known point or a
//!   range, with an expected value used by traditional (static) optimization.

#![warn(missing_docs)]

mod interval;
mod ordering;
mod param;

pub use interval::{Interval, IntervalError, Monotonicity, Slack};
pub use ordering::PartialCmp;
pub use param::ParamValue;
