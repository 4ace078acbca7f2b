//! The [`Interval`] type: closed, finite intervals over `f64`.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

use serde::{Deserialize, Serialize};

use crate::ordering::PartialCmp;

/// Error returned by fallible [`Interval`] constructors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IntervalError {
    /// `lo` was greater than `hi`.
    Inverted {
        /// The offending lower bound.
        lo: f64,
        /// The offending upper bound.
        hi: f64,
    },
    /// A bound was NaN or infinite.
    NotFinite,
}

impl fmt::Display for IntervalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntervalError::Inverted { lo, hi } => {
                write!(f, "inverted interval bounds: lo={lo} > hi={hi}")
            }
            IntervalError::NotFinite => write!(f, "interval bounds must be finite"),
        }
    }
}

impl std::error::Error for IntervalError {}

/// Direction of monotonicity of a function argument.
///
/// Used by [`Interval::combine2`] and [`Interval::combine3`] to evaluate a
/// monotone function over interval arguments exactly, by evaluating it only
/// at the appropriate endpoints. The paper's cost model assumes all cost
/// functions are monotonic in their uncertain arguments (Section 5), which
/// makes endpoint evaluation produce tight bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Monotonicity {
    /// The function does not decrease when this argument increases.
    Increasing,
    /// The function does not increase when this argument increases.
    Decreasing,
}

/// A closed, finite interval `[lo, hi]` over `f64`.
///
/// Invariants (enforced by all constructors):
/// * `lo <= hi`
/// * both bounds are finite (no NaN, no infinities)
///
/// A *point* interval has `lo == hi` and models a precisely known value;
/// traditional "static" optimization is exactly interval optimization in
/// which every parameter is a point (paper Section 6: costs as points
/// represented by intervals `[expected, expected]`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// The additive identity, `[0, 0]`.
    pub const ZERO: Interval = Interval { lo: 0.0, hi: 0.0 };

    /// Creates `[lo, hi]`, panicking on invalid bounds.
    ///
    /// Use [`Interval::try_new`] when the bounds come from untrusted input.
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Interval {
        match Interval::try_new(lo, hi) {
            Ok(iv) => iv,
            Err(e) => panic!("Interval::new: {e}"),
        }
    }

    /// Creates `[lo, hi]`, validating the bounds.
    pub fn try_new(lo: f64, hi: f64) -> Result<Interval, IntervalError> {
        if !lo.is_finite() || !hi.is_finite() {
            return Err(IntervalError::NotFinite);
        }
        if lo > hi {
            return Err(IntervalError::Inverted { lo, hi });
        }
        Ok(Interval { lo, hi })
    }

    /// Creates the point interval `[x, x]`.
    #[must_use]
    pub fn point(x: f64) -> Interval {
        Interval::new(x, x)
    }

    /// The lower bound.
    #[must_use]
    pub fn lo(self) -> f64 {
        self.lo
    }

    /// The upper bound.
    #[must_use]
    pub fn hi(self) -> f64 {
        self.hi
    }

    /// Whether this interval is a single point (`lo == hi`).
    #[must_use]
    pub fn is_point(self) -> bool {
        self.lo == self.hi
    }

    /// The width `hi - lo` of the interval.
    #[must_use]
    pub fn width(self) -> f64 {
        self.hi - self.lo
    }

    /// The midpoint `(lo + hi) / 2`.
    #[must_use]
    pub fn midpoint(self) -> f64 {
        self.lo + (self.hi - self.lo) / 2.0
    }

    /// Whether `x` lies within the interval (inclusive).
    #[must_use]
    pub fn contains(self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Whether `other` lies entirely within `self` (inclusive).
    #[must_use]
    pub fn contains_interval(self, other: Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Whether an observed value leaves this interval — the one escape
    /// predicate behind EXPLAIN ANALYZE drift flags, mid-query
    /// re-optimization checkpoints, live-view drift re-arbitration and the
    /// service's cardinality feedback.
    ///
    /// The bounds are first widened by the multiplicative `tolerance`
    /// (clamped to at least 1) to `[lo / tolerance, hi · tolerance]`, then
    /// by the additive `slack` on each side; `observed` escapes iff it lies
    /// strictly outside the result, so the widened boundary itself does not
    /// escape. Meant for non-negative quantities (cardinalities, costs).
    #[must_use]
    pub fn escapes(self, observed: f64, tolerance: f64, slack: Slack) -> bool {
        let tolerance = tolerance.max(1.0);
        let (lo, hi) = (self.lo / tolerance, self.hi * tolerance);
        let s = slack.abs + slack.rel * hi.abs().max(1.0);
        observed < lo - s || observed > hi + s
    }

    /// Whether the two intervals share at least one value.
    #[must_use]
    pub fn overlaps(self, other: Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Four-valued comparison under the paper's incomparability rule.
    ///
    /// * `Less` iff `self.hi < other.lo` — `self` is cheaper for *every*
    ///   possible binding.
    /// * `Greater` iff `self.lo > other.hi`.
    /// * `Equal` iff both are the *same point* — only point intervals can be
    ///   proven equal.
    /// * `Incomparable` otherwise, i.e. whenever the intervals overlap in
    ///   more than the degenerate equal-point case. Identical non-point
    ///   intervals are incomparable: the actual values drawn from them at
    ///   run-time may differ.
    #[must_use]
    pub fn compare(self, other: Interval) -> PartialCmp {
        if self.is_point() && other.is_point() && self.lo == other.lo {
            PartialCmp::Equal
        } else if self.hi < other.lo {
            PartialCmp::Less
        } else if self.lo > other.hi {
            PartialCmp::Greater
        } else {
            PartialCmp::Incomparable
        }
    }

    /// Whether `self` *dominates* `other`: `self` can never be more
    /// expensive than `other` and is strictly cheaper for at least one
    /// binding. Dominated plans are safely pruned; plans with merely
    /// overlapping costs are not (paper Section 3).
    #[must_use]
    pub fn dominates(self, other: Interval) -> bool {
        // Never more expensive: hi <= other's lo would be the strongest
        // form; we use the weaker "hi <= lo and not identical point" so that
        // equal-cost point plans are NOT considered dominating (the paper
        // conservatively keeps equal-cost plans unless a tie-break is
        // explicitly enabled).
        self.hi <= other.lo && !(self.is_point() && other.is_point() && self.lo == other.lo)
    }

    /// Pointwise minimum: `[min(lo, lo'), min(hi, hi')]`.
    ///
    /// This is the cost of a choose-plan operator over two alternatives
    /// (before adding the decision overhead): in the best case it costs the
    /// cheaper of the two best cases, in the worst case the cheaper of the
    /// two worst cases (paper Sections 3 and 5).
    #[must_use]
    pub fn min(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Pointwise maximum: `[max(lo, lo'), max(hi, hi')]`.
    #[must_use]
    pub fn max(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Convex hull: the smallest interval containing both inputs.
    #[must_use]
    pub fn hull(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Intersection, or `None` when disjoint.
    #[must_use]
    pub fn intersect(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Clamps both bounds into `[min, max]`.
    #[must_use]
    pub fn clamp(self, min: f64, max: f64) -> Interval {
        Interval {
            lo: self.lo.clamp(min, max),
            hi: self.hi.clamp(min, max),
        }
    }

    /// Scales by a non-negative factor.
    ///
    /// # Panics
    /// Panics if `k` is negative or not finite.
    #[must_use]
    pub fn scale(self, k: f64) -> Interval {
        assert!(k.is_finite() && k >= 0.0, "scale factor must be >= 0, got {k}");
        Interval {
            lo: self.lo * k,
            hi: self.hi * k,
        }
    }

    /// Applies a non-decreasing function to both endpoints.
    ///
    /// Exact for monotone `f`; the caller asserts monotonicity. The result
    /// is normalized defensively (endpoints reordered) so a slightly
    /// non-monotone `f` cannot produce an inverted interval.
    #[must_use]
    pub fn map_monotone(self, f: impl Fn(f64) -> f64) -> Interval {
        let (a, b) = (f(self.lo), f(self.hi));
        Interval::new(a.min(b), a.max(b))
    }

    /// Evaluates a binary function monotone in each argument over interval
    /// arguments, by picking the correct endpoint per argument.
    ///
    /// For an argument marked [`Monotonicity::Increasing`] the lower output
    /// bound uses that argument's `lo` and the upper bound its `hi`;
    /// for [`Monotonicity::Decreasing`] the opposite.
    #[must_use]
    pub fn combine2(
        a: Interval,
        b: Interval,
        ma: Monotonicity,
        mb: Monotonicity,
        f: impl Fn(f64, f64) -> f64,
    ) -> Interval {
        let pick = |iv: Interval, m: Monotonicity, low: bool| match (m, low) {
            (Monotonicity::Increasing, true) | (Monotonicity::Decreasing, false) => iv.lo,
            (Monotonicity::Increasing, false) | (Monotonicity::Decreasing, true) => iv.hi,
        };
        let lo = f(pick(a, ma, true), pick(b, mb, true));
        let hi = f(pick(a, ma, false), pick(b, mb, false));
        Interval::new(lo.min(hi), lo.max(hi))
    }

    /// Ternary analogue of [`Interval::combine2`].
    #[must_use]
    pub fn combine3(
        a: Interval,
        b: Interval,
        c: Interval,
        ma: Monotonicity,
        mb: Monotonicity,
        mc: Monotonicity,
        f: impl Fn(f64, f64, f64) -> f64,
    ) -> Interval {
        let pick = |iv: Interval, m: Monotonicity, low: bool| match (m, low) {
            (Monotonicity::Increasing, true) | (Monotonicity::Decreasing, false) => iv.lo,
            (Monotonicity::Increasing, false) | (Monotonicity::Decreasing, true) => iv.hi,
        };
        let lo = f(pick(a, ma, true), pick(b, mb, true), pick(c, mc, true));
        let hi = f(pick(a, ma, false), pick(b, mb, false), pick(c, mc, false));
        Interval::new(lo.min(hi), lo.max(hi))
    }

    /// Subtracts only the *lower* bound of `other` from both bounds,
    /// saturating at zero width preservation.
    ///
    /// This is the branch-and-bound subtraction of the paper (Section 5):
    /// when maintaining a cost limit while optimizing the second input of a
    /// join, only the first input's *minimum* cost can be "used up" with
    /// certainty, so only the lower bound may be subtracted from the limit.
    #[must_use]
    pub fn sub_lower(self, other: Interval) -> Interval {
        Interval {
            lo: (self.lo - other.lo).max(0.0),
            hi: (self.hi - other.lo).max(0.0),
        }
    }
}

/// The additive slack [`Interval::escapes`] grants on each side of the
/// widened interval: `abs + rel · max(|hi|, 1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slack {
    /// Absolute slack.
    pub abs: f64,
    /// Slack relative to the widened upper bound.
    pub rel: f64,
}

impl Slack {
    /// Cardinality slack: half a row absolute (interval bounds are
    /// real-valued expectations, observed counts are integers) plus a hair
    /// of relative slack for float noise.
    pub const ROWS: Slack = Slack {
        abs: 0.5,
        rel: 1e-9,
    };
}

impl Default for Interval {
    fn default() -> Self {
        Interval::ZERO
    }
}

impl Add for Interval {
    type Output = Interval;

    fn add(self, rhs: Interval) -> Interval {
        Interval {
            lo: self.lo + rhs.lo,
            hi: self.hi + rhs.hi,
        }
    }
}

impl AddAssign for Interval {
    fn add_assign(&mut self, rhs: Interval) {
        *self = *self + rhs;
    }
}

impl Add<f64> for Interval {
    type Output = Interval;

    fn add(self, rhs: f64) -> Interval {
        Interval::new(self.lo + rhs, self.hi + rhs)
    }
}

impl Sub for Interval {
    type Output = Interval;

    /// Standard interval subtraction `[lo - hi', hi - lo']`.
    ///
    /// Note that cost-limit maintenance in branch-and-bound must use
    /// [`Interval::sub_lower`] instead (see paper Section 5).
    fn sub(self, rhs: Interval) -> Interval {
        Interval {
            lo: self.lo - rhs.hi,
            hi: self.hi - rhs.lo,
        }
    }
}

impl Mul for Interval {
    type Output = Interval;

    /// General interval multiplication (min/max over the four endpoint
    /// products), correct for intervals of any sign.
    fn mul(self, rhs: Interval) -> Interval {
        let p = [
            self.lo * rhs.lo,
            self.lo * rhs.hi,
            self.hi * rhs.lo,
            self.hi * rhs.hi,
        ];
        let lo = p.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = p.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Interval { lo, hi }
    }
}

impl Mul<f64> for Interval {
    type Output = Interval;

    fn mul(self, rhs: f64) -> Interval {
        self * Interval::point(rhs)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_point() {
            write!(f, "[{:.4}]", self.lo)
        } else {
            write!(f, "[{:.4}, {:.4}]", self.lo, self.hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let iv = Interval::new(1.0, 3.0);
        assert_eq!(iv.lo(), 1.0);
        assert_eq!(iv.hi(), 3.0);
        assert!(!iv.is_point());
        assert_eq!(iv.width(), 2.0);
        assert_eq!(iv.midpoint(), 2.0);
        assert!(Interval::point(5.0).is_point());
    }

    #[test]
    fn escape_boundaries() {
        let iv = Interval::new(10.0, 20.0);
        let s = 0.5 + 1e-9 * 20.0; // row slack at tolerance 1
        let s2 = 0.5 + 1e-9 * 40.0; // row slack at tolerance 2 (hi widened to 40)
        let cases: [(Interval, f64, f64, bool); 12] = [
            // (interval, observed, tolerance, escapes)
            (iv, 10.0 - s, 1.0, false),
            (iv, 10.0 - s - 1e-6, 1.0, true),
            (iv, 20.0 + s, 1.0, false),
            (iv, 20.0 + s + 1e-6, 1.0, true),
            (iv, 21.0, 1.0, true),
            (iv, 21.0, 2.0, false),
            (iv, 5.0 - s2, 2.0, false),
            (iv, 4.0, 2.0, true),
            (iv, 40.0 + s2 + 1e-6, 2.0, true),
            (iv, 0.0, 1.0, true),
            (Interval::new(0.0, 30.0), 0.0, 1.0, false),
            (Interval::new(0.0, 30.0), 0.0, 0.5, false), // tolerance clamps to 1
        ];
        for (i, &(iv, observed, tolerance, want)) in cases.iter().enumerate() {
            assert_eq!(
                iv.escapes(observed, tolerance, Slack::ROWS),
                want,
                "case {i}"
            );
        }
        // The cost slack: 1e-6 absolute plus 5% of the upper bound.
        let cost = Slack {
            abs: 1e-6,
            rel: 0.05,
        };
        assert!(!Interval::new(1.0, 2.0).escapes(2.1, 1.0, cost));
        assert!(Interval::new(1.0, 2.0).escapes(2.2, 1.0, cost));
    }

    #[test]
    fn try_new_rejects_bad_bounds() {
        assert_eq!(
            Interval::try_new(2.0, 1.0),
            Err(IntervalError::Inverted { lo: 2.0, hi: 1.0 })
        );
        assert_eq!(Interval::try_new(f64::NAN, 1.0), Err(IntervalError::NotFinite));
        assert_eq!(
            Interval::try_new(0.0, f64::INFINITY),
            Err(IntervalError::NotFinite)
        );
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn new_panics_on_inverted() {
        let _ = Interval::new(3.0, 1.0);
    }

    #[test]
    fn containment_and_overlap() {
        let a = Interval::new(0.0, 10.0);
        assert!(a.contains(0.0));
        assert!(a.contains(10.0));
        assert!(!a.contains(10.1));
        assert!(a.contains_interval(Interval::new(2.0, 3.0)));
        assert!(!a.contains_interval(Interval::new(2.0, 30.0)));
        assert!(a.overlaps(Interval::new(10.0, 20.0)), "touching counts as overlap");
        assert!(!a.overlaps(Interval::new(10.5, 20.0)));
    }

    #[test]
    fn compare_disjoint() {
        let cheap = Interval::new(0.0, 1.0);
        let dear = Interval::new(2.0, 3.0);
        assert_eq!(cheap.compare(dear), PartialCmp::Less);
        assert_eq!(dear.compare(cheap), PartialCmp::Greater);
    }

    #[test]
    fn compare_overlapping_is_incomparable() {
        let a = Interval::new(0.0, 5.0);
        let b = Interval::new(4.0, 9.0);
        assert_eq!(a.compare(b), PartialCmp::Incomparable);
        assert_eq!(b.compare(a), PartialCmp::Incomparable);
        // Identical non-point intervals are incomparable, not equal.
        assert_eq!(a.compare(a), PartialCmp::Incomparable);
        // Touching endpoints are incomparable (cannot prove strictly less).
        assert_eq!(
            Interval::new(0.0, 1.0).compare(Interval::new(1.0, 2.0)),
            PartialCmp::Incomparable
        );
    }

    #[test]
    fn compare_points() {
        let p = Interval::point(2.0);
        assert_eq!(p.compare(Interval::point(2.0)), PartialCmp::Equal);
        assert_eq!(p.compare(Interval::point(3.0)), PartialCmp::Less);
        assert_eq!(p.compare(Interval::point(1.0)), PartialCmp::Greater);
    }

    #[test]
    fn domination() {
        assert!(Interval::new(0.0, 1.0).dominates(Interval::new(1.0, 5.0)));
        assert!(!Interval::new(0.0, 1.1).dominates(Interval::new(1.0, 5.0)));
        // Equal points do not dominate each other.
        assert!(!Interval::point(1.0).dominates(Interval::point(1.0)));
        // A strictly cheaper point dominates.
        assert!(Interval::point(1.0).dominates(Interval::point(2.0)));
    }

    #[test]
    fn choose_plan_min_semantics() {
        // Paper Section 5 example: [0,10] and [1,1] combine (before decision
        // overhead) to [0,1]; with overhead [0.01,0.01] the dynamic plan
        // costs [0.01, 1.01].
        let a = Interval::new(0.0, 10.0);
        let b = Interval::new(1.0, 1.0);
        let combined = a.min(b) + Interval::point(0.01);
        assert_eq!(combined, Interval::new(0.01, 1.01));
    }

    #[test]
    fn hull_intersect_minmax() {
        let a = Interval::new(0.0, 4.0);
        let b = Interval::new(2.0, 8.0);
        assert_eq!(a.hull(b), Interval::new(0.0, 8.0));
        assert_eq!(a.intersect(b), Some(Interval::new(2.0, 4.0)));
        assert_eq!(a.intersect(Interval::new(5.0, 6.0)), None);
        assert_eq!(a.max(b), Interval::new(2.0, 8.0));
        assert_eq!(a.min(b), Interval::new(0.0, 4.0));
    }

    #[test]
    fn arithmetic() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(10.0, 20.0);
        assert_eq!(a + b, Interval::new(11.0, 22.0));
        assert_eq!(b - a, Interval::new(8.0, 19.0));
        assert_eq!(a * b, Interval::new(10.0, 40.0));
        assert_eq!(a.scale(3.0), Interval::new(3.0, 6.0));
        assert_eq!(a + 1.0, Interval::new(2.0, 3.0));
        let mut c = a;
        c += b;
        assert_eq!(c, Interval::new(11.0, 22.0));
    }

    #[test]
    fn mul_with_negative_bounds() {
        let a = Interval::new(-2.0, 3.0);
        let b = Interval::new(-1.0, 4.0);
        // endpoint products: 2, -8, -3, 12 -> [-8, 12]
        assert_eq!(a * b, Interval::new(-8.0, 12.0));
    }

    #[test]
    fn sub_lower_for_branch_and_bound() {
        let limit = Interval::new(5.0, 10.0);
        let spent = Interval::new(2.0, 9.0);
        // Only the lower bound (2.0) is certainly used up.
        assert_eq!(limit.sub_lower(spent), Interval::new(3.0, 8.0));
        // Saturates at zero.
        let tight = Interval::new(1.0, 2.0);
        assert_eq!(tight.sub_lower(Interval::new(3.0, 4.0)), Interval::new(0.0, 0.0));
    }

    #[test]
    fn map_monotone_and_combine() {
        let pages = Interval::new(10.0, 100.0);
        let ceil = pages.map_monotone(|p| (p / 8.0).ceil());
        assert_eq!(ceil, Interval::new(2.0, 13.0));

        // Sort passes: increasing in pages, decreasing in memory.
        let mem = Interval::new(4.0, 16.0);
        let passes = Interval::combine2(
            pages,
            mem,
            Monotonicity::Increasing,
            Monotonicity::Decreasing,
            |p, m| (p / m).ceil().max(1.0),
        );
        assert_eq!(passes.lo(), (10.0f64 / 16.0).ceil());
        assert_eq!(passes.hi(), (100.0f64 / 4.0).ceil());
    }

    #[test]
    fn clamp_and_display() {
        assert_eq!(Interval::new(-1.0, 2.0).clamp(0.0, 1.0), Interval::new(0.0, 1.0));
        assert_eq!(format!("{}", Interval::point(1.0)), "[1.0000]");
        assert_eq!(format!("{}", Interval::new(0.0, 1.0)), "[0.0000, 1.0000]");
    }
}
