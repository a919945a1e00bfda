//! 1-D interpolation utilities: piecewise-linear functions and resampling.

use crate::{Error, Result};

/// A piecewise-linear function defined by strictly increasing breakpoints.
///
/// Outside the breakpoint range the function is extrapolated by holding the
/// boundary value (clamped), which is the conventional behaviour for
/// tabulated device I–V curves (IBIS tables, clamp curves).
///
/// # Example
///
/// ```
/// use numkit::interp::Pwl;
/// # fn main() -> Result<(), numkit::Error> {
/// let f = Pwl::new(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 10.0])?;
/// assert_eq!(f.eval(0.5), 5.0);
/// assert_eq!(f.eval(-1.0), 0.0); // clamped
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pwl {
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Pwl {
    /// Creates a piecewise-linear function.
    ///
    /// # Errors
    ///
    /// * [`Error::EmptyInput`] for empty inputs.
    /// * [`Error::DimensionMismatch`] if `x` and `y` differ in length.
    /// * [`Error::NonFiniteValue`] if a breakpoint is NaN or infinite.
    /// * [`Error::NonMonotonicAbscissa`] if `x` is not strictly increasing.
    pub fn new(x: Vec<f64>, y: Vec<f64>) -> Result<Self> {
        if x.is_empty() {
            return Err(Error::EmptyInput);
        }
        if x.len() != y.len() {
            return Err(Error::DimensionMismatch {
                expected: format!("y of length {}", x.len()),
                got: format!("y of length {}", y.len()),
            });
        }
        // Finiteness first: a NaN abscissa would otherwise slip through the
        // monotonicity comparison below (`NaN <= prev` is false).
        for (i, v) in x.iter().chain(y.iter()).enumerate() {
            if !v.is_finite() {
                return Err(Error::NonFiniteValue { index: i % x.len() });
            }
        }
        for i in 1..x.len() {
            if x[i] <= x[i - 1] {
                return Err(Error::NonMonotonicAbscissa { index: i });
            }
        }
        Ok(Pwl { x, y })
    }

    /// Breakpoint abscissas.
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// Breakpoint ordinates.
    pub fn y(&self) -> &[f64] {
        &self.y
    }

    /// Index of the right endpoint of the active segment for a finite,
    /// in-range `t`. Shared by [`Pwl::eval`] and [`Pwl::slope`] so the
    /// evaluated segment and the reported slope can never disagree: a query
    /// landing exactly on an interior breakpoint selects the *right*
    /// segment in both.
    fn segment(&self, t: f64) -> usize {
        self.x
            .partition_point(|&v| v <= t)
            .clamp(1, self.x.len() - 1)
    }

    /// Evaluates the function at `t` with clamped extrapolation.
    ///
    /// A NaN query returns NaN (a NaN sample from an upstream solve must
    /// propagate as data, not abort the process).
    pub fn eval(&self, t: f64) -> f64 {
        if t.is_nan() {
            return f64::NAN;
        }
        let n = self.x.len();
        if t <= self.x[0] {
            return self.y[0];
        }
        if t >= self.x[n - 1] {
            return self.y[n - 1];
        }
        let idx = self.segment(t);
        let (x0, x1) = (self.x[idx - 1], self.x[idx]);
        let (y0, y1) = (self.y[idx - 1], self.y[idx]);
        y0 + (y1 - y0) * (t - x0) / (x1 - x0)
    }

    /// Derivative (slope of the segment [`Pwl::eval`] interpolates on);
    /// zero in the clamped regions, NaN for a NaN query. At exact interior
    /// breakpoints both methods use the right segment, so a Newton
    /// linearization `eval(t) + slope(t)·dt` is always consistent.
    pub fn slope(&self, t: f64) -> f64 {
        if t.is_nan() {
            return f64::NAN;
        }
        let n = self.x.len();
        if t < self.x[0] || t > self.x[n - 1] || n == 1 {
            return 0.0;
        }
        let idx = self.segment(t);
        (self.y[idx] - self.y[idx - 1]) / (self.x[idx] - self.x[idx - 1])
    }
}

/// Linearly interpolates `(xs, ys)` at point `x` with clamped extrapolation.
///
/// `xs` must be strictly increasing; this is a checked one-shot convenience
/// wrapper around [`Pwl`]-style lookup without building the struct.
pub fn lerp_at(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    debug_assert_eq!(xs.len(), ys.len());
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    if x.is_nan() {
        // NaN escapes both clamp tests; without this guard a single-point
        // table would panic in `clamp(1, 0)` below.
        return f64::NAN;
    }
    if x <= xs[0] {
        return ys[0];
    }
    if x >= xs[n - 1] {
        return ys[n - 1];
    }
    let idx = xs.partition_point(|&v| v <= x).clamp(1, n - 1);
    let (x0, x1) = (xs[idx - 1], xs[idx]);
    let (y0, y1) = (ys[idx - 1], ys[idx]);
    y0 + (y1 - y0) * (x - x0) / (x1 - x0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pwl_eval_and_clamp() {
        let f = Pwl::new(vec![0.0, 1.0, 3.0], vec![0.0, 2.0, -2.0]).unwrap();
        assert_eq!(f.eval(0.0), 0.0);
        assert_eq!(f.eval(0.5), 1.0);
        assert_eq!(f.eval(1.0), 2.0);
        assert_eq!(f.eval(2.0), 0.0);
        assert_eq!(f.eval(-5.0), 0.0);
        assert_eq!(f.eval(9.0), -2.0);
        assert_eq!(f.x().len(), 3);
        assert_eq!(f.y().len(), 3);
    }

    #[test]
    fn pwl_slope() {
        let f = Pwl::new(vec![0.0, 1.0, 3.0], vec![0.0, 2.0, -2.0]).unwrap();
        assert_eq!(f.slope(0.5), 2.0);
        assert_eq!(f.slope(2.0), -2.0);
        assert_eq!(f.slope(-1.0), 0.0);
        assert_eq!(f.slope(4.0), 0.0);
    }

    #[test]
    fn nan_query_returns_nan_instead_of_panicking() {
        // Regression: a NaN sample from an upstream solve used to abort via
        // `binary_search_by(.. partial_cmp ..).expect(..)`.
        let f = Pwl::new(vec![0.0, 1.0, 3.0], vec![0.0, 2.0, -2.0]).unwrap();
        assert!(f.eval(f64::NAN).is_nan());
        assert!(f.slope(f64::NAN).is_nan());
        // Single-breakpoint tables are the hardest case (clamp(1, 0) would
        // panic in the segment lookup).
        let g = Pwl::new(vec![1.0], vec![7.0]).unwrap();
        assert!(g.eval(f64::NAN).is_nan());
        assert!(g.slope(f64::NAN).is_nan());
        assert_eq!(g.eval(5.0), 7.0);
        assert!(lerp_at(&[1.0], &[7.0], f64::NAN).is_nan());
        assert!(lerp_at(&[0.0, 1.0], &[0.0, 1.0], f64::NAN).is_nan());
    }

    #[test]
    fn eval_and_slope_agree_at_interior_breakpoints() {
        // Regression: eval (binary_search) and slope (partition_point) used
        // different segment selections, so at an exact breakpoint hit the
        // reported slope could belong to a different segment than the one
        // being evaluated. Both must use the right-hand segment: the
        // first-order model eval(t) + slope(t)·h must match eval(t + h)
        // exactly for small forward steps from the breakpoint.
        let f = Pwl::new(vec![0.0, 1.0, 3.0], vec![0.0, 2.0, -2.0]).unwrap();
        let t = 1.0; // interior breakpoint
        assert_eq!(f.eval(t), 2.0);
        assert_eq!(f.slope(t), -2.0, "right-segment slope at breakpoint");
        let h = 1e-3;
        let lin = f.eval(t) + f.slope(t) * h;
        assert!((lin - f.eval(t + h)).abs() < 1e-12);
        // And strictly inside each segment the pair stays consistent too.
        for &t in &[0.25, 0.75, 1.5, 2.9] {
            let h = 1e-4;
            let lin = f.eval(t) + f.slope(t) * h;
            assert!((lin - f.eval(t + h)).abs() < 1e-12, "t = {t}");
        }
    }

    #[test]
    fn pwl_validation() {
        assert!(Pwl::new(vec![], vec![]).is_err());
        assert!(Pwl::new(vec![0.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(Pwl::new(vec![0.0, 1.0], vec![1.0]).is_err());
        assert!(Pwl::new(vec![1.0, 0.0], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn pwl_rejects_non_finite_breakpoints() {
        // Regression: a NaN abscissa used to pass the strictly-increasing
        // check (`NaN <= prev` is false) and build a corrupt table.
        assert_eq!(
            Pwl::new(vec![0.0, f64::NAN, 2.0], vec![0.0, 1.0, 2.0]),
            Err(Error::NonFiniteValue { index: 1 })
        );
        assert!(matches!(
            Pwl::new(vec![0.0, 1.0], vec![0.0, f64::INFINITY]),
            Err(Error::NonFiniteValue { .. })
        ));
        assert!(matches!(
            Pwl::new(vec![f64::NEG_INFINITY, 1.0], vec![0.0, 1.0]),
            Err(Error::NonFiniteValue { .. })
        ));
        assert!(matches!(
            Pwl::new(vec![0.0, 1.0], vec![f64::NAN, 1.0]),
            Err(Error::NonFiniteValue { .. })
        ));
    }

    #[test]
    fn lerp_at_basics() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 10.0, 0.0];
        assert_eq!(lerp_at(&xs, &ys, 0.25), 2.5);
        assert_eq!(lerp_at(&xs, &ys, 1.5), 5.0);
        assert_eq!(lerp_at(&xs, &ys, -1.0), 0.0);
        assert_eq!(lerp_at(&xs, &ys, 5.0), 0.0);
        assert_eq!(lerp_at(&[], &[], 1.0), 0.0);
    }
}
