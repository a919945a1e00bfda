//! LU factorization with partial pivoting.

use crate::{Error, Matrix, Result};

/// LU factorization `P A = L U` of a square matrix, with partial pivoting.
///
/// This is the workhorse solver for the circuit simulator's MNA systems.
///
/// # Example
///
/// ```
/// use numkit::{Matrix, lu::LuFactor};
/// # fn main() -> Result<(), numkit::Error> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let x = LuFactor::new(&a)?.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12 && (x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct LuFactor {
    /// Combined L (strict lower, unit diagonal implied) and U (upper),
    /// row-major `n × n`.
    lu: Vec<f64>,
    /// Dimension of the held factorization (0 when there is none).
    n: usize,
    /// Row permutation: `perm[i]` is the original row stored at position `i`.
    perm: Vec<usize>,
    /// Number of row swaps (for the determinant sign).
    swaps: usize,
    /// Per-column scales of the last factored matrix, kept so that
    /// [`LuFactor::refactor`] allocates nothing.
    col_scale: Vec<f64>,
}

/// Relative pivot threshold below which a matrix is declared singular.
const SINGULAR_EPS: f64 = 1e-13;

impl LuFactor {
    /// Factorizes `a`.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] if `a` is not square.
    /// * [`Error::Singular`] if a pivot falls below the singularity threshold
    ///   relative to the matrix scale.
    pub fn new(a: &Matrix) -> Result<Self> {
        let mut f = LuFactor::default();
        f.refactor(a)?;
        Ok(f)
    }

    /// Factorizes `a` into this factor's buffers, replacing what it held.
    /// Once the factor has held a matrix of this size, no heap allocation
    /// happens: Newton loops refactor one object per iteration.
    /// `LuFactor::default()` is an empty factor to start from.
    ///
    /// # Errors
    ///
    /// Same as [`LuFactor::new`]. After an error the factor holds nothing
    /// (dimension 0) until the next successful `refactor`.
    pub fn refactor(&mut self, a: &Matrix) -> Result<()> {
        self.n = 0;
        if a.rows() != a.cols() {
            return Err(Error::DimensionMismatch {
                expected: "square matrix".into(),
                got: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(Error::EmptyInput);
        }
        // Per-column scales: badly scaled but solvable systems (e.g. MNA
        // matrices mixing kilo-siemens diode conductances with unit branch
        // entries) must not be declared singular on their small columns.
        let col_scale = &mut self.col_scale;
        col_scale.clear();
        col_scale.resize(n, f64::MIN_POSITIVE);
        for row in a.as_slice().chunks_exact(n) {
            for (s, v) in col_scale.iter_mut().zip(row) {
                *s = s.max(v.abs());
            }
        }
        let lu = &mut self.lu;
        lu.clear();
        lu.extend_from_slice(a.as_slice());
        self.perm.clear();
        self.perm.extend(0..n);
        self.swaps = 0;

        for k in 0..n {
            // Partial pivoting: find the largest |a_ik| for i >= k.
            let mut p = k;
            let mut best = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < SINGULAR_EPS * col_scale[k] {
                return Err(Error::Singular { pivot: k });
            }
            if p != k {
                for c in 0..n {
                    lu.swap(k * n + c, p * n + c);
                }
                self.perm.swap(k, p);
                self.swaps += 1;
            }
            let pivot = lu[k * n + k];
            let (upper, lower) = lu.split_at_mut((k + 1) * n);
            let row_k = &upper[k * n..];
            for row_i in lower.chunks_exact_mut(n) {
                let m = row_i[k] / pivot;
                row_i[k] = m;
                if m != 0.0 {
                    for (a, &u) in row_i[k + 1..].iter_mut().zip(&row_k[k + 1..]) {
                        *a += -m * u;
                    }
                }
            }
        }
        self.n = n;
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` into a caller-owned `x`, allocating nothing.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] unless `b` and `x` both have
    /// length `dim()`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        let n = self.n;
        if b.len() != n || x.len() != n {
            return Err(Error::DimensionMismatch {
                expected: format!("rhs and solution of length {n}"),
                got: format!("lengths {} and {}", b.len(), x.len()),
            });
        }
        // Apply permutation, then forward substitution (unit lower).
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        let lu = &self.lu[..n * n];
        for (i, row) in lu.chunks_exact(n).enumerate().skip(1) {
            let mut s = x[i];
            for (l, xk) in row[..i].iter().zip(&x[..i]) {
                s -= l * xk;
            }
            x[i] = s;
        }
        // Back substitution (upper).
        for (i, row) in lu.chunks_exact(n).enumerate().rev() {
            let mut s = x[i];
            for (u, xk) in row[i + 1..].iter().zip(&x[i + 1..]) {
                s -= u * xk;
            }
            x[i] = s / row[i];
        }
        Ok(())
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        let mut d = if self.swaps.is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        for i in 0..self.n {
            d *= self.lu[i * self.n + i];
        }
        d
    }
}

/// One-shot solve of `A x = b` (factors and discards).
///
/// # Errors
///
/// Propagates errors from [`LuFactor::new`] and [`LuFactor::solve`].
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    LuFactor::new(a)?.solve(b)
}

/// Inverse of a square matrix (column-by-column solve).
///
/// # Errors
///
/// Propagates errors from [`LuFactor::new`].
pub fn inverse(a: &Matrix) -> Result<Matrix> {
    let n = a.rows();
    let lu = LuFactor::new(a)?;
    let mut inv = Matrix::zeros(n, n);
    let mut e = vec![0.0; n];
    for c in 0..n {
        e[c] = 1.0;
        let col = lu.solve(&e)?;
        e[c] = 0.0;
        for r in 0..n {
            inv.set(r, c, col[r]);
        }
    }
    Ok(inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_known_system() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[3.0, 4.0, 4.0], &[5.0, 6.0, 3.0]]).unwrap();
        let b = [3.0, 7.0, 8.0];
        let x = solve(&a, &b).unwrap();
        let r = a.matvec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn requires_pivoting() {
        // Zero on the (0,0) position forces a swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = solve(&a, &[2.0, 5.0]).unwrap();
        assert_eq!(x, vec![5.0, 2.0]);
    }

    #[test]
    fn detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(LuFactor::new(&a), Err(Error::Singular { .. })));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(LuFactor::new(&a).is_err());
    }

    #[test]
    fn rejects_empty() {
        let a = Matrix::zeros(0, 0);
        assert!(LuFactor::new(&a).is_err());
    }

    #[test]
    fn rhs_length_checked() {
        let a = Matrix::identity(3);
        let lu = LuFactor::new(&a).unwrap();
        assert!(lu.solve(&[1.0]).is_err());
    }

    #[test]
    fn refactor_matches_new_bit_for_bit() {
        let a = Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[3.0, 1.0, 4.0], &[1.0, 5.0, 9.0]]).unwrap();
        let b = Matrix::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 4.0, 1.0], &[0.0, 1.0, 4.0]]).unwrap();
        let rhs = [1.0, -2.0, 0.5];
        // One factor reused across matrices solves exactly like fresh ones.
        let mut f = LuFactor::default();
        let mut x = [0.0; 3];
        for m in [&a, &b, &a] {
            f.refactor(m).unwrap();
            f.solve_into(&rhs, &mut x).unwrap();
            assert_eq!(x.to_vec(), LuFactor::new(m).unwrap().solve(&rhs).unwrap());
        }
    }

    #[test]
    fn failed_refactor_leaves_no_factor() {
        let mut f = LuFactor::new(&Matrix::identity(2)).unwrap();
        let singular = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(f.refactor(&singular).is_err());
        assert_eq!(f.dim(), 0);
        assert!(f.solve(&[1.0, 1.0]).is_err());
    }

    #[test]
    fn determinant_known() {
        let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]).unwrap();
        let lu = LuFactor::new(&a).unwrap();
        assert!((lu.det() + 6.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[0.0, 3.0, 1.0], &[1.0, 0.0, 2.0]]).unwrap();
        let inv = inverse(&a).unwrap();
        let prod = inv.matmul(&a).unwrap();
        let i = Matrix::identity(3);
        assert!(prod.sub(&i).unwrap().max_abs() < 1e-12);
    }
}
