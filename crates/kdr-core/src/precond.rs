//! Preconditioner construction (the paper's §7 "future work",
//! implemented here as an extension).
//!
//! The paper's planner accepts arbitrary preconditioner components
//! but derives none automatically. We provide the classical ones it
//! names:
//!
//! * **Jacobi** — `P = diag(A)⁻¹`, as a single-diagonal DIA matrix,
//!   so it flows through the ordinary operator machinery (relations,
//!   tiles, co-partitioning) with zero special cases.
//! * **Weighted Jacobi** — `P = ω · diag(A)⁻¹` for damped
//!   Richardson-style smoothing.

use kdr_sparse::{Dia, Scalar, SparseMatrix};

/// Inverse-diagonal (Jacobi) preconditioner of a square operator.
/// Panics if any diagonal entry is zero.
pub fn jacobi<T: Scalar>(matrix: &dyn SparseMatrix<T>) -> Dia<T> {
    weighted_jacobi(matrix, T::ONE)
}

/// `ω · diag(A)⁻¹`.
pub fn weighted_jacobi<T: Scalar>(matrix: &dyn SparseMatrix<T>, omega: T) -> Dia<T> {
    let diag = matrix.diagonal();
    invert_diag(diag, omega)
}

/// Block-Jacobi preconditioner: `P = blockdiag(A₁₁⁻¹, …)⁻¹`-style —
/// the diagonal `bs × bs` blocks of `A` are inverted exactly (dense
/// LU with partial pivoting) and assembled into a BCSR matrix, so the
/// preconditioner flows through the ordinary operator machinery.
///
/// The matrix dimension must be a multiple of `bs`; any singular
/// diagonal block panics.
pub fn block_jacobi<T: Scalar>(matrix: &dyn SparseMatrix<T>, bs: u64) -> kdr_sparse::Bcsr<T> {
    let n = matrix.range_space().size();
    assert_eq!(
        n,
        matrix.domain_space().size(),
        "block Jacobi needs a square operator"
    );
    assert!(bs >= 1 && n % bs == 0, "dimension must be a multiple of bs");
    let nb = (n / bs) as usize;
    let bsz = bs as usize;
    // Gather the diagonal blocks.
    let mut blocks = vec![T::ZERO; nb * bsz * bsz];
    matrix.for_each_entry(&mut |_, i, j, v| {
        if i / bs == j / bs {
            let b = (i / bs) as usize;
            let (r, c) = ((i % bs) as usize, (j % bs) as usize);
            blocks[b * bsz * bsz + r * bsz + c] += v;
        }
    });
    // Invert each block and emit triples.
    let mut t = kdr_sparse::Triples::new(n, n);
    let mut work = vec![T::ZERO; bsz * bsz];
    let mut inv = vec![T::ZERO; bsz * bsz];
    for b in 0..nb {
        work.copy_from_slice(&blocks[b * bsz * bsz..(b + 1) * bsz * bsz]);
        invert_dense(&mut work, &mut inv, bsz)
            .unwrap_or_else(|| panic!("singular diagonal block {b}"));
        for r in 0..bsz {
            for c in 0..bsz {
                let v = inv[r * bsz + c];
                if v != T::ZERO {
                    t.push(b as u64 * bs + r as u64, b as u64 * bs + c as u64, v);
                }
            }
        }
    }
    kdr_sparse::Bcsr::from_triples(t, bs, bs)
}

/// Invert a dense `n × n` row-major matrix in `a` (destroyed) into
/// `out` via Gauss–Jordan with partial pivoting. Returns `None` if
/// singular (pivot below `n · ε · max|a|`).
pub fn invert_dense<T: Scalar>(a: &mut [T], out: &mut [T], n: usize) -> Option<()> {
    assert_eq!(a.len(), n * n);
    assert_eq!(out.len(), n * n);
    // Start with the identity.
    out.fill(T::ZERO);
    for i in 0..n {
        out[i * n + i] = T::ONE;
    }
    let maxabs = a.iter().map(|v| v.abs().to_f64()).fold(0.0f64, f64::max);
    let tol = T::from_f64(maxabs * n as f64 * T::epsilon().to_f64());
    for col in 0..n {
        // Partial pivot.
        let mut piv = col;
        for r in col + 1..n {
            if a[r * n + col].abs() > a[piv * n + col].abs() {
                piv = r;
            }
        }
        if a[piv * n + col].abs() <= tol.abs() {
            return None;
        }
        if piv != col {
            for c in 0..n {
                a.swap(piv * n + c, col * n + c);
                out.swap(piv * n + c, col * n + c);
            }
        }
        let inv_p = T::ONE / a[col * n + col];
        for c in 0..n {
            a[col * n + c] *= inv_p;
            out[col * n + c] *= inv_p;
        }
        for r in 0..n {
            if r == col {
                continue;
            }
            let f = a[r * n + col];
            if f == T::ZERO {
                continue;
            }
            for c in 0..n {
                let ac = a[col * n + c];
                let oc = out[col * n + c];
                a[r * n + c] -= f * ac;
                out[r * n + c] -= f * oc;
            }
        }
    }
    Some(())
}

fn invert_diag<T: Scalar>(diag: Vec<T>, omega: T) -> Dia<T> {
    let n = diag.len() as u64;
    let inv: Vec<T> = diag
        .into_iter()
        .enumerate()
        .map(|(i, d)| {
            assert!(
                d != T::ZERO,
                "Jacobi preconditioner: zero diagonal at row {i}"
            );
            omega / d
        })
        .collect();
    Dia::from_raw(vec![0], inv, n, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdr_sparse::{Csr, Stencil, Triples};

    #[test]
    fn jacobi_inverts_diagonal() {
        let s = Stencil::lap2d(4, 4);
        let m: Csr<f64> = s.to_csr();
        let p = jacobi(&m);
        // Apply to a basis vector: P e_0 = (1/4) e_0.
        let mut e = vec![0.0; 16];
        e[0] = 1.0;
        let mut y = vec![0.0; 16];
        p.spmv(&e, &mut y);
        assert!((y[0] - 0.25).abs() < 1e-15);
        assert!(y[1..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn weighted_jacobi_scales() {
        let s = Stencil::lap1d(4);
        let m: Csr<f64> = s.to_csr();
        let p = weighted_jacobi(&m, 0.5);
        let mut y = vec![0.0; 4];
        p.spmv(&[1.0, 1.0, 1.0, 1.0], &mut y);
        assert!(y.iter().all(|&v| (v - 0.25).abs() < 1e-15));
    }

    #[test]
    fn invert_dense_roundtrip() {
        // A well-conditioned 3x3.
        let a = [4.0, 1.0, 0.0, 1.0, 3.0, -1.0, 0.0, -1.0, 2.0];
        let mut work = a;
        let mut inv = [0.0; 9];
        invert_dense(&mut work, &mut inv, 3).unwrap();
        // A * inv == I.
        for r in 0..3 {
            for c in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += a[r * 3 + k] * inv[k * 3 + c];
                }
                let expect = if r == c { 1.0 } else { 0.0 };
                assert!((s - expect).abs() < 1e-12, "({r},{c}) = {s}");
            }
        }
    }

    #[test]
    fn invert_dense_detects_singular() {
        let mut a = [1.0, 2.0, 2.0, 4.0];
        let mut inv = [0.0; 4];
        assert!(invert_dense(&mut a, &mut inv, 2).is_none());
    }

    #[test]
    fn invert_dense_pivots() {
        // Zero leading pivot requires a row swap.
        let a = [0.0, 1.0, 1.0, 0.0];
        let mut work = a;
        let mut inv = [0.0; 4];
        invert_dense(&mut work, &mut inv, 2).unwrap();
        assert_eq!(inv, [0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn block_jacobi_applies_exact_block_inverse() {
        let s = Stencil::lap2d(4, 4);
        let m: Csr<f64> = s.to_csr();
        let p = block_jacobi(&m, 4);
        // P * (diagonal-block part of A) restricted to one block must
        // act as identity: apply P to A's first block column sums.
        let mut e = [0.0; 16];
        e[1] = 1.0;
        // z = A|_block e (block 0 holds rows 0..4).
        let mut z = vec![0.0; 16];
        m.for_each_entry(&mut |_, i, j, v| {
            if i < 4 && j < 4 {
                z[i as usize] += v * e[j as usize];
            }
        });
        let mut back = vec![0.0; 16];
        p.spmv(&z, &mut back);
        for (i, &bi) in back.iter().enumerate() {
            let expect = if i == 1 { 1.0 } else { 0.0 };
            assert!((bi - expect).abs() < 1e-12, "row {i}: {bi}");
        }
    }

    #[test]
    fn block_jacobi_with_block_one_equals_jacobi() {
        let s = Stencil::lap2d(4, 4);
        let m: Csr<f64> = s.to_csr();
        let bj = block_jacobi(&m, 1);
        let j = jacobi(&m);
        let x: Vec<f64> = (0..16).map(|i| i as f64 - 8.0).collect();
        let mut y1 = vec![0.0; 16];
        let mut y2 = vec![0.0; 16];
        bj.spmv(&x, &mut y1);
        j.spmv(&x, &mut y2);
        for i in 0..16 {
            assert!((y1[i] - y2[i]).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "zero diagonal")]
    fn zero_diagonal_rejected() {
        let m: Csr<f64> =
            Csr::from_triples(Triples::from_entries(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]));
        jacobi(&m);
    }
}
