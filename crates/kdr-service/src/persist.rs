//! Wire codec between service-level types and the durable store's
//! records: [`SolverKind`] to/from its `(code, p0, f0, f1)` encoding
//! and [`SessionSpec`] to/from [`StoreOperator`]. Kept private to the
//! crate — the store format is an implementation detail of
//! `save_store`/`open_store`.

use std::sync::Arc;

use kdr_sparse::{Coo, SparseMatrix, Stencil, StencilKind, Triples};
use kdr_store::{StoreError, StoreOperator, StoreSession};

use crate::request::{SessionId, TenantId};
use crate::session::{SessionSpec, SolverKind};

/// Encode a [`SolverKind`] as `(code, p0, f0, f1)` wire fields.
/// Unused parameter slots encode as zero.
pub(crate) fn solver_wire(kind: SolverKind) -> (u8, u64, f64, f64) {
    match kind {
        SolverKind::Cg => (0, 0, 0.0, 0.0),
        SolverKind::BiCg => (1, 0, 0.0, 0.0),
        SolverKind::BiCgStab => (2, 0, 0.0, 0.0),
        SolverKind::Cgs => (3, 0, 0.0, 0.0),
        SolverKind::Minres => (4, 0, 0.0, 0.0),
        SolverKind::Gmres { restart } => (5, restart as u64, 0.0, 0.0),
        SolverKind::Tfqmr => (6, 0, 0.0, 0.0),
        SolverKind::FusedCg => (7, 0, 0.0, 0.0),
        SolverKind::PipelinedCg => (8, 0, 0.0, 0.0),
        SolverKind::PipelinedCr => (9, 0, 0.0, 0.0),
        SolverKind::SStepCg { s } => (10, s as u64, 0.0, 0.0),
        SolverKind::Chebyshev { lmin, lmax } => (11, 0, lmin, lmax),
    }
}

/// Decode wire fields back into a [`SolverKind`]; an unknown code is a
/// [`StoreError::Malformed`] (`offset` 0 — the record's position was
/// already validated by the store layer, this is a semantic check).
/// Parameters are decoded as they are: whether the solver accepts
/// them is [`SessionSpec::check`]'s question.
pub(crate) fn solver_unwire(
    code: u8,
    p0: u64,
    f0: f64,
    f1: f64,
) -> Result<SolverKind, StoreError> {
    Ok(match code {
        0 => SolverKind::Cg,
        1 => SolverKind::BiCg,
        2 => SolverKind::BiCgStab,
        3 => SolverKind::Cgs,
        4 => SolverKind::Minres,
        5 => SolverKind::Gmres {
            restart: p0 as usize,
        },
        6 => SolverKind::Tfqmr,
        7 => SolverKind::FusedCg,
        8 => SolverKind::PipelinedCg,
        9 => SolverKind::PipelinedCr,
        10 => SolverKind::SStepCg { s: p0 as usize },
        11 => SolverKind::Chebyshev { lmin: f0, lmax: f1 },
        _ => {
            return Err(StoreError::Malformed {
                offset: 0,
                what: "unknown solver code",
            })
        }
    })
}

/// Encode a session's operator for the store: the stencil descriptor
/// when the session is matrix-free, else the assembled entries as
/// `(row, col, value)` triplets in the matrix's own entry order (the
/// order [`SparseMatrix::for_each_entry`] yields, which `Coo`
/// preserves on rebuild — keeping tiling and accumulation order, and
/// therefore results, bitwise stable across a save/open cycle).
pub(crate) fn operator_to_store(spec: &SessionSpec) -> StoreOperator {
    match spec.stencil {
        Some(desc) => StoreOperator::Stencil {
            kind: desc.kind.code(),
            nx: desc.nx,
            ny: desc.ny,
            nz: desc.nz,
        },
        None => {
            let mut entries = Vec::new();
            spec.matrix.for_each_entry(&mut |_k, row, col, v| {
                entries.push((row, col, v));
            });
            StoreOperator::Assembled {
                rows: spec.matrix.range_space().size(),
                cols: spec.matrix.domain_space().size(),
                entries,
            }
        }
    }
}

/// One session as a store record: its front-door spec plus what its
/// shard knows of it — jobs completed and steps captured (both zero
/// for a cold session). The kernel byte is written as Auto (255).
pub(crate) fn session_to_store(
    id: SessionId,
    tenant: TenantId,
    spec: &SessionSpec,
    jobs_completed: u64,
    steps_captured: u64,
) -> StoreSession {
    let (solver_code, solver_p0, solver_f0, solver_f1) = solver_wire(spec.solver);
    StoreSession {
        session: id as u64,
        tenant: u64::from(tenant),
        unknowns: spec.unknowns,
        pieces: spec.pieces as u64,
        solver_code,
        solver_p0,
        solver_f0,
        solver_f1,
        kernel_code: 255,
        jobs_completed,
        steps_captured,
        operator: operator_to_store(spec),
    }
}

/// Rebuild a [`SessionSpec`] from a stored session record. A record
/// [`SessionSpec::check`] rejects is malformed, as is one that does not
/// decode to a spec at all.
pub(crate) fn spec_from_store(s: &StoreSession) -> Result<SessionSpec, StoreError> {
    let solver = solver_unwire(s.solver_code, s.solver_p0, s.solver_f0, s.solver_f1)?;
    let malformed = |what: &'static str| StoreError::Malformed { offset: 0, what };
    let pieces = usize::try_from(s.pieces).map_err(|_| malformed("bad piece count"))?;
    let spec = match s.operator {
        StoreOperator::Stencil { kind, nx, ny, nz } => {
            let kind = StencilKind::from_code(kind)
                .ok_or_else(|| malformed("unknown stencil code"))?;
            if nx == 0 || ny == 0 || nz == 0 {
                return Err(malformed("degenerate stencil grid"));
            }
            let unused_extents_are_one = match kind.dims() {
                1 => ny == 1 && nz == 1,
                2 => nz == 1,
                _ => true,
            };
            if !unused_extents_are_one {
                return Err(malformed("stencil extent on a dimension its kind does not have"));
            }
            if nx.checked_mul(ny).and_then(|n| n.checked_mul(nz)).is_none() {
                return Err(malformed("stencil grid has more than 2^64 points"));
            }
            SessionSpec {
                unknowns: s.unknowns,
                ..SessionSpec::stencil(Stencil::new(kind, nx, ny, nz), pieces, solver)
            }
        }
        StoreOperator::Assembled {
            rows,
            cols,
            ref entries,
        } => {
            let mut t = Triples::new(rows, cols);
            for &(row, col, v) in entries {
                if row >= rows || col >= cols {
                    return Err(malformed("assembled entry outside the operator shape"));
                }
                t.push(row, col, v);
            }
            let matrix: Arc<dyn SparseMatrix<f64>> = Arc::new(Coo::<f64, u64>::from_triples(t));
            SessionSpec {
                matrix,
                unknowns: s.unknowns,
                pieces,
                solver,
                stencil: None,
            }
        }
    };
    spec.check().map_err(|_| malformed("a session spec the service rejects"))?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_wire_round_trips_every_kind() {
        let kinds = [
            SolverKind::Cg,
            SolverKind::BiCg,
            SolverKind::BiCgStab,
            SolverKind::Cgs,
            SolverKind::Minres,
            SolverKind::Gmres { restart: 17 },
            SolverKind::Tfqmr,
            SolverKind::FusedCg,
            SolverKind::PipelinedCg,
            SolverKind::PipelinedCr,
            SolverKind::SStepCg { s: 4 },
            SolverKind::Chebyshev {
                lmin: 0.25,
                lmax: 7.75,
            },
        ];
        for kind in kinds {
            let (c, p0, f0, f1) = solver_wire(kind);
            assert_eq!(solver_unwire(c, p0, f0, f1).unwrap(), kind);
        }
        assert!(matches!(
            solver_unwire(200, 0, 0.0, 0.0),
            Err(StoreError::Malformed { .. })
        ));
        // A parameter the solver's constructor rejects decodes, and
        // the record holding it is malformed.
        let line = Stencil::new(StencilKind::from_code(0).unwrap(), 8, 1, 1);
        let base = session_to_store(0, 0, &SessionSpec::stencil(line, 2, SolverKind::Cg), 0, 0);
        for (c, p0, f0, f1) in [
            (5, 0, 0.0, 0.0),
            (10, 0, 0.0, 0.0),
            (11, 0, 0.0, 1.0),
            (11, 0, 2.0, 1.0),
            (11, 0, f64::NAN, 1.0),
        ] {
            assert!(solver_unwire(c, p0, f0, f1).is_ok());
            let mut s = base.clone();
            (s.solver_code, s.solver_p0, s.solver_f0, s.solver_f1) = (c, p0, f0, f1);
            assert!(matches!(
                spec_from_store(&s),
                Err(StoreError::Malformed { .. })
            ));
        }
    }

    #[test]
    fn assembled_operator_round_trips_in_entry_order() {
        let mut t = Triples::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(2, 1, -1.0);
        t.push(1, 1, 3.0);
        let spec = SessionSpec {
            matrix: Arc::new(Coo::<f64, u64>::from_triples(t)),
            unknowns: 3,
            pieces: 1,
            solver: SolverKind::Cg,
            stencil: None,
        };
        let stored = session_to_store(0, 0, &spec, 0, 0);
        let back = spec_from_store(&stored).unwrap();
        let mut orig = Vec::new();
        spec.matrix
            .for_each_entry(&mut |k, row, col, v| orig.push((k, row, col, v.to_bits())));
        let mut rebuilt = Vec::new();
        back.matrix
            .for_each_entry(&mut |k, row, col, v| rebuilt.push((k, row, col, v.to_bits())));
        assert_eq!(orig, rebuilt, "entry order and bits must survive the store");
    }

    #[test]
    fn malformed_store_sessions_are_typed_errors() {
        let line = Stencil::new(StencilKind::from_code(0).unwrap(), 8, 1, 1);
        let spec = SessionSpec::stencil(line, 2, SolverKind::Cg);
        let base = session_to_store(0, 0, &spec, 0, 0);
        // Unknown stencil code.
        let mut s = base.clone();
        s.operator = StoreOperator::Stencil {
            kind: 99,
            nx: 8,
            ny: 1,
            nz: 1,
        };
        assert!(matches!(
            spec_from_store(&s),
            Err(StoreError::Malformed { .. })
        ));
        // Grid/unknowns mismatch.
        let mut s = base.clone();
        s.unknowns = 9;
        assert!(matches!(
            spec_from_store(&s),
            Err(StoreError::Malformed { .. })
        ));
        // Zero pieces.
        let mut s = base.clone();
        s.pieces = 0;
        assert!(matches!(
            spec_from_store(&s),
            Err(StoreError::Malformed { .. })
        ));
        // Out-of-bounds assembled entry.
        let mut s = base.clone();
        s.operator = StoreOperator::Assembled {
            rows: 8,
            cols: 8,
            entries: vec![(9, 0, 1.0)],
        };
        assert!(matches!(
            spec_from_store(&s),
            Err(StoreError::Malformed { .. })
        ));
        // The base record itself is fine.
        assert!(spec_from_store(&base).is_ok());
    }
}
