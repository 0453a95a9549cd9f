//! Deferred scalar values with natural arithmetic syntax.
//!
//! [`ScalarHandle`] plays the role of the paper's `Scalar<ENTRY_T>`
//! (a Legion future): solver code writes `&res / &p_norm` and passes
//! the result as an `axpy` coefficient without ever blocking. Each
//! arithmetic operator records a (tiny) deferred scalar op with the
//! backend; [`ScalarHandle::get`] is the only forcing point.
//!
//! A handle is one owner of a slot of the backend's scalar arena
//! ([`Handles`](crate::backend::Handles)). The slot's owner count is a
//! cell the arena and every handle of the slot share: cloning a handle
//! counts one more owner and dropping it one fewer, and neither takes
//! the backend's lock. The arena reads the count when it next
//! allocates in the slot's bank, so a slot goes back to its bank when
//! its last handle drops — the same slots, lowest first, as when each
//! clone and drop went through the backend. The operators take their
//! operands by reference or by value; by reference costs no count.

use std::ops::{Add, Div, Mul, Neg, Sub};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use kdr_sparse::Scalar;

use crate::backend::{Backend, SRef, ScalarOp, ScalarUnop};

/// Shared backend handle used by planner, scalars, and solvers.
pub type SharedBackend<T> = Arc<Mutex<Box<dyn Backend<T>>>>;

/// A deferred scalar living in backend-managed storage.
pub struct ScalarHandle<T: Scalar> {
    backend: SharedBackend<T>,
    sref: SRef,
    /// The slot's owner count, shared with the arena.
    owners: Arc<AtomicUsize>,
}

impl<T: Scalar> Clone for ScalarHandle<T> {
    fn clone(&self) -> Self {
        self.owners.fetch_add(1, Ordering::Relaxed);
        ScalarHandle {
            backend: Arc::clone(&self.backend),
            sref: self.sref,
            owners: Arc::clone(&self.owners),
        }
    }
}

impl<T: Scalar> std::fmt::Debug for ScalarHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScalarHandle")
            .field("slot", &self.sref)
            .finish()
    }
}

impl<T: Scalar> Drop for ScalarHandle<T> {
    fn drop(&mut self) {
        // Release our ownership share; the arena reuses the slot once
        // every handle is gone (outstanding tasks reading the slot are
        // still ordered before any reuse by the step's dependences).
        self.owners.fetch_sub(1, Ordering::Release);
    }
}

impl<T: Scalar> ScalarHandle<T> {
    /// The handle of `sref`, a slot an op of `b` — the locked backend
    /// behind `backend` — just returned with its one owner, which the
    /// handle becomes.
    pub(crate) fn adopt(backend: &SharedBackend<T>, b: &mut dyn Backend<T>, sref: SRef) -> Self {
        ScalarHandle {
            backend: Arc::clone(backend),
            sref,
            owners: b.handles().owners(sref),
        }
    }

    /// The backend reference (used by planner operations that take
    /// scalar coefficients).
    pub(crate) fn sref(&self) -> SRef {
        self.sref
    }

    /// Force the scalar to a concrete value. On the execution backend
    /// this blocks the calling thread until the producing task chain
    /// completes; on the simulation backend it returns a placeholder.
    pub fn get(&self) -> T {
        self.backend.lock().scalar_get(self.sref)
    }

    /// The slot of this handle, which must be a scalar of the planner
    /// whose backend is `backend`: a slot is an index into one
    /// backend's storage and means nothing to another's.
    pub(crate) fn sref_in(&self, backend: &SharedBackend<T>) -> SRef {
        assert!(
            Arc::ptr_eq(&self.backend, backend),
            "scalars from different planners cannot be forced together"
        );
        self.sref
    }

    /// Deferred square root.
    pub fn sqrt(&self) -> Self {
        self.unop(ScalarUnop::Sqrt)
    }

    /// Deferred absolute value.
    pub fn abs(&self) -> Self {
        self.unop(ScalarUnop::Abs)
    }

    /// Deferred reciprocal `1 / x`.
    pub fn recip(&self) -> Self {
        self.unop(ScalarUnop::Recip)
    }

    fn unop(&self, op: ScalarUnop) -> Self {
        let mut b = self.backend.lock();
        let sref = b.scalar_unop(op, self.sref);
        Self::adopt(&self.backend, &mut **b, sref)
    }

    fn binop(&self, op: ScalarOp, rhs: &Self) -> Self {
        assert!(
            Arc::ptr_eq(&self.backend, &rhs.backend),
            "scalars from different planners cannot be combined"
        );
        let mut b = self.backend.lock();
        let sref = b.scalar_binop(op, self.sref, rhs.sref);
        Self::adopt(&self.backend, &mut **b, sref)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl<T: Scalar> $trait for &ScalarHandle<T> {
            type Output = ScalarHandle<T>;
            fn $method(self, rhs: &ScalarHandle<T>) -> ScalarHandle<T> {
                self.binop($op, rhs)
            }
        }

        impl<T: Scalar> $trait<&ScalarHandle<T>> for ScalarHandle<T> {
            type Output = ScalarHandle<T>;
            fn $method(self, rhs: &ScalarHandle<T>) -> ScalarHandle<T> {
                self.binop($op, rhs)
            }
        }

        impl<T: Scalar> $trait<ScalarHandle<T>> for &ScalarHandle<T> {
            type Output = ScalarHandle<T>;
            fn $method(self, rhs: ScalarHandle<T>) -> ScalarHandle<T> {
                self.binop($op, &rhs)
            }
        }

        impl<T: Scalar> $trait for ScalarHandle<T> {
            type Output = ScalarHandle<T>;
            fn $method(self, rhs: ScalarHandle<T>) -> ScalarHandle<T> {
                self.binop($op, &rhs)
            }
        }
    };
}

impl_binop!(Add, add, ScalarOp::Add);
impl_binop!(Sub, sub, ScalarOp::Sub);
impl_binop!(Mul, mul, ScalarOp::Mul);
impl_binop!(Div, div, ScalarOp::Div);

impl<T: Scalar> Neg for &ScalarHandle<T> {
    type Output = ScalarHandle<T>;
    fn neg(self) -> ScalarHandle<T> {
        self.unop(ScalarUnop::Neg)
    }
}

impl<T: Scalar> Neg for ScalarHandle<T> {
    type Output = ScalarHandle<T>;
    fn neg(self) -> ScalarHandle<T> {
        self.unop(ScalarUnop::Neg)
    }
}

#[cfg(test)]
mod tests {
    use kdr_index::Partition;
    use kdr_sparse::Stencil;

    use crate::{ExecBackend, Planner};

    /// A handle's clones share its slot's one count: the slot goes
    /// back to its bank when the last of them drops, and the next
    /// scalar takes the lowest free slot, as when each clone and drop
    /// called the backend.
    #[test]
    fn a_slot_is_free_once_its_last_handle_drops() {
        let s = Stencil::lap2d(4, 4);
        let n = s.unknowns();
        let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(1)));
        let d = planner.add_sol_vector(n, Some(Partition::equal_blocks(n, 2)));
        let r = planner.add_rhs_vector(n, Some(Partition::equal_blocks(n, 2)));
        planner.add_stencil_operator(s, d, r);
        let a = planner.scalar(1.0);
        let b = planner.scalar(2.0);
        assert_eq!((a.sref(), b.sref()), (0, 1));
        let a2 = a.clone();
        drop(a);
        let c = planner.scalar(3.0);
        assert_eq!(c.sref(), 2, "a clone still owns slot 0");
        drop(a2);
        let e = planner.scalar(4.0);
        assert_eq!(e.sref(), 0, "the lowest free slot is reused");
        drop((b, c));
        let f = &e / &e;
        assert_eq!(f.sref(), 1);
        assert_eq!((e.get(), f.get()), (4.0, 1.0));
        let slots = planner.with_backend(|b| b.handles().slots());
        assert_eq!(slots, 3, "the arena did not grow past its peak");
    }
}
