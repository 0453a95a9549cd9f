//! Deferred scalar values with natural arithmetic syntax.
//!
//! [`ScalarHandle`] plays the role of the paper's `Scalar<ENTRY_T>`
//! (a Legion future): solver code writes `res.clone() / p_norm` and
//! passes the result as an `axpy` coefficient without ever blocking.
//! Each arithmetic operator submits a (tiny) deferred scalar task to
//! the backend; [`ScalarHandle::get`] is the only forcing point.

use std::ops::{Add, Div, Mul, Neg, Sub};
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
}

impl<T: Scalar> Clone for ScalarHandle<T> {
    fn clone(&self) -> Self {
        self.backend.lock().scalar_retain(self.sref);
        ScalarHandle {
            backend: Arc::clone(&self.backend),
            sref: self.sref,
        }
    }
}

impl<T: Scalar> Drop for ScalarHandle<T> {
    fn drop(&mut self) {
        // Release our ownership share; pooling backends reuse the
        // slot once every handle is gone (outstanding tasks reading
        // the slot are still ordered before any reuse by dependence
        // analysis).
        self.backend.lock().scalar_release(self.sref);
    }
}

impl<T: Scalar> ScalarHandle<T> {
    pub(crate) fn new(backend: SharedBackend<T>, sref: SRef) -> Self {
        ScalarHandle { backend, sref }
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

    /// The slots of `handles`, each of which must be a scalar of the
    /// planner whose backend is `backend`: a slot is an index into one
    /// backend's storage and means nothing to another's.
    pub(crate) fn srefs_in(backend: &SharedBackend<T>, handles: &[&Self]) -> Vec<SRef> {
        assert!(
            handles.iter().all(|h| Arc::ptr_eq(&h.backend, backend)),
            "scalars from different planners cannot be forced together"
        );
        handles.iter().map(|h| h.sref).collect()
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
        let sref = self.backend.lock().scalar_unop(op, self.sref);
        ScalarHandle {
            backend: Arc::clone(&self.backend),
            sref,
        }
    }

    fn binop(&self, op: ScalarOp, rhs: &Self) -> Self {
        assert!(
            Arc::ptr_eq(&self.backend, &rhs.backend),
            "scalars from different planners cannot be combined"
        );
        let sref = self.backend.lock().scalar_binop(op, self.sref, rhs.sref);
        ScalarHandle {
            backend: Arc::clone(&self.backend),
            sref,
        }
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
