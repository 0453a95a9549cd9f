//! Typed shared buffers and subset-scoped views.
//!
//! A [`Buffer`] is the runtime's physical storage unit (one field of
//! one logical region, in Legion terms). A task reaches its data
//! through [`ReadView`]/[`WriteView`] accessors, which *borrow* the
//! buffer and the declared subset (building one costs a pointer copy,
//! no reference count): element access is raw-pointer
//! `ptr::read`/`ptr::write`, and [`ReadView::range`] /
//! [`WriteView::range_mut`] lend a contiguous run as a slice for the
//! vectorised kernels. This module contains all of the crate's
//! `unsafe`.
//!
//! # Safety argument
//!
//! * Every view is created by the executor from a task's declared
//!   requirements (or by [`Buffer::snapshot`]/[`Buffer::fill_from`] on a
//!   quiesced runtime; [`Buffer::peek`] reads one element once the
//!   tasks writing it have retired).
//! * Dependence analysis serializes any two tasks whose declared
//!   subsets of a buffer overlap when at least one holds
//!   [`Privilege::Write`](crate::task::Privilege). Hence at any
//!   instant, for each buffer element, either all live accessors are
//!   reads, or exactly one running task may touch it — no data race.
//! * Element accessors (`get`/`set`) never create references into the
//!   buffer, so they assert no aliasing invariant of `&`/`&mut`; all
//!   their traffic is `ptr::read`/`ptr::write` on `Copy` data.
//! * Slice accessors do create references, so the task itself must
//!   keep them apart: while a `&mut [T]` from `range_mut` lives, the
//!   body may reach the same elements through nothing else. One task
//!   may name one buffer in several requirements; slicing is legal
//!   only for a requirement that shares no element with a *write*
//!   requirement of the same task (a body that updates a vector in
//!   place declares it once, writable). [`TaskContext`](crate::task::TaskContext)
//!   works that out per requirement and debug builds assert it in
//!   `range`/`range_mut`.
//! * A declared subset lies inside its buffer in every profile: the
//!   bound is checked once where the subset is declared
//!   ([`TaskBuilder`](crate::task::TaskBuilder)'s `read`/`write`,
//!   [`Buffer::read_view`]/[`Buffer::write_view`]), so a body that
//!   slices the runs of its declared subset stays in bounds in
//!   `--release` too.
//! * Debug builds assert each access lies inside the declared subset,
//!   catching tasks that under-declare their footprint.

use std::any::Any;
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use kdr_index::IntervalSet;

static NEXT_BUFFER_ID: AtomicU64 = AtomicU64::new(1);

pub(crate) struct BufferInner<T> {
    id: u64,
    /// `UnsafeCell` per element: the slice metadata is freely
    /// shareable, only element contents are interior-mutable.
    data: Box<[UnsafeCell<T>]>,
    /// The whole-buffer subset, made on the first `read_all` /
    /// `write_all` and shared by every later one.
    full: OnceLock<Arc<IntervalSet>>,
}

// SAFETY: concurrent access to the UnsafeCell contents is mediated by
// the runtime's dependence analysis (see module docs); the cell itself
// is shared freely.
unsafe impl<T: Send> Send for BufferInner<T> {}
unsafe impl<T: Send> Sync for BufferInner<T> {}

/// A typed, shareable storage buffer. Cloning is shallow (`Arc`).
pub struct Buffer<T> {
    inner: Arc<BufferInner<T>>,
}

impl<T> Clone for Buffer<T> {
    fn clone(&self) -> Self {
        Buffer {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Copy + Send + 'static> Buffer<T> {
    /// Allocate from an initial vector.
    pub fn from_vec(data: Vec<T>) -> Self {
        // SAFETY: UnsafeCell<T> is repr(transparent) over T, so the
        // allocation can be reinterpreted in place.
        let boxed: Box<[T]> = data.into_boxed_slice();
        let data = unsafe { Box::from_raw(Box::into_raw(boxed) as *mut [UnsafeCell<T>]) };
        Buffer {
            inner: Arc::new(BufferInner {
                id: NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed),
                data,
                full: OnceLock::new(),
            }),
        }
    }

    /// Allocate `len` copies of `init`.
    pub fn filled(len: usize, init: T) -> Self {
        Self::from_vec(vec![init; len])
    }

    /// Stable identifier used by dependence analysis.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.inner.data.len()
    }

    /// True if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole-buffer subset `[0, len)`, shared by every
    /// `read_all` / `write_all` of this buffer.
    pub(crate) fn full_subset(&self) -> Arc<IntervalSet> {
        Arc::clone(
            self.inner
                .full
                .get_or_init(|| Arc::new(IntervalSet::full(self.len() as u64))),
        )
    }

    /// The buffer as the type-erased handle a task requirement
    /// carries: the buffer's own allocation, so handing one out is a
    /// reference-count increment.
    pub(crate) fn erased(&self) -> Arc<dyn Any + Send + Sync> {
        Arc::clone(&self.inner) as Arc<dyn Any + Send + Sync>
    }

    /// Copy out the entire contents.
    ///
    /// Must only be called when no task writing this buffer is in
    /// flight (e.g. after [`Runtime::fence`](crate::Runtime::fence)).
    pub fn snapshot(&self) -> Vec<T> {
        let len = self.len();
        let mut out = Vec::with_capacity(len);
        let ptr = self.inner.base_ptr();
        for i in 0..len {
            // SAFETY: in bounds; caller guarantees quiescence.
            out.push(unsafe { std::ptr::read(ptr.add(i)) });
        }
        out
    }

    /// Read element `i` from outside a task.
    ///
    /// Same precondition as [`Buffer::snapshot`], for the one element:
    /// no task writing it may be in flight — which is what
    /// [`Runtime::wait_written`](crate::Runtime::wait_written)
    /// establishes for a buffer nobody else is submitting writers of.
    /// Tasks *reading* the element may be running; concurrent reads
    /// are not a race. Panics if `i` is out of bounds.
    pub fn peek(&self, i: usize) -> T {
        assert!(i < self.len(), "index {i} out of bounds {}", self.len());
        // SAFETY: in bounds; caller guarantees no writer in flight.
        unsafe { std::ptr::read(self.inner.base_ptr().add(i)) }
    }

    /// Overwrite the entire contents from a slice.
    ///
    /// Must only be called on a quiesced runtime (see
    /// [`Buffer::snapshot`]).
    pub fn fill_from(&self, src: &[T]) {
        assert_eq!(src.len(), self.len());
        let ptr = self.inner.base_ptr();
        for (i, &v) in src.iter().enumerate() {
            // SAFETY: in bounds; caller guarantees quiescence.
            unsafe { std::ptr::write(ptr.add(i), v) };
        }
    }

    /// Panic unless `subset` lies inside `[0, len)`. Every declared
    /// subset passes through here once, in every profile; the views'
    /// slice accessors rely on it.
    pub(crate) fn assert_in_bounds(&self, subset: &IntervalSet) {
        if let Some(last) = subset.runs().last() {
            assert!(
                last.hi <= self.len() as u64,
                "subset run [{}, {}) reaches past buffer {} of length {}",
                last.lo,
                last.hi,
                self.id(),
                self.len()
            );
        }
    }

    /// Create a read view over `subset`; panics if `subset` reaches
    /// past the buffer.
    ///
    /// Safe to *create*; soundness of subsequent accesses relies on
    /// the runtime contract in the module docs. Prefer obtaining views
    /// through [`TaskContext`](crate::task::TaskContext).
    pub fn read_view<'a>(&'a self, subset: &'a IntervalSet) -> ReadView<'a, T> {
        self.assert_in_bounds(subset);
        self.inner.read_view(subset, false)
    }

    /// Create a write view over `subset` (see [`Buffer::read_view`]).
    pub fn write_view<'a>(&'a self, subset: &'a IntervalSet) -> WriteView<'a, T> {
        self.assert_in_bounds(subset);
        self.inner.write_view(subset, false)
    }
}

impl<T: Copy + Send + 'static> BufferInner<T> {
    /// The typed buffer behind a requirement's erased handle, or
    /// `None` when the handle holds another element type.
    pub(crate) fn from_erased(handle: &(dyn Any + Send + Sync)) -> Option<&Self> {
        handle.downcast_ref()
    }

    fn base_ptr(&self) -> *mut T {
        // UnsafeCell<T> is repr(transparent); the slice base doubles
        // as the element base.
        self.data.as_ptr() as *mut T
    }

    /// A read view borrowing this buffer and `subset`. `aliased`
    /// marks a requirement that shares elements with a write
    /// requirement of the same task: its view must not be sliced.
    pub(crate) fn read_view<'a>(&'a self, subset: &'a IntervalSet, aliased: bool) -> ReadView<'a, T> {
        ReadView {
            ptr: self.base_ptr(),
            len: self.data.len(),
            subset,
            aliased,
            _buffer: PhantomData,
        }
    }

    /// The write counterpart of [`BufferInner::read_view`].
    pub(crate) fn write_view<'a>(
        &'a self,
        subset: &'a IntervalSet,
        aliased: bool,
    ) -> WriteView<'a, T> {
        WriteView {
            ptr: self.base_ptr(),
            len: self.data.len(),
            subset,
            aliased,
            _buffer: PhantomData,
        }
    }

    /// Overwrite element `i` with an all-ones bit pattern (NaN for
    /// IEEE floats) — the fault injector's silent-corruption
    /// primitive. Called by the worker that just finished the task
    /// declaring this element writable, so exclusivity holds exactly
    /// as it did for the body's own writes.
    pub(crate) fn corrupt_element(&self, i: usize) {
        if i >= self.data.len() {
            return;
        }
        // SAFETY: in bounds; T is Copy (no drop) and any bit pattern
        // is tolerable for the numeric payload types the runtime
        // stores; exclusivity per the dependence discipline.
        unsafe { std::ptr::write_bytes(self.base_ptr().add(i), 0xFF, 1) };
    }
}

/// Read-only element access into a buffer, scoped to a declared
/// subset; borrows both.
pub struct ReadView<'a, T> {
    ptr: *const T,
    len: usize,
    subset: &'a IntervalSet,
    /// The requirement shares elements with a write requirement of
    /// the same task, so no slice may be taken of it.
    aliased: bool,
    _buffer: PhantomData<&'a BufferInner<T>>,
}

// SAFETY: a view is a raw pointer into a buffer it borrows; sending
// or sharing it between threads is safe because all element access is
// mediated by the runtime discipline.
unsafe impl<T: Send> Send for ReadView<'_, T> {}
unsafe impl<T: Send> Sync for ReadView<'_, T> {}

impl<T: Copy> ReadView<'_, T> {
    /// Read element `i`.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len, "index {i} out of bounds {}", self.len);
        debug_assert!(
            self.subset.contains(i as u64),
            "read of undeclared element {i}"
        );
        // SAFETY: in bounds; data-race freedom per module docs.
        unsafe { std::ptr::read(self.ptr.add(i)) }
    }

    /// Borrow the contiguous elements `[lo, lo + n)` as a slice, for
    /// vectorized kernel sweeps. Same access discipline as
    /// [`ReadView::get`], asserted once for the whole range in debug
    /// builds instead of per element.
    #[inline]
    pub fn range(&self, lo: usize, n: usize) -> &[T] {
        debug_assert!(
            lo + n <= self.len,
            "range [{lo}, {}) out of bounds {}",
            lo + n,
            self.len
        );
        debug_assert!(
            self.subset.contains_range(lo as u64, (lo + n) as u64),
            "read of undeclared range [{lo}, {})",
            lo + n
        );
        debug_assert!(
            !self.aliased,
            "slice of a requirement the same task also writes"
        );
        // SAFETY: a run of the declared subset is in bounds in every
        // profile (checked at declaration, module docs), any other
        // range in debug builds; no other task writes the range, and
        // this task holds no `&mut` into it: its write requirements
        // are disjoint from this one (`aliased`).
        unsafe { std::slice::from_raw_parts(self.ptr.add(lo), n) }
    }

    /// The declared subset of this view.
    pub fn subset(&self) -> &IntervalSet {
        self.subset
    }

    /// Buffer length (not subset cardinality).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the underlying buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Read-write element access into a buffer, scoped to a declared
/// subset; borrows both.
pub struct WriteView<'a, T> {
    ptr: *mut T,
    len: usize,
    subset: &'a IntervalSet,
    /// See [`ReadView`]'s field of the same name.
    aliased: bool,
    _buffer: PhantomData<&'a BufferInner<T>>,
}

// SAFETY: see ReadView.
unsafe impl<T: Send> Send for WriteView<'_, T> {}
unsafe impl<T: Send> Sync for WriteView<'_, T> {}

impl<T: Copy> WriteView<'_, T> {
    /// Read element `i`.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len, "index {i} out of bounds {}", self.len);
        debug_assert!(
            self.subset.contains(i as u64),
            "read of undeclared element {i}"
        );
        // SAFETY: in bounds; data-race freedom per module docs.
        unsafe { std::ptr::read(self.ptr.add(i)) }
    }

    /// Write element `i`.
    #[inline]
    pub fn set(&self, i: usize, v: T) {
        debug_assert!(i < self.len, "index {i} out of bounds {}", self.len);
        debug_assert!(
            self.subset.contains(i as u64),
            "write of undeclared element {i}"
        );
        // SAFETY: in bounds; exclusivity per module docs.
        unsafe { std::ptr::write(self.ptr.add(i), v) };
    }

    /// Borrow the contiguous elements `[lo, lo + n)` as a mutable
    /// slice, for vectorized kernel sweeps. Same access discipline as
    /// [`WriteView::set`], asserted once for the whole range in debug
    /// builds instead of per element.
    #[inline]
    pub fn range_mut(&mut self, lo: usize, n: usize) -> &mut [T] {
        debug_assert!(
            lo + n <= self.len,
            "range [{lo}, {}) out of bounds {}",
            lo + n,
            self.len
        );
        debug_assert!(
            self.subset.contains_range(lo as u64, (lo + n) as u64),
            "write of undeclared range [{lo}, {})",
            lo + n
        );
        debug_assert!(
            !self.aliased,
            "mutable slice of a requirement the same task names twice"
        );
        // SAFETY: a run of the declared subset is in bounds in every
        // profile (checked at declaration, module docs), any other
        // range in debug builds; no other task touches the range,
        // this task reaches it through no other requirement
        // (`aliased`), and the `&mut self` borrow keeps this view
        // from lending it twice.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), n) }
    }

    /// The declared subset of this view.
    pub fn subset(&self) -> &IntervalSet {
        self.subset
    }

    /// Buffer length (not subset cardinality).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the underlying buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_roundtrip() {
        let b = Buffer::from_vec(vec![1.0f64, 2.0, 3.0]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.snapshot(), vec![1.0, 2.0, 3.0]);
        b.fill_from(&[4.0, 5.0, 6.0]);
        assert_eq!(b.snapshot(), vec![4.0, 5.0, 6.0]);
        assert_eq!(b.peek(2), 6.0);
    }

    #[test]
    fn views_read_and_write() {
        let b = Buffer::filled(4, 0.0f64);
        let all = IntervalSet::full(4);
        let w = b.write_view(&all);
        w.set(1, 7.5);
        w.set(3, -2.0);
        assert_eq!(w.get(1), 7.5);
        let r = b.read_view(&all);
        assert_eq!(r.get(0), 0.0);
        assert_eq!(r.get(3), -2.0);
    }

    #[test]
    fn ids_are_unique() {
        let a = Buffer::filled(1, 0u64);
        let b = Buffer::filled(1, 0u64);
        assert_ne!(a.id(), b.id());
        // Clones share identity.
        assert_eq!(a.id(), a.clone().id());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "undeclared element")]
    fn subset_violation_caught_in_debug() {
        let b = Buffer::filled(8, 0.0f64);
        let declared = IntervalSet::from_range(0, 4);
        let r = b.read_view(&declared);
        r.get(5);
    }
}
