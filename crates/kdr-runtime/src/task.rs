//! Task descriptions: privileges, requirements, builders, and the
//! context handed to a running task.

use std::any::Any;
use std::sync::Arc;

use kdr_index::IntervalSet;

use crate::buffer::{Buffer, BufferInner, ReadView, WriteView};

/// Unique task identifier, in submission order.
pub type TaskId = u64;

/// What a task is allowed to do with a declared buffer subset.
///
/// `Write` subsumes read-modify-write; reductions are expressed as
/// `Write` because the executor serializes overlapping accumulations
/// (the paper's "interference analysis" for multiply-adds into the
/// same component, §4.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Privilege {
    /// Read the declared subset.
    Read,
    /// Read and write the declared subset.
    Write,
}

/// Scheduling metadata attached to a task: what the executor places
/// and names it by, carried with the task's body.
#[derive(Clone, Copy, Debug)]
pub struct TaskMeta {
    /// Human-readable kernel name.
    pub name: &'static str,
    /// Partition color the task belongs to, if it works on one piece
    /// of a partition: the task runs on worker `color % W` unless a
    /// peer steals it.
    pub color: Option<usize>,
}

impl TaskMeta {
    /// Metadata with the given kernel name and no color.
    pub fn new(name: &'static str) -> Self {
        TaskMeta { name, color: None }
    }

    /// Attach an index-launch color.
    pub fn with_color(mut self, color: usize) -> Self {
        self.color = Some(color);
        self
    }
}

/// One declared access of a task.
pub(crate) struct Requirement {
    pub buffer_id: u64,
    /// The buffer, type-erased (see `Buffer::erased`), for view
    /// construction.
    pub handle: Arc<dyn Any + Send + Sync>,
    pub subset: Arc<IntervalSet>,
    pub privilege: Privilege,
    /// Monomorphized corruption hook for the fault injector's
    /// `CorruptWrite` fault: overwrites the first element of the
    /// declared subset with an all-ones bit pattern (NaN for floats).
    /// Captured at build time, where the element type is known.
    pub corrupt: fn(&Requirement),
}

/// The monomorphized body of [`Requirement::corrupt`].
fn corrupt_requirement<T: Copy + Send + 'static>(req: &Requirement) {
    if let (Some(buf), Some(i)) = (BufferInner::<T>::from_erased(&*req.handle), req.subset.min()) {
        buf.corrupt_element(i as usize);
    }
}

/// A lightweight copy of a requirement for dependence analysis.
#[derive(Clone)]
pub(crate) struct ReqLite {
    pub buffer_id: u64,
    pub subset: Arc<IntervalSet>,
    pub write: bool,
}

/// A task's executable payload.
pub(crate) enum TaskBody {
    /// Runs once and is consumed by the run, so it may give away what
    /// it captured (send it down a channel, say).
    Once(Box<dyn FnOnce(&TaskContext) + Send>),
    /// Runs any number of times, on any worker: the kind of body a
    /// [`StepProgram`](crate::StepProgram) keeps.
    Shared(SharedBody),
}

/// A body that may run any number of times.
pub(crate) type SharedBody = Box<dyn Fn(&TaskContext) + Send + Sync>;

impl TaskBody {
    pub(crate) fn run(self, ctx: &TaskContext) {
        match self {
            TaskBody::Once(f) => f(ctx),
            TaskBody::Shared(f) => f(ctx),
        }
    }
}

/// Builder for a task: name, declared accesses, metadata and body.
pub struct TaskBuilder {
    pub(crate) name: &'static str,
    pub(crate) reqs: Vec<Requirement>,
    pub(crate) body: Option<TaskBody>,
    pub(crate) meta: TaskMeta,
}

impl TaskBuilder {
    /// Start a task description.
    pub fn new(name: &'static str) -> Self {
        TaskBuilder {
            name,
            reqs: Vec::new(),
            body: None,
            meta: TaskMeta::new(name),
        }
    }

    /// Declare a read of `subset` of `buffer`; the requirement's
    /// index (declaration order) is what [`TaskContext::read`] takes.
    /// Panics if `subset` reaches past the end of `buffer`.
    /// A caller that declares the same subset every iteration passes
    /// a shared `Arc<IntervalSet>` and pays a reference count, not a
    /// copy; an `IntervalSet` by value works too.
    pub fn read<T: Copy + Send + 'static>(
        mut self,
        buffer: &Buffer<T>,
        subset: impl Into<Arc<IntervalSet>>,
    ) -> Self {
        self.push(buffer, subset.into(), Privilege::Read);
        self
    }

    /// Declare a read-write of `subset` of `buffer`. Panics if
    /// `subset` reaches past the end of `buffer`.
    pub fn write<T: Copy + Send + 'static>(
        mut self,
        buffer: &Buffer<T>,
        subset: impl Into<Arc<IntervalSet>>,
    ) -> Self {
        self.push(buffer, subset.into(), Privilege::Write);
        self
    }

    /// Declare a read of the whole buffer.
    pub fn read_all<T: Copy + Send + 'static>(self, buffer: &Buffer<T>) -> Self {
        self.read(buffer, buffer.full_subset())
    }

    /// Declare a read-write of the whole buffer.
    pub fn write_all<T: Copy + Send + 'static>(self, buffer: &Buffer<T>) -> Self {
        self.write(buffer, buffer.full_subset())
    }

    fn push<T: Copy + Send + 'static>(
        &mut self,
        buffer: &Buffer<T>,
        subset: Arc<IntervalSet>,
        privilege: Privilege,
    ) {
        // Bodies slice the runs of their declared subsets; this is
        // the one bound check those slices have in `--release`.
        buffer.assert_in_bounds(&subset);
        self.reqs.push(Requirement {
            buffer_id: buffer.id(),
            handle: buffer.erased(),
            subset,
            privilege,
            corrupt: corrupt_requirement::<T>,
        });
    }

    /// Attach scheduling metadata (its color). The task keeps the name
    /// it was built with.
    pub fn meta(mut self, meta: TaskMeta) -> Self {
        self.meta = TaskMeta {
            name: self.name,
            ..meta
        };
        self
    }

    /// Provide the task body. The closure receives a [`TaskContext`]
    /// from which it obtains views onto its declared requirements.
    pub fn body(mut self, f: impl FnOnce(&TaskContext) + Send + 'static) -> Self {
        self.body = Some(TaskBody::Once(Box::new(f)));
        self
    }

    /// Provide a body that may run any number of times. Such a task
    /// submits and replays like any other, and it is the only kind
    /// [`Runtime::compile_program`](crate::Runtime::compile_program)
    /// accepts, because a program runs the bodies it was compiled from
    /// again on every replay.
    pub fn shared_body(mut self, f: impl Fn(&TaskContext) + Send + Sync + 'static) -> Self {
        self.body = Some(TaskBody::Shared(Box::new(f)));
        self
    }
}

/// The dependence analyzer's copy of a requirement list.
pub(crate) fn req_lites(reqs: &[Requirement]) -> Vec<ReqLite> {
    reqs.iter()
        .map(|r| ReqLite {
            buffer_id: r.buffer_id,
            subset: Arc::clone(&r.subset),
            write: r.privilege == Privilege::Write,
        })
        .collect()
}

/// Handed to a running task body: resolves requirement indices to
/// typed views. The context owns the task's requirements for the
/// body's lifetime and the views borrow from it, so a body pays a
/// type check and a pointer copy per view — no reference counts.
pub struct TaskContext {
    pub(crate) reqs: Vec<Requirement>,
}

impl TaskContext {
    /// A read view of requirement `idx`; panics on type mismatch.
    pub fn read<T: Copy + Send + 'static>(&self, idx: usize) -> ReadView<'_, T> {
        let req = &self.reqs[idx];
        self.buffer::<T>(idx)
            .read_view(&req.subset, self.shares_written_elements(idx))
    }

    /// A write view of requirement `idx`; panics on type mismatch or
    /// unless the requirement was declared with write privilege.
    ///
    /// Slices lent by the view ([`WriteView::range_mut`]) are
    /// exclusive only if the body takes **one** write view per
    /// requirement; the requirements themselves are checked against
    /// each other (see [`crate::buffer`]'s safety argument).
    pub fn write<T: Copy + Send + 'static>(&self, idx: usize) -> WriteView<'_, T> {
        let req = &self.reqs[idx];
        assert_eq!(
            req.privilege,
            Privilege::Write,
            "requirement {idx} was not declared writable"
        );
        self.buffer::<T>(idx)
            .write_view(&req.subset, self.shares_written_elements(idx))
    }

    fn buffer<T: Copy + Send + 'static>(&self, idx: usize) -> &BufferInner<T> {
        BufferInner::<T>::from_erased(&*self.reqs[idx].handle)
            .unwrap_or_else(|| panic!("requirement {idx}: type mismatch"))
    }

    /// Whether requirement `idx` shares an element with another
    /// requirement of this task while either may write it — the
    /// condition under which its view must not lend slices. Worked
    /// out in debug builds only, where the views assert it.
    fn shares_written_elements(&self, idx: usize) -> bool {
        let me = &self.reqs[idx];
        cfg!(debug_assertions)
            && self.reqs.iter().enumerate().any(|(j, other)| {
                j != idx
                    && other.buffer_id == me.buffer_id
                    && (me.privilege == Privilege::Write || other.privilege == Privilege::Write)
                    && !other.subset.is_disjoint(&me.subset)
            })
    }

    /// The declared subset of requirement `idx`.
    pub fn subset(&self, idx: usize) -> &IntervalSet {
        &self.reqs[idx].subset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_builders() {
        let m = TaskMeta::new("spmv").with_color(3);
        assert_eq!(m.name, "spmv");
        assert_eq!(m.color, Some(3));
    }

    #[test]
    fn builder_collects_requirements() {
        let a = Buffer::filled(4, 0.0f64);
        let b = Buffer::filled(4, 0.0f64);
        let t = TaskBuilder::new("axpy")
            .read_all(&a)
            .write(&b, IntervalSet::from_range(0, 2))
            .body(|_| {});
        assert_eq!(t.reqs.len(), 2);
        let lites = req_lites(&t.reqs);
        assert!(!lites[0].write);
        assert!(lites[1].write);
        assert_eq!(lites[1].subset.cardinality(), 2);
    }

    #[test]
    #[should_panic(expected = "run [6, 9) reaches past buffer")]
    fn subset_past_the_buffer_is_rejected_at_declaration() {
        let a = Buffer::filled(8, 0.0f64);
        let subset = IntervalSet::from_range(0, 2).union(&IntervalSet::from_range(6, 9));
        let _ = TaskBuilder::new("t").read(&a, subset);
    }

    #[test]
    fn subsets_up_to_the_last_element_and_empty_ones_are_accepted() {
        let a = Buffer::filled(8, 0.0f64);
        let none = Buffer::filled(0, 0.0f64);
        let t = TaskBuilder::new("t")
            .write(&a, IntervalSet::from_range(5, 8))
            .read(&a, IntervalSet::empty())
            .read(&none, IntervalSet::empty())
            .read_all(&none);
        assert_eq!(t.reqs.len(), 4);
    }

    #[test]
    fn context_resolves_views() {
        let a = Buffer::from_vec(vec![1.0f64, 2.0]);
        let t = TaskBuilder::new("t").write_all(&a);
        let ctx = TaskContext {
            reqs: t.reqs,
        };
        let w = ctx.write::<f64>(0);
        w.set(0, 9.0);
        assert_eq!(ctx.read::<f64>(0).get(0), 9.0);
    }

    #[test]
    fn views_lend_each_run_as_a_slice() {
        let a = Buffer::from_vec(vec![1.0f64, 2.0, 3.0, 4.0]);
        let b = Buffer::filled(4, 0.0f64);
        let runs = IntervalSet::from_range(0, 1).union(&IntervalSet::from_range(2, 4));
        let t = TaskBuilder::new("t").read(&a, runs.clone()).write(&b, runs);
        let ctx = TaskContext { reqs: t.reqs };
        let src = ctx.read::<f64>(0);
        let mut dst = ctx.write::<f64>(1);
        for run in ctx.subset(1).runs() {
            let (lo, n) = (run.lo as usize, (run.hi - run.lo) as usize);
            dst.range_mut(lo, n).copy_from_slice(src.range(lo, n));
        }
        assert_eq!(b.snapshot(), vec![1.0, 0.0, 3.0, 4.0]);
    }

    /// One buffer named twice, once writable, over shared elements:
    /// legal to declare (element access is raw-pointer), but neither
    /// requirement may be sliced.
    fn read_and_write_of_one_buffer() -> TaskContext {
        let a = Buffer::filled(8, 0.0f64);
        let t = TaskBuilder::new("t")
            .read(&a, IntervalSet::from_range(2, 6))
            .write(&a, IntervalSet::from_range(0, 4));
        TaskContext { reqs: t.reqs }
    }

    #[test]
    fn overlapping_requirements_keep_element_access() {
        let ctx = read_and_write_of_one_buffer();
        ctx.write::<f64>(1).set(3, 5.0);
        assert_eq!(ctx.read::<f64>(0).get(3), 5.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the same task also writes")]
    fn slicing_a_read_the_task_also_writes_is_caught_in_debug() {
        let ctx = read_and_write_of_one_buffer();
        let _ = ctx.read::<f64>(0).range(4, 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "names twice")]
    fn slicing_a_write_the_task_also_reads_is_caught_in_debug() {
        let ctx = read_and_write_of_one_buffer();
        let _ = ctx.write::<f64>(1).range_mut(0, 2);
    }

    #[test]
    fn disjoint_requirements_on_one_buffer_may_be_sliced() {
        let a = Buffer::from_vec(vec![1.0f64, 2.0, 3.0, 4.0]);
        let t = TaskBuilder::new("t")
            .read(&a, IntervalSet::from_range(0, 2))
            .write(&a, IntervalSet::from_range(2, 4));
        let ctx = TaskContext { reqs: t.reqs };
        let src = ctx.read::<f64>(0);
        ctx.write::<f64>(1).range_mut(2, 2).copy_from_slice(src.range(0, 2));
        assert_eq!(a.snapshot(), vec![1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "not declared writable")]
    fn write_on_read_requirement_panics() {
        let a = Buffer::filled(2, 0.0f64);
        let t = TaskBuilder::new("t").read_all(&a);
        let ctx = TaskContext {
            reqs: t.reqs,
        };
        let _ = ctx.write::<f64>(0);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        let a = Buffer::filled(2, 0.0f64);
        let t = TaskBuilder::new("t").read_all(&a);
        let ctx = TaskContext {
            reqs: t.reqs,
        };
        let _ = ctx.read::<f32>(0);
    }
}
