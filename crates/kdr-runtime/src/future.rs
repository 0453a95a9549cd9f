//! Scalar futures.
//!
//! Krylov iterations thread scalars (dot products, norms) between
//! tasks and the driving thread. A [`Future`] is a one-shot,
//! blocking-read cell: tasks fill it through the paired [`Promise`],
//! and `get()` parks the caller until the value arrives. Because the
//! executor runs continuously on worker threads, blocking on a future
//! from the application thread cannot deadlock.
//!
//! Futures are for applications that hand a value out of a task of
//! their own. **They are not on a solve path**: the execution backend
//! reads a reduction where it landed
//! ([`Runtime::wait_written`](crate::Runtime::wait_written) +
//! [`Buffer::peek`](crate::Buffer::peek)) — no task, no promise — and a
//! thread parked in `get()` does not run ready tasks the way a thread
//! waiting in a fence or in `wait_written` does.
//!
//! # Poisoning
//!
//! If a promise is dropped without being fulfilled — the producing
//! task panicked, or was retired-as-poisoned because a predecessor
//! failed — the future is *poisoned*: [`Future::wait`] wakes every
//! blocked reader with [`PromiseDropped`] instead of parking them
//! forever. This is the piece that turns a mid-solve task failure
//! into a structured error rather than a deadlocked application
//! thread.

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

enum Slot<T> {
    Empty,
    Ready(T),
    /// The promise was dropped unfulfilled (producing task failed).
    Poisoned,
}

struct Shared<T> {
    slot: Mutex<Slot<T>>,
    cv: Condvar,
}

/// Error returned by [`Future::wait`] when the paired [`Promise`] was
/// dropped without ever being set — the producing task panicked or
/// was retired-as-poisoned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PromiseDropped;

impl std::fmt::Display for PromiseDropped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "promise dropped without a value (producing task failed)")
    }
}

impl std::error::Error for PromiseDropped {}

/// The write end of a one-shot scalar channel. Dropping it unfulfilled
/// poisons the paired [`Future`].
pub struct Promise<T> {
    shared: Arc<Shared<T>>,
    fulfilled: bool,
}

/// The read end of a one-shot scalar channel. Cloneable; every clone
/// observes the same value.
pub struct Future<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Future<T> {
    fn clone(&self) -> Self {
        Future {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Create a connected promise/future pair.
pub fn promise<T>() -> (Promise<T>, Future<T>) {
    let shared = Arc::new(Shared {
        slot: Mutex::new(Slot::Empty),
        cv: Condvar::new(),
    });
    (
        Promise {
            shared: Arc::clone(&shared),
            fulfilled: false,
        },
        Future { shared },
    )
}

impl<T> Promise<T> {
    /// Fill the future. Panics if already filled.
    pub fn set(mut self, value: T) {
        let mut slot = self.shared.slot.lock();
        assert!(matches!(*slot, Slot::Empty), "promise set twice");
        *slot = Slot::Ready(value);
        self.fulfilled = true;
        self.shared.cv.notify_all();
    }
}

impl<T> Drop for Promise<T> {
    fn drop(&mut self) {
        if self.fulfilled {
            return;
        }
        let mut slot = self.shared.slot.lock();
        if matches!(*slot, Slot::Empty) {
            *slot = Slot::Poisoned;
            self.shared.cv.notify_all();
        }
    }
}

impl<T: Clone> Future<T> {
    /// Block until the value arrives, then return a clone of it.
    /// Panics if the promise was dropped unfulfilled; use
    /// [`Future::wait`] to observe that as an error instead.
    pub fn get(&self) -> T {
        self.wait()
            .expect("promise dropped without a value (producing task failed)")
    }

    /// Block until the value arrives or the promise is dropped
    /// unfulfilled. Never deadlocks on a failed producer.
    pub fn wait(&self) -> Result<T, PromiseDropped> {
        let mut slot = self.shared.slot.lock();
        loop {
            match &*slot {
                Slot::Ready(v) => return Ok(v.clone()),
                Slot::Poisoned => return Err(PromiseDropped),
                Slot::Empty => self.shared.cv.wait(&mut slot),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn set_then_get() {
        let (p, f) = promise();
        p.set(42u64);
        assert_eq!(f.get(), 42);
        assert_eq!(f.clone().get(), 42);
    }

    #[test]
    fn get_blocks_until_set() {
        let (p, f) = promise();
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            p.set(7.5f64);
        });
        assert_eq!(f.get(), 7.5);
        h.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "set twice")]
    fn double_set_panics() {
        let (p, f) = promise();
        p.set(1u32);
        let again = Promise {
            shared: Arc::clone(&f.shared),
            fulfilled: false,
        };
        again.set(2);
    }

    #[test]
    fn dropped_promise_poisons_blocked_reader() {
        let (p, f) = promise::<f64>();
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            drop(p); // task "failed" without producing a value
        });
        assert_eq!(f.wait(), Err(PromiseDropped));
        h.join().unwrap();
    }

    #[test]
    fn fulfilled_promise_does_not_poison_on_drop() {
        let (p, f) = promise();
        p.set(3u8);
        assert_eq!(f.wait(), Ok(3));
    }

    #[test]
    #[should_panic(expected = "promise dropped")]
    fn get_panics_on_poison() {
        let (p, f) = promise::<u32>();
        drop(p);
        f.get();
    }
}
