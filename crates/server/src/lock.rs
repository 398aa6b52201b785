//! [`Lock`], the server's mutex, whose guards a solve can see.
//!
//! A solve runs under no server lock: a guard held across one would stall
//! every request that needs the lock for as long as the solve runs. Every
//! lock in this crate but the world mutex is a [`Lock`], and in debug
//! builds each of its guards counts itself in a per-thread tally while it
//! lives. [`assert_unlocked`] asserts that the tally is zero. The solve
//! entry points call it on entry (`cold_solve`, `residual_context`,
//! `repair_bookings`), and so does the session table's lock accessor, which
//! must be the outermost lock a thread takes. The check is behavioural, so
//! it sees a guard held across a helper that solves as well as one held
//! across the solve itself, on every path the tests drive.
//!
//! The world mutex stays a raw `parking_lot::Mutex`: mutations serialize on
//! it across their repair sweep, so it is the one lock a solve may run
//! under. `clippy.toml` disallows the raw type everywhere else.
//!
//! In release builds the tally compiles out: [`Held`] is a plain newtype
//! over the `parking_lot` guard and [`assert_unlocked`] does nothing.

// This module is the one place the raw mutex is wrapped.
#![expect(
    clippy::disallowed_types,
    reason = "`Lock` is the wrapper the disallowed raw mutex points to"
)]

use std::ops::{Deref, DerefMut};

#[cfg(debug_assertions)]
thread_local! {
    /// How many [`Held`] guards this thread holds right now.
    static HELD: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A `parking_lot::Mutex` whose guards count themselves (debug builds).
#[derive(Debug, Default)]
pub(crate) struct Lock<T>(parking_lot::Mutex<T>);

impl<T> Lock<T> {
    pub(crate) fn new(value: T) -> Self {
        Lock(parking_lot::Mutex::new(value))
    }

    /// Acquires the lock, blocking until it is available.
    pub(crate) fn lock(&self) -> Held<'_, T> {
        let guard = self.0.lock();
        #[cfg(debug_assertions)]
        HELD.set(HELD.get() + 1);
        Held(guard)
    }
}

/// A live [`Lock`] guard.
pub(crate) struct Held<'a, T>(parking_lot::MutexGuard<'a, T>);

#[cfg(debug_assertions)]
impl<T> Drop for Held<'_, T> {
    fn drop(&mut self) {
        HELD.set(HELD.get() - 1);
    }
}

impl<T> Deref for Held<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for Held<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Debug-asserts that this thread holds no [`Lock`] guard: `what` must not
/// run under a server lock.
pub(crate) fn assert_unlocked(what: &str) {
    #[cfg(debug_assertions)]
    assert!(HELD.get() == 0, "{what} under a server lock");
    #[cfg(not(debug_assertions))]
    let _ = what;
}
