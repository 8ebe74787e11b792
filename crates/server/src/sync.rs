//! Poison-tolerant locking for the server's shared state.
//!
//! A panic while a thread holds a `std::sync` lock poisons it, and a
//! bare `.lock().expect(...)` then turns one bad query into a
//! permanently bricked cache / registry / admission book: every later
//! session panics on the same mutex forever. All of the server's
//! guarded state is re-validated on every use (cache entries are
//! checked against the dataset version, the admission book is a simple
//! refcount map, the registry only grows), so recovering the guard with
//! [`PoisonError::into_inner`] is sound — the worst a half-applied
//! panic can leave behind is a stale cache entry or an off-by-one
//! admission count that drains with its guard.
//!
//! Every recovery is counted in the process-global
//! `server.lock_recoveries` counter (surfaced by the wire `metrics`
//! request), so operators see that a panic happened even though serving
//! continued.

use kr_obs::Counter;
use std::sync::{
    Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// The process-global poison-recovery counter.
pub(crate) fn lock_recoveries() -> &'static Arc<Counter> {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| kr_obs::global().counter("server.lock_recoveries"))
}

/// `Mutex::lock` that recovers from poisoning instead of panicking.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e: PoisonError<_>| {
        lock_recoveries().inc();
        e.into_inner()
    })
}

/// `RwLock::read` that recovers from poisoning instead of panicking.
pub(crate) fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e: PoisonError<_>| {
        lock_recoveries().inc();
        e.into_inner()
    })
}

/// `RwLock::write` that recovers from poisoning instead of panicking.
pub(crate) fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e: PoisonError<_>| {
        lock_recoveries().inc();
        e.into_inner()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_mutex_recovers_and_counts() {
        let m = Arc::new(Mutex::new(7u32));
        let before = lock_recoveries().get();
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 7);
        assert!(lock_recoveries().get() > before);
        // Later locks still work (the guard above cleared nothing; the
        // mutex stays poisoned, recovery is per-acquire).
        *lock(&m) = 8;
        assert_eq!(*lock(&m), 8);
    }

    #[test]
    fn poisoned_rwlock_recovers_for_readers_and_writers() {
        let l = Arc::new(RwLock::new(1u32));
        let l2 = l.clone();
        let _ = std::thread::spawn(move || {
            let _guard = l2.write().unwrap();
            panic!("poison it");
        })
        .join();
        assert_eq!(*read_lock(&l), 1);
        *write_lock(&l) = 2;
        assert_eq!(*read_lock(&l), 2);
    }
}
