//! Lock acquisition that survives a panicked holder.
//!
//! A handler that panics while holding a lock poisons it. A node outlives
//! one failed request, so every crate takes its `std::sync` locks through
//! these three calls, which hand over a poisoned lock's guard instead of
//! failing.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `m`, taking over the guard if a previous holder panicked.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes shared access to `l`, ignoring poisoning.
pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Takes exclusive access to `l`, ignoring poisoning.
pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_locks_stay_usable() {
        let m = Mutex::new(1);
        let l = RwLock::new(1);
        std::thread::scope(|s| {
            let _ = s
                .spawn(|| {
                    let _m = lock(&m);
                    let _l = write(&l);
                    panic!("poison both");
                })
                .join();
        });
        assert!(m.is_poisoned() && l.is_poisoned());
        *lock(&m) += 1;
        *write(&l) += 1;
        assert_eq!((*lock(&m), *read(&l)), (2, 2));
    }
}
