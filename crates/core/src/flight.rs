//! Keyed singleflight: concurrent requests for one key elect a single
//! winner that computes the value; everyone else parks on the winner's
//! slot and adopts what it publishes.
//!
//! The engine runs two of these. Object materialization keys the flight
//! by canonical object key and retires a claim *before* publishing, so a
//! late arrival starts a fresh flight and finds the object in the store.
//! Chunk planning keys it by chunk id and keeps a published slot in
//! place: the slot *is* the cached plan, dropped only when retention
//! retires it (`chunk.rs`).
//!
//! A failure is never cached and never shared: the winner's key is
//! retired, and its waiters run for the claim themselves, so each
//! reports its own error (at-most-once only has to hold for successes).
//!
//! Deadlock-free as long as a claim is only ever held by a *running*
//! thread that does not wait on a key at or below its own — the object
//! flight waits strictly up the object tree, the chunk flight waits on
//! nothing.

use sand_sanitizer::{TrackedCondvar, TrackedMutex};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// The claim map.
pub(crate) struct Flight<K, V> {
    slots: TrackedMutex<HashMap<K, Arc<FlightSlot<V>>>>,
    /// Lock label of every slot's `done` cell (one label per flight, so
    /// the sanitizer's lock-order graph ranks the two flights apart).
    done_label: &'static str,
}

/// One key's in-flight (or, for flights that keep them, published) value.
pub(crate) struct FlightSlot<V> {
    /// `None` while the winner computes; `Some(None)` once it failed,
    /// `Some(Some(value))` once it published.
    done: TrackedMutex<Option<Option<V>>>,
    cv: TrackedCondvar,
}

/// How a [`Flight::get_or_compute`] caller came by its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Arrival {
    /// The value was already published.
    Found,
    /// Another thread was computing it; this one waited.
    Joined,
    /// This thread computed it.
    Computed,
}

/// A won claim on one key. Dropping it is what publishes — the value
/// given to [`Claim::publish`], or failure if there was none (an early
/// return, a panic) — so a waiter can never be left hanging.
pub(crate) struct Claim<'a, K: Hash + Eq + Clone, V: Clone> {
    flight: &'a Flight<K, V>,
    key: K,
    slot: Arc<FlightSlot<V>>,
    value: Option<V>,
    keep: bool,
}

impl<K: Hash + Eq + Clone, V: Clone> Claim<'_, K, V> {
    /// Publishes the winner's value. `keep` leaves the slot in the map
    /// as the cached value; otherwise the key is retired first.
    pub(crate) fn publish(mut self, value: V, keep: bool) {
        self.value = Some(value);
        self.keep = keep;
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Drop for Claim<'_, K, V> {
    fn drop(&mut self) {
        // Retire before publishing: a late arrival starts a fresh
        // flight (and hits the store for cached objects) instead of
        // adopting a slot whose object may since have been evicted.
        if self.value.is_none() || !self.keep {
            self.flight.retire(&self.key);
        }
        *self.slot.done.lock() = Some(self.value.take());
        self.slot.cv.notify_all();
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Flight<K, V> {
    pub(crate) fn new(slots_label: &'static str, done_label: &'static str) -> Self {
        Flight {
            slots: TrackedMutex::new(slots_label, HashMap::new()),
            done_label,
        }
    }

    /// Claims `key`, or returns the slot of the flight already on it.
    /// Keys are looked up borrowed (`&str` for a `String` flight) and
    /// only a won claim copies one.
    fn claim_or_join<Q>(&self, key: &Q) -> Result<Claim<'_, K, V>, Arc<FlightSlot<V>>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let mut slots = self.slots.lock();
        if let Some(slot) = slots.get(key) {
            return Err(Arc::clone(slot));
        }
        let slot = Arc::new(FlightSlot {
            done: TrackedMutex::new(self.done_label, None),
            cv: TrackedCondvar::new(),
        });
        slots.insert(key.to_owned(), Arc::clone(&slot));
        Ok(Claim {
            flight: self,
            key: key.to_owned(),
            slot,
            value: None,
            keep: false,
        })
    }

    /// Claims `key` unless a flight is already on it; never blocks. The
    /// bulk pre-decode takes ownership of the frames it delivers this
    /// way without ever waiting on another job.
    pub(crate) fn try_claim<Q>(&self, key: &Q) -> Option<Claim<'_, K, V>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        self.claim_or_join(key).ok()
    }

    /// The value under `key`: adopted from the flight already on it, or
    /// computed here under a fresh claim and published to whoever joins
    /// meanwhile. `keep` caches a success in the map until
    /// [`Flight::retire`].
    pub(crate) fn get_or_compute<Q, E>(
        &self,
        key: &Q,
        keep: bool,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, Arrival), E>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let claim = loop {
            match self.claim_or_join(key) {
                Ok(claim) => break claim,
                Err(slot) => match slot.wait() {
                    (Some(value), false) => return Ok((value, Arrival::Found)),
                    (Some(value), true) => return Ok((value, Arrival::Joined)),
                    // The winner failed and retired the key: run for
                    // the claim.
                    (None, _) => {}
                },
            }
        };
        let out = compute();
        if let Ok(value) = &out {
            claim.publish(value.clone(), keep);
        }
        out.map(|value| (value, Arrival::Computed))
    }

    /// Takes `key`'s slot out of the map: the next arrival starts a fresh
    /// flight. Threads already parked on the slot still get its value.
    /// The slot is handed back rather than dropped here, so a kept value
    /// (a whole chunk plan) is freed after the map's lock is released —
    /// and after whatever locks the caller holds, if it keeps the slot
    /// until it has released them.
    pub(crate) fn retire(&self, key: &K) -> Option<Arc<FlightSlot<V>>> {
        self.slots.lock().remove(key)
    }

    /// Slots currently in the map.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.lock().len()
    }

    /// Whether some thread holds the map's lock.
    #[cfg(test)]
    pub(crate) fn is_locked(&self) -> bool {
        self.slots.try_lock().is_none()
    }

    /// Threads that joined the flight on `key` and have not left it yet.
    #[cfg(test)]
    pub(crate) fn joined<Q>(&self, key: &Q) -> usize
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        // The map and the claim hold the other two references.
        let slots = self.slots.lock();
        slots.get(key).map_or(0, |s| Arc::strong_count(s) - 2)
    }
}

impl<V: Clone> FlightSlot<V> {
    /// The published outcome, blocking until there is one; the flag says
    /// whether this call had to wait for it.
    fn wait(&self) -> (Option<V>, bool) {
        let mut done = self.done.lock();
        let mut waited = false;
        loop {
            if let Some(outcome) = done.as_ref() {
                return (outcome.clone(), waited);
            }
            waited = true;
            self.cv.wait(&mut done);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Barrier, Weak};

    fn flight() -> Flight<u32, u32> {
        Flight::new("test.flight.slots", "test.flight.done")
    }

    /// A kept value that records, when dropped, whether its flight's
    /// map was locked at the time.
    #[derive(Clone)]
    struct DropProbe {
        flight: Weak<Flight<u32, DropProbe>>,
        dropped_locked: Arc<AtomicUsize>,
    }

    impl Drop for DropProbe {
        fn drop(&mut self) {
            if self.flight.upgrade().is_some_and(|f| f.is_locked()) {
                self.dropped_locked.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn a_retired_value_is_dropped_outside_the_map_lock() {
        let f = Arc::new(Flight::new("test.flight.slots", "test.flight.done"));
        let dropped_locked = Arc::new(AtomicUsize::new(0));
        let probe = DropProbe {
            flight: Arc::downgrade(&f),
            dropped_locked: Arc::clone(&dropped_locked),
        };
        let (kept, _) = f.get_or_compute(&1, true, || Ok::<_, ()>(probe)).unwrap();
        drop(kept);
        // The map's slot holds the last copy: retiring it frees it.
        drop(f.retire(&1));
        assert_eq!(f.len(), 0);
        assert_eq!(dropped_locked.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn concurrent_callers_compute_once_and_share_the_value() {
        let f = flight();
        let calls = AtomicUsize::new(0);
        let barrier = Barrier::new(8);
        let arrivals: Vec<Arrival> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let (v, arrival) = f
                            .get_or_compute(&7, true, || {
                                calls.fetch_add(1, Ordering::Relaxed);
                                Ok::<_, ()>(42)
                            })
                            .unwrap();
                        assert_eq!(v, 42);
                        arrival
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        let computed = arrivals.iter().filter(|a| **a == Arrival::Computed);
        assert_eq!(computed.count(), 1);
        // Kept: a later caller finds it without computing.
        let later = f.get_or_compute(&7, true, || Err::<u32, ()>(()));
        assert_eq!(later, Ok((42, Arrival::Found)));
        f.retire(&7);
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn unkept_values_and_failures_leave_no_slot() {
        let f = flight();
        assert_eq!(
            f.get_or_compute(&1, false, || Ok::<_, ()>(5)),
            Ok((5, Arrival::Computed))
        );
        assert_eq!(
            f.get_or_compute(&1, true, || Err::<u32, _>("boom")),
            Err("boom")
        );
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn a_dropped_claim_wakes_its_waiters_to_compute_themselves() {
        let f = flight();
        let claim = f.try_claim(&3).expect("fresh key");
        assert!(f.try_claim(&3).is_none(), "claimed twice");
        std::thread::scope(|s| {
            let waiter = s.spawn(|| f.get_or_compute(&3, false, || Ok::<_, ()>(9)));
            // Dropped unpublished, whether or not the waiter has parked
            // yet: it finds the failure (or a free key) and computes.
            drop(claim);
            assert_eq!(waiter.join().unwrap(), Ok((9, Arrival::Computed)));
        });
        let claim = f.try_claim(&3).expect("retired with the failed claim");
        std::thread::scope(|s| {
            let waiter = s.spawn(|| f.get_or_compute(&3, false, || Ok::<_, ()>(0)));
            // The waiter either joins this flight and adopts 11, or runs
            // after it retired and computes 0: both are singleflight.
            claim.publish(11, false);
            let (v, arrival) = waiter.join().unwrap().unwrap();
            assert!(matches!(
                (v, arrival),
                (11, Arrival::Joined | Arrival::Found) | (0, Arrival::Computed)
            ));
        });
    }
}
