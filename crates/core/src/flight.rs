//! Keyed singleflight: concurrent requests for one key elect a single
//! winner that computes the value; everyone else parks on the winner's
//! slot and adopts what it publishes.
//!
//! The engine runs two of these. Frame materialization keys the flight
//! by canonical object key and retires a claim *before* publishing, so a
//! late arrival starts a fresh flight and finds the object in the store.
//! Chunk planning keys it by chunk id and leaves a published slot in
//! place: the slot *is* the cached plan, dropped only when retention
//! retires it (`chunk.rs`).
//!
//! Deadlock-free as long as a claim is only ever held by a *running*
//! thread that does not wait on a key at or below its own — the frame
//! flight waits strictly up the object tree, the chunk flight waits on
//! nothing.

use sand_sanitizer::{TrackedCondvar, TrackedMutex};
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
    /// `None` while the winner computes; `Some(value)` once published.
    done: TrackedMutex<Option<V>>,
    cv: TrackedCondvar,
}

impl<K: Hash + Eq + Clone, V: Clone> Flight<K, V> {
    pub(crate) fn new(slots_label: &'static str, done_label: &'static str) -> Self {
        Flight {
            slots: TrackedMutex::new(slots_label, HashMap::new()),
            done_label,
        }
    }

    /// Claims `key` (returning the winner's slot to publish into, and
    /// `true`) or joins the existing flight (returning the slot to wait
    /// on, and `false`). A winner *must* publish, or waiters hang.
    pub(crate) fn claim_or_join(&self, key: &K) -> (Arc<FlightSlot<V>>, bool) {
        let mut slots = self.slots.lock();
        match slots.get(key) {
            Some(s) => (Arc::clone(s), false),
            None => {
                let s = Arc::new(FlightSlot {
                    done: TrackedMutex::new(self.done_label, None),
                    cv: TrackedCondvar::new(),
                });
                slots.insert(key.clone(), Arc::clone(&s));
                (s, true)
            }
        }
    }

    /// Drops `key`'s slot from the map: the next arrival starts a fresh
    /// flight. Threads already parked on the slot still get its value.
    pub(crate) fn retire(&self, key: &K) {
        self.slots.lock().remove(key);
    }

    /// Slots currently in the map.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.lock().len()
    }
}

impl<V: Clone> FlightSlot<V> {
    /// Publishes the winner's value and wakes every waiter.
    pub(crate) fn publish(&self, value: V) {
        *self.done.lock() = Some(value);
        self.cv.notify_all();
    }

    /// The published value, blocking until there is one; the flag says
    /// whether this call had to wait for it.
    pub(crate) fn wait(&self) -> (V, bool) {
        let mut done = self.done.lock();
        let mut waited = false;
        loop {
            if let Some(v) = done.as_ref() {
                return (v.clone(), waited);
            }
            waited = true;
            self.cv.wait(&mut done);
        }
    }
}
