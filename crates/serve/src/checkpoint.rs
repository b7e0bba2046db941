//! Bounded retention of interrupted-search checkpoints.
//!
//! When a solver inside a request is interrupted (deadline expiry, a
//! watchdog force-cancel, or a node budget), it emits a
//! [`rs_core::SearchCheckpoint`] alongside its partial result. The
//! dispatcher parks those snapshots here, keyed by the request's cache
//! key, so a **retry of the same request resumes the search node-for-node
//! instead of restarting it** — the mirror image of the [`crate::cache`]
//! memoization: the cache replays finished work, this store continues
//! unfinished work.
//!
//! A request can hold several checkpoints (one per register type whose
//! intLP was interrupted), so the stored unit is a list of named slots.
//! Entries are taken (removed) on resume — a checkpoint is a one-shot
//! continuation; if the resumed solve is interrupted again it deposits a
//! fresh, further-along snapshot under the same key. Eviction is FIFO,
//! like the memo cache. The store is shared by every worker of a pool,
//! which is what lets the watchdog's force-cancel *salvage* work: the
//! cancelled worker still finishes its solve call cooperatively, its
//! checkpoint lands here, and whichever worker picks up the retry
//! continues from it.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default number of retained checkpoint entries (requests, not slots).
pub const DEFAULT_CHECKPOINT_CAPACITY: usize = 64;

/// One interrupted solver within a request: `(slot, checkpoint_json)`.
/// The slot names which solver the snapshot belongs to (e.g. the register
/// type of an interrupted intLP), so a retry resumes each solver from its
/// own frontier.
pub type CheckpointSlot = (String, String);

struct Inner {
    map: HashMap<String, Vec<CheckpointSlot>>,
    /// Insertion order, for FIFO eviction.
    order: VecDeque<String>,
    capacity: usize,
}

/// A bounded, thread-safe checkpoint store with stored/resumed counters.
pub struct CheckpointStore {
    inner: Mutex<Inner>,
    stored: AtomicU64,
    resumed: AtomicU64,
}

impl Default for CheckpointStore {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CHECKPOINT_CAPACITY)
    }
}

impl CheckpointStore {
    /// A store that evicts FIFO past `capacity` entries (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        CheckpointStore {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
                capacity: capacity.max(1),
            }),
            stored: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
        }
    }

    /// Deposits the interrupted slots of one request, replacing any
    /// previous entry under the same key (the new snapshot is strictly
    /// further along). Empty slot lists are ignored.
    pub fn put(&self, key: String, slots: Vec<CheckpointSlot>) {
        if slots.is_empty() {
            return;
        }
        let mut inner = crate::lock_recover(&self.inner);
        if inner.map.insert(key.clone(), slots).is_none() {
            while inner.map.len() > inner.capacity {
                match inner.order.pop_front() {
                    Some(old) => {
                        inner.map.remove(&old);
                    }
                    None => break,
                }
            }
            inner.order.push_back(key);
        }
        self.stored.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes (removes) the retained slots for a key, counting a resumed
    /// request when present. One-shot: a second retry after this take
    /// starts cold unless the resumed solve re-deposits.
    pub fn take(&self, key: &str) -> Option<Vec<CheckpointSlot>> {
        let mut inner = crate::lock_recover(&self.inner);
        let slots = inner.map.remove(key)?;
        inner.order.retain(|k| k != key);
        self.resumed.fetch_add(1, Ordering::Relaxed);
        Some(slots)
    }

    /// Cumulative `(stored, resumed)` counters: checkpoint deposits and
    /// retried requests that found one to continue from.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.stored.load(Ordering::Relaxed),
            self.resumed.load(Ordering::Relaxed),
        )
    }

    /// Whether a checkpoint is parked for this key (without consuming it).
    /// Batch clients use this to tell a *resumed* retry (the next attempt
    /// continues a saved frontier) from a cold one.
    pub fn contains(&self, key: &str) -> bool {
        crate::lock_recover(&self.inner).map.contains_key(key)
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        crate::lock_recover(&self.inner).map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slots(tag: &str) -> Vec<CheckpointSlot> {
        vec![("float".to_string(), format!("{{\"ck\":\"{tag}\"}}"))]
    }

    #[test]
    fn take_is_one_shot_and_counts() {
        let store = CheckpointStore::with_capacity(8);
        assert!(store.take("a").is_none());
        store.put("a".into(), slots("1"));
        assert_eq!(store.len(), 1);
        let got = store.take("a").expect("stored entry");
        assert_eq!(got[0].0, "float");
        assert!(store.take("a").is_none(), "take consumes the entry");
        assert_eq!(store.counters(), (1, 1));
    }

    #[test]
    fn replacement_keeps_one_entry_per_key() {
        let store = CheckpointStore::with_capacity(8);
        store.put("a".into(), slots("old"));
        store.put("a".into(), slots("new"));
        assert_eq!(store.len(), 1);
        let got = store.take("a").unwrap();
        assert!(got[0].1.contains("new"), "latest snapshot wins");
    }

    #[test]
    fn eviction_is_fifo_and_empty_slots_are_ignored() {
        let store = CheckpointStore::with_capacity(2);
        store.put("a".into(), slots("1"));
        store.put("b".into(), slots("2"));
        store.put("c".into(), slots("3"));
        assert_eq!(store.len(), 2);
        assert!(store.take("a").is_none(), "oldest entry evicted");
        assert!(store.take("b").is_some());
        assert!(store.take("c").is_some());
        store.put("d".into(), Vec::new());
        assert!(store.is_empty(), "empty slot lists are not stored");
    }
}
