//! Operator residency: which matrices stay warm on a pool slice, and
//! who gets evicted when a cold build needs room.
//!
//! The LRU policy itself is a small generic structure ([`Lru`]) so its
//! invariants — eviction strictly in least-recently-used order, a
//! pinned (in-flight) key is never evicted — are property-testable
//! without building real device state. [`Residency`] instantiates it
//! over [`ca_gmres::system::System`] — the basis panel, SpMV/MPK plans and
//! ABFT checksum a finished solve handed back — and adds the two lifecycle
//! hazards the simulator makes real: releasing an evicted operator
//! returns its bytes to the device allocator, and an executor rebuild
//! (device-loss recovery) invalidates every held allocation, after
//! which entries must be *dropped*, not released.

use std::collections::BTreeMap;

use ca_gmres::system::System;
use ca_gpusim::MultiGpu;

/// Generic keyed LRU with pinning. Recency is a logical counter stamped
/// on insert and touch, so behavior is independent of wall-clock and of
/// simulated time.
#[derive(Debug)]
pub struct Lru<T> {
    entries: BTreeMap<String, (T, u64)>,
    stamp: u64,
}

impl<T> Default for Lru<T> {
    fn default() -> Self {
        Self { entries: BTreeMap::new(), stamp: 0 }
    }
}

impl<T> Lru<T> {
    fn tick(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Insert (or replace) `key`, stamping it most recently used.
    /// Returns the displaced payload when replacing.
    pub fn insert(&mut self, key: &str, value: T) -> Option<T> {
        let s = self.tick();
        self.entries.insert(key.to_string(), (value, s)).map(|(v, _)| v)
    }

    /// Remove and return `key`'s payload (the caller takes ownership for
    /// the duration of a solve and re-inserts the refreshed state).
    pub fn take(&mut self, key: &str) -> Option<T> {
        self.entries.remove(key).map(|(v, _)| v)
    }

    /// Re-stamp `key` as most recently used.
    pub fn touch(&mut self, key: &str) {
        let s = self.tick();
        if let Some(e) = self.entries.get_mut(key) {
            e.1 = s;
        }
    }

    /// Evict the least-recently-used entry, never the pinned key.
    /// Returns `None` when nothing is evictable.
    pub fn evict_lru(&mut self, pinned: &str) -> Option<(String, T)> {
        let victim = self
            .entries
            .iter()
            .filter(|(k, _)| k.as_str() != pinned)
            .min_by_key(|(_, (_, s))| *s)
            .map(|(k, _)| k.clone())?;
        self.entries.remove(&victim).map(|(v, _)| (victim.clone(), v))
    }

    /// Whether `key` is resident.
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Resident entry count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every entry *without* giving the caller a chance to release
    /// device allocations — for the executor-rebuild path where the held
    /// handles are already stale.
    pub fn clear_stale(&mut self) {
        self.entries.clear();
    }
}

/// Warm-operator store for one pool slice.
#[derive(Debug, Default)]
pub struct Residency {
    lru: Lru<System>,
    /// Operators evicted to make room (each one released its bytes).
    pub evictions: u64,
}

impl Residency {
    /// Take `key`'s warm state for a solve (ownership passes to
    /// [`ca_gmres::ft::ca_gmres_ft_session`]).
    pub fn take(&mut self, key: &str) -> Option<System> {
        self.lru.take(key)
    }

    /// Whether `key` is warm on this slice.
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.lru.contains(key)
    }

    /// Resident operator count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether no operators are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Park a refreshed operator under `key` (most recently used). A
    /// displaced duplicate is released.
    pub fn park(&mut self, mg: &mut MultiGpu, key: &str, sys: System) {
        if let Some(old) = self.lru.insert(key, sys) {
            old.release(mg);
        }
    }

    /// Evict least-recently-used operators (never `pinned`) until every
    /// device can fit `need_bytes_per_dev` more, or nothing evictable
    /// remains. Returns how many operators were evicted; their bytes are
    /// returned to the allocator immediately.
    pub fn make_room(
        &mut self,
        mg: &mut MultiGpu,
        pinned: &str,
        need_bytes_per_dev: &[usize],
    ) -> u64 {
        let fits = |mg: &MultiGpu| {
            (0..mg.n_gpus()).all(|d| {
                let need = need_bytes_per_dev.get(d).copied().unwrap_or(0);
                // a need no sum can hold fits nowhere, however much is evicted
                let total = mg.device(d).mem_used().checked_add(need);
                total.is_some_and(|t| t <= mg.model().dev_mem_capacity)
            })
        };
        let mut evicted = 0;
        while !fits(mg) {
            match self.lru.evict_lru(pinned) {
                Some((_, sys)) => {
                    sys.release(mg);
                    evicted += 1;
                }
                None => break,
            }
        }
        self.evictions += evicted;
        evicted
    }

    /// Forget every operator without releasing: the executor was rebuilt
    /// (device-loss recovery) and the held allocations no longer exist.
    pub fn clear_stale(&mut self) {
        self.lru.clear_stale();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_in_recency_order_and_respects_pins() {
        let mut lru: Lru<u32> = Lru::default();
        lru.insert("a", 1);
        lru.insert("b", 2);
        lru.insert("c", 3);
        lru.touch("a"); // recency now b < c < a
        assert_eq!(lru.evict_lru("z").map(|(k, _)| k).as_deref(), Some("b"));
        assert_eq!(lru.evict_lru("c").map(|(k, _)| k).as_deref(), Some("a"));
        // Only the pinned key is left: nothing evictable.
        assert!(lru.evict_lru("c").is_none());
        assert!(lru.contains("c"));
        lru.clear_stale();
        assert!(lru.is_empty());
    }

    #[test]
    fn a_need_no_device_could_ever_hold_neither_wraps_nor_panics() {
        let mut mg = MultiGpu::with_defaults(1);
        mg.device_mut(0).alloc_vec(16).expect("128 bytes fit");
        let mut res = Residency::default();
        // `mem_used() + need` overflows: it must read "does not fit"
        // (nothing to evict, so nothing is), not wrap around to "fits"
        assert_eq!(res.make_room(&mut mg, "k", &[usize::MAX]), 0);
        assert_eq!(res.evictions, 0);
    }

    /// Random op sequences never evict the pinned key, and every
    /// eviction removes the oldest-stamped unpinned entry.
    #[test]
    fn pinned_key_never_evicted() {
        ca_scalar::cases(256, |rng| {
            let keys = ["k0", "k1", "k2", "k3", "k4", "pin"];
            let mut lru: Lru<usize> = Lru::default();
            // Shadow model: key -> stamp, mirroring the recency order.
            let mut shadow: std::collections::BTreeMap<&str, u64> = Default::default();
            let mut tick = 0u64;
            for _ in 0..rng.index(1..60) {
                let (op, ki) = (rng.index(0..4), rng.index(0..6));
                let key = keys[ki];
                match op {
                    0 => {
                        lru.insert(key, ki);
                        tick += 1;
                        shadow.insert(key, tick);
                    }
                    1 => {
                        lru.touch(key);
                        tick += 1;
                        if let Some(s) = shadow.get_mut(key) {
                            *s = tick;
                        }
                    }
                    2 => {
                        lru.take(key);
                        shadow.remove(key);
                    }
                    _ => {
                        let expect = shadow
                            .iter()
                            .filter(|(k, _)| **k != "pin")
                            .min_by_key(|(_, s)| **s)
                            .map(|(k, _)| (*k).to_string());
                        let got = lru.evict_lru("pin").map(|(k, _)| k);
                        assert_eq!(&got, &expect);
                        assert_ne!(got.as_deref(), Some("pin"));
                        if let Some(k) = expect {
                            shadow.remove(k.as_str());
                        }
                    }
                }
                assert_eq!(lru.contains("pin"), shadow.contains_key("pin"));
            }
        });
    }
}
