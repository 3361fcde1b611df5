//! A flat open-addressing hash map from event id to ELT row index.
//!
//! This is the single random-access structure in the pipeline. It mirrors
//! the GPU aggregate-analysis design: a dense `u32 → u32` table with
//! linear probing and power-of-two capacity, so a probe is a fibonacci
//! hash, a mask and a short linear walk over contiguous memory — equally
//! at home in CPU cache lines and in a GPU kernel's global memory.
//!
//! The map is build-once, probe-many: there is no deletion.

use riskpipe_types::EventId;

const EMPTY: u32 = u32::MAX;

/// Open-addressing `EventId → row` map with linear probing.
#[derive(Debug, Clone)]
pub struct EventRowMap {
    keys: Vec<u32>,
    values: Vec<u32>,
    mask: u32,
    len: usize,
}

#[inline]
fn hash_key(k: u32) -> u32 {
    // Multiply by the odd constant ⌊2^32/φ⌋; the callers' `& mask` then
    // keeps the product's *low* log2(cap) bits. Those depend only on the
    // key's low bits, and multiplying by an odd number is a bijection on
    // them, so dense catalogue ids `0..cap` land in distinct slots and
    // never collide. Taking the high bits (textbook Fibonacci hashing)
    // would give up that guarantee.
    k.wrapping_mul(0x9E37_79B9)
}

impl EventRowMap {
    /// Build with capacity for `expected` entries at ≤ 0.7 load factor.
    pub fn with_capacity(expected: usize) -> Self {
        let needed = ((expected as f64 / 0.7).ceil() as usize).max(8);
        let cap = needed.next_power_of_two();
        Self {
            keys: vec![EMPTY; cap],
            values: vec![0; cap],
            mask: (cap - 1) as u32,
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Table capacity (slots).
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Insert a key → row mapping. Returns the previous row for the key,
    /// if any.
    ///
    /// # Panics
    /// Panics if the key is `u32::MAX` (reserved) or the table is full.
    pub fn insert(&mut self, key: EventId, row: u32) -> Option<u32> {
        let k = key.raw();
        assert!(k != EMPTY, "event id u32::MAX is reserved");
        if (self.len + 1) as f64 > self.keys.len() as f64 * 0.85 {
            self.grow();
        }
        let mut slot = (hash_key(k) & self.mask) as usize;
        loop {
            if self.keys[slot] == EMPTY {
                self.keys[slot] = k;
                self.values[slot] = row;
                self.len += 1;
                return None;
            }
            if self.keys[slot] == k {
                let old = self.values[slot];
                self.values[slot] = row;
                return Some(old);
            }
            slot = (slot + 1) & self.mask as usize;
        }
    }

    /// Look up the row for an event id.
    #[inline]
    pub fn get(&self, key: EventId) -> Option<u32> {
        let k = key.raw();
        let mut slot = (hash_key(k) & self.mask) as usize;
        loop {
            let cur = self.keys[slot];
            if cur == k {
                return Some(self.values[slot]);
            }
            if cur == EMPTY {
                return None;
            }
            slot = (slot + 1) & self.mask as usize;
        }
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_values = std::mem::take(&mut self.values);
        self.values = vec![0; new_cap];
        self.mask = (new_cap - 1) as u32;
        self.len = 0;
        for (i, k) in old_keys.into_iter().enumerate() {
            if k != EMPTY {
                self.insert(EventId::new(k), old_values[i]);
            }
        }
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.keys.len() * 4 + self.values.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_and_get() {
        let mut m = EventRowMap::with_capacity(10);
        assert_eq!(m.insert(EventId::new(5), 100), None);
        assert_eq!(m.insert(EventId::new(9), 200), None);
        assert_eq!(m.get(EventId::new(5)), Some(100));
        assert_eq!(m.get(EventId::new(9)), Some(200));
        assert_eq!(m.get(EventId::new(6)), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn overwrite_returns_previous() {
        let mut m = EventRowMap::with_capacity(4);
        m.insert(EventId::new(1), 10);
        assert_eq!(m.insert(EventId::new(1), 20), Some(10));
        assert_eq!(m.get(EventId::new(1)), Some(20));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = EventRowMap::with_capacity(4);
        for i in 0..10_000u32 {
            m.insert(EventId::new(i * 7), i);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u32 {
            assert_eq!(m.get(EventId::new(i * 7)), Some(i), "key {}", i * 7);
        }
        // Load factor stays below 0.85.
        assert!(m.capacity() as f64 * 0.85 >= m.len() as f64);
    }

    #[test]
    fn colliding_keys_resolve() {
        let mut m = EventRowMap::with_capacity(8);
        // Many keys that map to few slots (same low bits after mixing is
        // unlikely, but a dense cluster exercises probing anyway).
        for k in 0..50u32 {
            m.insert(EventId::new(k), k + 1000);
        }
        for k in 0..50u32 {
            assert_eq!(m.get(EventId::new(k)), Some(k + 1000));
        }
    }

    #[test]
    #[should_panic]
    fn reserved_key_rejected() {
        let mut m = EventRowMap::with_capacity(4);
        m.insert(EventId::new(u32::MAX), 1);
    }

    #[test]
    fn memory_bytes_match_capacity() {
        let m = EventRowMap::with_capacity(100);
        assert_eq!(m.memory_bytes(), m.capacity() * 8);
    }

    proptest! {
        #[test]
        fn behaves_like_std_hashmap(ops in prop::collection::vec((0u32..1000, 0u32..u32::MAX), 0..500)) {
            let mut ours = EventRowMap::with_capacity(8);
            #[expect(clippy::disallowed_types, reason = "std's map is the oracle")]
            let mut std_map = std::collections::HashMap::<u32, u32>::new();
            for (k, v) in ops {
                let expect_prev = std_map.insert(k, v);
                let got_prev = ours.insert(EventId::new(k), v);
                prop_assert_eq!(expect_prev, got_prev);
            }
            prop_assert_eq!(ours.len(), std_map.len());
            #[expect(
                clippy::iter_over_hash_type,
                reason = "every entry is checked on its own; order is invisible"
            )]
            for (k, v) in &std_map {
                prop_assert_eq!(ours.get(EventId::new(*k)), Some(*v));
            }
            // Absent keys miss.
            for k in 1000u32..1100 {
                prop_assert_eq!(ours.get(EventId::new(k)), None);
            }
        }
    }
}
