// Entropy firing fixture: std's only entropy source is the hasher
// seed, and a stream drawn from it differs on every run.
use std::hash::{BuildHasher, Hasher};

pub fn seed_from_os() -> u64 {
    let state = std::collections::hash_map::RandomState::new();
    state.build_hasher().finish()
}
