// D3 firing fixture: wall-clock reads outside a module that expects
// them. The same source under the bench binary root's
// `#![expect(clippy::disallowed_methods)]` is silent (see
// rule_fixtures.rs).
use std::time::{Instant, SystemTime};

pub fn measure<T>(work: impl FnOnce() -> T) -> (T, u128) {
    let t0 = Instant::now();
    let out = work();
    (out, t0.elapsed().as_nanos())
}

pub fn stamp() -> SystemTime {
    SystemTime::now()
}
