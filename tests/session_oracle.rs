//! The session oracle as a property: drawn cases over engines, option
//! shapes, pool widths, stores, plan shapes, cache states and degenerate
//! scenarios, each checked against one-scenario-at-a-time runs on a
//! fresh 1-thread sequential session (`tests/oracle/mod.rs`). The last
//! case fails if some value of some dimension was never drawn.
//!
//! A failing case prints itself. The shim seeds case `i` from the test
//! name and `i`, so a rerun fails on the same case; to replay it alone,
//! pin the printed `Case` with `pinned!`.

#[allow(dead_code, reason = "each test binary uses part of the shared oracle")]
mod oracle;

use oracle::{arb_case, check_drawn, Drawn};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Cases per tier-1 run; the nightly variant runs eight times as many.
const CASES: u32 = 256;

static DRAWN: Drawn = Mutex::new((0, BTreeSet::new()));
static DRAWN_NIGHTLY: Drawn = Mutex::new((0, BTreeSet::new()));

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn every_path_gives_the_reference_bits_or_its_error((case, drew) in arb_case()) {
        check_drawn(&case, &drew, &DRAWN, CASES)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8 * CASES))]

    /// The same property under its own name, so its own seeds: `cargo
    /// test --release --test session_oracle -- --ignored`.
    #[test]
    #[ignore = "nightly: eight times the cases; run with --ignored"]
    fn every_path_gives_the_reference_bits_or_its_error_nightly((case, drew) in arb_case()) {
        check_drawn(&case, &drew, &DRAWN_NIGHTLY, 8 * CASES)?;
    }
}
