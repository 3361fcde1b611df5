// Unused-suppression fixture: a well-formed, reasoned suppression
// that no longer matches any finding — the only warn-level finding
// left in the catalogue, used to pin warn/deny exit-code splitting.
pub fn stale(losses: &[f64]) -> f64 {
    // lint: allow(D2) — fixture: stale, the partial_cmp sort below was
    // replaced by a sum long ago.
    losses.iter().sum()
}
