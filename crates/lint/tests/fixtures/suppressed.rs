// Suppression fixture: a well-formed, reasoned suppression silences
// the finding on the next code line — and nothing else.
pub fn demo_rank(mut losses: Vec<f64>) -> Vec<f64> {
    // lint: allow(D2) — fixture: demo-only ranking of NaN-free losses;
    // determinism of the order is not asserted anywhere.
    losses.sort_by(|a, b| a.partial_cmp(b).unwrap());
    losses
}
