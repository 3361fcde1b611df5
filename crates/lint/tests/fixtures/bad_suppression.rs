// Bad-suppression fixture: a reasonless suppression is a deny finding
// and does NOT silence the underlying rule; an unknown rule code is a
// deny finding too.
pub fn demo_rank(mut losses: Vec<f64>) -> Vec<f64> {
    // lint: allow(D2)
    losses.sort_by(|a, b| a.partial_cmp(b).unwrap());
    losses
}

pub fn other() -> u32 {
    // lint: allow(Q7) — no such rule in the catalogue
    1
}
