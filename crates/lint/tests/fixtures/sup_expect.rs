// Suppression-hygiene fixture for the clippy rules, staged as serving
// library code: an `#[expect]` without a reason, and one nothing fulfils.
pub fn first(xs: &[u32]) -> u32 {
    #[expect(clippy::unwrap_used)]
    let x = *xs.first().unwrap();
    x
}

pub fn total(xs: &[u32]) -> u32 {
    #[expect(clippy::unwrap_used, reason = "stale: the unwrap became a sum")]
    let x = xs.iter().sum();
    x
}
