// Suppression-binding regression fixture: an allow above an attribute
// stack must bind to the decorated item, not to the attribute line.
// Before the fix, the suppression below covered only `#[cfg(...)]`,
// so the D2 on the fn fired AND the suppression reported as unused.
// lint: allow(D2) — fixture: demo-only ranking of NaN-free losses;
// nothing downstream asserts the order of its ties.
#[cfg(feature = "demo")]
#[inline]
pub fn demo_rank(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()) }
