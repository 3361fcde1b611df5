// D1 clean fixture: the two sanctioned shapes — BTreeMap throughout,
// and the explicit sorted drain over a HashMap accumulator, audited.
use std::collections::BTreeMap;

pub fn merge_partials(parts: Vec<BTreeMap<u64, f64>>) -> BTreeMap<u64, f64> {
    let mut acc = BTreeMap::new();
    for part in parts {
        for (k, v) in part {
            *acc.entry(k).or_insert(0.0) += v;
        }
    }
    acc
}

#[expect(
    clippy::disallowed_types,
    reason = "fixture: the entries are sorted before anything reads them"
)]
pub fn fold_counts(events: &[u64]) -> Vec<(u64, u64)> {
    let mut acc: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for &e in events {
        *acc.entry(e).or_insert(0) += 1;
    }
    let mut entries: Vec<(u64, u64)> = acc.into_iter().collect();
    entries.sort_unstable_by_key(|e| e.0);
    entries
}
