// D1 firing fixture: a merge-named function iterating a HashMap whose
// visit order can leak into the folded total, and a HashSet dedupe whose
// method chain no iteration lint can see.
use std::collections::HashMap;

pub fn merge_partials(parts: Vec<HashMap<u64, f64>>) -> f64 {
    let mut total = 0.0;
    for part in parts {
        for (_k, v) in part {
            total += v; // float accumulation in hash order
        }
    }
    total
}

pub fn distinct(ids: &[u64]) -> usize {
    ids.iter().collect::<std::collections::HashSet<_>>().len()
}
