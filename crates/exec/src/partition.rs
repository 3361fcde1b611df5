//! Range partitioning helpers: how to split `0..len` across workers.

use std::ops::Range;

/// Split `0..len` into ranges of at most `grain` elements.
pub fn grain_ranges(len: usize, grain: usize) -> Vec<Range<usize>> {
    assert!(grain > 0, "grain must be positive");
    let mut out = Vec::with_capacity(len.div_ceil(grain));
    let mut start = 0;
    while start < len {
        let end = (start + grain).min(len);
        out.push(start..end);
        start = end;
    }
    out
}

/// A grain size giving each thread ~4 chunks (for load balancing) while
/// never going below `min_grain` (amortising task overhead).
pub fn suggest_grain(len: usize, threads: usize, min_grain: usize) -> usize {
    let target_tasks = threads.max(1) * 4;
    (len.div_ceil(target_tasks)).max(min_grain.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grain_ranges_respect_grain() {
        let rs = grain_ranges(10, 4);
        assert_eq!(rs, vec![0..4, 4..8, 8..10]);
        assert!(grain_ranges(0, 4).is_empty());
    }

    #[test]
    fn suggest_grain_bounds() {
        // Large input: roughly len / (threads*4).
        assert_eq!(suggest_grain(1600, 4, 1), 100);
        // Small input: floor at min_grain.
        assert_eq!(suggest_grain(10, 8, 64), 64);
        // Zero threads treated as one.
        assert!(suggest_grain(100, 0, 1) >= 25);
    }
}
