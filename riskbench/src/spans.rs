//! Span accounting over stitched [`SpanRecord`]s — the same routine
//! reads the program's own telemetry (armed through
//! `RiskSessionBuilder::telemetry`) and the harness's recorder around
//! its calls into each crate.

use riskpipe_obs::SpanRecord;
use std::collections::BTreeMap;

/// Per-name totals of one snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations, milliseconds.
    pub total_ms: f64,
    /// Sum of their self times, milliseconds: duration minus the part
    /// covered by child spans (the next-deeper spans on the same
    /// thread that began inside the interval).
    pub self_ms: f64,
}

/// Fold `spans` (thread-then-sequence order, as
/// `TelemetrySnapshot::spans` returns them) into per-name totals.
pub fn totals_by_name(spans: &[SpanRecord]) -> BTreeMap<&'static str, SpanTotals> {
    // Begin order on one thread is a pre-order walk of the span tree,
    // so a stack of open ancestors finds each span's parent.
    let mut child_ns = vec![0u64; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        while let Some(&top) = open.last() {
            let t = &spans[top];
            let encloses = t.thread == span.thread
                && t.depth < span.depth
                && span.start_ns < t.start_ns + t.dur_ns;
            if encloses {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            if spans[parent].depth + 1 == span.depth {
                child_ns[parent] += span.dur_ns;
            }
        }
        open.push(i);
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ms += span.dur_ns as f64 / 1e6;
        entry.self_ms += span.dur_ns.saturating_sub(children) as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use riskpipe_obs::Recorder;

    #[test]
    fn self_time_excludes_children_only() {
        let rec = Recorder::new();
        {
            let _outer = rec.begin("outer", 0);
            for _ in 0..2 {
                let _mid = rec.begin("mid", 0);
                let _leaf = rec.begin("leaf", 0);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        {
            let _second = rec.begin("outer", 1);
        }
        let totals = totals_by_name(&rec.stitch());
        assert_eq!(totals["outer"].count, 2);
        assert_eq!(totals["mid"].count, 2);
        assert_eq!(totals["leaf"].count, 2);
        // Leaves have no children; `mid` is almost all leaf; `outer`
        // loses its two `mid` children but not its grandchildren twice.
        assert_eq!(totals["leaf"].self_ms, totals["leaf"].total_ms);
        assert!(totals["leaf"].total_ms >= 4.0);
        assert!(totals["mid"].self_ms < 1.0);
        let outer = totals["outer"];
        assert!((outer.total_ms - outer.self_ms - totals["mid"].total_ms).abs() < 1e-6);
    }
}
