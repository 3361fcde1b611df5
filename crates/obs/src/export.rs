//! Snapshot exporters: a stable JSON schema and a chrome://tracing
//! trace-event file.
//!
//! Both are hand-rolled writers (the workspace is offline — no serde);
//! the JSON schema is versioned and pinned by `tests/telemetry.rs`:
//!
//! ```json
//! {
//!   "version": 2,
//!   "dropped": 0,
//!   "spans": [
//!     {"thread":0,"seq":0,"depth":0,"name":"sweep.drive","key":0,
//!      "start_ns":0,"dur_ns":0}
//!   ],
//!   "metrics": {
//!     "counters": {"stage1.builds": 2},
//!     "histograms": {
//!       "durable.write_bytes":
//!         {"bounds":[1024],"counts":[0,1],"total":1,"sum":4096}
//!     }
//!   }
//! }
//! ```
//!
//! The chrome trace is an object with a `traceEvents` array of
//! complete (`"ph":"X"`) events — open it at `chrome://tracing` or
//! <https://ui.perfetto.dev> for the flame view.

use crate::TelemetrySnapshot;
use std::fmt::Write;

/// Version tag of the JSON export schema.
pub const JSON_SCHEMA_VERSION: u32 = 2;

/// Escape `s` as a JSON string body (no surrounding quotes).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_str_field(out: &mut String, name: &str, value: &str) {
    out.push('"');
    escape_into(out, name);
    out.push_str("\":\"");
    escape_into(out, value);
    out.push('"');
}

fn push_u64_list(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

impl TelemetrySnapshot {
    /// Serialise the snapshot in the stable JSON schema (version
    /// [`JSON_SCHEMA_VERSION`]). Key order is fixed: `version`,
    /// `dropped`, `spans` (thread-then-sequence order), `metrics`
    /// (`counters` / `histograms`, each name-ordered).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.spans().len() * 96);
        let _ = write!(
            out,
            "{{\"version\":{JSON_SCHEMA_VERSION},\"dropped\":{},\"spans\":[",
            self.dropped()
        );
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"thread\":{},\"seq\":{},\"depth\":{},\"name\":",
                s.thread, s.seq, s.depth
            );
            out.push('"');
            escape_into(&mut out, s.name);
            out.push('"');
            let _ = write!(
                out,
                ",\"key\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.key, s.start_ns, s.dur_ns
            );
        }
        out.push_str("],\"metrics\":{\"counters\":{");
        let m = self.metrics();
        for (i, (name, v)) in m.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(&mut out, name);
            let _ = write!(out, "\":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in m.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(&mut out, name);
            out.push_str("\":{\"bounds\":");
            push_u64_list(&mut out, &h.bounds);
            out.push_str(",\"counts\":");
            push_u64_list(&mut out, &h.counts);
            let _ = write!(out, ",\"total\":{},\"sum\":{}}}", h.total, h.sum);
        }
        out.push_str("}}}");
        out
    }

    /// Serialise the spans as a chrome://tracing trace-event file
    /// (complete `"ph":"X"` events, microsecond timestamps). Metrics
    /// are not representable in the trace-event format — use
    /// [`TelemetrySnapshot::to_json`] for those. Load the output in
    /// `chrome://tracing` or Perfetto for the flame view.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(128 + self.spans().len() * 128);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for s in self.spans() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('{');
            push_str_field(&mut out, "name", s.name);
            out.push(',');
            push_str_field(&mut out, "cat", "riskpipe");
            out.push(',');
            push_str_field(&mut out, "ph", "X");
            // Trace-event timestamps are microseconds (fractional ok).
            let ts = s.start_ns as f64 / 1_000.0;
            let dur = s.dur_ns as f64 / 1_000.0;
            let _ = write!(
                out,
                ",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":1,\"tid\":{},\"args\":{{\"key\":{},\"seq\":{}}}}}",
                s.thread, s.key, s.seq
            );
        }
        // Name the synthetic process/threads so the flame view reads
        // "riskpipe / recorder thread N" instead of bare ids.
        if !first {
            out.push(',');
        }
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
             \"args\":{\"name\":\"riskpipe sweep\"}}",
        );
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::Telemetry;

    #[test]
    fn json_has_the_pinned_shape() {
        let t = Telemetry::new();
        {
            let _g = crate::install(&t);
            let _s = crate::span_key("unit.span", 7);
            crate::counter_add("unit.counter", 3);
            crate::histogram_record("unit.hist", &[10], 4);
        }
        let json = t.snapshot().to_json();
        assert!(json.starts_with("{\"version\":2,\"dropped\":0,\"spans\":["));
        assert!(json.contains("\"name\":\"unit.span\",\"key\":7"));
        assert!(json.contains("\"counters\":{\"unit.counter\":3}"));
        assert!(json.contains(
            "\"histograms\":{\"unit.hist\":{\"bounds\":[10],\"counts\":[1,0],\"total\":1,\"sum\":4}}"
        ));
        assert!(json.ends_with("}}}"));
    }

    #[test]
    fn chrome_trace_is_complete_events() {
        let t = Telemetry::new();
        {
            let _g = crate::install(&t);
            let _s = crate::span("trace.span");
        }
        let trace = t.snapshot().to_chrome_trace();
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(trace.contains("\"name\":\"trace.span\""));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"process_name\""));
        assert!(trace.ends_with("]}"));
    }

    #[test]
    fn empty_snapshot_still_serialises() {
        let t = Telemetry::new();
        let json = t.snapshot().to_json();
        assert_eq!(
            json,
            "{\"version\":2,\"dropped\":0,\"spans\":[],\"metrics\":\
             {\"counters\":{},\"histograms\":{}}}"
        );
    }
}
