//! `--compare a.json b.json`: judge result document `b` against `a`.
//!
//! One row per (workload, end-to-end metric): `ok`, `worse` (the
//! median moved the wrong way by more than the metric's bound) or
//! `unresolved` (the spread between a document's own reps — the
//! interquartile range of five or more samples, over the median — is
//! wider than the bound, so the bound cannot be resolved; that is not
//! "unchanged").
//! The exact-count layer metrics are listed as `same` or `changed`.
//! This is the tool for the repeatability check (two runs of one
//! commit) and for before/after rows in later changes.

use crate::json::Json;
use crate::{Better, END_TO_END};
use std::path::Path;

/// Layer metrics that are exact counts: two runs of one commit on one
/// seed must agree on them to the unit.
pub const EXACT_COUNTS: [&str; 9] = [
    "aggregate.probes",
    "core.stage1_builds",
    "core.stage1_hits",
    "core.stage1_disk_hits",
    "mapreduce.shuffle_records",
    "mapreduce.spill_bytes",
    "tables.durable_bytes",
    "tables.durable_writes",
    "warehouse.base_cells",
];

/// How one (workload, metric) pair came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the bound allows.
    Worse,
    /// Run-to-run spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One comparison row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Median in `a`.
    pub a: f64,
    /// Median in `b`.
    pub b: f64,
    /// Share of `a` by which `b` is worse (negative: better).
    pub worse_by: f64,
    /// Larger of the two documents' interquartile range over median.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn number(value: Option<&Json>, what: &str) -> Result<f64, String> {
    value
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number: {what}"))
}

/// Median and IQR/median of one end-to-end metric of one workload.
fn metric_of(run: &Json, metric: &str, what: &str) -> Result<(f64, f64), String> {
    // The detail block carries the quartiles; the result line's
    // `metrics` only the median.
    let summary = run
        .get("detail")
        .and_then(|d| d.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .or_else(|| run.get("metrics").and_then(|m| m.get(metric)))
        .ok_or_else(|| format!("missing metric: {what}"))?;
    let median = number(summary.get("value"), what)?;
    // Quartiles of fewer than five samples are the extremes (the three
    // set-ups of a run): one slow set-up is not a spread.
    let samples = summary.get("n").and_then(Json::as_f64).unwrap_or(0.0);
    let spread = match (summary.get("q1"), summary.get("q3")) {
        (Some(q1), Some(q3)) if median != 0.0 && samples >= 5.0 => {
            (number(Some(q3), what)? - number(Some(q1), what)?) / median.abs()
        }
        _ => 0.0,
    };
    Ok((median, spread))
}

fn failure_rate(run: &Json, what: &str) -> Result<f64, String> {
    let attempted = number(run.get("attempted"), what)?;
    let failed = number(run.get("failed"), what)?;
    Ok(if attempted > 0.0 {
        failed / attempted
    } else {
        1.0
    })
}

/// Compare two parsed result documents. Returns the rows, the
/// exact-count lines, and whether `b` passes (no `worse` row and no
/// larger failure rate).
pub fn compare(a: &Json, b: &Json) -> Result<(Vec<Row>, Vec<String>, bool), String> {
    let workloads_a = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("first document has no workloads")?;
    let workloads_b = b
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("second document has no workloads")?;
    let mut rows = Vec::new();
    let mut counts = Vec::new();
    let mut pass = true;
    for (name, wa) in workloads_a {
        let Some(wb) = workloads_b.get(name) else {
            return Err(format!(
                "workload {name} is missing from the second document"
            ));
        };
        let (ua, ub) = (wa.get("untraced"), wb.get("untraced"));
        let (Some(ua), Some(ub)) = (ua, ub) else {
            return Err(format!("workload {name} has no untraced pass"));
        };
        for spec in END_TO_END {
            let what = format!("{name}/{}", spec.name);
            let (ma, sa) = metric_of(ua, spec.name, &what)?;
            let (mb, sb) = metric_of(ub, spec.name, &what)?;
            let worse_by = match spec.better {
                Better::Lower => (mb - ma) / ma.abs(),
                Better::Higher => (ma - mb) / ma.abs(),
            };
            let spread = sa.max(sb);
            let verdict = if spread > spec.bound {
                Verdict::Unresolved
            } else if worse_by > spec.bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            pass &= verdict != Verdict::Worse;
            rows.push(Row {
                workload: name.clone(),
                metric: spec.name,
                a: ma,
                b: mb,
                worse_by,
                spread,
                bound: spec.bound,
                verdict,
            });
        }
        for pass_name in ["untraced", "traced"] {
            let (Some(ra), Some(rb)) = (wa.get(pass_name), wb.get(pass_name)) else {
                continue;
            };
            let what = format!("{name}/{pass_name}");
            if failure_rate(rb, &what)? > failure_rate(ra, &what)? {
                pass = false;
                counts.push(format!("{what}: more operations failed  worse"));
            }
        }
        if let (Some(ta), Some(tb)) = (
            wa.get("traced").and_then(|t| t.get("metrics")),
            wb.get("traced").and_then(|t| t.get("metrics")),
        ) {
            for metric in EXACT_COUNTS {
                let what = format!("{name}/{metric}");
                let ca = number(ta.get(metric).and_then(|m| m.get("value")), &what)?;
                let cb = number(tb.get(metric).and_then(|m| m.get("value")), &what)?;
                let word = if ca == cb { "same" } else { "changed" };
                counts.push(format!("{what}: {ca} -> {cb}  {word}"));
            }
        }
    }
    Ok((rows, counts, pass))
}

/// Load, compare and print. `Ok(true)` when `b` passes.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (rows, counts, pass) = compare(&load(a)?, &load(b)?)?;
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "worse by", "spread", "bound"
    );
    for r in &rows {
        println!(
            "{:<14} {:<16} {:>12.4} {:>12.4} {:>8.1}% {:>7.1}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
    for line in &counts {
        println!("{line}");
    }
    let tally = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} worse, {} unresolved: {}",
        tally(Verdict::Ok),
        tally(Verdict::Worse),
        tally(Verdict::Unresolved),
        if pass { "pass" } else { "FAIL" }
    );
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn document(rep_ms: f64, q1: f64, q3: f64, failed: f64) -> Json {
        let metric = |value: f64, q1: f64, q3: f64| {
            Json::obj([
                ("value", Json::Num(value)),
                ("n", Json::Num(10.0)),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
            ])
        };
        let end_to_end = END_TO_END.iter().map(|spec| {
            let m = if spec.name == "rep_ms" {
                metric(rep_ms, q1, q3)
            } else {
                metric(5.0, 5.0, 5.0)
            };
            (spec.name, m)
        });
        let untraced = Json::obj([
            ("attempted", Json::Num(100.0)),
            ("failed", Json::Num(failed)),
            ("detail", Json::obj([("end_to_end", Json::obj(end_to_end))])),
        ]);
        Json::obj([(
            "workloads",
            Json::obj([("price_sweep", Json::obj([("untraced", untraced)]))]),
        )])
    }

    fn verdict_of(a: &Json, b: &Json) -> (Verdict, bool) {
        let (rows, _, pass) = compare(a, b).unwrap();
        let row = rows.iter().find(|r| r.metric == "rep_ms").unwrap();
        (row.verdict, pass)
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "rep_ms")
            .unwrap()
            .bound;
        let base = document(100.0, 99.0, 101.0, 0.0);
        let at = |pct: f64| document(100.0 + pct, 99.0 + pct, 101.0 + pct, 0.0);
        // Slower by half the bound: inside it.
        assert_eq!(verdict_of(&base, &at(50.0 * bound)), (Verdict::Ok, true));
        // Slower by twice the bound: worse, and the comparison fails.
        assert_eq!(
            verdict_of(&base, &at(200.0 * bound)),
            (Verdict::Worse, false)
        );
        // Faster is never worse.
        assert_eq!(verdict_of(&base, &at(-200.0 * bound)), (Verdict::Ok, true));
        // A spread wider than the bound cannot resolve it either way.
        let wide = 100.0 * bound;
        assert_eq!(
            verdict_of(
                &base,
                &document(100.0 + 2.0 * wide, 100.0, 100.0 + 4.0 * wide, 0.0)
            ),
            (Verdict::Unresolved, true)
        );
        // More failed operations fail the comparison on their own.
        assert_eq!(
            verdict_of(&base, &document(100.0, 99.0, 101.0, 1.0)),
            (Verdict::Ok, false)
        );
    }

    #[test]
    fn mismatched_documents_are_errors() {
        let base = document(100.0, 99.0, 101.0, 0.0);
        assert!(compare(&base, &Json::obj([("workloads", Json::obj::<&str>([]))])).is_err());
        assert!(compare(&Json::Null, &base).is_err());
    }
}
