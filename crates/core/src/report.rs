//! Plain-text table rendering for experiment reports, the
//! [`PipelineReport`] one scenario run produces, and the
//! [`SweepSummary`] online sweep-analytics engine.

use riskpipe_metrics::{standard_points_from_batch, EpPoint, QuantileSketch, RiskMeasures};
use riskpipe_tables::Ylt;
use riskpipe_types::RunningStats;
use std::borrow::Cow;
use std::fmt;

/// A simple ASCII table with a header row.
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity must match headers"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let sep: String = widths
            .iter()
            .map(|w| format!("+{}", "-".repeat(w + 2)))
            .collect::<String>()
            + "+";
        writeln!(f, "{sep}")?;
        write!(f, "|")?;
        for (h, w) in self.headers.iter().zip(&widths) {
            write!(f, " {h:<w$} |", w = w)?;
        }
        writeln!(f)?;
        writeln!(f, "{sep}")?;
        for row in &self.rows {
            write!(f, "|")?;
            for (cell, w) in row.iter().zip(&widths) {
                write!(f, " {cell:>w$} |", w = w)?;
            }
            writeln!(f)?;
        }
        write!(f, "{sep}")
    }
}

/// Format a float with thousands separators and 2 decimals (for loss
/// amounts in reports). Non-finite amounts render as `"NaN"` /
/// `"inf"` / `"-inf"` — a poisoned metric must be visible in a report,
/// not silently shown as `0.00` or a saturated integer. Magnitudes the
/// cent-resolution integer cannot hold fall back to scientific
/// notation.
pub fn money(v: f64) -> String {
    if v.is_nan() {
        return "NaN".into();
    }
    if v.is_infinite() {
        return if v < 0.0 { "-inf".into() } else { "inf".into() };
    }
    // u128 holds ~3.4e38 total cents; past ~1e30 the cents are
    // meaningless anyway, so switch representation instead of
    // saturating the cast.
    if v.abs() >= 1e30 {
        return format!("{v:.3e}");
    }
    // Round once at total-cents resolution so 999.999 → 1,000.00 rather
    // than a 100-cent remainder. The sign follows the rounded amount, so
    // -0.004 prints 0.00, not -0.00.
    let total_cents = (v.abs() * 100.0).round() as u128;
    let negative = v < 0.0 && total_cents > 0;
    let whole = total_cents / 100;
    let cents = (total_cents % 100) as u32;
    let mut digits = whole.to_string();
    let mut grouped = String::new();
    while digits.len() > 3 {
        let tail = digits.split_off(digits.len() - 3);
        grouped = format!(",{tail}{grouped}");
    }
    grouped = format!("{digits}{grouped}");
    format!("{}{grouped}.{cents:02}", if negative { "-" } else { "" })
}

/// An online accumulator over a streaming sweep's reports: folds each
/// [`PipelineReport`] into headline aggregates
/// *and* into mergeable streaming sketches of the pooled loss
/// distributions, then lets the report drop — the sink-side half of
/// the O(pool-width)-memory contract of
/// [`RiskSession::run_stream`](crate::RiskSession::run_stream).
///
/// Beyond the per-scenario headline scalars, the summary answers
/// portfolio questions over the *pooled* sweep distribution (every
/// trial of every scenario as one sample) without ever retaining a
/// per-scenario YLT: pooled AEP/OEP curve points
/// ([`SweepSummary::aep_points`] / [`SweepSummary::oep_points`]),
/// [`SweepSummary::pooled_var99`] / [`SweepSummary::pooled_tvar99`],
/// and [`SweepSummary::pooled_pml`]. Small sweeps (up to
/// [`QuantileSketch::DEFAULT_K`] pooled trials) stay on the sketch's
/// exact path — bit-identical to sorting the concatenated losses;
/// larger sweeps degrade gracefully with the tracked worst-case rank
/// error bound surfaced by [`SweepSummary::rank_error_bound`].
/// Because `run_stream` delivers reports in input order, every pooled
/// number is bit-identical across thread counts and across the
/// streaming/batch/solo execution shapes.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    scenarios: usize,
    trials: u64,
    yelt_rows: u64,
    yelt_file_bytes: u64,
    tvar99_sum: f64,
    tvar99_finite: u64,
    tvar99_non_finite: u64,
    tvar99_max: f64,
    worst_scenario: Option<String>,
    agg_stats: RunningStats,
    aep: QuantileSketch,
    oep: QuantileSketch,
}

impl Default for SweepSummary {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepSummary {
    /// An empty summary with the default sketch capacity
    /// ([`QuantileSketch::DEFAULT_K`]).
    pub fn new() -> Self {
        Self::with_sketch_k(QuantileSketch::DEFAULT_K)
    }

    /// An empty summary whose pooled sketches hold `k` values per
    /// level: exact while the pooled trial count stays at or below
    /// `k`, `O(k · log(trials/k))` memory beyond.
    pub fn with_sketch_k(k: usize) -> Self {
        Self {
            scenarios: 0,
            trials: 0,
            yelt_rows: 0,
            yelt_file_bytes: 0,
            tvar99_sum: 0.0,
            tvar99_finite: 0,
            tvar99_non_finite: 0,
            tvar99_max: 0.0,
            worst_scenario: None,
            agg_stats: RunningStats::new(),
            aep: QuantileSketch::new(k),
            oep: QuantileSketch::new(k),
        }
    }

    /// Fold one report in (the report can be dropped afterwards).
    pub fn push(&mut self, report: &crate::PipelineReport) {
        self.scenarios += 1;
        self.trials += report.ylt.trials() as u64;
        self.yelt_rows += report.yelt_rows as u64;
        self.yelt_file_bytes += report.yelt_file_bytes;
        let tvar = report.measures.tvar99;
        if tvar.is_finite() {
            self.tvar99_sum += tvar;
            self.tvar99_finite += 1;
        } else {
            self.tvar99_non_finite += 1;
        }
        // Worst-scenario tracking needs an explicit NaN guard: with a
        // plain `>=`, a NaN tvar99 in the first report would stick
        // forever (every later `x >= NaN` is false). A NaN never
        // displaces a comparable value; anything displaces a NaN.
        let worse = match &self.worst_scenario {
            None => true,
            Some(_) => !tvar.is_nan() && (self.tvar99_max.is_nan() || tvar >= self.tvar99_max),
        };
        if worse {
            self.tvar99_max = tvar;
            self.worst_scenario = Some(report.scenario_name.clone());
        }
        // The report path already sorted each YLT column once; fold
        // each whole pre-sorted column into the pooled sketch as one
        // weighted merge (a single bulk append + one compaction pass)
        // instead of a push per trial. Reports whose shared sorted
        // columns were dropped (a collecting sweep keeps its batch at
        // one copy per column) are re-sorted by the accessors.
        // Welford moments keep YLT order.
        for &x in report.ylt.agg_losses() {
            self.agg_stats.push(x);
        }
        self.aep.merge_sorted(&report.sorted_agg());
        self.oep.merge_sorted(&report.sorted_occ());
    }

    /// Scenarios folded in so far.
    pub fn scenarios(&self) -> usize {
        self.scenarios
    }

    /// Total simulated trials across the sweep (the pooled sample
    /// size behind every `pooled_*` metric).
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Total YELT rows the sweep produced (book 0).
    pub fn yelt_rows(&self) -> u64 {
        self.yelt_rows
    }

    /// Total YELT bytes spilled to durable storage.
    pub fn yelt_file_bytes(&self) -> u64 {
        self.yelt_file_bytes
    }

    /// Mean TVaR99 across scenarios with a finite TVaR99 (0 when none;
    /// non-finite scenarios are counted on the summary's `non-finite
    /// TVaR99` display row instead of poisoning the mean).
    pub fn mean_tvar99(&self) -> f64 {
        if self.tvar99_finite == 0 {
            0.0
        } else {
            self.tvar99_sum / self.tvar99_finite as f64
        }
    }

    /// The largest TVaR99 seen, with its scenario name.
    pub fn worst(&self) -> Option<(&str, f64)> {
        self.worst_scenario
            .as_deref()
            .map(|name| (name, self.tvar99_max))
    }

    /// Mean annual loss over the pooled sweep distribution (exact —
    /// streaming Welford moments, not the sketch).
    fn pooled_mean(&self) -> f64 {
        self.agg_stats.mean()
    }

    /// 99% VaR of the pooled annual aggregate loss (`None` when
    /// empty).
    pub fn pooled_var99(&self) -> Option<f64> {
        (self.trials > 0).then(|| self.aep.quantile(0.99))
    }

    /// 99% TVaR of the pooled annual aggregate loss (`None` when
    /// empty).
    pub fn pooled_tvar99(&self) -> Option<f64> {
        (self.trials > 0).then(|| self.aep.tail_mean(0.99))
    }

    /// Pooled aggregate (AEP) PML at a return period — `None` until
    /// the pooled trial count can resolve it.
    ///
    /// # Panics
    /// Panics unless `years > 1`.
    pub fn pooled_pml(&self, years: f64) -> Option<f64> {
        assert!(years > 1.0, "return period must exceed 1 year");
        (self.trials as f64 >= years).then(|| self.aep.quantile(1.0 - 1.0 / years))
    }

    /// Pooled AEP curve points at the standard reporting return
    /// periods the pooled trial count can resolve (one gather/sort of
    /// the sketch's retained items, not one per point).
    pub fn aep_points(&self) -> Vec<EpPoint> {
        standard_points_from_batch(self.trials, |qs| self.aep.quantiles(qs))
    }

    /// Pooled OEP curve points (maximum-occurrence losses) at the
    /// standard reporting return periods.
    pub fn oep_points(&self) -> Vec<EpPoint> {
        standard_points_from_batch(self.trials, |qs| self.oep.quantiles(qs))
    }

    /// Pooled OEP-conditional tail mean over a return-period band:
    /// the expected maximum-occurrence loss of pooled trials whose
    /// empirical return period lies in `[rp_lo, rp_hi)` years
    /// (`rp_hi = f64::INFINITY` gives the open-ended top band, so
    /// `tail_mean_between(rp, f64::INFINITY)` is the OEP TVaR beyond
    /// `rp`). Answered straight off the pooled OEP sketch — exact and
    /// bit-identical across thread counts while
    /// [`SweepSummary::analytics_exact`] holds, within the tracked
    /// rank-error bound beyond.
    ///
    /// Returns `None` until the pooled trial count can resolve
    /// `rp_lo` (fewer trials than `rp_lo` years) or when the band
    /// covers no pooled trials.
    ///
    /// # Panics
    /// Panics unless `1 < rp_lo <= rp_hi`.
    pub fn tail_mean_between(&self, rp_lo: f64, rp_hi: f64) -> Option<f64> {
        assert!(rp_lo > 1.0, "return period must exceed 1 year");
        assert!(rp_lo <= rp_hi, "band inverted: {rp_lo} > {rp_hi}");
        if self.trials == 0 || (self.trials as f64) < rp_lo {
            return None;
        }
        let q_lo = 1.0 - 1.0 / rp_lo;
        let q_hi = if rp_hi.is_finite() {
            1.0 - 1.0 / rp_hi
        } else {
            1.0
        };
        self.oep.tail_mean_between(q_lo, q_hi)
    }

    /// Whether every pooled metric is still exact (no sketch
    /// compaction has happened).
    pub fn analytics_exact(&self) -> bool {
        self.aep.is_exact() && self.oep.is_exact()
    }

    /// Worst-case rank error of the pooled quantile metrics as a
    /// fraction of the pooled trial count (0 while exact) — the larger
    /// of the two sketches' tracked bounds.
    pub fn rank_error_bound(&self) -> f64 {
        self.aep.rank_error_bound().max(self.oep.rank_error_bound())
    }
}

impl fmt::Display for SweepSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(&["sweep", "value"]);
        t.row(&["scenarios".into(), self.scenarios.to_string()]);
        t.row(&["trials".into(), self.trials.to_string()]);
        t.row(&["YELT rows".into(), self.yelt_rows.to_string()]);
        t.row(&["YELT file bytes".into(), self.yelt_file_bytes.to_string()]);
        t.row(&["mean TVaR99".into(), money(self.mean_tvar99())]);
        if self.tvar99_non_finite > 0 {
            t.row(&[
                "non-finite TVaR99".into(),
                self.tvar99_non_finite.to_string(),
            ]);
        }
        if let Some((name, tvar)) = self.worst() {
            t.row(&[format!("worst ({name})"), money(tvar)]);
        }
        if self.trials > 0 {
            t.row(&["pooled mean".into(), money(self.pooled_mean())]);
            t.row(&[
                "pooled VaR99".into(),
                money(self.pooled_var99().unwrap_or(f64::NAN)),
            ]);
            t.row(&[
                "pooled TVaR99".into(),
                money(self.pooled_tvar99().unwrap_or(f64::NAN)),
            ]);
            if let Some(pml) = self.pooled_pml(100.0) {
                t.row(&["pooled AEP PML100".into(), money(pml)]);
            }
            let quality = if self.analytics_exact() {
                "exact".into()
            } else {
                format!("sketched (rank err <= {:.4})", self.rank_error_bound())
            };
            t.row(&["pooled quantiles".into(), quality]);
        }
        write!(f, "{t}")
    }
}

/// Everything a scenario run produced, plus a rendered summary.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Scenario name.
    pub scenario_name: String,
    /// Total ELT rows across the portfolio.
    pub elt_rows: usize,
    /// YET occurrences.
    pub yet_occurrences: usize,
    /// YELT rows (book 0).
    pub yelt_rows: usize,
    /// What the book-0 YELT would occupy in memory
    /// ([`Yelt::memory_bytes_for`](riskpipe_tables::Yelt::memory_bytes_for);
    /// the session never builds it).
    pub yelt_memory_bytes: u64,
    /// YELT bytes written to shard files (0 for in-memory runs).
    pub yelt_file_bytes: u64,
    /// Encoded YLT size.
    pub ylt_encoded_bytes: u64,
    /// Portfolio risk measures.
    pub measures: RiskMeasures,
    /// 100-year aggregate PML (when trials allow).
    pub pml_100: Option<f64>,
    /// DFA probability of ruin.
    pub prob_ruin: f64,
    /// DFA mean net income.
    pub mean_net_income: f64,
    /// DFA economic capital.
    pub economic_capital: f64,
    /// The YLT's aggregate-loss column, sorted ascending by
    /// `total_cmp` — the report path sorts each column exactly once
    /// and shares the buffer, so streaming sinks fold pooled analytics
    /// with one weighted sketch merge instead of re-sorting per
    /// consumer. May be empty on reports that outlive delivery
    /// (a collecting [`SweepPlan`](crate::SweepPlan) clears it to keep
    /// collected sweeps at one copy per column); consumers read it through
    /// [`PipelineReport::sorted_agg`], which falls back to sorting
    /// [`PipelineReport::ylt`] when `agg_sorted.len() != ylt.trials()`.
    pub agg_sorted: Vec<f64>,
    /// The maximum-occurrence column, likewise sorted (and likewise
    /// possibly empty; read it through [`PipelineReport::sorted_occ`]).
    pub occ_sorted: Vec<f64>,
    /// The portfolio YLT (for downstream analysis).
    pub ylt: Ylt,
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pipeline report: {}", self.scenario_name)?;
        let mut data = TextTable::new(&["table", "size"]);
        data.row(&["ELT rows (portfolio)".into(), self.elt_rows.to_string()]);
        data.row(&["YET occurrences".into(), self.yet_occurrences.to_string()]);
        data.row(&["YELT rows (book 0)".into(), self.yelt_rows.to_string()]);
        data.row(&[
            "YELT memory".into(),
            riskpipe_tables::sizing::human_bytes(self.yelt_memory_bytes as u128),
        ]);
        data.row(&[
            "YLT encoded".into(),
            riskpipe_tables::sizing::human_bytes(self.ylt_encoded_bytes as u128),
        ]);
        writeln!(f, "{data}")?;
        writeln!(f, "{}", self.measures)?;
        if let Some(pml) = self.pml_100 {
            writeln!(f, "AEP PML 100y     : {:>16}", money(pml))?;
        }
        writeln!(f, "P(ruin)          : {:>16.4}", self.prob_ruin)?;
        writeln!(f, "mean net income  : {:>16}", money(self.mean_net_income))?;
        write!(f, "economic capital : {:>16}", money(self.economic_capital))
    }
}

impl PipelineReport {
    /// The aggregate-loss column sorted ascending by `total_cmp`: the
    /// shared [`agg_sorted`](Self::agg_sorted) buffer when the report
    /// still carries it (`len == ylt.trials()`), otherwise one sort of
    /// [`ylt`](Self::ylt). The one place that fallback rule lives.
    pub fn sorted_agg(&self) -> Cow<'_, [f64]> {
        if self.agg_sorted.len() == self.ylt.trials() {
            Cow::Borrowed(&self.agg_sorted)
        } else {
            Cow::Owned(self.ylt.sorted_agg_losses())
        }
    }

    /// The maximum-occurrence twin of [`sorted_agg`](Self::sorted_agg).
    pub fn sorted_occ(&self) -> Cow<'_, [f64]> {
        if self.occ_sorted.len() == self.ylt.trials() {
            Cow::Borrowed(&self.occ_sorted)
        } else {
            Cow::Owned(self.ylt.sorted_max_occ_losses())
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = TextTable::new(&["engine", "time (s)"]);
        t.row(&["sequential".into(), "10.0".into()]);
        t.row(&["gpu".into(), "0.7".into()]);
        let s = t.to_string();
        assert!(s.contains("| engine "));
        assert!(s.contains("sequential"));
        // All lines same width.
        let widths: Vec<usize> = s.lines().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{s}");
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn money_formats_with_separators() {
        assert_eq!(money(0.0), "0.00");
        assert_eq!(money(1234.5), "1,234.50");
        assert_eq!(money(1_000_000.25), "1,000,000.25");
        assert_eq!(money(-98765.4), "-98,765.40");
        assert_eq!(money(999.999), "1,000.00");
    }

    #[test]
    fn money_never_prints_negative_zero() {
        assert_eq!(money(-0.004), "0.00");
        assert_eq!(money(-0.005), "-0.01");
    }

    #[test]
    fn money_renders_non_finite_explicitly() {
        // Regression: NaN used to round-trip through `as u128` as 0 and
        // render "0.00"; infinities saturated to a garbage integer.
        assert_eq!(money(f64::NAN), "NaN");
        assert_eq!(money(f64::INFINITY), "inf");
        assert_eq!(money(f64::NEG_INFINITY), "-inf");
        // Finite but beyond cent-resolution u128: scientific, not
        // saturated.
        assert_eq!(money(1e300), "1.000e300");
        assert_eq!(money(-2.5e31), "-2.500e31");
    }

    /// A minimal report carrying the given TVaR99 and YLT columns.
    pub(crate) fn report(name: &str, tvar99: f64, agg: &[f64]) -> crate::PipelineReport {
        let trials = agg.len();
        let mut ylt = riskpipe_tables::Ylt::zeroed(trials);
        for (t, &x) in agg.iter().enumerate() {
            ylt.set_trial(riskpipe_types::TrialId::new(t as u32), x, x / 2.0, 1);
        }
        let agg_sorted = ylt.sorted_agg_losses();
        let occ_sorted = ylt.sorted_max_occ_losses();
        crate::PipelineReport {
            scenario_name: name.into(),
            elt_rows: 0,
            yet_occurrences: 0,
            yelt_rows: trials,
            yelt_memory_bytes: 0,
            yelt_file_bytes: 0,
            ylt_encoded_bytes: 0,
            measures: riskpipe_metrics::RiskMeasures {
                mean: 0.0,
                sd: 0.0,
                var99: 0.0,
                tvar99,
                var996: 0.0,
                oep_pml100: 0.0,
            },
            pml_100: None,
            prob_ruin: 0.0,
            mean_net_income: 0.0,
            economic_capital: 0.0,
            agg_sorted,
            occ_sorted,
            ylt,
        }
    }

    #[test]
    fn nan_tvar99_never_sticks_as_worst() {
        // Regression: a NaN tvar99 in the first report used to stick as
        // tvar99_max forever because every later `x >= NaN` is false.
        let mut s = SweepSummary::new();
        s.push(&report("poisoned", f64::NAN, &[1.0, 2.0]));
        s.push(&report("real", 50.0, &[3.0, 4.0]));
        s.push(&report("smaller", 10.0, &[5.0, 6.0]));
        let (worst, tvar) = s.worst().expect("non-empty sweep");
        assert_eq!(worst, "real");
        assert_eq!(tvar, 50.0);
        // The mean skips the poisoned scenario instead of going NaN,
        // and the poisoning is surfaced.
        assert_eq!(s.mean_tvar99(), 30.0);
        assert_eq!(s.tvar99_non_finite, 1);
        let text = s.to_string();
        assert!(text.contains("non-finite TVaR99"), "{text}");
    }

    #[test]
    fn nan_only_sweep_still_reports_its_scenario() {
        let mut s = SweepSummary::new();
        s.push(&report("only", f64::NAN, &[1.0]));
        let (worst, tvar) = s.worst().expect("non-empty sweep");
        assert_eq!(worst, "only");
        assert!(tvar.is_nan());
        assert_eq!(s.mean_tvar99(), 0.0);
    }

    #[test]
    fn infinite_tvar99_wins_worst_but_skips_the_mean() {
        let mut s = SweepSummary::new();
        s.push(&report("big", 80.0, &[1.0]));
        s.push(&report("blown-up", f64::INFINITY, &[2.0]));
        assert_eq!(s.worst().unwrap().0, "blown-up");
        assert_eq!(s.mean_tvar99(), 80.0);
        assert_eq!(s.tvar99_non_finite, 1);
    }

    #[test]
    fn pooled_analytics_match_exact_concatenation() {
        use riskpipe_types::stats::{quantile_sorted, sort_f64, tail_mean_sorted};
        let mut s = SweepSummary::new();
        let a: Vec<f64> = (0..300).map(|i| ((i * 37) % 211) as f64).collect();
        let b: Vec<f64> = (0..300).map(|i| ((i * 61) % 307) as f64 * 1.5).collect();
        s.push(&report("a", 1.0, &a));
        s.push(&report("b", 2.0, &b));
        assert_eq!(s.trials(), 600);
        assert!(s.analytics_exact());
        let mut pooled: Vec<f64> = a.iter().chain(&b).copied().collect();
        sort_f64(&mut pooled);
        assert_eq!(
            s.pooled_var99().unwrap().to_bits(),
            quantile_sorted(&pooled, 0.99).to_bits()
        );
        assert_eq!(
            s.pooled_tvar99().unwrap().to_bits(),
            tail_mean_sorted(&pooled, 0.99).to_bits()
        );
        assert_eq!(
            s.pooled_pml(100.0).unwrap().to_bits(),
            quantile_sorted(&pooled, 1.0 - 1.0 / 100.0).to_bits()
        );
        // 600 pooled trials resolve return periods 2..=500.
        let aep = s.aep_points();
        assert_eq!(aep.len(), 8);
        assert!(aep.windows(2).all(|w| w[1].loss >= w[0].loss));
        let oep = s.oep_points();
        assert_eq!(oep.len(), 8);
        // The occurrence fixture is half the aggregate.
        assert!((oep[3].loss - aep[3].loss / 2.0).abs() < 1e-9);
        // Pooled moments are exact.
        let stats: riskpipe_types::RunningStats = pooled.iter().copied().collect();
        assert!((s.pooled_mean() - stats.mean()).abs() < 1e-9);
        assert!((s.agg_stats.sd() - stats.sd()).abs() < 1e-9);
    }

    #[test]
    fn push_falls_back_when_sorted_columns_were_dropped() {
        // A collecting sweep clears the shared sorted columns on its
        // reports; pooled analytics must re-sort instead of silently
        // folding nothing.
        let xs: Vec<f64> = (0..250).map(|i| ((i * 53) % 199) as f64).collect();
        let mut streamed = SweepSummary::new();
        streamed.push(&report("live", 1.0, &xs));
        let mut collected = SweepSummary::new();
        let mut r = report("batch", 1.0, &xs);
        r.agg_sorted = Vec::new();
        r.occ_sorted = Vec::new();
        collected.push(&r);
        assert_eq!(collected.trials(), streamed.trials());
        assert_eq!(
            collected.pooled_var99().unwrap().to_bits(),
            streamed.pooled_var99().unwrap().to_bits()
        );
        assert_eq!(
            collected.pooled_tvar99().unwrap().to_bits(),
            streamed.pooled_tvar99().unwrap().to_bits()
        );
        assert_eq!(
            collected.oep_points().last().unwrap().loss.to_bits(),
            streamed.oep_points().last().unwrap().loss.to_bits()
        );
    }

    #[test]
    fn oep_band_tail_means_match_exact_concatenation() {
        use riskpipe_types::stats::{sort_f64, tail_mean_sorted};
        use riskpipe_types::KahanSum;
        let mut s = SweepSummary::new();
        let a: Vec<f64> = (0..300).map(|i| ((i * 37) % 211) as f64).collect();
        let b: Vec<f64> = (0..300).map(|i| ((i * 61) % 307) as f64 * 1.5).collect();
        s.push(&report("a", 1.0, &a));
        s.push(&report("b", 2.0, &b));
        assert!(s.analytics_exact());
        // The report fixture's occurrence column is agg / 2.
        let mut pooled: Vec<f64> = a.iter().chain(&b).map(|&x| x / 2.0).collect();
        sort_f64(&mut pooled);
        let n = pooled.len() as f64;

        // Open-ended top band == OEP tail mean (TVaR convention).
        assert_eq!(
            s.tail_mean_between(100.0, f64::INFINITY).unwrap().to_bits(),
            tail_mean_sorted(&pooled, 1.0 - 1.0 / 100.0).to_bits()
        );

        // A bounded band matches the rank-convention reference.
        let (rp_lo, rp_hi) = (25.0, 100.0);
        let (q_lo, q_hi) = (1.0 - 1.0 / rp_lo, 1.0 - 1.0 / rp_hi);
        let lo = ((q_lo * n).ceil() as usize).min(pooled.len() - 1);
        let hi = ((q_hi * n).ceil() as usize).min(pooled.len());
        let band = &pooled[lo..hi];
        let k: KahanSum = band.iter().copied().collect();
        assert_eq!(
            s.tail_mean_between(rp_lo, rp_hi).unwrap().to_bits(),
            (k.total() / band.len() as f64).to_bits()
        );
        // Band means are ordered with the loss ranks they condition on.
        let mid = s.tail_mean_between(25.0, 100.0).unwrap();
        let top = s.tail_mean_between(100.0, f64::INFINITY).unwrap();
        assert!(top >= mid);
    }

    #[test]
    fn oep_band_tail_means_gate_on_resolvable_return_periods() {
        let mut s = SweepSummary::new();
        assert_eq!(s.tail_mean_between(10.0, 50.0), None);
        s.push(&report("tiny", 1.0, &[1.0, 2.0, 3.0, 4.0]));
        // 4 pooled trials cannot resolve a 10-year return period.
        assert_eq!(s.tail_mean_between(10.0, 50.0), None);
        // …but a 2-year one they can.
        assert!(s.tail_mean_between(2.0, f64::INFINITY).is_some());
    }

    #[test]
    #[should_panic]
    fn oep_band_below_one_year_panics() {
        let mut s = SweepSummary::new();
        s.push(&report("x", 1.0, &[1.0, 2.0]));
        s.tail_mean_between(1.0, 10.0);
    }

    #[test]
    fn empty_summary_has_no_pooled_metrics() {
        let s = SweepSummary::new();
        assert_eq!(s.pooled_var99(), None);
        assert_eq!(s.pooled_tvar99(), None);
        assert_eq!(s.pooled_pml(100.0), None);
        assert!(s.aep_points().is_empty());
        assert_eq!(s.rank_error_bound(), 0.0);
    }
}
