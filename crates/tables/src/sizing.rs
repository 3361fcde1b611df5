//! Data-volume arithmetic for the pipeline's tables — the paper's
//! scale argument (experiment E3).
//!
//! The paper's example: *"an analysis of 10,000 contracts for 100,000
//! events in 1,000 locations with 50,000 trial years"* yields a YELLT of
//! over 5×10¹⁶ entries (the direct product of the four dimensions), and
//! *"the YELT is generally 1000 times smaller than the YELLT and 1000
//! times bigger than the YLT"*.
//!
//! Two readings are reported side by side:
//!
//! * the **bound** (the paper's arithmetic): every event in every
//!   location in every trial for every contract;
//! * the **expected** materialised sizes: per trial only the events that
//!   actually occur (≈ `events_per_year`), and per occurrence only the
//!   locations actually exposed.

use std::fmt;

/// Per-row byte sizes for each table in our layouts.
pub mod row_bytes {
    /// ELT row: event id + 4×f64.
    pub const ELT: u64 = 4 + 4 * 8;
    /// YELT row: event id + day + loss (offsets amortised away).
    pub const YELT: u64 = 4 + 2 + 8;
    /// YELLT row: trial + event + location + loss.
    pub const YELLT: u64 = 4 + 4 + 4 + 8;
    /// YLT row: aggregate loss + max occurrence loss + count.
    pub const YLT: u64 = 8 + 8 + 4;
}

/// The scale of an analysis: the four dimensions the paper multiplies,
/// plus the expected number of event occurrences per trial-year.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleSpec {
    /// Number of reinsurance contracts (portfolio layers).
    pub contracts: u64,
    /// Catalogue events.
    pub events: u64,
    /// Exposed locations per contract.
    pub locations: u64,
    /// Simulation trials (alternative years).
    pub trials: u64,
    /// Expected event occurrences per trial-year (catalogue total rate).
    pub events_per_year: f64,
}

impl ScaleSpec {
    /// The paper's §II example scale.
    pub fn paper_example() -> Self {
        Self {
            contracts: 10_000,
            events: 100_000,
            locations: 1_000,
            trials: 50_000,
            events_per_year: 1_000.0,
        }
    }

    /// A laptop-scale instance used for empirical measurement: each
    /// dimension shrunk so the expected YELLT (~4×10⁷ rows, ~800 MB)
    /// actually fits in memory for the in-memory-vs-files crossover
    /// experiment.
    pub fn reduced_example() -> Self {
        Self {
            contracts: 10,
            events: 10_000,
            locations: 20,
            trials: 2_000,
            events_per_year: 100.0,
        }
    }

    /// YELLT entry bound — the paper's direct product
    /// `contracts × events × locations × trials`.
    fn yellt_entries_bound(&self) -> u128 {
        self.contracts as u128 * self.events as u128 * self.locations as u128 * self.trials as u128
    }

    /// Expected YELLT entries actually materialised:
    /// `contracts × trials × events_per_year × locations`.
    fn yellt_entries_expected(&self) -> u128 {
        (self.contracts as f64 * self.trials as f64 * self.events_per_year) as u128
            * self.locations as u128
    }

    /// Expected YELT entries: `contracts × trials × events_per_year`.
    fn yelt_entries_expected(&self) -> u128 {
        (self.contracts as f64 * self.trials as f64 * self.events_per_year) as u128
    }

    /// YLT entries: `contracts × trials`.
    fn ylt_entries(&self) -> u128 {
        self.contracts as u128 * self.trials as u128
    }

    /// Ratio YELLT : YELT (expected) — the paper says ~1000×.
    fn yellt_to_yelt_ratio(&self) -> f64 {
        self.locations as f64
    }

    /// Ratio YELT : YLT (expected) — the paper says ~1000×.
    fn yelt_to_ylt_ratio(&self) -> f64 {
        self.events_per_year
    }

    /// Expected YELLT bytes.
    pub fn yellt_bytes_expected(&self) -> u128 {
        self.yellt_entries_expected() * row_bytes::YELLT as u128
    }

    /// Expected YELT bytes.
    fn yelt_bytes_expected(&self) -> u128 {
        self.yelt_entries_expected() * row_bytes::YELT as u128
    }

    /// YLT bytes.
    fn ylt_bytes(&self) -> u128 {
        self.ylt_entries() * row_bytes::YLT as u128
    }

    /// Whether the expected YELLT fits a memory budget — the paper's
    /// in-memory-vs-distributed-file-space decision point.
    pub fn yellt_fits_memory(&self, budget_bytes: u128) -> bool {
        self.yellt_bytes_expected() <= budget_bytes
    }
}

/// Render a byte count in human units.
pub fn human_bytes(bytes: u128) -> String {
    const UNITS: [&str; 7] = ["B", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB"];
    let mut v = bytes as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.2} {}", UNITS[u])
    }
}

impl fmt::Display for ScaleSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scale: {} contracts x {} events x {} locations x {} trials ({} events/yr)",
            self.contracts, self.events, self.locations, self.trials, self.events_per_year
        )?;
        writeln!(
            f,
            "  YELLT bound     : {:.3e} entries",
            self.yellt_entries_bound() as f64
        )?;
        writeln!(
            f,
            "  YELLT expected  : {:.3e} entries = {}",
            self.yellt_entries_expected() as f64,
            human_bytes(self.yellt_bytes_expected())
        )?;
        writeln!(
            f,
            "  YELT  expected  : {:.3e} entries = {}",
            self.yelt_entries_expected() as f64,
            human_bytes(self.yelt_bytes_expected())
        )?;
        writeln!(
            f,
            "  YLT             : {:.3e} entries = {}",
            self.ylt_entries() as f64,
            human_bytes(self.ylt_bytes())
        )?;
        write!(
            f,
            "  ratios          : YELLT/YELT = {:.0}, YELT/YLT = {:.0}",
            self.yellt_to_yelt_ratio(),
            self.yelt_to_ylt_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_exceeds_5e16() {
        let s = ScaleSpec::paper_example();
        // 10^4 * 10^5 * 10^3 * 5*10^4 = 5 * 10^16 — the paper's claim.
        assert_eq!(s.yellt_entries_bound(), 50_000_000_000_000_000u128);
        assert!(s.yellt_entries_bound() >= 5 * 10u128.pow(16));
    }

    #[test]
    fn paper_ratios_hold() {
        let s = ScaleSpec::paper_example();
        assert_eq!(s.yellt_to_yelt_ratio(), 1000.0);
        assert_eq!(s.yelt_to_ylt_ratio(), 1000.0);
        // Expected entries are consistent with the ratios.
        let yellt = s.yellt_entries_expected() as f64;
        let yelt = s.yelt_entries_expected() as f64;
        let ylt = s.ylt_entries() as f64;
        assert!((yellt / yelt - 1000.0).abs() < 1.0);
        assert!((yelt / ylt - 1000.0).abs() < 1.0);
    }

    #[test]
    fn memory_fit_decision() {
        let s = ScaleSpec::paper_example();
        // Expected YELLT = 5*10^11 rows * 20 B = 10 TB; does not fit 1 TiB
        // (the paper's "less than 1TB" in-memory boundary).
        assert!(!s.yellt_fits_memory(1u128 << 40));
        // The reduced example fits comfortably.
        let r = ScaleSpec::reduced_example();
        assert!(r.yellt_fits_memory(1u128 << 40));
    }

    #[test]
    fn reduced_example_is_laptop_scale() {
        let r = ScaleSpec::reduced_example();
        assert!(
            r.yellt_bytes_expected() < (4u128 << 30),
            "should be < 4 GiB"
        );
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.00 KiB");
        assert_eq!(human_bytes(5 * 1024 * 1024), "5.00 MiB");
        assert!(human_bytes(10u128.pow(13) * 20).contains("TiB"));
    }

    #[test]
    fn display_renders() {
        let text = ScaleSpec::paper_example().to_string();
        assert!(text.contains("YELLT bound"));
        assert!(text.contains("ratios"));
    }
}
