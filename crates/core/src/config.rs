//! Scenario configuration: one knob set sizing the whole pipeline.

use riskpipe_aggregate::{LayerTerms, Portfolio};
use riskpipe_catmodel::eltgen::generate_elts;
use riskpipe_catmodel::{
    simulate_yet, CatalogConfig, EltGenConfig, EltGenCounts, EventCatalog, ExposureConfig,
    ExposurePortfolio, Stage1Output, YetConfig,
};
use riskpipe_exec::ThreadPool;
use riskpipe_tables::{Elt, YearEventTable};
use riskpipe_types::{Fingerprint, RiskError, RiskResult};
use std::sync::Arc;

/// Sizing and seeding of a synthetic end-to-end scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Scenario name for reports.
    pub name: String,
    /// Catalogue events.
    pub events: usize,
    /// Expected event occurrences per contractual year.
    pub annual_rate: f64,
    /// Number of contracts (books / portfolio layers).
    pub contracts: usize,
    /// Exposed locations per contract.
    pub locations_per_contract: usize,
    /// Simulation trials.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// Per-occurrence attachment as a fraction of a book's expected
    /// event loss (layers attach above the working layer).
    pub attachment_factor: f64,
}

impl ScenarioConfig {
    /// A seconds-scale scenario for tests and quickstarts.
    pub fn small() -> Self {
        Self {
            name: "small".into(),
            events: 2_000,
            annual_rate: 20.0,
            contracts: 4,
            locations_per_contract: 150,
            trials: 2_000,
            seed: 0x5EED,
            attachment_factor: 0.5,
        }
    }

    /// A minutes-scale scenario exercising chunking and parallelism.
    pub fn medium() -> Self {
        Self {
            name: "medium".into(),
            events: 20_000,
            annual_rate: 100.0,
            contracts: 16,
            locations_per_contract: 500,
            trials: 20_000,
            seed: 0x5EED,
            attachment_factor: 0.5,
        }
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the trial count.
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Replace the name (reports are labelled with it; it never enters
    /// the stage-1 cache key).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Replace the attachment factor — the pricing knob: scenarios that
    /// differ only here share one cached stage-1 model run.
    pub fn with_attachment_factor(mut self, factor: f64) -> Self {
        self.attachment_factor = factor;
        self
    }

    fn validate(&self) -> RiskResult<()> {
        if self.events == 0 || self.contracts == 0 || self.trials == 0 {
            return Err(RiskError::invalid(
                "events, contracts and trials must be positive",
            ));
        }
        if self.locations_per_contract == 0 {
            return Err(RiskError::invalid("need at least one location"));
        }
        Ok(())
    }

    /// The derived catalogue-generation config.
    fn catalog_config(&self) -> CatalogConfig {
        CatalogConfig {
            events: self.events,
            total_annual_rate: self.annual_rate,
            seed: self.seed ^ 0xCA_7A_06,
            ..CatalogConfig::default()
        }
    }

    /// The derived exposure config for contract `c`.
    fn exposure_config(&self, c: usize) -> ExposureConfig {
        ExposureConfig {
            locations: self.locations_per_contract,
            seed: self.seed ^ (0xE4905 + c as u64 * 7919),
            ..ExposureConfig::default()
        }
    }

    /// The derived YET pre-simulation config.
    fn yet_config(&self) -> YetConfig {
        YetConfig {
            trials: self.trials,
            seed: self.seed ^ 0x7E7,
        }
    }

    /// The stage-1 cache key: a stable fingerprint of every derived
    /// config that feeds [`Stage1Output`] — catalogue, per-contract
    /// exposures, ELT generation, and the YET pre-simulation. The
    /// scenario `name` and `attachment_factor` are deliberately
    /// excluded: they label reports and derive layer terms, neither of
    /// which touches the model run, so an attachment-factor sweep over
    /// one catalogue shares a single cached stage-1 build.
    pub fn stage1_key(&self) -> u64 {
        let mut fp = Fingerprint::new("core::Stage1Output");
        fp.push_fingerprint(self.catalog_config().fingerprint());
        fp.push_usize(self.contracts);
        for c in 0..self.contracts {
            fp.push_fingerprint(self.exposure_config(c).fingerprint());
        }
        fp.push_fingerprint(EltGenConfig::default().fingerprint());
        fp.push_fingerprint(self.yet_config().fingerprint());
        fp.finish()
    }

    /// Stage 1's inputs: the catalogue, and each contract's exposure
    /// in book order, generated only when the iterator reaches it.
    fn stage1_inputs(
        &self,
    ) -> RiskResult<(
        EventCatalog,
        impl Iterator<Item = RiskResult<ExposurePortfolio>> + '_,
    )> {
        self.validate()?;
        let catalog = EventCatalog::generate(&self.catalog_config())?;
        let exposures =
            (0..self.contracts).map(|c| ExposurePortfolio::generate(&self.exposure_config(c)));
        Ok((catalog, exposures))
    }

    /// Run the cacheable part of stage 1: generate the catalogue, one
    /// exposure portfolio and ELT per contract, and the YET. Everything
    /// here is a pure function of [`ScenarioConfig::stage1_key`].
    pub fn build_stage1_output_on(&self, pool: &ThreadPool) -> RiskResult<Stage1Output> {
        let (catalog, exposures) = self.stage1_inputs()?;
        let cfg = EltGenConfig::default();
        let (output, _) = Stage1Output::build(catalog, exposures, cfg, self.yet_config(), pool)?;
        Ok(output)
    }

    /// What a session keeps of the same stage 1: each book's ELT, in
    /// book order, and the YET — the same bits as
    /// [`ScenarioConfig::build_stage1_output_on`]'s — with the work
    /// counts of the ELT generation (the `stage1.elt_pairs` /
    /// `stage1.elt_damaging` counters). The books run one at a time and
    /// each exposure drops as soon as its ELT exists, so one book's
    /// exposure and location index are the most this holds at once.
    pub(crate) fn build_elts_and_yet_on(
        &self,
        pool: &ThreadPool,
    ) -> RiskResult<(Vec<Elt>, YearEventTable, EltGenCounts)> {
        let (catalog, exposures) = self.stage1_inputs()?;
        let cfg = EltGenConfig::default();
        let (elts, counts) = generate_elts(&catalog, exposures, cfg, pool, drop)?;
        let yet = simulate_yet(&catalog, &self.yet_config(), pool)?;
        Ok((elts, yet, counts))
    }

    /// Run stage 1 for this scenario: the model run
    /// ([`ScenarioConfig::build_stage1_output_on`]) plus the derived
    /// portfolio with layer terms from each book's loss profile.
    pub fn build_stage1(&self) -> RiskResult<Stage1Bundle> {
        self.build_stage1_on(riskpipe_exec::global_pool())
    }

    /// As [`ScenarioConfig::build_stage1`] on an explicit pool.
    fn build_stage1_on(&self, pool: &ThreadPool) -> RiskResult<Stage1Bundle> {
        let output = Arc::new(self.build_stage1_output_on(pool)?);
        self.bundle_from_output(output)
    }

    /// Derive the ready-to-run bundle from an already-built (possibly
    /// shared) stage-1 output. Cheap: layer terms are a few scalars per
    /// book and the portfolio shares ELTs via `Arc`.
    ///
    /// Layer terms: attach above `attachment_factor` × the book's mean
    /// event loss, with a limit an order of magnitude wider.
    pub fn bundle_from_output(&self, output: Arc<Stage1Output>) -> RiskResult<Stage1Bundle> {
        let portfolio = self.portfolio_over(output.books.iter().map(|book| &book.elt))?;
        Ok(Stage1Bundle { output, portfolio })
    }

    /// The scenario's portfolio over a model run's ELTs, one layer per
    /// book in book order — the one place the layer-terms formula
    /// lives: attach above `attachment_factor` × the book's mean event
    /// loss, with a limit an order of magnitude wider.
    ///
    /// # Errors
    /// A book no catalogue event damages (its ELT is empty, so its
    /// limit would be 0) and terms that do not validate (a NaN or
    /// negative attachment factor) fail with an error naming the
    /// scenario and the book.
    pub(crate) fn portfolio_over<'a>(
        &self,
        elts: impl IntoIterator<Item = &'a Arc<Elt>>,
    ) -> RiskResult<Portfolio> {
        let parts = elts
            .into_iter()
            .enumerate()
            .map(|(book, elt)| {
                let context = |why: String| {
                    RiskError::invalid(format!("scenario {:?}, book {book}: {why}", self.name))
                };
                if elt.is_empty() {
                    return Err(context(
                        "no catalogue event damages the book, so its ELT is empty and its \
                         layer has no limit"
                            .into(),
                    ));
                }
                let mean_event_loss = elt.total_mean_loss() / elt.len() as f64;
                let attach = self.attachment_factor * mean_event_loss;
                let limit = 20.0 * mean_event_loss;
                let terms = LayerTerms::xl(attach, limit);
                terms.validate().map_err(|e| match e {
                    RiskError::InvalidParameter(why) => context(why),
                    other => other,
                })?;
                Ok((terms, Arc::clone(elt)))
            })
            .collect::<RiskResult<_>>()?;
        Portfolio::from_parts(parts)
    }
}

/// Stage-1 outputs plus the derived portfolio — everything stage 2
/// consumes. The output is `Arc`-shared so scenarios hitting the
/// stage-1 cache reuse one model run.
#[derive(Debug, Clone)]
pub struct Stage1Bundle {
    /// Raw stage-1 output (catalogue, books, YET).
    pub output: Arc<Stage1Output>,
    /// The portfolio with derived layer terms.
    pub portfolio: Portfolio,
}

impl Stage1Bundle {
    /// The portfolio (cheap: layers share ELTs via `Arc`).
    pub fn portfolio(&self) -> Portfolio {
        self.portfolio.clone()
    }

    /// The pre-simulated year-event table.
    pub fn year_event_table(&self) -> Arc<YearEventTable> {
        Arc::clone(&self.output.yet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scenario_builds_everything() {
        let bundle = ScenarioConfig::small().with_seed(1).build_stage1().unwrap();
        assert_eq!(bundle.output.books.len(), 4);
        assert_eq!(bundle.output.yet.trials(), 2_000);
        assert_eq!(bundle.portfolio().len(), 4);
        for book in &bundle.output.books {
            assert!(!book.elt.is_empty());
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = ScenarioConfig::small().with_seed(9).build_stage1().unwrap();
        let b = ScenarioConfig::small().with_seed(9).build_stage1().unwrap();
        assert_eq!(
            a.output.books[0].elt.total_mean_loss(),
            b.output.books[0].elt.total_mean_loss()
        );
        assert_eq!(
            a.output.yet.total_occurrences(),
            b.output.yet.total_occurrences()
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = ScenarioConfig::small();
        cfg.trials = 0;
        assert!(cfg.build_stage1().is_err());
        let mut cfg = ScenarioConfig::small();
        cfg.contracts = 0;
        assert!(cfg.build_stage1().is_err());
        let mut cfg = ScenarioConfig::small();
        cfg.events = 0;
        assert!(cfg.build_stage1().is_err());
    }

    #[test]
    fn undamaged_books_and_nan_attachments_name_the_scenario_and_book() {
        let pool = ThreadPool::new(1);
        // A one- or two-event catalogue leaves some book undamaged.
        for events in [1, 2] {
            let mut cfg = ScenarioConfig::small().with_trials(10).with_name("sparse");
            cfg.events = events;
            let output = cfg.build_stage1_output_on(&pool).unwrap();
            let book = output.books.iter().position(|b| b.elt.is_empty()).unwrap();
            let err = cfg.bundle_from_output(Arc::new(output)).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!(
                    "invalid parameter: scenario \"sparse\", book {book}: no catalogue event \
                     damages the book, so its ELT is empty and its layer has no limit"
                )
            );
        }
        let cfg = ScenarioConfig::small()
            .with_trials(10)
            .with_name("unpriced")
            .with_attachment_factor(f64::NAN);
        let err = cfg.build_stage1().unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid parameter: scenario \"unpriced\", book 0: retentions must be non-negative"
        );
    }

    #[test]
    fn with_helpers_adjust_fields() {
        let cfg = ScenarioConfig::small()
            .with_seed(5)
            .with_trials(77)
            .with_name("renamed")
            .with_attachment_factor(0.75);
        assert_eq!(cfg.seed, 5);
        assert_eq!(cfg.trials, 77);
        assert_eq!(cfg.name, "renamed");
        assert_eq!(cfg.attachment_factor, 0.75);
    }

    #[test]
    fn stage1_key_ignores_name_and_attachment_only() {
        let base = ScenarioConfig::small().with_seed(3);
        let renamed = base.clone().with_name("other");
        let repriced = base.clone().with_attachment_factor(1.5);
        assert_eq!(base.stage1_key(), renamed.stage1_key());
        assert_eq!(base.stage1_key(), repriced.stage1_key());
        // Every model-shaping knob changes the key.
        assert_ne!(base.stage1_key(), base.clone().with_seed(4).stage1_key());
        assert_ne!(base.stage1_key(), base.clone().with_trials(99).stage1_key());
        let mut more_events = base.clone();
        more_events.events += 1;
        assert_ne!(base.stage1_key(), more_events.stage1_key());
        let mut more_contracts = base.clone();
        more_contracts.contracts += 1;
        assert_ne!(base.stage1_key(), more_contracts.stage1_key());
        let mut denser = base.clone();
        denser.locations_per_contract += 1;
        assert_ne!(base.stage1_key(), denser.stage1_key());
        let mut rainier = base.clone();
        rainier.annual_rate += 1.0;
        assert_ne!(base.stage1_key(), rainier.stage1_key());
    }

    #[test]
    fn bundle_from_shared_output_matches_direct_build() {
        let pool = ThreadPool::new(2);
        let scenario = ScenarioConfig::small().with_seed(6).with_trials(300);
        let direct = scenario.build_stage1_on(&pool).unwrap();
        let output = Arc::new(scenario.build_stage1_output_on(&pool).unwrap());
        let derived = scenario.bundle_from_output(Arc::clone(&output)).unwrap();
        assert_eq!(direct.portfolio().len(), derived.portfolio().len());
        // Re-derivation at a different attachment shares the same output.
        let repriced = scenario
            .clone()
            .with_attachment_factor(1.0)
            .bundle_from_output(output)
            .unwrap();
        assert_eq!(repriced.portfolio().len(), direct.portfolio().len());
    }
}
