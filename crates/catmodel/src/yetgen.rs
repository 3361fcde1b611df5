//! Year-Event-Table pre-simulation: the Monte-Carlo step that turns a
//! catalogue's annual rates into "alternative views of a contractual
//! year" (the paper's aggregate-analysis input).
//!
//! Per trial: the number of occurrences is Poisson with the catalogue's
//! total rate; each occurrence picks an event by rate-weighted alias
//! sampling, a day uniformly in the year, and a uniform `z` for
//! downstream secondary uncertainty. Every trial draws from its own
//! counter-based Philox stream keyed by `(seed, trial)` — the table is
//! bit-identical regardless of thread count.
//!
//! The table is simulated straight into its columns, in two parallel
//! passes over the same streams. The first draws only each trial's
//! Poisson count (the first draws of its stream); a prefix sum turns the
//! counts into the CSR offsets, and the three columns are allocated once
//! at their final size. The second hands each grain of trials its
//! disjoint slices of the columns and simulates the trials' occurrences
//! into one per-task scratch buffer, day-sorted, then scattered in
//! place — no per-trial allocation and no table-sized temporary. Pass 2
//! does not redraw the count: it reads it back from the offsets and
//! opens the trial's stream already past the `Poisson::draws_for(count)`
//! draws pass 1 took ([`SeedStream::stream_after`]), so each occurrence
//! reads the very draws a single pass would have.

use crate::catalog::EventCatalog;
use riskpipe_exec::{grain_ranges, par_chunks_mut, suggest_grain, ThreadPool};
use riskpipe_tables::yet::{Occurrence, YearEventTable};
use riskpipe_types::dist::{AliasTable, Poisson};
use riskpipe_types::rng::{Rng64, SeedStream};
use riskpipe_types::{EventId, RiskError, RiskResult};

/// Configuration of YET pre-simulation.
#[derive(Debug, Clone, Copy)]
pub struct YetConfig {
    /// Number of trials (alternative years) to simulate.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for YetConfig {
    fn default() -> Self {
        Self {
            trials: 10_000,
            seed: 0x5EED_0FE4,
        }
    }
}

impl YetConfig {
    /// A stable 64-bit key over every field that influences simulation
    /// (see [`crate::CatalogConfig::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        let mut fp = riskpipe_types::Fingerprint::new("catmodel::YetConfig");
        fp.push_usize(self.trials).push_u64(self.seed);
        fp.finish()
    }
}

/// Simulate the `count` occurrences of one trial whose Poisson count
/// pass 1 drew (deterministic in `(seed, trial)`) into `occs`,
/// replacing what it held.
fn simulate_trial(
    streams: &SeedStream,
    trial: u64,
    count: u64,
    freq: &Poisson,
    alias: &AliasTable,
    occs: &mut Vec<Occurrence>,
) {
    let mut rng = streams.stream_after(trial, freq.draws_for(count));
    occs.clear();
    for _ in 0..count {
        let event_index = alias.sample(&mut rng);
        let day = rng.next_below(365) as u16;
        let z = rng.next_f64_open();
        occs.push(Occurrence {
            event_id: EventId::new(event_index as u32),
            day,
            z,
        });
    }
    // Temporal order within the year (stable: ties keep sample order,
    // which is itself deterministic).
    occs.sort_by_key(|o| o.day);
}

/// Pre-simulate a YET for a catalogue (two passes; see the module docs).
pub fn simulate_yet(
    catalog: &EventCatalog,
    cfg: &YetConfig,
    pool: &ThreadPool,
) -> RiskResult<YearEventTable> {
    if cfg.trials == 0 {
        return Err(RiskError::invalid("trial count must be positive"));
    }
    let alias = AliasTable::new(&catalog.rates())?;
    let freq = Poisson::new(catalog.total_rate());
    let streams = SeedStream::new(cfg.seed);
    let trials = cfg.trials;
    let grain = suggest_grain(trials, pool.thread_count(), 64);

    // Pass 1: trial t's count lands in offsets[t + 1]; the prefix sum
    // then makes offsets[t]..offsets[t + 1] its occurrence range.
    let mut offsets = vec![0u64; trials + 1];
    par_chunks_mut(pool, &mut offsets[1..], grain, |chunk, counts| {
        let base = chunk * grain;
        for (j, count) in counts.iter_mut().enumerate() {
            *count = freq.sample_count(&mut streams.stream((base + j) as u64));
        }
    });
    for t in 1..=trials {
        offsets[t] += offsets[t - 1];
    }
    let total = usize::try_from(offsets[trials])
        .map_err(|_| RiskError::invalid("YET occurrence count overflows usize"))?;
    let mut event_ids = vec![0u32; total];
    let mut days = vec![0u16; total];
    let mut z_values = vec![0.0f64; total];

    // Pass 2: each grain of trials owns the disjoint column slices its
    // occurrence range spans.
    let mut blocks = Vec::with_capacity(trials.div_ceil(grain));
    let (mut events_rest, mut days_rest, mut z_rest) =
        (&mut event_ids[..], &mut days[..], &mut z_values[..]);
    for range in grain_ranges(trials, grain) {
        let len = (offsets[range.end] - offsets[range.start]) as usize;
        let (events, e_tail) = std::mem::take(&mut events_rest).split_at_mut(len);
        let (days, d_tail) = std::mem::take(&mut days_rest).split_at_mut(len);
        let (zs, z_tail) = std::mem::take(&mut z_rest).split_at_mut(len);
        (events_rest, days_rest, z_rest) = (e_tail, d_tail, z_tail);
        blocks.push((range, events, days, zs));
    }
    par_chunks_mut(pool, &mut blocks, 1, |_, block| {
        let (range, events, days, zs) = &mut block[0];
        let base = offsets[range.start];
        let mut occs = Vec::new();
        for t in range.clone() {
            let count = offsets[t + 1] - offsets[t];
            simulate_trial(&streams, t as u64, count, &freq, &alias, &mut occs);
            let lo = (offsets[t] - base) as usize;
            let hi = (offsets[t + 1] - base) as usize;
            for (k, o) in (lo..hi).zip(&occs) {
                events[k] = o.event_id.raw();
                days[k] = o.day;
                zs[k] = o.z;
            }
        }
    });
    // A slot the fill missed still holds z = 0.0, which the CSR check
    // rejects instead of publishing.
    YearEventTable::from_columns(offsets, event_ids, days, z_values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogConfig;
    use riskpipe_exec::par_map_collect;
    use riskpipe_tables::yet::YetBuilder;
    use riskpipe_types::TrialId;

    /// The single-pass simulator this module replaced, kept as the bit
    /// oracle: one `Vec` per trial, then a serial copy through
    /// [`YetBuilder`].
    fn reference_yet(catalog: &EventCatalog, cfg: &YetConfig, pool: &ThreadPool) -> YearEventTable {
        let alias = AliasTable::new(&catalog.rates()).unwrap();
        let freq = Poisson::new(catalog.total_rate());
        let streams = SeedStream::new(cfg.seed);
        let grain = suggest_grain(cfg.trials, pool.thread_count(), 64);
        let per_trial: Vec<Vec<Occurrence>> = par_map_collect(pool, cfg.trials, grain, |t| {
            let mut rng = streams.stream(t as u64);
            let n = freq.sample_count(&mut rng);
            let mut occs = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let event_index = alias.sample(&mut rng);
                let day = rng.next_below(365) as u16;
                let z = rng.next_f64_open();
                occs.push(Occurrence {
                    event_id: EventId::new(event_index as u32),
                    day,
                    z,
                });
            }
            occs.sort_by_key(|o| o.day);
            occs
        });
        let total: usize = per_trial.iter().map(|v| v.len()).sum();
        let mut builder = YetBuilder::with_capacity(cfg.trials, total);
        for occs in &per_trial {
            builder.push_trial(occs);
        }
        builder.build()
    }

    /// Column-by-column bit equality (`z` compared as bits).
    fn assert_same_bits(a: &YearEventTable, b: &YearEventTable, what: &str) {
        let (ao, ae, ad, az) = a.columns();
        let (bo, be, bd, bz) = b.columns();
        assert_eq!(ao, bo, "{what}: offsets");
        assert_eq!(ae, be, "{what}: event ids");
        assert_eq!(ad, bd, "{what}: days");
        assert!(
            az.iter()
                .map(|z| z.to_bits())
                .eq(bz.iter().map(|z| z.to_bits())),
            "{what}: z values"
        );
    }

    #[test]
    fn two_pass_fill_equals_the_per_trial_reference_bitwise() {
        let pools: Vec<ThreadPool> = [1, 2, 8].into_iter().map(ThreadPool::new).collect();
        for rate in [0.5, 20.0, 200.0] {
            let cat = catalog(rate);
            for trials in [1, 63, 64, 65, 1_000, 20_000] {
                let cfg = YetConfig {
                    trials,
                    seed: 0x0_7E7 ^ trials as u64,
                };
                let want = reference_yet(&cat, &cfg, &pools[0]);
                assert_eq!(want.trials(), trials);
                for pool in &pools {
                    let got = simulate_yet(&cat, &cfg, pool).unwrap();
                    let what = format!(
                        "rate {rate}, {trials} trials, {} threads",
                        pool.thread_count()
                    );
                    assert_same_bits(&got, &want, &what);
                }
            }
        }
    }

    fn catalog(rate: f64) -> EventCatalog {
        EventCatalog::generate(&CatalogConfig {
            events: 500,
            total_annual_rate: rate,
            seed: 3,
            ..CatalogConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn mean_occurrences_match_total_rate() {
        let cat = catalog(8.0);
        let pool = ThreadPool::new(4);
        let yet = simulate_yet(
            &cat,
            &YetConfig {
                trials: 20_000,
                seed: 1,
            },
            &pool,
        )
        .unwrap();
        let mean = yet.mean_occurrences();
        assert!((mean - 8.0).abs() < 0.15, "mean={mean}");
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let cat = catalog(5.0);
        let cfg = YetConfig {
            trials: 500,
            seed: 42,
        };
        let a = simulate_yet(&cat, &cfg, &ThreadPool::new(1)).unwrap();
        let b = simulate_yet(&cat, &cfg, &ThreadPool::new(8)).unwrap();
        assert_eq!(a.total_occurrences(), b.total_occurrences());
        for t in 0..a.trials() {
            let t = TrialId::new(t as u32);
            assert_eq!(a.trial_slices(t), b.trial_slices(t));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cat = catalog(5.0);
        let a = simulate_yet(
            &cat,
            &YetConfig {
                trials: 200,
                seed: 1,
            },
            &ThreadPool::new(2),
        )
        .unwrap();
        let b = simulate_yet(
            &cat,
            &YetConfig {
                trials: 200,
                seed: 2,
            },
            &ThreadPool::new(2),
        )
        .unwrap();
        assert_ne!(a.total_occurrences(), b.total_occurrences());
    }

    #[test]
    fn occurrences_sorted_by_day_with_valid_fields() {
        let cat = catalog(20.0);
        let pool = ThreadPool::new(2);
        let yet = simulate_yet(
            &cat,
            &YetConfig {
                trials: 200,
                seed: 9,
            },
            &pool,
        )
        .unwrap();
        for t in 0..yet.trials() {
            let (es, ds, zs) = yet.trial_slices(TrialId::new(t as u32));
            for w in ds.windows(2) {
                assert!(w[0] <= w[1], "days out of order");
            }
            for &d in ds {
                assert!(d < 365);
            }
            for &z in zs {
                assert!(z > 0.0 && z < 1.0);
            }
            for &e in es {
                assert!((e as usize) < cat.len());
            }
        }
    }

    #[test]
    fn event_frequency_tracks_rates() {
        let cat = catalog(50.0);
        let pool = ThreadPool::new(4);
        let yet = simulate_yet(
            &cat,
            &YetConfig {
                trials: 10_000,
                seed: 7,
            },
            &pool,
        )
        .unwrap();
        // Count occurrences of the highest-rate event; expectation =
        // rate * trials.
        let rates = cat.rates();
        let (max_idx, &max_rate) = rates
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        let mut count = 0u64;
        for t in 0..yet.trials() {
            let (es, _, _) = yet.trial_slices(TrialId::new(t as u32));
            count += es.iter().filter(|&&e| e as usize == max_idx).count() as u64;
        }
        let expect = max_rate * yet.trials() as f64;
        assert!(
            (count as f64 - expect).abs() < 5.0 * expect.sqrt().max(3.0),
            "count={count} expect={expect}"
        );
    }

    #[test]
    fn zero_trials_rejected() {
        let cat = catalog(5.0);
        assert!(
            simulate_yet(&cat, &YetConfig { trials: 0, seed: 0 }, &ThreadPool::new(1)).is_err()
        );
    }
}
