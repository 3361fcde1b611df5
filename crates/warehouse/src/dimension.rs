//! Dimensions and aggregation hierarchies.
//!
//! A warehouse dimension is a column of the loss fact table together
//! with a chain of coarsening levels: location → region → (all),
//! event → peril → (all), layer → line-of-business → (all),
//! day → month → season → (all). Rolling a fact set up a level replaces
//! each code with its parent code; the level maps below are the only
//! metadata that move — facts are never rewritten.

use riskpipe_types::{RiskError, RiskResult};

/// One level of a dimension hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Level {
    /// Human-readable level name ("location", "region", ...).
    pub name: String,
    /// Number of distinct codes at this level. Codes are dense in
    /// `0..cardinality`.
    pub cardinality: u32,
}

/// A dimension: an ordered chain of levels from finest (index 0) to the
/// implicit "all" level (the last entry, always cardinality 1), plus the
/// child→parent code map between each adjacent pair.
#[derive(Debug, Clone)]
pub struct Dimension {
    name: String,
    levels: Vec<Level>,
    /// `maps[i][code_at_level_i] = code_at_level_i_plus_1`.
    maps: Vec<Vec<u32>>,
}

impl Dimension {
    /// Build a dimension from its named levels and adjacent child→parent
    /// maps. An "all" level (cardinality 1) is appended automatically,
    /// with the trailing map implied.
    ///
    /// `levels` runs finest first. `maps.len()` must be
    /// `levels.len() - 1`, `maps[i].len()` must equal
    /// `levels[i].cardinality`, and each mapped code must be below
    /// `levels[i + 1].cardinality`.
    pub fn new(
        name: impl Into<String>,
        levels: Vec<Level>,
        maps: Vec<Vec<u32>>,
    ) -> RiskResult<Self> {
        let name = name.into();
        if levels.is_empty() {
            return Err(RiskError::invalid(format!(
                "dimension {name}: at least one level required"
            )));
        }
        if maps.len() + 1 != levels.len() {
            return Err(RiskError::invalid(format!(
                "dimension {name}: {} levels need {} maps, got {}",
                levels.len(),
                levels.len() - 1,
                maps.len()
            )));
        }
        for (i, map) in maps.iter().enumerate() {
            if map.len() != levels[i].cardinality as usize {
                return Err(RiskError::invalid(format!(
                    "dimension {name}: map {i} covers {} codes but level '{}' has {}",
                    map.len(),
                    levels[i].name,
                    levels[i].cardinality
                )));
            }
            let parent_card = levels[i + 1].cardinality;
            if map.iter().any(|&p| p >= parent_card) {
                return Err(RiskError::invalid(format!(
                    "dimension {name}: map {i} exceeds parent cardinality {parent_card}"
                )));
            }
        }
        if levels.iter().any(|l| l.cardinality == 0) {
            return Err(RiskError::invalid(format!(
                "dimension {name}: zero-cardinality level"
            )));
        }
        let mut levels = levels;
        let mut maps = maps;
        // Append the implicit "all" level unless the caller already
        // finished on a 1-ary level named "all". Emptiness was
        // rejected above; surface a typed error rather than panicking
        // if that invariant ever breaks.
        let Some(last) = levels.last() else {
            return Err(RiskError::invalid(format!(
                "dimension {name}: needs at least one level"
            )));
        };
        if !(last.cardinality == 1 && last.name == "all") {
            maps.push(vec![0; last.cardinality as usize]);
            levels.push(Level {
                name: "all".into(),
                cardinality: 1,
            });
        }
        Ok(Self { name, levels, maps })
    }

    /// The dimension's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of levels including the trailing "all".
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Level metadata at `level`.
    pub fn level(&self, level: usize) -> &Level {
        &self.levels[level]
    }

    /// Cardinality at `level`.
    #[inline]
    pub fn cardinality(&self, level: usize) -> u32 {
        self.levels[level].cardinality
    }

    /// Map a base-level (level-0) code up to `level`.
    ///
    /// `level == 0` is the identity; each step walks one child→parent
    /// map. The walk is O(level) with no allocation — cheap enough to
    /// sit inside the cube build's inner loop.
    #[inline]
    pub fn code_at(&self, level: usize, base_code: u32) -> u32 {
        let mut c = base_code;
        for map in &self.maps[..level] {
            c = map[c as usize];
        }
        c
    }

    /// Map a code at `from` up to the coarser `to` level.
    #[inline]
    pub fn lift(&self, from: usize, to: usize, code: u32) -> u32 {
        debug_assert!(from <= to);
        let mut c = code;
        for map in &self.maps[from..to] {
            c = map[c as usize];
        }
        c
    }

    /// A single-level enumeration dimension (no hierarchy except "all").
    pub fn flat(name: impl Into<String>, cardinality: u32) -> RiskResult<Self> {
        Self::new(
            name,
            vec![Level {
                name: "base".into(),
                cardinality,
            }],
            vec![],
        )
    }
}

/// The warehouse star schema: the fixed set of dimensions of the loss
/// fact table. Four dimensions cover the analytics the paper's stages 2
/// and 3 ask of loss data: where (geography), what (event/peril), which
/// book (contract), and when (time within the contractual year).
#[derive(Debug, Clone)]
pub struct Schema {
    dims: Vec<Dimension>,
}

/// Number of dimensions in the star schema.
pub const NDIMS: usize = 4;

/// Dimension indices, for readable call sites.
pub mod dim {
    /// Geography: location → region → all.
    pub const GEO: usize = 0;
    /// Event: event → peril → all.
    pub const EVENT: usize = 1;
    /// Contract: layer → line of business → all.
    pub const CONTRACT: usize = 2;
    /// Time: day → month → season → all.
    pub const TIME: usize = 3;
}

impl Schema {
    /// Build a schema from exactly [`NDIMS`] dimensions, in the
    /// [`dim`] order.
    pub fn new(dims: Vec<Dimension>) -> RiskResult<Self> {
        if dims.len() != NDIMS {
            return Err(RiskError::invalid(format!(
                "schema needs {NDIMS} dimensions, got {}",
                dims.len()
            )));
        }
        Ok(Self { dims })
    }

    /// The dimensions in [`dim`] order.
    pub fn dims(&self) -> &[Dimension] {
        &self.dims
    }

    /// One dimension.
    #[inline]
    pub fn dim(&self, d: usize) -> &Dimension {
        &self.dims[d]
    }

    /// Levels per dimension (including "all"), in [`dim`] order.
    pub fn level_counts(&self) -> [usize; NDIMS] {
        let mut out = [0usize; NDIMS];
        for (i, d) in self.dims.iter().enumerate() {
            out[i] = d.level_count();
        }
        out
    }

    /// The standard schema for a generated portfolio: `locations` sites
    /// in `regions` regions (round-robin blocks), `events` events across
    /// `perils` perils, `layers` layers in `lobs` lines of business, and
    /// a 365-day year folded into 12 months and 4 seasons.
    pub fn standard(
        locations: u32,
        regions: u32,
        events: u32,
        perils: u32,
        layers: u32,
        lobs: u32,
    ) -> RiskResult<Self> {
        let block = |n: u32, groups: u32| -> Vec<u32> {
            // Contiguous blocks: codes [0, n/groups) → group 0, etc.
            let per = (n as u64).div_ceil(groups as u64).max(1);
            (0..n)
                .map(|c| ((c as u64 / per) as u32).min(groups - 1))
                .collect()
        };
        let geo = Dimension::new(
            "geography",
            vec![
                Level {
                    name: "location".into(),
                    cardinality: locations,
                },
                Level {
                    name: "region".into(),
                    cardinality: regions,
                },
            ],
            vec![block(locations, regions)],
        )?;
        let event = Dimension::new(
            "event",
            vec![
                Level {
                    name: "event".into(),
                    cardinality: events,
                },
                Level {
                    name: "peril".into(),
                    cardinality: perils,
                },
            ],
            // Events are striped across perils (catalogues interleave
            // peril draws), so use modulo rather than blocks.
            vec![(0..events).map(|e| e % perils).collect()],
        )?;
        let contract = Dimension::new(
            "contract",
            vec![
                Level {
                    name: "layer".into(),
                    cardinality: layers,
                },
                Level {
                    name: "lob".into(),
                    cardinality: lobs,
                },
            ],
            vec![block(layers, lobs)],
        )?;
        let day_to_month: Vec<u32> = (0..365u32).map(|d| ((d * 12) / 365).min(11)).collect();
        let month_to_season: Vec<u32> = (0..12u32).map(|m| m / 3).collect();
        let time = Dimension::new(
            "time",
            vec![
                Level {
                    name: "day".into(),
                    cardinality: 365,
                },
                Level {
                    name: "month".into(),
                    cardinality: 12,
                },
                Level {
                    name: "season".into(),
                    cardinality: 4,
                },
            ],
            vec![day_to_month, month_to_season],
        )?;
        Schema::new(vec![geo, event, contract, time])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level() -> Dimension {
        Dimension::new(
            "geo",
            vec![
                Level {
                    name: "loc".into(),
                    cardinality: 6,
                },
                Level {
                    name: "region".into(),
                    cardinality: 2,
                },
            ],
            vec![vec![0, 0, 0, 1, 1, 1]],
        )
        .unwrap()
    }

    #[test]
    fn all_level_appended() {
        let d = two_level();
        assert_eq!(d.level_count(), 3);
        assert_eq!(d.level(2).name, "all");
        assert_eq!(d.cardinality(2), 1);
    }

    #[test]
    fn code_at_walks_hierarchy() {
        let d = two_level();
        assert_eq!(d.code_at(0, 4), 4);
        assert_eq!(d.code_at(1, 2), 0);
        assert_eq!(d.code_at(1, 3), 1);
        assert_eq!(d.code_at(2, 5), 0);
    }

    #[test]
    fn lift_between_intermediate_levels() {
        let d = two_level();
        assert_eq!(d.lift(1, 1, 1), 1);
        assert_eq!(d.lift(1, 2, 1), 0);
        assert_eq!(d.lift(0, 1, 5), 1);
    }

    #[test]
    fn validation_rejects_bad_maps() {
        // Map too short.
        assert!(Dimension::new(
            "x",
            vec![
                Level {
                    name: "a".into(),
                    cardinality: 3
                },
                Level {
                    name: "b".into(),
                    cardinality: 2
                },
            ],
            vec![vec![0, 1]],
        )
        .is_err());
        // Parent code out of range.
        assert!(Dimension::new(
            "x",
            vec![
                Level {
                    name: "a".into(),
                    cardinality: 2
                },
                Level {
                    name: "b".into(),
                    cardinality: 2
                },
            ],
            vec![vec![0, 2]],
        )
        .is_err());
        // Wrong number of maps.
        assert!(Dimension::new(
            "x",
            vec![Level {
                name: "a".into(),
                cardinality: 2
            }],
            vec![vec![0, 0]],
        )
        .is_err());
        // Zero cardinality.
        assert!(Dimension::flat("x", 0).is_err());
    }

    #[test]
    fn flat_dimension_has_base_and_all() {
        let d = Dimension::flat("trial", 100).unwrap();
        assert_eq!(d.level_count(), 2);
        assert_eq!(d.cardinality(0), 100);
        assert_eq!(d.cardinality(1), 1);
        assert_eq!(d.code_at(1, 57), 0);
    }

    #[test]
    fn standard_schema_shapes() {
        let s = Schema::standard(100, 5, 200, 3, 16, 4).unwrap();
        assert_eq!(s.level_counts(), [3, 3, 3, 4]);
        assert_eq!(s.dim(dim::GEO).cardinality(0), 100);
        assert_eq!(s.dim(dim::GEO).cardinality(1), 5);
        assert_eq!(s.dim(dim::TIME).cardinality(1), 12);
        assert_eq!(s.dim(dim::TIME).cardinality(2), 4);
        // Block mapping covers every group.
        let geo = s.dim(dim::GEO);
        let regions: std::collections::BTreeSet<u32> =
            (0..100).map(|c| geo.code_at(1, c)).collect();
        assert_eq!(regions.len(), 5);
        // Stripe mapping covers every peril.
        let ev = s.dim(dim::EVENT);
        let perils: std::collections::BTreeSet<u32> = (0..200).map(|c| ev.code_at(1, c)).collect();
        assert_eq!(perils.len(), 3);
    }

    #[test]
    fn month_and_season_fold() {
        let s = Schema::standard(10, 2, 10, 2, 4, 2).unwrap();
        let t = s.dim(dim::TIME);
        assert_eq!(t.code_at(1, 0), 0); // Jan 1 → month 0
        assert_eq!(t.code_at(1, 364), 11); // Dec 31 → month 11
        assert_eq!(t.code_at(2, 364), 3); // → season 3
        assert_eq!(t.code_at(3, 200), 0); // all
                                          // Months partition the year monotonically.
        let mut prev = 0;
        for d in 0..365 {
            let m = t.code_at(1, d);
            assert!(m >= prev && m <= 11);
            prev = m;
        }
    }
}
