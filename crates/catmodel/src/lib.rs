//! # riskpipe-catmodel
//!
//! Stage 1 of the risk-analytics pipeline: **risk modelling** with a
//! synthetic catastrophe model.
//!
//! The paper describes this stage as taking two inputs — a *stochastic
//! event catalogue* (mathematical representations of natural-occurrence
//! patterns) and an *exposure database* (attributes of insured
//! buildings) — and running each event-exposure pair through three
//! modules:
//!
//! 1. **hazard** — the intensity the event produces at each exposed
//!    site ([`hazard`]);
//! 2. **vulnerability** — the damage level that intensity causes given
//!    the building's construction ([`vulnerability`]);
//! 3. **financial** — the monetary loss after location-level insurance
//!    terms ([`financial`]).
//!
//! The output is an Event-Loss Table per contract ([`eltgen`]). This
//! crate also hosts the Year-Event-Table pre-simulation ([`yetgen`]):
//! the catalogue's annual rates drive a Poisson/alias sampler producing
//! the "millions of alternative views of a contractual year" consumed by
//! stage 2.
//!
//! Everything here substitutes for proprietary vendor models
//! (RMS/AIR): parametric but *structurally faithful* — attenuation
//! decays with distance, damage ratios are monotone in intensity and
//! bounded by exposed value, rates follow Gutenberg–Richter-style
//! frequency-severity scaling.

#![warn(missing_docs)]

pub mod catalog;
pub mod eltgen;
pub mod exposure;
pub mod financial;
pub mod geo;
pub mod hazard;
mod index;
pub mod peril;
pub mod postevent;
pub mod stage1io;
pub mod vulnerability;
pub mod yetgen;

pub use catalog::{CatalogConfig, CatalogEvent, EventCatalog};
pub use eltgen::{EltGenConfig, EltGenCounts, GroundUpModel, Stage1Output};
pub use exposure::{ExposureConfig, ExposureLocation, ExposurePortfolio};
pub use geo::{GeoPoint, Region};
pub use hazard::site_intensity;
pub use peril::Peril;
pub use postevent::{rapid_estimate, ObservedEvent, PostEventEstimate};
pub use vulnerability::ConstructionClass;
pub use yetgen::{simulate_yet, YetConfig};
