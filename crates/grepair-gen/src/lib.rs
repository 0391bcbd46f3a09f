//! # grepair-gen
//!
//! Data substrate for the `grepair` evaluation: synthetic graph
//! generators, seeded noise injection with an exact ground-truth ledger,
//! and the curated GRR catalogs.
//!
//! These replace the artifacts this reproduction cannot ship — real KG
//! dumps and manually annotated error sets — while exercising the same
//! code paths (label/value indexes, matching, all seven repair
//! operations); the README's "Paper experiments" section lists the
//! experiments that run on them.
//!
//! - [`kg`] — clean knowledge-graph generator (Person/City/Country/
//!   Company schema, power-law social layer).
//! - [`noise`] — three-class error injection repairable by the gold rules.
//! - [`social`] — born-dirty social-network generator.
//! - [`catalog`] — gold rule catalogs + synthetic rule-set generator.

#![forbid(unsafe_code)]

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod kg;
pub mod noise;
pub mod social;

pub use catalog::{gold_kg_rules, social_rules, synthetic_rules};
pub use kg::{generate_kg, KgConfig, KgRefs};
pub use noise::{inject_kg_noise, ErrorClass, GroundTruth, InjectedError, NoiseConfig};
pub use social::{generate_social, SocialConfig};
