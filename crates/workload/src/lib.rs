//! Software application modeling (§3.5).
//!
//! A software application is characterized by two inputs: its *workload*
//! (clients launching operations, by location and hour) and the *message
//! cascade* defining each operation. This crate provides:
//!
//! * [`cascade`] — message cascades: sequences of holon-to-holon messages
//!   carrying `R` resource vectors, with site placeholders resolved when
//!   an operation instance is launched;
//! * [`shape`] — operation *shapes* (structural cascades with per-step
//!   resource shares) and the calibration that turns a shape plus a
//!   target canonical duration into concrete `R` vectors, inverting the
//!   paper's profiling equations (§3.5.2, "R Parameter Array Profiling");
//! * [`catalog`] — the CAD, VIS and PDM applications of the case studies,
//!   with the round-trip structure of Table 6.2 and the canonical
//!   durations of Table 5.1;
//! * [`series`] — the Light/Average/Heavy validation series (§5.2.2);
//! * [`diurnal`] — per-site diurnal client-population curves and Poisson
//!   arrival sampling (Figs. 6-5..6-7);
//! * [`ownership`] — access-pattern matrices and data ownership
//!   (Tables 7.1/7.2, §7.2.1);
//! * [`retry`] — client-side timeouts and exponential-backoff retry
//!   policies for fault-injection runs;
//! * [`resilience`] — circuit breakers, hedged requests and load
//!   shedding for churn runs.

#![warn(missing_docs)]

pub mod cascade;
pub mod catalog;
pub mod diurnal;
pub mod ownership;
pub mod resilience;
pub mod retry;
pub mod series;
pub mod shape;

pub use cascade::{CascadeStep, Endpoint, Holon, OperationTemplate, Site, SiteBinding};
pub use catalog::{Application, Catalog};
pub use diurnal::{
    AppWorkload, ArrivalSampler, DiurnalCurve, HourlyTable, PopulationCurve, SiteDraw, SiteLoad,
};
pub use ownership::AccessPatternMatrix;
pub use resilience::{BreakerPolicy, HedgePolicy, ResiliencePolicies, ShedPolicy};
pub use retry::RetryPolicy;
pub use series::{SeriesKind, CANONICAL_DURATIONS};
pub use shape::{OperationShape, RateCard, StepShape};
