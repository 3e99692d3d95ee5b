//! Measurement, sampling and accuracy statistics for GDISim.
//!
//! The paper's collector component (§4.3.1) periodically samples the state
//! of every agent, averages a window of samples into a *snapshot*, and
//! reports response times by operation type and location. Chapter 5 then
//! compares physical and simulated traces using steady-state mean/standard
//! deviation (Table 5.2) and Root Mean Square Error (Table 5.3, Eq. 5.5).
//!
//! This crate provides those building blocks: busy-time utilization meters,
//! interval samplers, time series, response-time registries and the
//! accuracy statistics used by the validation experiments.

#![warn(missing_docs)]

pub mod attribution;
pub mod instruments;
pub mod registry;
pub mod sampler;
pub mod series;
pub mod summary;

pub use attribution::{AttributionAggregator, OpComponents};
pub use instruments::{LogHistogram, MetricsRegistry};
pub use registry::{ResponseKey, ResponseTimeRegistry};
pub use sampler::{GaugeMeter, UtilizationMeter};
pub use series::TimeSeries;
pub use summary::{mean, mean_stddev, rmse, rmse_between, Summary};
