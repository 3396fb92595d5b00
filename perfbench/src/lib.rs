//! # ars-perfbench — the repository benchmark
//!
//! One entry point runs a named workload with a seed for a time budget,
//! checks its outputs and prints every metric by name with its unit (see
//! `README.md` in this directory for the workloads, the metrics and the
//! layer→metric predictions).
//!
//! * [`probe`] — outside-in per-layer instrumentation (forwarding
//!   `Program`/`MigratableApp` wrappers, thread-local sinks);
//! * [`des`] — shared plumbing of the simulated workloads;
//! * [`fleet`] — `fleet_steady` and `fleet_tree`;
//! * [`churn`] — `reshape_churn`;
//! * [`fanin`] — `live_fanin` against an in-process `LiveRegistry`;
//! * [`report`] — metric tables, statistics and the result line.

#![warn(missing_docs)]

pub mod churn;
pub mod des;
pub mod fanin;
pub mod fleet;
pub mod probe;
pub mod report;
