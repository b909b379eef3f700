//! # bench — experiment harness for the ecoHMEM reproduction
//!
//! Every table and figure of the paper's evaluation, and every extension
//! experiment, is an entry of the [`repro`] registry; the `ecohmem-repro`
//! bin runs them. The parallel memoizing experiment runner, table
//! formatting and the scenarios perfbench shares live here too.

pub mod fleet_scenario;
pub mod repro;
pub mod runner;
pub mod serve_scenario;
pub mod table;

pub use runner::Runner;
pub use table::Table;
