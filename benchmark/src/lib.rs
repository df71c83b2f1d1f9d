//! The repo benchmark: four workloads, end-to-end metrics a user of the
//! stack would see, and a per-layer ledger measured from outside.
//! See README.md for the tables and how to run it.

pub mod alloc;
pub mod bind;
pub mod cli;
pub mod compare;
pub mod json;
pub mod ledger;
pub mod measure;
pub mod metrics;
pub mod spans;
pub mod stats;
pub mod workloads;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;
