//! Benchmark harness regenerating every table and figure of the UADB
//! paper.
//!
//! The `repro <target>…` binary is the one entry point for the paper's
//! artefacts; its doc comment is the experiment index mapping each
//! target to its table or figure and to the function in [`experiments`]
//! that computes and prints it. The `matmul`, `serve`, `train` and
//! `detectors` benches time the serving and training paths, and
//! `bench_gate` checks their `BENCH_*.json` emissions.
//!
//! Environment knobs, all read in [`setup`]:
//! * `UADB_SUITE` — `full` (all 84 roster entries, default) or `quick`
//!   (12-dataset subset);
//! * `UADB_SCALE` — dataset sizes: `quick` (n ∈ [240, 520], default) or
//!   `full` (n ∈ [400, 1200]);
//! * `UADB_RUNS`  — independent seeds averaged per cell (default 1; the
//!   paper uses 10);
//! * `UADB_SEED`  — master seed (default 0).

pub mod experiments;
pub mod report;
pub mod setup;
