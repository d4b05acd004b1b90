//! Harness configuration. The four experiment variables (`UADB_SUITE`,
//! `UADB_SCALE`, `UADB_RUNS`, `UADB_SEED`) are read here and nowhere
//! else; the library crates take every setting as an argument.

use uadb::experiment::ExperimentConfig;
use uadb::UadbConfig;
use uadb_data::suite::{generate_quick_suite, generate_suite, SuiteScale};
use uadb_data::Dataset;

/// Master seed from `UADB_SEED` (default 0).
pub fn seed() -> u64 {
    std::env::var("UADB_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Roster coverage from `UADB_SUITE`: all 84 entries unless it is set
/// to something other than `full` (`UADB_SUITE=quick` selects the
/// 12-dataset subset).
pub fn full_suite() -> bool {
    std::env::var("UADB_SUITE").map_or(true, |v| v == "full" || v == "FULL")
}

/// Dataset sizes from `UADB_SCALE`: `full` (n ∈ [400, 1200]) or, by
/// default, `quick` (n ∈ [240, 520]). Orthogonal to `UADB_SUITE`.
pub fn scale() -> SuiteScale {
    match std::env::var("UADB_SCALE").ok().as_deref() {
        Some("full") | Some("FULL") => SuiteScale::Full,
        _ => SuiteScale::Quick,
    }
}

/// Independent runs averaged per cell from `UADB_RUNS` (default 1; the
/// paper uses 10).
pub fn runs() -> usize {
    std::env::var("UADB_RUNS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

/// The evaluation datasets: all 84 roster entries by default, the
/// 12-dataset quick subset with `UADB_SUITE=quick`.
pub fn datasets() -> Vec<Dataset> {
    if full_suite() {
        generate_suite(scale(), seed())
    } else {
        generate_quick_suite(scale(), seed())
    }
}

/// The full 84-entry suite regardless of `UADB_SUITE` (Fig. 2 needs all
/// datasets to reproduce the "71/84" claim).
pub fn all_datasets() -> Vec<Dataset> {
    generate_suite(scale(), seed())
}

/// Paper-default experiment configuration with env-driven runs/seed.
pub fn experiment_config() -> ExperimentConfig {
    ExperimentConfig { booster: UadbConfig::with_seed(seed()), n_runs: runs(), n_threads: 0 }
}

/// Configuration for the Fig. 1/2 variance probes: the paper's imitation
/// learner is a *single* static distillation pass, not an iterative
/// booster, so one well-trained step suffices.
pub fn probe_config() -> UadbConfig {
    UadbConfig { t_steps: 1, epochs_per_step: 50, ..UadbConfig::with_seed(seed()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_resolve() {
        std::env::remove_var("UADB_SUITE");
        std::env::remove_var("UADB_RUNS");
        std::env::remove_var("UADB_SEED");
        assert_eq!(seed(), 0);
        assert!(full_suite());
        let cfg = experiment_config();
        assert_eq!(cfg.n_runs, 1);
        assert_eq!(cfg.booster.t_steps, 10);
        let ds = datasets();
        assert_eq!(ds.len(), 84);
    }

    #[test]
    fn suite_scale_env_default_is_quick() {
        std::env::remove_var("UADB_SCALE");
        assert_eq!(scale(), SuiteScale::Quick);
    }
}
