//! `repro <target>…` regenerates the paper's tables and figures on the
//! simulated suite and prints them in the paper's row layout. Targets run
//! in command-line order; `all` expands to every paper artefact.
//!
//! The experiment index (each target calls one `uadb_bench::experiments`
//! function of the same name):
//!
//! | target     | paper artefact                                                   |
//! |------------|------------------------------------------------------------------|
//! | `table3`   | Table III: the 84-dataset roster with generated shapes           |
//! | `table4`   | Table IV: UADB improvement over all 14 source models             |
//! | `table5`   | Table V: per-iteration booster AUCROC/AP, IForest/HBOS/LOF/KNN    |
//! | `table6`   | Table VI: booster-scheme ablation over all 14 models              |
//! | `fig1`     | Fig. 1: inlier vs anomaly variance on 4 example datasets          |
//! | `fig2`     | Fig. 2: relative variance gap on all 84 datasets (the 71/84 claim) |
//! | `fig4`     | Fig. 4: per-case error-correction trajectories                    |
//! | `fig5`     | Fig. 5: teacher vs booster errors on the 4 synthetic anomaly types |
//! | `fig6`     | Fig. 6: improvement where the variance evidence fails             |
//! | `fig7`     | Fig. 7: sensitivity to the number of iterations, T up to 20       |
//! | `fig8`     | Fig. 8: sensitivity to booster MLP depth (1–4 hidden layers)      |
//! | `fig9`     | Fig. 9: per-case ranking development under LOF, T = 20            |
//! | `fig10`    | Fig. 10: teacher vs booster boxplots per model                    |
//! | `ablation` | not in the paper: CV folds, warm start, correction scale, T = 5   |
//!
//! Fig. 3 is the method overview diagram and has no experiment. `all`
//! runs table3 fig1 fig2 fig4 fig5 table4 fig10 table5 table6 fig6 fig7
//! fig8 fig9; Fig. 10 reuses Table IV's results whenever Table IV ran
//! first. The model-sweeping targets use all 14 models and the Figs. 1/2
//! probes use `setup::probe_config`. `UADB_SUITE`, `UADB_SCALE`,
//! `UADB_RUNS` and `UADB_SEED` select the datasets, runs and seed (see the
//! crate docs); by default every target covers the full 84-dataset suite.
//!
//! With no target or an unknown one, `repro` prints the target list and
//! exits with status 2 without running anything.

use std::cell::OnceCell;
use std::process::exit;
use uadb::experiment::{run_matrix, PairResult};
use uadb_bench::{experiments, setup};
use uadb_detectors::DetectorKind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    Table3,
    Table4,
    Table5,
    Table6,
    Fig1,
    Fig2,
    Fig4,
    Fig5,
    Fig6,
    Fig7,
    Fig8,
    Fig9,
    Fig10,
    Ablation,
}

/// Every single target by its command-line name.
const TARGETS: [(&str, Target); 14] = [
    ("table3", Target::Table3),
    ("table4", Target::Table4),
    ("table5", Target::Table5),
    ("table6", Target::Table6),
    ("fig1", Target::Fig1),
    ("fig2", Target::Fig2),
    ("fig4", Target::Fig4),
    ("fig5", Target::Fig5),
    ("fig6", Target::Fig6),
    ("fig7", Target::Fig7),
    ("fig8", Target::Fig8),
    ("fig9", Target::Fig9),
    ("fig10", Target::Fig10),
    ("ablation", Target::Ablation),
];

/// What `all` expands to: every paper artefact, with Fig. 10 right after
/// Table IV so it reuses its results.
const ALL: [Target; 13] = [
    Target::Table3,
    Target::Fig1,
    Target::Fig2,
    Target::Fig4,
    Target::Fig5,
    Target::Table4,
    Target::Fig10,
    Target::Table5,
    Target::Table6,
    Target::Fig6,
    Target::Fig7,
    Target::Fig8,
    Target::Fig9,
];

fn parse_targets(args: &[String]) -> Result<Vec<Target>, String> {
    if args.is_empty() {
        return Err("no target given".to_string());
    }
    let mut targets = Vec::new();
    for arg in args {
        if arg == "all" {
            targets.extend(ALL);
        } else {
            match TARGETS.iter().find(|(name, _)| name == arg) {
                Some(&(_, t)) => targets.push(t),
                None => return Err(format!("unknown target `{arg}`")),
            }
        }
    }
    Ok(targets)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let targets = parse_targets(&args).unwrap_or_else(|err| {
        let names: Vec<&str> = TARGETS.iter().map(|(name, _)| *name).collect();
        eprintln!("repro: {err}");
        eprintln!("usage: repro <target>...");
        eprintln!("targets: {} all", names.join(" "));
        exit(2);
    });

    let kinds = &DetectorKind::ALL;
    let cfg = setup::experiment_config();
    let suite = OnceCell::new();
    let datasets = || suite.get_or_init(setup::datasets).as_slice();
    let mut table4: Option<Vec<PairResult>> = None;
    for target in targets {
        match target {
            Target::Table3 => experiments::table3(),
            Target::Table4 => table4 = Some(experiments::table4(kinds, datasets(), &cfg)),
            Target::Table5 => experiments::table5(datasets(), &cfg),
            Target::Table6 => experiments::table6(kinds, datasets(), &cfg),
            Target::Fig1 => {
                let _ = experiments::fig1(&setup::probe_config());
            }
            Target::Fig2 => {
                let _ = experiments::fig2(&setup::probe_config());
            }
            Target::Fig4 => experiments::fig4(&cfg.booster),
            Target::Fig5 => {
                let _ = experiments::fig5(&cfg.booster);
            }
            Target::Fig6 => experiments::fig6(kinds, &cfg),
            Target::Fig7 => experiments::fig7(kinds, datasets(), &cfg, 20),
            Target::Fig8 => experiments::fig8(kinds, datasets(), &cfg),
            Target::Fig9 => experiments::fig9(&cfg.booster),
            Target::Fig10 => {
                let results = table4.get_or_insert_with(|| run_matrix(kinds, datasets(), &cfg));
                experiments::fig10(results, kinds);
            }
            Target::Ablation => experiments::ablation(datasets(), &cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Vec<Target>, String> {
        parse_targets(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn name(target: Target) -> &'static str {
        TARGETS.iter().find(|(_, t)| *t == target).unwrap().0
    }

    #[test]
    fn missing_and_unknown_targets_are_rejected() {
        assert!(parse(&[]).is_err());
        assert_eq!(parse(&["fig3"]), Err("unknown target `fig3`".to_string()));
        assert!(parse(&["table3", "table7"]).is_err());
        assert!(parse(&["Table3"]).is_err());
    }

    #[test]
    fn all_expands_in_paper_order() {
        let names: Vec<&str> = parse(&["all"]).unwrap().into_iter().map(name).collect();
        assert_eq!(
            names,
            [
                "table3", "fig1", "fig2", "fig4", "fig5", "table4", "fig10", "table5", "table6",
                "fig6", "fig7", "fig8", "fig9"
            ]
        );
    }

    #[test]
    fn targets_run_in_command_line_order() {
        assert_eq!(
            parse(&["fig4", "table3", "fig4"]).unwrap(),
            [Target::Fig4, Target::Table3, Target::Fig4]
        );
        for (name, target) in TARGETS {
            assert_eq!(parse(&[name]).unwrap(), [target]);
        }
    }
}
