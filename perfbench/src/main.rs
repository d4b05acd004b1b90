//! `uadb-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload score-small|score-bulk|score-mixed|train|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints every metric by name and unit, then, as the last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). Exits 1
//! when any output check fails and 2 on any other error. See `NOTES.md`.

mod check;
mod client;
mod data;
mod load;
mod replay;
mod report;
mod server;
mod stats;
mod trace;
mod workloads;

use workloads::{Args, WORKLOADS};

const USAGE: &str = "usage: uadb-perfbench --workload NAME|all --seed N --seconds S --trace 0|1";

fn parse(argv: &[String]) -> Result<(String, Args), String> {
    let mut workload = None;
    let mut args = Args { seed: 0, seconds: 10.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: cannot parse `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds =
                    value.parse().map_err(|_| format!("--seconds: cannot parse `{value}`"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok((workload.ok_or("missing --workload")?, args))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(server::SERVE_ARG) {
        std::process::exit(server::serve_child(&argv[1..]));
    }
    let (workload, args) = match parse(&argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> =
        if workload == "all" { WORKLOADS.to_vec() } else { vec![workload.as_str()] };
    let mut all_correct = true;
    let mut lines = Vec::new();
    for name in names {
        match workloads::run(name, args) {
            Ok(report) => {
                report.print_table(args.trace);
                all_correct &= report.correct();
                lines.push(report.json(args.trace));
            }
            Err(e) => {
                eprintln!("error: workload {name}: {e}");
                std::process::exit(2);
            }
        }
    }
    for line in &lines {
        println!("{line}");
    }
    if !all_correct {
        eprintln!("error: an output check failed");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let (w, a) = parse(&argv("--workload train --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((w.as_str(), a.seed, a.seconds, a.trace), ("train", 7, 3.0, true));
        assert!(parse(&argv("--seed 7")).is_err());
        assert!(parse(&argv("--workload x --trace 2")).is_err());
        assert!(parse(&argv("--workload x --seconds 0")).is_err());
        assert!(parse(&argv("--workload x --bogus 1")).is_err());
        assert!(parse(&argv("--workload")).is_err());
    }
}
