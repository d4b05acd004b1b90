//! Drives the `bench_gate` binary on small emissions written to temp
//! files: a gate that compared nothing must not pass.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Writes one result line per `(name, min_ns)` in the benches' emission
/// layout and returns the file's path.
fn emission(tag: &str, cases: &[(&str, f64)]) -> PathBuf {
    let mut text = String::from("{\n  \"bench\": \"test\",\n  \"results\": [\n");
    for (name, min_ns) in cases {
        text.push_str(&format!("    {{\"name\": \"{name}\", \"min_ns\": {min_ns:.1}}},\n"));
    }
    text.push_str("  ]\n}\n");
    let path = std::env::temp_dir().join(format!("bench_gate_{}_{tag}.json", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path
}

fn gate(args: &[&str]) -> (i32, String) {
    let Output { status, stdout, stderr } =
        Command::new(env!("CARGO_BIN_EXE_bench_gate")).args(args).output().unwrap();
    let text = String::from_utf8_lossy(&stdout).into_owned() + &String::from_utf8_lossy(&stderr);
    (status.code().unwrap(), text)
}

#[test]
fn candidate_matching_no_invariant_fails() {
    let path = emission("renamed", &[("dense_v2_256x16x128", 10.0), ("naive_v2_256x16x128", 20.0)]);
    let (code, out) = gate(&["--candidate", path.to_str().unwrap()]);
    std::fs::remove_file(path).unwrap();
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("matches none of the"), "{out}");
    assert!(out.contains("1 checks run"), "{out}");
}

#[test]
fn matmul_shaped_candidate_passes() {
    let path = emission(
        "matmul",
        &[
            ("dense_into_256x16x128", 40.0),
            ("naive_256x16x128", 100.0),
            ("dense_into_256x128x128", 400.0),
            ("naive_256x128x128", 900.0),
            ("dense_into_1024x64x64", 500.0),
            ("naive_1024x64x64", 800.0),
            ("scratch_8192x32", 1000.0),
            ("alloc_8192x32", 1000.0),
        ],
    );
    let (code, out) = gate(&["--candidate", path.to_str().unwrap()]);
    std::fs::remove_file(path).unwrap();
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("4 checks run, 5 skipped, all passed"), "{out}");
}

#[test]
fn absent_reference_skips_and_is_counted() {
    let path =
        emission("serve", &[("binary_rows8192_shards2", 10.0), ("json_rows8192_shards2", 40.0)]);
    let missing =
        std::env::temp_dir().join(format!("bench_gate_{}_absent.json", std::process::id()));
    let (code, out) =
        gate(&["--candidate", path.to_str().unwrap(), "--reference", missing.to_str().unwrap()]);
    std::fs::remove_file(path).unwrap();
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("SKIP reference gate"), "{out}");
    assert!(out.contains("1 checks run, 11 skipped, all passed"), "{out}");
}
