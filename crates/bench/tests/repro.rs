//! `repro` rejects a missing or unknown target before running anything.

use std::process::Command;

#[test]
fn missing_or_unknown_target_exits_2_without_output() {
    for args in [&[][..], &["fig3"][..], &["table3", "fig3"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
        assert!(stderr.contains("table3 table4 table5 table6 fig1"), "{stderr}");
        assert!(stderr.contains("fig10 ablation all"), "{stderr}");
    }
}
