//! `perf` accepts only `--out FILE`, `--label L`, `--threads LIST`,
//! `--quick` and `--check`, each once. A typo or a repeated flag must
//! fail with exit code 2 before any measurement runs or any file is
//! touched: neither an existing report nor a missing one may change.

use std::path::PathBuf;
use std::process::{Command, Output};

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rapid-transit"))
        .arg("perf")
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("the binary runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rt-perf-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn misspelled_or_repeated_flags_exit_2_and_touch_nothing() {
    let out = scratch("report.json");
    std::fs::write(&out, "untouched").unwrap();
    let path = out.to_str().unwrap();
    let missing = scratch("typo.json");
    let absent = missing.to_str().unwrap();
    let cases: [(&[&str], &str); 7] = [
        (&["--quik", "--out", path], "unknown flag \"--quik\""),
        (&["--quik", "--out", absent], "unknown flag \"--quik\""),
        (&["--out", path, "--lable", "x"], "unknown flag \"--lable\""),
        (&["--out", path, "--out", path], "--out given twice"),
        (
            &["--quick", "--quick", "--out", path],
            "--quick given twice",
        ),
        (
            &["--threads", "1", "--threads", "2", "--out", path],
            "--threads given twice",
        ),
        (
            &["--out", path, "--label", "--quick"],
            "--label requires a label",
        ),
    ];
    for (args, message) in cases {
        let run = perf(args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(run.stdout.is_empty(), "{args:?} started measuring");
        assert_eq!(
            std::fs::read_to_string(&out).unwrap(),
            "untouched",
            "{args:?}"
        );
        assert!(!missing.exists(), "{args:?} created {absent}");
    }
    std::fs::remove_dir_all(out.parent().unwrap()).unwrap();
}
