//! The one harness of the CLI tests. Every command is strict about its
//! arguments: an unknown, repeated or value-less flag, or a surplus
//! argument, must fail with exit code 2 before any work is done or any
//! file is touched — neither an existing output file nor a missing one
//! may change.

use std::process::{Command, Output};

/// In a case's arguments, stands for an existing file holding "untouched".
pub const OUT: &str = "{out}";
/// In a case's arguments, stands for a file that does not exist.
pub const ABSENT: &str = "{absent}";

pub fn rapid_transit(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rapid-transit"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("the binary runs")
}

/// Runs each `(args, expected stderr)` case and asserts that it exits 2
/// with that message, prints nothing to stdout and touches no file.
pub fn rejects_all(tag: &str, cases: &[(&[&str], &str)]) {
    let dir = std::env::temp_dir().join(format!("rt-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("report.json");
    std::fs::write(&out, "untouched").unwrap();
    let missing = dir.join("typo.json");
    let (path, absent) = (out.to_str().unwrap(), missing.to_str().unwrap());
    for (args, message) in cases {
        let args: Vec<&str> = args
            .iter()
            .map(|&a| match a {
                OUT => path,
                ABSENT => absent,
                a => a,
            })
            .collect();
        let run = rapid_transit(&args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(run.stdout.is_empty(), "{args:?} started working");
        assert_eq!(
            std::fs::read_to_string(&out).unwrap(),
            "untouched",
            "{args:?}"
        );
        assert!(!missing.exists(), "{args:?} created {absent}");
    }
    std::fs::remove_dir_all(dir).unwrap();
}
