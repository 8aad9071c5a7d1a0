//! The sweep subcommands (`faults | soak | integrity | crashes | tail`)
//! accept only `--out FILE`, `--smoke` and `--check`, each once. A typo
//! or a repeated flag must fail with exit code 2 before any sweep runs
//! or any file is written, and `--check` must accept every committed
//! report.

use std::path::PathBuf;
use std::process::{Command, Output};

fn sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rapid-transit"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("the binary runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rt-sweep-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn misspelled_or_repeated_flags_exit_2_and_write_nothing() {
    let out = scratch("report.json");
    std::fs::write(&out, "untouched").unwrap();
    let path = out.to_str().unwrap();
    let cases: [(&[&str], &str); 6] = [
        (
            &["faults", "--smok", "--chek", "--out", path],
            "unknown flag \"--smok\"",
        ),
        (
            &["soak", "--out", path, "--smoke", "--smoke"],
            "--smoke given twice",
        ),
        (
            &["crashes", "--out", path, "--out", path],
            "--out given twice",
        ),
        (
            &["tail", "--check", "--check", "--out", path],
            "--check given twice",
        ),
        (&["integrity", "--out"], "--out requires a file"),
        (&["integrity", "--out", "--smoke"], "--out requires a file"),
    ];
    for (args, message) in cases {
        let run = sweep(args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(run.stdout.is_empty(), "{args:?} started a sweep");
        assert_eq!(
            std::fs::read_to_string(&out).unwrap(),
            "untouched",
            "{args:?}"
        );
    }
    std::fs::remove_dir_all(out.parent().unwrap()).unwrap();
}

#[test]
fn check_accepts_every_committed_report() {
    for (cmd, file) in [
        ("faults", "BENCH_faults.json"),
        ("soak", "BENCH_overload.json"),
        ("integrity", "BENCH_integrity.json"),
        ("crashes", "BENCH_crash.json"),
        ("tail", "BENCH_tail.json"),
    ] {
        let run = sweep(&[cmd, "--check", "--out", file]);
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(
            run.status.success(),
            "{cmd}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        assert!(stdout.contains("valid"), "{cmd}: {stdout}");
    }
}
