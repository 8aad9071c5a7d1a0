//! `run`, `grid` and the positional commands are as strict about their
//! arguments as `perf` and the sweeps (`perf_cli.rs`, `sweep_cli.rs`;
//! all three share the harness in `common/mod.rs`), and `--check` must
//! accept every committed report.

mod common;

use common::{rapid_transit, rejects_all, ABSENT, OUT};

#[test]
fn misspelled_or_repeated_flags_exit_2_and_touch_nothing() {
    rejects_all(
        "cli",
        &[
            (
                &["run", "--pattern", "gw", "--prefetchh", "--seeed", "4"],
                "unknown flag \"--prefetchh\"",
            ),
            (
                &["run", "--faults", "a", "--faults", "b"],
                "--faults given twice",
            ),
            (
                &["run", "--sample-every", "5"],
                "--sample-every requires --trace-out",
            ),
            (
                &["run", "--trace-out", ABSENT, "--csvv"],
                "unknown flag \"--csvv\"",
            ),
            (&["run", "--seed"], "--seed requires a number"),
            (&["grid", "--csvv"], "unknown flag \"--csvv\" (want --csv)"),
            (&["lead", "lfp", "--x"], "unexpected argument \"--x\""),
            (&["trace", "gw", "lw"], "unexpected argument \"lw\""),
            (
                &["trace-check", OUT, "--out", ABSENT],
                "unexpected argument \"--out\"",
            ),
            (&["sweep-compute", "--csv"], "unexpected argument \"--csv\""),
        ],
    );
}

#[test]
fn check_accepts_every_committed_report() {
    for (cmd, file) in [
        ("perf", "BENCH_core.json"),
        ("faults", "BENCH_faults.json"),
        ("soak", "BENCH_overload.json"),
        ("integrity", "BENCH_integrity.json"),
        ("crashes", "BENCH_crash.json"),
        ("tail", "BENCH_tail.json"),
    ] {
        let run = rapid_transit(&[cmd, "--check", "--out", file]);
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(
            run.status.success(),
            "{cmd}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        assert!(stdout.contains("valid"), "{cmd}: {stdout}");
    }
}
