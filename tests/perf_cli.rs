//! `perf` accepts only `--out FILE`, `--label L`, `--quick` and
//! `--check`, each once; anything else exits 2 before any measurement
//! runs or any file is touched.

mod common;

use common::{rejects_all, ABSENT, OUT};

#[test]
fn misspelled_or_repeated_flags_exit_2_and_touch_nothing() {
    rejects_all(
        "perf-cli",
        &[
            (&["perf", "--quik", "--out", OUT], "unknown flag \"--quik\""),
            (
                &["perf", "--quik", "--out", ABSENT],
                "unknown flag \"--quik\"",
            ),
            (
                &["perf", "--out", OUT, "--lable", "x"],
                "unknown flag \"--lable\"",
            ),
            (&["perf", "--out", OUT, "--out", OUT], "--out given twice"),
            (
                &["perf", "--quick", "--quick", "--out", OUT],
                "--quick given twice",
            ),
            (
                &["perf", "--threads", "2", "--out", ABSENT],
                "unknown flag \"--threads\"",
            ),
            (
                &["perf", "--out", OUT, "--label", "--quick"],
                "--label requires a label",
            ),
        ],
    );
}
