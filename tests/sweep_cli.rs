//! The sweep subcommands (`faults | soak | integrity | crashes | tail`)
//! accept only `--out FILE`, `--smoke` and `--check`, each once; anything
//! else exits 2 before any sweep runs or any file is written.

mod common;

use common::{rejects_all, OUT};

#[test]
fn misspelled_or_repeated_flags_exit_2_and_write_nothing() {
    rejects_all(
        "sweep-cli",
        &[
            (
                &["faults", "--smok", "--chek", "--out", OUT],
                "unknown flag \"--smok\"",
            ),
            (
                &["soak", "--out", OUT, "--smoke", "--smoke"],
                "--smoke given twice",
            ),
            (
                &["crashes", "--out", OUT, "--out", OUT],
                "--out given twice",
            ),
            (
                &["tail", "--check", "--check", "--out", OUT],
                "--check given twice",
            ),
            (&["integrity", "--out"], "--out requires a file"),
            (&["integrity", "--out", "--smoke"], "--out requires a file"),
        ],
    );
}
