//! `simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload and prints its metrics as the last line of standard
//! output. With `--trace 1` it also writes the traced round's phase spans
//! to `out/spans-<workload>-<seed>.json` in this crate's directory.

use simbench::alloc::CountingAlloc;
use simbench::bench::{execute, parse_options};
use simbench::workload::Scale;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match execute(&opts, Scale::Full) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(2);
        }
    };
    for f in &report.failures {
        eprintln!("simbench: FAILED {f}");
    }
    if let Some(spans) = &report.spans {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-{}.json", opts.workload.name(), opts.seed);
        let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans));
        match written {
            Ok(()) => eprintln!("simbench: spans written to {path}"),
            Err(e) => {
                eprintln!("simbench: cannot write {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    println!("{}", report.json());
}
