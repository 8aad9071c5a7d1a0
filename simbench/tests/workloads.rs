//! Shrunken copies of every workload must pass the benchmark's own
//! correctness and determinism checks, and the reported metrics must
//! match what `BENCHMARK.json` and `README.md` name.

use std::collections::BTreeSet;

use rapid_transit::core::experiment::run_pair;
use simbench::alloc::CountingAlloc;
use simbench::bench::{execute, parse_options, Options, Report};
use simbench::round::round;
use simbench::workload::{Scale, Workload};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One untraced and one traced round of the shrunken workload.
fn small(workload: Workload, trace: bool) -> Report {
    let opts = Options {
        workload,
        seed: 7,
        seconds: 1e-9,
        trace,
    };
    let report = execute(&opts, Scale::Small).expect("workload builds");
    assert_eq!(
        report.failed,
        0,
        "{}: {:?}",
        workload.name(),
        report.failures
    );
    assert!(report.attempted > 0);
    report
}

fn value(r: &Report, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

fn names(r: &Report) -> BTreeSet<String> {
    r.metrics.iter().map(|m| m.name.clone()).collect()
}

fn manifest(file: &str) -> String {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The `"name"` values in `text` (a section of `BENCHMARK.json`).
fn json_names(text: &str) -> BTreeSet<String> {
    text.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn shrunken_workloads_pass_every_check() {
    for w in Workload::ALL {
        small(w, false);
        // The handlers' self times and the engine's share telescope to the
        // traced loop wall.
        let r = small(w, true);
        let handlers: f64 = r
            .metrics
            .iter()
            .filter(|m| m.name.starts_with("world.") && m.name.ends_with(".self_s"))
            .map(|m| m.value)
            .sum();
        let loop_s = value(&r, "sim.loop_s");
        let gap = handlers + value(&r, "sim.engine_self_s") - loop_s;
        assert!(gap.abs() <= 1e-9 * loop_s, "{}: off by {gap}s", w.name());
    }
}

#[test]
fn optional_layer_events_fire_only_with_the_layers_on() {
    let off = small(Workload::LfpLong, true);
    let on = small(Workload::LfpLayersOn, true);
    for kind in [
        "retry_io",
        "io_timeout",
        "hedge",
        "verify_done",
        "crash",
        "rejoin",
    ] {
        let name = format!("world.{kind}.n");
        assert_eq!(value(&off, &name), 0.0, "{name} on lfp-long");
        assert!(value(&on, &name) > 0.0, "{name} on lfp-layers-on");
    }
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let ok = |s: &str, extra: &str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
    };
    for trace in [false, true] {
        for m in small(Workload::GridSweep, trace).metrics {
            assert!(
                ok(&m.name, "") && m.name.len() <= 64,
                "bad name {:?}",
                m.name
            );
            assert!(
                ok(m.unit, "/%") && m.unit.len() <= 16,
                "bad unit {:?}",
                m.unit
            );
        }
    }
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let json = manifest("../BENCHMARK.json");
    let (head, per_layer) = json.split_once("\"per_layer\"").expect("per_layer");
    let (head, end_to_end) = head.split_once("\"end_to_end\"").expect("end_to_end");
    let (_, workloads) = head.split_once("\"workloads\"").expect("workloads");
    let listed: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(json_names(workloads), listed);
    for w in Workload::ALL {
        assert_eq!(
            json_names(end_to_end),
            names(&small(w, false)),
            "{}",
            w.name()
        );
        assert_eq!(
            json_names(per_layer),
            names(&small(w, true)),
            "{}",
            w.name()
        );
    }
}

#[test]
fn every_metric_in_the_interaction_list_is_reported() {
    let readme = manifest("README.md");
    let (_, section) = readme
        .split_once("## Interactions")
        .expect("interaction section");
    let section = section.split("\n## ").next().expect("section body");
    let mut reported = names(&small(Workload::LfpLong, false));
    reported.extend(names(&small(Workload::LfpLong, true)));
    let mut checked = 0;
    for token in section.split('`').skip(1).step_by(2) {
        let found = match token.strip_suffix('*') {
            Some(prefix) => reported.iter().any(|n| n.starts_with(prefix)),
            None => reported.contains(token),
        };
        if !Workload::ALL.iter().any(|w| w.name() == token) {
            assert!(found, "interaction list names unknown metric {token:?}");
            checked += 1;
        }
    }
    assert!(checked > 10, "interaction list not found");
}

#[test]
fn grid_pairs_match_the_public_pair_runner() {
    let jobs = Workload::GridSweep.jobs(7, Scale::Small).expect("grid");
    let r = round(&jobs[..4], false, 2);
    for (j, cfgs) in jobs[..4].iter().enumerate() {
        let pair = run_pair(&cfgs[0]);
        let ours: Vec<_> = r.records[2 * j..2 * j + 2]
            .iter()
            .map(|rec| rec.metrics.as_ref().expect("untraced").total_time)
            .collect();
        assert_eq!(ours, [pair.base.total_time, pair.prefetch.total_time]);
    }
}

#[test]
fn allocation_counts_repeat_exactly() {
    let jobs = Workload::GridSweep.jobs(7, Scale::Small).expect("grid");
    let count = || {
        let v = round(&jobs, false, 2).layers();
        [
            "host.setup.allocs",
            "host.simulate.allocs",
            "host.report.allocs",
            "host.simulate.alloc_bytes",
        ]
        .map(|k| v[k].0)
    };
    let first = count();
    assert!(first[1] > 0.0, "the counting allocator is installed");
    assert_eq!(first, count());
}

#[test]
fn options_are_all_required_and_checked() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let ok = parse_options(&args(
        "--workload grid-sweep --seed 3 --seconds 2 --trace 1",
    ))
    .unwrap();
    assert_eq!(
        ok,
        Options {
            workload: Workload::GridSweep,
            seed: 3,
            seconds: 2.0,
            trace: true
        }
    );
    for bad in [
        "--workload grid-sweep --seed 3 --seconds 2",
        "--workload nope --seed 3 --seconds 2 --trace 0",
        "--workload grid-sweep --seed x --seconds 2 --trace 0",
        "--workload grid-sweep --seed 3 --seconds 0 --trace 0",
        "--workload grid-sweep --seed 3 --seconds 2 --trace 2",
        "--workload grid-sweep --seed 3 --seconds 2 --trace 0 --extra 1",
        "--workload",
    ] {
        assert!(parse_options(&args(bad)).is_err(), "{bad}");
    }
}
