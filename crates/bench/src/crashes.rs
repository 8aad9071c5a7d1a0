//! The `rapid-transit crashes` sweep (`BENCH_crash.json`): each paper
//! pattern under an early permanent node crash, a crash that rejoins, and
//! a cascading three-node loss.

use rt_core::faults::{parse_all_fault_specs, FaultSpecError};
use rt_patterns::{AccessPattern, SyncStyle};

use crate::sweep::{machine, objects, Rule, Scenario, Shape, Sweep, ACCOUNTING, NO_VIOLATIONS};
use crate::sweep::{HIT_RATIO, READ_MS, TOTAL_MS, VERDICT};

/// The crash sweep.
pub const SWEEP: Sweep = Sweep {
    name: "crashes",
    out: "BENCH_crash.json",
    scenarios,
    shape: Shape::Pair,
    fields: &[
        TOTAL_MS,
        READ_MS,
        HIT_RATIO,
        ("crashes", |m, _| m.crash.crashes as f64),
        ("rejoins", |m, _| m.crash.rejoins as f64),
        ("lost_reads", |m, _| m.crash.lost_reads as f64),
        ("reclaimed_locks", |m, _| m.crash.reclaimed_locks as f64),
        ("reclaimed_pins", |m, _| m.crash.reclaimed_pins as f64),
        ("reclaimed_waiters", |m, _| m.crash.reclaimed_waiters as f64),
        ("orphaned_ios", |m, _| m.crash.orphaned_ios as f64),
        ("redistributed_prefetches", |m, _| {
            m.crash.redistributed_prefetches as f64
        }),
        VERDICT[0],
        VERDICT[1],
        VERDICT[2],
        VERDICT[3],
    ],
    soak: None,
    rules: &[
        NO_VIOLATIONS,
        ACCOUNTING,
        Rule::Report("crash-counts", |doc, c| {
            // The windows are chosen so every crash lands, and every
            // rejoiner comes back, before the run ends.
            for (ctx, name, run) in objects(doc) {
                let crashes = if name.ends_with("-cascade") { 3.0 } else { 1.0 };
                let rejoins = f64::from(u8::from(name.ends_with("-rejoin")));
                for (field, want) in [("crashes", crashes), ("rejoins", rejoins)] {
                    if let Some(got) = run.number(field).filter(|&got| got != want) {
                        c.fail(format!("{ctx}: {field} = {got}, want {want}"));
                    }
                }
            }
        }),
    ],
};

/// The crash modes as `--faults` specs: `(name, full, smoke)`.
const MODES: [(&str, &str, &str); 3] = [
    ("early", "crash:3@500ms", "crash:1@40ms"),
    (
        "rejoin",
        "crash:3@1s:rejoin@3s",
        "crash:1@60ms:rejoin@300ms",
    ),
    (
        "cascade",
        "crash:3@500ms,crash:7@1s,crash:11@1500ms",
        "crash:1@50ms,crash:2@100ms,crash:3@150ms",
    ),
];

fn scenarios(smoke: bool) -> Result<Vec<Scenario>, FaultSpecError> {
    let mut out = Vec::new();
    for pattern in AccessPattern::ALL {
        for (mode, full, small) in MODES {
            let mut cfg = machine(pattern, SyncStyle::BlocksPerProc(10), smoke);
            cfg.faults.crashes = parse_all_fault_specs(if smoke { small } else { full })?.1;
            out.push(Scenario::new(format!("{pattern}-{mode}"), cfg));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn scenario_set_shape() {
        for smoke in [false, true] {
            let set = scenarios(smoke).unwrap();
            assert_eq!(set.len(), 18, "6 patterns x 3 modes");
            for s in &set {
                s.cfg.validate().unwrap();
                assert!(!s.cfg.faults.crashes.is_empty());
                assert!(s.cfg.faults.plan.entries().is_empty());
            }
            let cascade = set.iter().find(|s| s.name == "gw-cascade").unwrap();
            assert_eq!(cascade.cfg.faults.crashes.entries().len(), 3);
            let rejoin = set.iter().find(|s| s.name == "lfp-rejoin").unwrap();
            assert!(rejoin.cfg.faults.crashes.entries()[0].rejoin.is_some());
        }
    }

    #[test]
    fn smoke_sweep_exercises_recovery() {
        let rows = SWEEP.run(true).unwrap();
        let early = &rows[0].runs[0].verdict;
        assert!(
            early.completed > 0 && early.completed < early.expected,
            "a crash loses reads"
        );
        let crash = |r: &crate::sweep::Row, i: usize| r.metrics(i).crash.clone();
        // At least one victim somewhere held something reclaimable, and
        // every rejoin run rejoined.
        let reclaimed: u64 = rows
            .iter()
            .flat_map(|r| [crash(r, 0), crash(r, 1)])
            .map(|c| c.reclaimed_locks + c.reclaimed_pins + c.reclaimed_waiters + c.orphaned_ios)
            .sum();
        assert!(reclaimed > 0, "no scenario reclaimed anything");
        let doc = SWEEP.report(&rows, true);
        SWEEP
            .validate(&Json::parse(&doc.pretty()).unwrap())
            .unwrap();
    }
}
