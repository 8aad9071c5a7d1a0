//! The `rapid-transit faults` sweep (`BENCH_faults.json`): one device
//! failure mode per scenario injected into the paper's `lfp`
//! configuration, plus the fault-free control `none`.

use rt_core::faults::{parse_fault_specs, FaultSpecError};
use rt_patterns::{AccessPattern, SyncStyle};
use rt_sim::SimDuration;

use crate::sweep::{machine, zero, Rule, Scenario, Shape, Sweep, HIT_RATIO, READ_MS, TOTAL_MS};

fn control(name: &str) -> bool {
    name == "none"
}

/// The fault sweep.
pub const SWEEP: Sweep = Sweep {
    name: "faults",
    out: "BENCH_faults.json",
    scenarios,
    shape: Shape::Pair,
    fields: &[
        TOTAL_MS,
        READ_MS,
        HIT_RATIO,
        ("io_errors", |m, _| m.faults.io_errors as f64),
        ("retries", |m, _| m.faults.retries as f64),
        ("retries_exhausted", |m, _| {
            m.faults.retries_exhausted as f64
        }),
        ("timeouts", |m, _| m.faults.timeouts as f64),
        ("redirects", |m, _| m.faults.redirects as f64),
        ("aborted_prefetches", |m, _| {
            m.faults.aborted_prefetches as f64
        }),
        ("degraded_skips", |m, _| m.faults.degraded_skips as f64),
        ("degraded_intervals", |m, _| {
            m.faults.degraded_intervals as f64
        }),
        ("degraded_time_ms", |m, _| {
            m.faults.degraded_time.as_millis_f64()
        }),
    ],
    soak: None,
    rules: &[Rule::Field("control-clean", control, "io_errors", zero)],
};

/// `(name, full spec, smoke spec, replicas, timeout ms)`; the smoke specs
/// fit its 4 disks and roughly a second of simulated time.
const SCENARIOS: [(&str, &str, &str, u16, u64); 6] = [
    ("none", "", "", 0, 0),
    ("straggler-x4", "straggler:7:x4", "straggler:2:x4", 0, 0),
    ("flaky-p30", "flaky:3:p0.3", "flaky:1:p0.3", 0, 0),
    ("outage-repair", "fail:5@1s-4s", "fail:3@100ms-400ms", 0, 0),
    ("outage-replica", "fail:5@1s", "fail:3@100ms", 1, 500),
    (
        "straggler-timeout",
        "straggler:7:x25",
        "straggler:2:x25",
        1,
        500,
    ),
];

fn scenarios(smoke: bool) -> Result<Vec<Scenario>, FaultSpecError> {
    let sync = SyncStyle::BlocksPerProc(10);
    let scenario = |(name, full, small, replicas, timeout_ms): (&str, &str, &str, u16, u64)| {
        let mut cfg = machine(AccessPattern::LocalFixedPortions, sync, smoke);
        cfg.faults.plan = parse_fault_specs(if smoke { small } else { full })?;
        cfg.faults.replicas = replicas;
        cfg.faults.retry.timeout = (timeout_ms > 0).then(|| SimDuration::from_millis(timeout_ms));
        Ok(Scenario::new(name, cfg))
    };
    SCENARIOS.into_iter().map(scenario).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn scenario_set_shape() {
        for smoke in [false, true] {
            let set = scenarios(smoke).unwrap();
            assert_eq!(set.len(), 6);
            assert_eq!(set[0].name, "none");
            assert!(!set[0].cfg.faults.is_active());
            for s in &set {
                s.cfg.validate().unwrap();
            }
        }
    }

    #[test]
    fn smoke_sweep_exercises_the_fault_path() {
        let rows = SWEEP.run(true).unwrap();
        let straggler = &rows[1].metrics(1).faults;
        assert!(
            straggler.degraded_intervals > 0 || straggler.degraded_skips > 0,
            "straggler scenario never degraded the device"
        );
        let flaky = &rows[2].metrics(0).faults;
        assert!(
            flaky.io_errors > 0 && flaky.retries > 0,
            "flaky never failed"
        );
        // The extreme straggler outlasts the 500 ms timeout, forcing
        // timeout-driven redirects to the replica.
        let timeouty = &rows[5].metrics(0).faults;
        assert!(timeouty.timeouts > 0 && timeouty.redirects > 0);
        let doc = SWEEP.report(&rows, true);
        SWEEP
            .validate(&Json::parse(&doc.pretty()).unwrap())
            .unwrap();
    }
}
