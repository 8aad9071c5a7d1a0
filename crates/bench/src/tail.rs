//! The `rapid-transit tail` sweep (`BENCH_tail.json`): each paper pattern
//! under a straggler, an outage, and a straggler plus a crash/rejoin, each
//! under three policies — `timeout` (timeout and redirect), `hedge` (plus
//! hedged reads) and `full` (plus a retry budget and circuit breakers).

use rt_core::faults::{parse_all_fault_specs, FaultSpecError};
use rt_patterns::{AccessPattern, SyncStyle};
use rt_sim::SimDuration;

use crate::sweep::{every, machine, named, objects, positive, zero, Rule, Scenario, Shape, Sweep};
use crate::sweep::{ACCOUNTING, NO_VIOLATIONS, READ_MS, TOTAL_MS, VERDICT};

fn timeout_only(name: &str) -> bool {
    name.ends_with("-timeout")
}

fn hedged_straggler(name: &str) -> bool {
    name.contains("-straggler-") && !timeout_only(name)
}

fn full_outage(name: &str) -> bool {
    name.contains("-outage-") && name.ends_with("-full")
}

/// Retry-budget token bucket for the `full` policy.
pub const BUDGET_CAPACITY: u32 = 32;
/// Tokens refilled per successful disk completion in the `full` policy.
pub const BUDGET_REFILL: f64 = 0.25;

/// The fault modes as `--faults` specs: `(name, full, smoke)`.
const MODES: [(&str, &str, &str); 3] = [
    ("straggler", "straggler:0:x8", "straggler:0:x8"),
    ("outage", "fail:0@500ms-2500ms", "fail:0@40ms-400ms"),
    (
        "straggler-crash",
        "straggler:0:x8,crash:3@1s:rejoin@3s",
        "straggler:0:x8,crash:1@60ms:rejoin@300ms",
    ),
];

/// The three mitigation policies.
pub const POLICIES: [&str; 3] = ["timeout", "hedge", "full"];

/// The tail sweep.
pub const SWEEP: Sweep = Sweep {
    name: "tail",
    out: "BENCH_tail.json",
    scenarios,
    shape: Shape::Single,
    fields: &[
        TOTAL_MS,
        READ_MS,
        ("read_p99_ms", |m, _| m.read_quantile_ms(0.99)),
        ("hedged_p99_ms", |m, _| m.hedged_read_quantile_ms(0.99)),
        ("timeouts", |m, _| m.faults.timeouts as f64),
        ("retries", |m, _| m.faults.retries as f64),
        ("disk_ops", |m, _| m.disk_ops as f64),
        ("hedges_launched", |m, _| m.tail.hedges_launched as f64),
        ("hedge_wins", |m, _| m.tail.hedge_wins as f64),
        ("hedge_wasted", |m, _| m.tail.hedge_wasted as f64),
        ("hedge_cancels", |m, _| m.tail.hedge_cancels as f64),
        ("retries_denied", |m, _| m.tail.retries_denied as f64),
        ("budget_spent", |m, _| m.tail.budget_spent as f64),
        ("breaker_opens", |m, _| m.tail.breaker_opens as f64),
        ("probe_successes", |m, _| m.tail.probe_successes as f64),
        ("duplicate_deliveries", |m, _| {
            m.tail.duplicate_deliveries as f64
        }),
        ("lost_reads", |m, _| m.crash.lost_reads as f64),
        VERDICT[0],
        VERDICT[1],
        VERDICT[2],
        VERDICT[3],
    ],
    soak: None,
    rules: &[
        NO_VIOLATIONS,
        ACCOUNTING,
        Rule::Field("exactly-once", every, "duplicate_deliveries", zero),
        Rule::Field("timeout-unhedged", timeout_only, "hedges_launched", zero),
        Rule::Field("timeout-unbudgeted", timeout_only, "budget_spent", zero),
        Rule::Field("timeout-unbroken", timeout_only, "breaker_opens", zero),
        Rule::Field("hedges-fire", hedged_straggler, "hedges_launched", positive),
        Rule::Field("breakers-open", full_outage, "breaker_opens", positive),
        Rule::Report("budget-bound", |doc, c| {
            for (ctx, _, run) in objects(doc).filter(|o| o.1.ends_with("-full")) {
                let (Some(spent), Some(ops)) = (run.number("budget_spent"), run.number("disk_ops"))
                else {
                    continue;
                };
                let bound = f64::from(BUDGET_CAPACITY) + BUDGET_REFILL * ops;
                if spent > bound {
                    c.fail(format!(
                        "{ctx}: budget_spent {spent} exceeds the bucket bound {bound}"
                    ));
                }
            }
        }),
        Rule::Report("hedged-p99", |doc, c| {
            let p99 = |name: String| {
                named(doc)
                    .find(|s| s.0 == name)?
                    .1
                    .get("run")?
                    .number("read_p99_ms")
            };
            for pat in AccessPattern::ALL {
                let base = p99(format!("{pat}-straggler-timeout"));
                if let (Some(base), Some(hedged)) = (base, p99(format!("{pat}-straggler-hedge"))) {
                    if hedged > base {
                        c.fail(format!("{pat}-straggler: hedged p99 {hedged:.2} ms > timeout-only {base:.2} ms"));
                    }
                }
            }
        }),
    ],
};

fn scenarios(smoke: bool) -> Result<Vec<Scenario>, FaultSpecError> {
    let mut out = Vec::new();
    for pattern in AccessPattern::ALL {
        for (mode, full, small) in MODES {
            for policy in POLICIES {
                let mut cfg = machine(pattern, SyncStyle::BlocksPerProc(10), smoke);
                let f = &mut cfg.faults;
                (f.plan, f.crashes) = parse_all_fault_specs(if smoke { small } else { full })?;
                // Every policy keeps the same timeout and replica count,
                // so only the tail machinery moves. Under the paper's
                // 30 ms disk an x8 straggler holds a fetch for 240 ms, so
                // the 60 ms hedge fires long before the 150 ms timeout.
                f.replicas = 1;
                f.retry.timeout = Some(SimDuration::from_millis(150));
                f.hedge.delay = (policy != "timeout").then(|| SimDuration::from_millis(60));
                if policy == "full" {
                    f.budget.capacity = Some(BUDGET_CAPACITY);
                    f.budget.refill = BUDGET_REFILL;
                    f.breaker.enabled = true;
                    // Two consecutive errors trip the breaker (EWMA 0.3
                    // then 0.51): quarantine steers demand away so fast
                    // that an outage yields only a couple of errors.
                    f.breaker.error_threshold = 0.5;
                }
                out.push(Scenario::new(format!("{pattern}-{mode}-{policy}"), cfg));
            }
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
            assert_eq!(set.len(), 54, "6 patterns x 3 modes x 3 policies");
            for s in &set {
                s.cfg.validate().unwrap();
                let f = &s.cfg.faults;
                assert_eq!(f.replicas, 1);
                assert!(f.retry.timeout.is_some());
                let hedging = !s.name.ends_with("-timeout");
                assert_eq!(f.hedge.delay.is_some(), hedging, "{}", s.name);
                assert_eq!(f.breaker.enabled, s.name.ends_with("-full"), "{}", s.name);
                let crashing = s.name.contains("-straggler-crash-");
                assert_eq!(!f.crashes.is_empty(), crashing, "{}", s.name);
            }
        }
    }

    #[test]
    fn smoke_sweep_hedges_exactly_once() {
        let rows = SWEEP.run(true).unwrap();
        let tail = |r: &crate::sweep::Row| r.metrics(0).tail.clone();
        // Hedges won somewhere, and no loser was ever double-delivered.
        assert!(
            rows.iter().map(|r| tail(r).hedge_wins).sum::<u64>() > 0,
            "no hedge ever won"
        );
        for r in &rows {
            assert_eq!(tail(r).duplicate_deliveries, 0, "{}", r.scenario.name);
        }
        let doc = SWEEP.report(&rows, true);
        SWEEP
            .validate(&Json::parse(&doc.pretty()).unwrap())
            .unwrap();
    }
}
