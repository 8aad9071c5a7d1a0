//! The `rapid-transit integrity` sweep (`BENCH_integrity.json`): each
//! paper pattern clean, with silent-corruption windows, and with the
//! windows plus the idle-time scrubber, all with one replica for repair.

use rt_core::faults::{parse_fault_specs, FaultSpecError};
use rt_core::PrefetchConfig;
use rt_patterns::{AccessPattern, SyncStyle};

use crate::json::Json;
use crate::sweep::{every, machine, named, objects, positive, zero, Rule, Scenario, Shape, Soak};
use crate::sweep::{Sweep, EVENTS, HIT_RATIO, NO_VIOLATIONS, READ_MS, TOTAL_MS, VIOLATIONS};

/// The three ways each pattern runs.
pub const VARIANTS: [&str; 3] = ["clean", "corrupt", "corrupt-scrub"];

fn clean(name: &str) -> bool {
    name.ends_with("/clean")
}

/// The integrity sweep.
pub const SWEEP: Sweep = Sweep {
    name: "integrity",
    out: "BENCH_integrity.json",
    scenarios,
    shape: Shape::Single,
    fields: &[
        TOTAL_MS,
        READ_MS,
        HIT_RATIO,
        ("corruptions", |m, _| m.integrity.corruptions as f64),
        ("detections", |m, _| m.integrity.detections as f64),
        ("repairs", |m, _| m.integrity.repairs as f64),
        ("rewrites", |m, _| m.integrity.rewrites as f64),
        ("scrubbed", |m, _| m.integrity.scrubbed as f64),
        ("scrub_detections", |m, _| {
            m.integrity.scrub_detections as f64
        }),
        ("poisoned_blocks", |m, _| m.integrity.poisoned_blocks as f64),
        ("failed_reads", |m, _| m.integrity.failed_reads as f64),
        ("corrupt_delivered", |m, _| {
            m.integrity.corrupt_delivered as f64
        }),
        ("quarantines", |m, _| m.integrity.quarantines as f64),
        ("quarantined_ms", |m, _| {
            m.integrity.quarantined_time.as_millis_f64()
        }),
    ],
    soak: Some(Soak {
        key: "observed",
        events: [0, 0],
        fields: &[EVENTS, VIOLATIONS],
    }),
    rules: &[
        NO_VIOLATIONS,
        Rule::Field("no-corrupt-delivery", every, "corrupt_delivered", zero),
        Rule::Field("control-uncorrupted", clean, "corruptions", zero),
        Rule::Field("control-unpoisoned", clean, "poisoned_blocks", zero),
        Rule::Field("observed-ran", every, "events", positive),
        Rule::Report("all-caught", |doc, c| {
            for (ctx, _, run) in objects(doc).filter(|o| !clean(o.1) && o.0.ends_with("/run")) {
                let n = |k| run.number(k).unwrap_or(0.0);
                let (corrupt, caught) = (n("corruptions"), n("detections") + n("scrub_detections"));
                if corrupt == 0.0 || caught != corrupt {
                    c.fail(format!(
                        "{ctx}: {corrupt} corruptions observed, {caught} caught"
                    ));
                }
            }
        }),
        Rule::Report("scrubbed", |doc, c| {
            let mut scrub = named(doc)
                .filter(|(n, _)| n.ends_with("/corrupt-scrub"))
                .peekable();
            let idle = |s: &Json| s.get("run").and_then(|r| r.number("scrubbed")) == Some(0.0);
            if scrub.peek().is_some() && scrub.all(|(_, s)| idle(s)) {
                c.fail("scrub variants never issued a scrub read");
            }
        }),
    ],
};

fn scenarios(smoke: bool) -> Result<Vec<Scenario>, FaultSpecError> {
    let mut out = Vec::new();
    for pattern in AccessPattern::ALL {
        for variant in VARIANTS {
            let mut cfg = machine(pattern, SyncStyle::BlocksPerProc(10), smoke);
            cfg.prefetch = PrefetchConfig::paper();
            if variant != "clean" {
                // One device corrupting for the whole run, another for a
                // window — both indices exist on the 4-disk smoke machine.
                cfg.faults.plan = parse_fault_specs("corrupt:1:p0.2,corrupt:2:p0.3@50ms-900ms")?;
                cfg.faults.replicas = 1;
            }
            cfg.integrity.scrub = variant == "corrupt-scrub";
            let scenario = Scenario::new(format!("{pattern}/{variant}"), cfg);
            out.push(Scenario {
                variant: Some(variant),
                ..scenario
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_set_shape() {
        for smoke in [false, true] {
            let set = scenarios(smoke).unwrap();
            assert_eq!(set.len(), AccessPattern::ALL.len() * VARIANTS.len());
            for s in &set {
                s.cfg.validate().unwrap();
                if s.variant == Some("clean") {
                    assert!(!s.cfg.integrity.active_with(&s.cfg.faults.plan));
                } else {
                    assert!(s.cfg.faults.plan.has_corruption());
                    assert_eq!(s.cfg.faults.replicas, 1);
                }
                assert_eq!(s.variant == Some("corrupt-scrub"), s.cfg.integrity.scrub);
            }
        }
    }

    #[test]
    fn smoke_sweep_produces_valid_report() {
        let rows = SWEEP.run(true).unwrap();
        for r in &rows {
            assert_eq!(r.violation().map(|v| v.0), None, "{}", r.scenario.name);
        }
        let doc = SWEEP.report(&rows, true);
        SWEEP
            .validate(&Json::parse(&doc.pretty()).unwrap())
            .unwrap();
    }
}
