//! The `rapid-transit soak` sweep (`BENCH_overload.json`): a small
//! machine in sustained overload with bounded queues and prefetch
//! admission, whose prefetch half must stay no slower than its base half
//! and is then soaked over derived seeds.

use rt_core::faults::{parse_all_fault_specs, parse_fault_specs, FaultSpecError};
use rt_core::{AdmissionConfig, PrefetchConfig};
use rt_patterns::{AccessPattern, SyncStyle};
use rt_sim::SimDuration;

use crate::json::Json;
use crate::sweep::{machine, named, objects, Rule, Scenario, Shape, Soak, Sweep};
use crate::sweep::{EVENTS, HIT_RATIO, NO_VIOLATIONS, READ_MS, TOTAL_MS, VIOLATIONS};

/// Events each scenario's soak must check: `[full, smoke]`.
pub const SOAK_EVENTS: [u64; 2] = [1_000_000, 60_000];

/// The overload soak.
pub const SWEEP: Sweep = Sweep {
    name: "soak",
    out: "BENCH_overload.json",
    scenarios,
    shape: Shape::Pair,
    fields: &[
        TOTAL_MS,
        READ_MS,
        HIT_RATIO,
        ("prefetches_shed", |m, _| m.overload.prefetches_shed as f64),
        ("prefetches_throttled", |m, _| {
            m.overload.prefetches_throttled as f64
        }),
        ("demand_parked", |m, _| m.overload.demand_parked as f64),
        ("demand_behind_prefetch", |m, _| {
            m.overload.demand_behind_prefetch as f64
        }),
        ("cache_high_water_hits", |m, _| {
            m.overload.cache_high_water_hits as f64
        }),
        ("max_queue_depth", |m, _| m.overload.max_queue_depth as f64),
    ],
    soak: Some(Soak {
        key: "soak",
        events: SOAK_EVENTS,
        fields: &[EVENTS, ("runs", |_, v| v.runs as f64), VIOLATIONS],
    }),
    rules: &[
        NO_VIOLATIONS,
        Rule::Report("prefetch-pays", |doc, c| {
            for (name, s) in named(doc) {
                let total = |half| s.get(half).and_then(|r| r.number("total_ms"));
                if let (Some(base), Some(pf)) = (total("base"), total("prefetch")) {
                    if pf > base {
                        c.fail(format!(
                            "scenario {name}: prefetch half slower than base ({pf} vs {base} ms)"
                        ));
                    }
                }
            }
        }),
        Rule::Report("soak-floor", |doc, c| {
            let smoke = doc.get("smoke").and_then(Json::as_bool).unwrap_or(false);
            let floor = SOAK_EVENTS[usize::from(smoke)] as f64;
            let msg = format!("soak fell short of the {floor}-event floor");
            for (ctx, _, soak) in objects(doc).filter(|o| o.0.ends_with("/soak")) {
                if let Some(events) = soak.number("events").filter(|&e| e < floor) {
                    c.fail(format!("{ctx}: {msg} (events = {events})"));
                }
            }
        }),
    ],
};

/// The fixed scenario set, the same for smoke runs (only the soak
/// shrinks), all on the small machine so single runs are cheap and the
/// soak cycles hundreds of seeds: overload comes from the workload shape.
fn scenarios(_smoke: bool) -> Result<Vec<Scenario>, FaultSpecError> {
    use AccessPattern::{GlobalFixedPortions, GlobalWholeFile, LocalFixedPortions};
    use SyncStyle::{BlocksPerProc, BlocksTotal};
    let small = |name, pattern, sync, compute_us, disks| {
        let mut cfg = machine(pattern, sync, true);
        cfg.disks = disks;
        cfg.compute_mean = SimDuration::from_micros(compute_us);
        cfg.prefetch = PrefetchConfig::paper();
        cfg.queue_depth = Some(2);
        cfg.admission = AdmissionConfig::on(4);
        Scenario::new(name, cfg)
    };
    let mut set = vec![
        // Every node issues back-to-back reads; all four disks saturate.
        small("io-burst", GlobalWholeFile, SyncStyle::None, 500, 4),
        // Twice as many nodes as devices and barrier-released bursts, so
        // both depth-2 queues fill and demand reads park — the worst case
        // for shedding; the barrier gaps leave slack to prefetch into.
        small("hot-disk", GlobalWholeFile, BlocksTotal(40), 4_000, 2),
        // A total-blocks barrier releases all four nodes at once.
        small(
            "burst-barrier",
            GlobalFixedPortions,
            BlocksTotal(40),
            1_000,
            4,
        ),
        // Overload plus one device slowed 8x mid-run and another flaky.
        small(
            "straggler-storm",
            LocalFixedPortions,
            BlocksPerProc(10),
            1_000,
            4,
        ),
        // Overload plus one node bouncing (crash + rejoin) and another
        // dying for good: reclamation, barrier shrink, daemon failover.
        small("node-churn", GlobalWholeFile, BlocksPerProc(10), 1_000, 4),
    ];
    set[3].cfg.faults.plan = parse_fault_specs("straggler:2:x8@50ms-400ms,flaky:1:p0.2")?;
    set[4].cfg.faults.crashes = parse_all_fault_specs("crash:1@40ms:rejoin@160ms,crash:3@90ms")?.1;
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_set_shape() {
        let set = scenarios(false).unwrap();
        assert_eq!(set.len(), 5);
        for s in &set {
            s.cfg.validate().unwrap();
            assert_eq!(s.cfg.queue_depth, Some(2));
            assert!(s.cfg.admission.enabled);
            assert!(s.cfg.prefetch.enabled);
        }
        assert!(set[3].cfg.faults.is_active(), "storm scenario has faults");
        let churn = &set[4].cfg.faults.crashes;
        assert_eq!(churn.entries().len(), 2, "churn scenario crashes twice");
        assert!(churn.entries()[0].rejoin.is_some());
    }

    #[test]
    fn smoke_soak_is_clean_and_hits_backpressure() {
        let rows = SWEEP.run(true).unwrap();
        for r in &rows {
            assert_eq!(r.violation().map(|v| v.0), None, "{}", r.scenario.name);
            let (soak, _) = r.soak.as_ref().unwrap();
            assert!(soak.events >= SOAK_EVENTS[1] && soak.runs > 1);
        }
        let hot = rows.iter().find(|r| r.scenario.name == "hot-disk").unwrap();
        let o = &hot.metrics(1).overload;
        assert!(
            o.prefetches_shed + o.prefetches_throttled + o.demand_parked > 0,
            "hot-disk scenario never hit backpressure: {o:?}"
        );
        let doc = SWEEP.report(&rows, true);
        SWEEP
            .validate(&Json::parse(&doc.pretty()).unwrap())
            .unwrap();
    }
}
