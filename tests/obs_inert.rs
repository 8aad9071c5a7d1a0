//! The observability layer must be *provably inert*: enabling recording
//! — any ring size, any sampling cadence — cannot change a single
//! simulated outcome, because recording never schedules events, never
//! touches the RNG, and never perturbs ordering. These tests pin that
//! property, the exactness of per-read latency attribution, and the
//! flight recorder's postmortem path.

use proptest::prelude::*;

use rapid_transit::bench::json::Json;
use rapid_transit::bench::trace_check::validate_trace;
use rapid_transit::bench::{soak, FlightDump};
use rapid_transit::core::experiment::{
    run_experiment, run_experiment_observed, run_experiment_traced,
};
use rapid_transit::core::faults::parse_fault_specs;
use rapid_transit::core::{
    AdmissionConfig, ExperimentConfig, ObsConfig, PrefetchConfig, RunMetrics, World,
};
use rapid_transit::patterns::{AccessPattern, SyncStyle, WorkloadParams};
use rapid_transit::sim::{run_observed, ObservedEnd, Scheduler, SimDuration};

/// The fields that pin a run bit-for-bit.
fn fingerprint(m: &RunMetrics) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        m.total_time.as_nanos(),
        m.reads.total().as_nanos(),
        m.ready_hits,
        m.unready_hits,
        m.misses,
        m.disk_ops,
        m.prefetches,
        m.barriers,
    )
}

/// Every paper pattern, with and without prefetching, produces the
/// bit-identical fingerprint whether observation is off, on with the
/// default ring, or on with the tiny flight-recorder ring (so eviction
/// under overwrite pressure is covered too).
#[test]
fn recording_is_inert_for_every_paper_pattern() {
    for pattern in AccessPattern::ALL {
        for &pf in &[false, true] {
            let mut cfg = ExperimentConfig::paper_default(pattern, SyncStyle::BlocksPerProc(10));
            if pf {
                cfg.prefetch = PrefetchConfig::paper();
            }
            let plain = fingerprint(&run_experiment(&cfg));
            let (observed, data) = run_experiment_observed(&cfg, ObsConfig::default());
            assert_eq!(
                plain,
                fingerprint(&observed),
                "{pattern}/pf={pf}: recording with the default ring changed the run"
            );
            assert!(
                !data.events.is_empty(),
                "{pattern}/pf={pf}: observed run recorded nothing"
            );
            let (tiny, _) = run_experiment_observed(&cfg, ObsConfig::flight_recorder());
            assert_eq!(
                plain,
                fingerprint(&tiny),
                "{pattern}/pf={pf}: the flight-recorder ring changed the run"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Attribution telescopes: for every completed read — under any mix of
    /// device faults, silent corruption, bounded queues, prefetch
    /// admission, hedged reads, retry budgets, and circuit breakers —
    /// the eight latency components sum *exactly* (integer nanoseconds)
    /// to the observed read time.
    #[test]
    fn attribution_sums_to_read_time_under_chaos(
        seed in any::<u64>(),
        pattern in prop::sample::select(AccessPattern::ALL.to_vec()),
        bounded_queue in any::<bool>(),
        admission in any::<bool>(),
        straggler in any::<bool>(),
        flaky in any::<bool>(),
        corrupt in any::<bool>(),
        hedge in any::<bool>(),
        budget in any::<bool>(),
        breaker in any::<bool>(),
    ) {
        let mut cfg = ExperimentConfig::paper_default(pattern, SyncStyle::BlocksPerProc(10));
        cfg.procs = 4;
        cfg.disks = 4;
        cfg.workload = WorkloadParams {
            procs: 4,
            file_blocks: 200,
            total_reads: 200,
            ..WorkloadParams::paper()
        };
        cfg.compute_mean = SimDuration::from_millis(1);
        cfg.seed = seed;
        cfg.prefetch = PrefetchConfig::paper();
        if bounded_queue {
            cfg.queue_depth = Some(2);
        }
        if admission {
            cfg.admission = AdmissionConfig::on(4);
        }
        let mut specs = Vec::new();
        if straggler {
            specs.push("straggler:0:x4@10ms-400ms");
        }
        if flaky {
            specs.push("flaky:1:p0.1");
        }
        if corrupt {
            specs.push("corrupt:2:p0.2@0ms-800ms");
        }
        if !specs.is_empty() {
            cfg.faults.plan = parse_fault_specs(&specs.join(",")).unwrap();
        }
        // The tail layer feeds the hedge_wait component; any knob needs a
        // replica to steer to and a timeout to drive the retry machinery.
        if hedge || budget || breaker {
            cfg.faults.replicas = 1;
            cfg.faults.retry.timeout = Some(SimDuration::from_millis(150));
        }
        if hedge {
            cfg.faults.hedge.delay = Some(SimDuration::from_millis(40));
        }
        if budget {
            cfg.faults.budget.capacity = Some(4);
            cfg.faults.budget.refill = 0.25;
        }
        if breaker {
            cfg.faults.breaker.enabled = true;
            cfg.faults.breaker.error_threshold = 0.5;
        }
        let (m, trace) = run_experiment_traced(&cfg);
        prop_assert_eq!(trace.len() as u64, m.total_reads());
        for (i, ev) in trace.events().iter().enumerate() {
            prop_assert_eq!(
                ev.attr.sum(),
                ev.read_time().as_nanos(),
                "read {} ({:?}): attribution {:?} does not telescope to {} ns",
                i, ev.outcome, ev.attr, ev.read_time().as_nanos()
            );
        }
    }
}

/// A mid-run invariant violation leaves a usable postmortem: the flight
/// recorder's Perfetto dump parses, passes the full trace validator
/// (track discipline, exact attribution sums), and the human-readable
/// tail is non-empty.
#[test]
fn forced_violation_yields_valid_flight_dump() {
    let cfg = (soak::SWEEP.scenarios)(false)
        .unwrap()
        .into_iter()
        .next()
        .expect("soak scenario set is non-empty")
        .cfg;
    let mut world = World::new(cfg);
    world.enable_obs(ObsConfig::flight_recorder());
    let mut sched = Scheduler::new();
    world.bootstrap(&mut sched);
    let end = run_observed(&mut world, &mut sched, 1_000_000, |_, events| {
        if events >= 2_000 {
            Err("synthetic tripwire".to_string())
        } else {
            Ok(())
        }
    });
    match end {
        ObservedEnd::Violation {
            message, events, ..
        } => {
            assert!(message.contains("synthetic tripwire"), "{message}");
            assert!(events >= 2_000);
        }
        other => panic!("expected a violation, got {other:?}"),
    }
    let dump = FlightDump::take(&mut world).expect("observed world yields a dump");
    let doc = Json::parse(&dump.perfetto).expect("flight dump parses as JSON");
    let stats = validate_trace(&doc).expect("flight dump passes the trace validator");
    assert!(stats.events > 0, "empty flight recording");
    assert!(!dump.tail.is_empty(), "empty human-readable tail");
}
