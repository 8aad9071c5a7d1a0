//! Experiment execution: single runs, prefetch-vs-base pairs, the paper's
//! full grid, a thread-parallel sweep runner, and forkable run handles
//! that let identical-configuration replicas share a warmed-up prefix.

use rt_patterns::{AccessPattern, SyncStyle};
use rt_sim::{run, run_observed, run_until, run_with_stats, ObservedEnd, Scheduler};

pub use crate::config::ExperimentConfig;

use crate::config::PrefetchConfig;
use crate::metrics::{RunMetrics, RunPair};
use crate::world::{Ev, World};

/// Backstop on events per run; real experiments use a few hundred thousand.
const MAX_EVENTS: u64 = 500_000_000;

/// Run one experiment to completion and collect its metrics.
pub fn run_experiment(cfg: &ExperimentConfig) -> RunMetrics {
    let (metrics, _, _) = run_with_world(cfg, false, false);
    metrics
}

/// Run one experiment with access tracing enabled, returning the metrics
/// and the exact access pattern for off-line analysis (§IV-C).
pub fn run_experiment_traced(cfg: &ExperimentConfig) -> (RunMetrics, crate::trace::Trace) {
    let (metrics, trace, _) = run_with_world(cfg, true, false);
    (metrics, trace.expect("tracing was enabled"))
}

/// Host-side performance counters for one experiment run.
#[derive(Clone, Copy, Debug)]
pub struct RunPerf {
    /// Events the engine dispatched.
    pub events: u64,
    /// Host wall-clock time spent in the event loop.
    pub wall: std::time::Duration,
    /// Largest number of simultaneously pending events.
    pub peak_pending: usize,
}

impl RunPerf {
    /// Events dispatched per host-clock second.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.events as f64 / secs
        }
    }
}

/// Run one experiment and report how fast the host simulated it alongside
/// the simulated metrics. The metrics are identical to [`run_experiment`]'s.
pub fn run_experiment_instrumented(cfg: &ExperimentConfig) -> (RunMetrics, RunPerf) {
    let (metrics, _, perf) = run_with_world(cfg, false, true);
    (metrics, perf.expect("instrumentation was enabled"))
}

/// Run one experiment with telemetry recording enabled, returning the
/// metrics alongside the recorded [`ObsData`] (spans, instants, and epoch
/// gauge series). Recording is inert: the metrics are bit-identical to
/// [`run_experiment`]'s (see `tests/obs_inert.rs`).
pub fn run_experiment_observed(
    cfg: &ExperimentConfig,
    obs: crate::world::ObsConfig,
) -> (RunMetrics, crate::world::ObsData) {
    let workload = std::sync::Arc::new(crate::world::generate_workload(cfg));
    let mut world = World::with_workload(cfg.clone(), workload);
    world.enable_obs(obs);
    let mut sched = Scheduler::new();
    world.bootstrap(&mut sched);
    let outcome = run(&mut world, &mut sched, MAX_EVENTS);
    assert!(
        !outcome.budget_exhausted,
        "simulation exceeded the event budget: {}",
        cfg.label()
    );
    assert!(world.complete(), "simulation drained without finishing");
    world.obs_sample_drained(outcome.end_time);
    let metrics = collect_metrics(&mut world, outcome.end_time);
    let data = world.take_obs().expect("observation was enabled");
    (metrics, data)
}

fn run_with_world(
    cfg: &ExperimentConfig,
    traced: bool,
    instrumented: bool,
) -> (RunMetrics, Option<crate::trace::Trace>, Option<RunPerf>) {
    let workload = std::sync::Arc::new(crate::world::generate_workload(cfg));
    run_shared_world(cfg, workload, traced, instrumented)
}

fn run_shared_world(
    cfg: &ExperimentConfig,
    workload: std::sync::Arc<rt_patterns::Workload>,
    traced: bool,
    instrumented: bool,
) -> (RunMetrics, Option<crate::trace::Trace>, Option<RunPerf>) {
    let mut world = World::with_workload(cfg.clone(), workload);
    if traced {
        world.enable_tracing();
    }
    let mut sched = Scheduler::new();
    world.bootstrap(&mut sched);
    let (outcome, perf) = if instrumented {
        let stats = run_with_stats(&mut world, &mut sched, MAX_EVENTS);
        (
            stats.outcome,
            Some(RunPerf {
                events: stats.outcome.events,
                wall: stats.wall,
                peak_pending: stats.peak_pending,
            }),
        )
    } else {
        (run(&mut world, &mut sched, MAX_EVENTS), None)
    };
    assert!(
        !outcome.budget_exhausted,
        "simulation exceeded the event budget: {}",
        cfg.label()
    );
    assert!(world.complete(), "simulation drained without finishing");

    let metrics = collect_metrics(&mut world, outcome.end_time);
    let trace = world.take_trace();
    (metrics, trace, perf)
}

/// Assemble the run's [`RunMetrics`] from a completed world. The sample
/// reservoirs are moved out (every caller drops the world next) and each
/// is sorted once, so quantile queries on the metrics copy nothing.
fn collect_metrics(world: &mut World, end_time: rt_sim::SimTime) -> RunMetrics {
    let sorted = |s: &mut rt_sim::Sampled| {
        let mut s = std::mem::take(s);
        s.sort();
        s
    };
    let read_times = sorted(&mut world.rec.read_times);
    let disk_response_times = sorted(&mut world.rec.disk_responses);
    let hit_wait = sorted(&mut world.rec.hit_wait);
    let hedged_read_times = sorted(&mut world.rec.hedged_read_times);
    let cfg = world.cfg();
    let pool_stats = world.pool().stats().clone();
    let disks = world.disks();
    let finish = world.finish_times();
    let total_time = finish
        .iter()
        .copied()
        .max()
        .expect("at least one process")
        .saturating_since(rt_sim::SimTime::ZERO);

    RunMetrics {
        total_time,
        proc_finish: finish.clone(),
        reads: world.rec.reads.clone(),
        read_times,
        disk_response_times,
        hit_ratio: pool_stats.hit_ratio.value(),
        ready_hits: pool_stats.ready_hits,
        unready_hits: pool_stats.unready_hits,
        misses: pool_stats.misses,
        hit_wait,
        disk_response: disks.response(),
        disk_ops: disks.total_ops(),
        disk_utilization: disks.mean_utilization(end_time),
        demand_fetches: pool_stats.demand_fetches,
        prefetches: pool_stats.prefetches,
        sync_wait: world.barrier().sync_wait().clone(),
        barriers: world.barrier().episodes(),
        action_time: world.rec.action_time.clone(),
        failed_actions: world.rec.empty_actions + world.rec.blocked_actions,
        overrun: world.rec.overrun.clone(),
        idle_necessary: world.rec.idle_necessary.clone(),
        idle_actual: world.rec.idle_actual.clone(),
        lock_wait: world.lock().wait().clone(),
        alloc_retries: world.rec.alloc_retries,
        per_proc: (0..cfg.procs as usize)
            .map(|p| crate::metrics::ProcMetrics {
                reads: world.rec.proc_reads[p].clone(),
                hits: world.rec.proc_hits[p],
                prefetches_issued: world.rec.proc_prefetches[p],
                finish: finish[p],
            })
            .collect(),
        faults: world.fault_metrics(end_time),
        overload: world.overload_metrics(),
        integrity: world.integrity_metrics(end_time),
        crash: world.crash_metrics(),
        tail: world.tail_metrics(),
        hedged_read_times,
    }
}

/// Event budget of one [`run_checked`] run; the sweeps' runs take a few
/// tens of thousands of events, so hitting it means the run diverged.
const CHECKED_EVENT_BUDGET: u64 = 20_000_000;

/// [`run_checked`]'s watchdog window: this many events without a
/// completed read, crash or rejoin means livelock.
const STALL_WINDOW: u64 = 200_000;

/// What [`run_checked`] found out about one run.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Events dispatched.
    pub events: u64,
    /// Runs covered (one per [`run_checked`]; soaks add theirs up).
    pub runs: u64,
    /// Reads the survivors (and any rejoiner) completed.
    pub completed: u64,
    /// Unread tail of permanently dead nodes' reference strings.
    pub abandoned: u64,
    /// Reads the workload would have performed crash-free.
    pub expected: u64,
    /// First failed check (`None` means the run is clean).
    pub violation: Option<String>,
}

/// One run measured and checked at once: see [`run_checked`].
pub struct Checked {
    /// What the checks found.
    pub verdict: Verdict,
    /// The metrics collected from the checked world itself when every
    /// check passed, else the flight recording for a postmortem.
    pub result: Result<RunMetrics, crate::world::ObsData>,
}

/// Run `cfg` once with the flight recorder on and every invariant
/// checked: [`World::check_soak_invariants`] after every event, a
/// livelock watchdog (200 000 events without a completed read, crash or
/// rejoin), a 20 000 000-event backstop, and at drain `complete()`,
/// [`World::check_terminal_invariants`] and
/// `completed + lost + abandoned == expected`. Recording and checking
/// are inert, so a clean run's metrics equal [`run_experiment`]'s. A
/// failed check comes back in the verdict, never as a panic.
pub fn run_checked(cfg: &ExperimentConfig) -> Checked {
    run_checked_within(cfg, CHECKED_EVENT_BUDGET)
}

fn run_checked_within(cfg: &ExperimentConfig, budget: u64) -> Checked {
    let workload = std::sync::Arc::new(crate::world::generate_workload(cfg));
    let expected = workload.total_reads() as u64;
    let mut world = World::with_workload(cfg.clone(), workload);
    world.enable_obs(crate::world::ObsConfig::flight_recorder());
    let mut sched = Scheduler::new();
    world.bootstrap(&mut sched);
    let (mut last_mark, mut last_progress) = (0u64, 0u64);
    let end = run_observed(&mut world, &mut sched, budget, |w, events| {
        w.check_soak_invariants()?;
        let c = w.crash_metrics();
        let mark = w.reads_done() + c.crashes + c.rejoins;
        if mark > last_mark {
            (last_mark, last_progress) = (mark, events);
        } else if events - last_progress > STALL_WINDOW {
            return Err(format!(
                "livelock: {} events since the last completed read",
                events - last_progress
            ));
        }
        Ok(())
    });
    let (completed, lost) = (world.reads_done(), world.crash_metrics().lost_reads);
    let abandoned = world.abandoned_reads();
    let (events, violation) = match end {
        ObservedEnd::Violation {
            message,
            at,
            events,
        } => (
            events,
            Some(format!("{message} (at {at:?}, event {events})")),
        ),
        ObservedEnd::Finished(run) if run.budget_exhausted => (
            run.events,
            Some(format!("run exceeded the {budget}-event budget")),
        ),
        ObservedEnd::Finished(run) if !world.complete() => {
            (run.events, Some("run drained without finishing".into()))
        }
        ObservedEnd::Finished(run) => {
            let terminal = world.check_terminal_invariants(sched.now()).err();
            let accounting = (completed + lost + abandoned != expected).then(|| {
                format!(
                    "read accounting: {completed} completed + {lost} lost + \
                     {abandoned} abandoned != {expected} expected"
                )
            });
            (run.events, terminal.or(accounting))
        }
    };
    let result = match violation {
        None => Ok(collect_metrics(&mut world, sched.now())),
        Some(_) => Err(world.take_obs().expect("the flight recorder was on")),
    };
    Checked {
        result,
        verdict: Verdict {
            events,
            runs: 1,
            completed,
            abandoned,
            expected,
            violation,
        },
    }
}

/// A pausable, forkable experiment: the world together with its scheduler.
///
/// The straight-line runners above build a world, pump it dry, and collect
/// metrics. A `RunHandle` exposes the intermediate states: advance to a
/// fork point, [`fork`](RunHandle::fork) as many independent continuations
/// as needed (each clone carries the full machine state *and* the pending
/// event set), and [`finish`](RunHandle::finish) each one. A fork resumed
/// to completion produces bit-identical metrics to an uninterrupted run of
/// the same configuration — the engine dispatches the exact same event
/// sequence either way (see the `fork_*` tests and the property test in
/// `tests/prop_experiments.rs`).
///
/// Identical-configuration replicas (sweep grids, perf reps) use this to
/// pay the warm-up prefix once instead of once per replica.
pub struct RunHandle {
    world: World,
    sched: Scheduler<Ev>,
}

impl RunHandle {
    /// Build the world for `cfg` and schedule its initial events.
    pub fn start(cfg: &ExperimentConfig) -> Self {
        let workload = std::sync::Arc::new(crate::world::generate_workload(cfg));
        Self::start_shared(cfg, workload)
    }

    /// Like [`start`](RunHandle::start) around an already-generated
    /// workload (which must equal `generate_workload(cfg)`).
    pub fn start_shared(
        cfg: &ExperimentConfig,
        workload: std::sync::Arc<rt_patterns::Workload>,
    ) -> Self {
        let world = World::with_workload(cfg.clone(), workload);
        let mut sched = Scheduler::new();
        world.bootstrap(&mut sched);
        RunHandle { world, sched }
    }

    /// Advance until at least `reads` reads have completed (or the run
    /// drains first). Returns the number of reads actually completed.
    /// Stopping points are exact event boundaries, so forks taken here
    /// resume deterministically.
    pub fn advance_to_reads(&mut self, reads: u64) -> u64 {
        let out = run_until(&mut self.world, &mut self.sched, MAX_EVENTS, |w| {
            w.reads_done() >= reads
        });
        assert!(
            !out.budget_exhausted,
            "simulation exceeded the event budget"
        );
        self.world.reads_done()
    }

    /// Reads completed so far.
    pub fn reads_done(&self) -> u64 {
        self.world.reads_done()
    }

    /// Events dispatched so far.
    pub fn events_fired(&self) -> u64 {
        self.sched.events_fired()
    }

    /// Snapshot the run: a deep copy of the machine and the pending event
    /// set. The fork and the original evolve independently from here.
    pub fn fork(&self) -> Self {
        RunHandle {
            world: self.world.clone(),
            sched: self.sched.clone(),
        }
    }

    /// Run to completion and collect the metrics.
    pub fn finish(mut self) -> RunMetrics {
        let out = run(&mut self.world, &mut self.sched, MAX_EVENTS);
        assert!(
            !out.budget_exhausted,
            "simulation exceeded the event budget"
        );
        assert!(
            self.world.complete(),
            "simulation drained without finishing"
        );
        collect_metrics(&mut self.world, out.end_time)
    }
}

/// Run `reps` identical copies of `cfg`, sharing one warmed-up prefix:
/// a single run is advanced to `warm_fraction` of its reads, forked per
/// replica, and each fork finished independently (the warm handle itself
/// serves as the last replica). Every returned [`RunMetrics`] is
/// bit-identical to an uninterrupted [`run_experiment`] of `cfg` — the
/// fork only avoids recomputing the shared prefix.
pub fn run_replicas_forked(
    cfg: &ExperimentConfig,
    reps: usize,
    warm_fraction: f64,
) -> Vec<RunMetrics> {
    assert!(reps > 0);
    assert!((0.0..=1.0).contains(&warm_fraction));
    let target = (cfg.workload.total_reads as f64 * warm_fraction) as u64;
    let mut warm = RunHandle::start(cfg);
    warm.advance_to_reads(target);
    let mut out: Vec<RunMetrics> = (1..reps).map(|_| warm.fork().finish()).collect();
    out.push(warm.finish());
    out
}

/// Run the same configuration with prefetching off and on (the paper's
/// base/prefetch comparison). The base run uses the identical seed and
/// workload; only the cache partitioning and daemon differ — so the
/// reference string is generated once and shared between the two runs.
pub fn run_pair(cfg: &ExperimentConfig) -> RunPair {
    let [base_cfg, pf_cfg] = pair_configs(cfg);
    // The workload depends only on seed/pattern/geometry, which the two
    // halves share.
    let workload = std::sync::Arc::new(crate::world::generate_workload(cfg));
    let (base, _, _) = run_shared_world(&base_cfg, workload.clone(), false, false);
    let (prefetch, _, _) = run_shared_world(&pf_cfg, workload, false, false);
    RunPair {
        label: cfg.label(),
        base,
        prefetch,
    }
}

/// The base and prefetch halves of `cfg`: prefetching off, and on (with
/// the paper's settings unless `cfg` already enables it).
pub fn pair_configs(cfg: &ExperimentConfig) -> [ExperimentConfig; 2] {
    let (mut base, mut pf) = (cfg.clone(), cfg.clone());
    base.prefetch = PrefetchConfig::disabled();
    if !pf.prefetch.enabled {
        pf.prefetch = PrefetchConfig::paper();
    }
    [base, pf]
}

/// Enumerate the paper's experiment grid (§IV-D): six patterns × four
/// synchronization styles (portion sync excluded for `lw`) × two I/O
/// intensities (balanced and I/O-bound). 46 configurations.
pub fn paper_grid() -> Vec<ExperimentConfig> {
    let mut grid = Vec::new();
    for pattern in AccessPattern::ALL {
        for sync in SyncStyle::PAPER {
            if !sync.valid_for(pattern) {
                continue;
            }
            grid.push(ExperimentConfig::paper_default(pattern, sync));
            grid.push(ExperimentConfig::paper_io_bound(pattern, sync));
        }
    }
    grid
}

/// Run `configs` as base/prefetch pairs across `threads` worker threads.
/// Results return in input order; each run is internally deterministic so
/// the parallelism never affects the numbers. A panic in any run resurfaces
/// on the caller.
pub fn run_pairs_parallel(configs: &[ExperimentConfig], threads: usize) -> Vec<RunPair> {
    assert!(threads > 0);
    crate::sweeps::parallel_map(configs, threads, run_pair)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_patterns::WorkloadParams;
    use rt_sim::SimDuration;

    fn small(pattern: AccessPattern, sync: SyncStyle) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_default(pattern, sync);
        cfg.procs = 4;
        cfg.disks = 4;
        cfg.workload = WorkloadParams {
            procs: 4,
            file_blocks: 200,
            total_reads: 200,
            fixed_portion_len: 5,
            global_fixed_portion_len: 20,
            rand_portion_min: 1,
            rand_portion_max: 10,
            global_rand_portion_min: 5,
            global_rand_portion_max: 20,
        };
        cfg.compute_mean = SimDuration::from_millis(5);
        cfg
    }

    #[test]
    fn run_experiment_accounts_every_read() {
        let m = run_experiment(&small(AccessPattern::GlobalWholeFile, SyncStyle::None));
        assert_eq!(m.total_reads(), 200);
        assert_eq!(m.ready_hits + m.unready_hits + m.misses, 200);
        assert_eq!(m.demand_fetches, m.misses);
        assert!(m.total_time > SimDuration::ZERO);
        assert_eq!(m.proc_finish.len(), 4);
    }

    #[test]
    fn pair_base_has_no_prefetches() {
        let pair = run_pair(&small(AccessPattern::GlobalWholeFile, SyncStyle::None));
        assert_eq!(pair.base.prefetches, 0);
        assert!(pair.prefetch.prefetches > 0);
        assert!(pair.read_time_improvement() > 0.0);
    }

    #[test]
    fn paper_grid_shape() {
        let grid = paper_grid();
        // 6 patterns × 4 syncs − lw-portion, ×2 intensities = 46.
        assert_eq!(grid.len(), 46);
        let lw_portion = grid.iter().any(|c| {
            c.pattern == AccessPattern::LocalWholeFile && c.sync == SyncStyle::EachPortion
        });
        assert!(!lw_portion);
        for c in &grid {
            c.validate().unwrap();
        }
    }

    /// The fields that pin a run bit-for-bit (simulated time is exact).
    fn fingerprint(m: &RunMetrics) -> (u64, u64, u64, u64, u64, u64, u64) {
        (
            m.total_time.as_nanos(),
            m.reads.total().as_nanos(),
            m.ready_hits,
            m.unready_hits,
            m.misses,
            m.disk_ops,
            m.prefetches,
        )
    }

    #[test]
    fn forked_run_matches_uninterrupted() {
        let mut cfg = small(AccessPattern::GlobalWholeFile, SyncStyle::BlocksPerProc(10));
        cfg.prefetch = PrefetchConfig::paper();
        let straight = run_experiment(&cfg);

        let mut warm = RunHandle::start(&cfg);
        let reached = warm.advance_to_reads(100);
        assert!(reached >= 100, "fork point not reached");
        let fork = warm.fork();
        assert_eq!(fork.events_fired(), warm.events_fired());

        // Both the fork and the original resume to the identical run.
        assert_eq!(fingerprint(&fork.finish()), fingerprint(&straight));
        assert_eq!(fingerprint(&warm.finish()), fingerprint(&straight));
    }

    #[test]
    fn fork_at_time_zero_matches() {
        let cfg = small(AccessPattern::LocalFixedPortions, SyncStyle::EachPortion);
        let straight = run_experiment(&cfg);
        let warm = RunHandle::start(&cfg);
        let fork = warm.fork();
        assert_eq!(fingerprint(&fork.finish()), fingerprint(&straight));
    }

    #[test]
    fn forked_replicas_are_identical_to_straight_runs() {
        let mut cfg = small(AccessPattern::GlobalRandomPortions, SyncStyle::None);
        cfg.prefetch = PrefetchConfig::paper();
        let straight = run_experiment(&cfg);
        let reps = run_replicas_forked(&cfg, 3, 0.5);
        assert_eq!(reps.len(), 3);
        for m in &reps {
            assert_eq!(fingerprint(m), fingerprint(&straight));
        }
    }

    #[test]
    fn observed_gauges_stay_in_range_and_drain() {
        let mut cfg = small(AccessPattern::GlobalWholeFile, SyncStyle::BlocksPerProc(10));
        cfg.prefetch = PrefetchConfig::paper();
        let obs = crate::world::ObsConfig {
            ring_capacity: 16,
            sample_every: Some(SimDuration::from_millis(1)),
        };
        let (m, data) = run_experiment_observed(&cfg, obs);
        let drained = rt_sim::SimTime::ZERO + m.total_time;
        let gauge = |name: &str| {
            let s = data.series.iter().find(|s| s.name == name).unwrap();
            assert!(s.points.len() > 10, "{name}: too few samples");
            s
        };
        let in_flight = gauge("disk requests in flight");
        assert!(in_flight.points.iter().all(|p| p.1 >= 0.0));
        assert!(in_flight.max() > 0.0, "the run did disk I/O");
        let last = *in_flight.points.last().unwrap();
        assert!(last.0 >= drained, "the series closes with a drain sample");
        assert_eq!(last.1, 0.0, "every request completes by drain");
        let at_barrier = gauge("procs at barrier");
        assert!(at_barrier.max() > 0.0, "processes met at barriers");
        assert!(at_barrier.max() <= f64::from(cfg.procs));
    }

    #[test]
    fn checked_run_measures_exactly_what_run_experiment_does() {
        let mut cfg = small(AccessPattern::GlobalWholeFile, SyncStyle::BlocksPerProc(10));
        cfg.prefetch = PrefetchConfig::paper();
        let (plan, crashes) =
            crate::faults::parse_all_fault_specs("straggler:0:x8,crash:1@60ms:rejoin@300ms")
                .unwrap();
        cfg.faults.plan = plan;
        cfg.faults.crashes = crashes;
        cfg.faults.replicas = 1;
        cfg.faults.retry.timeout = Some(SimDuration::from_millis(150));
        cfg.faults.hedge.delay = Some(SimDuration::from_millis(60));
        let checked = run_checked(&cfg);
        let v = &checked.verdict;
        assert!(v.violation.is_none(), "{:?}", v.violation);
        assert_eq!((v.runs, v.expected), (1, 200));
        assert!(v.events > 0);
        let Ok(m) = &checked.result else {
            panic!("a clean run yields its metrics")
        };
        assert!(m.tail.hedges_launched > 0, "the run hedged");
        assert_eq!((m.crash.crashes, m.crash.rejoins), (1, 1));
        assert_eq!(
            format!("{m:?}"),
            format!("{:?}", run_experiment(&cfg)),
            "checking and recording are inert"
        );
    }

    #[test]
    fn exhausted_budget_is_a_violation_not_a_panic() {
        let cfg = small(AccessPattern::LocalFixedPortions, SyncStyle::None);
        let checked = run_checked_within(&cfg, 100);
        let v = &checked.verdict;
        assert_eq!(v.events, 100);
        let msg = v.violation.as_deref().expect("budget exhaustion is caught");
        assert!(msg.contains("100-event budget"), "{msg}");
        let Err(flight) = &checked.result else {
            panic!("a failed run yields its recording")
        };
        assert!(!flight.events.is_empty());
    }

    #[test]
    fn parallel_runner_matches_serial() {
        let configs = vec![
            small(AccessPattern::GlobalWholeFile, SyncStyle::None),
            small(AccessPattern::LocalWholeFile, SyncStyle::BlocksPerProc(10)),
        ];
        let serial: Vec<_> = configs.iter().map(run_pair).collect();
        let parallel = run_pairs_parallel(&configs, 2);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.base.total_time, p.base.total_time);
            assert_eq!(s.prefetch.total_time, p.prefetch.total_time);
            assert_eq!(s.prefetch.prefetches, p.prefetch.prefetches);
        }
    }
}
