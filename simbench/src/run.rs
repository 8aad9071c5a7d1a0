//! One simulated run, untraced or traced, with its phase timings,
//! allocation counts, determinism fingerprint and correctness checks.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use rapid_transit::core::experiment::RunHandle;
use rapid_transit::core::metrics::{
    CrashMetrics, FaultMetrics, IntegrityMetrics, OverloadMetrics, RunMetrics, TailMetrics,
};
use rapid_transit::core::world::generate_workload;
use rapid_transit::core::{Ev, ExperimentConfig, ReadOutcome, World};
use rapid_transit::patterns::Workload as RefString;
use rapid_transit::sim::{run, Model, Sampled, Scheduler, SimDuration, SimTime, Tally};

use crate::alloc::Allocs;

/// Backstop on events per run, as the experiment runner uses.
const MAX_EVENTS: u64 = 500_000_000;

/// The `Ev` kinds, in the order the per-kind metrics are reported.
pub const KINDS: [&str; 14] = [
    "start",
    "lookup_done",
    "miss_issue",
    "retry_miss",
    "disk_done",
    "read_finished",
    "compute_done",
    "action_end",
    "retry_io",
    "io_timeout",
    "hedge",
    "verify_done",
    "crash",
    "rejoin",
];

fn kind(ev: &Ev) -> usize {
    match ev {
        Ev::Start(_) => 0,
        Ev::LookupDone(_) => 1,
        Ev::MissIssue(_) => 2,
        Ev::RetryMiss(_) => 3,
        Ev::DiskDone(_) => 4,
        Ev::ReadFinished(_) => 5,
        Ev::ComputeDone(_) => 6,
        Ev::ActionEnd(_) => 7,
        Ev::RetryIo(_) => 8,
        Ev::IoTimeout(_) => 9,
        Ev::Hedge(_) => 10,
        Ev::VerifyDone(_) => 11,
        Ev::Crash(_) => 12,
        Ev::Rejoin(_) => 13,
    }
}

/// Host cost of one phase of a run, as an interval from the round's epoch.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phase {
    /// Start, in seconds after the round began.
    pub start_s: f64,
    /// Wall seconds spent.
    pub secs: f64,
    /// Allocations made in it.
    pub allocs: Allocs,
}

/// Times `f` as a phase starting from `epoch`.
pub fn phase<T>(epoch: Instant, f: impl FnOnce() -> T) -> (T, Phase) {
    let a = Allocs::now();
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    let p = Phase {
        start_s: t.duration_since(epoch).as_secs_f64(),
        secs,
        allocs: Allocs::now().since(a),
    };
    (out, p)
}

/// Every simulated value both kinds of run can report. Two runs of one
/// configuration must produce equal fingerprints, traced or not.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    pub events: u64,
    pub total_time: SimDuration,
    pub reads: u64,
    /// Read-time quantiles in milliseconds, as `RunMetrics` reports them.
    pub read_p50_ms: f64,
    pub read_p99_ms: f64,
    pub ready_hits: u64,
    pub unready_hits: u64,
    pub misses: u64,
    pub disk_ops: u64,
    pub disk_responses: u64,
    pub disk_response_total: SimDuration,
    pub disk_utilization: f64,
    pub faults: FaultMetrics,
    pub overload: OverloadMetrics,
    pub integrity: IntegrityMetrics,
    pub crash: CrashMetrics,
    pub tail: TailMetrics,
}

/// Per-`Ev`-kind cost in a traced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct KindCost {
    pub n: u64,
    pub self_s: f64,
    pub allocs: u64,
}

/// What only a traced run measures.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    pub kinds: [KindCost; KINDS.len()],
    /// Wall seconds of the whole event loop.
    pub loop_s: f64,
    /// Loop wall minus the handlers: queue push/pop and dispatch.
    pub engine_self_s: f64,
    pub peak_pending: usize,
}

/// One finished run.
#[derive(Clone, Debug)]
pub struct RunRecord {
    pub label: String,
    /// Reference-string generation; zero for the second run of a pair,
    /// which shares the first one's string.
    pub generate: Phase,
    /// `World` build plus bootstrap.
    pub build: Phase,
    pub simulate: Phase,
    /// Computing every reported quantile.
    pub report: Phase,
    /// `None` when the run panicked.
    pub fingerprint: Option<Fingerprint>,
    /// The collected metrics (untraced runs only).
    pub metrics: Option<RunMetrics>,
    pub traced: Option<Traced>,
    /// Every correctness check the run failed.
    pub failures: Vec<String>,
}

/// The quantiles a run reports, as the CLI's `run` table does: p50, p95
/// and p99 of read, hit-wait, disk-response and hedged-read times.
fn report_quantiles(m: &RunMetrics) -> [f64; 12] {
    let mut out = [0.0; 12];
    for (i, q) in [0.5, 0.95, 0.99].into_iter().enumerate() {
        out[i] = m.read_quantile_ms(q);
        out[3 + i] = m.hit_wait_quantile_ms(q);
        out[6 + i] = m.disk_response_quantile_ms(q);
        out[9 + i] = m.hedged_read_quantile_ms(q);
    }
    out
}

impl RunRecord {
    fn new(cfg: &ExperimentConfig, generate: Phase) -> RunRecord {
        RunRecord {
            label: cfg.label(),
            generate,
            build: Phase::default(),
            simulate: Phase::default(),
            report: Phase::default(),
            fingerprint: None,
            metrics: None,
            traced: None,
            failures: Vec::new(),
        }
    }

    /// Records every check on the finished run's accounting and
    /// exactly-once counters that fails.
    fn check(&mut self, cfg: &ExperimentConfig, accounted: u64, fp: &Fingerprint) {
        let total = u64::from(cfg.workload.total_reads);
        if accounted != total {
            self.failures.push(format!(
                "read accounting: {accounted} completed+lost+abandoned != {total} workload reads"
            ));
        }
        if fp.tail.duplicate_deliveries != 0 {
            let n = fp.tail.duplicate_deliveries;
            self.failures.push(format!("{n} duplicate deliveries"));
        }
        if fp.integrity.corrupt_delivered != 0 {
            let n = fp.integrity.corrupt_delivered;
            self.failures.push(format!("{n} corrupt blocks delivered"));
        }
    }

    /// Runs `f`, recording a panic as a run that did not complete.
    fn guard<T>(&mut self, f: impl FnOnce() -> T) -> Option<T> {
        let out = catch_unwind(AssertUnwindSafe(f));
        out.map_err(|payload| {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".into());
            self.failures.push(format!("did not complete: {msg}"));
        })
        .ok()
    }
}

/// Runs `cfg` through the public runner: `RunHandle::start_shared`,
/// drain, `finish`, then every reported quantile.
fn untraced(
    cfg: &ExperimentConfig,
    workload: &Arc<RefString>,
    epoch: Instant,
    rec: &mut RunRecord,
) {
    let Some((build, simulate, report, events, m, q)) = rec.guard(|| {
        let (mut handle, build) = phase(epoch, || RunHandle::start_shared(cfg, workload.clone()));
        // Draining with `advance_to_reads` first leaves the event count
        // readable; `finish` then asserts completion and collects.
        let ((events, m), simulate) = phase(epoch, || {
            handle.advance_to_reads(u64::MAX);
            (handle.events_fired(), handle.finish())
        });
        let (q, report) = phase(epoch, || report_quantiles(&m));
        (build, simulate, report, events, m, q)
    }) else {
        return;
    };
    (rec.build, rec.simulate, rec.report) = (build, simulate, report);
    let fp = Fingerprint {
        events,
        total_time: m.total_time,
        reads: m.total_reads(),
        read_p50_ms: q[0],
        read_p99_ms: q[2],
        ready_hits: m.ready_hits,
        unready_hits: m.unready_hits,
        misses: m.misses,
        disk_ops: m.disk_ops,
        disk_responses: m.disk_response.count(),
        disk_response_total: m.disk_response.total(),
        disk_utilization: m.disk_utilization,
        faults: m.faults.clone(),
        overload: m.overload.clone(),
        integrity: m.integrity.clone(),
        crash: m.crash.clone(),
        tail: m.tail.clone(),
    };
    // `finish` asserted completion, so no read was abandoned.
    rec.check(cfg, m.total_reads() + m.crash.lost_reads, &fp);
    rec.fingerprint = Some(fp);
    rec.metrics = Some(m);
}

/// `World` wrapped so that each `World::handle` call is timed and its
/// allocations counted by event kind.
struct Timed {
    world: World,
    kinds: [KindCost; KINDS.len()],
    handler_s: f64,
    peak_pending: usize,
    /// When the last process finished: the run's total time.
    done_at: Option<SimTime>,
}

impl Model for Timed {
    type Event = Ev;

    fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
        let k = kind(&event);
        let a = Allocs::now();
        let t = Instant::now();
        self.world.handle(event, sched);
        let dt = t.elapsed().as_secs_f64();
        let allocs = Allocs::now().since(a).count;
        let c = &mut self.kinds[k];
        c.n += 1;
        c.self_s += dt;
        c.allocs += allocs;
        self.handler_s += dt;
        self.peak_pending = self.peak_pending.max(sched.pending());
        if self.done_at.is_none() && self.world.complete() {
            self.done_at = Some(sched.now());
        }
    }
}

/// Runs `cfg` with every `World::handle` call timed by event kind. The
/// world also records its access trace, which yields the per-read times
/// and cache outcomes the fingerprint needs.
fn traced(cfg: &ExperimentConfig, workload: &Arc<RefString>, epoch: Instant, rec: &mut RunRecord) {
    let Some((build, simulate, outcome, mut model, sched)) = rec.guard(|| {
        let ((mut model, mut sched), build) = phase(epoch, || {
            let mut world = World::with_workload(cfg.clone(), workload.clone());
            world.enable_tracing();
            let mut sched = Scheduler::new();
            world.bootstrap(&mut sched);
            let model = Timed {
                world,
                kinds: Default::default(),
                handler_s: 0.0,
                peak_pending: sched.pending(),
                done_at: None,
            };
            (model, sched)
        });
        let (outcome, simulate) = phase(epoch, || run(&mut model, &mut sched, MAX_EVENTS));
        (build, simulate, outcome, model, sched)
    }) else {
        return;
    };
    (rec.build, rec.simulate) = (build, simulate);
    let engine_self_s = simulate.secs - model.handler_s;
    rec.traced = Some(Traced {
        kinds: model.kinds,
        loop_s: simulate.secs,
        engine_self_s,
        peak_pending: model.peak_pending,
    });
    let w = &mut model.world;
    let end = sched.now();
    if outcome.budget_exhausted || !w.complete() {
        rec.failures.push("did not complete".into());
    }
    if engine_self_s < 0.0 {
        let over = -engine_self_s;
        rec.failures.push(format!(
            "handler self times exceed the loop wall by {over}s"
        ));
    }
    if let Err(e) = w.check_terminal_invariants(end) {
        rec.failures.push(format!("terminal invariants: {e}"));
    }
    let trace = w.take_trace().expect("tracing was enabled");
    let (fp, report) = phase(epoch, || {
        let mut times = Sampled::new();
        let (mut ready, mut unready, mut misses) = (0, 0, 0);
        for e in trace.events() {
            times.record(e.read_time());
            match e.outcome {
                ReadOutcome::ReadyHit => ready += 1,
                ReadOutcome::UnreadyHit => unready += 1,
                ReadOutcome::Miss => misses += 1,
                ReadOutcome::Failed => {}
            }
        }
        let disks = w.fs().disks();
        let response: Tally = disks.response();
        let q = |p| times.quantile(p).map_or(0.0, SimDuration::as_millis_f64);
        Fingerprint {
            events: outcome.events,
            total_time: model.done_at.unwrap_or(end).saturating_since(SimTime::ZERO),
            reads: w.reads_done(),
            read_p50_ms: q(0.5),
            read_p99_ms: q(0.99),
            ready_hits: ready,
            unready_hits: unready,
            misses,
            disk_ops: disks.total_ops(),
            disk_responses: response.count(),
            disk_response_total: response.total(),
            disk_utilization: disks.mean_utilization(end),
            faults: w.fault_metrics(end),
            overload: w.overload_metrics(),
            integrity: w.integrity_metrics(end),
            crash: w.crash_metrics(),
            tail: w.tail_metrics(),
        }
    });
    rec.report = report;
    rec.check(
        cfg,
        w.reads_done() + fp.crash.lost_reads + w.abandoned_reads(),
        &fp,
    );
    rec.fingerprint = Some(fp);
}

/// Runs one job: the runs sharing one reference string, generated once
/// from the first configuration (which the others share).
pub fn job(cfgs: &[ExperimentConfig], traced_run: bool, epoch: Instant) -> Vec<RunRecord> {
    let (workload, mut generate) = phase(epoch, || Arc::new(generate_workload(&cfgs[0])));
    cfgs.iter()
        .map(|cfg| {
            let mut rec = RunRecord::new(cfg, std::mem::take(&mut generate));
            if traced_run {
                traced(cfg, &workload, epoch, &mut rec);
            } else {
                untraced(cfg, &workload, epoch, &mut rec);
            }
            rec
        })
        .collect()
}
