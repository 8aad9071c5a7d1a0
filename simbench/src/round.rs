//! One round of a workload: every job once, and the named values the
//! round yields.

use std::collections::BTreeMap;
use std::time::Instant;

use rapid_transit::core::sweeps::parallel_map;
use rapid_transit::core::{ExperimentConfig, RunMetrics};
use rapid_transit::sim::{SimDuration, Tally};

use crate::alloc::Allocs;
use crate::run::{job, phase, Phase, RunRecord, KINDS};

/// One round's runs, in job order.
pub struct Round {
    /// Host seconds from the first setup call to the last reported
    /// quantile.
    pub wall_s: f64,
    pub records: Vec<RunRecord>,
    /// One phase per job run on the sweep pool; empty when the round has
    /// a single job and so no pool.
    pub jobs: Vec<Phase>,
    /// Wall seconds of the sweep, and its worker count.
    pub sweep_wall_s: f64,
    pub workers: usize,
    /// Read-time quantiles over every run's samples (untraced rounds).
    pub read_p50_ms: f64,
    pub read_p99_ms: f64,
}

/// The `q`-quantile by nearest rank, as `rt_sim::Sampled::quantile`.
fn nearest_rank(sorted: &[SimDuration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)].as_millis_f64()
}

/// Runs every job once. A single job runs on the calling thread; several
/// run as a sweep on `workers` threads through `sweeps::parallel_map`.
pub fn round(jobs: &[Vec<ExperimentConfig>], traced: bool, workers: usize) -> Round {
    let epoch = Instant::now();
    let (per_job, sweep_wall_s, workers) = if jobs.len() == 1 {
        (vec![phase(epoch, || job(&jobs[0], traced, epoch))], 0.0, 0)
    } else {
        let t = Instant::now();
        let out = parallel_map(jobs, workers, |cfgs| {
            phase(epoch, || job(cfgs, traced, epoch))
        });
        (out, t.elapsed().as_secs_f64(), workers)
    };
    let mut records = Vec::new();
    let mut job_phases = Vec::new();
    for (recs, p) in per_job {
        records.extend(recs);
        if workers > 0 {
            job_phases.push(p);
        }
    }
    let (mut read_p50_ms, mut read_p99_ms) = (0.0, 0.0);
    if let [r] = &records[..] {
        // A single run's report already holds these quantiles.
        if let Some(f) = &r.fingerprint {
            (read_p50_ms, read_p99_ms) = (f.read_p50_ms, f.read_p99_ms);
        }
    } else {
        let mut all: Vec<SimDuration> = Vec::new();
        for m in records.iter().filter_map(|r| r.metrics.as_ref()) {
            all.extend_from_slice(m.read_times.samples());
        }
        all.sort_unstable();
        read_p50_ms = nearest_rank(&all, 0.5);
        read_p99_ms = nearest_rank(&all, 0.99);
    }
    Round {
        wall_s: epoch.elapsed().as_secs_f64(),
        records,
        jobs: job_phases,
        sweep_wall_s,
        workers,
        read_p50_ms,
        read_p99_ms,
    }
}

/// Whether a value is a host measurement (it varies run to run) or a
/// simulated or counted one (it repeats exactly for a seed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    Host,
    Exact,
}

/// A round's named values: `(value, unit, source)`.
pub type Values = BTreeMap<String, (f64, &'static str, Source)>;

fn put(v: &mut Values, name: impl Into<String>, value: f64, unit: &'static str, src: Source) {
    v.insert(name.into(), (value, unit, src));
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

type Count = fn(&RunMetrics) -> u64;
type Mean = fn(&RunMetrics) -> &Tally;

/// Simulated counters, summed over a round's runs.
const COUNTS: [(&str, Count); 27] = [
    ("metrics.samples_held", |m| {
        m.read_times.count()
            + m.disk_response_times.count()
            + m.hit_wait.count()
            + m.hedged_read_times.count()
    }),
    ("cache.ready_hits", |m| m.ready_hits),
    ("cache.unready_hits", |m| m.unready_hits),
    ("cache.misses", |m| m.misses),
    ("cache.alloc_retries", |m| m.alloc_retries),
    ("daemon.prefetches", |m| m.prefetches),
    ("daemon.failed_actions", |m| m.failed_actions),
    ("disk.ops", |m| m.disk_ops),
    ("disk.demand_fetches", |m| m.demand_fetches),
    ("barrier.episodes", |m| m.barriers),
    ("faults.timeouts", |m| m.faults.timeouts),
    ("faults.retries", |m| m.faults.retries),
    ("faults.redirects", |m| m.faults.redirects),
    ("faults.io_errors", |m| m.faults.io_errors),
    ("tail.hedges_launched", |m| m.tail.hedges_launched),
    ("tail.hedge_wins", |m| m.tail.hedge_wins),
    ("tail.breaker_opens", |m| m.tail.breaker_opens),
    ("tail.budget_spent", |m| m.tail.budget_spent),
    ("integrity.detections", |m| m.integrity.detections),
    ("integrity.repairs", |m| m.integrity.repairs),
    ("integrity.scrubbed", |m| m.integrity.scrubbed),
    ("admission.throttled", |m| m.overload.prefetches_throttled),
    ("admission.shed", |m| m.overload.prefetches_shed),
    ("crash.crashes", |m| m.crash.crashes),
    ("crash.lost_reads", |m| m.crash.lost_reads),
    ("crash.reclaimed_pins", |m| m.crash.reclaimed_pins),
    ("reads", RunMetrics::total_reads),
];

/// Simulated durations, as the mean over every sample of a round.
const MEANS: [(&str, Mean); 5] = [
    ("daemon.action_ms_mean", |m| &m.action_time),
    ("daemon.overrun_ms_mean", |m| &m.overrun),
    ("disk.response_ms_mean", |m| &m.disk_response),
    ("lock.wait_ms_mean", |m| &m.lock_wait),
    ("barrier.sync_wait_ms_mean", |m| &m.sync_wait),
];

impl Round {
    fn sum(&self, f: impl Fn(&RunRecord) -> f64) -> f64 {
        self.records.iter().map(f).sum()
    }

    /// Simulated reads completed in the round.
    pub fn reads(&self) -> f64 {
        self.sum(|r| r.fingerprint.as_ref().map_or(0.0, |f| f.reads as f64))
    }

    /// The end-to-end values of an untraced round, except the read rate,
    /// which a session takes over all its rounds at once.
    pub fn end_to_end(&self) -> Values {
        use Source::{Exact, Host};
        let mut v = Values::new();
        let setup = self.sum(|r| r.generate.secs + r.build.secs);
        put(&mut v, "setup_s", setup, "s", Host);
        let total = self.sum(|r| {
            r.fingerprint
                .as_ref()
                .map_or(0.0, |f| f.total_time.as_secs_f64())
        });
        put(&mut v, "sim_total_s", total, "sim_s", Exact);
        put(&mut v, "sim_read_p50_ms", self.read_p50_ms, "sim_ms", Exact);
        put(&mut v, "sim_read_p99_ms", self.read_p99_ms, "sim_ms", Exact);
        v
    }

    /// The per-layer values an untraced round yields: phase costs, the
    /// sweep pool, and every simulated layer counter.
    pub fn layers(&self) -> Values {
        use Source::{Exact, Host};
        let mut v = Values::new();
        put(
            &mut v,
            "patterns.generate_s",
            self.sum(|r| r.generate.secs),
            "s",
            Host,
        );
        put(
            &mut v,
            "world.build_s",
            self.sum(|r| r.build.secs),
            "s",
            Host,
        );
        put(
            &mut v,
            "metrics.report_s",
            self.sum(|r| r.report.secs),
            "s",
            Host,
        );
        for name in ["setup", "simulate", "report"] {
            let a = self.records.iter().fold(Allocs::default(), |s, r| {
                s.plus(match name {
                    "setup" => r.generate.allocs.plus(r.build.allocs),
                    "simulate" => r.simulate.allocs,
                    _ => r.report.allocs,
                })
            });
            put(
                &mut v,
                format!("host.{name}.allocs"),
                a.count as f64,
                "count",
                Exact,
            );
            put(
                &mut v,
                format!("host.{name}.alloc_bytes"),
                a.bytes as f64,
                "B",
                Exact,
            );
        }
        let busy: f64 = self.jobs.iter().map(|p| p.secs).sum();
        let runs = if self.workers == 0 {
            0
        } else {
            self.records.len()
        };
        put(&mut v, "sweep.runs", runs as f64, "count", Exact);
        put(&mut v, "sweep.busy_s", busy, "s", Host);
        let occupancy = ratio(busy, self.sweep_wall_s * self.workers as f64);
        put(&mut v, "sweep.occupancy", occupancy, "ratio", Host);

        let ms: Vec<&RunMetrics> = self
            .records
            .iter()
            .filter_map(|r| r.metrics.as_ref())
            .collect();
        let mut c = BTreeMap::new();
        for (name, f) in COUNTS {
            c.insert(name, ms.iter().map(|m| f(m) as f64).sum::<f64>());
        }
        for (name, f) in MEANS {
            let mut t = Tally::new();
            ms.iter().for_each(|m| t.merge(f(m)));
            put(&mut v, name, t.mean_millis(), "sim_ms", Exact);
        }
        let hits = c["cache.ready_hits"] + c["cache.unready_hits"];
        put(
            &mut v,
            "cache.hit_ratio",
            ratio(hits, hits + c["cache.misses"]),
            "ratio",
            Exact,
        );
        let per_read = ratio(c["daemon.prefetches"], c["reads"]);
        put(
            &mut v,
            "daemon.prefetch_per_read",
            per_read,
            "1/read",
            Exact,
        );
        let utilization = ms.iter().map(|m| m.disk_utilization).sum();
        put(
            &mut v,
            "disk.utilization",
            ratio(utilization, ms.len() as f64),
            "ratio",
            Exact,
        );
        let wins = ratio(c["tail.hedge_wins"], c["tail.hedges_launched"]);
        put(&mut v, "tail.hedge_win_ratio", wins, "ratio", Exact);
        for (name, value) in c {
            if !matches!(name, "reads" | "tail.hedge_wins") {
                put(&mut v, name, value, "count", Exact);
            }
        }
        v
    }

    /// The per-layer values only a traced round yields: the engine and
    /// the per-`Ev`-kind handler costs, summed over the round's runs.
    pub fn traced_layers(&self) -> Values {
        use Source::{Exact, Host};
        let mut v = Values::new();
        let traced: Vec<_> = self
            .records
            .iter()
            .filter_map(|r| r.traced.as_ref())
            .collect();
        let fps = || self.records.iter().filter_map(|r| r.fingerprint.as_ref());
        let events = fps().map(|f| f.events).sum::<u64>() as f64;
        let reads = fps().map(|f| f.reads).sum::<u64>() as f64;
        put(&mut v, "sim.events", events, "count", Exact);
        put(
            &mut v,
            "sim.events_per_read",
            ratio(events, reads),
            "events/read",
            Exact,
        );
        let peak = traced.iter().map(|t| t.peak_pending).max().unwrap_or(0);
        put(&mut v, "sim.peak_pending", peak as f64, "count", Exact);
        put(
            &mut v,
            "sim.loop_s",
            traced.iter().map(|t| t.loop_s).sum(),
            "s",
            Host,
        );
        let engine = traced.iter().map(|t| t.engine_self_s).sum();
        put(&mut v, "sim.engine_self_s", engine, "s", Host);
        for (k, name) in KINDS.iter().enumerate() {
            let n: u64 = traced.iter().map(|t| t.kinds[k].n).sum();
            let s: f64 = traced.iter().map(|t| t.kinds[k].self_s).sum();
            let a: u64 = traced.iter().map(|t| t.kinds[k].allocs).sum();
            put(&mut v, format!("world.{name}.n"), n as f64, "count", Exact);
            put(&mut v, format!("world.{name}.self_s"), s, "s", Host);
            put(
                &mut v,
                format!("world.{name}.allocs"),
                a as f64,
                "count",
                Exact,
            );
        }
        v
    }
}
