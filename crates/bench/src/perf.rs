//! The `rapid-transit perf` harness: a fixed grid slice measured for host
//! throughput, emitted as `BENCH_core.json`.
//!
//! Every optimization PR reruns this slice on the same machine and appends
//! its numbers next to the preserved baseline entry, giving the repository
//! a perf trajectory. Three measurements are taken:
//!
//! * **events/sec** — the slice's six experiments run one at a time through
//!   the instrumented engine; aggregate events divided by aggregate wall
//!   time. This isolates single-threaded event-loop speed.
//! * **runs/sec** — the slice repeated [`SWEEP_REPS`] times through
//!   [`rt_core::sweeps::sweep`] on the configured worker threads. This
//!   exercises the sweep scheduler end to end.
//! * **fork runs/sec** — the same replicated slice, but each config's
//!   replicas share one warmed-up prefix via
//!   [`rt_core::experiment::run_replicas_forked`] (world snapshot/clone).
//!   Same completed runs, less recomputation.

use rt_core::experiment::{run_experiment_instrumented, run_replicas_forked};
use rt_core::sweeps;
use rt_core::{ExperimentConfig, PrefetchConfig};
use rt_patterns::{AccessPattern, SyncStyle, WorkloadParams};

use crate::json::{Check, Json};

/// Patterns in the fixed slice: one global-whole-file (the paper's
/// flagship), one local-portion, one global-random — three distinct
/// read-path shapes.
pub const SLICE_PATTERNS: [AccessPattern; 3] = [
    AccessPattern::GlobalWholeFile,
    AccessPattern::LocalFixedPortions,
    AccessPattern::GlobalRandomPortions,
];

/// Times the slice is replicated for the parallel sweep measurement.
pub const SWEEP_REPS: usize = 3;

/// Times the slice is repeated for the sequential engine measurement
/// (smooths out scheduler noise on small machines).
pub const SEQ_REPS: usize = 3;

/// File size of the full slice, in blocks: the paper's 2000-block file
/// scaled ×8 so each run lasts long enough to time reliably.
pub const SLICE_FILE_BLOCKS: u32 = 16_000;

/// Fraction of a run's reads completed before replicas fork off the
/// shared prefix in the fork measurement.
pub const FORK_WARM_FRACTION: f64 = 0.5;

/// Report format version. Version 2 added the fork-sharing sweep numbers;
/// version 3 dropped the per-entry `scaling` curve of a parallel disk-farm
/// engine (older entries keep theirs, and the validator ignores it).
pub const SCHEMA: u64 = 3;

/// The fixed slice: three patterns × prefetch off/on. `quick` shrinks the
/// machine for smoke tests (CI) where wall time matters more than signal.
pub fn slice_configs(quick: bool) -> Vec<ExperimentConfig> {
    let mut configs = Vec::new();
    for &pattern in &SLICE_PATTERNS {
        for prefetch in [false, true] {
            let mut cfg = ExperimentConfig::paper_default(pattern, SyncStyle::BlocksPerProc(10));
            if quick {
                cfg.procs = 4;
                cfg.disks = 4;
                cfg.workload = WorkloadParams {
                    procs: 4,
                    file_blocks: 200,
                    total_reads: 200,
                    ..WorkloadParams::paper()
                };
            } else {
                cfg.workload.file_blocks = SLICE_FILE_BLOCKS;
                cfg.workload.total_reads = SLICE_FILE_BLOCKS;
            }
            cfg.prefetch = if prefetch {
                PrefetchConfig::paper()
            } else {
                PrefetchConfig::disabled()
            };
            configs.push(cfg);
        }
    }
    configs
}

/// One measured entry of the perf report.
#[derive(Clone, Debug)]
pub struct PerfEntry {
    /// Which build produced the numbers (e.g. `seed-baseline`, `optimized`).
    pub label: String,
    /// True when the quick (smoke-test) slice was measured.
    pub quick: bool,
    /// Events dispatched across the sequential instrumented runs.
    pub events: u64,
    /// Wall time of those runs, in milliseconds.
    pub wall_ms: f64,
    /// `events / wall` — the headline single-thread number.
    pub events_per_sec: f64,
    /// Largest pending-event count seen in any run.
    pub peak_live_events: u64,
    /// Experiments completed by the parallel sweep measurement.
    pub sweep_runs: u64,
    /// Wall time of the sweep measurement, in milliseconds.
    pub sweep_wall_ms: f64,
    /// `sweep_runs / sweep_wall` — sweep-scheduler throughput.
    pub runs_per_sec: f64,
    /// Worker threads the sweep used.
    pub threads: u64,
    /// Experiments completed by the fork-sharing sweep measurement
    /// (same job multiset as `sweep_runs`).
    pub fork_runs: u64,
    /// Wall time of the fork-sharing measurement, in milliseconds.
    pub fork_wall_ms: f64,
    /// `fork_runs / fork_wall` — throughput when identical replicas share
    /// a warmed-up prefix via world snapshot/clone.
    pub fork_runs_per_sec: f64,
}

/// Run the fixed slice and measure it; the sweep measurements use
/// [`sweeps::default_threads`] workers.
pub fn measure(label: &str, quick: bool) -> PerfEntry {
    let configs = slice_configs(quick);

    // Single-thread engine throughput: each config SEQ_REPS times,
    // instrumented.
    let (mut events, mut wall, mut peak_live_events) = (0, std::time::Duration::ZERO, 0);
    for _ in 0..SEQ_REPS {
        for cfg in &configs {
            let (_, perf) = run_experiment_instrumented(cfg);
            events += perf.events;
            wall += perf.wall;
            peak_live_events = peak_live_events.max(perf.peak_pending as u64);
        }
    }
    let wall_secs = wall.as_secs_f64().max(1e-9);

    // Sweep throughput: the slice replicated through the sweep scheduler.
    let threads = sweeps::default_threads();
    let mut jobs = Vec::new();
    for _ in 0..SWEEP_REPS {
        jobs.extend(configs.iter().cloned());
    }
    let tags: Vec<usize> = (0..jobs.len()).collect();
    let sweep_runs = jobs.len() as u64;
    let sweep_start = std::time::Instant::now();
    let results = sweeps::sweep(jobs, tags, threads);
    let sweep_wall = sweep_start.elapsed();
    assert_eq!(results.len(), sweep_runs as usize);
    let sweep_secs = sweep_wall.as_secs_f64().max(1e-9);

    // Fork-sharing throughput: the same replicated slice, but each
    // config's replicas fork from one half-warmed run instead of starting
    // cold. Configs are distributed over the same worker threads.
    let fork_start = std::time::Instant::now();
    let forked = sweeps::parallel_map(&configs, threads, |cfg| {
        run_replicas_forked(cfg, SWEEP_REPS, FORK_WARM_FRACTION).len()
    });
    let fork_wall = fork_start.elapsed();
    let fork_runs: u64 = forked.iter().map(|&n| n as u64).sum();
    assert_eq!(fork_runs, sweep_runs, "fork path must complete every run");
    let fork_secs = fork_wall.as_secs_f64().max(1e-9);

    PerfEntry {
        label: label.to_string(),
        quick,
        events,
        wall_ms: wall_secs * 1e3,
        events_per_sec: events as f64 / wall_secs,
        peak_live_events,
        sweep_runs,
        sweep_wall_ms: sweep_secs * 1e3,
        runs_per_sec: sweep_runs as f64 / sweep_secs,
        threads: threads as u64,
        fork_runs,
        fork_wall_ms: fork_secs * 1e3,
        fork_runs_per_sec: fork_runs as f64 / fork_secs,
    }
}

impl PerfEntry {
    /// This entry as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("label".into(), Json::Str(self.label.clone())),
            ("quick".into(), Json::Bool(self.quick)),
            ("events".into(), Json::Num(self.events as f64)),
            ("wall_ms".into(), Json::Num(self.wall_ms)),
            ("events_per_sec".into(), Json::Num(self.events_per_sec)),
            (
                "peak_live_events".into(),
                Json::Num(self.peak_live_events as f64),
            ),
            ("sweep_runs".into(), Json::Num(self.sweep_runs as f64)),
            ("sweep_wall_ms".into(), Json::Num(self.sweep_wall_ms)),
            ("runs_per_sec".into(), Json::Num(self.runs_per_sec)),
            ("threads".into(), Json::Num(self.threads as f64)),
            ("fork_runs".into(), Json::Num(self.fork_runs as f64)),
            ("fork_wall_ms".into(), Json::Num(self.fork_wall_ms)),
            (
                "fork_runs_per_sec".into(),
                Json::Num(self.fork_runs_per_sec),
            ),
        ])
    }
}

/// Build the report document: keep every entry of `existing` whose label
/// differs from `entry`'s, then append `entry`. Rerunning `perf` therefore
/// refreshes its own entry while preserving the baseline history.
pub fn merge_report(existing: Option<&Json>, entry: &PerfEntry) -> Json {
    let mut entries: Vec<Json> = existing
        .and_then(|doc| doc.get("entries"))
        .and_then(Json::as_array)
        .map(<[Json]>::to_vec)
        .unwrap_or_default();
    entries.retain(|e| e.get("label").and_then(Json::as_str) != Some(entry.label.as_str()));
    entries.push(entry.to_json());
    Json::Obj(vec![
        ("schema".into(), Json::Num(SCHEMA as f64)),
        (
            "slice".into(),
            Json::Obj(vec![
                (
                    "patterns".into(),
                    Json::Arr(
                        SLICE_PATTERNS
                            .iter()
                            .map(|p| Json::Str(p.abbrev().to_string()))
                            .collect(),
                    ),
                ),
                ("sync".into(), Json::Str("per-proc:10".into())),
                (
                    "prefetch".into(),
                    Json::Arr(vec![Json::Bool(false), Json::Bool(true)]),
                ),
                ("sweep_reps".into(), Json::Num(SWEEP_REPS as f64)),
            ]),
        ),
        ("entries".into(), Json::Arr(entries)),
    ])
}

/// Check that `doc` is a structurally valid perf report with at least one
/// entry carrying the required numeric fields.
pub fn validate_report(doc: &Json) -> Result<(), String> {
    let mut c = Check::new();
    c.require_schema(doc, SCHEMA);
    for (i, e) in c.array(doc, "entries").iter().enumerate() {
        c.string(e, "label", &format!("entry {i}"));
        c.nums(
            e,
            &[
                "events",
                "wall_ms",
                "events_per_sec",
                "peak_live_events",
                "sweep_runs",
                "sweep_wall_ms",
                "runs_per_sec",
            ],
            &format!("entry {i}"),
        );
        // Fork-sharing numbers ride along when measured (older entries
        // predate the measurement); present ones must be sane.
        for field in ["fork_runs", "fork_wall_ms", "fork_runs_per_sec"] {
            match e.get(field).map(Json::as_f64) {
                Some(None) => c.fail(format!("entry {i}: non-numeric {field}")),
                Some(Some(v)) if v < 0.0 => c.fail(format!("entry {i}: negative {field}")),
                _ => {}
            }
        }
    }
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_is_three_patterns_times_two() {
        let configs = slice_configs(false);
        assert_eq!(configs.len(), 6);
        assert!(configs.iter().any(|c| c.prefetch.enabled));
        assert!(configs.iter().any(|c| !c.prefetch.enabled));
    }

    #[test]
    fn quick_slice_is_small() {
        for cfg in slice_configs(true) {
            assert_eq!(cfg.procs, 4);
            assert_eq!(cfg.workload.total_reads, 200);
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn measure_quick_produces_valid_report() {
        let entry = measure("unit-test", true);
        assert!(entry.events > 0);
        assert!(entry.events_per_sec > 0.0);
        assert!(entry.runs_per_sec > 0.0);
        assert_eq!(entry.sweep_runs, (6 * SWEEP_REPS) as u64);
        assert_eq!(entry.fork_runs, entry.sweep_runs);
        assert!(entry.fork_runs_per_sec > 0.0);
        let doc = merge_report(None, &entry);
        validate_report(&doc).expect("fresh report validates");
        let reparsed = Json::parse(&doc.pretty()).expect("report parses");
        validate_report(&reparsed).expect("round-tripped report validates");
    }

    #[test]
    fn merge_replaces_same_label_keeps_others() {
        let a = measure("alpha", true);
        let doc = merge_report(None, &a);
        let mut b = a.clone();
        b.label = "beta".into();
        let doc = merge_report(Some(&doc), &b);
        let mut b2 = b.clone();
        b2.events += 1;
        let doc = merge_report(Some(&doc), &b2);
        let entries = doc.get("entries").unwrap().as_array().unwrap();
        let labels: Vec<_> = entries
            .iter()
            .map(|e| e.get("label").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(labels, vec!["alpha", "beta"]);
        let beta_events = entries[1].get("events").unwrap().as_f64().unwrap();
        assert_eq!(beta_events, b2.events as f64);
    }

    #[test]
    fn validate_rejects_malformed() {
        assert!(validate_report(&Json::Obj(vec![])).is_err());
        let no_entries = Json::Obj(vec![
            ("schema".into(), Json::Num(SCHEMA as f64)),
            ("entries".into(), Json::Arr(vec![])),
        ]);
        assert!(validate_report(&no_entries).is_err());
    }
}
