//! A benchmark session: rounds until the time is up, correctness and
//! determinism checks across them, and the reported metrics.

use std::fmt::Write as _;
use std::time::Instant;

use crate::round::{round, Round, Source, Values};
use crate::run::Fingerprint;
use crate::workload::{sweep_workers, Scale, Workload};

/// Command-line options.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
/// Every option is required; anything else is an error.
pub fn parse_options(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names = Workload::ALL.map(Workload::name).join(", ");
                let w = Workload::parse(value)
                    .ok_or_else(|| format!("unknown workload {value:?} (one of {names})"))?;
                workload = Some(w);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of a session.
#[derive(Clone, Debug)]
pub struct Report {
    /// Simulated runs performed.
    pub attempted: u64,
    /// Runs that failed a correctness or determinism check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Phase spans of the last traced round, as JSON (traced sessions).
    pub spans: Option<String>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Counts failed runs and keeps the first messages.
struct Ledger {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
    /// Fingerprints and pooled quantiles of the first untraced round;
    /// every later round must match them run for run.
    reference: Option<(Vec<Option<Fingerprint>>, f64, f64)>,
}

impl Ledger {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 20 {
            self.messages.push(msg);
        }
    }

    fn account(&mut self, r: &Round, traced: bool) {
        let kind = if traced { "traced" } else { "untraced" };
        let reference = self.reference.get_or_insert_with(|| {
            let fps = r.records.iter().map(|x| x.fingerprint.clone()).collect();
            (fps, r.read_p50_ms, r.read_p99_ms)
        });
        let mut bad = Vec::new();
        for (i, rec) in r.records.iter().enumerate() {
            let mut why = rec.failures.clone();
            if rec.fingerprint.is_none() || rec.fingerprint != reference.0[i] {
                why.push(format!("{kind} run differs from the first untraced run"));
            }
            if !why.is_empty() {
                bad.push(format!("{} ({kind}): {}", rec.label, why.join("; ")));
            }
        }
        if !traced && (r.read_p50_ms, r.read_p99_ms) != (reference.1, reference.2) {
            bad.push("pooled read quantiles differ from the first round".into());
        }
        self.attempted += r.records.len() as u64;
        for msg in bad {
            self.fail(msg);
        }
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn mean(xs: Vec<f64>) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// One metric per value name: host values aggregated over rounds with
/// `host`, exact values from the first round (they repeat exactly).
fn combine(rounds: &[Values], host: fn(Vec<f64>) -> f64, out: &mut Vec<Metric>) {
    for (name, &(first, unit, src)) in &rounds[0] {
        let value = match src {
            Source::Exact => first,
            Source::Host => host(rounds.iter().map(|v| v[name].0).collect()),
        };
        let name = name.clone();
        out.push(Metric { name, value, unit });
    }
}

/// Host memory high-water mark of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The phase spans of a traced round as a JSON array: per run `setup`,
/// `simulate` and `report` sharing the run's id, plus one `pair` span per
/// job on the sweep pool, which its runs name as parent.
fn spans_json(r: &Round) -> String {
    let mut s = String::from("[\n");
    let mut span = |id: &str, name: &str, parent: &str, start: f64, secs: f64| {
        let _ = writeln!(
            s,
            "  {{\"id\": \"{id}\", \"name\": \"{name}\", \"parent\": \"{parent}\", \"start_us\": {:.3}, \"dur_us\": {:.3}}},",
            start * 1e6,
            secs * 1e6
        );
    };
    let per_job = if r.jobs.is_empty() {
        r.records.len()
    } else {
        r.records.len() / r.jobs.len()
    };
    for (j, p) in r.jobs.iter().enumerate() {
        span(&format!("pair-{j}"), "pair", "", p.start_s, p.secs);
    }
    for (i, rec) in r.records.iter().enumerate() {
        let id = format!("run-{i}");
        let parent = if r.jobs.is_empty() {
            String::new()
        } else {
            format!("pair-{}", i / per_job)
        };
        let setup_start = if rec.generate.secs > 0.0 {
            rec.generate.start_s
        } else {
            rec.build.start_s
        };
        let setup_end = rec.build.start_s + rec.build.secs;
        span(&id, "setup", &parent, setup_start, setup_end - setup_start);
        span(
            &id,
            "simulate",
            &parent,
            rec.simulate.start_s,
            rec.simulate.secs,
        );
        span(&id, "report", &parent, rec.report.start_s, rec.report.secs);
    }
    if s.ends_with(",\n") {
        s.truncate(s.len() - 2);
        s.push('\n');
    }
    s.push(']');
    s
}

/// Runs `opts.workload` at `scale` in rounds until `opts.seconds` have
/// passed (at least one round; a traced session alternates an untraced
/// and a traced round). Untraced sessions report the end-to-end metrics;
/// traced ones the per-layer metrics.
pub fn execute(opts: &Options, scale: Scale) -> Result<Report, String> {
    let jobs = opts.workload.jobs(opts.seed, scale)?;
    let workers = sweep_workers();
    let start = Instant::now();
    let mut ledger = Ledger {
        attempted: 0,
        failed: 0,
        messages: Vec::new(),
        reference: None,
    };
    let (mut e2e, mut layers, mut traced, mut walls) = (vec![], vec![], vec![], (vec![], vec![]));
    let (mut spans, mut reads) = (None, 0.0);
    loop {
        let r = round(&jobs, false, workers);
        eprintln!("simbench: untraced round {:.4}s", r.wall_s);
        ledger.account(&r, false);
        e2e.push(r.end_to_end());
        reads += r.reads();
        walls.0.push(r.wall_s);
        if opts.trace {
            layers.push(r.layers());
            drop(r);
            let t = round(&jobs, true, workers);
            eprintln!("simbench: traced round {:.4}s", t.wall_s);
            ledger.account(&t, true);
            traced.push(t.traced_layers());
            walls.1.push(t.wall_s);
            spans = Some(spans_json(&t));
        }
        if start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }

    let mut metrics = Vec::new();
    if opts.trace {
        combine(&layers, mean, &mut metrics);
        combine(&traced, mean, &mut metrics);
        let (name, unit) = ("trace.overhead_ratio".into(), "ratio");
        let value = mean(walls.1) / mean(walls.0);
        metrics.push(Metric { name, value, unit });
    } else {
        // The read rate over the whole session: every round's reads over
        // every round's wall time. Setup time is the median round's.
        let (name, unit) = ("reads_per_s".into(), "reads/s");
        let value = reads / walls.0.iter().sum::<f64>();
        metrics.push(Metric { name, value, unit });
        combine(&e2e, median, &mut metrics);
        let (name, unit) = ("peak_rss_mb".into(), "MB");
        metrics.push(Metric {
            name,
            value: peak_rss_mb()?,
            unit,
        });
    }
    for m in &metrics {
        if !m.value.is_finite() {
            ledger.fail(format!("metric {} is not finite", m.name));
        }
    }
    Ok(Report {
        attempted: ledger.attempted,
        failed: ledger.failed,
        failures: ledger.messages,
        metrics,
        spans,
    })
}
