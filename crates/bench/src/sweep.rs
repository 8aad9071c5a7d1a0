//! The one harness behind every robustness sweep: the paper's
//! base-vs-prefetch pair (or one run) over a scenario set, declared as a
//! [`Sweep`] table entry. Every run goes through [`run_checked`] once, so
//! a report's metrics come from the very run whose invariants were
//! checked after every event.

use rt_core::experiment::{pair_configs, run_checked, Checked, Verdict};
use rt_core::faults::FaultSpecError;
use rt_core::{ExperimentConfig, ObsData, RunMetrics};
use rt_patterns::{AccessPattern, SyncStyle, WorkloadParams};

use crate::json::{num, sweep_report, Check, Json};

/// One report field: its key and how to compute it from a checked run.
pub type Field = (&'static str, fn(&RunMetrics, &Verdict) -> f64);

/// One named validator rule.
pub enum Rule {
    /// In every object of each scenario `which` accepts, the numeric
    /// `field` must pass the predicate.
    Field(
        &'static str,
        fn(&str) -> bool,
        &'static str,
        fn(f64) -> bool,
    ),
    /// A check over the whole report, recording every failure it finds.
    Report(&'static str, fn(&Json, &mut Check)),
}

/// Which runs make up one scenario row.
pub enum Shape {
    /// `base` and `prefetch`: the scenario without and with prefetching.
    Pair,
    /// One `run`: the scenario's configuration as given.
    Single,
}

impl Shape {
    /// Report keys of the row's runs, in run order.
    pub fn keys(&self) -> &'static [&'static str] {
        match self {
            Shape::Pair => &["base", "prefetch"],
            Shape::Single => &["run"],
        }
    }
}

/// A trailing per-row object: the row's last run soaked over derived
/// seeds until `events[smoke]` events have been checked (0: the run alone).
pub struct Soak {
    /// Report key of the object.
    pub key: &'static str,
    /// Events the soak must reach, `[full, smoke]`.
    pub events: [u64; 2],
    /// The object's fields, computed from the soak's combined verdict.
    pub fields: &'static [Field],
}

/// One named scenario of a sweep.
pub struct Scenario {
    /// Stable scenario name (report key).
    pub name: String,
    /// A secondary label reported after the name, where the sweep has one.
    pub variant: Option<&'static str>,
    /// The full experiment configuration.
    pub cfg: ExperimentConfig,
}

impl Scenario {
    /// A scenario without a variant label.
    pub fn new(name: impl Into<String>, cfg: ExperimentConfig) -> Self {
        let (name, variant) = (name.into(), None);
        Scenario { name, variant, cfg }
    }
}

/// A sweep declared as data; see the module docs.
pub struct Sweep {
    /// CLI subcommand and report kind.
    pub name: &'static str,
    /// Default output file.
    pub out: &'static str,
    /// The scenario set (`true`: shrunk for smoke runs).
    pub scenarios: fn(bool) -> Result<Vec<Scenario>, FaultSpecError>,
    /// Which runs each row holds.
    pub shape: Shape,
    /// Every per-run report field, in report order.
    pub fields: &'static [Field],
    /// The trailing soak object, if the sweep reports one.
    pub soak: Option<Soak>,
    /// The sweep's own validator rules, on top of `shape` and `coverage`.
    pub rules: &'static [Rule],
}

/// Every sweep, in CLI order.
pub const SWEEPS: [&Sweep; 5] = [
    &crate::faults::SWEEP,
    &crate::soak::SWEEP,
    &crate::integrity::SWEEP,
    &crate::crashes::SWEEP,
    &crate::tail::SWEEP,
];

/// One scenario's checked runs.
pub struct Row {
    /// The scenario.
    pub scenario: Scenario,
    /// One checked run per [`Shape::keys`] entry.
    pub runs: Vec<Checked>,
    /// The soak's combined verdict, and the recording of a failed cycle.
    pub soak: Option<(Verdict, Option<ObsData>)>,
}

impl Row {
    /// The first failed check with its flight recording, if any.
    pub fn violation(&self) -> Option<(&str, Option<&ObsData>)> {
        let runs = self
            .runs
            .iter()
            .map(|c| (&c.verdict, c.result.as_ref().err()));
        let soak = self.soak.iter().map(|(v, f)| (v, f.as_ref()));
        runs.chain(soak)
            .find_map(|(v, f)| Some((v.violation.as_deref()?, f)))
    }

    /// The metrics of the `i`th run (rows are reported only when clean).
    pub fn metrics(&self, i: usize) -> &RunMetrics {
        self.runs[i].result.as_ref().ok().expect("a clean run")
    }
}

/// The paper's machine, or with `small` the 4-node, 4-disk, 200-block
/// machine of smoke runs and the soak.
pub fn machine(pattern: AccessPattern, sync: SyncStyle, small: bool) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_default(pattern, sync);
    if small {
        (cfg.procs, cfg.disks) = (4, 4);
        cfg.workload = WorkloadParams {
            procs: 4,
            file_blocks: 200,
            total_reads: 200,
            ..WorkloadParams::paper()
        };
    }
    cfg
}

impl Sweep {
    /// Run every scenario, each run checked once (a pair's halves from
    /// [`pair_configs`]); the soak continues from the last run.
    pub fn run(&self, smoke: bool) -> Result<Vec<Row>, FaultSpecError> {
        let row = |scenario: Scenario| {
            let cfgs = match self.shape {
                Shape::Pair => pair_configs(&scenario.cfg).to_vec(),
                Shape::Single => vec![scenario.cfg.clone()],
            };
            let runs: Vec<Checked> = cfgs.iter().map(run_checked).collect();
            let soak = self.soak.as_ref().map(|s| {
                let (cfg, first) = (cfgs.last().unwrap(), &runs.last().unwrap().verdict);
                soak(cfg, first, s.events[usize::from(smoke)])
            });
            Row {
                scenario,
                runs,
                soak,
            }
        };
        Ok((self.scenarios)(smoke)?.into_iter().map(row).collect())
    }

    /// The report document for clean `rows`.
    pub fn report(&self, rows: &[Row], smoke: bool) -> Json {
        let obj = |fields: &[Field], m: &RunMetrics, v: &Verdict| {
            Json::Obj(fields.iter().map(|(k, f)| num(k, f(m, v))).collect())
        };
        let row = |r: &Row| {
            let mut out = vec![("name".into(), Json::Str(r.scenario.name.clone()))];
            if let Some(v) = r.scenario.variant {
                out.push(("variant".into(), Json::Str(v.into())));
            }
            for (i, (key, c)) in self.shape.keys().iter().zip(&r.runs).enumerate() {
                out.push((key.to_string(), obj(self.fields, r.metrics(i), &c.verdict)));
            }
            if let (Some(s), Some((v, _))) = (&self.soak, &r.soak) {
                out.push((s.key.into(), obj(s.fields, r.metrics(r.runs.len() - 1), v)));
            }
            Json::Obj(out)
        };
        sweep_report(1, smoke, rows.iter().map(row).collect())
    }

    /// Every rule's findings on `doc`, by rule name: `shape` (schema,
    /// scenario array, every object and field present and non-negative),
    /// `coverage` (every scenario of the set present, under its variant),
    /// then [`Sweep::rules`].
    pub fn findings(&self, doc: &Json) -> Vec<(&'static str, Result<(), String>)> {
        let apply = |name, rule: &dyn Fn(&mut Check)| {
            let mut c = Check::new();
            rule(&mut c);
            (name, c.finish())
        };
        let mut out = vec![
            apply("shape", &|c| self.check_shape(doc, c)),
            apply("coverage", &|c| self.check_coverage(doc, c)),
        ];
        for rule in self.rules {
            out.push(match *rule {
                Rule::Report(name, check) => apply(name, &|c| check(doc, c)),
                Rule::Field(name, which, field, ok) => apply(name, &|c| {
                    for (ctx, _, obj) in objects(doc).filter(|o| which(o.1)) {
                        if let Some(v) = obj.number(field).filter(|&v| !ok(v)) {
                            c.fail(format!("{ctx}: {field} = {v} breaks {name}"));
                        }
                    }
                }),
            });
        }
        out
    }

    /// Check a report against every rule; every failure is reported,
    /// newline-joined, not just the first.
    pub fn validate(&self, doc: &Json) -> Result<(), String> {
        let findings = self.findings(doc);
        let errors: Vec<_> = findings.into_iter().filter_map(|f| f.1.err()).collect();
        errors.is_empty().then_some(()).ok_or(errors.join("\n"))
    }

    fn check_shape(&self, doc: &Json, c: &mut Check) {
        c.require_schema(doc, 1);
        let runs = self.shape.keys().iter().map(|k| (*k, self.fields));
        let soak = self.soak.iter().map(|s| (s.key, s.fields));
        let objects: Vec<_> = runs.chain(soak).collect();
        for (i, s) in c.array(doc, "scenarios").iter().enumerate() {
            let Some(name) = c.string(s, "name", &format!("scenario {i}")) else {
                continue;
            };
            for (key, fields) in &objects {
                let Some(obj) = s.get(key) else {
                    c.fail(format!("scenario {name}: missing {key}"));
                    continue;
                };
                for (field, _) in *fields {
                    c.num(obj, field, &format!("scenario {name}/{key}"));
                }
            }
        }
    }

    fn check_coverage(&self, doc: &Json, c: &mut Check) {
        if named(doc).next().is_none() {
            return; // an empty report is the shape check's to reject
        }
        let smoke = doc.get("smoke").and_then(Json::as_bool).unwrap_or(false);
        let set = (self.scenarios)(smoke).unwrap_or_else(|e| {
            c.fail(format!("cannot build the scenario set: {e}"));
            Vec::new()
        });
        for want in set {
            let Some((name, s)) = named(doc).find(|(n, _)| *n == want.name) else {
                c.fail(format!("missing scenario {}", want.name));
                continue;
            };
            let variant = s.get("variant").and_then(Json::as_str);
            if variant != want.variant {
                c.fail(format!("scenario {name}: variant {variant:?}"));
            }
        }
    }
}

/// Extend `first`, a checked run of `cfg`, over derived seeds until
/// `target` events have been checked or a cycle fails.
fn soak(cfg: &ExperimentConfig, first: &Verdict, target: u64) -> (Verdict, Option<ObsData>) {
    let mut total = first.clone();
    while total.violation.is_none() && total.events < target {
        let mut cfg = cfg.clone();
        cfg.seed = cfg.seed.wrapping_add(total.runs.wrapping_mul(0x9e37_79b9));
        let cycle = run_checked(&cfg);
        (total.events, total.runs) = (total.events + cycle.verdict.events, total.runs + 1);
        total.violation = cycle.verdict.violation;
        if let Err(flight) = cycle.result {
            return (total, Some(flight));
        }
    }
    (total, None)
}

/// Every named scenario of a report (unnamed ones are `shape`'s to report).
pub fn named(doc: &Json) -> impl Iterator<Item = (&str, &Json)> {
    let all = doc.get("scenarios").and_then(Json::as_array).unwrap_or(&[]);
    all.iter()
        .filter_map(|s| Some((s.get("name")?.as_str()?, s)))
}

/// Every per-scenario object of a report (runs and soak alike) as
/// `(context, scenario name, object)`.
pub fn objects(doc: &Json) -> impl Iterator<Item = (String, &str, &Json)> {
    named(doc).flat_map(|(name, s)| {
        let keys = ["base", "prefetch", "run", "soak", "observed"].into_iter();
        keys.filter_map(move |k| Some((format!("scenario {name}/{k}"), name, s.get(k)?)))
    })
}

/// Every scenario, for [`Rule::Field`].
pub fn every(_: &str) -> bool {
    true
}

/// A zero value, for [`Rule::Field`].
pub fn zero(v: f64) -> bool {
    v == 0.0
}

/// A positive value, for [`Rule::Field`].
pub fn positive(v: f64) -> bool {
    v > 0.0
}

/// Shared rule: no run or soak reported a failed check.
pub const NO_VIOLATIONS: Rule = Rule::Field("no-violations", every, "violations", zero);

/// Shared rule: every read is accounted for
/// (`completed + lost + abandoned == expected`, `expected > 0`).
pub const ACCOUNTING: Rule = Rule::Report("accounting", |doc, c| {
    for (ctx, _, run) in objects(doc) {
        let n = |k| run.number(&format!("{k}_reads"));
        let [Some(done), Some(lost), Some(gone), Some(want)] =
            ["completed", "lost", "abandoned", "expected"].map(n)
        else {
            continue;
        };
        if done + lost + gone != want || want <= 0.0 {
            c.fail(format!(
                "{ctx}: {done} completed + {lost} lost + {gone} abandoned vs {want} expected"
            ));
        }
    }
});

/// Total simulated time.
pub const TOTAL_MS: Field = ("total_ms", |m, _| m.total_time.as_millis_f64());
/// Mean read time.
pub const READ_MS: Field = ("read_ms", |m, _| m.mean_read_ms());
/// Cache hit ratio.
pub const HIT_RATIO: Field = ("hit_ratio", |m, _| m.hit_ratio);
/// Events the run (or soak) dispatched.
pub const EVENTS: Field = ("events", |_, v| v.events as f64);
/// Whether any check failed, for [`NO_VIOLATIONS`].
pub const VIOLATIONS: Field = ("violations", |_, v| v.violation.is_some() as u8 as f64);
/// The read accounting of [`ACCOUNTING`] (with `lost_reads` from the
/// crash counters), then [`VIOLATIONS`].
pub const VERDICT: [Field; 4] = [
    ("completed_reads", |_, v| v.completed as f64),
    ("abandoned_reads", |_, v| v.abandoned as f64),
    ("expected_reads", |_, v| v.expected as f64),
    VIOLATIONS,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{crashes, faults, integrity, soak, tail};

    #[test]
    fn machine_shrinks_only_when_small() {
        let p = (AccessPattern::GlobalWholeFile, SyncStyle::None);
        assert_eq!(machine(p.0, p.1, false).procs, 20);
        let small = machine(p.0, p.1, true);
        assert_eq!(
            (small.procs, small.disks, small.workload.total_reads),
            (4, 4, 200)
        );
        small.validate().unwrap();
    }

    /// The committed full report of each sweep, the valid starting point
    /// every negative row below breaks in exactly one way.
    fn committed(sweep: &Sweep) -> Json {
        let text = match sweep.name {
            "faults" => include_str!("../../../BENCH_faults.json"),
            "soak" => include_str!("../../../BENCH_overload.json"),
            "integrity" => include_str!("../../../BENCH_integrity.json"),
            "crashes" => include_str!("../../../BENCH_crash.json"),
            "tail" => include_str!("../../../BENCH_tail.json"),
            other => panic!("no committed report for {other}"),
        };
        Json::parse(text).unwrap()
    }

    fn scenarios_mut(doc: &mut Json) -> &mut Vec<Json> {
        let Json::Obj(top) = doc else {
            panic!("report is an object")
        };
        match top.iter_mut().find(|(k, _)| k == "scenarios") {
            Some((_, Json::Arr(items))) => items,
            _ => panic!("report has a scenario array"),
        }
    }

    fn fields_mut(obj: &mut Json) -> &mut Vec<(String, Json)> {
        let Json::Obj(fields) = obj else {
            panic!("not an object")
        };
        fields
    }

    /// Set `path` (e.g. `["run", "corruptions"]`) to `v` in every
    /// scenario whose name ends with `suffix`.
    fn set(doc: &mut Json, suffix: &str, path: &[&str], v: Json) {
        for s in scenarios_mut(doc) {
            if !s
                .get("name")
                .and_then(Json::as_str)
                .unwrap()
                .ends_with(suffix)
            {
                continue;
            }
            let mut at = s;
            for key in path {
                let fields = fields_mut(at);
                at = &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1;
            }
            *at = v.clone();
        }
    }

    fn set_num(doc: &mut Json, suffix: &str, path: &[&str], v: f64) {
        set(doc, suffix, path, Json::Num(v));
    }

    /// Drop the scenario named `name`, or with `key` only that key of it.
    fn remove(doc: &mut Json, name: &str, key: Option<&str>) {
        let named = |s: &Json| s.get("name").and_then(Json::as_str) == Some(name);
        let items = scenarios_mut(doc);
        match key {
            None => items.retain(|s| !named(s)),
            Some(key) => {
                let s = items.iter_mut().find(|s| named(s)).unwrap();
                fields_mut(s).retain(|(k, _)| k != key);
            }
        }
    }

    type Row = (&'static Sweep, &'static str, fn(&mut Json), &'static str);

    const EMPTY: fn(&mut Json) =
        |d| *d = Json::parse(r#"{"schema":1,"smoke":true,"scenarios":[]}"#).unwrap();
    const NOTHING: fn(&mut Json) = |d| *d = Json::parse("{}").unwrap();

    /// One row per way to break a report: the sweep, the one rule that
    /// must fire, the edit, and a fragment of that rule's message.
    const ROWS: &[Row] = &[
        (
            &faults::SWEEP,
            "shape",
            NOTHING,
            "missing or unexpected schema",
        ),
        (&faults::SWEEP, "shape", EMPTY, "scenarios array is empty"),
        (
            &faults::SWEEP,
            "shape",
            |d| remove(d, "straggler-x4", Some("prefetch")),
            "straggler-x4: missing prefetch",
        ),
        (
            &faults::SWEEP,
            "control-clean",
            |d| set_num(d, "none", &["base", "io_errors"], 3.0),
            "none/base: io_errors = 3 breaks control-clean",
        ),
        (
            &faults::SWEEP,
            "coverage",
            |d| remove(d, "none", None),
            "missing scenario none",
        ),
        (&soak::SWEEP, "shape", NOTHING, "missing scenarios array"),
        (&soak::SWEEP, "shape", EMPTY, "scenarios array is empty"),
        (
            &soak::SWEEP,
            "shape",
            |d| set_num(d, "io-burst", &["base", "read_ms"], -1.0),
            "io-burst/base: negative read_ms",
        ),
        (
            &soak::SWEEP,
            "shape",
            |d| remove(d, "hot-disk", Some("soak")),
            "hot-disk: missing soak",
        ),
        (
            &soak::SWEEP,
            "prefetch-pays",
            |d| set_num(d, "io-burst", &["prefetch", "total_ms"], 1e9),
            "slower than base",
        ),
        (
            &soak::SWEEP,
            "no-violations",
            |d| set_num(d, "io-burst", &["soak", "violations"], 1.0),
            "io-burst/soak: violations = 1",
        ),
        (
            &soak::SWEEP,
            "soak-floor",
            |d| set_num(d, "io-burst", &["soak", "events"], 10.0),
            "short of the 1000000-event floor (events = 10)",
        ),
        (
            &soak::SWEEP,
            "coverage",
            |d| remove(d, "node-churn", None),
            "missing scenario node-churn",
        ),
        (
            &integrity::SWEEP,
            "shape",
            NOTHING,
            "missing or unexpected schema",
        ),
        (
            &integrity::SWEEP,
            "shape",
            EMPTY,
            "scenarios array is empty",
        ),
        (
            &integrity::SWEEP,
            "shape",
            |d| remove(d, "lw/clean", Some("run")),
            "lw/clean: missing run",
        ),
        (
            &integrity::SWEEP,
            "coverage",
            |d| set(d, "lfp/clean", &["variant"], Json::Str("bogus".into())),
            "lfp/clean: variant Some(\"bogus\")",
        ),
        (
            &integrity::SWEEP,
            "coverage",
            |d| remove(d, "gfp/corrupt-scrub", None),
            "missing scenario gfp/corrupt-scrub",
        ),
        (
            &integrity::SWEEP,
            "no-corrupt-delivery",
            |d| set_num(d, "lfp/corrupt", &["run", "corrupt_delivered"], 1.0),
            "lfp/corrupt/run: corrupt_delivered = 1",
        ),
        (
            &integrity::SWEEP,
            "control-uncorrupted",
            |d| set_num(d, "gw/clean", &["run", "corruptions"], 2.0),
            "gw/clean/run: corruptions = 2",
        ),
        (
            &integrity::SWEEP,
            "control-unpoisoned",
            |d| set_num(d, "gw/clean", &["run", "poisoned_blocks"], 1.0),
            "gw/clean/run: poisoned_blocks = 1",
        ),
        (
            &integrity::SWEEP,
            "all-caught",
            |d| set_num(d, "lfp/corrupt", &["run", "corruptions"], 0.0),
            "lfp/corrupt/run: 0 corruptions observed",
        ),
        (
            &integrity::SWEEP,
            "all-caught",
            |d| set_num(d, "grp/corrupt-scrub", &["run", "detections"], 1e6),
            "grp/corrupt-scrub/run: ",
        ),
        (
            &integrity::SWEEP,
            "scrubbed",
            |d| set_num(d, "/corrupt-scrub", &["run", "scrubbed"], 0.0),
            "never issued a scrub read",
        ),
        (
            &integrity::SWEEP,
            "observed-ran",
            |d| set_num(d, "lfp/clean", &["observed", "events"], 0.0),
            "lfp/clean/observed: events = 0",
        ),
        (
            &integrity::SWEEP,
            "no-violations",
            |d| set_num(d, "lfp/clean", &["observed", "violations"], 1.0),
            "lfp/clean/observed: violations = 1",
        ),
        (
            &crashes::SWEEP,
            "shape",
            NOTHING,
            "missing or unexpected schema",
        ),
        (&crashes::SWEEP, "shape", EMPTY, "scenarios array is empty"),
        (
            &crashes::SWEEP,
            "no-violations",
            |d| set_num(d, "gw-early", &["base", "violations"], 1.0),
            "gw-early/base: violations = 1",
        ),
        (
            &crashes::SWEEP,
            "accounting",
            |d| set_num(d, "gw-early", &["base", "completed_reads"], 150.0),
            "gw-early/base: 150 completed +",
        ),
        (
            &crashes::SWEEP,
            "accounting",
            |d| {
                for f in [
                    "completed_reads",
                    "lost_reads",
                    "abandoned_reads",
                    "expected_reads",
                ] {
                    set_num(d, "gw-early", &["base", f], 0.0);
                }
            },
            "vs 0 expected",
        ),
        (
            &crashes::SWEEP,
            "crash-counts",
            |d| set_num(d, "gw-early", &["base", "crashes"], 2.0),
            "gw-early/base: crashes = 2, want 1",
        ),
        (
            &crashes::SWEEP,
            "crash-counts",
            |d| set_num(d, "lw-rejoin", &["prefetch", "rejoins"], 0.0),
            "lw-rejoin/prefetch: rejoins = 0, want 1",
        ),
        (
            &crashes::SWEEP,
            "coverage",
            |d| remove(d, "gw-early", None),
            "missing scenario gw-early",
        ),
        (
            &tail::SWEEP,
            "shape",
            NOTHING,
            "missing or unexpected schema",
        ),
        (&tail::SWEEP, "shape", EMPTY, "scenarios array is empty"),
        (
            &tail::SWEEP,
            "no-violations",
            |d| set_num(d, "gw-outage-hedge", &["run", "violations"], 1.0),
            "violations = 1 breaks no-violations",
        ),
        (
            &tail::SWEEP,
            "accounting",
            |d| set_num(d, "gw-outage-hedge", &["run", "abandoned_reads"], 7.0),
            "7 abandoned vs",
        ),
        (
            &tail::SWEEP,
            "exactly-once",
            |d| {
                set_num(
                    d,
                    "gw-straggler-hedge",
                    &["run", "duplicate_deliveries"],
                    1.0,
                )
            },
            "duplicate_deliveries = 1 breaks exactly-once",
        ),
        (
            &tail::SWEEP,
            "hedged-p99",
            |d| set_num(d, "gw-straggler-hedge", &["run", "read_p99_ms"], 1e6),
            "> timeout-only",
        ),
        (
            &tail::SWEEP,
            "budget-bound",
            |d| set_num(d, "gw-outage-full", &["run", "budget_spent"], 1e6),
            "exceeds the bucket bound",
        ),
        (
            &tail::SWEEP,
            "timeout-unhedged",
            |d| set_num(d, "gfp-straggler-timeout", &["run", "hedges_launched"], 1.0),
            "hedges_launched = 1",
        ),
        (
            &tail::SWEEP,
            "timeout-unbudgeted",
            |d| set_num(d, "lrp-outage-timeout", &["run", "budget_spent"], 1.0),
            "budget_spent = 1",
        ),
        (
            &tail::SWEEP,
            "timeout-unbroken",
            |d| set_num(d, "lw-outage-timeout", &["run", "breaker_opens"], 1.0),
            "breaker_opens = 1",
        ),
        (
            &tail::SWEEP,
            "hedges-fire",
            |d| set_num(d, "gw-straggler-full", &["run", "hedges_launched"], 0.0),
            "hedges_launched = 0 breaks hedges-fire",
        ),
        (
            &tail::SWEEP,
            "breakers-open",
            |d| set_num(d, "grp-outage-full", &["run", "breaker_opens"], 0.0),
            "breaker_opens = 0 breaks breakers-open",
        ),
        (
            &tail::SWEEP,
            "coverage",
            |d| remove(d, "lrp-straggler-crash-full", None),
            "missing scenario lrp-straggler-crash-full",
        ),
    ];

    #[test]
    fn every_rule_rejects_exactly_its_own_breakage() {
        for sweep in SWEEPS {
            let doc = committed(sweep);
            sweep
                .validate(&doc)
                .unwrap_or_else(|e| panic!("{}: committed report: {e}", sweep.name));
            // Every rule of every sweep has at least one row.
            for (rule, _) in sweep.findings(&doc) {
                let covered = ROWS.iter().any(|r| std::ptr::eq(r.0, sweep) && r.1 == rule);
                assert!(covered, "{}: rule {rule} has no negative row", sweep.name);
            }
        }
        for (sweep, rule, edit, message) in ROWS {
            let mut doc = committed(sweep);
            edit(&mut doc);
            let findings = sweep.findings(&doc);
            assert!(
                findings.iter().any(|(n, _)| n == rule),
                "{}: no rule {rule}",
                sweep.name
            );
            for (name, found) in findings {
                let ctx = format!("{} row {rule}/{message:?}, rule {name}", sweep.name);
                match found {
                    Err(e) if name == *rule => assert!(e.contains(message), "{ctx}: {e}"),
                    Ok(()) if name == *rule => panic!("{ctx}: did not fire"),
                    Err(e) => panic!("{ctx}: fired too: {e}"),
                    Ok(()) => {}
                }
            }
            assert!(sweep.validate(&doc).unwrap_err().contains(message));
        }
    }
}
