//! The benchmark's named workloads and the simulator configurations each
//! one runs. Flags go through the CLI's own parser, so every workload is
//! exactly a `rapid-transit run` invocation (or the paper grid).

use rapid_transit::cli::build_config;
use rapid_transit::core::experiment::paper_grid;
use rapid_transit::core::{ExperimentConfig, PrefetchConfig};

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// lfp with prefetching, every optional layer off, millions of reads:
    /// the event loop does almost all the host work.
    LfpLong,
    /// The paper's 46-configuration grid as base/prefetch pairs on the
    /// sweep worker pool: short runs, so fixed per-run costs dominate.
    GridSweep,
    /// lfp with every optional layer configured and active.
    LfpLayersOn,
}

/// How large a round of a workload is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A shrunken copy of the same configuration, for tests.
    Small,
}

/// The CLI flags shared by both lfp workloads.
const LFP: &[&str] = &["--pattern", "lfp", "--prefetch", "--sync", "per-proc:10"];

/// Every optional layer configured so that each one acts during the run:
/// device faults with timeouts and redirects, hedging, a retry budget,
/// breakers, verification with corruption and scrubbing, admission
/// control with bounded queues, and a node crash with rejoin.
const LAYERS_ON: &[&str] = &[
    "--faults",
    "straggler:0:x8,flaky:5:p0.02,corrupt:7:p0.01,crash:3@20s:rejoin@60s",
    "--replicas",
    "1",
    "--io-timeout",
    "150",
    "--hedge",
    "60",
    "--retry-budget",
    "32:0.25",
    "--breaker",
    "0.5",
    "--verify",
    "--scrub",
    "--prefetch-credits",
    "40",
    "--queue-depth",
    "8",
];

/// Worker threads for the grid sweep: two, or fewer on a smaller host.
pub fn sweep_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::LfpLong,
        Workload::GridSweep,
        Workload::LfpLayersOn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LfpLong => "lfp-long",
            Workload::GridSweep => "grid-sweep",
            Workload::LfpLayersOn => "lfp-layers-on",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The jobs of one round. A job is the runs that share one generated
    /// reference string: a single run for the lfp workloads, a
    /// base/prefetch pair (as `experiment::run_pair` builds it) for each
    /// grid configuration. Every run takes its seed from `seed`.
    pub fn jobs(self, seed: u64, scale: Scale) -> Result<Vec<Vec<ExperimentConfig>>, String> {
        let lfp = |blocks: u32, extra: &[&str]| -> Result<ExperimentConfig, String> {
            let seed = seed.to_string();
            let blocks = blocks.to_string();
            let mut args: Vec<String> = LFP.iter().map(|s| s.to_string()).collect();
            args.extend(["--blocks", &blocks, "--seed", &seed].map(String::from));
            args.extend(extra.iter().map(|s| s.to_string()));
            build_config(&args)
        };
        let full = scale == Scale::Full;
        Ok(match self {
            Workload::LfpLong => vec![vec![lfp(if full { 2_000_000 } else { 20_000 }, &[])?]],
            Workload::LfpLayersOn => {
                vec![vec![lfp(if full { 1_000_000 } else { 20_000 }, LAYERS_ON)?]]
            }
            Workload::GridSweep => paper_grid()
                .into_iter()
                .map(|mut cfg| {
                    cfg.seed = seed;
                    if !full {
                        cfg.workload.file_blocks = 200;
                        cfg.workload.total_reads = 200;
                    }
                    let mut base = cfg.clone();
                    base.prefetch = PrefetchConfig::disabled();
                    let mut pf = cfg;
                    pf.prefetch = PrefetchConfig::paper();
                    vec![base, pf]
                })
                .collect(),
        })
    }
}
