//! # rt-core — the RAPID Transit testbed
//!
//! The paper's contribution: a parallel file system with an interleaved
//! block cache and **idle-time prefetching**, driven by synthetic parallel
//! workloads, measured end to end.
//!
//! * [`config`] — experiment descriptions and the NUMA cost model.
//! * [`world`] — the event-driven machine: user processes (read → compute →
//!   synchronize), the read path through the shared cache, and the per-node
//!   prefetch daemon that runs only during user idle time and charges
//!   overrun when it overshoots.
//! * [`policy`] — prefetch block selection: the paper's optimistic oracle
//!   (with portion feasibility limits and the §V-E minimum prefetch lead)
//!   plus on-line predictor policies.
//! * [`barrier`] — the synchronization substrate with per-arrival wait
//!   accounting.
//! * [`experiment`] — runners: single runs, base/prefetch pairs, the full
//!   §IV-D grid, and a thread-parallel sweep.
//! * [`metrics`] / [`report`] — every measure of §IV-C and the table
//!   formatting used to regenerate the paper's figures.
//!
//! ```
//! use rt_core::experiment::{run_pair, ExperimentConfig};
//! use rt_patterns::{AccessPattern, SyncStyle};
//!
//! let mut cfg = ExperimentConfig::paper_default(
//!     AccessPattern::GlobalWholeFile, SyncStyle::BlocksPerProc(10));
//! // Shrink the machine so the doctest runs instantly.
//! cfg.procs = 4;
//! cfg.disks = 4;
//! cfg.workload.procs = 4;
//! cfg.workload.file_blocks = 200;
//! cfg.workload.total_reads = 200;
//! let pair = run_pair(&cfg);
//! assert!(pair.prefetch.hit_ratio > pair.base.hit_ratio);
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod barrier;
pub mod config;
pub mod experiment;
pub mod faults;
pub mod health;
pub mod integrity;
pub mod metrics;
pub mod policy;
pub mod report;
pub mod sweeps;
pub mod trace;
pub mod world;

pub use admission::AdmissionConfig;
pub use config::{ConfigError, CostModel, ExperimentConfig, PolicyKind, PrefetchConfig};
pub use experiment::{
    paper_grid, run_checked, run_experiment, run_experiment_observed, run_experiment_traced,
    run_pair, run_pairs_parallel, run_replicas_forked, Checked, RunHandle, Verdict,
};
pub use faults::{
    parse_fault_spec, parse_fault_specs, DegradeConfig, FaultConfig, FaultSpecError, RetryPolicy,
};
pub use health::HealthTracker;
pub use integrity::{IntegrityConfig, IntegrityError, QuarantineConfig};
pub use metrics::{
    coefficient_of_variation, improvement, FaultMetrics, IntegrityMetrics, OverloadMetrics,
    ProcMetrics, RunMetrics, RunPair,
};
pub use sweeps::{
    buffer_sweep_over, compute_sweep_over, lead_baselines_for, lead_sweep_over, BufferPoint,
    ComputePoint, LeadPoint,
};
pub use trace::{replay_obl, ReadOutcome, Trace, TraceEvent};
pub use world::{Ev, ObsConfig, ObsData, World};

// Re-export the substrate crates so downstream users need only rt-core.
pub use rt_cache as cache;
pub use rt_disk as disk;
pub use rt_obs as obs;
pub use rt_patterns as patterns;
pub use rt_sim as sim;
