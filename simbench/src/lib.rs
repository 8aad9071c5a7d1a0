//! The RAPID Transit simulator's benchmark: runs a named workload from a
//! seed for a given number of seconds, checks every simulated run, and
//! reports end-to-end metrics (untraced) or per-layer metrics (traced).
//! See `README.md` beside this crate for the workloads, the metrics and
//! how they are expected to interact.

pub mod alloc;
pub mod bench;
pub mod round;
pub mod run;
pub mod workload;
