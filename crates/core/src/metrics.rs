//! Run metrics — every measure the paper's §IV-C enumerates.

use rt_sim::{Sampled, SimDuration, SimTime, Tally};

/// Per-process measurements — the paper's Fig. 1(b) concern made
/// quantitative: when prefetching benefits distribute unevenly, fast
/// processes wait at barriers for slow ones and the average read time
/// stops predicting total time.
#[derive(Clone, Debug)]
pub struct ProcMetrics {
    /// This process's block read times.
    pub reads: Tally,
    /// Hits (ready + unready) this process received.
    pub hits: u64,
    /// Prefetch I/Os this node's daemon issued.
    pub prefetches_issued: u64,
    /// When this process finished its reference string.
    pub finish: SimTime,
}

/// All measurements from one experiment run.
///
/// Quantities map one-to-one onto §IV-C of the paper: overall completion
/// time, average block read time, average effective disk access time
/// (contention), blocks prefetched vs demand-fetched (hit ratio), the three
/// idle-time accounts, prefetch action lengths, and overrun.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// Completion time of the whole computation (the last process's finish).
    pub total_time: SimDuration,
    /// Per-process finish times.
    pub proc_finish: Vec<SimTime>,
    /// Block read times (request to data-copied), over all reads.
    pub reads: Tally,
    /// Read-time sample reservoir for quantiles (p50/p95/p99); same
    /// population as `reads`.
    pub read_times: Sampled,
    /// Disk response-time samples (submission to completion, all fetch
    /// kinds) for quantiles; same population as `disk_response`.
    pub disk_response_times: Sampled,
    /// Cache hit ratio (ready + unready hits over all reads).
    pub hit_ratio: f64,
    /// Reads satisfied from a ready buffer.
    pub ready_hits: u64,
    /// Reads that found a pending buffer (hit-wait > 0 possible).
    pub unready_hits: u64,
    /// Reads that missed.
    pub misses: u64,
    /// Hit-wait times (zero for ready hits, positive for unready hits).
    pub hit_wait: Sampled,
    /// Disk response times (queue entry to completion), all requests.
    pub disk_response: Tally,
    /// Total disk operations.
    pub disk_ops: u64,
    /// Mean disk utilization over the run.
    pub disk_utilization: f64,
    /// Blocks fetched on demand.
    pub demand_fetches: u64,
    /// Blocks prefetched.
    pub prefetches: u64,
    /// Per-arrival synchronization waits (arrival to barrier-open).
    pub sync_wait: Tally,
    /// Number of barrier episodes completed.
    pub barriers: u64,
    /// Durations of prefetch actions (lock wait + work; no I/O wait).
    pub action_time: Tally,
    /// Prefetch actions that found no candidate or no buffer.
    pub failed_actions: u64,
    /// Overrun: prefetch activity extending past the moment the user
    /// process was logically able to resume.
    pub overrun: Tally,
    /// Logically necessary idle periods (wait begin to logical wake).
    pub idle_necessary: Tally,
    /// Actual idle periods (wait begin to actual resumption).
    pub idle_actual: Tally,
    /// Cache-lock waiting times (shared-structure contention).
    pub lock_wait: Tally,
    /// Demand allocations that had to spin because every candidate buffer
    /// was pinned by an in-flight copy. A retried miss can be satisfied by
    /// another process's fetch, so `misses - demand_fetches` is bounded by
    /// this count.
    pub alloc_retries: u64,
    /// Per-process breakdowns (benefit distribution).
    pub per_proc: Vec<ProcMetrics>,
    /// Fault-injection counters; all zero when the run injected nothing.
    pub faults: FaultMetrics,
    /// Overload/backpressure counters; all zero (except the always-
    /// observed `max_queue_depth`) when queues are unbounded and
    /// admission is disabled.
    pub overload: OverloadMetrics,
    /// Data-integrity counters; all zero when no corruption is injected
    /// and the scrubber is off.
    pub integrity: IntegrityMetrics,
    /// Node-crash counters; all zero when no crashes are scheduled.
    pub crash: CrashMetrics,
    /// Tail-tolerance counters (hedges, retry budget, breakers); all
    /// zero when none of the tail layer is configured.
    pub tail: TailMetrics,
    /// Read-time samples of reads that waited on a hedge (their
    /// attribution carries a nonzero `hedge_wait`), for the hedged-read
    /// quantiles. Empty unless hedging fired.
    pub hedged_read_times: Sampled,
}

/// Counters from the tail-tolerance subsystem: hedged reads, the retry
/// token budget, and per-device circuit breakers. All zero when the
/// layer is unconfigured.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TailMetrics {
    /// Duplicate fetches launched because the original was outstanding
    /// longer than the hedge delay.
    pub hedges_launched: u64,
    /// Hedges whose duplicate delivered the block first.
    pub hedge_wins: u64,
    /// Hedges whose original delivered first (the duplicate was wasted —
    /// cancelled while queued, or absorbed as a plain cache fill).
    pub hedge_wasted: u64,
    /// Hedge losers cancelled while still queued on their device (the
    /// rest of the losers complete and are absorbed as stale fills).
    pub hedge_cancels: u64,
    /// Timeout-retries and hedges denied by an exhausted retry budget
    /// (the read fell back to patient single-copy waiting).
    pub retries_denied: u64,
    /// Tokens the budget actually granted to retries and hedges; bounded
    /// by `capacity + refill * successful completions` by construction.
    pub budget_spent: u64,
    /// Closed→open breaker transitions across all devices (half-open
    /// strikes count as new episodes).
    pub breaker_opens: u64,
    /// Successful half-open probes across all devices.
    pub probe_successes: u64,
    /// Waiter deliveries that would have been duplicates (a waiter woken
    /// twice for one read). The hedging layer asserts exactly-once
    /// delivery; the bench validator rejects any run where this is not
    /// zero.
    pub duplicate_deliveries: u64,
}

/// Counters from the fault-injection subsystem: what went wrong and how
/// the read path and prefetch daemon coped. All zero in fault-free runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultMetrics {
    /// Disk completions that carried an error.
    pub io_errors: u64,
    /// Resubmissions of failed or stuck reads.
    pub retries: u64,
    /// Retry rounds past the policy's `max_retries` bound (the read kept
    /// retrying at the capped backoff; a persistently non-zero count
    /// means a device never came back and no replica could absorb it).
    pub retries_exhausted: u64,
    /// Demand reads whose per-request timeout fired.
    pub timeouts: u64,
    /// Resubmissions that targeted a replica instead of the primary.
    pub redirects: u64,
    /// Failed prefetches that were dropped rather than retried (nobody
    /// was waiting for the block).
    pub aborted_prefetches: u64,
    /// Prefetch actions skipped because the target device was degraded.
    pub degraded_skips: u64,
    /// Completions (or retry timers) that arrived after the block was
    /// already delivered by a redirected duplicate.
    pub stale_completions: u64,
    /// Healthy→degraded transitions across all devices.
    pub degraded_intervals: u64,
    /// Total simulated time devices spent classified as degraded.
    pub degraded_time: SimDuration,
}

/// Counters from the overload/backpressure subsystem: how bounded device
/// queues and the prefetch admission controller shaped traffic. All zero
/// (except `max_queue_depth`) for runs with unbounded queues and
/// admission disabled.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OverloadMetrics {
    /// Queued prefetches cancelled to make room for demand reads, plus
    /// prefetch submissions a full queue rejected outright.
    pub prefetches_shed: u64,
    /// Prefetches the admission controller refused to issue (no credits,
    /// queue high water, or cache pressure).
    pub prefetches_throttled: u64,
    /// Demand reads a full queue turned away that had to wait for the
    /// device to drain (no queued prefetch could be shed for them).
    pub demand_parked: u64,
    /// Demand reads that queued behind at least one prefetch (priority
    /// inversion; only counted while the overload layer is active).
    pub demand_behind_prefetch: u64,
    /// Prefetch denials due specifically to the cache high-water mark.
    pub cache_high_water_hits: u64,
    /// Deepest any device queue ever got (waiting requests only).
    pub max_queue_depth: u64,
}

/// Counters from the end-to-end data-integrity subsystem: silent
/// corruption injected below, checksum verification and read-repair in
/// the middle, the idle-time scrubber and device quarantine on top. All
/// zero when no corrupt windows are scheduled and the scrubber is off.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IntegrityMetrics {
    /// `Ok` completions that carried a corrupt payload (as injected by
    /// the device layer — includes scrub reads).
    pub corruptions: u64,
    /// Corrupt fills caught by checksum verification at cache fill.
    pub detections: u64,
    /// Read-repairs: corrupt fills re-fetched from a healthy replica and
    /// delivered clean.
    pub repairs: u64,
    /// Repair rewrites (clean payload written back over a corrupt copy)
    /// that completed.
    pub rewrites: u64,
    /// Scrub reads completed by the idle-time scrubber.
    pub scrubbed: u64,
    /// Corrupt payloads the scrubber caught ahead of demand.
    pub scrub_detections: u64,
    /// Blocks poisoned: every copy was corrupt, so no clean payload
    /// exists to deliver or rewrite.
    pub poisoned_blocks: u64,
    /// User reads completed with a typed integrity error (poisoned
    /// block) instead of data.
    pub failed_reads: u64,
    /// Corrupt blocks delivered to a waiter as if clean. The whole
    /// subsystem exists to keep this at zero; the bench validator and
    /// the soak invariant both reject any run where it is not.
    pub corrupt_delivered: u64,
    /// Healthy→quarantined transitions across all devices.
    pub quarantines: u64,
    /// Total simulated time devices spent quarantined or on probation.
    pub quarantined_time: SimDuration,
}

/// Counters from the node-crash fault model: what the machine lost to
/// crashed processors and what the survivors reclaimed or took over. All
/// zero when the run schedules no crashes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrashMetrics {
    /// Node crashes injected.
    pub crashes: u64,
    /// Crashed nodes that rejoined the computation.
    pub rejoins: u64,
    /// In-flight disk completions whose initiating node was dead on
    /// arrival; absorbed as cache fills instead of read deliveries.
    pub orphaned_ios: u64,
    /// Cache-lock critical sections reclaimed from crashed holders
    /// (whether by pulling back the lock's tail or by letting the lease
    /// lapse).
    pub reclaimed_locks: u64,
    /// Buffer pins released on behalf of crashed processes.
    pub reclaimed_pins: u64,
    /// Waiter-table entries removed because the waiting process crashed.
    pub reclaimed_waiters: u64,
    /// Prefetch actions a surviving daemon performed on behalf of a dead
    /// node's reference string.
    pub redistributed_prefetches: u64,
    /// Reads a crash cut short: consumed from the reference string but
    /// never completed (the survivors' reads all complete; these are the
    /// victims' own in-progress reads).
    pub lost_reads: u64,
}

impl RunMetrics {
    /// Miss ratio (`1 - hit_ratio`).
    pub fn miss_ratio(&self) -> f64 {
        1.0 - self.hit_ratio
    }

    /// Total reads performed.
    pub fn total_reads(&self) -> u64 {
        self.reads.count()
    }

    /// Mean block read time in milliseconds.
    pub fn mean_read_ms(&self) -> f64 {
        self.reads.mean_millis()
    }

    /// Mean disk response time in milliseconds.
    pub fn mean_disk_response_ms(&self) -> f64 {
        self.disk_response.mean_millis()
    }

    /// Mean hit-wait in milliseconds, over all hits.
    pub fn mean_hit_wait_ms(&self) -> f64 {
        self.hit_wait.tally().mean_millis()
    }

    /// Read-time quantile in milliseconds (`q` in `[0, 1]`); 0.0 when no
    /// reads were recorded.
    pub fn read_quantile_ms(&self, q: f64) -> f64 {
        self.read_times
            .quantile(q)
            .map_or(0.0, |d| d.as_millis_f64())
    }

    /// Hit-wait quantile in milliseconds; 0.0 when no hits were recorded.
    pub fn hit_wait_quantile_ms(&self, q: f64) -> f64 {
        self.hit_wait.quantile(q).map_or(0.0, |d| d.as_millis_f64())
    }

    /// Disk response-time quantile in milliseconds; 0.0 when the run did
    /// no disk I/O.
    pub fn disk_response_quantile_ms(&self, q: f64) -> f64 {
        self.disk_response_times
            .quantile(q)
            .map_or(0.0, |d| d.as_millis_f64())
    }

    /// Hedged-read-time quantile in milliseconds; 0.0 when no read ever
    /// waited on a hedge.
    pub fn hedged_read_quantile_ms(&self, q: f64) -> f64 {
        self.hedged_read_times
            .quantile(q)
            .map_or(0.0, |d| d.as_millis_f64())
    }

    /// Fraction of all reads served by *ready* hits.
    pub fn ready_fraction(&self) -> f64 {
        if self.total_reads() == 0 {
            0.0
        } else {
            self.ready_hits as f64 / self.total_reads() as f64
        }
    }

    /// Fraction of all reads served by *unready* hits.
    pub fn unready_fraction(&self) -> f64 {
        if self.total_reads() == 0 {
            0.0
        } else {
            self.unready_hits as f64 / self.total_reads() as f64
        }
    }

    /// Completion-time skew across processes: latest minus earliest finish.
    /// Large skew indicates unevenly distributed prefetching benefit —
    /// the paper's explanation for the `lfp` slowdowns.
    pub fn finish_skew(&self) -> SimDuration {
        match (self.proc_finish.iter().min(), self.proc_finish.iter().max()) {
            (Some(&min), Some(&max)) => max - min,
            _ => SimDuration::ZERO,
        }
    }

    /// Coefficient of variation (σ/μ) of the per-process *mean read
    /// times*: 0 when prefetching's benefit is evenly distributed, larger
    /// as some processes enjoy fast reads while others pay full price —
    /// the quantity behind Fig. 1(b).
    pub fn read_time_imbalance(&self) -> f64 {
        let means: Vec<f64> = self
            .per_proc
            .iter()
            .filter(|p| p.reads.count() > 0)
            .map(|p| p.reads.mean_millis())
            .collect();
        coefficient_of_variation(&means)
    }

    /// Coefficient of variation of the per-process hit counts.
    pub fn hit_imbalance(&self) -> f64 {
        let hits: Vec<f64> = self.per_proc.iter().map(|p| p.hits as f64).collect();
        coefficient_of_variation(&hits)
    }
}

/// σ/μ of a sample; 0 for empty or zero-mean samples.
pub fn coefficient_of_variation(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// Relative improvement of `with` over `base` for a scalar metric:
/// `(base - with) / base`, positive when `with` is better (smaller).
pub fn improvement(base: f64, with: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (base - with) / base
    }
}

/// Convenience pair of a base (no-prefetch) and prefetch run over the same
/// configuration, with the comparative quantities the paper plots.
#[derive(Clone, Debug)]
pub struct RunPair {
    /// Short label (pattern/sync/compute).
    pub label: String,
    /// The run without prefetching.
    pub base: RunMetrics,
    /// The run with prefetching.
    pub prefetch: RunMetrics,
}

impl RunPair {
    /// Fractional reduction in mean block read time (Fig. 3 / Fig. 10 axis).
    pub fn read_time_improvement(&self) -> f64 {
        improvement(self.base.mean_read_ms(), self.prefetch.mean_read_ms())
    }

    /// Fractional reduction in total execution time (Fig. 8 / Fig. 10).
    pub fn total_time_improvement(&self) -> f64 {
        improvement(
            self.base.total_time.as_millis_f64(),
            self.prefetch.total_time.as_millis_f64(),
        )
    }

    /// Change in mean disk response time (negative = worsened; Fig. 7).
    pub fn disk_response_improvement(&self) -> f64 {
        improvement(
            self.base.mean_disk_response_ms(),
            self.prefetch.mean_disk_response_ms(),
        )
    }

    /// Change in mean synchronization wait (negative = lengthened; Fig. 9).
    pub fn sync_wait_improvement(&self) -> f64 {
        improvement(
            self.base.sync_wait.mean_millis(),
            self.prefetch.sync_wait.mean_millis(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_metrics(read_ms: f64, total_ms: u64) -> RunMetrics {
        let mut reads = Tally::new();
        reads.record(SimDuration::from_millis_f64(read_ms));
        RunMetrics {
            total_time: SimDuration::from_millis(total_ms),
            proc_finish: vec![
                SimTime::ZERO + SimDuration::from_millis(total_ms - 5),
                SimTime::ZERO + SimDuration::from_millis(total_ms),
            ],
            reads,
            read_times: Sampled::new(),
            disk_response_times: Sampled::new(),
            hit_ratio: 0.8,
            ready_hits: 6,
            unready_hits: 2,
            misses: 2,
            hit_wait: Sampled::new(),
            disk_response: Tally::new(),
            disk_ops: 10,
            disk_utilization: 0.5,
            demand_fetches: 2,
            prefetches: 8,
            sync_wait: Tally::new(),
            barriers: 4,
            action_time: Tally::new(),
            failed_actions: 1,
            overrun: Tally::new(),
            idle_necessary: Tally::new(),
            idle_actual: Tally::new(),
            lock_wait: Tally::new(),
            alloc_retries: 0,
            per_proc: Vec::new(),
            faults: FaultMetrics::default(),
            overload: OverloadMetrics::default(),
            integrity: IntegrityMetrics::default(),
            crash: CrashMetrics::default(),
            tail: TailMetrics::default(),
            hedged_read_times: Sampled::new(),
        }
    }

    #[test]
    fn ratios_and_fractions() {
        let mut m = dummy_metrics(10.0, 100);
        m.reads = Tally::new();
        for _ in 0..10 {
            m.reads.record(SimDuration::from_millis(10));
        }
        assert!((m.miss_ratio() - 0.2).abs() < 1e-9);
        assert!((m.ready_fraction() - 0.6).abs() < 1e-9);
        assert!((m.unready_fraction() - 0.2).abs() < 1e-9);
        assert_eq!(m.total_reads(), 10);
    }

    #[test]
    fn finish_skew() {
        let m = dummy_metrics(10.0, 100);
        assert_eq!(m.finish_skew(), SimDuration::from_millis(5));
    }

    #[test]
    fn imbalance_measures() {
        let mut m = dummy_metrics(10.0, 100);
        let mk = |ms: u64, hits: u64| {
            let mut reads = Tally::new();
            reads.record(SimDuration::from_millis(ms));
            ProcMetrics {
                reads,
                hits,
                prefetches_issued: 0,
                finish: SimTime::ZERO,
            }
        };
        m.per_proc = vec![mk(10, 5), mk(10, 5)];
        assert!(m.read_time_imbalance() < 1e-9, "equal procs, no imbalance");
        assert!(m.hit_imbalance() < 1e-9);
        m.per_proc = vec![mk(5, 9), mk(15, 1)];
        assert!(m.read_time_imbalance() > 0.4);
        assert!(m.hit_imbalance() > 0.7);
    }

    #[test]
    fn cv_edge_cases() {
        assert_eq!(coefficient_of_variation(&[]), 0.0);
        assert_eq!(coefficient_of_variation(&[0.0, 0.0]), 0.0);
        assert!((coefficient_of_variation(&[1.0, 1.0]) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn improvement_signs() {
        assert!((improvement(100.0, 50.0) - 0.5).abs() < 1e-9);
        assert!(improvement(100.0, 150.0) < 0.0);
        assert_eq!(improvement(0.0, 10.0), 0.0);
    }

    #[test]
    fn pair_improvements() {
        let pair = RunPair {
            label: "gw".into(),
            base: dummy_metrics(30.0, 200),
            prefetch: dummy_metrics(15.0, 150),
        };
        assert!((pair.read_time_improvement() - 0.5).abs() < 1e-9);
        assert!((pair.total_time_improvement() - 0.25).abs() < 1e-9);
    }
}
