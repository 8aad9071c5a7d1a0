//! Anatomy of a run: time-series view of one experiment. The paper's
//! averages hide the dynamics this prints — the prefetch window filling at
//! startup and draining at the end, disk queues breathing with the barrier
//! rhythm, and processes piling up at synchronization points.
//!
//! The series come from the observed runner's epoch gauge sampler; the
//! event ring is kept tiny because only the gauges are drawn.
//!
//! ```sh
//! cargo run --release --example run_anatomy [pattern] [sync]
//! ```

use rapid_transit::core::experiment::run_experiment_observed;
use rapid_transit::core::{ExperimentConfig, ObsConfig, PrefetchConfig};
use rapid_transit::patterns::{AccessPattern, SyncStyle};
use rapid_transit::sim::{SimDuration, SimTime};

/// Render a step-function gauge as one character per column: the last
/// sample at or before each column's end, scaled to the largest column.
fn sparkline(points: &[(SimTime, f64)], end: SimTime, width: usize) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let span = end.as_nanos();
    let cols: Vec<f64> = (1..=width as u64)
        .map(|i| {
            let t = SimTime::from_nanos(span * i / width as u64);
            match points.partition_point(|&(at, _)| at <= t) {
                0 => 0.0,
                n => points[n - 1].1,
            }
        })
        .collect();
    let max = cols.iter().copied().fold(0.0, f64::max);
    cols.iter()
        .map(|&v| {
            let level = if max == 0.0 { 0.0 } else { v / max * 7.0 };
            LEVELS[level.round() as usize]
        })
        .collect()
}

fn main() {
    let pattern = std::env::args()
        .nth(1)
        .and_then(|s| AccessPattern::from_abbrev(&s))
        .unwrap_or(AccessPattern::GlobalWholeFile);
    let sync = match std::env::args().nth(2).as_deref() {
        Some("none") => SyncStyle::None,
        Some("total") => SyncStyle::BlocksTotal(200),
        Some("portion") => SyncStyle::EachPortion,
        _ => SyncStyle::BlocksPerProc(10),
    };

    let mut cfg = ExperimentConfig::paper_default(pattern, sync);
    cfg.prefetch = PrefetchConfig::paper();
    println!("Run anatomy — {}\n", cfg.label());
    let obs = ObsConfig {
        ring_capacity: 16,
        sample_every: Some(SimDuration::from_millis(1)),
    };
    let (m, data) = run_experiment_observed(&cfg, obs);
    let gauge = |name: &str| {
        data.series
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no {name:?} series"))
    };

    let end = SimTime::ZERO + m.total_time;
    const W: usize = 72;

    println!(
        "time axis: 0 .. {:.1} ms  ({} columns of {:.1} ms)\n",
        m.total_time.as_millis_f64(),
        W,
        m.total_time.as_millis_f64() / W as f64
    );
    let unused = gauge("prefetched unused");
    println!(
        "prefetched-but-unused blocks (cap {}):\n  {}  max {:.0}",
        cfg.prefetch.global_cap_per_proc as u32 * cfg.procs as u32,
        sparkline(&unused.points, end, W),
        unused.max(),
    );
    let in_flight = gauge("disk requests in flight");
    println!(
        "\ndisk requests in flight:\n  {}  max {:.0}",
        sparkline(&in_flight.points, end, W),
        in_flight.max(),
    );
    let at_barrier = gauge("procs at barrier");
    println!(
        "\nprocesses blocked at the barrier:\n  {}  max {:.0}",
        sparkline(&at_barrier.points, end, W),
        at_barrier.max(),
    );

    println!(
        "\nsummary: total {:.0} ms, read {:.2} ms, hit ratio {:.3}, \
         {} prefetches, {} barrier episodes",
        m.total_time.as_millis_f64(),
        m.mean_read_ms(),
        m.hit_ratio,
        m.prefetches,
        m.barriers,
    );
    println!(
        "\nReading the charts: the prefetch window fills at startup, holds\n\
         near the cap while the computation streams, and drains at the end;\n\
         barrier spikes line up with dips in disk traffic — synchronization\n\
         stalls the I/O pipeline, one of the costs the paper identifies.\n\
         Gauges are sampled every millisecond of simulated time, so the\n\
         maxima are those of the samples."
    );
}
