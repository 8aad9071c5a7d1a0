//! Micro-benchmarks of the simulator substrate itself: event queue
//! throughput and cancellation, cache operations, oracle selection, world
//! snapshot/clone, and a complete small experiment. These measure the
//! *reproduction's* performance (how fast the harness regenerates figures),
//! not the paper's system.
//!
//! Run with `cargo bench -p rt-bench --bench micro`. Each case prints one
//! JSON line: its name, the timed iterations, and the minimum and median
//! wall time of one iteration in nanoseconds. There is no statistical
//! machinery, so compare numbers only across runs on the same host.

use std::hint::black_box;
use std::time::Instant;

use rt_bench::json::{num, Json};
use rt_cache::{BufferPool, PoolConfig};
use rt_core::experiment::{run_experiment, RunHandle};
use rt_core::policy::{select_oracle, OracleView};
use rt_core::{ExperimentConfig, PrefetchConfig};
use rt_disk::{BlockId, ProcId};
use rt_patterns::{AccessPattern, RefString, SyncStyle, WorkloadParams};
use rt_sim::{EventQueue, SimDuration, SimTime};

/// Run `f` once to warm up, then `iterations` more times, each on a fresh
/// input from `setup` (built outside the timed region), and print the case
/// as one JSON line.
fn benchmark<I, O>(
    name: &str,
    iterations: usize,
    mut setup: impl FnMut() -> I,
    mut f: impl FnMut(I) -> O,
) {
    black_box(f(setup()));
    let mut ns: Vec<f64> = (0..iterations)
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            black_box(f(input));
            start.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    let line = Json::Obj(vec![
        ("name".into(), Json::Str(name.into())),
        num("iterations", iterations as f64),
        num("min_ns", ns[0]),
        num("median_ns", ns[ns.len() / 2]),
    ]);
    println!("{}", line.line());
}

fn event_queue() {
    benchmark(
        "event_queue/push_pop_10k",
        100,
        EventQueue::<u32>::new,
        |mut q| {
            for i in 0..10_000u32 {
                // Pseudo-shuffled times exercise heap reordering.
                let t = SimTime::from_nanos(((i as u64).wrapping_mul(2654435761)) % 1_000_000);
                q.schedule(t, i);
            }
            let mut count = 0;
            while let Some((_, v)) = q.pop() {
                count += black_box(v) as u64 & 1;
            }
            count
        },
    );

    // Cancel every other one of 256 events, then drain: the pop loop must
    // skip the cancelled entries, which is the path a timeout-heavy run
    // exercises.
    let filled = || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let ids: Vec<_> = (0..256)
            .map(|i| q.schedule(SimTime::ZERO + SimDuration::from_micros(i), i))
            .collect();
        (q, ids)
    };
    benchmark(
        "event_queue/cancel_half_256",
        1000,
        filled,
        |(mut q, ids)| {
            for id in ids.iter().step_by(2) {
                q.cancel(*id);
            }
            let mut live = 0u64;
            while q.pop().is_some() {
                live += 1;
            }
            live
        },
    );
}

fn cache_ops() {
    let pool = || BufferPool::new(PoolConfig::paper_prefetch(20));
    benchmark("cache/miss_fetch_hit_cycle", 100, pool, |mut pool| {
        let mut t = SimTime::ZERO;
        for i in 0..1000u32 {
            let block = BlockId(i);
            let proc = ProcId((i % 20) as u16);
            let _ = pool.lookup_for_read(block, t);
            let ready = t + SimDuration::from_millis(30);
            let buf = pool.alloc_demand(proc, block, ready).unwrap();
            pool.complete_io(buf, ready);
            let _ = pool.lookup_for_read(block, ready);
            pool.record_use(buf, proc, ready);
            t = ready;
        }
        pool.stats().hit_ratio.value()
    });
}

fn oracle_select() {
    let string = RefString::from_portions(&[(0, 2000)]);
    let pool = BufferPool::new(PoolConfig::paper_prefetch(20));
    // One selection takes tens of nanoseconds, near the timer's own cost,
    // so an iteration is 100 selections from consecutive frontiers.
    benchmark(
        "policy/oracle_select_2000_x100",
        1000,
        || (),
        |()| {
            (1000..1100)
                .filter_map(|frontier| {
                    let view = OracleView {
                        string: &string,
                        frontier: black_box(frontier),
                        cross_portions: true,
                        min_lead: 0,
                    };
                    select_oracle(&view, &pool)
                })
                .count()
        },
    );
}

/// A small machine with prefetching on: `procs` processors and disks
/// reading a `procs * 100`-block file.
fn small_experiment(procs: u16, sync: SyncStyle) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_default(AccessPattern::GlobalWholeFile, sync);
    cfg.procs = procs;
    cfg.disks = procs;
    cfg.workload = WorkloadParams {
        procs,
        file_blocks: procs as u32 * 100,
        total_reads: procs as u32 * 100,
        ..WorkloadParams::paper()
    };
    cfg.prefetch = PrefetchConfig::paper();
    cfg
}

/// Forking a warmed-up run: the world is half done, so it holds live
/// cache state, armed events, and per-process predictors.
fn world_fork() {
    let mut warm = RunHandle::start(&small_experiment(4, SyncStyle::BlocksPerProc(8)));
    warm.advance_to_reads(200);
    benchmark(
        "world/clone_warm",
        1000,
        || (),
        |()| warm.fork().events_fired(),
    );
    benchmark(
        "world/fork_and_finish",
        100,
        || (),
        |()| warm.fork().finish().disk_ops,
    );
}

fn full_run() {
    let cfg = small_experiment(8, SyncStyle::BlocksPerProc(10));
    benchmark(
        "experiment/gw_8proc_800blocks",
        20,
        || (),
        |()| run_experiment(&cfg),
    );
}

fn main() {
    event_queue();
    cache_ops();
    oracle_select();
    world_fork();
    full_run();
}
