//! Property tests for the buffer pool: arbitrary interleavings of cache
//! operations must preserve every structural invariant, and the prefetch
//! victim search must pick what a full scan of every partition picks.

use proptest::prelude::*;

use rt_cache::{
    BufState, BufferClass, BufferId, BufferPool, Lookup, PoolConfig, PrefetchBlocked, Replacement,
};
use rt_disk::{BlockId, ProcId};
use rt_sim::{SimDuration, SimTime};

/// An abstract cache operation, interpreted against pool state.
#[derive(Clone, Debug)]
enum Op {
    Read {
        proc: u8,
        block: u16,
    },
    Prefetch {
        proc: u8,
        block: u16,
    },
    CompleteOldest,
    /// Pin the buffer holding `block`, if it is ready (a copy-out starts).
    Pin {
        block: u16,
    },
    /// Release the oldest outstanding pin (a copy-out ends).
    UnpinOldest,
}

fn op_strategy(procs: u8, blocks: u16) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..procs, 0..blocks).prop_map(|(proc, block)| Op::Read { proc, block }),
        (0..procs, 0..blocks).prop_map(|(proc, block)| Op::Prefetch { proc, block }),
        Just(Op::CompleteOldest),
        (0..blocks).prop_map(|block| Op::Pin { block }),
        Just(Op::UnpinOldest),
    ]
}

/// The prefetch victim search as a full scan, kept as the reference for
/// the pool's per-node reclaimable counts: the local partition first, then
/// every other node's in index order; within a partition the first free
/// buffer, else the least-recently-used one the policy may reclaim.
fn reference_prefetch_victim(pool: &BufferPool, proc: ProcId) -> Option<BufferId> {
    let cfg = *pool.config();
    let can_evict = |b: &rt_cache::Buffer| {
        b.is_evictable()
            || (cfg.evict_unused_prefetch
                && b.pins == 0
                && matches!(b.state, BufState::Ready { .. }))
    };
    let pick = |node: u16| {
        let mut best: Option<(BufferId, SimTime)> = None;
        for id in (0..cfg.total_buffers()).map(BufferId) {
            let b = pool.buffer(id);
            if b.home != ProcId(node) || b.class != BufferClass::Prefetch {
                continue;
            }
            match b.state {
                BufState::Free => return Some(id),
                BufState::Ready { last_use, .. }
                    if can_evict(b) && best.is_none_or(|(_, t)| last_use < t) =>
                {
                    best = Some((id, last_use));
                }
                _ => {}
            }
        }
        best.map(|(id, _)| id)
    };
    pick(proc.0).or_else(|| (0..cfg.procs).filter(|&n| n != proc.0).find_map(pick))
}

/// Drives the pool like rt-core would, keeping a queue of pending I/Os and
/// a logical clock, and checking invariants after every step. Every
/// prefetch that gets past the cached and global-cap checks must pick the
/// reference victim, or fail exactly when the reference finds none.
fn drive(
    ops: Vec<Op>,
    replacement: Replacement,
    evict_unused_prefetch: bool,
) -> Result<(), TestCaseError> {
    const PROCS: u16 = 4;
    let mut pool = BufferPool::new(PoolConfig {
        procs: PROCS,
        demand_per_proc: 1,
        prefetch_per_proc: 2,
        global_prefetch_cap: 2 * PROCS as u32,
        replacement,
        evict_unused_prefetch,
    });
    let mut pins: std::collections::VecDeque<BufferId> = Default::default();
    let mut clock = SimTime::ZERO;
    let mut pending: std::collections::VecDeque<BlockId> = Default::default();
    // One outstanding demand read per process, as the testbed guarantees.
    let mut outstanding: std::collections::HashSet<u8> = Default::default();

    for op in ops {
        clock += SimDuration::from_millis(1);
        match op {
            Op::Read { proc, block } => {
                if outstanding.contains(&proc) {
                    continue;
                }
                let block = BlockId(block as u32);
                match pool.lookup_for_read(block, clock) {
                    Lookup::ReadyHit(buf) => {
                        pool.record_use(buf, ProcId(proc as u16), clock);
                    }
                    Lookup::UnreadyHit { .. } => {
                        // Waits; the completion path will make it ready.
                    }
                    Lookup::Miss => {
                        if let Some(buf) =
                            pool.alloc_demand(ProcId(proc as u16), block, SimTime::MAX)
                        {
                            pool.set_ready_at(buf, clock + SimDuration::from_millis(30));
                            pending.push_back(block);
                            outstanding.insert(proc);
                        }
                    }
                }
            }
            Op::Prefetch { proc, block } => {
                let block = BlockId(block as u32);
                let want = reference_prefetch_victim(&pool, ProcId(proc as u16));
                match pool.try_reserve_prefetch(ProcId(proc as u16), block) {
                    Ok(buf) => {
                        prop_assert_eq!(Some(buf), want, "victim differs from the full scan");
                        pool.commit_prefetch(buf, block, clock + SimDuration::from_millis(30));
                        pending.push_back(block);
                    }
                    Err(PrefetchBlocked::NoBuffer) => prop_assert_eq!(want, None),
                    Err(PrefetchBlocked::AlreadyCached | PrefetchBlocked::GlobalCap) => {}
                }
            }
            Op::Pin { block } => {
                if let Some(buf) = pool.buffer_for(BlockId(block as u32)) {
                    if matches!(pool.buffer(buf).state, BufState::Ready { .. }) {
                        pool.pin(buf);
                        pins.push_back(buf);
                    }
                }
            }
            Op::UnpinOldest => {
                if let Some(buf) = pins.pop_front() {
                    pool.unpin(buf);
                }
            }
            Op::CompleteOldest => {
                if let Some(block) = pending.pop_front() {
                    if let Some(buf) = pool.buffer_for(block) {
                        if matches!(pool.buffer(buf).state, rt_cache::BufState::Pending { .. }) {
                            pool.complete_io(buf, clock);
                        }
                    }
                    // Whoever demanded it may proceed with new reads.
                    outstanding.clear();
                }
            }
        }
        pool.assert_invariants();
        prop_assert!(
            pool.prefetched_unused() <= pool.config().global_prefetch_cap,
            "prefetch cap violated"
        );
    }

    // Final accounting sanity.
    let s = pool.stats();
    prop_assert_eq!(
        s.hit_ratio.total(),
        s.ready_hits + s.unready_hits + s.misses
    );
    if !evict_unused_prefetch {
        prop_assert_eq!(
            s.wasted_prefetches,
            0,
            "paper policy never wastes prefetches"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    #[test]
    fn ru_set_pool_invariants_hold(ops in prop::collection::vec(op_strategy(4, 64), 1..200)) {
        drive(ops, Replacement::RuSet, false)?;
    }

    #[test]
    fn global_lru_pool_invariants_hold(ops in prop::collection::vec(op_strategy(4, 64), 1..200)) {
        drive(ops, Replacement::GlobalLru, false)?;
    }

    /// With the unused-prefetch relaxation, ready unused prefetches are
    /// reclaimable too, and the victim search must still match the scan.
    #[test]
    fn evicting_unused_prefetches_keeps_invariants_and_victims(
        ops in prop::collection::vec(op_strategy(4, 64), 1..200),
    ) {
        drive(ops, Replacement::RuSet, true)?;
    }

    /// The index answers exactly the set of blocks held by buffers.
    #[test]
    fn contains_matches_buffer_contents(ops in prop::collection::vec(op_strategy(3, 32), 1..100)) {
        const PROCS: u16 = 3;
        let mut pool = BufferPool::new(PoolConfig {
            procs: PROCS,
            demand_per_proc: 1,
            prefetch_per_proc: 2,
            global_prefetch_cap: 6,
            replacement: Replacement::RuSet,
            evict_unused_prefetch: false,
        });
        let mut clock = SimTime::ZERO;
        for op in ops {
            clock += SimDuration::from_millis(1);
            if let Op::Prefetch { proc, block } = op {
                let block = BlockId(block as u32);
                let before = pool.contains(block);
                match pool.try_reserve_prefetch(ProcId(proc as u16), block) {
                    Ok(buf) => {
                        prop_assert!(!before, "reserved an already-cached block");
                        pool.commit_prefetch(buf, block, clock);
                        prop_assert!(pool.contains(block));
                        pool.complete_io(buf, clock);
                        prop_assert!(pool.contains(block));
                    }
                    Err(rt_cache::PrefetchBlocked::AlreadyCached) => {
                        prop_assert!(before);
                    }
                    Err(_) => {}
                }
            }
        }
    }
}
