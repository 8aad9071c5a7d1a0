//! The integrity layer of the read path: checksum verification at cache
//! fill, read-repair through replica rotation, block poisoning, the
//! idle-time scrubber's repair chains, and quarantine-aware steering.
//!
//! None of this runs unless the configuration schedules corrupt windows,
//! forces verification, or enables the scrubber — the default read path
//! delivers fills exactly as before.

use rt_fs::FsCompleted;

use super::*;
use crate::integrity::IntegrityError;

/// Resolution of a finished checksum check, computed under a scoped
/// borrow of the integrity state (the actions need `&mut self` again).
enum Checked {
    /// The payload is clean: rewrite the listed corrupt replicas and
    /// deliver the block.
    Deliver { rewrite: Vec<u16>, who: ProcId },
    /// The payload is corrupt; re-fetch from the next rotated replica.
    Refetch { replica: u16, who: ProcId },
    /// A corrupt speculative fill nobody waits on: drop it.
    Drop,
    /// Every copy returned corrupt; poison the block.
    Poison,
}

impl World {
    /// An `Ok` demand/prefetch fill completed with verification active:
    /// hold the buffer pending while the checksum is computed. The block
    /// becomes readable only if the check clears.
    pub(super) fn verify_fill(
        &mut self,
        done: &FsCompleted,
        disk: DiskId,
        sched: &mut Scheduler<Ev>,
    ) {
        let now = sched.now();
        let block = done.block;
        let Some(buf) = self.pool.buffer_for(block) else {
            // A redirected duplicate completed after the block was
            // delivered and evicted (or poisoned and discarded).
            self.rec.stale_completions += 1;
            return;
        };
        if matches!(
            self.pool.buffer(buf).state,
            rt_cache::BufState::Ready { .. }
        ) {
            // A duplicate already delivered the block (verified).
            self.rec.stale_completions += 1;
            return;
        }
        let replica = self.replica_for_disk(block, disk);
        let verify_cost = {
            let ig = self
                .integrity
                .as_mut()
                .expect("verification without an integrity layer");
            match ig.verifying.get_mut(&block) {
                Some(st) if st.checking.is_some() => {
                    // A concurrent check owns delivery; drop the duplicate.
                    self.rec.stale_completions += 1;
                    return;
                }
                Some(st) => {
                    // The replica re-fetch landed: check this payload.
                    st.checking = Some(done.corrupt);
                    st.replica = replica;
                }
                None => {
                    ig.verifying.insert(
                        block,
                        VerifyState {
                            checking: Some(done.corrupt),
                            replica,
                            tried: 0,
                            corrupt_replicas: Vec::new(),
                            kind: done.kind,
                            who: done.initiator,
                        },
                    );
                }
            }
            ig.cfg.verify_cost
        };
        self.pool.set_ready_at(buf, now + verify_cost);
        self.obs_instant(
            Track::Device(disk.0),
            ObsKind::VerifyHold,
            now,
            block.index() as u64,
            verify_cost.as_nanos(),
        );
        sched.schedule_in(verify_cost, Ev::VerifyDone(block));
    }

    /// A fill's checksum check finished: deliver a clean block (rewriting
    /// any corrupt replicas found on the way), rotate to the next replica
    /// on detection, or poison the block when every copy was corrupt.
    pub(super) fn verify_done(&mut self, block: BlockId, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let pending = self.pool.buffer_for(block).is_some_and(|b| {
            matches!(
                self.pool.buffer(b).state,
                rt_cache::BufState::Pending { .. }
            )
        });
        if !pending {
            // The fill was discarded while the check ran (e.g. a duplicate
            // error completion dropped a speculative prefetch).
            if let Some(ig) = &mut self.integrity {
                ig.verifying.remove(&block);
            }
            self.clear_pending(block, sched);
            return;
        }
        let copies = 1 + self.fs.replica_count(self.file);
        let file = self.file;
        // The replica that served the payload under check, captured for
        // the corrupt-detection event (emitted after the scoped borrow).
        let mut corrupt_on = None;
        let next = {
            let Some(ig) = &mut self.integrity else {
                return;
            };
            let Some(mut st) = ig.verifying.remove(&block) else {
                return;
            };
            let Some(corrupt) = st.checking.take() else {
                // Spurious wake-up: a re-fetch is in flight.
                ig.verifying.insert(block, st);
                return;
            };
            // Feed the quarantine EWMA of the device that served it.
            if let (Some(f), Some(d)) = (
                self.faults.as_mut(),
                self.fs.placement_disk(file, block, st.replica),
            ) {
                f.health.observe_corruption(d, corrupt, now);
            }
            if !corrupt {
                if st.tried > 0 {
                    // A rotated replica delivered clean: a read-repair.
                    ig.repairs += 1;
                }
                Checked::Deliver {
                    rewrite: st.corrupt_replicas,
                    who: st.who,
                }
            } else {
                ig.corruptions += 1;
                ig.detections += 1;
                corrupt_on = Some(st.replica);
                st.corrupt_replicas.push(st.replica);
                st.tried += 1;
                if st.tried >= copies {
                    Checked::Poison
                } else if st.kind == FetchKind::Prefetch && !self.waiters.has_waiters(block) {
                    // Nobody wants the block yet: drop the corrupt
                    // speculative fill rather than spend repair traffic
                    // on it — a later demand read re-verifies anyway.
                    Checked::Drop
                } else {
                    st.replica = (st.replica + 1) % copies;
                    let replica = st.replica;
                    let who = st.who;
                    ig.verifying.insert(block, st);
                    Checked::Refetch { replica, who }
                }
            }
        };
        if self.obs.is_some() {
            if let Some(r) = corrupt_on {
                if let Some(d) = self.fs.placement_disk(file, block, r) {
                    self.obs_instant(
                        Track::Device(d.0),
                        ObsKind::CorruptDetected,
                        now,
                        block.index() as u64,
                        r as u64,
                    );
                }
            }
        }
        match next {
            Checked::Deliver { rewrite, who } => {
                for r in rewrite {
                    self.issue_repair(block, r, who, sched);
                }
                self.block_ready(block, sched);
            }
            Checked::Refetch { replica, who } => {
                let buf = self
                    .pool
                    .buffer_for(block)
                    .expect("pending buffer checked above");
                // The ready estimate is void until the re-fetch starts.
                self.pool.set_ready_at(buf, SimTime::MAX);
                // Waiters leave the verify hold and back off with the
                // re-fetch until it enters service.
                self.attr_fetch_stage(block, now, Component::RetryBackoff);
                let (started, parked) = self.submit_demand(now, block, replica, who);
                self.note_started(block, started, sched);
                if !parked {
                    self.arm_timeout(block, who, sched);
                }
            }
            Checked::Drop => {
                let buf = self
                    .pool
                    .buffer_for(block)
                    .expect("pending buffer checked above");
                self.pool.discard_pending(buf);
                self.rec.aborted_prefetches += 1;
                self.clear_pending(block, sched);
            }
            Checked::Poison => self.poison_block(block, sched),
        }
    }

    /// Every copy of `block` returned a corrupt payload: mark it poisoned,
    /// discard the pending fill, and fail every waiter with a typed
    /// [`IntegrityError`] — never a corrupt payload, never a panic.
    pub(super) fn poison_block(&mut self, block: BlockId, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        if self.obs.is_some() {
            if let Some(d) = self.fs.placement_disk(self.file, block, 0) {
                self.obs_instant(
                    Track::Device(d.0),
                    ObsKind::Poison,
                    now,
                    block.index() as u64,
                    0,
                );
            }
        }
        {
            let ig = self
                .integrity
                .as_mut()
                .expect("poison without an integrity layer");
            ig.poisoned.insert(block);
            ig.verifying.remove(&block);
        }
        if let Some(buf) = self.pool.buffer_for(block) {
            if matches!(
                self.pool.buffer(buf).state,
                rt_cache::BufState::Pending { .. }
            ) {
                self.pool.discard_pending(buf);
            }
        }
        self.clear_pending(block, sched);
        let mut woken = std::mem::take(&mut self.wake_scratch);
        self.waiters.drain_into(block, &mut woken);
        for &w in &woken {
            self.integrity
                .as_mut()
                .expect("poison without an integrity layer")
                .read_errors[w.index()] = Some(IntegrityError { block });
            self.procs[w.index()].logical_wake = Some(now);
            self.wake(w.index(), sched);
        }
        woken.clear();
        self.wake_scratch = woken;
    }

    /// Write a clean payload back over the corrupt copy on `replica`.
    /// Modeled as a device request occupying the target disk; the rewrite
    /// is dropped (not retried) if the device's queue is full — the copy
    /// stays bad and a later scrub pass gets another chance.
    pub(super) fn issue_repair(
        &mut self,
        block: BlockId,
        replica: u16,
        who: ProcId,
        sched: &mut Scheduler<Ev>,
    ) {
        let now = sched.now();
        match self
            .fs
            .read_replica(now, self.file, block, replica, FetchKind::Repair, who)
        {
            Ok(started) => {
                self.outstanding_io += 1;
                if self.obs.is_some() {
                    if let Some(d) = self.fs.placement_disk(self.file, block, replica) {
                        self.obs_instant(
                            Track::Device(d.0),
                            ObsKind::Repair,
                            now,
                            block.index() as u64,
                            replica as u64,
                        );
                    }
                }
                if let Some(s) = started {
                    sched.schedule_at(s.completion, Ev::DiskDone(s.disk));
                }
            }
            Err(FsError::QueueFull { .. }) => {}
            Err(e) => panic!("repair write of an in-range block rejected: {e:?}"),
        }
    }

    /// A repair write completed. The corrupt flag is meaningless on a
    /// write; only the outcome is recorded.
    pub(super) fn repair_done(&mut self, done: &FsCompleted) {
        match done.status {
            Ok(()) => {
                if let Some(ig) = &mut self.integrity {
                    ig.rewrites += 1;
                }
            }
            Err(_) => self.rec.io_errors += 1,
        }
    }

    /// Try to issue one scrub read on node `p`'s daemon slot: walk the
    /// node's stride of the file for a block that is not cached, not
    /// poisoned, not already being checked, and not behind a quarantined
    /// device. Returns whether a read was issued.
    pub(super) fn scrub_attempt(&mut self, p: usize, sched: &mut Scheduler<Ev>) -> bool {
        let now = sched.now();
        let blocks = self.cfg.workload.file_blocks;
        let stride = self.cfg.procs as u32;
        let copies = 1 + self.fs.replica_count(self.file);
        let (mut cursor, mut replica) = {
            let Some(ig) = &self.integrity else {
                return false;
            };
            if !ig.cfg.scrub || blocks == 0 {
                return false;
            }
            let s = &ig.scrub[p];
            if s.inflight || now.saturating_since(s.last_issued) < ig.cfg.scrub_interval {
                return false;
            }
            (s.cursor, s.replica)
        };
        let mut candidate = None;
        // One pass over this node's share of the file, at most.
        for _ in 0..=blocks.div_ceil(stride.max(1)) {
            let block = BlockId(cursor);
            let r = replica;
            cursor += stride;
            if cursor >= blocks {
                cursor = p as u32;
                replica = (replica + 1) % copies;
            }
            if block.0 >= blocks {
                continue;
            }
            let ig = self.integrity.as_ref().expect("checked above");
            if self.pool.contains(block)
                || ig.poisoned.contains(&block)
                || ig.scrub_checks.contains_key(&block)
            {
                continue;
            }
            // Skip copies the health tracker says to avoid: quarantined
            // devices and open breakers alike (shared replica-health
            // notion — see `healthy_replica`).
            let avoided = self.faults.as_ref().is_some_and(|f| {
                self.fs
                    .placement_disk(self.file, block, r)
                    .is_some_and(|d| f.health.avoid(d, now))
            });
            if avoided {
                continue;
            }
            candidate = Some((block, r));
            break;
        }
        let ig = self.integrity.as_mut().expect("checked above");
        let Some((block, r)) = candidate else {
            // Nothing scrubbable this pass; remember where we stopped.
            let s = &mut ig.scrub[p];
            s.cursor = cursor;
            s.replica = replica;
            return false;
        };
        match self
            .fs
            .read_replica(now, self.file, block, r, FetchKind::Scrub, ProcId(p as u16))
        {
            Ok(started) => {
                ig.scrub_checks.insert(
                    block,
                    ScrubCheck {
                        replica: r,
                        tried: 0,
                        corrupt_replicas: Vec::new(),
                    },
                );
                let s = &mut ig.scrub[p];
                s.cursor = cursor;
                s.replica = replica;
                s.inflight = true;
                s.last_issued = now;
                self.outstanding_io += 1;
                if self.obs.is_some() {
                    if let Some(d) = self.fs.placement_disk(self.file, block, r) {
                        self.obs_instant(
                            Track::Device(d.0),
                            ObsKind::Scrub,
                            now,
                            block.index() as u64,
                            r as u64,
                        );
                    }
                }
                if let Some(s) = started {
                    sched.schedule_at(s.completion, Ev::DiskDone(s.disk));
                }
                true
            }
            // The device is busy with real work; leave the cursor so the
            // block is retried on a later action.
            Err(FsError::QueueFull { .. }) => false,
            Err(e) => panic!("scrub read of an in-range block rejected: {e:?}"),
        }
    }

    /// A scrub read completed: verify the payload, rotate across replicas
    /// hunting for a clean copy when it is corrupt, rewrite the bad
    /// copies once one is found, and poison the block when there is none.
    pub(super) fn scrub_done(
        &mut self,
        done: &FsCompleted,
        disk: DiskId,
        sched: &mut Scheduler<Ev>,
    ) {
        let now = sched.now();
        let block = done.block;
        let p = done.initiator;
        let copies = 1 + self.fs.replica_count(self.file);

        enum Next {
            Repair { rewrite: Vec<u16> },
            Rotate { replica: u16 },
            Poison,
        }
        let mut corrupt_on = None;
        let next = {
            let Some(ig) = &mut self.integrity else {
                return;
            };
            let Some(mut chk) = ig.scrub_checks.remove(&block) else {
                return;
            };
            match done.status {
                Err(_) => {
                    // The scrub read itself failed (an overlapping fault
                    // window): drop the chain — the next pass retries.
                    self.rec.io_errors += 1;
                    ig.scrub[p.index()].inflight = false;
                    return;
                }
                Ok(()) => {
                    ig.scrubbed += 1;
                    if let Some(f) = self.faults.as_mut() {
                        f.health.observe_corruption(disk, done.corrupt, now);
                    }
                    if !done.corrupt {
                        ig.scrub[p.index()].inflight = false;
                        Next::Repair {
                            rewrite: chk.corrupt_replicas,
                        }
                    } else {
                        ig.corruptions += 1;
                        ig.scrub_detections += 1;
                        corrupt_on = Some(chk.replica);
                        chk.corrupt_replicas.push(chk.replica);
                        chk.tried += 1;
                        if chk.tried >= copies {
                            ig.scrub[p.index()].inflight = false;
                            Next::Poison
                        } else {
                            chk.replica = (chk.replica + 1) % copies;
                            let replica = chk.replica;
                            ig.scrub_checks.insert(block, chk);
                            Next::Rotate { replica }
                        }
                    }
                }
            }
        };
        if self.obs.is_some() {
            if let Some(r) = corrupt_on {
                if let Some(d) = self.fs.placement_disk(self.file, block, r) {
                    self.obs_instant(
                        Track::Device(d.0),
                        ObsKind::CorruptDetected,
                        now,
                        block.index() as u64,
                        r as u64,
                    );
                }
            }
        }
        match next {
            Next::Repair { rewrite } => {
                for r in rewrite {
                    self.issue_repair(block, r, p, sched);
                }
            }
            Next::Rotate { replica } => {
                match self
                    .fs
                    .read_replica(now, self.file, block, replica, FetchKind::Scrub, p)
                {
                    Ok(started) => {
                        self.outstanding_io += 1;
                        if let Some(s) = started {
                            sched.schedule_at(s.completion, Ev::DiskDone(s.disk));
                        }
                    }
                    Err(FsError::QueueFull { .. }) => {
                        // Shed the chain under pressure; the next pass
                        // retries the block from scratch.
                        let ig = self.integrity.as_mut().expect("checked above");
                        ig.scrub_checks.remove(&block);
                        ig.scrub[p.index()].inflight = false;
                    }
                    Err(e) => panic!("scrub read of an in-range block rejected: {e:?}"),
                }
            }
            Next::Poison => {
                // A concurrent demand chain may have just delivered the
                // block clean; a demonstrably readable block is not
                // poisoned.
                let delivered = self.pool.buffer_for(block).is_some_and(|b| {
                    matches!(self.pool.buffer(b).state, rt_cache::BufState::Ready { .. })
                });
                if !delivered {
                    self.poison_block(block, sched);
                }
            }
        }
    }

    /// The replica whose placement of `block` is served by `disk`
    /// (0 = primary when no replica matches — possible only for raced
    /// duplicates under combined fault kinds).
    pub(super) fn replica_for_disk(&self, block: BlockId, disk: DiskId) -> u16 {
        let copies = 1 + self.fs.replica_count(self.file);
        (0..copies)
            .find(|&r| self.fs.placement_disk(self.file, block, r) == Some(disk))
            .unwrap_or(0)
    }

    /// The first replica of `block`, rotating from `start`, whose
    /// placement device the health tracker does not say to avoid —
    /// quarantined *or* behind an open breaker ([`HealthTracker::avoid`]).
    /// Falls back to `start % copies` when every copy is avoided. This is
    /// the one replica-health notion shared by demand selection, timeout
    /// retries, hedge targeting, and the scrubber.
    ///
    /// [`HealthTracker::avoid`]: crate::health::HealthTracker::avoid
    pub(super) fn healthy_replica(&self, block: BlockId, start: u16, now: SimTime) -> u16 {
        let copies = 1 + self.fs.replica_count(self.file);
        let start = start % copies;
        let Some(f) = &self.faults else { return start };
        (0..copies)
            .map(|i| (start + i) % copies)
            .find(|&r| {
                self.fs
                    .placement_disk(self.file, block, r)
                    .is_some_and(|d| !f.health.avoid(d, now))
            })
            .unwrap_or(start)
    }

    /// The first healthy replica of `block` for a fresh demand fetch
    /// (0 when neither the integrity layer nor the breaker is active, so
    /// default runs never pay the placement scan).
    pub(super) fn pick_demand_replica(&self, block: BlockId, now: SimTime) -> u16 {
        if self.integrity.is_none() && !self.cfg.faults.breaker.enabled {
            return 0;
        }
        self.healthy_replica(block, 0, now)
    }
}
