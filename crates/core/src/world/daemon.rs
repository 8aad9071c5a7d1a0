//! The idle-time prefetching daemon: action scheduling, block selection,
//! and overrun semantics.

use super::*;

impl World {
    // ------------------------------------------------------------------
    // The prefetching daemon.
    // ------------------------------------------------------------------

    /// An idle period begins on node `p`: start the daemon if configured.
    pub(super) fn idle_begin(&mut self, p: usize, sched: &mut Scheduler<Ev>) {
        self.procs[p].idle_since = Some(sched.now());
        self.procs[p].logical_wake = None;
        self.procs[p].last_action_empty = false;
        self.maybe_start_action(p, sched);
    }

    /// Start one daemon action on node `p` if the daemon may run — a
    /// prefetch when prefetching is configured, otherwise (or when the
    /// prefetcher finds no candidate) a scrub read.
    pub(super) fn maybe_start_action(&mut self, p: usize, sched: &mut Scheduler<Ev>) {
        let scrubbing = self.integrity.as_ref().is_some_and(|ig| ig.cfg.scrub);
        if (!self.cfg.prefetch.enabled && !scrubbing) || self.procs[p].action_busy {
            return;
        }
        let now = sched.now();
        // Minimum-prefetch-time rule (§V-D): skip when the estimated
        // remaining idle time is too short. The estimate is exact for I/O
        // waits; barrier waits have no estimate and always qualify.
        if !self.cfg.prefetch.min_action_time.is_zero() {
            if let Some(wake) = self.procs[p].expected_wake {
                if wake.saturating_since(now) < self.cfg.prefetch.min_action_time {
                    return;
                }
            }
        }
        // Repeat considerations that found nothing are cheaper: the
        // selection runs but no buffer/I/O work follows.
        let hold = if self.procs[p].last_action_empty {
            self.cfg.costs.action_fail_hold
        } else {
            self.cfg.costs.action_hold
        };
        let done = self.lock.acquire_until_done(now, hold);
        let proc = &mut self.procs[p];
        proc.action_busy = true;
        proc.action_started = now;
        debug_assert!(proc.lock_cs.is_none());
        proc.lock_cs = Some((done, hold));
        proc.action_ev = Some(sched.schedule_at(done, Ev::ActionEnd(proc.id)));
    }

    /// A prefetch action completed: perform its effect (selection ran
    /// inside the critical section), then resume the user process if its
    /// wake fired meanwhile, or consider another action.
    pub(super) fn action_end(&mut self, p: usize, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        self.procs[p].action_ev = None;
        self.procs[p].lock_cs = None;
        self.procs[p].action_busy = false;
        let action_started = self.procs[p].action_started;
        self.rec.action_time.record(now - action_started);
        // What the action did, for the daemon-track span (codes: 0 =
        // prefetch issued, 1 = empty, 2 = blocked, 3 = shed, 4 =
        // throttled, 5 = scrub).
        let mut obs_block = u64::MAX;
        let mut obs_code = 1u64;

        let candidate = if self.cfg.prefetch.enabled {
            match self.select_block(p) {
                Some(block) if self.prefetch_target_degraded(block, now) => {
                    // Graceful degradation: the device this block lives on
                    // is erroring or lagging. Leave the block to demand
                    // traffic, but keep the frontier moving — re-select
                    // skipping every degraded device so healthy disks
                    // still get prefetch.
                    self.rec.degraded_skips += 1;
                    self.select_block_past_degraded(p, now)
                }
                other => other,
            }
        } else {
            // Scrub-only daemon: no speculative fills.
            None
        };
        // Failover: with nothing of its own to prefetch, a survivor covers
        // the frontier of a crashed node that is due to rejoin. Inert
        // without a crash plan.
        let mut failover = false;
        let candidate = match candidate {
            None if self.crash.is_some() && self.cfg.prefetch.enabled => {
                let c = self.select_block_for_dead();
                failover = c.is_some();
                c
            }
            other => other,
        };
        // A poisoned block can never be fetched clean; selecting it would
        // spin the daemon on discard loops.
        let candidate = candidate.filter(|b| {
            self.integrity
                .as_ref()
                .is_none_or(|ig| !ig.poisoned.contains(b))
        });
        match candidate {
            Some(block) if self.admission_denies(block).is_some() => {
                // The admission controller refused the prefetch: out of
                // credits, the target queue is past its high-water mark,
                // or the prefetch partition is under pressure. Back off
                // like an empty action (cheap re-spins while idle).
                let deny = self.admission_denies(block).expect("checked in guard");
                self.rec.prefetches_throttled += 1;
                if deny == Deny::CachePressure {
                    self.rec.cache_high_water_hits += 1;
                }
                self.procs[p].last_action_empty = true;
                obs_block = block.index() as u64;
                obs_code = 4;
                let deny_code = match deny {
                    Deny::Credits => 0,
                    Deny::QueueDepth => 1,
                    Deny::CachePressure => 2,
                };
                self.obs_instant(
                    Track::Daemon(p as u16),
                    ObsKind::Throttle,
                    now,
                    obs_block,
                    deny_code,
                );
            }
            Some(block) => {
                self.procs[p].last_action_empty = false;
                match self.pool.try_reserve_prefetch(ProcId(p as u16), block) {
                    Ok(buf) => {
                        match self.fs.read(
                            now,
                            self.file,
                            block,
                            FetchKind::Prefetch,
                            ProcId(p as u16),
                        ) {
                            Ok(started) => {
                                self.pool.commit_prefetch(buf, block, SimTime::MAX);
                                self.consume_prefetch_credit();
                                self.rec.proc_prefetches[p] += 1;
                                self.outstanding_io += 1;
                                self.note_started(block, started, sched);
                                if failover {
                                    self.crash
                                        .as_mut()
                                        .expect("failover without a crash layer")
                                        .redistributed_prefetches += 1;
                                }
                                obs_block = block.index() as u64;
                                obs_code = 0;
                                self.obs_instant(
                                    Track::Daemon(p as u16),
                                    ObsKind::PrefetchSubmit,
                                    now,
                                    obs_block,
                                    0,
                                );
                            }
                            Err(FsError::QueueFull { .. }) => {
                                // A bounded queue turned the prefetch
                                // away: drop it rather than displace
                                // demand traffic. The reservation was
                                // never committed, so the buffer is
                                // simply free again.
                                self.rec.prefetches_shed += 1;
                                self.procs[p].last_action_empty = true;
                                obs_block = block.index() as u64;
                                obs_code = 3;
                            }
                            Err(e) => panic!("policy block rejected by file system: {e:?}"),
                        }
                    }
                    Err(_) => {
                        self.rec.blocked_actions += 1;
                        obs_block = block.index() as u64;
                        obs_code = 2;
                    }
                }
            }
            None => {
                // No prefetch to do: let the scrubber use the idle slot.
                if self.scrub_attempt(p, sched) {
                    self.procs[p].last_action_empty = false;
                    obs_code = 5;
                } else {
                    self.rec.empty_actions += 1;
                    self.procs[p].last_action_empty = true;
                }
            }
        }
        if self.obs.is_some() {
            self.obs_span(
                Track::Daemon(p as u16),
                ObsKind::DaemonAction,
                action_started,
                now - action_started,
                obs_block,
                obs_code,
                ReadAttribution::default(),
            );
        }

        if self.procs[p].logical_wake.is_some() {
            self.resume(p, sched);
        } else if self.procs[p].idle_since.is_some() {
            self.maybe_start_action(p, sched);
        }
    }

    /// Does the admission controller refuse a prefetch of `block` right
    /// now? Always `None` unless admission is enabled. Device health is
    /// handled upstream: degraded devices are already skipped by
    /// re-selection ([`World::prefetch_target_degraded`]), so the
    /// controller adds the credit, queue-depth, and cache-pressure gates.
    fn admission_denies(&self, block: BlockId) -> Option<Deny> {
        let adm = self.admission.as_ref()?;
        if !adm.cfg.enabled {
            return None;
        }
        if adm.credits == 0 {
            return Some(Deny::Credits);
        }
        if let Some(disk) = self.fs.placement_disk(self.file, block, 0) {
            let d = &self.fs.disks().disks()[disk.index()];
            if d.queued() as u32 >= adm.cfg.queue_high_water {
                return Some(Deny::QueueDepth);
            }
        }
        if self.pool.pressure().occupancy() >= adm.cfg.cache_high_water {
            return Some(Deny::CachePressure);
        }
        None
    }

    /// Take one prefetch credit from the pool (no-op unless admission is
    /// enabled). The admission gate runs first, so a credit is always
    /// available here.
    fn consume_prefetch_credit(&mut self) {
        if let Some(adm) = &mut self.admission {
            if adm.cfg.enabled {
                debug_assert!(adm.credits > 0, "prefetch issued without a credit");
                adm.credits = adm.credits.saturating_sub(1);
            }
        }
    }

    /// Would this prefetch land on a device the health tracker currently
    /// classifies as degraded, quarantined, or behind an open breaker?
    /// Always false without an active fault layer.
    pub(super) fn prefetch_target_degraded(&self, block: BlockId, now: SimTime) -> bool {
        let Some(fs) = &self.faults else { return false };
        self.fs
            .placement_disk(self.file, block, 0)
            .is_some_and(|d| fs.health.is_degraded(d) || fs.health.avoid(d, now))
    }

    /// Second-chance selection once the primary candidate proved degraded:
    /// the same policy scan, but uncached blocks on degraded devices are
    /// passed over instead of selected. Runs only while the fault layer is
    /// active, so the fault-free path never pays for it.
    fn select_block_past_degraded(&mut self, p: usize, now: SimTime) -> Option<BlockId> {
        let Some(fault_state) = &self.faults else {
            return None;
        };
        let health = &fault_state.health;
        let fs = &self.fs;
        let file = self.file;
        let degraded = |block: BlockId| {
            fs.placement_disk(file, block, 0)
                .is_some_and(|d| health.is_degraded(d) || health.avoid(d, now))
        };
        match self.cfg.prefetch.policy {
            PolicyKind::Oracle => {
                let (string, frontier) = match &*self.workload {
                    Workload::Local(strings) => (&strings[p], self.procs[p].cursor.position()),
                    Workload::Global(s) => (s, self.global_cursor.position()),
                };
                let view = OracleView {
                    string,
                    frontier,
                    cross_portions: self.cfg.pattern.may_prefetch_across_portions(),
                    min_lead: self.cfg.prefetch.min_lead,
                };
                select_oracle_avoiding(&view, &self.pool, degraded)
            }
            PolicyKind::Obl { .. } | PolicyKind::PortionLearner { .. } => {
                let preds = self.predictors[p]
                    .as_ref()
                    .expect("online policy without predictor")
                    .predict(16);
                preds
                    .iter()
                    .copied()
                    .find(|&b| !self.pool.contains(b) && !degraded(b))
            }
        }
    }

    /// Pick the next block to prefetch on behalf of node `p`.
    pub(super) fn select_block(&mut self, p: usize) -> Option<BlockId> {
        match self.cfg.prefetch.policy {
            PolicyKind::Oracle => {
                let (string, frontier, hint) = match &*self.workload {
                    Workload::Local(strings) => (&strings[p], self.procs[p].cursor.position(), p),
                    Workload::Global(s) => (s, self.global_cursor.position(), 0),
                };
                let view = OracleView {
                    string,
                    frontier,
                    cross_portions: self.cfg.pattern.may_prefetch_across_portions(),
                    min_lead: self.cfg.prefetch.min_lead,
                };
                if self.oracle_hint_sound {
                    // Duplicate-free workload: the scan memo is sound and
                    // turns the per-action re-walk of the cached span into
                    // an amortized O(1) resume.
                    select_oracle_hinted(&view, &self.pool, &mut self.oracle_hints[hint])
                } else {
                    select_oracle(&view, &self.pool)
                }
            }
            PolicyKind::Obl { .. } | PolicyKind::PortionLearner { .. } => {
                let preds = self.predictors[p]
                    .as_ref()
                    .expect("online policy without predictor")
                    .predict(16);
                select_predicted(&preds, &self.pool)
            }
        }
    }
}
