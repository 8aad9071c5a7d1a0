//! A contended, FIFO-ordered simulated resource.
//!
//! [`SimLock`] is a FIFO lock protecting a shared data structure (the block
//! cache index on the Butterfly's remote shared memory). A caller asks to
//! acquire at time *t* holding for *h*; it is granted the earliest instant
//! the lock is free, and the lock stays held until grant + *h*. Lock
//! waiting time is the NUMA/data-structure contention the paper reports
//! rising when all processors pound the I/O subsystem.

use crate::stats::Tally;
use crate::time::{SimDuration, SimTime};

/// A FIFO lock with known hold times, modelling a contended shared
/// data structure in remote memory.
#[derive(Clone, Debug)]
pub struct SimLock {
    free_at: SimTime,
    acquisitions: u64,
    wait: Tally,
}

impl SimLock {
    /// An unheld lock.
    pub fn new() -> Self {
        SimLock {
            free_at: SimTime::ZERO,
            acquisitions: 0,
            wait: Tally::new(),
        }
    }

    /// Request the lock at `now`, holding it for `hold`. Returns the grant
    /// time; the critical section runs `[grant, grant + hold)`. Requests are
    /// granted in submission order.
    pub fn acquire(&mut self, now: SimTime, hold: SimDuration) -> SimTime {
        let grant = self.free_at.max(now);
        self.free_at = grant + hold;
        self.acquisitions += 1;
        self.wait.record(grant.saturating_since(now));
        grant
    }

    /// Convenience: acquire at `now` and return when the critical section
    /// *ends* (grant + hold).
    pub fn acquire_until_done(&mut self, now: SimTime, hold: SimDuration) -> SimTime {
        self.acquire(now, hold) + hold
    }

    /// Number of acquisitions so far.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }

    /// Distribution of lock waiting times (contention).
    pub fn wait(&self) -> &Tally {
        &self.wait
    }

    /// When the lock next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Reclaim the tail critical section of a holder that vanished (a
    /// crashed node): if the lock's next-free instant is exactly `cs_end`
    /// — the victim is the last holder in line — and its section has not
    /// yet ended, pull the `hold` back so later requesters are granted
    /// earlier. Returns whether the tail was reclaimed; `false` means
    /// other acquirers already queued behind the victim and its lease is
    /// left to expire naturally (the analytic queue cannot be reshuffled
    /// once later grants were handed out).
    pub fn reclaim_tail(&mut self, now: SimTime, cs_end: SimTime, hold: SimDuration) -> bool {
        if self.free_at == cs_end && cs_end > now {
            // `cs_end` was produced by `acquire` as grant + hold, so the
            // subtraction recovers the grant instant (never underflows).
            self.free_at = now.max(cs_end - hold);
            true
        } else {
            false
        }
    }
}

impl Default for SimLock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }
    fn at(x: u64) -> SimTime {
        SimTime::ZERO + ms(x)
    }

    #[test]
    fn lock_grants_in_order() {
        let mut l = SimLock::new();
        let g1 = l.acquire(at(0), ms(2));
        let g2 = l.acquire(at(1), ms(2));
        let g3 = l.acquire(at(1), ms(2));
        assert_eq!(g1, at(0));
        assert_eq!(g2, at(2));
        assert_eq!(g3, at(4));
        assert_eq!(l.acquisitions(), 3);
        assert!((l.wait().mean_millis() - (0.0 + 1.0 + 3.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn uncontended_lock_is_free() {
        let mut l = SimLock::new();
        let g = l.acquire(at(10), ms(1));
        assert_eq!(g, at(10));
        let done = l.acquire_until_done(at(20), ms(1));
        assert_eq!(done, at(21), "grant at 20 plus a 1 ms hold");
        assert_eq!(l.wait().max(), Some(SimDuration::ZERO));
    }

    #[test]
    fn reclaim_tail_frees_the_last_holder() {
        let mut l = SimLock::new();
        let g = l.acquire(at(10), ms(5)); // holds [10, 15)
        assert_eq!(g, at(10));
        // The holder crashes at t=12: the tail is reclaimed and the lock
        // is free immediately.
        assert!(l.reclaim_tail(at(12), at(15), ms(5)));
        assert_eq!(l.free_at(), at(12));
        // A new acquirer is granted right away.
        assert_eq!(l.acquire(at(12), ms(1)), at(12));
    }

    #[test]
    fn reclaim_tail_of_queued_holder_pulls_back_to_grant() {
        let mut l = SimLock::new();
        l.acquire(at(0), ms(10)); // holds [0, 10)
        let done = l.acquire_until_done(at(1), ms(3)); // queued: [10, 13)
        assert_eq!(done, at(13));
        // The queued holder crashes before its grant: reclaim returns the
        // lock to the first holder's release instant.
        assert!(l.reclaim_tail(at(2), at(13), ms(3)));
        assert_eq!(l.free_at(), at(10));
    }

    #[test]
    fn reclaim_tail_declines_when_not_the_tail() {
        let mut l = SimLock::new();
        let done = l.acquire_until_done(at(0), ms(5)); // [0, 5)
        l.acquire(at(1), ms(5)); // queued behind: free_at = 10

        // First holder crashes, but another acquirer already queued behind
        // it — the lease must expire naturally.
        assert!(!l.reclaim_tail(at(2), done, ms(5)));
        assert_eq!(l.free_at(), at(10));
        // A section that already ended is likewise left alone.
        assert!(!l.reclaim_tail(at(20), at(10), ms(5)));
    }
}
