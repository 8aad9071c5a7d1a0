//! The registry of reads blocked on in-flight I/O.
//!
//! Every read that blocks on an in-flight block registers here; the disk
//! completion drains that block's registrations and wakes each process.
//! A process has at most one read outstanding, so at most `procs`
//! registrations exist at once however large the file is. The registry
//! is therefore one flat list of `(block, process)` pairs in
//! registration order, not a table indexed by block: lookups scan at
//! most `procs` entries, a clone copies at most `procs` pairs, and once
//! the list has reached its high-water mark the wait/wake cycle touches
//! no allocator. Wake order per block is registration order.

use rt_disk::{BlockId, ProcId};

/// Blocked reads as `(block, process)` pairs, in registration order.
#[derive(Clone)]
pub(crate) struct WaiterTable {
    entries: Vec<(BlockId, ProcId)>,
}

impl WaiterTable {
    /// An empty registry with room for `procs` registrations — one per
    /// process, the most that can exist at once.
    pub fn new(procs: u16) -> Self {
        WaiterTable {
            entries: Vec::with_capacity(procs as usize),
        }
    }

    /// Register `proc` as waiting for `block`. Wake order is registration
    /// order.
    pub fn push(&mut self, block: BlockId, proc: ProcId) {
        self.entries.push((block, proc));
    }

    /// Visit every waiter for `block` in registration order without
    /// draining it (used for latency-attribution transitions, where the
    /// wait continues but its component changes).
    pub fn for_each(&self, block: BlockId, mut f: impl FnMut(ProcId)) {
        for &(b, p) in &self.entries {
            if b == block {
                f(p);
            }
        }
    }

    /// Every registration in registration order, across all blocks.
    pub fn entries(&self) -> &[(BlockId, ProcId)] {
        &self.entries
    }

    /// Total registrations across every block. A drained run must report
    /// zero — anything left is a waiter whose wake will never fire.
    pub fn total(&self) -> usize {
        self.entries.len()
    }

    /// Is anyone waiting for `block`?
    pub fn has_waiters(&self, block: BlockId) -> bool {
        self.entries.iter().any(|&(b, _)| b == block)
    }

    /// Remove one registration of `proc` from `block`, preserving the
    /// registration order of everyone else. Returns whether an entry was
    /// removed (used when a waiting process crashes — its wake must never
    /// fire).
    pub fn remove(&mut self, block: BlockId, proc: ProcId) -> bool {
        match self.entries.iter().position(|&e| e == (block, proc)) {
            Some(pos) => {
                self.entries.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Move every waiter for `block` into `out` (appended in registration
    /// order) and drop its registrations, keeping the other blocks'
    /// entries in order.
    pub fn drain_into(&mut self, block: BlockId, out: &mut Vec<ProcId>) {
        // `retain` visits each entry exactly once, in order.
        self.entries.retain(|&(b, p)| {
            if b == block {
                out.push(p);
            }
            b != block
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained(t: &mut WaiterTable, block: u32) -> Vec<ProcId> {
        let mut out = Vec::new();
        t.drain_into(BlockId(block), &mut out);
        out
    }

    #[test]
    fn drain_preserves_registration_order() {
        let mut t = WaiterTable::new(8);
        for p in 0..7u16 {
            t.push(BlockId(3), ProcId(p));
        }
        assert_eq!(drained(&mut t, 3), (0..7).map(ProcId).collect::<Vec<_>>());
        assert!(
            drained(&mut t, 3).is_empty(),
            "drain leaves the block empty"
        );
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn blocks_are_independent() {
        let mut t = WaiterTable::new(4);
        t.push(BlockId(0), ProcId(9));
        t.push(BlockId(2), ProcId(1));
        assert_eq!(drained(&mut t, 2), vec![ProcId(1)]);
        assert_eq!(drained(&mut t, 0), vec![ProcId(9)]);
    }

    #[test]
    fn interleaved_blocks_drain_in_order() {
        let mut t = WaiterTable::new(12);
        // Round-robin registrations over blocks 10, 11, 12.
        for p in 0..12u16 {
            t.push(BlockId(10 + u32::from(p % 3)), ProcId(p));
        }
        assert_eq!(drained(&mut t, 11), [1, 4, 7, 10].map(ProcId).to_vec());
        // The other blocks keep their own registration order.
        let mut seen = Vec::new();
        t.for_each(BlockId(12), |p| seen.push(p));
        assert_eq!(seen, [2, 5, 8, 11].map(ProcId).to_vec());
        assert!(!t.has_waiters(BlockId(11)));
        assert_eq!(t.total(), 8);
        assert_eq!(drained(&mut t, 10), [0, 3, 6, 9].map(ProcId).to_vec());
        assert_eq!(drained(&mut t, 12), [2, 5, 8, 11].map(ProcId).to_vec());
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn remove_preserves_order() {
        let mut t = WaiterTable::new(8);
        for p in 0..7u16 {
            t.push(BlockId(1), ProcId(p));
            t.push(BlockId(2), ProcId(p));
        }
        assert!(t.remove(BlockId(1), ProcId(2)));
        assert!(t.remove(BlockId(1), ProcId(6)));
        // A proc that is not registered on that block is a no-op.
        assert!(!t.remove(BlockId(1), ProcId(2)));
        assert!(!t.remove(BlockId(3), ProcId(0)));
        assert_eq!(drained(&mut t, 1), [0, 1, 3, 4, 5].map(ProcId).to_vec());
        assert_eq!(drained(&mut t, 2), (0..7).map(ProcId).collect::<Vec<_>>());
    }

    #[test]
    fn remove_last_entry_empties_block() {
        let mut t = WaiterTable::new(1);
        t.push(BlockId(0), ProcId(4));
        assert!(t.has_waiters(BlockId(0)));
        assert!(t.remove(BlockId(0), ProcId(4)));
        assert!(!t.has_waiters(BlockId(0)));
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn reuse_after_drain() {
        let mut t = WaiterTable::new(6);
        for round in 0..3 {
            for p in 0..6u16 {
                t.push(BlockId(0), ProcId(p));
            }
            assert_eq!(drained(&mut t, 0).len(), 6, "round {round}");
        }
    }

    #[test]
    fn clone_is_independent() {
        let mut t = WaiterTable::new(4);
        t.push(BlockId(5), ProcId(0));
        t.push(BlockId(6), ProcId(1));
        let mut c = t.clone();
        c.push(BlockId(5), ProcId(2));
        assert_eq!(drained(&mut c, 6), vec![ProcId(1)]);
        // The original saw neither the push nor the drain.
        assert_eq!(drained(&mut t, 5), vec![ProcId(0)]);
        assert_eq!(drained(&mut t, 6), vec![ProcId(1)]);
        assert_eq!(drained(&mut c, 5), vec![ProcId(0), ProcId(2)]);
    }
}
