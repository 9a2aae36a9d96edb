//! The UV baseline's instruction reuse buffer (Xiang et al. / Sodani &
//! Sohi): a value-keyed table probed at the issue stage. Entries store the
//! full `(pc, operand values)` key and compare exactly, as hardware reuse
//! buffers do — a match guarantees the stored result is correct for any
//! deterministic non-memory instruction. If a uniform instruction's
//! operands match a previous execution, the stored result is reused and
//! the execution stage is skipped — but the instruction has already
//! consumed fetch, decode and issue bandwidth, which is exactly why UV
//! trails DARSIE in the paper.

use crate::digest::fold;
use std::sync::Arc;

/// One stored result under its exact `(pc, operand values)` key.
#[derive(Debug, Clone)]
struct Entry {
    pc: usize,
    operands: Box<[u32]>,
    value: Arc<[u32]>,
    lru: u64,
}

/// An LRU, value-keyed reuse buffer. Probing allocates nothing: a key is
/// boxed only when a result is inserted, and a hit shares the stored
/// result.
#[derive(Debug, Clone)]
pub struct ReuseBuffer {
    capacity: usize,
    /// Linearly probed: the buffer is small and its order reaches no
    /// output (digests fold it sorted by key).
    entries: Vec<Entry>,
    tick: u64,
    /// Successful reuses.
    pub hits: u64,
    /// Probes that missed.
    pub misses: u64,
}

impl ReuseBuffer {
    /// A buffer holding `capacity` results.
    #[must_use]
    pub fn new(capacity: usize) -> ReuseBuffer {
        ReuseBuffer { capacity, entries: Vec::with_capacity(capacity), tick: 0, hits: 0, misses: 0 }
    }

    /// The entry keyed `(pc, operands)`. Since UV only reuses instructions
    /// whose operands are warp-uniform, one scalar word per operand
    /// suffices.
    fn find(&self, pc: usize, operands: &[u32]) -> Option<usize> {
        self.entries.iter().position(|e| e.pc == pc && *e.operands == *operands)
    }

    /// Probes for a previous result of `pc` on `operands`. Returns the
    /// stored vector on a hit.
    pub fn probe(&mut self, pc: usize, operands: &[u32]) -> Option<Arc<[u32]>> {
        self.tick += 1;
        if let Some(i) = self.find(pc, operands) {
            self.entries[i].lru = self.tick;
            self.hits += 1;
            Some(Arc::clone(&self.entries[i].value))
        } else {
            self.misses += 1;
            None
        }
    }

    /// Inserts a freshly computed result, evicting LRU if needed.
    pub fn insert(&mut self, pc: usize, operands: &[u32], value: Arc<[u32]>) {
        self.tick += 1;
        let lru = self.tick;
        if let Some(i) = self.find(pc, operands) {
            self.entries[i].value = value;
            self.entries[i].lru = lru;
            return;
        }
        if self.entries.len() >= self.capacity {
            let victim = (0..self.entries.len()).min_by_key(|&i| self.entries[i].lru);
            if let Some(i) = victim {
                self.entries.swap_remove(i);
            }
        }
        self.entries.push(Entry { pc, operands: operands.into(), value, lru });
    }

    /// Folds the buffer contents into a digest accumulator, in sorted key
    /// order.
    pub fn digest_fold(&self, h: &mut u64) {
        fold(h, self.tick);
        let mut entries: Vec<&Entry> = self.entries.iter().collect();
        entries.sort_unstable_by(|a, b| (a.pc, &a.operands).cmp(&(b.pc, &b.operands)));
        for e in entries {
            fold(h, e.pc as u64);
            for &w in e.operands.iter() {
                fold(h, u64::from(w));
            }
            for &w in e.value.iter() {
                fold(h, u64::from(w));
            }
            fold(h, e.lru);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_miss_then_hit() {
        let mut b = ReuseBuffer::new(4);
        assert!(b.probe(8, &[1, 2]).is_none());
        b.insert(8, &[1, 2], vec![42; 32].into());
        assert_eq!(b.probe(8, &[1, 2]).as_deref(), Some(&[42u32; 32][..]));
        assert_eq!(b.hits, 1);
        assert_eq!(b.misses, 1);
    }

    #[test]
    fn different_operands_or_pcs_never_alias() {
        let mut b = ReuseBuffer::new(4);
        b.insert(8, &[1, 2], vec![1].into());
        // Exact keys: no collision is possible by construction.
        assert!(b.probe(8, &[1, 3]).is_none());
        assert!(b.probe(16, &[1, 2]).is_none());
        // The regression that motivated exact keys: two small scalar
        // payloads at nearby PCs must not alias.
        b.insert(9, &[7], vec![2].into());
        assert!(b.probe(14, &[0]).is_none());
        assert_eq!(b.probe(9, &[7]).as_deref(), Some(&[2u32][..]));
    }

    #[test]
    fn lru_eviction() {
        let mut b = ReuseBuffer::new(2);
        b.insert(0, &[1], vec![1].into());
        b.insert(8, &[1], vec![2].into());
        assert!(b.probe(0, &[1]).is_some(), "refresh k1");
        b.insert(16, &[1], vec![3].into());
        assert_eq!(b.entries.len(), 2);
        assert!(b.probe(8, &[1]).is_none(), "k2 was LRU");
        assert!(b.probe(0, &[1]).is_some());
    }
}
