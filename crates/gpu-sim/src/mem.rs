//! Memory system substrate: global memory, caches, the global-memory
//! coalescer, shared-memory banking and the bandwidth-limited DRAM model.

use crate::config::GpuConfig;
use crate::digest::{fold, splitmix64, FNV_OFFSET};
use crate::fasthash::FastMap;
use std::collections::BTreeSet;

/// Words per allocation page of [`GlobalMemory`].
pub(crate) const PAGE_WORDS: usize = 1024;

/// Sparse word-addressable global memory. Addresses are byte addresses;
/// accesses are 32-bit and must be 4-byte aligned (the simulator's ISA is
/// word-oriented, like PTXPlus `u32` accesses).
#[derive(Debug, Clone, Default)]
pub struct GlobalMemory {
    /// Never iterated in hash order: [`GlobalMemory::fingerprint`] sorts
    /// the keys first.
    pages: FastMap<u64, Box<[u32; PAGE_WORDS]>>,
    next_alloc: u64,
    /// Pages written since the last digest epoch (see
    /// [`GlobalMemory::epoch_digest`]). Sorted so the digest never
    /// observes hash order.
    touched: BTreeSet<u64>,
    /// The page last inserted into `touched` this epoch: consecutive
    /// writes to one page skip the set insert.
    last_touched: Option<u64>,
}

impl GlobalMemory {
    /// An empty memory whose allocator starts at a non-zero base (so that
    /// null-ish addresses fault loudly in tests).
    #[must_use]
    pub fn new() -> GlobalMemory {
        GlobalMemory { next_alloc: 0x1000, ..GlobalMemory::default() }
    }

    /// Reserves `bytes` of memory, returning the base address
    /// (128-byte aligned so buffers start on cache-line boundaries).
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let base = self.next_alloc;
        self.next_alloc = (self.next_alloc + bytes + 127) & !127;
        base
    }

    /// Reads the 32-bit word at byte address `addr` (zero if untouched).
    ///
    /// # Panics
    ///
    /// Panics on unaligned access.
    #[must_use]
    pub fn read_u32(&self, addr: u64) -> u32 {
        check_aligned(addr, "read");
        let (page, idx) = locate(addr);
        self.pages.get(&page).map_or(0, |words| words[idx])
    }

    /// Calls `f(lane, word)` with the word at each `(lane, byte address)`
    /// of `lanes`, in order, probing the page map once per run of
    /// consecutive addresses on one page. The addresses must be aligned.
    pub(crate) fn read_lanes(
        &self,
        lanes: impl Iterator<Item = (u32, u64)>,
        mut f: impl FnMut(u32, u32),
    ) {
        let mut run: Option<(u64, Option<&[u32; PAGE_WORDS]>)> = None;
        for (lane, addr) in lanes {
            debug_assert_eq!(addr % 4, 0, "an aligned address");
            let (page, idx) = locate(addr);
            let words = match run {
                Some((p, words)) if p == page => words,
                _ => run.insert((page, self.pages.get(&page).map(|w| &**w))).1,
            };
            f(lane, words.map_or(0, |w| w[idx]));
        }
    }

    /// Writes the 32-bit word at byte address `addr`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned access.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        check_aligned(addr, "write");
        self.update_lanes(std::iter::once((0, addr)), |_, w| *w = value);
    }

    /// Calls `f(lane, &mut word)` on the word at each `(lane, byte
    /// address)` of `lanes`, in order, allocating its page on first touch
    /// and recording the page as written this epoch. The page is resolved
    /// once per run of consecutive addresses on one page. The addresses
    /// must be aligned.
    pub(crate) fn update_lanes(
        &mut self,
        lanes: impl Iterator<Item = (u32, u64)>,
        mut f: impl FnMut(u32, &mut u32),
    ) {
        let GlobalMemory { pages, touched, last_touched, .. } = self;
        let mut run: Option<(u64, &mut [u32; PAGE_WORDS])> = None;
        for (lane, addr) in lanes {
            debug_assert_eq!(addr % 4, 0, "an aligned address");
            let (page, idx) = locate(addr);
            if run.as_ref().is_none_or(|&(p, _)| p != page) {
                if *last_touched != Some(page) {
                    touched.insert(page);
                    *last_touched = Some(page);
                }
                run = Some((page, pages.entry(page).or_insert_with(|| Box::new([0; PAGE_WORDS]))));
            }
            let (_, words) = run.as_mut().expect("the run's page");
            f(lane, &mut words[idx]);
        }
    }

    /// Digest of the pages written since the last call (the digest
    /// layer's per-epoch memory snapshot), clearing the touched set. Quiet
    /// epochs fold nothing and return a constant.
    pub fn epoch_digest(&mut self) -> u64 {
        let mut h = FNV_OFFSET;
        self.last_touched = None;
        for page in std::mem::take(&mut self.touched) {
            fold(&mut h, page);
            if let Some(words) = self.pages.get(&page) {
                for &w in words.iter() {
                    fold(&mut h, u64::from(w));
                }
            }
        }
        splitmix64(h)
    }

    /// Reads a float.
    #[must_use]
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes a float.
    pub fn write_f32(&mut self, addr: u64, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Copies a slice of words into memory starting at `addr`.
    pub fn write_slice_u32(&mut self, addr: u64, values: &[u32]) {
        for (i, &v) in values.iter().enumerate() {
            self.write_u32(addr + 4 * i as u64, v);
        }
    }

    /// Copies a slice of floats into memory starting at `addr`.
    pub fn write_slice_f32(&mut self, addr: u64, values: &[f32]) {
        for (i, &v) in values.iter().enumerate() {
            self.write_f32(addr + 4 * i as u64, v);
        }
    }

    /// Reads `len` words starting at `addr`.
    #[must_use]
    pub fn read_vec_u32(&self, addr: u64, len: usize) -> Vec<u32> {
        (0..len).map(|i| self.read_u32(addr + 4 * i as u64)).collect()
    }

    /// Reads `len` floats starting at `addr`.
    #[must_use]
    pub fn read_vec_f32(&self, addr: u64, len: usize) -> Vec<f32> {
        (0..len).map(|i| self.read_f32(addr + 4 * i as u64)).collect()
    }

    /// A stable fingerprint of all touched memory, for equivalence tests.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut keys: Vec<&u64> = self.pages.keys().collect();
        keys.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for k in keys {
            let page = &self.pages[k];
            // Skip all-zero pages: untouched and zero-filled are equal.
            if page.iter().all(|&w| w == 0) {
                continue;
            }
            h ^= *k;
            h = h.wrapping_mul(0x1000_0000_01b3);
            for &w in page.iter() {
                h ^= u64::from(w);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }
}

/// Asserts that the global byte address `addr` is word-aligned; `access`
/// (`"read"` or `"write"`) names the access in the message.
pub(crate) fn check_aligned(addr: u64, access: &str) {
    assert_eq!(addr % 4, 0, "unaligned global {access} at {addr:#x}");
}

/// The page number of byte address `addr` and its word index in the page.
fn locate(addr: u64) -> (u64, usize) {
    // Reduce modulo PAGE_WORDS in u64 before narrowing: a truncating cast
    // first would alias distant addresses on 32-bit targets.
    (addr / (PAGE_WORDS as u64 * 4), ((addr / 4) % PAGE_WORDS as u64) as usize)
}

/// A set-associative, line-granularity tag cache with LRU replacement.
/// Data lives in [`GlobalMemory`]; this models hits and misses only.
#[derive(Debug, Clone)]
pub struct TagCache {
    sets: usize,
    assoc: usize,
    /// `(tag, last_use)` per way; tag `u64::MAX` = invalid.
    lines: Vec<(u64, u64)>,
    tick: u64,
}

impl TagCache {
    /// A cache with `lines` total lines and `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is not divisible by `assoc`.
    #[must_use]
    pub fn new(lines: usize, assoc: usize) -> TagCache {
        assert!(lines.is_multiple_of(assoc), "lines must divide evenly into ways");
        TagCache { sets: lines / assoc, assoc, lines: vec![(u64::MAX, 0); lines], tick: 0 }
    }

    fn set_of(&self, line_addr: u64) -> usize {
        (line_addr as usize) % self.sets
    }

    /// Probes (and on miss, fills) the line containing `line_addr`
    /// (already divided by the line size). Returns true on hit.
    pub fn access(&mut self, line_addr: u64) -> bool {
        self.tick += 1;
        let set = self.set_of(line_addr);
        let ways = &mut self.lines[set * self.assoc..(set + 1) * self.assoc];
        if let Some(w) = ways.iter_mut().find(|(t, _)| *t == line_addr) {
            w.1 = self.tick;
            return true;
        }
        let victim = ways.iter_mut().min_by_key(|(_, lru)| *lru).expect("assoc > 0");
        *victim = (line_addr, self.tick);
        false
    }

    /// Probes without filling. Returns true on hit.
    #[must_use]
    pub fn probe(&self, line_addr: u64) -> bool {
        let set = self.set_of(line_addr);
        self.lines[set * self.assoc..(set + 1) * self.assoc].iter().any(|(t, _)| *t == line_addr)
    }

    /// Invalidates the line if present (write-through store policy).
    pub fn invalidate(&mut self, line_addr: u64) {
        let set = self.set_of(line_addr);
        for w in &mut self.lines[set * self.assoc..(set + 1) * self.assoc] {
            if w.0 == line_addr {
                *w = (u64::MAX, 0);
            }
        }
    }

    /// Folds tag and LRU state into a digest accumulator.
    pub fn digest_fold(&self, h: &mut u64) {
        fold(h, self.tick);
        for &(tag, lru) in &self.lines {
            fold(h, tag);
            fold(h, lru);
        }
    }
}

/// Lanes in one warp access: the most distinct lines or words
/// [`coalesce_lines`] and [`smem_conflict_degree`] accept.
const MAX_LANES: usize = 32;

/// Shared-memory banks (four bytes wide).
const SMEM_BANKS: u64 = 32;

/// The distinct 128-byte lines of one warp access, ascending
/// ([`coalesce_lines`]). Derefs to a slice; holds them inline.
#[derive(Debug, Clone)]
pub struct Lines {
    lines: [u64; MAX_LANES],
    len: usize,
}

impl std::ops::Deref for Lines {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.lines[..self.len]
    }
}

/// Coalesces per-lane byte addresses into distinct 128-byte line
/// transactions (the global memory coalescer of the LSU), ascending.
///
/// # Panics
///
/// Panics if the addresses span more than 32 distinct lines (more than
/// one warp's worth).
#[must_use]
pub fn coalesce_lines(addrs: impl Iterator<Item = u64>) -> Lines {
    let mut out = Lines { lines: [0; MAX_LANES], len: 0 };
    for a in addrs {
        let line = a / GpuConfig::LINE_BYTES;
        if let Err(i) = out.lines[..out.len].binary_search(&line) {
            assert!(out.len < MAX_LANES, "a warp access spans at most {MAX_LANES} lines");
            out.lines.copy_within(i..out.len, i + 1);
            out.lines[i] = line;
            out.len += 1;
        }
    }
    out
}

/// Shared-memory bank-conflict degree: with 32 four-byte banks, the number
/// of serialized passes is the maximum count of *distinct word addresses*
/// mapping to one bank (same-word access broadcasts for free).
///
/// # Panics
///
/// Panics if the addresses name more than 32 distinct words (more than
/// one warp's worth).
#[must_use]
pub fn smem_conflict_degree(addrs: impl Iterator<Item = u64>) -> u32 {
    // The first word each bank sees (`u64::MAX` is no word: words are
    // addresses / 4). Most accesses put at most one distinct word in a
    // bank, and then one compare settles the lane; only a bank's later
    // words are searched among each other.
    let mut first = [u64::MAX; SMEM_BANKS as usize];
    let mut later = [0u64; MAX_LANES];
    let (mut num_later, mut distinct) = (0, 0);
    let mut per_bank = [0u32; SMEM_BANKS as usize];
    let mut degree = 1;
    for a in addrs {
        let word = a / 4;
        let bank = (word % SMEM_BANKS) as usize;
        if first[bank] == word || (first[bank] != u64::MAX && later[..num_later].contains(&word)) {
            continue;
        }
        assert!(distinct < MAX_LANES, "a warp access names at most {MAX_LANES} words");
        distinct += 1;
        if first[bank] == u64::MAX {
            first[bank] = word;
        } else {
            later[num_later] = word;
            num_later += 1;
        }
        per_bank[bank] += 1;
        degree = degree.max(per_bank[bank]);
    }
    degree
}

/// The shared L2 + DRAM service model: a token-bucket bandwidth limiter
/// that assigns each DRAM transaction a service cycle.
#[derive(Debug, Clone)]
pub struct DramModel {
    /// Transactions serviced per cycle.
    bandwidth: usize,
    /// Index of the next service slot, in transaction slots
    /// (slot `s` is serviced in cycle `s / bandwidth`).
    cursor: u64,
}

impl DramModel {
    /// A DRAM servicing `bandwidth` 128-byte transactions per cycle.
    #[must_use]
    pub fn new(bandwidth: usize) -> DramModel {
        DramModel { bandwidth: bandwidth.max(1), cursor: 0 }
    }

    /// Schedules one transaction issued at `now`; returns the cycle its
    /// data is available (service slot + `latency`).
    pub fn schedule(&mut self, now: u64, latency: u64) -> u64 {
        let earliest_slot = now * self.bandwidth as u64;
        self.cursor = self.cursor.max(earliest_slot);
        let service_cycle = self.cursor / self.bandwidth as u64;
        self.cursor += 1;
        service_cycle + latency
    }

    /// Folds the queue cursor into a digest accumulator.
    pub fn digest_fold(&self, h: &mut u64) {
        fold(h, self.cursor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_memory_read_write_roundtrip() {
        let mut m = GlobalMemory::new();
        m.write_u32(0x1000, 42);
        m.write_f32(0x2004, 2.75);
        assert_eq!(m.read_u32(0x1000), 42);
        assert_eq!(m.read_f32(0x2004), 2.75);
        assert_eq!(m.read_u32(0x9999000), 0, "untouched memory reads zero");
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_access_panics() {
        let m = GlobalMemory::new();
        let _ = m.read_u32(0x1001);
    }

    #[test]
    fn alloc_is_line_aligned_and_disjoint() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(100);
        let b = m.alloc(4);
        assert_eq!(a % 128, 0);
        assert_eq!(b % 128, 0);
        assert!(b >= a + 100);
    }

    #[test]
    fn slice_helpers_roundtrip() {
        let mut m = GlobalMemory::new();
        let base = m.alloc(16);
        m.write_slice_f32(base, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.read_vec_f32(base, 4), vec![1.0, 2.0, 3.0, 4.0]);
        m.write_slice_u32(base, &[9, 8, 7, 6]);
        assert_eq!(m.read_vec_u32(base, 4), vec![9, 8, 7, 6]);
    }

    #[test]
    fn fingerprint_detects_differences_but_ignores_zero_pages() {
        let mut a = GlobalMemory::new();
        let mut b = GlobalMemory::new();
        a.write_u32(0x1000, 1);
        b.write_u32(0x1000, 1);
        // b additionally touches a page with zeros only.
        b.write_u32(0x800000, 5);
        b.write_u32(0x800000, 0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.write_u32(0x1000, 2);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn epoch_digest_folds_every_page_written_since_the_last_epoch() {
        const A: u64 = 0x1000;
        const B: u64 = 0x8000;
        let quiet = GlobalMemory::new().epoch_digest();
        // The digest of a fresh memory holding `writes`: it folds exactly
        // the pages written.
        let fresh = |writes: &[(u64, u32)]| {
            let mut m = GlobalMemory::new();
            for &(addr, v) in writes {
                m.write_u32(addr, v);
            }
            m.epoch_digest()
        };

        // A, digest, A again: the second epoch still folds A.
        let mut m = GlobalMemory::new();
        m.write_u32(A, 1);
        assert_eq!(m.epoch_digest(), fresh(&[(A, 1)]));
        m.write_u32(A + 4, 2);
        let again = m.epoch_digest();
        assert_ne!(again, quiet, "a rewritten page must not look like a quiet epoch");
        assert_eq!(again, fresh(&[(A, 1), (A + 4, 2)]));
        assert_eq!(m.epoch_digest(), quiet);

        // A, B, A within one epoch folds {A, B}.
        let mut m = GlobalMemory::new();
        m.write_u32(A, 1);
        m.write_u32(B, 2);
        m.write_u32(A + 4, 3);
        assert_eq!(m.epoch_digest(), fresh(&[(A, 1), (A + 4, 3), (B, 2)]));
        assert_ne!(fresh(&[(A, 1), (A + 4, 3), (B, 2)]), fresh(&[(A, 1), (A + 4, 3)]));
    }

    #[test]
    fn tag_cache_hits_after_fill() {
        let mut c = TagCache::new(8, 2);
        assert!(!c.access(5));
        assert!(c.access(5));
        assert!(c.probe(5));
        c.invalidate(5);
        assert!(!c.probe(5));
    }

    #[test]
    fn tag_cache_lru_evicts_oldest() {
        let mut c = TagCache::new(2, 2); // one set, two ways
        assert!(!c.access(0));
        assert!(!c.access(2));
        assert!(c.access(0), "still resident");
        assert!(!c.access(4), "fills over line 2");
        assert!(!c.access(2), "line 2 was evicted");
    }

    #[test]
    fn coalescer_merges_same_line() {
        // 32 consecutive words = 1 line.
        let lanes = (0..32u64).map(|l| 0x1000 + 4 * l);
        assert_eq!(coalesce_lines(lanes).len(), 1);
        // Stride-128 bytes: every lane its own line.
        let strided = (0..32u64).map(|l| 0x1000 + 128 * l);
        assert_eq!(coalesce_lines(strided).len(), 32);
        // Two half-warps hitting two lines.
        let twos = (0..32u64).map(|l| 0x1000 + 4 * (l % 2) * 32);
        assert_eq!(coalesce_lines(twos).len(), 2);
    }

    #[test]
    fn smem_conflict_free_and_conflicting() {
        // Consecutive words: each lane its own bank -> degree 1.
        assert_eq!(smem_conflict_degree((0..32u64).map(|l| 4 * l)), 1);
        // Broadcast (same word): degree 1.
        assert_eq!(smem_conflict_degree((0..32u64).map(|_| 64)), 1);
        // Stride 32 words: all lanes in bank 0 -> degree 32.
        assert_eq!(smem_conflict_degree((0..32u64).map(|l| 4 * 32 * l)), 32);
        // Stride 2 words: 2-way conflict.
        assert_eq!(smem_conflict_degree((0..32u64).map(|l| 4 * 2 * l)), 2);
    }

    #[test]
    fn dram_model_enforces_bandwidth() {
        let mut d = DramModel::new(2);
        // 4 transactions in cycle 10 with latency 100: serviced in cycles
        // 10,10,11,11.
        let t: Vec<u64> = (0..4).map(|_| d.schedule(10, 100)).collect();
        assert_eq!(t, vec![110, 110, 111, 111]);
        // An idle gap resets the cursor to "now".
        assert_eq!(d.schedule(50, 100), 150);
    }
}
