//! Per-threadblock simulator state: shared memory, barrier bookkeeping and
//! the per-TB banks of the DARSIE structures.

use crate::fasthash::FastMap;
use darsie::{DarsieConfig, MajorityMask, RenameState, SkipTable, WarpMask};
use simt_isa::Dim3;

/// State of a DARSIE branch-synchronization point (paper Section 4.3.3):
/// majority-path warps wait at each potentially divergent branch so that
/// all skipping warps share one control-flow history.
#[derive(Debug, Clone, Default)]
pub struct BranchSync {
    /// Majority warps that have executed the branch and are waiting.
    pub arrived: WarpMask,
    /// Each arrival's resulting next PC (`usize::MAX` when the warp
    /// diverged internally and left the majority path).
    pub outcomes: Vec<(u32, usize)>,
}

/// A resident threadblock.
#[derive(Debug)]
pub struct TbState {
    /// Coordinates in the grid.
    pub ctaid: Dim3,
    /// SM warp slots occupied by this TB, in warp-in-TB order.
    pub warp_slots: Vec<usize>,
    /// Mask of warps still running.
    pub live_mask: WarpMask,
    /// Shared-memory scratchpad (words).
    pub shared: Vec<u32>,
    /// Warps waiting at a `bar.sync`.
    pub barrier_arrived: WarpMask,
    /// DARSIE: PC skip table bank.
    pub skip_table: SkipTable,
    /// DARSIE: majority-path mask.
    pub majority: MajorityMask,
    /// DARSIE: rename/version/freelist bank.
    pub rename: RenameState,
    /// DARSIE: leader result snapshots, keyed by `(pc, instance)`. The
    /// 32-lane value a follower copies when it skips.
    pub snapshots: FastMap<(usize, u32), Box<[u32]>>,
    /// DARSIE: the `(register, version)` each live skip entry renames,
    /// keyed by `(pc, instance)`; followers bind to it when they skip.
    pub entry_versions: FastMap<(usize, u32), (u8, u32)>,
    /// DARSIE: in-progress branch synchronizations, keyed by branch PC.
    pub branch_syncs: FastMap<usize, BranchSync>,
    /// SILICON-SYNC: basic-block boundary crossings completed per warp.
    pub bb_crossings: Vec<u64>,
    /// SILICON-SYNC: warps blocked at their next crossing.
    pub bb_waiting: WarpMask,
}

impl TbState {
    /// Creates the state for a TB with `num_warps` warps and
    /// `shared_bytes` of scratchpad.
    #[must_use]
    pub fn new(
        ctaid: Dim3,
        warp_slots: Vec<usize>,
        shared_bytes: u32,
        darsie: &DarsieConfig,
    ) -> TbState {
        let num_warps = warp_slots.len() as u32;
        let live_mask = if num_warps >= 32 { u32::MAX } else { (1 << num_warps) - 1 };
        TbState {
            ctaid,
            live_mask,
            shared: vec![0; (shared_bytes as usize).div_ceil(4)],
            barrier_arrived: 0,
            skip_table: SkipTable::new(darsie.skip_entries_per_tb),
            majority: MajorityMask::new(num_warps),
            rename: RenameState::new(darsie.rename_regs_per_tb),
            snapshots: FastMap::default(),
            entry_versions: FastMap::default(),
            branch_syncs: FastMap::default(),
            bb_crossings: vec![0; warp_slots.len()],
            bb_waiting: 0,
            warp_slots,
        }
    }

    /// Number of warps in this TB.
    #[must_use]
    pub fn num_warps(&self) -> u32 {
        self.warp_slots.len() as u32
    }

    /// Records a warp exit; returns true when the TB is finished.
    pub fn retire_warp(&mut self, warp_in_tb: u32) -> bool {
        self.live_mask &= !(1 << warp_in_tb);
        self.majority.retire(warp_in_tb);
        self.rename.release_warp(warp_in_tb);
        self.live_mask == 0
    }

    /// The set of warps a skip-table entry must see pass before removal:
    /// live warps still on the majority path.
    #[must_use]
    pub fn must_pass_mask(&self) -> WarpMask {
        self.majority.mask() & self.live_mask
    }

    /// Registers a warp's arrival at `bar.sync`; returns `Some(released)`
    /// when the whole TB has arrived (mask of warps to unblock).
    pub fn arrive_barrier(&mut self, warp_in_tb: u32) -> Option<WarpMask> {
        self.barrier_arrived |= 1 << warp_in_tb;
        self.release_barrier()
    }

    /// Releases the TB's barrier once every live warp has arrived at it
    /// (an arrival, or a retirement that leaves only arrived warps).
    /// Returns the mask of warps to unblock.
    pub fn release_barrier(&mut self) -> Option<WarpMask> {
        if self.barrier_arrived == 0 || self.barrier_arrived & self.live_mask != self.live_mask {
            return None;
        }
        let released = std::mem::take(&mut self.barrier_arrived);
        // `__syncthreads()` restores every warp to the majority path
        // (paper Section 4.3.3).
        self.majority.reset();
        Some(released)
    }

    /// Registers a majority-path warp's arrival at a synchronized branch.
    /// `next_pc` is the warp's post-branch PC (or `usize::MAX` if it
    /// diverged internally). Returns `Some((released, evicted))` when all
    /// majority warps have arrived: warps to unblock, and warps that left
    /// the majority path.
    pub fn arrive_branch_sync(
        &mut self,
        pc: usize,
        warp_in_tb: u32,
        next_pc: usize,
    ) -> Option<(WarpMask, Vec<u32>)> {
        let e = self.branch_syncs.entry(pc).or_default();
        e.arrived |= 1 << warp_in_tb;
        e.outcomes.push((warp_in_tb, next_pc));
        self.check_branch_sync(pc)
    }

    /// Re-evaluates a pending branch sync (called after arrivals and after
    /// the majority mask shrinks). Returns `Some((released, evicted))`
    /// when it resolved.
    pub fn check_branch_sync(&mut self, pc: usize) -> Option<(WarpMask, Vec<u32>)> {
        let expected = self.must_pass_mask();
        let e = self.branch_syncs.get(&pc)?;
        // Warps that already left the majority path no longer count.
        if e.arrived & expected != expected {
            return None;
        }
        let e = self.branch_syncs.remove(&pc).expect("entry just found");
        // Majority outcome among the arrivals still on the path.
        let mut counts: FastMap<usize, u32> = FastMap::default();
        for &(w, npc) in &e.outcomes {
            if expected & (1 << w) != 0 && npc != usize::MAX {
                *counts.entry(npc).or_default() += 1;
            }
        }
        let majority_pc =
            counts.iter().max_by_key(|(pc, n)| (**n, usize::MAX - **pc)).map(|(pc, _)| *pc);
        let mut evicted = Vec::new();
        for &(w, npc) in &e.outcomes {
            if expected & (1 << w) == 0 {
                continue;
            }
            if npc == usize::MAX || Some(npc) != majority_pc {
                self.majority.remove(w);
                self.rename.release_warp(w);
                evicted.push(w);
            }
        }
        // The majority shrank: previously stalled skip entries may now be
        // complete.
        let must = self.must_pass_mask();
        if self.skip_table.sweep(must) > 0 {
            self.gc_versions();
        }
        Some((e.arrived, evicted))
    }

    /// Completes one skip entry: drops its snapshot and frees its renamed
    /// version (followers materialized the value into their private
    /// registers when they skipped, so the physical register is dead once
    /// every majority warp has passed).
    pub fn entry_completed(&mut self, pc: usize, instance: u32) {
        self.snapshots.remove(&(pc, instance));
        if let Some((reg, version)) = self.entry_versions.remove(&(pc, instance)) {
            self.rename.free_version(reg, version);
        }
    }

    /// Garbage-collects versions/snapshots whose skip entries are gone
    /// (bulk removals: sweeps, load invalidations, TB teardown).
    pub fn gc_versions(&mut self) {
        let mut dead: Vec<(usize, u32)> = self
            .entry_versions
            .keys()
            .filter(|k| self.skip_table.find(k.0, k.1).is_none())
            .copied()
            .collect();
        // Free in key order, not hash order: the free order decides how
        // physical registers stack back onto the freelist, i.e. which
        // preg (and RF bank) the next allocation draws.
        dead.sort_unstable();
        for (pc, instance) in dead {
            self.entry_completed(pc, instance);
        }
    }

    /// All pending branch syncs, for re-evaluation after warp exits.
    #[must_use]
    pub fn pending_branch_syncs(&self) -> Vec<usize> {
        let mut pcs: Vec<usize> = self.branch_syncs.keys().copied().collect();
        // Callers re-evaluate syncs in this order and each release can
        // evict warps; keep it independent of hash iteration order.
        pcs.sort_unstable();
        pcs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tb(warps: usize) -> TbState {
        TbState::new(Dim3::three_d(0, 0, 0), (0..warps).collect(), 64, &DarsieConfig::default())
    }

    #[test]
    fn barrier_releases_when_all_arrive() {
        let mut t = tb(3);
        assert_eq!(t.arrive_barrier(0), None);
        assert_eq!(t.arrive_barrier(2), None);
        assert_eq!(t.arrive_barrier(1), Some(0b111));
        assert_eq!(t.barrier_arrived, 0, "reset for the next barrier");
    }

    #[test]
    fn barrier_ignores_dead_warps() {
        let mut t = tb(3);
        assert!(!t.retire_warp(1));
        assert_eq!(t.arrive_barrier(0), None);
        assert_eq!(t.arrive_barrier(2), Some(0b101));
    }

    #[test]
    fn barrier_restores_majority() {
        let mut t = tb(3);
        t.majority.remove(1);
        assert_eq!(t.must_pass_mask(), 0b101);
        let _ = t.arrive_barrier(0);
        let _ = t.arrive_barrier(1);
        let _ = t.arrive_barrier(2);
        assert_eq!(t.must_pass_mask(), 0b111);
    }

    #[test]
    fn branch_sync_keeps_majority_when_unanimous() {
        let mut t = tb(3);
        assert_eq!(t.arrive_branch_sync(5, 0, 10), None);
        assert_eq!(t.arrive_branch_sync(5, 1, 10), None);
        let (released, evicted) = t.arrive_branch_sync(5, 2, 10).expect("resolves");
        assert_eq!(released, 0b111);
        assert!(evicted.is_empty());
        assert_eq!(t.must_pass_mask(), 0b111);
    }

    #[test]
    fn branch_sync_evicts_minority_paths() {
        let mut t = tb(4);
        t.arrive_branch_sync(5, 0, 10);
        t.arrive_branch_sync(5, 1, 10);
        t.arrive_branch_sync(5, 2, 20);
        let (released, evicted) = t.arrive_branch_sync(5, 3, 10).expect("resolves");
        assert_eq!(released, 0b1111, "everyone resumes");
        assert_eq!(evicted, vec![2], "minority outcome leaves the path");
        assert_eq!(t.must_pass_mask(), 0b1011);
    }

    #[test]
    fn branch_sync_evicts_intra_warp_divergence() {
        let mut t = tb(2);
        t.arrive_branch_sync(5, 0, usize::MAX); // diverged inside the warp
        let (_, evicted) = t.arrive_branch_sync(5, 1, 8).expect("resolves");
        assert_eq!(evicted, vec![0]);
        assert!(t.majority.contains(1));
    }

    #[test]
    fn branch_sync_resolves_after_exit_shrinks_majority() {
        let mut t = tb(3);
        assert_eq!(t.arrive_branch_sync(5, 0, 10), None);
        assert_eq!(t.arrive_branch_sync(5, 1, 10), None);
        // Warp 2 exits instead of arriving.
        assert!(!t.retire_warp(2));
        let resolved = t.check_branch_sync(5).expect("resolves without warp 2");
        assert_eq!(resolved.0, 0b011);
    }

    #[test]
    fn retire_last_warp_finishes_tb() {
        let mut t = tb(2);
        assert!(!t.retire_warp(0));
        assert!(t.retire_warp(1));
    }
}
