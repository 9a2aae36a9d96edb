//! Per-warp architectural and microarchitectural state: vector registers,
//! the SIMT reconvergence stack, instruction buffer and scoreboard.

use crate::fasthash::FastMap;
use simt_isa::reg::NUM_PREDS;
use simt_isa::{Instruction, LaunchConfig, Pred, Reg};
use std::collections::VecDeque;

/// A 32-bit lane mask.
pub type LaneMask = u32;

/// One SIMT stack entry: a pending execution path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackEntry {
    /// Next instruction index of this path.
    pub next_pc: usize,
    /// Lanes executing this path.
    pub mask: LaneMask,
    /// Instruction index where this path reconverges with its sibling
    /// (`usize::MAX` = at thread exit).
    pub reconv: usize,
}

/// Entries of the per-warp instruction buffer. `Instr` entries occupy real
/// I-buffer slots; `SkipMarker` and `Ghost` are the zero-width bookkeeping
/// records of eliminated instructions, applied in program order at issue.
#[derive(Debug, Clone, PartialEq)]
pub enum IBufEntry {
    /// A fetched instruction awaiting issue.
    Instr {
        /// Static instruction index.
        pc: usize,
        /// When this warp was elected DARSIE leader for the instruction,
        /// the dynamic instance it leads (its result is snapshotted for
        /// followers at issue and `LeaderWB` set at writeback).
        leader: Option<u32>,
    },
    /// A DARSIE-skipped instruction: the leader's result is copied into
    /// this warp's destination register when the marker reaches its
    /// program-order position (zero cycles, no execution resources).
    SkipMarker {
        /// Static instruction index (for shadow checking / stats).
        pc: usize,
        /// Destination register.
        dst: Reg,
        /// The leader's 32-lane result.
        values: Box<[u32]>,
    },
    /// A DAC-IDEAL affine-stream instruction: executed functionally at its
    /// program-order position with zero timing cost.
    Ghost {
        /// Static instruction index.
        pc: usize,
    },
}

impl IBufEntry {
    /// The static instruction index this entry stands for.
    #[inline]
    #[must_use]
    pub fn pc(&self) -> usize {
        match *self {
            IBufEntry::Instr { pc, .. }
            | IBufEntry::SkipMarker { pc, .. }
            | IBufEntry::Ghost { pc } => pc,
        }
    }
}

/// Scheduling state of a warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpState {
    /// Eligible for fetch and issue.
    Ready,
    /// Waiting at a `bar.sync` for the rest of its TB.
    AtBarrier,
    /// Stalled at a skippable PC until the leader writes back
    /// (`pc`, `instance`).
    WaitLeader(usize, u32),
    /// Stalled at DARSIE branch synchronization for instruction `pc`.
    BranchSync(usize),
    /// All lanes exited.
    Done,
}

/// A resident warp.
#[derive(Debug, Clone)]
pub struct Warp {
    /// Warp slot within the SM.
    pub slot: usize,
    /// Index of the owning TB in the SM's resident list.
    pub tb: usize,
    /// Warp index within the TB (bit position in TB-level masks).
    pub warp_in_tb: u32,
    /// Flat register file: `reg * warp_size + lane`.
    pub regs: Vec<u32>,
    /// Predicate file: one lane mask per predicate (bit `lane` is the
    /// lane's value; bits at or above the warp width stay clear).
    pub preds: [LaneMask; NUM_PREDS as usize],
    /// Lanes that hold live threads (last warp of a TB may be partial).
    pub full_mask: LaneMask,
    /// SIMT stack; the top entry is the executing path.
    pub stack: Vec<StackEntry>,
    /// Instruction buffer; `push_ibuffer`/`pop_ibuffer` keep `buffered_instrs`.
    pub(crate) ibuffer: VecDeque<IBufEntry>,
    /// `Instr` entries in `ibuffer`.
    buffered_instrs: usize,
    /// Registers with writes in flight (bitset over 256 ids).
    pending_regs: [u64; 4],
    /// Predicates with writes in flight.
    pending_preds: u8,
    /// Scheduling state.
    pub state: WarpState,
    /// Launch order (for greedy-then-oldest).
    pub age: u64,
    /// Cycle until which the fetch stage must not re-probe the I-cache
    /// (outstanding miss).
    pub fetch_ready_at: u64,
    /// Dynamic occurrence count per skippable PC (DARSIE/DAC instance
    /// numbering: the paper's per-register write counts). Only probed by
    /// pc; the digest folds it in sorted pc order.
    pub pass_counts: FastMap<usize, u32>,
    /// Fetch stalls behind an unissued branch or exit (the frontier would
    /// be speculative otherwise).
    pub fetch_blocked: bool,
    /// SILICON-SYNC: this warp has registered its current basic-block
    /// crossing and is waiting for the rest of the TB.
    pub bb_pending: bool,
    /// Consecutive cycles spent stalled trying to become a DARSIE leader
    /// without resources; bounded to avoid livelock on terminal register
    /// versions that stay bound until warp exit.
    pub leader_stall: u32,
    /// PC of the I-buffer head `Instr` the scoreboard blocked. A blocked
    /// warp cannot issue, so only its own writebacks can change its head,
    /// `next_pc` or scoreboard; they clear this, and until then issue
    /// repeats the stall without probing.
    pub(crate) scoreboard_stall: Option<usize>,
    warp_size: u32,
}

impl Warp {
    /// Creates a warp with `num_regs` registers, all zero, positioned at
    /// instruction 0.
    ///
    /// # Panics
    ///
    /// Panics unless `warp_size` is in `1..=32` (the width of a
    /// [`LaneMask`]).
    #[must_use]
    pub fn new(
        slot: usize,
        tb: usize,
        warp_in_tb: u32,
        num_regs: u16,
        warp_size: u32,
        full_mask: LaneMask,
        age: u64,
    ) -> Warp {
        assert!(
            (1..=LaneMask::BITS).contains(&warp_size),
            "a warp has 1..={} lanes, not {warp_size}",
            LaneMask::BITS
        );
        Warp {
            slot,
            tb,
            warp_in_tb,
            regs: vec![0; usize::from(num_regs) * warp_size as usize],
            preds: [0; NUM_PREDS as usize],
            full_mask,
            stack: vec![StackEntry { next_pc: 0, mask: full_mask, reconv: usize::MAX }],
            ibuffer: VecDeque::new(),
            buffered_instrs: 0,
            pending_regs: [0; 4],
            pending_preds: 0,
            state: WarpState::Ready,
            age,
            fetch_ready_at: 0,
            pass_counts: FastMap::default(),
            fetch_blocked: false,
            bb_pending: false,
            leader_stall: 0,
            scoreboard_stall: None,
            warp_size,
        }
    }

    /// Warp `warp_in_tb` of one block of `launch`: its live lanes are the
    /// block's threads that fall in it (a block's last warp may be
    /// partial).
    #[must_use]
    pub(crate) fn in_block(
        slot: usize,
        tb: usize,
        warp_in_tb: u32,
        num_regs: u16,
        launch: &LaunchConfig,
        age: u64,
    ) -> Warp {
        let ws = launch.warp_size;
        let lanes = launch.threads_per_block().saturating_sub(warp_in_tb * ws).min(ws);
        let full = if lanes >= 32 { u32::MAX } else { (1u32 << lanes) - 1 };
        Warp::new(slot, tb, warp_in_tb, num_regs, ws, full, age)
    }

    /// Returns the warp to the state [`Warp::new`] gave it (registers and
    /// predicates zero, one path of the full mask at instruction 0, nothing
    /// buffered, pending or counted), keeping its slot, TB, index, age and
    /// allocations.
    pub(crate) fn restart(&mut self) {
        // Named field by field, so a new field cannot be left out.
        let Warp {
            slot: _,
            tb: _,
            warp_in_tb: _,
            regs,
            preds,
            full_mask,
            stack,
            ibuffer,
            buffered_instrs,
            pending_regs,
            pending_preds,
            state,
            age: _,
            fetch_ready_at,
            pass_counts,
            fetch_blocked,
            bb_pending,
            leader_stall,
            scoreboard_stall,
            warp_size: _,
        } = self;
        regs.fill(0);
        *preds = [0; NUM_PREDS as usize];
        stack.clear();
        stack.push(StackEntry { next_pc: 0, mask: *full_mask, reconv: usize::MAX });
        ibuffer.clear();
        *buffered_instrs = 0;
        *pending_regs = [0; 4];
        *pending_preds = 0;
        *state = WarpState::Ready;
        *fetch_ready_at = 0;
        pass_counts.clear();
        *fetch_blocked = false;
        *bb_pending = false;
        *leader_stall = 0;
        *scoreboard_stall = None;
    }

    /// The SIMT width this warp was created with.
    #[must_use]
    pub fn warp_size(&self) -> u32 {
        self.warp_size
    }

    /// Raw scoreboard occupancy (pending register words and predicate
    /// bits), exposed for the digest layer.
    #[must_use]
    pub(crate) fn scoreboard_words(&self) -> ([u64; 4], u8) {
        (self.pending_regs, self.pending_preds)
    }

    /// Currently executing path, if any.
    #[must_use]
    pub fn top(&self) -> Option<&StackEntry> {
        self.stack.last()
    }

    /// Active lane mask of the executing path.
    #[must_use]
    pub fn active_mask(&self) -> LaneMask {
        self.stack.last().map_or(0, |e| e.mask)
    }

    /// True when the executing path runs every lane of a warp that is
    /// `warp_size` lanes wide: the mask under which DARSIE's hardware lets
    /// warps share a result.
    #[must_use]
    pub fn fully_active(&self) -> bool {
        self.active_mask() == self.full_mask && self.full_mask.count_ones() == self.warp_size
    }

    /// Next instruction index to fetch for the executing path.
    #[must_use]
    pub fn next_pc(&self) -> Option<usize> {
        self.stack.last().map(|e| e.next_pc)
    }

    /// PC of the *next unfetched* instruction: continues after whatever is
    /// already buffered. The fetch stage and the DARSIE skipper work at
    /// this frontier, which runs ahead of the issue-stage `next_pc`.
    #[must_use]
    pub fn fetch_pc(&self) -> Option<usize> {
        // Every buffered entry (instruction, skip marker or ghost) stands
        // for one sequential PC.
        Some(self.stack.last()?.next_pc + self.ibuffer.len())
    }

    /// Number of real (fetched-instruction) entries in the I-buffer.
    #[must_use]
    pub fn ibuffer_instrs(&self) -> usize {
        debug_assert_eq!(
            self.buffered_instrs,
            self.ibuffer.iter().filter(|e| matches!(e, IBufEntry::Instr { .. })).count()
        );
        self.buffered_instrs
    }

    /// Appends `e` to the I-buffer.
    pub(crate) fn push_ibuffer(&mut self, e: IBufEntry) {
        self.buffered_instrs += usize::from(matches!(e, IBufEntry::Instr { .. }));
        self.ibuffer.push_back(e);
    }

    /// Removes the I-buffer's head.
    pub(crate) fn pop_ibuffer(&mut self) -> Option<IBufEntry> {
        let e = self.ibuffer.pop_front()?;
        self.buffered_instrs -= usize::from(matches!(e, IBufEntry::Instr { .. }));
        Some(e)
    }

    /// Flushes wrong-path entries: after reconvergence switched paths, the
    /// buffered entries no longer start at the warp's next PC. Empties the
    /// I-buffer and unblocks fetch; returns true when it flushed.
    #[inline]
    pub(crate) fn flush_wrong_path(&mut self) -> bool {
        let stale = matches!(
            (self.ibuffer.front(), self.next_pc()),
            (Some(e), Some(npc)) if e.pc() != npc
        );
        if stale {
            self.ibuffer.clear();
            self.buffered_instrs = 0;
            self.fetch_blocked = false;
        }
        stale
    }

    /// Advances the executing path past one sequential instruction.
    pub fn advance(&mut self) {
        if let Some(e) = self.stack.last_mut() {
            e.next_pc += 1;
        }
    }

    /// Pops reconverged paths: while the executing path has reached its
    /// reconvergence point, merge back. Returns true if anything popped.
    pub fn reconverge(&mut self) -> bool {
        let mut popped = false;
        while let Some(&StackEntry { next_pc, reconv, .. }) = self.stack.last() {
            if reconv != usize::MAX && next_pc == reconv {
                self.stack.pop();
                popped = true;
            } else {
                break;
            }
        }
        popped
    }

    /// Applies a resolved branch: `taken` is the lane mask (within the
    /// active mask) branching to `target`; `reconv` is the branch's
    /// reconvergence PC (`usize::MAX` if it reconverges at exit). The
    /// fall-through PC is `pc + 1`. Returns true when the warp diverged.
    ///
    /// # Panics
    ///
    /// Panics if called with an empty stack.
    pub fn take_branch(
        &mut self,
        pc: usize,
        target: usize,
        taken: LaneMask,
        reconv: usize,
    ) -> bool {
        let cur = self.stack.pop().expect("take_branch on a finished warp");
        debug_assert_eq!(cur.next_pc, pc + 1, "branch must be the current instruction");
        let not_taken = cur.mask & !taken;
        if taken == 0 {
            self.stack.push(StackEntry { next_pc: pc + 1, ..cur });
            false
        } else if not_taken == 0 {
            self.stack.push(StackEntry { next_pc: target, ..cur });
            false
        } else {
            // Diverged: continuation (if it reconverges before exit), then
            // the fall-through path, then the taken path on top.
            if reconv != usize::MAX {
                self.stack.push(StackEntry { next_pc: reconv, mask: cur.mask, reconv: cur.reconv });
            }
            self.stack.push(StackEntry { next_pc: pc + 1, mask: not_taken, reconv });
            self.stack.push(StackEntry { next_pc: target, mask: taken, reconv });
            true
        }
    }

    /// Executes `exit` for the current path: pops it. Returns true when
    /// the whole warp is done.
    pub fn exit_path(&mut self) -> bool {
        self.stack.pop();
        if self.stack.is_empty() {
            self.state = WarpState::Done;
            true
        } else {
            false
        }
    }

    // ----- register access -------------------------------------------------

    /// Reads one lane of a register.
    #[must_use]
    pub fn reg(&self, r: Reg, lane: u32) -> u32 {
        self.regs[r.index() * self.warp_size as usize + lane as usize]
    }

    /// Writes one lane of a register.
    pub fn set_reg(&mut self, r: Reg, lane: u32, v: u32) {
        self.regs[r.index() * self.warp_size as usize + lane as usize] = v;
    }

    /// Borrows the whole vector of a register, one word per lane.
    #[must_use]
    pub fn reg_row(&self, r: Reg) -> &[u32] {
        let w = self.warp_size as usize;
        &self.regs[r.index() * w..][..w]
    }

    /// Copies the whole vector of a register.
    #[must_use]
    pub fn reg_vector(&self, r: Reg) -> Vec<u32> {
        self.reg_row(r).to_vec()
    }

    /// Overwrites the whole vector of a register.
    ///
    /// # Panics
    ///
    /// Panics if `values` is not exactly one warp wide.
    pub fn set_reg_vector(&mut self, r: Reg, values: &[u32]) {
        let w = self.warp_size as usize;
        assert_eq!(values.len(), w);
        self.regs[r.index() * w..(r.index() + 1) * w].copy_from_slice(values);
    }

    /// Reads one lane of a predicate.
    #[must_use]
    pub fn pred(&self, p: Pred, lane: u32) -> bool {
        self.preds[p.index()] >> lane & 1 != 0
    }

    /// Writes one lane of a predicate.
    pub fn set_pred(&mut self, p: Pred, lane: u32, v: bool) {
        let bit = 1 << lane;
        let m = &mut self.preds[p.index()];
        *m = if v { *m | bit } else { *m & !bit };
    }

    // ----- scoreboard --------------------------------------------------------

    /// Marks a register write in flight.
    pub fn mark_pending(&mut self, r: Reg) {
        self.pending_regs[r.index() / 64] |= 1 << (r.index() % 64);
    }

    /// Clears an in-flight register write (writeback).
    pub fn clear_pending(&mut self, r: Reg) {
        self.pending_regs[r.index() / 64] &= !(1 << (r.index() % 64));
    }

    /// Marks a predicate write in flight.
    pub fn mark_pending_pred(&mut self, p: Pred) {
        self.pending_preds |= 1 << p.index();
    }

    /// Clears an in-flight predicate write.
    pub fn clear_pending_pred(&mut self, p: Pred) {
        self.pending_preds &= !(1 << p.index());
    }

    /// True when `r` has a write in flight.
    #[must_use]
    pub fn is_pending(&self, r: Reg) -> bool {
        self.pending_regs[r.index() / 64] & (1 << (r.index() % 64)) != 0
    }

    /// True when the scoreboard allows `instr` to issue: no source,
    /// destination or guard register has a write in flight (in-order
    /// issue with RAW/WAW/WAR protection).
    #[must_use]
    pub fn scoreboard_ready(&self, instr: &Instruction) -> bool {
        for r in instr.src_regs() {
            if self.is_pending(r) {
                return false;
            }
        }
        if let Some(d) = instr.dst {
            if self.is_pending(d) {
                return false;
            }
        }
        let pred_pending = |p: Pred| self.pending_preds & (1 << p.index()) != 0;
        !(instr.guard.is_some_and(|g| pred_pending(g.pred))
            || instr.pdst.is_some_and(pred_pending)
            || matches!(instr.op, simt_isa::Op::Sel(p) if pred_pending(p)))
    }

    /// Dynamic occurrences of `pc` this warp has completed (issued or
    /// applied as a skip marker), in program order.
    #[must_use]
    pub fn passes(&self, pc: usize) -> u32 {
        self.pass_counts.get(&pc).copied().unwrap_or(0)
    }

    /// Records one completed occurrence of `pc` (called at issue of the
    /// real instruction or at skip-marker application — *all* paths, so
    /// the count never drifts).
    pub fn record_pass(&mut self, pc: usize) -> u32 {
        let c = self.pass_counts.entry(pc).or_insert(0);
        *c += 1;
        *c
    }

    /// The occurrence number the *fetch frontier* is about to produce for
    /// `pc`: completed passes plus occurrences already buffered, plus one.
    #[must_use]
    pub fn frontier_instance(&self, pc: usize) -> u32 {
        let buffered = self.ibuffer.iter().filter(|e| e.pc() == pc).count() as u32;
        self.passes(pc) + buffered + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{CmpOp, Guard, Op, Operand};

    fn warp() -> Warp {
        Warp::new(0, 0, 0, 8, 32, u32::MAX, 0)
    }

    #[test]
    fn fresh_warp_is_converged_at_zero() {
        let w = warp();
        assert_eq!(w.next_pc(), Some(0));
        assert_eq!(w.active_mask(), u32::MAX);
        assert_eq!(w.state, WarpState::Ready);
    }

    #[test]
    fn uniform_branches_do_not_push() {
        let mut w = warp();
        w.advance(); // pretend the branch at pc 0 was consumed
        assert!(!w.take_branch(0, 5, u32::MAX, 3));
        assert_eq!(w.next_pc(), Some(5));
        assert_eq!(w.stack.len(), 1);

        let mut w2 = warp();
        w2.advance();
        assert!(!w2.take_branch(0, 5, 0, 3));
        assert_eq!(w2.next_pc(), Some(1));
    }

    #[test]
    fn divergence_pushes_both_paths_and_reconverges() {
        let mut w = warp();
        w.advance();
        let taken = 0x0000_FFFF;
        assert!(w.take_branch(0, 10, taken, 20));
        // Taken path first.
        assert_eq!(w.next_pc(), Some(10));
        assert_eq!(w.active_mask(), taken);
        // Simulate the taken path reaching the reconvergence point.
        w.stack.last_mut().unwrap().next_pc = 20;
        assert!(w.reconverge());
        // Now the fall-through path.
        assert_eq!(w.next_pc(), Some(1));
        assert_eq!(w.active_mask(), !taken);
        w.stack.last_mut().unwrap().next_pc = 20;
        assert!(w.reconverge());
        // Continuation: full mask at the join.
        assert_eq!(w.next_pc(), Some(20));
        assert_eq!(w.active_mask(), u32::MAX);
        assert_eq!(w.stack.len(), 1);
    }

    #[test]
    fn divergence_reconverging_at_exit_pops_via_exit() {
        let mut w = warp();
        w.advance();
        assert!(w.take_branch(0, 10, 0xFF, usize::MAX));
        assert_eq!(w.stack.len(), 2, "no continuation entry for exit reconvergence");
        assert!(!w.exit_path(), "taken path exits");
        assert_eq!(w.active_mask(), !0xFFu32);
        assert!(w.exit_path(), "fall-through path exits; warp done");
        assert_eq!(w.state, WarpState::Done);
    }

    #[test]
    fn nested_divergence() {
        let mut w = warp();
        w.advance();
        w.take_branch(0, 10, 0x0F, 30);
        // Inner divergence on the taken path (mask 0x0F).
        w.stack.last_mut().unwrap().next_pc = 12;
        w.take_branch(11, 15, 0x03, 20);
        assert_eq!(w.active_mask(), 0x03);
        w.stack.last_mut().unwrap().next_pc = 20;
        w.reconverge();
        assert_eq!(w.active_mask(), 0x0C, "inner else path");
        w.stack.last_mut().unwrap().next_pc = 20;
        w.reconverge();
        assert_eq!(w.active_mask(), 0x0F, "inner join");
        assert_eq!(w.next_pc(), Some(20));
    }

    #[test]
    fn scoreboard_blocks_raw_and_waw() {
        let mut w = warp();
        let add =
            Instruction::new(Op::IAdd, Some(Reg(2)), None, vec![Reg(1).into(), Operand::Imm(1)]);
        assert!(w.scoreboard_ready(&add));
        w.mark_pending(Reg(1));
        assert!(!w.scoreboard_ready(&add), "RAW");
        w.clear_pending(Reg(1));
        w.mark_pending(Reg(2));
        assert!(!w.scoreboard_ready(&add), "WAW");
        w.clear_pending(Reg(2));
        assert!(w.scoreboard_ready(&add));
    }

    #[test]
    fn scoreboard_blocks_on_guard_and_sel_predicates() {
        let mut w = warp();
        let guarded = Instruction::new(Op::Mov, Some(Reg(0)), None, vec![Operand::Imm(1)])
            .with_guard(Guard::if_true(Pred(2)));
        w.mark_pending_pred(Pred(2));
        assert!(!w.scoreboard_ready(&guarded));
        w.clear_pending_pred(Pred(2));
        assert!(w.scoreboard_ready(&guarded));

        let setp = Instruction::new(
            Op::Setp(CmpOp::Lt),
            None,
            Some(Pred(1)),
            vec![Reg(0).into(), Operand::Imm(4)],
        );
        w.mark_pending_pred(Pred(1));
        assert!(!w.scoreboard_ready(&setp), "pdst WAW");

        let sel = Instruction::new(
            Op::Sel(Pred(3)),
            Some(Reg(4)),
            None,
            vec![Reg(0).into(), Reg(1).into()],
        );
        w.mark_pending_pred(Pred(3));
        assert!(!w.scoreboard_ready(&sel), "sel reads its predicate");
    }

    #[test]
    fn register_vector_roundtrip() {
        let mut w = warp();
        let vals: Vec<u32> = (0..32).collect();
        w.set_reg_vector(Reg(3), &vals);
        assert_eq!(w.reg_vector(Reg(3)), vals);
        assert_eq!(w.reg(Reg(3), 7), 7);
        w.set_reg(Reg(3), 7, 99);
        assert_eq!(w.reg(Reg(3), 7), 99);
    }

    #[test]
    fn instance_counting() {
        let mut w = warp();
        assert_eq!(w.frontier_instance(8), 1);
        assert_eq!(w.record_pass(8), 1);
        assert_eq!(w.record_pass(8), 2);
        assert_eq!(w.frontier_instance(8), 3);
        assert_eq!(w.frontier_instance(16), 1, "independent per pc");
        // Buffered occurrences advance the frontier without a pass.
        w.push_ibuffer(IBufEntry::Instr { pc: 8, leader: None });
        assert_eq!(w.frontier_instance(8), 4);
        assert_eq!(w.passes(8), 2);
    }

    #[test]
    fn restart_returns_to_the_fresh_state() {
        let fresh = Warp::new(3, 1, 2, 8, 16, 0x0FFF, 9);
        let mut w = fresh.clone();
        w.set_reg(Reg(5), 7, 42);
        w.set_pred(Pred(1), 3, true);
        w.advance();
        w.take_branch(0, 6, 0x00F0, 4);
        w.push_ibuffer(IBufEntry::Ghost { pc: 6 });
        w.mark_pending(Reg(2));
        w.mark_pending_pred(Pred(0));
        w.record_pass(6);
        w.state = WarpState::AtBarrier;
        (w.fetch_ready_at, w.fetch_blocked, w.bb_pending, w.leader_stall) = (5, true, true, 2);
        w.scoreboard_stall = Some(6);
        w.restart();
        assert_eq!(format!("{w:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn fetch_pc_runs_ahead_of_issue_pc() {
        let mut w = warp();
        assert_eq!(w.fetch_pc(), Some(0));
        w.push_ibuffer(IBufEntry::Instr { pc: 0, leader: None });
        assert_eq!(w.fetch_pc(), Some(1));
        w.push_ibuffer(IBufEntry::SkipMarker {
            pc: 1,
            dst: Reg(0),
            values: vec![0; 32].into_boxed_slice(),
        });
        assert_eq!(w.fetch_pc(), Some(2));
        assert_eq!(w.ibuffer_instrs(), 1, "markers do not occupy real slots");
        assert_eq!(w.next_pc(), Some(0), "issue PC unchanged");
    }
}
