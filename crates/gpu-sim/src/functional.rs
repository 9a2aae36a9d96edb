//! Headless, timing-free execution of one threadblock through the
//! functional executor (`exec.rs`).
//!
//! This is the shared substrate for every value-level oracle in the
//! workspace: the redundancy tracer (`tracer.rs`) and the marking
//! soundness sanitizer in `simt-verify` both drive it with their own
//! [`FunctionalObserver`]. Warps are stepped round-robin with correct
//! barrier semantics (a `bar.sync` parks the warp until every non-exited
//! warp of the TB arrives), SIMT-stack divergence and reconvergence, but
//! no pipeline model — one instruction per warp per scheduling pass.

use crate::exec::{execute, ExecContext, ExecEffect};
use crate::fasthash::FastMap;
use crate::mem::{GlobalMemory, PAGE_WORDS};
use crate::warp::{Warp, WarpState};
use simt_compiler::CompiledKernel;
use simt_isa::{AtomOp, Dim3, Instruction, Kernel, LaunchConfig, MemSpace, Op};
use std::collections::HashSet;

/// Hooks invoked around every dynamic warp instruction of a headless run.
///
/// `occurrence` is the 1-based dynamic execution count of `pc` *within
/// the observed warp* — the DARSIE instance number used to align the same
/// dynamic occurrence across warps of a TB.
pub trait FunctionalObserver {
    /// Called before `instr` executes: the warp still holds its
    /// pre-execution register state and the active mask of the issuing
    /// path (the warp has not advanced past `pc` yet).
    fn before_instruction(
        &mut self,
        _warp_index: usize,
        _pc: usize,
        _occurrence: u32,
        _instr: &Instruction,
        _warp: &Warp,
    ) {
    }

    /// Called after `instr` executed, with destination registers /
    /// predicates updated. Branch, barrier and exit control effects are
    /// applied to the warp *after* this hook returns.
    fn after_instruction(
        &mut self,
        _warp_index: usize,
        _pc: usize,
        _occurrence: u32,
        _instr: &Instruction,
        _warp: &Warp,
    ) {
    }

    /// Called for every shared-memory access with the per-lane `(lane,
    /// byte address)` pairs of the participating lanes. Fires between
    /// `before_instruction` and `after_instruction`.
    fn shared_access(
        &mut self,
        _warp_index: usize,
        _pc: usize,
        _occurrence: u32,
        _addrs: &[(u32, u64)],
        _is_store: bool,
    ) {
    }

    /// Called for every global-memory access with the per-lane `(lane,
    /// byte address)` pairs of the participating lanes. Fires between
    /// `before_instruction` and `after_instruction`. Atomics arrive with
    /// both `is_store` and `is_atomic` set.
    fn global_access(
        &mut self,
        _warp_index: usize,
        _pc: usize,
        _occurrence: u32,
        _addrs: &[(u32, u64)],
        _is_store: bool,
        _is_atomic: bool,
    ) {
    }

    /// Called when a TB-wide barrier releases: every live warp arrived
    /// and is about to resume. Delimits the barrier epochs of the run.
    fn barrier_release(&mut self) {}
}

/// Observer that records nothing (plain functional execution).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl FunctionalObserver for NullObserver {}

/// The `i`-th threadblock of a grid in row-major (x fastest) launch order.
#[must_use]
pub fn ctaid_at(grid: Dim3, i: u64) -> Dim3 {
    Dim3::three_d(
        (i % u64::from(grid.x)) as u32,
        ((i / u64::from(grid.x)) % u64::from(grid.y)) as u32,
        (i / (u64::from(grid.x) * u64::from(grid.y))) as u32,
    )
}

/// Runs one threadblock to completion, invoking `observer` around every
/// dynamic warp instruction. Global memory effects are applied to
/// `global`; shared memory is private to the TB and dropped afterwards.
pub fn run_tb_functional<O: FunctionalObserver>(
    ck: &CompiledKernel,
    launch: &LaunchConfig,
    ctaid: Dim3,
    global: &mut GlobalMemory,
    observer: &mut O,
) {
    let ws = launch.warp_size;
    let threads = launch.threads_per_block();
    let num_warps = launch.warps_per_block() as usize;
    let mut shared = vec![0u32; (ck.kernel.shared_mem_bytes as usize).div_ceil(4)];
    let mut warps: Vec<Warp> = (0..num_warps)
        .map(|w| {
            let lanes = threads.saturating_sub(w as u32 * ws).min(ws);
            let full = if lanes >= 32 { u32::MAX } else { (1u32 << lanes) - 1 };
            Warp::new(w, 0, w as u32, ck.kernel.num_regs, ws, full, w as u64)
        })
        .collect();
    // occurrences[w * n + pc]: how often warp `w` has executed `pc`.
    let n = ck.kernel.instrs.len();
    let mut occurrences = vec![0u32; num_warps * n];
    let mut at_barrier = vec![false; num_warps];

    loop {
        let mut progressed = false;
        for w in 0..num_warps {
            if warps[w].state == WarpState::Done || at_barrier[w] {
                continue;
            }
            let Some(pc) = warps[w].next_pc() else {
                warps[w].state = WarpState::Done;
                continue;
            };
            let instr = &ck.kernel.instrs[pc];
            let o = &mut occurrences[w * n + pc];
            *o += 1;
            let occurrence = *o;

            observer.before_instruction(w, pc, occurrence, instr, &warps[w]);

            warps[w].advance();
            let effect = {
                let mut ctx = ExecContext {
                    global,
                    shared: &mut shared,
                    params: &launch.params,
                    grid: launch.grid,
                    block: launch.block,
                    ctaid,
                };
                execute(&mut warps[w], instr, &mut ctx)
            };
            progressed = true;

            if let ExecEffect::Memory { space, addrs, is_store, is_atomic } = &effect {
                match space {
                    MemSpace::Shared => {
                        observer.shared_access(w, pc, occurrence, addrs, *is_store);
                    }
                    MemSpace::Global => {
                        observer.global_access(w, pc, occurrence, addrs, *is_store, *is_atomic);
                    }
                    MemSpace::Param => {}
                }
            }

            observer.after_instruction(w, pc, occurrence, instr, &warps[w]);

            match effect {
                ExecEffect::Branch { taken, target } => {
                    let reconv = ck.recon.recon[pc].unwrap_or(usize::MAX);
                    warps[w].take_branch(pc, target, taken, reconv);
                    warps[w].reconverge();
                }
                ExecEffect::Barrier => {
                    at_barrier[w] = true;
                    warps[w].reconverge();
                }
                ExecEffect::Exit => {
                    if warps[w].exit_path() {
                        warps[w].state = WarpState::Done;
                    }
                    warps[w].reconverge();
                }
                _ => {
                    warps[w].reconverge();
                }
            }
        }
        // Barrier release: once every live warp is parked, open the gate.
        let all_blocked_or_done =
            warps.iter().enumerate().all(|(i, w)| w.state == WarpState::Done || at_barrier[i]);
        if all_blocked_or_done {
            if warps.iter().all(|w| w.state == WarpState::Done) {
                break;
            }
            observer.barrier_release();
            at_barrier.fill(false);
        }
        if !progressed && !at_barrier.iter().any(|&b| b) {
            break;
        }
    }
}

/// One shared-memory race observed during functional replay: two threads
/// touched the same shared word in the same barrier epoch, at least one
/// of them writing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedRace {
    /// Static pc of the earlier access of the pair.
    pub first_pc: usize,
    /// Linear thread id of the earlier access.
    pub first_thread: u32,
    /// Static pc of the later (conflicting) access.
    pub second_pc: usize,
    /// Linear thread id of the later access.
    pub second_thread: u32,
    /// Shared word index (byte address / 4) the pair collided on.
    pub word: u64,
    /// True for write/write, false for read/write.
    pub write_write: bool,
}

/// Per-word shadow cell: the epoch's last write plus a two-point summary
/// of the epoch's readers. Tracking only the minimum and maximum reader
/// thread is enough to answer "did any thread other than the writer read
/// this word?" without storing every reader.
#[derive(Debug, Clone, Copy, Default)]
struct ShadowCell {
    /// `(epoch, thread, pc)` of the last write.
    write: Option<(u32, u32, usize)>,
    /// Epoch the reader summary belongs to.
    read_epoch: u32,
    /// `(thread, pc)` of the lowest-numbered reader this epoch.
    min_reader: Option<(u32, usize)>,
    /// `(thread, pc)` of the highest-numbered reader this epoch.
    max_reader: Option<(u32, usize)>,
}

/// Shadow-memory race sanitizer for one threadblock's functional replay.
///
/// The dynamic half of the shared-memory race detector: where the static
/// pass (`simt-verify`'s `races` module) cannot classify an address as
/// thread-affine, this observer still reports precise races — offending
/// pcs, thread ids and the shared word — for the interleaving the
/// round-robin replay actually executes. Epochs advance on every TB-wide
/// barrier release; within an epoch, warp scheduling order is not a
/// happens-before order, so any cross-thread write/write or read/write
/// pair on one word is a race. Raced-on words stay *tainted* for the rest
/// of the run so redundancy claims depending on them can be downgraded.
#[derive(Debug, Default)]
pub struct RaceSanitizer {
    warp_size: u32,
    epoch: u32,
    /// Probed per lane, never iterated.
    cells: FastMap<u64, ShadowCell>,
    tainted: HashSet<u64>,
    races: Vec<SharedRace>,
    reported: HashSet<(usize, usize)>,
}

impl RaceSanitizer {
    /// Sanitizer for a TB whose warps are `warp_size` lanes wide.
    #[must_use]
    pub fn new(warp_size: u32) -> RaceSanitizer {
        RaceSanitizer { warp_size, ..RaceSanitizer::default() }
    }

    /// All races observed so far, in detection order (one per static
    /// `(pc, pc)` pair).
    #[must_use]
    pub fn races(&self) -> &[SharedRace] {
        &self.races
    }

    /// True when some race touched `word` at any point of the run.
    #[must_use]
    pub fn is_tainted(&self, word: u64) -> bool {
        self.tainted.contains(&word)
    }

    /// Shared word indices touched by any observed race.
    #[must_use]
    pub fn tainted_words(&self) -> &HashSet<u64> {
        &self.tainted
    }

    fn report(&mut self, race: SharedRace) {
        self.tainted.insert(race.word);
        let key = (race.first_pc.min(race.second_pc), race.first_pc.max(race.second_pc));
        if self.reported.insert(key) {
            self.races.push(race);
        }
    }

    fn record_access(
        &mut self,
        warp_index: usize,
        pc: usize,
        addrs: &[(u32, u64)],
        is_store: bool,
    ) {
        for &(lane, addr) in addrs {
            let thread = warp_index as u32 * self.warp_size + lane;
            let word = addr / 4;
            // One probe per lane: update the cell in place, then judge the
            // access against its state from before the update.
            let cell = self.cells.entry(word).or_default();
            let seen = *cell;
            if is_store {
                cell.write = Some((self.epoch, thread, pc));
            } else {
                if cell.read_epoch != self.epoch {
                    cell.read_epoch = self.epoch;
                    cell.min_reader = None;
                    cell.max_reader = None;
                }
                match cell.min_reader {
                    Some((t, _)) if t <= thread => {}
                    _ => cell.min_reader = Some((thread, pc)),
                }
                match cell.max_reader {
                    Some((t, _)) if t >= thread => {}
                    _ => cell.max_reader = Some((thread, pc)),
                }
            }
            if let Some((we, wt, wpc)) = seen.write {
                if we == self.epoch && wt != thread {
                    self.report(SharedRace {
                        first_pc: wpc,
                        first_thread: wt,
                        second_pc: pc,
                        second_thread: thread,
                        word,
                        write_write: is_store,
                    });
                }
            }
            if is_store && seen.read_epoch == self.epoch {
                let other = [seen.min_reader, seen.max_reader]
                    .into_iter()
                    .flatten()
                    .find(|&(t, _)| t != thread);
                if let Some((rt, rpc)) = other {
                    self.report(SharedRace {
                        first_pc: rpc,
                        first_thread: rt,
                        second_pc: pc,
                        second_thread: thread,
                        word,
                        write_write: false,
                    });
                }
            }
        }
    }
}

impl FunctionalObserver for RaceSanitizer {
    fn shared_access(
        &mut self,
        warp_index: usize,
        pc: usize,
        _occurrence: u32,
        addrs: &[(u32, u64)],
        is_store: bool,
    ) {
        self.record_access(warp_index, pc, addrs, is_store);
    }

    fn barrier_release(&mut self) {
        self.epoch += 1;
    }
}

/// One inter-thread-block global-memory race observed during replay: two
/// distinct blocks touched the same global word within one kernel
/// launch, in a combination whose result depends on block order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalRace {
    /// Static pc of the earlier access of the pair.
    pub first_pc: usize,
    /// Linear block index of the earlier access.
    pub first_block: u64,
    /// Static pc of the later (conflicting) access.
    pub second_pc: usize,
    /// Linear block index of the later access.
    pub second_block: u64,
    /// Global word index (byte address / 4) the pair collided on.
    pub word: u64,
    /// True for write/write, false for read/write.
    pub write_write: bool,
}

/// Per-word shadow cell at block granularity: the launch's last write
/// plus a two-point summary of the reading blocks. Minimum and maximum
/// reader block suffice to answer "did any block other than the writer
/// read this word?" without storing every reader.
#[derive(Debug, Clone, Copy, Default)]
struct GlobalShadowCell {
    /// `(block, pc, atomic op)` of the last write; the op is `None` for
    /// a plain store.
    write: Option<(u64, usize, Option<AtomOp>)>,
    /// `(block, pc)` of the lowest-numbered reading block.
    min_reader: Option<(u64, usize)>,
    /// `(block, pc)` of the highest-numbered reading block.
    max_reader: Option<(u64, usize)>,
}

/// Shadow-memory sanitizer for *inter-thread-block* global races across
/// one kernel launch.
///
/// The dynamic half of the block-independence certifier (`simt-verify`'s
/// `blocks` module): the whole launch is a single epoch — blocks of one
/// launch have no synchronization between them, so any cross-block
/// write/write or read/write pair on one global word is a race. The one
/// exemption mirrors the static side exactly: two *same-op commutative*
/// atomics (`add`/`add`, `max`/`max`, `min`/`min`) leave the final
/// memory value order-independent. Mixed commutative ops (`add` vs
/// `max`) do not commute with each other, and `exch` is last-writer-wins
/// — both stay plain write hazards. The caller reports each write's
/// [`AtomOp`] (or `None` for a plain store) via
/// [`record_access`](GlobalRaceSanitizer::record_access).
///
/// Built with [`for_kernel`](GlobalRaceSanitizer::for_kernel), it is the
/// replay's [`FunctionalObserver`]: it reads each pc's atomic op from the
/// kernel. Call [`set_block`](GlobalRaceSanitizer::set_block) before
/// replaying each threadblock. Raced-on words stay *tainted* for the rest
/// of the launch so redundancy claims that read them can be downgraded.
#[derive(Debug, Default)]
pub struct GlobalRaceSanitizer {
    block: u64,
    /// `atoms[pc]`: the kernel's atomic op at `pc`, `None` elsewhere;
    /// empty for a [`new`](GlobalRaceSanitizer::new) sanitizer.
    atoms: Vec<Option<AtomOp>>,
    /// Shadow pages mirroring [`GlobalMemory`]'s: one cell per word,
    /// probed per lane, never iterated.
    cells: FastMap<u64, Box<[GlobalShadowCell]>>,
    tainted: HashSet<u64>,
    races: Vec<GlobalRace>,
    reported: HashSet<(usize, usize)>,
    commutative_overlap: bool,
}

impl GlobalRaceSanitizer {
    /// Fresh sanitizer for one kernel launch, driven through
    /// [`record_access`](GlobalRaceSanitizer::record_access).
    #[must_use]
    pub fn new() -> GlobalRaceSanitizer {
        GlobalRaceSanitizer::default()
    }

    /// Fresh sanitizer for one launch of `kernel`, ready to observe its
    /// functional replay.
    #[must_use]
    pub fn for_kernel(kernel: &Kernel) -> GlobalRaceSanitizer {
        let atoms = kernel
            .instrs
            .iter()
            .map(|i| if let Op::Atom(aop) = i.op { Some(aop) } else { None })
            .collect();
        GlobalRaceSanitizer { atoms, ..GlobalRaceSanitizer::default() }
    }

    /// Declares the linear block index about to be replayed.
    pub fn set_block(&mut self, block: u64) {
        self.block = block;
    }

    /// All inter-block races observed so far, in detection order (one
    /// per static `(pc, pc)` pair).
    #[must_use]
    pub fn races(&self) -> &[GlobalRace] {
        &self.races
    }

    /// True when some inter-block race touched `word`.
    #[must_use]
    pub fn is_tainted(&self, word: u64) -> bool {
        self.tainted.contains(&word)
    }

    /// Global word indices touched by any observed inter-block race.
    #[must_use]
    pub fn tainted_words(&self) -> &HashSet<u64> {
        &self.tainted
    }

    /// True when two distinct blocks collided on one word through the
    /// commuting-atomic exemption (no race, but the blocks do share
    /// memory, so the launch is at best commutative-atomics-only).
    #[must_use]
    pub fn commutative_overlap(&self) -> bool {
        self.commutative_overlap
    }

    fn report(&mut self, race: GlobalRace) {
        self.tainted.insert(race.word);
        let key = (race.first_pc.min(race.second_pc), race.first_pc.max(race.second_pc));
        if self.reported.insert(key) {
            self.races.push(race);
        }
    }

    /// Records one global access of the current block. `atom` is the
    /// access's atomic op (`None` for a plain load or store): only two
    /// writes with the *same* commutative op (`add`/`max`/`min`, not
    /// `exch`) may collide across blocks without a race.
    pub fn record_access(
        &mut self,
        pc: usize,
        addrs: &[(u32, u64)],
        is_store: bool,
        atom: Option<AtomOp>,
    ) {
        let block = self.block;
        for &(_lane, addr) in addrs {
            let word = addr / 4;
            // One probe per lane: update the cell in place, then judge the
            // access against its state from before the update.
            let page = self.cells.entry(word / PAGE_WORDS as u64).or_insert_with(|| {
                vec![GlobalShadowCell::default(); PAGE_WORDS].into_boxed_slice()
            });
            let cell = &mut page[(word % PAGE_WORDS as u64) as usize];
            let seen = *cell;
            if is_store {
                cell.write = Some((block, pc, atom));
            } else {
                match cell.min_reader {
                    Some((b, _)) if b <= block => {}
                    _ => cell.min_reader = Some((block, pc)),
                }
                match cell.max_reader {
                    Some((b, _)) if b >= block => {}
                    _ => cell.max_reader = Some((block, pc)),
                }
            }
            if let Some((wb, wpc, watom)) = seen.write.filter(|&(wb, _, _)| wb != block) {
                // Only two writes with the same commuting op may collide;
                // a plain read of a word another block wrote — even
                // atomically — observes an order-dependent value.
                let same_commuting = is_store
                    && matches!((atom, watom), (Some(x), Some(y)) if x == y && x != AtomOp::Exch);
                if same_commuting {
                    self.commutative_overlap = true;
                } else {
                    self.report(GlobalRace {
                        first_pc: wpc,
                        first_block: wb,
                        second_pc: pc,
                        second_block: block,
                        word,
                        write_write: is_store,
                    });
                }
            }
            if is_store {
                let other = [seen.min_reader, seen.max_reader]
                    .into_iter()
                    .flatten()
                    .find(|&(b, _)| b != block);
                if let Some((rb, rpc)) = other {
                    self.report(GlobalRace {
                        first_pc: rpc,
                        first_block: rb,
                        second_pc: pc,
                        second_block: block,
                        word,
                        write_write: false,
                    });
                }
            }
        }
    }
}

impl FunctionalObserver for GlobalRaceSanitizer {
    fn global_access(
        &mut self,
        _warp_index: usize,
        pc: usize,
        _occurrence: u32,
        addrs: &[(u32, u64)],
        is_store: bool,
        is_atomic: bool,
    ) {
        let atom = if is_atomic { self.atoms[pc] } else { None };
        self.record_access(pc, addrs, is_store, atom);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{KernelBuilder, LaunchConfig, MemSpace, SpecialReg, Value};

    /// Counting observer: every before has a matching after, occurrences
    /// are 1-based and contiguous per (warp, pc).
    #[derive(Default)]
    struct Counter {
        before: u64,
        after: u64,
        max_occurrence: u32,
    }

    impl FunctionalObserver for Counter {
        fn before_instruction(
            &mut self,
            _w: usize,
            _pc: usize,
            occ: u32,
            _i: &Instruction,
            _warp: &Warp,
        ) {
            self.before += 1;
            self.max_occurrence = self.max_occurrence.max(occ);
        }
        fn after_instruction(
            &mut self,
            _w: usize,
            _pc: usize,
            _occ: u32,
            _i: &Instruction,
            _warp: &Warp,
        ) {
            self.after += 1;
        }
    }

    #[test]
    fn observer_sees_every_instruction_once() {
        let mut b = KernelBuilder::new("obs");
        let t = b.special(SpecialReg::TidX);
        let out = b.param(0);
        let off = b.shl_imm(t, 2);
        let addr = b.iadd(out, off);
        b.store(MemSpace::Global, addr, t, 0);
        let ck = simt_compiler::compile(b.finish());

        let mut mem = GlobalMemory::new();
        let buf = mem.alloc(64 * 4);
        let launch = LaunchConfig::new(1u32, Dim3::one_d(64)).with_params(vec![Value(buf as u32)]);
        let mut obs = Counter::default();
        run_tb_functional(&ck, &launch, Dim3::three_d(0, 0, 0), &mut mem, &mut obs);
        assert_eq!(obs.before, obs.after);
        // 2 warps x 6 instructions (incl. exit), straight-line code.
        assert_eq!(obs.before, 2 * ck.kernel.instrs.len() as u64);
        assert_eq!(obs.max_occurrence, 1);
        // The store really happened.
        assert_eq!(mem.read_u32(buf + 4 * 63), 63);
    }

    #[test]
    fn global_sanitizer_exempts_only_same_op_commutative_atomics() {
        // Same-op commutative collision (add/add) across blocks: no
        // race, but the overlap is recorded.
        let mut s = GlobalRaceSanitizer::new();
        s.set_block(0);
        s.record_access(0, &[(0, 64)], true, Some(AtomOp::Add));
        s.set_block(1);
        s.record_access(1, &[(0, 64)], true, Some(AtomOp::Add));
        assert!(s.races().is_empty());
        assert!(s.commutative_overlap());

        // Mixed commutative ops (add vs max) do not commute with each
        // other: the final value is block-order-dependent, so this is a
        // race even though each op commutes with itself.
        let mut s = GlobalRaceSanitizer::new();
        s.set_block(0);
        s.record_access(0, &[(0, 64)], true, Some(AtomOp::Add));
        s.set_block(1);
        s.record_access(1, &[(0, 64)], true, Some(AtomOp::Max));
        assert_eq!(s.races().len(), 1);
        assert!(!s.commutative_overlap());
        assert!(s.is_tainted(16));

        // exch/exch is last-writer-wins: a plain write/write hazard.
        let mut s = GlobalRaceSanitizer::new();
        s.set_block(0);
        s.record_access(0, &[(0, 64)], true, Some(AtomOp::Exch));
        s.set_block(1);
        s.record_access(1, &[(0, 64)], true, Some(AtomOp::Exch));
        assert_eq!(s.races().len(), 1);

        // Atomic against a plain store is never exempt.
        let mut s = GlobalRaceSanitizer::new();
        s.set_block(0);
        s.record_access(0, &[(0, 64)], true, Some(AtomOp::Add));
        s.set_block(1);
        s.record_access(1, &[(0, 64)], true, None);
        assert_eq!(s.races().len(), 1);
    }

    #[test]
    fn ctaid_enumeration_is_row_major() {
        let grid = Dim3::three_d(2, 3, 2);
        assert_eq!(ctaid_at(grid, 0), Dim3::three_d(0, 0, 0));
        assert_eq!(ctaid_at(grid, 1), Dim3::three_d(1, 0, 0));
        assert_eq!(ctaid_at(grid, 2), Dim3::three_d(0, 1, 0));
        assert_eq!(ctaid_at(grid, 6), Dim3::three_d(0, 0, 1));
        assert_eq!(ctaid_at(grid, 11), Dim3::three_d(1, 2, 1));
    }
}
