//! Headless, timing-free execution of threadblocks through the
//! functional executor (`exec.rs`).
//!
//! This is the shared substrate for every dynamic check in the
//! workspace: the redundancy tracer (`tracer.rs`) and the marking oracle
//! and block-independence certifier in `simt-verify` each implement
//! [`FunctionalObserver`] and call [`replay_grid`], the one loop over a
//! launch's blocks, which brackets each block with the observer's
//! `begin_block`/`end_block` hooks. Warps are stepped round-robin with
//! correct barrier semantics (a `bar.sync` parks the warp until every
//! non-exited warp of the TB arrives), SIMT-stack divergence and
//! reconvergence, but no pipeline model — one instruction per warp per
//! scheduling pass.
//!
//! Both oracles group values the way DARSIE shares them, through the one
//! [`OccurrenceGroups`] recorder: warp 0 leads each `(pc, occurrence)`,
//! and a follower is compared with the leader's value as it arrives.

use crate::exec::{execute, ExecContext, ExecEffect, LaneAddrs};
use crate::fasthash::{FastMap, FastSet};
use crate::mem::{GlobalMemory, PAGE_WORDS};
use crate::warp::{Warp, WarpState};
use simt_compiler::CompiledKernel;
use simt_isa::{AtomOp, Dim3, Instruction, Kernel, LaunchConfig, MemSpace, Op};
use std::borrow::Borrow;

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

    /// Called for every shared-memory access with the byte addresses of
    /// the participating lanes ([`LaneAddrs::iter`] yields them as
    /// `(lane, byte address)` in ascending lane order). Fires between
    /// `before_instruction` and `after_instruction`. The addresses are
    /// borrowed from the executor's effect, so an observer that ignores
    /// the access pays nothing for it.
    fn shared_access(
        &mut self,
        _warp_index: usize,
        _pc: usize,
        _occurrence: u32,
        _addrs: &LaneAddrs,
        _is_store: bool,
    ) {
    }

    /// Called for every global-memory access with the byte addresses of
    /// the participating lanes, as for
    /// [`shared_access`](FunctionalObserver::shared_access). Fires
    /// between `before_instruction` and `after_instruction`. Atomics
    /// arrive with both `is_store` and `is_atomic` set.
    fn global_access(
        &mut self,
        _warp_index: usize,
        _pc: usize,
        _occurrence: u32,
        _addrs: &LaneAddrs,
        _is_store: bool,
        _is_atomic: bool,
    ) {
    }

    /// Called when a TB-wide barrier releases: every live warp arrived
    /// and is about to resume. Delimits the barrier epochs of the run.
    fn barrier_release(&mut self) {}

    /// Called by [`replay_grid`] before block `block` (its linear index)
    /// at `ctaid` runs.
    fn begin_block(&mut self, _block: u64, _ctaid: Dim3) {}

    /// Called by [`replay_grid`] after block `block` at `ctaid` ran.
    fn end_block(&mut self, _block: u64, _ctaid: Dim3) {}
}

/// Writes each hook of the `(A, B)` observer: `A`'s, then `B`'s.
macro_rules! forward_to_both {
    ($($hook:ident($($arg:ident: $ty:ty),*);)*) => {$(
        fn $hook(&mut self, $($arg: $ty),*) {
            self.0.$hook($($arg),*);
            self.1.$hook($($arg),*);
        }
    )*};
}

/// Two observers on one replay: every hook reaches `A`, then `B`.
impl<A: FunctionalObserver, B: FunctionalObserver> FunctionalObserver for (A, B) {
    forward_to_both! {
        before_instruction(w: usize, pc: usize, occ: u32, instr: &Instruction, warp: &Warp);
        after_instruction(w: usize, pc: usize, occ: u32, instr: &Instruction, warp: &Warp);
        shared_access(w: usize, pc: usize, occ: u32, addrs: &LaneAddrs, store: bool);
        global_access(w: usize, pc: usize, occ: u32, addrs: &LaneAddrs, store: bool, atomic: bool);
        barrier_release();
        begin_block(block: u64, ctaid: Dim3);
        end_block(block: u64, ctaid: Dim3);
    }
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

/// Replays every threadblock of `launch` in [`ctaid_at`] order, as a real
/// launch would evolve `global`, between `observer`'s
/// [`begin_block`](FunctionalObserver::begin_block) and
/// [`end_block`](FunctionalObserver::end_block) for each block. The
/// blocks share one scratch state (warps, shared memory, occurrence
/// counters), reset in place between them and dropped with the launch.
pub fn replay_grid<O: FunctionalObserver>(
    ck: &CompiledKernel,
    launch: &LaunchConfig,
    global: &mut GlobalMemory,
    observer: &mut O,
) {
    let mut scratch = TbScratch::new(ck, launch);
    for block in 0..launch.num_blocks() {
        let ctaid = ctaid_at(launch.grid, block);
        observer.begin_block(block, ctaid);
        if block > 0 {
            scratch.reset();
        }
        run_tb(ck, launch, ctaid, global, observer, &mut scratch);
        observer.end_block(block, ctaid);
    }
}

/// Runs one threadblock to completion, invoking `observer` around every
/// dynamic warp instruction. Global memory effects are applied to
/// `global`; shared memory is private to the TB and dropped afterwards.
/// Its block hooks are [`replay_grid`]'s to call.
pub fn run_tb_functional<O: FunctionalObserver>(
    ck: &CompiledKernel,
    launch: &LaunchConfig,
    ctaid: Dim3,
    global: &mut GlobalMemory,
    observer: &mut O,
) {
    run_tb(ck, launch, ctaid, global, observer, &mut TbScratch::new(ck, launch));
}

/// The state of one threadblock's replay: its warps, shared memory,
/// occurrence counters, barrier flags and the executor's lane-address
/// buffer. [`replay_grid`] resets one scratch in place for each block of
/// a launch instead of allocating it per block.
struct TbScratch {
    warps: Vec<Warp>,
    shared: Vec<u32>,
    /// `occurrences[w * instrs + pc]`: how often warp `w` has executed
    /// `pc`.
    occurrences: Vec<u32>,
    at_barrier: Vec<bool>,
    addrs: LaneAddrs,
}

impl TbScratch {
    /// The state of a block of `launch` before its first instruction.
    fn new(ck: &CompiledKernel, launch: &LaunchConfig) -> TbScratch {
        let num_warps = launch.warps_per_block() as usize;
        TbScratch {
            warps: (0..num_warps)
                .map(|w| Warp::in_block(w, 0, w as u32, ck.kernel.num_regs, launch, w as u64))
                .collect(),
            shared: vec![0; (ck.kernel.shared_mem_bytes as usize).div_ceil(4)],
            occurrences: vec![0; num_warps * ck.kernel.instrs.len()],
            at_barrier: vec![false; num_warps],
            addrs: LaneAddrs::default(),
        }
    }

    /// Returns to the state [`new`](TbScratch::new) built, keeping every
    /// allocation. The lane-address buffer needs no reset: an instruction
    /// writes it before its memory hook reads it.
    fn reset(&mut self) {
        self.warps.iter_mut().for_each(Warp::restart);
        self.shared.fill(0);
        self.occurrences.fill(0);
        self.at_barrier.fill(false);
    }
}

/// Runs the block at `ctaid` on `scratch`, which holds a block's state
/// before its first instruction, until every warp is done.
fn run_tb<O: FunctionalObserver>(
    ck: &CompiledKernel,
    launch: &LaunchConfig,
    ctaid: Dim3,
    global: &mut GlobalMemory,
    observer: &mut O,
    scratch: &mut TbScratch,
) {
    let TbScratch { warps, shared, occurrences, at_barrier, addrs } = scratch;
    let mut ctx = ExecContext::new(global, shared, launch, ctaid, addrs);
    let n = ck.kernel.instrs.len();
    loop {
        let mut progressed = false;
        for (w, warp) in warps.iter_mut().enumerate() {
            if warp.state == WarpState::Done || at_barrier[w] {
                continue;
            }
            let Some(pc) = warp.next_pc() else {
                warp.state = WarpState::Done;
                continue;
            };
            let instr = &ck.kernel.instrs[pc];
            let o = &mut occurrences[w * n + pc];
            *o += 1;
            let occurrence = *o;

            observer.before_instruction(w, pc, occurrence, instr, warp);

            warp.advance();
            let effect = execute(warp, instr, &mut ctx);
            progressed = true;

            if let ExecEffect::Memory { space, is_store, is_atomic } = effect {
                let addrs = &*ctx.addrs;
                match space {
                    MemSpace::Shared => observer.shared_access(w, pc, occurrence, addrs, is_store),
                    MemSpace::Global => {
                        observer.global_access(w, pc, occurrence, addrs, is_store, is_atomic);
                    }
                    MemSpace::Param => {}
                }
            }

            observer.after_instruction(w, pc, occurrence, instr, warp);

            match effect {
                ExecEffect::Branch { taken, target } => {
                    let reconv = ck.recon.get(pc).unwrap_or(usize::MAX);
                    warp.take_branch(pc, target, taken, reconv);
                }
                ExecEffect::Barrier => at_barrier[w] = true,
                // Marks the warp done when its last path exits.
                ExecEffect::Exit => _ = warp.exit_path(),
                _ => {}
            }
            warp.reconverge();
        }
        // Barrier release: once every live warp is parked, open the gate.
        let all_blocked_or_done =
            warps.iter().zip(at_barrier.iter()).all(|(w, &b)| w.state == WarpState::Done || b);
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

/// One aligned `(pc, occurrence)` of a threadblock's replay, as
/// [`OccurrenceGroups::finish`] yields it.
#[derive(Debug, PartialEq, Eq)]
pub struct OccurrenceGroup<V> {
    /// Leader warp 0's value.
    pub leader: V,
    /// How many follower warps produced a different value.
    pub mismatches: u64,
    /// The lowest-numbered mismatching follower and its value.
    pub first_mismatch: Option<(usize, V)>,
}

/// A `(pc, occurrence)` while its TB runs: how many warps ran it under
/// their full mask, the followers that came before the leader, and the
/// group once the leader came.
#[derive(Debug)]
struct Slot<V> {
    arrived: usize,
    early: Vec<(usize, V)>,
    group: Option<OccurrenceGroup<V>>,
}

/// The aligned-group rule of one threadblock's replay, written once for
/// every value oracle: a `(pc, occurrence)` forms a sharing group when
/// every warp of the TB ran it, each under its full lane mask
/// ([`Warp::fully_active`]) — the only case in which DARSIE's followers
/// read the leader's result.
///
/// The recorder keeps what the hardware keeps: warp 0's value once per
/// occurrence, with each follower compared as it arrives. Only followers
/// that arrive before warp 0 are buffered (under divergence the
/// round-robin replay can let warp 1 reach a pc first). A partial-mask
/// arrival drops the occurrence's values for good. A caller that records
/// a pc records every occurrence of it.
#[derive(Debug)]
pub struct OccurrenceGroups<T: ToOwned + ?Sized> {
    warps: usize,
    /// `slots[pc][occurrence - 1]`, `None` once a warp ran it under a
    /// partial mask.
    slots: Vec<Vec<Option<Slot<T::Owned>>>>,
}

impl<T: ToOwned + PartialEq + ?Sized> OccurrenceGroups<T> {
    /// An empty recorder for one threadblock of `launch`.
    #[must_use]
    pub fn new(launch: &LaunchConfig) -> OccurrenceGroups<T> {
        OccurrenceGroups { warps: launch.warps_per_block() as usize, slots: Vec::new() }
    }

    /// Compares follower `w`'s `value` with the leader's.
    fn judge(g: &mut OccurrenceGroup<T::Owned>, w: usize, value: &T) {
        if g.leader.borrow() != value {
            g.mismatches += 1;
            if g.first_mismatch.as_ref().is_none_or(|&(f, _)| w < f) {
                g.first_mismatch = Some((w, value.to_owned()));
            }
        }
    }

    /// Records that warp `w`, in the state `warp`, produced `value` at the
    /// `occurrence`-th (1-based) execution of `pc`.
    pub fn record(&mut self, w: usize, pc: usize, occurrence: u32, warp: &Warp, value: &T) {
        if pc >= self.slots.len() {
            self.slots.resize_with(pc + 1, Vec::new);
        }
        let (occs, i) = (&mut self.slots[pc], occurrence as usize - 1);
        if i >= occs.len() {
            occs.resize_with(i + 1, || Some(Slot { arrived: 0, early: Vec::new(), group: None }));
        }
        if !warp.fully_active() {
            occs[i] = None;
        }
        let Some(Slot { arrived, early, group }) = &mut occs[i] else { return };
        *arrived += 1;
        match group {
            Some(g) => Self::judge(g, w, value),
            None if w == 0 => {
                let g = group.insert(OccurrenceGroup {
                    leader: value.to_owned(),
                    mismatches: 0,
                    first_mismatch: None,
                });
                for (f, v) in std::mem::take(early) {
                    Self::judge(g, f, v.borrow());
                }
            }
            None => early.push((w, value.to_owned())),
        }
    }

    /// Every recorded occurrence in `(pc, occurrence)` order, with its
    /// group when aligned; the recorder is left empty for the next TB.
    pub fn finish(
        &mut self,
    ) -> impl Iterator<Item = ((usize, u32), Option<OccurrenceGroup<T::Owned>>)> {
        let warps = self.warps;
        std::mem::take(&mut self.slots).into_iter().enumerate().flat_map(move |(pc, occs)| {
            occs.into_iter().zip(1..).map(move |(slot, occurrence)| {
                ((pc, occurrence), slot.filter(|s| s.arrived == warps).and_then(|s| s.group))
            })
        })
    }
}

/// What a sanitizer found: one race per static `(pc, pc)` pair in
/// detection order, and every raced-on word, tainted for the rest of the
/// run.
#[derive(Debug)]
struct RaceLog<R> {
    races: Vec<R>,
    /// Never iterated: `races` keeps the detection order.
    reported: FastSet<(usize, usize)>,
    /// Never iterated: only probed per word.
    tainted: FastSet<u64>,
}

impl<R> Default for RaceLog<R> {
    fn default() -> RaceLog<R> {
        RaceLog { races: Vec::new(), reported: FastSet::default(), tainted: FastSet::default() }
    }
}

impl<R> RaceLog<R> {
    /// Records `race`, which collided on `word` between the pcs `a` and
    /// `b`.
    fn report(&mut self, word: u64, (a, b): (usize, usize), race: R) {
        self.tainted.insert(word);
        if self.reported.insert((a.min(b), a.max(b))) {
            self.races.push(race);
        }
    }
}

/// Per-word shadow cells, paged like [`GlobalMemory`]: a page of
/// `PAGE_WORDS` default cells is allocated when one of its words is first
/// touched, so cells never move and the page map never rehashes per word.
/// Never iterated.
#[derive(Debug, Default)]
struct Shadow<C>(FastMap<u64, Box<[C]>>);

impl<C: Copy + Default> Shadow<C> {
    /// Calls `f(lane, word, cell)` for each lane of `addrs`, in ascending
    /// lane order. Each run of consecutive lanes on one page resolves the
    /// page once, then visits its cells in a tight loop.
    fn visit(&mut self, addrs: &LaneAddrs, mut f: impl FnMut(u32, u64, &mut C)) {
        let page_words = PAGE_WORDS as u64;
        let mut rest = addrs.mask();
        while rest != 0 {
            let page_no = addrs.addr(rest.trailing_zeros()) / 4 / page_words;
            let page = self
                .0
                .entry(page_no)
                .or_insert_with(|| vec![C::default(); PAGE_WORDS].into_boxed_slice());
            while rest != 0 {
                let lane = rest.trailing_zeros();
                let word = addrs.addr(lane) / 4;
                if word / page_words != page_no {
                    break;
                }
                f(lane, word, &mut page[(word % page_words) as usize]);
                rest &= rest - 1;
            }
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
///
/// One sanitizer can serve every block of a launch:
/// [`next_block`](RaceSanitizer::next_block) starts a block on a new
/// epoch with an empty log, and a cell left by an older epoch reads as
/// empty, so the shadow pages are kept instead of allocated per block.
#[derive(Debug, Default)]
pub struct RaceSanitizer {
    warp_size: u32,
    epoch: u32,
    cells: Shadow<ShadowCell>,
    log: RaceLog<SharedRace>,
}

impl RaceSanitizer {
    /// Sanitizer for a TB whose warps are `warp_size` lanes wide.
    #[must_use]
    pub fn new(warp_size: u32) -> RaceSanitizer {
        RaceSanitizer { warp_size, ..RaceSanitizer::default() }
    }

    /// Starts the next threadblock: a new epoch and an empty log, as a
    /// fresh sanitizer would report them. A cell from an older epoch
    /// reads as empty: its write epoch is not the current one, and its
    /// reader summary resets on the epoch check.
    ///
    /// # Panics
    ///
    /// Panics when the epoch count would wrap.
    pub fn next_block(&mut self) {
        self.next_epoch();
        let RaceLog { races, reported, tainted } = &mut self.log;
        races.clear();
        reported.clear();
        tainted.clear();
    }

    /// Moves to a new epoch, never one a cell may still hold.
    fn next_epoch(&mut self) {
        self.epoch = self.epoch.checked_add(1).expect("fewer than 2^32 epochs");
    }

    /// All races observed so far, in detection order (one per static
    /// `(pc, pc)` pair).
    #[must_use]
    pub fn races(&self) -> &[SharedRace] {
        &self.log.races
    }

    /// True when some race touched `word` at any point of the run.
    #[must_use]
    pub fn is_tainted(&self, word: u64) -> bool {
        self.log.tainted.contains(&word)
    }

    fn record_access(&mut self, warp_index: usize, pc: usize, addrs: &LaneAddrs, is_store: bool) {
        let (epoch, first_thread) = (self.epoch, warp_index as u32 * self.warp_size);
        let log = &mut self.log;
        self.cells.visit(addrs, |lane, word, cell| {
            let thread = first_thread + lane;
            // Update the cell in place, then judge the access against its
            // state from before the update.
            let seen = *cell;
            if is_store {
                cell.write = Some((epoch, thread, pc));
            } else {
                if cell.read_epoch != epoch {
                    cell.read_epoch = epoch;
                    cell.min_reader = None;
                    cell.max_reader = None;
                }
                if cell.min_reader.is_none_or(|(t, _)| t > thread) {
                    cell.min_reader = Some((thread, pc));
                }
                if cell.max_reader.is_none_or(|(t, _)| t < thread) {
                    cell.max_reader = Some((thread, pc));
                }
            }
            let mut race = |(first_thread, first_pc): (u32, usize), write_write: bool| {
                let race = SharedRace {
                    first_pc,
                    first_thread,
                    second_pc: pc,
                    second_thread: thread,
                    word,
                    write_write,
                };
                log.report(word, (first_pc, pc), race);
            };
            if let Some((we, wt, wpc)) = seen.write {
                if we == epoch && wt != thread {
                    race((wt, wpc), is_store);
                }
            }
            if is_store && seen.read_epoch == epoch {
                let mut readers = [seen.min_reader, seen.max_reader].into_iter().flatten();
                if let Some(reader) = readers.find(|&(t, _)| t != thread) {
                    race(reader, false);
                }
            }
        });
    }
}

impl FunctionalObserver for RaceSanitizer {
    fn shared_access(
        &mut self,
        warp_index: usize,
        pc: usize,
        _occurrence: u32,
        addrs: &LaneAddrs,
        is_store: bool,
    ) {
        self.record_access(warp_index, pc, addrs, is_store);
    }

    fn barrier_release(&mut self) {
        self.next_epoch();
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

/// Where a global access came from: its block, its pc and its
/// [`atom_code`]. A [`GlobalShadowCell`] names accesses by their site's
/// id in the sanitizer's site table.
#[derive(Debug, Clone, Copy)]
struct Site {
    block: u64,
    pc: u32,
    code: u32,
}

/// Per-word shadow cell at block granularity: the launch's last write
/// plus a two-point summary of the reading blocks. Minimum and maximum
/// reader block suffice to answer "did any block other than the writer
/// read this word?" without storing every reader.
///
/// A cell holds three site ids, 0 meaning none: `[0]` the last write's,
/// `[1]` the lowest-block reader's, `[2]` the highest-block reader's. An
/// empty cell is all zero, so a new page is one zeroed allocation. Once
/// several blocks applied one commuting op to the word, `[0]` keeps the
/// first of those writes with `SHARED` set; a block that wrote the word
/// with two kinds of write leaves a plain write on record.
type GlobalShadowCell = [u32; 3];

const _: () = assert!(std::mem::size_of::<GlobalShadowCell>() == 12);

/// Set on a shadow cell's write id once blocks besides the recorded
/// writer applied the same commuting op to the word.
const SHARED: u32 = 1 << 31;

/// `op` as a [`Site`] holds it: 0 for a plain access, one more than the
/// op's discriminant for an atomic.
fn atom_code(op: Option<AtomOp>) -> u32 {
    op.map_or(0, |op| op as u32 + 1)
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
/// Built with [`for_kernel`](GlobalRaceSanitizer::for_kernel), it is a
/// [`replay_grid`] observer: it reads each pc's atomic op from the kernel,
/// and its `begin_block` is [`set_block`](GlobalRaceSanitizer::set_block).
/// Raced-on words stay *tainted* for the rest of the launch so redundancy
/// claims that read them can be downgraded.
///
/// Each warp access is one *site* `(block, pc, atom code)`, interned once
/// per access in a table the sanitizer keeps for the launch; a shadow
/// cell holds three site ids (12 bytes), so a touched 1,024-word page
/// costs 12 KB.
#[derive(Debug, Default)]
pub struct GlobalRaceSanitizer {
    block: u64,
    /// `atoms[pc]`: the kernel's atomic op at `pc`, `None` elsewhere;
    /// empty for a [`new`](GlobalRaceSanitizer::new) sanitizer.
    atoms: Vec<Option<AtomOp>>,
    /// `sites[id - 1]`: the site a cell's id names. The current block's
    /// sites are the ones from `block_sites` on: a replay that visits
    /// each block once interns each site once.
    sites: Vec<Site>,
    block_sites: usize,
    cells: Shadow<GlobalShadowCell>,
    log: RaceLog<GlobalRace>,
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
    ///
    /// # Panics
    ///
    /// Panics on block `u64::MAX`: block indices count up from 0 to below
    /// a launch's `u64` block count, so no launch has that index.
    pub fn set_block(&mut self, block: u64) {
        assert_ne!(block, u64::MAX, "no launch has block index u64::MAX");
        if block != self.block {
            self.block_sites = self.sites.len();
        }
        self.block = block;
    }

    /// All inter-block races observed so far, in detection order (one
    /// per static `(pc, pc)` pair).
    #[must_use]
    pub fn races(&self) -> &[GlobalRace] {
        &self.log.races
    }

    /// True when some inter-block race touched `word`.
    #[must_use]
    pub fn is_tainted(&self, word: u64) -> bool {
        self.log.tainted.contains(&word)
    }

    /// True when two distinct blocks collided on one word through the
    /// commuting-atomic exemption (no race, but the blocks do share
    /// memory, so the launch is at best commutative-atomics-only).
    #[must_use]
    pub fn commutative_overlap(&self) -> bool {
        self.commutative_overlap
    }

    /// The id of the current block's site at `pc` with atom code `code`,
    /// added to the table on its first access.
    fn site(&mut self, pc: u32, code: u32) -> u32 {
        let current = &self.sites[self.block_sites..];
        let index = match current.iter().position(|s| s.pc == pc && s.code == code) {
            Some(i) => self.block_sites + i,
            None => {
                self.sites.push(Site { block: self.block, pc, code });
                self.sites.len() - 1
            }
        };
        let id = u32::try_from(index + 1).ok().filter(|&id| id < SHARED);
        id.expect("a launch has fewer than 2^31 access sites")
    }

    /// Records one global access of the current block. `atom` is the
    /// access's atomic op (`None` for a plain load or store): only two
    /// writes with the *same* commutative op (`add`/`max`/`min`, not
    /// `exch`) may collide across blocks without a race.
    ///
    /// # Panics
    ///
    /// Panics if `pc` does not fit in 32 bits.
    pub fn record_access(
        &mut self,
        pc: usize,
        addrs: &LaneAddrs,
        is_store: bool,
        atom: Option<AtomOp>,
    ) {
        let pc32 = u32::try_from(pc).expect("a pc fits in 32 bits");
        if addrs.mask() == 0 {
            return;
        }
        let (block, code) = (self.block, atom_code(atom));
        let site = self.site(pc32, code);
        // A block that writes one word with two kinds of write (a plain
        // store then an atomic, or two different atomics) leaves a value
        // no other block's write commutes with: the cell then records
        // the atomic as a plain write.
        let plain = if is_store && code != 0 { self.site(pc32, 0) } else { site };
        // Only two writes with the same commuting op may collide; a plain
        // read of a word another block wrote — even atomically — observes
        // an order-dependent value.
        let commutes = is_store && code != 0 && atom != Some(AtomOp::Exch);
        let (sites, log, overlap) = (&self.sites, &mut self.log, &mut self.commutative_overlap);
        let at = |id: u32| sites[id as usize - 1];
        let mut previous = None;
        self.cells.visit(addrs, |_lane, word, cell| {
            // A lane on the word the previous lane visited changes
            // nothing: the cell and the log already hold this block's
            // access at this pc (a warp's lanes are one block's).
            if previous.replace(word) == Some(word) {
                return;
            }
            let mut race = |first: Site, write_write: bool| {
                let race = GlobalRace {
                    first_pc: first.pc as usize,
                    first_block: first.block,
                    second_pc: pc,
                    second_block: block,
                    word,
                    write_write,
                };
                log.report(word, (race.first_pc, pc), race);
            };
            let [write, min, max] = cell;
            // Judge the access against the cell, then update it. A word
            // several blocks wrote with one commuting op is no one
            // block's: only that op commutes with it.
            let seen = (*write != 0).then(|| (at(*write & !SHARED), *write & SHARED != 0));
            if let Some((w, shared)) = seen {
                if w.block != block || shared {
                    if commutes && w.code == code {
                        *overlap = true;
                    } else {
                        race(w, is_store);
                    }
                }
            }
            if is_store {
                let mut readers = [*min, *max].into_iter().filter(|&id| id != 0).map(at);
                if let Some(reader) = readers.find(|r| r.block != block) {
                    race(reader, false);
                }
                *write = match seen {
                    // The first writer stays on record, now shared.
                    Some((w, shared))
                        if commutes && w.code == code && (shared || w.block != block) =>
                    {
                        *write | SHARED
                    }
                    Some((w, false)) if w.block == block && w.code != code => plain,
                    _ => site,
                };
            } else {
                if *min == 0 || at(*min).block > block {
                    *min = site;
                }
                if *max == 0 || at(*max).block < block {
                    *max = site;
                }
            }
        });
    }
}

impl FunctionalObserver for GlobalRaceSanitizer {
    fn global_access(
        &mut self,
        _warp_index: usize,
        pc: usize,
        _occurrence: u32,
        addrs: &LaneAddrs,
        is_store: bool,
        is_atomic: bool,
    ) {
        let atom = if is_atomic { self.atoms[pc] } else { None };
        self.record_access(pc, addrs, is_store, atom);
    }

    fn begin_block(&mut self, block: u64, _ctaid: Dim3) {
        self.set_block(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{CmpOp, Guard, KernelBuilder, LaunchConfig, MemSpace, SpecialReg, Value};

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

    /// Lane 0 accessing global word 16.
    fn word_16() -> LaneAddrs {
        LaneAddrs::new(1, [64; 32])
    }

    #[test]
    fn global_sanitizer_exempts_only_same_op_commutative_atomics() {
        // Same-op commutative collision (add/add) across blocks: no
        // race, but the overlap is recorded.
        let mut s = GlobalRaceSanitizer::new();
        s.set_block(0);
        s.record_access(0, &word_16(), true, Some(AtomOp::Add));
        s.set_block(1);
        s.record_access(1, &word_16(), true, Some(AtomOp::Add));
        assert!(s.races().is_empty());
        assert!(s.commutative_overlap());

        // Mixed commutative ops (add vs max) do not commute with each
        // other: the final value is block-order-dependent, so this is a
        // race even though each op commutes with itself.
        let mut s = GlobalRaceSanitizer::new();
        s.set_block(0);
        s.record_access(0, &word_16(), true, Some(AtomOp::Add));
        s.set_block(1);
        s.record_access(1, &word_16(), true, Some(AtomOp::Max));
        assert_eq!(s.races().len(), 1);
        assert!(!s.commutative_overlap());
        assert!(s.is_tainted(16));

        // exch/exch is last-writer-wins: a plain write/write hazard.
        let mut s = GlobalRaceSanitizer::new();
        s.set_block(0);
        s.record_access(0, &word_16(), true, Some(AtomOp::Exch));
        s.set_block(1);
        s.record_access(1, &word_16(), true, Some(AtomOp::Exch));
        assert_eq!(s.races().len(), 1);

        // Atomic against a plain store is never exempt.
        let mut s = GlobalRaceSanitizer::new();
        s.set_block(0);
        s.record_access(0, &word_16(), true, Some(AtomOp::Add));
        s.set_block(1);
        s.record_access(1, &word_16(), true, None);
        assert_eq!(s.races().len(), 1);

        // A block's plain store under its own later atomic still orders
        // against another block's atomic (found by the random programs).
        let mut s = GlobalRaceSanitizer::new();
        s.set_block(0);
        s.record_access(0, &word_16(), true, None);
        s.record_access(1, &word_16(), true, Some(AtomOp::Add));
        s.set_block(1);
        s.record_access(1, &word_16(), true, Some(AtomOp::Add));
        assert_eq!(s.races().len(), 1);

        // So does an earlier block's atomic under a later block's atomic
        // and plain store.
        let mut s = GlobalRaceSanitizer::new();
        s.set_block(0);
        s.record_access(0, &word_16(), true, Some(AtomOp::Add));
        s.set_block(1);
        s.record_access(0, &word_16(), true, Some(AtomOp::Add));
        s.record_access(1, &word_16(), true, None);
        let r = s.races();
        assert_eq!((r.len(), r[0].first_block, r[0].second_block), (1, 0, 1));
    }

    #[test]
    #[should_panic(expected = "no launch has block index u64::MAX")]
    fn no_launch_has_block_index_u64_max() {
        GlobalRaceSanitizer::new().set_block(u64::MAX);
    }

    /// One observer hook as it fired, with enough of its arguments to
    /// tell the blocks apart.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Hook {
        Begin(u64, Dim3),
        Before(usize, usize, u32),
        After(usize, usize, u32, Option<u32>),
        Shared(usize, usize, Vec<(u32, u64)>, bool),
        Global(usize, usize, Vec<(u32, u64)>, bool, bool),
        Barrier,
        End(u64, Dim3),
    }

    /// Records every hook in firing order.
    #[derive(Default)]
    struct Recorder(Vec<Hook>);

    impl FunctionalObserver for Recorder {
        fn before_instruction(&mut self, w: usize, pc: usize, occ: u32, _: &Instruction, _: &Warp) {
            self.0.push(Hook::Before(w, pc, occ));
        }
        fn after_instruction(
            &mut self,
            w: usize,
            pc: usize,
            occ: u32,
            i: &Instruction,
            warp: &Warp,
        ) {
            self.0.push(Hook::After(w, pc, occ, i.dst.map(|d| warp.reg_row(d)[0])));
        }
        fn shared_access(&mut self, w: usize, pc: usize, _: u32, a: &LaneAddrs, st: bool) {
            self.0.push(Hook::Shared(w, pc, a.iter().collect(), st));
        }
        fn global_access(
            &mut self,
            w: usize,
            pc: usize,
            _: u32,
            a: &LaneAddrs,
            st: bool,
            at: bool,
        ) {
            self.0.push(Hook::Global(w, pc, a.iter().collect(), st, at));
        }
        fn barrier_release(&mut self) {
            self.0.push(Hook::Barrier);
        }
        fn begin_block(&mut self, block: u64, ctaid: Dim3) {
            self.0.push(Hook::Begin(block, ctaid));
        }
        fn end_block(&mut self, block: u64, ctaid: Dim3) {
            self.0.push(Hook::End(block, ctaid));
        }
    }

    #[test]
    fn replay_grid_brackets_each_block_in_row_major_order() {
        // Two warps exchange tid-indexed words through shared memory
        // across a barrier, then store the word plus the linear block id
        // to out[64 * block + tid.x] and bump a counter atomically.
        let mut b = KernelBuilder::new("grid");
        let t = b.special(SpecialReg::TidX);
        let smem = b.alloc_shared(64 * 4);
        let off = b.shl_imm(t, 2);
        let waddr = b.iadd(off, smem);
        b.store(MemSpace::Shared, waddr, t, 0);
        b.barrier();
        let neg = b.isub(252u32, off);
        let raddr = b.iadd(neg, smem);
        let v = b.load(MemSpace::Shared, raddr, 0);
        let (cx, cy, cz) = (
            b.special(SpecialReg::CtaidX),
            b.special(SpecialReg::CtaidY),
            b.special(SpecialReg::CtaidZ),
        );
        let yz = b.imad(cz, 3u32, cy);
        let block = b.imad(yz, 2u32, cx);
        let lin = b.imad(block, 64u32, t);
        let out = b.param(0);
        let goff = b.shl_imm(lin, 2);
        let gaddr = b.iadd(out, goff);
        let sum = b.iadd(v, block);
        b.store(MemSpace::Global, gaddr, sum, 0);
        let ctr = b.param(1);
        b.atom(AtomOp::Add, ctr, 1u32);
        let ck = simt_compiler::compile(b.finish());

        let mut mem = GlobalMemory::new();
        let out = mem.alloc(12 * 64 * 4);
        let ctr = mem.alloc(4);
        let grid = Dim3::three_d(2, 3, 2);
        let launch = LaunchConfig::new(grid, Dim3::one_d(64))
            .with_params(vec![Value(out as u32), Value(ctr as u32)]);

        // The reference: each block alone, bracketed by hand.
        let mut want = Recorder::default();
        let mut want_mem = mem.clone();
        for i in 0..12 {
            let ctaid = ctaid_at(grid, i);
            want.begin_block(i, ctaid);
            run_tb_functional(&ck, &launch, ctaid, &mut want_mem, &mut want);
            want.end_block(i, ctaid);
        }
        // Each block releases one barrier, and each of its two warps
        // makes two shared accesses, a store and an atomic.
        let counts = |hooks: &[Hook]| {
            let count = |f: fn(&Hook) -> bool| hooks.iter().filter(|h| f(h)).count();
            [
                count(|h| matches!(h, Hook::Barrier)),
                count(|h| matches!(h, Hook::Shared(..))),
                count(|h| matches!(h, Hook::Global(_, _, _, true, false))),
                count(|h| matches!(h, Hook::Global(_, _, _, true, true))),
            ]
        };
        let blocks: Vec<_> = want.0.split_inclusive(|h| matches!(h, Hook::End(..))).collect();
        assert_eq!(blocks.len(), 12);
        assert!(blocks.iter().all(|&hooks| counts(hooks) == [1, 4, 2, 2]));

        let mut one = Recorder::default();
        let mut one_mem = mem.clone();
        replay_grid(&ck, &launch, &mut one_mem, &mut one);
        assert_eq!(one.0, want.0);
        assert_eq!(one_mem.fingerprint(), want_mem.fingerprint());
        assert_eq!(one_mem.read_u32(out + 4 * (64 * 11 + 5)), 63 - 5 + 11);
        assert_eq!(one_mem.read_u32(ctr), 12 * 64);

        let mut pair = (Recorder::default(), Recorder::default());
        replay_grid(&ck, &launch, &mut mem, &mut pair);
        assert_eq!(pair.0 .0, want.0);
        assert_eq!(pair.1 .0, want.0);
    }

    #[test]
    fn replay_grid_leaks_no_state_between_blocks() {
        // Each block reads a shared word, a register and a predicate
        // before writing them, then leaves all three set, diverges at a
        // block-dependent lane and lets part of its partial last warp
        // exit early. A block that saw the previous block's state would
        // store something other than zeros.
        let mut b = KernelBuilder::new("leak");
        let t = b.special(SpecialReg::TidX);
        let (cx, cy) = (b.special(SpecialReg::CtaidX), b.special(SpecialReg::CtaidY));
        let block = b.imad(cy, 2u32, cx);
        let smem = b.alloc_shared(48 * 4);
        let off = b.shl_imm(t, 2);
        let saddr = b.iadd(off, smem);
        let (stale_reg, stale_pred) = (b.alloc(), b.alloc_pred());
        let old_shared = b.load(MemSpace::Shared, saddr, 0);
        let old_pred = b.sel(stale_pred, 1u32, 0u32);
        let lin = b.imad(block, 48u32, t);
        let slot = b.imul(lin, 12u32);
        let out = b.param(0);
        let at = b.iadd(out, slot);
        b.store(MemSpace::Global, at, old_shared, 0);
        b.store(MemSpace::Global, at, stale_reg, 4);
        b.store(MemSpace::Global, at, old_pred, 8);
        let mark = b.iadd(lin, 1u32);
        b.store(MemSpace::Shared, saddr, mark, 0);
        b.mov_to(stale_reg, mark);
        b.setp_to(stale_pred, CmpOp::Ge, t, 0u32);
        // Lanes below 5 * block + 3 take the branch: each block diverges
        // in another place, in its first warp.
        let bound = b.imad(block, 5u32, 3u32);
        let taken = b.setp(CmpOp::Lt, t, bound);
        let ctr = b.param(1);
        b.if_then(Guard::if_true(taken), |b| {
            b.atom(AtomOp::Add, ctr, 1u32);
        });
        // Lanes 40..48 of the partial second warp exit early.
        let late = b.setp(CmpOp::Ge, t, 40u32);
        b.if_then(Guard::if_true(late), KernelBuilder::exit);
        b.atom(AtomOp::Add, ctr, 100u32);
        let ck = simt_compiler::compile(b.finish());

        let mut mem = GlobalMemory::new();
        let out = mem.alloc(4 * 48 * 12);
        let ctr = mem.alloc(4);
        let grid = Dim3::two_d(2, 2);
        let launch = LaunchConfig::new(grid, Dim3::one_d(48))
            .with_params(vec![Value(out as u32), Value(ctr as u32)]);
        assert_eq!(launch.warps_per_block(), 2, "a full warp and a partial one");

        let mut want = Recorder::default();
        let mut want_mem = mem.clone();
        for i in 0..4 {
            let ctaid = ctaid_at(grid, i);
            want.begin_block(i, ctaid);
            run_tb_functional(&ck, &launch, ctaid, &mut want_mem, &mut want);
            want.end_block(i, ctaid);
        }
        let mut got = Recorder::default();
        replay_grid(&ck, &launch, &mut mem, &mut got);
        assert_eq!(got.0, want.0);
        assert_eq!(mem.fingerprint(), want_mem.fingerprint());
        // Every block read zeros, and every lane reached its stores.
        assert!((0..4 * 48 * 3).all(|w| mem.read_u32(out + 4 * w) == 0));
        let taken: u64 = (0..4).map(|block| 5 * block + 3).sum();
        assert_eq!(u64::from(mem.read_u32(ctr)), taken + 100 * 4 * 40);
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
