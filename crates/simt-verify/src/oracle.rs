//! Pass 3: the marking-soundness sanitizer — a differential oracle over
//! the headless functional executor.
//!
//! DARSIE's hardware shares the leader warp's renamed result with every
//! follower warp for instructions the compiler marked redundant. That is
//! only sound if each such instruction really produces a bit-identical
//! result vector in every warp of the threadblock. This pass replays the
//! launch with [`replay_grid`] (each TB's state is reset in the
//! `begin_block` hook and folded in `end_block`) and compares, for every
//! *checked* instruction, the destination vectors of all warps at the
//! same dynamic occurrence (the DARSIE instance number).
//!
//! An instruction is checked when it writes a general register, is not an
//! atomic, and either its static marking or its (launch-finalized)
//! abstract class claims TB-redundancy. Consulting the markings — not
//! just the classes — matters: the markings are what the hardware decodes
//! from the binary, so a tampered or stale `Marking::Redundant` must be
//! caught even when the analysis classes disagree.
//!
//! Only *aligned occurrence groups* are compared: every warp of the TB
//! executed the occurrence with its full lane mask. Divergent or partial
//! executions never form a sharing group in the hardware either (the skip
//! table requires full-warp execution), so skipping them is not a
//! soundness hole. The grouping is [`gpu_sim::OccurrenceGroups`]: it keeps
//! leader warp 0's vector once per occurrence and compares each follower
//! as it arrives, as the hardware's followers read the leader's result.
//!
//! The replay additionally carries the dynamic shared-memory race
//! sanitizer ([`gpu_sim::RaceSanitizer`]): every observed race is a
//! `V303` error, and a checked redundancy claim that *read* a race-tainted
//! shared word is downgraded (reported as `V201`/`V202`) even when its
//! result vectors matched — the oracle only ever sees one interleaving, so
//! value agreement under a race proves nothing.
//!
//! A second shadow, the *global* sanitizer
//! ([`gpu_sim::GlobalRaceSanitizer`]), spans the whole launch: two
//! distinct thread blocks touching one global word with a
//! non-commutative write is a `V312` error (the dynamic counterpart of
//! the block-independence certifier's `V310`), and a checked redundancy
//! claim that read an inter-block-raced word is downgraded the same way
//! a shared-race taint downgrades it — the replay's block order is one
//! of many, and a raced word's value depends on which.

use crate::{blocks, Diagnostic, Diagnostics, LintCode};
use gpu_sim::{
    replay_grid, FastMap, FastSet, FunctionalObserver, GlobalMemory, GlobalRaceSanitizer,
    LaneAddrs, OccurrenceGroup, OccurrenceGroups, RaceSanitizer,
};
use simt_compiler::{promotes_tid_y, CompiledKernel, Red};
use simt_isa::{Dim3, Instruction, LaunchConfig, Marking, MemSpace, Op};
use std::collections::BTreeMap;

/// True when `pc` writes a general register, is not an atomic, and its
/// marking or its class claims its result is shared across the warps of
/// a TB under the promotion flags `px` (the launch's dimensionality
/// check) and `py` (its tid.y promotion).
pub(crate) fn claims_sharing(ck: &CompiledKernel, pc: usize, px: bool, py: bool) -> bool {
    let instr = &ck.kernel.instrs[pc];
    if !instr.op.writes_dst() || instr.dst.is_none() || matches!(instr.op, Op::Atom(_)) {
        return false;
    }
    let class = ck.classes[pc];
    // What the decoded binary claims: DR shares unconditionally, CR shares
    // when the launch-time dimensionality check passes.
    let marking_claims = match ck.markings[pc] {
        Marking::Redundant => true,
        Marking::ConditionallyRedundant => match class.red {
            Red::CondRedundantXY => px && py,
            _ => px,
        },
        Marking::Vector => false,
    };
    // What the analysis classes claim after launch finalization.
    marking_claims || class.finalize(px, py).taxonomy().is_redundant()
}

/// Which lint a mismatch at this instruction raises, or `None` when the
/// instruction is not subject to value sharing under this launch.
fn checked_kind(ck: &CompiledKernel, pc: usize, px: bool, py: bool) -> Option<LintCode> {
    if !claims_sharing(ck, pc, px, py) {
        None
    } else if ck.markings[pc] == Marking::Redundant || ck.classes[pc].red == Red::Redundant {
        Some(LintCode::UnsoundMarking)
    } else {
        Some(LintCode::UnsoundPromotion)
    }
}

/// The oracle's replay of a launch: groups the destination vectors of
/// checked (and headroom candidate) instructions and runs the shared
/// race sanitizer per TB, and folds each TB into the launch's findings.
struct OracleObserver<'a> {
    checked: &'a [Option<LintCode>],
    grouped: &'a [bool],
    /// This TB's occurrence groups and shared race sanitizer (one for
    /// the launch, moved to the next block by `begin_block`).
    groups: OccurrenceGroups<[u32]>,
    sanitizer: RaceSanitizer,
    /// `shared_reads[pc]`: a bitset over the TB's shared words of those
    /// the *checked* shared load at `pc` read this TB; empty at every
    /// other pc. The executor faults on any shared address past the
    /// scratchpad, so the bitsets bound every word. Each pc is judged on
    /// its own, so visiting order does not matter.
    shared_reads: Vec<Box<[u64]>>,
    /// Global words each *checked* load pc read, launch-wide.
    global_reads: FastMap<usize, FastSet<u64>>,
    /// Per mismatching pc: warp-occurrence pairs and the first example.
    mismatches: BTreeMap<usize, (u64, String)>,
    /// Dynamic races deduplicated by static pc pair across all TBs, with
    /// the first observing TB kept for the message.
    races: BTreeMap<(usize, usize), (Dim3, gpu_sim::SharedRace)>,
    /// Checked pcs whose loads read a race-tainted shared word.
    tainted_claims: BTreeMap<usize, u64>,
    /// `dyn_red[pc]`: `Some(true)` while every aligned group matched so
    /// far.
    dyn_red: Vec<Option<bool>>,
}

impl FunctionalObserver for OracleObserver<'_> {
    fn after_instruction(
        &mut self,
        w: usize,
        pc: usize,
        occurrence: u32,
        instr: &Instruction,
        warp: &gpu_sim::Warp,
    ) {
        if let Some(dst) = instr.dst.filter(|_| self.grouped[pc]) {
            self.groups.record(w, pc, occurrence, warp, warp.reg_row(dst));
        }
    }

    fn shared_access(
        &mut self,
        w: usize,
        pc: usize,
        occurrence: u32,
        addrs: &LaneAddrs,
        is_store: bool,
    ) {
        self.sanitizer.shared_access(w, pc, occurrence, addrs, is_store);
        let bits = &mut self.shared_reads[pc];
        if !is_store && !bits.is_empty() {
            for (_, a) in addrs.iter() {
                let word = (a / 4) as usize;
                bits[word / 64] |= 1 << (word % 64);
            }
        }
    }

    fn barrier_release(&mut self) {
        self.sanitizer.barrier_release();
    }

    fn global_access(
        &mut self,
        _w: usize,
        pc: usize,
        _occurrence: u32,
        addrs: &LaneAddrs,
        is_store: bool,
        _is_atomic: bool,
    ) {
        if !is_store && self.checked[pc].is_some() {
            self.global_reads.entry(pc).or_default().extend(addrs.iter().map(|(_, a)| a / 4));
        }
    }

    fn begin_block(&mut self, _block: u64, _ctaid: Dim3) {
        self.sanitizer.next_block();
    }

    fn end_block(&mut self, _block: u64, ctaid: Dim3) {
        for race in self.sanitizer.races() {
            self.races.entry((race.first_pc, race.second_pc)).or_insert((ctaid, *race));
        }
        // A TB without a race taints no word.
        let raced = !self.sanitizer.races().is_empty();
        for (pc, bits) in self.shared_reads.iter_mut().enumerate() {
            if raced {
                if let Some(w) = min_tainted_bit(bits, |w| self.sanitizer.is_tainted(w)) {
                    self.tainted_claims.entry(pc).or_insert(w);
                }
            }
            bits.fill(0);
        }
        // In (pc, occurrence) order, so the first mismatch of a pc (its
        // example) is its earliest occurrence in this TB.
        for ((pc, occurrence), group) in self.groups.finish() {
            let Some(OccurrenceGroup { leader, mismatches: count, first_mismatch }) = group else {
                continue;
            };
            *self.dyn_red[pc].get_or_insert(true) &= count == 0;
            let (Some((w, dst)), Some(_)) = (first_mismatch, self.checked[pc]) else { continue };
            self.mismatches
                .entry(pc)
                .or_insert_with(|| {
                    let lane =
                        dst.iter().zip(&leader).position(|(a, b)| a != b).expect("vectors differ");
                    let example = format!(
                        "TB ({},{},{}) occurrence {occurrence}: warp {w} lane {lane} produced \
                         {:#x}, leader warp 0 produced {:#x}",
                        ctaid.x, ctaid.y, ctaid.z, dst[lane], leader[lane],
                    );
                    (0, example)
                })
                .0 += count;
        }
    }
}

/// The smallest of `words` that `tainted` accepts: the word a downgrade
/// names, independent of the set's iteration order.
fn min_tainted(words: &FastSet<u64>, tainted: impl Fn(u64) -> bool) -> Option<u64> {
    words.iter().copied().filter(|&w| tainted(w)).min()
}

/// The smallest word whose bit `bits` sets and that `tainted` accepts,
/// found by an ascending scan.
fn min_tainted_bit(bits: &[u64], tainted: impl Fn(u64) -> bool) -> Option<u64> {
    bits.iter().enumerate().find_map(|(i, &chunk)| {
        let mut rest = chunk;
        while rest != 0 {
            let word = 64 * i as u64 + u64::from(rest.trailing_zeros());
            if tainted(word) {
                return Some(word);
            }
            rest &= rest - 1;
        }
        None
    })
}

/// Runs the differential oracle over every threadblock of `launch`,
/// evolving `memory` exactly as a real launch would.
#[must_use]
pub fn check(ck: &CompiledKernel, launch: &LaunchConfig, memory: GlobalMemory) -> Diagnostics {
    check_with_headroom(ck, launch, None, memory).0
}

/// [`check`], and from the same replay the dynamic-redundancy
/// [`Headroom`] the static plan `skippable` leaves (empty when
/// `skippable` is `None`): each unskipped register-writing pc is
/// classified by whether its aligned occurrence groups were in fact
/// warp-identical. `skippable` is the per-pc static plan (e.g.
/// `simt_compiler::LaunchPlan::skippable`). Only the checked pcs are
/// grouped unless headroom is asked for.
///
/// # Panics
///
/// Panics if `skippable` is shorter than the kernel's instruction count.
#[must_use]
pub fn check_with_headroom(
    ck: &CompiledKernel,
    launch: &LaunchConfig,
    skippable: Option<&[bool]>,
    mut memory: GlobalMemory,
) -> (Diagnostics, Headroom) {
    let mut report = Diagnostics::new(ck.kernel.name.clone());
    let n = ck.kernel.instrs.len();
    let px = launch.promotes_conditional_redundancy();
    let py = promotes_tid_y(launch);
    let checked: Vec<Option<LintCode>> = (0..n).map(|pc| checked_kind(ck, pc, px, py)).collect();
    // Headroom candidates: register-writing, non-atomic, unskipped pcs.
    let candidate: Vec<bool> = match skippable {
        Some(skip) => {
            assert!(skip.len() >= n, "one skippable flag per instruction required");
            let ops = ck.kernel.instrs.iter().map(|i| i.op);
            ops.zip(skip)
                .map(|(op, &s)| op.writes_dst() && !matches!(op, Op::Atom(_)) && !s)
                .collect()
        }
        None => vec![false; n],
    };
    let grouped: Vec<bool> = (0..n).map(|pc| checked[pc].is_some() || candidate[pc]).collect();
    let has_shared = ck
        .kernel
        .instrs
        .iter()
        .any(|i| matches!(i.op, Op::Ld(MemSpace::Shared) | Op::St(MemSpace::Shared)));
    let has_global_hazard = blocks::has_global_hazard(ck, launch);
    let oracle_runs = checked.iter().any(Option::is_some) || has_shared || has_global_hazard;
    if !oracle_runs && skippable.is_none() {
        return (report, Headroom::default());
    }
    let shared_words = (ck.kernel.shared_mem_bytes as usize).div_ceil(4);
    let shared_reads = (0..n)
        .map(|pc| {
            let read = checked[pc].is_some()
                && matches!(ck.kernel.instrs[pc].op, Op::Ld(MemSpace::Shared));
            vec![0; if read { shared_words.div_ceil(64) } else { 0 }].into_boxed_slice()
        })
        .collect();
    // The global shadow lives across the whole launch: it sees every
    // pair of blocks whose relative replay order could be observed.
    let mut obs = (
        OracleObserver {
            checked: &checked,
            grouped: &grouped,
            groups: OccurrenceGroups::new(launch),
            sanitizer: RaceSanitizer::new(launch.warp_size),
            shared_reads,
            global_reads: FastMap::default(),
            mismatches: BTreeMap::new(),
            races: BTreeMap::new(),
            tainted_claims: BTreeMap::new(),
            dyn_red: vec![None; n],
        },
        GlobalRaceSanitizer::for_kernel(&ck.kernel),
    );
    replay_grid(ck, launch, &mut memory, &mut obs);
    let (OracleObserver { global_reads, mismatches, races, tainted_claims, dyn_red, .. }, gsan) =
        obs;

    let mut headroom = Headroom::default();
    for pc in (0..n).filter(|&pc| candidate[pc]) {
        match dyn_red[pc] {
            Some(true) => headroom.dynamically_redundant.push(pc),
            None => headroom.never_aligned.push(pc),
            Some(false) => {}
        }
    }

    // A failed redundancy claim at a checked pc, and why it fails.
    let unsound = |pc: usize, why: String| {
        let code = checked[pc].expect("pc is checked");
        let claim = match code {
            LintCode::UnsoundMarking => "is marked definitely redundant",
            _ => "was promoted by this launch's dimensionality check",
        };
        Diagnostic::new(code, Some(pc), format!("`{}` {claim} but {why}", ck.kernel.instrs[pc]))
    };
    for (&pc, (count, example)) in &mismatches {
        report.push(unsound(
            pc,
            format!(
                "produced warp-divergent results ({count} mismatching warp-occurrence \
                 pair(s); first: {example})"
            ),
        ));
    }

    // Downgrade redundancy claims that read race-tainted words: matching
    // result vectors under a race only describe this replay's
    // interleaving, so the claim is unsound even without a mismatch.
    for (&pc, word) in &tainted_claims {
        if !mismatches.contains_key(&pc) {
            report.push(unsound(
                pc,
                format!(
                    "reads shared word {word}, which a data race tainted; its value is \
                     interleaving-dependent and must not be shared across warps"
                ),
            ));
        }
    }

    for (ctaid, r) in races.into_values() {
        let kinds = if r.write_write { "both storing" } else { "store racing a load" };
        report.push(Diagnostic::new(
            LintCode::SharedRaceDynamic,
            Some(r.second_pc),
            format!(
                "dynamic shared-memory race in TB ({},{},{}): thread {} at pc {} and \
                 thread {} at pc {} touched shared word {} in the same barrier epoch ({kinds})",
                ctaid.x,
                ctaid.y,
                ctaid.z,
                r.first_thread,
                r.first_pc,
                r.second_thread,
                r.second_pc,
                r.word,
            ),
        ));
    }

    // Inter-block races observed by the global shadow: each is a concrete
    // witness that block replay order is observable under this launch.
    for r in gsan.races() {
        report.push(blocks::dynamic_race(r, launch.grid));
    }

    // Downgrade redundancy claims that read an inter-block-raced global
    // word: the replay visited blocks in one order of many, so the value
    // read — and hence the claim's matching vectors — is order-dependent.
    for (&pc, words) in global_reads.iter().collect::<BTreeMap<_, _>>() {
        if mismatches.contains_key(&pc) || tainted_claims.contains_key(&pc) {
            continue;
        }
        let Some(word) = min_tainted(words, |w| gsan.is_tainted(w)) else { continue };
        report.push(unsound(
            pc,
            format!(
                "reads global word {word}, which an inter-block data race tainted; its value \
                 depends on block replay order and must not be shared"
            ),
        ));
    }
    (report, headroom)
}

/// How much dynamic TB-redundancy the static `skippable` set leaves on the
/// table under one launch.
#[derive(Debug, Clone, Default)]
pub struct Headroom {
    /// Register-writing, non-atomic pcs the static plan does *not* skip
    /// whose destination vectors nevertheless matched across all warps in
    /// every aligned occurrence group of every TB — candidates a sharper
    /// (still sound) analysis could reclaim.
    pub dynamically_redundant: Vec<usize>,
    /// Register-writing, non-atomic, unskipped pcs that never executed as
    /// an aligned group: the sharing hardware could not have skipped them
    /// regardless of marking, so they bound no analysis improvement.
    pub never_aligned: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_compiler::{AbsClass, Pat};
    use simt_isa::{Dim3, KernelBuilder, MemSpace, SpecialReg, Value};

    /// tid-indexed copy kernel: every marking the compiler emits is sound.
    fn copy_kernel() -> CompiledKernel {
        let mut b = KernelBuilder::new("copy");
        let tx = b.special(SpecialReg::TidX);
        let ty = b.special(SpecialReg::TidY);
        let bx = b.param(2);
        let row = b.imul(ty, bx);
        let idx = b.iadd(row, tx);
        let off = b.shl_imm(idx, 2);
        let src = b.param(0);
        let dst = b.param(1);
        let a0 = b.iadd(src, off);
        let a1 = b.iadd(dst, off);
        let v = b.load(MemSpace::Global, a0, 0);
        b.store(MemSpace::Global, a1, v, 0);
        simt_compiler::compile(b.finish())
    }

    fn copy_launch(ck: &CompiledKernel) -> (LaunchConfig, GlobalMemory, u64, u64) {
        let block = Dim3::two_d(16, 16);
        let n: u32 = 16 * 16;
        let mut mem = GlobalMemory::new();
        let src = mem.alloc(u64::from(n) * 4);
        let dst = mem.alloc(u64::from(n) * 4);
        for i in 0..n {
            mem.write_u32(src + u64::from(i) * 4, i.wrapping_mul(2654435761));
        }
        let launch = LaunchConfig::new(1u32, block).with_params(vec![
            Value(src as u32),
            Value(dst as u32),
            Value(16),
        ]);
        assert!(launch.promotes_conditional_redundancy());
        let _ = ck;
        (launch, mem, src, dst)
    }

    #[test]
    fn honest_markings_pass_the_oracle() {
        let ck = copy_kernel();
        let (launch, mem, _, _) = copy_launch(&ck);
        // The tid chain is conditionally redundant and promoted here, so
        // the oracle really exercises the comparison path.
        assert!(ck.markings.contains(&Marking::ConditionallyRedundant), "{:?}", ck.markings);
        let r = check(&ck, &launch, mem);
        assert!(r.items.is_empty(), "{}", r.render());
    }

    #[test]
    fn oracle_still_executes_the_kernel_faithfully() {
        let ck = copy_kernel();
        let (launch, mem, src, dst) = copy_launch(&ck);
        // check() consumes the memory, so re-run and inspect via a fresh
        // copy it returns nothing from; instead run the oracle on a clone
        // and the plain executor on the original to compare one cell.
        let r = check(&ck, &launch, mem.clone());
        assert!(r.is_clean(), "{}", r.render());
        let mut mem2 = mem;
        gpu_sim::run_tb_functional(
            &ck,
            &launch,
            Dim3::three_d(0, 0, 0),
            &mut mem2,
            &mut gpu_sim::NullObserver,
        );
        assert_eq!(mem2.read_u32(dst + 4 * 37), mem2.read_u32(src + 4 * 37));
    }

    /// The acceptance-criteria fixture: a genuinely warp-varying
    /// instruction whose marking is flipped from `Vector` to `Redundant`.
    #[test]
    fn mis_marked_vector_instruction_is_caught() {
        let mut b = KernelBuilder::new("mis-marked");
        let ctr = b.param(0);
        let out = b.param(1);
        // Atomic old values differ per lane and per warp.
        let old = b.atom(simt_isa::AtomOp::Add, ctr, 1u32);
        let biased = b.iadd(old, 100u32); // honest marking: Vector
        let tx = b.special(SpecialReg::TidX);
        let off = b.shl_imm(tx, 2);
        let addr = b.iadd(out, off);
        b.store(MemSpace::Global, addr, biased, 0);
        let mut ck = simt_compiler::compile(b.finish());

        // pc 0/1 are the param loads, pc 2 the atomic, pc 3 the add.
        let biased_pc = 3;
        assert_eq!(
            ck.markings[biased_pc],
            Marking::Vector,
            "fixture expects the atomic-derived add to be a vector marking\n{}",
            ck.annotated_disassembly()
        );

        let mut mem = GlobalMemory::new();
        let ctr_buf = mem.alloc(4);
        let out_buf = mem.alloc(64 * 4);
        let launch = LaunchConfig::new(1u32, Dim3::one_d(64))
            .with_params(vec![Value(ctr_buf as u32), Value(out_buf as u32)]);

        // Honest binary: clean.
        let r = check(&ck, &launch, mem.clone());
        assert!(r.items.is_empty(), "{}", r.render());

        // Tampered binary: the sanitizer must fail it.
        ck.markings[biased_pc] = Marking::Redundant;
        let r = check(&ck, &launch, mem);
        let hits = r.with_code(LintCode::UnsoundMarking);
        assert_eq!(hits.len(), 1, "{}", r.render());
        assert_eq!(hits[0].pc, Some(biased_pc));
        assert!(!r.is_clean());
    }

    #[test]
    fn unsound_promotion_is_caught_as_v202() {
        // tid.y varies across warps of a 16x16 block (each warp covers one
        // row). Tamper its class and marking to conditionally redundant:
        // the 2D launch check passes, the promotion is unsound.
        let mut b = KernelBuilder::new("bad-promo");
        let ty = b.special(SpecialReg::TidY);
        let out = b.param(0);
        let tx = b.special(SpecialReg::TidX);
        let off = b.shl_imm(tx, 2);
        let addr = b.iadd(out, off);
        b.store(MemSpace::Global, addr, ty, 0);
        let mut ck = simt_compiler::compile(b.finish());

        let ty_pc = 0;
        ck.classes[ty_pc] = AbsClass { red: Red::CondRedundant, pat: Pat::Uniform };
        ck.markings[ty_pc] = Marking::ConditionallyRedundant;

        let mut mem = GlobalMemory::new();
        let out_buf = mem.alloc(16 * 4);
        let launch =
            LaunchConfig::new(1u32, Dim3::two_d(16, 16)).with_params(vec![Value(out_buf as u32)]);
        assert!(launch.promotes_conditional_redundancy());
        assert!(!promotes_tid_y(&launch));

        let r = check(&ck, &launch, mem);
        let hits = r.with_code(LintCode::UnsoundPromotion);
        assert_eq!(hits.len(), 1, "{}", r.render());
        assert_eq!(hits[0].pc, Some(ty_pc));
    }

    #[test]
    fn dynamic_race_fires_v303_and_downgrades_the_tainted_redundant_load() {
        // Every thread stores tid.x to shared word 0 (a write/write race),
        // then after a barrier every thread loads word 0. The load has a
        // uniform address, so the compiler honestly marks it definitely
        // redundant — and indeed every warp reads the same value in this
        // replay. The sanitizer must still fail it: the value depends on
        // which thread's store won.
        let mut b = KernelBuilder::new("racy_reduce");
        let t = b.special(SpecialReg::TidX);
        let smem = b.alloc_shared(16);
        b.store(MemSpace::Shared, smem, t, 0);
        b.barrier();
        let v = b.load(MemSpace::Shared, smem, 0);
        let out = b.param(0);
        let off = b.shl_imm(t, 2);
        let addr = b.iadd(out, off);
        b.store(MemSpace::Global, addr, v, 0);
        let ck = simt_compiler::compile(b.finish());

        let load_pc = ck
            .kernel
            .instrs
            .iter()
            .position(|i| matches!(i.op, Op::Ld(MemSpace::Shared)))
            .expect("kernel has a shared load");
        assert_eq!(
            ck.markings[load_pc],
            Marking::Redundant,
            "fixture expects the uniform shared load to be marked redundant\n{}",
            ck.annotated_disassembly()
        );

        let mut mem = GlobalMemory::new();
        let out_buf = mem.alloc(64 * 4);
        let launch =
            LaunchConfig::new(1u32, Dim3::one_d(64)).with_params(vec![Value(out_buf as u32)]);
        let r = check(&ck, &launch, mem);

        let v303 = r.with_code(LintCode::SharedRaceDynamic);
        assert_eq!(v303.len(), 1, "{}", r.render());
        let downgrades = r.with_code(LintCode::UnsoundMarking);
        assert!(
            downgrades.iter().any(|d| d.pc == Some(load_pc)),
            "tainted redundant load was not downgraded:\n{}",
            r.render()
        );
    }

    #[test]
    fn inter_block_race_fires_v312_and_downgrades_the_tainted_redundant_load() {
        // Every thread of every block stores ctaid.x to global word 0,
        // then loads it back through a uniform address — honestly marked
        // redundant, and warp-identical *within* each block. With two
        // blocks the word's final value depends on block replay order:
        // the global shadow must fire V312 and downgrade the claim even
        // though no warp mismatch exists.
        let mut b = KernelBuilder::new("block_racy");
        let t = b.special(SpecialReg::TidX);
        let cx = b.special(SpecialReg::CtaidX);
        let w0 = b.param(0);
        b.store(MemSpace::Global, w0, cx, 0);
        let v = b.load(MemSpace::Global, w0, 0);
        let res = b.param(1);
        let off = b.shl_imm(t, 2);
        let addr = b.iadd(res, off);
        b.store(MemSpace::Global, addr, v, 0);
        let ck = simt_compiler::compile(b.finish());

        let load_pc = ck
            .kernel
            .instrs
            .iter()
            .position(|i| matches!(i.op, Op::Ld(MemSpace::Global)))
            .expect("kernel has a global load");
        assert_eq!(
            ck.markings[load_pc],
            Marking::Redundant,
            "fixture expects the uniform global load to be marked redundant\n{}",
            ck.annotated_disassembly()
        );

        let mut mem = GlobalMemory::new();
        let w_buf = mem.alloc(4);
        let res_buf = mem.alloc(2 * 64 * 4);
        let launch = LaunchConfig::new(2u32, Dim3::one_d(64))
            .with_params(vec![Value(w_buf as u32), Value(res_buf as u32)]);
        let r = check(&ck, &launch, mem);

        let v312 = r.with_code(LintCode::InterBlockRaceDynamic);
        assert!(!v312.is_empty(), "{}", r.render());
        let downgrades = r.with_code(LintCode::UnsoundMarking);
        assert!(
            downgrades.iter().any(|d| d.pc == Some(load_pc)),
            "tainted redundant load was not downgraded:\n{}",
            r.render()
        );
    }

    #[test]
    fn block_disjoint_multi_block_kernel_reports_no_v312() {
        // out[64*ctaid.x + tid.x] = ctaid.x: per-block footprints are
        // disjoint, so the global shadow must stay silent across blocks.
        let mut b = KernelBuilder::new("block_disjoint");
        let t = b.special(SpecialReg::TidX);
        let cx = b.special(SpecialReg::CtaidX);
        let out = b.param(0);
        let lin = b.imad(cx, 64u32, t);
        let off = b.shl_imm(lin, 2);
        let addr = b.iadd(out, off);
        b.store(MemSpace::Global, addr, cx, 0);
        let ck = simt_compiler::compile(b.finish());

        let mut mem = GlobalMemory::new();
        let out_buf = mem.alloc(4 * 64 * 4);
        let launch =
            LaunchConfig::new(4u32, Dim3::one_d(64)).with_params(vec![Value(out_buf as u32)]);
        let r = check(&ck, &launch, mem);
        assert!(r.with_code(LintCode::InterBlockRaceDynamic).is_empty(), "{}", r.render());
    }

    #[test]
    fn commutative_atomics_across_blocks_report_no_v312() {
        // Every block atomically adds into one counter word: commutative,
        // so the final value is block-order-independent and the shadow
        // must not flag it.
        let mut b = KernelBuilder::new("block_atomic");
        let ctr = b.param(0);
        let _old = b.atom(simt_isa::AtomOp::Add, ctr, 1u32);
        let ck = simt_compiler::compile(b.finish());

        let mut mem = GlobalMemory::new();
        let ctr_buf = mem.alloc(4);
        let launch =
            LaunchConfig::new(4u32, Dim3::one_d(32)).with_params(vec![Value(ctr_buf as u32)]);
        let r = check(&ck, &launch, mem);
        assert!(r.with_code(LintCode::InterBlockRaceDynamic).is_empty(), "{}", r.render());
    }

    #[test]
    fn race_free_shared_exchange_reports_no_v30x() {
        // Thread t writes word t, barrier, reads word 63-t: disjoint
        // footprints per epoch, so the sanitizer must stay silent.
        let mut b = KernelBuilder::new("clean_exchange");
        let t = b.special(SpecialReg::TidX);
        let smem = b.alloc_shared(64 * 4);
        let off = b.shl_imm(t, 2);
        let waddr = b.iadd(off, smem);
        b.store(MemSpace::Shared, waddr, t, 0);
        b.barrier();
        let neg = b.isub(252u32, off);
        let raddr = b.iadd(neg, smem);
        let v = b.load(MemSpace::Shared, raddr, 0);
        let out = b.param(0);
        let gaddr = b.iadd(out, off);
        b.store(MemSpace::Global, gaddr, v, 0);
        let ck = simt_compiler::compile(b.finish());

        let mut mem = GlobalMemory::new();
        let out_buf = mem.alloc(64 * 4);
        let launch =
            LaunchConfig::new(1u32, Dim3::one_d(64)).with_params(vec![Value(out_buf as u32)]);
        let r = check(&ck, &launch, mem);
        assert!(r.with_code(LintCode::SharedRaceDynamic).is_empty(), "{}", r.render());
        assert!(r.items.is_empty(), "{}", r.render());
    }

    #[test]
    fn headroom_counts_dynamically_uniform_unskipped_pcs() {
        // A guarded mov into a never-written register under a uniform
        // guard: the baseline analysis folds in the entry-undef contents
        // and marks the chain vector (unskippable), but every warp
        // computes identical vectors — measurable headroom.
        let mut b = KernelBuilder::new("headroom");
        let c = b.param(0);
        let p = b.setp(simt_isa::CmpOp::Lt, c, 100u32);
        let dst = b.alloc();
        b.emit(
            Instruction::new(Op::Mov, Some(dst), None, vec![simt_isa::Operand::Imm(7)])
                .with_guard(simt_isa::Guard::if_true(p)),
        );
        let y = b.iadd(dst, 5u32);
        let t = b.special(SpecialReg::TidX);
        let off = b.shl_imm(t, 2);
        let out = b.param(1);
        let addr = b.iadd(out, off);
        b.store(MemSpace::Global, addr, y, 0);
        let ck = simt_compiler::compile(b.finish());

        let add_pc = 3;
        assert_eq!(ck.markings[add_pc], Marking::Vector, "{}", ck.annotated_disassembly());

        let mut mem = GlobalMemory::new();
        let out_buf = mem.alloc(64 * 4);
        let launch = LaunchConfig::new(1u32, Dim3::one_d(64))
            .with_params(vec![Value(5), Value(out_buf as u32)]);
        let plan = simt_compiler::LaunchPlan::new(&ck, &launch);
        let h = check_with_headroom(&ck, &launch, Some(&plan.skippable), mem).1;
        assert!(h.dynamically_redundant.contains(&add_pc), "{h:?}");
        assert!(h.never_aligned.is_empty(), "{h:?}");
    }

    #[test]
    fn headroom_is_zero_when_the_plan_already_skips_everything_uniform() {
        let ck = copy_kernel();
        let (launch, mem, _, _) = copy_launch(&ck);
        let plan = simt_compiler::LaunchPlan::new(&ck, &launch);
        let h = check_with_headroom(&ck, &launch, Some(&plan.skippable), mem).1;
        assert!(h.dynamically_redundant.is_empty(), "{h:?}");
    }

    /// Reaches each diagnostic site of [`check`] that picks one of
    /// several candidates: a tampered vector add inside a loop mismatches
    /// at every occurrence, and two uniform loads in the same loop read
    /// four shared and four global words, each tainted by a race (threads
    /// `t` and `t + 4` store to word `t % 4`; both blocks store to the
    /// same global words).
    fn multi_candidate() -> (CompiledKernel, LaunchConfig, GlobalMemory, [usize; 3], u64, u64) {
        let mut b = KernelBuilder::new("multi_candidate");
        let t = b.special(SpecialReg::TidX);
        let smem = b.alloc_shared(4 * 4);
        let out = b.param(0);
        let res = b.param(1);
        let word = b.and(t, 3u32);
        let woff = b.shl_imm(word, 2);
        b.store(MemSpace::Shared, woff, t, smem as i32);
        let gaddr = b.iadd(out, woff);
        b.store(MemSpace::Global, gaddr, t, 0);
        let acc = b.mov(0u32);
        b.for_count(4u32, |b, i| {
            let off = b.shl_imm(i, 2);
            let sv = b.load(MemSpace::Shared, off, smem as i32);
            let ga = b.iadd(out, off);
            let gv = b.load(MemSpace::Global, ga, 0);
            let lv = b.iadd(t, i);
            let s = b.iadd(sv, gv);
            let s = b.iadd(s, lv);
            b.iadd_to(acc, acc, s);
        });
        let cx = b.special(SpecialReg::CtaidX);
        let lin = b.imad(cx, 64u32, t);
        let roff = b.shl_imm(lin, 2);
        let raddr = b.iadd(res, roff);
        b.store(MemSpace::Global, raddr, acc, 0);
        let mut ck = simt_compiler::compile(b.finish());

        let pc_of = |f: &dyn Fn(&Instruction) -> bool| {
            ck.kernel.instrs.iter().position(f).expect("fixture instruction present")
        };
        let shared_pc = pc_of(&|i| matches!(i.op, Op::Ld(MemSpace::Shared)));
        let global_pc = pc_of(&|i| matches!(i.op, Op::Ld(MemSpace::Global)));
        // The first add after the global load is `t + i`.
        let lane_pc = global_pc + 1;
        assert_eq!(ck.kernel.instrs[lane_pc].op, Op::IAdd, "{}", ck.annotated_disassembly());
        assert_ne!(ck.markings[lane_pc], Marking::Redundant, "{}", ck.annotated_disassembly());
        for pc in [shared_pc, global_pc] {
            assert_eq!(ck.markings[pc], Marking::Redundant, "{}", ck.annotated_disassembly());
        }
        ck.markings[lane_pc] = Marking::Redundant;

        let mut mem = GlobalMemory::new();
        let out_buf = mem.alloc(4 * 4);
        let res_buf = mem.alloc(2 * 64 * 4);
        let launch = LaunchConfig::new(2u32, Dim3::one_d(64))
            .with_params(vec![Value(out_buf as u32), Value(res_buf as u32)]);
        (ck, launch, mem, [lane_pc, shared_pc, global_pc], u64::from(smem / 4), out_buf / 4)
    }

    #[test]
    fn multi_candidate_diagnostics_are_deterministic_and_name_the_minimum() {
        let (ck, launch, mem, [lane_pc, shared_pc, global_pc], shared_word, global_word) =
            multi_candidate();
        let first = check(&ck, &launch, mem.clone());
        let message = |pc: usize| {
            let hits = first.with_code(LintCode::UnsoundMarking);
            let hits: Vec<_> = hits.iter().filter(|d| d.pc == Some(pc)).collect();
            assert_eq!(hits.len(), 1, "one V201 at pc {pc}:\n{}", first.render());
            hits[0].message.clone()
        };
        // Every occurrence of the tampered add mismatches in warp 1 first
        // at lane 0 (thread 32 + i against thread i); the first occurrence
        // is the example.
        assert!(
            message(lane_pc).contains(
                "first: TB (0,0,0) occurrence 1: warp 1 lane 0 produced 0x20, \
                 leader warp 0 produced 0x0"
            ),
            "{}",
            first.render()
        );
        assert!(
            message(shared_pc).contains(&format!("reads shared word {shared_word},")),
            "{}",
            first.render()
        );
        assert!(
            message(global_pc).contains(&format!("reads global word {global_word},")),
            "{}",
            first.render()
        );
        for _ in 1..16 {
            assert_eq!(check(&ck, &launch, mem.clone()).render(), first.render());
        }
    }

    #[test]
    fn min_tainted_names_the_smallest_tainted_word() {
        let words: FastSet<u64> = (0..256).rev().collect();
        assert_eq!(min_tainted(&words, |w| w % 7 == 3), Some(3));
        assert_eq!(min_tainted(&words, |w| w > 250), Some(251));
        assert_eq!(min_tainted(&words, |_| false), None);
        // The bitset form: every third of 256 words read, over four
        // chunks; the answer sits in the first chunk with a tainted word.
        let mut bits = [0u64; 4];
        for w in (0..256).step_by(3) {
            bits[w / 64] |= 1 << (w % 64);
        }
        assert_eq!(min_tainted_bit(&bits, |w| w % 7 == 3), Some(3));
        assert_eq!(min_tainted_bit(&bits, |w| w > 100), Some(102));
        assert_eq!(min_tainted_bit(&bits, |w| w % 2 == 1 && w > 64), Some(69));
        assert_eq!(min_tainted_bit(&bits, |w| w == 1), None);
    }

    #[test]
    fn unpromoted_conditional_marking_is_not_checked() {
        // In a 1D 256-thread block the launch check fails: conditionally
        // redundant instructions execute per-warp, so warp-varying results
        // are expected and must not be reported.
        let ck = copy_kernel();
        let mut mem = GlobalMemory::new();
        let src = mem.alloc(256 * 4);
        let dst = mem.alloc(256 * 4);
        let launch = LaunchConfig::new(1u32, Dim3::one_d(256)).with_params(vec![
            Value(src as u32),
            Value(dst as u32),
            Value(256),
        ]);
        assert!(!launch.promotes_conditional_redundancy());
        let r = check(&ck, &launch, mem);
        assert!(r.items.is_empty(), "{}", r.render());
    }

    /// Three warps per TB, 96 threads; the warp-varying `warp + 100` is
    /// tampered to "definitely redundant". Warp 0 runs a six-instruction
    /// body first, so the round-robin replay brings warp 1 to the add
    /// before its leader. With `partial`, warp 2 runs the body too and
    /// lanes at or past `80 + 16 * ctaid.x` skip the add: in TB 0 warp 2
    /// arrives last, under a partial mask, after warps 0 and 1 disagreed.
    /// Returns the kernel, launch, memory and the add's pc.
    fn late_leader(partial: bool) -> (CompiledKernel, LaunchConfig, GlobalMemory, usize) {
        let mut b = KernelBuilder::new("late_leader");
        let t = b.special(SpecialReg::TidX);
        let cx = b.special(SpecialReg::CtaidX);
        let out = b.param(0);
        let w = b.shr_imm(t, 5);
        let slow = if partial {
            b.setp(simt_isa::CmpOp::Ne, w, 1u32)
        } else {
            b.setp(simt_isa::CmpOp::Eq, w, 0u32)
        };
        let acc = b.mov(0u32);
        b.if_then(simt_isa::Guard::if_true(slow), |b| {
            for k in 1..=6u32 {
                b.iadd_to(acc, acc, k);
            }
        });
        let bound = b.imad(cx, 16u32, 80u32);
        let limit: simt_isa::Operand = if partial { bound.into() } else { 96u32.into() };
        let inside = b.setp(simt_isa::CmpOp::Lt, t, limit);
        b.if_then(simt_isa::Guard::if_true(inside), |b| {
            let x = b.iadd(w, 100u32);
            b.iadd_to(acc, acc, x);
        });
        let lin = b.imad(cx, 96u32, t);
        let off = b.shl_imm(lin, 2);
        let addr = b.iadd(out, off);
        b.store(MemSpace::Global, addr, acc, 0);
        let mut ck = simt_compiler::compile(b.finish());
        let x_pc = ck
            .kernel
            .instrs
            .iter()
            .position(|i| i.op == Op::IAdd && i.srcs.get(1) == Some(&simt_isa::Operand::Imm(100)))
            .expect("fixture has the warp + 100 add");
        ck.markings[x_pc] = Marking::Redundant;

        let mut mem = GlobalMemory::new();
        let out_buf = mem.alloc(2 * 96 * 4);
        let launch =
            LaunchConfig::new(2u32, Dim3::one_d(96)).with_params(vec![Value(out_buf as u32)]);
        (ck, launch, mem, x_pc)
    }

    /// The warps that reach `pc` in TB 0, in replay order, each with its
    /// active lane count.
    fn arrivals(
        ck: &CompiledKernel,
        launch: &LaunchConfig,
        mut mem: GlobalMemory,
        pc: usize,
    ) -> Vec<(usize, u32)> {
        struct Arrivals(usize, Vec<(usize, u32)>);
        impl FunctionalObserver for Arrivals {
            fn after_instruction(
                &mut self,
                w: usize,
                pc: usize,
                _occurrence: u32,
                _instr: &Instruction,
                warp: &gpu_sim::Warp,
            ) {
                if pc == self.0 {
                    self.1.push((w, warp.active_mask().count_ones()));
                }
            }
        }
        let mut obs = Arrivals(pc, Vec::new());
        gpu_sim::run_tb_functional(ck, launch, Dim3::three_d(0, 0, 0), &mut mem, &mut obs);
        obs.1
    }

    /// Generated with the recorder that stored every warp's vector until
    /// the TB ended, which no arrival order can fool.
    #[test]
    fn late_leader_and_partial_followers_report_the_pinned_v201() {
        let v201 = |count: u32, tb: u32| {
            format!(
                "verify late_leader:\n  error [V201] pc 16: `iadd R6, R3, 0x64` is marked \
                 definitely redundant but produced warp-divergent results ({count} mismatching \
                 warp-occurrence pair(s); first: TB ({tb},0,0) occurrence 1: warp 1 lane 0 \
                 produced 0x65, leader warp 0 produced 0x64)\n  1 error(s), 0 warning(s)\n"
            )
        };
        // Warp 0 arrives last in both TBs: two mismatches each.
        let (ck, launch, mem, x_pc) = late_leader(false);
        assert_eq!(x_pc, 16, "{}", ck.annotated_disassembly());
        assert_eq!(arrivals(&ck, &launch, mem.clone(), x_pc), [(1, 32), (2, 32), (0, 32)]);
        assert_eq!(check(&ck, &launch, mem).render(), v201(4, 0));

        // TB 0's group mismatched (warp 1 against warp 0) before warp 2
        // arrived with 16 lanes: unaligned, so only TB 1 counts.
        let (ck, launch, mem, x_pc) = late_leader(true);
        assert_eq!(x_pc, 16, "{}", ck.annotated_disassembly());
        assert_eq!(arrivals(&ck, &launch, mem.clone(), x_pc), [(1, 32), (0, 32), (2, 16)]);
        assert_eq!(check(&ck, &launch, mem).render(), v201(2, 1));
    }
}
