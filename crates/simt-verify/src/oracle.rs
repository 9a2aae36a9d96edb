//! Pass 3: the marking-soundness sanitizer — a differential oracle over
//! the headless functional executor.
//!
//! DARSIE's hardware shares the leader warp's renamed result with every
//! follower warp for instructions the compiler marked redundant. That is
//! only sound if each such instruction really produces a bit-identical
//! result vector in every warp of the threadblock. This pass replays the
//! kernel per-warp with [`run_tb_functional`] and compares, for every
//! *checked* instruction, the destination vectors of all warps at the same
//! dynamic occurrence (the DARSIE instance number).
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
//! soundness hole.
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
//! of many the sharded engine may choose.

use crate::{blocks, Diagnostic, Diagnostics, LintCode};
use gpu_sim::{
    ctaid_at, run_tb_functional, FastMap, FastSet, FunctionalObserver, GlobalMemory,
    GlobalRaceSanitizer, RaceSanitizer,
};
use simt_compiler::{promotes_tid_y, CompiledKernel, Red};
use simt_isa::{Dim3, Instruction, LaunchConfig, Marking, MemSpace, Op};
use std::collections::{HashMap, HashSet};

/// Which lint a mismatch at this instruction raises, or `None` when the
/// instruction is not subject to value sharing under this launch.
fn checked_kind(ck: &CompiledKernel, pc: usize, px: bool, py: bool) -> Option<LintCode> {
    let instr = &ck.kernel.instrs[pc];
    if !instr.op.writes_dst() || instr.dst.is_none() || matches!(instr.op, Op::Atom(_)) {
        return None;
    }
    let class = ck.classes[pc];
    let marking = ck.markings[pc];
    // What the decoded binary claims: DR shares unconditionally, CR shares
    // when the launch-time dimensionality check passes.
    let marking_claims = match marking {
        Marking::Redundant => true,
        Marking::ConditionallyRedundant => match class.red {
            Red::CondRedundantXY => px && py,
            _ => px,
        },
        Marking::Vector => false,
    };
    // What the analysis classes claim after launch finalization.
    let class_claims = class.finalize(px, py).taxonomy().is_redundant();
    if !marking_claims && !class_claims {
        return None;
    }
    if marking == Marking::Redundant || class.red == Red::Redundant {
        Some(LintCode::UnsoundMarking)
    } else {
        Some(LintCode::UnsoundPromotion)
    }
}

/// Destination vectors of one TB's register-writing instructions, keyed
/// by `(pc, occurrence)`: slot `w` holds warp `w`'s vector when it
/// executed the occurrence with its full lane mask, `None` otherwise.
struct GroupRecorder {
    ws: u32,
    num_warps: usize,
    groups: FastMap<(usize, u32), Vec<Option<Vec<u32>>>>,
}

impl GroupRecorder {
    fn new(launch: &LaunchConfig) -> GroupRecorder {
        GroupRecorder {
            ws: launch.warp_size,
            num_warps: launch.warps_per_block() as usize,
            groups: FastMap::default(),
        }
    }

    /// The aligned occurrence groups, unordered: every warp of the TB
    /// executed the occurrence with its full lane mask. A group lists the
    /// warps' destination vectors, leader warp 0 first.
    fn aligned(self) -> impl Iterator<Item = ((usize, u32), Vec<Vec<u32>>)> {
        self.groups
            .into_iter()
            .filter_map(|(key, dsts)| Some((key, dsts.into_iter().collect::<Option<_>>()?)))
    }
}

impl FunctionalObserver for GroupRecorder {
    fn after_instruction(
        &mut self,
        w: usize,
        pc: usize,
        occurrence: u32,
        instr: &Instruction,
        warp: &gpu_sim::Warp,
    ) {
        let Some(dst) = instr.dst else { return };
        let full = warp.active_mask() == warp.full_mask && warp.full_mask.count_ones() == self.ws;
        self.groups.entry((pc, occurrence)).or_insert_with(|| vec![None; self.num_warps])[w] =
            full.then(|| warp.reg_vector(dst));
    }
}

/// Records destination vectors of checked instructions for one TB, and
/// runs the dynamic race sanitizers alongside.
struct OracleObserver<'a> {
    checked: &'a [Option<LintCode>],
    groups: GroupRecorder,
    sanitizer: RaceSanitizer,
    /// Shared words each *checked* load pc read during this TB. Each pc
    /// is judged on its own, so visiting order does not matter.
    shared_reads: FastMap<usize, FastSet<u64>>,
    /// Launch-wide global shadow (one epoch across all TBs).
    gsan: &'a mut GlobalRaceSanitizer,
    /// Global words each *checked* load pc read, launch-wide.
    global_reads: &'a mut FastMap<usize, FastSet<u64>>,
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
        if self.checked[pc].is_some() {
            self.groups.after_instruction(w, pc, occurrence, instr, warp);
        }
    }

    fn shared_access(
        &mut self,
        w: usize,
        pc: usize,
        occurrence: u32,
        addrs: &[(u32, u64)],
        is_store: bool,
    ) {
        self.sanitizer.shared_access(w, pc, occurrence, addrs, is_store);
        if !is_store && self.checked[pc].is_some() {
            self.shared_reads.entry(pc).or_default().extend(addrs.iter().map(|&(_, a)| a / 4));
        }
    }

    fn barrier_release(&mut self) {
        self.sanitizer.barrier_release();
    }

    fn global_access(
        &mut self,
        w: usize,
        pc: usize,
        occurrence: u32,
        addrs: &[(u32, u64)],
        is_store: bool,
        is_atomic: bool,
    ) {
        self.gsan.global_access(w, pc, occurrence, addrs, is_store, is_atomic);
        if !is_store && self.checked[pc].is_some() {
            self.global_reads.entry(pc).or_default().extend(addrs.iter().map(|&(_, a)| a / 4));
        }
    }
}

/// The smallest of `words` that `tainted` accepts: the word a downgrade
/// names, independent of the set's iteration order.
fn min_tainted(words: &FastSet<u64>, tainted: impl Fn(u64) -> bool) -> Option<u64> {
    words.iter().copied().filter(|&w| tainted(w)).min()
}

/// Accumulated evidence against one static instruction.
struct Mismatch {
    code: LintCode,
    count: u64,
    example: String,
}

/// Runs the differential oracle over every threadblock of `launch`,
/// evolving `memory` exactly as a real launch would.
#[must_use]
pub fn check(ck: &CompiledKernel, launch: &LaunchConfig, mut memory: GlobalMemory) -> Diagnostics {
    let mut report = Diagnostics::new(ck.kernel.name.clone());
    let px = launch.promotes_conditional_redundancy();
    let py = promotes_tid_y(launch);
    let checked: Vec<Option<LintCode>> =
        (0..ck.kernel.instrs.len()).map(|pc| checked_kind(ck, pc, px, py)).collect();
    let has_shared = ck
        .kernel
        .instrs
        .iter()
        .any(|i| matches!(i.op, Op::Ld(MemSpace::Shared) | Op::St(MemSpace::Shared)));
    let has_global_hazard = blocks::has_global_hazard(ck, launch);
    if checked.iter().all(Option::is_none) && !has_shared && !has_global_hazard {
        return report;
    }
    let mut mismatches: HashMap<usize, Mismatch> = HashMap::new();
    // Dynamic races deduplicated by static pc pair across all TBs, with
    // the first observing TB kept for the message.
    let mut races: Vec<(Dim3, gpu_sim::SharedRace)> = Vec::new();
    let mut race_pairs: HashSet<(usize, usize)> = HashSet::new();
    // Checked pcs whose loads read a race-tainted shared word.
    let mut tainted_claims: HashMap<usize, (LintCode, u64)> = HashMap::new();
    // The global shadow lives across the whole launch: block replay
    // order is exactly what the sharded engine is free to permute.
    let mut gsan = GlobalRaceSanitizer::for_kernel(&ck.kernel);
    let mut global_reads: FastMap<usize, FastSet<u64>> = FastMap::default();

    for i in 0..launch.num_blocks() {
        let ctaid = ctaid_at(launch.grid, i);
        gsan.set_block(i);
        let mut obs = OracleObserver {
            checked: &checked,
            groups: GroupRecorder::new(launch),
            sanitizer: RaceSanitizer::new(launch.warp_size),
            shared_reads: FastMap::default(),
            gsan: &mut gsan,
            global_reads: &mut global_reads,
        };
        run_tb_functional(ck, launch, ctaid, &mut memory, &mut obs);

        for race in obs.sanitizer.races() {
            if race_pairs.insert((race.first_pc, race.second_pc)) {
                races.push((ctaid, *race));
            }
        }
        for (&pc, words) in &obs.shared_reads {
            if let Some(w) = min_tainted(words, |w| obs.sanitizer.is_tainted(w)) {
                tainted_claims.entry(pc).or_insert((checked[pc].expect("pc is checked"), w));
            }
        }

        // Sorted, so the first mismatch of a pc (its example) is its
        // earliest occurrence in this TB.
        let mut groups: Vec<_> = obs.groups.aligned().collect();
        groups.sort_unstable_by_key(|&(key, _)| key);
        for ((pc, occurrence), dsts) in groups {
            let leader = &dsts[0];
            for (w, dst) in dsts.iter().enumerate().skip(1) {
                if dst == leader {
                    continue;
                }
                let lane =
                    dst.iter().zip(leader).position(|(a, b)| a != b).expect("vectors differ");
                let entry = mismatches.entry(pc).or_insert_with(|| Mismatch {
                    code: checked[pc].expect("pc is checked"),
                    count: 0,
                    example: format!(
                        "TB ({},{},{}) occurrence {}: warp {} lane {} produced {:#x}, \
                         leader warp 0 produced {:#x}",
                        ctaid.x, ctaid.y, ctaid.z, occurrence, w, lane, dst[lane], leader[lane],
                    ),
                });
                entry.count += 1;
            }
        }
    }

    let mut pcs: Vec<usize> = mismatches.keys().copied().collect();
    pcs.sort_unstable();
    for pc in pcs {
        let m = &mismatches[&pc];
        let claim = match m.code {
            LintCode::UnsoundMarking => "is marked definitely redundant",
            _ => "was promoted by this launch's dimensionality check",
        };
        report.push(Diagnostic::new(
            m.code,
            Some(pc),
            format!(
                "`{}` {claim} but produced warp-divergent results ({} mismatching \
                 warp-occurrence pair(s); first: {})",
                ck.kernel.instrs[pc], m.count, m.example,
            ),
        ));
    }

    // Downgrade redundancy claims that read race-tainted words: matching
    // result vectors under a race only describe this replay's
    // interleaving, so the claim is unsound even without a mismatch.
    let mut pcs: Vec<usize> = tainted_claims.keys().copied().collect();
    pcs.sort_unstable();
    for pc in pcs {
        if mismatches.contains_key(&pc) {
            continue;
        }
        let (code, word) = tainted_claims[&pc];
        let claim = match code {
            LintCode::UnsoundMarking => "is marked definitely redundant",
            _ => "was promoted by this launch's dimensionality check",
        };
        report.push(Diagnostic::new(
            code,
            Some(pc),
            format!(
                "`{}` {claim} but reads shared word {word}, which a data race tainted; \
                 its value is interleaving-dependent and must not be shared across warps",
                ck.kernel.instrs[pc],
            ),
        ));
    }

    races.sort_by_key(|(_, r)| (r.first_pc, r.second_pc));
    for (ctaid, r) in races {
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
    // witness for the sharded engine's unsoundness under this launch.
    for r in gsan.races() {
        report.push(blocks::dynamic_race(r, launch.grid));
    }

    // Downgrade redundancy claims that read an inter-block-raced global
    // word: the replay visited blocks in one order of many, so the value
    // read — and hence the claim's matching vectors — is order-dependent.
    let mut pcs: Vec<usize> = global_reads.keys().copied().collect();
    pcs.sort_unstable();
    for pc in pcs {
        if mismatches.contains_key(&pc) || tainted_claims.contains_key(&pc) {
            continue;
        }
        let Some(word) = min_tainted(&global_reads[&pc], |w| gsan.is_tainted(w)) else {
            continue;
        };
        let code = checked[pc].expect("pc is checked");
        let claim = match code {
            LintCode::UnsoundMarking => "is marked definitely redundant",
            _ => "was promoted by this launch's dimensionality check",
        };
        report.push(Diagnostic::new(
            code,
            Some(pc),
            format!(
                "`{}` {claim} but reads global word {word}, which an inter-block data \
                 race tainted; its value depends on block replay order and must not be \
                 shared",
                ck.kernel.instrs[pc],
            ),
        ));
    }
    report
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

/// Measures the dynamic-redundancy headroom of the static skip plan:
/// replays every TB of `launch` and classifies each unskipped
/// register-writing pc by whether its aligned occurrence groups were in
/// fact warp-identical. `skippable` is the per-pc static plan (e.g.
/// `simt_compiler::LaunchPlan::skippable`); `memory` is consumed by the
/// replay.
///
/// # Panics
///
/// Panics if `skippable` is shorter than the kernel's instruction count.
#[must_use]
pub fn dynamic_headroom(
    ck: &CompiledKernel,
    launch: &LaunchConfig,
    skippable: &[bool],
    mut memory: GlobalMemory,
) -> Headroom {
    let n = ck.kernel.instrs.len();
    assert!(skippable.len() >= n, "one skippable flag per instruction required");
    // dyn_red[pc]: Some(true) while every aligned group matched so far.
    let mut dyn_red: Vec<Option<bool>> = vec![None; n];
    for i in 0..launch.num_blocks() {
        let ctaid = ctaid_at(launch.grid, i);
        let mut groups = GroupRecorder::new(launch);
        run_tb_functional(ck, launch, ctaid, &mut memory, &mut groups);
        for ((pc, _occ), dsts) in groups.aligned() {
            let all_match = dsts.iter().all(|d| *d == dsts[0]);
            let e = dyn_red[pc].get_or_insert(true);
            *e = *e && all_match;
        }
    }
    let mut headroom = Headroom::default();
    for pc in 0..n {
        let op = ck.kernel.instrs[pc].op;
        if !op.writes_dst() || matches!(op, Op::Atom(_)) || skippable[pc] {
            continue;
        }
        match dyn_red[pc] {
            Some(true) => headroom.dynamically_redundant.push(pc),
            None => headroom.never_aligned.push(pc),
            Some(false) => {}
        }
    }
    headroom
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
        let h = dynamic_headroom(&ck, &launch, &plan.skippable, mem);
        assert!(h.dynamically_redundant.contains(&add_pc), "{h:?}");
        assert!(h.never_aligned.is_empty(), "{h:?}");
    }

    #[test]
    fn headroom_is_zero_when_the_plan_already_skips_everything_uniform() {
        let ck = copy_kernel();
        let (launch, mem, _, _) = copy_launch(&ck);
        let plan = simt_compiler::LaunchPlan::new(&ck, &launch);
        let h = dynamic_headroom(&ck, &launch, &plan.skippable, mem);
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
}
