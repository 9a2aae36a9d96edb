//! The TB-redundancy dataflow analysis (paper Section 4.2).
//!
//! A forward, iterative dataflow over the CFG tracks an [`AbsClass`] for
//! every general register and predicate. Seeds follow the paper:
//! immediates, `ctaid.*`, `ntid.*`, `nctaid.*` and kernel parameters are
//! *definitely redundant*; `tid.x` is *conditionally redundant* (affine);
//! everything else is vector. Classes propagate through the
//! program-dependence structure: an instruction's class is the lattice meet
//! of its source operands (weakest definition wins, as the paper
//! specifies), loads take the redundancy of their address, and predicated
//! instructions additionally meet their guard predicate and the previous
//! value of their destination.
//!
//! The analysis assumes warps of a TB proceed in lockstep; the DARSIE
//! hardware (majority-path tracking, branch synchronization and register
//! versioning) provides that illusion at runtime.

use crate::cfg::Cfg;
use crate::class::{AbsClass, Pat, Red};
use simt_isa::{Instruction, Kernel, Op, Operand, SpecialReg};

/// Options controlling the analysis.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisOptions {
    /// Also treat `tid.y` as conditionally redundant (the paper's 3D-TB
    /// extension, Section 2). Such values need *both* launch-time checks to
    /// pass before promotion.
    pub analyze_tid_y: bool,
    /// Seed entry registers and predicates as uniform instead of vector.
    /// Sound for this machine: warps zero-initialize both files, so a
    /// read-before-write observes the same value in every lane of every
    /// warp of the TB.
    pub entry_uniform: bool,
    /// Refine register classes on branch edges: on the edge where
    /// `setp.eq r, <uniform>` is known to hold, `r` equals a TB-uniform
    /// value in every lane that took the edge. The marking this justifies
    /// is checked by the oracle only at warp-aligned occurrences — exactly
    /// the states where the whole TB took that edge — so the upgrade to
    /// uniform is sound for the skip semantics.
    pub branch_edge_refine: bool,
}

/// Dataflow state: one class per general register and per predicate, plus
/// (for branch-edge refinement) the comparison that defined each predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    regs: Vec<AbsClass>,
    preds: Vec<AbsClass>,
    /// For each predicate still holding the result of an unguarded
    /// `setp cmp r, <uniform>` with `r` unredefined since: `(cmp, r)`.
    pred_src: Vec<Option<(simt_isa::CmpOp, simt_isa::Reg)>>,
}

impl State {
    fn bottom(num_regs: usize, num_preds: usize) -> State {
        State {
            regs: vec![AbsClass::VECTOR; num_regs],
            preds: vec![AbsClass::VECTOR; num_preds],
            pred_src: vec![None; num_preds],
        }
    }

    fn top(num_regs: usize, num_preds: usize) -> State {
        State {
            regs: vec![AbsClass::TOP; num_regs],
            preds: vec![AbsClass::TOP; num_preds],
            pred_src: vec![None; num_preds],
        }
    }

    fn uniform_entry(num_regs: usize, num_preds: usize) -> State {
        State {
            regs: vec![AbsClass::UNIFORM; num_regs],
            preds: vec![AbsClass::UNIFORM; num_preds],
            pred_src: vec![None; num_preds],
        }
    }

    fn meet_with(&mut self, other: &State) -> bool {
        let mut changed = false;
        for (a, b) in self.regs.iter_mut().zip(&other.regs) {
            let m = a.meet(*b);
            if m != *a {
                *a = m;
                changed = true;
            }
        }
        for (a, b) in self.preds.iter_mut().zip(&other.preds) {
            let m = a.meet(*b);
            if m != *a {
                *a = m;
                changed = true;
            }
        }
        for (a, b) in self.pred_src.iter_mut().zip(&other.pred_src) {
            if *a != *b && a.is_some() {
                *a = None;
                changed = true;
            }
        }
        changed
    }

    fn reg(&self, r: simt_isa::Reg) -> AbsClass {
        self.regs[r.index()]
    }

    fn pred(&self, p: simt_isa::Pred) -> AbsClass {
        self.preds[p.index()]
    }

    fn operand(&self, o: Operand) -> AbsClass {
        match o {
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(_) => AbsClass::UNIFORM,
        }
    }
}

/// Result of the analysis.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Per-instruction class: the meet of all source operands and the
    /// guard. This drives both the static marking and the per-class
    /// attribution in the paper's figures.
    pub instr_class: Vec<AbsClass>,
}

/// Seed class for a special register read.
fn special_class(s: SpecialReg, opts: AnalysisOptions) -> AbsClass {
    if s.is_tb_uniform() {
        return AbsClass::UNIFORM;
    }
    match s {
        SpecialReg::TidX => AbsClass::COND_AFFINE,
        SpecialReg::TidY if opts.analyze_tid_y => {
            AbsClass { red: Red::CondRedundantXY, pat: Pat::Arbitrary }
        }
        // Lane id is identical (0..warp_size) in every warp: always
        // redundant and affine.
        SpecialReg::LaneId => AbsClass { red: Red::Redundant, pat: Pat::Affine },
        // Warp id is uniform within a warp but differs across warps.
        SpecialReg::WarpId => AbsClass { red: Red::NotRedundant, pat: Pat::Uniform },
        _ => AbsClass::VECTOR,
    }
}

/// Class of the value computed by `instr` (before merging with the guard or
/// the old destination), given operand classes.
fn value_class(instr: &Instruction, st: &State, opts: AnalysisOptions) -> AbsClass {
    let src = |i: usize| st.operand(instr.srcs[i]);
    let red_of_all =
        || instr.srcs.iter().map(|&o| st.operand(o).red).fold(Red::Redundant, Red::meet);
    match instr.op {
        Op::S2R(s) => special_class(s, opts),
        Op::Mov => src(0),
        // Linear combinations preserve affinity.
        Op::IAdd | Op::ISub | Op::FAdd | Op::FSub => {
            AbsClass { red: red_of_all(), pat: src(0).pat.linear(src(1).pat) }
        }
        // Products: affine x uniform stays affine.
        Op::IMul | Op::FMul => AbsClass { red: red_of_all(), pat: src(0).pat.product(src(1).pat) },
        Op::IMad | Op::FFma => {
            AbsClass { red: red_of_all(), pat: src(0).pat.product(src(1).pat).linear(src(2).pat) }
        }
        // A left shift by a uniform amount scales the stride.
        Op::Shl => AbsClass {
            red: red_of_all(),
            pat: if src(1).pat == Pat::Uniform { src(0).pat } else { Pat::Arbitrary },
        },
        // Conversions preserve the pattern (DAC's affine-stream treatment).
        Op::I2F | Op::F2I => AbsClass { red: src(0).red, pat: src(0).pat },
        // One-source opaque ops.
        Op::Not | Op::FRcp | Op::FSqrt | Op::FExp2 | Op::FLog2 => AbsClass {
            red: src(0).red,
            pat: if src(0).pat == Pat::Uniform { Pat::Uniform } else { Pat::Arbitrary },
        },
        // Two-source opaque ops.
        Op::IMulHi
        | Op::Shr
        | Op::Sra
        | Op::And
        | Op::Or
        | Op::Xor
        | Op::IMin
        | Op::IMax
        | Op::FMin
        | Op::FMax
        | Op::FDiv => AbsClass { red: red_of_all(), pat: src(0).pat.opaque(src(1).pat) },
        Op::Setp(_) | Op::SetpF(_) => {
            AbsClass { red: red_of_all(), pat: src(0).pat.opaque(src(1).pat) }
        }
        Op::Sel(p) => {
            let pc = st.pred(p);
            let red = red_of_all().meet(pc.red);
            let pat =
                if pc.pat == Pat::Uniform { src(0).pat.meet(src(1).pat) } else { Pat::Arbitrary };
            AbsClass { red, pat }
        }
        Op::Ld(_) => {
            let addr = src(0);
            AbsClass {
                red: addr.red,
                // A uniform address loads the same word into every lane
                // (an immediate one, as every parameter read by name, is
                // uniform); distinct addresses load arbitrary data.
                pat: if addr.pat == Pat::Uniform { Pat::Uniform } else { Pat::Arbitrary },
            }
        }
        // Atomics return a unique old value per executing thread.
        Op::Atom(_) => AbsClass::VECTOR,
        // No produced value; class used for attribution only.
        Op::St(_) => AbsClass { red: red_of_all(), pat: Pat::Arbitrary },
        Op::Bra { .. } | Op::Bar | Op::Exit => AbsClass::UNIFORM,
    }
}

/// Applies `instr` to the state, returning the instruction's class (meet of
/// sources and guard).
fn transfer(instr: &Instruction, st: &mut State, opts: AnalysisOptions) -> AbsClass {
    let guard_class = instr.guard.map(|g| st.pred(g.pred));
    let mut vclass = value_class(instr, st, opts);
    // The class attributed to the *instruction*: its sources plus guard.
    let mut iclass = instr.srcs.iter().map(|&o| st.operand(o)).fold(vclass, AbsClass::meet);
    if let Op::Sel(p) = instr.op {
        iclass = iclass.meet(st.pred(p));
    }
    if let Some(g) = guard_class {
        iclass = iclass.meet(g);
        vclass = vclass.meet(g);
        // Guard-false lanes keep the old destination, so both the produced
        // value and the skip decision must fold in the previous contents.
        if let Some(d) = instr.dst {
            iclass = iclass.meet(st.reg(d));
        }
        if let Some(p) = instr.pdst {
            iclass = iclass.meet(st.pred(p));
        }
    }
    if let Some(d) = instr.dst {
        // A guarded write merges with the previous contents in lanes where
        // the guard is false.
        let newc = if guard_class.is_some() { vclass.meet(st.reg(d)) } else { vclass };
        st.regs[d.index()] = newc;
        // The compared register changed: its predicates no longer
        // describe it.
        for ps in &mut st.pred_src {
            if ps.is_some_and(|(_, r)| r == d) {
                *ps = None;
            }
        }
    }
    if let Some(p) = instr.pdst {
        let newc = if guard_class.is_some() { vclass.meet(st.pred(p)) } else { vclass };
        st.preds[p.index()] = newc;
        st.pred_src[p.index()] = match (instr.op, instr.srcs[0], instr.guard) {
            (Op::Setp(cmp), Operand::Reg(r), None)
                if st.operand(instr.srcs[1]) == AbsClass::UNIFORM =>
            {
                Some((cmp, r))
            }
            _ => None,
        };
    }
    iclass
}

/// On a branch edge where predicate `p` is known to be `polarity`, an
/// equality comparison against a uniform value pins the compared register
/// to that uniform value for every lane taking the edge.
fn refine_edge(st: &mut State, p: simt_isa::Pred, polarity: bool) {
    let Some((cmp, r)) = st.pred_src[p.index()] else { return };
    let equality_holds =
        matches!((cmp, polarity), (simt_isa::CmpOp::Eq, true) | (simt_isa::CmpOp::Ne, false));
    if equality_holds {
        st.regs[r.index()] = AbsClass::UNIFORM;
    }
}

/// A divergent region as a block where its threads merge sees it: the
/// two-way branch, and the registers and predicates written between the
/// branch and its immediate post-dominator.
struct Merge {
    branch: usize,
    regs: Vec<usize>,
    preds: Vec<usize>,
}

/// For each block, the regions whose threads merge there: at the
/// branch's join, and at any block both of its legs reach before it
/// (unstructured paths). Only the threads that took a path wrote its
/// registers, so at a merge they mix per thread as the branch condition
/// does.
fn divergent_regions(kernel: &Kernel, cfg: &Cfg) -> Vec<Vec<Merge>> {
    let nb = cfg.len();
    let mut merges: Vec<Vec<Merge>> = (0..nb).map(|_| Vec::new()).collect();
    for br in &cfg.branches {
        let (mut regs, mut preds) = (Vec::new(), Vec::new());
        for x in (0..nb).filter(|&x| br.in_region(x)) {
            for i in &kernel.instrs[cfg.blocks[x].range()] {
                regs.extend(i.dst.map(|d| d.index()));
                preds.extend(i.pdst.map(|p| p.index()));
            }
        }
        let [r0, r1] = &br.legs;
        for m in (0..nb).filter(|&m| m == br.join || (r0[m] && r1[m])) {
            merges[m].push(Merge { branch: br.block, regs: regs.clone(), preds: preds.clone() });
        }
    }
    merges
}

/// Folds each merging region's condition class (`cond`, by branch block)
/// into the registers and predicates it wrote. A pattern survives only a
/// uniform condition.
fn merge_taint(st: &mut State, merges: &[Merge], cond: &[AbsClass]) {
    for m in merges {
        let c = cond[m.branch];
        let pat = if c.pat == Pat::Uniform { Pat::Uniform } else { Pat::Arbitrary };
        let t = AbsClass { red: c.red, pat };
        for &r in &m.regs {
            st.regs[r] = st.regs[r].meet(t);
        }
        for &p in &m.preds {
            st.preds[p] = st.preds[p].meet(t);
        }
    }
}

/// Runs the analysis to a fixed point and returns per-instruction classes.
#[must_use]
pub fn analyze(kernel: &Kernel, cfg: &Cfg, opts: AnalysisOptions) -> Analysis {
    let nr = usize::from(kernel.num_regs);
    let np = usize::from(simt_isa::reg::NUM_PREDS);
    let nb = cfg.len();

    let mut ins: Vec<State> = vec![State::top(nr, np); nb];
    ins[0] = if opts.entry_uniform { State::uniform_entry(nr, np) } else { State::bottom(nr, np) };

    let regions = divergent_regions(kernel, cfg);
    // The condition class of each two-way branch, as the states fall.
    let mut cond = vec![AbsClass::TOP; nb];
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &cfg.rpo {
            let mut st = ins[b].clone();
            merge_taint(&mut st, &regions[b], &cond);
            for pc in cfg.blocks[b].range() {
                let _ = transfer(&kernel.instrs[pc], &mut st, opts);
            }
            let guard = cfg.branch(b).and_then(|br| kernel.instrs[br.pc].guard);
            if let Some(g) = guard {
                let c = cond[b].meet(st.pred(g.pred));
                changed |= c != cond[b];
                cond[b] = c;
            }
            for (i, &s) in cfg.blocks[b].succs.iter().enumerate() {
                let mut out = st.clone();
                if let (true, Some(g)) = (opts.branch_edge_refine, guard) {
                    // succs[0] is the taken edge: the guard accepted.
                    let polarity = if i == 0 { !g.negate } else { g.negate };
                    refine_edge(&mut out, g.pred, polarity);
                }
                if ins[s].meet_with(&out) {
                    changed = true;
                }
            }
        }
    }

    // Final pass: record per-instruction classes from the stable block-in
    // states.
    let mut instr_class = vec![AbsClass::VECTOR; kernel.instrs.len()];
    for (b, block_in) in ins.iter().enumerate().take(nb) {
        let mut st = block_in.clone();
        merge_taint(&mut st, &regions[b], &cond);
        for pc in cfg.blocks[b].range() {
            instr_class[pc] = transfer(&kernel.instrs[pc], &mut st, opts);
        }
    }
    Analysis { instr_class }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::Taxonomy;
    use simt_isa::{CmpOp, Guard, KernelBuilder, Marking, MemSpace, SpecialReg};

    fn classes(k: &Kernel) -> Vec<AbsClass> {
        let cfg = Cfg::build(k);
        analyze(k, &cfg, AnalysisOptions::default()).instr_class
    }

    /// The paper's Figure 3 kernel: load `in[tid.x]` from an array.
    fn fig3_kernel() -> Kernel {
        let mut b = KernelBuilder::new("fig3");
        let t = b.special(SpecialReg::TidX); // 0: s2r  (cond affine)
        let r1 = b.imul(t, 4u32); // 1: mul  (cond affine)
        let r2 = b.iadd(r1, 10u32); // 2: add  (cond affine)
        let v = b.load(MemSpace::Global, r2, 0); // 3: ld  (cond unstructured)
        b.store(MemSpace::Global, 0u32, v, 0); // 4: st
        b.finish()
    }

    #[test]
    fn fig3_address_chain_is_conditionally_redundant_affine() {
        let k = fig3_kernel();
        let c = classes(&k);
        assert_eq!(c[0].red, Red::CondRedundant, "tid.x");
        assert_eq!(c[0].pat, Pat::Affine);
        assert_eq!(c[1].red, Red::CondRedundant, "tid.x * 4");
        assert_eq!(c[1].pat, Pat::Affine);
        assert_eq!(c[2].red, Red::CondRedundant, "addr + 10");
        assert_eq!(c[2].pat, Pat::Affine);
    }

    #[test]
    fn fig3_load_from_conditional_address_is_conditional_unstructured() {
        let k = fig3_kernel();
        let c = classes(&k);
        // Promoted (2D launch): becomes unstructured redundant — exactly
        // the paper's R3.
        assert_eq!(c[3].finalize(true, false).taxonomy(), Taxonomy::Unstructured);
        // Not promoted (1D launch): plain vector.
        assert_eq!(c[3].finalize(false, false).taxonomy(), Taxonomy::NonRedundant);
    }

    #[test]
    fn uniform_seeds_stay_uniform() {
        let mut b = KernelBuilder::new("u");
        let c0 = b.special(SpecialReg::CtaidX);
        let n = b.special(SpecialReg::NtidX);
        let x = b.imad(c0, n, 7u32);
        let p = b.param(0);
        let y = b.iadd(x, p);
        b.store(MemSpace::Global, y, y, 0);
        let k = b.finish();
        let c = classes(&k);
        for (pc, cls) in c.iter().enumerate().take(5) {
            assert_eq!(cls.marking(), Marking::Redundant, "pc {pc}: {cls:?}");
            assert_eq!(cls.taxonomy(), Taxonomy::Uniform);
        }
    }

    /// A parameter word read at a warp-dependent address differs across
    /// warps, so nothing computed from it is definitely redundant.
    #[test]
    fn param_loads_take_their_address_class() {
        let mut b = KernelBuilder::new("param_by_warp");
        let w = b.special(SpecialReg::WarpId);
        let off = b.shl_imm(w, 2);
        let v = b.load(MemSpace::Param, off, 0);
        let y = b.iadd(v, 5u32);
        b.store(MemSpace::Global, 0u32, y, 0);
        let ck = crate::compile(b.finish());
        let add = ck.kernel.instrs.iter().position(|i| i.op == Op::IAdd).unwrap();
        assert_ne!(ck.markings[add], Marking::Redundant);
        let by_name = {
            let mut b = KernelBuilder::new("param_by_name");
            let p = b.param(1);
            b.store(MemSpace::Global, 0u32, p, 0);
            classes(&b.finish())
        };
        assert_eq!(by_name[0], AbsClass::UNIFORM, "an immediate address is uniform");
    }

    #[test]
    fn vector_seed_poisons_dependents() {
        let mut b = KernelBuilder::new("v");
        let ty = b.special(SpecialReg::TidY); // vector (no tid.y analysis)
        let x = b.iadd(ty, 1u32);
        let tx = b.special(SpecialReg::TidX);
        let y = b.iadd(x, tx); // vector meets cond => vector
        b.store(MemSpace::Global, y, y, 0);
        let k = b.finish();
        let c = classes(&k);
        assert_eq!(c[0].marking(), Marking::Vector);
        assert_eq!(c[1].marking(), Marking::Vector);
        assert_eq!(c[2].marking(), Marking::ConditionallyRedundant);
        assert_eq!(c[3].marking(), Marking::Vector, "weakest definition wins");
    }

    #[test]
    fn tid_y_extension_seeds_conditionally() {
        let mut b = KernelBuilder::new("ty");
        let ty = b.special(SpecialReg::TidY);
        b.store(MemSpace::Global, 0u32, ty, 0);
        let k = b.finish();
        let cfg = Cfg::build(&k);
        let off = analyze(&k, &cfg, AnalysisOptions::default()).instr_class;
        assert_eq!(off[0].red, Red::NotRedundant);
        let on = analyze(
            &k,
            &cfg,
            AnalysisOptions { analyze_tid_y: true, ..AnalysisOptions::default() },
        )
        .instr_class;
        assert_eq!(on[0].red, Red::CondRedundantXY);
        // XY-conditional values need both checks.
        assert_eq!(on[0].finalize(true, false).red, Red::NotRedundant);
        assert_eq!(on[0].finalize(true, true).red, Red::Redundant);
    }

    #[test]
    fn lane_id_is_always_redundant_affine() {
        let mut b = KernelBuilder::new("l");
        let l = b.special(SpecialReg::LaneId);
        b.store(MemSpace::Global, 0u32, l, 0);
        let k = b.finish();
        let c = classes(&k);
        assert_eq!(c[0].red, Red::Redundant);
        assert_eq!(c[0].pat, Pat::Affine);
    }

    #[test]
    fn affine_times_affine_degrades_to_unstructured() {
        let mut b = KernelBuilder::new("aa");
        let t = b.special(SpecialReg::TidX);
        let sq = b.imul(t, t);
        b.store(MemSpace::Global, sq, sq, 0);
        let k = b.finish();
        let c = classes(&k);
        assert_eq!(c[1].red, Red::CondRedundant, "still redundant across warps");
        assert_eq!(c[1].pat, Pat::Arbitrary, "but no longer affine");
    }

    #[test]
    fn guarded_write_merges_with_old_value() {
        let mut b = KernelBuilder::new("g");
        let t = b.special(SpecialReg::TidX);
        let p = b.setp(CmpOp::Lt, t, 4u32); // cond-redundant predicate
        let ty = b.special(SpecialReg::TidY); // vector
        let pv = b.setp(CmpOp::Lt, ty, 4u32); // vector predicate
        let dst = b.mov(7u32); // uniform
                               // Vector-guarded write of a uniform value: dst becomes vector.
        b.emit(
            simt_isa::Instruction::new(
                simt_isa::Op::Mov,
                Some(dst),
                None,
                vec![simt_isa::Operand::Imm(3)],
            )
            .with_guard(Guard::if_true(pv)),
        );
        let out = b.iadd(dst, 0u32);
        b.store(MemSpace::Global, 0u32, out, 0);
        let _ = p;
        let k = b.finish();
        let c = classes(&k);
        let add_pc = 6;
        assert_eq!(c[add_pc].marking(), Marking::Vector, "guard poisons destination");
    }

    #[test]
    fn cond_guard_keeps_conditional() {
        let mut b = KernelBuilder::new("g2");
        let t = b.special(SpecialReg::TidX);
        let p = b.setp(CmpOp::Lt, t, 4u32);
        let dst = b.mov(7u32);
        b.emit(
            simt_isa::Instruction::new(
                simt_isa::Op::Mov,
                Some(dst),
                None,
                vec![simt_isa::Operand::Imm(3)],
            )
            .with_guard(Guard::if_true(p)),
        );
        let out = b.iadd(dst, 0u32);
        b.store(MemSpace::Global, 0u32, out, 0);
        let k = b.finish();
        let c = classes(&k);
        assert_eq!(c[4].marking(), Marking::ConditionallyRedundant);
    }

    #[test]
    fn join_meets_both_paths() {
        let mut b = KernelBuilder::new("j");
        let t = b.special(SpecialReg::TidX);
        let p = b.setp(CmpOp::Lt, t, 4u32);
        let out = b.alloc();
        b.if_then_else(
            Guard::if_true(p),
            |b| b.mov_to(out, 1u32),
            |b| {
                let ty = b.special(SpecialReg::TidY);
                b.mov_to(out, ty);
            },
        );
        let use_pc_val = b.iadd(out, 0u32);
        b.store(MemSpace::Global, 0u32, use_pc_val, 0);
        let k = b.finish();
        let c = classes(&k);
        let add_pc = k.len() - 3;
        assert!(matches!(k.instrs[add_pc].op, Op::IAdd));
        assert_eq!(c[add_pc].marking(), Marking::Vector, "vector path poisons the join");
    }

    #[test]
    fn loop_fixed_point_converges_and_poisons_accumulator() {
        let mut b = KernelBuilder::new("lp");
        let t = b.special(SpecialReg::TidY); // vector
        let acc = b.mov(0u32); // starts uniform
        b.do_while(|b| {
            b.iadd_to(acc, acc, t); // acc += vector
            let p = b.setp(CmpOp::Lt, acc, 100u32);
            Guard::if_true(p)
        });
        b.store(MemSpace::Global, 0u32, acc, 0);
        let k = b.finish();
        let c = classes(&k);
        let store_pc = k.instrs.iter().position(|i| i.op.is_store()).unwrap();
        assert_eq!(c[store_pc].marking(), Marking::Vector);
    }

    #[test]
    fn loop_preserves_redundant_accumulator() {
        // An accumulator fed only by redundant values stays redundant
        // around the back edge (like the MM inner loop's address updates).
        let mut b = KernelBuilder::new("lp2");
        let t = b.special(SpecialReg::TidX);
        let acc = b.shl_imm(t, 2); // cond affine
        let i = b.mov(0u32);
        let p = b.alloc_pred();
        b.do_while(|b| {
            b.iadd_to(acc, acc, 0x80u32); // stays cond affine
            b.iadd_to(i, i, 1u32);
            b.setp_to(p, CmpOp::Lt, i, 8u32);
            Guard::if_true(p)
        });
        b.store(MemSpace::Global, acc, acc, 0);
        let k = b.finish();
        let c = classes(&k);
        let upd_pc = 3;
        assert!(matches!(k.instrs[upd_pc].op, Op::IAdd));
        assert_eq!(c[upd_pc].marking(), Marking::ConditionallyRedundant);
        assert_eq!(c[upd_pc].pat, Pat::Affine);
    }

    #[test]
    fn shared_load_from_redundant_address() {
        let mut b = KernelBuilder::new("sm");
        let t = b.special(SpecialReg::TidX);
        let a = b.shl_imm(t, 2);
        let v = b.load(MemSpace::Shared, a, 0);
        b.store(MemSpace::Global, a, v, 0);
        let k = b.finish();
        let c = classes(&k);
        assert_eq!(c[2].red, Red::CondRedundant);
        assert_eq!(c[2].finalize(true, false).taxonomy(), Taxonomy::Unstructured);
    }

    #[test]
    fn atom_is_vector() {
        let mut b = KernelBuilder::new("at");
        let old = b.atom(simt_isa::AtomOp::Add, 0u32, 1u32);
        b.store(MemSpace::Global, 4u32, old, 0);
        let k = b.finish();
        let c = classes(&k);
        assert_eq!(c[1].marking(), Marking::Vector);
    }
}
