//! Marking-precision refinement over a [`CompiledKernel`].
//!
//! The baseline analysis of [`crate::analysis`] deliberately mirrors the
//! paper's compiler pass. This module layers the PR-3 precision upgrades on
//! top of it and re-derives markings from the strengthened classes:
//!
//! 1. **Entry-uniform seeding** — the machine zero-initializes register and
//!    predicate files, so a read-before-write is TB-uniform rather than
//!    vector ([`AnalysisOptions::entry_uniform`]).
//! 2. **Branch-edge refinement** — on the edge where `setp.eq r, <uniform>`
//!    holds, `r` is pinned to a TB-uniform value
//!    ([`AnalysisOptions::branch_edge_refine`]).
//! 3. **`tid.y` conditional analysis** — the paper's 3D-TB extension,
//!    promoting `tid.y`-derived values to `CondRedundantXY`
//!    ([`AnalysisOptions::analyze_tid_y`]).
//! 4. **Affine closure** — the affine-interval dataflow of
//!    [`crate::affine`] tracks values as `a*tid.x + b*tid.y + c` with a
//!    TB-uniform `c`; a destination whose post-write abstraction has
//!    `a = b = 0` is TB-uniform, `b = 0` is conditionally redundant affine
//!    in `tid.x`, and any other affine form is `CondRedundantXY`. This
//!    catches idioms the class lattice alone cannot, e.g. a `min`/`max` of
//!    two operands with equal thread coefficients, or tid terms that
//!    cancel through subtraction.
//!
//! Each pass only ever *raises* a class in the `(Red, Pat)` order, so the
//! refined markings are a pointwise superset of the baseline markings; the
//! differential marking oracle in `simt-verify` checks the result on real
//! executions.

use crate::affine::{AffineVal, Clamps, Flow, GridCtx};
use crate::analysis::{analyze, AnalysisOptions};
use crate::class::AbsClass;
use crate::pass::CompiledKernel;
use simt_isa::Op;

/// Why a class was raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineReason {
    /// Entry-uniform seeding of the zero-initialized register files.
    EntryUniform,
    /// Branch-edge equality refinement against a uniform value.
    BranchEdge,
    /// `tid.y` tracked as conditionally redundant (3D-TB extension).
    TidY,
    /// Affine-interval closure over both tid dimensions.
    AffineClosure,
}

impl std::fmt::Display for RefineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RefineReason::EntryUniform => "entry-uniform",
            RefineReason::BranchEdge => "branch-edge",
            RefineReason::TidY => "tid-y",
            RefineReason::AffineClosure => "affine-closure",
        };
        f.write_str(s)
    }
}

/// One instruction whose class the refinement raised.
#[derive(Debug, Clone, Copy)]
pub struct Upgrade {
    /// Instruction index.
    pub pc: usize,
    /// Baseline class.
    pub from: AbsClass,
    /// Refined class.
    pub to: AbsClass,
    /// The first pass that improved on the baseline at this pc.
    pub reason: RefineReason,
}

/// A re-marked kernel plus the per-instruction upgrades that justify it.
#[derive(Debug, Clone)]
pub struct Refined {
    /// The kernel with refined classes and markings.
    pub ck: CompiledKernel,
    /// Strict class raises relative to the baseline, in pc order.
    pub upgrades: Vec<Upgrade>,
}

/// Pointwise join in the `(Red, Pat)` order: keep the stronger claim of
/// two individually sound analyses.
fn join(a: AbsClass, b: AbsClass) -> AbsClass {
    AbsClass { red: a.red.max(b.red), pat: a.pat.max(b.pat) }
}

/// True when `b` claims strictly more than `a` in at least one dimension.
fn raises(a: AbsClass, b: AbsClass) -> bool {
    join(a, b) != a
}

/// Classes from the affine-interval closure: for each register-writing
/// instruction, the post-write abstraction of its destination (which folds
/// in guard hulls), mapped into the class lattice. Only a shared constant
/// claims anything across warps: a value whose threads may each hold
/// their own constant gets no class.
fn affine_classes(ck: &CompiledKernel, block_z: u32) -> Vec<Option<AbsClass>> {
    let flow = Flow::solve(&ck.kernel, &ck.cfg, GridCtx::generic(block_z), true, &Clamps::new());
    let mut classes: Vec<Option<AbsClass>> = vec![None; ck.kernel.instrs.len()];
    flow.replay(|pc, _, wrote| {
        let op = ck.kernel.instrs[pc].op;
        let (Some(AffineVal::Aff(f)), true) =
            (wrote, op.writes_dst() && !matches!(op, Op::Atom(_)))
        else {
            return;
        };
        if !f.c_uniform() {
            return;
        }
        classes[pc] = Some(if f.is_uniform() {
            AbsClass::UNIFORM
        } else if f.b == 0 {
            AbsClass::COND_AFFINE
        } else {
            // Mixed tid.x/tid.y dependence: redundant only when both
            // launch checks pass, with no intra-warp structure claimed
            // (matches the tid.y seeding of the class analysis).
            AbsClass { red: crate::class::Red::CondRedundantXY, pat: crate::class::Pat::Arbitrary }
        });
    });
    classes
}

/// Runs every refinement pass over `ck` and returns the re-marked kernel.
/// `block_z` is the launch's z extent (the affine domain only speaks 2D
/// blocks, so `tid.z` reads poison affine values when `block_z > 1`).
#[must_use]
pub fn refine(ck: &CompiledKernel, block_z: u32) -> Refined {
    let base = AnalysisOptions::default();
    let stages: [(RefineReason, AnalysisOptions); 3] = [
        (RefineReason::EntryUniform, AnalysisOptions { entry_uniform: true, ..base }),
        (
            RefineReason::BranchEdge,
            AnalysisOptions { entry_uniform: true, branch_edge_refine: true, ..base },
        ),
        (
            RefineReason::TidY,
            AnalysisOptions { entry_uniform: true, branch_edge_refine: true, analyze_tid_y: true },
        ),
    ];

    let n = ck.kernel.instrs.len();
    let mut classes = ck.classes.clone();
    let mut reasons: Vec<Option<RefineReason>> = vec![None; n];
    for (reason, opts) in stages {
        let a = analyze(&ck.kernel, &ck.cfg, opts);
        for (pc, &c) in a.instr_class.iter().enumerate() {
            if raises(classes[pc], c) {
                classes[pc] = join(classes[pc], c);
                reasons[pc].get_or_insert(reason);
            }
        }
    }
    for (pc, c) in affine_classes(ck, block_z).into_iter().enumerate() {
        let Some(c) = c else { continue };
        if raises(classes[pc], c) {
            classes[pc] = join(classes[pc], c);
            reasons[pc].get_or_insert(RefineReason::AffineClosure);
        }
    }

    let upgrades: Vec<Upgrade> = (0..n)
        .filter_map(|pc| {
            reasons[pc].map(|reason| Upgrade { pc, from: ck.classes[pc], to: classes[pc], reason })
        })
        .collect();

    let markings = classes.iter().map(|c| c.marking()).collect();
    let mut refined = ck.clone();
    refined.classes = classes;
    refined.markings = markings;
    Refined { ck: refined, upgrades }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{Pat, Red};
    use crate::pass::{compile, LaunchPlan};
    use simt_isa::{
        CmpOp, Guard, Instruction, KernelBuilder, LaunchConfig, Marking, MemSpace, Operand,
        SpecialReg,
    };

    #[test]
    fn entry_uniform_upgrades_read_before_write() {
        // A guarded mov into a never-written register: the baseline folds
        // in the old (vector-seeded) contents; refined, the entry value is
        // the zero-initialized uniform.
        let mut b = KernelBuilder::new("entry");
        let t = b.special(SpecialReg::TidX);
        let p = b.setp(CmpOp::Lt, t, 8u32);
        let dst = b.alloc();
        b.emit(
            Instruction::new(simt_isa::Op::Mov, Some(dst), None, vec![Operand::Imm(7)])
                .with_guard(Guard::if_true(p)),
        );
        let y = b.iadd(dst, 5u32);
        b.store(MemSpace::Global, 0u32, y, 0);
        let ck = compile(b.finish());
        let r = refine(&ck, 1);
        let add_pc = 3;
        assert_eq!(ck.markings[add_pc], Marking::Vector);
        assert_eq!(r.ck.markings[add_pc], Marking::ConditionallyRedundant);
        assert!(r
            .upgrades
            .iter()
            .any(|u| u.pc == add_pc && u.reason == RefineReason::EntryUniform));
    }

    #[test]
    fn branch_edge_pins_equality_compared_register() {
        // v is vector-classed (warpid-derived); inside `if (v == 42)` it
        // equals the uniform 42, so v-derived values are redundant there.
        let mut b = KernelBuilder::new("edge");
        let t = b.special(SpecialReg::TidX);
        let a = b.shl_imm(t, 2);
        let w = b.special(SpecialReg::WarpId);
        let vl = b.load(MemSpace::Global, a, 0);
        let v = b.iadd(vl, w);
        let p = b.setp(CmpOp::Eq, v, 42u32);
        let out = b.alloc();
        b.if_then(Guard::if_true(p), |b| {
            b.iadd_to(out, v, 1u32);
        });
        b.store(MemSpace::Global, a, out, 0);
        let ck = compile(b.finish());
        let r = refine(&ck, 1);
        let add_pc =
            ck.kernel.instrs.iter().rposition(|i| matches!(i.op, simt_isa::Op::IAdd)).unwrap();
        assert_eq!(ck.markings[add_pc], Marking::Vector);
        assert_eq!(r.ck.markings[add_pc], Marking::Redundant);
        assert!(r.upgrades.iter().any(|u| u.pc == add_pc && u.reason == RefineReason::BranchEdge));
    }

    #[test]
    fn affine_closure_cancels_tid_terms() {
        // y = (tid.x + 7) - tid.x is uniform, but the class lattice only
        // sees affine - affine = affine (cond-redundant); the interval
        // domain cancels the coefficients exactly.
        let mut b = KernelBuilder::new("cancel");
        let t = b.special(SpecialReg::TidX);
        let u = b.iadd(t, 7u32);
        let y = b.isub(u, t);
        b.store(MemSpace::Global, 0u32, y, 0);
        let ck = compile(b.finish());
        let r = refine(&ck, 1);
        assert_eq!(ck.classes[2].red, Red::CondRedundant);
        assert_eq!(r.ck.classes[2], AbsClass::UNIFORM);
        assert!(r.upgrades.iter().any(|u| u.pc == 2 && u.reason == RefineReason::AffineClosure));
    }

    #[test]
    fn affine_closure_classifies_mixed_xy_chain() {
        // 16*tid.y + tid.x: baseline is vector (tid.y unanalyzed); the
        // closure sees b = 16, a = 1 and classifies CondRedundantXY.
        let mut b = KernelBuilder::new("xy");
        let ty = b.special(SpecialReg::TidY);
        let tx = b.special(SpecialReg::TidX);
        let lin = b.imad(ty, 16u32, tx);
        b.store(MemSpace::Global, 0u32, lin, 0);
        let ck = compile(b.finish());
        let r = refine(&ck, 1);
        assert_eq!(ck.markings[2], Marking::Vector);
        assert_eq!(r.ck.classes[2].red, Red::CondRedundantXY);
        // Skippable under a launch promoting both dimensions…
        let plan = LaunchPlan::new(&r.ck, &LaunchConfig::new(1u32, (8u32, 4u32)));
        let fc = r.ck.classes[2].finalize(plan.promoted_x, plan.promoted_y);
        assert_eq!(fc.red, Red::Redundant);
        // …but not under a 2D launch failing the y check.
        let plan16 = LaunchPlan::new(&r.ck, &LaunchConfig::new(1u32, (16u32, 16u32)));
        assert!(plan16.promoted_x && !plan16.promoted_y);
        let fc16 = r.ck.classes[2].finalize(plan16.promoted_x, plan16.promoted_y);
        assert_eq!(fc16.red, Red::NotRedundant);
    }

    #[test]
    fn min_of_equal_coefficient_operands_refines() {
        // min(4*tid.x + 3, 4*tid.x + 9) = 4*tid.x + 3: equal thread
        // coefficients cancel, so the min stays cond-affine instead of
        // degrading to unstructured.
        let mut b = KernelBuilder::new("minmax");
        let t = b.special(SpecialReg::TidX);
        let s = b.shl_imm(t, 2);
        let x = b.iadd(s, 3u32);
        let y = b.iadd(s, 9u32);
        let m = b.imin(x, y);
        b.store(MemSpace::Global, 0u32, m, 0);
        let ck = compile(b.finish());
        let r = refine(&ck, 1);
        let min_pc = 4;
        assert_eq!(ck.classes[min_pc].pat, Pat::Arbitrary, "baseline: opaque min");
        assert_eq!(r.ck.classes[min_pc], AbsClass::COND_AFFINE);
    }

    #[test]
    fn refinement_is_pointwise_monotone() {
        let mut b = KernelBuilder::new("mono");
        let t = b.special(SpecialReg::TidX);
        let ty = b.special(SpecialReg::TidY);
        let q = b.iadd(t, ty);
        let p = b.setp(CmpOp::Eq, q, 5u32);
        let out = b.alloc();
        b.if_then(Guard::if_true(p), |b| {
            b.mov_to(out, 1u32);
        });
        b.store(MemSpace::Global, 0u32, out, 0);
        let ck = compile(b.finish());
        let r = refine(&ck, 1);
        for pc in 0..ck.kernel.instrs.len() {
            let (b_, a_) = (ck.classes[pc], r.ck.classes[pc]);
            assert!(a_.red >= b_.red && a_.pat >= b_.pat, "pc {pc}: {b_:?} -> {a_:?}");
        }
    }
}
