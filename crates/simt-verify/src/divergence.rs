//! Pass 2: divergence-safety linting for barriers.
//!
//! `bar.sync` counts arriving *warps*; a barrier reached by only part of a
//! threadblock hangs or silently mis-synchronizes the rest. Two shapes are
//! flagged:
//!
//! * **V101** — a barrier on a leg of a potentially divergent two-way
//!   branch, before the branch's join (the compiler's
//!   [`Branch`](simt_compiler::Branch)). A branch
//!   counts as divergent unless its abstract class proves the guard
//!   TB-uniform — `Red::Redundant` with `Pat::Uniform`. With a
//!   [`LaunchConfig`], the launch's dimensionality promotion is applied
//!   first, so a `tid.y`-derived guard in a promoted launch still counts
//!   as divergent (promotion equalizes warps, not lanes) while truly
//!   uniform loop guards never fire the lint.
//! * **V102** — a guarded barrier. [`Kernel::validate`](simt_isa::Kernel)
//!   also rejects these; the lint keeps the verifier self-contained for
//!   kernels built without validation.

use crate::{Diagnostic, Diagnostics, LintCode};
use simt_compiler::{promotes_tid_y, CompiledKernel};
use simt_isa::{LaunchConfig, Op};

/// Runs the divergence-safety lint. Without a launch config, no promotion
/// is applied: conditionally redundant guards count as potentially
/// divergent (the conservative answer).
#[must_use]
pub fn check(ck: &CompiledKernel, launch: Option<&LaunchConfig>) -> Diagnostics {
    let kernel = &ck.kernel;
    let cfg = &ck.cfg;
    let mut report = Diagnostics::new(kernel.name.clone());
    let (px, py) = match launch {
        Some(l) => (l.promotes_conditional_redundancy(), promotes_tid_y(l)),
        None => (false, false),
    };

    for (pc, instr) in kernel.instrs.iter().enumerate() {
        if matches!(instr.op, Op::Bar) {
            if let Some(g) = instr.guard {
                report.push(Diagnostic::new(
                    LintCode::PredicatedBarrier,
                    Some(pc),
                    format!("barrier guarded by {g}: arrival would be thread-dependent"),
                ));
            }
            continue;
        }
        let Some(br) = cfg.branch(cfg.block_of[pc]).filter(|br| br.pc == pc) else { continue };
        // The instruction class already folds the guard predicate's class
        // in, so it describes how uniformly this branch resolves.
        let class = ck.classes[pc].finalize(px, py);
        if class.is_uv_uniform() {
            continue;
        }

        let join = match br.join {
            j if j == cfg.exit_block() => " (thread exit)".to_string(),
            j => format!(" (pc {})", cfg.blocks[j].start),
        };
        for b in (0..cfg.len()).filter(|&b| br.in_region(b)) {
            for bar_pc in cfg.blocks[b].range() {
                if matches!(kernel.instrs[bar_pc].op, Op::Bar) {
                    report.push(Diagnostic::new(
                        LintCode::BarrierUnderDivergence,
                        Some(bar_pc),
                        format!(
                            "barrier is reachable under the potentially divergent branch \
                             `{}` at pc {} before its reconvergence point{}",
                            kernel.instrs[pc], pc, join
                        ),
                    ));
                }
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{
        CmpOp, Dim3, Guard, Instruction, Kernel, MemSpace, Operand, Pred, Reg, SpecialReg,
    };

    fn compile(instrs: Vec<Instruction>) -> CompiledKernel {
        let mut k = Kernel::new("t", instrs);
        k.shared_mem_bytes = 64;
        simt_compiler::compile(k)
    }

    fn exit() -> Instruction {
        Instruction::new(Op::Exit, None, None, vec![])
    }

    /// The acceptance-criteria kernel: a barrier inside a `tid.x`-dependent
    /// branch body. With `hoisted`, the barrier instead sits after the
    /// reconvergence point.
    fn tid_branch_kernel(hoisted: bool) -> CompiledKernel {
        let mut instrs = vec![
            // 0: R0 = tid.x
            Instruction::new(Op::S2R(SpecialReg::TidX), Some(Reg(0)), None, vec![]),
            // 1: P0 = tid.x < 16
            Instruction::new(
                Op::Setp(CmpOp::Lt),
                None,
                Some(Pred(0)),
                vec![Reg(0).into(), Operand::Imm(16)],
            ),
            // 2: @!P0 bra 5 (skip the then-body)
            Instruction::new(Op::Bra { target: 5 }, None, None, vec![])
                .with_guard(Guard::if_false(Pred(0))),
            // 3: then-body store (or barrier when not hoisted)
            // 4: barrier or nop-ish store
            // 5: reconvergence point: store, then exit
        ];
        if hoisted {
            instrs.push(Instruction::new(
                Op::St(MemSpace::Shared),
                None,
                None,
                vec![Operand::Imm(0), Reg(0).into()],
            ));
            instrs.push(Instruction::new(
                Op::St(MemSpace::Shared),
                None,
                None,
                vec![Operand::Imm(4), Reg(0).into()],
            ));
            instrs.push(Instruction::new(Op::Bar, None, None, vec![])); // pc 5: past recon
        } else {
            instrs.push(Instruction::new(
                Op::St(MemSpace::Shared),
                None,
                None,
                vec![Operand::Imm(0), Reg(0).into()],
            ));
            instrs.push(Instruction::new(Op::Bar, None, None, vec![])); // pc 4: divergent!
            instrs.push(Instruction::new(
                Op::St(MemSpace::Shared),
                None,
                None,
                vec![Operand::Imm(4), Reg(0).into()],
            ));
        }
        instrs.push(exit());
        compile(instrs)
    }

    #[test]
    fn barrier_in_tid_dependent_branch_is_flagged() {
        let ck = tid_branch_kernel(false);
        let r = check(&ck, None);
        let hits = r.with_code(LintCode::BarrierUnderDivergence);
        assert_eq!(hits.len(), 1, "{}", r.render());
        assert_eq!(hits[0].pc, Some(4));
        assert!(!r.is_clean());
    }

    #[test]
    fn hoisting_the_barrier_past_reconvergence_clears_the_lint() {
        let ck = tid_branch_kernel(true);
        let r = check(&ck, None);
        assert!(r.items.is_empty(), "{}", r.render());
    }

    #[test]
    fn promotion_does_not_make_a_tid_branch_barrier_safe() {
        // Even in a launch that promotes conditional redundancy, a tid.x
        // guard is affine (lane-varying), so the branch still diverges.
        let ck = tid_branch_kernel(false);
        let launch = LaunchConfig::new(1u32, Dim3::two_d(16, 16));
        assert!(launch.promotes_conditional_redundancy());
        let r = check(&ck, Some(&launch));
        assert_eq!(r.with_code(LintCode::BarrierUnderDivergence).len(), 1, "{}", r.render());
    }

    #[test]
    fn uniform_loop_with_barrier_is_clean() {
        // A do-while loop on a TB-uniform counter with a barrier in its
        // body (the BIN / do-across-tiles shape) must not fire.
        let ck = compile(vec![
            // 0: R0 = 0 (uniform counter)
            Instruction::new(Op::Mov, Some(Reg(0)), None, vec![Operand::Imm(0)]),
            // 1: barrier in the loop body
            Instruction::new(Op::Bar, None, None, vec![]),
            // 2: R0 += 1
            Instruction::new(Op::IAdd, Some(Reg(0)), None, vec![Reg(0).into(), Operand::Imm(1)]),
            // 3: P0 = R0 < 4
            Instruction::new(
                Op::Setp(CmpOp::Lt),
                None,
                Some(Pred(0)),
                vec![Reg(0).into(), Operand::Imm(4)],
            ),
            // 4: @P0 bra 1
            Instruction::new(Op::Bra { target: 1 }, None, None, vec![])
                .with_guard(Guard::if_true(Pred(0))),
            exit(),
        ]);
        let r = check(&ck, None);
        assert!(r.items.is_empty(), "{}", r.render());
    }

    #[test]
    fn divergent_loop_with_barrier_is_flagged() {
        // Same loop but the trip count depends on tid.x: warps exit the
        // loop at different iterations, so the barrier is unsafe.
        let ck = compile(vec![
            Instruction::new(Op::S2R(SpecialReg::TidX), Some(Reg(1)), None, vec![]),
            Instruction::new(Op::Mov, Some(Reg(0)), None, vec![Operand::Imm(0)]),
            Instruction::new(Op::Bar, None, None, vec![]),
            Instruction::new(Op::IAdd, Some(Reg(0)), None, vec![Reg(0).into(), Operand::Imm(1)]),
            Instruction::new(
                Op::Setp(CmpOp::Lt),
                None,
                Some(Pred(0)),
                vec![Reg(0).into(), Reg(1).into()],
            ),
            Instruction::new(Op::Bra { target: 2 }, None, None, vec![])
                .with_guard(Guard::if_true(Pred(0))),
            exit(),
        ]);
        let r = check(&ck, None);
        let hits = r.with_code(LintCode::BarrierUnderDivergence);
        assert_eq!(hits.len(), 1, "{}", r.render());
        assert_eq!(hits[0].pc, Some(2));
    }

    #[test]
    fn guarded_barrier_is_flagged() {
        // Kernel::validate (and therefore compile) rejects this shape, so
        // assemble the CompiledKernel by hand to exercise the lint path
        // for kernels built without validation.
        let k = Kernel::new(
            "guarded-bar",
            vec![
                Instruction::new(Op::S2R(SpecialReg::TidX), Some(Reg(0)), None, vec![]),
                Instruction::new(
                    Op::Setp(CmpOp::Lt),
                    None,
                    Some(Pred(0)),
                    vec![Reg(0).into(), Operand::Imm(16)],
                ),
                Instruction::new(Op::Bar, None, None, vec![]).with_guard(Guard::if_true(Pred(0))),
                exit(),
            ],
        );
        assert!(k.validate().is_err(), "validate should also reject this");
        let cfg = simt_compiler::Cfg::build(&k);
        let recon = simt_compiler::ReconvergenceTable::compute(&k, &cfg);
        let analysis = simt_compiler::analyze(&k, &cfg, simt_compiler::AnalysisOptions::default());
        let markings = analysis.instr_class.iter().map(|c| c.marking()).collect();
        let ck = CompiledKernel { kernel: k, classes: analysis.instr_class, markings, recon, cfg };
        let r = check(&ck, None);
        assert_eq!(r.with_code(LintCode::PredicatedBarrier).len(), 1, "{}", r.render());
    }

    /// A guarded `bra` whose target is its own fall-through gives its block
    /// one successor, so the branch cannot diverge and has no region, even
    /// when the barrier after it sits in a closed loop that never reaches
    /// the exit (where the post-dominator tree pins every block to the
    /// exit, so a walk to the join would find the barrier).
    #[test]
    fn branch_to_its_own_fall_through_has_no_region() {
        let ck = compile(vec![
            // 0: R0 = tid.x
            Instruction::new(Op::S2R(SpecialReg::TidX), Some(Reg(0)), None, vec![]),
            // 1: P0 = tid.x < 16
            Instruction::new(
                Op::Setp(CmpOp::Lt),
                None,
                Some(Pred(0)),
                vec![Reg(0).into(), Operand::Imm(16)],
            ),
            // 2: @P0 bra 3 (the fall-through)
            Instruction::new(Op::Bra { target: 3 }, None, None, vec![])
                .with_guard(Guard::if_true(Pred(0))),
            // 3: bar.sync
            Instruction::new(Op::Bar, None, None, vec![]),
            // 4: bra 3 (a closed loop: the exit is never reached)
            Instruction::new(Op::Bra { target: 3 }, None, None, vec![]),
            exit(),
        ]);
        let b = ck.cfg.block_of[2];
        assert_eq!(ck.cfg.blocks[b].succs.len(), 1, "one successor");
        assert_eq!(ck.cfg.pdoms.ipdom[b], ck.cfg.exit_block(), "the join is pinned to the exit");
        assert!(ck.cfg.branch(b).is_none(), "no two-way branch");
        let r = check(&ck, None);
        assert!(r.with_code(LintCode::BarrierUnderDivergence).is_empty(), "{}", r.render());
    }
}
