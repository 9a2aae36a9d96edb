//! Pass 1: def-before-use and dead-write checking over the compiler's
//! CFG, read off its reaching definitions
//! ([`simt_compiler::ReachingDefs`]).
//!
//! A read of a register or predicate that only the `ENTRY`
//! pseudo-definition reaches is defined on no path (V001, error); one that
//! `ENTRY` and a real definition both reach is defined on only some paths
//! (V002, warning — the other paths read architectural zero). Blocks the
//! entry cannot reach are V003, and a definition that reaches no read is
//! V004.
//!
//! Guarded (predicated) instructions merge with the old destination value
//! lane-wise, so a guarded write is a definition that kills none before
//! it.

use crate::{Diagnostic, Diagnostics, LintCode};
use simt_compiler::defs::ENTRY;
use simt_compiler::{CompiledKernel, Defs, ReachingDefs};
use simt_isa::{Instruction, Op};
use std::collections::BTreeSet;

/// The registers and predicates `instr` reads, in operand order: sources,
/// then the guard, then a `sel` condition. Each comes with its name, the
/// destination its definitions write (0 `dst`, 1 `pdst`) and the
/// definitions reaching it in `st`.
fn reads<'d>(instr: &Instruction, st: &'d Defs) -> Vec<(String, usize, &'d BTreeSet<usize>)> {
    let mut out: Vec<_> = instr.src_regs().map(|r| (r.to_string(), 0, st.reg(r))).collect();
    out.extend(instr.guard.map(|g| (g.pred.to_string(), 1, st.pred(g.pred))));
    if let Op::Sel(p) = instr.op {
        out.push((p.to_string(), 1, st.pred(p)));
    }
    out
}

/// Runs the dataflow checks and returns their findings.
#[must_use]
pub fn check(ck: &CompiledKernel) -> Diagnostics {
    let (kernel, cfg) = (&ck.kernel, &ck.cfg);
    let mut report = Diagnostics::new(kernel.name.clone());

    // --- Reachability (V003) ---
    for (b, block) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] && !block.is_empty() {
            report.push(Diagnostic::new(
                LintCode::UnreachableBlock,
                Some(block.start),
                format!(
                    "block {} (instructions {}..{}) is unreachable from the kernel entry",
                    b, block.start, block.end
                ),
            ));
        }
    }

    // --- Reads reached by ENTRY (V001, V002) ---
    let defs = ReachingDefs::solve(kernel, cfg);
    // `observed[pc][k]`: a reachable read sees `pc`'s `dst` (k = 0) or
    // `pdst` (k = 1) write.
    let mut observed = vec![[false; 2]; kernel.instrs.len()];
    for &b in &cfg.rpo {
        defs.replay_block(b, |pc, st| {
            let instr = &kernel.instrs[pc];
            for (name, k, reaching) in reads(instr, st) {
                let mut defined = false;
                for &d in reaching.iter().filter(|&&d| d != ENTRY) {
                    observed[d][k] = true;
                    defined = true;
                }
                let (code, paths) = match (defined, reaching.contains(&ENTRY)) {
                    (false, _) => (LintCode::UninitRead, "no path"),
                    (true, true) => (LintCode::MaybeUninitRead, "only some paths"),
                    (true, false) => continue,
                };
                report.push(Diagnostic::new(
                    code,
                    Some(pc),
                    format!("{name} is read by `{instr}` but {paths} from entry defines it"),
                ));
            }
        });
    }

    // --- Definitions no read observes (V004) ---
    for &b in &cfg.rpo {
        for pc in cfg.blocks[b].range() {
            let instr = &kernel.instrs[pc];
            // An atomic's destination is its memory side effect's return
            // value; ignoring it is idiomatic, not a dead write.
            if matches!(instr.op, Op::Atom(_)) {
                continue;
            }
            let written = [instr.dst.map(|d| d.to_string()), instr.pdst.map(|p| p.to_string())];
            for (k, name) in written.into_iter().enumerate() {
                let Some(name) = name.filter(|_| !observed[pc][k]) else { continue };
                report.push(Diagnostic::new(
                    LintCode::DeadWrite,
                    Some(pc),
                    format!("{name} written by `{instr}` is never observed on any path"),
                ));
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LintCode;
    use simt_isa::{CmpOp, Guard, Instruction, Kernel, Operand, Pred, Reg, SpecialReg};

    fn compile(instrs: Vec<Instruction>) -> CompiledKernel {
        simt_compiler::compile(Kernel::new("t", instrs))
    }

    fn exit() -> Instruction {
        Instruction::new(Op::Exit, None, None, vec![])
    }

    #[test]
    fn clean_straightline_kernel_has_no_findings() {
        let ck = compile(vec![
            Instruction::new(Op::S2R(SpecialReg::TidX), Some(Reg(0)), None, vec![]),
            Instruction::new(Op::IAdd, Some(Reg(1)), None, vec![Reg(0).into(), Operand::Imm(1)]),
            Instruction::new(
                Op::St(simt_isa::MemSpace::Global),
                None,
                None,
                vec![Reg(0).into(), Reg(1).into()],
            ),
            exit(),
        ]);
        let r = check(&ck);
        assert!(r.items.is_empty(), "{}", r.render());
    }

    #[test]
    fn uninit_read_is_an_error() {
        let ck = compile(vec![
            Instruction::new(Op::IAdd, Some(Reg(1)), None, vec![Reg(0).into(), Operand::Imm(1)]),
            Instruction::new(
                Op::St(simt_isa::MemSpace::Global),
                None,
                None,
                vec![Reg(1).into(), Reg(1).into()],
            ),
            exit(),
        ]);
        let r = check(&ck);
        let uninit = r.with_code(LintCode::UninitRead);
        assert_eq!(uninit.len(), 1, "{}", r.render());
        assert_eq!(uninit[0].pc, Some(0));
        assert!(!r.is_clean());
    }

    #[test]
    fn partial_path_definition_is_a_warning() {
        // R1 defined only when P0 holds (branch skips the def otherwise).
        let ck = compile(vec![
            Instruction::new(Op::S2R(SpecialReg::TidX), Some(Reg(0)), None, vec![]),
            Instruction::new(
                Op::Setp(CmpOp::Eq),
                None,
                Some(Pred(0)),
                vec![Reg(0).into(), Operand::Imm(0)],
            ),
            Instruction::new(Op::Bra { target: 4 }, None, None, vec![])
                .with_guard(Guard::if_false(Pred(0))),
            Instruction::new(Op::Mov, Some(Reg(1)), None, vec![Operand::Imm(7)]),
            Instruction::new(
                Op::St(simt_isa::MemSpace::Global),
                None,
                None,
                vec![Reg(0).into(), Reg(1).into()],
            ),
            exit(),
        ]);
        let r = check(&ck);
        assert!(r.is_clean(), "{}", r.render());
        let maybe = r.with_code(LintCode::MaybeUninitRead);
        assert_eq!(maybe.len(), 1, "{}", r.render());
        assert_eq!(maybe[0].pc, Some(4));
    }

    #[test]
    fn guarded_write_is_a_may_def_only() {
        // A guarded mov does not fully define R1: the subsequent read
        // warns, but is not an error.
        let ck = compile(vec![
            Instruction::new(Op::S2R(SpecialReg::TidX), Some(Reg(0)), None, vec![]),
            Instruction::new(
                Op::Setp(CmpOp::Eq),
                None,
                Some(Pred(0)),
                vec![Reg(0).into(), Operand::Imm(0)],
            ),
            Instruction::new(Op::Mov, Some(Reg(1)), None, vec![Operand::Imm(7)])
                .with_guard(Guard::if_true(Pred(0))),
            Instruction::new(
                Op::St(simt_isa::MemSpace::Global),
                None,
                None,
                vec![Reg(0).into(), Reg(1).into()],
            ),
            exit(),
        ]);
        let r = check(&ck);
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.with_code(LintCode::MaybeUninitRead).len(), 1, "{}", r.render());
    }

    #[test]
    fn dead_write_is_reported() {
        let ck = compile(vec![
            Instruction::new(Op::S2R(SpecialReg::TidX), Some(Reg(0)), None, vec![]),
            Instruction::new(Op::IAdd, Some(Reg(1)), None, vec![Reg(0).into(), Operand::Imm(1)]),
            exit(),
        ]);
        let r = check(&ck);
        let dead = r.with_code(LintCode::DeadWrite);
        // R1 (the iadd result) is never observed; R0 feeds the iadd.
        assert_eq!(dead.len(), 1, "{}", r.render());
        assert_eq!(dead[0].pc, Some(1));
    }

    #[test]
    fn overwritten_value_is_a_dead_write() {
        let ck = compile(vec![
            Instruction::new(Op::Mov, Some(Reg(0)), None, vec![Operand::Imm(1)]),
            Instruction::new(Op::Mov, Some(Reg(0)), None, vec![Operand::Imm(2)]),
            Instruction::new(
                Op::St(simt_isa::MemSpace::Global),
                None,
                None,
                vec![Reg(0).into(), Reg(0).into()],
            ),
            exit(),
        ]);
        let r = check(&ck);
        let dead = r.with_code(LintCode::DeadWrite);
        assert_eq!(dead.len(), 1, "{}", r.render());
        assert_eq!(dead[0].pc, Some(0));
    }

    #[test]
    fn unreachable_block_is_reported() {
        let ck = compile(vec![
            Instruction::new(Op::Bra { target: 2 }, None, None, vec![]),
            Instruction::new(Op::Mov, Some(Reg(0)), None, vec![Operand::Imm(1)]),
            exit(),
        ]);
        let r = check(&ck);
        let unreachable = r.with_code(LintCode::UnreachableBlock);
        assert_eq!(unreachable.len(), 1, "{}", r.render());
        assert_eq!(unreachable[0].pc, Some(1));
    }

    #[test]
    fn loop_carried_value_is_not_flagged() {
        // R1 initialized before the loop, updated and read inside it.
        let ck = compile(vec![
            Instruction::new(Op::Mov, Some(Reg(1)), None, vec![Operand::Imm(0)]),
            Instruction::new(Op::IAdd, Some(Reg(1)), None, vec![Reg(1).into(), Operand::Imm(1)]),
            Instruction::new(
                Op::Setp(CmpOp::Lt),
                None,
                Some(Pred(0)),
                vec![Reg(1).into(), Operand::Imm(8)],
            ),
            Instruction::new(Op::Bra { target: 1 }, None, None, vec![])
                .with_guard(Guard::if_true(Pred(0))),
            Instruction::new(
                Op::St(simt_isa::MemSpace::Global),
                None,
                None,
                vec![Reg(1).into(), Reg(1).into()],
            ),
            exit(),
        ]);
        let r = check(&ck);
        assert!(r.items.is_empty(), "{}", r.render());
    }

    #[test]
    fn def_reaching_only_via_back_edge_is_maybe_uninit() {
        // R2 is read at the loop top but defined only later in the body:
        // the definition reaches the read around the back edge, yet the
        // first iteration sees it uninitialized.
        let ck = compile(vec![
            Instruction::new(Op::Mov, Some(Reg(1)), None, vec![Operand::Imm(0)]),
            // loop top: read R2 (defined below, reaches only via back edge)
            Instruction::new(Op::IAdd, Some(Reg(3)), None, vec![Reg(2).into(), Operand::Imm(1)]),
            Instruction::new(Op::Mov, Some(Reg(2)), None, vec![Reg(1).into()]),
            Instruction::new(Op::IAdd, Some(Reg(1)), None, vec![Reg(1).into(), Operand::Imm(1)]),
            Instruction::new(
                Op::Setp(CmpOp::Lt),
                None,
                Some(Pred(0)),
                vec![Reg(1).into(), Operand::Imm(8)],
            ),
            Instruction::new(Op::Bra { target: 1 }, None, None, vec![])
                .with_guard(Guard::if_true(Pred(0))),
            Instruction::new(
                Op::St(simt_isa::MemSpace::Global),
                None,
                None,
                vec![Reg(1).into(), Reg(3).into()],
            ),
            exit(),
        ]);
        let r = check(&ck);
        let maybe = r.with_code(LintCode::MaybeUninitRead);
        assert_eq!(maybe.len(), 1, "{}", r.render());
        assert_eq!(maybe[0].pc, Some(1));
        assert!(r.with_code(LintCode::UninitRead).is_empty(), "{}", r.render());
    }

    #[test]
    fn barrier_inside_loop_body_keeps_loop_carried_defs_clean() {
        // Same loop-carried accumulator shape, but with a `bar.sync`
        // splitting the body: the barrier must not perturb reaching
        // definitions or observability around the back edge.
        let ck = compile(vec![
            Instruction::new(Op::Mov, Some(Reg(1)), None, vec![Operand::Imm(0)]),
            Instruction::new(Op::IAdd, Some(Reg(1)), None, vec![Reg(1).into(), Operand::Imm(1)]),
            Instruction::new(Op::Bar, None, None, vec![]),
            Instruction::new(Op::IAdd, Some(Reg(2)), None, vec![Reg(1).into(), Operand::Imm(4)]),
            Instruction::new(
                Op::Setp(CmpOp::Lt),
                None,
                Some(Pred(0)),
                vec![Reg(1).into(), Operand::Imm(8)],
            ),
            Instruction::new(Op::Bra { target: 1 }, None, None, vec![])
                .with_guard(Guard::if_true(Pred(0))),
            Instruction::new(
                Op::St(simt_isa::MemSpace::Global),
                None,
                None,
                vec![Reg(2).into(), Reg(1).into()],
            ),
            exit(),
        ]);
        let r = check(&ck);
        assert!(r.items.is_empty(), "{}", r.render());
    }

    #[test]
    fn atomic_result_may_be_ignored() {
        let ck = compile(vec![
            Instruction::new(Op::Mov, Some(Reg(0)), None, vec![Operand::Imm(64)]),
            Instruction::new(Op::Mov, Some(Reg(1)), None, vec![Operand::Imm(1)]),
            Instruction::new(
                Op::Atom(simt_isa::AtomOp::Add),
                Some(Reg(2)),
                None,
                vec![Reg(0).into(), Reg(1).into()],
            ),
            exit(),
        ]);
        let r = check(&ck);
        assert!(r.with_code(LintCode::DeadWrite).is_empty(), "{}", r.render());
    }
}
