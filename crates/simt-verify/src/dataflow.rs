//! Pass 1: def-before-use and dead-write checking over the compiler's
//! CFG.
//!
//! A forward must/may-initialization analysis finds reads of registers
//! and predicates that no path (V001, error) or only some paths (V002,
//! warning — the untaken path reads architectural zero) define before
//! use, plus unreachable basic blocks (V003). A backward liveness
//! analysis finds register and predicate writes that no path ever
//! observes (V004).
//!
//! Guarded (predicated) instructions merge with the old destination value
//! lane-wise, so a guarded write counts as a *may*-definition only and
//! never kills liveness of the previous value.

use crate::{Diagnostic, Diagnostics, LintCode};
use simt_compiler::cfg::reach;
use simt_compiler::CompiledKernel;
use simt_isa::{Op, Pred, Reg};

/// Dense bitset over `regs + preds` slots.
#[derive(Clone, PartialEq, Eq)]
struct Bits(Vec<u64>);

impl Bits {
    fn empty(n: usize) -> Bits {
        Bits(vec![0; n.div_ceil(64)])
    }
    fn full(n: usize) -> Bits {
        let mut b = Bits(vec![u64::MAX; n.div_ceil(64)]);
        let tail = n % 64;
        if tail != 0 {
            if let Some(last) = b.0.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
        b
    }
    fn get(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }
    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }
    fn and_with(&mut self, other: &Bits) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a &= b;
        }
    }
    fn or_with(&mut self, other: &Bits) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }
}

/// Slot index of a register in the combined reg+pred domain.
fn reg_slot(r: Reg) -> usize {
    usize::from(r.0)
}

/// What one instruction touches, in dataflow terms.
struct Access {
    reads: Vec<usize>,
    /// `(slot, guarded)` — guarded defs are may-only and don't kill.
    defs: Vec<(usize, bool)>,
}

fn access(instr: &simt_isa::Instruction, nregs: usize) -> Access {
    let mut reads: Vec<usize> = instr.src_regs().map(reg_slot).collect();
    if let Some(g) = instr.guard {
        reads.push(nregs + usize::from(g.pred.0));
    }
    if let Op::Sel(p) = instr.op {
        reads.push(nregs + usize::from(p.0));
    }
    let guarded = instr.guard.is_some();
    let mut defs = Vec::new();
    if let Some(d) = instr.dst {
        defs.push((reg_slot(d), guarded));
    }
    if let Some(p) = instr.pdst {
        defs.push((nregs + usize::from(p.0), guarded));
    }
    Access { reads, defs }
}

fn slot_name(slot: usize, nregs: usize) -> String {
    if slot < nregs {
        format!("R{slot}")
    } else {
        format!("P{}", slot - nregs)
    }
}

/// Runs the dataflow checks and returns their findings.
#[must_use]
pub fn check(ck: &CompiledKernel) -> Diagnostics {
    let kernel = &ck.kernel;
    let cfg = &ck.cfg;
    let nregs = usize::from(kernel.num_regs);
    let npreds = usize::from(simt_isa::reg::NUM_PREDS);
    let n = nregs + npreds;
    let nblocks = cfg.blocks.len();
    let mut report = Diagnostics::new(kernel.name.clone());

    // --- Reachability (V003) ---
    let reachable = reach(nblocks, [0], |b| cfg.blocks[b].succs.iter().copied(), |_| false);
    for (b, block) in cfg.blocks.iter().enumerate() {
        if !reachable[b] && !block.is_empty() {
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

    // --- Forward must/may-initialization (V001, V002) ---
    let rpo = cfg.reverse_post_order();
    let mut out_must: Vec<Bits> = vec![Bits::full(n); nblocks];
    let mut out_may: Vec<Bits> = vec![Bits::empty(n); nblocks];
    let entry = 0usize;
    let block_in = |b: usize,
                    out_must: &[Bits],
                    out_may: &[Bits],
                    reachable: &[bool],
                    cfg: &simt_compiler::Cfg| {
        let mut in_must = if b == entry { Bits::empty(n) } else { Bits::full(n) };
        let mut in_may = Bits::empty(n);
        for &p in &cfg.blocks[b].preds {
            if !reachable[p] {
                continue;
            }
            in_must.and_with(&out_must[p]);
            in_may.or_with(&out_may[p]);
        }
        if b == entry {
            // The entry has no initialized state even if a back-edge
            // targets instruction 0.
            in_must = Bits::empty(n);
        }
        (in_must, in_may)
    };
    loop {
        let mut changed = false;
        for &b in &rpo {
            if !reachable[b] {
                continue;
            }
            let (mut must, mut may) = block_in(b, &out_must, &out_may, &reachable, cfg);
            for pc in cfg.blocks[b].range() {
                for (slot, guarded) in access(&kernel.instrs[pc], nregs).defs {
                    may.set(slot);
                    if !guarded {
                        must.set(slot);
                    }
                }
            }
            if must != out_must[b] || may != out_may[b] {
                out_must[b] = must;
                out_may[b] = may;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Reporting pass with the converged in-sets.
    for &b in &rpo {
        if !reachable[b] {
            continue;
        }
        let (mut must, mut may) = block_in(b, &out_must, &out_may, &reachable, cfg);
        for pc in cfg.blocks[b].range() {
            let acc = access(&kernel.instrs[pc], nregs);
            for &slot in &acc.reads {
                if !may.get(slot) {
                    report.push(Diagnostic::new(
                        LintCode::UninitRead,
                        Some(pc),
                        format!(
                            "{} is read by `{}` but no path from entry defines it",
                            slot_name(slot, nregs),
                            kernel.instrs[pc]
                        ),
                    ));
                } else if !must.get(slot) {
                    report.push(Diagnostic::new(
                        LintCode::MaybeUninitRead,
                        Some(pc),
                        format!(
                            "{} is read by `{}` but only some paths from entry define it",
                            slot_name(slot, nregs),
                            kernel.instrs[pc]
                        ),
                    ));
                }
            }
            for (slot, guarded) in acc.defs {
                may.set(slot);
                if !guarded {
                    must.set(slot);
                }
            }
        }
    }

    // --- Backward liveness (V004) ---
    let mut in_live: Vec<Bits> = vec![Bits::empty(n); nblocks];
    let back_transfer = |b: usize, in_live: &[Bits], cfg: &simt_compiler::Cfg| {
        let mut live = Bits::empty(n);
        for &s in &cfg.blocks[b].succs {
            live.or_with(&in_live[s]);
        }
        for pc in cfg.blocks[b].range().rev() {
            let acc = access(&kernel.instrs[pc], nregs);
            for &(slot, guarded) in &acc.defs {
                if !guarded {
                    live.clear(slot);
                }
            }
            for &slot in &acc.reads {
                live.set(slot);
            }
        }
        live
    };
    loop {
        let mut changed = false;
        for &b in rpo.iter().rev() {
            if !reachable[b] {
                continue;
            }
            let live = back_transfer(b, &in_live, cfg);
            if live != in_live[b] {
                in_live[b] = live;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for &b in &rpo {
        if !reachable[b] {
            continue;
        }
        let mut live = Bits::empty(n);
        for &s in &cfg.blocks[b].succs {
            live.or_with(&in_live[s]);
        }
        // Reverse scan collecting dead defs against the live-after set.
        let mut dead: Vec<(usize, usize)> = Vec::new();
        for pc in cfg.blocks[b].range().rev() {
            let instr = &kernel.instrs[pc];
            let acc = access(instr, nregs);
            // An atomic's destination is its memory side effect's return
            // value; ignoring it is idiomatic, not a dead write.
            let side_effect_dst = matches!(instr.op, Op::Atom(_));
            for &(slot, guarded) in &acc.defs {
                if !live.get(slot) && !side_effect_dst {
                    dead.push((pc, slot));
                }
                if !guarded {
                    live.clear(slot);
                }
            }
            for &slot in &acc.reads {
                live.set(slot);
            }
        }
        dead.sort_unstable();
        for (pc, slot) in dead {
            report.push(Diagnostic::new(
                LintCode::DeadWrite,
                Some(pc),
                format!(
                    "{} written by `{}` is never observed on any path",
                    slot_name(slot, nregs),
                    kernel.instrs[pc]
                ),
            ));
        }
    }

    report
}

/// Convenience for tests: the slot of a predicate in diagnostics.
#[allow(dead_code)]
fn pred_slot(p: Pred, nregs: usize) -> usize {
    nregs + usize::from(p.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LintCode;
    use simt_isa::{CmpOp, Guard, Instruction, Kernel, Operand, SpecialReg};

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
