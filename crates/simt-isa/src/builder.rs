//! A structured builder DSL for authoring kernels.
//!
//! The builder hands out fresh registers for every produced value, resolves
//! forward/backward branch targets, and offers structured `if` / `if-else` /
//! `while` / `do-while` regions so workload kernels read like the CUDA code
//! they were ported from. Loop-carried variables use the `*_to` variants
//! that overwrite an existing register.

use crate::instruction::{Guard, Instruction, Operand};
use crate::kernel::Kernel;
use crate::op::{AtomOp, CmpOp, MemSpace, Op};
use crate::reg::{Pred, Reg, SpecialReg, MAX_REGS, NUM_PREDS};

/// A code position usable as a backward-branch target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// A forward branch awaiting its target; resolved by
/// [`KernelBuilder::patch_here`].
#[derive(Debug, PartialEq, Eq)]
#[must_use = "unpatched forward branches leave the kernel malformed"]
pub struct PatchHandle(usize);

/// Builder for [`Kernel`]s. See the [crate-level example](crate).
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    instrs: Vec<Instruction>,
    next_reg: u16,
    next_pred: u8,
    shared_mem_bytes: u32,
    num_params: u32,
}

impl KernelBuilder {
    /// Creates an empty builder for a kernel named `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> KernelBuilder {
        KernelBuilder {
            name: name.into(),
            instrs: Vec::new(),
            next_reg: 0,
            next_pred: 0,
            shared_mem_bytes: 0,
            num_params: 0,
        }
    }

    /// Allocates a fresh general register.
    ///
    /// # Panics
    ///
    /// Panics if the kernel exhausts the 255 named registers.
    pub fn alloc(&mut self) -> Reg {
        assert!(self.next_reg < MAX_REGS, "out of registers in kernel {}", self.name);
        let r = Reg(self.next_reg as u8);
        self.next_reg += 1;
        r
    }

    /// Allocates a fresh predicate register.
    ///
    /// # Panics
    ///
    /// Panics if the kernel exhausts the architectural predicates.
    pub fn alloc_pred(&mut self) -> Pred {
        assert!(self.next_pred < NUM_PREDS, "out of predicates in kernel {}", self.name);
        let p = Pred(self.next_pred);
        self.next_pred += 1;
        p
    }

    /// Reserves `bytes` of shared memory, returning its base byte offset
    /// (16-byte aligned).
    pub fn alloc_shared(&mut self, bytes: u32) -> u32 {
        let base = self.shared_mem_bytes;
        self.shared_mem_bytes = (self.shared_mem_bytes + bytes + 15) & !15;
        base
    }

    /// Index the next emitted instruction will occupy.
    #[must_use]
    pub fn here(&self) -> Label {
        Label(self.instrs.len())
    }

    /// Appends a raw instruction (escape hatch for unusual sequences).
    pub fn emit(&mut self, instr: Instruction) {
        if let Some(d) = instr.dst {
            self.next_reg = self.next_reg.max(u16::from(d.0) + 1);
        }
        self.instrs.push(instr);
    }

    fn emit_dst(&mut self, op: Op, srcs: Vec<Operand>) -> Reg {
        let dst = self.alloc();
        self.emit(Instruction::new(op, Some(dst), None, srcs));
        dst
    }

    /// Emits `op` writing to an existing register (for loop-carried values).
    pub fn emit_to(&mut self, dst: Reg, op: Op, srcs: Vec<Operand>) {
        self.emit(Instruction::new(op, Some(dst), None, srcs));
    }

    // ----- intrinsics and parameters -------------------------------------

    /// Reads a special register into a fresh general register.
    pub fn special(&mut self, s: SpecialReg) -> Reg {
        self.emit_dst(Op::S2R(s), vec![])
    }

    /// Loads 32-bit kernel parameter `index` from parameter space.
    pub fn param(&mut self, index: u32) -> Reg {
        self.num_params = self.num_params.max(index + 1);
        let dst = self.alloc();
        self.emit(
            Instruction::new(Op::Ld(MemSpace::Param), Some(dst), None, vec![Operand::Imm(0)])
                .with_offset((index * 4) as i32),
        );
        dst
    }

    // ----- moves and conversions -----------------------------------------

    /// Moves an operand (register or immediate) into a fresh register.
    pub fn mov(&mut self, src: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::Mov, vec![src.into()])
    }

    /// Moves an operand into an existing register.
    pub fn mov_to(&mut self, dst: Reg, src: impl Into<Operand>) {
        self.emit_to(dst, Op::Mov, vec![src.into()]);
    }

    /// Materializes a float constant.
    pub fn movf(&mut self, v: f32) -> Reg {
        self.mov(v.to_bits())
    }

    /// Signed int to float.
    pub fn i2f(&mut self, src: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::I2F, vec![src.into()])
    }

    /// Float to signed int (truncating).
    pub fn f2i(&mut self, src: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::F2I, vec![src.into()])
    }

    // ----- integer ALU -----------------------------------------------------

    /// `a + b`.
    pub fn iadd(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::IAdd, vec![a.into(), b.into()])
    }

    /// `a + b` into an existing register.
    pub fn iadd_to(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.emit_to(dst, Op::IAdd, vec![a.into(), b.into()]);
    }

    /// `a - b`.
    pub fn isub(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::ISub, vec![a.into(), b.into()])
    }

    /// `a * b` (low 32 bits).
    pub fn imul(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::IMul, vec![a.into(), b.into()])
    }

    /// `a * b + c`.
    pub fn imad(
        &mut self,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        c: impl Into<Operand>,
    ) -> Reg {
        self.emit_dst(Op::IMad, vec![a.into(), b.into(), c.into()])
    }

    /// `a * b + c` into an existing register.
    pub fn imad_to(
        &mut self,
        dst: Reg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        c: impl Into<Operand>,
    ) {
        self.emit_to(dst, Op::IMad, vec![a.into(), b.into(), c.into()]);
    }

    /// Signed `min(a, b)`.
    pub fn imin(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::IMin, vec![a.into(), b.into()])
    }

    /// Signed `max(a, b)`.
    pub fn imax(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::IMax, vec![a.into(), b.into()])
    }

    /// `a << n`.
    pub fn shl_imm(&mut self, a: impl Into<Operand>, n: u32) -> Reg {
        self.emit_dst(Op::Shl, vec![a.into(), Operand::Imm(n)])
    }

    /// `a << b` (register shift amount).
    pub fn shl(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::Shl, vec![a.into(), b.into()])
    }

    /// `a >> b` (logical, register shift amount).
    pub fn shr(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::Shr, vec![a.into(), b.into()])
    }

    /// `a >> b` (arithmetic).
    pub fn sra(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::Sra, vec![a.into(), b.into()])
    }

    /// `a >> n` (logical).
    pub fn shr_imm(&mut self, a: impl Into<Operand>, n: u32) -> Reg {
        self.emit_dst(Op::Shr, vec![a.into(), Operand::Imm(n)])
    }

    /// `a & b`.
    pub fn and(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::And, vec![a.into(), b.into()])
    }

    /// `a | b`.
    pub fn or(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::Or, vec![a.into(), b.into()])
    }

    /// `a ^ b`.
    pub fn xor(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::Xor, vec![a.into(), b.into()])
    }

    // ----- float ALU ---------------------------------------------------------

    /// `a + b` (f32).
    pub fn fadd(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::FAdd, vec![a.into(), b.into()])
    }

    /// `a + b` (f32) into an existing register.
    pub fn fadd_to(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.emit_to(dst, Op::FAdd, vec![a.into(), b.into()]);
    }

    /// `a - b` (f32).
    pub fn fsub(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::FSub, vec![a.into(), b.into()])
    }

    /// `a * b` (f32).
    pub fn fmul(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::FMul, vec![a.into(), b.into()])
    }

    /// `a * b + c` (f32).
    pub fn ffma(
        &mut self,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        c: impl Into<Operand>,
    ) -> Reg {
        self.emit_dst(Op::FFma, vec![a.into(), b.into(), c.into()])
    }

    /// `a * b + c` (f32) into an existing register.
    pub fn ffma_to(
        &mut self,
        dst: Reg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        c: impl Into<Operand>,
    ) {
        self.emit_to(dst, Op::FFma, vec![a.into(), b.into(), c.into()]);
    }

    /// `min(a, b)` (f32).
    pub fn fmin(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::FMin, vec![a.into(), b.into()])
    }

    /// `max(a, b)` (f32).
    pub fn fmax(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::FMax, vec![a.into(), b.into()])
    }

    /// `a / b` (f32, SFU).
    pub fn fdiv(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::FDiv, vec![a.into(), b.into()])
    }

    /// `1 / a` (f32, SFU).
    pub fn frcp(&mut self, a: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::FRcp, vec![a.into()])
    }

    /// `sqrt(a)` (f32, SFU).
    pub fn fsqrt(&mut self, a: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::FSqrt, vec![a.into()])
    }

    /// `2^a` (f32, SFU).
    pub fn fexp2(&mut self, a: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::FExp2, vec![a.into()])
    }

    /// `log2(a)` (f32, SFU).
    pub fn flog2(&mut self, a: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::FLog2, vec![a.into()])
    }

    // ----- predicates and selects -----------------------------------------

    /// Integer compare into a fresh predicate.
    pub fn setp(&mut self, cmp: CmpOp, a: impl Into<Operand>, b: impl Into<Operand>) -> Pred {
        let p = self.alloc_pred();
        self.setp_to(p, cmp, a, b);
        p
    }

    /// Integer compare into an existing predicate.
    pub fn setp_to(&mut self, p: Pred, cmp: CmpOp, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.emit(Instruction::new(Op::Setp(cmp), None, Some(p), vec![a.into(), b.into()]));
    }

    /// Float compare into a fresh predicate.
    pub fn setpf(&mut self, cmp: CmpOp, a: impl Into<Operand>, b: impl Into<Operand>) -> Pred {
        let p = self.alloc_pred();
        self.emit(Instruction::new(Op::SetpF(cmp), None, Some(p), vec![a.into(), b.into()]));
        p
    }

    /// `p ? a : b`.
    pub fn sel(&mut self, p: Pred, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.emit_dst(Op::Sel(p), vec![a.into(), b.into()])
    }

    // ----- memory -----------------------------------------------------------

    /// Load from `space` at address `addr + offset` (bytes).
    pub fn load(&mut self, space: MemSpace, addr: impl Into<Operand>, offset: i32) -> Reg {
        let dst = self.alloc();
        self.emit(
            Instruction::new(Op::Ld(space), Some(dst), None, vec![addr.into()]).with_offset(offset),
        );
        dst
    }

    /// Store `value` to `space` at `addr + offset` (bytes).
    pub fn store(
        &mut self,
        space: MemSpace,
        addr: impl Into<Operand>,
        value: impl Into<Operand>,
        offset: i32,
    ) {
        self.emit(
            Instruction::new(Op::St(space), None, None, vec![addr.into(), value.into()])
                .with_offset(offset),
        );
    }

    /// Global atomic; returns the old value.
    pub fn atom(&mut self, op: AtomOp, addr: impl Into<Operand>, value: impl Into<Operand>) -> Reg {
        let dst = self.alloc();
        self.emit(Instruction::new(Op::Atom(op), Some(dst), None, vec![addr.into(), value.into()]));
        dst
    }

    // ----- control flow -----------------------------------------------------

    /// Threadblock barrier.
    pub fn barrier(&mut self) {
        self.emit(Instruction::new(Op::Bar, None, None, vec![]));
    }

    /// Thread exit.
    pub fn exit(&mut self) {
        self.emit(Instruction::new(Op::Exit, None, None, vec![]));
    }

    /// Unconditional backward branch to `label`.
    pub fn branch_back(&mut self, label: Label) {
        assert!(label.0 <= self.instrs.len(), "label out of range");
        self.emit(Instruction::new(Op::Bra { target: label.0 }, None, None, vec![]));
    }

    /// Guarded backward branch to `label`.
    pub fn branch_back_if(&mut self, label: Label, guard: Guard) {
        assert!(label.0 <= self.instrs.len(), "label out of range");
        self.emit(
            Instruction::new(Op::Bra { target: label.0 }, None, None, vec![]).with_guard(guard),
        );
    }

    /// Emits a forward branch with a placeholder target; resolve with
    /// [`KernelBuilder::patch_here`].
    pub fn branch_fwd(&mut self, guard: Option<Guard>) -> PatchHandle {
        let at = self.instrs.len();
        let mut i = Instruction::new(Op::Bra { target: usize::MAX }, None, None, vec![]);
        if let Some(g) = guard {
            i = i.with_guard(g);
        }
        self.emit(i);
        PatchHandle(at)
    }

    /// Points a pending forward branch at the next emitted instruction.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not refer to a pending forward branch.
    pub fn patch_here(&mut self, handle: PatchHandle) {
        let here = self.instrs.len();
        match &mut self.instrs[handle.0].op {
            Op::Bra { target } if *target == usize::MAX => *target = here,
            _ => panic!("patch_here: not a pending forward branch"),
        }
    }

    /// Structured `if (guard) { then }`.
    pub fn if_then(&mut self, guard: Guard, then: impl FnOnce(&mut KernelBuilder)) {
        // Branch around the body when the guard is NOT taken.
        let skip = self.branch_fwd(Some(Guard { pred: guard.pred, negate: !guard.negate }));
        then(self);
        self.patch_here(skip);
    }

    /// Structured `if (guard) { then } else { other }`.
    pub fn if_then_else(
        &mut self,
        guard: Guard,
        then: impl FnOnce(&mut KernelBuilder),
        other: impl FnOnce(&mut KernelBuilder),
    ) {
        let to_else = self.branch_fwd(Some(Guard { pred: guard.pred, negate: !guard.negate }));
        then(self);
        let to_end = self.branch_fwd(None);
        self.patch_here(to_else);
        other(self);
        self.patch_here(to_end);
    }

    /// Structured bottom-test loop: `do { body } while (guard)`, where the
    /// body's closure returns the continuation guard. This is the looping
    /// shape GPU compilers emit for counted `for` loops.
    pub fn do_while(&mut self, body: impl FnOnce(&mut KernelBuilder) -> Guard) {
        let top = self.here();
        let guard = body(self);
        self.branch_back_if(top, guard);
    }

    /// Structured top-test loop: `while (cond) { body }`. The `cond` closure
    /// returns the guard under which the loop *continues*.
    pub fn while_loop(
        &mut self,
        cond: impl FnOnce(&mut KernelBuilder) -> Guard,
        body: impl FnOnce(&mut KernelBuilder),
    ) {
        let top = self.here();
        let guard = cond(self);
        let exit = self.branch_fwd(Some(Guard { pred: guard.pred, negate: !guard.negate }));
        body(self);
        self.branch_back(top);
        self.patch_here(exit);
    }

    /// Counted loop running `n` times with an induction register counting
    /// `0..n`; `body` receives the builder and the induction register.
    pub fn for_count(&mut self, n: impl Into<Operand>, body: impl FnOnce(&mut KernelBuilder, Reg)) {
        let n = n.into();
        let i = self.mov(0u32);
        let p = self.alloc_pred();
        let top = self.here();
        body(self, i);
        self.iadd_to(i, i, 1u32);
        self.setp_to(p, CmpOp::Lt, i, n);
        self.branch_back_if(top, Guard::if_true(p));
    }

    /// Finalizes the kernel. Appends an `Exit` if the stream does not end
    /// with one.
    ///
    /// # Panics
    ///
    /// Panics if any forward branch was left unpatched or validation fails.
    #[must_use]
    pub fn finish(mut self) -> Kernel {
        if !matches!(self.instrs.last().map(|i| i.op), Some(Op::Exit)) {
            self.exit();
        }
        for (pc, i) in self.instrs.iter().enumerate() {
            if let Op::Bra { target } = i.op {
                assert!(target != usize::MAX, "unpatched forward branch at instruction {pc}");
            }
        }
        let mut k = Kernel::new(self.name, self.instrs);
        k.shared_mem_bytes = self.shared_mem_bytes;
        k.num_params = self.num_params;
        k.validate().expect("builder produced an invalid kernel");
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    #[test]
    fn linear_kernel_builds_and_validates() {
        let mut b = KernelBuilder::new("lin");
        let t = b.special(SpecialReg::TidX);
        let base = b.param(0);
        let off = b.shl_imm(t, 2);
        let addr = b.iadd(base, off);
        let v = b.load(MemSpace::Global, addr, 0);
        let w = b.iadd(v, 1u32);
        b.store(MemSpace::Global, addr, w, 0);
        let k = b.finish();
        assert_eq!(k.validate(), Ok(()));
        assert_eq!(k.num_params, 1);
        assert!(matches!(k.instrs.last().unwrap().op, Op::Exit));
    }

    #[test]
    fn if_then_branches_around_body() {
        let mut b = KernelBuilder::new("ite");
        let t = b.special(SpecialReg::TidX);
        let p = b.setp(CmpOp::Lt, t, 16u32);
        b.if_then(Guard::if_true(p), |b| {
            let x = b.mov(1u32);
            b.store(MemSpace::Global, 0u32, x, 0);
        });
        let k = b.finish();
        // instr 2 is the guarded branch; target must be after the body.
        let br = &k.instrs[2];
        assert!(br.op.is_branch());
        assert_eq!(br.guard, Some(Guard::if_false(p)));
        if let Op::Bra { target } = br.op {
            assert_eq!(target, 5, "skips mov+store");
        }
    }

    #[test]
    fn if_then_else_shape() {
        let mut b = KernelBuilder::new("ite2");
        let t = b.special(SpecialReg::TidX);
        let p = b.setp(CmpOp::Eq, t, 0u32);
        let out = b.alloc();
        b.if_then_else(Guard::if_true(p), |b| b.mov_to(out, 1u32), |b| b.mov_to(out, 2u32));
        b.store(MemSpace::Global, 0u32, out, 0);
        let k = b.finish();
        assert_eq!(k.validate(), Ok(()));
        let branches: Vec<usize> = k
            .instrs
            .iter()
            .enumerate()
            .filter(|(_, i)| i.op.is_branch())
            .map(|(pc, _)| pc)
            .collect();
        assert_eq!(branches.len(), 2);
    }

    #[test]
    fn do_while_branches_backward() {
        let mut b = KernelBuilder::new("loop");
        let i = b.mov(0u32);
        b.do_while(|b| {
            b.iadd_to(i, i, 1u32);
            let p = b.setp(CmpOp::Lt, i, 10u32);
            Guard::if_true(p)
        });
        let k = b.finish();
        let br = k.instrs.iter().find(|i| i.op.is_branch()).unwrap();
        if let Op::Bra { target } = br.op {
            assert_eq!(target, 1, "loops back to body top");
        }
    }

    #[test]
    fn while_loop_shape() {
        let mut b = KernelBuilder::new("wl");
        let i = b.mov(0u32);
        let p = b.alloc_pred();
        b.while_loop(
            |b| {
                b.setp_to(p, CmpOp::Lt, i, 4u32);
                Guard::if_true(p)
            },
            |b| {
                b.iadd_to(i, i, 1u32);
            },
        );
        let k = b.finish();
        assert_eq!(k.validate(), Ok(()));
        // Two branches: exit branch (forward) and back edge.
        let n_branches = k.instrs.iter().filter(|i| i.op.is_branch()).count();
        assert_eq!(n_branches, 2);
    }

    #[test]
    fn for_count_runs_induction() {
        let mut b = KernelBuilder::new("fc");
        let acc = b.mov(0u32);
        b.for_count(3u32, |b, i| {
            b.iadd_to(acc, acc, i);
        });
        b.store(MemSpace::Global, 0u32, acc, 0);
        let k = b.finish();
        assert_eq!(k.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "unpatched forward branch")]
    fn unpatched_branch_panics() {
        let mut b = KernelBuilder::new("bad");
        let _h = b.branch_fwd(None);
        let _ = b.finish();
    }

    #[test]
    fn shared_alloc_aligns() {
        let mut b = KernelBuilder::new("sm");
        let a = b.alloc_shared(20);
        let c = b.alloc_shared(4);
        assert_eq!(a, 0);
        assert_eq!(c, 32, "20 bytes rounds up to the next 16-byte boundary");
    }

    #[test]
    fn param_emits_param_load() {
        let mut b = KernelBuilder::new("p");
        let r = b.param(3);
        b.store(MemSpace::Global, 0u32, r, 0);
        let k = b.finish();
        assert_eq!(k.num_params, 4);
        let ld = &k.instrs[0];
        assert_eq!(ld.op.kind(), OpKind::Load);
        assert_eq!(ld.offset, 12);
    }
}
