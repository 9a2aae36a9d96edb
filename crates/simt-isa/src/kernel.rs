//! Kernels (static programs) and launch configurations.

use crate::instruction::Instruction;
use crate::op::Op;
use crate::reg::{MAX_REGS, NUM_PREDS};
use crate::value::{Dim3, Value};
use crate::{INSTR_BYTES, WARP_SIZE};
use std::fmt;

/// Errors produced by [`Kernel::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// An instruction's source-operand count does not match its opcode.
    BadSrcCount {
        /// Offending instruction index.
        pc: usize,
        /// Expected number of sources.
        expected: usize,
        /// Actual number of sources.
        actual: usize,
    },
    /// An op that writes a register has no `dst` (or vice versa).
    BadDst {
        /// Offending instruction index.
        pc: usize,
    },
    /// An op that writes a predicate has no `pdst` (or vice versa).
    BadPdst {
        /// Offending instruction index.
        pc: usize,
    },
    /// A branch targets an instruction index outside the kernel.
    BranchOutOfRange {
        /// Offending instruction index.
        pc: usize,
        /// The invalid target.
        target: usize,
    },
    /// A register id exceeds [`MAX_REGS`].
    RegOutOfRange {
        /// Offending instruction index.
        pc: usize,
    },
    /// A predicate id exceeds the architectural predicate count.
    PredOutOfRange {
        /// Offending instruction index.
        pc: usize,
    },
    /// The kernel has no `Exit` instruction.
    NoExit,
    /// A `bar.sync` carries a guard predicate. Barrier arrival is TB-wide;
    /// guarding it would make arrival thread-dependent, which the barrier
    /// semantics cannot express (self-inconsistent predication).
    PredicatedBarrier {
        /// Offending instruction index.
        pc: usize,
    },
    /// A shared-memory access with an immediate address is statically
    /// outside the kernel's declared shared-memory allocation.
    SharedOffsetOutOfRange {
        /// Offending instruction index.
        pc: usize,
        /// Effective byte address (immediate base plus instruction offset).
        addr: i64,
        /// Declared shared-memory size in bytes.
        size: u32,
    },
    /// A parameter-space load with an immediate address is statically
    /// outside the kernel's declared parameter count. The executor would
    /// silently read 0, which masks launch-plumbing bugs; the footprint
    /// analyses assume every `Ld(Param)` names a real parameter.
    ParamOffsetOutOfRange {
        /// Offending instruction index.
        pc: usize,
        /// Effective byte address (immediate base plus instruction offset).
        addr: i64,
        /// Declared number of 32-bit parameters.
        num_params: u32,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::BadSrcCount { pc, expected, actual } => {
                write!(f, "instruction {pc}: expected {expected} sources, found {actual}")
            }
            KernelError::BadDst { pc } => write!(f, "instruction {pc}: destination mismatch"),
            KernelError::BadPdst { pc } => {
                write!(f, "instruction {pc}: predicate destination mismatch")
            }
            KernelError::BranchOutOfRange { pc, target } => {
                write!(f, "instruction {pc}: branch target {target} out of range")
            }
            KernelError::RegOutOfRange { pc } => {
                write!(f, "instruction {pc}: register id out of range")
            }
            KernelError::PredOutOfRange { pc } => {
                write!(f, "instruction {pc}: predicate id out of range")
            }
            KernelError::NoExit => write!(f, "kernel has no exit instruction"),
            KernelError::PredicatedBarrier { pc } => {
                write!(f, "instruction {pc}: bar.sync must not be guarded")
            }
            KernelError::SharedOffsetOutOfRange { pc, addr, size } => {
                write!(
                    f,
                    "instruction {pc}: static shared-memory address {addr} outside \
                     allocation of {size} bytes"
                )
            }
            KernelError::ParamOffsetOutOfRange { pc, addr, num_params } => {
                write!(
                    f,
                    "instruction {pc}: static parameter address {addr} outside the \
                     {num_params} declared 32-bit parameter(s)"
                )
            }
        }
    }
}

impl std::error::Error for KernelError {}

/// A static kernel: a straight vector of 64-bit instructions plus resource
/// requirements. Program counters are instruction indices; the byte PC of
/// instruction `i` is `i * INSTR_BYTES`.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel name (for reports).
    pub name: String,
    /// The instruction stream.
    pub instrs: Vec<Instruction>,
    /// Per-thread register demand (highest register id used + 1).
    pub num_regs: u16,
    /// Shared-memory bytes required per threadblock.
    pub shared_mem_bytes: u32,
    /// Number of 32-bit kernel parameters expected in [`LaunchConfig::params`].
    pub num_params: u32,
}

impl Kernel {
    /// Creates a kernel, computing the register and parameter demand from
    /// the instruction stream.
    #[must_use]
    pub fn new(name: impl Into<String>, instrs: Vec<Instruction>) -> Kernel {
        let mut k =
            Kernel { name: name.into(), instrs, num_regs: 0, shared_mem_bytes: 0, num_params: 0 };
        k.num_regs = k.compute_reg_demand();
        k.num_params = k.compute_param_demand();
        k
    }

    fn compute_reg_demand(&self) -> u16 {
        let mut max = 0u16;
        for i in &self.instrs {
            if let Some(d) = i.dst {
                max = max.max(u16::from(d.0) + 1);
            }
            for r in i.src_regs() {
                max = max.max(u16::from(r.0) + 1);
            }
        }
        max
    }

    /// Highest 32-bit parameter index named by a statically-addressed
    /// parameter load, plus one. Parameter loads whose base register is
    /// dynamic contribute nothing (they stay the caller's obligation).
    fn compute_param_demand(&self) -> u32 {
        let mut max = 0u32;
        for i in &self.instrs {
            if !matches!(i.op, Op::Ld(crate::op::MemSpace::Param)) {
                continue;
            }
            if let Some(&crate::instruction::Operand::Imm(base)) = i.srcs.first() {
                let addr = i64::from(base) + i64::from(i.offset);
                if addr >= 0 {
                    if let Ok(idx) = u32::try_from(addr / 4) {
                        max = max.max(idx + 1);
                    }
                }
            }
        }
        max
    }

    /// Number of static instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True when the kernel has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Byte address of the instruction at index `pc`.
    #[must_use]
    pub fn byte_pc(pc: usize) -> u64 {
        pc as u64 * INSTR_BYTES
    }

    /// Checks structural well-formedness of the instruction stream.
    ///
    /// # Errors
    ///
    /// Returns the first [`KernelError`] found, if any.
    pub fn validate(&self) -> Result<(), KernelError> {
        let mut has_exit = false;
        for (pc, i) in self.instrs.iter().enumerate() {
            let expected = i.op.num_srcs();
            if i.srcs.len() != expected {
                return Err(KernelError::BadSrcCount { pc, expected, actual: i.srcs.len() });
            }
            if i.op.writes_dst() != i.dst.is_some() {
                return Err(KernelError::BadDst { pc });
            }
            if i.op.writes_pdst() != i.pdst.is_some() {
                return Err(KernelError::BadPdst { pc });
            }
            if let Op::Bra { target } = i.op {
                if target >= self.instrs.len() {
                    return Err(KernelError::BranchOutOfRange { pc, target });
                }
            }
            if let Some(d) = i.dst {
                if u16::from(d.0) >= MAX_REGS {
                    return Err(KernelError::RegOutOfRange { pc });
                }
            }
            for r in i.src_regs() {
                if u16::from(r.0) >= MAX_REGS {
                    return Err(KernelError::RegOutOfRange { pc });
                }
            }
            let preds = i.pdst.into_iter().chain(i.guard.map(|g| g.pred)).chain(match i.op {
                Op::Sel(p) => Some(p),
                _ => None,
            });
            for p in preds {
                if p.0 >= NUM_PREDS {
                    return Err(KernelError::PredOutOfRange { pc });
                }
            }
            if matches!(i.op, Op::Bar) && i.guard.is_some() {
                return Err(KernelError::PredicatedBarrier { pc });
            }
            if let Op::Ld(crate::op::MemSpace::Shared) | Op::St(crate::op::MemSpace::Shared) = i.op
            {
                // The address operand is the first source; when it is a
                // static immediate the access is fully decidable here. The
                // executor reads/writes one 32-bit word at
                // `base + offset`, so the whole word must sit inside the
                // declared allocation (matching `exec.rs` semantics of
                // word index `addr / 4 < ceil(size / 4)`).
                if let Some(&crate::instruction::Operand::Imm(base)) = i.srcs.first() {
                    let addr = i64::from(base) + i64::from(i.offset);
                    let words = i64::from(self.shared_mem_bytes.div_ceil(4));
                    if addr < 0 || addr / 4 >= words {
                        return Err(KernelError::SharedOffsetOutOfRange {
                            pc,
                            addr,
                            size: self.shared_mem_bytes,
                        });
                    }
                }
            }
            if let Op::Ld(crate::op::MemSpace::Param) = i.op {
                // Same static decidability as the shared check: an
                // immediate base makes the 32-bit parameter index
                // `(base + offset) / 4` a compile-time constant, which
                // must name one of the declared parameters (the executor
                // silently reads 0 past the end).
                if let Some(&crate::instruction::Operand::Imm(base)) = i.srcs.first() {
                    let addr = i64::from(base) + i64::from(i.offset);
                    if addr < 0 || addr / 4 >= i64::from(self.num_params) {
                        return Err(KernelError::ParamOffsetOutOfRange {
                            pc,
                            addr,
                            num_params: self.num_params,
                        });
                    }
                }
            }
            if matches!(i.op, Op::Exit) {
                has_exit = true;
            }
        }
        if !has_exit {
            return Err(KernelError::NoExit);
        }
        Ok(())
    }
}

/// A kernel launch: grid and block shapes plus parameter words.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchConfig {
    /// Grid shape in threadblocks.
    pub grid: Dim3,
    /// Threadblock shape in threads.
    pub block: Dim3,
    /// 32-bit kernel parameters (pointers are byte addresses into global
    /// memory, scalars are raw words).
    pub params: Vec<Value>,
    /// SIMT width; [`WARP_SIZE`] unless overridden for worked examples.
    pub warp_size: u32,
}

impl LaunchConfig {
    /// Launch with the given grid/block shapes and no parameters.
    #[must_use]
    pub fn new(grid: impl Into<Dim3>, block: impl Into<Dim3>) -> LaunchConfig {
        LaunchConfig {
            grid: grid.into(),
            block: block.into(),
            params: Vec::new(),
            warp_size: WARP_SIZE,
        }
    }

    /// Returns a copy with the given parameter words.
    #[must_use]
    pub fn with_params(mut self, params: Vec<Value>) -> LaunchConfig {
        self.params = params;
        self
    }

    /// Returns a copy with a non-default warp size (used by the paper's
    /// warp-size-4 worked example in Figure 3).
    #[must_use]
    pub fn with_warp_size(mut self, warp_size: u32) -> LaunchConfig {
        assert!(warp_size.is_power_of_two(), "warp size must be a power of two");
        self.warp_size = warp_size;
        self
    }

    /// Threads per block.
    #[must_use]
    pub fn threads_per_block(&self) -> u32 {
        self.block.count() as u32
    }

    /// Warps per block (rounded up).
    #[must_use]
    pub fn warps_per_block(&self) -> u32 {
        self.threads_per_block().div_ceil(self.warp_size)
    }

    /// Total threadblocks in the grid.
    #[must_use]
    pub fn num_blocks(&self) -> u64 {
        self.grid.count()
    }

    /// The launch-time dimensionality check of paper Section 4.2: in this
    /// launch, do conditionally redundant instructions become *definitely*
    /// redundant? True iff the block is multi-dimensional and the
    /// x-dimension is a power of two no larger than the warp size (so the
    /// `tid.x` lane pattern repeats identically in every warp).
    #[must_use]
    pub fn promotes_conditional_redundancy(&self) -> bool {
        self.block.y > 1 && self.block.x.is_power_of_two() && self.block.x <= self.warp_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::{Guard, Instruction, Operand};
    use crate::op::CmpOp;
    use crate::reg::{Pred, Reg, SpecialReg};

    fn exit() -> Instruction {
        Instruction::new(Op::Exit, None, None, vec![])
    }

    #[test]
    fn reg_demand_counts_highest_register() {
        let k = Kernel::new(
            "t",
            vec![
                Instruction::new(Op::S2R(SpecialReg::TidX), Some(Reg(5)), None, vec![]),
                Instruction::new(Op::IAdd, Some(Reg(1)), None, vec![Reg(5).into(), Reg(9).into()]),
                exit(),
            ],
        );
        assert_eq!(k.num_regs, 10);
    }

    #[test]
    fn validate_accepts_wellformed() {
        let k = Kernel::new(
            "t",
            vec![
                Instruction::new(Op::Mov, Some(Reg(0)), None, vec![Operand::Imm(1)]),
                Instruction::new(
                    Op::Setp(CmpOp::Lt),
                    None,
                    Some(Pred(0)),
                    vec![Reg(0).into(), Operand::Imm(10)],
                ),
                Instruction::new(Op::Bra { target: 0 }, None, None, vec![])
                    .with_guard(Guard::if_true(Pred(0))),
                exit(),
            ],
        );
        assert_eq!(k.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_src_count() {
        let k = Kernel::new(
            "t",
            vec![Instruction::new(Op::IAdd, Some(Reg(0)), None, vec![Reg(1).into()]), exit()],
        );
        assert_eq!(k.validate(), Err(KernelError::BadSrcCount { pc: 0, expected: 2, actual: 1 }));
    }

    #[test]
    fn validate_rejects_missing_dst() {
        let k = Kernel::new(
            "t",
            vec![
                Instruction::new(Op::IAdd, None, None, vec![Reg(1).into(), Reg(2).into()]),
                exit(),
            ],
        );
        assert_eq!(k.validate(), Err(KernelError::BadDst { pc: 0 }));
    }

    #[test]
    fn validate_rejects_out_of_range_branch() {
        let k = Kernel::new(
            "t",
            vec![Instruction::new(Op::Bra { target: 9 }, None, None, vec![]), exit()],
        );
        assert_eq!(k.validate(), Err(KernelError::BranchOutOfRange { pc: 0, target: 9 }));
    }

    #[test]
    fn validate_rejects_missing_exit() {
        let k = Kernel::new(
            "t",
            vec![Instruction::new(Op::Mov, Some(Reg(0)), None, vec![Operand::Imm(0)])],
        );
        assert_eq!(k.validate(), Err(KernelError::NoExit));
    }

    #[test]
    fn validate_rejects_bad_pred_id() {
        let k = Kernel::new(
            "t",
            vec![
                Instruction::new(
                    Op::Setp(CmpOp::Eq),
                    None,
                    Some(Pred(7)),
                    vec![Reg(0).into(), Reg(0).into()],
                ),
                exit(),
            ],
        );
        assert_eq!(k.validate(), Err(KernelError::PredOutOfRange { pc: 0 }));
    }

    #[test]
    fn validate_rejects_predicated_barrier() {
        let k = Kernel::new(
            "t",
            vec![
                Instruction::new(Op::Bar, None, None, vec![]).with_guard(Guard::if_true(Pred(0))),
                exit(),
            ],
        );
        assert_eq!(k.validate(), Err(KernelError::PredicatedBarrier { pc: 0 }));
        // The same barrier without a guard is fine.
        let k = Kernel::new("t", vec![Instruction::new(Op::Bar, None, None, vec![]), exit()]);
        assert_eq!(k.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_shared_offset_out_of_range() {
        use crate::op::MemSpace;
        let mk = |instr: Instruction, smem: u32| {
            let mut k = Kernel::new("t", vec![instr, exit()]);
            k.shared_mem_bytes = smem;
            k
        };
        // Static store one word past a 16-byte allocation.
        let st = Instruction::new(
            Op::St(MemSpace::Shared),
            None,
            None,
            vec![Operand::Imm(16), Reg(0).into()],
        );
        assert_eq!(
            mk(st, 16).validate(),
            Err(KernelError::SharedOffsetOutOfRange { pc: 0, addr: 16, size: 16 })
        );
        // Static load with a negative effective address.
        let ld =
            Instruction::new(Op::Ld(MemSpace::Shared), Some(Reg(0)), None, vec![Operand::Imm(0)])
                .with_offset(-4);
        assert_eq!(
            mk(ld, 16).validate(),
            Err(KernelError::SharedOffsetOutOfRange { pc: 0, addr: -4, size: 16 })
        );
        // The last in-bounds word is accepted, offset included.
        let ld =
            Instruction::new(Op::Ld(MemSpace::Shared), Some(Reg(0)), None, vec![Operand::Imm(8)])
                .with_offset(4);
        assert_eq!(mk(ld, 16).validate(), Ok(()));
        // Register addresses are dynamic and stay out of scope here.
        let ld =
            Instruction::new(Op::Ld(MemSpace::Shared), Some(Reg(0)), None, vec![Reg(1).into()])
                .with_offset(1 << 20);
        assert_eq!(mk(ld, 16).validate(), Ok(()));
    }

    #[test]
    fn param_demand_is_inferred_from_static_loads() {
        use crate::op::MemSpace;
        let ld =
            Instruction::new(Op::Ld(MemSpace::Param), Some(Reg(0)), None, vec![Operand::Imm(0)])
                .with_offset(8);
        let k = Kernel::new("t", vec![ld, exit()]);
        assert_eq!(k.num_params, 3);
        assert_eq!(k.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_param_offset_out_of_range() {
        use crate::op::MemSpace;
        let mk = |instr: Instruction, num_params: u32| {
            let mut k = Kernel::new("t", vec![instr, exit()]);
            k.num_params = num_params;
            k
        };
        // One word past the declared parameters.
        let ld =
            Instruction::new(Op::Ld(MemSpace::Param), Some(Reg(0)), None, vec![Operand::Imm(8)]);
        assert_eq!(
            mk(ld.clone(), 2).validate(),
            Err(KernelError::ParamOffsetOutOfRange { pc: 0, addr: 8, num_params: 2 })
        );
        // The boundary parameter itself is accepted.
        assert_eq!(mk(ld, 3).validate(), Ok(()));
        // Negative effective address.
        let ld =
            Instruction::new(Op::Ld(MemSpace::Param), Some(Reg(0)), None, vec![Operand::Imm(0)])
                .with_offset(-4);
        assert_eq!(
            mk(ld, 4).validate(),
            Err(KernelError::ParamOffsetOutOfRange { pc: 0, addr: -4, num_params: 4 })
        );
        // A kernel that takes no parameters must not load any.
        let ld =
            Instruction::new(Op::Ld(MemSpace::Param), Some(Reg(0)), None, vec![Operand::Imm(0)]);
        assert_eq!(
            mk(ld, 0).validate(),
            Err(KernelError::ParamOffsetOutOfRange { pc: 0, addr: 0, num_params: 0 })
        );
        // Register-addressed parameter loads are dynamic: out of scope.
        let ld = Instruction::new(Op::Ld(MemSpace::Param), Some(Reg(0)), None, vec![Reg(1).into()])
            .with_offset(1 << 20);
        assert_eq!(mk(ld, 0).validate(), Ok(()));
    }

    #[test]
    fn launch_geometry() {
        let l = LaunchConfig::new(28u32, (16u32, 16u32));
        assert_eq!(l.threads_per_block(), 256);
        assert_eq!(l.warps_per_block(), 8);
        assert_eq!(l.num_blocks(), 28);
    }

    #[test]
    fn warps_per_block_rounds_up() {
        let l = LaunchConfig::new(1u32, (10u32, 3u32));
        assert_eq!(l.threads_per_block(), 30);
        assert_eq!(l.warps_per_block(), 1);
        let l2 = LaunchConfig::new(1u32, (10u32, 5u32));
        assert_eq!(l2.warps_per_block(), 2);
    }

    #[test]
    fn promotion_check_matches_paper() {
        // 2D, x pow2 and <= warp size: promoted.
        assert!(LaunchConfig::new(1u32, (16u32, 16u32)).promotes_conditional_redundancy());
        assert!(LaunchConfig::new(1u32, (32u32, 32u32)).promotes_conditional_redundancy());
        assert!(LaunchConfig::new(1u32, (8u32, 8u32)).promotes_conditional_redundancy());
        // 1D: never promoted.
        assert!(!LaunchConfig::new(1u32, 256u32).promotes_conditional_redundancy());
        // x too large.
        assert!(!LaunchConfig::new(1u32, (64u32, 4u32)).promotes_conditional_redundancy());
        // x not a power of two.
        assert!(!LaunchConfig::new(1u32, (12u32, 12u32)).promotes_conditional_redundancy());
        // Small warp size raises the bar.
        let l = LaunchConfig::new(1u32, (8u32, 8u32)).with_warp_size(4);
        assert!(!l.promotes_conditional_redundancy());
        let l = LaunchConfig::new(1u32, (4u32, 2u32)).with_warp_size(4);
        assert!(l.promotes_conditional_redundancy());
    }
}
