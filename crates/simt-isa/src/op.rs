//! Opcodes of the virtual SIMT ISA.

use crate::reg::{Pred, SpecialReg};
use std::fmt;

/// Integer / float comparison operator used by `SETP`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than (signed for integers).
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// All comparison operators.
    pub const ALL: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

    /// Evaluates the comparison: `setp` on signed integers, `setp.f32`
    /// on floats (where every comparison but `ne` with a NaN is false,
    /// as `PartialOrd` has it), and the analyses on wider integers.
    #[must_use]
    #[inline]
    pub fn eval<T: PartialOrd>(self, a: T, b: T) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// Memory space addressed by loads and stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemSpace {
    /// Off-chip global memory, cached in L1/L2.
    Global,
    /// On-chip per-threadblock scratchpad (CUDA `__shared__`).
    Shared,
    /// Read-only kernel parameter / constant space.
    Param,
}

impl MemSpace {
    /// All memory spaces.
    pub const ALL: [MemSpace; 3] = [MemSpace::Global, MemSpace::Shared, MemSpace::Param];
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemSpace::Global => "global",
            MemSpace::Shared => "shared",
            MemSpace::Param => "param",
        };
        f.write_str(s)
    }
}

/// Read-modify-write operation performed by `ATOM` on global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AtomOp {
    /// `old + v`.
    Add,
    /// `max(old, v)` (signed).
    Max,
    /// `min(old, v)` (signed).
    Min,
    /// Exchange: new value is `v`.
    Exch,
}

impl AtomOp {
    /// All atomic operations.
    pub const ALL: [AtomOp; 4] = [AtomOp::Add, AtomOp::Max, AtomOp::Min, AtomOp::Exch];

    /// Applies the read-modify-write function.
    #[must_use]
    pub fn apply(self, old: u32, v: u32) -> u32 {
        match self {
            AtomOp::Add => old.wrapping_add(v),
            AtomOp::Max => (old as i32).max(v as i32) as u32,
            AtomOp::Min => (old as i32).min(v as i32) as u32,
            AtomOp::Exch => v,
        }
    }
}

/// `r`, the bits a float op computes, unless one of the operand words
/// `ops` is NaN: then the first NaN of `ops`, quieted. IEEE 754 leaves
/// open which NaN comes out when several operands are NaN, and compiled
/// code chooses differently: x86's FMA instruction and libm's `fmaf`
/// differ, and the AVX2 executor's vectorised `fadd` and `fmul` swap
/// their operands. So the ISA makes the first NaN operand win. A
/// two-operand op passes only its first operand: a sole NaN second
/// operand already comes out of IEEE arithmetic quieted.
#[inline(always)]
fn first_nan_or<const N: usize>(ops: [u32; N], r: u32) -> u32 {
    const QUIET: u32 = 0x0040_0000;
    // Selects on compares, so a lane loop vectorises.
    ops.into_iter().rev().fold(r, |acc, x| if f32::from_bits(x).is_nan() { x | QUIET } else { acc })
}

/// The bits ALU opcode `op` computes for one thread from operand words
/// `a`, `b`, `c` (an operand the opcode does not take reads as 0), or
/// `None` when `op` is not an ALU opcode. The executor, the symbolic
/// constant folder and the test references all compute through this one
/// rule ([`Op::eval`] is its body).
///
/// Never inlined: Rust leaves NaN payloads unspecified, and a caller
/// whose operands are compile-time constants can see LLVM fold a float
/// op to other NaN bits than the run-time code computes. Out of line,
/// every caller gets the run-time bits.
#[must_use]
#[inline(never)]
pub fn alu(op: Op, a: u32, b: u32, c: u32) -> Option<u32> {
    op.eval(a, b, c)
}

impl fmt::Display for AtomOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AtomOp::Add => "add",
            AtomOp::Max => "max",
            AtomOp::Min => "min",
            AtomOp::Exch => "exch",
        };
        f.write_str(s)
    }
}

/// Coarse functional class of an opcode, used by the timing model to select
/// an execution unit and by the energy model to charge per-event energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Simple integer / logic / move operations (SP units).
    IntAlu,
    /// Single-precision floating point (SP units).
    FpAlu,
    /// Transcendental / division (SFU).
    Sfu,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Global atomic read-modify-write.
    Atomic,
    /// Control flow (branch).
    Branch,
    /// Threadblock barrier.
    Barrier,
    /// Kernel termination.
    Exit,
}

/// Opcode of an [`Instruction`](crate::Instruction).
///
/// Source-operand conventions (validated by [`Kernel::validate`](crate::Kernel::validate)):
///
/// | op | srcs | dst | pdst |
/// |---|---|---|---|
/// | binary ALU | 2 | yes | no |
/// | `IMad`/`FFma` | 3 (`a*b + c`) | yes | no |
/// | `Not`, `Mov`, `I2F`, `F2I`, `FRcp`, `FSqrt`, `FExp2`, `FLog2` | 1 | yes | no |
/// | `S2R` | 0 | yes | no |
/// | `Setp`/`SetpF` | 2 | no | yes |
/// | `Sel` | 2 | yes | no (reads the named predicate) |
/// | `Ld` | 1 (addr) | yes | no |
/// | `St` | 2 (addr, value) | no | no |
/// | `Atom` | 2 (addr, value) | optional old value | no |
/// | `Bra` | 0 | no | no (condition via guard) |
/// | `Bar`, `Exit` | 0 | no | no |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Integer add.
    IAdd,
    /// Integer subtract.
    ISub,
    /// Integer multiply (low 32 bits).
    IMul,
    /// Integer multiply, high 32 bits of the signed product.
    IMulHi,
    /// Integer multiply-add: `srcs[0] * srcs[1] + srcs[2]`.
    IMad,
    /// Signed minimum.
    IMin,
    /// Signed maximum.
    IMax,
    /// Shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sra,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Bitwise not (one source).
    Not,
    /// Float add.
    FAdd,
    /// Float subtract.
    FSub,
    /// Float multiply.
    FMul,
    /// Fused multiply-add: `srcs[0] * srcs[1] + srcs[2]`.
    FFma,
    /// Float minimum.
    FMin,
    /// Float maximum.
    FMax,
    /// Float divide (SFU).
    FDiv,
    /// Float reciprocal (SFU).
    FRcp,
    /// Float square root (SFU).
    FSqrt,
    /// Float `2^x` (SFU).
    FExp2,
    /// Float `log2(x)` (SFU).
    FLog2,
    /// Register / immediate move.
    Mov,
    /// Signed integer to float conversion.
    I2F,
    /// Float to signed integer conversion (round toward zero).
    F2I,
    /// Read a special register into a general register.
    S2R(SpecialReg),
    /// Integer compare, writes a predicate.
    Setp(CmpOp),
    /// Float compare, writes a predicate.
    SetpF(CmpOp),
    /// Predicated select: `dst = pred ? srcs[0] : srcs[1]`.
    Sel(Pred),
    /// Load from a memory space; address is `srcs[0] + offset`.
    Ld(MemSpace),
    /// Store to a memory space; address is `srcs[0] + offset`, value `srcs[1]`.
    St(MemSpace),
    /// Global atomic read-modify-write; address `srcs[0] + offset`, value `srcs[1]`.
    Atom(AtomOp),
    /// Branch to the instruction at index `target` (conditional via guard).
    Bra {
        /// Target instruction index within the kernel.
        target: usize,
    },
    /// Threadblock-wide barrier (`__syncthreads()`).
    Bar,
    /// Thread exit.
    Exit,
}

impl Op {
    /// Every opcode [`alu`] computes, in declaration order.
    pub const ALU: [Op; 28] = [
        Op::IAdd,
        Op::ISub,
        Op::IMul,
        Op::IMulHi,
        Op::IMad,
        Op::IMin,
        Op::IMax,
        Op::Shl,
        Op::Shr,
        Op::Sra,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Not,
        Op::FAdd,
        Op::FSub,
        Op::FMul,
        Op::FFma,
        Op::FMin,
        Op::FMax,
        Op::FDiv,
        Op::FRcp,
        Op::FSqrt,
        Op::FExp2,
        Op::FLog2,
        Op::Mov,
        Op::I2F,
        Op::F2I,
    ];

    /// The body of [`alu`], inlined into the executor's per-opcode lane
    /// loops, whose operands are never compile-time constants. Any other
    /// caller calls [`alu`].
    #[must_use]
    #[inline(always)]
    pub fn eval(self, a: u32, b: u32, c: u32) -> Option<u32> {
        let (ai, bi) = (a as i32, b as i32);
        let (af, bf) = (f32::from_bits(a), f32::from_bits(b));
        Some(match self {
            Op::IAdd => a.wrapping_add(b),
            Op::ISub => a.wrapping_sub(b),
            Op::IMul => a.wrapping_mul(b),
            Op::IMulHi => ((i64::from(ai) * i64::from(bi)) >> 32) as u32,
            Op::IMad => a.wrapping_mul(b).wrapping_add(c),
            Op::IMin => ai.min(bi) as u32,
            Op::IMax => ai.max(bi) as u32,
            Op::Shl => a.wrapping_shl(b & 31),
            Op::Shr => a.wrapping_shr(b & 31),
            Op::Sra => (ai >> (b & 31)) as u32,
            Op::And => a & b,
            Op::Or => a | b,
            Op::Xor => a ^ b,
            Op::Not => !a,
            Op::FAdd => first_nan_or([a], (af + bf).to_bits()),
            Op::FSub => first_nan_or([a], (af - bf).to_bits()),
            Op::FMul => first_nan_or([a], (af * bf).to_bits()),
            Op::FFma => first_nan_or([a, b, c], af.mul_add(bf, f32::from_bits(c)).to_bits()),
            Op::FMin => af.min(bf).to_bits(),
            Op::FMax => af.max(bf).to_bits(),
            Op::FDiv => first_nan_or([a], (af / bf).to_bits()),
            Op::FRcp => (1.0 / af).to_bits(),
            Op::FSqrt => af.sqrt().to_bits(),
            Op::FExp2 => af.exp2().to_bits(),
            Op::FLog2 => af.log2().to_bits(),
            Op::Mov => a,
            Op::I2F => (ai as f32).to_bits(),
            Op::F2I => {
                // Round toward zero with saturation, like CUDA cvt.rzi.
                let t = af.trunc();
                if t.is_nan() {
                    0
                } else {
                    (t.clamp(i32::MIN as f32, i32::MAX as f32) as i32) as u32
                }
            }
            _ => return None,
        })
    }

    /// Functional class of this opcode.
    #[must_use]
    pub fn kind(self) -> OpKind {
        match self {
            Op::IAdd
            | Op::ISub
            | Op::IMul
            | Op::IMulHi
            | Op::IMad
            | Op::IMin
            | Op::IMax
            | Op::Shl
            | Op::Shr
            | Op::Sra
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Not
            | Op::Mov
            | Op::S2R(_)
            | Op::Setp(_)
            | Op::Sel(_) => OpKind::IntAlu,
            Op::FAdd
            | Op::FSub
            | Op::FMul
            | Op::FFma
            | Op::FMin
            | Op::FMax
            | Op::I2F
            | Op::F2I
            | Op::SetpF(_) => OpKind::FpAlu,
            Op::FDiv | Op::FRcp | Op::FSqrt | Op::FExp2 | Op::FLog2 => OpKind::Sfu,
            Op::Ld(_) => OpKind::Load,
            Op::St(_) => OpKind::Store,
            Op::Atom(_) => OpKind::Atomic,
            Op::Bra { .. } => OpKind::Branch,
            Op::Bar => OpKind::Barrier,
            Op::Exit => OpKind::Exit,
        }
    }

    /// Number of source operands this opcode expects.
    #[must_use]
    pub fn num_srcs(self) -> usize {
        match self {
            Op::S2R(_) | Op::Bra { .. } | Op::Bar | Op::Exit => 0,
            Op::Not
            | Op::Mov
            | Op::I2F
            | Op::F2I
            | Op::FRcp
            | Op::FSqrt
            | Op::FExp2
            | Op::FLog2
            | Op::Ld(_) => 1,
            Op::IMad | Op::FFma => 3,
            _ => 2,
        }
    }

    /// True when the opcode writes a general destination register.
    #[must_use]
    pub fn writes_dst(self) -> bool {
        !matches!(
            self,
            Op::Setp(_) | Op::SetpF(_) | Op::St(_) | Op::Bra { .. } | Op::Bar | Op::Exit
        )
    }

    /// True when the opcode writes a predicate register.
    #[must_use]
    pub fn writes_pdst(self) -> bool {
        matches!(self, Op::Setp(_) | Op::SetpF(_))
    }

    /// True for memory loads.
    #[must_use]
    pub fn is_load(self) -> bool {
        matches!(self, Op::Ld(_))
    }

    /// True for memory stores.
    #[must_use]
    pub fn is_store(self) -> bool {
        matches!(self, Op::St(_))
    }

    /// True for branches.
    #[must_use]
    pub fn is_branch(self) -> bool {
        matches!(self, Op::Bra { .. })
    }

    /// Mnemonic without operands.
    #[must_use]
    pub fn mnemonic(self) -> String {
        match self {
            Op::IAdd => "iadd".into(),
            Op::ISub => "isub".into(),
            Op::IMul => "imul".into(),
            Op::IMulHi => "imul.hi".into(),
            Op::IMad => "imad".into(),
            Op::IMin => "imin".into(),
            Op::IMax => "imax".into(),
            Op::Shl => "shl".into(),
            Op::Shr => "shr".into(),
            Op::Sra => "sra".into(),
            Op::And => "and".into(),
            Op::Or => "or".into(),
            Op::Xor => "xor".into(),
            Op::Not => "not".into(),
            Op::FAdd => "fadd".into(),
            Op::FSub => "fsub".into(),
            Op::FMul => "fmul".into(),
            Op::FFma => "ffma".into(),
            Op::FMin => "fmin".into(),
            Op::FMax => "fmax".into(),
            Op::FDiv => "fdiv".into(),
            Op::FRcp => "frcp".into(),
            Op::FSqrt => "fsqrt".into(),
            Op::FExp2 => "fexp2".into(),
            Op::FLog2 => "flog2".into(),
            Op::Mov => "mov".into(),
            Op::I2F => "i2f".into(),
            Op::F2I => "f2i".into(),
            Op::S2R(s) => format!("s2r {s}"),
            Op::Setp(c) => format!("setp.{c}.s32"),
            Op::SetpF(c) => format!("setp.{c}.f32"),
            Op::Sel(p) => format!("sel.{p}"),
            Op::Ld(s) => format!("ld.{s}"),
            Op::St(s) => format!("st.{s}"),
            Op::Atom(a) => format!("atom.{a}"),
            Op::Bra { target } => format!("bra {:#x}", target * 8),
            Op::Bar => "bar.sync".into(),
            Op::Exit => "exit".into(),
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_int_semantics() {
        assert!(CmpOp::Lt.eval::<i32>(-1, 0));
        assert!(!CmpOp::Lt.eval::<i32>(0, -1));
        assert!(CmpOp::Ge.eval::<i32>(3, 3));
        assert!(CmpOp::Ne.eval::<i32>(1, 2));
        assert!(CmpOp::Eq.eval::<i32>(7, 7));
        assert!(CmpOp::Gt.eval::<i32>(1, 0));
        assert!(CmpOp::Le.eval::<i32>(1, 1));
    }

    #[test]
    fn cmp_op_float_nan_is_unordered() {
        for c in CmpOp::ALL {
            if c == CmpOp::Ne {
                assert!(c.eval::<f32>(f32::NAN, 1.0));
            } else {
                assert!(!c.eval::<f32>(f32::NAN, 1.0), "{c} with NaN should be false");
            }
        }
    }

    #[test]
    fn atom_op_semantics() {
        assert_eq!(AtomOp::Add.apply(3, 4), 7);
        assert_eq!(AtomOp::Max.apply((-1i32) as u32, 4), 4);
        assert_eq!(AtomOp::Min.apply((-1i32) as u32, 4), (-1i32) as u32);
        assert_eq!(AtomOp::Exch.apply(3, 9), 9);
        assert_eq!(AtomOp::Add.apply(u32::MAX, 1), 0, "atomics wrap");
    }

    #[test]
    fn alu_semantics() {
        let alu = |op, a, b, c| alu(op, a, b, c).expect("an ALU op");
        assert_eq!(alu(Op::IAdd, 7, u32::MAX, 0), 6, "wrapping add");
        assert_eq!(alu(Op::ISub, 3, 5, 0) as i32, -2);
        assert_eq!(alu(Op::IMulHi, 0x8000_0000, 2, 0), u32::MAX, "signed hi mul");
        assert_eq!(alu(Op::IMad, 3, 4, 5), 17);
        assert_eq!(alu(Op::Sra, (-8i32) as u32, 1, 0) as i32, -4);
        assert_eq!(alu(Op::Shr, (-8i32) as u32, 1, 0), 0x7FFF_FFFC);
        assert_eq!(alu(Op::Shl, 1, 33, 0), 2, "shift amounts are taken mod 32");
        assert_eq!(
            f32::from_bits(alu(Op::FFma, 2.0f32.to_bits(), 3.0f32.to_bits(), 1.0f32.to_bits())),
            7.0
        );
        assert_eq!(f32::from_bits(alu(Op::FSqrt, 9.0f32.to_bits(), 0, 0)), 3.0);
        assert_eq!(alu(Op::FFma, 0x7F80_0001, 0xFFC0_0001, 0), 0x7FC0_0001, "first NaN, quieted");
        assert_eq!(alu(Op::FFma, 0, 0x7F80_0000, 0x7FC1_2345), 0x7FC1_2345, "0 * inf + NaN");
        for op in [Op::FAdd, Op::FSub, Op::FMul, Op::FDiv] {
            assert_eq!(alu(op, 0x7F80_0001, 0xFFC0_0001, 0), 0x7FC0_0001, "{op:?}: first NaN");
            assert_eq!(alu(op, 0x3F80_0000, 0xFFBF_FFFF, 0), 0xFFFF_FFFF, "{op:?}: quieted");
        }
        assert_eq!(alu(Op::F2I, (-2.7f32).to_bits(), 0, 0) as i32, -2, "truncates toward zero");
        assert_eq!(alu(Op::F2I, f32::NAN.to_bits(), 0, 0), 0);
        assert_eq!(alu(Op::F2I, f32::INFINITY.to_bits(), 0, 0), i32::MAX as u32, "saturates");
        assert_eq!(f32::from_bits(alu(Op::I2F, (-3i32) as u32, 0, 0)), -3.0);
    }

    #[test]
    fn non_alu_ops_return_none() {
        assert!(Op::ALU.iter().all(|&op| alu(op, 1, 2, 3).is_some()));
        for op in [
            Op::S2R(SpecialReg::TidX),
            Op::Setp(CmpOp::Lt),
            Op::SetpF(CmpOp::Eq),
            Op::Sel(Pred(0)),
            Op::Ld(MemSpace::Global),
            Op::St(MemSpace::Shared),
            Op::Atom(AtomOp::Add),
            Op::Bra { target: 0 },
            Op::Bar,
            Op::Exit,
        ] {
            assert_eq!(alu(op, 1, 2, 3), None, "{op:?}");
        }
    }

    #[test]
    fn op_src_counts() {
        assert_eq!(Op::IAdd.num_srcs(), 2);
        assert_eq!(Op::IMad.num_srcs(), 3);
        assert_eq!(Op::FFma.num_srcs(), 3);
        assert_eq!(Op::Mov.num_srcs(), 1);
        assert_eq!(Op::S2R(SpecialReg::TidX).num_srcs(), 0);
        assert_eq!(Op::Ld(MemSpace::Global).num_srcs(), 1);
        assert_eq!(Op::St(MemSpace::Shared).num_srcs(), 2);
        assert_eq!(Op::Atom(AtomOp::Add).num_srcs(), 2);
        assert_eq!(Op::Bra { target: 0 }.num_srcs(), 0);
    }

    #[test]
    fn op_writes_classification() {
        assert!(Op::IAdd.writes_dst());
        assert!(Op::Ld(MemSpace::Global).writes_dst());
        assert!(Op::Atom(AtomOp::Add).writes_dst());
        assert!(!Op::St(MemSpace::Global).writes_dst());
        assert!(!Op::Setp(CmpOp::Eq).writes_dst());
        assert!(Op::Setp(CmpOp::Eq).writes_pdst());
        assert!(!Op::IAdd.writes_pdst());
        assert!(!Op::Bra { target: 3 }.writes_dst());
    }

    #[test]
    fn op_kinds() {
        assert_eq!(Op::IAdd.kind(), OpKind::IntAlu);
        assert_eq!(Op::FFma.kind(), OpKind::FpAlu);
        assert_eq!(Op::FSqrt.kind(), OpKind::Sfu);
        assert_eq!(Op::Ld(MemSpace::Global).kind(), OpKind::Load);
        assert_eq!(Op::St(MemSpace::Shared).kind(), OpKind::Store);
        assert_eq!(Op::Atom(AtomOp::Add).kind(), OpKind::Atomic);
        assert_eq!(Op::Bra { target: 0 }.kind(), OpKind::Branch);
        assert_eq!(Op::Bar.kind(), OpKind::Barrier);
        assert_eq!(Op::Exit.kind(), OpKind::Exit);
    }
}
