//! A virtual SIMT instruction set, in the spirit of register-allocated
//! PTXPlus / SASS, used as the substrate for the DARSIE reproduction.
//!
//! The ISA models the properties DARSIE (ASPLOS 2020) relies on:
//!
//! * fixed 64-bit instructions, so a redundant instruction can be skipped in
//!   the pipeline frontend by adding 8 to the program counter;
//! * named architectural registers (`R0..R254`) and predicates (`P0..P6`)
//!   that a renaming table can remap per warp;
//! * special registers (`tid`, `ctaid`, `ntid`, ...) whose layout across a
//!   multi-dimensional threadblock is the *source* of the conditional
//!   redundancy the paper exploits;
//! * global / shared / parameter memory spaces, predication, branches and
//!   threadblock barriers.
//!
//! Kernels are authored with [`KernelBuilder`], a structured DSL that emits
//! straight-line instructions, `if`/`if-else` regions and `while` loops and
//! resolves branch targets automatically.
//!
//! ```
//! use simt_isa::{KernelBuilder, SpecialReg, MemSpace};
//!
//! // out[tid.x] = in[tid.x] * 2
//! let mut b = KernelBuilder::new("double");
//! let tid = b.special(SpecialReg::TidX);
//! let base_in = b.param(0);
//! let base_out = b.param(1);
//! let off = b.shl_imm(tid, 2);
//! let addr_in = b.iadd(base_in, off);
//! let v = b.load(MemSpace::Global, addr_in, 0);
//! let v2 = b.iadd(v, v);
//! let addr_out = b.iadd(base_out, off);
//! b.store(MemSpace::Global, addr_out, v2, 0);
//! let kernel = b.finish();
//! assert!(kernel.validate().is_ok());
//! ```

pub mod builder;
pub mod encode;
pub mod family;
pub mod instruction;
pub mod kernel;
pub mod op;
pub mod reg;
pub mod value;

pub use builder::KernelBuilder;
pub use encode::{decode, encode, EncodeError};
pub use family::{AxisRange, FamilyError, LaunchFamily};
pub use instruction::{Guard, Instruction, Operand};
pub use kernel::{Kernel, KernelError, LaunchConfig};
pub use op::{AtomOp, CmpOp, MemSpace, Op, OpKind};
pub use reg::{Pred, Reg, SpecialReg};
pub use value::{Dim3, Value};

/// Number of bytes occupied by every instruction. Skipping an instruction in
/// the fetch stage is therefore a single `pc += INSTR_BYTES`.
pub const INSTR_BYTES: u64 = 8;

/// Default SIMT width (threads per warp), matching the Pascal baseline.
pub const WARP_SIZE: u32 = 32;

/// Marking attached to each static instruction by the DARSIE compiler pass
/// (Section 4.2 of the paper). Encoded in two otherwise-unused bits of the
/// 64-bit instruction word.
///
/// The lattice ordering used when several definitions reach one operand is
/// `Vector < ConditionallyRedundant < Redundant`, and the *weakest* wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Marking {
    /// True vector instruction: operates on per-thread data; never skipped.
    #[default]
    Vector,
    /// Redundant across the threadblock *if* the launch-time dimensionality
    /// check passes (2D TB, x-dim a power of two and <= warp size).
    ConditionallyRedundant,
    /// Definitely redundant across the threadblock: every warp computes the
    /// same vector result, so one leader warp may execute it for the TB.
    Redundant,
}

impl Marking {
    /// Meet operator of the redundancy lattice: the weakest of two markings.
    #[must_use]
    pub fn meet(self, other: Marking) -> Marking {
        self.min(other)
    }

    /// Two-bit encoding used in the instruction word.
    #[must_use]
    pub fn to_bits(self) -> u64 {
        match self {
            Marking::Vector => 0,
            Marking::ConditionallyRedundant => 1,
            Marking::Redundant => 2,
        }
    }

    /// Inverse of [`Marking::to_bits`]. Returns `None` for the reserved
    /// encoding `3`.
    #[must_use]
    pub fn from_bits(bits: u64) -> Option<Marking> {
        match bits & 0b11 {
            0 => Some(Marking::Vector),
            1 => Some(Marking::ConditionallyRedundant),
            2 => Some(Marking::Redundant),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marking_meet_is_weakest() {
        use Marking::*;
        assert_eq!(Vector.meet(Redundant), Vector);
        assert_eq!(ConditionallyRedundant.meet(Redundant), ConditionallyRedundant);
        assert_eq!(Redundant.meet(Redundant), Redundant);
        assert_eq!(Vector.meet(Vector), Vector);
    }

    #[test]
    fn marking_meet_commutes() {
        use Marking::*;
        for a in [Vector, ConditionallyRedundant, Redundant] {
            for b in [Vector, ConditionallyRedundant, Redundant] {
                assert_eq!(a.meet(b), b.meet(a));
            }
        }
    }

    #[test]
    fn marking_bits_roundtrip() {
        use Marking::*;
        for m in [Vector, ConditionallyRedundant, Redundant] {
            assert_eq!(Marking::from_bits(m.to_bits()), Some(m));
        }
        assert_eq!(Marking::from_bits(3), None);
    }
}
