//! Functional execution of one warp instruction (all lanes).
//!
//! The timing model calls [`execute`] when an instruction issues; the
//! architectural effects (register writes, memory traffic, branch outcome)
//! are applied immediately and the returned [`ExecEffect`] carries what the
//! pipeline needs for timing (lane addresses, branch masks, ...).

use crate::mem::GlobalMemory;
use crate::warp::{LaneMask, Warp};
use simt_isa::{AtomOp, Dim3, Instruction, MemSpace, Op, Operand, Reg, SpecialReg, Value};

/// Launch-wide context a warp executes against.
#[derive(Debug)]
pub struct ExecContext<'a> {
    /// Global memory (shared by the whole GPU).
    pub global: &'a mut GlobalMemory,
    /// The owning TB's shared-memory scratchpad (word granularity).
    pub shared: &'a mut [u32],
    /// Kernel parameters.
    pub params: &'a [Value],
    /// Grid shape.
    pub grid: Dim3,
    /// Block shape.
    pub block: Dim3,
    /// This TB's coordinates in the grid.
    pub ctaid: Dim3,
}

/// Timing-relevant outcome of executing an instruction.
// `Memory` holds its lane addresses inline: boxing them would put a heap
// allocation back on every memory instruction.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum ExecEffect {
    /// Ordinary ALU/move work; destination(s) written.
    None,
    /// A branch resolved with the given taken mask (subset of the active
    /// mask) and target.
    Branch {
        /// Lanes that take the branch.
        taken: LaneMask,
        /// Target instruction index.
        target: usize,
    },
    /// `bar.sync` reached.
    Barrier,
    /// `exit` reached for the current path.
    Exit,
    /// A memory operation; per-lane byte addresses for coalescing /
    /// bank-conflict analysis.
    Memory {
        /// Address space accessed.
        space: MemSpace,
        /// `(lane, byte address)` for each participating lane.
        addrs: LaneAddrs,
        /// True for stores.
        is_store: bool,
        /// True for atomics.
        is_atomic: bool,
    },
}

/// The `(lane, byte address)` pairs of one warp memory access in
/// ascending lane order, held inline (a warp has at most 32 lanes).
/// Derefs to a slice.
#[derive(Clone)]
pub struct LaneAddrs {
    pairs: [(u32, u64); LaneMask::BITS as usize],
    len: usize,
}

impl LaneAddrs {
    /// The lanes of `mask` paired with `addr(lane)`, called in ascending
    /// lane order.
    #[inline(always)]
    fn collect(mask: LaneMask, mut addr: impl FnMut(usize) -> u64) -> LaneAddrs {
        let mut out = LaneAddrs::default();
        for (pair, lane) in out.pairs.iter_mut().zip(lanes(mask)) {
            *pair = (lane, addr(lane as usize));
            out.len += 1;
        }
        out
    }
}

impl Default for LaneAddrs {
    fn default() -> LaneAddrs {
        LaneAddrs { pairs: [(0, 0); LaneMask::BITS as usize], len: 0 }
    }
}

impl std::ops::Deref for LaneAddrs {
    type Target = [(u32, u64)];

    fn deref(&self) -> &[(u32, u64)] {
        &self.pairs[..self.len]
    }
}

impl PartialEq for LaneAddrs {
    fn eq(&self, other: &LaneAddrs) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for LaneAddrs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

fn special_value(s: SpecialReg, ctx: &ExecContext<'_>, warp: &Warp, lane: u32) -> u32 {
    let lin = u64::from(warp.warp_in_tb) * u64::from(warp.warp_size()) + u64::from(lane);
    let bx = u64::from(ctx.block.x);
    let by = u64::from(ctx.block.y);
    match s {
        SpecialReg::TidX => (lin % bx) as u32,
        SpecialReg::TidY => ((lin / bx) % by) as u32,
        SpecialReg::TidZ => (lin / (bx * by)) as u32,
        SpecialReg::CtaidX => ctx.ctaid.x,
        SpecialReg::CtaidY => ctx.ctaid.y,
        SpecialReg::CtaidZ => ctx.ctaid.z,
        SpecialReg::NtidX => ctx.block.x,
        SpecialReg::NtidY => ctx.block.y,
        SpecialReg::NtidZ => ctx.block.z,
        SpecialReg::NctaidX => ctx.grid.x,
        SpecialReg::NctaidY => ctx.grid.y,
        SpecialReg::NctaidZ => ctx.grid.z,
        SpecialReg::LaneId => lane,
        SpecialReg::WarpId => warp.warp_in_tb,
    }
}

/// Effective byte address of a memory operand: `base + offset`, checked so
/// a negative effective address (an underflowed index computation) faults
/// loudly instead of wrapping to a huge in-range `u64`.
fn effective_address(base: u32, offset: i32) -> u64 {
    u64::try_from(i64::from(base) + i64::from(offset))
        .unwrap_or_else(|_| panic!("negative effective address: {base:#x} {offset:+}"))
}

/// Shared-memory word index of a byte address, checked against the TB's
/// scratchpad size without any truncating cast.
fn shared_word(addr: u64, shared_len: usize, what: &str) -> usize {
    let w = usize::try_from(addr / 4)
        .unwrap_or_else(|_| panic!("shared {what} address overflows usize: {addr:#x}"));
    assert!(w < shared_len, "shared {what} out of bounds: {addr:#x} (size {})", shared_len * 4);
    w
}

/// The per-lane ALU function. Public so the symbolic translation
/// validator's constant folder (`simt_compiler::term::fold_alu`) can be
/// parity-tested against the executor it models, and so counterexample
/// replay tooling can evaluate single operations outside a warp context.
///
/// Never inlined: Rust leaves NaN payloads unspecified, and a caller
/// that constant-folds a float op can see other NaN bits than the
/// executor computes at run time. Out of line, every caller gets the
/// executor's bits.
#[must_use]
#[inline(never)]
pub fn alu(op: Op, a: u32, b: u32, c: u32) -> u32 {
    lane_alu(op, a, b, c)
}

/// The body of [`alu`], inlined into the executor's per-opcode lane
/// loops, where operands are never compile-time constants.
#[inline(always)]
fn lane_alu(op: Op, a: u32, b: u32, c: u32) -> u32 {
    let (ai, bi) = (a as i32, b as i32);
    let (af, bf, cf) = (f32::from_bits(a), f32::from_bits(b), f32::from_bits(c));
    match op {
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
        Op::FAdd => (af + bf).to_bits(),
        Op::FSub => (af - bf).to_bits(),
        Op::FMul => (af * bf).to_bits(),
        Op::FFma => af.mul_add(bf, cf).to_bits(),
        Op::FMin => af.min(bf).to_bits(),
        Op::FMax => af.max(bf).to_bits(),
        Op::FDiv => (af / bf).to_bits(),
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
        _ => unreachable!("alu() called with non-ALU op {op:?}"),
    }
}

/// Lanes of `mask` in ascending order.
fn lanes(mask: LaneMask) -> impl Iterator<Item = u32> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let lane = rest.trailing_zeros();
            rest &= rest - 1;
            lane
        })
    })
}

/// Lanes in a warp: the width of a [`LaneMask`].
const WARP: usize = LaneMask::BITS as usize;

/// One value per lane of a warp.
type Lanes = [u32; WARP];

/// Operand `o` gathered across the warp: a register's lanes (zero beyond
/// the warp width) or a broadcast immediate.
fn gather(warp: &Warp, o: Operand) -> Lanes {
    match o {
        Operand::Reg(r) => {
            let row = warp.reg_row(r);
            // A full warp copies a fixed-size array, which stays inline.
            <&Lanes>::try_from(row).copied().unwrap_or_else(|_| {
                let mut v = [0; WARP];
                v[..row.len()].copy_from_slice(row);
                v
            })
        }
        Operand::Imm(x) => [x; WARP],
    }
}

/// Operand `i` of `instr` gathered across the warp, or zeros when it has
/// none.
fn gather_nth(warp: &Warp, instr: &Instruction, i: usize) -> Lanes {
    instr.srcs.get(i).map_or([0; WARP], |&o| gather(warp, o))
}

/// The lanes whose `f(lane)` holds, as a mask.
#[inline(always)]
fn mask_of(f: impl Fn(usize) -> bool) -> LaneMask {
    (0..WARP).fold(0, |m, i| m | LaneMask::from(f(i)) << i)
}

/// Writes `f(lane)` into register `d` for the lanes of `mask` (a subset
/// of the warp's lanes). A 32-lane warp computes every lane and stores
/// the vector (blended with the old value under a partial mask), so `f`
/// must be pure; it is computed straight into the register file, with no
/// temporary copy.
#[inline(always)]
fn write_lanes(warp: &mut Warp, d: Reg, mask: LaneMask, f: impl Fn(usize) -> u32) {
    let ws = warp.warp_size() as usize;
    let row = &mut warp.regs[d.index() * ws..][..ws];
    if let Ok(row) = <&mut Lanes>::try_from(&mut *row) {
        if mask == LaneMask::MAX {
            for (i, r) in row.iter_mut().enumerate() {
                *r = f(i);
            }
        } else {
            for (i, r) in row.iter_mut().enumerate() {
                let v = f(i);
                *r = if mask >> i & 1 != 0 { v } else { *r };
            }
        }
    } else {
        for lane in lanes(mask) {
            row[lane as usize] = f(lane as usize);
        }
    }
}

/// Executes `instr` for every active lane of `warp` whose guard passes.
/// ALU, `setp` and `sel` compute every lane as one vector (their lanes
/// are independent); memory lanes, and the checks on their addresses,
/// run in ascending lane order, and atomics serialize in that order.
/// Returns the timing-relevant effect. Does **not** move the warp's PC;
/// the pipeline does that (branches via [`Warp::take_branch`]).
pub fn execute(warp: &mut Warp, instr: &Instruction, ctx: &mut ExecContext<'_>) -> ExecEffect {
    // Lanes that exist, are on the active path, and pass the guard.
    let lane_bits = LaneMask::MAX >> (LaneMask::BITS - warp.warp_size());
    let mut eff_mask = warp.active_mask() & lane_bits;
    if let Some(g) = instr.guard {
        let p = warp.preds[g.pred.index()];
        eff_mask &= if g.negate { !p } else { p };
    }

    match instr.op {
        Op::Bra { target } => ExecEffect::Branch { taken: eff_mask, target },
        Op::Bar => ExecEffect::Barrier,
        Op::Exit => ExecEffect::Exit,
        Op::Setp(cmp) | Op::SetpF(cmp) => {
            let p = instr.pdst.expect("setp has a pdst");
            let (a, b) = (gather(warp, instr.srcs[0]), gather(warp, instr.srcs[1]));
            let bits = if matches!(instr.op, Op::SetpF(_)) {
                mask_of(|i| cmp.eval_f32(f32::from_bits(a[i]), f32::from_bits(b[i])))
            } else {
                mask_of(|i| cmp.eval_i32(a[i] as i32, b[i] as i32))
            };
            let m = &mut warp.preds[p.index()];
            *m = (*m & !eff_mask) | (bits & eff_mask);
            ExecEffect::None
        }
        Op::Sel(p) => {
            let d = instr.dst.expect("sel has a dst");
            let (a, b) = (gather(warp, instr.srcs[0]), gather(warp, instr.srcs[1]));
            let pm = warp.preds[p.index()];
            write_lanes(warp, d, eff_mask, |i| if pm >> i & 1 != 0 { a[i] } else { b[i] });
            ExecEffect::None
        }
        Op::S2R(s) => {
            let d = instr.dst.expect("s2r has a dst");
            for lane in lanes(eff_mask) {
                let v = special_value(s, ctx, warp, lane);
                warp.set_reg(d, lane, v);
            }
            ExecEffect::None
        }
        Op::Ld(space) => {
            let d = instr.dst.expect("ld has a dst");
            let base = gather(warp, instr.srcs[0]);
            let addr = |lane: usize| effective_address(base[lane], instr.offset);
            let mut v = [0; WARP];
            let addrs = match space {
                MemSpace::Global => {
                    let mut global = ctx.global.reader();
                    LaneAddrs::collect(eff_mask, |lane| {
                        let a = addr(lane);
                        v[lane] = global.read_u32(a);
                        a
                    })
                }
                MemSpace::Shared => LaneAddrs::collect(eff_mask, |lane| {
                    let a = addr(lane);
                    v[lane] = ctx.shared[shared_word(a, ctx.shared.len(), "load")];
                    a
                }),
                MemSpace::Param => LaneAddrs::collect(eff_mask, |lane| {
                    let a = addr(lane);
                    v[lane] = usize::try_from(a / 4)
                        .ok()
                        .and_then(|i| ctx.params.get(i))
                        .map_or(0, |v| v.as_u32());
                    a
                }),
            };
            write_lanes(warp, d, eff_mask, |i| v[i]);
            ExecEffect::Memory { space, addrs, is_store: false, is_atomic: false }
        }
        Op::St(space) => {
            let (base, value) = (gather(warp, instr.srcs[0]), gather(warp, instr.srcs[1]));
            let addr = |lane: usize| effective_address(base[lane], instr.offset);
            let addrs = match space {
                MemSpace::Global => LaneAddrs::collect(eff_mask, |lane| {
                    let a = addr(lane);
                    ctx.global.write_u32(a, value[lane]);
                    a
                }),
                MemSpace::Shared => LaneAddrs::collect(eff_mask, |lane| {
                    let a = addr(lane);
                    ctx.shared[shared_word(a, ctx.shared.len(), "store")] = value[lane];
                    a
                }),
                MemSpace::Param => LaneAddrs::collect(eff_mask, |lane| {
                    addr(lane);
                    panic!("stores to parameter space are not allowed")
                }),
            };
            ExecEffect::Memory { space, addrs, is_store: true, is_atomic: false }
        }
        Op::Atom(aop) => {
            let d = instr.dst.expect("atom has a dst");
            let (base, value) = (gather(warp, instr.srcs[0]), gather(warp, instr.srcs[1]));
            let mut old = [0; WARP];
            // Lanes apply in lane order (deterministic serialization).
            let addrs = LaneAddrs::collect(eff_mask, |lane| {
                let a = effective_address(base[lane], instr.offset);
                old[lane] = ctx.global.read_u32(a);
                ctx.global.write_u32(a, AtomOp::apply(aop, old[lane], value[lane]));
                a
            });
            write_lanes(warp, d, eff_mask, |i| old[i]);
            ExecEffect::Memory { space: MemSpace::Global, addrs, is_store: true, is_atomic: true }
        }
        // Everything else is a lane-wise ALU op.
        _ => {
            let d = instr.dst.expect("ALU op has a dst");
            let (a, b, c) = (
                gather(warp, instr.srcs[0]),
                gather_nth(warp, instr, 1),
                gather_nth(warp, instr, 2),
            );
            // One vector loop per opcode, so the opcode dispatch happens
            // once per instruction instead of once per lane.
            macro_rules! per_op {
                ($($op:ident)*) => {
                    match instr.op {
                        $(Op::$op => write_lanes(warp, d, eff_mask, |i| {
                            lane_alu(Op::$op, a[i], b[i], c[i])
                        }),)*
                        op => write_lanes(warp, d, eff_mask, |i| lane_alu(op, a[i], b[i], c[i])),
                    }
                };
            }
            per_op!(IAdd ISub IMul IMulHi IMad IMin IMax Shl Shr Sra And Or Xor Not
                FAdd FSub FMul FFma FMin FMax FDiv FRcp FSqrt FExp2 FLog2 Mov I2F F2I);
            ExecEffect::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{Guard, Operand, Pred, Reg};

    fn ctx_fixture<'a>(global: &'a mut GlobalMemory, shared: &'a mut [u32]) -> ExecContext<'a> {
        ExecContext {
            global,
            shared,
            params: &[],
            grid: Dim3::one_d(4),
            block: Dim3::two_d(4, 2),
            ctaid: Dim3::three_d(2, 0, 0),
        }
    }

    fn warp4() -> Warp {
        // warp size 8, full mask over 8 lanes (block 4x2 = 8 threads).
        Warp::new(0, 0, 0, 8, 8, 0xFF, 0)
    }

    #[test]
    fn s2r_computes_2d_thread_ids() {
        let mut g = GlobalMemory::new();
        let mut sh = vec![0u32; 16];
        let mut ctx = ctx_fixture(&mut g, &mut sh);
        let mut w = warp4();
        let i = Instruction::new(Op::S2R(SpecialReg::TidX), Some(Reg(0)), None, vec![]);
        execute(&mut w, &i, &mut ctx);
        assert_eq!(w.reg_vector(Reg(0)), vec![0, 1, 2, 3, 0, 1, 2, 3]);
        let i = Instruction::new(Op::S2R(SpecialReg::TidY), Some(Reg(1)), None, vec![]);
        execute(&mut w, &i, &mut ctx);
        assert_eq!(w.reg_vector(Reg(1)), vec![0, 0, 0, 0, 1, 1, 1, 1]);
        let i = Instruction::new(Op::S2R(SpecialReg::CtaidX), Some(Reg(2)), None, vec![]);
        execute(&mut w, &i, &mut ctx);
        assert_eq!(w.reg_vector(Reg(2)), vec![2; 8]);
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(alu(Op::IAdd, 7, u32::MAX, 0), 6, "wrapping add");
        assert_eq!(alu(Op::ISub, 3, 5, 0) as i32, -2);
        assert_eq!(alu(Op::IMulHi, 0x8000_0000, 2, 0), u32::MAX, "signed hi mul");
        assert_eq!(alu(Op::IMad, 3, 4, 5), 17);
        assert_eq!(alu(Op::Sra, (-8i32) as u32, 1, 0) as i32, -4);
        assert_eq!(alu(Op::Shr, (-8i32) as u32, 1, 0), 0x7FFF_FFFC);
        assert_eq!(
            f32::from_bits(alu(Op::FFma, 2.0f32.to_bits(), 3.0f32.to_bits(), 1.0f32.to_bits())),
            7.0
        );
        assert_eq!(f32::from_bits(alu(Op::FSqrt, 9.0f32.to_bits(), 0, 0)), 3.0);
        assert_eq!(alu(Op::F2I, (-2.7f32).to_bits(), 0, 0) as i32, -2, "truncates toward zero");
        assert_eq!(alu(Op::F2I, f32::NAN.to_bits(), 0, 0), 0);
        assert_eq!(f32::from_bits(alu(Op::I2F, (-3i32) as u32, 0, 0)), -3.0);
    }

    #[test]
    fn guard_masks_lanes() {
        let mut g = GlobalMemory::new();
        let mut sh = vec![0u32; 16];
        let mut ctx = ctx_fixture(&mut g, &mut sh);
        let mut w = warp4();
        for lane in 0..8 {
            w.set_pred(Pred(0), lane, lane % 2 == 0);
            w.set_reg(Reg(0), lane, 100);
        }
        let i = Instruction::new(Op::Mov, Some(Reg(0)), None, vec![Operand::Imm(7)])
            .with_guard(Guard::if_true(Pred(0)));
        execute(&mut w, &i, &mut ctx);
        assert_eq!(w.reg_vector(Reg(0)), vec![7, 100, 7, 100, 7, 100, 7, 100]);
    }

    #[test]
    fn branch_returns_taken_mask() {
        let mut g = GlobalMemory::new();
        let mut sh = vec![0u32; 16];
        let mut ctx = ctx_fixture(&mut g, &mut sh);
        let mut w = warp4();
        for lane in 0..8 {
            w.set_pred(Pred(1), lane, lane < 3);
        }
        let i = Instruction::new(Op::Bra { target: 9 }, None, None, vec![])
            .with_guard(Guard::if_true(Pred(1)));
        let e = execute(&mut w, &i, &mut ctx);
        assert_eq!(e, ExecEffect::Branch { taken: 0b111, target: 9 });
    }

    #[test]
    fn loads_and_stores_roundtrip_through_spaces() {
        let mut g = GlobalMemory::new();
        let mut sh = vec![0u32; 16];
        g.write_u32(0x1000, 77);
        sh[3] = 55;
        let mut ctx = ctx_fixture(&mut g, &mut sh);
        let mut w = Warp::new(0, 0, 0, 8, 8, 0x1, 0); // single lane
        w.set_reg(Reg(0), 0, 0x1000);
        let ld =
            Instruction::new(Op::Ld(MemSpace::Global), Some(Reg(1)), None, vec![Reg(0).into()]);
        let e = execute(&mut w, &ld, &mut ctx);
        assert_eq!(w.reg(Reg(1), 0), 77);
        assert!(matches!(e, ExecEffect::Memory { space: MemSpace::Global, is_store: false, .. }));

        let lds =
            Instruction::new(Op::Ld(MemSpace::Shared), Some(Reg(2)), None, vec![Operand::Imm(12)]);
        execute(&mut w, &lds, &mut ctx);
        assert_eq!(w.reg(Reg(2), 0), 55);

        let st = Instruction::new(
            Op::St(MemSpace::Shared),
            None,
            None,
            vec![Operand::Imm(0), Reg(1).into()],
        )
        .with_offset(8);
        execute(&mut w, &st, &mut ctx);
        assert_eq!(ctx.shared[2], 77);
    }

    #[test]
    fn param_loads_read_launch_parameters() {
        let mut g = GlobalMemory::new();
        let mut sh = vec![0u32; 4];
        let params = [Value(111), Value(222)];
        let mut ctx = ExecContext {
            global: &mut g,
            shared: &mut sh,
            params: &params,
            grid: Dim3::one_d(1),
            block: Dim3::one_d(8),
            ctaid: Dim3::three_d(0, 0, 0),
        };
        let mut w = Warp::new(0, 0, 0, 4, 8, 0xFF, 0);
        let ld =
            Instruction::new(Op::Ld(MemSpace::Param), Some(Reg(0)), None, vec![Operand::Imm(0)])
                .with_offset(4);
        execute(&mut w, &ld, &mut ctx);
        assert_eq!(w.reg_vector(Reg(0)), vec![222; 8]);
    }

    #[test]
    fn atomics_serialize_in_lane_order() {
        let mut g = GlobalMemory::new();
        let mut sh = vec![0u32; 4];
        let mut ctx = ctx_fixture(&mut g, &mut sh);
        let mut w = warp4();
        for lane in 0..8 {
            w.set_reg(Reg(0), lane, 0x2000);
            w.set_reg(Reg(1), lane, 1);
        }
        let at = Instruction::new(
            Op::Atom(AtomOp::Add),
            Some(Reg(2)),
            None,
            vec![Reg(0).into(), Reg(1).into()],
        );
        execute(&mut w, &at, &mut ctx);
        assert_eq!(ctx.global.read_u32(0x2000), 8);
        assert_eq!(w.reg_vector(Reg(2)), vec![0, 1, 2, 3, 4, 5, 6, 7], "old values per lane");
    }

    #[test]
    fn inactive_lanes_untouched() {
        let mut g = GlobalMemory::new();
        let mut sh = vec![0u32; 4];
        let mut ctx = ctx_fixture(&mut g, &mut sh);
        let mut w = warp4();
        w.stack.last_mut().unwrap().mask = 0x0F; // lanes 4..8 inactive
        for lane in 0..8 {
            w.set_reg(Reg(0), lane, 42);
        }
        let i = Instruction::new(Op::Mov, Some(Reg(0)), None, vec![Operand::Imm(1)]);
        execute(&mut w, &i, &mut ctx);
        assert_eq!(w.reg_vector(Reg(0)), vec![1, 1, 1, 1, 42, 42, 42, 42]);
    }
}
