//! Functional execution of one warp instruction (all lanes).
//!
//! The timing model calls [`execute`] when an instruction issues; the
//! architectural effects (register writes, memory traffic, branch outcome)
//! are applied immediately and the returned [`ExecEffect`] carries what the
//! pipeline needs for timing (lane addresses, branch masks, ...).

use crate::mem::{check_aligned, GlobalMemory};
use crate::warp::{LaneMask, Warp};
use simt_isa::{
    AtomOp, CmpOp, Dim3, Instruction, LaunchConfig, MemSpace, Op, Operand, Reg, SpecialReg, Value,
};

/// Launch-wide context a warp executes against.
#[derive(Debug)]
pub struct ExecContext<'a> {
    /// The buffer a memory instruction writes its lane addresses into
    /// (see [`ExecEffect::Memory`]); the caller lends it and reads it back.
    pub addrs: &'a mut LaneAddrs,
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

impl<'a> ExecContext<'a> {
    /// The context of TB `ctaid` of `launch`, over that TB's shared memory,
    /// writing memory lane addresses into `addrs`.
    #[inline]
    #[must_use]
    pub fn new(
        global: &'a mut GlobalMemory,
        shared: &'a mut [u32],
        launch: &'a LaunchConfig,
        ctaid: Dim3,
        addrs: &'a mut LaneAddrs,
    ) -> ExecContext<'a> {
        ExecContext {
            addrs,
            global,
            shared,
            params: &launch.params,
            grid: launch.grid,
            block: launch.block,
            ctaid,
        }
    }
}

/// Timing-relevant outcome of executing an instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// A memory operation. The byte address of each participating lane,
    /// for coalescing and bank-conflict analysis, is in the context's
    /// [`addrs`](ExecContext::addrs), written in place so no effect
    /// copies it.
    Memory {
        /// Address space accessed.
        space: MemSpace,
        /// True for stores.
        is_store: bool,
        /// True for atomics.
        is_atomic: bool,
    },
}

/// The byte addresses of one warp memory access, held inline and dense:
/// one address per lane of the warp plus the mask of the lanes that take
/// part (a warp has at most 32 lanes). The executor computes every lane's
/// address as one vector; the addresses of lanes outside the mask are
/// never read. The default is the access of no lane.
#[derive(Clone, Default)]
pub struct LaneAddrs {
    addrs: [u64; WARP],
    mask: LaneMask,
}

impl LaneAddrs {
    /// The access of the lanes of `mask`, lane `l` at byte address
    /// `addrs[l]`.
    #[must_use]
    pub fn new(mask: LaneMask, addrs: [u64; WARP]) -> LaneAddrs {
        LaneAddrs { addrs, mask }
    }

    /// The lanes that take part.
    #[must_use]
    pub fn mask(&self) -> LaneMask {
        self.mask
    }

    /// How many lanes take part.
    #[must_use]
    pub fn len(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// True when no lane takes part.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }

    /// The byte address of `lane`, which must take part.
    #[inline]
    pub(crate) fn addr(&self, lane: u32) -> u64 {
        self.addrs[lane as usize]
    }

    /// The `(lane, byte address)` of each lane that takes part, in
    /// ascending lane order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        lanes(self.mask).map(|lane| (lane, self.addrs[lane as usize]))
    }
}

impl PartialEq for LaneAddrs {
    fn eq(&self, other: &LaneAddrs) -> bool {
        self.mask == other.mask && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for LaneAddrs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Special register `s` across the warp. The thread ids walk from the
/// warp's first thread (x fastest), so only that thread divides, with
/// the divisions of `lin % ntid.x`, `lin / ntid.x % ntid.y` and
/// `lin / (ntid.x * ntid.y)` for the linear thread id `lin`.
fn special_lanes(s: SpecialReg, ctx: &ExecContext<'_>, warp: &Warp) -> Lanes {
    let lin = u64::from(warp.warp_in_tb) * u64::from(warp.warp_size());
    let (bx, by) = (u64::from(ctx.block.x), u64::from(ctx.block.y));
    let tid = |(mut x, mut y, mut z): (u64, u64, u64), pick: fn(u64, u64, u64) -> u64| {
        let mut out = [0; WARP];
        for v in &mut out {
            *v = pick(x, y, z) as u32;
            x += 1;
            if x == bx {
                x = 0;
                y += 1;
                if y == by {
                    y = 0;
                    z += 1;
                }
            }
        }
        out
    };
    match s {
        SpecialReg::TidX => tid((lin % bx, 0, 0), |x, _, _| x),
        SpecialReg::TidY => {
            let y = lin / bx % by;
            tid((lin % bx, y, 0), |_, y, _| y)
        }
        SpecialReg::TidZ => {
            let z = lin / (bx * by);
            tid((lin % bx, lin / bx % by, z), |_, _, z| z)
        }
        SpecialReg::CtaidX => [ctx.ctaid.x; WARP],
        SpecialReg::CtaidY => [ctx.ctaid.y; WARP],
        SpecialReg::CtaidZ => [ctx.ctaid.z; WARP],
        SpecialReg::NtidX => [ctx.block.x; WARP],
        SpecialReg::NtidY => [ctx.block.y; WARP],
        SpecialReg::NtidZ => [ctx.block.z; WARP],
        SpecialReg::NctaidX => [ctx.grid.x; WARP],
        SpecialReg::NctaidY => [ctx.grid.y; WARP],
        SpecialReg::NctaidZ => [ctx.grid.z; WARP],
        SpecialReg::LaneId => std::array::from_fn(|i| i as u32),
        SpecialReg::WarpId => [warp.warp_in_tb; WARP],
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

/// One warp's memory access before it touches memory: each lane's base
/// register and the instruction's offset, for the lanes of `mask`. Its
/// checks are mask reductions over the 32-bit bases.
struct Access {
    base: Lanes,
    offset: i32,
    mask: LaneMask,
}

impl Access {
    /// The access of instruction `instr` by the lanes of `mask`.
    fn new(warp: &Warp, instr: &Instruction, mask: LaneMask) -> Access {
        Access { base: gather(warp, instr.srcs[0]), offset: instr.offset, mask }
    }

    /// Writes every lane's effective byte address `base + offset` into
    /// `out`, computed as one vector, and returns it.
    #[inline(always)]
    fn addrs<'o>(&self, out: &'o mut LaneAddrs) -> &'o LaneAddrs {
        for (a, &b) in out.addrs.iter_mut().zip(&self.base) {
            *a = (i64::from(b) + i64::from(self.offset)) as u64;
        }
        out.mask = self.mask;
        out
    }

    /// The lanes whose effective address is negative (see
    /// [`effective_address`]): those below a negative offset's magnitude.
    fn negative(&self) -> LaneMask {
        match self.offset {
            0.. => 0,
            _ => mask_of(|i| self.base[i] < self.offset.unsigned_abs()) & self.mask,
        }
    }

    /// The lanes whose effective address is negative or not word-aligned:
    /// the global checks.
    fn global_faults(&self) -> LaneMask {
        let unaligned =
            mask_of(|i| !self.base[i].wrapping_add_signed(self.offset).is_multiple_of(4));
        self.negative() | unaligned & self.mask
    }

    /// The lanes whose effective address is negative or names no word of
    /// a `words`-word scratchpad: the shared checks.
    fn shared_faults(&self, words: usize) -> LaneMask {
        // `base + offset >= 4 * words` as a bound on the base.
        let bound = (4 * words as i128 - i128::from(self.offset)).max(0);
        let outside = u32::try_from(bound).map_or(0, |b| mask_of(|i| self.base[i] >= b));
        self.negative() | outside & self.mask
    }

    /// Raises the fault of the lowest lane of `faults` with the message
    /// of that lane's own checks, in their order: [`effective_address`]
    /// first, then `check`, the space's check of the lane's address,
    /// which must fail. So a warp faults exactly as if its lanes ran one
    /// by one in ascending order.
    #[cold]
    #[inline(never)]
    fn fault(&self, faults: LaneMask, check: impl FnOnce(u64)) -> ! {
        let lane = faults.trailing_zeros() as usize;
        check(effective_address(self.base[lane], self.offset));
        unreachable!("lane {lane} passed the check it failed")
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
    let mut m = 0;
    for i in 0..WARP {
        m |= LaneMask::from(f(i)) << i;
    }
    m
}

/// Writes `f(lane)` into register `d` for the lanes of `mask` (a subset
/// of the warp's lanes). A 32-lane warp computes every lane into a local
/// vector, which the register row then takes whole (blended with the old
/// value under a partial mask), so `f` must be pure. The local vector is
/// what lets the lane loop vectorise: the compiler cannot tell the
/// register file apart from the operands otherwise.
#[inline(always)]
fn write_lanes(warp: &mut Warp, d: Reg, mask: LaneMask, f: impl Fn(usize) -> u32) {
    let ws = warp.warp_size() as usize;
    let row = &mut warp.regs[d.index() * ws..][..ws];
    if let Ok(row) = <&mut Lanes>::try_from(&mut *row) {
        let mut v = [0; WARP];
        for (i, v) in v.iter_mut().enumerate() {
            *v = f(i);
        }
        if mask == LaneMask::MAX {
            *row = v;
        } else {
            for (i, (r, v)) in row.iter_mut().zip(v).enumerate() {
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
/// ALU, `setp`, `sel` and `s2r` compute every lane as one vector (their
/// lanes are independent). A memory access computes its lanes' addresses
/// as one vector and checks them as masks; a fault is raised for the
/// lowest offending lane, with the message a lane-by-lane walk would
/// give, before any lane touches memory. Lanes then access memory in
/// ascending lane order, so atomics serialize in that order and the
/// highest of several lanes storing to one word wins. Returns the
/// timing-relevant effect. Does **not** move the warp's PC; the pipeline
/// does that (branches via [`Warp::take_branch`]).
///
/// One body serves every CPU: where the CPU has AVX2 and FMA, a copy of
/// it compiled for them runs, so its 32-lane loops use 256-bit vectors and
/// FFMA is a fused multiply-add instruction instead of a libm call;
/// elsewhere the portable copy runs. Both round every lane correctly, so
/// they leave the same bits (`tests/exec_parity.rs` compares them).
pub fn execute(warp: &mut Warp, instr: &Instruction, ctx: &mut ExecContext<'_>) -> ExecEffect {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: `execute_avx2_fma` requires only the `avx2` and `fma`
        // target features, and the CPU running this has both (detected
        // just above).
        return unsafe { execute_avx2_fma(warp, instr, ctx) };
    }
    execute_portable(warp, instr, ctx)
}

/// [`execute`]'s body compiled for AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn execute_avx2_fma(warp: &mut Warp, instr: &Instruction, ctx: &mut ExecContext<'_>) -> ExecEffect {
    execute_body(warp, instr, ctx)
}

/// [`execute`]'s body compiled for the baseline CPU, whatever the CPU
/// running it has. Public only so the parity tests can compare it with
/// the copy [`execute`] dispatches to.
#[doc(hidden)]
pub fn execute_portable(
    warp: &mut Warp,
    instr: &Instruction,
    ctx: &mut ExecContext<'_>,
) -> ExecEffect {
    execute_body(warp, instr, ctx)
}

/// The one body of [`execute`], inlined into each compiled copy.
#[inline(always)]
fn execute_body(warp: &mut Warp, instr: &Instruction, ctx: &mut ExecContext<'_>) -> ExecEffect {
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
            // One vector loop per comparison, as for ALU ops below.
            macro_rules! per_cmp {
                ($($cmp:ident)*) => {
                    match (instr.op, cmp) {
                        $((Op::SetpF(_), CmpOp::$cmp) => mask_of(|i| {
                            CmpOp::$cmp.eval(f32::from_bits(a[i]), f32::from_bits(b[i]))
                        }),
                        (_, CmpOp::$cmp) => mask_of(|i| {
                            CmpOp::$cmp.eval(a[i] as i32, b[i] as i32)
                        }),)*
                    }
                };
            }
            let bits = per_cmp!(Eq Ne Lt Le Gt Ge);
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
            if eff_mask != 0 {
                let v = special_lanes(s, ctx, warp);
                write_lanes(warp, d, eff_mask, |i| v[i]);
            }
            ExecEffect::None
        }
        Op::Ld(space) => {
            let d = instr.dst.expect("ld has a dst");
            let access = Access::new(warp, instr, eff_mask);
            let addrs = access.addrs(ctx.addrs);
            let mut v = [0; WARP];
            match space {
                MemSpace::Global => {
                    let faults = access.global_faults();
                    if faults != 0 {
                        access.fault(faults, |a| check_aligned(a, "read"));
                    }
                    ctx.global.read_lanes(addrs.iter(), |lane, w| v[lane as usize] = w);
                }
                MemSpace::Shared => {
                    let len = ctx.shared.len();
                    let faults = access.shared_faults(len);
                    if faults != 0 {
                        access.fault(faults, |a| {
                            shared_word(a, len, "load");
                        });
                    }
                    // Every lane reads, the lanes outside the mask a
                    // clamped word, so the gather needs no lane walk. A
                    // lane in the mask passed the checks, so its 32-bit
                    // address does not wrap.
                    if eff_mask != 0 {
                        let last = u32::try_from(len - 1).unwrap_or(u32::MAX);
                        for (v, &b) in v.iter_mut().zip(&access.base) {
                            *v = ctx.shared
                                [(b.wrapping_add_signed(access.offset) / 4).min(last) as usize];
                        }
                    }
                }
                MemSpace::Param => {
                    let faults = access.negative();
                    if faults != 0 {
                        access.fault(faults, |_| {});
                    }
                    for (lane, a) in addrs.iter() {
                        v[lane as usize] = usize::try_from(a / 4)
                            .ok()
                            .and_then(|i| ctx.params.get(i))
                            .map_or(0, |v| v.as_u32());
                    }
                }
            }
            write_lanes(warp, d, eff_mask, |i| v[i]);
            ExecEffect::Memory { space, is_store: false, is_atomic: false }
        }
        Op::St(space) => {
            let access = Access::new(warp, instr, eff_mask);
            let addrs = access.addrs(ctx.addrs);
            let value = gather(warp, instr.srcs[1]);
            match space {
                MemSpace::Global => {
                    let faults = access.global_faults();
                    if faults != 0 {
                        access.fault(faults, |a| check_aligned(a, "write"));
                    }
                    ctx.global.update_lanes(addrs.iter(), |lane, w| *w = value[lane as usize]);
                }
                MemSpace::Shared => {
                    let len = ctx.shared.len();
                    let faults = access.shared_faults(len);
                    if faults != 0 {
                        access.fault(faults, |a| {
                            shared_word(a, len, "store");
                        });
                    }
                    // Lane order: the highest of several lanes storing to
                    // one word wins.
                    for (lane, a) in addrs.iter() {
                        ctx.shared[(a / 4) as usize] = value[lane as usize];
                    }
                }
                MemSpace::Param => {
                    if eff_mask != 0 {
                        access.fault(eff_mask, |_| {
                            panic!("stores to parameter space are not allowed")
                        });
                    }
                }
            }
            ExecEffect::Memory { space, is_store: true, is_atomic: false }
        }
        Op::Atom(aop) => {
            let d = instr.dst.expect("atom has a dst");
            let access = Access::new(warp, instr, eff_mask);
            let value = gather(warp, instr.srcs[1]);
            // An atomic reads its word before it writes it.
            let faults = access.global_faults();
            if faults != 0 {
                access.fault(faults, |a| check_aligned(a, "read"));
            }
            let addrs = access.addrs(ctx.addrs);
            let mut old = [0; WARP];
            // Lanes apply in lane order (deterministic serialization).
            ctx.global.update_lanes(addrs.iter(), |lane, w| {
                old[lane as usize] = *w;
                *w = AtomOp::apply(aop, *w, value[lane as usize]);
            });
            write_lanes(warp, d, eff_mask, |i| old[i]);
            ExecEffect::Memory { space: MemSpace::Global, is_store: true, is_atomic: true }
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
            // once per instruction instead of once per lane, each through
            // the ISA's one ALU rule.
            macro_rules! per_op {
                ($($op:ident)*) => {
                    match instr.op {
                        $(Op::$op => write_lanes(warp, d, eff_mask, |i| {
                            Op::$op.eval(a[i], b[i], c[i]).unwrap_or_default()
                        }),)*
                        op => unreachable!("{op:?} is not an ALU op"),
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

    fn ctx_fixture<'a>(
        global: &'a mut GlobalMemory,
        shared: &'a mut [u32],
        addrs: &'a mut LaneAddrs,
    ) -> ExecContext<'a> {
        ExecContext {
            addrs,
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
        let mut addrs = LaneAddrs::default();
        let mut ctx = ctx_fixture(&mut g, &mut sh, &mut addrs);
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
    fn guard_masks_lanes() {
        let mut g = GlobalMemory::new();
        let mut sh = vec![0u32; 16];
        let mut addrs = LaneAddrs::default();
        let mut ctx = ctx_fixture(&mut g, &mut sh, &mut addrs);
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
        let mut addrs = LaneAddrs::default();
        let mut ctx = ctx_fixture(&mut g, &mut sh, &mut addrs);
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
        let mut addrs = LaneAddrs::default();
        let mut ctx = ctx_fixture(&mut g, &mut sh, &mut addrs);
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
        let mut addrs = LaneAddrs::default();
        let mut ctx = ExecContext {
            addrs: &mut addrs,
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
        let mut addrs = LaneAddrs::default();
        let mut ctx = ctx_fixture(&mut g, &mut sh, &mut addrs);
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
        let mut addrs = LaneAddrs::default();
        let mut ctx = ctx_fixture(&mut g, &mut sh, &mut addrs);
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
