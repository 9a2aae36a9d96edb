//! Parity of the lane-vector executor (`gpu_sim::exec::execute`) with the
//! per-lane formulation it replaced: predicates read and written one lane
//! at a time, every operand matched per lane, memory space matched per
//! lane. Single instructions run on random warps (widths 1..=32, random
//! full and active masks, plain and negated guards, destinations aliasing
//! sources) and must leave the same registers, predicates, shared words
//! and global memory, and return the same effect. Memory cases cover
//! empty and partial masks, warps straddling a page boundary, lanes
//! alternating between pages, and several lanes storing to, or
//! atomically updating, one word; global memory is compared by content
//! and by the pages its epoch digest folds.

use gpu_sim::exec::{execute, execute_portable, ExecContext, ExecEffect};
use gpu_sim::warp::LaneMask;
use gpu_sim::{GlobalMemory, LaneAddrs, Warp};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use simt_isa::op::alu;
use simt_isa::{
    AtomOp, CmpOp, Dim3, Guard, Instruction, MemSpace, Op, Operand, Pred, Reg, SpecialReg, Value,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Register values that exercise wrapping, sign, shift masking and float
/// specials (NaN payloads, infinities, denormals, negative zero).
const CORNERS: [u32; 16] = [
    0,
    1,
    2,
    31,
    32, // shift amounts wrap mod 32
    33,
    0x7FFF_FFFF,
    0x8000_0000, // i32::MIN, and -0.0
    u32::MAX,
    0x3F80_0000, // 1.0
    0xBF80_0000, // -1.0
    0x7FC0_0000, // the default quiet NaN
    0xFFC0_0001, // a negative quiet NaN with a payload
    0x7F80_0000, // +inf
    0xFF80_0000, // -inf
    0x0000_0001, // the smallest denormal
];

const NUM_REGS: u16 = 8;
/// Register holding valid memory base addresses in memory cases.
const BASE: Reg = Reg(7);
const SHARED_WORDS: usize = 64;
/// Global words the memory cases touch: two 1,024-word pages, so lanes
/// straddle a page boundary.
const GLOBAL_BASE: u64 = 0x1_0000;
const GLOBAL_WORDS: u64 = 2 * PAGE_WORDS;
/// Words per page of `GlobalMemory`.
const PAGE_WORDS: u64 = 1024;
const PARAMS: [Value; 3] = [Value(11), Value(22), Value(0xDEAD_BEEF)];

/// How often each alternative of each generator was drawn.
#[derive(Debug, Default)]
struct Draws {
    /// [`random_instr`]'s ALU, `setp`, `sel`, `s2r`, load/store and
    /// atomic instructions.
    instrs: [u32; 6],
    /// [`Machine::aim`]'s global lane patterns.
    aims: [u32; 4],
    /// Guarded, negated-guard and unguarded instructions.
    guards: [u32; 3],
    /// [`Machine::random`]'s warps with every lane present and with a
    /// random subset of them.
    warps: [u32; 2],
    /// [`Machine::random`]'s full, empty and random active masks.
    masks: [u32; 3],
    /// [`value`]'s corner and arbitrary words.
    values: [u32; 2],
    /// [`operand`]'s immediates and registers.
    operands: [u32; 2],
}

fn pick<T: Copy>(rng: &mut SmallRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

fn value(rng: &mut SmallRng, draws: &mut Draws) -> u32 {
    let arm = rng.gen_range(0..2usize);
    draws.values[arm] += 1;
    if arm == 0 {
        pick(rng, &CORNERS)
    } else {
        rng.next_u32()
    }
}

fn reg(rng: &mut SmallRng) -> Reg {
    Reg(rng.gen_range(0..NUM_REGS) as u8)
}

fn operand(rng: &mut SmallRng, draws: &mut Draws) -> Operand {
    let imm = rng.gen_range(0..4) == 0;
    draws.operands[usize::from(!imm)] += 1;
    if imm {
        Operand::Imm(value(rng, draws))
    } else {
        Operand::Reg(reg(rng))
    }
}

/// The state one instruction runs against: a warp, shared memory and
/// global memory, cloned for the reference run.
#[derive(Clone)]
struct Machine {
    warp: Warp,
    shared: Vec<u32>,
    global: GlobalMemory,
}

impl Machine {
    fn random(rng: &mut SmallRng, draws: &mut Draws) -> Machine {
        let ws = rng.gen_range(1..=32);
        let lanes = LaneMask::MAX >> (32 - ws);
        let arm = rng.gen_range(0..3usize).min(1);
        draws.warps[arm] += 1;
        let full = if arm == 0 { lanes } else { rng.next_u32() & lanes };
        let mut warp = Warp::new(0, 0, rng.gen_range(0..4), NUM_REGS, ws, full, 0);
        let arm = rng.gen_range(0..4usize).min(2);
        draws.masks[arm] += 1;
        warp.stack.last_mut().expect("fresh warp has a path").mask = match arm {
            0 => full,
            1 => 0,
            _ => rng.next_u32() & full,
        };
        for r in 0..NUM_REGS {
            for lane in 0..ws {
                warp.set_reg(Reg(r as u8), lane, value(rng, draws));
            }
        }
        for p in 0..simt_isa::reg::NUM_PREDS {
            for lane in 0..ws {
                warp.set_pred(Pred(p), lane, rng.gen_range(0..2) == 0);
            }
        }
        let shared = (0..SHARED_WORDS).map(|_| value(rng, draws)).collect();
        let mut global = GlobalMemory::new();
        for _ in 0..16 {
            let a = GLOBAL_BASE + 4 * rng.gen_range(0..GLOBAL_WORDS);
            global.write_u32(a, value(rng, draws));
        }
        // A fresh epoch: the digest after the instruction folds exactly
        // the pages it wrote.
        global.epoch_digest();
        Machine { warp, shared, global }
    }

    /// Points every lane of [`BASE`] at a valid address of `space`, leaving
    /// room for an offset of up to 15 words. Global lanes scatter over two
    /// pages, run consecutively across the page boundary, alternate
    /// between the pages, or all name one word.
    fn aim(&mut self, rng: &mut SmallRng, space: MemSpace, draws: &mut Draws) {
        let pattern = rng.gen_range(0..4usize);
        if space == MemSpace::Global {
            draws.aims[pattern] += 1;
        }
        let global: fn(&mut SmallRng, u64) -> u64 = match pattern {
            0 => |rng: &mut SmallRng, _lane: u64| {
                GLOBAL_BASE + 4 * rng.gen_range(0..GLOBAL_WORDS - 16)
            },
            1 => |_: &mut SmallRng, lane: u64| GLOBAL_BASE + PAGE_WORDS * 4 - 4 * 13 + 4 * lane,
            2 => |_: &mut SmallRng, lane: u64| GLOBAL_BASE + (lane % 2) * PAGE_WORDS * 4 + 4 * lane,
            _ => |_: &mut SmallRng, _lane: u64| GLOBAL_BASE + PAGE_WORDS * 4 - 4,
        };
        for lane in 0..self.warp.warp_size() {
            let a = match space {
                MemSpace::Shared => 4 * rng.gen_range(0..SHARED_WORDS as u64 - 16),
                MemSpace::Global => global(rng, u64::from(lane)),
                MemSpace::Param => 4 * rng.gen_range(0..PARAMS.len() as u64 + 2),
            };
            self.warp.set_reg(BASE, lane, a as u32);
        }
    }

    fn run(
        &mut self,
        instr: &Instruction,
        exec: impl FnOnce(&mut Warp, &Instruction, &mut ExecContext<'_>) -> Effect,
    ) -> Effect {
        let mut ctx = ExecContext {
            addrs: &mut LaneAddrs::default(),
            global: &mut self.global,
            shared: &mut self.shared,
            params: &PARAMS,
            grid: Dim3::two_d(3, 2),
            block: Dim3::three_d(4, 3, 3),
            ctaid: Dim3::three_d(2, 1, 0),
        };
        exec(&mut self.warp, instr, &mut ctx)
    }

    /// Every predicate lane of the warp.
    fn preds(&self) -> Vec<bool> {
        let ws = self.warp.warp_size();
        (0..simt_isa::reg::NUM_PREDS)
            .flat_map(|p| (0..ws).map(move |lane| (p, lane)))
            .map(|(p, lane)| self.warp.pred(Pred(p), lane))
            .collect()
    }
}

/// Runs `instr` on copies of `before` through the lane-vector executor
/// and the per-lane reference, and compares everything it can change.
fn check(before: &Machine, instr: &Instruction) -> Result<(), String> {
    let (mut got, mut want) = (before.clone(), before.clone());
    let (got_effect, want_effect) = (got.run(instr, vector), want.run(instr, per_lane));
    let mismatch = [
        (got_effect != want_effect, "effect"),
        (got.warp.regs != want.warp.regs, "registers"),
        (got.preds() != want.preds(), "predicates"),
        (got.shared != want.shared, "shared memory"),
        (got.global.fingerprint() != want.global.fingerprint(), "global memory"),
        (got.global.epoch_digest() != want.global.epoch_digest(), "written pages"),
    ];
    match mismatch.iter().find(|(differs, _)| *differs) {
        Some((_, what)) => Err(format!("`{instr}` leaves different {what}")),
        None => Ok(()),
    }
}

/// A comparable [`ExecEffect`]: memory lane addresses as a vector.
#[derive(Debug, PartialEq)]
enum Effect {
    None,
    Branch(LaneMask, usize),
    Barrier,
    Exit,
    Memory(MemSpace, Vec<(u32, u64)>, bool, bool),
}

impl Effect {
    /// The comparable form of `e`, whose lane addresses, for a memory
    /// access, are in `addrs`.
    fn of(e: ExecEffect, addrs: &LaneAddrs) -> Effect {
        match e {
            ExecEffect::None => Effect::None,
            ExecEffect::Branch { taken, target } => Effect::Branch(taken, target),
            ExecEffect::Barrier => Effect::Barrier,
            ExecEffect::Exit => Effect::Exit,
            ExecEffect::Memory { space, is_store, is_atomic } => {
                Effect::Memory(space, addrs.iter().collect(), is_store, is_atomic)
            }
        }
    }
}

fn vector(warp: &mut Warp, instr: &Instruction, ctx: &mut ExecContext<'_>) -> Effect {
    let e = execute(warp, instr, ctx);
    Effect::of(e, ctx.addrs)
}

/// The per-lane executor the lane-vector one replaced, kept as the
/// reference: lanes in ascending order, each reading its guard bit,
/// operands and memory space on its own.
fn per_lane(warp: &mut Warp, instr: &Instruction, ctx: &mut ExecContext<'_>) -> Effect {
    let ws = warp.warp_size();
    let lane_bits = if ws >= 32 { u32::MAX } else { (1 << ws) - 1 };
    let mut mask = warp.active_mask() & lane_bits;
    if let Some(g) = instr.guard {
        for lane in 0..32 {
            if mask >> lane & 1 != 0 && !g.accepts(warp.pred(g.pred, lane)) {
                mask &= !(1 << lane);
            }
        }
    }
    let lanes: Vec<u32> = (0..32).filter(|l| mask >> l & 1 != 0).collect();
    let get = |warp: &Warp, o: Operand, lane: u32| match o {
        Operand::Reg(r) => warp.reg(r, lane),
        Operand::Imm(v) => v,
    };
    let src = |i: usize| instr.srcs.get(i).copied().unwrap_or(Operand::Imm(0));
    let address = |base: u32| {
        u64::try_from(i64::from(base) + i64::from(instr.offset))
            .unwrap_or_else(|_| panic!("negative effective address: {base:#x} {:+}", instr.offset))
    };
    let shared_word = |addr: u64, len: usize, what: &str| {
        let w = usize::try_from(addr / 4).expect("fits");
        assert!(w < len, "shared {what} out of bounds: {addr:#x} (size {})", len * 4);
        w
    };
    match instr.op {
        Op::Bra { target } => Effect::Branch(mask, target),
        Op::Bar => Effect::Barrier,
        Op::Exit => Effect::Exit,
        Op::Setp(cmp) | Op::SetpF(cmp) => {
            let p = instr.pdst.expect("setp has a pdst");
            for &lane in &lanes {
                let (a, b) = (get(warp, src(0), lane), get(warp, src(1), lane));
                let v = if matches!(instr.op, Op::SetpF(_)) {
                    cmp.eval(f32::from_bits(a), f32::from_bits(b))
                } else {
                    cmp.eval(a as i32, b as i32)
                };
                warp.set_pred(p, lane, v);
            }
            Effect::None
        }
        Op::Sel(p) => {
            let d = instr.dst.expect("sel has a dst");
            for &lane in &lanes {
                let v = if warp.pred(p, lane) {
                    get(warp, src(0), lane)
                } else {
                    get(warp, src(1), lane)
                };
                warp.set_reg(d, lane, v);
            }
            Effect::None
        }
        Op::S2R(s) => {
            let d = instr.dst.expect("s2r has a dst");
            for &lane in &lanes {
                let lin = u64::from(warp.warp_in_tb) * u64::from(ws) + u64::from(lane);
                let (bx, by) = (u64::from(ctx.block.x), u64::from(ctx.block.y));
                let v = match s {
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
                };
                warp.set_reg(d, lane, v);
            }
            Effect::None
        }
        Op::Ld(space) => {
            let d = instr.dst.expect("ld has a dst");
            let mut addrs = Vec::new();
            for &lane in &lanes {
                let addr = address(get(warp, src(0), lane));
                let v = match space {
                    MemSpace::Global => ctx.global.read_u32(addr),
                    MemSpace::Shared => ctx.shared[shared_word(addr, ctx.shared.len(), "load")],
                    MemSpace::Param => usize::try_from(addr / 4)
                        .ok()
                        .and_then(|i| ctx.params.get(i))
                        .map_or(0, |v| v.as_u32()),
                };
                warp.set_reg(d, lane, v);
                addrs.push((lane, addr));
            }
            Effect::Memory(space, addrs, false, false)
        }
        Op::St(space) => {
            let mut addrs = Vec::new();
            for &lane in &lanes {
                let addr = address(get(warp, src(0), lane));
                let v = get(warp, src(1), lane);
                match space {
                    MemSpace::Global => ctx.global.write_u32(addr, v),
                    MemSpace::Shared => {
                        ctx.shared[shared_word(addr, ctx.shared.len(), "store")] = v;
                    }
                    MemSpace::Param => panic!("stores to parameter space are not allowed"),
                }
                addrs.push((lane, addr));
            }
            Effect::Memory(space, addrs, true, false)
        }
        Op::Atom(aop) => {
            let d = instr.dst.expect("atom has a dst");
            let mut addrs = Vec::new();
            for &lane in &lanes {
                let addr = address(get(warp, src(0), lane));
                let v = get(warp, src(1), lane);
                let old = ctx.global.read_u32(addr);
                ctx.global.write_u32(addr, AtomOp::apply(aop, old, v));
                warp.set_reg(d, lane, old);
                addrs.push((lane, addr));
            }
            Effect::Memory(MemSpace::Global, addrs, true, true)
        }
        op => {
            let d = instr.dst.expect("ALU op has a dst");
            for &lane in &lanes {
                let v = alu(
                    op,
                    get(warp, src(0), lane),
                    get(warp, src(1), lane),
                    get(warp, src(2), lane),
                )
                .expect("an ALU op");
                warp.set_reg(d, lane, v);
            }
            Effect::None
        }
    }
}

/// One random instruction, with the machine aimed at valid addresses when
/// it accesses memory.
fn random_instr(rng: &mut SmallRng, m: &mut Machine, draws: &mut Draws) -> Instruction {
    let arm = rng.gen_range(0..8usize).saturating_sub(2);
    draws.instrs[arm] += 1;
    let (op, dst, pdst, srcs) = match arm {
        0 => {
            let op = pick(rng, &Op::ALU);
            let srcs = (0..3).map(|_| operand(rng, draws)).collect();
            (op, Some(reg(rng)), None, srcs)
        }
        1 => {
            let cmp = pick(rng, &CmpOp::ALL);
            let op = if rng.gen_range(0..2) == 0 { Op::Setp(cmp) } else { Op::SetpF(cmp) };
            let p = Pred(rng.gen_range(0..simt_isa::reg::NUM_PREDS));
            (op, None, Some(p), vec![operand(rng, draws), operand(rng, draws)])
        }
        2 => {
            let p = Pred(rng.gen_range(0..simt_isa::reg::NUM_PREDS));
            (Op::Sel(p), Some(reg(rng)), None, vec![operand(rng, draws), operand(rng, draws)])
        }
        3 => (Op::S2R(pick(rng, &SpecialReg::ALL)), Some(reg(rng)), None, vec![]),
        4 => {
            let space = pick(rng, &[MemSpace::Shared, MemSpace::Global, MemSpace::Param]);
            m.aim(rng, space, draws);
            let store = space != MemSpace::Param && rng.gen_range(0..2) == 0;
            if store {
                (Op::St(space), None, None, vec![BASE.into(), operand(rng, draws)])
            } else {
                (Op::Ld(space), Some(reg(rng)), None, vec![BASE.into()])
            }
        }
        _ => {
            m.aim(rng, MemSpace::Global, draws);
            // A small address spread makes lanes collide on one word.
            if rng.gen_range(0..2) == 0 {
                let w = m.warp.reg(BASE, 0);
                for lane in 0..m.warp.warp_size() {
                    m.warp.set_reg(BASE, lane, w + 4 * (lane % 3));
                }
            }
            let op = Op::Atom(pick(rng, &AtomOp::ALL));
            (op, Some(reg(rng)), None, vec![BASE.into(), operand(rng, draws)])
        }
    };
    let mut instr = Instruction::new(op, dst, pdst, srcs);
    if matches!(op, Op::Ld(_) | Op::St(_) | Op::Atom(_)) {
        instr = instr.with_offset(4 * rng.gen_range(0..16));
    }
    let pred = Pred(rng.gen_range(0..simt_isa::reg::NUM_PREDS));
    let arm = rng.gen_range(0..3usize);
    draws.guards[arm] += 1;
    match arm {
        0 => instr.with_guard(Guard::if_true(pred)),
        1 => instr.with_guard(Guard::if_false(pred)),
        _ => instr,
    }
}

#[test]
fn vector_executor_matches_per_lane_reference() {
    let mut draws = Draws::default();
    for case in 0..4096 {
        let mut rng = SmallRng::seed_from_u64(case);
        let mut before = Machine::random(&mut rng, &mut draws);
        let instr = random_instr(&mut rng, &mut before, &mut draws);
        check(&before, &instr).unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
    let Draws { instrs, aims, guards, warps, masks, values, operands } = &draws;
    let all = [&instrs[..], aims, guards, warps, masks, values, operands].concat();
    assert!(!all.contains(&0), "an arm was never drawn: {draws:?}");
}

/// Every ALU op and comparison on full warps: eight of random registers
/// and operands, then every pair of [`CORNERS`] (every triple for
/// `ffma`/`imad`) in registers.
#[test]
fn every_alu_op_and_comparison_matches_on_a_full_warp() {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut draws = Draws::default();
    let mut ops: Vec<Op> = Op::ALU.to_vec();
    ops.extend(CmpOp::ALL.iter().flat_map(|&c| [Op::Setp(c), Op::SetpF(c)]));
    for op in ops {
        let (dst, pdst) = if matches!(op, Op::Setp(_) | Op::SetpF(_)) {
            (None, Some(Pred(2)))
        } else {
            (Some(Reg(1)), None)
        };
        for _ in 0..8 {
            let mut before = Machine::random(&mut rng, &mut draws);
            before.warp = Warp::new(0, 0, 0, NUM_REGS, 32, u32::MAX, 0);
            for r in 0..NUM_REGS {
                for lane in 0..32 {
                    before.warp.set_reg(Reg(r as u8), lane, value(&mut rng, &mut draws));
                }
            }
            let srcs =
                vec![Reg(1).into(), operand(&mut rng, &mut draws), operand(&mut rng, &mut draws)];
            let instr = Instruction::new(op, dst, pdst, srcs);
            check(&before, &instr).unwrap();
        }
        let instr =
            Instruction::new(op, dst, pdst, vec![Reg(0).into(), Reg(1).into(), Reg(2).into()]);
        for lanes in operand_triples(op, &CORNERS).chunks(32) {
            check(&holding(lanes), &instr).unwrap_or_else(|e| panic!("{e} on {lanes:08x?}"));
        }
    }
}

/// A full 32-lane warp whose every lane points [`BASE`] at `addr`.
fn aimed_at(addr: u32) -> Machine {
    let mut m = Machine {
        warp: Warp::new(0, 0, 0, NUM_REGS, 32, u32::MAX, 0),
        shared: vec![0; SHARED_WORDS],
        global: GlobalMemory::new(),
    };
    for lane in 0..32 {
        m.warp.set_reg(BASE, lane, addr + 4 * lane);
    }
    m
}

/// The text `instr` panics with on `m`, or `None` when it runs through.
fn panic_text(mut m: Machine, instr: &Instruction) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(|| m.run(instr, vector))).err()?;
    let text = payload.downcast_ref::<String>().cloned();
    Some(text.or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string())).expect("text"))
}

fn load(space: MemSpace) -> Instruction {
    Instruction::new(Op::Ld(space), Some(Reg(0)), None, vec![BASE.into()])
}

fn store(space: MemSpace) -> Instruction {
    Instruction::new(Op::St(space), None, None, vec![BASE.into(), Operand::Imm(1)])
}

fn atom() -> Instruction {
    Instruction::new(Op::Atom(AtomOp::Add), Some(Reg(0)), None, vec![BASE.into(), Operand::Imm(1)])
}

/// The message of a failed `assert_eq!(addr % 4, 0, "{what} at {addr:#x}")`.
fn unaligned(what: &str, addr: u64) -> String {
    format!(
        "assertion `left == right` failed: {what} at {addr:#x}\n  left: {}\n right: 0",
        addr % 4
    )
}

#[test]
fn a_negative_effective_address_still_panics() {
    let text = "negative effective address: 0x0 -4";
    for instr in [load(MemSpace::Global), load(MemSpace::Shared), store(MemSpace::Global), atom()] {
        let instr = instr.with_offset(-4);
        assert_eq!(panic_text(aimed_at(0), &instr).as_deref(), Some(text), "`{instr}`");
    }
}

#[test]
fn an_out_of_bounds_shared_index_still_panics() {
    // Lanes 0..=15 are in bounds; lane 16 is the first offending lane.
    let text = panic_text(aimed_at(192), &load(MemSpace::Shared));
    assert_eq!(text.as_deref(), Some("shared load out of bounds: 0x100 (size 256)"));
}

#[test]
fn an_out_of_bounds_shared_store_still_panics() {
    let text = panic_text(aimed_at(192), &store(MemSpace::Shared));
    assert_eq!(text.as_deref(), Some("shared store out of bounds: 0x100 (size 256)"));
}

#[test]
fn an_unaligned_global_access_still_panics() {
    let read = unaligned("unaligned global read", 0x1002);
    assert_eq!(panic_text(aimed_at(0x1002), &load(MemSpace::Global)), Some(read.clone()));
    // An atomic reads its word before it writes it.
    assert_eq!(panic_text(aimed_at(0x1002), &atom()), Some(read));
    let write = unaligned("unaligned global write", 0x1002);
    assert_eq!(panic_text(aimed_at(0x1002), &store(MemSpace::Global)), Some(write));
}

#[test]
fn a_param_store_still_panics() {
    let text = "stores to parameter space are not allowed";
    assert_eq!(panic_text(aimed_at(0), &store(MemSpace::Param)).as_deref(), Some(text));
    // The lowest lane's address is checked first.
    let negative = store(MemSpace::Param).with_offset(-4);
    let want = "negative effective address: 0x0 -4";
    assert_eq!(panic_text(aimed_at(0), &negative).as_deref(), Some(want));
    // No lane, no store: the instruction runs through.
    let mut m = aimed_at(0);
    m.warp.stack.last_mut().expect("fresh warp has a path").mask = 0;
    assert_eq!(panic_text(m, &store(MemSpace::Param)), None);
}

#[test]
fn the_lowest_offending_lane_names_the_fault() {
    // Every lane in bounds of the 256-byte scratchpad after the -4 offset
    // except the ones a case breaks.
    let shared_case = |faults: &[(u32, u32)], active: LaneMask| {
        let mut m = aimed_at(4);
        for &(lane, base) in faults {
            m.warp.set_reg(BASE, lane, base);
        }
        m.warp.stack.last_mut().expect("fresh warp has a path").mask = active;
        let instr = load(MemSpace::Shared).with_offset(-4);
        panic_text(m, &instr)
    };
    let (out_of_bounds, negative) = (0x104, 0);
    let oob = "shared load out of bounds: 0x100 (size 256)";
    let neg = "negative effective address: 0x0 -4";
    let both = [(2, out_of_bounds), (5, negative)];
    assert_eq!(shared_case(&both, u32::MAX).as_deref(), Some(oob));
    let both = [(2, negative), (5, out_of_bounds)];
    assert_eq!(shared_case(&both, u32::MAX).as_deref(), Some(neg));
    // A lane off the active path never faults.
    assert_eq!(shared_case(&both, !(1 << 2)).as_deref(), Some(oob));
    assert_eq!(shared_case(&both, !(1 << 2 | 1 << 5)), None);

    // Global: lane 1 unaligned below lane 3 negative.
    let mut m = aimed_at(0x1004);
    m.warp.set_reg(BASE, 1, 0x2006);
    m.warp.set_reg(BASE, 3, 0);
    let text = panic_text(m, &store(MemSpace::Global).with_offset(-4));
    assert_eq!(text, Some(unaligned("unaligned global write", 0x2002)));
}

/// Float specials for the exact-bits test: signed zeros, denormals,
/// normal edges, infinities, quiet and signaling NaNs of either sign with
/// different payloads, and values whose products round.
const FLOAT_SPECIALS: [u32; 20] = [
    0x0000_0000, // +0
    0x8000_0000, // -0
    0x0000_0001, // the smallest denormal
    0x807F_FFFF, // the largest negative denormal
    0x0040_0000, // a denormal
    0x0080_0000, // the smallest normal
    0x3F80_0000, // 1
    0xBF80_0000, // -1
    0x3EAA_AAAB, // about 1/3
    0x3F80_0001, // 1 + ulp
    0x4B80_0001, // 2^24 + 2: an integer I2F/F2I round trip keeps
    0x7F7F_FFFF, // the largest finite
    0xFF7F_FFFF, // the lowest finite
    0x7F80_0000, // +inf
    0xFF80_0000, // -inf
    0x7FC0_0000, // the default quiet NaN
    0xFFC0_0001, // a negative quiet NaN with a payload
    0x7FC1_2345, // a quiet NaN with another payload
    0x7F80_0001, // a signaling NaN
    0xFFBF_FFFF, // a negative signaling NaN with a full payload
];

/// The operand words to run `op` on: every `(a, b, c)` of `words` for
/// `ffma`/`imad`, every `(a, b)` with `c = words[0]` otherwise.
fn operand_triples(op: Op, words: &[u32]) -> Vec<[u32; 3]> {
    let n = words.len();
    let count = if matches!(op, Op::FFma | Op::IMad) { n * n * n } else { n * n };
    (0..count).map(|i| [i % n, i / n % n, i / (n * n)].map(|k| words[k])).collect()
}

/// A full 32-lane warp whose registers 0, 1 and 2 hold `lanes[l]` in
/// lane `l`, and predicate 1 every other lane.
fn holding(lanes: &[[u32; 3]]) -> Machine {
    let mut m = aimed_at(0);
    for (lane, vals) in (0..).zip(lanes) {
        for (r, &v) in (0..).zip(vals) {
            m.warp.set_reg(Reg(r), lane, v);
        }
        m.warp.set_pred(Pred(1), lane, lane % 2 == 0);
    }
    m
}

/// Runs `instr` on [`holding`]`(lanes)` through `exec`, returning its
/// registers and predicates.
fn run_specials(
    lanes: &[[u32; 3]],
    instr: &Instruction,
    exec: fn(&mut Warp, &Instruction, &mut ExecContext<'_>) -> ExecEffect,
) -> (Vec<u32>, Vec<bool>) {
    let mut m = holding(lanes);
    m.run(instr, |w, i, ctx| Effect::of(exec(w, i, ctx), ctx.addrs));
    (m.warp.regs.clone(), m.preds())
}

/// The executor `execute` dispatches to and the portable body leave the
/// same bits for every ALU op, `setp`, `setp.f` and `sel` on every
/// combination of float specials: no NaN is forgiven here, so a
/// vectorised, FMA or AVX2 lowering that changed a payload, a signed
/// zero of FMin/FMax or a denormal would fail.
#[test]
fn dispatched_and_portable_executors_leave_the_same_bits() {
    #[cfg(target_arch = "x86_64")]
    let dispatched = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let dispatched = false;
    if !dispatched {
        println!("no AVX2+FMA on this CPU: only the portable executor was compared");
    }
    let mut ops: Vec<(Op, Option<Reg>, Option<Pred>)> =
        Op::ALU.iter().map(|&op| (op, Some(Reg(3)), None)).collect();
    for &cmp in &CmpOp::ALL {
        ops.extend([Op::Setp(cmp), Op::SetpF(cmp)].map(|op| (op, None, Some(Pred(2)))));
    }
    ops.push((Op::Sel(Pred(1)), Some(Reg(3)), None));
    for (op, dst, pdst) in ops {
        let srcs = vec![Reg(0).into(), Reg(1).into(), Reg(2).into()];
        let instr = Instruction::new(op, dst, pdst, srcs);
        for lanes in operand_triples(op, &FLOAT_SPECIALS).chunks(32) {
            let got = run_specials(lanes, &instr, execute);
            let want = run_specials(lanes, &instr, execute_portable);
            assert_eq!(got, want, "`{instr}` on {lanes:08x?}");
        }
    }
}
