//! Randomized round-trip of the 64-bit instruction encoding: any
//! encodable instruction must decode to itself, with its marking intact.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use simt_isa::{
    decode, encode, AtomOp, CmpOp, Guard, Instruction, Marking, MemSpace, Op, Operand, Pred, Reg,
    SpecialReg,
};

/// How often each alternative of each generator was drawn.
#[derive(Debug, Default)]
struct Draws {
    /// [`instruction`]'s shapes.
    shapes: [u32; 12],
    /// [`src`]'s register and immediate operands.
    srcs: [u32; 2],
    /// [`guard`]'s unguarded and guarded instructions.
    guards: [u32; 2],
}

fn pick<T: Copy>(rng: &mut SmallRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

fn reg(rng: &mut SmallRng) -> Reg {
    Reg(rng.gen_range(0..=254))
}

fn pred(rng: &mut SmallRng) -> Pred {
    Pred(rng.gen_range(0..7))
}

fn src(rng: &mut SmallRng, draws: &mut Draws) -> Operand {
    let arm = rng.gen_range(0..2usize);
    draws.srcs[arm] += 1;
    if arm == 0 {
        Operand::Reg(reg(rng))
    } else {
        // Immediates within the encodable 16-bit signed range.
        Operand::Imm(rng.gen_range(-32768i32..=32767) as u32)
    }
}

fn guard(rng: &mut SmallRng, draws: &mut Draws) -> Option<Guard> {
    let arm = rng.gen_range(0..2usize);
    draws.guards[arm] += 1;
    (arm == 1).then(|| Guard { pred: pred(rng), negate: rng.gen_range(0..2) == 1 })
}

/// One encodable instruction of a random shape.
fn instruction(rng: &mut SmallRng, draws: &mut Draws) -> Instruction {
    let shape = rng.gen_range(0..draws.shapes.len());
    draws.shapes[shape] += 1;
    match shape {
        // Two-source ALU.
        0 => {
            let op = pick(
                rng,
                &[
                    Op::IAdd,
                    Op::ISub,
                    Op::IMul,
                    Op::IMulHi,
                    Op::IMin,
                    Op::IMax,
                    Op::Shl,
                    Op::Shr,
                    Op::Sra,
                    Op::And,
                    Op::Or,
                    Op::Xor,
                    Op::FAdd,
                    Op::FSub,
                    Op::FMul,
                    Op::FMin,
                    Op::FMax,
                    Op::FDiv,
                ],
            );
            let (d, a, b) = (reg(rng), src(rng, draws), src(rng, draws));
            let mut i = Instruction::new(op, Some(d), None, vec![a, b]);
            i.guard = guard(rng, draws);
            i
        }
        // One-source ALU.
        1 => {
            let op =
                pick(rng, &[Op::Not, Op::I2F, Op::F2I, Op::FRcp, Op::FSqrt, Op::FExp2, Op::FLog2]);
            let (d, a) = (reg(rng), src(rng, draws));
            let mut i = Instruction::new(op, Some(d), None, vec![a]);
            i.guard = guard(rng, draws);
            i
        }
        // Three-source (registers in the first two slots).
        2 => {
            let op = pick(rng, &[Op::IMad, Op::FFma]);
            let (d, a, b, c) = (reg(rng), reg(rng), reg(rng), src(rng, draws));
            Instruction::new(op, Some(d), None, vec![a.into(), b.into(), c])
        }
        // Wide-immediate MOV.
        3 => {
            let d = reg(rng);
            Instruction::new(Op::Mov, Some(d), None, vec![Operand::Imm(rng.next_u32())])
        }
        4 => {
            let s = pick(rng, &SpecialReg::ALL);
            Instruction::new(Op::S2R(s), Some(reg(rng)), None, vec![])
        }
        5 => {
            let (c, f, p) = (pick(rng, &CmpOp::ALL), rng.gen_range(0..2) == 1, pred(rng));
            let op = if f { Op::SetpF(c) } else { Op::Setp(c) };
            let (a, b) = (src(rng, draws), src(rng, draws));
            Instruction::new(op, None, Some(p), vec![a, b])
        }
        // Loads with 15-bit offsets.
        6 => {
            let (sp, d, a) = (pick(rng, &MemSpace::ALL), reg(rng), src(rng, draws));
            Instruction::new(Op::Ld(sp), Some(d), None, vec![a])
                .with_offset(rng.gen_range(-16384i32..16383))
        }
        // Stores with 12-bit offsets and register values.
        7 => {
            let (sp, a, v) =
                (pick(rng, &[MemSpace::Global, MemSpace::Shared]), src(rng, draws), reg(rng));
            Instruction::new(Op::St(sp), None, None, vec![a, v.into()])
                .with_offset(rng.gen_range(-2048i32..2047))
        }
        8 => {
            let (a, d, addr, v) = (pick(rng, &AtomOp::ALL), reg(rng), src(rng, draws), reg(rng));
            Instruction::new(Op::Atom(a), Some(d), None, vec![addr, v.into()])
        }
        9 => {
            let target = rng.gen_range(0usize..1 << 24);
            let mut i = Instruction::new(Op::Bra { target }, None, None, vec![]);
            i.guard = guard(rng, draws);
            i
        }
        10 => Instruction::new(Op::Bar, None, None, vec![]),
        _ => Instruction::new(Op::Exit, None, None, vec![]),
    }
}

#[test]
fn encode_decode_roundtrips() {
    let mut draws = Draws::default();
    for case in 0..2048 {
        let mut rng = SmallRng::seed_from_u64(case);
        let instr = instruction(&mut rng, &mut draws);
        let marking =
            pick(&mut rng, &[Marking::Vector, Marking::ConditionallyRedundant, Marking::Redundant]);
        let word =
            encode(&instr, marking).unwrap_or_else(|e| panic!("case {case}: `{instr}`: {e}"));
        let (decoded, m2) =
            decode(word).unwrap_or_else(|e| panic!("case {case}: word {word:#018x}: {e}"));
        assert_eq!(decoded, instr, "case {case}: word {word:#018x}");
        assert_eq!(m2, marking, "case {case}: `{instr}`");
    }
    let Draws { shapes, srcs, guards } = &draws;
    assert!(
        ![&shapes[..], srcs, guards].concat().contains(&0),
        "an arm was never drawn: {draws:?}"
    );
}
