//! Lattice laws for the divergence-bit affine interval domain.
//!
//! The domain abstracts one register of one dynamic instance as
//! `a*tid.x + b*tid.y + d*ctaid.x + e*ctaid.y + c` with `c ∈ [lo, hi]`,
//! plus the TB-uniform bit claiming `c` is one shared constant across the
//! instance's threads. Concretization here is explicit: a *sample* is a
//! thread set within one block (so one shared `(ctaid.x, ctaid.y)` pair)
//! with one concrete value per thread, and [`admits`] checks it against
//! an abstract value — including the shared-constant obligation of the
//! bit. The block terms are shared per block by construction.
//!
//! The properties pin exactly what the symbolic prover leans on:
//!
//! - `meet` (the join of concretizations) is commutative and idempotent,
//!   and over-approximates both operands (the upper-bound laws, which are
//!   the semantic content of monotonicity for a join);
//! - `meet` never *forges* the uniform bit: a result can only claim a
//!   shared constant when both inputs did (exactness aside);
//! - every transfer (`+`, `-`, `min_`, `max_`, `opaque`) is sound against
//!   concrete per-thread evaluation, bit included: `opaque` may only
//!   claim a shared result when the concrete inputs were forced shared;
//! - the one ALU transfer, `AffineVal::alu`, admits what the ISA's ALU
//!   computes for every opcode, in the generic context and under a
//!   concrete launch (where `min`/`max` fall back to the grid hull);
//! - widened meets terminate: every chain stabilizes after a bounded
//!   number of strict decreases (each bound jumps straight to infinity,
//!   the bit only clears, the shape only falls to `Unknown`).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simt_compiler::affine::GridCtx;
use simt_compiler::{Affine, AffineVal, NEG_INF, POS_INF};
use simt_isa::{LaunchConfig, Op};

/// How often each alternative of each generator was drawn.
#[derive(Debug, Default)]
struct Draws {
    /// [`val`]'s `Top`, `Unknown` and affine elements.
    vals: [u32; 3],
    /// [`operand`]'s affine forms and exact constants.
    operands: [u32; 2],
}

fn flip(rng: &mut SmallRng) -> bool {
    rng.gen_range(0..2) == 1
}

/// Generates an affine form with small finite coefficients (thread and
/// block axes), an ordered interval, and independently-infinite bounds.
fn affine(rng: &mut SmallRng) -> Affine {
    let [a, b, d, e] = std::array::from_fn(|_| rng.gen_range(-3i64..=3));
    let lo = rng.gen_range(-16i64..=16);
    let hi = lo + rng.gen_range(0i64..=8);
    let (uniform, inf) = (flip(rng), rng.gen_range(0u8..4));
    let lo = if inf & 1 != 0 { NEG_INF } else { lo };
    let hi = if inf & 2 != 0 { POS_INF } else { hi };
    Affine { a, b, d, e, lo, hi, uniform }
}

/// Generates a lattice element, biased toward the affine middle layer.
fn val(rng: &mut SmallRng, draws: &mut Draws) -> AffineVal {
    let arm = rng.gen_range(0..8usize).min(2);
    draws.vals[arm] += 1;
    match arm {
        0 => AffineVal::Top,
        1 => AffineVal::Unknown,
        _ => AffineVal::Aff(affine(rng)),
    }
}

/// Draws one concrete per-thread sample from `γ(f)` at block `(cx, cy)`:
/// each thread gets a constant from the (de-infinitized) interval, one
/// shared pick when the uniform bit is set; the block terms contribute
/// one shared offset for the whole instance.
fn sample(
    f: Affine,
    threads: &[(i64, i64)],
    block: (i64, i64),
    picks: &[i64],
    shared: i64,
) -> Vec<i64> {
    let (clo, chi) = (f.lo.max(-64), f.hi.min(64));
    threads
        .iter()
        .enumerate()
        .map(|(i, &(tx, ty))| {
            let raw = if f.uniform { shared } else { picks[i % picks.len()] };
            f.a * tx + f.b * ty + f.d * block.0 + f.e * block.1 + raw.clamp(clo, chi)
        })
        .collect()
}

/// Membership of a concrete per-thread sample in the concretization of an
/// abstract value at block `(cx, cy)`. `Top` concretizes to nothing,
/// `Unknown` to everything; an affine form requires every residual
/// constant in-interval and — when the bit is set — one shared constant.
fn admits(v: AffineVal, threads: &[(i64, i64)], block: (i64, i64), vals: &[i64]) -> bool {
    match v {
        AffineVal::Top => false,
        AffineVal::Unknown => true,
        AffineVal::Aff(f) => {
            let cs: Vec<i64> = threads
                .iter()
                .zip(vals)
                .map(|(&(tx, ty), &v)| v - f.a * tx - f.b * ty - f.d * block.0 - f.e * block.1)
                .collect();
            let in_range = cs
                .iter()
                .all(|&c| (f.lo == NEG_INF || c >= f.lo) && (f.hi == POS_INF || c <= f.hi));
            in_range && (!f.uniform || cs.windows(2).all(|w| w[0] == w[1]))
        }
    }
}

/// An operand: any affine form, or (a third of the time) an exact
/// grid-wide constant in `0..=8`, the shift amounts `shl` is exact on,
/// small enough that no shifted sample wraps 32 bits.
fn operand(rng: &mut SmallRng, draws: &mut Draws) -> Affine {
    let arm = rng.gen_range(0..3usize).saturating_sub(1);
    draws.operands[arm] += 1;
    if arm == 0 {
        affine(rng)
    } else {
        Affine::constant(rng.gen_range(0i64..=8))
    }
}

/// Thread sets stay inside an 8×8 block so all concrete math is tiny.
fn threads(rng: &mut SmallRng) -> Vec<(i64, i64)> {
    (0..rng.gen_range(1..6)).map(|_| (rng.gen_range(0i64..8), rng.gen_range(0i64..8))).collect()
}

/// Block coordinates inside a 4×4 grid.
fn block(rng: &mut SmallRng) -> (i64, i64) {
    (rng.gen_range(0i64..4), rng.gen_range(0i64..4))
}

/// A shared constant pick.
fn constant(rng: &mut SmallRng) -> i64 {
    rng.gen_range(-64i64..=64)
}

/// Per-thread constant picks (indexed modulo length, so any thread-set
/// size is served).
fn picks(rng: &mut SmallRng) -> Vec<i64> {
    (0..6).map(|_| constant(rng)).collect()
}

/// Cases per property.
const CASES: u64 = 256;

#[test]
fn meet_is_commutative() {
    let mut draws = Draws::default();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (x, y) = (val(&mut rng, &mut draws), val(&mut rng, &mut draws));
        let widen = flip(&mut rng);
        assert_eq!(x.meet(y, widen), y.meet(x, widen), "case {case}");
    }
    assert!(!draws.vals.contains(&0), "an arm was never drawn: {draws:?}");
}

#[test]
fn meet_is_idempotent() {
    let mut draws = Draws::default();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (x, widen) = (val(&mut rng, &mut draws), flip(&mut rng));
        assert_eq!(x.meet(x, widen), x, "case {case}");
    }
    assert!(!draws.vals.contains(&0), "an arm was never drawn: {draws:?}");
}

#[test]
fn meet_over_approximates_both_sides() {
    let mut draws = Draws::default();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (x, y, widen) = (affine(&mut rng), val(&mut rng, &mut draws), flip(&mut rng));
        let (threads, block) = (threads(&mut rng), block(&mut rng));
        let (picks, shared) = (picks(&mut rng), constant(&mut rng));
        // Any sample of γ(x) stays in γ(x ⊓ y); by commutativity the same
        // holds for y, so the meet upper-bounds both operands.
        let vals = sample(x, &threads, block, &picks, shared);
        assert!(admits(AffineVal::Aff(x), &threads, block, &vals), "case {case}");
        let meet = AffineVal::Aff(x).meet(y, widen);
        assert!(admits(meet, &threads, block, &vals), "case {case}");
    }
    assert!(!draws.vals.contains(&0), "an arm was never drawn: {draws:?}");
}

#[test]
fn meet_never_forges_the_uniform_bit() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (x, y, widen) = (affine(&mut rng), affine(&mut rng), flip(&mut rng));
        if let AffineVal::Aff(m) = AffineVal::Aff(x).meet(AffineVal::Aff(y), widen) {
            assert!(!m.uniform || (x.uniform && y.uniform), "case {case}");
        }
    }
}

#[test]
fn arithmetic_transfer_is_sound() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (x, y) = (affine(&mut rng), affine(&mut rng));
        let (threads, block) = (threads(&mut rng), block(&mut rng));
        let (px, py) = (picks(&mut rng), picks(&mut rng));
        let (sx, sy) = (constant(&mut rng), constant(&mut rng));
        let vx = sample(x, &threads, block, &px, sx);
        let vy = sample(y, &threads, block, &py, sy);
        let (ax, ay) = (AffineVal::Aff(x), AffineVal::Aff(y));

        let add: Vec<i64> = vx.iter().zip(&vy).map(|(a, b)| a + b).collect();
        assert!(admits(ax + ay, &threads, block, &add), "case {case}: add {x:?} {y:?}");

        let sub: Vec<i64> = vx.iter().zip(&vy).map(|(a, b)| a - b).collect();
        assert!(admits(ax - ay, &threads, block, &sub), "case {case}: sub {x:?} {y:?}");

        let neg: Vec<i64> = vx.iter().map(|a| -a).collect();
        assert!(admits(-ax, &threads, block, &neg), "case {case}: neg {x:?}");

        let min: Vec<i64> = vx.iter().zip(&vy).map(|(a, b)| *a.min(b)).collect();
        assert!(admits(ax.min_(ay), &threads, block, &min), "case {case}: min {x:?} {y:?}");

        let max: Vec<i64> = vx.iter().zip(&vy).map(|(a, b)| *a.max(b)).collect();
        assert!(admits(ax.max_(ay), &threads, block, &max), "case {case}: max {x:?} {y:?}");
    }
}

#[test]
fn opaque_transfer_is_sound_for_any_pure_op() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (x, y) = (affine(&mut rng), affine(&mut rng));
        let (threads, block) = (threads(&mut rng), block(&mut rng));
        let (px, py) = (picks(&mut rng), picks(&mut rng));
        let (sx, sy) = (constant(&mut rng), constant(&mut rng));
        // `opaque` models an op the domain cannot interpret. Soundness:
        // whatever pure per-thread function the op computes, the result
        // sample must be admitted — in particular the TB-uniform claim may
        // only survive when the abstract inputs *forced* the concrete
        // inputs to be shared.
        let vx = sample(x, &threads, block, &px, sx);
        let vy = sample(y, &threads, block, &py, sy);
        let out = AffineVal::opaque([AffineVal::Aff(x), AffineVal::Aff(y)]);
        let mix: Vec<i64> =
            vx.iter().zip(&vy).map(|(a, b)| (a ^ (b << 1)).wrapping_mul(31)).collect();
        assert!(admits(out, &threads, block, &mix), "case {case}: opaque {x:?} {y:?}");
    }
}

#[test]
fn alu_transfer_admits_what_the_isa_computes() {
    // Samples stay within a few hundred of zero, so no product or
    // shift leaves 32 bits and the words mean what the ideal
    // integers do. The launch is the 4×4 grid of 8×8 blocks the
    // samples are drawn from, so `min`/`max`'s hull covers them.
    let launch = LaunchConfig::new((4u32, 4u32), (8u32, 8u32));
    let mut draws = Draws::default();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let ops: [Affine; 3] = std::array::from_fn(|_| operand(&mut rng, &mut draws));
        let (threads, block) = (threads(&mut rng), block(&mut rng));
        let picks: [Vec<i64>; 3] = std::array::from_fn(|_| picks(&mut rng));
        let shared: [i64; 3] = std::array::from_fn(|_| constant(&mut rng));
        let vals: [Vec<i64>; 3] =
            std::array::from_fn(|i| sample(ops[i], &threads, block, &picks[i], shared[i]));
        for op in Op::ALU {
            let used = |i: usize| i < op.num_srcs();
            let srcs: [AffineVal; 3] = std::array::from_fn(|i| {
                if used(i) {
                    AffineVal::Aff(ops[i])
                } else {
                    AffineVal::constant(0)
                }
            });
            let out: Vec<i64> = (0..threads.len())
                .map(|t| {
                    let word = |i: usize| if used(i) { vals[i][t] as i32 as u32 } else { 0 };
                    let r = simt_isa::op::alu(op, word(0), word(1), word(2)).expect("an ALU op");
                    i64::from(r as i32)
                })
                .collect();
            for ctx in [GridCtx::generic(1), GridCtx::launch(&launch)] {
                let v = AffineVal::alu(op, srcs, ctx);
                assert!(
                    admits(v, &threads, block, &out),
                    "case {case}: {op:?} {srcs:?} -> {v:?}: {out:?}"
                );
            }
        }
    }
    assert!(!draws.operands.contains(&0), "an arm was never drawn: {draws:?}");
}

#[test]
fn widened_meets_terminate() {
    let mut draws = Draws::default();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let x = val(&mut rng, &mut draws);
        let ys: Vec<AffineVal> =
            (0..rng.gen_range(1..12)).map(|_| val(&mut rng, &mut draws)).collect();
        // Each strict decrease spends a finite resource: Top → Aff, lo and
        // hi each jump straight to their infinity, the bit only clears,
        // and the final fall is to Unknown. Five is the longest chain.
        let mut cur = x;
        let mut changes = 0usize;
        for y in ys {
            let next = cur.meet(y, true);
            if next != cur {
                changes += 1;
            }
            cur = next;
        }
        assert!(changes <= 5, "case {case}: widened chain changed {changes} times");
    }
    assert!(!draws.vals.contains(&0), "an arm was never drawn: {draws:?}");
}

#[test]
fn exactness_implies_shared_even_without_the_bit() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let v = rng.gen_range(-16i64..=16);
        let [a, b, d, e] = std::array::from_fn(|_| rng.gen_range(-3i64..=3));
        // A single known constant is trivially one shared value, so
        // `c_uniform` must hold with the bit clear — and `is_tb_uniform`
        // exactly when the thread coefficients vanish (the block terms are
        // shared per block by construction). `as_const` additionally
        // demands the block coefficients vanish: with them a value is only
        // exact *given* the block coordinates.
        let f = Affine { a, b, d, e, lo: v, hi: v, uniform: false };
        assert!(f.c_uniform(), "case {case}");
        assert_eq!(f.is_tb_uniform(), a == 0 && b == 0, "case {case}");
        assert_eq!(f.has_block_terms(), d != 0 || e != 0, "case {case}");
        let exact = (a == 0 && b == 0 && d == 0 && e == 0).then_some(v);
        assert_eq!(f.as_const(), exact, "case {case}");
        assert!(Affine::constant(v).is_tb_uniform(), "case {case}");
    }
}

#[test]
fn range_bounds_every_thread_in_block() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let f = affine(&mut rng);
        let (threads, block) = (threads(&mut rng), block(&mut rng));
        let (picks, shared) = (picks(&mut rng), constant(&mut rng));
        // `range(bx, by)` must envelope the value of every thread of an
        // 8×8 block whenever the block terms vanish (with block terms it
        // widens to infinity), and `range_over` must envelope every thread
        // of every block of a 4×4 grid; the generated samples live inside
        // both.
        let (rlo, rhi) = f.range(8, 8);
        let (glo, ghi) = f.range_over(8, 8, 4, 4);
        for v in sample(f, &threads, block, &picks, shared) {
            assert!(rlo == NEG_INF || v >= rlo, "case {case}: {f:?}: {v} < {rlo}");
            assert!(rhi == POS_INF || v <= rhi, "case {case}: {f:?}: {v} > {rhi}");
            assert!(glo == NEG_INF || v >= glo, "case {case}: {f:?}: {v} < grid {glo}");
            assert!(ghi == POS_INF || v <= ghi, "case {case}: {f:?}: {v} > grid {ghi}");
        }
    }
}
