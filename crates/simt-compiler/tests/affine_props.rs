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

use proptest::prelude::*;
use simt_compiler::affine::GridCtx;
use simt_compiler::{Affine, AffineVal, NEG_INF, POS_INF};
use simt_isa::{LaunchConfig, Op};

/// Generates an affine form with small finite coefficients (thread and
/// block axes), an ordered interval, and independently-infinite bounds.
fn arb_affine() -> impl Strategy<Value = Affine> {
    (-3i64..=3, -3i64..=3, -3i64..=3, -3i64..=3, -16i64..=16, 0i64..=8, any::<bool>(), 0u8..4)
        .prop_map(|(a, b, d, e, lo, w, uniform, inf)| {
            let mut lo = lo;
            let mut hi = lo + w;
            if inf & 1 != 0 {
                lo = NEG_INF;
            }
            if inf & 2 != 0 {
                hi = POS_INF;
            }
            Affine { a, b, d, e, lo, hi, uniform }
        })
}

/// Generates a lattice element, biased toward the affine middle layer.
fn arb_val() -> impl Strategy<Value = AffineVal> {
    prop_oneof![
        1 => Just(AffineVal::Top),
        1 => Just(AffineVal::Unknown),
        6 => arb_affine().prop_map(AffineVal::Aff),
    ]
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
fn arb_operand() -> impl Strategy<Value = Affine> {
    prop_oneof![2 => arb_affine(), 1 => (0i64..=8).prop_map(Affine::constant)]
}

/// Thread sets stay inside an 8×8 block so all concrete math is tiny.
fn arb_threads() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..8, 0i64..8), 1..6)
}

/// Block coordinates inside a 4×4 grid.
fn arb_block() -> impl Strategy<Value = (i64, i64)> {
    (0i64..4, 0i64..4)
}

/// Per-thread constant picks (indexed modulo length, so any thread-set
/// size is served).
fn arb_picks() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(-64i64..=64, 6..7)
}

proptest! {
    #[test]
    fn meet_is_commutative(x in arb_val(), y in arb_val(), widen in any::<bool>()) {
        prop_assert_eq!(x.meet(y, widen), y.meet(x, widen));
    }

    #[test]
    fn meet_is_idempotent(x in arb_val(), widen in any::<bool>()) {
        prop_assert_eq!(x.meet(x, widen), x);
    }

    #[test]
    fn meet_over_approximates_both_sides(
        x in arb_affine(),
        y in arb_val(),
        widen in any::<bool>(),
        threads in arb_threads(),
        block in arb_block(),
        picks in arb_picks(),
        shared in -64i64..=64,
    ) {
        // Any sample of γ(x) stays in γ(x ⊓ y); by commutativity the same
        // holds for y, so the meet upper-bounds both operands.
        let vals = sample(x, &threads, block, &picks, shared);
        prop_assert!(admits(AffineVal::Aff(x), &threads, block, &vals));
        prop_assert!(admits(AffineVal::Aff(x).meet(y, widen), &threads, block, &vals));
    }

    #[test]
    fn meet_never_forges_the_uniform_bit(
        x in arb_affine(),
        y in arb_affine(),
        widen in any::<bool>(),
    ) {
        if let AffineVal::Aff(m) = AffineVal::Aff(x).meet(AffineVal::Aff(y), widen) {
            prop_assert!(!m.uniform || (x.uniform && y.uniform));
        }
    }

    #[test]
    fn arithmetic_transfer_is_sound(
        x in arb_affine(),
        y in arb_affine(),
        threads in arb_threads(),
        block in arb_block(),
        px in arb_picks(),
        py in arb_picks(),
        sx in -64i64..=64,
        sy in -64i64..=64,
    ) {
        let vx = sample(x, &threads, block, &px, sx);
        let vy = sample(y, &threads, block, &py, sy);
        let (ax, ay) = (AffineVal::Aff(x), AffineVal::Aff(y));

        let add: Vec<i64> = vx.iter().zip(&vy).map(|(a, b)| a + b).collect();
        prop_assert!(admits(ax + ay, &threads, block, &add), "add {x:?} {y:?}");

        let sub: Vec<i64> = vx.iter().zip(&vy).map(|(a, b)| a - b).collect();
        prop_assert!(admits(ax - ay, &threads, block, &sub), "sub {x:?} {y:?}");

        let neg: Vec<i64> = vx.iter().map(|a| -a).collect();
        prop_assert!(admits(-ax, &threads, block, &neg), "neg {x:?}");

        let min: Vec<i64> = vx.iter().zip(&vy).map(|(a, b)| *a.min(b)).collect();
        prop_assert!(admits(ax.min_(ay), &threads, block, &min), "min {x:?} {y:?}");

        let max: Vec<i64> = vx.iter().zip(&vy).map(|(a, b)| *a.max(b)).collect();
        prop_assert!(admits(ax.max_(ay), &threads, block, &max), "max {x:?} {y:?}");
    }

    #[test]
    fn opaque_transfer_is_sound_for_any_pure_op(
        x in arb_affine(),
        y in arb_affine(),
        threads in arb_threads(),
        block in arb_block(),
        px in arb_picks(),
        py in arb_picks(),
        sx in -64i64..=64,
        sy in -64i64..=64,
    ) {
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
        prop_assert!(admits(out, &threads, block, &mix), "opaque {x:?} {y:?}");
    }

    #[test]
    fn alu_transfer_admits_what_the_isa_computes(
        x in arb_operand(),
        y in arb_operand(),
        z in arb_operand(),
        threads in arb_threads(),
        block in arb_block(),
        picks in (arb_picks(), arb_picks(), arb_picks()),
        shared in (-64i64..=64, -64i64..=64, -64i64..=64),
    ) {
        // Samples stay within a few hundred of zero, so no product or
        // shift leaves 32 bits and the words mean what the ideal
        // integers do. The launch is the 4×4 grid of 8×8 blocks the
        // samples are drawn from, so `min`/`max`'s hull covers them.
        let launch = LaunchConfig::new((4u32, 4u32), (8u32, 8u32));
        let ops = [x, y, z];
        let vals = [
            sample(x, &threads, block, &picks.0, shared.0),
            sample(y, &threads, block, &picks.1, shared.1),
            sample(z, &threads, block, &picks.2, shared.2),
        ];
        for op in Op::ALU {
            let used = |i: usize| i < op.num_srcs();
            let srcs: [AffineVal; 3] = std::array::from_fn(|i| {
                if used(i) { AffineVal::Aff(ops[i]) } else { AffineVal::constant(0) }
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
                prop_assert!(admits(v, &threads, block, &out), "{op:?} {srcs:?} -> {v:?}: {out:?}");
            }
        }
    }

    #[test]
    fn widened_meets_terminate(x in arb_val(), ys in prop::collection::vec(arb_val(), 1..12)) {
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
        prop_assert!(changes <= 5, "widened chain changed {changes} times");
    }

    #[test]
    fn exactness_implies_shared_even_without_the_bit(
        v in -16i64..=16,
        a in -3i64..=3,
        b in -3i64..=3,
        d in -3i64..=3,
        e in -3i64..=3,
    ) {
        // A single known constant is trivially one shared value, so
        // `c_uniform` must hold with the bit clear — and `is_tb_uniform`
        // exactly when the thread coefficients vanish (the block terms are
        // shared per block by construction). `as_const` additionally
        // demands the block coefficients vanish: with them a value is only
        // exact *given* the block coordinates.
        let f = Affine { a, b, d, e, lo: v, hi: v, uniform: false };
        prop_assert!(f.c_uniform());
        prop_assert_eq!(f.is_tb_uniform(), a == 0 && b == 0);
        prop_assert_eq!(f.has_block_terms(), d != 0 || e != 0);
        prop_assert_eq!(f.as_const(), (a == 0 && b == 0 && d == 0 && e == 0).then_some(v));
        prop_assert!(Affine::constant(v).is_tb_uniform());
    }

    #[test]
    fn range_bounds_every_thread_in_block(
        f in arb_affine(),
        threads in arb_threads(),
        block in arb_block(),
        picks in arb_picks(),
        shared in -64i64..=64,
    ) {
        // `range(bx, by)` must envelope the value of every thread of an
        // 8×8 block whenever the block terms vanish (with block terms it
        // widens to infinity), and `range_over` must envelope every thread
        // of every block of a 4×4 grid; the generated samples live inside
        // both.
        let (rlo, rhi) = f.range(8, 8);
        let (glo, ghi) = f.range_over(8, 8, 4, 4);
        for v in sample(f, &threads, block, &picks, shared) {
            prop_assert!(rlo == NEG_INF || v >= rlo, "{f:?}: {v} < {rlo}");
            prop_assert!(rhi == POS_INF || v <= rhi, "{f:?}: {v} > {rhi}");
            prop_assert!(glo == NEG_INF || v >= glo, "{f:?}: {v} < grid {glo}");
            prop_assert!(ghi == POS_INF || v <= ghi, "{f:?}: {v} > grid {ghi}");
        }
    }
}
