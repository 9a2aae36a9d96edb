//! Static memory-performance prediction: per-access shared-memory
//! bank-conflict degree and global-memory coalescing efficiency.
//!
//! The affine-interval domain of [`simt_compiler::affine`] describes each
//! address as `a*tid.x + b*tid.y + c` with a TB-uniform `c ∈ [lo, hi]`.
//! Because every lane shares the same `c`, the *relative* addresses of a
//! warp are fixed, and both the bank-conflict degree (32 four-byte banks)
//! and the 128-byte coalescing line count are periodic in `c` with period
//! 128. Enumerating the feasible residues of `c` therefore yields exact
//! per-execution bounds `[min, max]` for every statically affine access —
//! using the *same* [`gpu_sim::mem::smem_conflict_degree`] and
//! [`gpu_sim::mem::coalesce_lines`] functions the cycle simulator applies,
//! so [`validate`] is a genuine differential check against the measured
//! [`gpu_sim::SimStats::mem_by_pc`] counters.
//!
//! Accesses and their execution masks come from the one footprint walk
//! shared with the race pass and the inter-block certifiers
//! ([`crate::races`]); a mask or address the domain cannot pin down
//! exactly is reported as [`MemPredKind::Unpredictable`], never silently
//! guessed. Lane-set recovery assumes the structured,
//! IPDOM-reconverging control flow produced by `KernelBuilder`;
//! unstructured flow can under-constrain the mask, which the differential
//! validation then surfaces.
//!
//! Findings surface as `P1xx` lints: `P101` guaranteed bank conflicts,
//! `P102` guaranteed uncoalesced global access, `P103` statically
//! unpredictable access.

use crate::races::{guarded_threads, mem_accesses, thread_xy};
use crate::{Diagnostic, Diagnostics, LintCode};
use gpu_sim::mem::{coalesce_lines, smem_conflict_degree};
use gpu_sim::SimStats;
use simt_compiler::affine::{Affine, AffineVal, Clamps, Flow, GridCtx};
use simt_compiler::CompiledKernel;
use simt_isa::{LaunchConfig, MemSpace};

/// Bias added before reusing the simulator's unsigned address helpers;
/// a multiple of 128 so it changes neither bank nor line structure.
const BIAS: i64 = 1 << 40;

/// What the predictor can say about one static memory access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemPredKind {
    /// A shared access: per-execution bank-conflict degree bounds.
    SharedConflict {
        /// Minimum serialized bank passes over feasible constants.
        min_degree: u32,
        /// Maximum serialized bank passes over feasible constants.
        max_degree: u32,
    },
    /// A global access: per-execution 128-byte line-count bounds, plus
    /// the ideal count for the widest executing lane set.
    GlobalCoalesce {
        /// Minimum distinct lines over feasible constants.
        min_lines: u32,
        /// Maximum distinct lines over feasible constants.
        max_lines: u32,
        /// Lines a perfectly coalesced access of the same width needs.
        ideal_lines: u32,
    },
    /// The address or execution mask is not exactly thread-affine.
    Unpredictable {
        /// Why no bound can be given.
        reason: String,
    },
}

/// Prediction for one static load/store/atomic.
#[derive(Debug, Clone)]
pub struct MemPrediction {
    /// Instruction index.
    pub pc: usize,
    /// True for stores and atomics.
    pub is_store: bool,
    /// The accessed space (`Shared` or `Global`).
    pub space: MemSpace,
    /// The bound, or why there is none.
    pub kind: MemPredKind,
}

/// Outcome of checking one prediction against measured counters.
#[derive(Debug, Clone)]
pub struct Validation {
    /// Instruction index.
    pub pc: usize,
    /// True when the measured counters fall inside the predicted bounds.
    pub ok: bool,
    /// Human-readable predicted-vs-measured evidence.
    pub detail: String,
}

/// Feasible residues of the uniform constant modulo the 128-byte period,
/// ascending.
fn residues(f: Affine) -> Vec<i64> {
    let unbounded = f.lo == simt_compiler::affine::NEG_INF
        || f.hi == simt_compiler::affine::POS_INF
        || i128::from(f.hi) - i128::from(f.lo) >= 127;
    if unbounded {
        return (0..128).collect();
    }
    let mut set: Vec<i64> = (f.lo..=f.hi).map(|c| c.rem_euclid(128)).collect();
    set.sort_unstable();
    set.dedup();
    set
}

/// Per-execution degree/line bounds for one access, over every executing
/// warp and every feasible constant residue. `lanes` is ascending.
///
/// A shared access is evaluated at one residue per byte-alignment class
/// `(r + BIAS) mod 4`: residues of one class differ by whole words, and
/// shifting every lane by `k` words only rotates the banks by `k`, which
/// leaves the conflict degree unchanged.
fn bound_access(
    f: Affine,
    lanes: &[u32],
    bx: u32,
    by: u32,
    warp_size: u32,
    shared: bool,
) -> Result<(u32, u32, u32), String> {
    let residues = residues(f);
    // The residues evaluated: each class's first for a shared access.
    let mut seen = [false; 4];
    let probes: Vec<i64> = residues
        .iter()
        .copied()
        .filter(|&r| !shared || !std::mem::replace(&mut seen[((r + BIAS) % 4) as usize], true))
        .collect();
    let mut min_v = u32::MAX;
    let mut max_v = 0u32;
    let mut widest = 0u32;
    let (mut offs, mut addrs) = (Vec::new(), Vec::new());
    for warp in lanes.chunk_by(|&s, &t| s / warp_size == t / warp_size) {
        offs.clear();
        for &t in warp {
            let (tx, ty) = thread_xy(t, bx, by);
            let o =
                f.a.checked_mul(tx)
                    .and_then(|x| f.b.checked_mul(ty).and_then(|y| x.checked_add(y)))
                    .ok_or_else(|| "address coefficients overflow the model".to_string())?;
            offs.push(o);
        }
        widest = widest.max(offs.len() as u32);
        // Every biased address is in range at every residue iff it is at
        // the lowest and the highest one.
        if let (Some(&lo), Some(&hi)) = (residues.first(), residues.last()) {
            let in_range = |o: i64| {
                o.checked_add(lo + BIAS).is_some_and(|a| a >= 0)
                    && o.checked_add(hi + BIAS).is_some()
            };
            if !offs.iter().all(|&o| in_range(o)) {
                return Err("address below the model range".to_string());
            }
        }
        for &r in &probes {
            addrs.clear();
            addrs.extend(offs.iter().map(|&o| (o + r + BIAS) as u64));
            let v = if shared {
                smem_conflict_degree(addrs.iter().copied())
            } else {
                coalesce_lines(addrs.iter().copied()).len() as u32
            };
            min_v = min_v.min(v);
            max_v = max_v.max(v);
        }
    }
    if max_v == 0 {
        return Err("no thread provably executes this access".to_string());
    }
    Ok((min_v, max_v, widest))
}

/// Predicts bank-conflict degrees and coalescing line counts for every
/// shared/global load, store and atomic of `ck` under `launch`, with
/// per-warp lane grouping by `warp_size`.
#[must_use]
pub fn predict(ck: &CompiledKernel, launch: &LaunchConfig, warp_size: u32) -> Vec<MemPrediction> {
    let ctx = GridCtx::generic(launch.block.z.max(1));
    let flow = Flow::solve(&ck.kernel, &ck.cfg, ctx, true, &Clamps::new());
    predict_inner(&flow, launch, warp_size, false)
}

/// Like [`predict`], but when the execution mask is not exactly
/// thread-affine (and only then) the access is bounded over the *full*
/// thread block instead of reported unpredictable: any executing subset
/// touches at most the lines (conflicts at most the degree) of the whole
/// warp, so the returned maximum is a sound mask-agnostic envelope. The
/// minimum is widened to 0 (the mask may be empty). The cost model's
/// upper bound consumes this; the `P1xx` lints keep the exact
/// [`predict`]. `flow` is the kernel's flow as [`predict`] solves it:
/// under `GridCtx::generic(launch.block.z)`, entry-zeroed, unclamped.
#[must_use]
pub fn predict_envelope(flow: &Flow, launch: &LaunchConfig, warp_size: u32) -> Vec<MemPrediction> {
    predict_inner(flow, launch, warp_size, true)
}

fn predict_inner(
    flow: &Flow,
    launch: &LaunchConfig,
    warp_size: u32,
    mask_free: bool,
) -> Vec<MemPrediction> {
    let (bx, by) = (launch.block.x.max(1), launch.block.y.max(1));
    let threads = launch.threads_per_block();

    // The walk visits blocks in reverse post-order; predictions are
    // reported in pc order.
    let mut accesses = mem_accesses(flow);
    accesses.sort_by_key(|a| a.pc);

    accesses
        .into_iter()
        .map(|a| {
            // Mask-free envelope: an unknown mask executes some subset of
            // the block's threads, and any subset's degree/lines are
            // bounded by the full warp's — min widens to 0 (empty mask).
            // Threads that provably execute, or `None` when some thread's
            // conditions cannot be decided.
            let executing: Option<Vec<u32>> = guarded_threads(&a.conds, bx, by, threads, None)
                .filter(|&(_, executes)| executes != Some(false))
                .map(|(t, executes)| executes.map(|_| t))
                .collect();
            let (lanes, masked) = match executing {
                Some(lanes) => (Some(lanes), false),
                None if mask_free => (Some((0..threads).collect()), true),
                None => (None, false),
            };
            let kind = match (lanes, a.addr) {
                (None, _) => MemPredKind::Unpredictable {
                    reason: "execution mask depends on a predicate that is not exactly \
                             thread-affine"
                        .to_string(),
                },
                (_, AffineVal::Top | AffineVal::Unknown) => MemPredKind::Unpredictable {
                    reason: "address is not thread-affine".to_string(),
                },
                (Some(lanes), AffineVal::Aff(f)) => {
                    let shared = a.space == MemSpace::Shared;
                    match bound_access(f, &lanes, bx, by, warp_size, shared) {
                        Err(reason) => MemPredKind::Unpredictable { reason },
                        Ok((min_v, max_v, widest)) if shared => {
                            let _ = widest;
                            MemPredKind::SharedConflict {
                                min_degree: if masked { 0 } else { min_v },
                                max_degree: max_v,
                            }
                        }
                        Ok((min_v, max_v, widest)) => MemPredKind::GlobalCoalesce {
                            min_lines: if masked { 0 } else { min_v },
                            max_lines: max_v,
                            ideal_lines: (widest * 4).div_ceil(128).max(1),
                        },
                    }
                }
            };
            MemPrediction { pc: a.pc, is_store: a.kind.writes(), space: a.space, kind }
        })
        .collect()
}

/// Turns predictions into `P1xx` diagnostics.
#[must_use]
pub fn lint(ck: &CompiledKernel, predictions: &[MemPrediction]) -> Diagnostics {
    let mut report = Diagnostics::new(ck.kernel.name.clone());
    for p in predictions {
        let what = if p.is_store { "store" } else { "load" };
        match &p.kind {
            MemPredKind::SharedConflict { min_degree, max_degree } if *min_degree > 1 => {
                report.push(Diagnostic::new(
                    LintCode::SharedBankConflict,
                    Some(p.pc),
                    format!(
                        "shared {what} serializes over {min_degree}..={max_degree} bank passes \
                         in every execution"
                    ),
                ));
            }
            MemPredKind::GlobalCoalesce { min_lines, max_lines, ideal_lines }
                if *min_lines > *ideal_lines =>
            {
                report.push(Diagnostic::new(
                    LintCode::GlobalUncoalesced,
                    Some(p.pc),
                    format!(
                        "global {what} touches {min_lines}..={max_lines} 128-byte lines per \
                         execution where {ideal_lines} would suffice"
                    ),
                ));
            }
            MemPredKind::Unpredictable { reason } => {
                report.push(Diagnostic::new(
                    LintCode::MemUnpredictable,
                    Some(p.pc),
                    format!("{} {what} has no static performance bound: {reason}", p.space),
                ));
            }
            _ => {}
        }
    }
    report
}

/// Checks every bounded prediction against the simulator's measured
/// per-pc counters: with `n` measured executions of an access bounded by
/// `[min, max]`, the accumulated counter must lie in `[n*min, n*max]`.
#[must_use]
pub fn validate(predictions: &[MemPrediction], stats: &SimStats) -> Vec<Validation> {
    let zero = gpu_sim::PcMemStat::default();
    predictions
        .iter()
        .filter_map(|p| {
            let m = stats.mem_by_pc.get(&p.pc).unwrap_or(&zero);
            match p.kind {
                MemPredKind::SharedConflict { min_degree, max_degree } => {
                    let (lo, hi) = (
                        m.smem_accesses * u64::from(min_degree - 1),
                        m.smem_accesses * u64::from(max_degree - 1),
                    );
                    let ok = (lo..=hi).contains(&m.smem_conflict_extra);
                    Some(Validation {
                        pc: p.pc,
                        ok,
                        detail: format!(
                            "pc {}: predicted conflict-extra in [{lo}, {hi}] over {} accesses, \
                             measured {}",
                            p.pc, m.smem_accesses, m.smem_conflict_extra
                        ),
                    })
                }
                MemPredKind::GlobalCoalesce { min_lines, max_lines, .. } => {
                    let (lo, hi) = (
                        m.global_accesses * u64::from(min_lines),
                        m.global_accesses * u64::from(max_lines),
                    );
                    let ok = (lo..=hi).contains(&m.global_transactions);
                    Some(Validation {
                        pc: p.pc,
                        ok,
                        detail: format!(
                            "pc {}: predicted transactions in [{lo}, {hi}] over {} accesses, \
                             measured {}",
                            p.pc, m.global_accesses, m.global_transactions
                        ),
                    })
                }
                MemPredKind::Unpredictable { .. } => None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use simt_compiler::compile;
    use simt_isa::{KernelBuilder, Op, SpecialReg};

    fn launch_1d() -> LaunchConfig {
        LaunchConfig::new(1u32, 64u32)
    }

    /// out[tid.x] with a 4-byte stride: conflict-free, fully coalesced.
    fn unit_stride() -> CompiledKernel {
        let mut b = KernelBuilder::new("unit");
        let t = b.special(SpecialReg::TidX);
        let smem = b.alloc_shared(64 * 4);
        let off = b.shl_imm(t, 2);
        let sa = b.iadd(off, smem);
        b.store(MemSpace::Shared, sa, t, 0);
        b.store(MemSpace::Global, off, t, 0);
        compile(b.finish())
    }

    #[test]
    fn unit_stride_is_clean() {
        let ck = unit_stride();
        let preds = predict(&ck, &launch_1d(), 32);
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].kind, MemPredKind::SharedConflict { min_degree: 1, max_degree: 1 });
        // The global base is the exact constant 0 here, so one residue.
        assert_eq!(
            preds[1].kind,
            MemPredKind::GlobalCoalesce { min_lines: 1, max_lines: 1, ideal_lines: 1 }
        );
        assert!(lint(&ck, &preds).items.is_empty());
    }

    #[test]
    fn stride_128_shared_maximally_conflicts() {
        let mut b = KernelBuilder::new("conflict");
        let t = b.special(SpecialReg::TidX);
        let smem = b.alloc_shared(64 * 128);
        let off = b.shl_imm(t, 7);
        let sa = b.iadd(off, smem);
        b.store(MemSpace::Shared, sa, t, 0);
        let ck = compile(b.finish());
        let preds = predict(&ck, &launch_1d(), 32);
        assert_eq!(preds[0].kind, MemPredKind::SharedConflict { min_degree: 32, max_degree: 32 });
        let report = lint(&ck, &preds);
        assert_eq!(report.items[0].code, LintCode::SharedBankConflict);
    }

    #[test]
    fn param_base_widens_to_residue_interval() {
        // base comes from a parameter: uniform but unknown, so the bound
        // must cover every 128-byte alignment.
        let mut b = KernelBuilder::new("parambase");
        let t = b.special(SpecialReg::TidX);
        let base = b.param(0);
        let off = b.shl_imm(t, 2);
        let a = b.iadd(base, off);
        b.store(MemSpace::Global, a, t, 0);
        let ck = compile(b.finish());
        let preds = predict(&ck, &launch_1d(), 32);
        assert_eq!(
            preds[0].kind,
            MemPredKind::GlobalCoalesce { min_lines: 1, max_lines: 2, ideal_lines: 1 }
        );
        // Not guaranteed uncoalesced: no lint.
        assert!(lint(&ck, &preds).items.is_empty());
    }

    #[test]
    fn non_affine_address_is_reported_not_guessed() {
        let mut b = KernelBuilder::new("nonaffine");
        let t = b.special(SpecialReg::TidX);
        let masked = b.and(t, 1u32);
        let off = b.shl_imm(masked, 2);
        b.store(MemSpace::Global, off, t, 0);
        let ck = compile(b.finish());
        let preds = predict(&ck, &launch_1d(), 32);
        assert!(matches!(preds[0].kind, MemPredKind::Unpredictable { .. }));
        let report = lint(&ck, &preds);
        assert_eq!(report.items[0].code, LintCode::MemUnpredictable);
        assert_eq!(report.items[0].severity, crate::Severity::Note);
    }

    #[test]
    fn predictions_come_in_pc_order() {
        // The entry jumps over a global store to a shared store that
        // branches back to it: reverse post-order visits the shared store
        // first, the predictions still list the lower pc first.
        let mut b = KernelBuilder::new("jump");
        let t = b.special(SpecialReg::TidX);
        let smem = b.alloc_shared(64 * 4);
        let off = b.shl_imm(t, 2);
        let skip = b.branch_fwd(None);
        let body = b.here();
        b.store(MemSpace::Global, off, t, 0);
        b.exit();
        b.patch_here(skip);
        let sa = b.iadd(off, smem);
        b.store(MemSpace::Shared, sa, t, 0);
        b.branch_back(body);
        let ck = compile(b.finish());
        let preds = predict(&ck, &launch_1d(), 32);
        let spaces: Vec<MemSpace> = preds.iter().map(|p| p.space).collect();
        assert_eq!(spaces, [MemSpace::Global, MemSpace::Shared]);
        assert!(preds[0].pc < preds[1].pc);
    }

    #[test]
    fn guarded_access_masks_lanes() {
        // Only tid.x < 8 store: one warp, 8 lanes, still one line when
        // the base is exact.
        let mut b = KernelBuilder::new("guarded");
        let t = b.special(SpecialReg::TidX);
        let p = b.setp(simt_isa::CmpOp::Lt, t, 8u32);
        let off = b.shl_imm(t, 2);
        let st = simt_isa::Instruction::new(
            Op::St(MemSpace::Global),
            None,
            None,
            vec![off.into(), t.into()],
        )
        .with_guard(simt_isa::Guard::if_true(p));
        b.emit(st);
        let ck = compile(b.finish());
        let preds = predict(&ck, &launch_1d(), 32);
        assert_eq!(
            preds[0].kind,
            MemPredKind::GlobalCoalesce { min_lines: 1, max_lines: 1, ideal_lines: 1 }
        );
    }

    /// The full residue loop `bound_access` replaced: every warp, every
    /// feasible residue, freshly collected addresses.
    fn bound_access_per_residue(
        f: Affine,
        lanes: &[u32],
        bx: u32,
        by: u32,
        warp_size: u32,
        shared: bool,
    ) -> Result<(u32, u32, u32), String> {
        let nwarps = lanes.iter().map(|&t| t / warp_size).max().unwrap_or(0) + 1;
        let (mut min_v, mut max_v, mut widest) = (u32::MAX, 0u32, 0u32);
        for w in 0..nwarps {
            let offs: Vec<i64> = lanes
                .iter()
                .filter(|&&t| t / warp_size == w)
                .map(|&t| {
                    let (tx, ty) = thread_xy(t, bx, by);
                    f.a.checked_mul(tx)
                        .and_then(|x| f.b.checked_mul(ty).and_then(|y| x.checked_add(y)))
                        .ok_or_else(|| "address coefficients overflow the model".to_string())
                })
                .collect::<Result<_, _>>()?;
            if offs.is_empty() {
                continue;
            }
            widest = widest.max(offs.len() as u32);
            for r in residues(f) {
                let addrs: Vec<u64> = offs
                    .iter()
                    .map(|&o| {
                        let a = o + r + BIAS;
                        if a < 0 {
                            Err("address below the model range".to_string())
                        } else {
                            Ok(a as u64)
                        }
                    })
                    .collect::<Result<_, _>>()?;
                let v = if shared {
                    smem_conflict_degree(addrs.into_iter())
                } else {
                    coalesce_lines(addrs.into_iter()).len() as u32
                };
                min_v = min_v.min(v);
                max_v = max_v.max(v);
            }
        }
        if max_v == 0 {
            return Err("no thread provably executes this access".to_string());
        }
        Ok((min_v, max_v, widest))
    }

    #[test]
    fn alignment_classes_bound_like_every_residue() {
        let mut rng = SmallRng::seed_from_u64(0xb0);
        let mut next = |n: u64| rng.gen_range(0..n);
        let (mut errs, mut oks) = (0, 0);
        for _ in 0..3000 {
            let mut coeff = || match next(10) {
                // Overflows at tid 2, fits at tid 1: an `Err` only some
                // warps reach.
                0 => 1 << 62,
                1 => -(1 << 62),
                // At tid 1, in range at some residues and not at others.
                2 => -BIAS - next(128) as i64,
                _ => next(129) as i64 - 64,
            };
            let (a, b) = (coeff(), coeff());
            let lo = match next(4) {
                0 => -BIAS - next(300) as i64,
                1 => simt_compiler::affine::NEG_INF,
                _ => next(4096) as i64,
            };
            let hi = match next(4) {
                0 => simt_compiler::affine::POS_INF,
                _ => lo.saturating_add(next(160) as i64),
            };
            let f = Affine { a, b, d: 0, e: 0, lo, hi, uniform: true };
            let (bx, by) = (1 + next(16) as u32, 1 + next(8) as u32);
            let threads = bx * by;
            let lanes: Vec<u32> = (0..threads).filter(|_| next(4) != 0).collect();
            let warp_size = [4, 8, 16, 32][next(4) as usize];
            for shared in [true, false] {
                let want = bound_access_per_residue(f, &lanes, bx, by, warp_size, shared);
                assert_eq!(bound_access(f, &lanes, bx, by, warp_size, shared), want, "{f:?}");
                if want.is_ok() {
                    oks += 1;
                } else {
                    errs += 1;
                }
            }
        }
        assert!(oks > 1000 && errs > 500, "{oks} bounded, {errs} refused");
    }
}
