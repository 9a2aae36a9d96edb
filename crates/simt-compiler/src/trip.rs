//! Static loop trip-count inference over [`crate::dom::NaturalLoops`].
//!
//! For each natural loop the pass recognizes the canonical counted shape
//! the [`simt_isa::KernelBuilder`] loop combinators emit — a single
//! unguarded induction update `ctr += step` (or `-=`) dominating the
//! latch, and a single `setp` defining the back-edge guard from `ctr`
//! against a loop-invariant bound — and solves the per-entry body
//! execution count in closed form.
//!
//! Operand resolution is **launch-aware**: the bound (and step, and the
//! counter's init) may come through `Mov`/`IAdd`/`ISub`/`IMul`/`Shl`
//! chains from immediates, `S2R` launch geometry (`ntid`/`nctaid`), or
//! `Ld(Param)` words of the actual [`LaunchConfig`] — mirroring the
//! functional executor's parameter semantics (absent words read 0).
//! Values the chain cannot pin are bounded by the affine-interval domain
//! ([`crate::affine`]) at the loop preheader, including thread-dependent
//! affine inits/bounds, which yield warp-level `[min, max]` trips over the
//! block's thread range (a warp iterates until its slowest lane exits).
//!
//! A loop whose trip count cannot be bounded — opaque bound (`warpid`,
//! memory-carried values), non-induction counter, or a genuinely
//! divergent-unbounded shape — reports a human-readable reason; the cost
//! estimator in `simt-verify` surfaces that as the `E201` lint and widens
//! the kernel's cycle bracket to "unbounded".

use crate::affine::{self, Affine, AffineVal, FlowState, GridCtx};
use crate::cfg::Cfg;
use crate::dom::{Doms, NaturalLoop, NaturalLoops};
use simt_isa::{
    CmpOp, Instruction, Kernel, LaunchConfig, LaunchFamily, MemSpace, Op, Operand, Reg,
};
use std::collections::BTreeMap;

/// Iteration cap: trip counts beyond this report as unbounded (the
/// simulator would hit its own `max_cycles` wall long before).
pub const MAX_TRIPS: u64 = 1 << 34;

/// Inferred per-entry body execution bounds of one natural loop.
#[derive(Debug, Clone)]
pub struct LoopTrip {
    /// Program counter of the guarded back-edge branch (loop identity).
    pub back_edge_pc: usize,
    /// Header block id.
    pub header: usize,
    /// Body block ids (header and latch included).
    pub body: Vec<usize>,
    /// `[min, max]` body executions per loop entry for any warp of the
    /// launch, or the reason no bound exists.
    pub bound: Result<(u64, u64), String>,
}

/// Trip bounds for every natural loop of a kernel under one launch.
#[derive(Debug, Clone, Default)]
pub struct TripCounts {
    /// One entry per [`NaturalLoops`] loop, same order.
    pub loops: Vec<LoopTrip>,
}

impl TripCounts {
    /// The trip info of the loop with back-edge `pc`, if any.
    #[must_use]
    pub fn at_back_edge(&self, pc: usize) -> Option<&LoopTrip> {
        self.loops.iter().find(|l| l.back_edge_pc == pc)
    }

    /// Product of the `[min, max]` trip bounds of every loop whose body
    /// contains `block`, saturating at [`MAX_TRIPS`]. `Err` carries the
    /// first unboundable enclosing loop's reason.
    pub fn enclosing_product(&self, block: usize) -> Result<(u64, u64), String> {
        let mut min: u64 = 1;
        let mut max: u64 = 1;
        for l in &self.loops {
            if !l.body.contains(&block) {
                continue;
            }
            let (lo, hi) = l.bound.clone()?;
            min = min.saturating_mul(lo).min(MAX_TRIPS);
            max = max.saturating_mul(hi).min(MAX_TRIPS);
        }
        Ok((min, max))
    }
}

/// Infers trip bounds for all natural loops of `kernel` under `launch`.
///
/// `in_states` must be the affine fixpoint in-states of the same
/// kernel/CFG (entry-zeroed, matching the simulator's register file);
/// passing them in lets callers share one fixpoint across passes.
#[must_use]
pub fn infer_trips(
    kernel: &Kernel,
    cfg: &Cfg,
    doms: &Doms,
    loops: &NaturalLoops,
    launch: &LaunchConfig,
    in_states: &[FlowState],
) -> TripCounts {
    let out_states = out_states(kernel, cfg, in_states, GridCtx::generic(launch.block.z));
    let loops_out = loops
        .loops
        .iter()
        .map(|l| LoopTrip {
            back_edge_pc: l.back_edge_pc,
            header: l.header,
            body: l.body.clone(),
            bound: infer_one(kernel, cfg, doms, loops, l, launch, &out_states),
        })
        .collect();
    TripCounts { loops: loops_out }
}

/// Per-block out-states: each reachable block's body replayed from its
/// in-state under `ctx`.
fn out_states(kernel: &Kernel, cfg: &Cfg, in_states: &[FlowState], ctx: GridCtx) -> Vec<FlowState> {
    (0..cfg.len())
        .map(|b| {
            let mut st = in_states[b].clone();
            if st.reachable {
                for pc in cfg.blocks[b].range() {
                    affine::transfer(&mut st, &kernel.instrs[pc], ctx);
                }
            }
            st
        })
        .collect()
}

/// Trip-bounded interval clamps for loop-carried affine accumulators,
/// consumed by [`affine::fixpoint_clamped`].
///
/// The interval fixpoint widens any register that grows across a back
/// edge to an infinite bound, even when the loop's trip count is solved —
/// a `ptr += 16` table walk in an 8-trip loop touches 128 bytes, not an
/// unbounded stream. For every loop with a finite trip bound and every
/// register whose single in-body update is an unguarded,
/// once-per-iteration `r += k` with a launch-constant `k` (the shape
/// `find_induction` recognizes), the value flowing into the header
/// satisfies `r ∈ preheader(r) + k·[0, J]`: `J = max_trips − 1` when the
/// exit leaves from the latch (a bottom-tested loop's header never
/// observes the final update), `J = max_trips` otherwise.
///
/// `in_states` must come from an **entry-zeroed** fixpoint of the same
/// kernel under `ctx` (never-written registers read 0, matching the
/// executor); the clamps are only sound against states with the same
/// entry convention.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn induction_clamps(
    kernel: &Kernel,
    cfg: &Cfg,
    doms: &Doms,
    loops: &NaturalLoops,
    trips: &TripCounts,
    launch: &LaunchConfig,
    in_states: &[FlowState],
    ctx: GridCtx,
) -> BTreeMap<(usize, usize), Affine> {
    // Out-states replayed under the caller's (typically launch-aware)
    // context, so preheader values resolve params and grid geometry.
    let out_states = out_states(kernel, cfg, in_states, ctx);

    let mut clamps: BTreeMap<(usize, usize), Affine> = BTreeMap::new();
    for (l, t) in loops.loops.iter().zip(&trips.loops) {
        let Some(&(_, tmax)) = t.bound.as_ref().ok() else { continue };
        let latch_exits = cfg.blocks[l.latch].succs.len() == 2;
        let iters = i128::from(if latch_exits { tmax.saturating_sub(1) } else { tmax });
        for rnum in 0..kernel.num_regs {
            let Ok(r8) = u8::try_from(rnum) else { break };
            let r = Reg(r8);
            let Some((_, Update::Affine(s))) = find_induction(kernel, cfg, doms, loops, l, r)
            else {
                continue;
            };
            let Some(k) = resolve_const(kernel, launch, s, 0) else { continue };
            let Some(v0) = preheader_value(kernel, cfg, l, &out_states, r) else { continue };
            if v0.lo == affine::NEG_INF || v0.hi == affine::POS_INF {
                continue;
            }
            let span = i128::from(k) * iters;
            let (Ok(lo), Ok(hi)) = (
                i64::try_from(i128::from(v0.lo) + span.min(0)),
                i64::try_from(i128::from(v0.hi) + span.max(0)),
            ) else {
                continue;
            };
            let cl = Affine { lo, hi, ..v0 };
            // Loops sharing a header both make sound global claims about
            // values entering it (each saw the other's latch as an
            // outside predecessor): intersect when comparable.
            match clamps.entry((l.header, usize::from(rnum))) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(cl);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let old = *e.get();
                    if old.a == cl.a && old.b == cl.b && old.d == cl.d && old.e == cl.e {
                        e.insert(Affine { lo: old.lo.max(cl.lo), hi: old.hi.min(cl.hi), ..old });
                    } else {
                        e.remove();
                    }
                }
            }
        }
    }
    clamps
}

/// Family-region induction clamps: [`induction_clamps`] evaluated at
/// every region corner (corner trips, corner launch for step
/// resolution, the caller's family-symbolic states/context for
/// preheader envelopes), keeping only clamps that are *identical at
/// every corner*. A kept clamp's step and span provably do not vary
/// across the region boundary, so — with the preheader envelope already
/// hulled over the whole region by the family-mode fixpoint — it bounds
/// the accumulator for every member launch.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn induction_clamps_family(
    kernel: &Kernel,
    cfg: &Cfg,
    doms: &Doms,
    loops: &NaturalLoops,
    family: &LaunchFamily,
    reference: &LaunchConfig,
    in_states: &[FlowState],
    ctx: GridCtx,
) -> BTreeMap<(usize, usize), Affine> {
    let mut agreed: Option<BTreeMap<(usize, usize), Affine>> = None;
    for corner in family.corners(reference) {
        let trips = infer_trips(kernel, cfg, doms, loops, &corner, in_states);
        let clamps = induction_clamps(kernel, cfg, doms, loops, &trips, &corner, in_states, ctx);
        agreed = Some(match agreed {
            None => clamps,
            Some(prev) => {
                prev.into_iter().filter(|(key, cl)| clamps.get(key) == Some(cl)).collect()
            }
        });
    }
    agreed.unwrap_or_default()
}

/// The affine preheader value of `r`, coefficients preserved: the meet of
/// the header's outside-the-body predecessors' out-states (kernel entry
/// for a loop headed at block 0, entry-zeroed).
fn preheader_value(
    kernel: &Kernel,
    cfg: &Cfg,
    l: &NaturalLoop,
    out_states: &[FlowState],
    r: Reg,
) -> Option<Affine> {
    let nregs = usize::from(kernel.num_regs);
    let npreds = affine::num_preds(&kernel.instrs);
    let mut st = if l.header == 0 {
        FlowState::entry(nregs, npreds, true)
    } else {
        FlowState::unreachable(nregs, npreds)
    };
    for &p in &cfg.blocks[l.header].preds {
        if !l.body.contains(&p) {
            st.meet_with(&out_states[p], false);
        }
    }
    if !st.reachable {
        return None;
    }
    match st.regs[usize::from(r.0)] {
        AffineVal::Top => AffineVal::constant(0).affine(),
        AffineVal::Aff(f) => Some(f),
        AffineVal::Unknown => None,
    }
}

/// The continue-predicate: after each iteration the loop re-enters while
/// `v <cmp> bound` evaluates to `polarity`.
#[derive(Debug, Clone, Copy)]
struct Continue {
    cmp: CmpOp,
    polarity: bool,
}

impl Continue {
    fn holds(self, v: i128, bound: i128) -> bool {
        let t = match self.cmp {
            CmpOp::Eq => v == bound,
            CmpOp::Ne => v != bound,
            CmpOp::Lt => v < bound,
            CmpOp::Le => v <= bound,
            CmpOp::Gt => v > bound,
            CmpOp::Ge => v >= bound,
        };
        t == self.polarity
    }

    fn is_equality(self) -> bool {
        matches!(self.cmp, CmpOp::Eq | CmpOp::Ne)
    }
}

fn mirror(cmp: CmpOp) -> CmpOp {
    match cmp {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        c => c,
    }
}

fn infer_one(
    kernel: &Kernel,
    cfg: &Cfg,
    doms: &Doms,
    loops: &NaturalLoops,
    l: &NaturalLoop,
    launch: &LaunchConfig,
    out_states: &[FlowState],
) -> Result<(u64, u64), String> {
    let bra = &kernel.instrs[l.back_edge_pc];
    let guard = bra.guard.ok_or("back-edge branch has no guard")?;

    // The single in-body definition of the guard predicate.
    let pred_defs: Vec<usize> = l
        .body
        .iter()
        .flat_map(|&b| cfg.blocks[b].range())
        .filter(|&pc| kernel.instrs[pc].pdst == Some(guard.pred))
        .collect();
    let &[setp_pc] = pred_defs.as_slice() else {
        return Err(format!("guard predicate has {} in-body definitions", pred_defs.len()));
    };
    let setp = &kernel.instrs[setp_pc];
    let Op::Setp(cmp) = setp.op else {
        return Err("guard is not an integer setp".to_string());
    };
    if setp.guard.is_some() {
        return Err("guard setp is itself predicated".to_string());
    }
    if !doms.dominates(cfg.block_of[setp_pc], l.latch) {
        return Err("guard setp does not dominate the latch".to_string());
    }

    // Orient the comparison as `ctr <cmp> bound`.
    let (ctr, cmp, bound_op) = match (setp.srcs[0], setp.srcs[1]) {
        (Operand::Reg(r), other) if find_induction(kernel, cfg, doms, loops, l, r).is_some() => {
            (r, cmp, other)
        }
        (other, Operand::Reg(r)) if find_induction(kernel, cfg, doms, loops, l, r).is_some() => {
            (r, mirror(cmp), other)
        }
        _ => return Err("no compared operand is a recognized induction counter".to_string()),
    };
    let (update_pc, update) =
        find_induction(kernel, cfg, doms, loops, l, ctr).expect("checked above");
    let step = match update {
        Update::Affine(s) => resolve_const(kernel, launch, s, 0)
            .ok_or("induction step is not a launch-time constant")?,
        Update::Geometric(s) => {
            let ratio = resolve_const(kernel, launch, s, 0)
                .ok_or("induction ratio is not a launch-time constant")?;
            if ratio < 2 {
                return Err(format!("geometric induction ratio {ratio} makes no progress"));
            }
            ratio
        }
    };

    // Loop-invariant bound: launch-constant chain first, affine preheader
    // envelope second.
    let bound = match bound_op {
        Operand::Imm(v) => Interval::exact(i64::from(v as i32)),
        Operand::Reg(r) => {
            if l.body
                .iter()
                .flat_map(|&b| cfg.blocks[b].range())
                .any(|pc| kernel.instrs[pc].dst == Some(r))
            {
                return Err("loop bound is redefined inside the body".to_string());
            }
            value_interval(kernel, cfg, l, launch, out_states, r)
                .map_err(|e| format!("loop bound: {e}"))?
        }
    };

    // Counter init at the preheader.
    let init = value_interval(kernel, cfg, l, launch, out_states, ctr)
        .map_err(|e| format!("counter init: {e}"))?;

    // The latch tests the post-update value when the update precedes the
    // setp in the (latch-dominating, hence per-iteration) program order.
    let delta: i128 = if setp_pc < update_pc { 1 } else { 0 };
    let cont = Continue { cmp, polarity: !guard.negate };
    if cont.is_equality() && (!init.is_exact() || !bound.is_exact()) {
        return Err("equality-tested loop with inexact init or bound".to_string());
    }

    let mut min = u64::MAX;
    let mut max = 0u64;
    for &i0 in &[init.lo, init.hi] {
        for &n in &[bound.lo, bound.hi] {
            let t = match update {
                Update::Affine(_) => {
                    solve_trips(i128::from(i0), i128::from(step), i128::from(n), delta, cont)?
                }
                Update::Geometric(_) => solve_trips_geometric(
                    i128::from(i0),
                    i128::from(step),
                    i128::from(n),
                    delta,
                    cont,
                )?,
            };
            min = min.min(t);
            max = max.max(t);
        }
    }
    Ok((min, max))
}

/// A finite `[lo, hi]` envelope.
#[derive(Debug, Clone, Copy)]
struct Interval {
    lo: i64,
    hi: i64,
}

impl Interval {
    fn exact(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    fn is_exact(self) -> bool {
        self.lo == self.hi
    }
}

/// The per-iteration shape of a recognized induction update.
#[derive(Debug, Clone, Copy)]
enum Update {
    /// `ctr += step` (or `-=`): the operand is the signed step.
    Affine(Operand),
    /// `ctr *= ratio` — stride-doubling loops (`iadd ctr, ctr`,
    /// `shl ctr, imm`, `imul ctr, m`): the operand is the ratio.
    Geometric(Operand),
}

/// The single in-body induction update of `ctr`: an unguarded
/// latch-dominating `IAdd`/`ISub` (affine) or self-multiplication
/// (geometric), not nested inside an inner loop.
fn find_induction(
    kernel: &Kernel,
    cfg: &Cfg,
    doms: &Doms,
    loops: &NaturalLoops,
    l: &NaturalLoop,
    ctr: Reg,
) -> Option<(usize, Update)> {
    let defs: Vec<usize> = l
        .body
        .iter()
        .flat_map(|&b| cfg.blocks[b].range())
        .filter(|&pc| kernel.instrs[pc].dst == Some(ctr))
        .collect();
    let &[pc] = defs.as_slice() else { return None };
    let i = &kernel.instrs[pc];
    if i.guard.is_some() || !doms.dominates(cfg.block_of[pc], l.latch) {
        return None;
    }
    // Executed once per iteration: not inside a strictly-nested loop.
    let b = cfg.block_of[pc];
    let nested = loops.loops.iter().any(|l2| {
        l2.back_edge_pc != l.back_edge_pc
            && l2.body.contains(&b)
            && l2.body.iter().all(|bb| l.body.contains(bb))
    });
    if nested {
        return None;
    }
    match (i.op, i.srcs.as_slice()) {
        (Op::IAdd, &[Operand::Reg(a), Operand::Reg(b)]) if a == ctr && b == ctr => {
            Some((pc, Update::Geometric(Operand::Imm(2))))
        }
        (Op::IAdd, &[Operand::Reg(a), s]) if a == ctr => Some((pc, Update::Affine(s))),
        (Op::IAdd, &[s, Operand::Reg(a)]) if a == ctr => Some((pc, Update::Affine(s))),
        (Op::ISub, &[Operand::Reg(a), s]) if a == ctr => {
            Some((pc, Update::Affine(negate_operand(s)?)))
        }
        (Op::Shl, &[Operand::Reg(a), Operand::Imm(sh)]) if a == ctr && (1..31).contains(&sh) => {
            Some((pc, Update::Geometric(Operand::Imm(1 << sh))))
        }
        (Op::IMul, &[Operand::Reg(a), s]) if a == ctr => Some((pc, Update::Geometric(s))),
        (Op::IMul, &[s, Operand::Reg(a)]) if a == ctr => Some((pc, Update::Geometric(s))),
        _ => None,
    }
}

/// `-imm`, when the operand is an immediate (register steps keep their
/// sign through [`resolve_const`] at the caller's negation point).
fn negate_operand(s: Operand) -> Option<Operand> {
    match s {
        Operand::Imm(v) => Some(Operand::Imm((v as i32).wrapping_neg() as u32)),
        Operand::Reg(_) => None,
    }
}

/// Resolves an operand to a launch-time constant by chasing its unique
/// static definition through pure arithmetic, launch geometry (`S2R`) and
/// parameter loads — the executor's exact semantics (absent params read
/// 0, immediates sign-extend).
fn resolve_const(kernel: &Kernel, launch: &LaunchConfig, op: Operand, depth: u32) -> Option<i64> {
    if depth > 32 {
        return None;
    }
    let r = match op {
        Operand::Imm(v) => return Some(i64::from(v as i32)),
        Operand::Reg(r) => r,
    };
    let defs: Vec<&Instruction> = kernel.instrs.iter().filter(|i| i.dst == Some(r)).collect();
    let &[i] = defs.as_slice() else { return None };
    if i.guard.is_some() {
        return None;
    }
    let s = |idx: usize| resolve_const(kernel, launch, i.srcs[idx], depth + 1);
    match i.op {
        Op::Mov => s(0),
        Op::IAdd => Some(s(0)?.checked_add(s(1)?)?),
        Op::ISub => Some(s(0)?.checked_sub(s(1)?)?),
        Op::IMul => Some(s(0)?.checked_mul(s(1)?)?),
        Op::Shl => Some(s(0)?.checked_shl(u32::try_from(s(1)?).ok()?)?),
        Op::S2R(sp) => {
            use simt_isa::SpecialReg as S;
            match sp {
                S::NtidX => Some(i64::from(launch.block.x)),
                S::NtidY => Some(i64::from(launch.block.y)),
                S::NtidZ => Some(i64::from(launch.block.z)),
                S::NctaidX => Some(i64::from(launch.grid.x)),
                S::NctaidY => Some(i64::from(launch.grid.y)),
                S::NctaidZ => Some(i64::from(launch.grid.z)),
                _ => None,
            }
        }
        Op::Ld(MemSpace::Param) => {
            let addr = s(0)?.checked_add(i64::from(i.offset))?;
            if addr < 0 {
                return None;
            }
            let word = usize::try_from(addr / 4).ok()?;
            Some(launch.params.get(word).map_or(0, |v| i64::from(v.0 as i32)))
        }
        _ => None,
    }
}

/// Finite envelope of register `r` at the loop preheader: the meet of the
/// affine out-states of the header's outside-the-body predecessors
/// (kernel entry for a loop headed at block 0). Thread-affine values are
/// widened over the launch's thread range — a warp runs a divergent loop
/// until its slowest lane exits, and every lane's trip lies inside the
/// envelope's corners.
fn value_interval(
    kernel: &Kernel,
    cfg: &Cfg,
    l: &NaturalLoop,
    launch: &LaunchConfig,
    out_states: &[FlowState],
    r: Reg,
) -> Result<Interval, String> {
    let nregs = usize::from(kernel.num_regs);
    let npreds = affine::num_preds(&kernel.instrs);
    let mut st = if l.header == 0 {
        FlowState::entry(nregs, npreds, true)
    } else {
        FlowState::unreachable(nregs, npreds)
    };
    for &p in &cfg.blocks[l.header].preds {
        if !l.body.contains(&p) {
            st.meet_with(&out_states[p], false);
        }
    }
    if !st.reachable {
        return Err("loop preheader is unreachable".to_string());
    }
    match st.regs[usize::from(r.0)] {
        AffineVal::Top => Ok(Interval::exact(0)), // never written: reads 0
        AffineVal::Aff(f) => {
            let (lo, hi) = f.range(i64::from(launch.block.x), i64::from(launch.block.y));
            if lo == affine::NEG_INF || hi == affine::POS_INF {
                // The interval domain widens loads away even when the
                // chain is launch-resolvable (e.g. a `Ld(Param)` bound):
                // chase the unique static definition before giving up.
                resolve_const(kernel, launch, Operand::Reg(r), 0)
                    .map(Interval::exact)
                    .ok_or_else(|| "value is unbounded at the preheader".to_string())
            } else {
                Ok(Interval { lo, hi })
            }
        }
        AffineVal::Unknown => {
            // Last chance: a launch-constant chain the interval domain
            // widened away (e.g. a param load).
            resolve_const(kernel, launch, Operand::Reg(r), 0)
                .map(Interval::exact)
                .ok_or_else(|| "value is not thread-affine or launch-constant".to_string())
        }
    }
}

/// Smallest `k >= 1` with `!cont(i0 + (k - delta) * step, bound)`: the
/// body execution count of a bottom-tested loop whose latch tests the
/// counter value `i0 + (k - delta) * step` after iteration `k`.
fn solve_trips(
    i0: i128,
    step: i128,
    bound: i128,
    delta: i128,
    cont: Continue,
) -> Result<u64, String> {
    let v = |k: i128| i0 + (k - delta) * step;
    if !cont.holds(v(1), bound) {
        return Ok(1);
    }
    if cont.is_equality() {
        // Continue while v == bound: leaves as soon as the counter moves.
        let eq_continue = cont.holds(bound, bound);
        if eq_continue {
            return if step == 0 {
                Err("equality loop with zero step never exits".to_string())
            } else {
                Ok(2)
            };
        }
        // Continue while v != bound: exits at the exact hit, if any.
        if step == 0 {
            return Err("inequality loop with zero step never exits".to_string());
        }
        let num = bound - i0;
        if num % step != 0 {
            return Err("inequality loop steps over its bound".to_string());
        }
        let k = num / step + delta;
        if k >= 1 {
            return u64::try_from(k).map_err(|_| "trip count overflows".to_string());
        }
        return Err("inequality loop never reaches its bound".to_string());
    }
    // Ordered comparison: the continue set is a half-line in the counter
    // value, so `!cont` is monotone in `k`; binary-search the first exit.
    let cap = i128::from(MAX_TRIPS);
    if cont.holds(v(cap), bound) {
        return Err(format!("no exit within {MAX_TRIPS} iterations"));
    }
    let (mut lo, mut hi) = (1i128, cap); // cont(lo) holds, !cont(hi)
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if cont.holds(v(mid), bound) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(u64::try_from(hi).expect("bounded by MAX_TRIPS"))
}

/// Smallest `k >= 1` with `!cont(i0 * ratio^(k - delta), bound)` — the
/// stride-doubling analog of [`solve_trips`]. With `ratio >= 2` the
/// counter magnitude at least doubles per iteration, so any exit arrives
/// before `i128` saturates (~130 iterations); iterate directly rather
/// than solving in closed form, which also covers the equality tests.
fn solve_trips_geometric(
    i0: i128,
    ratio: i128,
    bound: i128,
    delta: i128,
    cont: Continue,
) -> Result<u64, String> {
    if i0 == 0 {
        // The counter is stuck at zero: the test's verdict never changes.
        return if cont.holds(0, bound) {
            Err("geometric loop with zero counter never exits".to_string())
        } else {
            Ok(1)
        };
    }
    // Value tested after iteration 1, then multiplied once per iteration.
    let mut val = if delta == 1 { i0 } else { i0.saturating_mul(ratio) };
    for k in 1..=200u64 {
        if !cont.holds(val, bound) {
            return Ok(k);
        }
        val = val.saturating_mul(ratio);
    }
    Err("geometric loop shows no exit within the search cap".to_string())
}
