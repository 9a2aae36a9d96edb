//! Symbolic translation validation: dimension-parametric proofs that the
//! compiler's redundancy markings and branch-sync assumptions are sound
//! for *every* launch the paper's promotion predicate admits, not just
//! the one configuration the differential oracle replays.
//!
//! The engine executes the compiled kernel once over symbolic
//! `tid.*`/`ntid.*` and symbolic initial memory (terms from
//! [`simt_compiler::term`]). Control flow follows the compiler's own
//! reconvergence table: a branch whose predicate folds to a constant is
//! followed directly; otherwise both arms run to the immediate
//! postdominator and the states merge pointwise with `ite` terms. A
//! back-edge of a *natural loop* whose trip count stays symbolic is
//! summarized instead of unrolled: a havoc-and-invariant fixpoint over
//! the loop body finds the registers the loop may modify and the
//! dependency closure they settle into, the exit state replaces them
//! with opaque summary terms carrying that closure (plus the trip
//! condition's own deps — the iteration count is data), and visits
//! recorded inside the body are retroactively tainted the same way.
//! Loops the summarizer declines (irreducible, side exit, no
//! convergence) still fork-unroll up to the budget. From the merged
//! state every marked instruction and skippable branch yields proof
//! obligations over the term's dependency set:
//!
//! | claim | quantified over | obligation |
//! |---|---|---|
//! | DR (`Marking::Redundant` / `Red::Redundant`) | every launch | deps ⊆ {laneid} |
//! | CR via `px` | 2D TBs, `ntid.x` = 2^k ≤ warp size | deps ⊆ {tid.x, laneid} |
//! | CR via `px && py` | whole TB inside one warp | vacuous (single warp) |
//! | skippable branch | family of its class | deps = ∅ |
//!
//! The `px` row is the paper's promotion theorem: when `ntid.x` divides
//! the warp size, `tid.x = laneid mod ntid.x` is a pure *lane* function,
//! so per-lane values agree across warps. The `py` row is vacuous because
//! `ntid.x * ntid.y ≤ warp size` leaves a single warp per threadblock and
//! cross-warp redundancy has nothing to compare.
//!
//! Claims the term domain cannot discharge fall back to the
//! launch-generic, divergence-aware affine flow ([`affine::Flow`]). The
//! interval meet hulls different per-path constants at control-flow
//! joins, so a non-exact interval alone proves nothing —
//! but the domain's TB-uniform *bit* does: it is set only on values
//! whose constant is one shared pick per dynamic instance, writes inside
//! divergent regions and merges under non-uniform guards clear it, and
//! joins AND it. A structurally-uniform value with the bit set is
//! thread-invariant by construction, so the fallback discharges
//! `Family::All` claims from uniformity alone, exact or not. Guarded
//! writes likewise fall to the term domain, which models the unwritten
//! lanes explicitly.
//! Claims neither prover discharges are *attacked*: the recorded terms
//! are evaluated concretely over a small family of two-warp candidate
//! blocks, and any cross-warp mismatch is replayed through the
//! differential oracle (the functional executor) before `S401` is
//! emitted — a counterexample the executor does not confirm is never
//! reported. Unresolved claims degrade to the conservative `S402`
//! warning; concrete divergence of a skippable branch predicate is
//! `S403`.
//!
//! Discharge is embarrassingly parallel: obligations are judged against
//! the *frozen* post-run state (term arena, visits, affine flows), so
//! [`prove_with_threads`] shards them across a scoped thread pool in
//! contiguous chunks and re-assembles results in claim order — the
//! report, stats and per-claim ledger are byte-identical for any thread
//! count. Each [`ClaimRecord`] carries its verdict, the reason an
//! unknown stayed open ([`UnknownReason`]), and the deterministic count
//! of concrete evaluations counterexample hunting spent on it.

use crate::{oracle, Diagnostic, Diagnostics, LintCode};
use gpu_sim::GlobalMemory;
use simt_compiler::affine::{self, AffineVal, Clamps, GridCtx};
use simt_compiler::{CompiledKernel, Deps, EvalCtx, TermArena, TermId, RECONVERGE_AT_EXIT};
use simt_isa::{Instruction, LaunchConfig, LaunchFamily, Marking, MemSpace, Op, Operand, Value};
use std::collections::HashMap;

/// Total instructions the symbolic executor may retire (loops unroll).
const FUEL: usize = 1 << 16;
/// Maximum nesting of unresolved branch forks (also bounds unrolling).
const MAX_FORK_DEPTH: usize = 64;
/// Term-arena ceiling; blowing past it aborts to the affine fallback.
const MAX_TERMS: usize = 1 << 20;
/// A block shape `(ntid.x, ntid.y, ntid.z)`.
type Shape = (u32, u32, u32);
/// Candidate shapes for disproving claims quantified over *every*
/// launch: two full warps each, 1D, promoted 2D, and 3D with one warp
/// per z plane (`tid.z` is the warp index).
const DIMS_ALL: [Shape; 5] = [(64, 1, 1), (32, 2, 1), (16, 4, 1), (8, 8, 1), (16, 2, 2)];
/// Candidate shapes for claims quantified over the `px` promotion family
/// (`ntid.y > 1`, `ntid.x` a power of two ≤ warp size): two full warps
/// each.
const DIMS_PX: [Shape; 5] = [(32, 2, 1), (16, 4, 1), (8, 8, 1), (4, 16, 1), (16, 2, 2)];
/// Candidate shapes for claims quantified over the xy promotion family
/// (the x check, and `ntid.x * ntid.y` a power of two ≤ warp size): a
/// block with two warps needs `ntid.z > 1`.
const DIMS_XY: [Shape; 1] = [(16, 2, 2)];

/// How a claim quantifies over launch configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    /// Claimed for every launch (DR markings, `Red::Redundant` classes).
    All,
    /// Claimed whenever the x-dimension promotion check passes.
    PromotedX,
    /// Claimed only when both x- and y-checks pass (each warp covers
    /// whole (x, y) planes).
    PromotedXY,
}

impl Family {
    /// Dependency sources a sound *value* claim of this family may have.
    fn allowed_value_deps(self) -> Deps {
        match self {
            Family::All => Deps::LANE,
            Family::PromotedX => Deps::TIDX.union(Deps::LANE),
            // tid.x and tid.y repeat in every warp; tid.z and warpid do not.
            Family::PromotedXY => Deps::TIDX.union(Deps::TIDY).union(Deps::LANE),
        }
    }

    /// Candidate block shapes used to hunt counterexamples.
    fn candidate_dims(self) -> &'static [Shape] {
        match self {
            Family::All => &DIMS_ALL,
            Family::PromotedX => &DIMS_PX,
            Family::PromotedXY => &DIMS_XY,
        }
    }

    fn describe(self) -> &'static str {
        self.cover().describe()
    }

    fn cover(self) -> FamilyCover {
        match self {
            Family::All => FamilyCover::AllLaunches,
            Family::PromotedX => FamilyCover::PromotedX,
            Family::PromotedXY => FamilyCover::PromotedXY,
        }
    }
}

/// Which launches a proved claim actually quantifies over, recorded per
/// [`ClaimRecord`] so a launch-family certificate can say what part of
/// its declared region each proof covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyCover {
    /// Every launch, of any geometry.
    AllLaunches,
    /// Launches passing the x-dimension promotion check
    /// ([`LaunchConfig::promotes_conditional_redundancy`]).
    PromotedX,
    /// Launches passing both the x- and y-promotion checks (each warp
    /// covers whole (x, y) planes, [`simt_compiler::promotes_tid_y`]).
    PromotedXY,
}

impl FamilyCover {
    /// Human-readable quantifier.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            FamilyCover::AllLaunches => "every launch",
            FamilyCover::PromotedX => "every x-promoted launch",
            FamilyCover::PromotedXY => "every xy-promoted launch",
        }
    }

    /// The subregion of `declared` this cover's proof actually holds on:
    /// the declared region intersected with the promotion predicate
    /// (evaluated against `warp_size`, which families inherit from their
    /// reference launch). `None` when no member launch satisfies the
    /// predicate, or when the predicate cannot be expressed as axis
    /// ranges over the declared region (a mixed `blockDim.x` axis) — the
    /// caller then reports no covered subregion rather than a silently
    /// narrowed one.
    #[must_use]
    pub fn covered_region(self, declared: &LaunchFamily, warp_size: u32) -> Option<LaunchFamily> {
        match self {
            FamilyCover::AllLaunches => Some(declared.clone()),
            FamilyCover::PromotedX | FamilyCover::PromotedXY => {
                if !declared.block_x.values().all(|v| v.is_power_of_two() && v <= warp_size) {
                    return None;
                }
                let mut r = declared.clone();
                // The x-check demands a genuinely 2D block: y > 1.
                let lo = r.block_y.round_up(2)?;
                r.block_y = simt_isa::AxisRange::strided(lo, r.block_y.hi, r.block_y.step);
                if self == FamilyCover::PromotedXY {
                    // Every member must keep x*y a power of two within the
                    // warp; demand it of every admitted extent pair.
                    let xy_ok = r.block_x.values().all(|x| {
                        r.block_y.values().all(|y| (x * y).is_power_of_two() && x * y <= warp_size)
                    });
                    if !xy_ok {
                        return None;
                    }
                }
                Some(r)
            }
        }
    }
}

/// The strongest launch family under which `pc`'s marking or class claims
/// its result is shared across warps: the differential oracle's claim
/// predicate, quantified over the family instead of one launch.
fn value_claim(ck: &CompiledKernel, pc: usize) -> Option<Family> {
    let claims = |px, py| oracle::claims_sharing(ck, pc, px, py);
    if claims(false, false) {
        Some(Family::All)
    } else if claims(true, false) {
        Some(Family::PromotedX)
    } else if claims(true, true) {
        Some(Family::PromotedXY)
    } else {
        None
    }
}

/// The strongest family under which the guarded branch at `pc` is
/// skippable (its class finalizes to uniform-redundant, the condition
/// DARSIE's fetch-skip and the divergence pass rely on).
fn branch_claim(ck: &CompiledKernel, pc: usize) -> Option<Family> {
    let instr = &ck.kernel.instrs[pc];
    if !matches!(instr.op, Op::Bra { .. }) || instr.guard.is_none() {
        return None;
    }
    let class = ck.classes[pc];
    if class.finalize(false, false).is_uv_uniform() {
        Some(Family::All)
    } else if class.finalize(true, false).is_uv_uniform() {
        Some(Family::PromotedX)
    } else if class.finalize(true, true).is_uv_uniform() {
        Some(Family::PromotedXY)
    } else {
        None
    }
}

/// One recorded execution of an obligation site: the term the site
/// produced and the path condition under which this visit happens.
/// `extra` is dependency taint added after the fact — when a loop the
/// visit sits inside is summarized, the loop's closed-over sources and
/// trip-condition deps are unioned in, because the recorded term only
/// describes the first unrolled iteration.
#[derive(Clone, Copy)]
struct Visit {
    path: TermId,
    term: TermId,
    extra: Deps,
}

/// Register/predicate file over terms; one per explored path segment.
#[derive(Clone)]
struct SymState {
    regs: Vec<TermId>,
    preds: Vec<TermId>,
}

enum Flow {
    /// Reached the stop pc (a reconvergence point).
    Fell,
    /// Executed `exit` (or both arms of a fork did).
    Exited,
}

/// Why a claim (or the whole symbolic run) stayed open. Reported
/// per-claim so regressions in prover power are diagnosable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnknownReason {
    /// The instruction-retirement or term-arena budget ran out.
    FuelExhausted,
    /// Branch-fork nesting exceeded `MAX_FORK_DEPTH` (64).
    ForkBudget,
    /// The run completed (or hit an unmodeled construct), but the term
    /// and affine domains could not discharge the obligation.
    TermEscape,
}

impl UnknownReason {
    /// Stable machine-readable label, used by `prove --json`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            UnknownReason::FuelExhausted => "fuel-exhausted",
            UnknownReason::ForkBudget => "fork-budget",
            UnknownReason::TermEscape => "term-domain-escape",
        }
    }
}

/// Budget exhaustion: fuel, fork depth, arena size, or an unmodeled
/// construct (thread-partial `exit`). The run so far remains usable for
/// counterexample hunting, but proofs require completion.
struct Exhausted(UnknownReason);

struct Engine<'a> {
    ck: &'a CompiledKernel,
    t: TermArena,
    /// Store generation per space: [global, shared]. Monotonic across
    /// paths, so a generation-0 load provably precedes every store.
    gens: [u32; 2],
    fuel: usize,
    value_sites: Vec<bool>,
    branch_sites: Vec<bool>,
    value_visits: HashMap<usize, Vec<Visit>>,
    branch_visits: HashMap<usize, Vec<Visit>>,
    /// `is_header[pc]` marks the first instruction of a loop header.
    is_header: Vec<bool>,
    /// Register/predicate state observed at each loop header, used as
    /// the base frame for the havoc-and-invariant summary.
    header_snap: HashMap<usize, SymState>,
    /// False during summary trial runs, which must not record visits.
    recording: bool,
}

impl<'a> Engine<'a> {
    fn new(ck: &'a CompiledKernel, value_sites: Vec<bool>, branch_sites: Vec<bool>) -> Engine<'a> {
        let mut is_header = vec![false; ck.kernel.instrs.len()];
        for l in &ck.cfg.loops.loops {
            is_header[l.header_pc] = true;
        }
        Engine {
            ck,
            t: TermArena::new(),
            gens: [0, 0],
            fuel: FUEL,
            value_sites,
            branch_sites,
            value_visits: HashMap::new(),
            branch_visits: HashMap::new(),
            is_header,
            header_snap: HashMap::new(),
            recording: true,
        }
    }

    fn gen_of(&self, space: MemSpace) -> u32 {
        match space {
            MemSpace::Global => self.gens[0],
            MemSpace::Shared => self.gens[1],
            MemSpace::Param => 0,
        }
    }

    fn bump_gen(&mut self, space: MemSpace) {
        match space {
            MemSpace::Global => self.gens[0] += 1,
            MemSpace::Shared => self.gens[1] += 1,
            MemSpace::Param => {}
        }
    }

    fn operand(&mut self, st: &SymState, op: Operand) -> TermId {
        match op {
            Operand::Reg(r) => st.regs[r.index()],
            Operand::Imm(v) => self.t.constant(v),
        }
    }

    /// The value the instruction writes to its destination register, in
    /// lockstep with the functional executor's per-lane semantics.
    fn dst_value(&mut self, st: &SymState, instr: &Instruction) -> TermId {
        let src = |i: usize| instr.srcs.get(i).copied();
        match instr.op {
            Op::S2R(s) => self.t.special(s),
            Op::Sel(p) => {
                let pv = st.preds[p.index()];
                let a = src(0).map(|o| self.operand(st, o));
                let b = src(1).map(|o| self.operand(st, o));
                let zero = self.t.constant(0);
                self.t.ite(pv, a.unwrap_or(zero), b.unwrap_or(zero))
            }
            Op::Ld(space) => {
                let zero = self.t.constant(0);
                let base = src(0).map_or(zero, |o| self.operand(st, o));
                let gen = self.gen_of(space);
                self.t.load(space, base, instr.offset, gen)
            }
            Op::Atom(_) => self.t.havoc(),
            _ => {
                // Plain ALU: absent operands read as zero, as in `exec`.
                let a = src(0).map(|o| self.operand(st, o));
                let b = src(1).map(|o| self.operand(st, o));
                let c = src(2).map(|o| self.operand(st, o));
                let zero = self.t.constant(0);
                self.t.alu(instr.op, a.unwrap_or(zero), b, c)
            }
        }
    }

    /// Runs from `pc` until `stop` (or `exit`), mutating `st` in place.
    /// `stop == RECONVERGE_AT_EXIT` means run until the kernel exits.
    fn run(
        &mut self,
        st: &mut SymState,
        mut pc: usize,
        stop: usize,
        path: TermId,
        depth: usize,
    ) -> Result<Flow, Exhausted> {
        loop {
            if pc == stop {
                return Ok(Flow::Fell);
            }
            if pc >= self.ck.kernel.instrs.len() {
                return Ok(Flow::Exited);
            }
            if self.fuel == 0 || self.t.len() > MAX_TERMS {
                return Err(Exhausted(UnknownReason::FuelExhausted));
            }
            self.fuel -= 1;
            if self.is_header[pc] {
                self.header_snap.insert(pc, st.clone());
            }
            let instr = self.ck.kernel.instrs[pc].clone();
            let cond = instr.guard.map(|g| {
                let p = st.preds[g.pred.index()];
                if g.negate {
                    self.t.not(p)
                } else {
                    p
                }
            });
            match instr.op {
                Op::Bra { target } => {
                    let one = self.t.constant(1);
                    let c = cond.unwrap_or(one);
                    if instr.guard.is_some() && self.branch_sites[pc] && self.recording {
                        self.branch_visits.entry(pc).or_default().push(Visit {
                            path,
                            term: c,
                            extra: Deps::NONE,
                        });
                    }
                    match self.t.as_const(c) {
                        Some(0) => pc += 1,
                        Some(_) => pc = target,
                        None => {
                            if let Some(exit) = self.try_summarize(st, pc, c, path, depth)? {
                                pc = exit;
                                continue;
                            }
                            if depth >= MAX_FORK_DEPTH {
                                return Err(Exhausted(UnknownReason::ForkBudget));
                            }
                            let join = self.ck.recon.get(pc).unwrap_or(RECONVERGE_AT_EXIT);
                            let not_c = self.t.not(c);
                            let path_t = self.t.alu(Op::And, path, Some(c), None);
                            let path_e = self.t.alu(Op::And, path, Some(not_c), None);
                            let mut taken = st.clone();
                            let ft = self.run(&mut taken, target, join, path_t, depth + 1)?;
                            let fe = self.run(st, pc + 1, join, path_e, depth + 1)?;
                            match (ft, fe) {
                                (Flow::Exited, Flow::Exited) => return Ok(Flow::Exited),
                                (Flow::Exited, Flow::Fell) => {}
                                (Flow::Fell, Flow::Exited) => *st = taken,
                                (Flow::Fell, Flow::Fell) => {
                                    for i in 0..st.regs.len() {
                                        if taken.regs[i] != st.regs[i] {
                                            st.regs[i] = self.t.ite(c, taken.regs[i], st.regs[i]);
                                        }
                                    }
                                    for i in 0..st.preds.len() {
                                        if taken.preds[i] != st.preds[i] {
                                            st.preds[i] =
                                                self.t.ite(c, taken.preds[i], st.preds[i]);
                                        }
                                    }
                                }
                            }
                            // Both arms reconverged strictly before the
                            // exit, so the join is a real pc.
                            pc = join;
                        }
                    }
                    continue;
                }
                Op::Exit => match cond.map(|c| self.t.as_const(c)) {
                    None | Some(Some(1..)) => return Ok(Flow::Exited),
                    Some(Some(0)) => {
                        pc += 1;
                        continue;
                    }
                    // A thread-partial exit tears the warp apart; the
                    // term domain has no mask concept, so give up.
                    Some(None) => return Err(Exhausted(UnknownReason::TermEscape)),
                },
                Op::Bar => {
                    pc += 1;
                    continue;
                }
                Op::St(space) => {
                    self.bump_gen(space);
                    pc += 1;
                    continue;
                }
                _ => {}
            }
            if matches!(instr.op, Op::Atom(_)) {
                self.bump_gen(MemSpace::Global);
            }
            if instr.op.writes_pdst() {
                if let Some(p) = instr.pdst {
                    let (a, b) = match (instr.srcs.first(), instr.srcs.get(1)) {
                        (Some(&a), Some(&b)) => (self.operand(st, a), self.operand(st, b)),
                        _ => {
                            let z = self.t.constant(0);
                            (z, z)
                        }
                    };
                    let v = match instr.op {
                        Op::Setp(cmp) => self.t.cmp(cmp, false, a, b),
                        Op::SetpF(cmp) => self.t.cmp(cmp, true, a, b),
                        _ => self.t.havoc(),
                    };
                    let old = st.preds[p.index()];
                    st.preds[p.index()] = match cond {
                        None => v,
                        Some(c) => self.t.ite(c, v, old),
                    };
                }
            }
            if instr.op.writes_dst() {
                if let Some(d) = instr.dst {
                    let v = self.dst_value(st, &instr);
                    let old = st.regs[d.index()];
                    st.regs[d.index()] = match cond {
                        None => v,
                        Some(c) => self.t.ite(c, v, old),
                    };
                    // Record the post-instruction register, exactly what
                    // the oracle's observer snapshots (a false guard
                    // leaves the old value, and so does the `ite`).
                    if self.value_sites[pc] && self.recording {
                        self.value_visits.entry(pc).or_default().push(Visit {
                            path,
                            term: st.regs[d.index()],
                            extra: Deps::NONE,
                        });
                    }
                }
            }
            pc += 1;
        }
    }

    /// Attempts to replace the natural loop whose back edge is the
    /// symbolic branch at `pc` with a havoc-and-invariant summary, so a
    /// symbolic trip count no longer forces bounded unrolling.
    ///
    /// The dependency sets of everything the body modifies are closed by
    /// iterating havocked trial runs of the body (visit recording
    /// suppressed): each modified register/predicate is replaced by a
    /// fresh [`TermArena::summary`] symbol carrying its current set, the
    /// body is re-run from the header, and any new sources the run
    /// surfaces widen the sets until they are inductive. The live state
    /// then gets fresh summary symbols tagged with the closed sets plus
    /// the trip-condition deps (the iteration count a value was left at
    /// depends on who kept looping), and every visit recorded inside the
    /// body is tainted the same way — its term only described the first
    /// iteration. Returns the loop's unique exit pc on success; `None`
    /// declines (irreducible shape, side exit) and the caller falls back
    /// to fork-based unrolling.
    // Indices walk four parallel state vectors in lockstep; iterator
    // chains would obscure that.
    #[allow(clippy::needless_range_loop)]
    fn try_summarize(
        &mut self,
        st: &mut SymState,
        pc: usize,
        cond: TermId,
        path: TermId,
        depth: usize,
    ) -> Result<Option<usize>, Exhausted> {
        let ck = self.ck;
        let Some(lp) = ck.cfg.loops.at_back_edge(pc) else {
            return Ok(None);
        };
        let Some(snap) = self.header_snap.get(&lp.header_pc).cloned() else {
            return Ok(None);
        };
        let guard = self.ck.kernel.instrs[pc].guard.expect("back edge is guarded");

        // Seed the modified sets from the concrete iteration just run
        // (snapshot at the header -> `st` at the back edge).
        let (nregs, npreds) = (st.regs.len(), st.preds.len());
        let mut reg_d: Vec<Option<Deps>> = vec![None; nregs];
        let mut pred_d: Vec<Option<Deps>> = vec![None; npreds];
        for r in 0..nregs {
            if snap.regs[r] != st.regs[r] {
                reg_d[r] = Some(self.t.deps(snap.regs[r]).union(self.t.deps(st.regs[r])));
            }
        }
        for p in 0..npreds {
            if snap.preds[p] != st.preds[p] {
                pred_d[p] = Some(self.t.deps(snap.preds[p]).union(self.t.deps(st.preds[p])));
            }
        }
        let mut cond_d = self.t.deps(cond);

        let was_recording = self.recording;
        self.recording = false;
        let mut converged = false;
        let mut outcome = Ok(());
        // The deps lattice is tiny, so the widening loop converges in a
        // handful of passes; the cap only guards against a logic bug.
        for _ in 0..64 {
            let mut trial = snap.clone();
            for r in 0..nregs {
                if let Some(d) = reg_d[r] {
                    trial.regs[r] = self.t.summary(d);
                }
            }
            for p in 0..npreds {
                if let Some(d) = pred_d[p] {
                    trial.preds[p] = self.t.summary(d);
                }
            }
            let init = trial.clone();
            match self.run(&mut trial, lp.header_pc, pc, path, depth + 1) {
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
                // A guarded `exit` escaped the body: not a single-exit
                // loop after all, so decline.
                Ok(Flow::Exited) => break,
                Ok(Flow::Fell) => {}
            }
            let mut changed = false;
            for r in 0..nregs {
                if trial.regs[r] != init.regs[r] || reg_d[r].is_some() {
                    let nd = self.t.deps(trial.regs[r]).union(reg_d[r].unwrap_or(Deps::NONE));
                    if reg_d[r] != Some(nd) {
                        reg_d[r] = Some(nd);
                        changed = true;
                    }
                }
            }
            for p in 0..npreds {
                if trial.preds[p] != init.preds[p] || pred_d[p].is_some() {
                    let nd = self.t.deps(trial.preds[p]).union(pred_d[p].unwrap_or(Deps::NONE));
                    if pred_d[p] != Some(nd) {
                        pred_d[p] = Some(nd);
                        changed = true;
                    }
                }
            }
            let pv = trial.preds[guard.pred.index()];
            let nc = cond_d.union(self.t.deps(pv));
            if nc != cond_d {
                cond_d = nc;
                changed = true;
            }
            if !changed {
                converged = true;
                break;
            }
        }
        self.recording = was_recording;
        outcome?;
        if !converged {
            return Ok(None);
        }

        // Install the summary exit state: every value the loop touches
        // becomes a fresh symbol over its closed sources plus the trip
        // condition's (how many iterations ran is itself data).
        let mut taint = cond_d;
        for d in reg_d.iter().chain(pred_d.iter()).flatten() {
            taint = taint.union(*d);
        }
        for r in 0..nregs {
            if let Some(d) = reg_d[r] {
                st.regs[r] = self.t.summary(d.union(cond_d));
            }
        }
        for p in 0..npreds {
            if let Some(d) = pred_d[p] {
                st.preds[p] = self.t.summary(d.union(cond_d));
            }
        }
        // Retroactively taint in-body visits: their recorded terms came
        // from the first unrolled iteration only.
        for &b in &lp.body {
            for vpc in self.ck.cfg.blocks[b].range() {
                for vs in [&mut self.value_visits, &mut self.branch_visits] {
                    if let Some(visits) = vs.get_mut(&vpc) {
                        for v in visits {
                            v.extra = v.extra.union(taint);
                        }
                    }
                }
            }
        }
        Ok(Some(pc + 1))
    }
}

/// Per-obligation outcome of [`prove`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Sound for the whole quantified family.
    Proved,
    /// A replay-confirmed counterexample exists (`S401` / `S403`).
    Disproved,
    /// Neither proved nor disproved within budget (`S402`).
    Unknown,
}

/// Aggregate counts from one [`prove`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProveStats {
    /// Marked-instruction obligations examined.
    pub value_claims: usize,
    /// Skippable-branch obligations examined.
    pub branch_claims: usize,
    /// Obligations proved for their whole launch family.
    pub proved: usize,
    /// Obligations with replay-confirmed counterexamples.
    pub disproved: usize,
    /// Obligations left open (budget / term-domain escape).
    pub unknown: usize,
    /// True when symbolic execution covered every path within budget.
    pub complete: bool,
    /// Instructions the symbolic engine retired (deterministic cost).
    pub fuel_used: usize,
    /// Terms interned by the symbolic engine (deterministic cost).
    pub terms: usize,
}

/// One obligation's entry in the proof ledger: where it sits, how it
/// quantifies, what happened to it, and — when it stayed open — why.
/// `evals` counts the concrete term evaluations counterexample hunting
/// spent on it, a deterministic per-claim cost measure.
#[derive(Debug, Clone, Copy)]
pub struct ClaimRecord {
    /// Instruction the claim is attached to.
    pub pc: usize,
    /// `"value"` (marked instruction) or `"branch"` (skippable branch).
    pub kind: &'static str,
    /// Launch family the claim quantifies over (human-readable).
    pub family: &'static str,
    /// The same quantifier as a first-class cover, intersectable with a
    /// declared [`LaunchFamily`] via [`FamilyCover::covered_region`].
    pub covers: FamilyCover,
    /// Outcome of the discharge attempt.
    pub verdict: Verdict,
    /// Why the claim stayed open; `None` unless `verdict` is `Unknown`.
    pub unknown_reason: Option<UnknownReason>,
    /// Concrete term evaluations spent hunting a counterexample.
    pub evals: usize,
}

/// Result of [`prove`]: the lint report plus the proof ledger.
pub struct Prove {
    /// `S401`/`S402`/`S403` diagnostics.
    pub report: Diagnostics,
    /// Proved / disproved / unknown counts.
    pub stats: ProveStats,
    /// Per-claim outcomes, in instruction order (value before branch).
    pub claims: Vec<ClaimRecord>,
}

/// Proves (or refutes) every redundancy marking and branch-sync claim of
/// `ck` over its whole quantified launch family. When a reference launch
/// and memory image are supplied, counterexample hunting evaluates loads
/// against that initial image and replays candidates with its parameters;
/// otherwise a zeroed memory and empty parameter list are used.
#[must_use]
pub fn prove(ck: &CompiledKernel, reference: Option<(&LaunchConfig, &GlobalMemory)>) -> Prove {
    prove_with_threads(ck, reference, 1)
}

/// What kind of obligation a [`ClaimTask`] discharges.
#[derive(Clone, Copy)]
enum ClaimKind {
    Value,
    Branch,
}

/// One obligation queued for discharge.
#[derive(Clone, Copy)]
struct ClaimTask {
    pc: usize,
    kind: ClaimKind,
    family: Family,
}

/// What one discharge attempt produced, before merging into the report.
struct ClaimOutcome {
    verdict: Verdict,
    diag: Option<Diagnostic>,
    evals: usize,
}

/// Everything a discharge worker needs, shared read-only across the
/// [`std::thread::scope`] pool.
struct JudgeCtx<'a> {
    ck: &'a CompiledKernel,
    t: &'a TermArena,
    value_visits: &'a HashMap<usize, Vec<Visit>>,
    branch_visits: &'a HashMap<usize, Vec<Visit>>,
    aff_val: &'a [Option<AffineVal>],
    aff_guard_uniform: &'a [bool],
    reachable: &'a [bool],
    ref_params: &'a [u32],
    ref_memory: &'a GlobalMemory,
    complete: bool,
}

/// [`prove`] with the claim-discharge stage sharded over `threads`
/// worker threads. Claims are independent of one another, so the work
/// splits into contiguous chunks whose results are re-joined in claim
/// order — the report, stats and ledger are byte-identical for every
/// thread count.
#[must_use]
pub fn prove_with_threads(
    ck: &CompiledKernel,
    reference: Option<(&LaunchConfig, &GlobalMemory)>,
    threads: usize,
) -> Prove {
    let n = ck.kernel.instrs.len();
    let vclaims: Vec<Option<Family>> = (0..n).map(|pc| value_claim(ck, pc)).collect();
    let bclaims: Vec<Option<Family>> = (0..n).map(|pc| branch_claim(ck, pc)).collect();

    // Pass 1: the symbolic engine.
    let mut eng = Engine::new(
        ck,
        vclaims.iter().map(Option::is_some).collect(),
        bclaims.iter().map(Option::is_some).collect(),
    );
    let zero = eng.t.constant(0);
    let one = eng.t.constant(1);
    let mut st = SymState {
        regs: vec![zero; ck.kernel.num_regs as usize],
        preds: vec![zero; affine::num_preds(&ck.kernel.instrs)],
    };
    let run_res = eng.run(&mut st, 0, RECONVERGE_AT_EXIT, one, 0);
    let complete = run_res.is_ok();
    let incomplete_reason = run_res.err().map(|Exhausted(r)| r);
    let fuel_used = FUEL - eng.fuel;
    let Engine { t, value_visits, branch_visits, .. } = eng;

    // Pass 2: the launch-generic, divergence-aware affine fixpoint as a
    // fallback prover. The claims cover blocks of any depth, so the z
    // extent is not pinned to 1 (`tid.z` stays unknown).
    let flow = affine::Flow::solve(&ck.kernel, &ck.cfg, GridCtx::generic(0), true, &Clamps::new());
    let mut aff_val: Vec<Option<AffineVal>> = vec![None; n];
    let mut aff_guard_uniform = vec![false; n];
    let mut reachable = vec![false; n];
    flow.replay(|pc, fs, _| {
        reachable[pc] = true;
        let instr = &ck.kernel.instrs[pc];
        if let Some(g) = instr.guard {
            aff_guard_uniform[pc] = fs.preds[g.pred.index()].is_tb_uniform();
        }
        // Guarded writes mix old and new bits per thread; only the term
        // domain models the unwritten lanes, so the affine prover is
        // restricted to unconditional definitions.
        if instr.op.writes_dst() && instr.dst.is_some() && instr.guard.is_none() {
            aff_val[pc] = Some(flow.value_of(fs, instr));
        }
    });

    let (ref_params, ref_memory);
    match reference {
        Some((launch, memory)) => {
            ref_params = launch.params.iter().map(|v| v.as_u32()).collect::<Vec<u32>>();
            ref_memory = memory.clone();
        }
        None => {
            ref_params = Vec::new();
            ref_memory = GlobalMemory::new();
        }
    }

    let mut tasks: Vec<ClaimTask> = Vec::new();
    for pc in 0..n {
        if let Some(family) = vclaims[pc] {
            tasks.push(ClaimTask { pc, kind: ClaimKind::Value, family });
        }
        if let Some(family) = bclaims[pc] {
            tasks.push(ClaimTask { pc, kind: ClaimKind::Branch, family });
        }
    }

    let ctx = JudgeCtx {
        ck,
        t: &t,
        value_visits: &value_visits,
        branch_visits: &branch_visits,
        aff_val: &aff_val,
        aff_guard_uniform: &aff_guard_uniform,
        reachable: &reachable,
        ref_params: &ref_params,
        ref_memory: &ref_memory,
        complete,
    };
    let outcomes: Vec<ClaimOutcome> =
        crate::parallel_map(&tasks, threads, |c| judge_claim(&ctx, c));

    let mut report = Diagnostics::new(ck.kernel.name.clone());
    let mut stats = ProveStats { complete, fuel_used, terms: t.len(), ..ProveStats::default() };
    let mut claims = Vec::with_capacity(tasks.len());
    for (task, out) in tasks.iter().zip(outcomes) {
        let kind = match task.kind {
            ClaimKind::Value => {
                stats.value_claims += 1;
                "value"
            }
            ClaimKind::Branch => {
                stats.branch_claims += 1;
                "branch"
            }
        };
        match out.verdict {
            Verdict::Proved => stats.proved += 1,
            Verdict::Disproved => stats.disproved += 1,
            Verdict::Unknown => stats.unknown += 1,
        }
        if let Some(d) = out.diag {
            report.push(d);
        }
        let unknown_reason = (out.verdict == Verdict::Unknown).then(|| {
            if complete {
                UnknownReason::TermEscape
            } else {
                incomplete_reason.unwrap_or(UnknownReason::TermEscape)
            }
        });
        claims.push(ClaimRecord {
            pc: task.pc,
            kind,
            family: task.family.describe(),
            covers: task.family.cover(),
            verdict: out.verdict,
            unknown_reason,
            evals: out.evals,
        });
    }
    Prove { report, stats, claims }
}

/// Discharges one obligation against the shared proof context.
fn judge_claim(ctx: &JudgeCtx<'_>, task: &ClaimTask) -> ClaimOutcome {
    match task.kind {
        ClaimKind::Value => judge_value(ctx, task.pc, task.family),
        ClaimKind::Branch => judge_branch(ctx, task.pc, task.family),
    }
}

/// A cross-warp mismatch found by concrete evaluation of a visit's term.
struct Witness {
    block: Shape,
    lane: u32,
    values: (u32, u32),
    term: TermId,
}

/// Evaluates each failing visit over two-warp candidate blocks, looking
/// for a lane whose value differs between the warps (for branch claims,
/// any two threads that disagree). Only threads satisfying the visit's
/// path condition count. `evals` accumulates the number of per-thread
/// term evaluations attempted — a deterministic cost measure.
#[allow(clippy::too_many_arguments)]
fn hunt(
    t: &TermArena,
    visits: &[Visit],
    failing: &[bool],
    dims: &[Shape],
    params: &[u32],
    memory: &GlobalMemory,
    cross_warp_only: bool,
    evals: &mut usize,
) -> Option<Witness> {
    let read = |addr: u64| memory.read_u32(addr);
    for &block in dims {
        for (visit, fail) in visits.iter().zip(failing) {
            if !fail {
                continue;
            }
            let mut eval_at = |warp: u32, lane: u32| -> Option<u32> {
                *evals += 1;
                let ctx = EvalCtx { block, warp_size: 32, warp, lane, params, read_global: &read };
                if t.eval(visit.path, &ctx)? == 0 {
                    return None;
                }
                t.eval(visit.term, &ctx)
            };
            if cross_warp_only {
                for lane in 0..32 {
                    if let (Some(a), Some(b)) = (eval_at(0, lane), eval_at(1, lane)) {
                        if a != b {
                            return Some(Witness { block, lane, values: (a, b), term: visit.term });
                        }
                    }
                }
            } else {
                // Branch uniformity: any two threads of the TB disagreeing
                // is divergence, including within one warp.
                let mut first: Option<(u32, u32)> = None;
                for warp in 0..2 {
                    for lane in 0..32 {
                        if let Some(v) = eval_at(warp, lane) {
                            match first {
                                None => first = Some((lane, v)),
                                Some((l0, v0)) if v0 != v => {
                                    return Some(Witness {
                                        block,
                                        lane: l0,
                                        values: (v0, v),
                                        term: visit.term,
                                    });
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
    }
    None
}

/// True when the affine abstraction pins a *single shared value* for
/// every thread of the dynamic instance: either an exact constant, or a
/// non-exact interval whose TB-uniformity bit survived every join and
/// transfer (so whatever the value is, all threads hold the same one).
fn shared_uniform(v: AffineVal) -> bool {
    v.affine().is_some_and(simt_compiler::Affine::is_tb_uniform)
}

fn judge_value(ctx: &JudgeCtx<'_>, pc: usize, family: Family) -> ClaimOutcome {
    let JudgeCtx { ck, t, ref_params, ref_memory, complete, .. } = *ctx;
    let mut evals = 0usize;
    let proved = |evals| ClaimOutcome { verdict: Verdict::Proved, diag: None, evals };
    if !ctx.reachable[pc] {
        // Dead code proves anything.
        return proved(evals);
    }
    // Affine prover: launch-generic by construction. A proof needs the
    // value *shared*: exact, or carrying the TB-uniformity bit — a bare
    // non-exact interval may still hide warp-divergent values hulled at
    // a join.
    if let Some(av) = ctx.aff_val[pc] {
        let affine_proof = match family {
            Family::All => shared_uniform(av),
            // a*tid.x + c with a shared c is a lane function under the
            // px promotion.
            Family::PromotedX => av.affine().is_some_and(|f| f.b == 0 && f.c_uniform()),
            // a*tid.x + b*tid.y + c likewise under the xy promotion.
            Family::PromotedXY => av.affine().is_some_and(|f| f.c_uniform()),
        };
        if affine_proof {
            return proved(evals);
        }
    }
    let allowed = family.allowed_value_deps();
    let empty = Vec::new();
    let vs = ctx.value_visits.get(&pc).unwrap_or(&empty);
    let failing: Vec<bool> =
        vs.iter().map(|v| !t.deps(v.term).union(v.extra).subset_of(allowed)).collect();
    if complete && !failing.iter().any(|&f| f) {
        // Every dynamic instance of this pc, on every path, is a function
        // of the allowed sources only (or the pc never executes).
        return proved(evals);
    }
    // Attack: concrete candidate dims, then confirm through the oracle.
    if let Some(w) =
        hunt(t, vs, &failing, family.candidate_dims(), ref_params, ref_memory, true, &mut evals)
    {
        if let Some(confirming) = replay(ck, pc, w.block, ref_params, ref_memory) {
            let diag = Diagnostic::new(
                LintCode::DisprovedMarking,
                Some(pc),
                format!(
                    "{} marking disproved for block {}: lane {} sees {:#x} in warp 0 \
                     but {:#x} in warp 1; value {}; counterexample confirmed by functional \
                     replay ({confirming})",
                    marking_name(ck, pc),
                    shape_name(w.block),
                    w.lane,
                    w.values.0,
                    w.values.1,
                    t.render(w.term),
                ),
            );
            return ClaimOutcome { verdict: Verdict::Disproved, diag: Some(diag), evals };
        }
    }
    let why = if complete {
        let d = vs
            .iter()
            .zip(&failing)
            .filter(|&(_, &f)| f)
            .map(|(v, _)| t.deps(v.term).union(v.extra))
            .fold(Deps::NONE, Deps::union);
        format!("value depends on {d} (allowed {})", allowed)
    } else {
        "symbolic execution budget exhausted before covering every path".to_string()
    };
    let diag = Diagnostic::new(
        LintCode::UnprovableMarking,
        Some(pc),
        format!("{} marking not provable for {}: {why}", marking_name(ck, pc), family.describe(),),
    );
    ClaimOutcome { verdict: Verdict::Unknown, diag: Some(diag), evals }
}

fn judge_branch(ctx: &JudgeCtx<'_>, pc: usize, family: Family) -> ClaimOutcome {
    let JudgeCtx { t, ref_params, ref_memory, complete, .. } = *ctx;
    let mut evals = 0usize;
    let proved = |evals| ClaimOutcome { verdict: Verdict::Proved, diag: None, evals };
    if !ctx.reachable[pc] || ctx.aff_guard_uniform[pc] {
        return proved(evals);
    }
    let empty = Vec::new();
    let vs = ctx.branch_visits.get(&pc).unwrap_or(&empty);
    let failing: Vec<bool> = vs.iter().map(|v| !t.deps(v.term).union(v.extra).is_empty()).collect();
    if complete && !failing.iter().any(|&f| f) {
        return proved(evals);
    }
    let dims = family.candidate_dims();
    if let Some(w) = hunt(t, vs, &failing, dims, ref_params, ref_memory, false, &mut evals) {
        let diag = Diagnostic::new(
            LintCode::BranchSyncViolation,
            Some(pc),
            format!(
                "skippable branch diverges for block {}: threads disagree on the \
                 predicate ({} vs {}); condition {}",
                shape_name(w.block),
                w.values.0,
                w.values.1,
                t.render(w.term),
            ),
        );
        return ClaimOutcome { verdict: Verdict::Disproved, diag: Some(diag), evals };
    }
    let why = if complete {
        let d = vs
            .iter()
            .zip(&failing)
            .filter(|&(_, &f)| f)
            .map(|(v, _)| t.deps(v.term).union(v.extra))
            .fold(Deps::NONE, Deps::union);
        format!("predicate depends on {d}")
    } else {
        "symbolic execution budget exhausted before covering every path".to_string()
    };
    let diag = Diagnostic::new(
        LintCode::UnprovableMarking,
        Some(pc),
        format!("branch uniformity not provable for {}: {why}", family.describe()),
    );
    ClaimOutcome { verdict: Verdict::Unknown, diag: Some(diag), evals }
}

/// Replays a candidate block shape through the differential oracle (the
/// functional executor) and returns the confirming lint code when the
/// oracle observes the same unsoundness at `pc`. This is the no-false-
/// witness guarantee: an `S401` is only emitted for counterexamples the
/// executor reproduces.
fn replay(
    ck: &CompiledKernel,
    pc: usize,
    block: Shape,
    params: &[u32],
    memory: &GlobalMemory,
) -> Option<&'static str> {
    let launch = LaunchConfig::new(1u32, block)
        .with_params(params.iter().map(|&w| Value(w)).collect::<Vec<Value>>());
    let diags = oracle::check(ck, &launch, memory.clone());
    for code in [LintCode::UnsoundMarking, LintCode::UnsoundPromotion] {
        if diags.with_code(code).iter().any(|d| d.pc == Some(pc)) {
            return Some(code.code());
        }
    }
    None
}

/// `(x,y)` for a 2D block, `(x,y,z)` otherwise.
fn shape_name((x, y, z): Shape) -> String {
    if z == 1 {
        format!("({x},{y})")
    } else {
        format!("({x},{y},{z})")
    }
}

fn marking_name(ck: &CompiledKernel, pc: usize) -> String {
    match ck.markings[pc] {
        Marking::Redundant => "DR".to_string(),
        Marking::ConditionallyRedundant => "CR".to_string(),
        Marking::Vector => format!("class {:?}/{:?}", ck.classes[pc].red, ck.classes[pc].pat),
    }
}
