//! Inter-thread-block independence certifier.
//!
//! The sharded engine (ROADMAP item 1) replays thread blocks of one
//! launch concurrently and in arbitrary order, which is only sound when
//! no observable value depends on that order. This pass certifies the
//! precondition statically: it builds a per-block *global-memory
//! footprint* for every global load, store and atomic from the
//! block-affine domain (`a*tid.x + b*tid.y + d*ctaid.x + e*ctaid.y + c`)
//! under the concrete launch, and proves pairwise inter-block
//! disjointness by affine-stride separation over the grid.
//!
//! Verdicts per kernel-launch pair ([`BlockIndependence`]):
//!
//! - **block-independent** — no two distinct blocks can touch a common
//!   global word with at least one write; block replay order is
//!   unobservable.
//! - **commutative-atomics-only** — the only possible inter-block
//!   collisions are same-op commutative atomics (`add`/`max`/`min`),
//!   whose final memory value is order-independent (destination
//!   registers may still observe intermediate order, which the engine
//!   must not share across blocks).
//! - **potentially-racy** — a proven collision ([`LintCode::InterBlockRace`],
//!   `V310`, with a concrete block-pair witness), a conservative overlap
//!   (`V311`), or an unanalyzable address (`V313`).
//!
//! Soundness split: *disjointness* proofs use over-approximated
//! footprints (whole-block address ranges, guards ignored), while the
//! definite `V310` verdict demands an exact, bounded re-enumeration — a
//! concrete block pair plus concrete threads whose guards all evaluate
//! true and whose exact addresses intersect. Anything between the two is
//! a conservative `V311`.
//!
//! [`certify`] adds the dynamic half: a functional replay of *every*
//! thread block of the launch under the global shadow sanitizer. A
//! replay collision is a definite `V312`; a collision-free replay is
//! itself a per-launch proof — every thread of every block executed, and
//! since no block read or wrote another block's words, each block
//! behaved exactly as it would in isolation — so it *discharges* purely
//! conservative static findings (`V311`/`V313`, note `V314`) and
//! upgrades the classification for this launch.

use crate::family::UnresolvedPair;
use crate::races::{guarded_threads, mem_accesses, thread_xy, AccessKind, MemAccess};
use crate::{Diagnostic, Diagnostics, LintCode};
use gpu_sim::GlobalRace;
use simt_compiler::affine::{
    fixpoint_clamped, fixpoint_with_divergence, Affine, FlowState, GridCtx, PredVal,
};
use simt_compiler::dom::{Doms, NaturalLoops};
use simt_compiler::trip::{induction_clamps, induction_clamps_family, infer_trips};
use simt_compiler::CompiledKernel;
use simt_isa::{AtomOp, Dim3, LaunchConfig, LaunchFamily, MemSpace, Op};
use std::collections::{BTreeMap, BTreeSet};

/// Upper bound on grid-offset deltas enumerated by the stride-separation
/// argument for one access pair.
const DELTA_CAP: i64 = 1 << 20;

/// Upper bound on ordered block pairs enumerated when the two accesses
/// disagree on their block coefficients.
const PAIR_CAP: u64 = 4096;

/// Upper bound on per-launch thread instances (`blocks × threads`)
/// enumerated by the exact word-map refinement. The refinement is linear
/// in this product — not quadratic in the block count — so eval-scale
/// grids (hundreds of blocks) stay in budget.
const ENUM_CAP: u64 = 1 << 20;

/// How a kernel-launch pair relates to block replay order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockIndependence {
    /// No inter-block collision on any global word is possible.
    Independent,
    /// Collisions are possible only between same-op commutative atomics.
    CommutativeAtomicsOnly,
    /// A collision was proven or could not be excluded.
    PotentiallyRacy,
}

impl BlockIndependence {
    /// Stable label used in reports and `--json` output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BlockIndependence::Independent => "block-independent",
            BlockIndependence::CommutativeAtomicsOnly => "commutative-atomics-only",
            BlockIndependence::PotentiallyRacy => "potentially-racy",
        }
    }
}

/// A concrete inter-block collision backing one `V310`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceWitness {
    /// Static pc of the first access.
    pub pc_a: usize,
    /// Static pc of the second access.
    pub pc_b: usize,
    /// Block executing `pc_a`'s colliding instance.
    pub block_a: Dim3,
    /// Distinct block executing `pc_b`'s colliding instance.
    pub block_b: Dim3,
    /// The shared global word index (byte address / 4).
    pub word: i64,
}

/// The certifier's verdict for one kernel under one launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Kernel name.
    pub kernel: String,
    /// Overall classification.
    pub classification: BlockIndependence,
    /// Global loads / stores / atomics the pass analyzed.
    pub global_accesses: usize,
    /// Accesses whose address escaped the affine domain (`V313`).
    pub unanalyzable: usize,
    /// Access pairs subjected to a disjointness proof.
    pub checked_pairs: usize,
    /// First proven collision, when the classification is racy with a
    /// definite witness.
    pub witness: Option<RaceWitness>,
    /// True when conservative static findings (`V311`/`V313`) were
    /// discharged by a collision-free exhaustive replay ([`certify`]),
    /// upgrading the classification for this launch.
    pub dynamically_discharged: bool,
}

/// Outcome of one write-involving pair's disjointness attempt.
enum PairVerdict {
    /// Provably no common word between distinct blocks.
    Disjoint,
    /// Same-op commutative atomics that may collide: the final memory
    /// value is independent of block order.
    Commutative,
    /// A colliding block delta exists; `Some` when a concrete witness
    /// (block pair + word) was re-enumerated exactly.
    Collides(Option<RaceWitness>),
    /// Overlap could not be excluded (unbounded ranges or too-large
    /// enumeration).
    Unknown,
    /// An address escaped the affine domain; nothing was attempted.
    NonAffine,
}

/// The block shape and grid a pair walk proves disjointness over.
#[derive(Clone, Copy)]
struct Shape {
    bx: u32,
    by: u32,
    threads: u32,
    grid: Dim3,
}

/// One side of an access pair: its affine address, execution conditions
/// and pc.
#[derive(Clone, Copy)]
struct Side<'a> {
    f: Affine,
    conds: &'a [(PredVal, bool)],
    pc: usize,
}

/// The one inter-block pair walk behind [`analyze`] and
/// [`family_static`]: runs the divergence-aware fixpoint under `ctx`
/// (registers start zeroed to match the executor, so exact witness
/// replays agree), collects every global access, and hands each
/// write-involving pair `i ≤ j` to `visit` with its verdict. Returns the
/// number of global accesses and of pairs visited.
///
/// Trip-bounded narrowing: loop-carried pointer walks widen to infinite
/// intervals, but a solved trip count bounds them (a `p += 16` walk in an
/// 8-trip loop touches 128 bytes). When the kernel has loops, `clamps`
/// derives induction clamps from the dominators, the loops and the first
/// fixpoint's in-states, and a non-empty set re-runs the fixpoint under
/// them.
fn walk_pairs(
    ck: &CompiledKernel,
    ctx: GridCtx,
    shape: Shape,
    clamps: impl FnOnce(&Doms, &NaturalLoops, &[FlowState]) -> BTreeMap<(usize, usize), Affine>,
    mut visit: impl FnMut(&MemAccess, &MemAccess, PairVerdict),
) -> (usize, usize) {
    let (mut in_states, mut divergent) = fixpoint_with_divergence(&ck.kernel, &ck.cfg, ctx, true);
    let doms = Doms::compute(&ck.cfg);
    let nloops = NaturalLoops::compute(&ck.kernel, &ck.cfg, &doms);
    if !nloops.loops.is_empty() {
        let clamps = clamps(&doms, &nloops, &in_states);
        if !clamps.is_empty() {
            (in_states, divergent) = fixpoint_clamped(&ck.kernel, &ck.cfg, ctx, true, &clamps);
        }
    }
    let accesses: Vec<MemAccess> = mem_accesses(ck, ctx, &in_states, &divergent)
        .into_iter()
        .filter(|a| a.space == MemSpace::Global)
        .collect();

    let mut checked = 0;
    for (i, a) in accesses.iter().enumerate() {
        for b in &accesses[i..] {
            if !a.kind.writes() && !b.kind.writes() {
                continue;
            }
            checked += 1;
            let (Some(fa), Some(fb)) = (a.addr.affine(), b.addr.affine()) else {
                visit(a, b, PairVerdict::NonAffine);
                continue;
            };
            let verdict = pair_verdict(
                Side { f: fa, conds: &a.conds, pc: a.pc },
                Side { f: fb, conds: &b.conds, pc: b.pc },
                shape,
            );
            // Same-op commutative atomics may collide without an order
            // hazard on the final memory value; `exch` is last-writer-wins
            // and stays a plain write-write hazard.
            let commutative_pair = matches!(
                (a.kind, b.kind),
                (AccessKind::Atomic(x), AccessKind::Atomic(y))
                    if x == y && x != AtomOp::Exch
            );
            let verdict = match verdict {
                PairVerdict::Collides(_) | PairVerdict::Unknown if commutative_pair => {
                    PairVerdict::Commutative
                }
                v => v,
            };
            visit(a, b, verdict);
        }
    }
    (accesses.len(), checked)
}

/// Certifies inter-thread-block independence of `ck` under `launch`.
/// Returns the certificate plus the `V310`/`V311`/`V313` findings.
#[must_use]
pub fn analyze(ck: &CompiledKernel, launch: &LaunchConfig) -> (Certificate, Diagnostics) {
    let mut report = Diagnostics::new(ck.kernel.name.clone());
    let instrs = &ck.kernel.instrs;
    let mut cert = Certificate {
        kernel: ck.kernel.name.clone(),
        classification: BlockIndependence::Independent,
        global_accesses: 0,
        unanalyzable: 0,
        checked_pairs: 0,
        witness: None,
        dynamically_discharged: false,
    };
    // A single block has no peer to race with.
    if launch.num_blocks() <= 1 {
        return (cert, report);
    }

    let shape = Shape {
        bx: launch.block.x.max(1),
        by: launch.block.y.max(1),
        threads: launch.threads_per_block(),
        grid: Dim3::three_d(launch.grid.x.max(1), launch.grid.y.max(1), launch.grid.z.max(1)),
    };
    let ctx = GridCtx::launch(launch);
    let clamps = |doms: &Doms, nloops: &NaturalLoops, in_states: &[FlowState]| {
        let trips = infer_trips(&ck.kernel, &ck.cfg, doms, nloops, launch, in_states);
        induction_clamps(&ck.kernel, &ck.cfg, doms, nloops, &trips, launch, in_states, ctx)
    };

    let mut v310: BTreeMap<(usize, usize), (String, RaceWitness)> = BTreeMap::new();
    let mut v311: BTreeMap<(usize, usize), String> = BTreeMap::new();
    let mut v313: BTreeMap<usize, String> = BTreeMap::new();
    let mut atomic_collision = false;
    (cert.global_accesses, cert.checked_pairs) =
        walk_pairs(ck, ctx, shape, clamps, |a, b, verdict| match verdict {
            PairVerdict::Disjoint => {}
            PairVerdict::Commutative => atomic_collision = true,
            PairVerdict::NonAffine => {
                for acc in [a, b] {
                    if acc.addr.affine().is_none() {
                        v313.entry(acc.pc).or_insert_with(|| {
                            format!(
                                "global {} `{}` has an address outside the block-affine \
                                 domain; its inter-block footprint is unknown",
                                acc.kind.label(),
                                instrs[acc.pc],
                            )
                        });
                    }
                }
            }
            PairVerdict::Collides(Some(w)) => {
                v310.entry((a.pc, b.pc)).or_insert_with(|| {
                    (
                        format!(
                            "inter-block race: global {} at pc {} in block ({},{},{}) and \
                             global {} at pc {} in block ({},{},{}) both touch global word {}",
                            a.kind.label(),
                            a.pc,
                            w.block_a.x,
                            w.block_a.y,
                            w.block_a.z,
                            b.kind.label(),
                            b.pc,
                            w.block_b.x,
                            w.block_b.y,
                            w.block_b.z,
                            w.word,
                        ),
                        w,
                    )
                });
            }
            PairVerdict::Collides(None) | PairVerdict::Unknown => {
                v311.entry((a.pc, b.pc)).or_insert_with(|| {
                    format!(
                        "global {} at pc {} and global {} at pc {} may overlap across \
                         thread blocks; inter-block independence is not provable",
                        a.kind.label(),
                        a.pc,
                        b.kind.label(),
                        b.pc,
                    )
                });
            }
        });

    cert.unanalyzable = v313.len();
    cert.classification = if !v310.is_empty() || !v311.is_empty() || !v313.is_empty() {
        BlockIndependence::PotentiallyRacy
    } else if atomic_collision {
        BlockIndependence::CommutativeAtomicsOnly
    } else {
        BlockIndependence::Independent
    };
    cert.witness = v310.values().next().map(|(_, w)| *w);

    for ((pa, _), (msg, _)) in &v310 {
        report.push(Diagnostic::new(LintCode::InterBlockRace, Some(*pa), msg.clone()));
    }
    for ((pa, pb), msg) in &v311 {
        report.push(Diagnostic::new(LintCode::InterBlockOverlap, Some((*pa).max(*pb)), msg));
    }
    for (pc, msg) in &v313 {
        report.push(Diagnostic::new(LintCode::GlobalAddrUnknown, Some(*pc), msg));
    }
    (cert, report)
}

/// Raw outcome of the family-symbolic static pass ([`family_static`]);
/// tiering into a certificate happens in [`crate::family`].
#[derive(Debug, Clone, Default)]
pub(crate) struct FamilyStatic {
    pub global_accesses: usize,
    pub checked_pairs: usize,
    pub proved_pairs: usize,
    pub unanalyzable: usize,
    /// Some pair can collide, but only as same-op commutative atomics.
    pub commutative_only: bool,
    /// A definite collision re-enumerated exactly from member-invariant
    /// footprints; realized inside the region's upper-corner grid.
    pub witness: Option<RaceWitness>,
    /// Pairs neither proved disjoint nor definitely colliding, with why
    /// ("may collide", "not provable", "non-affine address").
    pub unresolved: Vec<UnresolvedPair>,
}

/// Family-symbolic disjointness: [`analyze`]'s pair walk run once for the
/// *whole* region under [`GridCtx::family`].
///
/// Soundness of a region-wide `Disjoint`, per screen:
///
/// - footprints: family-mode `ntid`/`nctaid` intervals fold into each
///   access's `[lo, hi]`, so every form's envelope is a superset of the
///   same access under any member launch (quantifier elimination by
///   interval hull for the affine case);
/// - stride separation: the collision window is evaluated from those
///   hulled envelopes and the delta set is enumerated at the region's
///   *upper-corner* grid, which contains every member's delta set — both
///   are monotone in the grid extents, so the boundary instantiation
///   covers the region;
/// - block-pair / exact screens: member block sets are subsets of the
///   upper-corner block set, and the exact word-map refinement only runs
///   on forms with no family-symbol slack (`is_exact`), i.e. forms
///   identical across members.
///
/// A definite witness, conversely, is realized at concrete blocks of the
/// upper-corner launch (itself a member), so refutations come with a
/// member launch that reproduces them. Anything in between lands in
/// `unresolved`, which the certificate tiering *downgrades* to
/// `FamilySampled` via concrete corner checks rather than silently
/// narrowing the region.
pub(crate) fn family_static(
    ck: &CompiledKernel,
    family: &LaunchFamily,
    reference: &LaunchConfig,
) -> FamilyStatic {
    let mut out = FamilyStatic::default();
    // Every launch of a one-block-high region has no peer to race with.
    let max_blocks = u64::from(family.grid_x.hi) * u64::from(family.grid_y.hi);
    if max_blocks <= 1 {
        return out;
    }

    let (bx, by) = (family.block_x.hi.max(1), family.block_y.hi.max(1));
    let shape = Shape {
        bx,
        by,
        threads: bx * by * family.block_z.hi.max(1),
        grid: Dim3::three_d(family.grid_x.hi.max(1), family.grid_y.hi.max(1), 1),
    };
    let ctx = GridCtx::family(family, reference);
    // Region-invariant induction clamps (identical at every corner) keep
    // loop-carried pointer walks finite, exactly as in the per-launch
    // pass.
    let clamps = |doms: &Doms, nloops: &NaturalLoops, in_states: &[FlowState]| {
        induction_clamps_family(
            &ck.kernel, &ck.cfg, doms, nloops, family, reference, in_states, ctx,
        )
    };

    let mut nonaffine: BTreeSet<usize> = BTreeSet::new();
    (out.global_accesses, out.checked_pairs) =
        walk_pairs(ck, ctx, shape, clamps, |a, b, verdict| {
            let reason = match verdict {
                PairVerdict::Disjoint => {
                    out.proved_pairs += 1;
                    return;
                }
                PairVerdict::Commutative => {
                    out.commutative_only = true;
                    out.proved_pairs += 1;
                    return;
                }
                PairVerdict::Collides(Some(w)) => {
                    out.witness.get_or_insert(w);
                    return;
                }
                PairVerdict::Collides(None) => "may collide",
                PairVerdict::Unknown => "not provable",
                PairVerdict::NonAffine => {
                    nonaffine.extend(
                        [a, b]
                            .into_iter()
                            .filter(|acc| acc.addr.affine().is_none())
                            .map(|acc| acc.pc),
                    );
                    "non-affine address"
                }
            };
            // Each access is one pc, so every pair is visited once.
            out.unresolved.push(UnresolvedPair { pc_a: a.pc, pc_b: b.pc, reason });
        });
    out.unanalyzable = nonaffine.len();
    out
}

/// True when a replay of `launch` can observe an inter-block hazard: a
/// peer block to race with and a global store or atomic to race on.
pub(crate) fn has_global_hazard(ck: &CompiledKernel, launch: &LaunchConfig) -> bool {
    launch.num_blocks() > 1
        && ck.kernel.instrs.iter().any(|i| matches!(i.op, Op::St(MemSpace::Global) | Op::Atom(_)))
}

/// The `V312` error for one inter-block race the global shadow observed
/// during a replay of a launch over `grid`.
pub(crate) fn dynamic_race(r: &GlobalRace, grid: Dim3) -> Diagnostic {
    let (a, b) = (gpu_sim::ctaid_at(grid, r.first_block), gpu_sim::ctaid_at(grid, r.second_block));
    let kinds = if r.write_write { "both writing" } else { "a write racing a read" };
    Diagnostic::new(
        LintCode::InterBlockRaceDynamic,
        Some(r.second_pc),
        format!(
            "dynamic inter-block race: block ({},{},{}) at pc {} and block \
             ({},{},{}) at pc {} touched global word {} in one launch ({kinds})",
            a.x, a.y, a.z, r.first_pc, b.x, b.y, b.z, r.second_pc, r.word,
        ),
    )
}

/// The full certifier: the static analysis of [`analyze`] plus a dynamic
/// replay of the whole launch under the global-memory shadow sanitizer
/// ([`gpu_sim::GlobalRaceSanitizer`]). Every observed inter-block,
/// non-commutative collision is a `V312` error with its concrete block
/// pair and word; a dynamic race also hardens the classification to
/// [`BlockIndependence::PotentiallyRacy`] and supplies a witness when
/// the static pass could not produce one.
#[must_use]
pub fn certify(
    ck: &CompiledKernel,
    launch: &LaunchConfig,
    mut memory: gpu_sim::GlobalMemory,
) -> (Certificate, Diagnostics) {
    let (mut cert, mut report) = analyze(ck, launch);
    if !has_global_hazard(ck, launch) {
        return (cert, report);
    }
    let mut gsan = gpu_sim::GlobalRaceSanitizer::for_kernel(&ck.kernel);
    for i in 0..launch.num_blocks() {
        gsan.set_block(i);
        let ctaid = gpu_sim::ctaid_at(launch.grid, i);
        gpu_sim::run_tb_functional(ck, launch, ctaid, &mut memory, &mut gsan);
    }
    // A collision-free exhaustive replay is a per-launch proof: every
    // thread of every block ran, and no block read or wrote another
    // block's words, so each block behaved exactly as in isolation and
    // the observed footprints are the real ones. That discharges purely
    // conservative static findings (`V311`/`V313`) — but never a
    // definite static witness (`V310`), which would mean the replay and
    // the exact re-enumeration disagree.
    if gsan.races().is_empty()
        && cert.classification == BlockIndependence::PotentiallyRacy
        && report.with_code(LintCode::InterBlockRace).is_empty()
    {
        let conservative = report.with_code(LintCode::InterBlockOverlap).len()
            + report.with_code(LintCode::GlobalAddrUnknown).len();
        cert.classification = if gsan.commutative_overlap() {
            BlockIndependence::CommutativeAtomicsOnly
        } else {
            BlockIndependence::Independent
        };
        cert.dynamically_discharged = true;
        report.push(Diagnostic::new(
            LintCode::InterBlockDischarged,
            None,
            format!(
                "{conservative} conservative inter-block finding(s) discharged: exhaustive \
                 replay of all {} block(s) observed no inter-block collision, so block \
                 independence holds for this launch",
                launch.num_blocks(),
            ),
        ));
    }
    for r in gsan.races() {
        report.push(dynamic_race(r, launch.grid));
        cert.classification = BlockIndependence::PotentiallyRacy;
        if cert.witness.is_none() {
            cert.witness = i64::try_from(r.word).ok().map(|word| RaceWitness {
                pc_a: r.first_pc,
                pc_b: r.second_pc,
                block_a: gpu_sim::ctaid_at(launch.grid, r.first_block),
                block_b: gpu_sim::ctaid_at(launch.grid, r.second_block),
                word,
            });
        }
    }
    (cert, report)
}

/// Disjointness proof for one access pair over every pair of distinct
/// blocks of the grid: the fast interval screens first, then — when they
/// only prove a *possible* overlap — an exact full re-enumeration that
/// can still settle the pair either way (strided footprints interleave
/// without sharing a word, which no interval test can see).
fn pair_verdict(a: Side, b: Side, s: Shape) -> PairVerdict {
    let v = interval_verdict(a, b, s);
    match v {
        PairVerdict::Collides(None) | PairVerdict::Unknown => exact_refine(a, b, s).unwrap_or(v),
        settled => settled,
    }
}

/// The interval screens: stride separation over grid deltas for equal
/// block coefficients, per-pair interval tests for unequal ones, and
/// whole-grid ranges as the last resort.
fn interval_verdict(a: Side, b: Side, s: Shape) -> PairVerdict {
    let (fa, fb) = (a.f, b.f);
    let (gx, gy, gz) = (i64::from(s.grid.x), i64::from(s.grid.y), i64::from(s.grid.z));
    let (bx, by) = (i64::from(s.bx), i64::from(s.by));
    // Intra-block byte ranges with the block offset factored out.
    let (la, ha) = fa.drop_block_terms().range(bx, by);
    let (lb, hb) = fb.drop_block_terms().range(bx, by);

    if fa.d == fb.d && fa.e == fb.e {
        // Equal block coefficients: the relative block offset is
        // δ = d·Δx + e·Δy, uniform over the grid, so enumerating the
        // (2gx-1)(2gy-1) deltas decides every block pair at once.
        if la == simt_compiler::NEG_INF
            || ha == simt_compiler::POS_INF
            || lb == simt_compiler::NEG_INF
            || hb == simt_compiler::POS_INF
        {
            return PairVerdict::Unknown;
        }
        if (2 * gx - 1).saturating_mul(2 * gy - 1) > DELTA_CAP {
            return PairVerdict::Unknown;
        }
        // Bytes α of `a` and β of `b` share a word iff |α − β| ≤ 3 at
        // word granularity; keep the races-pass ±3 slack. Widen to i128
        // so extreme block coefficients cannot wrap into a spurious
        // Disjoint verdict.
        let (need_lo, need_hi) =
            (i128::from(la) - i128::from(hb) - 3, i128::from(ha) - i128::from(lb) + 3);
        let mut collided = false;
        for dx in -(gx - 1)..=(gx - 1) {
            for dy in -(gy - 1)..=(gy - 1) {
                // Distinct blocks only: a zero delta needs a z-deep grid.
                if dx == 0 && dy == 0 && gz == 1 {
                    continue;
                }
                let delta = i128::from(fa.d) * i128::from(dx) + i128::from(fa.e) * i128::from(dy);
                if delta < need_lo || delta > need_hi {
                    continue;
                }
                collided = true;
                // Realize the delta at a concrete in-grid block pair.
                let px = if dx >= 0 { 0 } else { -dx };
                let py = if dy >= 0 { 0 } else { -dy };
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let block_a = Dim3::three_d(px as u32, py as u32, 0);
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let block_b = Dim3::three_d(
                    (px + dx) as u32,
                    (py + dy) as u32,
                    u32::from(dx == 0 && dy == 0),
                );
                if let Some(w) = witness_at(a, b, s, block_a, block_b) {
                    return PairVerdict::Collides(Some(w));
                }
            }
        }
        return if collided { PairVerdict::Collides(None) } else { PairVerdict::Disjoint };
    }

    // Unequal block coefficients: enumerate concrete block pairs when the
    // grid is small enough, else fall back to whole-grid ranges.
    let num_blocks = u64::from(s.grid.x) * u64::from(s.grid.y) * u64::from(s.grid.z);
    if la != simt_compiler::NEG_INF
        && ha != simt_compiler::POS_INF
        && lb != simt_compiler::NEG_INF
        && hb != simt_compiler::POS_INF
        && num_blocks.saturating_mul(num_blocks) <= PAIR_CAP
    {
        let mut collided = false;
        for p in 0..num_blocks {
            for q in 0..num_blocks {
                if p == q {
                    continue;
                }
                let (bp, bq) = (gpu_sim::ctaid_at(s.grid, p), gpu_sim::ctaid_at(s.grid, q));
                // i128 for the same wrap-safety reason as the delta path.
                let off_a =
                    i128::from(fa.d) * i128::from(bp.x) + i128::from(fa.e) * i128::from(bp.y);
                let off_b =
                    i128::from(fb.d) * i128::from(bq.x) + i128::from(fb.e) * i128::from(bq.y);
                if i128::from(la) + off_a <= i128::from(hb) + off_b + 3
                    && i128::from(lb) + off_b <= i128::from(ha) + off_a + 3
                {
                    collided = true;
                    if let Some(w) = witness_at(a, b, s, bp, bq) {
                        return PairVerdict::Collides(Some(w));
                    }
                }
            }
        }
        return if collided { PairVerdict::Collides(None) } else { PairVerdict::Disjoint };
    }

    let ra = fa.range_over(bx, by, gx, gy);
    let rb = fb.range_over(bx, by, gx, gy);
    if ra.1.saturating_add(3) < rb.0 || rb.1.saturating_add(3) < ra.0 {
        PairVerdict::Disjoint
    } else {
        PairVerdict::Unknown
    }
}

/// Exact bounded re-enumeration of one block pair: the definite `V310`
/// witness. Only threads whose every condition *evaluates* true count,
/// and both addresses must be exact — over-approximation never reaches a
/// definite verdict.
fn witness_at(a: Side, b: Side, s: Shape, block_a: Dim3, block_b: Dim3) -> Option<RaceWitness> {
    let wa = definite_words(a, s, block_a);
    let wb = definite_words(b, s, block_b);
    let word = wa.intersection(&wb).next().copied()?;
    Some(RaceWitness { pc_a: a.pc, pc_b: b.pc, block_a, block_b, word })
}

/// Global words definitely touched by one access in one concrete block:
/// exact addresses of threads whose guard chain evaluates true.
fn definite_words(side: Side, s: Shape, block: Dim3) -> BTreeSet<i64> {
    let mut words = BTreeSet::new();
    if !side.f.is_exact() {
        return words;
    }
    for (t, executes) in guarded_threads(side.conds, s.bx, s.by, s.threads, Some(block)) {
        if executes != Some(true) {
            continue;
        }
        if let Some(byte) = eval_in(side.f, t, s, block) {
            words.insert(byte.div_euclid(4));
            words.insert((byte + 3).div_euclid(4));
        }
    }
    words
}

/// `f`'s byte address for linear thread `t` of block `block`.
fn eval_in(f: Affine, t: u32, s: Shape, block: Dim3) -> Option<i64> {
    let (tx, ty) = thread_xy(t, s.bx, s.by);
    f.eval_at(tx, ty, i64::from(block.x), i64::from(block.y))
}

/// Up to two distinct blocks known to touch one word through one access
/// (two suffice to decide whether a *distinct* pair exists and to name
/// a concrete witness pair).
#[derive(Clone, Copy)]
struct WordTouch {
    first: u64,
    second: Option<u64>,
}

impl WordTouch {
    fn add(&mut self, block: u64) {
        if self.first != block && self.second.is_none() {
            self.second = Some(block);
        }
    }
}

/// Full exact re-enumeration of both footprints over the whole grid:
/// promotes a conservative overlap to [`PairVerdict::Disjoint`] when the
/// word sets never intersect across distinct blocks (or finds the
/// witness the interval screen's representative pair missed). Linear in
/// `blocks × threads` via a word → touching-blocks map, so large grids
/// need no quadratic pair walk. `None` when any footprint is not exactly
/// computable or the enumeration exceeds [`ENUM_CAP`].
fn exact_refine(a: Side, b: Side, s: Shape) -> Option<PairVerdict> {
    let num_blocks = u64::from(s.grid.x) * u64::from(s.grid.y) * u64::from(s.grid.z);
    if num_blocks.saturating_mul(u64::from(s.threads)) > ENUM_CAP {
        return None;
    }
    // word → blocks touching it via access a / via access b.
    let mut map: BTreeMap<i64, [Option<WordTouch>; 2]> = BTreeMap::new();
    for p in 0..num_blocks {
        let block = gpu_sim::ctaid_at(s.grid, p);
        for (slot, side) in [a, b].into_iter().enumerate() {
            let words = exact_words(side, s, block)?;
            for word in words {
                match &mut map.entry(word).or_default()[slot] {
                    Some(t) => t.add(p),
                    touch @ None => *touch = Some(WordTouch { first: p, second: None }),
                }
            }
        }
    }
    for (&word, &[ta, tb]) in &map {
        let (Some(ta), Some(tb)) = (ta, tb) else { continue };
        // A collision needs two *distinct* blocks, one per side.
        let pair = if ta.first != tb.first {
            Some((ta.first, tb.first))
        } else if let Some(q) = tb.second {
            Some((ta.first, q))
        } else {
            ta.second.map(|p| (p, tb.first))
        };
        if let Some((p, q)) = pair {
            return Some(PairVerdict::Collides(Some(RaceWitness {
                pc_a: a.pc,
                pc_b: b.pc,
                block_a: gpu_sim::ctaid_at(s.grid, p),
                block_b: gpu_sim::ctaid_at(s.grid, q),
                word,
            })));
        }
    }
    Some(PairVerdict::Disjoint)
}

/// Exactly the global words one access touches in one concrete block, or
/// `None` when the footprint is not exactly computable: a non-exact
/// address, an unevaluable guard, or an address overflowing evaluation.
/// Unlike [`definite_words`], which under-approximates (fine for a
/// witness), this must be the *precise* set — any uncertainty bails.
fn exact_words(side: Side, s: Shape, block: Dim3) -> Option<BTreeSet<i64>> {
    if !side.f.is_exact() {
        return None;
    }
    let mut words = BTreeSet::new();
    for (t, executes) in guarded_threads(side.conds, s.bx, s.by, s.threads, Some(block)) {
        if !executes? {
            continue;
        }
        let byte = eval_in(side.f, t, s, block)?;
        words.insert(byte.div_euclid(4));
        words.insert((byte + 3).div_euclid(4));
    }
    Some(words)
}
