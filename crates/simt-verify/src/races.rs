//! Pass 4: static shared-memory race detection (`V301` / `V302`).
//!
//! DARSIE's value sharing assumes every TB-redundant instruction computes
//! the same result no matter how the warps of a threadblock interleave. A
//! shared-memory race breaks that assumption silently: the differential
//! oracle only ever observes one interleaving. This pass proves race
//! freedom — or reports a race — *statically*, in three steps:
//!
//! 1. **Affine-interval dataflow.** Every register is abstracted as
//!    [`AffineVal`]: `a*tid.x + b*tid.y + c` with a TB-uniform constant
//!    `c ∈ [lo, hi]` (see [`simt_compiler::affine`]). Predicates carry the
//!    comparison that defined them, so guards stay symbolically
//!    evaluable. Branch edges refine uniform loop counters against their
//!    exact bounds (`i < 8` caps `i`'s interval on the taken edge), which
//!    keeps barrier-free tap loops like DCT's row pass precise; bounds
//!    that keep growing are widened to infinity after a few sweeps.
//! 2. **Barrier-epoch segmentation.** Basic blocks are split at
//!    `bar.sync` into *segments*; segment edges follow CFG edges but
//!    never cross a barrier. Two accesses can execute in the same epoch
//!    (same barrier interval, hence unordered across warps) iff one's
//!    segment reaches the other's — including around back edges, so a
//!    loop whose body lacks a barrier pairs an iteration's accesses with
//!    the next iteration's.
//! 3. **Footprint overlap.** For every same-epoch pair with at least one
//!    store, the pass intersects thread footprints. Exact affine
//!    addresses are evaluated concretely over the launch's block,
//!    restricted to the threads that provably execute the access (its
//!    guard plus the conditions of every dominating divergent branch);
//!    a provable overlap across two distinct threads is a `V301` error.
//!    A thread whose conditions cannot all be decided — a guard on the
//!    block index, which one block shape does not fix — only *may*
//!    execute the access, so an overlap it joins is at most a `V302`.
//!    Interval-valued footprints fall back to byte-range disjointness;
//!    non-affine addresses escalate conservatively to a `V302` warning,
//!    as do overlaps the pass cannot decide either way.
//!
//! The pass needs the launch's block shape (footprints and guard
//! evaluation are per-thread), so it runs from `verify_full` — the race
//! verdict for one shape says nothing about another.

use crate::{Diagnostic, Diagnostics, LintCode};
use simt_compiler::affine::{resolve, Affine, AffineVal, Clamps, Flow, GridCtx, PredVal};
use simt_compiler::cfg::reach;
use simt_compiler::{Cfg, CompiledKernel};
use simt_isa::{AtomOp, Dim3, LaunchConfig, MemSpace, Op};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Barrier-delimited segments: CFG granularity below basic blocks whose
/// edges never cross a `bar.sync`.
struct Epochs {
    seg_of_pc: Vec<usize>,
    seg_succs: Vec<Vec<usize>>,
    count: usize,
}

impl Epochs {
    fn build(ck: &CompiledKernel) -> Epochs {
        let cfg = &ck.cfg;
        let n = ck.kernel.instrs.len();
        let mut seg_of_pc = vec![usize::MAX; n];
        let nb = cfg.blocks.len();
        let (mut first_seg, mut last_seg) = (vec![0usize; nb], vec![0usize; nb]);
        let mut count = 0usize;
        for (b, block) in cfg.blocks.iter().enumerate() {
            first_seg[b] = count;
            let mut cur = count;
            count += 1;
            for pc in block.range() {
                seg_of_pc[pc] = cur;
                if matches!(ck.kernel.instrs[pc].op, Op::Bar) && pc + 1 < block.end {
                    cur = count;
                    count += 1;
                }
            }
            // A block ending in a barrier still needs a post-barrier
            // segment to carry its successor edges.
            if block.range().last().is_some_and(|pc| matches!(ck.kernel.instrs[pc].op, Op::Bar)) {
                cur = count;
                count += 1;
            }
            last_seg[b] = cur;
        }
        let mut seg_succs = vec![Vec::new(); count];
        for (b, block) in cfg.blocks.iter().enumerate() {
            for &s in &block.succs {
                seg_succs[last_seg[b]].push(first_seg[s]);
            }
        }
        Epochs { seg_of_pc, seg_succs, count }
    }

    /// Segments reachable from `seed` via one or more edges.
    fn reach_after(&self, seed: usize) -> Vec<bool> {
        let succs = |s: usize| self.seg_succs[s].iter().copied();
        reach(self.count, succs(seed), succs, |_| false)
    }
}

/// Per-block execution conditions from dominating divergent branches:
/// for each block, the `(predicate, required polarity)` pairs of every
/// dominating two-way branch whose chosen leg alone reaches it before the
/// branch's join (past it, a loop's back edge would lead both sides
/// everywhere).
/// `branch[b]` is block `b`'s guarded branch: its predicate snapshot and
/// the polarity that takes the first successor. Branches are visited in
/// block order, so every list is reproducible.
fn block_conditions(cfg: &Cfg, branch: &[Option<(PredVal, bool)>]) -> Vec<Vec<(PredVal, bool)>> {
    let nb = cfg.blocks.len();
    let mut block_conds: Vec<Vec<(PredVal, bool)>> = vec![Vec::new(); nb];
    for br in &cfg.branches {
        let Some((pv, taken_polarity)) = branch[br.block] else { continue };
        let [rt, rf] = &br.legs;
        for x in 0..nb {
            if x == br.block || !cfg.doms.dominates(br.block, x) {
                continue;
            }
            if rt[x] && !rf[x] {
                block_conds[x].push((pv, taken_polarity));
            } else if rf[x] && !rt[x] {
                block_conds[x].push((pv, !taken_polarity));
            }
        }
    }
    block_conds
}

/// How one memory instruction touches its address.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessKind {
    Read,
    Write,
    Atomic(AtomOp),
}

impl AccessKind {
    /// True for stores and atomics.
    pub(crate) fn writes(self) -> bool {
        !matches!(self, AccessKind::Read)
    }

    pub(crate) fn label(self) -> &'static str {
        match self {
            AccessKind::Read => "load",
            AccessKind::Write => "store",
            AccessKind::Atomic(_) => "atomic",
        }
    }
}

/// One static shared or global memory access with its converged abstract
/// address.
pub(crate) struct MemAccess {
    pub pc: usize,
    pub space: MemSpace,
    pub kind: AccessKind,
    /// Byte address including the instruction offset.
    pub addr: AffineVal,
    /// The conjunction a thread must satisfy to execute the access: its
    /// block's [`block_conditions`], then the instruction's own guard.
    pub conds: Vec<(PredVal, bool)>,
}

/// The one footprint walk: every shared and global load, store and atomic
/// of every reachable block, in reverse post-order, with its address and
/// execution conditions read off `flow`'s replay. The same replay
/// snapshots each block's branch predicate for [`block_conditions`].
pub(crate) fn mem_accesses(flow: &Flow) -> Vec<MemAccess> {
    let (kernel, cfg) = (flow.kernel(), flow.cfg());
    let mut branch = vec![None; cfg.blocks.len()];
    // Each access with its block and its own guard, until the block
    // conditions are known.
    let mut sites = Vec::new();
    flow.replay(|pc, st, _| {
        let instr = &kernel.instrs[pc];
        let b = cfg.block_of[pc];
        let guard = instr.guard.map(|g| (st.preds[usize::from(g.pred.0)], !g.negate));
        if matches!(instr.op, Op::Bra { .. }) && guard.is_some() {
            branch[b] = guard;
        }
        let access = match instr.op {
            Op::Ld(s @ (MemSpace::Shared | MemSpace::Global)) => Some((s, AccessKind::Read)),
            Op::St(s @ (MemSpace::Shared | MemSpace::Global)) => Some((s, AccessKind::Write)),
            Op::Atom(op) => Some((MemSpace::Global, AccessKind::Atomic(op))),
            _ => None,
        };
        if let Some((space, kind)) = access {
            let addr = resolve(st, instr.srcs[0]) + AffineVal::constant(i64::from(instr.offset));
            sites.push((b, guard, MemAccess { pc, space, kind, addr, conds: Vec::new() }));
        }
    });
    let block_conds = block_conditions(cfg, &branch);
    sites
        .into_iter()
        .map(|(b, guard, mut access)| {
            access.conds = block_conds[b].iter().copied().chain(guard).collect();
            access
        })
        .collect()
}

/// Thread `t`'s `(tid.x, tid.y)` in a block of `bx × by` threads: the one
/// linear-id decode of every per-thread evaluation.
pub(crate) fn thread_xy(t: u32, bx: u32, by: u32) -> (i64, i64) {
    (i64::from(t % bx), i64::from((t / bx) % by))
}

/// Every thread of a `bx × by` block of `threads` threads, paired with
/// whether it executes under the conjunction `conds` — the one per-thread
/// guard evaluator. The conditions are read at block `block` when it is
/// given, at an unknown block otherwise (a condition on the block index
/// is then undecidable). The conjunction is Kleene's three-valued AND:
/// `Some(false)` when any condition is false for the thread, whatever the
/// order of `conds`; otherwise `None` when any cannot be decided;
/// otherwise `Some(true)`.
pub(crate) fn guarded_threads(
    conds: &[(PredVal, bool)],
    bx: u32,
    by: u32,
    threads: u32,
    block: Option<Dim3>,
) -> impl Iterator<Item = (u32, Option<bool>)> + '_ {
    (0..threads).map(move |t| {
        let (tx, ty) = thread_xy(t, bx, by);
        let mut decided = true;
        for &(pv, polarity) in conds {
            let v = match block {
                Some(c) => pv.eval_at(tx, ty, i64::from(c.x), i64::from(c.y)),
                None => pv.eval(tx, ty),
            };
            match v {
                Some(v) if v != polarity => return (t, Some(false)),
                Some(_) => {}
                None => decided = false,
            }
        }
        (t, decided.then_some(true))
    })
}

/// Per-thread execution evidence for one access.
struct ThreadSets {
    /// Linear thread ids that provably execute the access.
    definite: Vec<u32>,
    /// Linear thread ids that may execute it: the definite ones plus
    /// every thread whose conditions cannot all be decided.
    may: Vec<u32>,
}

impl ThreadSets {
    fn of(conds: &[(PredVal, bool)], bx: u32, by: u32, threads: u32) -> ThreadSets {
        let (mut definite, mut may) = (Vec::new(), Vec::new());
        for (t, executes) in guarded_threads(conds, bx, by, threads, None) {
            if executes == Some(true) {
                definite.push(t);
            }
            if executes != Some(false) {
                may.push(t);
            }
        }
        ThreadSets { definite, may }
    }

    /// True when every thread's conditions were decided, so
    /// `definite == may` and "no overlap" is a proof.
    fn conclusive(&self) -> bool {
        self.definite.len() == self.may.len()
    }
}

/// Word-granularity footprint: shared word index → accessing threads.
fn footprint(f: Affine, threads: &[u32], bx: u32, by: u32) -> BTreeMap<i64, Vec<u32>> {
    let mut words: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
    for &t in threads {
        let (tx, ty) = thread_xy(t, bx, by);
        if let Some(byte) = f.eval(tx, ty) {
            words.entry(byte.div_euclid(4)).or_default().push(t);
        }
    }
    words
}

/// A pair of distinct threads touching one common word, if any.
fn cross_collision(
    a: &BTreeMap<i64, Vec<u32>>,
    b: &BTreeMap<i64, Vec<u32>>,
) -> Option<(i64, u32, u32)> {
    for (w, ta) in a {
        let Some(tb) = b.get(w) else { continue };
        if ta.is_empty() || tb.is_empty() {
            continue;
        }
        if ta[0] != tb[0] {
            return Some((*w, ta[0], tb[0]));
        }
        if ta.len() > 1 {
            return Some((*w, ta[1], tb[0]));
        }
        if tb.len() > 1 {
            return Some((*w, ta[0], tb[1]));
        }
    }
    None
}

/// Two distinct threads of one access colliding on one word (write-write
/// within a single dynamic instance), if any.
fn self_collision(a: &BTreeMap<i64, Vec<u32>>) -> Option<(i64, u32, u32)> {
    a.iter().find(|(_, t)| t.len() >= 2).map(|(w, t)| (*w, t[0], t[1]))
}

/// Static shared-memory race check for one kernel under one launch's
/// block shape. Reports `V301` for provable races and `V302` where race
/// freedom cannot be established.
#[must_use]
pub fn check(ck: &CompiledKernel, launch: &LaunchConfig) -> Diagnostics {
    let mut report = Diagnostics::new(ck.kernel.name.clone());
    let instrs = &ck.kernel.instrs;
    let has_shared =
        instrs.iter().any(|i| matches!(i.op, Op::Ld(MemSpace::Shared) | Op::St(MemSpace::Shared)));
    if !has_shared {
        return report;
    }

    let (bx, by) = (launch.block.x.max(1), launch.block.y.max(1));
    let threads = launch.threads_per_block();

    // ---- 1. affine-interval fixed point over the CFG -------------------
    // Launch-aware: grid/block dimensions and constant param words resolve
    // to exact values, and divergence flags strip the uniformity bit from
    // values defined under thread-dependent branches.
    let flow = Flow::solve(&ck.kernel, &ck.cfg, GridCtx::launch(launch), false, &Clamps::new());

    // ---- 2. collect accesses with their execution conditions -----------
    let accesses: Vec<MemAccess> =
        mem_accesses(&flow).into_iter().filter(|a| a.space == MemSpace::Shared).collect();

    // ---- 3. same-epoch overlap checking --------------------------------
    let epochs = Epochs::build(ck);
    let reach: HashMap<usize, Vec<bool>> = accesses
        .iter()
        .map(|a| epochs.seg_of_pc[a.pc])
        .collect::<HashSet<_>>()
        .into_iter()
        .map(|s| (s, epochs.reach_after(s)))
        .collect();

    let sets: Vec<ThreadSets> =
        accesses.iter().map(|a| ThreadSets::of(&a.conds, bx, by, threads)).collect();

    let mut v301: BTreeMap<(usize, usize), String> = BTreeMap::new();
    let mut v302: BTreeMap<usize, String> = BTreeMap::new();
    let kind = |s: &MemAccess| s.kind.label();

    for i in 0..accesses.len() {
        for j in i..accesses.len() {
            let (a, b) = (&accesses[i], &accesses[j]);
            if !a.kind.writes() && !b.kind.writes() {
                continue;
            }
            let (sa, sb) = (epochs.seg_of_pc[a.pc], epochs.seg_of_pc[b.pc]);
            let cycle = reach[&sa][sa];
            let same_epoch = if i == j {
                true // one dynamic instance always races with itself
            } else {
                sa == sb || reach[&sa][sb] || reach[&sb][sa]
            };
            if !same_epoch {
                continue;
            }
            // Non-affine address: conservatively escalate.
            let (fa, fb) = (a.addr.affine(), b.addr.affine());
            if fa.is_none() || fb.is_none() {
                for acc in [a, b] {
                    if acc.addr.affine().is_none() {
                        v302.entry(acc.pc).or_insert_with(|| {
                            format!(
                                "shared {} `{}` has a non-affine address; cannot prove it \
                                 race-free against the same-epoch {} at pc {}",
                                kind(acc),
                                instrs[acc.pc],
                                kind(if acc.pc == a.pc { b } else { a }),
                                if acc.pc == a.pc { b.pc } else { a.pc },
                            )
                        });
                    }
                }
                continue;
            }
            let (fa, fb) = (fa.unwrap(), fb.unwrap());

            // Shared memory is per-block, so both sides of a same-epoch pair
            // execute under one ctaid: equal block coefficients are a common
            // per-block offset and cancel. Unequal coefficients make the
            // pair's relative offset vary across blocks, which the footprint
            // language cannot express.
            let (fa, fb) = if fa.d == fb.d && fa.e == fb.e {
                (fa.drop_block_terms(), fb.drop_block_terms())
            } else {
                v302.entry(a.pc.max(b.pc)).or_insert_with(|| {
                    format!(
                        "shared {} at pc {} and {} at pc {} have different block-index \
                         coefficients; their relative offset varies per block and race \
                         freedom is not provable",
                        kind(a),
                        a.pc,
                        kind(b),
                        b.pc,
                    )
                });
                continue;
            };

            if i == j {
                // Self pair: within one dynamic instance the uniform
                // constant cancels, so collisions depend only on (a, b)
                // coefficients — evaluable even for interval constants.
                // That cancellation is only sound when the constant really
                // is one value shared by all threads.
                if !fa.c_uniform() {
                    v302.entry(a.pc).or_insert_with(|| {
                        format!(
                            "shared {} `{}` has a thread-dependent constant term; race \
                             freedom across threads is not provable",
                            kind(a),
                            instrs[a.pc],
                        )
                    });
                    continue;
                }
                let phase = Affine { lo: 0, hi: 0, ..fa };
                let def = footprint(phase, &sets[i].definite, bx, by);
                if let Some((_, t1, t2)) = self_collision(&def) {
                    v301.entry((a.pc, b.pc)).or_insert_with(|| {
                        format!(
                            "shared {} `{}` collides with itself across threads: threads {t1} \
                             and {t2} address the same word within one barrier interval",
                            kind(a),
                            instrs[a.pc],
                        )
                    });
                    continue;
                }
                let may = footprint(phase, &sets[i].may, bx, by);
                let unproven_self = !sets[i].conclusive() && self_collision(&may).is_some();
                // A barrier-free cycle lets different instances (with
                // different constants) of this access share an epoch.
                let unproven_cycle = cycle && !fa.is_exact();
                if unproven_self || unproven_cycle {
                    v302.entry(a.pc).or_insert_with(|| {
                        format!(
                            "shared {} `{}` may collide across threads within one barrier \
                             interval; race freedom is not provable",
                            kind(a),
                            instrs[a.pc],
                        )
                    });
                }
                continue;
            }

            if fa.is_exact() && fb.is_exact() {
                let (fpa, fpb) = (
                    footprint(fa, &sets[i].definite, bx, by),
                    footprint(fb, &sets[j].definite, bx, by),
                );
                if let Some((w, t1, t2)) = cross_collision(&fpa, &fpb) {
                    v301.entry((a.pc, b.pc)).or_insert_with(|| {
                        format!(
                            "shared-memory race within one barrier interval: {} `{}` at pc {} \
                             (thread {t1}) and {} `{}` at pc {} (thread {t2}) overlap on \
                             shared word {w}",
                            kind(a),
                            instrs[a.pc],
                            a.pc,
                            kind(b),
                            instrs[b.pc],
                            b.pc,
                        )
                    });
                    continue;
                }
                if sets[i].conclusive() && sets[j].conclusive() {
                    continue; // proven disjoint across distinct threads
                }
                let (ma, mb) =
                    (footprint(fa, &sets[i].may, bx, by), footprint(fb, &sets[j].may, bx, by));
                if cross_collision(&ma, &mb).is_some() {
                    v302.entry(a.pc.max(b.pc)).or_insert_with(|| {
                        format!(
                            "shared {} at pc {} and {} at pc {} may overlap in one barrier \
                             interval under conditions the analysis cannot evaluate",
                            kind(a),
                            a.pc,
                            kind(b),
                            b.pc,
                        )
                    });
                }
                continue;
            }

            // Interval-valued footprints: byte-range disjointness.
            let (ra, rb) =
                (fa.range(i64::from(bx), i64::from(by)), fb.range(i64::from(bx), i64::from(by)));
            let disjoint = ra.1.saturating_add(3) < rb.0 || rb.1.saturating_add(3) < ra.0;
            if !disjoint {
                v302.entry(a.pc.max(b.pc)).or_insert_with(|| {
                    format!(
                        "shared {} at pc {} and {} at pc {} have interval-valued affine \
                         footprints that may overlap in one barrier interval",
                        kind(a),
                        a.pc,
                        kind(b),
                        b.pc,
                    )
                });
            }
        }
    }

    let mut items: Vec<(usize, Diagnostic)> = Vec::new();
    for ((pa, _), msg) in v301 {
        items.push((pa, Diagnostic::new(LintCode::SharedRaceStatic, Some(pa), msg)));
    }
    for (pc, msg) in v302 {
        items.push((pc, Diagnostic::new(LintCode::SharedAddrUnknown, Some(pc), msg)));
    }
    items.sort_by_key(|(pc, d)| (*pc, d.code.code()));
    for (_, d) in items {
        report.push(d);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_compiler::compile;
    use simt_isa::{CmpOp, Dim3, Guard, KernelBuilder, Reg, SpecialReg};

    fn launch_1d(n: u32) -> LaunchConfig {
        LaunchConfig::new(1u32, Dim3::one_d(n))
    }

    #[test]
    fn missing_barrier_write_read_overlap_is_v301() {
        let mut b = KernelBuilder::new("racy_rw");
        let t = b.special(SpecialReg::TidX);
        let smem = b.alloc_shared(64 * 4);
        let off = b.shl_imm(t, 2);
        let addr = b.iadd(off, smem);
        b.store(MemSpace::Shared, addr, t, 0);
        // Every thread reads word 0 with no barrier after the write.
        let _v = b.load(MemSpace::Shared, smem, 0);
        let ck = compile(b.finish());
        let d = check(&ck, &launch_1d(64));
        assert_eq!(d.with_code(LintCode::SharedRaceStatic).len(), 1, "{}", d.render());
        assert!(d.with_code(LintCode::SharedAddrUnknown).is_empty(), "{}", d.render());
    }

    #[test]
    fn barrier_between_phases_is_clean() {
        let mut b = KernelBuilder::new("clean_rw");
        let t = b.special(SpecialReg::TidX);
        let smem = b.alloc_shared(64 * 4);
        let off = b.shl_imm(t, 2);
        let addr = b.iadd(off, smem);
        b.store(MemSpace::Shared, addr, t, 0);
        b.barrier();
        let _v = b.load(MemSpace::Shared, smem, 0);
        let ck = compile(b.finish());
        let d = check(&ck, &launch_1d(64));
        assert!(d.items.is_empty(), "{}", d.render());
    }

    #[test]
    fn same_word_store_by_all_threads_is_v301() {
        let mut b = KernelBuilder::new("racy_ww");
        let t = b.special(SpecialReg::TidX);
        let smem = b.alloc_shared(16);
        b.store(MemSpace::Shared, smem, t, 0);
        let ck = compile(b.finish());
        let d = check(&ck, &launch_1d(32));
        assert_eq!(d.with_code(LintCode::SharedRaceStatic).len(), 1, "{}", d.render());
    }

    #[test]
    fn non_affine_address_escalates_to_v302() {
        let mut b = KernelBuilder::new("nonaffine");
        let t = b.special(SpecialReg::TidX);
        let smem = b.alloc_shared(16);
        let bit = b.and(t, 1u32);
        let off = b.shl_imm(bit, 2);
        let addr = b.iadd(off, smem);
        b.store(MemSpace::Shared, addr, t, 0);
        let ck = compile(b.finish());
        let d = check(&ck, &launch_1d(32));
        assert!(d.with_code(LintCode::SharedRaceStatic).is_empty(), "{}", d.render());
        assert_eq!(d.with_code(LintCode::SharedAddrUnknown).len(), 1, "{}", d.render());
    }

    #[test]
    fn loop_counter_refinement_proves_disjoint_regions() {
        // Threads write bytes [32, 287]; a uniform tap loop reads bytes
        // [0, 31]. Only the branch-edge refinement of `k < 8` bounds the
        // read region away from the written one.
        let mut b = KernelBuilder::new("refine");
        let t = b.special(SpecialReg::TidX);
        let sm_taps = b.alloc_shared(32);
        let sm_data = b.alloc_shared(256);
        let off = b.shl_imm(t, 2);
        let waddr = b.iadd(off, sm_data);
        b.store(MemSpace::Shared, waddr, t, 0);
        b.for_count(8u32, |b, k| {
            let ko = b.shl_imm(k, 2);
            let raddr = b.iadd(ko, sm_taps);
            let _tap = b.load(MemSpace::Shared, raddr, 0);
        });
        let ck = compile(b.finish());
        let d = check(&ck, &launch_1d(64));
        assert!(d.items.is_empty(), "{}", d.render());
    }

    #[test]
    fn barrier_on_both_sides_inside_loop_is_clean() {
        // Mirrored exchange: thread t writes word t, reads word 63-t.
        // Barriers before AND after the read separate it from the writes
        // of both the same and the next iteration.
        let mut b = KernelBuilder::new("loop_bar");
        let t = b.special(SpecialReg::TidX);
        let smem = b.alloc_shared(64 * 4);
        let off = b.shl_imm(t, 2);
        let waddr = b.iadd(off, smem);
        let neg = b.isub(252u32, off);
        let raddr = b.iadd(neg, smem);
        b.for_count(4u32, |b, _k| {
            b.store(MemSpace::Shared, waddr, t, 0);
            b.barrier();
            let _v = b.load(MemSpace::Shared, raddr, 0);
            b.barrier();
        });
        let ck = compile(b.finish());
        let d = check(&ck, &launch_1d(64));
        assert!(d.items.is_empty(), "{}", d.render());
    }

    #[test]
    fn loop_carried_race_around_back_edge_is_v301() {
        // Same exchange but without the trailing barrier: the read of
        // iteration k races with the write of iteration k+1 via the back
        // edge.
        let mut b = KernelBuilder::new("loop_race");
        let t = b.special(SpecialReg::TidX);
        let smem = b.alloc_shared(64 * 4);
        let off = b.shl_imm(t, 2);
        let waddr = b.iadd(off, smem);
        let neg = b.isub(252u32, off);
        let raddr = b.iadd(neg, smem);
        b.for_count(4u32, |b, _k| {
            b.store(MemSpace::Shared, waddr, t, 0);
            b.barrier();
            let _v = b.load(MemSpace::Shared, raddr, 0);
        });
        let ck = compile(b.finish());
        let d = check(&ck, &launch_1d(64));
        assert_eq!(d.with_code(LintCode::SharedRaceStatic).len(), 1, "{}", d.render());
    }

    #[test]
    fn conditional_blocks_limit_executing_threads() {
        // Only thread 0 writes and only thread 0 reads word 0 — both
        // accesses are unguarded instructions inside `if (tid.x == 0)`
        // bodies, so the proof needs the dominating branch condition.
        let mut b = KernelBuilder::new("cond_single");
        let t = b.special(SpecialReg::TidX);
        let smem = b.alloc_shared(16);
        let q = b.setp(CmpOp::Eq, t, 0u32);
        b.if_then(Guard { pred: q, negate: false }, |b| {
            b.store(MemSpace::Shared, smem, 7u32, 0);
        });
        b.if_then(Guard { pred: q, negate: false }, |b| {
            let _v = b.load(MemSpace::Shared, smem, 0);
        });
        let ck = compile(b.finish());
        let d = check(&ck, &launch_1d(64));
        assert!(d.items.is_empty(), "{}", d.render());
    }

    /// Grid 2 × block 32: every thread storing `tid.x` to shared word 0
    /// under `if (guard < 48)`, the guard built by `guard_of`.
    fn guarded_word0_store(guard_of: impl FnOnce(&mut KernelBuilder, Reg) -> Reg) -> Diagnostics {
        let mut b = KernelBuilder::new("guarded_word0");
        let t = b.special(SpecialReg::TidX);
        let smem = b.alloc_shared(16);
        let g = guard_of(&mut b, t);
        let p = b.setp(CmpOp::Lt, g, 48u32);
        b.if_then(Guard::if_true(p), |b| b.store(MemSpace::Shared, smem, t, 0));
        check(&compile(b.finish()), &LaunchConfig::new(2u32, Dim3::one_d(32)))
    }

    #[test]
    fn block_index_guard_makes_may_threads() {
        // Block 0 runs all 32 threads, block 1 the first 16: a race in
        // every block. The guard is exact but depends on ctaid.x, which a
        // per-block-shape check cannot decide, so the store's threads are
        // may-threads — never an empty set that proves the store clean.
        let d = guarded_word0_store(|b, t| {
            let c = b.special(SpecialReg::CtaidX);
            let n = b.special(SpecialReg::NtidX);
            b.imad(c, n, t)
        });
        assert!(d.with_code(LintCode::SharedRaceStatic).is_empty(), "{}", d.render());
        assert_eq!(d.with_code(LintCode::SharedAddrUnknown).len(), 1, "{}", d.render());
    }

    #[test]
    fn thread_index_guard_race_is_v301() {
        // The same store under `tid.x < 48`: decidable per thread, and
        // all 32 threads of a block provably collide on word 0.
        let d = guarded_word0_store(|_, t| t);
        assert_eq!(d.with_code(LintCode::SharedRaceStatic).len(), 1, "{}", d.render());
    }

    #[test]
    fn third_dimension_threads_collide_on_tidx_addresses() {
        // Block (4, 1, 4): threads differing only in tid.z share every
        // tid.x-derived address.
        let mut b = KernelBuilder::new("z_collide");
        let t = b.special(SpecialReg::TidX);
        let smem = b.alloc_shared(16);
        let off = b.shl_imm(t, 2);
        let addr = b.iadd(off, smem);
        b.store(MemSpace::Shared, addr, t, 0);
        let ck = compile(b.finish());
        let d = check(&ck, &LaunchConfig::new(1u32, Dim3::three_d(4, 1, 4)));
        assert_eq!(d.with_code(LintCode::SharedRaceStatic).len(), 1, "{}", d.render());
    }

    #[test]
    fn tidz_derived_address_is_conservatively_v302() {
        let mut b = KernelBuilder::new("z_addr");
        let z = b.special(SpecialReg::TidZ);
        let smem = b.alloc_shared(16);
        let off = b.shl_imm(z, 2);
        let addr = b.iadd(off, smem);
        b.store(MemSpace::Shared, addr, z, 0);
        let ck = compile(b.finish());
        let d = check(&ck, &LaunchConfig::new(1u32, Dim3::three_d(1, 1, 4)));
        assert_eq!(d.with_code(LintCode::SharedAddrUnknown).len(), 1, "{}", d.render());
    }

    #[test]
    fn equal_block_offsets_cancel_in_shared_footprints() {
        // Both accesses carry the same ctaid.x coefficient: within one
        // block it is a common constant, so thread t's store and load of
        // word t + ctaid.x never cross threads and the kernel is clean
        // under a multi-block launch.
        let mut b = KernelBuilder::new("blk_equal");
        let t = b.special(SpecialReg::TidX);
        let c = b.special(SpecialReg::CtaidX);
        let smem = b.alloc_shared(128);
        let idx = b.iadd(t, c);
        let off = b.shl_imm(idx, 2);
        let addr = b.iadd(off, smem);
        b.store(MemSpace::Shared, addr, t, 0);
        let _v = b.load(MemSpace::Shared, addr, 0);
        let ck = compile(b.finish());
        let d = check(&ck, &LaunchConfig::new(4u32, Dim3::one_d(16)));
        assert!(d.items.is_empty(), "{}", d.render());
    }

    #[test]
    fn unequal_block_offsets_escalate_to_v302() {
        // Store at word t + ctaid.x, load at word t: the relative offset
        // between the two varies per block, which the per-block footprint
        // language cannot express — conservative V302, never V301.
        let mut b = KernelBuilder::new("blk_unequal");
        let t = b.special(SpecialReg::TidX);
        let c = b.special(SpecialReg::CtaidX);
        let smem = b.alloc_shared(128);
        let idx = b.iadd(t, c);
        let soff = b.shl_imm(idx, 2);
        let saddr = b.iadd(soff, smem);
        b.store(MemSpace::Shared, saddr, t, 0);
        let loff = b.shl_imm(t, 2);
        let laddr = b.iadd(loff, smem);
        let _v = b.load(MemSpace::Shared, laddr, 0);
        let ck = compile(b.finish());
        let d = check(&ck, &LaunchConfig::new(4u32, Dim3::one_d(16)));
        assert!(d.with_code(LintCode::SharedRaceStatic).is_empty(), "{}", d.render());
        assert_eq!(d.with_code(LintCode::SharedAddrUnknown).len(), 1, "{}", d.render());
    }

    #[test]
    fn footprint_walk_puts_block_conditions_before_the_guard() {
        // A guarded global store inside `if (tid.x < 32)`, then a shared
        // load and an atomic after the join: the store executes for
        // `tid.x < 8` only, and its conditions list the dominating
        // branch first, its own guard last.
        let mut b = KernelBuilder::new("walk");
        let t = b.special(SpecialReg::TidX);
        let smem = b.alloc_shared(16);
        let off = b.shl_imm(t, 2);
        let p = b.setp(CmpOp::Lt, t, 32u32);
        let q = b.setp(CmpOp::Lt, t, 8u32);
        b.if_then(Guard::if_true(p), |b| {
            let st = simt_isa::Instruction::new(
                Op::St(MemSpace::Global),
                None,
                None,
                vec![off.into(), t.into()],
            );
            b.emit(st.with_guard(Guard::if_true(q)));
        });
        let _v = b.load(MemSpace::Shared, smem, 0);
        let _old = b.atom(AtomOp::Add, off, t);
        let ck = compile(b.finish());
        let launch = launch_1d(64);
        let flow =
            Flow::solve(&ck.kernel, &ck.cfg, GridCtx::launch(&launch), false, &Clamps::new());
        let accesses = mem_accesses(&flow);

        let mut kinds: Vec<_> = accesses.iter().map(|a| (a.pc, a.space, a.kind.label())).collect();
        kinds.sort_unstable();
        let spaces: Vec<_> = kinds.iter().map(|&(_, s, k)| (s, k)).collect();
        assert_eq!(
            spaces,
            [(MemSpace::Global, "store"), (MemSpace::Shared, "load"), (MemSpace::Global, "atomic")]
        );
        let store = accesses.iter().find(|a| a.kind == AccessKind::Write).expect("one store");
        let holds = |(pv, polarity): (PredVal, bool), tx: i64| pv.eval(tx, 0) == Some(polarity);
        assert_eq!(store.conds.len(), 2);
        assert!(holds(store.conds[0], 20) && !holds(store.conds[0], 40), "branch first");
        assert!(holds(store.conds[1], 4) && !holds(store.conds[1], 20), "guard last");
        let executing: Vec<u32> = guarded_threads(&store.conds, 64, 1, 64, None)
            .filter(|&(_, e)| e == Some(true))
            .map(|(t, _)| t)
            .collect();
        assert_eq!(executing, (0..8).collect::<Vec<_>>());
        assert!(accesses
            .iter()
            .filter(|a| a.kind != AccessKind::Write)
            .all(|a| a.conds.is_empty()));
    }

    #[test]
    fn fast_walsh_butterfly_verdict_is_pinned() {
        // FW's butterfly address derives from `tx & (stride - 1)` with a
        // loop-carried `stride`: genuinely outside the affine language,
        // so the two guarded butterfly stores keep their honest V302
        // warnings — and launch-aware precision must not turn them into
        // false V301 errors.
        let w = workloads::catalog(workloads::Scale::Test)
            .into_iter()
            .find(|w| w.abbr == "FW")
            .expect("FW is in the catalog");
        let d = check(&w.ck, &w.launch);
        assert!(d.with_code(LintCode::SharedRaceStatic).is_empty(), "{}", d.render());
        assert_eq!(d.with_code(LintCode::SharedAddrUnknown).len(), 2, "{}", d.render());
    }
}
