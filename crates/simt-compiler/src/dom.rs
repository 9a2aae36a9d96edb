//! Post-dominator analysis and SIMT reconvergence points.
//!
//! A divergent branch reconverges at the *immediate post-dominator* of its
//! block — the classic stack-based SIMT reconvergence discipline the
//! baseline simulator implements. The analysis is the Cooper–Harvey–Kennedy
//! iterative algorithm run on the reversed CFG.

use crate::cfg::{postorder, reach, BlockId, Cfg};
use simt_isa::Op;

/// The Cooper–Harvey–Kennedy iterative dominator solver over an `n`-node
/// graph with edges `succs` (and reversed edges `preds`), rooted at
/// `root`: the forward CFG from the entry gives dominators, the reversed
/// CFG from the virtual exit gives post-dominators. `root` is its own
/// immediate dominator; nodes `root` cannot reach are pinned to `root`.
fn immediate_dominators<'a>(
    n: usize,
    root: BlockId,
    succs: impl Fn(BlockId) -> &'a [BlockId],
    preds: impl Fn(BlockId) -> &'a [BlockId],
) -> Vec<BlockId> {
    const UNDEF: usize = usize::MAX;
    // The root finishes last, so it receives the highest postorder
    // number; intersect() climbs idom links toward higher numbers.
    let order = postorder(n, root, |b| succs(b).iter().copied());
    let mut po = vec![UNDEF; n];
    for (i, &b) in order.iter().enumerate() {
        po[b] = i;
    }
    let mut idom = vec![UNDEF; n];
    idom[root] = root;

    let intersect = |idom: &[usize], mut a: usize, mut b: usize| -> usize {
        while a != b {
            while po[a] < po[b] {
                a = idom[a];
            }
            while po[b] < po[a] {
                b = idom[b];
            }
        }
        a
    };

    // Process in reverse postorder (root first).
    let mut changed = true;
    while changed {
        changed = false;
        for &b in order.iter().rev() {
            if b == root {
                continue;
            }
            let mut new_idom = UNDEF;
            for &p in preds(b) {
                if po[p] != UNDEF && idom[p] != UNDEF {
                    new_idom = if new_idom == UNDEF { p } else { intersect(&idom, new_idom, p) };
                }
            }
            if new_idom != UNDEF && idom[b] != new_idom {
                idom[b] = new_idom;
                changed = true;
            }
        }
    }
    for d in &mut idom {
        if *d == UNDEF {
            *d = root;
        }
    }
    idom
}

/// Immediate post-dominators of every block ([`Cfg::pdoms`]).
#[derive(Debug, Clone, Default)]
pub struct PostDoms {
    /// `ipdom[b]` is the immediate post-dominator of block `b` (the virtual
    /// exit post-dominates itself).
    pub ipdom: Vec<BlockId>,
}

impl PostDoms {
    /// Computes post-dominators of `cfg` with the Cooper–Harvey–Kennedy
    /// algorithm on the reversed graph (rooted at the virtual exit).
    ///
    /// Blocks that cannot reach the exit (closed infinite loops) keep the
    /// exit as their immediate post-dominator, which is harmless for
    /// reconvergence purposes.
    pub(crate) fn compute(cfg: &Cfg) -> PostDoms {
        // The reversed graph: its edges are CFG predecessors.
        let ipdom = immediate_dominators(
            cfg.len(),
            cfg.exit_block(),
            |b| &cfg.blocks[b].preds,
            |b| &cfg.blocks[b].succs,
        );
        PostDoms { ipdom }
    }

    /// True when `a` post-dominates `b`.
    #[must_use]
    pub fn post_dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            let next = self.ipdom[cur];
            if next == cur {
                return false;
            }
            cur = next;
        }
    }
}

/// Immediate (forward) dominators of every block, rooted at the entry
/// ([`Cfg::doms`]).
#[derive(Debug, Clone, Default)]
pub struct Doms {
    /// `idom[b]` is the immediate dominator of block `b` (the entry
    /// dominates itself). Blocks unreachable from the entry are pinned to
    /// the entry.
    pub idom: Vec<BlockId>,
}

impl Doms {
    /// Computes forward dominators of `cfg` with the Cooper–Harvey–Kennedy
    /// algorithm, rooted at block 0.
    pub(crate) fn compute(cfg: &Cfg) -> Doms {
        let idom =
            immediate_dominators(cfg.len(), 0, |b| &cfg.blocks[b].succs, |b| &cfg.blocks[b].preds);
        Doms { idom }
    }

    /// True when `a` dominates `b`.
    #[must_use]
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            let next = self.idom[cur];
            if next == cur {
                return false;
            }
            cur = next;
        }
    }
}

/// One natural loop the symbolic engine can summarize: a single back edge
/// `latch -> header` where the header dominates the latch, the latch ends
/// in a guarded branch targeting the header's first instruction, and every
/// other edge leaving a body block stays inside the body (so the branch's
/// fall-through is the unique loop exit).
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// Block whose first instruction is the loop entry.
    pub header: BlockId,
    /// Block containing the back-edge branch.
    pub latch: BlockId,
    /// Program counter of the guarded back-edge branch (last instruction of
    /// the latch).
    pub back_edge_pc: usize,
    /// First instruction of the header (the branch target).
    pub header_pc: usize,
    /// Blocks in the loop body, header and latch included.
    pub body: Vec<BlockId>,
}

/// All summarizable natural loops of a kernel, indexed by back-edge pc
/// ([`Cfg::loops`]).
#[derive(Debug, Clone, Default)]
pub struct NaturalLoops {
    /// Loops in discovery order (by back-edge pc).
    pub loops: Vec<NaturalLoop>,
}

impl NaturalLoops {
    /// Finds single-back-edge natural loops whose only exit is the back
    /// edge's fall-through. Loops that share a header with another back
    /// edge, or whose body has a side exit, are skipped — the symbolic
    /// engine falls back to unrolling those. Reads `cfg.doms`.
    pub(crate) fn compute(kernel: &simt_isa::Kernel, cfg: &Cfg) -> NaturalLoops {
        let mut back_edges: Vec<(BlockId, BlockId, usize)> = Vec::new();
        for (pc, i) in kernel.instrs.iter().enumerate() {
            if let Op::Bra { target } = i.op {
                if i.guard.is_some() {
                    let latch = cfg.block_of[pc];
                    // The back edge must be the block's last instruction and
                    // target a block header that dominates the latch.
                    if pc + 1 != cfg.blocks[latch].end {
                        continue;
                    }
                    if target >= cfg.block_of.len() {
                        continue;
                    }
                    let header = cfg.block_of[target];
                    // The branch must land on the block's first instruction.
                    if cfg.blocks[header].start != target {
                        continue;
                    }
                    if cfg.doms.dominates(header, latch) {
                        back_edges.push((latch, header, pc));
                    }
                }
            }
        }
        let mut loops = Vec::new();
        'edges: for &(latch, header, pc) in &back_edges {
            // One back edge per header only.
            if back_edges.iter().filter(|&&(_, h, _)| h == header).count() != 1 {
                continue;
            }
            // Body = {header} ∪ blocks reaching the latch without passing
            // the header (standard natural-loop body, walked backwards).
            let mut in_body =
                reach(cfg.len(), [latch], |b| cfg.blocks[b].preds.iter().copied(), |b| b == header);
            in_body[header] = true;
            // Every edge out of the body must be the back-edge branch's
            // fall-through; any other side exit disqualifies the loop.
            for b in 0..cfg.len() {
                if !in_body[b] {
                    continue;
                }
                for &s in &cfg.blocks[b].succs {
                    if in_body[s] {
                        continue;
                    }
                    let is_latch_fallthrough =
                        b == latch && cfg.blocks[latch].succs.get(1) == Some(&s);
                    if !is_latch_fallthrough {
                        continue 'edges;
                    }
                }
            }
            let mut body: Vec<BlockId> = (0..cfg.len()).filter(|&b| in_body[b]).collect();
            body.shrink_to_fit();
            loops.push(NaturalLoop {
                header,
                latch,
                back_edge_pc: pc,
                header_pc: cfg.blocks[header].start,
                body,
            });
        }
        loops.shrink_to_fit();
        NaturalLoops { loops }
    }

    /// The loop whose back-edge branch sits at `pc`, if any.
    #[must_use]
    pub fn at_back_edge(&self, pc: usize) -> Option<&NaturalLoop> {
        self.loops.iter().find(|l| l.back_edge_pc == pc)
    }
}

/// Per-branch reconvergence points: for each conditional branch instruction,
/// the instruction index where diverged warp halves re-join (the first
/// instruction of the branch block's immediate post-dominator).
#[derive(Debug, Clone)]
pub struct ReconvergenceTable {
    /// `(pc, join_pc)` for every guarded branch, by ascending pc;
    /// `join_pc == RECONVERGE_AT_EXIT` denotes reconvergence at exit. Only
    /// branches have entries, so the table lives beside every compiled
    /// kernel at the size of its branch count, not its length.
    joins: Vec<(usize, usize)>,
}

/// Sentinel reconvergence PC meaning "at thread exit".
pub const RECONVERGE_AT_EXIT: usize = usize::MAX;

impl ReconvergenceTable {
    /// Computes the table for `kernel` from its CFG's post-dominators.
    #[must_use]
    pub fn compute(kernel: &simt_isa::Kernel, cfg: &Cfg) -> ReconvergenceTable {
        let mut joins: Vec<(usize, usize)> = (kernel.instrs.iter().enumerate())
            .filter(|(_, i)| matches!(i.op, Op::Bra { .. }) && i.guard.is_some())
            .map(|(pc, _)| {
                let j = cfg.pdoms.ipdom[cfg.block_of[pc]];
                (pc, if j == cfg.exit_block() { RECONVERGE_AT_EXIT } else { cfg.blocks[j].start })
            })
            .collect();
        joins.shrink_to_fit();
        ReconvergenceTable { joins }
    }

    /// The reconvergence pc of the guarded branch at `pc`, or `None` when
    /// `pc` is no guarded branch.
    #[must_use]
    pub fn get(&self, pc: usize) -> Option<usize> {
        let i = self.joins.binary_search_by_key(&pc, |&(p, _)| p).ok()?;
        Some(self.joins[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{CmpOp, Guard, KernelBuilder, SpecialReg};

    #[test]
    fn diamond_reconverges_at_join() {
        let mut b = KernelBuilder::new("d");
        let t = b.special(SpecialReg::TidX);
        let p = b.setp(CmpOp::Lt, t, 4u32);
        let out = b.alloc();
        b.if_then_else(Guard::if_true(p), |b| b.mov_to(out, 1u32), |b| b.mov_to(out, 2u32));
        b.store(simt_isa::MemSpace::Global, 0u32, out, 0);
        let k = b.finish();
        let cfg = Cfg::build(&k);
        let rt = ReconvergenceTable::compute(&k, &cfg);
        // The first guarded branch must reconverge at the store instruction.
        let store_pc = k.instrs.iter().position(|i| i.op.is_store()).expect("kernel stores");
        let branch_pc = k
            .instrs
            .iter()
            .position(|i| i.op.is_branch() && i.guard.is_some())
            .expect("guarded branch");
        assert_eq!(rt.get(branch_pc), Some(store_pc));
    }

    #[test]
    fn if_then_reconverges_after_body() {
        let mut b = KernelBuilder::new("it");
        let t = b.special(SpecialReg::TidX);
        let p = b.setp(CmpOp::Lt, t, 4u32);
        b.if_then(Guard::if_true(p), |b| {
            let one = b.mov(1u32);
            b.store(simt_isa::MemSpace::Global, 0u32, one, 0);
        });
        let x = b.mov(9u32);
        b.store(simt_isa::MemSpace::Global, 4u32, x, 0);
        let k = b.finish();
        let cfg = Cfg::build(&k);
        let rt = ReconvergenceTable::compute(&k, &cfg);
        let branch_pc = 2;
        assert!(k.instrs[branch_pc].op.is_branch());
        // Joins at the `mov 9` after the body (instruction 5).
        assert_eq!(rt.get(branch_pc), Some(5));
    }

    #[test]
    fn loop_branch_reconverges_at_loop_exit() {
        let mut b = KernelBuilder::new("lp");
        let i = b.mov(0u32);
        b.do_while(|b| {
            b.iadd_to(i, i, 1u32);
            let p = b.setp(CmpOp::Lt, i, 8u32);
            Guard::if_true(p)
        });
        b.store(simt_isa::MemSpace::Global, 0u32, i, 0);
        let k = b.finish();
        let cfg = Cfg::build(&k);
        let rt = ReconvergenceTable::compute(&k, &cfg);
        let branch_pc = k.instrs.iter().position(|x| x.op.is_branch()).unwrap();
        let store_pc = k.instrs.iter().position(|x| x.op.is_store()).unwrap();
        assert_eq!(rt.get(branch_pc), Some(store_pc));
    }

    #[test]
    fn post_dominance_relation() {
        let mut b = KernelBuilder::new("pd");
        let t = b.special(SpecialReg::TidX);
        let p = b.setp(CmpOp::Lt, t, 4u32);
        b.if_then(Guard::if_true(p), |b| {
            let _ = b.mov(1u32);
        });
        let k = b.finish();
        let cfg = Cfg::build(&k);
        let pd = &cfg.pdoms;
        let exit = cfg.exit_block();
        for blk in 0..cfg.len() {
            assert!(pd.post_dominates(exit, blk), "exit post-dominates everything");
        }
        // The body block does not post-dominate the entry.
        assert!(!pd.post_dominates(1, 0));
    }

    #[test]
    fn forward_dominators_and_natural_loop_of_do_while() {
        let mut b = KernelBuilder::new("nl");
        let i = b.mov(0u32);
        b.do_while(|b| {
            b.iadd_to(i, i, 1u32);
            let p = b.setp(CmpOp::Lt, i, 8u32);
            Guard::if_true(p)
        });
        b.store(simt_isa::MemSpace::Global, 0u32, i, 0);
        let k = b.finish();
        let cfg = Cfg::build(&k);
        let doms = &cfg.doms;
        // Entry dominates everything.
        for blk in 0..cfg.len() {
            assert!(doms.dominates(0, blk), "entry dominates block {blk}");
        }
        let loops = &cfg.loops;
        assert_eq!(loops.loops.len(), 1, "one natural loop");
        let l = &loops.loops[0];
        let branch_pc = k.instrs.iter().position(|x| x.op.is_branch()).unwrap();
        assert_eq!(l.back_edge_pc, branch_pc);
        assert_eq!(
            l.header_pc,
            match k.instrs[branch_pc].op {
                Op::Bra { target } => target,
                _ => unreachable!(),
            }
        );
        assert!(l.body.contains(&l.header) && l.body.contains(&l.latch));
        assert!(loops.at_back_edge(branch_pc).is_some());
        assert!(loops.at_back_edge(branch_pc + 1).is_none());
    }

    #[test]
    fn loop_with_side_exit_is_not_summarizable() {
        // A loop body containing a guarded exit before the back edge: the
        // body has two ways out, so NaturalLoops must skip it.
        let mut b = KernelBuilder::new("side");
        let t = b.special(SpecialReg::TidX);
        let i = b.mov(0u32);
        let top = b.here();
        b.iadd_to(i, i, 1u32);
        let q = b.setp(CmpOp::Eq, i, t);
        b.if_then(Guard::if_true(q), |b| {
            b.store(simt_isa::MemSpace::Global, 0u32, i, 0);
        });
        let p = b.setp(CmpOp::Lt, i, 8u32);
        b.branch_back_if(top, Guard::if_true(p));
        b.store(simt_isa::MemSpace::Global, 4u32, i, 0);
        let k = b.finish();
        let cfg = Cfg::build(&k);
        let (doms, loops) = (&cfg.doms, &cfg.loops);
        // The inner if_then is fine (not a loop); the back edge itself is a
        // well-formed single-exit loop, so it IS summarizable. What must
        // never appear is a loop keyed on the if_then's branch.
        let if_pc = k
            .instrs
            .iter()
            .position(|x| x.op.is_branch() && x.guard.is_some())
            .expect("guarded branch");
        assert!(loops.at_back_edge(if_pc).is_none(), "forward branch is not a back edge");
        for l in &loops.loops {
            assert!(doms.dominates(l.header, l.latch));
        }
    }

    #[test]
    fn straight_line_kernel_has_no_loops() {
        let mut b = KernelBuilder::new("sl");
        let t = b.special(SpecialReg::TidX);
        let a = b.shl_imm(t, 2);
        b.store(simt_isa::MemSpace::Global, a, t, 0);
        let k = b.finish();
        let cfg = Cfg::build(&k);
        assert!(cfg.loops.loops.is_empty());
    }

    #[test]
    fn unguarded_branches_have_no_reconvergence_entry() {
        let mut b = KernelBuilder::new("ub");
        let t = b.special(SpecialReg::TidX);
        let p = b.setp(CmpOp::Eq, t, 0u32);
        b.if_then_else(
            Guard::if_true(p),
            |b| {
                let _ = b.mov(1u32);
            },
            |b| {
                let _ = b.mov(2u32);
            },
        );
        let k = b.finish();
        let cfg = Cfg::build(&k);
        let rt = ReconvergenceTable::compute(&k, &cfg);
        for (pc, i) in k.instrs.iter().enumerate() {
            if i.op.is_branch() && i.guard.is_none() {
                assert_eq!(rt.get(pc), None, "unguarded branch at {pc}");
            }
        }
    }
}
