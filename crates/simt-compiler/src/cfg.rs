//! Control-flow graph construction over a kernel's instruction stream,
//! with every fact the passes derive from the graph alone: reverse
//! post-order, reachability, dominators, post-dominators, natural loops
//! and the legs of every two-way branch. [`Cfg::build`] computes each of
//! them once.

use crate::dom::{Doms, NaturalLoops, PostDoms};
use simt_isa::{Kernel, Op};

/// Identifier of a basic block (index into [`Cfg::blocks`]).
pub type BlockId = usize;

/// A basic block: a maximal single-entry, single-exit-point instruction range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// First instruction index (inclusive).
    pub start: usize,
    /// Last instruction index (exclusive).
    pub end: usize,
    /// Successor blocks in the CFG.
    pub succs: Vec<BlockId>,
    /// Predecessor blocks in the CFG.
    pub preds: Vec<BlockId>,
}

impl BasicBlock {
    /// Instruction indices covered by this block.
    #[must_use]
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }

    /// Number of instructions in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for the virtual exit block (empty range).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A guarded two-way branch: the block it ends, the block where its
/// threads reconverge, and what each side runs before they do.
#[derive(Debug, Clone)]
pub struct Branch {
    /// Program counter of the guarded `bra` (its block's last instruction).
    pub pc: usize,
    /// The block the branch ends.
    pub block: BlockId,
    /// The branch block's immediate post-dominator.
    pub join: BlockId,
    /// `legs[i][x]`: block `x` is reachable from the block's successor
    /// `succs[i]` without entering `join` (`succs[0]` is the taken edge).
    pub legs: [Vec<bool>; 2],
}

impl Branch {
    /// True when block `x` lies on either leg — the branch's divergent
    /// region.
    #[must_use]
    pub fn in_region(&self, x: BlockId) -> bool {
        self.legs[0][x] || self.legs[1][x]
    }
}

/// A control-flow graph. Block 0 is the entry; the last block is a virtual
/// exit that every `Exit` instruction flows into (it has an empty
/// instruction range), which keeps the post-dominator analysis single-exit.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// The blocks, in program order; the final entry is the virtual exit.
    pub blocks: Vec<BasicBlock>,
    /// Map from instruction index to owning block.
    pub block_of: Vec<BlockId>,
    /// The blocks reachable from the entry, in reverse post-order (the
    /// iteration order for forward dataflow).
    pub rpo: Vec<BlockId>,
    /// `reachable[b]`: block `b` is reachable from the entry.
    pub reachable: Vec<bool>,
    /// Forward dominators, rooted at the entry.
    pub doms: Doms,
    /// Post-dominators, rooted at the virtual exit.
    pub pdoms: PostDoms,
    /// The summarizable natural loops.
    pub loops: NaturalLoops,
    /// Every guarded two-way branch, in block order.
    pub branches: Vec<Branch>,
}

impl Cfg {
    /// Builds the CFG of `kernel`.
    ///
    /// Leaders are instruction 0, every branch target, and every
    /// instruction following a branch or `Exit`. A guarded branch has two
    /// successors (target and fall-through); an unguarded branch only its
    /// target; `Exit` flows to the virtual exit block.
    #[must_use]
    pub fn build(kernel: &Kernel) -> Cfg {
        let n = kernel.instrs.len();
        assert!(n > 0, "cannot build a CFG for an empty kernel");
        let mut leader = vec![false; n];
        leader[0] = true;
        for (pc, i) in kernel.instrs.iter().enumerate() {
            match i.op {
                Op::Bra { target } => {
                    leader[target] = true;
                    if pc + 1 < n {
                        leader[pc + 1] = true;
                    }
                }
                Op::Exit if pc + 1 < n => {
                    leader[pc + 1] = true;
                }
                _ => {}
            }
        }

        let mut blocks: Vec<BasicBlock> = Vec::new();
        let mut block_of = vec![0usize; n];
        let mut start = 0usize;
        for pc in 0..n {
            block_of[pc] = blocks.len();
            let is_last = pc + 1 == n || leader[pc + 1];
            if is_last {
                blocks.push(BasicBlock {
                    start,
                    end: pc + 1,
                    succs: Vec::new(),
                    preds: Vec::new(),
                });
                start = pc + 1;
            }
        }
        // Virtual exit block.
        let exit_id = blocks.len();
        blocks.push(BasicBlock { start: n, end: n, succs: Vec::new(), preds: Vec::new() });

        // Wire successors.
        for b in 0..exit_id {
            let last_pc = blocks[b].end - 1;
            let instr = &kernel.instrs[last_pc];
            let mut succs = Vec::new();
            match instr.op {
                Op::Bra { target } => {
                    succs.push(block_of[target]);
                    if instr.guard.is_some() && blocks[b].end < n {
                        let ft = block_of[blocks[b].end];
                        if !succs.contains(&ft) {
                            succs.push(ft);
                        }
                    }
                }
                Op::Exit => succs.push(exit_id),
                _ => {
                    if blocks[b].end < n {
                        succs.push(block_of[blocks[b].end]);
                    } else {
                        // Fell off the end of the program; treat as exit.
                        succs.push(exit_id);
                    }
                }
            }
            blocks[b].succs = succs;
        }
        for b in 0..blocks.len() {
            for s in blocks[b].succs.clone() {
                blocks[s].preds.push(b);
            }
        }
        let nb = blocks.len();
        let mut cfg = Cfg {
            blocks,
            block_of,
            rpo: Vec::new(),
            reachable: vec![false; nb],
            doms: Doms::default(),
            pdoms: PostDoms::default(),
            loops: NaturalLoops::default(),
            branches: Vec::new(),
        };
        cfg.rpo = postorder(nb, 0, |b| cfg.blocks[b].succs.iter().copied());
        cfg.rpo.reverse();
        for &b in &cfg.rpo {
            cfg.reachable[b] = true;
        }
        cfg.doms = Doms::compute(&cfg);
        cfg.pdoms = PostDoms::compute(&cfg);
        cfg.loops = NaturalLoops::compute(kernel, &cfg);
        // Only a guarded branch gives a block two successors.
        let succs = |x: BlockId| cfg.blocks[x].succs.iter().copied();
        cfg.branches = (0..nb)
            .filter_map(|b| {
                let &[s0, s1] = &cfg.blocks[b].succs[..] else { return None };
                let join = cfg.pdoms.ipdom[b];
                let legs = [s0, s1].map(|s| reach(nb, [s], succs, |x| x == join));
                Some(Branch { pc: cfg.blocks[b].end - 1, block: b, join, legs })
            })
            .collect();
        // The facts live as long as the compiled kernel: keep no slack.
        cfg.branches.shrink_to_fit();
        cfg
    }

    /// Number of blocks including the virtual exit.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when the CFG has no blocks (never happens for valid kernels).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Id of the virtual exit block.
    #[must_use]
    pub fn exit_block(&self) -> BlockId {
        self.blocks.len() - 1
    }

    /// The guarded two-way branch ending block `b`, if any.
    #[must_use]
    pub fn branch(&self, b: BlockId) -> Option<&Branch> {
        self.branches.binary_search_by_key(&b, |br| br.block).ok().map(|i| &self.branches[i])
    }
}

/// Postorder of the nodes of an `n`-node graph reachable from `root`
/// along `edges`, children visited in edge order; `root` comes last. An
/// iterative DFS, so long kernels cannot overflow the stack. The edge
/// function makes it serve the forward CFG, the reversed CFG and derived
/// graphs such as barrier segments alike.
pub fn postorder<E, I>(n: usize, root: usize, edges: E) -> Vec<usize>
where
    E: Fn(usize) -> I,
    I: IntoIterator<Item = usize>,
{
    let mut visited = vec![false; n];
    let mut post = Vec::with_capacity(n);
    visited[root] = true;
    let mut stack = vec![(root, edges(root).into_iter())];
    while let Some((b, succs)) = stack.last_mut() {
        match succs.next() {
            Some(s) if !visited[s] => {
                visited[s] = true;
                stack.push((s, edges(s).into_iter()));
            }
            Some(_) => {}
            None => {
                post.push(*b);
                stack.pop();
            }
        }
    }
    post
}

/// Nodes of an `n`-node graph reachable from `seeds` along `edges`
/// without entering a node for which `stop` holds. Seeds count as
/// reached (unless stopped), so pass a node's successors as the seeds to
/// ask what lies strictly after it.
pub fn reach<E, I>(
    n: usize,
    seeds: impl IntoIterator<Item = usize>,
    edges: E,
    stop: impl Fn(usize) -> bool,
) -> Vec<bool>
where
    E: Fn(usize) -> I,
    I: IntoIterator<Item = usize>,
{
    let mut seen = vec![false; n];
    let mut work: Vec<usize> = seeds.into_iter().collect();
    while let Some(b) = work.pop() {
        if !seen[b] && !stop(b) {
            seen[b] = true;
            work.extend(edges(b));
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{CmpOp, Guard, Instruction, KernelBuilder, MemSpace, Operand, Pred, Reg};

    fn straight_line() -> Kernel {
        let mut b = KernelBuilder::new("sl");
        let x = b.mov(1u32);
        let y = b.iadd(x, 2u32);
        b.store(MemSpace::Global, 0u32, y, 0);
        b.finish()
    }

    #[test]
    fn straight_line_is_one_block_plus_exit() {
        let k = straight_line();
        let cfg = Cfg::build(&k);
        assert_eq!(cfg.len(), 2);
        assert_eq!(cfg.blocks[0].range(), 0..k.len());
        assert_eq!(cfg.blocks[0].succs, vec![1]);
        assert!(cfg.blocks[cfg.exit_block()].is_empty());
    }

    #[test]
    fn if_then_produces_diamond_shape() {
        let mut b = KernelBuilder::new("it");
        let t = b.special(simt_isa::SpecialReg::TidX);
        let p = b.setp(CmpOp::Lt, t, 4u32);
        b.if_then(Guard::if_true(p), |b| {
            let one = b.mov(1u32);
            b.store(MemSpace::Global, 0u32, one, 0);
        });
        let k = b.finish();
        let cfg = Cfg::build(&k);
        // Blocks: [s2r,setp,bra] [mov,store] [exit] [virtual].
        assert_eq!(cfg.len(), 4);
        assert_eq!(cfg.blocks[0].succs.len(), 2, "guarded branch has 2 successors");
        // Both the branch-taken path and the body converge on the exit block.
        assert!(cfg.blocks[0].succs.contains(&2));
        assert!(cfg.blocks[0].succs.contains(&1));
        assert_eq!(cfg.blocks[1].succs, vec![2]);
    }

    #[test]
    fn loop_back_edge_present() {
        let mut b = KernelBuilder::new("lp");
        let i = b.mov(0u32);
        b.do_while(|b| {
            b.iadd_to(i, i, 1u32);
            let p = b.setp(CmpOp::Lt, i, 8u32);
            Guard::if_true(p)
        });
        let k = b.finish();
        let cfg = Cfg::build(&k);
        // Find block containing the loop body start (instruction 1).
        let body = cfg.block_of[1];
        assert!(
            cfg.blocks[body].preds.len() >= 2,
            "loop head has entry and back-edge predecessors: {:?}",
            cfg.blocks
        );
    }

    #[test]
    fn unguarded_branch_has_single_successor() {
        // 0: bra 2 ; 1: mov (dead) ; 2: exit
        let k = Kernel::new(
            "u",
            vec![
                Instruction::new(Op::Bra { target: 2 }, None, None, vec![]),
                Instruction::new(Op::Mov, Some(Reg(0)), None, vec![Operand::Imm(0)]),
                Instruction::new(Op::Exit, None, None, vec![]),
            ],
        );
        let cfg = Cfg::build(&k);
        assert_eq!(cfg.blocks[cfg.block_of[0]].succs.len(), 1);
        // The dead block is still constructed.
        assert_eq!(cfg.block_of[1], 1);
    }

    #[test]
    fn reverse_post_order_starts_at_entry() {
        let mut b = KernelBuilder::new("rpo");
        let t = b.special(simt_isa::SpecialReg::TidX);
        let p = b.setp(CmpOp::Lt, t, 4u32);
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
        let rpo = &cfg.rpo;
        assert_eq!(rpo[0], 0);
        assert_eq!(rpo.len(), cfg.len(), "all blocks reachable");
        // Every block appears before its dominated join in RPO terms:
        // entry first, exit last.
        assert_eq!(*rpo.last().unwrap(), cfg.exit_block());
    }

    #[test]
    fn self_loop_guard() {
        // 0: @P0 bra 0 ; 1: exit
        let k = Kernel::new(
            "sl",
            vec![
                Instruction::new(Op::Bra { target: 0 }, None, None, vec![])
                    .with_guard(Guard::if_true(Pred(0))),
                Instruction::new(Op::Exit, None, None, vec![]),
            ],
        );
        let cfg = Cfg::build(&k);
        let b0 = cfg.block_of[0];
        assert!(cfg.blocks[b0].succs.contains(&b0), "self loop");
        assert!(cfg.blocks[b0].preds.contains(&b0));
    }
}
