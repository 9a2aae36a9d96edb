//! Parity of the shared graph primitives against naive references.
//!
//! Every pass that needs a postorder, a reachability walk or a dominator
//! tree calls the one implementation in `cfg.rs` / `dom.rs`, so these
//! properties pin them on arbitrary control flow, not only on the
//! structured flow `KernelBuilder` produces. The kernels are raw
//! instruction streams of filler, `Exit`, and guarded or unguarded `Bra`
//! to any pc, handed straight to `Cfg::build`: irreducible loops, self
//! loops, blocks unreachable from the entry and blocks that never reach
//! the exit all occur.
//!
//! The references are deliberately different algorithms:
//!
//! - reachability is a whole-set fixpoint instead of a worklist;
//! - the postorder is a recursive DFS instead of an explicit stack;
//! - dominators are the iterative *set* formulation (every node's full
//!   dominator set, intersected over predecessors until stable), in both
//!   directions, and immediate dominators are read off those sets;
//! - a natural-loop body is every block that reaches the latch *forward*
//!   without passing the header, instead of a backward walk from the
//!   latch;
//! - the two-way branches are read off the instruction stream (a guarded
//!   `bra` whose target and fall-through start different blocks), their
//!   joins off the post-dominator sets, and each leg is the whole-set
//!   reachability fixpoint from one successor, stopped at the join.
//!
//! The facts `Cfg::build` stores (`rpo`, `reachable`, `doms`, `pdoms`,
//! `loops`, `branches`) are what every pass reads, so they are checked
//! as stored.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simt_compiler::cfg::{postorder, reach};
use simt_compiler::{BlockId, Cfg};
use simt_isa::{Guard, Instruction, Kernel, Op, Operand, Pred, Reg};

/// One instruction slot per entry: `(kind, target)`, the target taken
/// modulo the stream length; `kinds` counts the kinds drawn.
fn stream(rng: &mut SmallRng, kinds: &mut [u32; 4]) -> Vec<(u8, u8)> {
    (0..rng.gen_range(1..16))
        .map(|_| {
            let kind = rng.gen_range(0..4u8);
            kinds[usize::from(kind)] += 1;
            (kind, rng.gen_range(0..=u8::MAX))
        })
        .collect()
}

fn bytes(rng: &mut SmallRng) -> Vec<u8> {
    (0..rng.gen_range(0..4)).map(|_| rng.gen_range(0..=u8::MAX)).collect()
}

/// Cases per property.
const CASES: u64 = 512;

/// Kind 0 is filler, 1 a guarded branch, 2 an unguarded branch, 3 `Exit`.
fn kernel_of(stream: &[(u8, u8)]) -> Kernel {
    let n = stream.len();
    let instrs = stream
        .iter()
        .map(|&(kind, t)| {
            let target = usize::from(t) % n;
            match kind {
                0 => Instruction::new(Op::Mov, Some(Reg(0)), None, vec![Operand::Imm(0)]),
                1 => Instruction::new(Op::Bra { target }, None, None, vec![])
                    .with_guard(Guard::if_true(Pred(0))),
                2 => Instruction::new(Op::Bra { target }, None, None, vec![]),
                _ => Instruction::new(Op::Exit, None, None, vec![]),
            }
        })
        .collect();
    Kernel::new("g", instrs)
}

/// The graph's edges in one direction: successors, or predecessors for
/// the reversed graph.
fn edges(cfg: &Cfg, reversed: bool) -> impl Fn(BlockId) -> Vec<BlockId> + '_ {
    move |b| {
        let block = &cfg.blocks[b];
        if reversed {
            block.preds.clone()
        } else {
            block.succs.clone()
        }
    }
}

/// Reachability as a whole-set fixpoint.
fn reach_ref(
    n: usize,
    seeds: &[usize],
    edges: impl Fn(usize) -> Vec<usize>,
    stop: impl Fn(usize) -> bool,
) -> Vec<bool> {
    let mut seen = vec![false; n];
    for &s in seeds {
        seen[s] = !stop(s);
    }
    loop {
        let mut changed = false;
        for x in 0..n {
            if !seen[x] {
                continue;
            }
            for y in edges(x) {
                if !stop(y) && !seen[y] {
                    seen[y] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            return seen;
        }
    }
}

/// Postorder by recursive DFS, children in edge order.
fn postorder_ref(n: usize, root: usize, edges: &dyn Fn(usize) -> Vec<usize>) -> Vec<usize> {
    fn visit(
        b: usize,
        edges: &dyn Fn(usize) -> Vec<usize>,
        seen: &mut [bool],
        out: &mut Vec<usize>,
    ) {
        seen[b] = true;
        for s in edges(b) {
            if !seen[s] {
                visit(s, edges, seen, out);
            }
        }
        out.push(b);
    }
    let mut seen = vec![false; n];
    let mut out = Vec::new();
    visit(root, edges, &mut seen, &mut out);
    out
}

/// Iterative dominator sets rooted at `root`: `dom[b][a]` is true when
/// `a` dominates `b`. Only nodes reachable from `root` get sets; the rest
/// stay empty.
fn dominator_sets(
    n: usize,
    root: usize,
    succs: impl Fn(usize) -> Vec<usize>,
    preds: impl Fn(usize) -> Vec<usize>,
) -> Vec<Vec<bool>> {
    let reachable = reach_ref(n, &[root], &succs, |_| false);
    let mut dom: Vec<Vec<bool>> =
        (0..n).map(|b| if reachable[b] { vec![true; n] } else { vec![false; n] }).collect();
    dom[root] = vec![false; n];
    dom[root][root] = true;
    loop {
        let mut changed = false;
        for b in (0..n).filter(|&b| b != root && reachable[b]) {
            let mut new = vec![true; n];
            for p in preds(b).into_iter().filter(|&p| reachable[p]) {
                for (x, d) in new.iter_mut().zip(&dom[p]) {
                    *x = *x && *d;
                }
            }
            new[b] = true;
            if new != dom[b] {
                dom[b] = new;
                changed = true;
            }
        }
        if !changed {
            return dom;
        }
    }
}

/// Immediate dominators read off the sets: the strict dominator of `b`
/// that every other strict dominator of `b` dominates. Nodes outside the
/// root's reach are pinned to the root, as the solver pins them.
fn idoms_ref(dom: &[Vec<bool>], root: usize) -> Vec<usize> {
    let n = dom.len();
    (0..n)
        .map(|b| {
            if b == root || !dom[b][b] {
                return root;
            }
            let strict: Vec<usize> = (0..n).filter(|&a| a != b && dom[b][a]).collect();
            *strict
                .iter()
                .find(|&&d| strict.iter().all(|&o| dom[d][o]))
                .expect("a reachable node has an immediate dominator")
        })
        .collect()
}

/// Checks one direction's solver output against the set formulation.
fn check_dominators(
    case: u64,
    cfg: &Cfg,
    root: usize,
    reversed: bool,
    idom: &[usize],
    dominates: impl Fn(usize, usize) -> bool,
) {
    let n = cfg.len();
    let dom = dominator_sets(n, root, edges(cfg, reversed), edges(cfg, !reversed));
    assert_eq!(idom, &idoms_ref(&dom, root)[..], "case {case}, reversed = {reversed}");
    for b in (0..n).filter(|&b| dom[b][b]) {
        for (a, &d) in dom[b].iter().enumerate() {
            assert_eq!(dominates(a, b), d, "case {case}: {a} over {b} (reversed = {reversed})");
        }
    }
}

#[test]
fn reach_matches_the_fixpoint() {
    let mut kinds = [0; 4];
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let stream = stream(&mut rng, &mut kinds);
        let (seeds, stops, reversed) = (bytes(&mut rng), bytes(&mut rng), rng.gen_range(0..2) == 1);
        let cfg = Cfg::build(&kernel_of(&stream));
        let n = cfg.len();
        let seeds: Vec<usize> = seeds.iter().map(|&s| usize::from(s) % n).collect();
        let stops: Vec<usize> = stops.iter().map(|&s| usize::from(s) % n).collect();
        let stop = |b: usize| stops.contains(&b);
        let walked = reach(n, seeds.iter().copied(), edges(&cfg, reversed), stop);
        assert_eq!(walked, reach_ref(n, &seeds, edges(&cfg, reversed), stop), "case {case}");
    }
    assert!(!kinds.contains(&0), "an instruction kind was never drawn: {kinds:?}");
}

#[test]
fn postorders_match_the_recursive_dfs() {
    let mut kinds = [0; 4];
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let cfg = Cfg::build(&kernel_of(&stream(&mut rng, &mut kinds)));
        let n = cfg.len();
        let mut rpo = postorder_ref(n, 0, &edges(&cfg, false));
        rpo.reverse();
        assert_eq!(cfg.rpo, rpo, "case {case}");
        assert_eq!(cfg.reachable, reach_ref(n, &[0], edges(&cfg, false), |_| false), "case {case}");
        let exit = cfg.exit_block();
        assert_eq!(
            postorder(n, exit, edges(&cfg, true)),
            postorder_ref(n, exit, &edges(&cfg, true)),
            "case {case}"
        );
    }
    assert!(!kinds.contains(&0), "an instruction kind was never drawn: {kinds:?}");
}

#[test]
fn dominators_match_the_set_formulation() {
    let mut kinds = [0; 4];
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let cfg = Cfg::build(&kernel_of(&stream(&mut rng, &mut kinds)));
        let (doms, pdoms) = (&cfg.doms, &cfg.pdoms);
        check_dominators(case, &cfg, 0, false, &doms.idom, |a, b| doms.dominates(a, b));
        check_dominators(case, &cfg, cfg.exit_block(), true, &pdoms.ipdom, |a, b| {
            pdoms.post_dominates(a, b)
        });
    }
    assert!(!kinds.contains(&0), "an instruction kind was never drawn: {kinds:?}");
}

#[test]
fn natural_loop_bodies_match_forward_reachability() {
    let mut kinds = [0; 4];
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let kernel = kernel_of(&stream(&mut rng, &mut kinds));
        let cfg = Cfg::build(&kernel);
        let n = cfg.len();
        for l in &cfg.loops.loops {
            assert!(cfg.doms.dominates(l.header, l.latch), "case {case}");
            let body: Vec<BlockId> = (0..n)
                .filter(|&b| {
                    b == l.header
                        || reach_ref(n, &[b], edges(&cfg, false), |x| x == l.header)[l.latch]
                })
                .collect();
            assert_eq!(l.body, body, "case {case}: loop at pc {}", l.back_edge_pc);
        }
    }
    assert!(!kinds.contains(&0), "an instruction kind was never drawn: {kinds:?}");
}

#[test]
fn branch_legs_match_the_fixpoint() {
    let (mut kinds, mut branches) = ([0; 4], 0);
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let kernel = kernel_of(&stream(&mut rng, &mut kinds));
        let cfg = Cfg::build(&kernel);
        let (n, exit) = (cfg.len(), cfg.exit_block());
        let pdom = dominator_sets(n, exit, edges(&cfg, true), edges(&cfg, false));
        let ipdom = idoms_ref(&pdom, exit);
        let mut want = Vec::new();
        for (b, block) in cfg.blocks.iter().enumerate().filter(|(_, x)| !x.is_empty()) {
            let (pc, instr) = (block.end - 1, &kernel.instrs[block.end - 1]);
            let Op::Bra { target } = instr.op else { continue };
            if instr.guard.is_none() || block.end == kernel.len() {
                continue;
            }
            let (taken, fall) = (cfg.block_of[target], cfg.block_of[block.end]);
            if taken == fall {
                continue;
            }
            let leg = |s: usize| reach_ref(n, &[s], edges(&cfg, false), |x| x == ipdom[b]);
            want.push((pc, b, ipdom[b], [leg(taken), leg(fall)]));
        }
        let got: Vec<_> =
            cfg.branches.iter().map(|br| (br.pc, br.block, br.join, br.legs.clone())).collect();
        assert_eq!(got, want, "case {case}");
        for &(_, b, ..) in &want {
            assert_eq!(cfg.branch(b).map(|br| br.block), Some(b), "case {case}");
        }
        branches += want.len();
    }
    assert!(!kinds.contains(&0), "an instruction kind was never drawn: {kinds:?}");
    assert!(branches > 0, "no two-way branch was drawn");
}
