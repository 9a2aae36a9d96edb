//! Provenance for vector markings: why is this instruction not redundant?
//!
//! The redundancy dataflow silently demotes values to `VECTOR`; this module
//! reconstructs, for every vector-marked instruction, a **shortest blame
//! chain** back to the *seed* that poisoned it — a divergent special
//! register read, an atomic, or a read-before-write of an uninitialized
//! register. The chain follows def-use edges between vector-classed
//! instructions only (a redundant operand cannot be the reason its consumer
//! is vector), including guard predicates, `sel` conditions and the old
//! destination contents folded in by guarded writes.
//!
//! Chains drive the `darsie-sim analyze` blame report: the histogram of
//! seeds says where divergence enters a kernel, and the per-instruction
//! chains say how it spreads — the first step toward recovering uniformity,
//! in the spirit of DARM's divergence analysis.

use crate::class::AbsClass;
use crate::defs::{ReachingDefs, ENTRY};
use crate::pass::CompiledKernel;
use simt_isa::{Marking, Op, SpecialReg};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The root cause a blame chain terminates in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BlameSeed {
    /// A `tid.y` read (vector unless the 3D extension analyzes it).
    TidY,
    /// A `tid.z` read.
    TidZ,
    /// A `warpid` read (uniform per warp, differs across warps).
    WarpId,
    /// An atomic's returned old value (unique per executing thread).
    Atomic,
    /// A read of a register no path has written (value is the
    /// zero-initialized file; the baseline analysis treats it as vector).
    EntryUndef,
    /// No seed found (the instruction's vector class is self-contained,
    /// e.g. a cyclic poison with no identifiable origin).
    Unexplained,
}

impl std::fmt::Display for BlameSeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BlameSeed::TidY => "tid.y",
            BlameSeed::TidZ => "tid.z",
            BlameSeed::WarpId => "warpid",
            BlameSeed::Atomic => "atomic",
            BlameSeed::EntryUndef => "entry-undef",
            BlameSeed::Unexplained => "unexplained",
        };
        f.write_str(s)
    }
}

/// A shortest poison path for one vector-marked instruction.
#[derive(Debug, Clone)]
pub struct BlameChain {
    /// The root cause.
    pub seed: BlameSeed,
    /// Instruction indices from the seed (first) to the blamed
    /// instruction (last). For [`BlameSeed::EntryUndef`] the first entry
    /// is the first consumer of the undefined register.
    pub path: Vec<usize>,
}

/// Blame chains for a kernel under one class assignment.
#[derive(Debug, Clone)]
pub struct Blame {
    /// One chain per instruction; `Some` exactly for vector markings.
    pub chains: Vec<Option<BlameChain>>,
}

impl Blame {
    /// Number of vector-marked instructions rooted in each seed kind.
    #[must_use]
    pub fn seed_histogram(&self) -> BTreeMap<BlameSeed, usize> {
        let mut h = BTreeMap::new();
        for c in self.chains.iter().flatten() {
            *h.entry(c.seed).or_insert(0) += 1;
        }
        h
    }
}

/// The intrinsic seed kind of one instruction, if any.
fn seed_of(instr: &simt_isa::Instruction) -> Option<BlameSeed> {
    match instr.op {
        Op::Atom(_) => Some(BlameSeed::Atomic),
        Op::S2R(SpecialReg::TidY) => Some(BlameSeed::TidY),
        Op::S2R(SpecialReg::TidZ) => Some(BlameSeed::TidZ),
        Op::S2R(SpecialReg::WarpId) => Some(BlameSeed::WarpId),
        _ => None,
    }
}

/// Computes shortest blame chains for every vector-classed instruction of
/// `ck` under `classes` (pass baseline classes, or refined ones to explain
/// what refinement could not recover).
///
/// # Panics
///
/// Panics if `classes` is shorter than the kernel's instruction count.
#[must_use]
pub fn blame(ck: &CompiledKernel, classes: &[AbsClass]) -> Blame {
    let instrs = &ck.kernel.instrs;
    let n = instrs.len();
    assert!(classes.len() >= n, "one class per instruction required");
    let is_vector = |pc: usize| classes[pc].marking() == Marking::Vector;

    // ---- def-use edges between vector instructions ---------------------
    // parents[pc]: vector defs (or ENTRY) this instruction's class folds in.
    let defs = ReachingDefs::solve(&ck.kernel, &ck.cfg);
    let mut parents: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for b in 0..ck.cfg.len() {
        defs.replay_block(b, |pc, st| {
            let instr = &instrs[pc];
            if !is_vector(pc) {
                return;
            }
            let mut sources: Vec<&BTreeSet<usize>> = instr.src_regs().map(|r| st.reg(r)).collect();
            if let Op::Sel(p) = instr.op {
                sources.push(st.pred(p));
            }
            if let Some(g) = instr.guard {
                sources.push(st.pred(g.pred));
                // Guard-false lanes keep the old contents.
                sources.extend(instr.dst.map(|d| st.reg(d)));
                sources.extend(instr.pdst.map(|p| st.pred(p)));
            }
            for set in sources {
                for &d in set {
                    if d == ENTRY || (d != pc && is_vector(d)) {
                        parents[pc].insert(d);
                    }
                }
            }
        });
    }

    // ---- multi-source BFS from the seeds -------------------------------
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut entry_children: Vec<usize> = Vec::new();
    for (pc, ps) in parents.iter().enumerate() {
        for &d in ps {
            if d == ENTRY {
                entry_children.push(pc);
            } else {
                children[d].push(pc);
            }
        }
    }
    let mut seed: Vec<Option<BlameSeed>> = vec![None; n];
    let mut prev: Vec<Option<usize>> = vec![None; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for pc in 0..n {
        if is_vector(pc) {
            if let Some(s) = seed_of(&instrs[pc]) {
                seed[pc] = Some(s);
                queue.push_back(pc);
            }
        }
    }
    for &pc in &entry_children {
        if seed[pc].is_none() {
            seed[pc] = Some(BlameSeed::EntryUndef);
            queue.push_back(pc);
        }
    }
    while let Some(pc) = queue.pop_front() {
        for &c in &children[pc] {
            if seed[c].is_none() {
                seed[c] = seed[pc];
                prev[c] = Some(pc);
                queue.push_back(c);
            }
        }
    }

    let chains = (0..n)
        .map(|pc| {
            if !is_vector(pc) {
                return None;
            }
            let Some(s) = seed[pc] else {
                return Some(BlameChain { seed: BlameSeed::Unexplained, path: vec![pc] });
            };
            let mut path = vec![pc];
            let mut cur = pc;
            while let Some(p) = prev[cur] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            Some(BlameChain { seed: s, path })
        })
        .collect();
    Blame { chains }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::compile;
    use simt_isa::{CmpOp, Guard, KernelBuilder, MemSpace};

    #[test]
    fn tid_y_seed_propagates_through_chain() {
        let mut b = KernelBuilder::new("ychain");
        let ty = b.special(SpecialReg::TidY); // 0: seed
        let x = b.iadd(ty, 1u32); // 1: poisoned by 0
        let y = b.imul(x, 2u32); // 2: poisoned by 1
        b.store(MemSpace::Global, 0u32, y, 0); // 3
        let ck = compile(b.finish());
        let bl = blame(&ck, &ck.classes);
        let c2 = bl.chains[2].as_ref().unwrap();
        assert_eq!(c2.seed, BlameSeed::TidY);
        assert_eq!(c2.path, vec![0, 1, 2]);
        assert!(bl.chains.iter().flatten().all(|c| c.seed == BlameSeed::TidY));
        assert_eq!(bl.seed_histogram()[&BlameSeed::TidY], 4);
    }

    #[test]
    fn redundant_instructions_carry_no_chain() {
        let mut b = KernelBuilder::new("clean");
        let t = b.special(SpecialReg::TidX);
        let a = b.shl_imm(t, 2);
        b.store(MemSpace::Global, a, t, 0);
        let ck = compile(b.finish());
        let bl = blame(&ck, &ck.classes);
        assert!(bl.chains.iter().all(Option::is_none), "no vector markings");
    }

    #[test]
    fn atomic_seed_and_shortest_path() {
        let mut b = KernelBuilder::new("at");
        let old = b.atom(simt_isa::AtomOp::Add, 0u32, 1u32); // 1: atomic (pc 0 is the mov of the addr imm? no: atom takes operands)
        let y = b.iadd(old, 1u32);
        b.store(MemSpace::Global, 4u32, y, 0);
        let ck = compile(b.finish());
        let bl = blame(&ck, &ck.classes);
        let atom_pc = ck.kernel.instrs.iter().position(|i| matches!(i.op, Op::Atom(_))).unwrap();
        let add_pc = atom_pc + 1;
        let c = bl.chains[add_pc].as_ref().unwrap();
        assert_eq!(c.seed, BlameSeed::Atomic);
        assert_eq!(c.path, vec![atom_pc, add_pc]);
    }

    #[test]
    fn entry_undef_read_is_blamed() {
        let mut b = KernelBuilder::new("undef");
        let t = b.special(SpecialReg::TidX);
        let p = b.setp(CmpOp::Lt, t, 8u32);
        let dst = b.alloc();
        b.emit(
            simt_isa::Instruction::new(
                simt_isa::Op::Mov,
                Some(dst),
                None,
                vec![simt_isa::Operand::Imm(7)],
            )
            .with_guard(Guard::if_true(p)),
        );
        let y = b.iadd(dst, 5u32);
        b.store(MemSpace::Global, 0u32, y, 0);
        let ck = compile(b.finish());
        let bl = blame(&ck, &ck.classes);
        // The guarded mov folds in the never-written old contents.
        let mov_pc = 2;
        let c = bl.chains[mov_pc].as_ref().unwrap();
        assert_eq!(c.seed, BlameSeed::EntryUndef);
        assert_eq!(c.path, vec![mov_pc]);
        let c_add = bl.chains[3].as_ref().unwrap();
        assert_eq!(c_add.seed, BlameSeed::EntryUndef);
    }

    #[test]
    fn guard_predicate_poison_is_followed() {
        let mut b = KernelBuilder::new("guard");
        let ty = b.special(SpecialReg::TidY); // 0: vector seed
        let p = b.setp(CmpOp::Lt, ty, 4u32); // 1: vector predicate
        let dst = b.mov(7u32); // 2: uniform
        b.emit(
            simt_isa::Instruction::new(
                simt_isa::Op::Mov,
                Some(dst),
                None,
                vec![simt_isa::Operand::Imm(3)],
            )
            .with_guard(Guard::if_true(p)),
        ); // 3: vector via guard
        b.store(MemSpace::Global, 0u32, dst, 0);
        let ck = compile(b.finish());
        let bl = blame(&ck, &ck.classes);
        let c = bl.chains[3].as_ref().unwrap();
        assert_eq!(c.seed, BlameSeed::TidY);
        assert_eq!(c.path, vec![0, 1, 3]);
    }
}
