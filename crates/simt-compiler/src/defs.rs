//! Reaching definitions: which writes of each register and predicate may
//! have produced the value a program point sees.
//!
//! One forward may-analysis over the CFG's reachable blocks, in reverse
//! post-order. A definition is the pc of the writing instruction; the
//! [`ENTRY`] pseudo-definition stands for the zero-initialized contents
//! that a path writing nothing leaves behind. A guarded (predicated) write
//! merges lane-wise with the old value, so it adds its pc without killing
//! the definitions before it.
//!
//! The one solution serves the blame chains ([`crate::blame()`]) and the
//! verifier's def-before-use and dead-write lints: a read reached only by
//! [`ENTRY`] is undefined on every path, one reached by [`ENTRY`] and a
//! real definition on some paths, and a definition that reaches no read is
//! never observed.

use crate::cfg::{BlockId, Cfg};
use simt_isa::{Instruction, Kernel, Pred, Reg};
use std::collections::BTreeSet;

/// The pseudo-definition of a register or predicate that no path has
/// written; it sorts after every pc.
pub const ENTRY: usize = usize::MAX;

/// The definitions reaching one program point: per register and
/// predicate, the set of defining pcs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Defs {
    regs: Vec<BTreeSet<usize>>,
    preds: Vec<BTreeSet<usize>>,
}

impl Defs {
    /// Every slot reached by `init` alone.
    fn filled(nregs: usize, npreds: usize, init: BTreeSet<usize>) -> Defs {
        Defs { regs: vec![init.clone(); nregs], preds: vec![init; npreds] }
    }

    /// The definitions of register `r` reaching this point.
    #[must_use]
    pub fn reg(&self, r: Reg) -> &BTreeSet<usize> {
        &self.regs[usize::from(r.0)]
    }

    /// The definitions of predicate `p` reaching this point.
    #[must_use]
    pub fn pred(&self, p: Pred) -> &BTreeSet<usize> {
        &self.preds[usize::from(p.0)]
    }

    fn union_with(&mut self, other: &Defs) -> bool {
        let mut changed = false;
        for (a, b) in self
            .regs
            .iter_mut()
            .chain(self.preds.iter_mut())
            .zip(other.regs.iter().chain(other.preds.iter()))
        {
            for &d in b {
                changed |= a.insert(d);
            }
        }
        changed
    }

    fn transfer(&mut self, pc: usize, instr: &Instruction) {
        let slots = [
            instr.dst.map(|d| &mut self.regs[usize::from(d.0)]),
            instr.pdst.map(|p| &mut self.preds[usize::from(p.0)]),
        ];
        for slot in slots.into_iter().flatten() {
            if instr.guard.is_none() {
                slot.clear();
            }
            slot.insert(pc);
        }
    }
}

/// The reaching-definitions solution of one kernel: the definitions
/// reaching the start of every block (none at all for a block the entry
/// cannot reach).
#[derive(Debug, Clone)]
pub struct ReachingDefs<'a> {
    kernel: &'a Kernel,
    cfg: &'a Cfg,
    ins: Vec<Defs>,
}

impl<'a> ReachingDefs<'a> {
    /// Solves the dataflow to its least fixed point: the entry block starts
    /// with [`ENTRY`] in every slot.
    #[must_use]
    pub fn solve(kernel: &'a Kernel, cfg: &'a Cfg) -> ReachingDefs<'a> {
        let (nregs, npreds) = (usize::from(kernel.num_regs), usize::from(simt_isa::reg::NUM_PREDS));
        let mut ins = vec![Defs::filled(nregs, npreds, BTreeSet::new()); cfg.len()];
        ins[0] = Defs::filled(nregs, npreds, BTreeSet::from([ENTRY]));
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &cfg.rpo {
                let mut st = ins[b].clone();
                for pc in cfg.blocks[b].range() {
                    st.transfer(pc, &kernel.instrs[pc]);
                }
                for &s in &cfg.blocks[b].succs {
                    changed |= ins[s].union_with(&st);
                }
            }
        }
        ReachingDefs { kernel, cfg, ins }
    }

    /// Replays block `b` from its in-state: `visit(pc, defs)` sees every
    /// instruction's pc with the definitions reaching it, before it runs.
    pub fn replay_block(&self, b: BlockId, mut visit: impl FnMut(usize, &Defs)) {
        let mut st = self.ins[b].clone();
        for pc in self.cfg.blocks[b].range() {
            visit(pc, &st);
            st.transfer(pc, &self.kernel.instrs[pc]);
        }
    }
}
