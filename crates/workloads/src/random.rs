//! One seeded random-program generator for the whole ISA, which every
//! random property suite draws from (DESIGN.md, "Random programs").
//!
//! [`Recipe::draw`] draws a launch shape and a statement tree from a
//! `u64` seed; [`Recipe::build`] compiles it into a [`Fixture`]. Each
//! statement reads pool entry `i % len` of the live registers, which
//! start as `[tid.x, tid.y, warpid, ctaid.x, param 5, param 7]`, and
//! pushes what it computes. The kernel ends by storing the xor of the
//! last two entries to `out[256 * block + linear tid]`. The parameters
//! are `out`, a read-only 256-word `input`, the per-block `scatter` and
//! `atoms` regions (256 words per block each), a 4096-word `racy`
//! region all blocks share, and the distinct words `7`, `0x1005` and
//! `1.0f32`, so a load at a warp-indexed parameter address differs
//! between warps.

use crate::fixtures::Fixture;
use gpu_sim::GlobalMemory;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simt_compiler::compile;
use simt_isa::{
    AtomOp, CmpOp, Dim3, Guard, Instruction, KernelBuilder, LaunchConfig, MemSpace, Op, Operand,
    Pred, Reg, SpecialReg, Value,
};
use std::panic::{self, AssertUnwindSafe};

/// Which global words a drawn program's accesses may share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Footprint {
    /// Global loads read `input`, stores and atomics stay inside the
    /// block's own `scatter` and `atoms` words, and threads that collide
    /// on a word store or exchange the same value. Every schedule, every
    /// block order and every technique ends in the same memory.
    RaceFree,
    /// Global loads, stores and atomics address the shared `racy` region
    /// at block-affine words: the block-independence certifier's subject.
    BlockAffine,
}

/// A memory address, as a word index into the region the access names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Addr {
    /// An immediate word (global loads address `input` by absolute
    /// immediate; parameter and shared loads by their immediate offset).
    Imm(u32),
    /// The word pool entry `i` names, masked into the region.
    Reg(u8),
    /// `bs_x*ctaid.x + bs_y*ctaid.y + ts*tid.x + c` in `racy`, masked to
    /// 256 words (and so not affine) when `masked`.
    Affine { bs_x: u32, bs_y: u32, ts: u32, c: u32, masked: bool },
}

/// One statement of a random program. Operands are pool indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// Pushes `op` over pool entries (the first [`Op::num_srcs`] of them).
    Alu(Op, [u8; 3]),
    /// Pushes `op` over a pool entry and the immediate.
    AluImm(Op, u8, u32),
    /// `pool[d] = op(pool[d], pool[s])` in place: loop-carried inside a
    /// loop, a partial write inside an if.
    Update(Op, u8, u8),
    /// Pushes a special register.
    Special(SpecialReg),
    /// `p = setp[.f32] cmp pool[a], pool[b]`, then pushes
    /// `sel p, pool[x], pool[y]`.
    Select { cmp: CmpOp, float: bool, a: u8, b: u8, x: u8, y: u8 },
    /// Pushes a load from a space (global loads at an immediate or
    /// register address read `input`).
    Load(MemSpace, Addr),
    /// Global store of pool entry `v`; at an immediate or register
    /// address it lands in the block's `scatter` words and stores a
    /// value derived from the address instead.
    Store(Addr, u8),
    /// Global atomic with pool entry `v`, its old value unused; at an
    /// immediate or register address it lands in the block's `atoms`
    /// words for that op, and `exch` exchanges an address-derived value.
    Atom(AtomOp, Addr, u8),
    /// `bar; st.shared [linear tid], pool[v]; bar` (nothing inside a
    /// divergent region): every shared word has one writer per phase.
    Share(u8),
    /// `bar` (nothing inside a divergent region).
    Barrier,
    /// `if ((pool[c] & 3) == 1) { body }`.
    If(u8, Vec<Stmt>),
    /// `do { body } while (++i < trips)`, at least once.
    Loop(u8, Vec<Stmt>),
}

/// A random program: launch shape and statements. The grid must be
/// flat in z and the block at most 256 threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recipe {
    /// Grid dimensions.
    pub grid: Dim3,
    /// Block dimensions.
    pub block: Dim3,
    /// The statements, in program order.
    pub body: Vec<Stmt>,
}

/// Block shapes of the draw: 1D, the catalog's promoting and
/// non-promoting 2D shapes, a non-power-of-two one, and 3D.
#[rustfmt::skip]
const BLOCKS: [(u32, u32, u32); 11] = [
    (64, 1, 1), (96, 1, 1), (256, 1, 1), (16, 16, 1), (16, 4, 1), (8, 4, 1),
    (32, 2, 1), (12, 12, 1), (8, 4, 4), (4, 4, 4), (16, 2, 2),
];

/// Statements per program, nested ones included.
const BUDGET: u32 = 48;

impl Recipe {
    /// Draws the recipe of `seed` (deterministic per seed).
    #[must_use]
    pub fn draw(seed: u64, footprint: Footprint) -> Recipe {
        let mut d = Draw { rng: SmallRng::seed_from_u64(seed), footprint, budget: BUDGET };
        let (x, y, z) = d.pick(&BLOCKS);
        let block = Dim3::three_d(x, y, z);
        let grid = Dim3::two_d(d.rng.gen_range(1..=3), d.rng.gen_range(1..=2));
        let n = d.rng.gen_range(8..=20);
        Recipe { grid, block, body: d.body(n, 2) }
    }

    /// Compiles the recipe with its launch and initial memory.
    #[must_use]
    pub fn build(&self) -> Fixture {
        let blocks = self.grid.count();
        let mut memory = GlobalMemory::new();
        let out = memory.alloc(blocks * 1024);
        let input = memory.alloc(1024);
        let data: Vec<u32> = (0..256u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        memory.write_slice_u32(input, &data);
        let regions = [out, input, memory.alloc(blocks * 1024), memory.alloc(blocks * 1024)];
        let racy = memory.alloc(4096 * 4);
        let mut params: Vec<Value> =
            regions.iter().chain([&racy]).map(|&a| Value(a as u32)).collect();
        params.extend([Value(7), Value(0x1005), Value(1.0f32.to_bits())]);

        let mut e = Emit::new(input as u32);
        e.stmts(&self.body);
        let n = e.pool.len();
        let b = &mut e.b;
        let acc = b.xor(e.pool[n - 1], e.pool[n - 2]);
        let off = b.imad(e.blin, 1024u32, e.own);
        let out = b.param(0);
        let addr = b.iadd(out, off);
        b.store(MemSpace::Global, addr, acc, 0);
        let launch = LaunchConfig::new(self.grid, self.block).with_params(params);
        Fixture { name: "random", ck: compile(e.b.finish()), launch, memory }
    }
}

/// Runs `property` on the recipes of seeds `0..cases`. A failing case
/// prints its seed and recipe, then fails the caller.
pub fn check(cases: u64, footprint: Footprint, mut property: impl FnMut(&Recipe)) {
    for seed in 0..cases {
        let recipe = Recipe::draw(seed, footprint);
        if let Err(cause) = panic::catch_unwind(AssertUnwindSafe(|| property(&recipe))) {
            eprintln!("random program {seed} ({footprint:?}) failed: {recipe:?}");
            panic::resume_unwind(cause);
        }
    }
}

struct Draw {
    rng: SmallRng,
    footprint: Footprint,
    budget: u32,
}

impl Draw {
    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.rng.gen_range(0..xs.len())]
    }

    fn ix(&mut self) -> u8 {
        self.rng.gen_range(0..=255)
    }

    /// Mostly small operands, sometimes any bits (floats, negatives).
    fn imm(&mut self) -> u32 {
        if self.rng.gen_range(0..4) == 0 {
            self.rng.gen_range(0..=u32::MAX)
        } else {
            self.rng.gen_range(0..64)
        }
    }

    fn binary_op(&mut self) -> Op {
        loop {
            let op = self.pick(&Op::ALU);
            if op.num_srcs() == 2 {
                return op;
            }
        }
    }

    /// A global address of the footprint, or a load address of `space`.
    fn addr(&mut self, space: MemSpace, load: bool) -> Addr {
        if space == MemSpace::Global && self.footprint == Footprint::BlockAffine {
            return Addr::Affine {
                bs_x: self.pick(&[0, 8, 16, 32]),
                bs_y: self.pick(&[0, 8, 32]),
                ts: self.rng.gen_range(0..3),
                c: self.rng.gen_range(0..8),
                masked: self.rng.gen_range(0..100) < 15,
            };
        }
        if load && self.rng.gen_range(0..2) == 0 {
            Addr::Imm(self.rng.gen_range(0..256))
        } else {
            Addr::Reg(self.ix())
        }
    }

    fn body(&mut self, n: usize, depth: u32) -> Vec<Stmt> {
        let mut body = Vec::new();
        while body.len() < n && self.budget > 0 {
            self.budget -= 1;
            body.push(self.stmt(depth));
        }
        body
    }

    fn stmt(&mut self, depth: u32) -> Stmt {
        let nested = if depth > 0 { 3 } else { 0 };
        match self.rng.gen_range(0..25 + nested) {
            0..=7 => Stmt::Alu(self.pick(&Op::ALU), [self.ix(), self.ix(), self.ix()]),
            8..=9 => Stmt::AluImm(self.binary_op(), self.ix(), self.imm()),
            10 => Stmt::Update(self.binary_op(), self.ix(), self.ix()),
            11 => Stmt::Special(self.pick(&SpecialReg::ALL)),
            12..=13 => Stmt::Select {
                cmp: self.pick(&CmpOp::ALL),
                float: self.rng.gen_range(0..2) == 0,
                a: self.ix(),
                b: self.ix(),
                x: self.ix(),
                y: self.ix(),
            },
            14..=17 => {
                let space = self.pick(&MemSpace::ALL);
                Stmt::Load(space, self.addr(space, true))
            }
            18..=19 => Stmt::Store(self.addr(MemSpace::Global, false), self.ix()),
            20 => {
                Stmt::Atom(self.pick(&AtomOp::ALL), self.addr(MemSpace::Global, false), self.ix())
            }
            21..=22 => Stmt::Share(self.ix()),
            23..=24 => Stmt::Barrier,
            25..=26 => {
                let n = self.rng.gen_range(1..=4);
                Stmt::If(self.ix(), self.body(n, depth - 1))
            }
            _ => {
                let n = self.rng.gen_range(1..=4);
                Stmt::Loop(self.rng.gen_range(1..=3), self.body(n, depth - 1))
            }
        }
    }
}

/// The kernel under construction: the pool, the rotating predicates
/// and the prologue's registers.
struct Emit {
    b: KernelBuilder,
    pool: Vec<Reg>,
    preds: [Pred; 4],
    next_pred: usize,
    divergent: bool,
    input: u32,
    /// Linear block index.
    blin: Reg,
    /// Byte offset of the linear thread index.
    own: Reg,
    input_base: Reg,
    scatter: Reg,
    atoms: Reg,
    racy: Reg,
}

impl Emit {
    fn new(input: u32) -> Emit {
        use SpecialReg::{CtaidX, CtaidY, LaneId, NctaidX, TidX, TidY, WarpId};
        let mut b = KernelBuilder::new("random");
        let [tx, ty, w, lane, cx, cy, nx] =
            [TidX, TidY, WarpId, LaneId, CtaidX, CtaidY, NctaidX].map(|s| b.special(s));
        let blin = b.imad(cy, nx, cx);
        let lin = b.imad(w, 32u32, lane);
        let own = b.shl_imm(lin, 2);
        let input_base = b.param(1);
        let [scatter, atoms] = [2, 3].map(|i| {
            let p = b.param(i);
            b.imad(blin, 1024u32, p)
        });
        let racy = b.param(4);
        let pool = vec![tx, ty, w, cx, b.param(5), b.param(7)];
        let preds = [(); 4].map(|()| b.alloc_pred());
        b.alloc_shared(1024);
        Emit {
            b,
            pool,
            preds,
            next_pred: 0,
            divergent: false,
            input,
            blin,
            own,
            input_base,
            scatter,
            atoms,
            racy,
        }
    }

    fn pick(&self, i: u8) -> Reg {
        self.pool[usize::from(i) % self.pool.len()]
    }

    fn pred(&mut self) -> Pred {
        self.next_pred += 1;
        self.preds[self.next_pred % self.preds.len()]
    }

    fn push(&mut self, op: Op, srcs: [Operand; 3]) {
        let d = self.b.alloc();
        self.b.emit_to(d, op, srcs[..op.num_srcs()].to_vec());
        self.pool.push(d);
    }

    /// The byte offset of `addr` inside a region of `mask + 1` words.
    fn offset(&mut self, addr: Addr, mask: u32) -> Operand {
        match addr {
            Addr::Imm(k) => Operand::Imm(4 * (k & mask)),
            Addr::Reg(i) => self.b.and(self.pick(i), mask << 2).into(),
            Addr::Affine { bs_x, bs_y, ts, c, masked } => {
                let b = &mut self.b;
                let [cx, cy, tx] = [SpecialReg::CtaidX, SpecialReg::CtaidY, SpecialReg::TidX]
                    .map(|s| b.special(s));
                let (bx, by, tt) = (b.imul(cx, bs_x), b.imul(cy, bs_y), b.imul(tx, ts));
                let s = b.iadd(bx, by);
                let s = b.iadd(s, tt);
                let mut word = b.iadd(s, c);
                if masked {
                    word = b.and(word, 255u32);
                }
                b.shl_imm(word, 2).into()
            }
        }
    }

    /// The global address of `addr`: a block-affine one in `racy`, any
    /// other at its offset in the region at `own`, with that offset,
    /// from which colliding threads derive one stored value.
    fn global(&mut self, addr: Addr, own: Reg, mask: u32) -> (Reg, Option<Operand>) {
        let off = self.offset(addr, mask);
        match addr {
            Addr::Affine { .. } => (self.b.iadd(self.racy, off), None),
            _ => (self.b.iadd(own, off), Some(off)),
        }
    }

    fn stmts(&mut self, body: &[Stmt]) {
        for s in body {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match *s {
            Stmt::Alu(op, ix) => self.push(op, ix.map(|i| self.pick(i).into())),
            Stmt::AluImm(op, i, imm) => {
                self.push(op, [self.pick(i).into(), Operand::Imm(imm), Operand::Imm(imm)]);
            }
            Stmt::Update(op, d, i) => {
                let (d, src) = (self.pick(d), self.pick(i));
                self.b.emit_to(d, op, [d.into(), src.into(), src.into()][..op.num_srcs()].to_vec());
            }
            Stmt::Special(sr) => {
                let r = self.b.special(sr);
                self.pool.push(r);
            }
            Stmt::Select { cmp, float, a, b, x, y } => {
                let p = self.pred();
                let op = if float { Op::SetpF(cmp) } else { Op::Setp(cmp) };
                let srcs = vec![self.pick(a).into(), self.pick(b).into()];
                self.b.emit(Instruction::new(op, None, Some(p), srcs));
                let r = self.b.sel(p, self.pick(x), self.pick(y));
                self.pool.push(r);
            }
            Stmt::Load(space, addr) => {
                let r = match (space, addr) {
                    (MemSpace::Global, Addr::Imm(k)) => {
                        let at = self.input + 4 * (k & 255);
                        self.b.load(space, Operand::Imm(at), 0)
                    }
                    (MemSpace::Global, _) => {
                        let (at, _) = self.global(addr, self.input_base, 255);
                        self.b.load(space, at, 0)
                    }
                    (_, _) => {
                        let off = self.offset(addr, if space == MemSpace::Param { 7 } else { 255 });
                        self.b.load(space, off, 0)
                    }
                };
                self.pool.push(r);
            }
            Stmt::Store(addr, v) => {
                let (at, off) = self.global(addr, self.scatter, 255);
                let val = match off {
                    Some(off) => self.b.xor(off, 0x5Au32),
                    None => self.pick(v),
                };
                self.b.store(MemSpace::Global, at, val, 0);
            }
            Stmt::Atom(op, addr, v) => {
                let (at, off) = self.global(addr, self.atoms, 63);
                let val = match off {
                    Some(off) if op == AtomOp::Exch => self.b.xor(off, 0x5Au32),
                    _ => self.pick(v),
                };
                // Each op has its own 64 words of the block's `atoms`.
                let words = if off.is_some() { 256 * op as i32 } else { 0 };
                let old = self.b.alloc();
                let srcs = vec![at.into(), val.into()];
                self.b
                    .emit(Instruction::new(Op::Atom(op), Some(old), None, srcs).with_offset(words));
            }
            Stmt::Share(v) if !self.divergent => {
                self.b.barrier();
                self.b.store(MemSpace::Shared, self.own, self.pick(v), 0);
                self.b.barrier();
            }
            Stmt::Barrier if !self.divergent => self.b.barrier(),
            Stmt::Share(_) | Stmt::Barrier => {}
            Stmt::If(c, ref body) => {
                let m = self.b.and(self.pick(c), 3u32);
                let p = self.pred();
                self.b.setp_to(p, CmpOp::Eq, m, 1u32);
                let skip = self.b.branch_fwd(Some(Guard { pred: p, negate: true }));
                let outer = std::mem::replace(&mut self.divergent, true);
                self.stmts(body);
                self.divergent = outer;
                self.b.patch_here(skip);
            }
            Stmt::Loop(trips, ref body) => {
                let i = self.b.mov(0u32);
                let top = self.b.here();
                self.stmts(body);
                self.b.iadd_to(i, i, 1u32);
                let p = self.pred();
                self.b.setp_to(p, CmpOp::Lt, i, u32::from(trips));
                self.b.branch_back_if(top, Guard::if_true(p));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_compiler::Red;
    use std::collections::BTreeSet;

    /// The 24 race-free draws that every race-free property runs hit
    /// every opcode, atomic, load space and address form, both store
    /// spaces, every block dimensionality, a multi-block grid, a barrier,
    /// a loop and a divergent if, so the generator cannot silently shrink.
    #[test]
    fn the_smallest_case_count_covers_the_isa() {
        let mut seen = BTreeSet::new();
        for seed in 0..24 {
            let r = Recipe::draw(seed, Footprint::RaceFree);
            let ck = r.build().ck;
            let dims = 1 + u32::from(r.block.y > 1) + u32::from(r.block.z > 1);
            seen.insert(format!("{dims}D-block"));
            if r.grid.count() > 1 {
                seen.insert("multi-block-grid".into());
            }
            for (pc, i) in ck.kernel.instrs.iter().enumerate() {
                seen.insert(match i.op {
                    Op::S2R(_) => "s2r".into(),
                    Op::Setp(_) => "setp".into(),
                    Op::SetpF(_) => "setp.f32".into(),
                    Op::Sel(_) => "sel".into(),
                    Op::Ld(s) => match i.srcs[0] {
                        Operand::Imm(_) => format!("ld.{s} imm"),
                        Operand::Reg(_) => format!("ld.{s} reg"),
                    },
                    Op::Bra { target } if target <= pc => "loop".into(),
                    Op::Bra { .. } if ck.classes[pc].red != Red::Redundant => "divergent-if".into(),
                    op => op.mnemonic(),
                });
            }
        }
        let named = "st.global st.shared s2r setp setp.f32 sel bar.sync exit loop divergent-if \
                     1D-block 2D-block 3D-block multi-block-grid";
        let wanted = named.split_whitespace().map(String::from).chain(Op::ALU.map(Op::mnemonic));
        let wanted = wanted.chain(AtomOp::ALL.map(|a| format!("atom.{a}"))).chain(
            MemSpace::ALL.iter().flat_map(|s| [format!("ld.{s} imm"), format!("ld.{s} reg")]),
        );
        let missing: Vec<String> = wanted.filter(|w| !seen.contains(w)).collect();
        assert!(missing.is_empty(), "24 draws never emit {missing:?}");
    }
}
