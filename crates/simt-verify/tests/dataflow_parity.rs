//! Parity of the def-before-use and dead-write lints against the
//! bitset formulation they replaced.
//!
//! `dataflow::check` reads V001, V002 and V004 off the compiler's one
//! reaching-definitions solve (`simt_compiler::ReachingDefs`) and V003
//! off the CFG's stored reachability. The reference below is the
//! formulation it replaced: a forward must/may-initialization fixpoint
//! over register and predicate bitsets (V001 where no path may define a
//! read slot, V002 where some path may but not every path must), a
//! whole-CFG reachability walk (V003) and a backward liveness fixpoint
//! (V004 where a write's slot is dead after it). Both must report the same
//! diagnostics in the same order on the catalog at both scales, the 3D
//! extension, every fixture list and `CASES` random programs.
//!
//! Random programs are drawn race-free and block-affine by turns. Each is
//! also checked with one write redirected to a fresh register, which
//! strands that write's readers: the drawn programs alone rarely read a
//! register no path defines. The test counts the draws in which V001,
//! V002 and V004 fire and asserts that each does.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simt_compiler::cfg::{postorder, reach};
use simt_compiler::{compile, CompiledKernel};
use simt_isa::{Instruction, Op, Operand, Reg};
use simt_verify::{dataflow, Diagnostic, Diagnostics, LintCode};
use workloads::random::{Footprint, Recipe};
use workloads::{catalog, ext_3d, fixtures, Scale};

/// Random programs checked.
const CASES: u64 = 256;

/// Dense bitset over `regs + preds` slots.
#[derive(Clone, PartialEq, Eq)]
struct Bits(Vec<u64>);

impl Bits {
    fn empty(n: usize) -> Bits {
        Bits(vec![0; n.div_ceil(64)])
    }
    fn full(n: usize) -> Bits {
        let mut b = Bits(vec![u64::MAX; n.div_ceil(64)]);
        let tail = n % 64;
        if tail != 0 {
            if let Some(last) = b.0.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
        b
    }
    fn get(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }
    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }
    fn and_with(&mut self, other: &Bits) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a &= b;
        }
    }
    fn or_with(&mut self, other: &Bits) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }
}

/// The slots `instr` reads (registers, then predicates at `nregs + p`)
/// and writes, each write with whether it is guarded (may-only, kills
/// nothing).
fn access(instr: &Instruction, nregs: usize) -> (Vec<usize>, Vec<(usize, bool)>) {
    let mut reads: Vec<usize> = instr.src_regs().map(|r| usize::from(r.0)).collect();
    reads.extend(instr.guard.map(|g| nregs + usize::from(g.pred.0)));
    if let Op::Sel(p) = instr.op {
        reads.push(nregs + usize::from(p.0));
    }
    let guarded = instr.guard.is_some();
    let mut defs: Vec<(usize, bool)> =
        instr.dst.map(|d| (usize::from(d.0), guarded)).into_iter().collect();
    defs.extend(instr.pdst.map(|p| (nregs + usize::from(p.0), guarded)));
    (reads, defs)
}

fn slot_name(slot: usize, nregs: usize) -> String {
    if slot < nregs {
        format!("R{slot}")
    } else {
        format!("P{}", slot - nregs)
    }
}

/// The bitset must/may-initialization and liveness formulation.
fn reference(ck: &CompiledKernel) -> Diagnostics {
    let (kernel, cfg) = (&ck.kernel, &ck.cfg);
    let nregs = usize::from(kernel.num_regs);
    let n = nregs + usize::from(simt_isa::reg::NUM_PREDS);
    let nblocks = cfg.blocks.len();
    let mut report = Diagnostics::new(kernel.name.clone());

    let reachable = reach(nblocks, [0], |b| cfg.blocks[b].succs.iter().copied(), |_| false);
    for (b, block) in cfg.blocks.iter().enumerate() {
        if !reachable[b] && !block.is_empty() {
            report.push(Diagnostic::new(
                LintCode::UnreachableBlock,
                Some(block.start),
                format!(
                    "block {} (instructions {}..{}) is unreachable from the kernel entry",
                    b, block.start, block.end
                ),
            ));
        }
    }

    // Forward must/may-initialization.
    let mut rpo = postorder(nblocks, 0, |b| cfg.blocks[b].succs.iter().copied());
    rpo.reverse();
    let mut out_must: Vec<Bits> = vec![Bits::full(n); nblocks];
    let mut out_may: Vec<Bits> = vec![Bits::empty(n); nblocks];
    let block_in = |b: usize, out_must: &[Bits], out_may: &[Bits]| {
        let mut in_must = Bits::full(n);
        let mut in_may = Bits::empty(n);
        for &p in cfg.blocks[b].preds.iter().filter(|&&p| reachable[p]) {
            in_must.and_with(&out_must[p]);
            in_may.or_with(&out_may[p]);
        }
        if b == 0 {
            // The entry has no initialized state even if a back edge
            // targets instruction 0.
            in_must = Bits::empty(n);
        }
        (in_must, in_may)
    };
    let apply_defs = |defs: &[(usize, bool)], must: &mut Bits, may: &mut Bits| {
        for &(slot, guarded) in defs {
            may.set(slot);
            if !guarded {
                must.set(slot);
            }
        }
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &rpo {
            let (mut must, mut may) = block_in(b, &out_must, &out_may);
            for pc in cfg.blocks[b].range() {
                apply_defs(&access(&kernel.instrs[pc], nregs).1, &mut must, &mut may);
            }
            if must != out_must[b] || may != out_may[b] {
                (out_must[b], out_may[b]) = (must, may);
                changed = true;
            }
        }
    }
    for &b in &rpo {
        let (mut must, mut may) = block_in(b, &out_must, &out_may);
        for pc in cfg.blocks[b].range() {
            let (reads, defs) = access(&kernel.instrs[pc], nregs);
            for slot in reads {
                let (code, paths) = if !may.get(slot) {
                    (LintCode::UninitRead, "no path")
                } else if !must.get(slot) {
                    (LintCode::MaybeUninitRead, "only some paths")
                } else {
                    continue;
                };
                report.push(Diagnostic::new(
                    code,
                    Some(pc),
                    format!(
                        "{} is read by `{}` but {paths} from entry defines it",
                        slot_name(slot, nregs),
                        kernel.instrs[pc]
                    ),
                ));
            }
            apply_defs(&defs, &mut must, &mut may);
        }
    }

    // Backward liveness: the live-out set of `b`, then its live-in set.
    let mut in_live: Vec<Bits> = vec![Bits::empty(n); nblocks];
    let live_out = |b: usize, in_live: &[Bits]| {
        let mut live = Bits::empty(n);
        for &s in &cfg.blocks[b].succs {
            live.or_with(&in_live[s]);
        }
        live
    };
    let step_back = |pc: usize, live: &mut Bits| {
        let (reads, defs) = access(&kernel.instrs[pc], nregs);
        for (slot, guarded) in defs {
            if !guarded {
                live.clear(slot);
            }
        }
        for slot in reads {
            live.set(slot);
        }
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().rev() {
            let mut live = live_out(b, &in_live);
            for pc in cfg.blocks[b].range().rev() {
                step_back(pc, &mut live);
            }
            if live != in_live[b] {
                in_live[b] = live;
                changed = true;
            }
        }
    }
    for &b in &rpo {
        let mut live = live_out(b, &in_live);
        let mut dead: Vec<(usize, usize)> = Vec::new();
        for pc in cfg.blocks[b].range().rev() {
            if !matches!(kernel.instrs[pc].op, Op::Atom(_)) {
                let defs = access(&kernel.instrs[pc], nregs).1;
                dead.extend(defs.iter().filter(|d| !live.get(d.0)).map(|d| (pc, d.0)));
            }
            step_back(pc, &mut live);
        }
        dead.sort_unstable();
        for (pc, slot) in dead {
            report.push(Diagnostic::new(
                LintCode::DeadWrite,
                Some(pc),
                format!(
                    "{} written by `{}` is never observed on any path",
                    slot_name(slot, nregs),
                    kernel.instrs[pc]
                ),
            ));
        }
    }
    report
}

/// Asserts parity on `ck`; returns which of V001, V002 and V004 fired.
fn assert_parity(what: &str, ck: &CompiledKernel) -> [bool; 3] {
    let (got, want) = (dataflow::check(ck), reference(ck));
    assert_eq!(got.items, want.items, "{what}:\n{}\nreference:\n{}", got.render(), want.render());
    [LintCode::UninitRead, LintCode::MaybeUninitRead, LintCode::DeadWrite]
        .map(|c| !got.with_code(c).is_empty())
}

/// `kernel` with one register write, drawn by `rng`, redirected to a
/// fresh register.
fn strand_one_write(ck: &CompiledKernel, rng: &mut SmallRng) -> Option<CompiledKernel> {
    let mut kernel = ck.kernel.clone();
    let writes: Vec<usize> =
        (0..kernel.len()).filter(|&pc| kernel.instrs[pc].dst.is_some()).collect();
    let pc = writes[rng.gen_range(0..writes.len())];
    let fresh = Reg(u8::try_from(kernel.num_regs).ok()?);
    kernel.instrs[pc] = Instruction::new(Op::Mov, Some(fresh), None, vec![Operand::Imm(0)]);
    kernel.num_regs += 1;
    Some(compile(kernel))
}

#[test]
fn catalog_and_fixtures_match_the_bitset_formulation() {
    for scale in [Scale::Test, Scale::Eval] {
        for w in catalog(scale) {
            assert_parity(w.abbr, &w.ck);
        }
    }
    for analyze_tid_y in [false, true] {
        assert_parity("volume_blend", &ext_3d::volume_blend(Scale::Test, analyze_tid_y).ck);
    }
    let lists = [
        fixtures::racy(),
        fixtures::blocks(),
        fixtures::perf(),
        fixtures::refinement(),
        fixtures::cost(),
        fixtures::symex(),
    ];
    for fx in lists.iter().flatten() {
        assert_parity(fx.name, &fx.ck);
    }
}

#[test]
fn random_programs_match_the_bitset_formulation() {
    let mut fired = [0u32; 3];
    for case in 0..CASES {
        let footprint = if case % 2 == 0 { Footprint::RaceFree } else { Footprint::BlockAffine };
        let ck = Recipe::draw(case, footprint).build().ck;
        let mut seen = assert_parity(&format!("case {case}"), &ck);
        let mut rng = SmallRng::seed_from_u64(case);
        if let Some(stranded) = strand_one_write(&ck, &mut rng) {
            let more = assert_parity(&format!("case {case}, one write stranded"), &stranded);
            seen = [0, 1, 2].map(|i| seen[i] || more[i]);
        }
        for (count, hit) in fired.iter_mut().zip(seen) {
            *count += u32::from(hit);
        }
    }
    assert!(!fired.contains(&0), "V001, V002 and V004 fired in {fired:?} draws");
}
