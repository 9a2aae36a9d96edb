//! Property tests tying the refinement passes to the marking oracle:
//! on randomly generated structured kernels, refinement must only *raise*
//! classes (pointwise monotone over the baseline), and the refined
//! markings must survive the differential oracle under every launch shape
//! the catalog uses — including the promoting 2D blocks.

use gpu_sim::{
    ctaid_at, replay_grid, run_tb_functional, FunctionalObserver, GlobalMemory, GlobalRace,
    GlobalRaceSanitizer, LaneAddrs,
};
use proptest::prelude::*;
use simt_compiler::{compile, refine, CompiledKernel};
use simt_isa::{AtomOp, Dim3, KernelBuilder, LaunchConfig, MemSpace, SpecialReg, Value};
use simt_verify::blocks::{self, BlockIndependence};
use simt_verify::{oracle, LintCode};

mod common;
use common::{build, launches, memory_with_input, stmt_strategy};

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn refinement_is_pointwise_monotone(
        stmts in prop::collection::vec(stmt_strategy(), 1..12),
    ) {
        for block in launches() {
            let ck = build("random", &stmts, block);
            let refined = refine(&ck, block.z);
            for (pc, (base, up)) in
                ck.classes.iter().zip(refined.ck.classes.iter()).enumerate()
            {
                prop_assert!(
                    up.red >= base.red && up.pat >= base.pat,
                    "refinement lowered pc {pc}: {base:?} -> {up:?}",
                );
            }
            // Every reported upgrade must actually raise its class.
            for u in &refined.upgrades {
                prop_assert!(
                    u.to.red > u.from.red || u.to.pat > u.from.pat,
                    "upgrade at pc {} does not raise: {:?} -> {:?}",
                    u.pc, u.from, u.to,
                );
            }
        }
    }

    #[test]
    fn refined_markings_survive_the_oracle(
        stmts in prop::collection::vec(stmt_strategy(), 1..12),
        input in prop::collection::vec(0u32..1000, 64),
    ) {
        for block in launches() {
            let ck = build("random", &stmts, block);
            let refined = refine(&ck, block.z);
            let (memory, params) = memory_with_input(&input);
            let launch = LaunchConfig::new(1u32, block).with_params(params);
            let report = oracle::check(&refined.ck, &launch, memory);
            prop_assert!(
                report.is_clean(),
                "oracle rejected refined markings under {block:?}:\n{}",
                report.render(),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Certifier vs. sanitizer: the static inter-thread-block independence
// verdict is differentially validated against a dynamic replay of the
// whole launch under the global-memory shadow sanitizer.

/// One generated global access whose word index is the block-affine
/// expression `bs_x*ctaid.x + bs_y*ctaid.y + ts*tid.x + c`, optionally
/// masked (non-affine, exercising the conservative `V313` path).
#[derive(Debug, Clone, Copy)]
struct GAccess {
    /// 0 = store, 1 = `atom.add`, 2 = `atom.exch`, 3 = `atom.max`,
    /// 4 = `atom.min`, 5 = load. Distinct commutative ops exercise the
    /// mixed-op pairs (`add` vs `max`) that must NOT be exempted.
    kind: u8,
    bs_x: u32,
    bs_y: u32,
    ts: u32,
    c: u32,
    masked: bool,
}

fn gaccess_strategy() -> impl Strategy<Value = GAccess> {
    (
        0u8..6,
        prop_oneof![Just(0u32), Just(8), Just(16), Just(32)],
        prop_oneof![Just(0u32), Just(8), Just(32)],
        0u32..3,
        0u32..8,
        0u32..100,
    )
        .prop_map(|(kind, bs_x, bs_y, ts, c, m)| GAccess {
            kind,
            bs_x,
            bs_y,
            ts,
            c,
            masked: m < 15,
        })
}

/// Builds a multi-block kernel performing each generated access once.
fn build_blocky(accs: &[GAccess]) -> CompiledKernel {
    let mut b = KernelBuilder::new("blocky");
    let tx = b.special(SpecialReg::TidX);
    let cx = b.special(SpecialReg::CtaidX);
    let cy = b.special(SpecialReg::CtaidY);
    let out = b.param(0);
    for a in accs {
        let bx = b.imul(cx, a.bs_x);
        let by = b.imul(cy, a.bs_y);
        let tt = b.imul(tx, a.ts);
        let s1 = b.iadd(bx, by);
        let s2 = b.iadd(s1, tt);
        let mut lin = b.iadd(s2, a.c);
        if a.masked {
            lin = b.and(lin, 255);
        }
        let off = b.shl_imm(lin, 2);
        let addr = b.iadd(out, off);
        match a.kind {
            0 => b.store(MemSpace::Global, addr, tx, 0),
            1 => {
                b.atom(AtomOp::Add, addr, tx);
            }
            2 => {
                b.atom(AtomOp::Exch, addr, tx);
            }
            3 => {
                b.atom(AtomOp::Max, addr, tx);
            }
            4 => {
                b.atom(AtomOp::Min, addr, tx);
            }
            _ => {
                b.load(MemSpace::Global, addr, 0);
            }
        }
    }
    compile(b.finish())
}

/// Replays the launch under the global shadow sanitizer and returns the
/// observed inter-block races.
fn replay_races(
    ck: &CompiledKernel,
    launch: &LaunchConfig,
    mut mem: GlobalMemory,
) -> Vec<GlobalRace> {
    let mut gsan = GlobalRaceSanitizer::for_kernel(&ck.kernel);
    replay_grid(ck, launch, &mut mem, &mut gsan);
    gsan.races().to_vec()
}

/// Replays every block of `launch`, in launch order or in reverse, and
/// returns the final global-memory fingerprint — an oracle for certified
/// launches that is independent of the shadow sanitizer's exemption
/// rule.
fn replay_fingerprint(
    ck: &CompiledKernel,
    launch: &LaunchConfig,
    mut mem: GlobalMemory,
    reverse: bool,
) -> u64 {
    if reverse {
        for i in (0..launch.num_blocks()).rev() {
            let ctaid = ctaid_at(launch.grid, i);
            run_tb_functional(ck, launch, ctaid, &mut mem, &mut gpu_sim::NullObserver);
        }
    } else {
        replay_grid(ck, launch, &mut mem, &mut gpu_sim::NullObserver);
    }
    mem.fingerprint()
}

/// Replays one block and returns every `(pc, word, is_write)` its global
/// accesses touched, straight from the executor.
fn replay_accesses(
    ck: &CompiledKernel,
    launch: &LaunchConfig,
    mut mem: GlobalMemory,
    block: Dim3,
) -> Vec<(usize, u64, bool)> {
    struct Log(Vec<(usize, u64, bool)>);
    impl FunctionalObserver for Log {
        fn global_access(
            &mut self,
            _w: usize,
            pc: usize,
            _occurrence: u32,
            addrs: &LaneAddrs,
            is_store: bool,
            _is_atomic: bool,
        ) {
            self.0.extend(addrs.iter().map(|(_, a)| (pc, a / 4, is_store)));
        }
    }
    let mut log = Log(Vec::new());
    run_tb_functional(ck, launch, block, &mut mem, &mut log);
    log.0
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Soundness: when the certifier says block replay order is
    /// unobservable (or commutative-atomics-only), a full dynamic replay
    /// under the shadow sanitizer must observe zero inter-block races.
    /// Completeness of the definite verdict: every `V310` witness must
    /// reproduce against the executor — replaying each witnessed block
    /// shows the witnessed pc really touching the witnessed global word,
    /// with a write on at least one side. (The witness is checked against
    /// the raw access stream, not the shadow's race list: the last-writer
    /// shadow may attribute a collision to a different pc pair when a
    /// same-block access rewrote the word in between.)
    #[test]
    fn certifier_matches_dynamic_sanitizer(
        accs in prop::collection::vec(gaccess_strategy(), 1..4),
        gx in 2u32..=4,
        gy in 1u32..=2,
    ) {
        let ck = build_blocky(&accs);
        let mut mem = GlobalMemory::new();
        let base = mem.alloc(4096);
        let launch = LaunchConfig::new(Dim3::two_d(gx, gy), Dim3::one_d(16))
            .with_params(vec![Value(base as u32)]);
        let (cert, report) = blocks::analyze(&ck, &launch);

        if cert.classification != BlockIndependence::PotentiallyRacy {
            let races = replay_races(&ck, &launch, mem.clone());
            prop_assert!(
                races.is_empty(),
                "statically {} but dynamic replay raced: {races:?}\n{}",
                cert.classification.label(),
                report.render(),
            );
        }

        if !report.with_code(LintCode::InterBlockRace).is_empty() {
            let wit = cert.witness.expect("V310 must carry a witness");
            prop_assert!(wit.block_a != wit.block_b, "witness blocks must differ");
            let word = u64::try_from(wit.word).expect("witness word is an address");
            let mut writes = 0usize;
            for (pc, block) in [(wit.pc_a, wit.block_a), (wit.pc_b, wit.block_b)] {
                let accs = replay_accesses(&ck, &launch, mem.clone(), block);
                let touched: Vec<_> =
                    accs.iter().filter(|&&(p, w, _)| p == pc && w == word).collect();
                prop_assert!(
                    !touched.is_empty(),
                    "witness pc {pc} in block ({},{},{}) never touched word {word}",
                    block.x, block.y, block.z,
                );
                writes += usize::from(touched.iter().any(|&&(_, _, wr)| wr));
            }
            prop_assert!(writes > 0, "witnessed collision has no writing side");
        }
    }

    /// Independent oracle for the whole certification chain (static
    /// analysis + dynamic discharge + the sanitizer's same-op commutative
    /// exemption): when [`blocks::certify`] says block replay order is
    /// unobservable on final memory — Independent or
    /// CommutativeAtomicsOnly — replaying the blocks forward and in
    /// reverse must produce bit-identical final global memory. A
    /// too-permissive exemption (e.g. treating `add` vs `max` as
    /// commuting) shows up here as a fingerprint mismatch, without
    /// trusting the sanitizer's own race list.
    #[test]
    fn certified_launches_are_block_order_deterministic(
        accs in prop::collection::vec(gaccess_strategy(), 1..4),
        gx in 2u32..=4,
        gy in 1u32..=2,
    ) {
        let ck = build_blocky(&accs);
        let mut mem = GlobalMemory::new();
        let base = mem.alloc(4096);
        let launch = LaunchConfig::new(Dim3::two_d(gx, gy), Dim3::one_d(16))
            .with_params(vec![Value(base as u32)]);
        let (cert, _) = blocks::certify(&ck, &launch, mem.clone());
        if cert.classification != BlockIndependence::PotentiallyRacy {
            let fwd = replay_fingerprint(&ck, &launch, mem.clone(), false);
            let rev = replay_fingerprint(&ck, &launch, mem.clone(), true);
            prop_assert_eq!(
                fwd, rev,
                "certified {} but block replay order changed final global memory",
                cert.classification.label(),
            );
        }
    }
}
