//! Properties over the one random-program generator, `workloads::random`.
//!
//! On race-free draws: refinement only raises classes, refined markings
//! survive the marking oracle, and at every pc the affine flow admits
//! the value every thread wrote. On block-affine draws, whose blocks race
//! on purpose: the block-independence certifier agrees with a replay
//! under the global shadow sanitizer, and a certified launch ends in the
//! same memory whichever order its blocks replay in.

use gpu_sim::{
    ctaid_at, replay_grid, run_tb_functional, FunctionalObserver, GlobalRaceSanitizer, LaneAddrs,
    NullObserver, Warp,
};
use simt_compiler::affine::{Clamps, Flow, GridCtx};
use simt_compiler::trip::{induction_clamps, infer_trips};
use simt_compiler::{refine, Affine, AffineVal};
use simt_compiler::{NEG_INF, POS_INF};
use simt_isa::{Dim3, Instruction};
use simt_verify::blocks::{self, BlockIndependence};
use simt_verify::{oracle, LintCode};
use std::collections::HashMap;
use workloads::fixtures::Fixture;
use workloads::random::{check, Footprint};

/// Cases per property.
const CASES: u64 = 48;

#[test]
fn refinement_is_pointwise_monotone() {
    check(CASES, Footprint::RaceFree, |r| {
        let ck = r.build().ck;
        let refined = refine(&ck, r.block.z);
        for (pc, (base, up)) in ck.classes.iter().zip(&refined.ck.classes).enumerate() {
            assert!(up.red >= base.red && up.pat >= base.pat, "pc {pc}: {base:?} -> {up:?}");
        }
        for u in &refined.upgrades {
            assert!(u.to.red > u.from.red || u.to.pat > u.from.pat, "pc {}: no raise", u.pc);
        }
    });
}

#[test]
fn refined_markings_survive_the_oracle() {
    check(CASES, Footprint::RaceFree, |r| {
        let fx = r.build();
        let refined = refine(&fx.ck, r.block.z);
        let report = oracle::check(&refined.ck, &fx.launch, fx.memory);
        assert!(report.is_clean(), "oracle rejected refined markings:\n{}", report.render());
    });
}

/// `word`'s constant once `f`'s coordinate terms for thread `t` of block
/// `c` are taken off, modulo 2^32: the executor's arithmetic wraps, the
/// domain's does not, and they agree modulo 2^32.
fn residual(f: Affine, t: (u32, u32), c: Dim3, word: u32) -> i128 {
    let terms = [(f.a, t.0), (f.b, t.1), (f.d, c.x), (f.e, c.y)];
    let coords: i128 = terms.iter().map(|&(k, x)| i128::from(k) * i128::from(x)).sum();
    (i128::from(word) - coords).rem_euclid(1 << 32)
}

/// True when some constant in `[lo, hi]` is `residual` modulo 2^32.
fn in_interval(f: Affine, residual: i128) -> bool {
    let (lo, hi) = (i128::from(f.lo), i128::from(f.hi));
    f.lo == NEG_INF || f.hi == POS_INF || (residual - lo).rem_euclid(1 << 32) <= hi - lo
}

/// Checks every register a thread writes against each flow's value for
/// the writing pc: its constant in the interval, and one constant per
/// dynamic instance (block, pc, occurrence) when the uniform bit is set.
struct FlowAdmits {
    /// Per flow, the value written at each pc (`None`: no destination).
    writes: Vec<Vec<Option<AffineVal>>>,
    block: Dim3,
    ctaid: Dim3,
    shared: HashMap<(usize, usize, u32), i128>,
}

impl FunctionalObserver for FlowAdmits {
    fn begin_block(&mut self, _block: u64, ctaid: Dim3) {
        self.ctaid = ctaid;
        self.shared.clear();
    }

    fn after_instruction(&mut self, _w: usize, pc: usize, occ: u32, i: &Instruction, warp: &Warp) {
        let Some(d) = i.dst else { return };
        for (f, writes) in self.writes.iter().enumerate() {
            let aff = match writes[pc] {
                Some(AffineVal::Aff(aff)) => aff,
                Some(AffineVal::Unknown) => continue,
                v => panic!("flow {f} writes {v:?} at executed pc {pc} ({i})"),
            };
            let mask = warp.active_mask();
            for lane in (0..32).filter(|l| mask >> l & 1 == 1) {
                let t = warp.warp_in_tb * 32 + lane;
                let (tx, ty) = (t % self.block.x, t / self.block.x % self.block.y);
                let c = residual(aff, (tx, ty), self.ctaid, warp.reg(d, lane));
                let at = format!("flow {f}, pc {pc} ({i}), thread {t} of block {:?}", self.ctaid);
                assert!(in_interval(aff, c), "{at}: {aff:?} excludes {:#x}", warp.reg(d, lane));
                if aff.uniform {
                    let first = *self.shared.entry((f, pc, occ)).or_insert(c);
                    assert_eq!(first, c, "{at}: {aff:?} claims one constant per instance");
                }
            }
        }
    }
}

/// `affine_props.rs`'s `alu_transfer_admits_what_the_isa_computes`,
/// widened from one op to whole programs: the flows the analyses read
/// (launch-agnostic, launch-aware, and launch-aware under induction
/// clamps) admit every register value a replay of the launch writes.
#[test]
fn flow_admits_what_every_thread_computes() {
    check(CASES, Footprint::RaceFree, |r| {
        let mut fx = r.build();
        let (ck, launch) = (&fx.ck, &fx.launch);
        let solve = |ctx, clamps: &Clamps| Flow::solve(&ck.kernel, &ck.cfg, ctx, true, clamps);
        let mut flows = vec![
            solve(GridCtx::generic(launch.block.z), &Clamps::new()),
            solve(GridCtx::launch(launch), &Clamps::new()),
        ];
        let trips = infer_trips(&flows[1], launch);
        let clamps = induction_clamps(&flows[1], &trips, launch);
        flows.push(solve(GridCtx::launch(launch), &clamps));
        let writes = flows
            .iter()
            .map(|flow| {
                let mut w = vec![None; ck.kernel.instrs.len()];
                flow.replay(|pc, _, wrote| w[pc] = wrote);
                w
            })
            .collect();
        let (block, ctaid, shared) = (launch.block, Dim3::one_d(0), HashMap::new());
        let mut obs = FlowAdmits { writes, block, ctaid, shared };
        replay_grid(ck, launch, &mut fx.memory, &mut obs);
    });
}

// ---------------------------------------------------------------------
// Certifier vs. sanitizer, on block-affine draws.

/// Replays every block of the launch, in launch order or in reverse, and
/// returns the final global-memory fingerprint: an oracle for certified
/// launches that does not trust the shadow sanitizer's exemption rule.
fn replay_fingerprint(fx: &Fixture, reverse: bool) -> u64 {
    let (ck, launch, mut mem) = (&fx.ck, &fx.launch, fx.memory.clone());
    if reverse {
        for i in (0..launch.num_blocks()).rev() {
            run_tb_functional(ck, launch, ctaid_at(launch.grid, i), &mut mem, &mut NullObserver);
        }
    } else {
        replay_grid(ck, launch, &mut mem, &mut NullObserver);
    }
    mem.fingerprint()
}

/// Every `(pc, word, is_write)` the global accesses of one block
/// touched, straight from the executor.
struct Log(Vec<(usize, u64, bool)>);

impl FunctionalObserver for Log {
    fn global_access(&mut self, _: usize, pc: usize, _: u32, a: &LaneAddrs, st: bool, _: bool) {
        self.0.extend(a.iter().map(|(_, a)| (pc, a / 4, st)));
    }
}

/// Soundness: when the certifier says block replay order is unobservable
/// (or commutative-atomics-only), a whole replay under the shadow
/// sanitizer observes no inter-block race. Completeness of the definite
/// verdict: every `V310` witness reproduces against the executor, the
/// witnessed pc touching the witnessed word in each witnessed block with
/// a write on at least one side. (The raw access stream, not the
/// shadow's race list, is the reference: the last-writer shadow may
/// blame another pc pair when a same-block access rewrote the word.)
#[test]
fn certifier_matches_dynamic_sanitizer() {
    check(CASES, Footprint::BlockAffine, |r| {
        let fx = r.build();
        let (ck, launch) = (&fx.ck, &fx.launch);
        let (cert, report) = blocks::analyze(ck, launch);
        let label = cert.classification.label();
        if cert.classification != BlockIndependence::PotentiallyRacy {
            let mut gsan = GlobalRaceSanitizer::for_kernel(&ck.kernel);
            replay_grid(ck, launch, &mut fx.memory.clone(), &mut gsan);
            let races = gsan.races();
            assert!(races.is_empty(), "{label} but raced: {races:?}\n{}", report.render());
        }
        if !report.with_code(LintCode::InterBlockRace).is_empty() {
            let wit = cert.witness.expect("V310 must carry a witness");
            assert!(wit.block_a != wit.block_b, "witness blocks must differ");
            let word = u64::try_from(wit.word).expect("witness word is an address");
            let mut writes = 0usize;
            for (pc, block) in [(wit.pc_a, wit.block_a), (wit.pc_b, wit.block_b)] {
                let mut log = Log(Vec::new());
                run_tb_functional(ck, launch, block, &mut fx.memory.clone(), &mut log);
                let touched: Vec<_> = log.0.iter().filter(|a| a.0 == pc && a.1 == word).collect();
                assert!(!touched.is_empty(), "witness pc {pc} in {block:?} never touched {word}");
                writes += usize::from(touched.iter().any(|a| a.2));
            }
            assert!(writes > 0, "witnessed collision has no writing side");
        }
    });
}

/// The whole certification chain (static analysis, dynamic discharge and
/// the sanitizer's same-op commutative exemption) against an independent
/// oracle: a launch `blocks::certify` calls order-independent ends in
/// bit-identical memory replayed forward and in reverse. A too-permissive
/// exemption (`add` vs `max` commuting) shows up here as a mismatch.
#[test]
fn certified_launches_are_block_order_deterministic() {
    check(CASES, Footprint::BlockAffine, |r| {
        let fx = r.build();
        let (cert, _) = blocks::certify(&fx.ck, &fx.launch, fx.memory.clone());
        if cert.classification != BlockIndependence::PotentiallyRacy {
            let label = cert.classification.label();
            let (fwd, rev) = (replay_fingerprint(&fx, false), replay_fingerprint(&fx, true));
            assert_eq!(fwd, rev, "certified {label} but block order changed memory");
        }
    });
}
