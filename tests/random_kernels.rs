//! Property-based soundness over the one random-program generator,
//! `workloads::random`, on race-free draws: every elimination technique
//! leaves the baseline's architected state and conserves instructions
//! one for one, the profiler's slot identity holds, and no marking claims
//! more redundancy than the executed values show.

use gpu_sim::{Gpu, GpuConfig, Technique};
use simt_isa::{Dim3, Marking, MemSpace, Op};
use workloads::fixtures::Fixture;
use workloads::random::{check, Addr, Footprint, Recipe, Stmt};

/// Cases per property.
const CASES: u64 = 24;

/// The static analysis is sound: every instruction the compiler marks
/// skippable under the launch is, per the value-level oracle, TB-redundant
/// in every occurrence the runtime would skip (all warps at the pc,
/// aligned and fully active).
fn static_markings_sound(r: &Recipe) {
    let fx = r.build();
    let plan = simt_compiler::LaunchPlan::new(&fx.ck, &fx.launch);
    let (trace, _) = gpu_sim::trace_redundancy(&fx.ck, &fx.launch, fx.memory);
    for (pc, _) in plan.skippable.iter().enumerate().filter(|(_, &s)| s) {
        let bad = trace.per_pc_aligned_mismatch.get(&pc).copied().unwrap_or(0);
        assert_eq!(bad, 0, "pc {pc} ({}) is skippable but disagreed", fx.ck.kernel.instrs[pc]);
    }
}

/// Launch-time finalization never upgrades an instruction past what the
/// oracle accepts: under the drawn block and under a promoting 2D, an
/// unpromoted 1D and a 3D block, the oracle finds nothing at all.
fn finalize_within_the_oracle(r: &Recipe) {
    for block in [r.block, Dim3::two_d(16, 16), Dim3::one_d(256), Dim3::three_d(8, 4, 4)] {
        let fx = Recipe { block, ..r.clone() }.build();
        let report = simt_verify::oracle::check(&fx.ck, &fx.launch, fx.memory);
        assert!(report.items.is_empty(), "oracle findings under {block:?}:\n{}", report.render());
    }
}

/// Without promotion every conditionally redundant marking collapses:
/// nothing CR-marked stays skippable or finalizes to a redundant class.
fn cr_markings_collapse(r: &Recipe) {
    let fx = r.build();
    for block in [Dim3::one_d(256), Dim3::two_d(12, 12)] {
        let launch = simt_isa::LaunchConfig { block, ..fx.launch.clone() };
        assert!(!launch.promotes_conditional_redundancy());
        let plan = simt_compiler::LaunchPlan::new(&fx.ck, &launch);
        for (pc, &m) in fx.ck.markings.iter().enumerate() {
            if m == Marking::ConditionallyRedundant {
                let i = &fx.ck.kernel.instrs[pc];
                assert!(!plan.skippable[pc], "CR pc {pc} ({i}) stayed skippable under {block:?}");
                assert!(!plan.final_class[pc].taxonomy().is_redundant(), "CR pc {pc} ({i})");
            }
        }
    }
}

/// Final memory fingerprint, executed and eliminated instructions.
fn run(fx: &Fixture, tech: Technique) -> (u64, u64, u64) {
    let r = Gpu::new(GpuConfig::test_small(), tech).launch(&fx.ck, &fx.launch, fx.memory.clone());
    let eliminated = r.stats.instrs_skipped.total() + r.stats.instrs_reused.total();
    (r.memory.fingerprint(), r.stats.instrs_executed, eliminated)
}

fn techniques_match_baseline(r: &Recipe) {
    let fx = r.build();
    let (base_fp, base_exec, _) = run(&fx, Technique::Base);
    for tech in [Technique::darsie(), Technique::DacIdeal, Technique::Uv] {
        let (fp, exec, elim) = run(&fx, tech.clone());
        assert_eq!(fp, base_fp, "memory diverged under {}", tech.label());
        assert_eq!(exec + elim, base_exec, "conservation failed under {}", tech.label());
    }
}

/// Each SM attributes every issue slot of every cycle to one cause, and
/// the issued slots equal the instructions executed or reused.
fn profile_identity_holds(r: &Recipe) {
    let fx = r.build();
    for tech in [Technique::Base, Technique::darsie(), Technique::Uv] {
        let cfg = GpuConfig { profile: true, ..GpuConfig::test_small() };
        let res = Gpu::new(cfg, tech.clone()).launch(&fx.ck, &fx.launch, fx.memory.clone());
        let prof = res.profile.as_ref().expect("profiling enabled");
        for sm in &prof.sms {
            assert_eq!(sm.check_identity(), Ok(()), "slot accounting under {}", tech.label());
        }
        assert_eq!(
            prof.slots().get(gpu_sim::StallCause::Issued),
            res.stats.instrs_executed + res.stats.instrs_reused.total(),
            "issued slots != executed + reused under {}",
            tech.label()
        );
    }
}

/// Each property as a test over `CASES` race-free draws, and
/// `all_properties` running every one of them on one recipe.
macro_rules! properties {
    ($($test:ident: $property:ident,)*) => {
        $(#[test]
        fn $test() {
            check(CASES, Footprint::RaceFree, $property);
        })*

        fn all_properties(r: &Recipe) {
            $($property(r);)*
        }
    };
}

properties! {
    static_markings_sound_on_random_kernels: static_markings_sound,
    finalize_never_upgrades_past_the_oracle: finalize_within_the_oracle,
    conditional_markings_collapse_without_promotion: cr_markings_collapse,
    techniques_match_baseline_on_random_kernels: techniques_match_baseline,
    profile_identity_holds_on_random_kernels: profile_identity_holds,
}

fn load(i: u8) -> Stmt {
    Stmt::Load(MemSpace::Global, Addr::Reg(i))
}

fn store(a: u8, v: u8) -> Stmt {
    Stmt::Store(Addr::Reg(a), v)
}

fn alu(op: Op, a: u8, b: u8) -> Stmt {
    Stmt::Alu(op, [a, b, 0])
}

/// Two recorded failures of an earlier generator, as recipes on its
/// launch (two 16×16 blocks): a loop around a divergent load-and-add, and
/// stores, loads and barriers in nested ifs and loops.
#[test]
fn recorded_case_loop_around_divergent_loads() {
    use Op::{IAdd, ISub, Shl};
    use Stmt::{If, Loop};
    let body = vec![
        Loop(1, vec![If(0, vec![load(10), alu(IAdd, 122, 209), alu(IAdd, 87, 130)])]),
        If(59, vec![store(88, 197), load(24)]),
        Loop(3, vec![Stmt::Barrier, load(100)]),
        If(85, vec![alu(Shl, 236, 218), store(0, 204), store(229, 157), alu(ISub, 209, 231)]),
    ];
    all_properties(&Recipe { grid: Dim3::one_d(2), block: Dim3::two_d(16, 16), body });
}

#[test]
fn recorded_case_nested_ifs_with_barriers() {
    use Op::{IAdd, IMul, ISub, Shl, Xor};
    use Stmt::{AluImm, Barrier, If, Loop};
    let inner = vec![alu(ISub, 127, 145), load(216), AluImm(Xor, 50, 11), Barrier];
    let trips = vec![AluImm(IMul, 111, 59), AluImm(ISub, 76, 0)];
    let outer = vec![alu(Shl, 165, 70), If(229, inner), store(190, 158), Loop(3, trips)];
    let body = vec![
        If(0, vec![If(0, vec![AluImm(IAdd, 0, 6)])]),
        If(239, outer),
        If(222, vec![Loop(1, vec![alu(Xor, 109, 96)])]),
        If(106, vec![Barrier, load(65)]),
    ];
    all_properties(&Recipe { grid: Dim3::one_d(2), block: Dim3::two_d(16, 16), body });
}
