//! Differential validation of the static cost model (`cost.rs`): the
//! measured simulator cycles of every catalog workload must fall inside
//! the static `[min, max]` bracket under both Base and DARSIE (zero
//! `E202`), the bracket must stay usefully tight on average, and the trip
//! inference behind it must agree with pinned fixture counts and with the
//! symbolic prover's `S402` verdicts on the loop fixtures.

use gpu_sim::{Gpu, GpuConfig, Technique};
use simt_isa::Value;
use simt_verify::cost::{check, estimate, validate};
use workloads::random::{self, Footprint};
use workloads::{catalog, fixtures, Scale};

/// Measured simulator cycles for one fixture under one technique.
fn measure(fx: &fixtures::Fixture, technique: &Technique) -> u64 {
    Gpu::new(GpuConfig::test_small(), technique.clone())
        .launch(&fx.ck, &fx.launch, fx.memory.clone())
        .stats
        .cycles
}

/// The trip verdicts of one fixture's loops, in loop-discovery order.
fn trips_of(fx: &fixtures::Fixture) -> Vec<Result<(u64, u64), String>> {
    let gc = GpuConfig::test_small();
    estimate(&fx.ck, &fx.launch, &gc, &Technique::Base).loops.into_iter().map(|l| l.trips).collect()
}

/// Every catalog workload, Base and DARSIE: measured cycles inside the
/// bracket, and mean bracket width at most 4x the measured cycles.
#[test]
fn catalog_cycles_inside_bracket() {
    let gc = GpuConfig::test_small();
    let mut widths: Vec<f64> = Vec::new();
    let mut failures = Vec::new();
    for technique in [Technique::Base, Technique::darsie()] {
        for w in catalog(Scale::Test) {
            let est = estimate(&w.ck, &w.launch, &gc, &technique);
            let measured = w.run_unchecked(&gc, technique.clone()).stats.cycles;
            let hi = est.max_cycles;
            if let Some(d) = validate(&est, measured) {
                failures.push(format!("{} {}: {}", w.abbr, technique.label(), d.message));
            }
            match hi {
                Some(hi) => {
                    #[allow(clippy::cast_precision_loss)]
                    widths.push((hi - est.min_cycles) as f64 / measured as f64);
                }
                None => failures.push(format!(
                    "{} {}: unexpected unbounded upper bound",
                    w.abbr,
                    technique.label()
                )),
            }
        }
    }
    assert!(failures.is_empty(), "E202 violations:\n{}", failures.join("\n"));
    let mean = widths.iter().sum::<f64>() / widths.len() as f64;
    assert!(mean <= 4.0, "mean bracket width {mean:.2}x exceeds 4x measured");
}

/// The estimator fixtures have hand-computable trip counts, and the
/// solver must pin them exactly — constant, launch-parameter, nested and
/// geometric (doubling) induction, and a guard predicate written twice.
#[test]
fn fixture_trip_counts_are_pinned() {
    assert!(trips_of(&fixtures::cost_straight_line()).is_empty());
    assert_eq!(trips_of(&fixtures::cost_const_loop()), vec![Ok((8, 8))]);
    assert_eq!(trips_of(&fixtures::cost_param_loop()), vec![Ok((6, 6))]);
    let mut nested: Vec<(u64, u64)> = trips_of(&fixtures::cost_nested_loop())
        .into_iter()
        .map(|t| t.expect("nested loops are bounded"))
        .collect();
    nested.sort_unstable();
    assert_eq!(nested, vec![(2, 2), (4, 4)]);
    assert_eq!(trips_of(&fixtures::cost_geometric_loop()), vec![Ok((4, 4))]);
    assert_eq!(trips_of(&fixtures::cost_reused_guard_loop()), vec![Ok((4, 4))]);
}

/// The deliberately unboundable control: `E201` from both `estimate` and
/// the standalone `check` lint pass, no upper bound, and a minimum that
/// still holds against the measured run.
#[test]
fn unbounded_control_is_one_sided_with_e201() {
    let fx = fixtures::cost_unbounded_control();
    let gc = GpuConfig::test_small();
    let est = estimate(&fx.ck, &fx.launch, &gc, &Technique::Base);
    assert!(est.loops.iter().any(|l| l.trips.is_err()), "loop must be unbounded");
    assert!(est.max_cycles.is_none(), "unbounded loop must leave the bracket one-sided");
    assert!(est.report.items.iter().any(|d| d.code.code() == "E201"));
    assert!(check(&fx.ck, &fx.launch).items.iter().any(|d| d.code.code() == "E201"));
    let measured = measure(&fx, &Technique::Base);
    assert!(validate(&est, measured).is_none(), "one-sided bracket must still contain {measured}");
}

/// Every estimator fixture's measured cycles sit inside the static
/// bracket under both techniques — the same differential invariant the
/// catalog test holds, on kernels small enough to audit by hand.
#[test]
fn fixture_cycles_inside_bracket() {
    let gc = GpuConfig::test_small();
    for technique in [Technique::Base, Technique::darsie()] {
        for fx in fixtures::cost() {
            let est = estimate(&fx.ck, &fx.launch, &gc, &technique);
            let measured = measure(&fx, &technique);
            assert!(
                validate(&est, measured).is_none(),
                "{}: measured {measured} outside [{}, {:?}]",
                fx.name,
                est.min_cycles,
                est.max_cycles
            );
        }
    }
}

/// Trip handling agrees with the symbolic prover's summarizer on the
/// `tests/symex.rs` loop fixtures: where the warp-dependent trip count
/// keeps the prover at an honest `S402`, the cost model owes an `E201`;
/// where summarization proves the launch-parameter reduction, the cost
/// model pins the same loop exactly once the parameter is in the launch.
#[test]
fn trip_verdicts_agree_with_the_symex_summarizer() {
    let gc = GpuConfig::test_small();

    let fx = fixtures::symex_warp_trip_control();
    let est = estimate(&fx.ck, &fx.launch, &gc, &Technique::Base);
    assert!(est.report.items.iter().any(|d| d.code.code() == "E201"));
    let p = simt_verify::symex::prove(&fx.ck, Some((&fx.launch, &fx.memory)));
    assert!(p.report.items.iter().any(|d| d.code.code() == "S402"));

    let mut fx = fixtures::symex_loop_reduction();
    fx.launch.params.push(Value(5));
    let est = estimate(&fx.ck, &fx.launch, &gc, &Technique::Base);
    assert_eq!(
        est.loops.iter().map(|l| l.trips.clone()).collect::<Vec<_>>(),
        vec![Ok((5, 5))],
        "launch-parameter bound must resolve exactly"
    );
    let p = simt_verify::symex::prove(&fx.ck, Some((&fx.launch, &fx.memory)));
    assert_eq!(p.stats.disproved, 0);
    assert!(p.report.items.iter().all(|d| d.code.code() != "S402"));
}

/// Random programs (race-free draws of `workloads::random`: divergent
/// ifs, non-affine values, constant-trip loops, shared phases, atomics,
/// 1D/2D/3D blocks, multi-block grids): the measured cycles always land
/// inside the static bracket under Base and DARSIE, and no constant-trip
/// loop is unbounded.
#[test]
fn random_kernel_cycles_inside_bracket() {
    let gc = GpuConfig::test_small();
    random::check(24, Footprint::RaceFree, |r| {
        let fx = r.build();
        for technique in [Technique::Base, Technique::darsie()] {
            let est = estimate(&fx.ck, &fx.launch, &gc, &technique);
            assert!(est.max_cycles.is_some(), "constant trips reported unbounded: {:?}", est.loops);
            let measured = measure(&fx, &technique);
            assert!(
                validate(&est, measured).is_none(),
                "{} measured {measured} outside [{}, {:?}]",
                technique.label(),
                est.min_cycles,
                est.max_cycles
            );
        }
    });
}

/// The spin-wait probe as the toolchain treats it today: it validates,
/// the verifier finds nothing, the estimator's only finding is an
/// `E201` at the back edge, and the simulator stops at its cycle cap
/// with block 0 holding the SM's only slot. (The functional replay does
/// not return on it, so it is not run here.)
#[test]
fn spin_wait_draws_only_e201_statically() {
    let fx = fixtures::spin_wait();
    fx.ck.kernel.validate().expect("the probe is well-formed");
    let report = simt_verify::verify_launch(&fx.ck, &fx.launch);
    assert!(report.items.is_empty(), "{}", report.render());
    let back_edge = fx
        .ck
        .kernel
        .instrs
        .iter()
        .enumerate()
        .rposition(|(pc, i)| matches!(i.op, simt_isa::Op::Bra { target } if target < pc));
    let lints = check(&fx.ck, &fx.launch);
    let found: Vec<_> = lints.items.iter().map(|d| (d.code.code(), d.pc)).collect();
    assert_eq!(found, [("E201", back_edge)], "{}", lints.render());
}

#[test]
#[should_panic(expected = "possible deadlock")]
fn spin_wait_exceeds_the_cycle_cap() {
    let fx = fixtures::spin_wait();
    let cfg = GpuConfig { max_tbs_per_sm: 1, max_cycles: 200_000, ..GpuConfig::test_small() };
    Gpu::new(cfg, Technique::Base).launch(&fx.ck, &fx.launch, fx.memory);
}
