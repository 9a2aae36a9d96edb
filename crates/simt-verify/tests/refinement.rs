//! Pins the analyzer's new behaviors to the dedicated fixture kernels:
//! each `P1xx` memory-performance lint fires exactly where its fixture
//! says (and stays silent on the matching control), and each refinement
//! pass strictly increases the skippable count on its "win" fixture while
//! leaving its negative control untouched — with the marking oracle
//! accepting every refined kernel.

use gpu_sim::GpuConfig;
use simt_compiler::{refine, LaunchPlan};
use simt_verify::perf::{self, MemPredKind};
use simt_verify::{oracle, LintCode};
use workloads::fixtures;

fn warp_size() -> u32 {
    GpuConfig::test_small().warp_size
}

fn lint_codes(fx: &fixtures::Fixture) -> Vec<&'static str> {
    let predictions = perf::predict(&fx.ck, &fx.launch, warp_size());
    perf::lint(&fx.ck, &predictions).items.iter().map(|d| d.code.code()).collect()
}

#[test]
fn conflict_stride_pins_p101_with_exact_degree() {
    let fx = fixtures::conflict_stride();
    let predictions = perf::predict(&fx.ck, &fx.launch, warp_size());
    let shared: Vec<_> = predictions
        .iter()
        .filter(|p| matches!(p.kind, MemPredKind::SharedConflict { .. }))
        .collect();
    assert_eq!(shared.len(), 2, "store + read-back load");
    for p in &shared {
        assert!(
            matches!(p.kind, MemPredKind::SharedConflict { min_degree: 32, max_degree: 32 }),
            "stride-128 must serialize over exactly 32 bank passes, got {:?}",
            p.kind
        );
    }
    let codes = lint_codes(&fx);
    assert_eq!(codes.iter().filter(|c| **c == "P101").count(), 2);
}

#[test]
fn conflict_free_stays_silent() {
    let codes = lint_codes(&fixtures::conflict_free());
    assert!(codes.is_empty(), "conflict-free control must not lint, got {codes:?}");
}

#[test]
fn uncoalesced_stride_pins_p102_with_exact_lines() {
    let fx = fixtures::uncoalesced_stride();
    let predictions = perf::predict(&fx.ck, &fx.launch, warp_size());
    let global: Vec<_> = predictions
        .iter()
        .filter(|p| matches!(p.kind, MemPredKind::GlobalCoalesce { .. }))
        .collect();
    assert_eq!(global.len(), 1);
    assert!(
        matches!(
            global[0].kind,
            MemPredKind::GlobalCoalesce { min_lines: 32, max_lines: 32, ideal_lines: 1 }
        ),
        "stride-128 must touch one line per lane, got {:?}",
        global[0].kind
    );
    assert_eq!(lint_codes(&fx), vec!["P102"]);
}

#[test]
fn coalesced_stride_stays_silent() {
    let fx = fixtures::coalesced_stride();
    let predictions = perf::predict(&fx.ck, &fx.launch, warp_size());
    let global: Vec<_> = predictions
        .iter()
        .filter(|p| matches!(p.kind, MemPredKind::GlobalCoalesce { .. }))
        .collect();
    assert_eq!(global.len(), 1);
    assert!(
        matches!(
            global[0].kind,
            MemPredKind::GlobalCoalesce { min_lines: 1, max_lines: 2, ideal_lines: 1 }
        ),
        "stride-4 must match the ideal when aligned, got {:?}",
        global[0].kind
    );
    let codes = lint_codes(&fx);
    assert!(codes.is_empty(), "coalesced control must not lint, got {codes:?}");
}

#[test]
fn nonaffine_addr_reports_p103_instead_of_guessing() {
    let fx = fixtures::nonaffine_addr();
    let predictions = perf::predict(&fx.ck, &fx.launch, warp_size());
    assert!(
        predictions.iter().any(|p| matches!(p.kind, MemPredKind::Unpredictable { .. })),
        "a tid.x & 1 address must be reported unpredictable"
    );
    assert!(lint_codes(&fx).contains(&"P103"));
}

/// Refines a fixture and returns (baseline skippable, refined skippable),
/// asserting the oracle accepts the refined markings under the fixture's
/// own launch and memory.
fn skippable_delta(fx: &fixtures::Fixture) -> (usize, usize) {
    let refined = refine(&fx.ck, fx.launch.block.z);
    let report = oracle::check(&refined.ck, &fx.launch, fx.memory.clone());
    assert!(report.is_clean(), "oracle rejected refined {}:\n{}", fx.name, report.render());
    let base = LaunchPlan::new(&fx.ck, &fx.launch).num_skippable();
    let after = LaunchPlan::new(&refined.ck, &fx.launch).num_skippable();
    (base, after)
}

#[test]
fn entry_uniform_refinement_wins_on_promoting_launch() {
    let (base, after) = skippable_delta(&fixtures::refine_entry_win());
    assert!(after > base, "expected a skippable win, got {base} -> {after}");
}

#[test]
fn entry_uniform_refinement_keeps_warpid_guard_vector() {
    let (base, after) = skippable_delta(&fixtures::refine_entry_negative());
    assert_eq!(base, after, "warpid-guarded mov must stay unskippable");
}

#[test]
fn branch_edge_refinement_wins_even_unpromoted() {
    let (base, after) = skippable_delta(&fixtures::refine_branch_win());
    assert!(after > base, "expected a skippable win, got {base} -> {after}");
}

#[test]
fn affine_closure_cancels_tid_terms() {
    let (base, after) = skippable_delta(&fixtures::refine_affine_win());
    assert!(after > base, "expected a skippable win, got {base} -> {after}");
}

#[test]
fn tid_y_refinement_wins_on_promoting_launch() {
    let (base, after) = skippable_delta(&fixtures::refine_tidy_win());
    assert!(after > base, "expected a skippable win, got {base} -> {after}");
}

#[test]
fn race_fixtures_are_untouched_by_perf_lints() {
    for fx in fixtures::racy() {
        for code in lint_codes(&fx) {
            assert!(
                code != LintCode::SharedBankConflict.code()
                    && code != LintCode::GlobalUncoalesced.code(),
                "{} unexpectedly lints {code}",
                fx.name
            );
        }
    }
}

/// Two marking bugs the random-program properties found: a uniform
/// register updated under a warp-dependent branch and read after the
/// join (the marking pass ignored the merge), and a warp-dependent select
/// between two parameter words (refinement trusted equal abstract arms).
/// Neither read may be marked redundant, before or after refinement.
#[test]
fn divergent_merges_stay_vector() {
    for fx in [fixtures::divergent_update(), fixtures::select_two_uniforms()] {
        let stored = fx.ck.kernel.instrs.iter().rev().find_map(|i| i.srcs.get(1)).copied();
        let pc = fx.ck.kernel.instrs.iter().rposition(|i| i.dst.map(Into::into) == stored);
        let pc = pc.expect("the stored value has a producer");
        for ck in [&fx.ck, &refine(&fx.ck, 1).ck] {
            assert_eq!(ck.markings[pc], simt_isa::Marking::Vector, "{}: pc {pc}", fx.name);
            let report = oracle::check(ck, &fx.launch, fx.memory.clone());
            assert!(report.is_clean(), "{}:\n{}", fx.name, report.render());
        }
    }
}
