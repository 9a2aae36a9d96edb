//! Launch-family certification: catalog coverage, the boundary fixture,
//! the differential gate, and monotonicity under region shrinking.

use gpu_sim::GpuConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simt_isa::{AxisRange, LaunchFamily};
use simt_verify::blocks::BlockIndependence;
use simt_verify::family::{certify_family, differential_check, FamilyVerdict};
use workloads::{fixtures, Scale};

#[test]
fn catalog_families_certify_at_test_scale() {
    let gc = GpuConfig::pascal_gtx1080ti();
    let mut proved = 0usize;
    for w in workloads::catalog(Scale::Test) {
        let cert = certify_family(&w.ck, &w.family, &w.launch, &w.memory, &gc)
            .expect("declared family is well-formed");
        assert_ne!(
            cert.verdict,
            FamilyVerdict::PerLaunchOnly,
            "{}: family refuted: {:?}",
            w.abbr,
            cert.notes,
        );
        let disagreements =
            differential_check(&w.ck, &w.family, &w.launch, &w.memory, &cert, 25, 4);
        assert!(disagreements.is_empty(), "{}: {:?}", w.abbr, disagreements);
        if cert.verdict == FamilyVerdict::FamilyProved {
            proved += 1;
        }
    }
    assert!(proved >= 9, "only {proved}/13 workloads reached FamilyProved");
}

#[test]
fn boundary_fixture_flips_at_the_panel_edge() {
    let fx = fixtures::grid_boundary_flip();
    let gc = GpuConfig::pascal_gtx1080ti();
    let safe = LaunchFamily::grids_up_to(&fx.launch);
    assert_eq!(safe.grid_x.hi, fixtures::BOUNDARY_PANEL_BLOCKS);
    let cert = certify_family(&fx.ck, &safe, &fx.launch, &fx.memory, &gc).unwrap();
    assert_eq!(cert.verdict, FamilyVerdict::FamilyProved, "{:?}", cert.notes);
    assert_eq!(cert.classification, BlockIndependence::Independent);

    let mut over = safe.clone();
    over.grid_x = AxisRange::new(1, fixtures::BOUNDARY_PANEL_BLOCKS + 1);
    let cert = certify_family(&fx.ck, &over, &fx.launch, &fx.memory, &gc).unwrap();
    assert_eq!(cert.verdict, FamilyVerdict::PerLaunchOnly, "{:?}", cert.notes);
    let wl = cert.witness_launch.as_ref().expect("refutation carries a witness launch");
    assert_eq!(wl.grid.x, fixtures::BOUNDARY_PANEL_BLOCKS + 1);
    assert!(cert.witness.is_some());
    let disagreements = differential_check(&fx.ck, &over, &fx.launch, &fx.memory, &cert, 25, 2);
    assert!(disagreements.is_empty(), "{disagreements:?}");
}

/// Region-shrink monotonicity: a `FamilyProved` verdict for the
/// boundary fixture's safe region stays proved for every subregion
/// `R' ⊆ R` (random lo/hi/stride subranges of the grid axis).
#[test]
fn family_proof_is_monotone_under_region_shrinking() {
    let fx = fixtures::grid_boundary_flip();
    let gc = GpuConfig::pascal_gtx1080ti();
    let full = LaunchFamily::grids_up_to(&fx.launch);
    let cert = certify_family(&fx.ck, &full, &fx.launch, &fx.memory, &gc).unwrap();
    assert_eq!(cert.verdict, FamilyVerdict::FamilyProved);
    for case in 0..16 {
        let mut rng = SmallRng::seed_from_u64(case);
        let lo = rng.gen_range(1..=fixtures::BOUNDARY_PANEL_BLOCKS);
        let span = rng.gen_range(0..fixtures::BOUNDARY_PANEL_BLOCKS);
        let step = rng.gen_range(1u32..=3);

        let hi = (lo + span * step).min(fixtures::BOUNDARY_PANEL_BLOCKS);
        let hi = lo + ((hi - lo) / step) * step; // realign to the stride
        let mut sub = full.clone();
        sub.grid_x = AxisRange::strided(lo, hi, step);
        assert!(sub.is_subregion_of(&full), "case {case}");
        let sub_cert = certify_family(&fx.ck, &sub, &fx.launch, &fx.memory, &gc).unwrap();
        assert_eq!(
            sub_cert.verdict,
            FamilyVerdict::FamilyProved,
            "case {case}: subregion {sub} lost the proof: {:?}",
            sub_cert.notes
        );
    }
}
