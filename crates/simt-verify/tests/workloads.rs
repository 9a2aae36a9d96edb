//! Integration test: every shipped workload kernel must verify clean.
//!
//! * All three passes (including the differential marking oracle) at each
//!   workload's native launch.
//! * The static passes (dataflow + divergence lint) additionally at a
//!   spread of 1D / 2D / 3D TB shapes — promotion decisions change with
//!   the shape, and no shape may make a shipped kernel unsafe. Static
//!   passes never execute the kernel, so foreign shapes are safe to probe.

use simt_isa::{Dim3, LaunchConfig};
use simt_verify::{dataflow, divergence, verify_full, verify_launch, LintCode};
use workloads::{catalog, ext_3d, Scale};

fn static_shapes() -> Vec<Dim3> {
    vec![
        Dim3::one_d(64),
        Dim3::one_d(256),
        Dim3::two_d(16, 16),
        Dim3::two_d(32, 8),
        Dim3::three_d(8, 4, 4),
        Dim3::three_d(4, 4, 2),
    ]
}

#[test]
fn every_catalog_workload_verifies_clean_at_its_native_launch() {
    for w in catalog(Scale::Test) {
        let report = verify_full(&w.ck, &w.launch, w.memory.clone());
        assert!(
            report.is_clean(),
            "{} ({}) failed verification:\n{}",
            w.abbr,
            w.name,
            report.render()
        );
        // The race pass may be honestly inconclusive (V302) on kernels
        // with non-affine shared addressing (FW's butterfly indices);
        // every other warning class must stay at zero.
        let non_v302 = report
            .items
            .iter()
            .filter(|d| {
                d.severity == simt_verify::Severity::Warning
                    && d.code != LintCode::SharedAddrUnknown
            })
            .count();
        assert_eq!(non_v302, 0, "{} ({}) has warnings:\n{}", w.abbr, w.name, report.render());
        // And inconclusive must never mean provably racy: no V301/V303.
        assert!(
            report.with_code(LintCode::SharedRaceStatic).is_empty()
                && report.with_code(LintCode::SharedRaceDynamic).is_empty(),
            "{} ({}) has shared-memory races:\n{}",
            w.abbr,
            w.name,
            report.render()
        );
    }
}

#[test]
fn every_catalog_workload_passes_static_checks_at_all_tb_shapes() {
    for w in catalog(Scale::Test) {
        // Without launch information: no promotion, so conditionally
        // redundant guards count as potentially divergent.
        for r in [dataflow::check(&w.ck), divergence::check(&w.ck, None)] {
            assert!(r.is_clean(), "{} static:\n{}", w.abbr, r.render());
        }
        for shape in static_shapes() {
            let launch = LaunchConfig::new(1u32, shape);
            let r = verify_launch(&w.ck, &launch);
            assert!(
                r.is_clean(),
                "{} at TB=({},{},{}):\n{}",
                w.abbr,
                shape.x,
                shape.y,
                shape.z,
                r.render()
            );
        }
    }
}

#[test]
fn ext_3d_volume_blend_verifies_clean_in_both_analysis_modes() {
    for analyze_tid_y in [false, true] {
        let w = ext_3d::volume_blend(Scale::Test, analyze_tid_y);
        let report = verify_full(&w.ck, &w.launch, w.memory.clone());
        assert!(
            report.is_clean(),
            "volume_blend (analyze_tid_y={analyze_tid_y}):\n{}",
            report.render()
        );
        for shape in static_shapes() {
            let r = verify_launch(&w.ck, &LaunchConfig::new(1u32, shape));
            assert!(
                r.is_clean(),
                "volume_blend (analyze_tid_y={analyze_tid_y}) at TB=({},{},{}):\n{}",
                shape.x,
                shape.y,
                shape.z,
                r.render()
            );
        }
    }
}
