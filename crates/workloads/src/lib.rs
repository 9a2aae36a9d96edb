//! The 13 benchmarks of the paper's Table 1, re-authored in the virtual
//! SIMT ISA with matching threadblock shapes, plus CPU reference
//! implementations used to validate every simulated run.
//!
//! | Abbr | Name | TB dim | | Abbr | Name | TB dim |
//! |---|---|---|---|---|---|---|
//! | BIN | binomialOptions | (256,1) | | IMNLM | ImageDenoisingNLM | (16,16) |
//! | PT | pathfinder | (1024,1) | | BP | Backprop | (16,16) |
//! | FW | fastWalshTransform | (256,1) | | DCT8x8 | DCT8x8 | (8,8) |
//! | SR1 | SRADV1 | (512,1) | | FWS | Floyd-Warshall | (16,16) |
//! | LIB | LIB | (256,1) | | HS | HotSpot | (16,16) |
//! | | | | | CP | CP | (16,8) |
//! | | | | | CONVTEX | convolutionTexture | (16,16) |
//! | | | | | MM | MatrixMul | (32,32) |
//!
//! ```no_run
//! use workloads::{catalog, Scale};
//! use gpu_sim::{GpuConfig, Technique};
//!
//! for w in catalog(Scale::Test) {
//!     let res = w.run(&GpuConfig::test_small(), Technique::Base);
//!     println!("{}: {} cycles", w.abbr, res.cycles);
//! }
//! ```

pub mod common;
pub mod ext_3d;
pub mod fixtures;
pub mod one_d;
pub mod random;
pub mod two_d_a;
pub mod two_d_b;

pub use common::{Scale, Workload};

/// All 13 benchmarks, 1D first then 2D (the order of the paper's figures).
#[must_use]
pub fn catalog(scale: Scale) -> Vec<Workload> {
    vec![
        one_d::binomial_options(scale),
        one_d::pathfinder(scale),
        one_d::fast_walsh(scale),
        one_d::srad_v1(scale),
        one_d::lib_mc(scale),
        two_d_a::image_denoising_nlm(scale),
        two_d_a::backprop(scale),
        two_d_a::dct8x8(scale),
        two_d_a::floyd_warshall(scale),
        two_d_b::hotspot(scale),
        two_d_b::coulombic_potential(scale),
        two_d_b::convolution_texture(scale),
        two_d_b::matrix_mul(scale),
    ]
}

/// Looks a workload up by abbreviation.
#[must_use]
pub fn by_abbr(abbr: &str, scale: Scale) -> Option<Workload> {
    catalog(scale).into_iter().find(|w| w.abbr.eq_ignore_ascii_case(abbr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{GpuConfig, Technique};

    #[test]
    fn catalog_matches_table_1() {
        let c = catalog(Scale::Test);
        assert_eq!(c.len(), 13);
        let abbrs: Vec<&str> = c.iter().map(|w| w.abbr).collect();
        assert_eq!(
            abbrs,
            [
                "BIN", "PT", "FW", "SR1", "LIB", "IMNLM", "BP", "DCT8x8", "FWS", "HS", "CP",
                "CONVTEX", "MM"
            ]
        );
        assert_eq!(c.iter().filter(|w| !w.is_2d).count(), 5);
        assert_eq!(c.iter().filter(|w| w.is_2d).count(), 8);
        // Table 1 block shapes.
        let dims: Vec<(u32, u32)> = c.iter().map(|w| (w.block.x, w.block.y)).collect();
        assert_eq!(
            dims,
            [
                (256, 1),
                (1024, 1),
                (256, 1),
                (512, 1),
                (256, 1),
                (16, 16),
                (16, 16),
                (8, 8),
                (16, 16),
                (16, 16),
                (16, 8),
                (16, 16),
                (32, 32)
            ]
        );
    }

    #[test]
    fn by_abbr_lookup() {
        assert!(by_abbr("mm", Scale::Test).is_some());
        assert!(by_abbr("LIB", Scale::Test).is_some());
        assert!(by_abbr("nope", Scale::Test).is_none());
    }

    // One correctness test per workload on the baseline (validation is
    // built into Workload::run).
    macro_rules! base_runs {
        ($($name:ident => $abbr:expr),+ $(,)?) => {
            $(
                #[test]
                fn $name() {
                    let w = by_abbr($abbr, Scale::Test).expect("exists");
                    let res = w.run(&GpuConfig::test_small(), Technique::Base);
                    assert!(res.cycles > 0);
                    assert!(res.stats.instrs_executed > 0);
                }
            )+
        };
    }
    base_runs! {
        base_bin => "BIN",
        base_pt => "PT",
        base_fw => "FW",
        base_sr1 => "SR1",
        base_lib => "LIB",
        base_imnlm => "IMNLM",
        base_bp => "BP",
        base_dct => "DCT8x8",
        base_fws => "FWS",
        base_hs => "HS",
        base_cp => "CP",
        base_convtex => "CONVTEX",
        base_mm => "MM",
    }

    // DARSIE must produce identical outputs (shadow-checked in the
    // test_small config) and skip instructions on the 2D benchmarks.
    macro_rules! darsie_runs {
        ($($name:ident => $abbr:expr),+ $(,)?) => {
            $(
                #[test]
                fn $name() {
                    let w = by_abbr($abbr, Scale::Test).expect("exists");
                    let res = w.run(&GpuConfig::test_small(), Technique::darsie());
                    if w.is_2d && w.launch.promotes_conditional_redundancy() {
                        assert!(
                            res.stats.instrs_skipped.total() > 0,
                            "{} skipped nothing", w.abbr
                        );
                    }
                }
            )+
        };
    }
    darsie_runs! {
        darsie_bin => "BIN",
        darsie_pt => "PT",
        darsie_fw => "FW",
        darsie_sr1 => "SR1",
        darsie_lib => "LIB",
        darsie_imnlm => "IMNLM",
        darsie_bp => "BP",
        darsie_dct => "DCT8x8",
        darsie_fws => "FWS",
        darsie_hs => "HS",
        darsie_cp => "CP",
        darsie_convtex => "CONVTEX",
        darsie_mm => "MM",
    }
}
