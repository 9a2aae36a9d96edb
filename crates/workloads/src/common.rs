//! Shared workload plumbing: the [`Workload`] record, scaling and
//! deterministic input generation.

use gpu_sim::{Gpu, GpuConfig, SimResult, Technique};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simt_compiler::CompiledKernel;
use simt_isa::{Dim3, LaunchConfig, LaunchFamily};

/// Problem-size scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny inputs for unit tests (runs in milliseconds).
    Test,
    /// Evaluation inputs for the figure harness (seconds per run).
    Eval,
}

/// A CPU-reference validator: checks final global memory against the
/// reference implementation.
pub type Check = Box<dyn Fn(&gpu_sim::GlobalMemory) -> Result<(), String> + Send + Sync>;

/// A ready-to-run benchmark: compiled kernel, launch, initial memory and a
/// CPU-reference validator. [`Workload::run`] is the one way to run it,
/// and every run is checked against the reference.
pub struct Workload {
    /// Full name (Table 1).
    pub name: &'static str,
    /// Abbreviation used in the figures.
    pub abbr: &'static str,
    /// Threadblock shape (Table 1).
    pub block: Dim3,
    /// True for the 2D-TB benchmarks.
    pub is_2d: bool,
    /// The compiled kernel.
    pub ck: CompiledKernel,
    /// Launch geometry and parameters.
    pub launch: LaunchConfig,
    /// The declared launch-family region one certificate should cover:
    /// every grid up to the native launch's, at the native block shape.
    /// Parameters stay those of `launch` (they size buffers for the
    /// native grid, so smaller member grids stay in bounds).
    pub family: LaunchFamily,
    /// Initial global memory (inputs written, outputs zeroed).
    pub memory: gpu_sim::GlobalMemory,
    /// Validates outputs against the CPU reference.
    pub check: Check,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("abbr", &self.abbr)
            .field("block", &self.block)
            .field("grid", &self.launch.grid)
            .finish_non_exhaustive()
    }
}

impl Workload {
    /// Runs the workload under `technique` on `cfg`, validating the
    /// outputs against the CPU reference. Skipping must leave every output
    /// bit-identical to BASE, so timing-only variants (ablations, profiled
    /// and estimated runs) are checked too.
    ///
    /// # Panics
    ///
    /// Panics if the outputs do not match the reference.
    #[must_use]
    pub fn run(&self, cfg: &GpuConfig, technique: Technique) -> SimResult {
        let gpu = Gpu::new(cfg.clone(), technique.clone());
        let result = gpu.launch(&self.ck, &self.launch, self.memory.clone());
        if let Err(e) = (self.check)(&result.memory) {
            panic!("{} under {}: validation failed: {e}", self.abbr, technique.label());
        }
        result
    }
}

/// Deterministic RNG for inputs (fixed seed per workload).
#[must_use]
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// `n` deterministic floats in `[lo, hi)`.
#[must_use]
pub fn random_f32s(seed: u64, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    let mut r = rng(seed);
    (0..n).map(|_| r.gen_range(lo..hi)).collect()
}

/// `n` deterministic integers in `[lo, hi)`.
#[must_use]
pub fn random_u32s(seed: u64, n: usize, lo: u32, hi: u32) -> Vec<u32> {
    let mut r = rng(seed);
    (0..n).map(|_| r.gen_range(lo..hi)).collect()
}

/// Asserts two float slices match to a tolerance, reporting the first
/// mismatch.
pub fn compare_f32(got: &[f32], want: &[f32], tol: f32) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("length mismatch: {} vs {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let err = (g - w).abs();
        let rel = err / w.abs().max(1.0);
        if rel > tol && err > tol {
            return Err(format!("index {i}: got {g}, want {w} (err {err})"));
        }
    }
    Ok(())
}

/// Asserts two integer slices match.
pub fn compare_u32(got: &[u32], want: &[u32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("length mismatch: {} vs {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            return Err(format!("index {i}: got {g}, want {w}"));
        }
    }
    Ok(())
}
