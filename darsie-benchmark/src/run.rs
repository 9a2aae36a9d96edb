//! What both workload kinds share: the clock that times calls into a layer
//! (and records them as manifest spans when tracing), the ledger of
//! attempted and failed operations, and the pass interface.

use darsie_bench::manifest::{alloc_counters, PhaseSpan, RunManifest};
use gpu_sim::digest::splitmix64;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Wall time and allocation traffic of one timed call.
#[derive(Clone, Copy)]
pub struct Span {
    pub wall: f64,
    pub alloc_bytes: u64,
    pub allocs: u64,
}

/// Times calls from outside. With a manifest every call becomes a named
/// `RunManifest` phase span; without one only wall time and allocation
/// deltas are taken, at the cost of two counter reads.
pub struct Clock<'m> {
    manifest: Option<&'m mut RunManifest>,
}

impl<'m> Clock<'m> {
    pub fn new(manifest: Option<&'m mut RunManifest>) -> Clock<'m> {
        Clock { manifest }
    }

    pub fn traced(&self) -> bool {
        self.manifest.is_some()
    }

    /// Times `f` as the leaf span `name()`.
    pub fn time<T>(&mut self, name: impl FnOnce() -> String, f: impl FnOnce() -> T) -> (T, Span) {
        if let Some(mf) = self.manifest.as_deref_mut() {
            let out = mf.phase(&name(), f);
            let p = mf.phases.last().expect("phase just recorded");
            return (
                out,
                Span { wall: p.wall_seconds, alloc_bytes: p.alloc_bytes, allocs: p.allocs },
            );
        }
        let (b0, c0) = alloc_counters();
        let t = Instant::now();
        let out = f();
        let wall = t.elapsed().as_secs_f64();
        let (b1, c1) = alloc_counters();
        (out, Span { wall, alloc_bytes: b1 - b0, allocs: c1 - c0 })
    }

    /// Runs `f` as the parent span `name()` of the calls it times; only
    /// recorded when tracing.
    pub fn group<T>(&mut self, name: impl FnOnce() -> String, f: impl FnOnce(&mut Self) -> T) -> T {
        let Some(start_seconds) = self.manifest.as_deref().map(RunManifest::elapsed_seconds) else {
            return f(self);
        };
        let (b0, c0) = alloc_counters();
        let t = Instant::now();
        let out = f(self);
        let wall_seconds = t.elapsed().as_secs_f64();
        let (b1, c1) = alloc_counters();
        if let Some(mf) = self.manifest.as_deref_mut() {
            mf.phases.push(PhaseSpan {
                name: name(),
                start_seconds,
                wall_seconds,
                alloc_bytes: b1 - b0,
                allocs: c1 - c0,
            });
        }
        out
    }
}

/// Operations attempted and the ones that failed, by
/// `workload/kernel/technique-or-call`.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Ledger {
    pub fn record(&mut self, what: impl FnOnce() -> String, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failures.push(format!("{}: {e}", what()));
        }
    }
}

/// Runs `f`, turning a panic into an error carrying its message.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        format!("panicked: {msg}")
    })
}

/// The order pass `pass` visits `n` units in: a Fisher-Yates shuffle
/// seeded by the run's `--seed`.
pub fn order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut state = splitmix64(seed ^ splitmix64(pass));
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        state = splitmix64(state);
        idx.swap(i, (state % (i as u64 + 1)) as usize);
    }
    idx
}

/// One measured pass.
pub struct Pass {
    /// Wall time of each operation, indexed in the runner's fixed order
    /// (not the shuffled visiting order); CPU-reference checks excluded.
    pub op_walls: Vec<f64>,
    /// Host-side layer measurements of this pass (traced passes only).
    pub host: Vec<(&'static str, f64)>,
}

/// A workload's pass runner. The first pass it runs becomes the reference
/// every later pass must reproduce exactly.
pub trait Runner {
    /// Units a pass visits in shuffled order (operations or kernels).
    fn units(&self) -> usize;
    fn pass(&mut self, order: &[usize], clock: &mut Clock, ledger: &mut Ledger) -> Pass;
    /// The modelled outputs a user reads off this workload, from the
    /// reference pass.
    fn model(&self) -> Vec<(&'static str, f64)>;
    /// One hash over every reference output, for bit-exact comparison.
    fn fingerprint(&self) -> u64;
    /// Deterministic per-layer counters, from the reference pass.
    fn counters(&self) -> BTreeMap<String, f64>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_a_seeded_permutation() {
        let a = order(13, 7, 1);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..13).collect::<Vec<_>>());
        assert_eq!(a, order(13, 7, 1));
        assert_ne!(a, order(13, 8, 1));
    }

    #[test]
    fn catch_reports_the_panic_message() {
        assert_eq!(catch(|| 3), Ok(3));
        let e = catch(|| -> u32 { panic!("boom {}", 7) }).expect_err("panics");
        assert!(e.contains("boom 7"), "{e}");
    }
}
