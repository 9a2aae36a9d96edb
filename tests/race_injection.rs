//! Randomized check of the shared-memory race detector: a two-phase
//! neighbor-exchange kernel is verified clean with its barrier in place,
//! and injecting the race (dropping the barrier between the store phase
//! and a `tid.x + d` load) must always be caught — statically (the
//! addresses are affine) and dynamically (V303).

use gpu_sim::GlobalMemory;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simt_compiler::CompiledKernel;
use simt_isa::{Dim3, KernelBuilder, LaunchConfig, MemSpace, SpecialReg, Value};
use simt_verify::{verify_full, LintCode};

/// Thread `t` stores word `t`, then loads word `t + delta`. With the
/// barrier the phases are separate epochs; without it, thread `t`'s load
/// races thread `t + delta`'s store.
fn exchange_kernel(threads: u32, delta: u32, with_barrier: bool) -> CompiledKernel {
    let mut b = KernelBuilder::new("exchange");
    let t = b.special(SpecialReg::TidX);
    // Over-allocate by `delta` words so the shifted load stays in bounds.
    let smem = b.alloc_shared((threads + delta) * 4);
    let off = b.shl_imm(t, 2);
    let waddr = b.iadd(off, smem);
    b.store(MemSpace::Shared, waddr, t, 0);
    if with_barrier {
        b.barrier();
    }
    let v = b.load(MemSpace::Shared, waddr, (delta * 4) as i32);
    let out = b.param(0);
    let gaddr = b.iadd(out, off);
    b.store(MemSpace::Global, gaddr, v, 0);
    simt_compiler::compile(b.finish())
}

fn verify(ck: &CompiledKernel, threads: u32) -> simt_verify::Diagnostics {
    let mut mem = GlobalMemory::new();
    let out = mem.alloc(u64::from(threads) * 4);
    let launch = LaunchConfig::new(1u32, Dim3::one_d(threads)).with_params(vec![Value(out as u32)]);
    verify_full(ck, &launch, mem)
}

#[test]
fn injected_race_is_always_caught() {
    for case in 0..16 {
        let mut rng = SmallRng::seed_from_u64(case);
        let (threads, delta) = (rng.gen_range(8u32..=64), rng.gen_range(1u32..=4));
        let at = format!("case {case} (threads={threads} delta={delta})");

        // Control: with the barrier, no race pass may fire at all.
        let clean = exchange_kernel(threads, delta, true);
        let r = verify(&clean, threads);
        assert!(
            r.with_code(LintCode::SharedRaceStatic).is_empty()
                && r.with_code(LintCode::SharedAddrUnknown).is_empty()
                && r.with_code(LintCode::SharedRaceDynamic).is_empty(),
            "clean kernel flagged, {at}:\n{}",
            r.render()
        );

        // Injected race: both detectors must catch it, and the report
        // must fail verification.
        let racy = exchange_kernel(threads, delta, false);
        let r = verify(&racy, threads);
        let render = r.render();
        assert!(!r.with_code(LintCode::SharedRaceStatic).is_empty(), "no V301, {at}:\n{render}");
        assert!(!r.with_code(LintCode::SharedRaceDynamic).is_empty(), "no V303, {at}:\n{render}");
        assert!(!r.is_clean(), "{at}");
    }
}
