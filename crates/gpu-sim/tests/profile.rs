//! Cycle-accounting integration tests: the identity on real runs, a
//! pinned fixture breakdown, the disabled-by-default contract, and the
//! profile and the event trace each kept under its own flag.

use gpu_sim::mem::GlobalMemory;
use gpu_sim::{Gpu, GpuConfig, PipeEvent, SimResult, SlotCounts, StallCause, Technique};
use simt_isa::{KernelBuilder, LaunchConfig, MemSpace, SpecialReg, Value};

/// out[tid.y*16+tid.x] = in[tid.x] * 2: the tid.x chain is TB-redundant
/// under a 16x16 block, so DARSIE has work to do.
fn scale2d() -> simt_compiler::CompiledKernel {
    let mut b = KernelBuilder::new("scale2d");
    let tx = b.special(SpecialReg::TidX);
    let ty = b.special(SpecialReg::TidY);
    let ntx = b.special(SpecialReg::NtidX);
    let inp = b.param(0);
    let outp = b.param(1);
    let off_in = b.shl_imm(tx, 2);
    let a_in = b.iadd(inp, off_in);
    let v = b.load(MemSpace::Global, a_in, 0);
    let v2 = b.iadd(v, v);
    let lin = b.imad(ty, ntx, tx);
    let off_out = b.shl_imm(lin, 2);
    let a_out = b.iadd(outp, off_out);
    b.store(MemSpace::Global, a_out, v2, 0);
    simt_compiler::compile(b.finish())
}

fn run(technique: Technique) -> SimResult {
    launch(GpuConfig { profile: true, ..GpuConfig::test_small() }, technique)
}

fn launch(cfg: GpuConfig, technique: Technique) -> SimResult {
    let ck = scale2d();
    let mut mem = GlobalMemory::new();
    let a_in = mem.alloc(16 * 4);
    let a_out = mem.alloc(256 * 4);
    mem.write_slice_u32(a_in, &(0..16u32).map(|i| 100 + i).collect::<Vec<_>>());
    let launch = LaunchConfig::new(2u32, (16u32, 16u32))
        .with_params(vec![Value(a_in as u32), Value(a_out as u32)]);
    Gpu::new(cfg, technique).launch(&ck, &launch, mem)
}

/// Collapses a profile into (cycles, merged slot counts) for pinning.
fn summarize(res: &SimResult) -> (u64, SlotCounts) {
    let prof = res.profile.as_ref().expect("profiling enabled");
    prof.check_identity().expect("accounting identity");
    (res.cycles, prof.slots())
}

#[test]
fn profile_is_none_when_disabled() {
    let ck = scale2d();
    let mut mem = GlobalMemory::new();
    let a_in = mem.alloc(16 * 4);
    let a_out = mem.alloc(256 * 4);
    mem.write_slice_u32(a_in, &(0..16u32).collect::<Vec<_>>());
    let launch = LaunchConfig::new(2u32, (16u32, 16u32))
        .with_params(vec![Value(a_in as u32), Value(a_out as u32)]);
    let res = Gpu::new(GpuConfig::test_small(), Technique::Base).launch(&ck, &launch, mem);
    assert!(res.profile.is_none());
}

#[test]
fn issued_slots_crosscheck_executed_plus_reused() {
    for tech in [Technique::Base, Technique::Uv, Technique::darsie()] {
        let res = run(tech.clone());
        let (_, slots) = summarize(&res);
        assert_eq!(
            slots.get(StallCause::Issued),
            res.stats.instrs_executed + res.stats.instrs_reused.total(),
            "issued slots == executed + reused under {}",
            tech.label()
        );
    }
}

#[test]
fn fixture_breakdown_is_pinned() {
    // Exact, deterministic slot attribution for scale2d on the one-SM
    // test config. A change here means the pipeline timing changed: if
    // that is intended, re-pin; if not, it is a regression.
    let base = run(Technique::Base);
    let (b_cycles, b) = summarize(&base);
    let dars = run(Technique::darsie());
    let (d_cycles, d) = summarize(&dars);

    let pin = |s: &SlotCounts| -> Vec<u64> { s.iter().map(|(_, n)| n).collect() };

    // Slot order: issued, skipped_by_darsie, scoreboard, operand_collector,
    // exec_unit_busy, lsu_queue, ibuffer_empty, wait_leader, branch_sync,
    // barrier, majority_evict, idle_no_warp.
    assert_eq!(b_cycles, 170, "base cycles");
    assert_eq!(pin(&b), vec![224, 0, 717, 0, 32, 18, 277, 0, 0, 0, 0, 92], "base slots");
    assert_eq!(d_cycles, 98, "darsie cycles");
    assert_eq!(pin(&d), vec![112, 63, 279, 0, 4, 3, 144, 152, 0, 0, 0, 27], "darsie slots");

    // The structure of the comparison, independent of the exact numbers:
    // DARSIE eliminates half the issue work of this fully-redundant kernel
    // and finishes sooner.
    assert!(d_cycles < b_cycles);
    assert_eq!(b.get(StallCause::Issued), 2 * d.get(StallCause::Issued));
    assert!(d.get(StallCause::SkippedByDarsie) > 0);
    assert!(d.get(StallCause::WaitLeader) > 0);
}

#[test]
fn profile_and_trace_flags_are_independent() {
    // One recorder serves both flags: each alone must record exactly what
    // it records with both on, and nothing of the other (an untraced ring
    // that counted drops would show in `dropped`).
    let events =
        |r: &SimResult| (r.events.iter().copied().collect::<Vec<PipeEvent>>(), r.events.dropped);
    for tech in [Technique::Base, Technique::Uv, Technique::darsie()] {
        let with = |profile, trace_events| {
            launch(GpuConfig { profile, trace_events, ..GpuConfig::test_small() }, tech.clone())
        };
        let (profile_only, trace_only, both) =
            (with(true, false), with(false, true), with(true, true));
        let label = tech.label();
        assert!(both.profile.is_some() && !both.events.is_empty(), "{label}: both on");
        assert_eq!(profile_only.profile, both.profile, "{label}: profile-only profile");
        assert!(profile_only.events.is_empty(), "{label}: profile-only trace");
        assert_eq!(profile_only.events.dropped, 0, "{label}: profile-only drops");
        assert_eq!(events(&trace_only), events(&both), "{label}: trace-only trace");
        assert!(trace_only.profile.is_none(), "{label}: trace-only profile");
        assert_eq!(profile_only.stats, both.stats, "{label}: stats");
        assert_eq!(trace_only.stats, both.stats, "{label}: stats");
    }
}
