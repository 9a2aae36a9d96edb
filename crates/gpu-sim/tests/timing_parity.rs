//! Pins the shared timing table ([`gpu_sim::timing`]) to the SM's
//! observable behavior, so the simulator and the static cost estimator can
//! never drift apart.
//!
//! Two layers:
//!
//! 1. direct table-to-config assertions — every function returns exactly
//!    the [`GpuConfig`] field the SM model documents;
//! 2. sensitivity probes — simulate the same micro-kernel under two
//!    configs differing in a single latency field and check the measured
//!    cycle delta is exactly the closed-form count of charges predicted
//!    from the table. If the SM ever re-hardcodes a constant instead of
//!    going through [`gpu_sim::timing`], the delta collapses and the probe
//!    fails.

use gpu_sim::mem::GlobalMemory;
use gpu_sim::{timing, Gpu, GpuConfig, Technique};
use simt_compiler::CompiledKernel;
use simt_isa::{KernelBuilder, LaunchConfig, OpKind, SpecialReg};

#[test]
fn table_matches_config_fields() {
    let cfg = GpuConfig::pascal_gtx1080ti();
    assert_eq!(timing::exec_latency(&cfg, OpKind::IntAlu), cfg.int_latency);
    assert_eq!(timing::exec_latency(&cfg, OpKind::FpAlu), cfg.fp_latency);
    assert_eq!(timing::exec_latency(&cfg, OpKind::Sfu), cfg.sfu_latency);
    assert_eq!(timing::exec_latency(&cfg, OpKind::Branch), cfg.int_latency);
    assert_eq!(timing::unit_issue_interval(&cfg, OpKind::IntAlu), 1);
    assert_eq!(timing::unit_issue_interval(&cfg, OpKind::Sfu), cfg.sfu_interval);
    assert_eq!(timing::smem_occupancy(7), 7);
    assert_eq!(timing::smem_latency(&cfg, 1), cfg.smem_latency);
    assert_eq!(timing::smem_latency(&cfg, 5), cfg.smem_latency + 4);
    assert_eq!(timing::param_latency(&cfg), cfg.l1_latency / 2);
    assert_eq!(timing::l1_hit_latency(&cfg), cfg.l1_latency);
    assert_eq!(timing::l2_hit_latency(&cfg), cfg.l1_latency + cfg.l2_latency);
    assert_eq!(timing::dram_line_latency(&cfg), cfg.l1_latency + cfg.dram_latency);
    assert_eq!(timing::atomic_serialization(32), 8);
    assert_eq!(timing::fetch_bandwidth(&cfg), (cfg.fetch_width * cfg.instrs_per_fetch) as u64);
    assert_eq!(timing::issue_bandwidth(&cfg), (cfg.schedulers_per_sm * cfg.issue_width) as u64);
    assert_eq!(timing::fetch_miss_penalty(&cfg), cfg.l2_latency);
    assert_eq!(timing::exec_unit(OpKind::Load), timing::ExecUnit::Lsu);
    assert_eq!(timing::exec_unit(OpKind::FpAlu), timing::ExecUnit::Sp);
    assert_eq!(timing::exec_unit(OpKind::Barrier), timing::ExecUnit::Control);
}

/// One warp running `n` back-to-back dependent ALU/SFU ops: every op waits
/// for its predecessor's writeback, so total cycles are affine in the
/// per-op latency with slope exactly `n`.
fn dependent_chain(n: usize, kind: OpKind) -> CompiledKernel {
    let mut b = KernelBuilder::new("chain");
    let t = b.special(SpecialReg::TidX);
    let mut x = match kind {
        OpKind::FpAlu | OpKind::Sfu => b.i2f(t),
        _ => t,
    };
    for _ in 0..n {
        x = match kind {
            OpKind::IntAlu => b.iadd(x, x),
            OpKind::FpAlu => b.fadd(x, x),
            OpKind::Sfu => b.frcp(x),
            _ => unreachable!("unsupported chain kind"),
        };
    }
    simt_compiler::compile(b.finish())
}

fn cycles(ck: &CompiledKernel, cfg: GpuConfig) -> u64 {
    let launch = LaunchConfig::new(1u32, 32u32);
    Gpu::new(cfg, Technique::Base).launch(ck, &launch, GlobalMemory::new()).stats.cycles
}

fn probe_latency(kind: OpKind, set: impl Fn(&mut GpuConfig, u64)) {
    const N: usize = 40;
    const BUMP: u64 = 9;
    // A base latency above every frontend penalty (I-cache miss = 20 in
    // `test_small`), so the chain's critical path is purely the charged
    // execution latency at both settings and the delta is exact.
    const BASE: u64 = 50;
    let ck = dependent_chain(N, kind);
    let mut lo = GpuConfig::test_small();
    let mut hi = GpuConfig::test_small();
    set(&mut lo, BASE);
    set(&mut hi, BASE + BUMP);
    // The whole kernel is one dependence chain, so every op of the probed
    // kind (the seed S2R/I2F included) exposes its full latency.
    let charged = ck.kernel.instrs.iter().filter(|i| i.op.kind() == kind).count() as u64;
    assert!(charged >= N as u64);
    let delta = cycles(&ck, hi) - cycles(&ck, lo);
    assert_eq!(delta, charged * BUMP, "{kind:?} chain must expose exactly n*latency");
}

#[test]
fn int_latency_charged_per_dependent_op() {
    probe_latency(OpKind::IntAlu, |c, v| c.int_latency = v);
}

#[test]
fn fp_latency_charged_per_dependent_op() {
    probe_latency(OpKind::FpAlu, |c, v| c.fp_latency = v);
}

#[test]
fn sfu_latency_charged_per_dependent_op() {
    probe_latency(OpKind::Sfu, |c, v| c.sfu_latency = v);
}
