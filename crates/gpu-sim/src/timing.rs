//! Shared instruction-timing tables: the single source of truth for the
//! latency, occupancy and bandwidth figures of the SM pipeline model.
//!
//! Both the cycle simulator ([`crate::sm`]) and the static cost estimator
//! (`simt-verify`'s cost pass) read these functions, so the two can never
//! drift: every latency the SM charges at issue time is computed here, and
//! `gpu-sim/tests/timing_parity.rs` pins the mapping with closed-form
//! micro-kernel predictions checked against full simulation.
//!
//! The functions are deliberately tiny and total — pure lookups over
//! [`GpuConfig`] — because the estimator composes them symbolically (min /
//! max over paths) while the simulator evaluates them per dynamic
//! instruction.

use crate::config::GpuConfig;
use simt_isa::OpKind;

/// The SM execution unit an opcode occupies at issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecUnit {
    /// SP/INT ALU lanes (one group per scheduler).
    Sp,
    /// The shared special-function unit.
    Sfu,
    /// The shared load/store unit.
    Lsu,
    /// Control flow (branch / barrier / exit): no execution-unit port.
    Control,
}

/// Which unit `kind` issues to. Mirrors the unit-availability checks and
/// busy-timestamp updates in the SM issue stage.
#[must_use]
pub fn exec_unit(kind: OpKind) -> ExecUnit {
    match kind {
        OpKind::IntAlu | OpKind::FpAlu => ExecUnit::Sp,
        OpKind::Sfu => ExecUnit::Sfu,
        OpKind::Load | OpKind::Store | OpKind::Atomic => ExecUnit::Lsu,
        OpKind::Branch | OpKind::Barrier | OpKind::Exit => ExecUnit::Control,
    }
}

/// Issue-to-writeback latency of a non-memory instruction. Control
/// instructions and anything unclassified take the integer-ALU latency.
#[must_use]
pub fn exec_latency(cfg: &GpuConfig, kind: OpKind) -> u64 {
    match kind {
        OpKind::FpAlu => cfg.fp_latency,
        OpKind::Sfu => cfg.sfu_latency,
        _ => cfg.int_latency,
    }
}

/// Cycles the issuing unit stays busy after a non-memory instruction
/// issues: SP pipelines accept a new instruction every cycle, the SFU only
/// every `sfu_interval` cycles.
#[must_use]
pub fn unit_issue_interval(cfg: &GpuConfig, kind: OpKind) -> u64 {
    match exec_unit(kind) {
        ExecUnit::Sfu => cfg.sfu_interval,
        _ => 1,
    }
}

/// LSU busy cycles for a shared-memory access serialized over `degree`
/// bank passes.
#[must_use]
pub fn smem_occupancy(degree: u32) -> u64 {
    u64::from(degree)
}

/// Completion latency of a shared-memory access with conflict `degree`.
#[must_use]
pub fn smem_latency(cfg: &GpuConfig, degree: u32) -> u64 {
    cfg.smem_latency + u64::from(degree - 1)
}

/// LSU busy cycles for a parameter-space access.
pub const PARAM_OCCUPANCY: u64 = 1;

/// Completion latency of a parameter-space access (constant-cache hit).
#[must_use]
pub fn param_latency(cfg: &GpuConfig) -> u64 {
    cfg.l1_latency / 2
}

/// LSU busy cycles for a global access coalesced into `lines` 128-byte
/// transactions.
#[must_use]
pub fn global_occupancy(lines: u64) -> u64 {
    lines
}

/// Completion latency of a global line that hits in L1.
#[must_use]
pub fn l1_hit_latency(cfg: &GpuConfig) -> u64 {
    cfg.l1_latency
}

/// Completion latency of a global line that misses L1 and hits L2 (also
/// the write-through store/atomic L2-hit path).
#[must_use]
pub fn l2_hit_latency(cfg: &GpuConfig) -> u64 {
    cfg.l1_latency + cfg.l2_latency
}

/// Un-queued completion latency of a global line served by DRAM; the
/// bandwidth-limited [`crate::mem::DramModel`] may add queueing delay on
/// top (at most one extra slot per `dram_bandwidth` outstanding lines).
#[must_use]
pub fn dram_line_latency(cfg: &GpuConfig) -> u64 {
    cfg.l1_latency + cfg.dram_latency
}

/// Extra serialization an atomic pays on top of its line latencies, as a
/// function of its active-lane count.
#[must_use]
pub fn atomic_serialization(active_lanes: usize) -> u64 {
    active_lanes as u64 / 4
}

/// Instructions the fetch stage can deliver per cycle SM-wide: one I-cache
/// burst per fetch slot, `instrs_per_fetch` instructions per burst.
#[must_use]
pub fn fetch_bandwidth(cfg: &GpuConfig) -> u64 {
    (cfg.fetch_width * cfg.instrs_per_fetch) as u64
}

/// Instructions the issue stage can start per cycle SM-wide.
#[must_use]
pub fn issue_bandwidth(cfg: &GpuConfig) -> u64 {
    (cfg.schedulers_per_sm * cfg.issue_width) as u64
}

/// Fetch-stage I-cache miss penalty: the line is refilled from L2 and the
/// warp cannot fetch again until it lands.
#[must_use]
pub fn fetch_miss_penalty(cfg: &GpuConfig) -> u64 {
    cfg.l2_latency
}
