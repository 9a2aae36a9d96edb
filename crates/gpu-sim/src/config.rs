//! GPU configuration (paper Table 2: Pascal GTX 1080 Ti baseline).

use crate::digest::{DigestConfig, Perturb};
use darsie::DarsieConfig;

/// Warp scheduling policy of the issue schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// Greedy-then-oldest: keep issuing the current warp until it stalls,
    /// then switch to the oldest ready warp (the paper's best performer).
    Gto,
    /// Loose round robin.
    Lrr,
}

/// The redundancy-elimination technique a simulation runs with.
#[derive(Debug, Clone, PartialEq)]
pub enum Technique {
    /// The unmodified baseline GPU.
    Base,
    /// Uniform Vector (Xiang et al.): value-keyed instruction reuse of
    /// TB-uniform instructions at the issue stage. Instructions are still
    /// fetched and decoded.
    Uv,
    /// Idealized Decoupled Affine Computation (Wang & Lin): every uniform
    /// or affine non-memory instruction runs once on a free affine stream,
    /// with no synchronization cost.
    DacIdeal,
    /// DARSIE instruction skipping in fetch, with the given hardware
    /// configuration.
    Darsie(DarsieConfig),
    /// The Figure-12 `SILICON-SYNC` experiment: the baseline pipeline with
    /// a `__syncthreads()` inserted at every basic-block boundary and no
    /// skipping — isolates DARSIE's synchronization cost.
    SiliconSync,
}

impl Technique {
    /// Convenience constructor for default DARSIE.
    #[must_use]
    pub fn darsie() -> Technique {
        Technique::Darsie(DarsieConfig::default())
    }

    /// Short display label used in reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Technique::Base => "BASE",
            Technique::Uv => "UV",
            Technique::DacIdeal => "DAC-IDEAL",
            Technique::Darsie(c) if c.ignore_store => "DARSIE-IGNORE-STORE",
            Technique::Darsie(c) if c.no_cf_sync => "DARSIE-NO-CF-SYNC",
            Technique::Darsie(c) if !c.versioning => "DARSIE-NO-VERSIONING",
            Technique::Darsie(_) => "DARSIE",
            Technique::SiliconSync => "SILICON-SYNC",
        }
    }
}

/// Full machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Streaming multiprocessors.
    pub num_sms: usize,
    /// SIMT width.
    pub warp_size: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Maximum resident threadblocks per SM.
    pub max_tbs_per_sm: u32,
    /// Vector registers per SM (each 32 lanes x 32 bits).
    pub vector_regs_per_sm: u32,
    /// Shared memory bytes per SM.
    pub shared_mem_per_sm: u32,
    /// Issue schedulers per SM; warps are statically partitioned.
    pub schedulers_per_sm: usize,
    /// Instructions one scheduler may issue per cycle (dual issue = 2).
    pub issue_width: usize,
    /// Warp scheduling policy.
    pub scheduler: SchedulerPolicy,
    /// Warps the fetch scheduler serves per cycle.
    pub fetch_width: usize,
    /// Consecutive instructions fetched per I-cache access.
    pub instrs_per_fetch: usize,
    /// I-buffer entries per warp.
    pub ibuffer_entries: usize,
    /// Vector register file banks per SM.
    pub rf_banks: usize,
    /// I-cache: total lines (128 B each, 16 instructions).
    pub icache_lines: usize,
    /// I-cache associativity.
    pub icache_assoc: usize,
    /// L1 data cache lines per SM (128 B each).
    pub l1d_lines: usize,
    /// L1 data cache associativity.
    pub l1d_assoc: usize,
    /// Shared L2 lines (128 B each).
    pub l2_lines: usize,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// Integer ALU latency (cycles).
    pub int_latency: u64,
    /// Floating-point latency (cycles).
    pub fp_latency: u64,
    /// SFU (transcendental) latency.
    pub sfu_latency: u64,
    /// SFU initiation interval (cycles a SFU op blocks its unit).
    pub sfu_interval: u64,
    /// Shared-memory access latency.
    pub smem_latency: u64,
    /// L1 hit latency for global accesses.
    pub l1_latency: u64,
    /// Additional latency for an L2 hit.
    pub l2_latency: u64,
    /// Additional latency for a DRAM access.
    pub dram_latency: u64,
    /// DRAM transactions (128-byte) serviced per cycle, whole GPU.
    pub dram_bandwidth: usize,
    /// Hard cycle limit (deadlock guard).
    pub max_cycles: u64,
    /// Recompute skipped values functionally and compare against the
    /// shared leader value (test-only soundness oracle; off in benches).
    pub shadow_check: bool,
    /// Record pipeline events (fetch/skip/issue/...) into
    /// [`SimResult::events`](crate::SimResult); for debugging small runs.
    pub trace_events: bool,
    /// Enable cycle-accounted profiling: issue-slot stall attribution,
    /// per-PC/per-warp breakdowns, leader-latency histograms and occupancy
    /// samples, returned in [`SimResult::profile`](crate::SimResult).
    pub profile: bool,
    /// Epoch-chained state-digest layer (the determinism observatory):
    /// cadence, fine-mode component sub-digests and recording window. On
    /// by default at coarse cadence; the per-run root lands on
    /// [`SimStats::digest_root`](crate::SimStats::digest_root).
    pub digest: DigestConfig,
    /// Deliberate reproducible state perturbation, injected at a fixed
    /// cycle (divergence-bisection fixtures only; `None` in real runs).
    pub perturb: Option<Perturb>,
}

impl GpuConfig {
    /// The paper's Table 2 baseline: Pascal GTX 1080 Ti.
    ///
    /// 28 SMs, 64 warps/SM, 32 TBs/SM, 2 K vector registers per SM, 96 KB
    /// shared memory per SM, 4 GTO warp schedulers per SM.
    #[must_use]
    pub fn pascal_gtx1080ti() -> GpuConfig {
        GpuConfig {
            num_sms: 28,
            warp_size: 32,
            max_warps_per_sm: 64,
            max_tbs_per_sm: 32,
            vector_regs_per_sm: 2048,
            shared_mem_per_sm: 96 * 1024,
            schedulers_per_sm: 4,
            issue_width: 2,
            scheduler: SchedulerPolicy::Gto,
            // The paper's frontend: "a fetch scheduler initiates a fetch
            // for one of the warps" per cycle (Section 3).
            fetch_width: 1,
            instrs_per_fetch: 2,
            ibuffer_entries: 2,
            rf_banks: 16,
            icache_lines: 64, // 8 KB
            icache_assoc: 4,
            l1d_lines: 384, // 48 KB
            l1d_assoc: 6,
            l2_lines: 22528, // 2.75 MB
            l2_assoc: 16,
            int_latency: 4,
            fp_latency: 6,
            sfu_latency: 16,
            sfu_interval: 4,
            smem_latency: 24,
            l1_latency: 30,
            l2_latency: 190,
            dram_latency: 350,
            dram_bandwidth: 3,
            max_cycles: 200_000_000,
            shadow_check: false,
            trace_events: false,
            profile: false,
            digest: DigestConfig::default(),
            perturb: None,
        }
    }

    /// A scaled-down machine for fast unit and property tests: one SM,
    /// small caches, short latencies. Functionally identical.
    #[must_use]
    pub fn test_small() -> GpuConfig {
        GpuConfig {
            num_sms: 1,
            max_warps_per_sm: 64,
            max_tbs_per_sm: 8,
            icache_lines: 16,
            l1d_lines: 32,
            l1d_assoc: 4,
            l2_lines: 256,
            l2_assoc: 8,
            dram_latency: 40,
            l2_latency: 20,
            l1_latency: 8,
            smem_latency: 4,
            max_cycles: 20_000_000,
            shadow_check: true,
            ..GpuConfig::pascal_gtx1080ti()
        }
    }

    /// Bytes of shared memory per 128-byte cache line constant.
    pub const LINE_BYTES: u64 = 128;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pascal_preset_matches_table2() {
        let c = GpuConfig::pascal_gtx1080ti();
        assert_eq!(c.num_sms, 28);
        assert_eq!(c.max_warps_per_sm, 64);
        assert_eq!(c.max_tbs_per_sm, 32);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.vector_regs_per_sm, 2048);
        assert_eq!(c.shared_mem_per_sm, 96 * 1024);
        assert_eq!(c.schedulers_per_sm, 4);
        assert_eq!(c.scheduler, SchedulerPolicy::Gto);
    }

    #[test]
    fn technique_labels() {
        assert_eq!(Technique::Base.label(), "BASE");
        assert_eq!(Technique::darsie().label(), "DARSIE");
        assert_eq!(Technique::Darsie(DarsieConfig::ignore_store()).label(), "DARSIE-IGNORE-STORE");
        assert_eq!(Technique::Darsie(DarsieConfig::no_cf_sync()).label(), "DARSIE-NO-CF-SYNC");
        assert_eq!(Technique::SiliconSync.label(), "SILICON-SYNC");
    }

    #[test]
    fn test_config_enables_shadow_check() {
        assert!(GpuConfig::test_small().shadow_check);
        assert!(!GpuConfig::pascal_gtx1080ti().shadow_check);
    }
}
