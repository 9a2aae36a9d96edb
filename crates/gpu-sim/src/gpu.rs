//! Top level: the threadblock dispatcher, the shared L2/DRAM, and the
//! simulation run loop.

use crate::config::{GpuConfig, Technique};
use crate::digest::{
    fold, splitmix64, DigestCadence, DigestConfig, Perturb, RunDigests, FNV_OFFSET,
};
use crate::mem::{DramModel, GlobalMemory, TagCache};
use crate::sm::{KernelData, Sm};
use crate::stats::SimStats;
use simt_compiler::CompiledKernel;
use simt_isa::{Dim3, LaunchConfig};
use std::sync::Arc;

/// Result of a kernel simulation.
#[derive(Debug)]
pub struct SimResult {
    /// Total cycles until the grid drained.
    pub cycles: u64,
    /// Aggregated statistics across all SMs.
    pub stats: SimStats,
    /// Global memory after the kernel (inspect outputs here).
    pub memory: GlobalMemory,
    /// Pipeline trace (empty unless [`GpuConfig::trace_events`]).
    pub events: crate::events::EventLog,
    /// Cycle-accounted profile, one entry per SM (`None` unless
    /// [`GpuConfig::profile`]).
    pub profile: Option<crate::profile::SimProfile>,
    /// Epoch-chained state digests (`None` when [`GpuConfig::digest`] is
    /// disabled). The folded root also lands on
    /// [`SimStats::digest_root`](crate::SimStats::digest_root).
    pub digests: Option<RunDigests>,
    /// SM-cycles actually simulated, summed over SMs: at most
    /// `cycles × num_sms`, less the cycles sleeping SMs skipped. A host
    /// work counter, not a modelled number.
    pub sm_cycles_simulated: u64,
}

/// Records one digest epoch: every SM's state chain plus the shared
/// memory-system chain (global pages touched since the previous epoch, L2
/// tag state, the DRAM queue cursor). Sleeping SMs must have caught up.
fn record_epoch(
    d: &mut RunDigests,
    dcfg: &DigestConfig,
    now: u64,
    sms: &[Sm],
    global: &mut GlobalMemory,
    l2: &TagCache,
    dram: &DramModel,
) {
    for sm in sms {
        let (state, comps) = sm.digest_epoch(dcfg.components);
        d.sm_chains[sm.id].push(now, state, comps);
    }
    let mut h = FNV_OFFSET;
    fold(&mut h, global.epoch_digest());
    l2.digest_fold(&mut h);
    dram.digest_fold(&mut h);
    d.mem_chain.push(now, splitmix64(h), None);
}

/// The whole GPU: `num_sms` SMs sharing L2, DRAM and global memory.
#[derive(Debug)]
pub struct Gpu {
    cfg: GpuConfig,
    technique: Technique,
}

impl Gpu {
    /// A GPU with the given configuration and redundancy technique.
    #[must_use]
    pub fn new(cfg: GpuConfig, technique: Technique) -> Gpu {
        Gpu { cfg, technique }
    }

    /// Runs `ck` with launch geometry `launch` against `memory`.
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds `max_cycles` (deadlock guard), or
    /// if a TB cannot fit on an empty SM (resource overflow).
    pub fn launch(
        &self,
        ck: &CompiledKernel,
        launch: &LaunchConfig,
        memory: GlobalMemory,
    ) -> SimResult {
        let kd = Arc::new(KernelData::new(ck.clone(), launch.clone()));
        let mut sms: Vec<Sm> = (0..self.cfg.num_sms)
            .map(|i| Sm::new(i, &self.cfg, self.technique.clone(), Arc::clone(&kd)))
            .collect();

        // Grid iteration order: x fastest, like the hardware dispatcher.
        let total_tbs = launch.num_blocks();
        let mut next_tb: u64 = 0;
        let grid = launch.grid;
        let tb_coord = |i: u64| -> Dim3 {
            let x = (i % u64::from(grid.x)) as u32;
            let y = ((i / u64::from(grid.x)) % u64::from(grid.y)) as u32;
            let z = (i / (u64::from(grid.x) * u64::from(grid.y))) as u32;
            Dim3::three_d(x, y, z)
        };

        let mut global = memory;
        let mut l2 = TagCache::new(self.cfg.l2_lines, self.cfg.l2_assoc);
        let mut dram = DramModel::new(self.cfg.dram_bandwidth);

        // Initial fill, round-robin across SMs.
        let mut progress = true;
        while progress && next_tb < total_tbs {
            progress = false;
            for sm in &mut sms {
                if next_tb >= total_tbs {
                    break;
                }
                if sm.can_accept_tb() {
                    sm.launch_tb(tb_coord(next_tb));
                    next_tb += 1;
                    progress = true;
                }
            }
        }
        if total_tbs > 0 {
            assert!(
                next_tb > 0,
                "kernel {} does not fit on an empty SM (regs/smem/warps overflow)",
                ck.kernel.name
            );
        }

        let dcfg = self.cfg.digest;
        let mut digests = dcfg.enabled.then(|| RunDigests::new(self.cfg.num_sms));
        let mut last_barrier_marks: u64 = 0;

        let mut now: u64 = 0;
        loop {
            // Deliberate reproducible perturbation (bisector fixtures):
            // applied at the start of its cycle, before that cycle's digest
            // epoch can observe it.
            match self.cfg.perturb {
                Some(Perturb::GlobalWord { cycle, addr, xor }) if cycle == now => {
                    let v = global.read_u32(addr);
                    global.write_u32(addr, v ^ xor);
                }
                Some(Perturb::WarpReg { cycle, sm, warp_slot, word, xor }) if cycle == now => {
                    if let Some(s) = sms.get_mut(sm) {
                        s.wake(now.saturating_sub(1));
                        s.perturb_warp_reg(warp_slot, word, xor);
                    }
                }
                _ => {}
            }
            let mut any_busy = false;
            let mut completed = 0u32;
            for sm in &mut sms {
                completed += sm.cycle(now, &mut global, &mut l2, &mut dram);
                any_busy |= sm.busy();
            }
            if let Some(d) = digests.as_mut() {
                let due = match dcfg.cadence {
                    DigestCadence::Cycle(n) => now.is_multiple_of(n.max(1)),
                    DigestCadence::Barrier => {
                        let marks: u64 = sms.iter().map(|s| s.barrier_marks).sum();
                        let due = marks != last_barrier_marks;
                        last_barrier_marks = marks;
                        due
                    }
                    DigestCadence::TbBoundary => completed > 0,
                };
                if due && dcfg.in_window(now) {
                    for sm in &mut sms {
                        sm.catch_up(now);
                    }
                    record_epoch(d, &dcfg, now, &sms, &mut global, &l2, &dram);
                }
            }
            // Refill freed capacity. A dispatch makes the machine busy
            // again (the earlier busy() snapshot is stale).
            if completed > 0 {
                for sm in &mut sms {
                    while next_tb < total_tbs && sm.can_accept_tb() {
                        sm.wake(now);
                        sm.launch_tb(tb_coord(next_tb));
                        next_tb += 1;
                        any_busy = true;
                    }
                }
            }
            now += 1;
            if !any_busy && next_tb >= total_tbs {
                break;
            }
            assert!(
                now < self.cfg.max_cycles,
                "simulation exceeded {} cycles (possible deadlock) running {}",
                self.cfg.max_cycles,
                ck.kernel.name
            );
        }

        // Every SM accounts the cycles it slept through up to the last one.
        for sm in &mut sms {
            sm.catch_up(now - 1);
        }
        // Drain epoch: one final snapshot of the fully idle machine, so
        // runs that differ only in lifetime still differ in chain length.
        if let Some(d) = digests.as_mut() {
            if dcfg.in_window(now) {
                record_epoch(d, &dcfg, now, &sms, &mut global, &l2, &dram);
            }
            d.finish(now);
        }

        let mut stats = SimStats::default();
        let mut events = crate::events::EventLog::new(crate::events::TRACE_CAPACITY);
        let mut profile = self.cfg.profile.then(crate::profile::SimProfile::default);
        let mut sm_cycles_simulated = 0;
        for sm in &mut sms {
            sm_cycles_simulated += sm.cycles_simulated;
            stats.merge(&sm.stats);
            events.merge(std::mem::take(&mut sm.events));
            if let Some(p) = profile.as_mut() {
                let smp = std::mem::take(&mut sm.profile);
                debug_assert_eq!(smp.check_identity(), Ok(()), "SM {} accounting", smp.sm);
                p.sms.push(smp);
            }
        }
        stats.cycles = now;
        stats.digest_root = digests.as_ref().map_or(0, |d| d.root);
        assert_eq!(
            stats.tbs_completed, total_tbs,
            "dispatcher lost threadblocks in {}",
            ck.kernel.name
        );
        SimResult {
            cycles: now,
            stats,
            memory: global,
            events,
            profile,
            digests,
            sm_cycles_simulated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{KernelBuilder, MemSpace, SpecialReg, Value};

    /// out[gid] = in[gid] + 1, 1D grid.
    fn add_one_kernel() -> CompiledKernel {
        let mut b = KernelBuilder::new("add_one");
        let tid = b.special(SpecialReg::TidX);
        let ctaid = b.special(SpecialReg::CtaidX);
        let ntid = b.special(SpecialReg::NtidX);
        let gid = b.imad(ctaid, ntid, tid);
        let off = b.shl_imm(gid, 2);
        let inp = b.param(0);
        let outp = b.param(1);
        let a_in = b.iadd(inp, off);
        let v = b.load(MemSpace::Global, a_in, 0);
        let w = b.iadd(v, 1u32);
        let a_out = b.iadd(outp, off);
        b.store(MemSpace::Global, a_out, w, 0);
        simt_compiler::compile(b.finish())
    }

    #[test]
    fn base_runs_small_1d_kernel_correctly() {
        let ck = add_one_kernel();
        let mut mem = GlobalMemory::new();
        let n = 256u32;
        let a_in = mem.alloc(u64::from(n) * 4);
        let a_out = mem.alloc(u64::from(n) * 4);
        let input: Vec<u32> = (0..n).map(|i| i * 3).collect();
        mem.write_slice_u32(a_in, &input);
        let launch = LaunchConfig::new(4u32, 64u32)
            .with_params(vec![Value(a_in as u32), Value(a_out as u32)]);
        let gpu = Gpu::new(GpuConfig::test_small(), Technique::Base);
        let res = gpu.launch(&ck, &launch, mem);
        let out = res.memory.read_vec_u32(a_out, n as usize);
        let expect: Vec<u32> = input.iter().map(|v| v + 1).collect();
        assert_eq!(out, expect);
        assert!(res.cycles > 0);
        assert!(res.stats.instrs_executed >= u64::from(n / 32) * 11);
        assert_eq!(res.stats.tbs_completed, 4);
    }

    #[test]
    fn darsie_matches_base_output_on_2d_kernel() {
        // out[tid.y*16+tid.x] = in[tid.x] * 2 (tid.x chain is skippable
        // under a 16x16 block).
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
        let ck = simt_compiler::compile(b.finish());

        let mk_mem = || {
            let mut mem = GlobalMemory::new();
            let a_in = mem.alloc(16 * 4);
            let a_out = mem.alloc(256 * 4);
            let input: Vec<u32> = (0..16).map(|i| 100 + i).collect();
            mem.write_slice_u32(a_in, &input);
            (mem, a_in, a_out)
        };
        let (mem_b, ain, aout) = mk_mem();
        let launch = LaunchConfig::new(2u32, (16u32, 16u32))
            .with_params(vec![Value(ain as u32), Value(aout as u32)]);

        let base = Gpu::new(GpuConfig::test_small(), Technique::Base).launch(&ck, &launch, mem_b);
        let (mem_d, _, _) = mk_mem();
        let dars =
            Gpu::new(GpuConfig::test_small(), Technique::darsie()).launch(&ck, &launch, mem_d);

        assert_eq!(
            base.memory.read_vec_u32(aout, 256),
            dars.memory.read_vec_u32(aout, 256),
            "DARSIE must preserve architected state"
        );
        assert!(dars.stats.instrs_skipped.total() > 0, "some instructions skipped");
        assert!(
            dars.stats.instrs_executed < base.stats.instrs_executed,
            "skipping reduces executed instructions"
        );
    }

    #[test]
    fn techniques_all_run_the_same_kernel() {
        let ck = add_one_kernel();
        for tech in [
            Technique::Base,
            Technique::Uv,
            Technique::DacIdeal,
            Technique::darsie(),
            Technique::SiliconSync,
        ] {
            let mut mem = GlobalMemory::new();
            let a_in = mem.alloc(256 * 4);
            let a_out = mem.alloc(256 * 4);
            mem.write_slice_u32(a_in, &(0..256u32).collect::<Vec<_>>());
            let launch = LaunchConfig::new(2u32, 128u32)
                .with_params(vec![Value(a_in as u32), Value(a_out as u32)]);
            let res = Gpu::new(GpuConfig::test_small(), tech.clone()).launch(&ck, &launch, mem);
            let out = res.memory.read_vec_u32(a_out, 256);
            let expect: Vec<u32> = (1..=256).collect();
            assert_eq!(out, expect, "technique {}", tech.label());
        }
    }
}
