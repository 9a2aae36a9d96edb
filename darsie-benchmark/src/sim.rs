//! The simulation workloads: every catalog kernel under BASE and/or DARSIE
//! on one machine, timed from outside around `Gpu::launch`.

use crate::run::{catch, Clock, Ledger, Pass, Runner};
use crate::stats::median;
use darsie::DarsieStats;
use darsie_bench::{eval_gpu, gmean};
use gpu_energy::EnergyModel;
use gpu_sim::digest::fold;
use gpu_sim::{
    DigestConfig, Gpu, GpuConfig, SimResult, SimStats, SlotCounts, StallCause, Technique,
};
use std::collections::BTreeMap;
use workloads::Workload;

/// Cycle limit per launch. A deadlock fails within seconds instead of
/// spinning to the 200 M-cycle Pascal default; the longest catalog launch
/// (MM under BASE on four SMs) takes 56 k cycles.
pub const MAX_CYCLES: u64 = 5_000_000;

/// One simulation workload.
pub struct Sim<'a> {
    name: &'static str,
    catalog: &'a [Workload],
    cfg: GpuConfig,
    /// `(kernel index, technique)` in fixed order.
    ops: Vec<(usize, Technique)>,
    /// Statistics of each operation's first successful run.
    reference: Vec<Option<SimStats>>,
    /// Issue-slot attribution summed over the profiled launches.
    slots: Option<SlotCounts>,
}

impl<'a> Sim<'a> {
    /// Every kernel of `catalog` under each of `techniques` on
    /// `eval_gpu(num_sms)`, with the test-only shadow check off.
    pub fn new(
        name: &'static str,
        catalog: &'a [Workload],
        num_sms: usize,
        techniques: &[Technique],
    ) -> Sim<'a> {
        let ops: Vec<(usize, Technique)> = (0..catalog.len())
            .flat_map(|k| techniques.iter().map(move |t| (k, t.clone())))
            .collect();
        Sim {
            name,
            catalog,
            cfg: GpuConfig { max_cycles: MAX_CYCLES, ..eval_gpu(num_sms) },
            reference: vec![None; ops.len()],
            ops,
            slots: None,
        }
    }

    #[cfg(test)]
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Sim<'a> {
        self.cfg.max_cycles = max_cycles;
        self
    }

    fn label(&self, op: usize) -> impl Fn() -> String {
        let (name, abbr, tech) =
            (self.name, self.catalog[self.ops[op].0].abbr, self.ops[op].1.label());
        move || format!("{name}/{abbr}/{tech}")
    }

    /// Launches operation `op` on `cfg`; a panic becomes an error.
    fn launch(
        &self,
        op: usize,
        cfg: &GpuConfig,
        memory: gpu_sim::GlobalMemory,
    ) -> Result<SimResult, String> {
        let (k, tech) = &self.ops[op];
        let w = &self.catalog[*k];
        catch(|| Gpu::new(cfg.clone(), tech.clone()).launch(&w.ck, &w.launch, memory))
    }

    /// Checks a finished launch against the CPU reference, then against
    /// the first pass's run of the same operation, which it must repeat
    /// bit for bit (statistics and digest root).
    pub(crate) fn judge(&mut self, op: usize, res: &SimResult) -> Result<(), String> {
        let catalog = self.catalog;
        let w = &catalog[self.ops[op].0];
        catch(|| (w.check)(&res.memory))?.map_err(|e| format!("CPU reference mismatch: {e}"))?;
        match &self.reference[op] {
            None => {
                self.reference[op] = Some(res.stats.clone());
                Ok(())
            }
            Some(r) if *r == res.stats => Ok(()),
            Some(r) => Err(format!(
                "nondeterministic: digest_root {:#018x} and {} cycles, first pass had {:#018x} and {}",
                res.stats.digest_root, res.stats.cycles, r.digest_root, r.cycles
            )),
        }
    }

    /// The traced extras of one operation: the same launch with the digest
    /// layer off (for `digest_share`) and with profiling on (for slot
    /// shares). Neither may change the modelled result.
    /// Returns the wall time of the digest-off launch.
    fn trace_extras(&mut self, op: usize, clock: &mut Clock, ledger: &mut Ledger) -> f64 {
        let label = self.label(op);
        let memory = self.catalog[self.ops[op].0].memory.clone();
        let cfg = GpuConfig { digest: DigestConfig::off(), ..self.cfg.clone() };
        let (res, off) =
            clock.time(|| format!("{}/launch_nodigest", label()), || self.launch(op, &cfg, memory));
        let want = self.reference[op].clone().map(|s| SimStats { digest_root: 0, ..s });
        ledger.record(
            || format!("{} digest off", label()),
            res.and_then(|r| same(&r.stats, want.as_ref())),
        );

        let memory = self.catalog[self.ops[op].0].memory.clone();
        let cfg = GpuConfig { profile: true, ..self.cfg.clone() };
        let (res, _) =
            clock.time(|| format!("{}/launch_profile", label()), || self.launch(op, &cfg, memory));
        let want = self.reference[op].clone();
        let outcome = res.and_then(|r| {
            let profile = r.profile.as_ref().ok_or("profiled launch returned no profile")?;
            profile.check_identity()?;
            self.slots.get_or_insert_with(SlotCounts::default).merge(&profile.slots());
            same(&r.stats, want.as_ref())
        });
        ledger.record(|| format!("{} profile on", label()), outcome);
        off.wall
    }

    fn refs(&self) -> impl Iterator<Item = (usize, &Technique, &SimStats)> {
        self.ops
            .iter()
            .zip(&self.reference)
            .filter_map(|((k, t), r)| r.as_ref().map(|s| (*k, t, s)))
    }

    fn sm_cycles(&self) -> f64 {
        self.refs().map(|(_, _, s)| s.cycles as f64).sum::<f64>() * self.cfg.num_sms as f64
    }

    fn warp_instructions(&self) -> f64 {
        self.refs().map(|(_, _, s)| winst(s) as f64).sum()
    }
}

/// Executed plus eliminated warp instructions: the program's instruction
/// work, the same for every technique.
fn winst(s: &SimStats) -> u64 {
    s.instrs_executed + s.instrs_skipped.total() + s.instrs_reused.total()
}

fn same(got: &SimStats, want: Option<&SimStats>) -> Result<(), String> {
    match want {
        Some(w) if w != got => {
            Err(format!("modelled result changed ({} cycles, expected {})", got.cycles, w.cycles))
        }
        _ => Ok(()),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Runner for Sim<'_> {
    fn units(&self) -> usize {
        self.ops.len()
    }

    fn pass(&mut self, order: &[usize], clock: &mut Clock, ledger: &mut Ledger) -> Pass {
        let mut op_walls = vec![0.0; self.ops.len()];
        let (mut launch_s, mut clone_s, mut allocs, mut bytes) = (0.0, 0.0, 0u64, 0u64);
        let mut shares = Vec::new();
        let catalog = self.catalog;
        for &op in order {
            let label = self.label(op);
            let w = &catalog[self.ops[op].0];
            clock.group(&label, |clock| {
                let (memory, clone) =
                    clock.time(|| format!("{}/mem_clone", label()), || w.memory.clone());
                let (res, launch) = clock
                    .time(|| format!("{}/launch", label()), || self.launch(op, &self.cfg, memory));
                op_walls[op] = clone.wall + launch.wall;
                launch_s += launch.wall;
                clone_s += clone.wall;
                allocs += launch.allocs;
                bytes += launch.alloc_bytes;
                let (outcome, _) = clock
                    .time(|| format!("{}/check", label()), || res.and_then(|r| self.judge(op, &r)));
                ledger.record(&label, outcome);
                if clock.traced() {
                    let off = self.trace_extras(op, clock, ledger);
                    shares.push(1.0 - ratio(off, launch.wall));
                }
            });
        }
        let host = if clock.traced() {
            let (sm_cycles, winst) = (self.sm_cycles(), self.warp_instructions());
            vec![
                ("gpu_sim.launch_s", launch_s),
                ("gpu_sim.mem_clone_s", clone_s),
                ("gpu_sim.ns_per_sm_cycle", ratio(launch_s * 1e9, sm_cycles)),
                ("gpu_sim.ns_per_winst", ratio(launch_s * 1e9, winst)),
                ("gpu_sim.allocs_per_sm_cycle", ratio(allocs as f64, sm_cycles)),
                ("gpu_sim.alloc_mb", bytes as f64 / 1e6),
                ("gpu_sim.digest_share", median(&shares)),
            ]
        } else {
            Vec::new()
        };
        Pass { op_walls, host }
    }

    fn model(&self) -> Vec<(&'static str, f64)> {
        let mut out = vec![("sim_cycles", self.refs().map(|(_, _, s)| s.cycles as f64).sum())];
        let c = self.counters();
        if self.ops.iter().any(|(_, t)| matches!(t, Technique::Darsie(_))) {
            out.push(("insn_eliminated_frac", c["darsie.insn_eliminated_frac"]));
        }
        if let Some(&g) = c.get("darsie.speedup_gmean") {
            out.push(("darsie_speedup_gmean", g));
        }
        out
    }

    fn fingerprint(&self) -> u64 {
        let mut h = gpu_sim::digest::FNV_OFFSET;
        for (_, _, s) in self.refs() {
            fold(&mut h, s.digest_root);
            fold(&mut h, s.cycles);
            fold(&mut h, winst(s));
        }
        h
    }

    fn counters(&self) -> BTreeMap<String, f64> {
        let sum =
            |f: &dyn Fn(&SimStats) -> u64| self.refs().map(|(_, _, s)| f(s) as f64).sum::<f64>();
        let mut d = DarsieStats::default();
        for (_, _, s) in self.refs() {
            d.merge(&s.darsie);
        }
        let darsie_runs: Vec<&SimStats> = self
            .refs()
            .filter(|(_, t, _)| matches!(t, Technique::Darsie(_)))
            .map(|(_, _, s)| s)
            .collect();
        let eliminated: u64 =
            darsie_runs.iter().map(|s| s.instrs_skipped.total() + s.instrs_reused.total()).sum();
        let energy = EnergyModel::with_sms(self.cfg.num_sms);
        let (mut total_pj, mut darsie_pj) = (0.0, 0.0);
        for (_, _, s) in self.refs() {
            let e = energy.evaluate(s);
            total_pj += e.total();
            darsie_pj += e.darsie_overhead;
        }
        let mut m: BTreeMap<String, f64> = [
            ("gpu_sim.sim_cycles", sum(&|s| s.cycles)),
            (
                "gpu_sim.icache_miss_rate",
                ratio(sum(&|s| s.icache_misses), sum(&|s| s.icache_accesses)),
            ),
            ("gpu_sim.l1_hit_rate", ratio(sum(&|s| s.l1_hits), sum(&|s| s.l1_hits + s.l1_misses))),
            ("gpu_sim.l2_hit_rate", ratio(sum(&|s| s.l2_hits), sum(&|s| s.l2_hits + s.l2_misses))),
            ("gpu_sim.dram_transactions", sum(&|s| s.l2_misses)),
            ("gpu_sim.global_transactions", sum(&|s| s.global_transactions)),
            ("gpu_sim.smem_bank_conflicts", sum(&|s| s.smem_bank_conflicts)),
            ("gpu_sim.rf_bank_conflicts", sum(&|s| s.rf_bank_conflicts)),
            ("gpu_sim.barrier_waits", sum(&|s| s.barrier_waits)),
            ("gpu_sim.instrs_fetched", sum(&|s| s.instrs_fetched)),
            ("gpu_sim.active_cycle_frac", ratio(sum(&|s| s.active_cycles), self.sm_cycles())),
            (
                "darsie.insn_eliminated_frac",
                ratio(eliminated as f64, darsie_runs.iter().map(|s| winst(s) as f64).sum()),
            ),
            ("darsie.skip_table_probes", d.skip_table_probes as f64),
            ("darsie.skip_yield", ratio(d.instructions_skipped as f64, d.skip_table_probes as f64)),
            ("darsie.leaders_elected", d.leaders_elected as f64),
            (
                "darsie.coalesced_frac",
                ratio(d.coalesced_probes as f64, (d.skip_table_probes + d.coalesced_probes) as f64),
            ),
            ("darsie.coalescer_rejections", d.coalescer_rejections as f64),
            ("darsie.skip_table_evictions", d.skip_table_evictions as f64),
            ("darsie.load_invalidations", d.load_invalidations as f64),
            ("darsie.rename_reads", d.rename_reads as f64),
            ("darsie.rename_writes", d.rename_writes as f64),
            ("darsie.freelist_stalls", d.freelist_stalls as f64),
            ("darsie.leader_giveups", d.leader_giveups as f64),
            ("darsie.wait_for_leader_cycles", d.wait_for_leader_cycles as f64),
            ("darsie.branch_sync_cycles", d.branch_sync_cycles as f64),
            ("darsie.majority_evictions", d.majority_evictions as f64),
            ("gpu_energy.total_uj", total_pj / 1e6),
            ("gpu_energy.darsie_overhead_frac", ratio(darsie_pj, total_pj)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        // Figure 8's speedup needs both techniques of a kernel.
        let speedups: Vec<f64> = (0..self.catalog.len())
            .filter_map(|k| {
                let cycles = |darsie: bool| {
                    self.refs()
                        .find(|(kk, t, _)| *kk == k && matches!(t, Technique::Darsie(_)) == darsie)
                        .map(|(_, _, s)| s.cycles as f64)
                };
                Some(cycles(false)? / cycles(true)?)
            })
            .collect();
        if !speedups.is_empty() {
            m.insert("darsie.speedup_gmean".to_string(), gmean(speedups));
        }
        if let Some(slots) = &self.slots {
            for c in StallCause::ALL {
                m.insert(
                    format!("gpu_sim.slot.{}", c.label()),
                    ratio(slots.get(c) as f64, slots.total() as f64),
                );
            }
        }
        m
    }
}
