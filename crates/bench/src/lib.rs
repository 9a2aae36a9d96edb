//! Shared experiment engine for the figure/table harness.
//!
//! Every paper artifact is regenerated from the same pipeline: run the 13
//! Table-1 workloads under each technique, then render the figure's
//! rows/series from the collected [`SimStats`]. The `figures` binary
//! renders every figure, table and ablation from this module, and the
//! `darsie-sim` CLI writes its documents with [`json`].

pub mod json;
pub mod manifest;
pub mod perfetto;
pub mod replay;

use darsie::DarsieConfig;
use gpu_energy::EnergyModel;
use gpu_sim::{trace_redundancy, GpuConfig, SchedulerPolicy, SimStats, Technique};
use workloads::{catalog, Scale, Workload};

/// The evaluation machine: the Table-2 Pascal SM configuration with a
/// reduced SM count so the scaled-down workloads still fill the GPU (the
/// paper's absolute sizes would leave 28 SMs mostly idle and flatten every
/// technique to launch latency).
#[must_use]
pub fn eval_gpu(num_sms: usize) -> GpuConfig {
    GpuConfig { num_sms, shadow_check: false, ..GpuConfig::pascal_gtx1080ti() }
}

/// Geometric mean.
#[must_use]
pub fn gmean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for x in xs {
        log_sum += x.max(1e-12).ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// The Figure-8 technique set.
#[must_use]
pub fn fig8_techniques() -> Vec<Technique> {
    vec![
        Technique::Base,
        Technique::Uv,
        Technique::DacIdeal,
        Technique::darsie(),
        Technique::Darsie(DarsieConfig::ignore_store()),
    ]
}

/// The Figure-12 technique set.
#[must_use]
pub fn fig12_techniques() -> Vec<Technique> {
    vec![
        Technique::Base,
        Technique::darsie(),
        Technique::Darsie(DarsieConfig::no_cf_sync()),
        Technique::SiliconSync,
    ]
}

/// Results of one workload under several techniques.
pub struct WorkloadRow {
    /// Figure abbreviation.
    pub abbr: &'static str,
    /// 2D-TB benchmark?
    pub is_2d: bool,
    /// `(technique label, stats)` in run order.
    pub per_tech: Vec<(&'static str, SimStats)>,
}

impl WorkloadRow {
    /// Stats for a given technique label.
    #[must_use]
    pub fn stats(&self, label: &str) -> Option<&SimStats> {
        self.per_tech.iter().find(|(l, _)| *l == label).map(|(_, s)| s)
    }

    /// Speedup of `label` over BASE (cycles ratio).
    #[must_use]
    pub fn speedup(&self, label: &str) -> f64 {
        let base = self.stats("BASE").expect("BASE was run").cycles as f64;
        let t = self.stats(label).expect("technique was run").cycles as f64;
        base / t.max(1.0)
    }

    /// Fraction (0..1) of baseline instruction work eliminated by `label`
    /// (skips before fetch plus issue-stage reuse), and its taxonomy split.
    #[must_use]
    pub fn insn_reduction(&self, label: &str) -> (f64, [f64; 3]) {
        let s = self.stats(label).expect("technique was run");
        let removed_counts = [
            s.instrs_skipped.uniform + s.instrs_reused.uniform,
            s.instrs_skipped.affine + s.instrs_reused.affine,
            s.instrs_skipped.unstructured + s.instrs_reused.unstructured,
        ];
        let removed: u64 = s.instrs_skipped.total() + s.instrs_reused.total();
        let total = s.instrs_executed + removed;
        if total == 0 {
            return (0.0, [0.0; 3]);
        }
        let f = removed as f64 / total as f64;
        let split = removed_counts.map(|c| c as f64 / total as f64);
        (f, split)
    }
}

/// All rows of one experiment sweep.
pub struct Report {
    /// One row per workload, in Table-1 order.
    pub rows: Vec<WorkloadRow>,
    /// SM count used (for the energy model).
    pub num_sms: usize,
}

/// Runs `techniques` over the full catalog.
#[must_use]
pub fn collect(scale: Scale, cfg: &GpuConfig, techniques: &[Technique]) -> Report {
    let mut rows = Vec::new();
    for w in catalog(scale) {
        let mut per_tech = Vec::new();
        for t in techniques {
            let res = w.run(cfg, t.clone());
            per_tech.push((t.label(), res.stats));
        }
        rows.push(WorkloadRow { abbr: w.abbr, is_2d: w.is_2d, per_tech });
    }
    Report { rows, num_sms: cfg.num_sms }
}

impl Report {
    /// The same sweep restricted to `techniques`, in that order: one sweep
    /// over the union of several figures' technique sets serves each.
    ///
    /// # Panics
    ///
    /// Panics if some technique was not run.
    #[must_use]
    pub fn select(&self, techniques: &[Technique]) -> Report {
        let pick = |r: &WorkloadRow| {
            let stats = |l| r.stats(l).expect("technique was run").clone();
            techniques.iter().map(|t| (t.label(), stats(t.label()))).collect()
        };
        let rows = self
            .rows
            .iter()
            .map(|r| WorkloadRow { abbr: r.abbr, is_2d: r.is_2d, per_tech: pick(r) })
            .collect();
        Report { rows, num_sms: self.num_sms }
    }

    /// Geometric-mean speedup of `label` over the 1D or 2D subset.
    #[must_use]
    pub fn gmean_speedup(&self, label: &str, two_d: bool) -> f64 {
        gmean(self.rows.iter().filter(|r| r.is_2d == two_d).map(|r| r.speedup(label)))
    }

    /// Renders the Figure-8 speedup table.
    #[must_use]
    pub fn render_fig8(&self) -> String {
        self.render_speedups("Figure 8: speedup over BASE")
    }

    /// Renders a speedup table under an arbitrary title (Figures 8 and 12
    /// share the format).
    #[must_use]
    pub fn render_speedups(&self, title: &str) -> String {
        let labels: Vec<&str> = self.rows[0].per_tech.iter().map(|(l, _)| *l).collect();
        let mut out = format!("{title}\n");
        out.push_str(&format!("{:10}", "bench"));
        for l in &labels {
            out.push_str(&format!(" {l:>20}"));
        }
        out.push('\n');
        let dump_subset = |out: &mut String, two_d: bool, tag: &str| {
            for r in self.rows.iter().filter(|r| r.is_2d == two_d) {
                out.push_str(&format!("{:10}", r.abbr));
                for l in &labels {
                    out.push_str(&format!(" {:>20.3}", r.speedup(l)));
                }
                out.push('\n');
            }
            out.push_str(&format!("{tag:10}"));
            for l in &labels {
                out.push_str(&format!(" {:>20.3}", self.gmean_speedup(l, two_d)));
            }
            out.push('\n');
        };
        dump_subset(&mut out, false, "GMEAN-1D");
        dump_subset(&mut out, true, "GMEAN-2D");
        out
    }

    /// Renders Figures 9/10 (instruction reduction by taxonomy class) for
    /// the 1D (`two_d = false`) or 2D subset.
    #[must_use]
    pub fn render_insn_reduction(&self, two_d: bool) -> String {
        let fig = if two_d { "Figure 10" } else { "Figure 9" };
        let labels: Vec<&str> =
            self.rows[0].per_tech.iter().map(|(l, _)| *l).filter(|l| *l != "BASE").collect();
        let mut out =
            format!("{fig}: % of warp instructions eliminated (uniform/affine/unstructured)\n");
        for r in self.rows.iter().filter(|r| r.is_2d == two_d) {
            for l in &labels {
                let (f, split) = r.insn_reduction(l);
                out.push_str(&format!(
                    "{:8} {:>20}  total {:5.1}%  = U {:4.1}% + A {:4.1}% + X {:4.1}%\n",
                    r.abbr,
                    l,
                    f * 100.0,
                    split[0] * 100.0,
                    split[1] * 100.0,
                    split[2] * 100.0
                ));
            }
        }
        for l in &labels {
            let g = gmean(
                self.rows.iter().filter(|r| r.is_2d == two_d).map(|r| 1.0 - r.insn_reduction(l).0),
            );
            out.push_str(&format!("GMEAN    {:>20}  total {:5.1}%\n", l, (1.0 - g) * 100.0));
        }
        out
    }

    /// Renders the Figure-11 energy-reduction table.
    #[must_use]
    pub fn render_fig11(&self) -> String {
        let model = EnergyModel::with_sms(self.num_sms);
        let labels: Vec<&str> =
            self.rows[0].per_tech.iter().map(|(l, _)| *l).filter(|l| *l != "BASE").collect();
        let mut out = String::from("Figure 11: % energy reduction vs BASE\n");
        out.push_str(&format!("{:10}", "bench"));
        for l in &labels {
            out.push_str(&format!(" {l:>20}"));
        }
        out.push('\n');
        for r in &self.rows {
            let base = r.stats("BASE").expect("BASE");
            out.push_str(&format!("{:10}", r.abbr));
            for l in &labels {
                let red = model.reduction_percent(base, r.stats(l).expect("tech"));
                out.push_str(&format!(" {red:>19.1}%"));
            }
            out.push('\n');
        }
        for (tag, two_d) in [("GMEAN-1D", false), ("GMEAN-2D", true)] {
            out.push_str(&format!("{tag:10}"));
            for l in &labels {
                let g = gmean(self.rows.iter().filter(|r| r.is_2d == two_d).map(|r| {
                    let base = r.stats("BASE").expect("BASE");
                    let frac =
                        1.0 - model.reduction_percent(base, r.stats(l).expect("tech")) / 100.0;
                    frac
                }));
                out.push_str(&format!(" {:>19.1}%", (1.0 - g) * 100.0));
            }
            out.push('\n');
        }
        out
    }
}

/// Renders DESIGN.md's design-choice ablations: register versioning vs
/// write-synchronization, skip-table sizing, coalescer ports, rename pool
/// size and warp-scheduler policy, each as the gmean-2D speedup of the
/// DARSIE variant over BASE on `cfg`.
#[must_use]
pub fn render_ablations(scale: Scale, cfg: &GpuConfig) -> String {
    let two_d: Vec<Workload> = catalog(scale).into_iter().filter(|w| w.is_2d).collect();
    let mut out = String::from("Ablations: gmean-2D speedup over BASE\n");
    // Cycles of every 2D kernel per (machine, technique): BASE and the
    // default DARSIE recur across sweeps, and each runs once.
    let mut runs: Vec<(GpuConfig, Technique, Vec<u64>)> = Vec::new();
    let mut cycles = |cfg: &GpuConfig, tech: Technique| -> Vec<u64> {
        if let Some((.., c)) = runs.iter().find(|(c, t, _)| c == cfg && *t == tech) {
            return c.clone();
        }
        let c: Vec<u64> = two_d.iter().map(|w| w.run_unchecked(cfg, tech.clone()).cycles).collect();
        runs.push((cfg.clone(), tech, c.clone()));
        c
    };
    let mut sweep = |label: &str, cfg: &GpuConfig, tech: Technique| {
        let base = cycles(cfg, Technique::Base);
        let speedup =
            gmean(base.iter().zip(cycles(cfg, tech)).map(|(&b, t)| b as f64 / (t as f64).max(1.0)));
        out.push_str(&format!("{label:28} {speedup:.3}\n"));
    };
    // Versioning vs write-synchronization (paper Section 4.1 options).
    sweep("versioning (default)", cfg, Technique::darsie());
    sweep("no-versioning", cfg, Technique::Darsie(DarsieConfig::no_versioning()));
    // Skip-table entries per TB.
    for entries in [1usize, 2, 4, 8, 16] {
        let d = DarsieConfig { skip_entries_per_tb: entries, ..DarsieConfig::default() };
        sweep(&format!("skip_entries={entries}"), cfg, Technique::Darsie(d));
    }
    // PC-coalescer / skip-table ports.
    for ports in [1usize, 2, 4] {
        let d = DarsieConfig { skip_table_ports: ports, ..DarsieConfig::default() };
        sweep(&format!("skip_ports={ports}"), cfg, Technique::Darsie(d));
    }
    // Rename registers per TB.
    for regs in [8usize, 16, 32] {
        let d = DarsieConfig { rename_regs_per_tb: regs, ..DarsieConfig::default() };
        sweep(&format!("rename_regs={regs}"), cfg, Technique::Darsie(d));
    }
    // Scheduler policy.
    let lrr = GpuConfig { scheduler: SchedulerPolicy::Lrr, ..cfg.clone() };
    sweep("scheduler=GTO", cfg, Technique::darsie());
    sweep("scheduler=LRR", &lrr, Technique::darsie());
    out
}

/// The Figure-1 / Figure-2 limit study for one workload.
pub struct LimitRow {
    /// Abbreviation.
    pub abbr: &'static str,
    /// 2D?
    pub is_2d: bool,
    /// Fractions: grid-, TB-, warp-level redundancy.
    pub levels: [f64; 3],
    /// Taxonomy fractions: uniform, affine, unstructured, non-redundant.
    pub taxonomy: [f64; 4],
}

/// Runs the limit study (functional oracle) over the catalog.
#[must_use]
pub fn limit_study(scale: Scale) -> Vec<LimitRow> {
    catalog(scale)
        .into_iter()
        .map(|w: Workload| {
            let (t, mem) = trace_redundancy(&w.ck, &w.launch, w.memory.clone());
            (w.check)(&mem).expect("functional trace must validate");
            LimitRow {
                abbr: w.abbr,
                is_2d: w.is_2d,
                levels: [
                    t.frac(t.grid_redundant),
                    t.frac(t.tb_redundant),
                    t.frac(t.warp_redundant),
                ],
                taxonomy: t.taxonomy_fractions(),
            }
        })
        .collect()
}

/// Renders Figure 1 (average redundancy per thread-grouping level).
#[must_use]
pub fn render_fig1(rows: &[LimitRow]) -> String {
    let n = rows.len() as f64;
    let avg = |i: usize| rows.iter().map(|r| r.levels[i]).sum::<f64>() / n * 100.0;
    let mut out =
        String::from("Figure 1: redundant instructions per thread-grouping level (average)\n");
    out.push_str(&format!("Grid-wide redundant insn: {:5.1}%\n", avg(0)));
    out.push_str(&format!("TB-wide redundant insn:   {:5.1}%\n", avg(1)));
    out.push_str(&format!("Warp-wide redundant insn: {:5.1}%\n", avg(2)));
    out
}

/// Renders Figure 2 (per-benchmark taxonomy breakdown).
#[must_use]
pub fn render_fig2(rows: &[LimitRow]) -> String {
    let mut out = String::from(
        "Figure 2: TB-redundant instruction taxonomy (uniform/affine/unstructured/non-red)\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:8} [{}]  U {:5.1}%  A {:5.1}%  X {:5.1}%  non-red {:5.1}%\n",
            r.abbr,
            if r.is_2d { "2D" } else { "1D" },
            r.taxonomy[0] * 100.0,
            r.taxonomy[1] * 100.0,
            r.taxonomy[2] * 100.0,
            r.taxonomy[3] * 100.0
        ));
    }
    out
}

/// Renders Table 1 (the application catalog).
#[must_use]
pub fn render_table1(scale: Scale) -> String {
    let mut out = String::from("Table 1: applications studied\n");
    for w in catalog(scale) {
        out.push_str(&format!(
            "{:8} {:24} TB=({},{})  grid=({},{})  [{}]\n",
            w.abbr,
            w.name,
            w.block.x,
            w.block.y,
            w.launch.grid.x,
            w.launch.grid.y,
            if w.is_2d { "2D" } else { "1D" }
        ));
    }
    out
}

/// Renders Table 2 (the baseline GPU configuration).
#[must_use]
pub fn render_table2(cfg: &GpuConfig) -> String {
    format!(
        "Table 2: baseline GPU\n\
         GPU:        Pascal-class, {} SMs, {} warps/SM, {} thread blocks/SM\n\
         SM:         {} SIMD width, {} vector registers per SM\n\
         Scheduler:  {} warp schedulers/SM, {:?} scheduling\n\
         L1/shared:  {} KB shared memory/SM\n\
         Register:   14.2 pJ/read, 25.9 pJ/write\n",
        cfg.num_sms,
        cfg.max_warps_per_sm,
        cfg.max_tbs_per_sm,
        cfg.warp_size,
        cfg.vector_regs_per_sm,
        cfg.schedulers_per_sm,
        cfg.scheduler,
        cfg.shared_mem_per_sm / 1024,
    )
}

/// Renders Table 3 (qualitative technique comparison).
#[must_use]
pub fn render_table3() -> String {
    String::from(
        "Table 3: comparison to related work\n\
         technique   uniform  affine  unstructured  min-pipeline-mods\n\
         UV          yes      no      no            yes\n\
         DAC         yes      yes     no            no\n\
         DARSIE      yes      yes     yes           yes\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_basics() {
        assert!((gmean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((gmean([3.0]) - 3.0).abs() < 1e-12);
        assert_eq!(gmean(std::iter::empty()), 1.0);
    }

    #[test]
    fn collect_and_render_smoke() {
        let cfg = GpuConfig { shadow_check: false, ..GpuConfig::test_small() };
        let report = collect(Scale::Test, &cfg, &[Technique::Base, Technique::darsie()]);
        assert_eq!(report.rows.len(), 13);
        let fig8 = report.render_fig8();
        assert!(fig8.contains("GMEAN-2D"), "{fig8}");
        assert!(fig8.contains("MM"));
        let fig10 = report.render_insn_reduction(true);
        assert!(fig10.contains("DARSIE"));
        let fig11 = report.render_fig11();
        assert!(fig11.contains('%'));
        // DARSIE must eliminate instructions on the 2D subset.
        let g: f64 =
            report.rows.iter().filter(|r| r.is_2d).map(|r| r.insn_reduction("DARSIE").0).sum();
        assert!(g > 0.0, "no 2D skipping at all");
    }

    #[test]
    fn limit_study_smoke() {
        let rows = limit_study(Scale::Test);
        assert_eq!(rows.len(), 13);
        let fig1 = render_fig1(&rows);
        assert!(fig1.contains("TB-wide"));
        let fig2 = render_fig2(&rows);
        assert!(fig2.contains("MM"));
        // 2D benchmarks must show affine or unstructured redundancy.
        let mm = rows.iter().find(|r| r.abbr == "MM").expect("MM present");
        assert!(mm.taxonomy[1] + mm.taxonomy[2] > 0.05, "{:?}", mm.taxonomy);
    }

    #[test]
    fn tables_render() {
        assert!(render_table1(Scale::Test).contains("MatrixMul"));
        assert!(render_table2(&eval_gpu(4)).contains("Pascal"));
        assert!(render_table3().contains("DARSIE"));
    }
}
