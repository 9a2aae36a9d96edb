//! The compile-time pass and the kernel-launch-time finalization step.
//!
//! [`compile`] runs the redundancy analysis once per kernel and attaches
//! static markings (definitely / conditionally redundant / vector) plus the
//! reconvergence table. [`LaunchPlan::new`] then applies the launch-time
//! TB-dimension check (paper Section 4.2) to promote conditional markings,
//! and derives the per-technique instruction sets used by the simulator:
//! DARSIE's skippable set, DAC-IDEAL's affine set and UV's uniform set.

use crate::analysis::{analyze, Analysis, AnalysisOptions};
use crate::cfg::Cfg;
use crate::class::{AbsClass, Taxonomy};
use crate::dom::ReconvergenceTable;
use simt_isa::{Kernel, LaunchConfig, Marking, Op};

/// A kernel plus everything the static compiler derived from it.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The kernel itself.
    pub kernel: Kernel,
    /// Static per-instruction abstract classes (conditional mode).
    pub classes: Vec<AbsClass>,
    /// Static per-instruction markings, as encoded in the binary.
    pub markings: Vec<Marking>,
    /// SIMT reconvergence points for guarded branches.
    pub recon: ReconvergenceTable,
    /// The control-flow graph with its dominators, loops and branch legs
    /// (every static pass reads them here; the basic-block-boundary sync
    /// instrumentation of Figure 12 reads its blocks).
    pub cfg: Cfg,
}

/// Compiles `kernel` with default options.
///
/// # Panics
///
/// Panics if the kernel fails [`Kernel::validate`].
#[must_use]
pub fn compile(kernel: Kernel) -> CompiledKernel {
    compile_with_options(kernel, AnalysisOptions::default())
}

/// Compiles `kernel` with explicit analysis options.
///
/// # Panics
///
/// Panics if the kernel fails [`Kernel::validate`].
#[must_use]
pub fn compile_with_options(kernel: Kernel, opts: AnalysisOptions) -> CompiledKernel {
    kernel.validate().expect("kernel must validate before compilation");
    let cfg = Cfg::build(&kernel);
    let recon = ReconvergenceTable::compute(&kernel, &cfg);
    let Analysis { instr_class } = analyze(&kernel, &cfg, opts);
    let markings = instr_class.iter().map(|c| c.marking()).collect();
    CompiledKernel { kernel, classes: instr_class, markings, recon, cfg }
}

impl CompiledKernel {
    /// Figure-6-style annotated disassembly: each line prefixed with the
    /// marking (`DR` definitely redundant, `CR` conditionally redundant,
    /// `V` vector).
    #[must_use]
    pub fn annotated_disassembly(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "// kernel {} (regs={})", self.kernel.name, self.kernel.num_regs);
        for (pc, i) in self.kernel.instrs.iter().enumerate() {
            let tag = match self.markings[pc] {
                Marking::Redundant => "DR",
                Marking::ConditionallyRedundant => "CR",
                Marking::Vector => "V ",
            };
            let _ = writeln!(out, "{tag} {:#06x}  {}", Kernel::byte_pc(pc), i);
        }
        out
    }

    /// Number of static instructions carrying each marking.
    #[must_use]
    pub fn marking_counts(&self) -> [usize; 3] {
        let mut counts = [0usize; 3];
        for m in &self.markings {
            let idx = match m {
                Marking::Vector => 0,
                Marking::ConditionallyRedundant => 1,
                Marking::Redundant => 2,
            };
            counts[idx] += 1;
        }
        counts
    }
}

/// The 3D-TB extension's additional launch check: `tid.y` repeats per warp
/// when each warp covers whole (x, y) planes.
#[must_use]
pub fn promotes_tid_y(launch: &LaunchConfig) -> bool {
    let xy = launch.block.x * launch.block.y;
    launch.block.x.is_power_of_two() && xy.is_power_of_two() && xy <= launch.warp_size
}

/// Launch-time finalization of a compiled kernel: the per-instruction
/// decisions every technique consumes.
#[derive(Debug, Clone)]
pub struct LaunchPlan {
    /// Did the paper's 2D x-dimension check pass?
    pub promoted_x: bool,
    /// Did the 3D extension's y check pass?
    pub promoted_y: bool,
    /// Final (promotion-applied) class of every instruction.
    pub final_class: Vec<AbsClass>,
    /// Taxonomy bucket of every instruction under this launch.
    pub taxonomy: Vec<Taxonomy>,
    /// Instructions DARSIE skips in fetch (definitely redundant,
    /// register-writing, non-atomic).
    pub skippable: Vec<bool>,
    /// Whether each skippable instruction is a load (drives the skip
    /// table's `IsLoad` invalidation, paper Section 4.4). Loads from the
    /// immutable parameter space are exempt.
    pub skippable_is_load: Vec<bool>,
    /// Instructions DAC-IDEAL executes once on its affine stream
    /// (uniform or affine non-memory ops, redundant or not).
    pub dac_affine: Vec<bool>,
    /// Instructions UV eliminates at issue (TB-uniform non-memory ops).
    pub uv_uniform: Vec<bool>,
}

impl LaunchPlan {
    /// Evaluates the launch-time checks and derives all decision vectors.
    #[must_use]
    pub fn new(ck: &CompiledKernel, launch: &LaunchConfig) -> LaunchPlan {
        let promoted_x = launch.promotes_conditional_redundancy();
        let promoted_y = promotes_tid_y(launch);
        let n = ck.kernel.instrs.len();
        let mut plan = LaunchPlan {
            promoted_x,
            promoted_y,
            final_class: Vec::with_capacity(n),
            taxonomy: Vec::with_capacity(n),
            skippable: vec![false; n],
            skippable_is_load: vec![false; n],
            dac_affine: vec![false; n],
            uv_uniform: vec![false; n],
        };
        for (pc, instr) in ck.kernel.instrs.iter().enumerate() {
            let fc = ck.classes[pc].finalize(promoted_x, promoted_y);
            let tax = fc.taxonomy();
            let writes_reg = instr.op.writes_dst() && !matches!(instr.op, Op::Atom(_));
            let is_mem = instr.op.is_load() || instr.op.is_store();
            if writes_reg && tax.is_redundant() {
                plan.skippable[pc] = true;
                plan.skippable_is_load[pc] = matches!(
                    instr.op,
                    Op::Ld(simt_isa::MemSpace::Global | simt_isa::MemSpace::Shared)
                );
            }
            if writes_reg && !is_mem && fc.is_dac_affine() {
                plan.dac_affine[pc] = true;
            }
            if writes_reg && !is_mem && fc.is_uv_uniform() {
                plan.uv_uniform[pc] = true;
            }
            plan.final_class.push(fc);
            plan.taxonomy.push(tax);
        }
        plan
    }

    /// Number of skippable static instructions.
    #[must_use]
    pub fn num_skippable(&self) -> usize {
        self.skippable.iter().filter(|&&s| s).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{KernelBuilder, MemSpace, SpecialReg};

    /// tid.x-indexed global load (the Figure 3 kernel).
    fn fig3() -> CompiledKernel {
        let mut b = KernelBuilder::new("fig3");
        let t = b.special(SpecialReg::TidX);
        let r1 = b.imul(t, 4u32);
        let r2 = b.iadd(r1, 10u32);
        let v = b.load(MemSpace::Global, r2, 0);
        b.store(MemSpace::Global, 0u32, v, 0);
        compile(b.finish())
    }

    #[test]
    fn static_markings_are_conditional_for_tid_chain() {
        let ck = fig3();
        assert_eq!(ck.markings[0], Marking::ConditionallyRedundant);
        assert_eq!(ck.markings[1], Marking::ConditionallyRedundant);
        assert_eq!(ck.markings[2], Marking::ConditionallyRedundant);
        assert_eq!(ck.markings[3], Marking::ConditionallyRedundant, "load inherits address");
    }

    #[test]
    fn promotion_enables_skipping_for_2d_blocks_only() {
        let ck = fig3();
        let plan_2d = LaunchPlan::new(&ck, &LaunchConfig::new(1u32, (16u32, 16u32)));
        assert!(plan_2d.promoted_x);
        assert_eq!(plan_2d.num_skippable(), 4, "s2r + mul + add + load");
        assert!(plan_2d.skippable_is_load[3]);
        assert!(!plan_2d.skippable_is_load[1]);

        let plan_1d = LaunchPlan::new(&ck, &LaunchConfig::new(1u32, 256u32));
        assert!(!plan_1d.promoted_x);
        assert_eq!(plan_1d.num_skippable(), 0);
    }

    #[test]
    fn taxonomy_under_2d_launch_matches_fig3() {
        let ck = fig3();
        let plan = LaunchPlan::new(&ck, &LaunchConfig::new(1u32, (4u32, 2u32)).with_warp_size(4));
        assert_eq!(plan.taxonomy[0], Taxonomy::Affine);
        assert_eq!(plan.taxonomy[1], Taxonomy::Affine);
        assert_eq!(plan.taxonomy[2], Taxonomy::Affine);
        assert_eq!(plan.taxonomy[3], Taxonomy::Unstructured);
    }

    #[test]
    fn dac_covers_tb_affine_in_1d_but_darsie_does_not() {
        let ck = fig3();
        let plan_1d = LaunchPlan::new(&ck, &LaunchConfig::new(1u32, 256u32));
        // tid.x chain in 1D: affine but not redundant -> DAC yes, DARSIE no.
        assert!(plan_1d.dac_affine[0]);
        assert!(plan_1d.dac_affine[1]);
        assert!(plan_1d.dac_affine[2]);
        assert!(!plan_1d.skippable[1]);
        // The load is memory: DAC does not remove it.
        assert!(!plan_1d.dac_affine[3]);
    }

    #[test]
    fn uv_covers_uniform_non_memory_only() {
        let mut b = KernelBuilder::new("uv");
        let c = b.special(SpecialReg::CtaidX); // uniform
        let d = b.iadd(c, 3u32); // uniform
        let t = b.special(SpecialReg::TidX); // cond affine
        let a = b.shl_imm(t, 2);
        let addr = b.iadd(a, d);
        let v = b.load(MemSpace::Global, addr, 0); // memory
        b.store(MemSpace::Global, addr, v, 0);
        let ck = compile(b.finish());
        let plan = LaunchPlan::new(&ck, &LaunchConfig::new(1u32, (16u32, 16u32)));
        assert!(plan.uv_uniform[0], "s2r ctaid");
        assert!(plan.uv_uniform[1], "uniform add");
        assert!(!plan.uv_uniform[3], "affine, not uniform");
        assert!(!plan.uv_uniform[5], "memory op excluded");
        // DARSIE skips all of these under the promoted launch.
        assert!(plan.skippable[0] && plan.skippable[3] && plan.skippable[5]);
    }

    #[test]
    fn param_loads_are_skippable_but_immune_to_store_invalidation() {
        let mut b = KernelBuilder::new("p");
        let p0 = b.param(0);
        let t = b.special(SpecialReg::TidX);
        let a = b.iadd(p0, t);
        let v = b.load(MemSpace::Global, a, 0);
        b.store(MemSpace::Global, a, v, 0);
        let ck = compile(b.finish());
        let plan = LaunchPlan::new(&ck, &LaunchConfig::new(1u32, (16u32, 16u32)));
        assert!(plan.skippable[0], "param load skips");
        assert!(!plan.skippable_is_load[0], "param space is immutable");
        assert!(plan.skippable[3], "global load skips");
        assert!(plan.skippable_is_load[3], "global load subject to invalidation");
    }

    #[test]
    fn stores_branches_barriers_never_skippable() {
        let mut b = KernelBuilder::new("nb");
        let t = b.special(SpecialReg::TidX);
        let p = b.setp(simt_isa::CmpOp::Lt, t, 8u32);
        b.if_then(simt_isa::Guard::if_true(p), |b| {
            b.barrier();
        });
        b.store(MemSpace::Global, 0u32, t, 0);
        let ck = compile(b.finish());
        let plan = LaunchPlan::new(&ck, &LaunchConfig::new(1u32, (16u32, 16u32)));
        for (pc, i) in ck.kernel.instrs.iter().enumerate() {
            if i.op.is_branch() || i.op.is_store() || matches!(i.op, Op::Bar | Op::Exit) {
                assert!(!plan.skippable[pc], "pc {pc} ({}) must not skip", i.op);
            }
        }
    }

    #[test]
    fn marking_counts_and_disassembly() {
        let ck = fig3();
        let [v, cr, dr] = ck.marking_counts();
        assert_eq!(v + cr + dr, ck.kernel.len());
        assert!(cr >= 4);
        let dis = ck.annotated_disassembly();
        assert!(dis.contains("CR"), "{dis}");
        assert!(dis.lines().count() >= ck.kernel.len());
    }

    #[test]
    fn tid_y_promotion_check() {
        // Warp covers whole (x,y) planes.
        assert!(promotes_tid_y(&LaunchConfig::new(1u32, (8u32, 4u32, 4u32))));
        assert!(promotes_tid_y(&LaunchConfig::new(1u32, (4u32, 4u32))));
        // x*y exceeds warp.
        assert!(!promotes_tid_y(&LaunchConfig::new(1u32, (16u32, 16u32))));
        // Non power of two.
        assert!(!promotes_tid_y(&LaunchConfig::new(1u32, (6u32, 4u32))));
    }
}
