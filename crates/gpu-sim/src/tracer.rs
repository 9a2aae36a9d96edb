//! The redundancy limit study (paper Figures 1 and 2): a functional-only
//! execution that measures, per dynamic instruction, whether the *values*
//! it operated on were redundant at the warp, threadblock or grid level,
//! and classifies threadblock-redundant work as uniform / affine /
//! unstructured.
//!
//! Unlike the static compiler pass, this is an oracle: it compares actual
//! operand and result vectors across warps at matching dynamic occurrences
//! (the paper's methodology for the motivating limit study). It therefore
//! also serves as a validation target for the static analysis — statically
//! marked instructions must be dynamically redundant. Each dynamic
//! instruction is reduced to a hashed signature, and the signatures are
//! grouped by the same [`OccurrenceGroups`] recorder that the marking
//! oracle in `simt-verify` uses.

use crate::fasthash::FastMap;
use crate::functional::{replay_grid, FunctionalObserver, OccurrenceGroup, OccurrenceGroups};
use crate::mem::GlobalMemory;
use crate::warp::Warp;
use simt_compiler::{CompiledKernel, Taxonomy};
use simt_isa::{Dim3, Instruction, LaunchConfig, Operand};
use std::collections::HashMap;

/// Totals produced by [`trace_redundancy`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RedundancyTrace {
    /// Dynamic warp instructions executed.
    pub executed: u64,
    /// Instructions redundant across the whole grid.
    pub grid_redundant: u64,
    /// Instructions redundant across their threadblock.
    pub tb_redundant: u64,
    /// Instructions whose operands were uniform within the warp
    /// (warp-level redundancy).
    pub warp_redundant: u64,
    /// TB-redundant instructions by taxonomy class (plus non-redundant).
    pub uniform: u64,
    /// Affine redundant count.
    pub affine: u64,
    /// Unstructured redundant count.
    pub unstructured: u64,
    /// Per-static-PC count of *aligned* occurrence groups (every warp of
    /// the TB executed it, all with full masks) whose values disagreed.
    /// For soundly marked skippable instructions this must stay zero: the
    /// DARSIE runtime only skips under exactly these conditions.
    pub per_pc_aligned_mismatch: HashMap<usize, u64>,
}

impl RedundancyTrace {
    /// Fraction helpers for the figures.
    #[must_use]
    pub fn frac(&self, n: u64) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            n as f64 / self.executed as f64
        }
    }

    /// Taxonomy fractions in figure order (uniform, affine, unstructured,
    /// non-redundant).
    #[must_use]
    pub fn taxonomy_fractions(&self) -> [f64; 4] {
        let non = self.executed - self.tb_redundant;
        [
            self.frac(self.uniform),
            self.frac(self.affine),
            self.frac(self.unstructured),
            self.frac(non),
        ]
    }
}

/// Pattern of one 32-lane vector: uniform, affine or unstructured (the
/// taxonomy's order, from most to least structured).
fn vector_pattern(v: &[u32]) -> Taxonomy {
    if v.iter().all(|&x| x == v[0]) {
        return Taxonomy::Uniform;
    }
    // Affine over the whole warp, or affine with a power-of-two period
    // (the repeating tid.x segments of blocks narrower than a warp --
    // the paper's Figure 3 pattern).
    let mut period = 2;
    while period <= v.len() {
        if v.len().is_multiple_of(period) {
            let stride = v[1].wrapping_sub(v[0]);
            let matches = (0..v.len())
                .all(|i| v[i] == v[0].wrapping_add(stride.wrapping_mul((i % period) as u32)));
            if matches {
                return Taxonomy::Affine;
            }
        }
        period *= 2;
    }
    Taxonomy::Unstructured
}

fn hash_words(h: &mut u64, words: &[u32]) {
    for &w in words {
        *h ^= u64::from(w);
        *h = h.wrapping_mul(0x1000_0000_01b3);
        *h ^= *h >> 31;
    }
}

/// Signature of one dynamic instruction: a hash of its operand and result
/// vectors, and their shape. Two signatures match when their hashes do.
#[derive(Debug, Clone, Copy)]
struct DynSig {
    hash: u64,
    taxonomy: Taxonomy,
}

impl PartialEq for DynSig {
    fn eq(&self, other: &DynSig) -> bool {
        self.hash == other.hash
    }
}

/// Runs the limit study for one kernel launch. Returns the totals and the
/// final memory (so callers can still validate outputs).
#[must_use]
pub fn trace_redundancy(
    ck: &CompiledKernel,
    launch: &LaunchConfig,
    mut memory: GlobalMemory,
) -> (RedundancyTrace, GlobalMemory) {
    let mut obs = SigObserver {
        trace: RedundancyTrace::default(),
        groups: OccurrenceGroups::new(launch),
        pending: None,
        grid_agg: FastMap::default(),
        num_warps: u64::from(launch.warps_per_block()),
    };
    replay_grid(ck, launch, &mut memory, &mut obs);
    let mut trace = obs.trace;
    // A single TB keeps the grid level distinct from the TB level.
    if launch.num_blocks() > 1 {
        trace.grid_redundant = obs.grid_agg.values().flatten().map(|&(_, n)| n).sum();
    }
    (trace, memory)
}

/// Observer recording the dynamic signatures of a launch's replay and
/// folding each TB's groups into the totals.
struct SigObserver {
    trace: RedundancyTrace,
    /// The current TB's signatures.
    groups: OccurrenceGroups<DynSig>,
    /// The operands' hash and least structured pattern, carried from an
    /// instruction's `before` hook to its `after`.
    pending: Option<(u64, Taxonomy)>,
    /// Grid-level aggregation: (pc, occurrence) -> (leader hash, warp
    /// executions) while every TB ran it redundantly with that hash.
    grid_agg: FastMap<(usize, u32), Option<(u64, u64)>>,
    num_warps: u64,
}

impl FunctionalObserver for SigObserver {
    fn before_instruction(
        &mut self,
        _w: usize,
        pc: usize,
        _occurrence: u32,
        instr: &Instruction,
        warp: &Warp,
    ) {
        // Signature before execution: operand vectors.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325 ^ (pc as u64);
        let mut worst = Taxonomy::Uniform;
        for &src in &instr.srcs {
            match src {
                Operand::Reg(r) => {
                    let v = warp.reg_row(r);
                    hash_words(&mut hash, v);
                    worst = worst.max(vector_pattern(v));
                }
                Operand::Imm(imm) => hash_words(&mut hash, &[imm]),
            }
        }
        self.pending = Some((hash, worst));
    }

    fn after_instruction(
        &mut self,
        w: usize,
        pc: usize,
        occurrence: u32,
        instr: &Instruction,
        warp: &Warp,
    ) {
        let (mut hash, mut worst) =
            self.pending.take().expect("before_instruction always precedes after_instruction");
        self.trace.executed += 1;

        // Fold the result into the signature (covers S2R and loads).
        if let Some(d) = instr.dst {
            let v = warp.reg_row(d);
            hash_words(&mut hash, v);
            // S2R has no register sources; loads are classified by the
            // data they return (Figure 3 labels the *output* register:
            // a load from an affine-redundant address is unstructured
            // unless the data itself happens to be patterned).
            if instr.src_regs().next().is_none() || instr.op.is_load() {
                worst = vector_pattern(v);
            }
        }
        // Warp-level redundancy: every operand (or the result that
        // classifies the instruction) is uniform across the warp.
        if worst == Taxonomy::Uniform && warp.fully_active() && !instr.srcs.is_empty() {
            self.trace.warp_redundant += 1;
        }
        self.groups.record(w, pc, occurrence, warp, &DynSig { hash, taxonomy: worst });
    }

    fn end_block(&mut self, _block: u64, _ctaid: Dim3) {
        let (trace, num_warps) = (&mut self.trace, self.num_warps);
        for ((pc, occ), group) in self.groups.finish() {
            let Some(OccurrenceGroup { leader, mismatches, .. }) = group else {
                self.grid_agg.insert((pc, occ), None);
                continue;
            };
            let redundant = mismatches == 0 && num_warps > 1;
            if mismatches > 0 {
                *trace.per_pc_aligned_mismatch.entry(pc).or_default() += 1;
            }
            if redundant {
                trace.tb_redundant += num_warps;
                match leader.taxonomy {
                    Taxonomy::Uniform => trace.uniform += num_warps,
                    Taxonomy::Affine => trace.affine += num_warps,
                    _ => trace.unstructured += num_warps,
                }
            }
            let g = self.grid_agg.entry((pc, occ)).or_insert(Some((leader.hash, 0)));
            *g = g.filter(|&(h, _)| redundant && h == leader.hash).map(|(h, n)| (h, n + num_warps));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{Dim3, KernelBuilder, MemSpace, SpecialReg, Value};

    /// The Figure-3 kernel: read in[tid.x * 4 + base].
    fn fig3(ck_2d: bool) -> (CompiledKernel, LaunchConfig, GlobalMemory) {
        let mut b = KernelBuilder::new("fig3");
        let t = b.special(SpecialReg::TidX);
        let base = b.param(0);
        let r1 = b.shl_imm(t, 2);
        let r2 = b.iadd(r1, base);
        let v = b.load(MemSpace::Global, r2, 0);
        let outp = b.param(1);
        let ty = b.special(SpecialReg::TidY);
        let ntx = b.special(SpecialReg::NtidX);
        let lin = b.imad(ty, ntx, t);
        let o = b.shl_imm(lin, 2);
        let ao = b.iadd(outp, o);
        b.store(MemSpace::Global, ao, v, 0);
        let ck = simt_compiler::compile(b.finish());
        let mut mem = GlobalMemory::new();
        let a_in = mem.alloc(1024 * 4);
        let a_out = mem.alloc(4096 * 4);
        mem.write_slice_u32(
            a_in,
            &(0..1024u32)
                .map(|i| i.wrapping_mul(2_654_435_761).rotate_left(11))
                .collect::<Vec<_>>(),
        );
        let block = if ck_2d { Dim3::two_d(32, 8) } else { Dim3::one_d(256) };
        let launch = LaunchConfig::new(Dim3::two_d(2, 1), block)
            .with_params(vec![Value(a_in as u32), Value(a_out as u32)]);
        (ck, launch, mem)
    }

    #[test]
    fn two_d_blocks_show_tb_redundancy_one_d_do_not() {
        let (ck, launch2d, mem) = fig3(true);
        let (t2, _) = trace_redundancy(&ck, &launch2d, mem);
        assert!(t2.executed > 0);
        assert!(
            t2.frac(t2.tb_redundant) > 0.3,
            "2D blocks: substantial TB redundancy, got {}",
            t2.frac(t2.tb_redundant)
        );
        assert!(t2.affine > 0, "tid.x chain is affine redundant");
        assert!(t2.unstructured > 0, "the load is unstructured redundant");

        let (ck1, launch1d, mem1) = fig3(false);
        let (t1, _) = trace_redundancy(&ck1, &launch1d, mem1);
        // In 1D the tid.x chain differs across warps: only the truly
        // uniform work (params) stays redundant.
        assert!(
            t1.frac(t1.tb_redundant) < t2.frac(t2.tb_redundant),
            "1D {} vs 2D {}",
            t1.frac(t1.tb_redundant),
            t2.frac(t2.tb_redundant)
        );
        assert_eq!(t1.affine, 0, "no affine redundancy in 1D");
    }

    #[test]
    fn static_markings_are_sound_wrt_dynamic_oracle() {
        let (ck, launch, mem) = fig3(true);
        let plan = simt_compiler::LaunchPlan::new(&ck, &launch);
        let (t, _) = trace_redundancy(&ck, &launch, mem);
        assert!(plan.skippable.iter().any(|&s| s), "the tid.x chain is marked");
        assert!(t.tb_redundant > 0);
        assert!(t.per_pc_aligned_mismatch.values().any(|&n| n > 0), "tid.y work disagrees");
        for (pc, skippable) in plan.skippable.iter().enumerate() {
            // Every warp runs fig3 under its full mask, so each occurrence
            // of a pc is an aligned group: a marked pc must never mismatch.
            let mismatches = t.per_pc_aligned_mismatch.get(&pc).copied().unwrap_or(0);
            assert!(
                !skippable || mismatches == 0,
                "statically skippable pc {pc} must be dynamically TB-redundant \
                 ({mismatches} aligned group(s) disagreed)"
            );
        }
    }

    #[test]
    fn grid_redundancy_is_subset_of_tb_redundancy() {
        let (ck, launch, mem) = fig3(true);
        let (t, _) = trace_redundancy(&ck, &launch, mem);
        assert!(t.grid_redundant <= t.tb_redundant);
        // tid.x work repeats across TBs too; the param base differs per
        // launch but not per TB, so some grid redundancy exists.
        assert!(t.grid_redundant > 0);
    }

    #[test]
    fn vector_pattern_classification() {
        assert_eq!(vector_pattern(&[5; 8]), Taxonomy::Uniform);
        assert_eq!(vector_pattern(&[0, 4, 8, 12]), Taxonomy::Affine);
        assert_eq!(vector_pattern(&[3, 2, 1, 0]), Taxonomy::Affine, "negative stride");
        assert_eq!(vector_pattern(&[0, 1, 4, 9]), Taxonomy::Unstructured);
        assert_eq!(vector_pattern(&[7]), Taxonomy::Uniform);
        // Repeating tid.x segments (16-wide block in a 32-lane warp).
        assert_eq!(vector_pattern(&[0, 1, 2, 3, 0, 1, 2, 3]), Taxonomy::Affine);
        assert_eq!(vector_pattern(&[5, 9, 13, 17, 5, 9, 13, 17]), Taxonomy::Affine);
        assert_eq!(vector_pattern(&[0, 1, 2, 3, 0, 1, 2, 4]), Taxonomy::Unstructured);
    }
}
