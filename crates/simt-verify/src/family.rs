//! Launch-family-parametric certification: one certificate per kernel
//! covering an entire grid/block sweep.
//!
//! The per-launch certifier ([`crate::blocks`]) answers "is this kernel
//! inter-block independent *under this launch*?". This module answers
//! the quantified question — "under **every** launch of a declared
//! [`LaunchFamily`] region?" — in three tiers:
//!
//! * [`FamilyVerdict::FamilyProved`] — the family-symbolic static pass
//!   ([`crate::blocks`]'s pair machinery run under
//!   [`simt_compiler::affine::GridCtx::family`]) proved every
//!   write-involving access pair disjoint (or commutative-atomic-only)
//!   for the whole region at once. Interval hulls over the family
//!   symbols eliminate the quantifier for affine footprints; the stride
//!   / delta screens are instantiated at the region's upper corner,
//!   which dominates every member by monotonicity.
//! * [`FamilyVerdict::FamilySampled`] — some pair stayed open at the
//!   family level, and the certificate is *explicitly downgraded*: the
//!   region's corner launches were certified concretely (static +
//!   exhaustive replay) and all passed. The region is **not** silently
//!   narrowed; the tier records that coverage is corner-sampled, not
//!   proved.
//! * [`FamilyVerdict::PerLaunchOnly`] — the family was refuted: a
//!   concrete member launch (carried as `witness_launch`) reproduces an
//!   inter-block collision (`V310` statically or `V312` dynamically).
//!   Per-launch certification is the best this kernel gets on this
//!   region.
//!
//! [`differential_check`] is the gate that keeps the family pass honest:
//! deterministic member launches sampled from the region must agree with
//! the family verdict — proved/sampled certificates must certify at
//! every sampled launch, refuted ones must reproduce their witness.

use crate::blocks::{self, BlockIndependence, RaceWitness};
use crate::cost::{estimate_family, FamilyCostBracket};
use crate::{parallel_map, Diagnostics, LintCode};
use gpu_sim::config::{GpuConfig, Technique};
use gpu_sim::GlobalMemory;
use simt_compiler::CompiledKernel;
use simt_isa::{FamilyError, LaunchConfig, LaunchFamily};

/// How strongly a kernel is certified over its declared region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FamilyVerdict {
    /// Statically proved for every launch in the region.
    FamilyProved,
    /// Not symbolically proved; concrete certification at the region's
    /// corner launches passed (explicit downgrade, region unchanged).
    FamilySampled,
    /// Refuted: a member launch reproduces an inter-block collision.
    PerLaunchOnly,
}

impl FamilyVerdict {
    /// Stable tier name used in reports and `--json` output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FamilyVerdict::FamilyProved => "FamilyProved",
            FamilyVerdict::FamilySampled => "FamilySampled",
            FamilyVerdict::PerLaunchOnly => "PerLaunchOnly",
        }
    }
}

/// One access pair the family-symbolic pass left open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnresolvedPair {
    /// Static pc of the first access.
    pub pc_a: usize,
    /// Static pc of the second access.
    pub pc_b: usize,
    /// Why the pair stayed open.
    pub reason: &'static str,
}

/// One kernel's certificate over one declared launch-family region.
#[derive(Debug, Clone)]
pub struct FamilyCertificate {
    /// Kernel name.
    pub kernel: String,
    /// The covered region, verbatim as declared (never narrowed).
    pub region: LaunchFamily,
    /// Number of member launches in the region.
    pub member_count: u128,
    /// Verdict tier.
    pub verdict: FamilyVerdict,
    /// Worst member classification implied by the verdict.
    pub classification: BlockIndependence,
    /// Global accesses collected by the family-symbolic pass.
    pub global_accesses: usize,
    /// Write-involving pairs subjected to a family-level proof.
    pub checked_pairs: usize,
    /// Pairs proved disjoint (or commutative-exempt) for the region.
    pub proved_pairs: usize,
    /// Accesses whose address escaped the affine domain.
    pub unanalyzable: usize,
    /// Pairs left open at the family level.
    pub unresolved: Vec<UnresolvedPair>,
    /// Corner launches certified concretely on the downgrade path
    /// (0 when the verdict is `FamilyProved`).
    pub sampled_corners: usize,
    /// The concrete member launch reproducing the refutation, when the
    /// verdict is `PerLaunchOnly`.
    pub witness_launch: Option<LaunchConfig>,
    /// The collision backing the refutation.
    pub witness: Option<RaceWitness>,
    /// Region-wide cycle brackets per technique (hulled over corners).
    pub cost: Vec<FamilyCostBracket>,
    /// Human-readable provenance notes (downgrade reasons, witness
    /// confirmation outcomes).
    pub notes: Vec<String>,
}

/// FNV-1a of the kernel name: the deterministic seed for family
/// sampling, stable across runs and platforms.
#[must_use]
pub fn sample_seed(kernel: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in kernel.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// True when a concrete certification found an inter-block race, static
/// (`V310`) or dynamic (`V312`).
fn reproduces_race(report: &Diagnostics) -> bool {
    report
        .items
        .iter()
        .any(|d| matches!(d.code, LintCode::InterBlockRace | LintCode::InterBlockRaceDynamic))
}

/// Certifies inter-thread-block independence of `ck` over every launch
/// in `family`, tiering the outcome as described in the module docs.
/// `reference` supplies the kernel parameters and warp size every member
/// launch inherits (the quantification is purely geometric); `memory` is
/// the initial global image used whenever a concrete member launch must
/// be replayed (witness confirmation, corner downgrade).
///
/// # Errors
///
/// Returns the validation error of a malformed region.
pub fn certify_family(
    ck: &CompiledKernel,
    family: &LaunchFamily,
    reference: &LaunchConfig,
    memory: &GlobalMemory,
    gc: &GpuConfig,
) -> Result<FamilyCertificate, FamilyError> {
    family.validate()?;
    let fs = blocks::family_static(ck, family, reference);
    let cost = estimate_family(ck, family, reference, gc, &[Technique::Base, Technique::darsie()]);
    let mut cert = FamilyCertificate {
        kernel: ck.kernel.name.clone(),
        region: family.clone(),
        member_count: family.member_count(),
        verdict: FamilyVerdict::FamilyProved,
        classification: BlockIndependence::Independent,
        global_accesses: fs.global_accesses,
        checked_pairs: fs.checked_pairs,
        proved_pairs: fs.proved_pairs,
        unanalyzable: fs.unanalyzable,
        unresolved: fs.unresolved,
        sampled_corners: 0,
        witness_launch: None,
        witness: None,
        cost,
        notes: Vec::new(),
    };
    if !family.contains(reference) {
        cert.notes.push(format!(
            "reference launch grid ({},{},{}) block ({},{},{}) lies outside the declared region",
            reference.grid.x,
            reference.grid.y,
            reference.grid.z,
            reference.block.x,
            reference.block.y,
            reference.block.z,
        ));
    }

    // A definite family-level witness must be confirmable at a concrete
    // member launch; the smallest member grid containing both blocks is
    // the canonical reproducer.
    if let Some(w) = fs.witness {
        let (need_x, need_y) = (w.block_a.x.max(w.block_b.x) + 1, w.block_a.y.max(w.block_b.y) + 1);
        let gx = family.grid_x.round_up(need_x).unwrap_or(family.grid_x.hi);
        let gy = family.grid_y.round_up(need_y).unwrap_or(family.grid_y.hi);
        let wl = family.instantiate(
            gx,
            gy,
            family.block_x.hi,
            family.block_y.hi,
            family.block_z.hi,
            reference,
        );
        let (concrete, rep) = blocks::certify(ck, &wl, memory.clone());
        if reproduces_race(&rep) {
            cert.verdict = FamilyVerdict::PerLaunchOnly;
            cert.classification = BlockIndependence::PotentiallyRacy;
            cert.witness = concrete.witness.or(Some(w));
            cert.witness_launch = Some(wl);
            cert.notes.push(format!(
                "family refuted: witness collision on global word {} reproduced at member \
                 launch grid ({gx},{gy})",
                cert.witness.map_or(w.word, |cw| cw.word),
            ));
            return Ok(cert);
        }
        // The symbolic witness did not reproduce — treat the pair as
        // unresolved rather than refuting the family on it.
        cert.notes.push(format!(
            "family-level witness (pcs {}/{}) did not reproduce at member launch grid \
             ({gx},{gy}); pair treated as unresolved",
            w.pc_a, w.pc_b,
        ));
        cert.unresolved.push(UnresolvedPair {
            pc_a: w.pc_a,
            pc_b: w.pc_b,
            reason: "unconfirmed witness",
        });
    }

    if fs.commutative_only {
        cert.classification = BlockIndependence::CommutativeAtomicsOnly;
    }
    if cert.unresolved.is_empty() {
        return Ok(cert);
    }

    // Downgrade path: certify the region's corners concretely. Any racy
    // corner refutes the family with that corner as witness launch; all
    // clean corners yield an explicitly sampled (not proved) tier.
    let corners = family.corners(reference);
    for corner in &corners {
        let (concrete, _rep) = blocks::certify(ck, corner, memory.clone());
        if concrete.classification == BlockIndependence::PotentiallyRacy {
            cert.verdict = FamilyVerdict::PerLaunchOnly;
            cert.classification = BlockIndependence::PotentiallyRacy;
            cert.witness = concrete.witness;
            cert.witness_launch = Some(corner.clone());
            cert.notes.push(format!(
                "family refuted at region corner grid ({},{}) block ({},{},{})",
                corner.grid.x, corner.grid.y, corner.block.x, corner.block.y, corner.block.z,
            ));
            return Ok(cert);
        }
        if concrete.classification == BlockIndependence::CommutativeAtomicsOnly {
            cert.classification = BlockIndependence::CommutativeAtomicsOnly;
        }
    }
    cert.verdict = FamilyVerdict::FamilySampled;
    cert.sampled_corners = corners.len();
    cert.notes.push(format!(
        "downgraded to FamilySampled: {} pair(s) unresolved at the family level; concrete \
         certification passed at all {} region corner(s)",
        cert.unresolved.len(),
        corners.len(),
    ));
    Ok(cert)
}

/// Differential gate: `samples` deterministic member launch draws (seeded
/// by the kernel name, possibly repeated; each distinct launch is
/// certified once) must agree with the family certificate. For a proved
/// or sampled certificate every sampled launch must certify concretely
/// (classification better than potentially-racy, dynamic discharge
/// counting); for a refutation the recorded witness launch must
/// reproduce a `V310`/`V312` finding. Returns one message per
/// disagreement — empty means the gate passed.
#[must_use]
pub fn differential_check(
    ck: &CompiledKernel,
    family: &LaunchFamily,
    reference: &LaunchConfig,
    memory: &GlobalMemory,
    cert: &FamilyCertificate,
    samples: usize,
    threads: usize,
) -> Vec<String> {
    let mut out = Vec::new();
    match cert.verdict {
        FamilyVerdict::FamilyProved | FamilyVerdict::FamilySampled => {
            let launches = family.sample(sample_seed(&ck.kernel.name), samples, reference);
            // The draws repeat members: certify each distinct one once.
            let mut distinct: Vec<&LaunchConfig> = Vec::new();
            let member: Vec<usize> = launches
                .iter()
                .map(|l| {
                    distinct.iter().position(|&d| d == l).unwrap_or_else(|| {
                        distinct.push(l);
                        distinct.len() - 1
                    })
                })
                .collect();
            let verdicts = parallel_map(&distinct, threads, |l| {
                blocks::certify(ck, l, memory.clone()).0.classification
            });
            for (l, v) in launches.iter().zip(member.iter().map(|&m| verdicts[m])) {
                if v == BlockIndependence::PotentiallyRacy {
                    out.push(format!(
                        "family verdict {} disagrees with member launch grid ({},{}) block \
                         ({},{},{}): concrete certification is {}",
                        cert.verdict.label(),
                        l.grid.x,
                        l.grid.y,
                        l.block.x,
                        l.block.y,
                        l.block.z,
                        v.label(),
                    ));
                }
            }
        }
        FamilyVerdict::PerLaunchOnly => {
            let Some(wl) = &cert.witness_launch else {
                out.push("refuted family certificate carries no witness launch".to_string());
                return out;
            };
            let (_c, rep) = blocks::certify(ck, wl, memory.clone());
            if !reproduces_race(&rep) {
                out.push(format!(
                    "refutation witness launch grid ({},{}) block ({},{},{}) does not \
                     reproduce any V310/V312 finding",
                    wl.grid.x, wl.grid.y, wl.block.x, wl.block.y, wl.block.z,
                ));
            }
        }
    }
    out
}
