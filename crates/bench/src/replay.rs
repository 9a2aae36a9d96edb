//! The first-divergence bisector behind `darsie-sim replay-diff`.
//!
//! A replay-diff runs one workload twice — under the same configuration
//! (the determinism gate), under two different configurations
//! (`--against`), or with a deliberate [`Perturb`] injected into the
//! second run (the observatory's test signal) — and compares their
//! epoch-chained state digests. When the roots agree the runs are
//! reported identical; when they disagree, the coarse chains (at
//! [`REPLAY_DIGEST_INTERVAL`]) bracket the first divergent epoch via
//! binary search, both
//! runs are re-executed in fine mode (an epoch every cycle, with component
//! sub-digests, recording only inside the bracketing window), and
//! [`gpu_sim::localize`] names the chain, cycle, component and — for
//! warp-state breaks — the warp slot that first disagreed.
//!
//! The expensive part (the full coarse run pair) happens once; the fine
//! re-run is bounded by the coarse epoch interval, so localization costs
//! two extra runs plus a window of per-cycle snapshots, not a per-cycle
//! recording of the whole execution.

use gpu_sim::{
    localize, CoarseDivergence, DigestConfig, Divergence, GpuConfig, Perturb, RunDigests,
    SchedulerPolicy, Technique,
};
use workloads::Workload;

/// Epoch interval of the bisector's coarse pass. Finer than the always-on
/// default ([`gpu_sim::digest::DEFAULT_DIGEST_INTERVAL`]): a transient
/// divergence that later state overwrites is invisible to a coarse chain,
/// and sensitivity is the whole point of a replay pair — the cost is paid
/// only by the two runs of an explicit `replay-diff`, not by every
/// simulation.
pub const REPLAY_DIGEST_INTERVAL: u64 = 256;

/// One side of a replay pair: the knobs a divergence hunt may vary.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Elimination technique.
    pub technique: Technique,
    /// Warp scheduler policy.
    pub scheduler: SchedulerPolicy,
    /// SM count.
    pub sms: usize,
}

impl Default for RunSpec {
    fn default() -> RunSpec {
        let cfg = GpuConfig::test_small();
        RunSpec { technique: Technique::darsie(), scheduler: cfg.scheduler, sms: cfg.num_sms }
    }
}

impl RunSpec {
    /// The GPU configuration this spec runs on: `test_small` with the
    /// spec's knobs, shadow checking off (the digest layer is the
    /// observer here) and the given digest/perturbation settings.
    #[must_use]
    pub fn gpu_config(&self, digest: DigestConfig, perturb: Option<Perturb>) -> GpuConfig {
        GpuConfig {
            num_sms: self.sms,
            scheduler: self.scheduler,
            shadow_check: false,
            digest,
            perturb,
            ..GpuConfig::test_small()
        }
    }
}

/// One digest-bearing run of a replay pair.
struct DigestRun {
    cycles: u64,
    digests: RunDigests,
}

fn run(w: &Workload, spec: &RunSpec, digest: DigestConfig, perturb: Option<Perturb>) -> DigestRun {
    let cfg = spec.gpu_config(digest, perturb);
    let r = w.run_unchecked(&cfg, spec.technique.clone());
    let digests = r.digests.expect("digest layer enabled for replay runs");
    DigestRun { cycles: r.cycles, digests }
}

/// The outcome of one replay-diff.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// True when every chain (and the root) matched.
    pub identical: bool,
    /// Run A's digest root.
    pub root_a: u64,
    /// Run B's digest root.
    pub root_b: u64,
    /// Run A's final cycle count.
    pub cycles_a: u64,
    /// Run B's final cycle count.
    pub cycles_b: u64,
    /// Coarse epochs recorded per chain in run A.
    pub epochs: usize,
    /// Where the coarse chains first disagreed, when they did.
    pub coarse: Option<CoarseDivergence>,
    /// The fine-mode localization, when the runs diverged.
    pub divergence: Option<Divergence>,
}

/// Runs `w` twice — spec `a` then spec `b`, with `perturb_b` injected
/// into the second run — and localizes the first divergence, if any.
#[must_use]
pub fn replay_diff(
    w: &Workload,
    a: &RunSpec,
    b: &RunSpec,
    perturb_b: Option<Perturb>,
) -> ReplayReport {
    let coarse_cfg = DigestConfig { interval: REPLAY_DIGEST_INTERVAL, ..DigestConfig::default() };
    let ra = run(w, a, coarse_cfg, None);
    let rb = run(w, b, coarse_cfg, perturb_b);
    let epochs = ra.digests.sm_chains.first().map_or(0, |c| c.entries.len());

    let coarse = ra.digests.first_divergence(&rb.digests);
    let identical =
        coarse.is_none() && ra.digests.root == rb.digests.root && ra.cycles == rb.cycles;
    let divergence = if identical {
        None
    } else if let Some(c) = &coarse {
        // Re-run both sides in fine mode over the bracketing window: the
        // last agreeing coarse epoch up to (and past, by one interval's
        // worth of slack) the first divergent one. The +1 keeps a
        // drain-epoch divergence inside the window.
        let window = (c.prev_cycle, c.cycle.max(c.prev_cycle) + 1);
        let fine = DigestConfig::fine(window);
        let fa = run(w, a, fine, None);
        let fb = run(w, b, fine, perturb_b);
        localize(&fa.digests, &fb.digests).or_else(|| {
            // The fine window can miss a divergence that only shows at
            // coarse cadence boundaries (e.g. pure run-length skew); fall
            // back to the coarse localization so the report never loses
            // the divergence it bisected.
            localize(&ra.digests, &rb.digests)
        })
    } else {
        // Chains matched epoch-for-epoch but the roots or final cycle
        // counts differ: the runs disagree only on lifetime.
        Some(Divergence {
            chain: "memory".to_string(),
            sm: None,
            epoch: epochs,
            cycle: ra.cycles.min(rb.cycles),
            component: "run-length".to_string(),
            warp: None,
            subs: Vec::new(),
        })
    };
    ReplayReport {
        identical,
        root_a: ra.digests.root,
        root_b: rb.digests.root,
        cycles_a: ra.cycles,
        cycles_b: rb.cycles,
        epochs,
        coarse,
        divergence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{by_abbr, Scale};

    #[test]
    fn identical_specs_report_identical() {
        let w = by_abbr("BIN", Scale::Test).expect("BIN in catalog");
        let spec = RunSpec::default();
        let r = replay_diff(&w, &spec, &spec, None);
        assert!(r.identical, "same spec must replay identically");
        assert_eq!(r.root_a, r.root_b);
        assert_ne!(r.root_a, 0);
        assert_eq!(r.cycles_a, r.cycles_b);
        assert!(r.epochs >= 1);
        assert!(r.coarse.is_none());
        assert!(r.divergence.is_none());
    }

    #[test]
    fn perturbed_global_word_is_bisected_to_the_memory_chain() {
        let w = by_abbr("BIN", Scale::Test).expect("BIN in catalog");
        let spec = RunSpec::default();
        let perturb = Perturb::GlobalWord { cycle: 10, addr: 0x1000, xor: 0x5555_5555 };
        let r = replay_diff(&w, &spec, &spec, Some(perturb));
        assert!(!r.identical);
        assert_ne!(r.root_a, r.root_b);
        let c = r.coarse.as_ref().expect("coarse divergence found");
        assert!(c.prev_cycle < 10 || c.cycle >= 10, "window brackets the perturbation");
        let d = r.divergence.as_ref().expect("divergence localized");
        assert_eq!(d.component, "memory", "{d:?}");
        assert_eq!(d.chain, "memory");
        assert_eq!(d.cycle, 10, "fine mode pins the exact perturbation cycle");
        assert!(d.sm.is_none());
    }

    #[test]
    fn differing_techniques_diverge_without_a_perturbation() {
        let w = by_abbr("BIN", Scale::Test).expect("BIN in catalog");
        let a = RunSpec { technique: Technique::Base, ..RunSpec::default() };
        let b = RunSpec::default();
        let r = replay_diff(&w, &a, &b, None);
        assert!(!r.identical, "Base vs DARSIE must diverge");
        assert!(r.divergence.is_some());
    }
}
