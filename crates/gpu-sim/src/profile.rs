//! Cycle-accounted profiling: per-SM issue-slot attribution, per-PC and
//! per-warp breakdowns, leader-election latency histograms and periodic
//! occupancy samples of the DARSIE structures.
//!
//! The core contract is the **accounting identity**: every issue slot of
//! every cycle is attributed to exactly one [`StallCause`], so per SM
//!
//! ```text
//! Σ over causes == cycles × schedulers_per_sm × issue_width
//! ```
//!
//! ([`SmProfile::check_identity`]). Two causes are *structural zeros* in
//! this pipeline model and kept in the taxonomy for schema stability:
//! operand-collector conflicts are charged as extra register-bank cycles
//! but never stall issue, and majority-path eviction lets the evicted warp
//! keep executing rather than stalling it.
//!
//! Profiling is enabled with [`GpuConfig::profile`](crate::GpuConfig) and
//! comes back in [`SimResult::profile`](crate::SimResult).
//!
//! The SM reports what it does through one set of hooks, [`SmObserver`].
//! A plain run monomorphises them to [`NullObserver`], which records
//! nothing and lets the SM skip the stall taxonomy; a profiled or traced
//! run uses one `SmRecorder` per SM, which keeps the profile when
//! profiling and the event ring ([`crate::events`]) when tracing.
//! Observers are handed values, never the
//! SM, and no hook returns anything the pipeline reads, so an observed
//! run takes exactly the path of a plain one.

use crate::config::GpuConfig;
use crate::events::{EventKind, EventLog, PipeEvent, TRACE_CAPACITY};
use crate::functional::NullObserver;
use std::collections::BTreeMap;

/// Where an issue slot went. `Issued` is the productive case; every other
/// variant names the reason the slot stayed empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StallCause {
    /// The slot issued an instruction (or satisfied one from the UV reuse
    /// buffer).
    Issued,
    /// The frontend eliminated the instruction that would have filled the
    /// slot (a DARSIE skip marker or DAC ghost drained at issue).
    SkippedByDarsie,
    /// Scoreboard dependency: an operand of the head instruction is still
    /// in flight (RAW), or a skip marker hit a WAW hazard.
    Scoreboard,
    /// Operand-collector conflict. Structurally zero in this model: bank
    /// conflicts are charged to `rf_bank_conflicts`, not to issue.
    OperandCollector,
    /// The SP or SFU unit the head instruction needs is busy.
    ExecUnitBusy,
    /// The LSU is busy serialising an earlier memory access.
    LsuQueue,
    /// The warp's I-buffer holds no issuable instruction (fetch is behind,
    /// or a wrong-path flush just emptied it).
    IBufferEmpty,
    /// The warp is parked waiting for a DARSIE leader writeback.
    WaitLeader,
    /// The warp is blocked at DARSIE branch synchronization.
    BranchSync,
    /// The warp is parked at a `bar.sync` (or a SILICON-SYNC block
    /// boundary).
    Barrier,
    /// Majority-path eviction. Structurally zero: evicted warps keep
    /// executing off the majority path instead of stalling.
    MajorityEvict,
    /// No warp is mapped to this scheduler slot at all.
    IdleNoWarp,
}

impl StallCause {
    /// Every cause, in display order.
    pub const ALL: [StallCause; 12] = [
        StallCause::Issued,
        StallCause::SkippedByDarsie,
        StallCause::Scoreboard,
        StallCause::OperandCollector,
        StallCause::ExecUnitBusy,
        StallCause::LsuQueue,
        StallCause::IBufferEmpty,
        StallCause::WaitLeader,
        StallCause::BranchSync,
        StallCause::Barrier,
        StallCause::MajorityEvict,
        StallCause::IdleNoWarp,
    ];

    /// Stable snake_case label (used as the JSON key).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StallCause::Issued => "issued",
            StallCause::SkippedByDarsie => "skipped_by_darsie",
            StallCause::Scoreboard => "scoreboard",
            StallCause::OperandCollector => "operand_collector",
            StallCause::ExecUnitBusy => "exec_unit_busy",
            StallCause::LsuQueue => "lsu_queue",
            StallCause::IBufferEmpty => "ibuffer_empty",
            StallCause::WaitLeader => "wait_leader",
            StallCause::BranchSync => "branch_sync",
            StallCause::Barrier => "barrier",
            StallCause::MajorityEvict => "majority_evict",
            StallCause::IdleNoWarp => "idle_no_warp",
        }
    }

    /// Position in [`StallCause::ALL`], which lists the variants in
    /// declaration order.
    fn index(self) -> usize {
        self as usize
    }
}

/// Issue-slot counters, one per [`StallCause`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotCounts([u64; 12]);

impl SlotCounts {
    /// Adds `n` slots under `cause`.
    pub fn add(&mut self, cause: StallCause, n: u64) {
        self.0[cause.index()] += n;
    }

    /// Slots attributed to `cause`.
    #[must_use]
    pub fn get(&self, cause: StallCause) -> u64 {
        self.0[cause.index()]
    }

    /// Total slots accounted (the left side of the identity).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Sums another counter set into this one.
    pub fn merge(&mut self, other: &SlotCounts) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }

    /// `(cause, count)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (StallCause, u64)> + '_ {
        StallCause::ALL.iter().map(move |&c| (c, self.0[c.index()]))
    }
}

/// Power-of-two bucketed latency histogram (bucket 0 holds zero; bucket
/// `i` holds `2^(i-1) ..= 2^i - 1`; the last bucket is open-ended).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyHist {
    buckets: [u64; 16],
}

impl LatencyHist {
    /// Records one latency observation.
    pub fn record(&mut self, v: u64) {
        let idx = if v == 0 { 0 } else { (64 - v.leading_zeros() as usize).min(15) };
        self.buckets[idx] += 1;
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The raw buckets.
    #[must_use]
    pub fn buckets(&self) -> &[u64; 16] {
        &self.buckets
    }

    /// Sums another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

/// One periodic snapshot of the DARSIE structures and warp population.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OccupancySample {
    /// Cycle the sample was taken.
    pub cycle: u64,
    /// Live skip-table entries across resident TBs.
    pub skip_entries: u32,
    /// Skip-table capacity across resident TBs.
    pub skip_capacity: u32,
    /// Live renamed register versions across resident TBs.
    pub live_versions: u32,
    /// Renaming-pool capacity across resident TBs.
    pub rename_capacity: u32,
    /// Resident warps.
    pub resident_warps: u32,
    /// Warps parked in `WaitLeader`.
    pub waiting_warps: u32,
}

/// Per-static-instruction profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcProfile {
    /// Times this PC issued (including UV reuse hits).
    pub issued: u64,
    /// Times this PC was eliminated by the frontend (skip marker or ghost
    /// drained).
    pub skipped: u64,
    /// Issue slots lost while this PC was the blamed head instruction.
    pub stalls: SlotCounts,
}

/// Per-warp-slot profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarpSlotProfile {
    /// Instructions issued from this warp slot.
    pub issued: u64,
    /// Issue slots lost while this warp slot was the blamed warp.
    pub stalls: SlotCounts,
}

/// Cap on stored occupancy samples; later samples are dropped and counted
/// in [`SmProfile::samples_dropped`].
pub const MAX_OCCUPANCY_SAMPLES: usize = 4096;

/// Cycles between occupancy samples while profiling.
const SAMPLE_INTERVAL: u64 = 256;

/// One SM's cycle-accounted profile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SmProfile {
    /// SM index.
    pub sm: usize,
    /// Cycles this SM was clocked.
    pub cycles: u64,
    /// Issue slots per cycle (`schedulers_per_sm × issue_width`).
    pub issue_slots_per_cycle: u64,
    /// Slot attribution (the accounting identity is over these).
    pub slots: SlotCounts,
    /// Per-PC issue/skip/stall breakdown.
    pub per_pc: BTreeMap<usize, PcProfile>,
    /// Per-warp-slot issue/stall breakdown. Warp attribution is partial by
    /// design (idle-no-warp slots blame nobody), so these do not satisfy
    /// the identity on their own.
    pub per_warp: Vec<WarpSlotProfile>,
    /// Cycles from leader election to leader writeback.
    pub leader_latency: LatencyHist,
    /// Periodic occupancy samples (bounded by
    /// [`MAX_OCCUPANCY_SAMPLES`]).
    pub samples: Vec<OccupancySample>,
    /// Samples dropped after the bound.
    pub samples_dropped: u64,
}

impl SmProfile {
    /// An empty profile for SM `sm` with `slots_per_cycle` issue slots.
    #[must_use]
    pub fn new(sm: usize, slots_per_cycle: u64, warp_slots: usize) -> SmProfile {
        SmProfile {
            sm,
            issue_slots_per_cycle: slots_per_cycle,
            per_warp: vec![WarpSlotProfile::default(); warp_slots],
            ..SmProfile::default()
        }
    }

    /// Issue slots this SM had in total (`cycles × slots/cycle`).
    #[must_use]
    pub fn issue_slots(&self) -> u64 {
        self.cycles * self.issue_slots_per_cycle
    }

    /// Checks the accounting identity: every slot attributed exactly once.
    ///
    /// # Errors
    ///
    /// Describes the imbalance when the attributed total differs from
    /// `cycles × issue_slots_per_cycle`.
    pub fn check_identity(&self) -> Result<(), String> {
        let have = self.slots.total();
        let want = self.issue_slots();
        if have == want {
            Ok(())
        } else {
            Err(format!(
                "SM{}: accounted {have} slots but {} cycles x {} slots/cycle = {want}",
                self.sm, self.cycles, self.issue_slots_per_cycle
            ))
        }
    }

    /// Charges `slots` unfilled issue slots to `blame`'s cause, head PC and
    /// warp slot.
    fn credit(&mut self, (cause, pc, warp): Blame, slots: u64) {
        self.slots.add(cause, slots);
        if let Some(pc) = pc {
            self.per_pc.entry(pc).or_default().stalls.add(cause, slots);
        }
        if let Some(warp) = warp {
            self.per_warp[warp].stalls.add(cause, slots);
        }
    }

    /// Clocks cycles `first..=last`, taking the occupancy samples due in
    /// them (each stamped by `occupancy`) up to [`MAX_OCCUPANCY_SAMPLES`].
    fn clock(&mut self, first: u64, last: u64, occupancy: impl Fn(u64) -> OccupancySample) {
        self.cycles += last + 1 - first;
        for c in (first.next_multiple_of(SAMPLE_INTERVAL)..=last).step_by(SAMPLE_INTERVAL as usize)
        {
            if self.samples.len() < MAX_OCCUPANCY_SAMPLES {
                self.samples.push(occupancy(c));
            } else {
                self.samples_dropped += 1;
            }
        }
    }
}

/// What an unfilled issue slot is charged to: the stall cause, the blamed
/// head PC and the blamed warp slot, when known.
pub type Blame = (StallCause, Option<usize>, Option<usize>);

/// The SM pipeline's observation hooks (paper Figures 4 and 7: fetch with
/// the skipper, I-buffer, issue, writeback). The SM reports each fact
/// once, as values; every hook defaults to doing nothing.
pub trait SmObserver {
    /// False when the observer records nothing: the SM then skips the work
    /// only an observer reads (stall causes, leader latencies).
    const OBSERVES: bool;

    /// Cycle `now` is simulated. `occupancy(c)` snapshots the SM's DARSIE
    /// structures and warps, stamped with cycle `c`.
    fn cycle(&mut self, _now: u64, _occupancy: impl Fn(u64) -> OccupancySample) {}

    /// The SM slept through cycles `first..=last`, each a repeat of the
    /// last simulated one.
    fn slept(&mut self, _first: u64, _last: u64, _occupancy: impl Fn(u64) -> OccupancySample) {}

    /// Scheduler `sched` issued `issued` instructions this cycle, from warp
    /// slot `warp` when any. `blame()` says what the slots it left
    /// unfilled are charged to; only an observer that charges them calls
    /// it.
    fn issue_slots(
        &mut self,
        _sched: usize,
        _issued: usize,
        _warp: Option<usize>,
        _blame: impl FnOnce() -> Blame,
    ) {
    }

    /// Warp slot `warp` did `kind` at `pc` in `cycle`. An
    /// [`EventKind::Issue`] or [`EventKind::Reuse`] is also the PC's issue.
    fn event(&mut self, _cycle: u64, _warp: usize, _pc: usize, _kind: EventKind) {}

    /// The issue stage drained a skip marker or ghost of `pc`.
    fn absorbed(&mut self, _pc: usize) {}

    /// A leader wrote back `cycles` after its election.
    fn leader_latency(&mut self, _cycles: u64) {}
}

impl SmObserver for NullObserver {
    const OBSERVES: bool = false;
}

/// The observer of a profiled or traced run: one SM's profile, kept only
/// under `GpuConfig::profile`, and event ring, kept only under
/// `GpuConfig::trace_events`, so either flag works without the other and
/// costs nothing for the other.
#[derive(Debug)]
pub(crate) struct SmRecorder {
    sm: usize,
    pub(crate) profile: Option<SmProfile>,
    pub(crate) events: Option<EventLog>,
    issue_width: u64,
    /// Each scheduler's blame in the last simulated cycle that left a slot
    /// unfilled; a slept cycle repeats it.
    last_blame: Vec<Blame>,
}

impl SmRecorder {
    pub(crate) fn new(sm: usize, cfg: &GpuConfig) -> SmRecorder {
        let slots_per_cycle = (cfg.schedulers_per_sm * cfg.issue_width) as u64;
        let warp_slots = cfg.max_warps_per_sm as usize;
        SmRecorder {
            sm,
            profile: cfg.profile.then(|| SmProfile::new(sm, slots_per_cycle, warp_slots)),
            events: cfg.trace_events.then(|| EventLog::new(TRACE_CAPACITY)),
            issue_width: cfg.issue_width as u64,
            last_blame: vec![(StallCause::IdleNoWarp, None, None); cfg.schedulers_per_sm],
        }
    }
}

impl SmObserver for SmRecorder {
    const OBSERVES: bool = true;

    fn cycle(&mut self, now: u64, occupancy: impl Fn(u64) -> OccupancySample) {
        if let Some(p) = &mut self.profile {
            p.clock(now, now, occupancy);
        }
    }

    fn slept(&mut self, first: u64, last: u64, occupancy: impl Fn(u64) -> OccupancySample) {
        let Some(p) = &mut self.profile else { return };
        p.clock(first, last, occupancy);
        for &blame in &self.last_blame {
            p.credit(blame, (last + 1 - first) * self.issue_width);
        }
    }

    fn issue_slots(
        &mut self,
        s: usize,
        issued: usize,
        warp: Option<usize>,
        blame: impl FnOnce() -> Blame,
    ) {
        let Some(p) = &mut self.profile else { return };
        let issued = issued as u64;
        p.slots.add(StallCause::Issued, issued);
        if let Some(warp) = warp {
            p.per_warp[warp].issued += issued;
        }
        if issued < self.issue_width {
            let blame = blame();
            self.last_blame[s] = blame;
            p.credit(blame, self.issue_width - issued);
        }
    }

    fn event(&mut self, cycle: u64, warp: usize, pc: usize, kind: EventKind) {
        let issue = matches!(kind, EventKind::Issue | EventKind::Reuse);
        if let Some(p) = self.profile.as_mut().filter(|_| issue) {
            p.per_pc.entry(pc).or_default().issued += 1;
        }
        if let Some(log) = &mut self.events {
            log.push(PipeEvent { cycle, sm: self.sm, warp, pc, kind });
        }
    }

    fn absorbed(&mut self, pc: usize) {
        if let Some(p) = &mut self.profile {
            p.per_pc.entry(pc).or_default().skipped += 1;
        }
    }

    fn leader_latency(&mut self, cycles: u64) {
        if let Some(p) = &mut self.profile {
            p.leader_latency.record(cycles);
        }
    }
}

/// The whole GPU's profile: one [`SmProfile`] per SM.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimProfile {
    /// Per-SM profiles, in SM order.
    pub sms: Vec<SmProfile>,
}

impl SimProfile {
    /// Slot attribution summed over all SMs.
    #[must_use]
    pub fn slots(&self) -> SlotCounts {
        let mut total = SlotCounts::default();
        for sm in &self.sms {
            total.merge(&sm.slots);
        }
        total
    }

    /// Total issue slots over all SMs.
    #[must_use]
    pub fn issue_slots(&self) -> u64 {
        self.sms.iter().map(SmProfile::issue_slots).sum()
    }

    /// Leader-election latency merged over all SMs.
    #[must_use]
    pub fn leader_latency(&self) -> LatencyHist {
        let mut h = LatencyHist::default();
        for sm in &self.sms {
            h.merge(&sm.leader_latency);
        }
        h
    }

    /// Per-PC profiles merged over all SMs.
    #[must_use]
    pub fn per_pc(&self) -> BTreeMap<usize, PcProfile> {
        let mut merged: BTreeMap<usize, PcProfile> = BTreeMap::new();
        for sm in &self.sms {
            for (&pc, p) in &sm.per_pc {
                let m = merged.entry(pc).or_default();
                m.issued += p.issued;
                m.skipped += p.skipped;
                m.stalls.merge(&p.stalls);
            }
        }
        merged
    }

    /// Checks the accounting identity on every SM.
    ///
    /// # Errors
    ///
    /// Returns the first SM's imbalance description.
    pub fn check_identity(&self) -> Result<(), String> {
        for sm in &self.sms {
            sm.check_identity()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_causes_in_declaration_order() {
        for (i, c) in StallCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
    }

    #[test]
    fn labels_are_unique_and_snake_case() {
        let labels: Vec<&str> = StallCause::ALL.iter().map(|c| c.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        for l in labels {
            assert!(l.chars().all(|c| c.is_ascii_lowercase() || c == '_'), "{l}");
        }
    }

    #[test]
    fn slot_counts_total_and_merge() {
        let mut a = SlotCounts::default();
        a.add(StallCause::Issued, 3);
        a.add(StallCause::Scoreboard, 2);
        let mut b = SlotCounts::default();
        b.add(StallCause::Issued, 1);
        a.merge(&b);
        assert_eq!(a.get(StallCause::Issued), 4);
        assert_eq!(a.total(), 6);
    }

    #[test]
    fn identity_checks_balance() {
        let mut p = SmProfile::new(0, 8, 4);
        p.cycles = 10;
        p.slots.add(StallCause::Issued, 30);
        assert!(p.check_identity().is_err(), "30 of 80 slots attributed");
        // 30 + 50 == 80 == 10 cycles x 8 slots: balanced.
        p.slots.add(StallCause::IdleNoWarp, 50);
        assert!(p.check_identity().is_ok());
        p.slots.add(StallCause::Barrier, 1);
        let err = p.check_identity().expect_err("over-attributed");
        assert!(err.contains("81"), "{err}");
    }

    #[test]
    fn latency_hist_buckets_powers_of_two() {
        let mut h = LatencyHist::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1 << 20] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.buckets()[0], 1, "zero");
        assert_eq!(h.buckets()[1], 1, "1");
        assert_eq!(h.buckets()[2], 2, "2..=3");
        assert_eq!(h.buckets()[3], 2, "4..=7");
        assert_eq!(h.buckets()[4], 1, "8..=15");
        assert_eq!(h.buckets()[15], 1, "open-ended tail");
    }
}
