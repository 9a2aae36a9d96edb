//! Pipeline event tracing: an optional per-cycle record of what the SMs
//! did, for debugging kernels and inspecting the DARSIE protocol in
//! action. Enabled with [`GpuConfig::trace_events`]; events come back in
//! [`SimResult::events`](crate::SimResult) ordered by cycle, and export to
//! Chrome trace-event JSON via `darsie-bench`'s `perfetto` module.
//!
//! The log is a bounded ring: it keeps the **last** 200,000 events
//! (`TRACE_CAPACITY`) and counts everything older in
//! [`EventLog::dropped`], so long runs cost bounded memory. With tracing
//! disabled no event is ever constructed (call sites gate on the flag
//! before building a [`PipeEvent`]).
//!
//! [`GpuConfig::trace_events`]: crate::GpuConfig::trace_events

use std::collections::VecDeque;
use std::fmt;

/// Ring-buffer capacity of a traced run's event log: the most recent
/// `TRACE_CAPACITY` events are kept, older ones are counted in
/// [`EventLog::dropped`].
pub(crate) const TRACE_CAPACITY: usize = 200_000;

/// One pipeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipeEvent {
    /// Cycle the event occurred in.
    pub cycle: u64,
    /// SM index.
    pub sm: usize,
    /// Warp slot within the SM.
    pub warp: usize,
    /// Static instruction index involved.
    pub pc: usize,
    /// What happened.
    pub kind: EventKind,
}

/// Kinds of traced events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Instruction fetched into the I-buffer.
    Fetch,
    /// Warp elected DARSIE leader for this PC.
    Lead,
    /// Instruction skipped before fetch (marker enqueued).
    Skip,
    /// Warp stalled waiting for a leader writeback.
    WaitLeader,
    /// Instruction issued to execution.
    Issue,
    /// Issue-stage reuse hit (UV).
    Reuse,
    /// Result written back (scoreboard cleared).
    Writeback,
    /// Warp arrived at a `bar.sync`.
    BarrierArrive,
    /// Warp blocked at DARSIE branch synchronization.
    BranchSync,
    /// Warp left the majority path.
    MajorityEvict,
    /// Warp finished.
    WarpDone,
}

impl fmt::Display for PipeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {:>6}  sm{} w{:<3} pc {:>4}  {:?}",
            self.cycle, self.sm, self.warp, self.pc, self.kind
        )
    }
}

/// A bounded ring buffer of events: keeps the most recent `capacity`
/// events and counts everything displaced in [`EventLog::dropped`].
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: VecDeque<PipeEvent>,
    capacity: usize,
    /// Events dropped (displaced from the ring, or pushed with zero
    /// capacity).
    pub dropped: u64,
}

impl EventLog {
    /// A ring keeping at most `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> EventLog {
        EventLog { events: VecDeque::new(), capacity, dropped: 0 }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one event, displacing the oldest when full.
    pub fn push(&mut self, e: PipeEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(e);
    }

    /// The recorded events, oldest first, as one slice.
    #[must_use]
    pub fn events(&mut self) -> &[PipeEvent] {
        self.events.make_contiguous()
    }

    /// Iterates the recorded events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &PipeEvent> {
        self.events.iter()
    }

    /// Merges another log, sorts by cycle, and re-applies this ring's
    /// capacity (keeping the most recent events).
    pub fn merge(&mut self, other: EventLog) {
        self.dropped += other.dropped;
        let mut all: Vec<PipeEvent> = self.events.drain(..).chain(other.events).collect();
        all.sort_by_key(|e| e.cycle);
        if all.len() > self.capacity {
            let excess = all.len() - self.capacity;
            all.drain(..excess);
            self.dropped += excess as u64;
        }
        self.events = all.into();
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, kind: EventKind) -> PipeEvent {
        PipeEvent { cycle, sm: 0, warp: 1, pc: 2, kind }
    }

    #[test]
    fn bounded_capacity_counts_drops() {
        let mut log = EventLog::new(2);
        log.push(ev(1, EventKind::Fetch));
        log.push(ev(2, EventKind::Issue));
        log.push(ev(3, EventKind::Writeback));
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped, 1);
    }

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let mut log = EventLog::new(2);
        for c in 1..=5 {
            log.push(ev(c, EventKind::Issue));
        }
        let cycles: Vec<u64> = log.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![4, 5], "oldest displaced first");
        assert_eq!(log.dropped, 3);
    }

    #[test]
    fn zero_capacity_records_nothing_but_counts() {
        let mut log = EventLog::new(0);
        log.push(ev(1, EventKind::Fetch));
        assert!(log.is_empty());
        assert_eq!(log.dropped, 1);
    }

    #[test]
    fn merge_sorts_by_cycle() {
        let mut a = EventLog::new(10);
        a.push(ev(5, EventKind::Issue));
        let mut b = EventLog::new(10);
        b.push(ev(1, EventKind::Fetch));
        a.merge(b);
        assert_eq!(a.events()[0].cycle, 1);
        assert_eq!(a.events()[1].cycle, 5);
    }

    #[test]
    fn merge_reapplies_capacity_keeping_latest() {
        let mut a = EventLog::new(2);
        a.push(ev(5, EventKind::Issue));
        a.push(ev(7, EventKind::Issue));
        let mut b = EventLog::new(2);
        b.push(ev(1, EventKind::Fetch));
        b.push(ev(9, EventKind::Writeback));
        a.merge(b);
        let cycles: Vec<u64> = a.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![7, 9]);
        assert_eq!(a.dropped, 2);
    }

    #[test]
    fn display_is_readable() {
        let s = ev(7, EventKind::Skip).to_string();
        assert!(s.contains("cycle"), "{s}");
        assert!(s.contains("Skip"), "{s}");
    }
}
