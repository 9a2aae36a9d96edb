//! Chrome trace-event JSON export of a pipeline trace, loadable in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! The mapping: one *process* per SM, one *thread* per warp slot. Every
//! [`PipeEvent`] becomes a complete event (`ph: "X"`) with `ts` = cycle
//! and `dur` = 1, so a warp's lifetime reads as a row of labelled
//! single-cycle blocks. When a profile is supplied, its occupancy samples
//! become counter tracks (`ph: "C"`) per SM. The run manifest's host
//! phase spans render on their own synthetic process ([`PHASE_PID`]) with
//! microsecond timestamps — a different clock domain than the
//! cycle-stamped pipeline rows, kept on a separate track for exactly that
//! reason. Dropped-event counts land in `otherData` so a truncated ring
//! is visible in the UI.
//!
//! The document is a [`Json`] tree, written in its compact form.

use crate::json::Json;
use crate::manifest::PhaseSpan;
use gpu_sim::{EventLog, PipeEvent, SimProfile};
use std::collections::BTreeSet;

/// Synthetic process id for the host-phase track.
pub const PHASE_PID: usize = 1_000_000;

/// Renders `events` — plus, when given, `profile` occupancy counters, and
/// one complete event per host phase span — as a Chrome trace-event
/// document.
#[must_use]
pub fn chrome_trace(events: &EventLog, profile: Option<&SimProfile>, phases: &[PhaseSpan]) -> Json {
    let mut trace = Vec::new();

    // Metadata: name each SM process and each warp thread that appears.
    let mut sms: BTreeSet<usize> = BTreeSet::new();
    let mut warps: BTreeSet<(usize, usize)> = BTreeSet::new();
    for e in events.iter() {
        sms.insert(e.sm);
        warps.insert((e.sm, e.warp));
    }
    if let Some(p) = profile {
        sms.extend(p.sms.iter().filter(|smp| !smp.samples.is_empty()).map(|smp| smp.sm));
    }
    for &sm in &sms {
        trace.push(process_name(sm, format!("SM {sm}")));
    }
    for &(sm, warp) in &warps {
        trace.push(
            Json::obj()
                .field("ph", "M")
                .field("name", "thread_name")
                .field("pid", sm)
                .field("tid", warp)
                .field("args", Json::obj().field("name", format!("warp {warp}"))),
        );
    }

    trace.extend(events.iter().map(complete_event));

    if let Some(p) = profile {
        for smp in &p.sms {
            for s in &smp.samples {
                trace.push(
                    Json::obj()
                        .field("ph", "C")
                        .field("name", "darsie occupancy")
                        .field("pid", smp.sm)
                        .field("ts", s.cycle)
                        .field(
                            "args",
                            Json::obj()
                                .field("skip_entries", s.skip_entries)
                                .field("live_versions", s.live_versions)
                                .field("waiting_warps", s.waiting_warps),
                        ),
                );
            }
        }
    }

    if !phases.is_empty() {
        trace.push(process_name(PHASE_PID, "host phases".to_string()));
        for p in phases {
            trace.push(
                Json::obj()
                    .field("ph", "X")
                    .field("name", p.name.as_str())
                    .field("cat", "phase")
                    .field("ts", (p.start_seconds * 1e6) as u64)
                    // Clamped to 1us so a zero-length phase stays visible.
                    .field("dur", ((p.wall_seconds * 1e6) as u64).max(1))
                    .field("pid", PHASE_PID)
                    .field("tid", 0u32)
                    .field("args", Json::obj()),
            );
        }
    }

    Json::obj()
        .field("displayTimeUnit", "ns")
        .field("traceEvents", trace)
        .field("otherData", Json::obj().field("dropped_events", events.dropped))
}

fn process_name(pid: usize, name: String) -> Json {
    Json::obj()
        .field("ph", "M")
        .field("name", "process_name")
        .field("pid", pid)
        .field("args", Json::obj().field("name", name))
}

fn complete_event(e: &PipeEvent) -> Json {
    Json::obj()
        .field("ph", "X")
        .field("name", format!("{:?}", e.kind))
        .field("cat", "pipeline")
        .field("ts", e.cycle)
        .field("dur", 1u32)
        .field("pid", e.sm)
        .field("tid", e.warp)
        .field("args", Json::obj().field("pc", e.pc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{EventKind, OccupancySample, SmProfile};

    fn span(name: &str, start_seconds: f64, wall_seconds: f64) -> PhaseSpan {
        PhaseSpan { name: name.to_string(), start_seconds, wall_seconds, alloc_bytes: 0, allocs: 0 }
    }

    #[test]
    fn trace_has_metadata_events_and_drop_count() {
        let mut log = EventLog::new(4);
        log.push(PipeEvent { cycle: 3, sm: 0, warp: 1, pc: 7, kind: EventKind::Issue });
        log.push(PipeEvent { cycle: 4, sm: 0, warp: 1, pc: 8, kind: EventKind::Skip });
        let json = chrome_trace(&log, None, &[]).to_string();
        assert_eq!(
            json,
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\
             {\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"args\":{\"name\":\"SM 0\"}},\
             {\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":1,\
             \"args\":{\"name\":\"warp 1\"}},\
             {\"ph\":\"X\",\"name\":\"Issue\",\"cat\":\"pipeline\",\"ts\":3,\"dur\":1,\
             \"pid\":0,\"tid\":1,\"args\":{\"pc\":7}},\
             {\"ph\":\"X\",\"name\":\"Skip\",\"cat\":\"pipeline\",\"ts\":4,\"dur\":1,\
             \"pid\":0,\"tid\":1,\"args\":{\"pc\":8}}],\
             \"otherData\":{\"dropped_events\":0}}"
        );
    }

    #[test]
    fn phases_render_on_their_own_process() {
        let log = EventLog::new(0);
        let phases = [span("run:BIN", 0.0, 0.25), span("write \"x\"", 0.25, 0.0)];
        let json = chrome_trace(&log, None, &phases).to_string();
        assert!(json.contains("\"name\":\"host phases\""), "{json}");
        assert!(json.contains("\"cat\":\"phase\""), "{json}");
        assert!(json.contains("\"name\":\"run:BIN\",\"cat\":\"phase\",\"ts\":0,\"dur\":250000"));
        // Zero-length phases are widened to 1us; names are escaped.
        assert!(json.contains("\"name\":\"write \\\"x\\\"\""), "{json}");
        assert!(json.contains("\"ts\":250000,\"dur\":1,"), "{json}");
        // Without phases there is no host-phase process.
        assert!(!chrome_trace(&log, None, &[]).to_string().contains("host phases"));
    }

    #[test]
    fn profile_samples_become_counters() {
        let log = EventLog::new(0);
        let mut smp = SmProfile::new(2, 8, 4);
        smp.samples.push(OccupancySample {
            cycle: 256,
            skip_entries: 3,
            skip_capacity: 8,
            live_versions: 5,
            rename_capacity: 32,
            resident_warps: 8,
            waiting_warps: 2,
        });
        let prof = SimProfile { sms: vec![smp] };
        let json = chrome_trace(&log, Some(&prof), &[]).to_string();
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(json.contains("\"skip_entries\":3"), "{json}");
        assert!(json.contains("\"pid\":2"), "{json}");
    }
}
