//! Randomized tests of the DARSIE hardware protocol: random event
//! sequences against the skip table, rename state and majority mask must
//! preserve the structural invariants the SM integration relies on.

use darsie::{DarsieStats, MajorityMask, ProbeOutcome, RenameState, SkipTable};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

enum Event {
    Probe { pc: u8, instance: u8, warp: u8 },
    Writeback { pc: u8, instance: u8, warp: u8 },
    Wait { pc: u8, instance: u8, warp: u8 },
    Pass { pc: u8, instance: u8, warp: u8 },
    InvalidateLoads,
    Diverge { warp: u8 },
    Barrier,
    AllocVersion { warp: u8, reg: u8 },
    Bind { warp: u8, reg: u8, version: u8 },
    Unbind { warp: u8, reg: u8 },
    ReleaseWarp { warp: u8 },
}

/// One random event, each of the 11 variants equally likely.
fn event(rng: &mut SmallRng) -> Event {
    let warp = |rng: &mut SmallRng| rng.gen_range(0..8);
    let reg = |rng: &mut SmallRng| rng.gen_range(0..5);
    let (pc, instance) = (rng.gen_range(0..6), rng.gen_range(1..4));
    match rng.gen_range(0..11) {
        0 => Event::Probe { pc, instance, warp: warp(rng) },
        1 => Event::Writeback { pc, instance, warp: warp(rng) },
        2 => Event::Wait { pc, instance, warp: warp(rng) },
        3 => Event::Pass { pc, instance, warp: warp(rng) },
        4 => Event::InvalidateLoads,
        5 => Event::Diverge { warp: warp(rng) },
        6 => Event::Barrier,
        7 => Event::AllocVersion { warp: warp(rng), reg: reg(rng) },
        8 => Event::Bind { warp: warp(rng), reg: reg(rng), version: rng.gen_range(1..6) },
        9 => Event::Unbind { warp: warp(rng), reg: reg(rng) },
        _ => Event::ReleaseWarp { warp: warp(rng) },
    }
}

const CAPACITY: usize = 4;
const RENAME: usize = 6;

#[test]
fn protocol_invariants_hold() {
    let mut kinds = HashSet::new();
    for case in 0..256 {
        let mut rng = SmallRng::seed_from_u64(case);
        let len = rng.gen_range(0..120);
        let events: Vec<Event> = (0..len).map(|_| event(&mut rng)).collect();
        kinds.extend(events.iter().map(std::mem::discriminant));
        let mut table = SkipTable::new(CAPACITY);
        let mut rename = RenameState::new(RENAME);
        let mut majority = MajorityMask::new(8);
        let mut stats = DarsieStats::default();
        let mut now = 0u64;

        for e in events {
            now += 1;
            match e {
                Event::Probe { pc, instance, warp } => {
                    let pc = usize::from(pc);
                    let outcome = table.probe(pc, u32::from(instance), &mut stats);
                    if outcome == ProbeOutcome::BecomeLeader && majority.contains(u32::from(warp)) {
                        let _ = table.insert_leader(
                            pc,
                            u32::from(instance),
                            u32::from(warp),
                            pc % 2 == 0, // half the PCs are loads
                            now,
                            &mut stats,
                        );
                    }
                }
                Event::Writeback { pc, instance, warp } => {
                    let released = table.leader_writeback(
                        usize::from(pc),
                        u32::from(instance),
                        u32::from(warp),
                        now,
                    );
                    // Released warps must have been registered as waiting.
                    assert_eq!(released & !0xFF, 0, "case {case}: release outside warp range");
                }
                Event::Wait { pc, instance, warp } => {
                    table.record_wait(usize::from(pc), u32::from(instance), u32::from(warp), now);
                }
                Event::Pass { pc, instance, warp } => {
                    let must = majority.mask();
                    let _ = table.record_pass(
                        usize::from(pc),
                        u32::from(instance),
                        u32::from(warp),
                        must,
                        now,
                    );
                }
                Event::InvalidateLoads => {
                    let (_, waiting) = table.invalidate_loads(&mut stats);
                    assert_eq!(waiting & !0xFF, 0, "case {case}");
                    // No load entries survive.
                    assert!(table.iter().all(|e| !e.is_load), "case {case}");
                }
                Event::Diverge { warp } => {
                    majority.remove(u32::from(warp));
                    rename.release_warp(u32::from(warp));
                    let _ = table.sweep(majority.mask());
                }
                Event::Barrier => majority.reset(),
                Event::AllocVersion { warp, reg } => {
                    let _ = rename.allocate_version(u32::from(warp), reg, &mut stats);
                }
                Event::Bind { warp, reg, version } => {
                    let _ = rename.bind(u32::from(warp), reg, u32::from(version), &mut stats);
                }
                Event::Unbind { warp, reg } => rename.unbind(u32::from(warp), reg),
                Event::ReleaseWarp { warp } => rename.release_warp(u32::from(warp)),
            }

            // --- invariants after every event ---
            assert!(table.len() <= CAPACITY, "case {case}: table overflows capacity");
            let keys: HashSet<(usize, u32)> = table.iter().map(|e| (e.pc, e.instance)).collect();
            assert_eq!(keys.len(), table.len(), "case {case}: duplicate (pc, instance) entries");
            for e in table.iter() {
                assert_eq!(
                    e.waiting_mask & e.passed_mask & !(1 << e.leader),
                    0,
                    "case {case}: a non-leader warp cannot both wait and have passed"
                );
            }
            // Physical-register conservation: every live version holds
            // exactly one preg; the rest are free.
            assert_eq!(
                rename.free_regs() + rename.live_versions(),
                RENAME,
                "case {case}: physical registers leaked or double-freed"
            );
        }
    }
    assert_eq!(kinds.len(), 11, "an event kind was never drawn");
}

/// Waiters are redrawn until warp 0, the leader, is not among them.
#[test]
fn leader_writeback_releases_exactly_the_waiters() {
    for case in 0..256 {
        let mut rng = SmallRng::seed_from_u64(case);
        let waiters = loop {
            let len = rng.gen_range(0..6);
            let mut waiters = HashSet::new();
            while waiters.len() < len {
                waiters.insert(rng.gen_range(0u8..8));
            }
            if !waiters.contains(&0) {
                break waiters;
            }
        };
        let mut table = SkipTable::new(4);
        let mut stats = DarsieStats::default();
        assert!(table.insert_leader(8, 1, 0, false, 1, &mut stats));
        let mut expect = 0u32;
        for &w in &waiters {
            table.record_wait(8, 1, u32::from(w), 2);
            expect |= 1 << w;
        }
        let released = table.leader_writeback(8, 1, 0, 3);
        assert_eq!(released, expect, "case {case}");
        // Idempotent: a second writeback releases nobody.
        assert_eq!(table.leader_writeback(8, 1, 0, 4), 0, "case {case}");
    }
}

#[test]
fn entry_removal_requires_every_must_pass_warp() {
    for case in 0..256 {
        let mut rng = SmallRng::seed_from_u64(case);
        let warps: Vec<u8> = (0..rng.gen_range(1..12)).map(|_| rng.gen_range(0..6)).collect();
        let mut table = SkipTable::new(4);
        let mut stats = DarsieStats::default();
        let must: u32 = 0b111111;
        assert!(table.insert_leader(0, 1, 0, false, 1, &mut stats));
        let mut passed = 1u32; // leader
        let mut removed = false;
        for w in warps {
            removed = table.record_pass(0, 1, u32::from(w), must, 2);
            passed |= 1 << w;
            if removed {
                break;
            }
        }
        assert_eq!(removed, passed & must == must, "case {case}");
    }
}
