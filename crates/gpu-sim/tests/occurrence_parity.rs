//! Parity of `OccurrenceGroups` (leader kept once, followers compared on
//! arrival) with the recorder it replaced, kept here as the reference: it
//! stored every warp's full-mask vector per `(pc, occurrence)` until the
//! threadblock ended, then compared the followers with warp 0.
//!
//! Random threadblocks of 1..=4 warps each run their own random pc
//! sequence under random masks. The arrivals are interleaved in a random
//! order that keeps each warp's own order, so followers reach a pc before
//! the leader, warps skip occurrences the others run, partial masks hit
//! groups that already mismatched, and the last warp may be a partial
//! tail warp.

use gpu_sim::{OccurrenceGroup, OccurrenceGroups, Warp};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simt_isa::{Dim3, LaunchConfig};
use std::collections::BTreeMap;

/// One warp's execution of `(pc, occurrence)`.
struct Arrival {
    warp: usize,
    pc: usize,
    occurrence: u32,
    /// The warp's active mask.
    active: u32,
    value: Vec<u32>,
}

type Settled = Vec<((usize, u32), Option<OccurrenceGroup<Vec<u32>>>)>;

/// The replaced recorder: slot `w` holds warp `w`'s vector when it ran the
/// occurrence with every lane of a 32-lane warp active, `None` otherwise;
/// a group is aligned when every slot is filled.
fn reference(warps: &[Warp], arrivals: &[Arrival]) -> Settled {
    let mut groups: BTreeMap<(usize, u32), Vec<Option<Vec<u32>>>> = BTreeMap::new();
    for a in arrivals {
        let full_mask = warps[a.warp].full_mask;
        let full = a.active == full_mask && full_mask.count_ones() == 32;
        groups.entry((a.pc, a.occurrence)).or_insert_with(|| vec![None; warps.len()])[a.warp] =
            full.then(|| a.value.clone());
    }
    groups
        .into_iter()
        .map(|(key, dsts)| {
            let Some(dsts) = dsts.into_iter().collect::<Option<Vec<_>>>() else {
                return (key, None);
            };
            let leader = dsts[0].clone();
            let mut mismatches = 0;
            let mut first_mismatch = None;
            for (w, dst) in dsts.into_iter().enumerate().skip(1) {
                if dst != leader {
                    mismatches += 1;
                    first_mismatch.get_or_insert((w, dst));
                }
            }
            (key, Some(OccurrenceGroup { leader, mismatches, first_mismatch }))
        })
        .collect()
}

fn recorded(launch: &LaunchConfig, warps: &mut [Warp], arrivals: &[Arrival]) -> Settled {
    let mut groups = OccurrenceGroups::<[u32]>::new(launch);
    for a in arrivals {
        let warp = &mut warps[a.warp];
        warp.stack.last_mut().expect("warp has a path").mask = a.active;
        groups.record(a.warp, a.pc, a.occurrence, warp, &a.value);
    }
    groups.finish().collect()
}

/// Which cases one threadblock exercised.
#[derive(Default)]
struct Coverage {
    early_follower_mismatch: u64,
    mismatch_then_partial: u64,
    missing_warp: u64,
    single_warp: u64,
    tail_warp: u64,
}

fn random_tb(rng: &mut SmallRng, cov: &mut Coverage) -> (LaunchConfig, Vec<Warp>, Vec<Arrival>) {
    let num_warps = rng.gen_range(1..=4usize);
    let tail = rng.gen_range(0..4u32) == 0;
    let threads = num_warps as u32 * 32 - if tail { rng.gen_range(1..32u32) } else { 0 };
    let launch = LaunchConfig::new(1u32, Dim3::one_d(threads));
    assert_eq!(launch.warps_per_block() as usize, num_warps);
    let warps: Vec<Warp> = (0..num_warps)
        .map(|w| {
            let lanes = threads.saturating_sub(w as u32 * 32).min(32);
            let full = if lanes >= 32 { u32::MAX } else { (1u32 << lanes) - 1 };
            Warp::new(w, 0, w as u32, 1, 32, full, w as u64)
        })
        .collect();
    let full_masks: Vec<u32> = warps.iter().map(|w| w.full_mask).collect();
    // Per warp, its own pc sequence with 1-based per-pc occurrences.
    let pcs = rng.gen_range(1..=4usize);
    let mut queues: Vec<Vec<Arrival>> = (0..num_warps)
        .map(|w| {
            let mut occurrences = vec![0u32; pcs];
            (0..rng.gen_range(0..12usize))
                .map(|_| {
                    let pc = rng.gen_range(0..pcs);
                    occurrences[pc] += 1;
                    // Three values per lane pattern keep matches common.
                    let v = rng.gen_range(0..3u32);
                    let lane = rng.gen_range(0..32usize);
                    let mut value = vec![7; 32];
                    value[lane] = v;
                    Arrival {
                        warp: w,
                        pc,
                        occurrence: occurrences[pc],
                        active: if rng.gen_range(0..6u32) != 0 {
                            full_masks[w]
                        } else {
                            full_masks[w] >> 1
                        },
                        value,
                    }
                })
                .collect()
        })
        .collect();
    for q in &mut queues {
        q.reverse();
    }
    let mut arrivals = Vec::new();
    while queues.iter().any(|q| !q.is_empty()) {
        let w = rng.gen_range(0..num_warps);
        if let Some(a) = queues[w].pop() {
            arrivals.push(a);
        }
    }

    cov.single_warp += u64::from(num_warps == 1);
    cov.tail_warp += u64::from(tail);
    let mut keys: BTreeMap<(usize, u32), Vec<&Arrival>> = BTreeMap::new();
    for a in &arrivals {
        keys.entry((a.pc, a.occurrence)).or_default().push(a);
    }
    // Only a whole 32-lane warp can be fully active.
    let full = |a: &Arrival| a.active == u32::MAX;
    for group in keys.values() {
        let leader = group.iter().position(|a| a.warp == 0);
        let differs = |a: &&&Arrival| {
            leader.is_some_and(|l| a.warp != 0 && full(a) && a.value != group[l].value)
        };
        if group.len() < num_warps {
            cov.missing_warp += 1;
        }
        if let Some(l) = leader {
            let aligned = group.len() == num_warps && group.iter().all(|a| full(a));
            if aligned && group[..l].iter().any(|a| differs(&a)) {
                cov.early_follower_mismatch += 1;
            }
            let first_partial = group.iter().position(|a| !full(a));
            if first_partial.is_some_and(|p| p > l && group[l..p].iter().any(|a| differs(&a))) {
                cov.mismatch_then_partial += 1;
            }
        }
    }
    (launch, warps, arrivals)
}

#[test]
fn leader_first_recorder_matches_the_store_everything_reference() {
    let mut rng = SmallRng::seed_from_u64(0x0cc0_5eed);
    let mut cov = Coverage::default();
    for case in 0..4000 {
        let (launch, mut warps, arrivals) = random_tb(&mut rng, &mut cov);
        let want = reference(&warps, &arrivals);
        let got = recorded(&launch, &mut warps, &arrivals);
        assert_eq!(got, want, "case {case}");
    }
    for (what, n) in [
        ("a follower mismatching before the leader", cov.early_follower_mismatch),
        ("a mismatch later hit by a partial mask", cov.mismatch_then_partial),
        ("a warp missing an occurrence", cov.missing_warp),
        ("a single-warp threadblock", cov.single_warp),
        ("a partial tail warp", cov.tail_warp),
    ] {
        assert!(n >= 20, "only {n} case(s) of {what}");
    }
}

#[test]
fn an_early_follower_is_judged_when_the_leader_arrives() {
    let launch = LaunchConfig::new(1u32, Dim3::one_d(96));
    let mut warps: Vec<Warp> =
        (0..3).map(|w| Warp::new(w, 0, w as u32, 1, 32, u32::MAX, w as u64)).collect();
    let row = |x: u32| vec![x; 32];
    let arrivals = [
        Arrival { warp: 2, pc: 5, occurrence: 1, active: u32::MAX, value: row(9) },
        Arrival { warp: 1, pc: 5, occurrence: 1, active: u32::MAX, value: row(8) },
        Arrival { warp: 0, pc: 5, occurrence: 1, active: u32::MAX, value: row(7) },
    ];
    let got = recorded(&launch, &mut warps, &arrivals);
    assert_eq!(
        got,
        [(
            (5, 1),
            Some(OccurrenceGroup {
                leader: row(7),
                mismatches: 2,
                first_mismatch: Some((1, row(8)))
            })
        )]
    );
    assert_eq!(got, reference(&warps, &arrivals));
}
