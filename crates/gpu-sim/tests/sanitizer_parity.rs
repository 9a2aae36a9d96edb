//! Parity of the shadow race sanitizers with their original formulation:
//! a `std` (SipHash) map of `Option`-holding per-word cells probed with
//! `get` and then `entry` per lane. The sanitizers now walk a warp's lane
//! mask over a paged shadow, and the inter-block one names each access
//! by an interned `(block, pc, atom)` site; on random access streams
//! (hundreds of sites, blocks up to `u64::MAX - 1`, pcs up to
//! `u32::MAX`) they must report the same races, in the same order, the
//! same taint and the same commutative overlap. A shared sanitizer moved
//! through several blocks by `next_block` must report, per block, what a
//! fresh one does.

use gpu_sim::{
    FunctionalObserver, GlobalRace, GlobalRaceSanitizer, LaneAddrs, RaceSanitizer, SharedRace,
};
use proptest::prelude::*;
use simt_isa::AtomOp;
use std::collections::{HashMap, HashSet};

const WARP_SIZE: u32 = 32;
/// Words the generated streams touch: few, so collisions are common, on
/// both sides of shadow-page boundaries (1,024 words) and far apart.
const WORDS: [u64; 10] = [0, 1, 2, 1023, 1024, 1025, 4096, 1 << 20, (1 << 30) + 7, 3];
/// Pcs of the generated streams: a few small ones and the largest the
/// global sanitizer accepts.
const PCS: [usize; 6] = [0, 1, 2, 3, u32::MAX as usize - 1, u32::MAX as usize];
/// Blocks of the generated global streams: a few small ones and the
/// largest ones a launch can have.
const BLOCKS: [u64; 6] = [0, 1, 2, 3, u64::MAX - 2, u64::MAX - 1];

/// Reference shared-memory sanitizer (the original per-lane `get` +
/// `entry` over a SipHash map).
#[derive(Default)]
struct RefShared {
    epoch: u32,
    cells: HashMap<u64, RefCell>,
    tainted: HashSet<u64>,
    races: Vec<SharedRace>,
    reported: HashSet<(usize, usize)>,
}

#[derive(Clone, Copy, Default)]
struct RefCell {
    write: Option<(u32, u32, usize)>,
    read_epoch: u32,
    min_reader: Option<(u32, usize)>,
    max_reader: Option<(u32, usize)>,
}

impl RefShared {
    fn report(&mut self, race: SharedRace) {
        self.tainted.insert(race.word);
        let key = (race.first_pc.min(race.second_pc), race.first_pc.max(race.second_pc));
        if self.reported.insert(key) {
            self.races.push(race);
        }
    }

    fn access(&mut self, warp_index: usize, pc: usize, addrs: &[(u32, u64)], is_store: bool) {
        for &(lane, addr) in addrs {
            let thread = warp_index as u32 * WARP_SIZE + lane;
            let word = addr / 4;
            let seen = self.cells.get(&word).copied().unwrap_or_default();
            if let Some((we, wt, wpc)) = seen.write {
                if we == self.epoch && wt != thread {
                    self.report(SharedRace {
                        first_pc: wpc,
                        first_thread: wt,
                        second_pc: pc,
                        second_thread: thread,
                        word,
                        write_write: is_store,
                    });
                }
            }
            if is_store {
                if seen.read_epoch == self.epoch {
                    let other = [seen.min_reader, seen.max_reader]
                        .into_iter()
                        .flatten()
                        .find(|&(t, _)| t != thread);
                    if let Some((rt, rpc)) = other {
                        self.report(SharedRace {
                            first_pc: rpc,
                            first_thread: rt,
                            second_pc: pc,
                            second_thread: thread,
                            word,
                            write_write: false,
                        });
                    }
                }
                let cell = self.cells.entry(word).or_default();
                cell.write = Some((self.epoch, thread, pc));
            } else {
                let cell = self.cells.entry(word).or_default();
                if cell.read_epoch != self.epoch {
                    cell.read_epoch = self.epoch;
                    cell.min_reader = None;
                    cell.max_reader = None;
                }
                match cell.min_reader {
                    Some((t, _)) if t <= thread => {}
                    _ => cell.min_reader = Some((thread, pc)),
                }
                match cell.max_reader {
                    Some((t, _)) if t >= thread => {}
                    _ => cell.max_reader = Some((thread, pc)),
                }
            }
        }
    }
}

/// Reference inter-block sanitizer (the original per-lane `get` +
/// `entry` over a SipHash map).
#[derive(Default)]
struct RefGlobal {
    block: u64,
    cells: HashMap<u64, RefGlobalCell>,
    tainted: HashSet<u64>,
    races: Vec<GlobalRace>,
    reported: HashSet<(usize, usize)>,
    commutative_overlap: bool,
}

#[derive(Clone, Copy, Default)]
struct RefGlobalCell {
    write: Option<(u64, usize, Option<AtomOp>)>,
    /// Several blocks applied the write's commuting op.
    shared: bool,
    min_reader: Option<(u64, usize)>,
    max_reader: Option<(u64, usize)>,
}

impl RefGlobal {
    fn report(&mut self, race: GlobalRace) {
        self.tainted.insert(race.word);
        let key = (race.first_pc.min(race.second_pc), race.first_pc.max(race.second_pc));
        if self.reported.insert(key) {
            self.races.push(race);
        }
    }

    fn access(&mut self, pc: usize, addrs: &[(u32, u64)], is_store: bool, atom: Option<AtomOp>) {
        let block = self.block;
        for &(_lane, addr) in addrs {
            let word = addr / 4;
            let seen = self.cells.get(&word).copied().unwrap_or_default();
            if is_store {
                let same_commuting = |w: Option<AtomOp>| matches!((atom, w), (Some(x), Some(y)) if x == y && x != AtomOp::Exch);
                if let Some((wb, wpc, watom)) = seen.write {
                    if wb != block || seen.shared {
                        if same_commuting(watom) {
                            self.commutative_overlap = true;
                        } else {
                            self.report(GlobalRace {
                                first_pc: wpc,
                                first_block: wb,
                                second_pc: pc,
                                second_block: block,
                                word,
                                write_write: true,
                            });
                        }
                    }
                }
                let other = [seen.min_reader, seen.max_reader]
                    .into_iter()
                    .flatten()
                    .find(|&(b, _)| b != block);
                if let Some((rb, rpc)) = other {
                    self.report(GlobalRace {
                        first_pc: rpc,
                        first_block: rb,
                        second_pc: pc,
                        second_block: block,
                        word,
                        write_write: false,
                    });
                }
                let cell = self.cells.entry(word).or_default();
                match seen.write {
                    // The first of several blocks' commuting writes stays.
                    Some((wb, _, w)) if same_commuting(w) && (seen.shared || wb != block) => {
                        cell.shared = true;
                    }
                    // A block mixing two kinds of write on one word leaves
                    // a value no other block's write commutes with.
                    Some((wb, _, w)) if !seen.shared && wb == block && w != atom => {
                        cell.write = Some((block, pc, None));
                    }
                    _ => (cell.write, cell.shared) = (Some((block, pc, atom)), false),
                }
            } else {
                if let Some((wb, wpc, _)) = seen.write {
                    if wb != block || seen.shared {
                        self.report(GlobalRace {
                            first_pc: wpc,
                            first_block: wb,
                            second_pc: pc,
                            second_block: block,
                            word,
                            write_write: false,
                        });
                    }
                }
                let cell = self.cells.entry(word).or_default();
                match cell.min_reader {
                    Some((b, _)) if b <= block => {}
                    _ => cell.min_reader = Some((block, pc)),
                }
                match cell.max_reader {
                    Some((b, _)) if b >= block => {}
                    _ => cell.max_reader = Some((block, pc)),
                }
            }
        }
    }
}

/// One warp access in the only shape [`LaneAddrs`] admits: a lane mask
/// (at most six lanes, so collisions are common, or none) and one byte
/// address per lane over [`WORDS`], any byte within a word.
fn arb_addrs() -> impl Strategy<Value = LaneAddrs> {
    let addr = (prop::sample::select(WORDS.to_vec()), 0u64..4).prop_map(|(w, b)| 4 * w + b);
    let lanes = prop::collection::vec(0u32..WARP_SIZE, 0..=6);
    (lanes, prop::collection::vec(addr, WARP_SIZE as usize)).prop_map(|(lanes, addrs)| {
        let mask = lanes.iter().fold(0, |m, &lane| m | 1 << lane);
        LaneAddrs::new(mask, addrs.try_into().expect("one address per lane"))
    })
}

fn arb_pc() -> impl Strategy<Value = usize> {
    prop::sample::select(PCS.to_vec())
}

/// A pc of a global stream: one of [`PCS`], or one of 64 more, so a
/// stream's accesses name hundreds of distinct sites.
fn arb_global_pc() -> impl Strategy<Value = usize> {
    prop_oneof![arb_pc(), 4usize..68]
}

/// Shared stream event: `Some((warp, pc, addrs, is_store))` or a barrier.
type SharedEvent = Option<(usize, usize, LaneAddrs, bool)>;

fn arb_shared_event() -> impl Strategy<Value = SharedEvent> {
    prop_oneof![
        8 => (0usize..3, arb_pc(), arb_addrs(), any::<bool>()).prop_map(Some),
        1 => Just(None),
    ]
}

/// Global stream event: a block switch, or `(pc, addrs, is_store, atom)`.
#[derive(Debug, Clone)]
enum GlobalEvent {
    Block(u64),
    Access(usize, Box<LaneAddrs>, bool, Option<AtomOp>),
}

fn arb_global_event() -> impl Strategy<Value = GlobalEvent> {
    let atom = prop::sample::select(vec![
        None,
        Some(AtomOp::Add),
        Some(AtomOp::Max),
        Some(AtomOp::Min),
        Some(AtomOp::Exch),
    ]);
    let block = prop_oneof![prop::sample::select(BLOCKS.to_vec()), 4u64..24];
    prop_oneof![
        1 => block.prop_map(GlobalEvent::Block),
        3 => (arb_global_pc(), arb_addrs())
            .prop_map(|(pc, a)| GlobalEvent::Access(pc, Box::new(a), false, None)),
        4 => (arb_global_pc(), arb_addrs(), atom)
            .prop_map(|(pc, a, atom)| GlobalEvent::Access(pc, Box::new(a), true, atom)),
    ]
}

/// How many distinct `(block, pc, atom)` sites the non-empty accesses
/// of a global stream name.
fn sites(events: &[GlobalEvent]) -> usize {
    let mut block = 0;
    let mut sites = HashSet::new();
    for e in events {
        match e {
            GlobalEvent::Block(b) => block = *b,
            GlobalEvent::Access(pc, addrs, _, atom) if addrs.mask() != 0 => {
                sites.insert((block, *pc, *atom));
            }
            GlobalEvent::Access(..) => {}
        }
    }
    sites.len()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn shared_sanitizer_matches_its_reference(
        events in prop::collection::vec(arb_shared_event(), 1..40),
    ) {
        let mut got = RaceSanitizer::new(WARP_SIZE);
        let mut want = RefShared::default();
        for e in &events {
            match e {
                Some((warp, pc, addrs, is_store)) => {
                    got.shared_access(*warp, *pc, 1, addrs, *is_store);
                    want.access(*warp, *pc, &addrs.iter().collect::<Vec<_>>(), *is_store);
                }
                None => {
                    got.barrier_release();
                    want.epoch += 1;
                }
            }
        }
        prop_assert_eq!(got.races(), &want.races[..]);
        for word in WORDS {
            prop_assert_eq!(got.is_tainted(word), want.tainted.contains(&word));
        }
    }

    #[test]
    fn shared_sanitizer_moved_through_blocks_matches_a_fresh_one_per_block(
        blocks in prop::collection::vec(prop::collection::vec(arb_shared_event(), 0..30), 1..6),
    ) {
        let mut shared = RaceSanitizer::new(WARP_SIZE);
        for events in &blocks {
            shared.next_block();
            let mut fresh = RaceSanitizer::new(WARP_SIZE);
            for e in events {
                match e {
                    Some((warp, pc, addrs, is_store)) => {
                        shared.shared_access(*warp, *pc, 1, addrs, *is_store);
                        fresh.shared_access(*warp, *pc, 1, addrs, *is_store);
                    }
                    None => {
                        shared.barrier_release();
                        fresh.barrier_release();
                    }
                }
            }
            prop_assert_eq!(shared.races(), fresh.races());
            for word in WORDS {
                prop_assert_eq!(shared.is_tainted(word), fresh.is_tainted(word));
            }
        }
    }

    #[test]
    fn global_sanitizer_matches_its_reference(
        events in prop::collection::vec(arb_global_event(), 1..40),
    ) {
        check_global(&events);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn global_sanitizer_matches_its_reference_over_hundreds_of_sites(
        events in prop::collection::vec(arb_global_event(), 300..400),
    ) {
        let sites = sites(&events);
        prop_assert!(sites >= 100, "only {} distinct sites", sites);
        check_global(&events);
    }
}

/// Drives the global sanitizer and its reference through `events` and
/// compares their races, overlap and taint.
fn check_global(events: &[GlobalEvent]) {
    let mut got = GlobalRaceSanitizer::new();
    let mut want = RefGlobal::default();
    for e in events {
        match e {
            GlobalEvent::Block(b) => {
                got.set_block(*b);
                want.block = *b;
            }
            GlobalEvent::Access(pc, addrs, is_store, atom) => {
                got.record_access(*pc, addrs, *is_store, *atom);
                want.access(*pc, &addrs.iter().collect::<Vec<_>>(), *is_store, *atom);
            }
        }
    }
    assert_eq!(got.races(), &want.races[..]);
    assert_eq!(got.commutative_overlap(), want.commutative_overlap);
    for word in WORDS {
        assert_eq!(got.is_tainted(word), want.tainted.contains(&word));
    }
}
