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
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simt_isa::AtomOp;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

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

/// How often each alternative of each generator was drawn.
#[derive(Debug, Default)]
struct Draws {
    /// [`shared_event`]'s accesses and barriers.
    shared: [u32; 2],
    /// [`global_event`]'s block switches, loads and stores.
    global: [u32; 3],
    /// [`global_pc`]'s picks from [`PCS`] and from a range.
    pcs: [u32; 2],
    /// The block switches' picks from [`BLOCKS`] and from a range.
    blocks: [u32; 2],
}

fn pick<T: Copy>(rng: &mut SmallRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

/// One warp access in the only shape [`LaneAddrs`] admits: a lane mask
/// (at most six lanes, so collisions are common, or none) and one byte
/// address per lane over [`WORDS`], any byte within a word.
fn addrs(rng: &mut SmallRng) -> LaneAddrs {
    let lanes = rng.gen_range(0..=6);
    let mask = (0..lanes).fold(0, |m, _| m | 1 << rng.gen_range(0..WARP_SIZE));
    let addrs = std::array::from_fn(|_| 4 * pick(rng, &WORDS) + rng.gen_range(0..4u64));
    LaneAddrs::new(mask, addrs)
}

/// A pc of a global stream: one of [`PCS`], or one of 64 more, so a
/// stream's accesses name hundreds of distinct sites.
fn global_pc(rng: &mut SmallRng, draws: &mut Draws) -> usize {
    let arm = rng.gen_range(0..2usize);
    draws.pcs[arm] += 1;
    if arm == 0 {
        pick(rng, &PCS)
    } else {
        rng.gen_range(4..68)
    }
}

/// Shared stream event: `Some((warp, pc, addrs, is_store))` or a barrier.
type SharedEvent = Option<(usize, usize, LaneAddrs, bool)>;

/// Eight accesses to one barrier.
fn shared_event(rng: &mut SmallRng, draws: &mut Draws) -> SharedEvent {
    let access = rng.gen_range(0..9) < 8;
    draws.shared[usize::from(!access)] += 1;
    access.then(|| {
        let (warp, pc, addrs) = (rng.gen_range(0..3), pick(rng, &PCS), addrs(rng));
        (warp, pc, addrs, rng.gen_range(0..2) == 1)
    })
}

fn shared_events(rng: &mut SmallRng, draws: &mut Draws, len: Range<usize>) -> Vec<SharedEvent> {
    (0..rng.gen_range(len)).map(|_| shared_event(rng, draws)).collect()
}

/// Global stream event: a block switch, or `(pc, addrs, is_store, atom)`.
enum GlobalEvent {
    Block(u64),
    Access(usize, Box<LaneAddrs>, bool, Option<AtomOp>),
}

/// One block switch to three loads to four stores.
fn global_event(rng: &mut SmallRng, draws: &mut Draws) -> GlobalEvent {
    let arm = match rng.gen_range(0..8) {
        0 => 0,
        1..=3 => 1,
        _ => 2,
    };
    draws.global[arm] += 1;
    if arm == 0 {
        let list = rng.gen_range(0..2usize);
        draws.blocks[list] += 1;
        let block = if list == 0 { pick(rng, &BLOCKS) } else { rng.gen_range(4..24) };
        return GlobalEvent::Block(block);
    }
    let (pc, a) = (global_pc(rng, draws), Box::new(addrs(rng)));
    if arm == 1 {
        GlobalEvent::Access(pc, a, false, None)
    } else {
        let atoms =
            [None, Some(AtomOp::Add), Some(AtomOp::Max), Some(AtomOp::Min), Some(AtomOp::Exch)];
        GlobalEvent::Access(pc, a, true, pick(rng, &atoms))
    }
}

fn global_events(rng: &mut SmallRng, draws: &mut Draws, len: Range<usize>) -> Vec<GlobalEvent> {
    (0..rng.gen_range(len)).map(|_| global_event(rng, draws)).collect()
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

#[test]
fn shared_sanitizer_matches_its_reference() {
    let mut draws = Draws::default();
    for case in 0..512 {
        let mut rng = SmallRng::seed_from_u64(case);
        let events = shared_events(&mut rng, &mut draws, 1..40);
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
        assert_eq!(got.races(), &want.races[..], "case {case}");
        for word in WORDS {
            assert_eq!(got.is_tainted(word), want.tainted.contains(&word), "case {case}");
        }
    }
    assert!(!draws.shared.contains(&0), "an arm was never drawn: {draws:?}");
}

#[test]
fn shared_sanitizer_moved_through_blocks_matches_a_fresh_one_per_block() {
    let mut draws = Draws::default();
    for case in 0..512 {
        let mut rng = SmallRng::seed_from_u64(case);
        let blocks: Vec<_> =
            (0..rng.gen_range(1..6)).map(|_| shared_events(&mut rng, &mut draws, 0..30)).collect();
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
            assert_eq!(shared.races(), fresh.races(), "case {case}");
            for word in WORDS {
                assert_eq!(shared.is_tainted(word), fresh.is_tainted(word), "case {case}");
            }
        }
    }
    assert!(!draws.shared.contains(&0), "an arm was never drawn: {draws:?}");
}

#[test]
fn global_sanitizer_matches_its_reference() {
    let mut draws = Draws::default();
    for case in 0..512 {
        let mut rng = SmallRng::seed_from_u64(case);
        check_global(case, &global_events(&mut rng, &mut draws, 1..40));
    }
    let Draws { global, pcs, blocks, .. } = &draws;
    assert!(![&global[..], pcs, blocks].concat().contains(&0), "an arm was never drawn: {draws:?}");
}

#[test]
fn global_sanitizer_matches_its_reference_over_hundreds_of_sites() {
    let mut draws = Draws::default();
    for case in 0..64 {
        let mut rng = SmallRng::seed_from_u64(case);
        let events = global_events(&mut rng, &mut draws, 300..400);
        let sites = sites(&events);
        assert!(sites >= 100, "case {case}: only {sites} distinct sites");
        check_global(case, &events);
    }
    let Draws { global, pcs, blocks, .. } = &draws;
    assert!(![&global[..], pcs, blocks].concat().contains(&0), "an arm was never drawn: {draws:?}");
}

/// Drives the global sanitizer and its reference through case `case`'s
/// `events` and compares their races, overlap and taint.
fn check_global(case: u64, events: &[GlobalEvent]) {
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
    assert_eq!(got.races(), &want.races[..], "case {case}");
    assert_eq!(got.commutative_overlap(), want.commutative_overlap, "case {case}");
    for word in WORDS {
        assert_eq!(got.is_tainted(word), want.tainted.contains(&word), "case {case}");
    }
}
