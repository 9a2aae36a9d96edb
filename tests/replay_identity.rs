//! Identity gate for the functional replay substrate
//! (`gpu_sim::replay_grid`, the executor, global memory and the
//! shadow race sanitizers) and the analyses built on it: every catalog
//! workload at `Scale::Test`, a deterministic sample of its launch-family
//! members and the racy fixtures must reproduce a pinned table.
//!
//! Each row pins, for one launch:
//! - `blocks::certify`'s classification, `dynamically_discharged` flag,
//!   and a fingerprint of its witness and rendered report;
//! - a fingerprint of `verify_full(..).render()` (the marking oracle and
//!   the shared-memory sanitizer ride on the same replay);
//! - `GlobalMemory::fingerprint()` after replaying every block in launch
//!   order;
//! - a fingerprint of every observer event of that replay: `(warp, pc,
//!   occurrence)` around each instruction with its destination vectors,
//!   the per-lane addresses of each memory access, and barrier releases.
//!
//! A second table pins the replay behind `darsie-sim analyze` for each
//! catalog workload: the refined kernel's oracle report and both headroom
//! vectors, from one `oracle::check_with_headroom`.
//!
//! A third table pins the static footprint analyses for each catalog
//! workload and a set of racy, certifier and memory-performance fixtures:
//! `family::certify_family`'s whole certificate (verdict, classification,
//! counts, unresolved pairs with their reasons in order, witness, witness
//! launch, notes and cost brackets) and the `perf::predict` /
//! `perf::predict_envelope` vectors.
//!
//! The tables pin what the replay computes, not how fast: a host-side
//! optimisation of the replay must leave every row unchanged. A row that
//! moves means a verdict, a diagnostic or an executed value changed.

use darsie_repro::isa::{AxisRange, Instruction, LaunchConfig, LaunchFamily};
use darsie_repro::sim::{
    replay_grid, FunctionalObserver, GlobalMemory, GpuConfig, LaneAddrs, Warp,
};
use darsie_repro::workloads::{catalog, fixtures, Scale};
use simt_compiler::affine::{Clamps, Flow, GridCtx};
use simt_compiler::CompiledKernel;
use simt_verify::{blocks, family, oracle, perf, verify_full};

/// Family members replayed per catalog workload.
const MEMBERS: usize = 25;

/// One pinned launch: name, classification, discharged, certify
/// fingerprint, verify fingerprint, memory fingerprint, event
/// fingerprint.
type Row = (&'static str, &'static str, bool, u64, u64, u64, u64);

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_str(s: &str) -> u64 {
    s.bytes().fold(FNV_OFFSET, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over every observer event, one `u64` word at a time.
struct EventHasher(u64);

impl EventHasher {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
    }

    fn event(&mut self, tag: u64, warp: usize, pc: usize, occurrence: u32) {
        for w in [tag, warp as u64, pc as u64, u64::from(occurrence)] {
            self.word(w);
        }
    }

    fn access(&mut self, addrs: &LaneAddrs, is_store: bool, is_atomic: bool) {
        self.word(u64::from(is_store) | u64::from(is_atomic) << 1);
        self.word(addrs.len() as u64);
        for (lane, addr) in addrs.iter() {
            self.word(u64::from(lane));
            self.word(addr);
        }
    }
}

impl FunctionalObserver for EventHasher {
    fn before_instruction(
        &mut self,
        w: usize,
        pc: usize,
        occurrence: u32,
        _instr: &Instruction,
        warp: &Warp,
    ) {
        self.event(1, w, pc, occurrence);
        self.word(u64::from(warp.active_mask()));
    }

    fn after_instruction(
        &mut self,
        w: usize,
        pc: usize,
        occurrence: u32,
        instr: &Instruction,
        warp: &Warp,
    ) {
        self.event(2, w, pc, occurrence);
        if let Some(d) = instr.dst {
            for v in warp.reg_vector(d) {
                self.word(u64::from(v));
            }
        }
        if let Some(p) = instr.pdst {
            for lane in 0..warp.warp_size() {
                self.word(u64::from(warp.pred(p, lane)));
            }
        }
    }

    fn shared_access(
        &mut self,
        w: usize,
        pc: usize,
        occurrence: u32,
        addrs: &LaneAddrs,
        is_store: bool,
    ) {
        self.event(3, w, pc, occurrence);
        self.access(addrs, is_store, false);
    }

    fn global_access(
        &mut self,
        w: usize,
        pc: usize,
        occurrence: u32,
        addrs: &LaneAddrs,
        is_store: bool,
        is_atomic: bool,
    ) {
        self.event(4, w, pc, occurrence);
        self.access(addrs, is_store, is_atomic);
    }

    fn barrier_release(&mut self) {
        self.word(5);
    }
}

/// The pinned quantities of one launch (see the module docs).
fn row(
    name: String,
    ck: &CompiledKernel,
    launch: &LaunchConfig,
    memory: &GlobalMemory,
) -> (String, &'static str, bool, u64, u64, u64, u64) {
    let (cert, report) = blocks::certify(ck, launch, memory.clone());
    let certify = fnv_str(&format!("{:?}\n{}", cert.witness, report.render()));
    let verify = fnv_str(&verify_full(ck, launch, memory.clone()).render());
    let mut mem = memory.clone();
    let mut events = EventHasher(FNV_OFFSET);
    replay_grid(ck, launch, &mut mem, &mut events);
    (
        name,
        cert.classification.label(),
        cert.dynamically_discharged,
        certify,
        verify,
        mem.fingerprint(),
        events.0,
    )
}

#[test]
fn replays_match_the_pinned_table() {
    let mut got = Vec::new();
    for w in catalog(Scale::Test) {
        got.push(row(w.abbr.to_string(), &w.ck, &w.launch, &w.memory));
        let seed = family::sample_seed(&w.ck.kernel.name);
        for (m, l) in w.family.sample(seed, MEMBERS, &w.launch).iter().enumerate() {
            got.push(row(format!("{}#{m}", w.abbr), &w.ck, l, &w.memory));
        }
    }
    let mut fx = fixtures::racy();
    fx.push(fixtures::racy_inter_block());
    for f in fx {
        got.push(row(f.name.to_string(), &f.ck, &f.launch, &f.memory));
    }

    let want: Vec<_> = PINNED
        .iter()
        .map(|&(n, c, d, cf, vf, mf, ef)| (n.to_string(), c, d, cf, vf, mf, ef))
        .collect();
    if got != want {
        let mut table = String::new();
        for (n, c, d, cf, vf, mf, ef) in &got {
            table.push_str(&format!(
                "    (\"{n}\", \"{c}\", {d}, {cf:#018x}, {vf:#018x}, {mf:#018x}, {ef:#018x}),\n"
            ));
        }
        let first = got.iter().zip(&want).position(|(g, w)| g != w);
        panic!(
            "replay identity table moved (first differing row: {first:?}; {} rows vs {} \
             pinned). Actual table:\n{table}",
            got.len(),
            want.len()
        );
    }
}

/// Generated on the replay substrate before the allocation-free rework.
#[rustfmt::skip]
const PINNED: &[Row] = &[
    ("BIN", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0x126f92cadfa2662b),
    ("BIN#0", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0xeab2b2e22a1dc156),
    ("BIN#1", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0x126f92cadfa2662b),
    ("BIN#2", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0x126f92cadfa2662b),
    ("BIN#3", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0xeab2b2e22a1dc156),
    ("BIN#4", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0xeab2b2e22a1dc156),
    ("BIN#5", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0x126f92cadfa2662b),
    ("BIN#6", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0xeab2b2e22a1dc156),
    ("BIN#7", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0xeab2b2e22a1dc156),
    ("BIN#8", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0x126f92cadfa2662b),
    ("BIN#9", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0xeab2b2e22a1dc156),
    ("BIN#10", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0x126f92cadfa2662b),
    ("BIN#11", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0xeab2b2e22a1dc156),
    ("BIN#12", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0xeab2b2e22a1dc156),
    ("BIN#13", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0x126f92cadfa2662b),
    ("BIN#14", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0xeab2b2e22a1dc156),
    ("BIN#15", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0x126f92cadfa2662b),
    ("BIN#16", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0x126f92cadfa2662b),
    ("BIN#17", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0x126f92cadfa2662b),
    ("BIN#18", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0x126f92cadfa2662b),
    ("BIN#19", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0x126f92cadfa2662b),
    ("BIN#20", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0xeab2b2e22a1dc156),
    ("BIN#21", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0x126f92cadfa2662b),
    ("BIN#22", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0xeab2b2e22a1dc156),
    ("BIN#23", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0xeab2b2e22a1dc156),
    ("BIN#24", "block-independent", false, 0x85b678e97fa2d75a, 0x7c314c0eb6030628, 0xcbf29ce484222325, 0xeab2b2e22a1dc156),
    ("PT", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#0", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#1", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#2", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#3", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#4", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#5", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#6", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#7", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#8", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#9", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#10", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#11", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#12", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#13", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#14", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#15", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#16", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#17", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#18", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#19", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#20", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#21", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#22", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#23", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("PT#24", "block-independent", false, 0x3f3a92947121fdff, 0x147167e89f060ff9, 0x9602b7e800945817, 0x2ed67926e76e7cde),
    ("FW", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xc6254d704f92f22c, 0xab8a108d2ad1611d),
    ("FW#0", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xfacc58963b338074, 0xa1cfd4039c5bf830),
    ("FW#1", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xc6254d704f92f22c, 0xab8a108d2ad1611d),
    ("FW#2", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xc6254d704f92f22c, 0xab8a108d2ad1611d),
    ("FW#3", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xfacc58963b338074, 0xa1cfd4039c5bf830),
    ("FW#4", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xfacc58963b338074, 0xa1cfd4039c5bf830),
    ("FW#5", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xfacc58963b338074, 0xa1cfd4039c5bf830),
    ("FW#6", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xfacc58963b338074, 0xa1cfd4039c5bf830),
    ("FW#7", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xfacc58963b338074, 0xa1cfd4039c5bf830),
    ("FW#8", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xfacc58963b338074, 0xa1cfd4039c5bf830),
    ("FW#9", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xfacc58963b338074, 0xa1cfd4039c5bf830),
    ("FW#10", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xc6254d704f92f22c, 0xab8a108d2ad1611d),
    ("FW#11", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xfacc58963b338074, 0xa1cfd4039c5bf830),
    ("FW#12", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xc6254d704f92f22c, 0xab8a108d2ad1611d),
    ("FW#13", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xfacc58963b338074, 0xa1cfd4039c5bf830),
    ("FW#14", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xc6254d704f92f22c, 0xab8a108d2ad1611d),
    ("FW#15", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xc6254d704f92f22c, 0xab8a108d2ad1611d),
    ("FW#16", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xc6254d704f92f22c, 0xab8a108d2ad1611d),
    ("FW#17", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xc6254d704f92f22c, 0xab8a108d2ad1611d),
    ("FW#18", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xc6254d704f92f22c, 0xab8a108d2ad1611d),
    ("FW#19", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xc6254d704f92f22c, 0xab8a108d2ad1611d),
    ("FW#20", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xc6254d704f92f22c, 0xab8a108d2ad1611d),
    ("FW#21", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xfacc58963b338074, 0xa1cfd4039c5bf830),
    ("FW#22", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xc6254d704f92f22c, 0xab8a108d2ad1611d),
    ("FW#23", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xc6254d704f92f22c, 0xab8a108d2ad1611d),
    ("FW#24", "block-independent", false, 0x349af0eb1a7d3778, 0xf18ff7cfda512a49, 0xfacc58963b338074, 0xa1cfd4039c5bf830),
    ("SR1", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#0", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#1", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#2", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#3", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#4", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#5", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#6", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#7", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#8", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#9", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#10", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#11", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#12", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#13", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#14", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#15", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#16", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#17", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#18", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#19", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#20", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#21", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#22", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#23", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("SR1#24", "block-independent", false, 0x15130090219d1806, 0xc82f1202b4334660, 0xe46fb6b972ac25e1, 0xb712f93a8faa5fd2),
    ("LIB", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#0", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#1", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#2", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#3", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#4", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#5", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#6", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#7", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#8", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#9", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#10", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#11", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#12", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#13", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#14", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#15", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#16", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#17", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#18", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#19", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#20", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#21", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#22", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#23", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("LIB#24", "block-independent", false, 0xd0b3fda5fd7854b6, 0x90a5d2b14cf06f90, 0x70c18617d9acd859, 0xbcd2ea0fc5f2439e),
    ("IMNLM", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0xa67617729ffa65d1, 0x433a296b16255da6),
    ("IMNLM#0", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0x18c5da8218dd83ff, 0x68c5852b549b608c),
    ("IMNLM#1", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0xa67617729ffa65d1, 0x433a296b16255da6),
    ("IMNLM#2", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0xa67617729ffa65d1, 0x433a296b16255da6),
    ("IMNLM#3", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0xa67617729ffa65d1, 0x433a296b16255da6),
    ("IMNLM#4", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0xa67617729ffa65d1, 0x433a296b16255da6),
    ("IMNLM#5", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0xa67617729ffa65d1, 0x433a296b16255da6),
    ("IMNLM#6", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0xa67617729ffa65d1, 0x433a296b16255da6),
    ("IMNLM#7", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0x18c5da8218dd83ff, 0x68c5852b549b608c),
    ("IMNLM#8", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0xa67617729ffa65d1, 0x433a296b16255da6),
    ("IMNLM#9", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0x18c5da8218dd83ff, 0x68c5852b549b608c),
    ("IMNLM#10", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0xa67617729ffa65d1, 0x433a296b16255da6),
    ("IMNLM#11", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0x18c5da8218dd83ff, 0x68c5852b549b608c),
    ("IMNLM#12", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0xa67617729ffa65d1, 0x433a296b16255da6),
    ("IMNLM#13", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0x18c5da8218dd83ff, 0x68c5852b549b608c),
    ("IMNLM#14", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0x18c5da8218dd83ff, 0x68c5852b549b608c),
    ("IMNLM#15", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0x18c5da8218dd83ff, 0x68c5852b549b608c),
    ("IMNLM#16", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0x18c5da8218dd83ff, 0x68c5852b549b608c),
    ("IMNLM#17", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0x18c5da8218dd83ff, 0x68c5852b549b608c),
    ("IMNLM#18", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0x18c5da8218dd83ff, 0x68c5852b549b608c),
    ("IMNLM#19", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0xa67617729ffa65d1, 0x433a296b16255da6),
    ("IMNLM#20", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0x18c5da8218dd83ff, 0x68c5852b549b608c),
    ("IMNLM#21", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0xa67617729ffa65d1, 0x433a296b16255da6),
    ("IMNLM#22", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0xa67617729ffa65d1, 0x433a296b16255da6),
    ("IMNLM#23", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0xa67617729ffa65d1, 0x433a296b16255da6),
    ("IMNLM#24", "block-independent", false, 0xc3db9dbebfd0ecd7, 0x60a729821e6c2d9d, 0xa67617729ffa65d1, 0x433a296b16255da6),
    ("BP", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#0", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#1", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#2", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#3", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#4", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#5", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#6", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#7", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#8", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#9", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#10", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#11", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#12", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#13", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#14", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#15", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#16", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#17", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#18", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#19", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#20", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#21", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#22", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#23", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("BP#24", "block-independent", false, 0xaa902840ca7beb24, 0x236d118f1d883b96, 0x168f1c0f6172c957, 0x3c6696c0f7a16b9e),
    ("DCT8x8", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x1421056c3f18eeab, 0x1c1a20e413805c25),
    ("DCT8x8#0", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x82ea2cc51c7666a5, 0x06ef347d275fecaa),
    ("DCT8x8#1", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x1421056c3f18eeab, 0x1c1a20e413805c25),
    ("DCT8x8#2", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x9c54a19b3a5650d5, 0x31767123e1c82ed7),
    ("DCT8x8#3", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x9c54a19b3a5650d5, 0x31767123e1c82ed7),
    ("DCT8x8#4", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x82ea2cc51c7666a5, 0x06ef347d275fecaa),
    ("DCT8x8#5", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x9c54a19b3a5650d5, 0x31767123e1c82ed7),
    ("DCT8x8#6", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x82ea2cc51c7666a5, 0x06ef347d275fecaa),
    ("DCT8x8#7", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x9c54a19b3a5650d5, 0x31767123e1c82ed7),
    ("DCT8x8#8", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x1421056c3f18eeab, 0x1c1a20e413805c25),
    ("DCT8x8#9", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x94e5b2f89f05031b, 0xe41e9f3696c108c5),
    ("DCT8x8#10", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x1421056c3f18eeab, 0x1c1a20e413805c25),
    ("DCT8x8#11", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x9c54a19b3a5650d5, 0x31767123e1c82ed7),
    ("DCT8x8#12", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x1421056c3f18eeab, 0x1c1a20e413805c25),
    ("DCT8x8#13", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x9c54a19b3a5650d5, 0x31767123e1c82ed7),
    ("DCT8x8#14", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x94e5b2f89f05031b, 0xe41e9f3696c108c5),
    ("DCT8x8#15", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x9c54a19b3a5650d5, 0x31767123e1c82ed7),
    ("DCT8x8#16", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x1421056c3f18eeab, 0x1c1a20e413805c25),
    ("DCT8x8#17", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x94e5b2f89f05031b, 0xe41e9f3696c108c5),
    ("DCT8x8#18", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x82ea2cc51c7666a5, 0x06ef347d275fecaa),
    ("DCT8x8#19", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x1421056c3f18eeab, 0x1c1a20e413805c25),
    ("DCT8x8#20", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x94e5b2f89f05031b, 0xe41e9f3696c108c5),
    ("DCT8x8#21", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x82ea2cc51c7666a5, 0x06ef347d275fecaa),
    ("DCT8x8#22", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x94e5b2f89f05031b, 0xe41e9f3696c108c5),
    ("DCT8x8#23", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x9c54a19b3a5650d5, 0x31767123e1c82ed7),
    ("DCT8x8#24", "block-independent", false, 0x0611f1c42d862fa1, 0xec7e215305d6703b, 0x82ea2cc51c7666a5, 0x06ef347d275fecaa),
    ("FWS", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0xf78b182da20fc4fd, 0x6ad4063ceaa061d4),
    ("FWS#0", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0xc5972ec8fdcc30b4, 0xaa07bd7e25dc358e),
    ("FWS#1", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0xf78b182da20fc4fd, 0x6ad4063ceaa061d4),
    ("FWS#2", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0xc5972ec8fdcc30b4, 0xaa07bd7e25dc358e),
    ("FWS#3", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0x3be3c4461d7d7380, 0x00f028f8d4dc77c3),
    ("FWS#4", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0x3be3c4461d7d7380, 0x00f028f8d4dc77c3),
    ("FWS#5", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0x3be3c4461d7d7380, 0x00f028f8d4dc77c3),
    ("FWS#6", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0xc5972ec8fdcc30b4, 0xaa07bd7e25dc358e),
    ("FWS#7", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0xf78b182da20fc4fd, 0x6ad4063ceaa061d4),
    ("FWS#8", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0xf78b182da20fc4fd, 0x6ad4063ceaa061d4),
    ("FWS#9", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0x795f876078769440, 0x99a3c894756fbb58),
    ("FWS#10", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0xf78b182da20fc4fd, 0x6ad4063ceaa061d4),
    ("FWS#11", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0xc5972ec8fdcc30b4, 0xaa07bd7e25dc358e),
    ("FWS#12", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0x3be3c4461d7d7380, 0x00f028f8d4dc77c3),
    ("FWS#13", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0x3be3c4461d7d7380, 0x00f028f8d4dc77c3),
    ("FWS#14", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0x3be3c4461d7d7380, 0x00f028f8d4dc77c3),
    ("FWS#15", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0x3be3c4461d7d7380, 0x00f028f8d4dc77c3),
    ("FWS#16", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0xf78b182da20fc4fd, 0x6ad4063ceaa061d4),
    ("FWS#17", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0xf78b182da20fc4fd, 0x6ad4063ceaa061d4),
    ("FWS#18", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0xf78b182da20fc4fd, 0x6ad4063ceaa061d4),
    ("FWS#19", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0xc5972ec8fdcc30b4, 0xaa07bd7e25dc358e),
    ("FWS#20", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0x795f876078769440, 0x99a3c894756fbb58),
    ("FWS#21", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0x3be3c4461d7d7380, 0x00f028f8d4dc77c3),
    ("FWS#22", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0x795f876078769440, 0x99a3c894756fbb58),
    ("FWS#23", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0xf78b182da20fc4fd, 0x6ad4063ceaa061d4),
    ("FWS#24", "block-independent", false, 0xa2ab3545f032b373, 0xf0ce8ae9e7f66561, 0xf78b182da20fc4fd, 0x6ad4063ceaa061d4),
    ("HS", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0xbd67f132f4e028ae, 0x474cc08ee6398cf3),
    ("HS#0", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0x8f625891b8f32ebd, 0xb78964b85a7e1bd8),
    ("HS#1", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0xbd67f132f4e028ae, 0x474cc08ee6398cf3),
    ("HS#2", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0x8f625891b8f32ebd, 0xb78964b85a7e1bd8),
    ("HS#3", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0x8f625891b8f32ebd, 0xb78964b85a7e1bd8),
    ("HS#4", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0x8f625891b8f32ebd, 0xb78964b85a7e1bd8),
    ("HS#5", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0xbd67f132f4e028ae, 0x474cc08ee6398cf3),
    ("HS#6", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0x8f625891b8f32ebd, 0xb78964b85a7e1bd8),
    ("HS#7", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0xbd67f132f4e028ae, 0x474cc08ee6398cf3),
    ("HS#8", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0x8f625891b8f32ebd, 0xb78964b85a7e1bd8),
    ("HS#9", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0x8f625891b8f32ebd, 0xb78964b85a7e1bd8),
    ("HS#10", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0xbd67f132f4e028ae, 0x474cc08ee6398cf3),
    ("HS#11", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0x8f625891b8f32ebd, 0xb78964b85a7e1bd8),
    ("HS#12", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0x8f625891b8f32ebd, 0xb78964b85a7e1bd8),
    ("HS#13", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0x8f625891b8f32ebd, 0xb78964b85a7e1bd8),
    ("HS#14", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0xbd67f132f4e028ae, 0x474cc08ee6398cf3),
    ("HS#15", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0x8f625891b8f32ebd, 0xb78964b85a7e1bd8),
    ("HS#16", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0xbd67f132f4e028ae, 0x474cc08ee6398cf3),
    ("HS#17", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0xbd67f132f4e028ae, 0x474cc08ee6398cf3),
    ("HS#18", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0x8f625891b8f32ebd, 0xb78964b85a7e1bd8),
    ("HS#19", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0x8f625891b8f32ebd, 0xb78964b85a7e1bd8),
    ("HS#20", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0x8f625891b8f32ebd, 0xb78964b85a7e1bd8),
    ("HS#21", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0x8f625891b8f32ebd, 0xb78964b85a7e1bd8),
    ("HS#22", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0x8f625891b8f32ebd, 0xb78964b85a7e1bd8),
    ("HS#23", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0x8f625891b8f32ebd, 0xb78964b85a7e1bd8),
    ("HS#24", "block-independent", false, 0x9ad26b3471b6d063, 0x53de9e4e7742d189, 0x8f625891b8f32ebd, 0xb78964b85a7e1bd8),
    ("CP", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x7a4738dfd4201050, 0x55353f9d816281e9),
    ("CP#0", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x4cc3a32e117d66bc, 0x1cebbeaf47c0f100),
    ("CP#1", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x7a4738dfd4201050, 0x55353f9d816281e9),
    ("CP#2", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x7a4738dfd4201050, 0x55353f9d816281e9),
    ("CP#3", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x7a4738dfd4201050, 0x55353f9d816281e9),
    ("CP#4", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x8f0c1afebf172cf6, 0x167bd7c594ffc2cf),
    ("CP#5", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x7a4738dfd4201050, 0x55353f9d816281e9),
    ("CP#6", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x4cc3a32e117d66bc, 0x1cebbeaf47c0f100),
    ("CP#7", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x7a4738dfd4201050, 0x55353f9d816281e9),
    ("CP#8", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x8f0c1afebf172cf6, 0x167bd7c594ffc2cf),
    ("CP#9", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x7a4738dfd4201050, 0x55353f9d816281e9),
    ("CP#10", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x7a4738dfd4201050, 0x55353f9d816281e9),
    ("CP#11", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x8f0c1afebf172cf6, 0x167bd7c594ffc2cf),
    ("CP#12", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x7a4738dfd4201050, 0x55353f9d816281e9),
    ("CP#13", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x4cc3a32e117d66bc, 0x1cebbeaf47c0f100),
    ("CP#14", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x4cc3a32e117d66bc, 0x1cebbeaf47c0f100),
    ("CP#15", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x4cc3a32e117d66bc, 0x1cebbeaf47c0f100),
    ("CP#16", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x152f58a64f310ee6, 0xeb5fa713b81da7a5),
    ("CP#17", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x7a4738dfd4201050, 0x55353f9d816281e9),
    ("CP#18", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x8f0c1afebf172cf6, 0x167bd7c594ffc2cf),
    ("CP#19", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x152f58a64f310ee6, 0xeb5fa713b81da7a5),
    ("CP#20", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x8f0c1afebf172cf6, 0x167bd7c594ffc2cf),
    ("CP#21", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x8f0c1afebf172cf6, 0x167bd7c594ffc2cf),
    ("CP#22", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x152f58a64f310ee6, 0xeb5fa713b81da7a5),
    ("CP#23", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x7a4738dfd4201050, 0x55353f9d816281e9),
    ("CP#24", "block-independent", false, 0x4693614da50b15af, 0x28034f465da847e1, 0x4cc3a32e117d66bc, 0x1cebbeaf47c0f100),
    ("CONVTEX", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x87d07011816600da, 0x9777ea58ca0299d8),
    ("CONVTEX#0", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x8d98312cd0de1187, 0xb9489cd20e3f3746),
    ("CONVTEX#1", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x87d07011816600da, 0x9777ea58ca0299d8),
    ("CONVTEX#2", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x8d98312cd0de1187, 0xb9489cd20e3f3746),
    ("CONVTEX#3", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x87d07011816600da, 0x9777ea58ca0299d8),
    ("CONVTEX#4", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x87d07011816600da, 0x9777ea58ca0299d8),
    ("CONVTEX#5", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x87d07011816600da, 0x9777ea58ca0299d8),
    ("CONVTEX#6", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x87d07011816600da, 0x9777ea58ca0299d8),
    ("CONVTEX#7", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x87d07011816600da, 0x9777ea58ca0299d8),
    ("CONVTEX#8", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x8d98312cd0de1187, 0xb9489cd20e3f3746),
    ("CONVTEX#9", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x87d07011816600da, 0x9777ea58ca0299d8),
    ("CONVTEX#10", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x8d98312cd0de1187, 0xb9489cd20e3f3746),
    ("CONVTEX#11", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x87d07011816600da, 0x9777ea58ca0299d8),
    ("CONVTEX#12", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x87d07011816600da, 0x9777ea58ca0299d8),
    ("CONVTEX#13", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x87d07011816600da, 0x9777ea58ca0299d8),
    ("CONVTEX#14", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x8d98312cd0de1187, 0xb9489cd20e3f3746),
    ("CONVTEX#15", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x87d07011816600da, 0x9777ea58ca0299d8),
    ("CONVTEX#16", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x87d07011816600da, 0x9777ea58ca0299d8),
    ("CONVTEX#17", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x87d07011816600da, 0x9777ea58ca0299d8),
    ("CONVTEX#18", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x8d98312cd0de1187, 0xb9489cd20e3f3746),
    ("CONVTEX#19", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x8d98312cd0de1187, 0xb9489cd20e3f3746),
    ("CONVTEX#20", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x87d07011816600da, 0x9777ea58ca0299d8),
    ("CONVTEX#21", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x8d98312cd0de1187, 0xb9489cd20e3f3746),
    ("CONVTEX#22", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x87d07011816600da, 0x9777ea58ca0299d8),
    ("CONVTEX#23", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x87d07011816600da, 0x9777ea58ca0299d8),
    ("CONVTEX#24", "block-independent", false, 0x1b5ede8a28f93367, 0xd75f92f30eef7e79, 0x87d07011816600da, 0x9777ea58ca0299d8),
    ("MM", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0x72afac3afd1eb8b4, 0x50857f81271bdd6f),
    ("MM#0", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0xe6bdabdd61b5053b, 0x730d70c255ff70de),
    ("MM#1", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0x72afac3afd1eb8b4, 0x50857f81271bdd6f),
    ("MM#2", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0x13afd7fc46adc388, 0x10f0460c7f1af32c),
    ("MM#3", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0xe6bdabdd61b5053b, 0x730d70c255ff70de),
    ("MM#4", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0x13afd7fc46adc388, 0x10f0460c7f1af32c),
    ("MM#5", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0x13afd7fc46adc388, 0x10f0460c7f1af32c),
    ("MM#6", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0xe6bdabdd61b5053b, 0x730d70c255ff70de),
    ("MM#7", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0x72afac3afd1eb8b4, 0x50857f81271bdd6f),
    ("MM#8", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0x13afd7fc46adc388, 0x10f0460c7f1af32c),
    ("MM#9", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0xa13792a184add848, 0x7e6e75ceaf58f38c),
    ("MM#10", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0xe6bdabdd61b5053b, 0x730d70c255ff70de),
    ("MM#11", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0x13afd7fc46adc388, 0x10f0460c7f1af32c),
    ("MM#12", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0x13afd7fc46adc388, 0x10f0460c7f1af32c),
    ("MM#13", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0xe6bdabdd61b5053b, 0x730d70c255ff70de),
    ("MM#14", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0xe6bdabdd61b5053b, 0x730d70c255ff70de),
    ("MM#15", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0x13afd7fc46adc388, 0x10f0460c7f1af32c),
    ("MM#16", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0x13afd7fc46adc388, 0x10f0460c7f1af32c),
    ("MM#17", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0xa13792a184add848, 0x7e6e75ceaf58f38c),
    ("MM#18", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0x72afac3afd1eb8b4, 0x50857f81271bdd6f),
    ("MM#19", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0x13afd7fc46adc388, 0x10f0460c7f1af32c),
    ("MM#20", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0x72afac3afd1eb8b4, 0x50857f81271bdd6f),
    ("MM#21", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0x72afac3afd1eb8b4, 0x50857f81271bdd6f),
    ("MM#22", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0x13afd7fc46adc388, 0x10f0460c7f1af32c),
    ("MM#23", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0x72afac3afd1eb8b4, 0x50857f81271bdd6f),
    ("MM#24", "block-independent", false, 0x10b0b0bc2f7a4552, 0x7cc66668915bc008, 0xe6bdabdd61b5053b, 0x730d70c255ff70de),
    ("racy_missing_barrier", "block-independent", false, 0xf905b87458dc21ac, 0x7952918e6c603ffe, 0xcbf29ce484222325, 0x482ea031f99462ae),
    ("racy_same_word", "block-independent", false, 0x95243289f6cd1015, 0xe7c39cb499fd97d4, 0x1374e1c511cd89ec, 0xcb49533d774bcd63),
    ("racy_nonaffine", "block-independent", false, 0xfe923b7379b6d91c, 0x333f52b229ed1d67, 0x5ee700e828975dac, 0xdc4c44ce699ea437),
    ("racy_inter_block", "potentially-racy", false, 0x9d9699fa3d819e74, 0x0e4ced88812a8485, 0x958c292abc6099ec, 0xfaecba51f65a15a5),
];

/// One pinned `analyze` launch: workload, fingerprint of the refined
/// kernel's oracle report (`render()`), and the two `Headroom` vectors.
type AnalyzeRow = (&'static str, u64, &'static [usize], &'static [usize]);

/// The oracle and headroom replay behind `darsie-sim analyze`, computed
/// as the CLI does: the kernel refined for the launch's block depth, the
/// headroom measured against the refined plan's `skippable` set.
#[test]
fn analyze_replays_match_the_pinned_table() {
    let mut got = Vec::new();
    for w in catalog(Scale::Test) {
        let refined = simt_compiler::refine(&w.ck, w.launch.block.z.max(1));
        let plan = simt_compiler::LaunchPlan::new(&refined.ck, &w.launch);
        let skippable = Some(plan.skippable.as_slice());
        let (oracle, headroom) =
            oracle::check_with_headroom(&refined.ck, &w.launch, skippable, w.memory.clone());
        got.push((
            w.abbr.to_string(),
            fnv_str(&oracle.render()),
            headroom.dynamically_redundant,
            headroom.never_aligned,
        ));
    }

    let want: Vec<_> = ANALYZE_PINNED
        .iter()
        .map(|&(n, of, dr, na)| (n.to_string(), of, dr.to_vec(), na.to_vec()))
        .collect();
    if got != want {
        let mut table = String::new();
        for (n, of, dr, na) in &got {
            table.push_str(&format!("    (\"{n}\", {of:#018x}, &{dr:?}, &{na:?}),\n"));
        }
        let first = got.iter().zip(&want).position(|(g, w)| g != w);
        panic!(
            "analyze replay table moved (first differing row: {first:?}; {} rows vs {} \
             pinned). Actual table:\n{table}",
            got.len(),
            want.len()
        );
    }
}

/// Generated before the oracle, the headroom probe and the block certifier
/// shared one global shadow and one aligned-group recorder.
#[rustfmt::skip]
const ANALYZE_PINNED: &[AnalyzeRow] = &[
    ("BIN", 0x7c314c0eb6030628, &[], &[]),
    ("PT", 0x147167e89f060ff9, &[], &[]),
    ("FW", 0xf4f6210c26c5638a, &[], &[]),
    ("SR1", 0xc82f1202b4334660, &[], &[]),
    ("LIB", 0x90a5d2b14cf06f90, &[], &[]),
    ("IMNLM", 0x60a729821e6c2d9d, &[], &[]),
    ("BP", 0x236d118f1d883b96, &[], &[62, 63, 64, 65]),
    ("DCT8x8", 0xec7e215305d6703b, &[], &[]),
    ("FWS", 0xf0ce8ae9e7f66561, &[], &[]),
    ("HS", 0x53de9e4e7742d189, &[], &[]),
    ("CP", 0x28034f465da847e1, &[], &[]),
    ("CONVTEX", 0xd75f92f30eef7e79, &[], &[]),
    ("MM", 0x7cc66668915bc008, &[], &[]),
];

/// One pinned static-footprint row: name, family verdict, family
/// classification, `[global accesses, checked pairs, proved pairs,
/// unanalyzable]`, fingerprint of the whole family certificate, and
/// fingerprints of `perf::predict` and `perf::predict_envelope`.
type FootprintRow = (&'static str, &'static str, &'static str, [usize; 4], u64, u64, u64);

/// The family certificate and both memory-performance predictions, as
/// `darsie-sim certify --family` and `analyze` compute them. Catalog
/// workloads certify their declared family; each fixture certifies
/// `gridDim.x ∈ [1..5]` around its own block shape, so single-block
/// fixtures also meet peer blocks (witnesses, refutations, non-affine
/// and commutative pairs).
#[test]
fn footprint_analyses_match_the_pinned_table() {
    let cfg = GpuConfig::test_small();
    let mut inputs = Vec::new();
    for w in catalog(Scale::Test) {
        inputs.push((w.abbr.to_string(), w.ck, w.family, w.launch, w.memory));
    }
    let mut fx = fixtures::racy();
    fx.extend(fixtures::blocks());
    fx.extend([fixtures::grid_boundary_flip(), fixtures::nonaffine_addr()]);
    fx.extend([fixtures::conflict_stride(), fixtures::uncoalesced_stride()]);
    for f in fx {
        let family =
            LaunchFamily { grid_x: AxisRange::new(1, 5), ..LaunchFamily::point(&f.launch) };
        inputs.push((f.name.to_string(), f.ck, family, f.launch, f.memory));
    }
    let mut got = Vec::new();
    for (name, ck, family, launch, memory) in &inputs {
        let cert = family::certify_family(ck, family, launch, memory, &cfg)
            .expect("declared families are well formed");
        let predict = perf::predict(ck, launch);
        let ctx = GridCtx::generic(launch.block.z);
        let flow = Flow::solve(&ck.kernel, &ck.cfg, ctx, true, &Clamps::new());
        let envelope = perf::predict_envelope(&flow, launch);
        got.push((
            name.clone(),
            cert.verdict.label(),
            cert.classification.label(),
            [cert.global_accesses, cert.checked_pairs, cert.proved_pairs, cert.unanalyzable],
            fnv_str(&format!("{cert:?}")),
            fnv_str(&format!("{predict:?}")),
            fnv_str(&format!("{envelope:?}")),
        ));
    }

    let want: Vec<_> = FOOTPRINT_PINNED
        .iter()
        .map(|&(n, v, c, k, cf, pf, ef)| (n.to_string(), v, c, k, cf, pf, ef))
        .collect();
    if got != want {
        let mut table = String::new();
        for (n, v, c, k, cf, pf, ef) in &got {
            table.push_str(&format!(
                "    (\"{n}\", \"{v}\", \"{c}\", {k:?}, {cf:#018x}, {pf:#018x}, {ef:#018x}),\n"
            ));
        }
        let first = got.iter().zip(&want).position(|(g, w)| g != w);
        panic!(
            "footprint analysis table moved (first differing row: {first:?}; {} rows vs {} \
             pinned). Actual table:\n{table}",
            got.len(),
            want.len()
        );
    }
}

/// Generated before the four memory-access collectors and the two
/// inter-block pair walks became one footprint walk and one pair walk.
#[rustfmt::skip]
const FOOTPRINT_PINNED: &[FootprintRow] = &[
    ("BIN", "FamilyProved", "block-independent", [1, 1, 1, 0], 0x3b69c574c4b013fe, 0xcb33533024d5496e, 0xcb33533024d5496e),
    ("PT", "FamilyProved", "block-independent", [0, 0, 0, 0], 0x6c5cc9c25a1ad437, 0x7ee52ebefa3e1594, 0x7ee52ebefa3e1594),
    ("FW", "FamilyProved", "block-independent", [2, 2, 2, 0], 0x9386675c98928a83, 0x3fc44b0c9d8b56d6, 0x3fc44b0c9d8b56d6),
    ("SR1", "FamilyProved", "block-independent", [0, 0, 0, 0], 0x942387264722760d, 0x1a72e3ce1e6a68a7, 0x9913a14766ec018f),
    ("LIB", "FamilyProved", "block-independent", [0, 0, 0, 0], 0xbb7b388852ceea0c, 0x4e039b41466d68df, 0x4e039b41466d68df),
    ("IMNLM", "FamilyProved", "block-independent", [3, 3, 3, 0], 0xe0acf9a622467342, 0x5e521e4da778fae7, 0x5e521e4da778fae7),
    ("BP", "FamilyProved", "block-independent", [0, 0, 0, 0], 0xfab9be22f2edc6c2, 0x4935d1cbf63b79ba, 0x4935d1cbf63b79ba),
    ("DCT8x8", "FamilyProved", "block-independent", [4, 4, 4, 0], 0x1223162d980339ec, 0x366183a50228a5c2, 0x366183a50228a5c2),
    ("FWS", "FamilyProved", "block-independent", [4, 4, 4, 0], 0x531fb9ac8af6389a, 0xad8426ebcaa02e9d, 0xad8426ebcaa02e9d),
    ("HS", "FamilyProved", "block-independent", [7, 7, 7, 0], 0x18e9bf94f0ab60ea, 0xa76ba50c0001ecef, 0x26416611af6005ef),
    ("CP", "FamilyProved", "block-independent", [4, 4, 4, 0], 0x3d509bdacc8815b0, 0x41afb027caedeabd, 0x41afb027caedeabd),
    ("CONVTEX", "FamilyProved", "block-independent", [3, 3, 3, 0], 0xac1cc9a259c95ab6, 0x1c9d93465f7b30d4, 0x1c9d93465f7b30d4),
    ("MM", "FamilyProved", "block-independent", [3, 3, 3, 0], 0x68beb1cdbd4795d0, 0xf0ea3a74c7c2086d, 0xf0ea3a74c7c2086d),
    ("racy_missing_barrier", "PerLaunchOnly", "potentially-racy", [1, 1, 0, 0], 0xa70394bf633c6cdf, 0x7945e5915473b77f, 0x7945e5915473b77f),
    ("racy_same_word", "PerLaunchOnly", "potentially-racy", [1, 1, 0, 0], 0xf02f380a5c1896ba, 0xa9a0400dea0f65f3, 0xa9a0400dea0f65f3),
    ("racy_nonaffine", "PerLaunchOnly", "potentially-racy", [1, 1, 0, 0], 0x392f42f33026f52c, 0x32ad7cd1af3063c9, 0x32ad7cd1af3063c9),
    ("racy_inter_block", "PerLaunchOnly", "potentially-racy", [1, 1, 0, 0], 0x1d4f35b1b99af8d7, 0x3a4193eb375a85c1, 0x3a4193eb375a85c1),
    ("commutative_counter", "FamilyProved", "commutative-atomics-only", [1, 1, 1, 0], 0x3cb9207e4399d970, 0x04a7724c56cb09c5, 0x04a7724c56cb09c5),
    ("block_disjoint", "FamilyProved", "block-independent", [1, 1, 1, 0], 0xc39d744e6a9e2ba7, 0x64cb09119aa2b8b2, 0x64cb09119aa2b8b2),
    ("grid_boundary_flip", "PerLaunchOnly", "potentially-racy", [2, 3, 2, 0], 0x4b976ebb48944ed1, 0x7c5b26ce85ac8b35, 0x7c5b26ce85ac8b35),
    ("nonaffine_addr", "PerLaunchOnly", "potentially-racy", [1, 1, 0, 1], 0x73df282a3ac35639, 0x95ccd94aaef42745, 0x95ccd94aaef42745),
    ("conflict_stride", "PerLaunchOnly", "potentially-racy", [1, 1, 0, 0], 0xd4d3d6116a6aee44, 0x641d5daef57d67aa, 0x641d5daef57d67aa),
    ("uncoalesced_stride", "PerLaunchOnly", "potentially-racy", [1, 1, 0, 0], 0x61029593d272a4c5, 0x537d2aeccdff6071, 0x537d2aeccdff6071),
];
