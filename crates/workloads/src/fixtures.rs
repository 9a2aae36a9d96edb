//! Fixture kernels pinning the verifier's and analyzer's behavior:
//! deliberately racy kernels for the shared-memory race detector, memory
//! access patterns for the `P1xx` performance lints, and kernels whose
//! markings only the refinement passes can improve — each with a matching
//! negative control.
//!
//! These are *not* part of the paper's Table 1 catalog: each one models a
//! bug class (or an analysis win) the toolchain must pin down.
//!
//! | Fixture | Static verdict | Dynamic verdict |
//! |---|---|---|
//! | [`racy_missing_barrier`] | `V301` | `V303` |
//! | [`racy_same_word`] | `V301` | `V303` |
//! | [`racy_nonaffine`] | `V302` only | `V303` |
//! | [`clean_two_phase`] | clean | clean |
//!
//! | Fixture | Certifier verdict |
//! |---|---|
//! | [`racy_inter_block`] | potentially-racy: `V310` (witnessed), `V312` |
//! | [`commutative_counter`] | commutative-atomics-only, no `V310`/`V312` |
//! | [`block_disjoint`] | block-independent |
//! | [`grid_boundary_flip`] | family-proved for grids `[1..4]`, refuted at `[1..5]` |
//!
//! | Fixture | Expected lint |
//! |---|---|
//! | [`conflict_stride`] | `P101` (32-way bank conflict) |
//! | [`conflict_free`] | none |
//! | [`uncoalesced_stride`] | `P102` (32 lines where 1 suffices) |
//! | [`coalesced_stride`] | none |
//! | [`nonaffine_addr`] | `P103` (no static bound) |
//!
//! | Fixture | Baseline | Refined | Win |
//! |---|---|---|---|
//! | [`refine_entry_win`] | `V` | `CR`, promoted by (16,4) | skippable |
//! | [`refine_entry_negative`] | `V` | `V` (warpid guard) | none |
//! | [`refine_branch_win`] | `V` | `DR` on the `v == 42` edge | skippable |
//! | [`refine_affine_win`] | `CR` | `DR` (tid terms cancel) | skippable |
//! | [`refine_tidy_win`] | `V` | `CRxy`, promoted by (8,4) | skippable |
//! | [`divergent_update`] | `V` (a warp-dependent branch merges) | `V` | none |
//! | [`select_two_uniforms`] | `V` | `V` (two shared words, mixed) | none |
//!
//! | Fixture | Expected prover verdict |
//! |---|---|
//! | [`symex_forged_dr`] | `S401` (forged DR on a warpid value, replay-confirmed) |
//! | [`symex_lane_dr`] | clean (laneid chain; only the term domain proves it) |
//! | [`symex_opaque_escape`] | `S402` (forged DR on an atomic result: no proof, no witness) |
//! | [`symex_opaque_control`] | clean (same kernel, honest markings) |
//! | [`symex_forged_uniform_branch`] | `S403` (forged uniform class on a `tid.x` branch) |
//! | [`symex_uniform_branch`] | clean (genuinely uniform `ntid.x` branch) |
//! | [`symex_loop_reduction`] | proved (symbolic-trip reduction; needs loop summarization) |
//! | [`symex_warp_trip_control`] | `S402` (warp-dependent trip count taints the counter) |
//! | [`symex_uniform_base`] | proved (uniform-not-exact base pointer; needs the TB-uniform bit) |
//! | [`symex_divergent_write_control`] | `S402` (uniform value, divergent write: bit must not fire) |
//! | [`symex_forged_param`] | `S401` (forged DR on a parameter read at a warp-dependent address) |
//!
//! | Fixture | Expected trip counts | Expected lint |
//! |---|---|---|
//! | [`cost_straight_line`] | no loops | none |
//! | [`cost_const_loop`] | `[8, 8]` | none |
//! | [`cost_param_loop`] | `[6, 6]` (launch parameter 1) | none |
//! | [`cost_nested_loop`] | outer `[4, 4]`, inner `[2, 2]` | none |
//! | [`cost_geometric_loop`] | `[4, 4]` (doubling counter) | none |
//! | [`cost_reused_guard_loop`] | `[4, 4]` (guard predicate written twice) | none |
//! | [`cost_unbounded_control`] | unbounded (data-dependent bound) | `E201` |
//! | [`spin_wait`] | unbounded (block 0 spins on a global word) | `E201` |

use gpu_sim::GlobalMemory;
use simt_compiler::{compile, AbsClass, CompiledKernel};
use simt_isa::{
    AtomOp, CmpOp, Dim3, Guard, Instruction, KernelBuilder, LaunchConfig, Marking, MemSpace, Op,
    Operand, SpecialReg, Value,
};

/// One race-detector fixture: a compiled kernel with its launch and
/// initial memory, ready for `simt_verify::verify_full`.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// Stable fixture name (also the kernel name).
    pub name: &'static str,
    /// The compiled kernel.
    pub ck: CompiledKernel,
    /// The launch; parameter 0 is the output buffer.
    pub launch: LaunchConfig,
    /// Memory holding the output buffer.
    pub memory: GlobalMemory,
}

const THREADS: u32 = 64;

fn finish_sized(name: &'static str, b: KernelBuilder, block: Dim3, out_bytes: u64) -> Fixture {
    let ck = compile(b.finish());
    let mut memory = GlobalMemory::new();
    let out = memory.alloc(out_bytes);
    let launch = LaunchConfig::new(1u32, block).with_params(vec![Value(out as u32)]);
    Fixture { name, ck, launch, memory }
}

fn finish(name: &'static str, b: KernelBuilder) -> Fixture {
    finish_sized(name, b, Dim3::one_d(THREADS), u64::from(THREADS) * 4)
}

/// Stores the result of loading shared word 0 out to global memory;
/// keeps every fixture's loaded value live.
fn writeback(b: &mut KernelBuilder, value: simt_isa::Reg) {
    let t = b.special(SpecialReg::TidX);
    let out = b.param(0);
    let off = b.shl_imm(t, 2);
    let addr = b.iadd(out, off);
    b.store(MemSpace::Global, addr, value, 0);
}

/// Classic missing `__syncthreads()`: thread `t` writes shared word `t`,
/// then every thread reads word 0 with no barrier in between. Thread 0's
/// write races every other thread's read.
#[must_use]
pub fn racy_missing_barrier() -> Fixture {
    let mut b = KernelBuilder::new("racy_missing_barrier");
    let t = b.special(SpecialReg::TidX);
    let smem = b.alloc_shared(THREADS * 4);
    let off = b.shl_imm(t, 2);
    let waddr = b.iadd(off, smem);
    b.store(MemSpace::Shared, waddr, t, 0);
    let v = b.load(MemSpace::Shared, smem, 0);
    writeback(&mut b, v);
    finish("racy_missing_barrier", b)
}

/// Unsynchronized reduction bug: every thread stores its tid to shared
/// word 0 in the same epoch — a write/write race whose surviving value is
/// interleaving-dependent.
#[must_use]
pub fn racy_same_word() -> Fixture {
    let mut b = KernelBuilder::new("racy_same_word");
    let t = b.special(SpecialReg::TidX);
    let smem = b.alloc_shared(16);
    b.store(MemSpace::Shared, smem, t, 0);
    b.barrier();
    let v = b.load(MemSpace::Shared, smem, 0);
    writeback(&mut b, v);
    finish("racy_same_word", b)
}

/// Racy histogram with a non-affine bucket index: the address `tid.x & 1`
/// defeats the static affine classifier (a `V302` escalation, not a
/// proof), while the dynamic sanitizer pinpoints the collision between
/// threads that share a bucket.
#[must_use]
pub fn racy_nonaffine() -> Fixture {
    let mut b = KernelBuilder::new("racy_nonaffine");
    let t = b.special(SpecialReg::TidX);
    let smem = b.alloc_shared(16);
    let bucket = b.and(t, 1u32);
    let off = b.shl_imm(bucket, 2);
    let waddr = b.iadd(off, smem);
    b.store(MemSpace::Shared, waddr, t, 0);
    b.barrier();
    let v = b.load(MemSpace::Shared, smem, 0);
    writeback(&mut b, v);
    finish("racy_nonaffine", b)
}

/// Correct two-phase exchange (the control): thread `t` writes word `t`,
/// a barrier closes the epoch, then thread `t` reads the mirrored word
/// `63-t`. Both detectors must stay silent.
#[must_use]
pub fn clean_two_phase() -> Fixture {
    let mut b = KernelBuilder::new("clean_two_phase");
    let t = b.special(SpecialReg::TidX);
    let smem = b.alloc_shared(THREADS * 4);
    let off = b.shl_imm(t, 2);
    let waddr = b.iadd(off, smem);
    b.store(MemSpace::Shared, waddr, t, 0);
    b.barrier();
    let mirror = b.isub(4 * (THREADS - 1), off);
    let raddr = b.iadd(mirror, smem);
    let v = b.load(MemSpace::Shared, raddr, 0);
    writeback(&mut b, v);
    finish("clean_two_phase", b)
}

/// The three racy fixtures, in documentation order.
#[must_use]
pub fn racy() -> Vec<Fixture> {
    vec![racy_missing_barrier(), racy_same_word(), racy_nonaffine()]
}

/// Like [`finish`] but launching `grid_x` thread blocks: the fixtures for
/// the inter-thread-block independence certifier need block replay order
/// to be observable (or provably not).
fn finish_grid(name: &'static str, b: KernelBuilder, grid_x: u32, out_bytes: u64) -> Fixture {
    let ck = compile(b.finish());
    let mut memory = GlobalMemory::new();
    let out = memory.alloc(out_bytes);
    let launch =
        LaunchConfig::new(grid_x, Dim3::one_d(THREADS)).with_params(vec![Value(out as u32)]);
    Fixture { name, ck, launch, memory }
}

/// Deliberate inter-block write/write race: every block stores its
/// `ctaid.x` to `out[tid.x]` — the address has no block term, so all four
/// blocks write the same 64 words and the surviving values are whichever
/// block replayed last. The certifier must prove it (`V310`, with a
/// concrete block-pair witness) and the dynamic sanitizer must observe it
/// (`V312`).
#[must_use]
pub fn racy_inter_block() -> Fixture {
    let mut b = KernelBuilder::new("racy_inter_block");
    let t = b.special(SpecialReg::TidX);
    let c = b.special(SpecialReg::CtaidX);
    let out = b.param(0);
    let off = b.shl_imm(t, 2);
    let addr = b.iadd(out, off);
    b.store(MemSpace::Global, addr, c, 0);
    finish_grid("racy_inter_block", b, 4, u64::from(THREADS) * 4)
}

/// Inter-block histogram on one counter: every thread of every block
/// `atom.add`s into `out[0]`. The final memory value is block-order
/// independent, so the certifier classifies the launch
/// `commutative-atomics-only` — collisions exist but no `V310`/`V312`
/// may fire.
#[must_use]
pub fn commutative_counter() -> Fixture {
    let mut b = KernelBuilder::new("commutative_counter");
    let t = b.special(SpecialReg::TidX);
    let out = b.param(0);
    b.atom(AtomOp::Add, out, t);
    finish_grid("commutative_counter", b, 4, 16)
}

/// The certifier control: block footprints are separated by a
/// `ctaid.x * blockDim` stride, so `out[ctaid.x*64 + tid.x]` is
/// inter-block disjoint and the launch certifies `block-independent`.
#[must_use]
pub fn block_disjoint() -> Fixture {
    let mut b = KernelBuilder::new("block_disjoint");
    let t = b.special(SpecialReg::TidX);
    let c = b.special(SpecialReg::CtaidX);
    let out = b.param(0);
    let lin = b.imad(c, THREADS, t);
    let off = b.shl_imm(lin, 2);
    let addr = b.iadd(out, off);
    b.store(MemSpace::Global, addr, t, 0);
    finish_grid("block_disjoint", b, 4, u64::from(THREADS) * 4 * 4)
}

/// How many blocks one panel of [`grid_boundary_flip`] spans: the grid
/// size at which its inter-block disjointness flips.
pub const BOUNDARY_PANEL_BLOCKS: u32 = 4;

/// The launch-family boundary fixture: every block writes two panels,
/// `out[ctaid.x*64 + tid.x]` and the same pattern shifted up by
/// `BOUNDARY_PANEL_BLOCKS` block-rows. Any grid of at most
/// `BOUNDARY_PANEL_BLOCKS` blocks keeps the panels disjoint (the family
/// `gridDim.x in [1..4]` is provable as a whole), but one block more
/// wraps the low panel's last row onto the high panel's first row — the
/// family `[1..5]` is refuted with a concrete witness launch. The native
/// launch sits at the last safe grid.
#[must_use]
pub fn grid_boundary_flip() -> Fixture {
    let mut b = KernelBuilder::new("grid_boundary_flip");
    let t = b.special(SpecialReg::TidX);
    let c = b.special(SpecialReg::CtaidX);
    let out = b.param(0);
    let lin = b.imad(c, THREADS, t);
    let off = b.shl_imm(lin, 2);
    let lo = b.iadd(out, off);
    b.store(MemSpace::Global, lo, t, 0);
    let hi = b.iadd(lo, BOUNDARY_PANEL_BLOCKS * THREADS * 4);
    b.store(MemSpace::Global, hi, c, 0);
    finish_grid(
        "grid_boundary_flip",
        b,
        BOUNDARY_PANEL_BLOCKS,
        u64::from((2 * BOUNDARY_PANEL_BLOCKS + 2) * THREADS) * 4,
    )
}

/// The inter-block certifier fixtures, in documentation order.
#[must_use]
pub fn blocks() -> Vec<Fixture> {
    vec![racy_inter_block(), commutative_counter(), block_disjoint()]
}

/// Worst-case shared-memory banking: stride-128 addresses put every lane
/// of a warp in bank 0, serializing each access over 32 bank passes
/// (`P101` on both the store and the read-back load).
#[must_use]
pub fn conflict_stride() -> Fixture {
    let mut b = KernelBuilder::new("conflict_stride");
    let t = b.special(SpecialReg::TidX);
    let smem = b.alloc_shared(THREADS * 128);
    let off = b.shl_imm(t, 7);
    let addr = b.iadd(off, smem);
    b.store(MemSpace::Shared, addr, t, 0);
    b.barrier();
    let v = b.load(MemSpace::Shared, addr, 0);
    writeback(&mut b, v);
    finish("conflict_stride", b)
}

/// The banking control: stride-4 addresses hit 32 distinct banks, so both
/// shared accesses complete in one pass and `P101` stays silent.
#[must_use]
pub fn conflict_free() -> Fixture {
    let mut b = KernelBuilder::new("conflict_free");
    let t = b.special(SpecialReg::TidX);
    let smem = b.alloc_shared(THREADS * 4);
    let off = b.shl_imm(t, 2);
    let addr = b.iadd(off, smem);
    b.store(MemSpace::Shared, addr, t, 0);
    b.barrier();
    let v = b.load(MemSpace::Shared, addr, 0);
    writeback(&mut b, v);
    finish("conflict_free", b)
}

/// Worst-case global coalescing: a stride-128 store touches one 128-byte
/// line per lane — 32 transactions where a coalesced access of the same
/// width needs one (`P102`).
#[must_use]
pub fn uncoalesced_stride() -> Fixture {
    let mut b = KernelBuilder::new("uncoalesced_stride");
    let t = b.special(SpecialReg::TidX);
    let out = b.param(0);
    let off = b.shl_imm(t, 7);
    let addr = b.iadd(out, off);
    b.store(MemSpace::Global, addr, t, 0);
    finish_sized("uncoalesced_stride", b, Dim3::one_d(THREADS), u64::from(THREADS) * 128)
}

/// The coalescing control: a stride-4 store covers each warp's 128 bytes
/// with at most two lines (one when aligned), matching the ideal, so
/// `P102` stays silent.
#[must_use]
pub fn coalesced_stride() -> Fixture {
    let mut b = KernelBuilder::new("coalesced_stride");
    let t = b.special(SpecialReg::TidX);
    let out = b.param(0);
    let off = b.shl_imm(t, 2);
    let addr = b.iadd(out, off);
    b.store(MemSpace::Global, addr, t, 0);
    finish("coalesced_stride", b)
}

/// A global store whose address flows through `tid.x & 1`: not
/// thread-affine, so the predictor must report `P103` (no static bound)
/// instead of guessing.
#[must_use]
pub fn nonaffine_addr() -> Fixture {
    let mut b = KernelBuilder::new("nonaffine_addr");
    let t = b.special(SpecialReg::TidX);
    let out = b.param(0);
    let bucket = b.and(t, 1u32);
    let off = b.shl_imm(bucket, 2);
    let addr = b.iadd(out, off);
    b.store(MemSpace::Global, addr, t, 0);
    finish("nonaffine_addr", b)
}

/// The memory-performance fixtures, in documentation order.
#[must_use]
pub fn perf() -> Vec<Fixture> {
    vec![
        conflict_stride(),
        conflict_free(),
        uncoalesced_stride(),
        coalesced_stride(),
        nonaffine_addr(),
    ]
}

/// Stores `value` to `out[tid.y * block.x + tid.x]` for a 2D block of
/// width `bx`.
fn writeback_2d(b: &mut KernelBuilder, value: simt_isa::Reg, bx: u32) {
    let tx = b.special(SpecialReg::TidX);
    let ty = b.special(SpecialReg::TidY);
    let out = b.param(0);
    let lin = b.imad(ty, bx, tx);
    let off = b.shl_imm(lin, 2);
    let addr = b.iadd(out, off);
    b.store(MemSpace::Global, addr, value, 0);
}

/// Entry-uniform win: a conditional `mov` into a never-otherwise-written
/// register reads the register-file's zero-initialized old value. The
/// baseline calls that old value Vector; the refined analysis proves the
/// result conditionally redundant, and the promoting `(16,4)` block makes
/// it skippable.
#[must_use]
pub fn refine_entry_win() -> Fixture {
    let mut b = KernelBuilder::new("refine_entry_win");
    let t = b.special(SpecialReg::TidX);
    let p = b.setp(CmpOp::Lt, t, 8u32);
    let dst = b.alloc();
    b.emit(
        Instruction::new(Op::Mov, Some(dst), None, vec![Operand::Imm(7)])
            .with_guard(Guard::if_true(p)),
    );
    let y = b.iadd(dst, 5u32);
    writeback_2d(&mut b, y, 16);
    finish_sized("refine_entry_win", b, Dim3::two_d(16, 4), u64::from(THREADS) * 4)
}

/// Entry-uniform negative control: the same guarded `mov`, but the guard
/// compares `warpid`, which differs across warps — refinement must keep
/// the result Vector.
#[must_use]
pub fn refine_entry_negative() -> Fixture {
    let mut b = KernelBuilder::new("refine_entry_negative");
    let w = b.special(SpecialReg::WarpId);
    let p = b.setp(CmpOp::Lt, w, 1u32);
    let dst = b.alloc();
    b.emit(
        Instruction::new(Op::Mov, Some(dst), None, vec![Operand::Imm(7)])
            .with_guard(Guard::if_true(p)),
    );
    let y = b.iadd(dst, 5u32);
    writeback(&mut b, y);
    finish("refine_entry_negative", b)
}

/// Branch-edge win: `v` is genuinely Vector (a loaded value plus
/// `warpid`), but on the taken edge of `if (v == 42)` it is pinned to the
/// uniform constant, so the body's `v + 1` becomes definitely redundant.
/// The input buffer holds `42 - warpid(t)` so every lane takes the branch.
#[must_use]
pub fn refine_branch_win() -> Fixture {
    let mut b = KernelBuilder::new("refine_branch_win");
    let t = b.special(SpecialReg::TidX);
    let off = b.shl_imm(t, 2);
    let inp = b.param(1);
    let a = b.iadd(inp, off);
    let vl = b.load(MemSpace::Global, a, 0);
    let w = b.special(SpecialReg::WarpId);
    let v = b.iadd(vl, w);
    let p = b.setp(CmpOp::Eq, v, 42u32);
    let y = b.alloc();
    b.mov_to(y, 0u32);
    b.if_then(Guard::if_true(p), |b| {
        b.iadd_to(y, v, 1u32);
    });
    writeback(&mut b, y);
    let mut fx = finish("refine_branch_win", b);
    let inp_buf = fx.memory.alloc(u64::from(THREADS) * 4);
    let values: Vec<u32> = (0..THREADS).map(|t| 42 - t / 32).collect();
    fx.memory.write_slice_u32(inp_buf, &values);
    fx.launch.params.push(Value(inp_buf as u32));
    fx
}

/// Affine-closure win: `(t + 7) - t` is conditionally redundant under the
/// pointwise lattice, but closing over the tid coefficients cancels the
/// thread term and proves it definitely redundant — skippable even under
/// this non-promoting 1D launch.
#[must_use]
pub fn refine_affine_win() -> Fixture {
    let mut b = KernelBuilder::new("refine_affine_win");
    let t = b.special(SpecialReg::TidX);
    let u = b.iadd(t, 7u32);
    let y = b.isub(u, t);
    writeback(&mut b, y);
    finish("refine_affine_win", b)
}

/// tid.y-dimension win: `tid.y * 8 + tid.x` is Vector to the baseline
/// (which tracks only tid.x), conditionally redundant in both dimensions
/// after refinement, and the `(8,4)` block promotes it to skippable.
#[must_use]
pub fn refine_tidy_win() -> Fixture {
    let mut b = KernelBuilder::new("refine_tidy_win");
    let tx = b.special(SpecialReg::TidX);
    let ty = b.special(SpecialReg::TidY);
    let lin = b.imad(ty, 8u32, tx);
    let off = b.shl_imm(lin, 2);
    let out = b.param(0);
    let addr = b.iadd(out, off);
    b.store(MemSpace::Global, addr, lin, 0);
    finish_sized("refine_tidy_win", b, Dim3::two_d(8, 4), 32 * 4)
}

/// A uniform register updated under a warp-dependent branch and read
/// after the join: warp 0 adds 1 to 5, the other warps keep 5, so the
/// read differs across warps although every write was uniform. The
/// marking pass owes the read a vector class, before and after
/// refinement (found by the random-program properties).
#[must_use]
pub fn divergent_update() -> Fixture {
    let mut b = KernelBuilder::new("divergent_update");
    let w = b.special(SpecialReg::WarpId);
    let r = b.mov(5u32);
    let p = b.setp(CmpOp::Eq, w, 0u32);
    b.if_then(Guard::if_true(p), |b| b.iadd_to(r, r, 1u32));
    let y = b.iadd(r, 3u32);
    writeback(&mut b, y);
    finish("divergent_update", b)
}

/// A warp-dependent select between two parameter words (7 and 9). Each
/// arm is one shared word, and both have the same abstract value, but
/// warp 0 picks one and the other warps the other: refinement owes the
/// select no upgrade (found by the random-program properties).
#[must_use]
pub fn select_two_uniforms() -> Fixture {
    let mut b = KernelBuilder::new("select_two_uniforms");
    let w = b.special(SpecialReg::WarpId);
    let (x, y) = (b.param(1), b.param(2));
    let p = b.setp(CmpOp::Eq, w, 0u32);
    let v = b.sel(p, x, y);
    writeback(&mut b, v);
    let mut fx = finish("select_two_uniforms", b);
    fx.launch.params.extend([Value(7), Value(9)]);
    fx
}

/// The refinement fixtures, in documentation order.
#[must_use]
pub fn refinement() -> Vec<Fixture> {
    vec![
        refine_entry_win(),
        refine_entry_negative(),
        refine_branch_win(),
        refine_affine_win(),
        refine_tidy_win(),
    ]
}

/// First instruction matching `pred` — for tampering one site of a
/// compiled fixture.
fn pc_of(ck: &CompiledKernel, pred: impl Fn(&Instruction) -> bool) -> usize {
    ck.kernel.instrs.iter().position(pred).expect("fixture pattern present")
}

/// Forged DR marking the translation validator must *disprove*:
/// `warpid + 5` genuinely differs between warps, so hand-upgrading its
/// marking to `Redundant` is unsound for every launch with two warps.
/// The prover owes an `S401` whose counterexample the functional
/// executor confirms.
#[must_use]
pub fn symex_forged_dr() -> Fixture {
    let mut b = KernelBuilder::new("symex_forged_dr");
    let w = b.special(SpecialReg::WarpId);
    let y = b.iadd(w, 5u32);
    writeback(&mut b, y);
    let mut fx = finish("symex_forged_dr", b);
    let pc = pc_of(&fx.ck, |i| i.op == Op::IAdd && i.srcs.get(1) == Some(&Operand::Imm(5)));
    fx.ck.markings[pc] = Marking::Redundant;
    fx
}

/// The `S401` negative control, and the case where *only* the term
/// domain can prove: `laneid * 2 + 5` is definitely redundant (the lane
/// pattern repeats in every warp) but is not TB-uniform, so the affine
/// fallback cannot discharge it — the deps ⊆ {laneid} rule must.
#[must_use]
pub fn symex_lane_dr() -> Fixture {
    let mut b = KernelBuilder::new("symex_lane_dr");
    let l = b.special(SpecialReg::LaneId);
    let d = b.shl_imm(l, 1);
    let y = b.iadd(d, 5u32);
    writeback(&mut b, y);
    finish("symex_lane_dr", b)
}

/// Forged DR on a value the term domain cannot see through: an atomic
/// result is interleaving-dependent, so no proof exists — but neither
/// does a concrete counterexample (the symbolic value never evaluates).
/// The honest verdict is the conservative `S402`.
#[must_use]
pub fn symex_opaque_escape() -> Fixture {
    let mut fx = symex_opaque_control();
    let pc = pc_of(&fx.ck, |i| i.op == Op::IAdd && i.srcs.get(1) == Some(&Operand::Imm(0)));
    fx.ck.kernel.name = "symex_opaque_escape".into();
    fx.ck.markings[pc] = Marking::Redundant;
    Fixture { name: "symex_opaque_escape", ..fx }
}

/// The `S402` negative control: the same atomic-result kernel with its
/// honest `Vector` markings proves clean (the escape is never claimed
/// redundant, so nothing is owed a proof).
#[must_use]
pub fn symex_opaque_control() -> Fixture {
    let mut b = KernelBuilder::new("symex_opaque_control");
    let out = b.param(0);
    let h = b.atom(AtomOp::Add, out, 1u32);
    let y = b.iadd(h, 0u32);
    writeback(&mut b, y);
    finish("symex_opaque_control", b)
}

/// Forged branch-sync claim: the branch predicate `tid.x < 8` diverges
/// inside every warp wider than 8 lanes, so hand-upgrading the branch's
/// class to uniform-redundant (the condition under which DARSIE skips
/// re-fetching both paths) breaks the single-control-flow-history
/// requirement. The prover owes an `S403` with concrete divergent
/// threads.
#[must_use]
pub fn symex_forged_uniform_branch() -> Fixture {
    let mut b = KernelBuilder::new("symex_forged_uniform_branch");
    let t = b.special(SpecialReg::TidX);
    let p = b.setp(CmpOp::Lt, t, 8u32);
    let y = b.alloc();
    b.mov_to(y, 0u32);
    b.if_then(Guard::if_true(p), |b| {
        b.iadd_to(y, y, 1u32);
    });
    writeback(&mut b, y);
    let mut fx = finish("symex_forged_uniform_branch", b);
    let pc = pc_of(&fx.ck, |i| matches!(i.op, Op::Bra { .. }) && i.guard.is_some());
    fx.ck.classes[pc] = AbsClass::UNIFORM;
    fx
}

/// The `S403` negative control: the same shape branching on `ntid.x`,
/// which every thread of every launch agrees on; the analysis itself
/// classes the branch uniform and the prover must concur.
#[must_use]
pub fn symex_uniform_branch() -> Fixture {
    let mut b = KernelBuilder::new("symex_uniform_branch");
    let n = b.special(SpecialReg::NtidX);
    let p = b.setp(CmpOp::Lt, n, 100u32);
    let y = b.alloc();
    b.mov_to(y, 0u32);
    b.if_then(Guard::if_true(p), |b| {
        b.iadd_to(y, y, 1u32);
    });
    writeback(&mut b, y);
    finish("symex_uniform_branch", b)
}

/// A reduction loop whose trip count is a launch parameter: every
/// thread walks the same array prefix and accumulates the same partial
/// sums, so the (forged) DR on the accumulator is *true* — but bounded
/// unrolling can never retire a symbolic trip count. Loop summarization
/// must close the body's dependency sets (all empty: the data comes
/// through a TB-uniform address) and prove the claim outright.
#[must_use]
pub fn symex_loop_reduction() -> Fixture {
    let mut b = KernelBuilder::new("symex_loop_reduction");
    let base = b.param(0);
    let n = b.param(1);
    let acc = b.alloc();
    b.mov_to(acc, 0u32);
    let i = b.alloc();
    b.mov_to(i, 0u32);
    b.do_while(|b| {
        let off = b.shl_imm(i, 2);
        let addr = b.iadd(base, off);
        let v = b.load(MemSpace::Global, addr, 0);
        b.iadd_to(acc, acc, v);
        b.iadd_to(i, i, 1u32);
        let p = b.setp(CmpOp::Lt, i, n);
        Guard::if_true(p)
    });
    writeback(&mut b, acc);
    let mut fx = finish("symex_loop_reduction", b);
    let pc = pc_of(&fx.ck, |ins| ins.op == Op::IAdd && ins.dst == Some(acc));
    fx.ck.markings[pc] = Marking::Redundant;
    fx
}

/// The summarization negative control: the same loop shape but with a
/// *warp-dependent* trip count (`while (i < warpid)`). Summarization
/// still covers it — the run completes — but the trip-condition taint
/// (`warpid`) flows into every in-loop visit, so the forged DR on the
/// counter must stay an honest `S402`: the first-iteration terms are
/// constants, so no concrete witness exists either.
#[must_use]
pub fn symex_warp_trip_control() -> Fixture {
    let mut b = KernelBuilder::new("symex_warp_trip_control");
    let w = b.special(SpecialReg::WarpId);
    let i = b.alloc();
    b.mov_to(i, 0u32);
    b.do_while(|b| {
        b.iadd_to(i, i, 1u32);
        let p = b.setp(CmpOp::Lt, i, w);
        Guard::if_true(p)
    });
    writeback(&mut b, i);
    let mut fx = finish("symex_warp_trip_control", b);
    let pc = pc_of(&fx.ck, |ins| ins.op == Op::IAdd && ins.dst == Some(i));
    fx.ck.markings[pc] = Marking::Redundant;
    fx
}

/// A TB-uniform-but-not-exact value the affine fallback must now prove
/// via the uniformity bit: a thread-partial guarded `exit` aborts the
/// symbolic engine (the term domain has no mask concept), and the value
/// — loaded through a base pointer that is uniform without being any
/// one known constant — has no exact interval. The divergence-aware
/// domain carries the TB-uniform bit through the parameter load and the
/// dependent global load, discharging the (true) DR claim.
#[must_use]
pub fn symex_uniform_base() -> Fixture {
    let mut b = KernelBuilder::new("symex_uniform_base");
    let t = b.special(SpecialReg::TidX);
    let p = b.setp(CmpOp::Gt, t, 4096u32);
    b.emit(Instruction::new(Op::Exit, None, None, vec![]).with_guard(Guard::if_true(p)));
    let base = b.param(0);
    let v = b.load(MemSpace::Global, base, 0);
    writeback(&mut b, v);
    let mut fx = finish("symex_uniform_base", b);
    let pc = pc_of(&fx.ck, |ins| ins.op == Op::Ld(MemSpace::Global) && ins.dst == Some(v));
    fx.ck.markings[pc] = Marking::Redundant;
    fx
}

/// The uniformity-bit negative control: a TB-uniform value written only
/// on a thread-divergent path, then *read after the join*, where every
/// thread holds a path-dependent mix. The divergent-region write must
/// clear the TB-uniform bit (else the affine domain would falsely prove
/// the forged DR), the term domain sees the `tid.x` dependence, and the
/// concrete witness values coincide (the unset parameter reads as zero
/// on both sides) — so the honest verdict is `S402`, never a proof.
#[must_use]
pub fn symex_divergent_write_control() -> Fixture {
    let mut b = KernelBuilder::new("symex_divergent_write_control");
    let t = b.special(SpecialReg::TidX);
    let p = b.setp(CmpOp::Lt, t, 16u32);
    let secret = b.param(1);
    let v = b.alloc();
    b.mov_to(v, 0u32);
    b.if_then(Guard::if_true(p), |b| {
        b.mov_to(v, secret);
    });
    let y = b.iadd(v, 0u32);
    writeback(&mut b, y);
    let mut fx = finish("symex_divergent_write_control", b);
    let pc = pc_of(&fx.ck, |ins| ins.op == Op::IAdd && ins.dst == Some(y));
    fx.ck.markings[pc] = Marking::Redundant;
    fx
}

/// Forged DR on a parameter word read at a warp-dependent address:
/// `param[warpid] + 5` reads the output pointer in warp 0 and the second
/// parameter (7) in warp 1, so the values differ across warps although
/// parameter space is read-only. The load's value is only as uniform as
/// its address; the prover owes an `S401` the functional executor
/// confirms.
#[must_use]
pub fn symex_forged_param() -> Fixture {
    let mut b = KernelBuilder::new("symex_forged_param");
    let w = b.special(SpecialReg::WarpId);
    let off = b.shl_imm(w, 2);
    let v = b.load(MemSpace::Param, off, 0);
    let y = b.iadd(v, 5u32);
    writeback(&mut b, y);
    let mut fx = finish("symex_forged_param", b);
    fx.launch.params.push(Value(7));
    let pc = pc_of(&fx.ck, |i| i.op == Op::IAdd && i.srcs.get(1) == Some(&Operand::Imm(5)));
    fx.ck.markings[pc] = Marking::Redundant;
    fx
}

/// Forged CR on a `tid.z` value: `tid.z + 5` holds the same value in
/// every warp of a 2D block, so only a 3D block refutes the marking. In
/// block (16,2,2), which passes the x-promotion check, warp 1 is the
/// `z = 1` plane; the prover owes an `S401` the functional executor
/// confirms.
#[must_use]
pub fn symex_forged_tid_z() -> Fixture {
    let mut b = KernelBuilder::new("symex_forged_tid_z");
    let z = b.special(SpecialReg::TidZ);
    let y = b.iadd(z, 5u32);
    writeback(&mut b, y);
    let mut fx = finish("symex_forged_tid_z", b);
    let pc = pc_of(&fx.ck, |i| i.op == Op::IAdd && i.srcs.get(1) == Some(&Operand::Imm(5)));
    fx.ck.markings[pc] = Marking::ConditionallyRedundant;
    fx
}

/// Straight-line estimator fixture: no loops, so every block is visited
/// exactly once and the cycle bracket is a tight envelope around pure
/// issue cost. The baseline for hand-checking the cost model.
#[must_use]
pub fn cost_straight_line() -> Fixture {
    let mut b = KernelBuilder::new("cost_straight_line");
    let t = b.special(SpecialReg::TidX);
    let a = b.iadd(t, 3u32);
    let c = b.shl_imm(a, 1);
    let y = b.isub(c, t);
    writeback(&mut b, y);
    finish("cost_straight_line", b)
}

/// Constant-trip loop: the do-while body increments `i` from 0 and
/// continues while `i < 8`, so the affine solver must pin exactly
/// `[8, 8]` body visits.
#[must_use]
pub fn cost_const_loop() -> Fixture {
    let mut b = KernelBuilder::new("cost_const_loop");
    let acc = b.alloc();
    b.mov_to(acc, 0u32);
    let i = b.alloc();
    b.mov_to(i, 0u32);
    b.do_while(|b| {
        b.iadd_to(acc, acc, 3u32);
        b.iadd_to(i, i, 1u32);
        let p = b.setp(CmpOp::Lt, i, 8u32);
        Guard::if_true(p)
    });
    writeback(&mut b, acc);
    finish("cost_const_loop", b)
}

/// Launch-parameter trip count: the loop bound is parameter 1, resolved
/// at launch time to 6, so the solver must pin `[6, 6]` — a bound that
/// exists only per-launch, never per-kernel.
#[must_use]
pub fn cost_param_loop() -> Fixture {
    let mut b = KernelBuilder::new("cost_param_loop");
    let n = b.param(1);
    let acc = b.alloc();
    b.mov_to(acc, 0u32);
    let i = b.alloc();
    b.mov_to(i, 0u32);
    b.do_while(|b| {
        b.iadd_to(acc, acc, 5u32);
        b.iadd_to(i, i, 1u32);
        let p = b.setp(CmpOp::Lt, i, n);
        Guard::if_true(p)
    });
    writeback(&mut b, acc);
    let mut fx = finish("cost_param_loop", b);
    fx.launch.params.push(Value(6));
    fx
}

/// Nested loops: outer `[4, 4]`, inner `[2, 2]`, so the inner body's
/// visit count is the product 8. The inner counter is re-zeroed inside
/// the outer body — the induction recognizer must not confuse the reset
/// with the step.
#[must_use]
pub fn cost_nested_loop() -> Fixture {
    let mut b = KernelBuilder::new("cost_nested_loop");
    let acc = b.alloc();
    b.mov_to(acc, 0u32);
    let i = b.alloc();
    b.mov_to(i, 0u32);
    let j = b.alloc();
    b.do_while(|b| {
        b.mov_to(j, 0u32);
        b.do_while(|b| {
            b.iadd_to(acc, acc, 1u32);
            b.iadd_to(j, j, 1u32);
            let p = b.setp(CmpOp::Lt, j, 2u32);
            Guard::if_true(p)
        });
        b.iadd_to(i, i, 1u32);
        let p = b.setp(CmpOp::Lt, i, 4u32);
        Guard::if_true(p)
    });
    writeback(&mut b, acc);
    finish("cost_nested_loop", b)
}

/// Geometric induction: the counter starts at 1 and doubles each
/// iteration (`i += i`), continuing while `i < 16` — the FW butterfly
/// shape. An affine-only solver calls this unbounded; the geometric
/// recognizer must pin `[4, 4]`.
#[must_use]
pub fn cost_geometric_loop() -> Fixture {
    let mut b = KernelBuilder::new("cost_geometric_loop");
    let acc = b.alloc();
    b.mov_to(acc, 0u32);
    let i = b.alloc();
    b.mov_to(i, 1u32);
    b.do_while(|b| {
        b.iadd_to(acc, acc, i);
        b.iadd_to(i, i, i);
        let p = b.setp(CmpOp::Lt, i, 16u32);
        Guard::if_true(p)
    });
    writeback(&mut b, acc);
    finish("cost_geometric_loop", b)
}

/// Constant-trip loop whose continue predicate is also written earlier
/// in the body, by a `setp` feeding a `sel`: only the definition that
/// reaches the back edge decides the trip count, `[4, 4]` (found by the
/// random-program properties).
#[must_use]
pub fn cost_reused_guard_loop() -> Fixture {
    let mut b = KernelBuilder::new("cost_reused_guard_loop");
    let t = b.special(SpecialReg::TidX);
    let acc = b.mov(0u32);
    let i = b.mov(0u32);
    let p = b.alloc_pred();
    b.do_while(|b| {
        b.setp_to(p, CmpOp::Lt, t, 7u32);
        let v = b.sel(p, t, acc);
        b.iadd_to(acc, acc, v);
        b.iadd_to(i, i, 1u32);
        b.setp_to(p, CmpOp::Lt, i, 4u32);
        Guard::if_true(p)
    });
    writeback(&mut b, acc);
    finish("cost_reused_guard_loop", b)
}

/// The deliberately unboundable negative control: the loop bound is a
/// value loaded from memory, which no launch-time constant can resolve.
/// The estimator owes an `E201` and a one-sided bracket (sound minimum,
/// no maximum). Dynamically harmless: the buffer is zero-filled, so the
/// do-while exits after one visit.
#[must_use]
pub fn cost_unbounded_control() -> Fixture {
    let mut b = KernelBuilder::new("cost_unbounded_control");
    let out = b.param(0);
    let v = b.load(MemSpace::Global, out, 0);
    let i = b.alloc();
    b.mov_to(i, 0u32);
    b.do_while(|b| {
        b.iadd_to(i, i, 1u32);
        let p = b.setp(CmpOp::Lt, i, v);
        Guard::if_true(p)
    });
    writeback(&mut b, i);
    finish("cost_unbounded_control", b)
}

/// A spin-wait across blocks: 9 blocks of 64 threads, the last block
/// stores 1 to `out[0]`, and block 0 loops while `out[0] == 0`. CUDA
/// promises no forward progress between blocks, so this kernel may
/// never finish: it passes `Kernel::validate` and the verifier, the
/// estimator owes an `E201` at its back edge, and the cycle-level
/// simulator hits its cycle cap when block 0 holds the only slot. It
/// is in no fixture list, since those lists are replayed to the end.
#[must_use]
pub fn spin_wait() -> Fixture {
    let mut b = KernelBuilder::new("spin_wait");
    let cx = b.special(SpecialReg::CtaidX);
    let out = b.param(0);
    let last = b.setp(CmpOp::Eq, cx, 8u32);
    b.if_then(Guard::if_true(last), |b| b.store(MemSpace::Global, out, 1u32, 0));
    let first = b.setp(CmpOp::Eq, cx, 0u32);
    b.if_then(Guard::if_true(first), |b| {
        b.do_while(|b| {
            let v = b.load(MemSpace::Global, out, 0);
            let p = b.setp(CmpOp::Eq, v, 0u32);
            Guard::if_true(p)
        });
    });
    let mut fx = finish("spin_wait", b);
    fx.launch.grid = Dim3::one_d(9);
    fx
}

/// The cost-estimator fixtures, in documentation order.
#[must_use]
pub fn cost() -> Vec<Fixture> {
    vec![
        cost_straight_line(),
        cost_const_loop(),
        cost_param_loop(),
        cost_nested_loop(),
        cost_geometric_loop(),
        cost_reused_guard_loop(),
        cost_unbounded_control(),
    ]
}

/// The translation-validation fixtures, in documentation order.
#[must_use]
pub fn symex() -> Vec<Fixture> {
    vec![
        symex_forged_dr(),
        symex_lane_dr(),
        symex_opaque_escape(),
        symex_opaque_control(),
        symex_forged_uniform_branch(),
        symex_uniform_branch(),
        symex_loop_reduction(),
        symex_warp_trip_control(),
        symex_uniform_base(),
        symex_divergent_write_control(),
        symex_forged_param(),
        symex_forged_tid_z(),
    ]
}
