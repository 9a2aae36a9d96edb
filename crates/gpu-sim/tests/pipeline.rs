//! Focused pipeline-behaviour tests: tiny hand-built kernels driven
//! through the full SM, asserting specific microarchitectural effects
//! (divergence reconvergence, barrier ordering, I-cache behaviour,
//! scheduler choice, UV reuse accounting, DARSIE waiting).

use gpu_sim::{GlobalMemory, Gpu, GpuConfig, SchedulerPolicy, Technique};
use simt_isa::{CmpOp, Guard, KernelBuilder, LaunchConfig, MemSpace, SpecialReg, Value};

fn cfg() -> GpuConfig {
    GpuConfig::test_small()
}

/// Divergent if/else where both paths write disjoint outputs: the SIMT
/// stack must execute both sides and reconverge.
#[test]
fn divergent_paths_both_execute_and_reconverge() {
    let mut b = KernelBuilder::new("div");
    let lane = b.special(SpecialReg::LaneId);
    let out = b.param(0);
    let p = b.setp(CmpOp::Lt, lane, 16u32);
    let r = b.alloc();
    b.if_then_else(Guard::if_true(p), |b| b.mov_to(r, 111u32), |b| b.mov_to(r, 222u32));
    // After reconvergence every lane stores its own value.
    let off = b.shl_imm(lane, 2);
    let addr = b.iadd(out, off);
    b.store(MemSpace::Global, addr, r, 0);
    let ck = simt_compiler::compile(b.finish());

    let mut mem = GlobalMemory::new();
    let out_addr = mem.alloc(32 * 4);
    let launch = LaunchConfig::new(1u32, 32u32).with_params(vec![Value(out_addr as u32)]);
    let res = Gpu::new(cfg(), Technique::Base).launch(&ck, &launch, mem);
    let vals = res.memory.read_vec_u32(out_addr, 32);
    for (lane, v) in vals.iter().enumerate() {
        assert_eq!(*v, if lane < 16 { 111 } else { 222 }, "lane {lane}");
    }
}

/// Nested divergence: four distinct outcomes, all lanes correct.
#[test]
fn nested_divergence() {
    let mut b = KernelBuilder::new("nest");
    let lane = b.special(SpecialReg::LaneId);
    let out = b.param(0);
    let p_hi = b.setp(CmpOp::Lt, lane, 16u32);
    let q = b.alloc_pred();
    let r = b.alloc();
    b.if_then_else(
        Guard::if_true(p_hi),
        |b| {
            b.setp_to(q, CmpOp::Lt, lane, 8u32);
            b.if_then_else(Guard::if_true(q), |b| b.mov_to(r, 1u32), |b| b.mov_to(r, 2u32));
        },
        |b| {
            b.setp_to(q, CmpOp::Lt, lane, 24u32);
            b.if_then_else(Guard::if_true(q), |b| b.mov_to(r, 3u32), |b| b.mov_to(r, 4u32));
        },
    );
    let off = b.shl_imm(lane, 2);
    let addr = b.iadd(out, off);
    b.store(MemSpace::Global, addr, r, 0);
    let ck = simt_compiler::compile(b.finish());

    let mut mem = GlobalMemory::new();
    let out_addr = mem.alloc(32 * 4);
    let launch = LaunchConfig::new(1u32, 32u32).with_params(vec![Value(out_addr as u32)]);
    let res = Gpu::new(cfg(), Technique::Base).launch(&ck, &launch, mem);
    let vals = res.memory.read_vec_u32(out_addr, 32);
    for (lane, v) in vals.iter().enumerate() {
        let expect = match lane {
            0..=7 => 1,
            8..=15 => 2,
            16..=23 => 3,
            _ => 4,
        };
        assert_eq!(*v, expect, "lane {lane}");
    }
}

/// Producer/consumer across warps through shared memory: the barrier must
/// order warp 0's stores before warp 1's loads.
#[test]
fn barrier_orders_shared_memory_communication() {
    let mut b = KernelBuilder::new("barrier");
    let tx = b.special(SpecialReg::TidX);
    let warp = b.special(SpecialReg::WarpId);
    let out = b.param(0);
    let smem = b.alloc_shared(64 * 4);
    // Warp 0 writes smem[tx] = tx * 7.
    let q0 = b.setp(CmpOp::Eq, warp, 0u32);
    let soff = b.shl_imm(tx, 2);
    b.if_then(Guard::if_true(q0), |b| {
        let v = b.imul(tx, 7u32);
        b.store(MemSpace::Shared, soff, v, smem as i32);
    });
    b.barrier();
    // Warp 1 reads its partner's slot and writes it out.
    let q1 = b.setp(CmpOp::Eq, warp, 1u32);
    b.if_then(Guard::if_true(q1), |b| {
        let partner = b.isub(tx, 32u32);
        let poff = b.shl_imm(partner, 2);
        let v = b.load(MemSpace::Shared, poff, smem as i32);
        let ooff = b.shl_imm(partner, 2);
        let addr = b.iadd(out, ooff);
        b.store(MemSpace::Global, addr, v, 0);
    });
    let ck = simt_compiler::compile(b.finish());

    let mut mem = GlobalMemory::new();
    let out_addr = mem.alloc(32 * 4);
    let launch = LaunchConfig::new(1u32, 64u32).with_params(vec![Value(out_addr as u32)]);
    let res = Gpu::new(cfg(), Technique::Base).launch(&ck, &launch, mem);
    let vals = res.memory.read_vec_u32(out_addr, 32);
    for (i, v) in vals.iter().enumerate() {
        assert_eq!(*v, i as u32 * 7, "slot {i}");
    }
    assert!(res.stats.barrier_waits > 0);
}

/// Atomics across every thread of a grid accumulate exactly.
#[test]
fn global_atomics_accumulate_exactly() {
    let mut b = KernelBuilder::new("atom");
    let counter = b.param(0);
    let _old = b.atom(simt_isa::AtomOp::Add, counter, 1u32);
    let ck = simt_compiler::compile(b.finish());

    let mut mem = GlobalMemory::new();
    let c_addr = mem.alloc(4);
    let launch = LaunchConfig::new(3u32, 64u32).with_params(vec![Value(c_addr as u32)]);
    let res = Gpu::new(cfg(), Technique::Base).launch(&ck, &launch, mem);
    assert_eq!(res.memory.read_u32(c_addr), 3 * 64);
    assert_eq!(res.stats.atomic_ops, 6, "one atomic per warp");
}

/// The I-cache misses once per line and then hits; a loop fetches the same
/// lines repeatedly with only compulsory misses.
#[test]
fn icache_misses_are_compulsory_for_small_loops() {
    let mut b = KernelBuilder::new("icache");
    let i = b.mov(0u32);
    let acc = b.mov(0u32);
    let p = b.alloc_pred();
    b.do_while(|b| {
        b.iadd_to(acc, acc, 3u32);
        b.iadd_to(i, i, 1u32);
        b.setp_to(p, CmpOp::Lt, i, 50u32);
        Guard::if_true(p)
    });
    let out = b.param(0);
    b.store(MemSpace::Global, out, acc, 0);
    let ck = simt_compiler::compile(b.finish());
    let mut mem = GlobalMemory::new();
    let out_addr = mem.alloc(4);
    let launch = LaunchConfig::new(1u32, 32u32).with_params(vec![Value(out_addr as u32)]);
    let res = Gpu::new(cfg(), Technique::Base).launch(&ck, &launch, mem);
    assert_eq!(res.memory.read_u32(out_addr), 150);
    assert!(res.stats.icache_accesses > 50, "loop refetches every iteration");
    assert!(
        res.stats.icache_misses <= 2,
        "a {}-instruction kernel spans at most 2 lines; got {} misses",
        ck.kernel.len(),
        res.stats.icache_misses
    );
}

/// GTO and LRR produce identical results and instruction counts.
#[test]
fn scheduler_policies_differ_only_in_timing() {
    let mut b = KernelBuilder::new("sched");
    let lane = b.special(SpecialReg::LaneId);
    let warp = b.special(SpecialReg::WarpId);
    let out = b.param(0);
    let acc = b.mov(0u32);
    let p = b.alloc_pred();
    let i = b.mov(0u32);
    b.do_while(|b| {
        b.imad_to(acc, acc, 3u32, lane);
        b.iadd_to(i, i, 1u32);
        b.setp_to(p, CmpOp::Lt, i, 12u32);
        Guard::if_true(p)
    });
    let lin = b.imad(warp, 32u32, lane);
    let off = b.shl_imm(lin, 2);
    let addr = b.iadd(out, off);
    b.store(MemSpace::Global, addr, acc, 0);
    let ck = simt_compiler::compile(b.finish());
    let mk = || {
        let mut mem = GlobalMemory::new();
        let out_addr = mem.alloc(256 * 4);
        (mem, out_addr)
    };
    let (mem, out_addr) = mk();
    let launch = LaunchConfig::new(2u32, 128u32).with_params(vec![Value(out_addr as u32)]);
    let gto = Gpu::new(cfg(), Technique::Base).launch(&ck, &launch, mem);
    let lrr_cfg = GpuConfig { scheduler: SchedulerPolicy::Lrr, ..cfg() };
    let (mem2, _) = mk();
    let lrr = Gpu::new(lrr_cfg, Technique::Base).launch(&ck, &launch, mem2);
    assert_eq!(gto.memory.fingerprint(), lrr.memory.fingerprint());
    assert_eq!(gto.stats.instrs_executed, lrr.stats.instrs_executed);
}

/// UV reuse hits replace executions for uniform work in a multi-warp TB.
#[test]
fn uv_reuses_uniform_instructions() {
    let mut b = KernelBuilder::new("uv");
    let cta = b.special(SpecialReg::CtaidX);
    let lane = b.special(SpecialReg::LaneId);
    let warp = b.special(SpecialReg::WarpId);
    let out = b.param(0);
    // Uniform chain, identical across the TB's warps.
    let a = b.imul(cta, 13u32);
    let c = b.iadd(a, 7u32);
    // Vector sink.
    let lin = b.imad(warp, 32u32, lane);
    let off = b.shl_imm(lin, 2);
    let addr = b.iadd(out, off);
    let v = b.iadd(c, lane);
    b.store(MemSpace::Global, addr, v, 0);
    let ck = simt_compiler::compile(b.finish());

    let mut mem = GlobalMemory::new();
    let out_addr = mem.alloc(128 * 4);
    let launch = LaunchConfig::new(1u32, 128u32).with_params(vec![Value(out_addr as u32)]);
    let res = Gpu::new(cfg(), Technique::Uv).launch(&ck, &launch, mem);
    assert!(
        res.stats.instrs_reused.uniform > 0,
        "four warps share the uniform chain: {:?}",
        res.stats.instrs_reused
    );
    for w in 0..4u32 {
        for l in 0..32u32 {
            let got = res.memory.read_u32(u64::from(out_addr as u32 + (w * 32 + l) * 4));
            assert_eq!(got, 7 + l);
        }
    }
}

/// DARSIE followers that arrive before the leader's writeback stall and
/// then skip (the WaitForLeader path), never executing the instruction.
#[test]
fn followers_wait_for_leader_writeback() {
    let mut b = KernelBuilder::new("wait");
    let tx = b.special(SpecialReg::TidX);
    let out = b.param(0);
    let tbl = b.param(1);
    // A skippable chain ending in a (slow) global load.
    let off = b.shl_imm(tx, 2);
    let addr = b.iadd(tbl, off);
    let v = b.load(MemSpace::Global, addr, 0);
    // Vector sink so the kernel has per-thread work too.
    let ty = b.special(SpecialReg::TidY);
    let lin = b.imad(ty, 16u32, tx);
    let ooff = b.shl_imm(lin, 2);
    let oaddr = b.iadd(out, ooff);
    b.store(MemSpace::Global, oaddr, v, 0);
    let ck = simt_compiler::compile(b.finish());

    let mut mem = GlobalMemory::new();
    let tbl_addr = mem.alloc(16 * 4);
    let out_addr = mem.alloc(256 * 4);
    mem.write_slice_u32(tbl_addr, &(0..16u32).map(|i| 1000 + i).collect::<Vec<_>>());
    let launch = LaunchConfig::new(1u32, (16u32, 16u32))
        .with_params(vec![Value(out_addr as u32), Value(tbl_addr as u32)]);
    let res = Gpu::new(cfg(), Technique::darsie()).launch(&ck, &launch, mem);
    assert!(res.stats.darsie.wait_for_leader_cycles > 0, "followers stalled on the load");
    assert!(res.stats.instrs_skipped.unstructured > 0, "the load was skipped");
    for y in 0..16u32 {
        for x in 0..16u32 {
            let got = res.memory.read_u32(u64::from(out_addr as u32 + (y * 16 + x) * 4));
            assert_eq!(got, 1000 + x);
        }
    }
}

/// A store between two skippable loads of the same address forces the
/// second load's entry to be re-led (Section 4.4): values stay correct.
#[test]
fn store_invalidation_keeps_loads_coherent() {
    let mut b = KernelBuilder::new("inval");
    let tx = b.special(SpecialReg::TidX);
    let ty = b.special(SpecialReg::TidY);
    let data = b.param(0);
    let out = b.param(1);
    // Skippable load of data[tx].
    let off = b.shl_imm(tx, 2);
    let addr = b.iadd(data, off);
    let v1 = b.load(MemSpace::Global, addr, 0);
    // Every thread stores to its own output slot (triggers invalidation).
    let lin = b.imad(ty, 16u32, tx);
    let ooff = b.shl_imm(lin, 2);
    let oaddr = b.iadd(out, ooff);
    b.store(MemSpace::Global, oaddr, v1, 0);
    // Second skippable load of the same address; a fresh leader re-reads.
    let v2 = b.load(MemSpace::Global, addr, 0);
    let sum = b.iadd(v1, v2);
    b.store(MemSpace::Global, oaddr, sum, 0);
    let ck = simt_compiler::compile(b.finish());

    let mut mem = GlobalMemory::new();
    let d_addr = mem.alloc(16 * 4);
    let out_addr = mem.alloc(256 * 4);
    mem.write_slice_u32(d_addr, &(0..16u32).map(|i| 5 * i).collect::<Vec<_>>());
    let launch = LaunchConfig::new(1u32, (16u32, 16u32))
        .with_params(vec![Value(d_addr as u32), Value(out_addr as u32)]);
    let res = Gpu::new(cfg(), Technique::darsie()).launch(&ck, &launch, mem);
    assert!(res.stats.darsie.load_invalidations > 0, "stores flushed load entries");
    for y in 0..16u32 {
        for x in 0..16u32 {
            let got = res.memory.read_u32(u64::from(out_addr as u32 + (y * 16 + x) * 4));
            assert_eq!(got, 10 * x, "sum of two loads of data[{x}]");
        }
    }
}

/// DARSIE never reduces occupancy: with a register demand that exactly
/// fills the SM, the renaming pool shrinks to zero and the same number of
/// TBs stays resident (skipping silently disabled, results intact).
#[test]
fn rename_pool_never_costs_occupancy() {
    let mut b = KernelBuilder::new("fat");
    let tx = b.special(SpecialReg::TidX);
    let out = b.param(0);
    // Inflate the register demand.
    let mut acc = b.mov(1u32);
    for _ in 0..60 {
        acc = b.iadd(acc, tx);
    }
    let off = b.shl_imm(tx, 2);
    let addr = b.iadd(out, off);
    b.store(MemSpace::Global, addr, acc, 0);
    let ck = simt_compiler::compile(b.finish());
    assert!(ck.kernel.num_regs >= 60);

    // One warp per TB, 64 regs per warp: a 2048-register SM fits ~32 TBs
    // (TB-slot-limited to 8 in the test config); the DARSIE pool must not
    // change that.
    let mut mem = GlobalMemory::new();
    let out_addr = mem.alloc(32 * 4);
    let launch = LaunchConfig::new(16u32, 32u32).with_params(vec![Value(out_addr as u32)]);
    let base = Gpu::new(cfg(), Technique::Base).launch(&ck, &launch.clone(), mem.clone());
    let dars = Gpu::new(cfg(), Technique::darsie()).launch(&ck, &launch, mem);
    assert_eq!(base.memory.fingerprint(), dars.memory.fingerprint());
    // Cycle counts stay in the same ballpark: occupancy was not halved.
    assert!(
        (dars.cycles as f64) < base.cycles as f64 * 1.5,
        "DARSIE {} vs base {} cycles",
        dars.cycles,
        base.cycles
    );
}

/// The event trace captures the DARSIE protocol in order: a Lead precedes
/// the first Skip of the same PC, every Issue precedes its Writeback
/// epoch, and skipped PCs are never issued by follower warps.
#[test]
fn event_trace_shows_the_skip_protocol() {
    let mut b = KernelBuilder::new("trace");
    let tx = b.special(SpecialReg::TidX);
    let ty = b.special(SpecialReg::TidY);
    let out = b.param(0);
    let off = b.shl_imm(tx, 2); // skippable chain
    let lin = b.imad(ty, 16u32, tx);
    let ooff = b.shl_imm(lin, 2);
    let addr = b.iadd(out, ooff);
    b.store(MemSpace::Global, addr, off, 0);
    let ck = simt_compiler::compile(b.finish());

    let mut mem = GlobalMemory::new();
    let out_addr = mem.alloc(256 * 4);
    let launch = LaunchConfig::new(1u32, (16u32, 16u32)).with_params(vec![Value(out_addr as u32)]);
    let cfg = GpuConfig { trace_events: true, ..cfg() };
    let mut res = Gpu::new(cfg, Technique::darsie()).launch(&ck, &launch, mem);
    let events = res.events.events();
    assert!(!events.is_empty());
    use gpu_sim::EventKind;
    // Find the shl's pc (the first skippable).
    let shl_pc = 2; // s2r, s2r, shl
    let first_lead = events
        .iter()
        .position(|e| e.pc == shl_pc && e.kind == EventKind::Lead)
        .expect("a leader was elected for the shl");
    let first_skip = events
        .iter()
        .position(|e| e.pc == shl_pc && e.kind == EventKind::Skip)
        .expect("followers skipped the shl");
    assert!(first_lead < first_skip, "lead precedes the first skip");
    // Exactly one warp issued the shl; the others skipped it.
    let issues = events.iter().filter(|e| e.pc == shl_pc && e.kind == EventKind::Issue).count();
    let skips = events.iter().filter(|e| e.pc == shl_pc && e.kind == EventKind::Skip).count();
    assert_eq!(issues, 1, "only the leader executes");
    assert_eq!(skips, 7, "seven followers skip");
    // Tracing must not perturb results.
    for y in 0..16u32 {
        for x in 0..16u32 {
            let got = res.memory.read_u32(u64::from(out_addr as u32 + (y * 16 + x) * 4));
            assert_eq!(got, x * 4);
        }
    }
}

/// `exit` does not wait for pending writes, so a warp can leave with a
/// load in flight and its slot go to the next TB's warp. The old load's
/// completion must not clear the new warp's scoreboard: the consumer of
/// the new warp's own load may issue only once that load is back.
#[test]
fn stale_writeback_does_not_touch_a_recycled_warp_slot() {
    let mut b = KernelBuilder::new("recycle");
    let ctaid = b.special(SpecialReg::CtaidX);
    let inp = b.param(0);
    let out = b.param(1);
    // One 512-byte stride per TB: each TB's load misses to DRAM.
    let off = b.shl_imm(ctaid, 9);
    let a_in = b.iadd(inp, off);
    let v = b.load(MemSpace::Global, a_in, 0);
    // TB 0 leaves its load dead and exits with it still in flight.
    let first = b.setp(CmpOp::Eq, ctaid, 0u32);
    b.if_then(Guard::if_true(first), |b| b.exit());
    let w = b.iadd(v, 1u32);
    let a_out = b.iadd(out, off);
    b.store(MemSpace::Global, a_out, w, 0);
    let ck = simt_compiler::compile(b.finish());
    let load_pc = ck.kernel.instrs.iter().position(|i| i.dst == Some(v)).expect("load");
    let use_pc = ck.kernel.instrs.iter().position(|i| i.dst == Some(w)).expect("consumer");

    let mut mem = GlobalMemory::new();
    let a_in = mem.alloc(2 * 512);
    let a_out = mem.alloc(2 * 512);
    mem.write_u32(a_in + 512, 41);
    // Two one-warp TBs, one at a time, so TB 1 reuses TB 0's warp slot.
    let launch =
        LaunchConfig::new(2u32, 32u32).with_params(vec![Value(a_in as u32), Value(a_out as u32)]);
    let cfg = GpuConfig { max_tbs_per_sm: 1, trace_events: true, ..cfg() };
    let mut res = Gpu::new(cfg.clone(), Technique::Base).launch(&ck, &launch, mem);
    assert_eq!(res.memory.read_u32(a_out + 512), 42);

    let events = res.events.events();
    let issue_at = |pc: usize| -> Vec<u64> {
        events
            .iter()
            .filter(|e| e.pc == pc && e.kind == gpu_sim::EventKind::Issue)
            .map(|e| e.cycle)
            .collect()
    };
    let loads = issue_at(load_pc);
    let uses = issue_at(use_pc);
    assert_eq!((loads.len(), uses.len()), (2, 1), "both TBs load, only TB 1 consumes");
    assert!(events.iter().all(|e| e.warp == 0), "TB 1 runs in TB 0's warp slot");
    let dram_load = cfg.l1_latency + cfg.dram_latency;
    // The fixture only tests something if TB 0's load is still in flight
    // when TB 1 issues its own.
    assert!(loads[0] + dram_load > loads[1], "TB 0's load completes after TB 1's issues");
    assert!(
        uses[0] >= loads[1] + dram_load,
        "consumer issued at cycle {} before TB 1's load (issued at {}) could complete",
        uses[0],
        loads[1]
    );
}

/// A DARSIE leader whose skippable result is dead can exit before the
/// result writes back; its completion must still release the followers
/// waiting on it (found by the random-program properties: the followers
/// used to wait forever).
#[test]
fn exited_leader_releases_waiting_followers() {
    let mut b = KernelBuilder::new("leader_exits");
    let x = b.param(0);
    let _dead = b.frcp(x);
    let ck = simt_compiler::compile(b.finish());
    let launch = LaunchConfig::new(1u32, 64u32).with_params(vec![Value(0x4000_0000)]);
    let cfg = GpuConfig { max_cycles: 100_000, ..cfg() };
    let res = Gpu::new(cfg, Technique::darsie()).launch(&ck, &launch, GlobalMemory::new());
    assert!(res.stats.darsie.wait_for_leader_cycles > 0, "a follower waited on the leader");
}

/// TBs of unequal length retire out of launch order, so a younger warp
/// takes a lower slot than an older one that is still resident on the
/// same scheduler. GTO must still visit warps oldest first, LRR in slot
/// rotation and fetch in `fetch_rr` rotation: cycles, executed
/// instructions, the digest root and the whole event trace are pinned
/// under both policies, on a DARSIE run and on a 96-warp SM.
#[test]
fn younger_warps_in_lower_slots_keep_the_visit_orders() {
    let mut b = KernelBuilder::new("ragged");
    let ctaid = b.special(SpecialReg::CtaidX);
    let warp = b.special(SpecialReg::WarpId);
    let lane = b.special(SpecialReg::LaneId);
    let tid = b.special(SpecialReg::TidX);
    let inp = b.param(0);
    let out = b.param(1);
    // Trip count 2..=30, varying with the TB and the warp within it.
    let mix = b.imad(ctaid, 5u32, warp);
    let bits = b.and(mix, 7u32);
    let trip = b.imad(bits, 4u32, 2u32);
    let acc = b.mov(0u32);
    let i = b.mov(0u32);
    let p = b.alloc_pred();
    b.do_while(|b| {
        let word = b.and(i, 15u32);
        let off = b.shl_imm(word, 2);
        let a = b.iadd(inp, off);
        let v = b.load(MemSpace::Global, a, 0);
        b.imad_to(acc, acc, 3u32, v);
        b.iadd_to(acc, acc, lane);
        b.iadd_to(i, i, 1u32);
        b.setp_to(p, CmpOp::Lt, i, trip);
        Guard::if_true(p)
    });
    let ntid = b.special(SpecialReg::NtidX);
    let gid = b.imad(ctaid, ntid, tid);
    let goff = b.shl_imm(gid, 2);
    let a_out = b.iadd(out, goff);
    b.store(MemSpace::Global, a_out, acc, 0);
    let ck = simt_compiler::compile(b.finish());

    let run = |cfg: GpuConfig, technique: Technique, blocks: u32| {
        let mut mem = GlobalMemory::new();
        let a_in = mem.alloc(16 * 4);
        for k in 0..16 {
            mem.write_u32(a_in + 4 * k, (k as u32).wrapping_mul(0x9e37_79b9));
        }
        let a_out = mem.alloc(u64::from(blocks) * 128 * 4);
        let launch = LaunchConfig::new(blocks, 128u32)
            .with_params(vec![Value(a_in as u32), Value(a_out as u32)]);
        let cfg = GpuConfig { trace_events: true, ..cfg };
        let mut res = Gpu::new(cfg.clone(), technique).launch(&ck, &launch, mem);
        assert_eq!(res.events.dropped, 0, "the whole trace is kept");
        let events = res.events.events();
        // Each slot's residencies as (first event, `WarpDone`) cycles.
        let mut lives: Vec<Vec<(u64, u64)>> = vec![Vec::new(); cfg.max_warps_per_sm as usize];
        let mut open: Vec<Option<u64>> = vec![None; cfg.max_warps_per_sm as usize];
        for e in events {
            let start = *open[e.warp].get_or_insert(e.cycle);
            if e.kind == gpu_sim::EventKind::WarpDone {
                lives[e.warp].push((start, e.cycle));
                open[e.warp] = None;
            }
        }
        let sched = cfg.schedulers_per_sm;
        let inverted = (0..lives.len()).any(|lo| {
            (lo + sched..lives.len()).step_by(sched).any(|hi| {
                lives[lo].iter().any(|&(young, _)| {
                    lives[hi].iter().any(|&(old, done)| old < young && young < done)
                })
            })
        });
        assert!(inverted, "a younger warp sits below a resident older one on its scheduler");
        let top = events.iter().map(|e| e.warp).max().unwrap_or(0);
        assert!(cfg.max_warps_per_sm <= 64 || top >= 64, "the wide SM fills slots past 64");
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for e in events {
            for word in [e.cycle, e.warp as u64, e.pc as u64, e.kind as u64] {
                h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        (res.cycles, res.stats.instrs_executed, res.stats.digest_root, h)
    };
    let small = GpuConfig { max_tbs_per_sm: 3, ..cfg() };
    let lrr = GpuConfig { scheduler: SchedulerPolicy::Lrr, ..small.clone() };
    let wide = GpuConfig { max_warps_per_sm: 96, max_tbs_per_sm: 24, ..cfg() };
    let got = [
        run(small.clone(), Technique::Base, 24),
        run(lrr.clone(), Technique::Base, 24),
        run(small, Technique::darsie(), 24),
        run(lrr, Technique::darsie(), 24),
        run(wide, Technique::darsie(), 60),
    ];
    let pinned = [
        (12354, 15456, 2949236460300884682, 1726661838113271749),
        (12438, 15456, 16496107933188851812, 14612719654958088877),
        (8609, 8867, 16822541318203456363, 1089505481011908225),
        (8615, 8803, 9245442558885856156, 11962839432029655967),
        (9278, 21544, 17068663120681229818, 7871239113583756921),
    ];
    assert_eq!(got, pinned);
}
