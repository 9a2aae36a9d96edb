//! Determinism-observatory integration tests: identical runs must produce
//! identical digest chains and roots; perturbed runs must be localized by
//! the bisector to the right epoch, SM and component; and the chains must
//! be sensitive to anything that changes the run's statistics.

use gpu_sim::{localize, GlobalMemory, Gpu, GpuConfig, Perturb, RunDigests, SimStats, Technique};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use simt_isa::{CmpOp, Dim3, Guard, KernelBuilder, LaunchConfig, MemSpace, SpecialReg, Value};

/// out[gid] = in[gid] + 1: the straightline workhorse.
fn add_one_kernel() -> simt_compiler::CompiledKernel {
    let mut b = KernelBuilder::new("add_one");
    let tid = b.special(SpecialReg::TidX);
    let ctaid = b.special(SpecialReg::CtaidX);
    let ntid = b.special(SpecialReg::NtidX);
    let gid = b.imad(ctaid, ntid, tid);
    let off = b.shl_imm(gid, 2);
    let inp = b.param(0);
    let outp = b.param(1);
    let a_in = b.iadd(inp, off);
    let v = b.load(MemSpace::Global, a_in, 0);
    let w = b.iadd(v, 1u32);
    let a_out = b.iadd(outp, off);
    b.store(MemSpace::Global, a_out, w, 0);
    simt_compiler::compile(b.finish())
}

fn run(cfg: &GpuConfig, technique: Technique, blocks: u32, block: u32) -> gpu_sim::SimResult {
    let ck = add_one_kernel();
    let n = u64::from(blocks * block);
    let mut mem = GlobalMemory::new();
    let a_in = mem.alloc(n * 4);
    let a_out = mem.alloc(n * 4);
    mem.write_slice_u32(a_in, &(0..blocks * block).map(|i| i * 3).collect::<Vec<_>>());
    let launch =
        LaunchConfig::new(blocks, block).with_params(vec![Value(a_in as u32), Value(a_out as u32)]);
    Gpu::new(cfg.clone(), technique).launch(&ck, &launch, mem)
}

fn chains_summary(d: &RunDigests) -> Vec<(String, usize, u64)> {
    d.chains().map(|c| (c.label.clone(), c.entries.len(), c.head())).collect()
}

#[test]
fn identical_runs_produce_identical_chains_and_roots() {
    let cfg = GpuConfig::test_small();
    let a = run(&cfg, Technique::darsie(), 2, 64);
    let b = run(&cfg, Technique::darsie(), 2, 64);
    let (da, db) = (a.digests.expect("digests on"), b.digests.expect("digests on"));
    assert_ne!(da.root, 0, "root must be populated");
    assert_eq!(da.root, db.root);
    assert_eq!(a.stats.digest_root, da.root);
    assert_eq!(chains_summary(&da), chains_summary(&db));
    assert_eq!(da.first_divergence(&db), None);
    assert!(
        da.sm_chains[0].entries.len() > 1,
        "coarse cadence must record multiple epochs on a run of {} cycles",
        a.cycles
    );
}

#[test]
fn disabled_digests_leave_no_trace() {
    let mut cfg = GpuConfig::test_small();
    cfg.digest = gpu_sim::DigestConfig::off();
    let r = run(&cfg, Technique::Base, 1, 64);
    assert!(r.digests.is_none());
    assert_eq!(r.stats.digest_root, 0);
}

#[test]
fn digest_root_is_invariant_to_the_digest_layer_itself() {
    // The observatory must be a pure observer: running with digests on or
    // off must not change any simulation outcome.
    let cfg_on = GpuConfig::test_small();
    let mut cfg_off = GpuConfig::test_small();
    cfg_off.digest = gpu_sim::DigestConfig::off();
    let a = run(&cfg_on, Technique::darsie(), 2, 64);
    let b = run(&cfg_off, Technique::darsie(), 2, 64);
    let mut sa = a.stats.clone();
    let mut sb = b.stats.clone();
    sa.digest_root = 0;
    sb.digest_root = 0;
    assert_eq!(sa, sb, "digesting must not perturb the simulation");
}

#[test]
fn perturbed_warp_register_is_localized_to_sm_warp_and_component() {
    // Fine mode over the whole run; the perturbation XORs a register word
    // of warp slot 0 on SM 0 at cycle 10, while the straightline kernel's
    // warps are still resident. The divergence report must name that SM,
    // the warp-state component, warp 0 and the exact cycle. A corrupted
    // register is harmless here: the kernel touches global memory only, so
    // a wild address just lands on fresh pages.
    let mut clean = GpuConfig::test_small();
    clean.digest = gpu_sim::DigestConfig::fine((0, u64::MAX));
    let mut dirty = clean.clone();
    dirty.perturb =
        Some(Perturb::WarpReg { cycle: 10, sm: 0, warp_slot: 0, word: 3, xor: 0xdead_beef });

    let a = run(&clean, Technique::Base, 1, 64);
    let b = run(&dirty, Technique::Base, 1, 64);
    let (da, db) = (a.digests.expect("digests on"), b.digests.expect("digests on"));
    assert_ne!(da.root, db.root, "the poke must reach the root");

    let d = localize(&da, &db).expect("runs diverge");
    assert_eq!(d.chain, "sm0");
    assert_eq!(d.sm, Some(0));
    assert_eq!(d.cycle, 10, "cycle-1 cadence pins the poke's cycle exactly");
    assert_eq!(d.component, "warp-state");
    assert_eq!(d.warp, Some(0));
    assert!(
        d.subs.iter().any(|(l, x, y)| l == "warp-state" && x != y),
        "sub-digest rows must carry the differing component"
    );
}

#[test]
fn perturbed_global_word_is_localized_to_the_memory_chain() {
    let mut clean = GpuConfig::test_small();
    clean.digest = gpu_sim::DigestConfig::fine((0, u64::MAX));
    let mut dirty = clean.clone();
    // 0x1000 is the first allocation (the kernel's input array).
    dirty.perturb = Some(Perturb::GlobalWord { cycle: 10, addr: 0x1000, xor: 0x5555_5555 });

    let a = run(&clean, Technique::Base, 1, 64);
    let b = run(&dirty, Technique::Base, 1, 64);
    let (da, db) = (a.digests.expect("digests on"), b.digests.expect("digests on"));
    let d = localize(&da, &db).expect("runs diverge");
    assert_eq!(d.chain, "memory");
    assert_eq!(d.component, "memory");
    assert_eq!(d.cycle, 10);
    assert_eq!(d.sm, None);
}

#[test]
fn window_bounds_fine_mode_memory() {
    let mut cfg = GpuConfig::test_small();
    cfg.digest = gpu_sim::DigestConfig::fine((20, 40));
    let r = run(&cfg, Technique::Base, 1, 64);
    let d = r.digests.expect("digests on");
    for c in d.chains() {
        assert!(c.entries.len() <= 21, "window caps epochs, got {}", c.entries.len());
        for e in &c.entries {
            assert!((20..=40).contains(&e.cycle), "epoch at {} outside window", e.cycle);
        }
    }
}

/// Strips the digest root so two stats can be compared for *simulation*
/// equality, independent of the digest layer.
fn behavior(mut s: SimStats) -> SimStats {
    s.digest_root = 0;
    s
}

/// Determinism: over random launch geometries, techniques, digest
/// intervals and input data, two identical runs produce identical
/// chains; and whenever two *different* configurations disagree on
/// their statistics, their digest roots disagree too (the chain is at
/// least as sensitive as the stats).
#[test]
fn digest_chains_are_deterministic_and_stats_sensitive() {
    let techs = [Technique::Base, Technique::Uv, Technique::darsie(), Technique::SiliconSync];
    for case in 0..24 {
        let mut rng = SmallRng::seed_from_u64(case);
        let blocks = rng.gen_range(1u32..4);
        let block = 32u32 << rng.gen_range(0u32..3);
        let (tech_a, tech_b) = (&techs[rng.gen_range(0usize..4)], &techs[rng.gen_range(0usize..4)]);
        let interval = [64u64, 256, 1024][rng.gen_range(0usize..3)];
        let seed = rng.next_u32();
        let mut cfg = GpuConfig::test_small();
        cfg.digest.interval = interval;

        let mk = |tech: &Technique| {
            let ck = add_one_kernel();
            let n = u64::from(blocks * block);
            let mut mem = GlobalMemory::new();
            let a_in = mem.alloc(n * 4);
            let a_out = mem.alloc(n * 4);
            let data: Vec<u32> = (0..blocks * block).map(|i| i.wrapping_mul(seed | 1)).collect();
            mem.write_slice_u32(a_in, &data);
            let launch = LaunchConfig::new(blocks, block)
                .with_params(vec![Value(a_in as u32), Value(a_out as u32)]);
            Gpu::new(cfg.clone(), tech.clone()).launch(&ck, &launch, mem)
        };

        let a1 = mk(tech_a);
        let a2 = mk(tech_a);
        let b = mk(tech_b);

        let (d1, d2) = (a1.digests.as_ref().unwrap(), a2.digests.as_ref().unwrap());
        assert_eq!(d1.root, d2.root, "case {case}: identical runs must agree");
        assert_eq!(d1.first_divergence(d2), None, "case {case}");
        assert_eq!(chains_summary(d1), chains_summary(d2), "case {case}");

        if behavior(a1.stats.clone()) != behavior(b.stats.clone()) {
            assert_ne!(
                a1.stats.digest_root, b.stats.digest_root,
                "case {case}: stats differ, so the digest chain must differ"
            );
        }
    }
}

/// A 2D divergent kernel under DARSIE: determinism holds on the paper's
/// interesting configuration too (skip table, renaming, majority tracking
/// all active).
#[test]
fn darsie_divergent_kernel_is_deterministic() {
    let mut b = KernelBuilder::new("div2d");
    let tx = b.special(SpecialReg::TidX);
    let ty = b.special(SpecialReg::TidY);
    let ntx = b.special(SpecialReg::NtidX);
    let out = b.param(0);
    let p = b.setp(CmpOp::Lt, tx, 8u32);
    let r = b.alloc();
    b.if_then_else(
        Guard::if_true(p),
        |b| {
            let v = b.imul(tx, 3u32);
            b.iadd_to(r, v, 1u32);
        },
        |b| b.mov_to(r, 7u32),
    );
    let lin = b.imad(ty, ntx, tx);
    let off = b.shl_imm(lin, 2);
    let addr = b.iadd(out, off);
    b.store(MemSpace::Global, addr, r, 0);
    let ck = simt_compiler::compile(b.finish());

    let mk = || {
        let mut mem = GlobalMemory::new();
        let out_addr = mem.alloc(256 * 4);
        let launch = LaunchConfig::new(Dim3::one_d(2), Dim3::two_d(16, 16))
            .with_params(vec![Value(out_addr as u32)]);
        Gpu::new(GpuConfig::test_small(), Technique::darsie()).launch(&ck, &launch, mem)
    };
    let (a, b) = (mk(), mk());
    assert_ne!(a.stats.digest_root, 0);
    assert_eq!(a.stats.digest_root, b.stats.digest_root);
}
