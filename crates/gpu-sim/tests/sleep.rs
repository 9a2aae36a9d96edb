//! Sleeping SMs: an SM whose cycle changes nothing sleeps until its next
//! wake source, and `SimResult::sm_cycles_simulated` counts only the
//! cycles it really simulates. The counter is deterministic, so pinning it
//! turns "SMs stopped sleeping" into a test failure rather than a
//! benchmark regression. Sleeping must never change a modelled number:
//! profiling and tracing run the same path and give the same statistics.

use gpu_sim::{GlobalMemory, Gpu, GpuConfig, SchedulerPolicy, SimResult, Technique};
use simt_compiler::CompiledKernel;
use simt_isa::{KernelBuilder, LaunchConfig, MemSpace, SpecialReg, Value};

const BLOCKS: u32 = 6;

/// Sums `in[(tid.x + i) % 64]` over eight iterations (a `tid.x`-only chain
/// DARSIE can skip), passes the sum through shared memory across a
/// barrier, and stores it to `out[ctaid.x * 256 + tid.y * 16 + tid.x]`.
fn gather_kernel() -> CompiledKernel {
    let mut b = KernelBuilder::new("gather");
    let tx = b.special(SpecialReg::TidX);
    let ty = b.special(SpecialReg::TidY);
    let ctaid = b.special(SpecialReg::CtaidX);
    let inp = b.param(0);
    let outp = b.param(1);
    let acc = b.mov(0u32);
    b.for_count(8u32, |b, i| {
        let idx = b.iadd(tx, i);
        let idx = b.and(idx, 63u32);
        let off = b.shl_imm(idx, 2);
        let addr = b.iadd(inp, off);
        let v = b.load(MemSpace::Global, addr, 0);
        b.iadd_to(acc, acc, v);
    });
    let smem = b.alloc_shared(256 * 4);
    let lin = b.imad(ty, 16u32, tx);
    let soff = b.shl_imm(lin, 2);
    let saddr = b.iadd(soff, smem);
    b.store(MemSpace::Shared, saddr, acc, 0);
    b.barrier();
    let staged = b.load(MemSpace::Shared, saddr, 0);
    let gid = b.imad(ctaid, 256u32, lin);
    let goff = b.shl_imm(gid, 2);
    let gaddr = b.iadd(outp, goff);
    b.store(MemSpace::Global, gaddr, staged, 0);
    simt_compiler::compile(b.finish())
}

fn run(num_sms: usize, scheduler: SchedulerPolicy, tech: Technique, observed: bool) -> SimResult {
    let ck = gather_kernel();
    let mut mem = GlobalMemory::new();
    let a_in = mem.alloc(64 * 4);
    let a_out = mem.alloc(u64::from(BLOCKS) * 256 * 4);
    let input: Vec<u32> = (0..64).map(|i| i * 7 + 1).collect();
    mem.write_slice_u32(a_in, &input);
    let launch = LaunchConfig::new(BLOCKS, (16u32, 16u32))
        .with_params(vec![Value(a_in as u32), Value(a_out as u32)]);
    let cfg = GpuConfig {
        num_sms,
        scheduler,
        profile: observed,
        trace_events: observed,
        ..GpuConfig::test_small()
    };
    let res = Gpu::new(cfg, tech).launch(&ck, &launch, mem);
    let out = res.memory.read_vec_u32(a_out, (BLOCKS * 256) as usize);
    for (i, &v) in out.iter().enumerate() {
        let tx = (i % 16) as u32;
        let want: u32 = (0..8).map(|k| input[((tx + k) % 64) as usize]).sum();
        assert_eq!(v, want, "out[{i}]");
    }
    res
}

/// `(SMs, scheduler, technique, cycles, SM-cycles simulated)`.
#[rustfmt::skip]
const PINNED: &[(usize, &str, &str, u64, u64)] = &[
    (4, "GTO", "BASE", 1150, 3540),
    (4, "GTO", "DARSIE", 520, 1811),
    (4, "LRR", "BASE", 1116, 3481),
    (4, "LRR", "DARSIE", 520, 1845),
    (28, "GTO", "BASE", 652, 3848),
    (28, "GTO", "DARSIE", 455, 2371),
    (28, "LRR", "BASE", 657, 3857),
    (28, "LRR", "DARSIE", 448, 2431),
];

#[test]
fn simulated_sm_cycles_match_the_pinned_table() {
    let mut got = Vec::new();
    for num_sms in [4, 28] {
        for (sched, scheduler) in [("GTO", SchedulerPolicy::Gto), ("LRR", SchedulerPolicy::Lrr)] {
            for tech in [Technique::Base, Technique::darsie()] {
                let plain = run(num_sms, scheduler, tech.clone(), false);
                let observed = run(num_sms, scheduler, tech.clone(), true);
                assert_eq!(observed.stats, plain.stats, "observation changed SimStats");
                assert_eq!(
                    observed.sm_cycles_simulated, plain.sm_cycles_simulated,
                    "observation changed which cycles are simulated"
                );
                assert!(plain.sm_cycles_simulated < plain.cycles * num_sms as u64);
                got.push((
                    num_sms,
                    sched.to_string(),
                    tech.label().to_string(),
                    plain.cycles,
                    plain.sm_cycles_simulated,
                ));
            }
        }
    }
    let want: Vec<_> =
        PINNED.iter().map(|&(n, s, t, c, k)| (n, s.to_string(), t.to_string(), c, k)).collect();
    let table: String = got
        .iter()
        .map(|(n, s, t, c, k)| format!("    ({n}, \"{s}\", \"{t}\", {c}, {k}),\n"))
        .collect();
    assert!(got == want, "simulated SM-cycles moved; actual table:\n{table}");
}
