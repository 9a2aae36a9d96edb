//! Differential properties between the symbolic translation validator
//! and the marking oracle, on race-free draws of `workloads::random`
//! with forged redundancy markings: anything the oracle refutes on a real
//! execution comes out of `symex::prove` as `S401` or `S402`, never as a
//! proof, and every `S401` counterexample reproduces a real marking
//! violation when the named block shape is handed to the executor.

use simt_compiler::CompiledKernel;
use simt_isa::{Dim3, LaunchConfig, Marking, Op};
use simt_verify::{oracle, symex, Diagnostics, LintCode};
use workloads::fixtures::Fixture;
use workloads::random::{check, Footprint, Recipe, Stmt};

/// Forges `Redundant` or `CondRedundant` onto about a fifth of the pcs
/// that write a register (atomics aside), picked by hashing the pc with
/// the kernel's length.
fn forge(ck: &mut CompiledKernel) {
    let n = ck.kernel.instrs.len() as u64;
    for (pc, i) in ck.kernel.instrs.iter().enumerate() {
        let h = (pc as u64 ^ n << 8).wrapping_mul(0x2545_f491_4f6c_dd1d) >> 61;
        if h < 2 && i.op.writes_dst() && !matches!(i.op, Op::Atom(_)) {
            ck.markings[pc] = [Marking::Redundant, Marking::ConditionallyRedundant][h as usize];
        }
    }
}

/// Parses the `block (bx,by)` or `block (bx,by,bz)` witness out of an
/// `S401` message.
fn witness_block(msg: &str) -> Dim3 {
    let dims = msg.split("block (").nth(1).and_then(|s| s.split(')').next()).expect("dims");
    let d: Vec<u32> = dims.split(',').map(|v| v.trim().parse().expect("a dim")).collect();
    Dim3::three_d(d[0], d[1], d.get(2).copied().unwrap_or(1))
}

/// Soundness both ways on a forged fixture: (a) any marking the oracle
/// refutes is `S401` or `S402` under the validator, never proved; (b) any
/// `S401` names a block shape on which the executor really observes the
/// violation at the same pc. Returns the refuted pcs and the
/// validator's report.
fn never_proves_what_the_oracle_refutes(fx: &Fixture) -> (Vec<usize>, Diagnostics) {
    let p = symex::prove(&fx.ck, Some((&fx.launch, &fx.memory)));
    let refuted = oracle::check(&fx.ck, &fx.launch, fx.memory.clone());
    let unsound = [LintCode::UnsoundMarking, LintCode::UnsoundPromotion];
    let findings: Vec<_> = refuted.items.iter().filter(|d| unsound.contains(&d.code)).collect();
    for d in &findings {
        let pc = d.pc.expect("oracle findings carry a pc");
        assert!(
            p.report.items.iter().any(|s| s.pc == Some(pc)
                && matches!(s.code, LintCode::DisprovedMarking | LintCode::UnprovableMarking)),
            "proved a marking the oracle refutes at pc {pc}:\noracle: {}\nvalidator:\n{}",
            d.message,
            p.report.render(),
        );
    }
    for s in p.report.with_code(LintCode::DisprovedMarking) {
        let pc = s.pc.expect("S401 carries a pc");
        let wb = witness_block(&s.message);
        let wl = LaunchConfig::new(1u32, wb).with_params(fx.launch.params.clone());
        let replay = oracle::check(&fx.ck, &wl, fx.memory.clone());
        assert!(
            replay.items.iter().any(|d| d.pc == Some(pc) && unsound.contains(&d.code)),
            "S401 witness at pc {pc} does not reproduce on block {wb:?}:\n{}\n{}",
            s.message,
            replay.render(),
        );
    }
    (findings.iter().filter_map(|d| d.pc).collect(), p.report)
}

/// Vacuity guard: forging every claimable pc of a warpid-mixing kernel
/// (pool entry 2 is `warpid`) draws real oracle refutations, and the
/// validator disproves each of them (`S401`), so the property bites.
#[test]
fn forged_warpid_sum_is_refuted_by_both_sides() {
    let recipe = Recipe {
        grid: Dim3::one_d(1),
        block: Dim3::one_d(64),
        body: vec![Stmt::Alu(Op::IAdd, [2, 2, 0])],
    };
    let mut fx = recipe.build();
    for (pc, i) in fx.ck.kernel.instrs.iter().enumerate() {
        if i.op.writes_dst() {
            fx.ck.markings[pc] = Marking::Redundant;
        }
    }
    let (refuted, report) = never_proves_what_the_oracle_refutes(&fx);
    assert!(!refuted.is_empty(), "the forgery must be refutable");
    let disproved = report.with_code(LintCode::DisprovedMarking);
    for pc in refuted {
        assert!(disproved.iter().any(|s| s.pc == Some(pc)), "pc {pc}:\n{}", report.render());
    }
}

#[test]
fn symex_never_proves_what_the_oracle_refutes() {
    check(32, Footprint::RaceFree, |r| {
        let mut fx = r.build();
        forge(&mut fx.ck);
        never_proves_what_the_oracle_refutes(&fx);
    });
}
