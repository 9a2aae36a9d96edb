//! Differential property tests between the symbolic translation
//! validator and the marking oracle: on randomly generated kernels with
//! randomly *forged* redundancy markings, anything the oracle refutes on
//! a real execution must come out of `symex::prove` as `S401` or `S402`
//! — never as a proof — and every `S401` counterexample must reproduce a
//! real marking violation when the named block shape is handed to the
//! functional executor.

use proptest::prelude::*;
use simt_isa::{Dim3, LaunchConfig, Marking, Op};
use simt_verify::{oracle, symex, LintCode};

mod common;
use common::{build, launches, memory_with_input, stmt_strategy, Stmt};

/// Forges `Redundant`/`CondRedundant` markings onto claimable pcs.
fn forge(ck: &mut simt_compiler::CompiledKernel, tamper: &[(usize, bool)]) {
    for &(i, dr) in tamper {
        let pc = i % ck.kernel.instrs.len();
        let instr = &ck.kernel.instrs[pc];
        if instr.op.writes_dst() && instr.dst.is_some() && !matches!(instr.op, Op::Atom(_)) {
            ck.markings[pc] = if dr { Marking::Redundant } else { Marking::ConditionallyRedundant };
        }
    }
}

/// Parses the `block (bx,by)` witness out of an `S401` message.
fn witness_block(msg: &str) -> (u32, u32) {
    let dims = msg.split("block (").nth(1).and_then(|s| s.split(')').next()).expect("dims");
    let (bx, by) = dims.split_once(',').expect("two dims");
    (bx.trim().parse().unwrap(), by.trim().parse().unwrap())
}

/// Vacuity guard for the property below: forging *every* claimable pc of
/// a warpid-mixing kernel must produce real oracle refutations, and each
/// of them must come back from the validator as `S401` (with the warpid
/// sum among them) — so the differential property is known to bite.
#[test]
fn forged_warpid_sum_is_refuted_by_both_sides() {
    let stmts = vec![Stmt::Add(2, 2)]; // pool[2] is warpid
    let block = Dim3::one_d(64);
    let mut ck = build("random_forged", &stmts, block);
    let all: Vec<(usize, bool)> = (0..ck.kernel.instrs.len()).map(|i| (i, true)).collect();
    forge(&mut ck, &all);
    let input: Vec<u32> = (0..64).collect();
    let (memory, params) = memory_with_input(&input);
    let launch = LaunchConfig::new(1u32, block).with_params(params);
    let refuted = oracle::check(&ck, &launch, memory.clone());
    assert!(
        !refuted.with_code(LintCode::UnsoundMarking).is_empty(),
        "the forgery must be refutable:\n{}",
        refuted.render()
    );
    let p = symex::prove(&ck, Some((&launch, &memory)));
    for d in refuted.with_code(LintCode::UnsoundMarking) {
        assert!(
            p.report.with_code(LintCode::DisprovedMarking).iter().any(|s| s.pc == d.pc),
            "pc {:?} refuted by the oracle but not disproved:\n{}",
            d.pc,
            p.report.render()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Soundness both ways: (a) any marking the oracle refutes on a real
    /// launch is `S401` or `S402` under the validator — never proved;
    /// (b) any `S401` the validator emits names a block shape on which
    /// the executor really observes the violation at the same pc.
    #[test]
    fn symex_never_proves_what_the_oracle_refutes(
        stmts in prop::collection::vec(stmt_strategy(), 1..10),
        input in prop::collection::vec(0u32..1000, 64),
        tamper in prop::collection::vec((0usize..64, any::<bool>()), 1..4),
    ) {
        for block in launches() {
            let mut ck = build("random_forged", &stmts, block);
            forge(&mut ck, &tamper);
            let (memory, params) = memory_with_input(&input);
            let launch = LaunchConfig::new(1u32, block).with_params(params.clone());
            let p = symex::prove(&ck, Some((&launch, &memory)));

            let refuted = oracle::check(&ck, &launch, memory.clone());
            for d in refuted
                .with_code(LintCode::UnsoundMarking)
                .iter()
                .chain(refuted.with_code(LintCode::UnsoundPromotion).iter())
            {
                let pc = d.pc.expect("oracle findings carry a pc");
                prop_assert!(
                    p.report.items.iter().any(|s| {
                        s.pc == Some(pc)
                            && matches!(
                                s.code,
                                LintCode::DisprovedMarking | LintCode::UnprovableMarking
                            )
                    }),
                    "validator proved a marking the oracle refutes at pc {pc} under \
                     {block:?}:\noracle: {}\nvalidator:\n{}",
                    d.message,
                    p.report.render(),
                );
            }

            for s in p.report.with_code(LintCode::DisprovedMarking) {
                let pc = s.pc.expect("S401 carries a pc");
                let wb = witness_block(&s.message);
                let wl = LaunchConfig::new(1u32, wb).with_params(params.clone());
                let replay = oracle::check(&ck, &wl, memory.clone());
                prop_assert!(
                    replay
                        .items
                        .iter()
                        .any(|d| d.pc == Some(pc)
                            && matches!(
                                d.code,
                                LintCode::UnsoundMarking | LintCode::UnsoundPromotion
                            )),
                    "S401 witness at pc {pc} does not reproduce on block {wb:?}:\n{}\n{}",
                    s.message,
                    replay.render(),
                );
            }
        }
    }
}
