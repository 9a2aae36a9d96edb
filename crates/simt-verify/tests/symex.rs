//! End-to-end tests for the symbolic translation validator: the whole
//! workload catalog must prove clean, each forged-claim fixture must pin
//! its lint (with its negative control staying silent), and every `S401`
//! counterexample must be independently reproducible through the
//! functional executor.

use simt_isa::{LaunchConfig, Marking, Op, Operand};
use simt_verify::{oracle, symex, verify_full, LintCode};
use workloads::{catalog, fixtures, Scale};

/// Every catalog workload's markings and branch claims hold for their
/// entire quantified launch family — and today's engine proves all of
/// them outright (no budget exhaustion, no `S402` escapes).
#[test]
fn catalog_proves_clean_for_the_whole_family() {
    for w in catalog(Scale::Test) {
        let p = symex::prove(&w.ck, Some((&w.launch, &w.memory)));
        assert!(
            p.report.with_code(LintCode::DisprovedMarking).is_empty()
                && p.report.with_code(LintCode::BranchSyncViolation).is_empty(),
            "{}: {}",
            w.name,
            p.report.render()
        );
        assert!(p.stats.complete, "{}: symbolic execution exhausted its budget", w.name);
        assert_eq!(
            p.stats.unknown,
            0,
            "{}: {} claim(s) left unproved:\n{}",
            w.name,
            p.stats.unknown,
            p.report.render()
        );
        assert!(p.stats.value_claims > 0, "{}: no claims examined", w.name);
        assert_eq!(p.stats.proved, p.stats.value_claims + p.stats.branch_claims, "{}", w.name);
    }
}

#[test]
fn forged_dr_is_disproved_with_confirmed_counterexample() {
    let f = fixtures::symex_forged_dr();
    let p = symex::prove(&f.ck, Some((&f.launch, &f.memory)));
    let s401 = p.report.with_code(LintCode::DisprovedMarking);
    assert_eq!(s401.len(), 1, "{}", p.report.render());
    let tampered =
        f.ck.kernel
            .instrs
            .iter()
            .position(|i| i.op == Op::IAdd && i.srcs.get(1) == Some(&Operand::Imm(5)));
    assert_eq!(s401[0].pc, tampered, "S401 must point at the forged marking");
    assert!(
        s401[0].message.contains("confirmed by functional replay"),
        "counterexamples must be replay-confirmed: {}",
        s401[0].message
    );
    assert_eq!(p.stats.disproved, 1);
    assert!(p.report.with_code(LintCode::UnprovableMarking).is_empty(), "no hedging on a disproof");
}

/// A parameter word read at a warp-dependent address is as uniform as
/// its address, so a forged DR on a value computed from it is refuted,
/// not proved.
#[test]
fn forged_param_dr_is_disproved_with_confirmed_counterexample() {
    let f = fixtures::symex_forged_param();
    let p = symex::prove(&f.ck, Some((&f.launch, &f.memory)));
    let s401 = p.report.with_code(LintCode::DisprovedMarking);
    assert_eq!(s401.len(), 1, "{}", p.report.render());
    let tampered =
        f.ck.kernel
            .instrs
            .iter()
            .position(|i| i.op == Op::IAdd && i.srcs.get(1) == Some(&Operand::Imm(5)));
    assert_eq!(s401[0].pc, tampered, "S401 must point at the forged marking");
    assert!(s401[0].message.contains("confirmed by functional replay"), "{}", s401[0].message);
    assert_eq!(p.stats.disproved, 1);
}

/// A forged CR on a `tid.z` value holds in every 2D block; the prover's
/// 3D candidate block refutes it, and the functional executor confirms
/// the counterexample.
#[test]
fn forged_tid_z_cr_is_disproved_in_a_3d_block() {
    let f = fixtures::symex_forged_tid_z();
    let p = symex::prove(&f.ck, Some((&f.launch, &f.memory)));
    let s401 = p.report.with_code(LintCode::DisprovedMarking);
    assert_eq!(s401.len(), 1, "{}", p.report.render());
    let tampered =
        f.ck.kernel
            .instrs
            .iter()
            .position(|i| i.op == Op::IAdd && i.srcs.get(1) == Some(&Operand::Imm(5)));
    assert_eq!(s401[0].pc, tampered, "S401 must point at the forged marking");
    assert_eq!(
        s401[0].message,
        "CR marking disproved for block (16,2,2): lane 0 sees 0x5 in warp 0 but 0x6 in warp 1; \
         value (iadd %tid.z 5); counterexample confirmed by functional replay (V202)"
    );
    assert_eq!((p.stats.disproved, p.stats.unknown), (1, 0));
    let launch = LaunchConfig::new(1u32, (16u32, 2u32, 2u32)).with_params(f.launch.params.clone());
    let replay = oracle::check(&f.ck, &launch, f.memory.clone());
    assert!(
        replay.with_code(LintCode::UnsoundPromotion).iter().any(|d| d.pc == s401[0].pc),
        "executor does not confirm the witness:\n{}",
        replay.render()
    );
    // Classed `CondRedundantXY`, the claim holds only under the xy
    // promotion, whose blocks need not be single-warp: (16,2,2) still
    // refutes it.
    let mut f = f;
    let pc = s401[0].pc.expect("S401 carries a pc");
    f.ck.classes[pc].red = simt_compiler::Red::CondRedundantXY;
    let p = symex::prove(&f.ck, Some((&f.launch, &f.memory)));
    let s401 = p.report.with_code(LintCode::DisprovedMarking);
    assert_eq!(s401.len(), 1, "{}", p.report.render());
    assert!(s401[0].message.contains("block (16,2,2)"), "{}", s401[0].message);
}

/// The no-false-witness property, checked from the outside: the block
/// shape named in the `S401` message really does make the functional
/// executor observe non-redundant vectors at the same pc.
#[test]
fn forged_dr_counterexample_reproduces_in_the_executor() {
    let f = fixtures::symex_forged_dr();
    let p = symex::prove(&f.ck, Some((&f.launch, &f.memory)));
    let s401 = p.report.with_code(LintCode::DisprovedMarking);
    assert_eq!(s401.len(), 1);
    let msg = &s401[0].message;
    let dims = msg.split("block (").nth(1).and_then(|s| s.split(')').next()).expect("dims in msg");
    let (bx, by) = dims.split_once(',').expect("two dims");
    let block = (bx.trim().parse::<u32>().unwrap(), by.trim().parse::<u32>().unwrap());
    let launch = LaunchConfig::new(1u32, block).with_params(f.launch.params.clone());
    let replay = oracle::check(&f.ck, &launch, f.memory.clone());
    assert!(
        replay.with_code(LintCode::UnsoundMarking).iter().any(|d| d.pc == s401[0].pc),
        "executor does not confirm the witness:\n{}",
        replay.render()
    );
}

/// Negative control, and the term domain earning its keep: a laneid
/// chain is definitely redundant but never TB-uniform, so the affine
/// fallback alone cannot prove it.
#[test]
fn lane_dr_proves_clean_via_the_term_domain() {
    let f = fixtures::symex_lane_dr();
    let dr = f.ck.markings.iter().filter(|m| **m == Marking::Redundant).count();
    assert!(dr >= 2, "laneid chain must be DR-marked (got {dr})");
    let p = symex::prove(&f.ck, Some((&f.launch, &f.memory)));
    assert!(p.report.is_clean() && p.report.warning_count() == 0, "{}", p.report.render());
    assert_eq!(p.stats.proved, p.stats.value_claims + p.stats.branch_claims);
}

#[test]
fn opaque_escape_is_unprovable_not_disproved() {
    let f = fixtures::symex_opaque_escape();
    let p = symex::prove(&f.ck, Some((&f.launch, &f.memory)));
    let s402 = p.report.with_code(LintCode::UnprovableMarking);
    assert_eq!(s402.len(), 1, "{}", p.report.render());
    assert!(
        p.report.with_code(LintCode::DisprovedMarking).is_empty(),
        "an unevaluable escape must never fabricate a counterexample"
    );
    let tampered =
        f.ck.kernel
            .instrs
            .iter()
            .position(|i| i.op == Op::IAdd && i.srcs.get(1) == Some(&Operand::Imm(0)));
    assert_eq!(s402[0].pc, tampered);
}

#[test]
fn opaque_control_proves_clean() {
    let f = fixtures::symex_opaque_control();
    let p = symex::prove(&f.ck, Some((&f.launch, &f.memory)));
    assert!(p.report.is_clean() && p.report.warning_count() == 0, "{}", p.report.render());
}

#[test]
fn forged_uniform_branch_is_a_sync_violation() {
    let f = fixtures::symex_forged_uniform_branch();
    let p = symex::prove(&f.ck, Some((&f.launch, &f.memory)));
    let s403 = p.report.with_code(LintCode::BranchSyncViolation);
    assert_eq!(s403.len(), 1, "{}", p.report.render());
    let bra =
        f.ck.kernel.instrs.iter().position(|i| matches!(i.op, Op::Bra { .. }) && i.guard.is_some());
    assert_eq!(s403[0].pc, bra);
    assert!(s403[0].message.contains("threads disagree"), "{}", s403[0].message);
}

#[test]
fn honest_uniform_branch_proves_clean() {
    let f = fixtures::symex_uniform_branch();
    let p = symex::prove(&f.ck, Some((&f.launch, &f.memory)));
    assert!(p.report.is_clean() && p.report.warning_count() == 0, "{}", p.report.render());
    assert_eq!(p.stats.branch_claims, 1, "the ntid.x branch must be claimed uniform");
}

/// The validator runs as part of `verify_full`, so a forged marking
/// surfaces without any dedicated invocation.
#[test]
fn verify_full_carries_symex_findings() {
    let f = fixtures::symex_forged_dr();
    let r = verify_full(&f.ck, &f.launch, f.memory.clone());
    assert!(
        !r.with_code(LintCode::DisprovedMarking).is_empty(),
        "verify_full must include S401:\n{}",
        r.render()
    );
}

/// Proving without any reference launch (no parameters, zeroed memory)
/// still works — the candidate blocks carry the quantification.
#[test]
fn prove_without_reference_still_disproves_forgeries() {
    let f = fixtures::symex_forged_dr();
    let p = symex::prove(&f.ck, None);
    assert_eq!(p.report.with_code(LintCode::DisprovedMarking).len(), 1, "{}", p.report.render());
}

/// The summarization payoff: a reduction loop whose trip count is a
/// launch parameter proves outright instead of exhausting the fork
/// budget — the body's dependency sets close to empty, so the (true)
/// DR on the accumulator discharges for every launch.
#[test]
fn symbolic_trip_reduction_proves_clean() {
    let f = fixtures::symex_loop_reduction();
    let p = symex::prove(&f.ck, Some((&f.launch, &f.memory)));
    assert!(p.stats.complete, "summarization must cover the parameter-trip loop");
    assert!(p.report.is_clean() && p.report.warning_count() == 0, "{}", p.report.render());
    assert_eq!(p.stats.unknown, 0, "{}", p.report.render());
    assert_eq!(p.stats.proved, p.stats.value_claims + p.stats.branch_claims);
}

/// Summarization's negative control: the same loop with a warp-dependent
/// trip count completes but must stay `S402` — the trip-condition taint
/// reaches the forged claim, and no concrete witness exists.
#[test]
fn warp_trip_control_stays_unknown() {
    let f = fixtures::symex_warp_trip_control();
    let p = symex::prove(&f.ck, Some((&f.launch, &f.memory)));
    assert!(p.stats.complete, "summarization must still cover the warp-trip loop");
    assert!(p.report.with_code(LintCode::DisprovedMarking).is_empty(), "{}", p.report.render());
    let s402 = p.report.with_code(LintCode::UnprovableMarking);
    assert_eq!(s402.len(), 1, "{}", p.report.render());
    assert!(s402[0].message.contains("warpid"), "{}", s402[0].message);
}

/// The uniformity-bit payoff: with the symbolic engine aborted by a
/// thread-partial exit, only the affine fallback is left — and the
/// claimed value's interval is uniform without being exact. The
/// TB-uniform bit must carry the proof.
#[test]
fn uniform_base_proves_via_the_uniformity_bit() {
    let f = fixtures::symex_uniform_base();
    let p = symex::prove(&f.ck, Some((&f.launch, &f.memory)));
    assert!(!p.stats.complete, "the partial exit must abort the term domain");
    assert!(p.report.is_clean() && p.report.warning_count() == 0, "{}", p.report.render());
    assert_eq!(p.stats.unknown, 0, "{}", p.report.render());
}

/// The uniformity bit's negative control: the same uniform value behind
/// a thread-divergent guard must not be proved (the write is partial)
/// and cannot be refuted (both concrete sides read zero) — an honest
/// `S402`, with the ledger blaming the term-domain escape.
#[test]
fn divergent_write_control_stays_unknown() {
    let f = fixtures::symex_divergent_write_control();
    let p = symex::prove(&f.ck, Some((&f.launch, &f.memory)));
    assert!(p.stats.complete);
    assert!(p.report.with_code(LintCode::DisprovedMarking).is_empty(), "{}", p.report.render());
    let s402 = p.report.with_code(LintCode::UnprovableMarking);
    assert_eq!(s402.len(), 1, "{}", p.report.render());
    let claim = p.claims.iter().find(|c| c.verdict == symex::Verdict::Unknown).unwrap();
    assert_eq!(claim.unknown_reason, Some(symex::UnknownReason::TermEscape));
}

/// A warp-dependent-trip loop (`while (i < warpid) i++`) used to exhaust
/// the fork budget; loop summarization now covers it, so the run is
/// *complete* — but the forged DR on the increment must still degrade to
/// `S402`: the loop's trip condition depends on `warpid`, and that taint
/// flows into every in-loop visit. The recorded first-iteration terms
/// are constants, so no concrete witness exists — never a false proof,
/// never an unconfirmed disproof.
#[test]
fn symbolic_loop_degrades_to_unknown() {
    use simt_isa::{CmpOp, Guard, KernelBuilder, MemSpace, SpecialReg};
    let mut b = KernelBuilder::new("symbolic_loop");
    let w = b.special(SpecialReg::WarpId);
    let i = b.alloc();
    b.mov_to(i, 0u32);
    let top = b.here();
    b.iadd_to(i, i, 1u32);
    let p = b.setp(CmpOp::Lt, i, w);
    b.branch_back_if(top, Guard::if_true(p));
    let t = b.special(SpecialReg::TidX);
    let out = b.param(0);
    let off = b.shl_imm(t, 2);
    let addr = b.iadd(out, off);
    b.store(MemSpace::Global, addr, i, 0);
    let mut ck = simt_compiler::compile(b.finish());
    let pc =
        ck.kernel.instrs.iter().position(|ins| ins.op == Op::IAdd && ins.dst == Some(i)).unwrap();
    ck.markings[pc] = Marking::Redundant;
    let res = symex::prove(&ck, None);
    assert!(res.stats.complete, "loop summarization must cover the symbolic loop");
    assert!(res.report.with_code(LintCode::DisprovedMarking).is_empty());
    let unprovable = res.report.with_code(LintCode::UnprovableMarking);
    assert!(unprovable.iter().any(|d| d.pc == Some(pc)), "{}", res.report.render());
    assert!(
        unprovable.iter().any(|d| d.pc == Some(pc) && d.message.contains("warpid")),
        "the S402 must blame the warp-dependent trip count: {}",
        res.report.render()
    );
    let claim = res.claims.iter().find(|c| c.pc == pc).expect("claim ledger entry");
    assert_eq!(claim.verdict, symex::Verdict::Unknown);
    assert_eq!(claim.unknown_reason, Some(symex::UnknownReason::TermEscape));
}
