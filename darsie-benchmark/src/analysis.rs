//! The analysis workload: the correctness stack that gates every change,
//! run per catalog kernel with no cycle-level simulation.

use crate::run::{catch, Clock, Ledger, Pass, Runner, Span};
use darsie_bench::eval_gpu;
use gpu_sim::digest::{fold, FNV_OFFSET};
use gpu_sim::{GpuConfig, Technique};
use simt_isa::LaunchConfig;
use simt_verify::blocks::{self, BlockIndependence};
use simt_verify::family::{self, FamilyVerdict};
use simt_verify::{cost, symex, Diagnostics, LintCode};
use std::collections::BTreeMap;
use workloads::Workload;

/// Member launches certified per kernel: the sample size of the
/// `certify --family` differential gate.
pub const MEMBERS: usize = 25;

/// The timed calls of one kernel, in visiting order; `op_walls` holds
/// them at `kernel * CALLS.len() + call`.
const CALLS: [&str; 6] =
    ["verify_full", "prove", "certify", "certify_family", "member_certify", "estimate"];

/// What one kernel's calls returned, as integers that must repeat exactly.
#[derive(Clone, Default, PartialEq)]
struct Outputs {
    warnings: u64,
    claims_proved: u64,
    claims_unknown: u64,
    fuel_used: u64,
    terms: u64,
    family_proved: u64,
    family_sampled: u64,
    pairs_checked: u64,
    pairs_proved: u64,
    member_launches: u64,
    unbounded_loops: u64,
    /// Finding counts, classifications and cycle brackets.
    detail: Vec<u64>,
}

pub struct Analysis<'a> {
    catalog: &'a [Workload],
    gc: GpuConfig,
    members: Vec<Vec<LaunchConfig>>,
    reference: Vec<Option<Outputs>>,
}

impl<'a> Analysis<'a> {
    /// The stack over `catalog`, with family certification and cost
    /// estimates on `eval_gpu(4)`. Member launches are the deterministic
    /// sample the differential gate draws, so the amount of work does not
    /// depend on the run's seed.
    pub fn new(catalog: &'a [Workload]) -> Analysis<'a> {
        let members = catalog
            .iter()
            .map(|w| w.family.sample(family::sample_seed(&w.ck.kernel.name), MEMBERS, &w.launch))
            .collect();
        Analysis { catalog, gc: eval_gpu(4), members, reference: vec![None; catalog.len()] }
    }

    /// Runs every call on kernel `k`, adding each call's wall time to
    /// `walls` and its allocation bytes to `bytes`.
    fn kernel(
        &self,
        k: usize,
        clock: &mut Clock,
        ledger: &mut Ledger,
        walls: &mut [f64],
        bytes: &mut u64,
    ) -> Outputs {
        let w = &self.catalog[k];
        let abbr = w.abbr;
        let at = |call: &'static str| move || format!("analysis/{abbr}/{call}");
        let mut o = Outputs::default();
        let mut timed = |call: usize, span: Span| {
            walls[call] += span.wall;
            *bytes += span.alloc_bytes;
        };

        let (r, span) = clock.time(at(CALLS[0]), || {
            catch(|| simt_verify::verify_full(&w.ck, &w.launch, w.memory.clone()))
        });
        timed(0, span);
        let outcome = r.and_then(|d| {
            o.warnings = d.warning_count() as u64;
            o.detail.extend([d.error_count() as u64, d.items.len() as u64]);
            clean(&d)
        });
        ledger.record(at(CALLS[0]), outcome);

        let (r, span) = clock
            .time(at(CALLS[1]), || catch(|| symex::prove(&w.ck, Some((&w.launch, &w.memory)))));
        timed(1, span);
        let outcome = r.and_then(|p| {
            let s = p.stats;
            (o.claims_proved, o.claims_unknown) = (s.proved as u64, s.unknown as u64);
            (o.fuel_used, o.terms) = (s.fuel_used as u64, s.terms as u64);
            o.detail.push(s.disproved as u64);
            clean(&p.report)
        });
        ledger.record(at(CALLS[1]), outcome);

        let (r, span) = clock
            .time(at(CALLS[2]), || catch(|| blocks::certify(&w.ck, &w.launch, w.memory.clone())));
        timed(2, span);
        let outcome = r.and_then(|(cert, report)| {
            o.detail.extend([cert.classification as u64, report.items.len() as u64]);
            let races = report.with_code(LintCode::InterBlockRace).len()
                + report.with_code(LintCode::InterBlockRaceDynamic).len();
            if races == 0 {
                Ok(())
            } else {
                Err(format!("{races} V310/V312 inter-block race finding(s)"))
            }
        });
        ledger.record(at(CALLS[2]), outcome);

        let (r, span) = clock.time(at(CALLS[3]), || {
            catch(|| family::certify_family(&w.ck, &w.family, &w.launch, &w.memory, &self.gc))
        });
        timed(3, span);
        let mut verdict = None;
        let outcome =
            r.and_then(|c| c.map_err(|e| format!("malformed family region: {e}"))).and_then(|c| {
                verdict = Some(c.verdict);
                o.family_proved = u64::from(c.verdict == FamilyVerdict::FamilyProved);
                o.family_sampled = u64::from(c.verdict == FamilyVerdict::FamilySampled);
                (o.pairs_checked, o.pairs_proved) = (c.checked_pairs as u64, c.proved_pairs as u64);
                o.detail.extend([c.classification as u64, c.unresolved.len() as u64]);
                if c.verdict == FamilyVerdict::PerLaunchOnly {
                    Err(format!("family refuted: {}", c.notes.join("; ")))
                } else {
                    Ok(())
                }
            });
        ledger.record(at(CALLS[3]), outcome);

        for l in &self.members[k] {
            let (r, span) = clock.time(at(CALLS[4]), || {
                catch(|| blocks::certify(&w.ck, l, w.memory.clone()).0.classification)
            });
            timed(4, span);
            o.member_launches += 1;
            let outcome = r.and_then(|class| {
                o.detail.push(class as u64);
                let certified = matches!(
                    verdict,
                    Some(FamilyVerdict::FamilyProved | FamilyVerdict::FamilySampled)
                );
                if class == BlockIndependence::PotentiallyRacy && certified {
                    Err(format!(
                        "member grid ({},{}) block ({},{},{}) is potentially racy under a {} family",
                        l.grid.x,
                        l.grid.y,
                        l.block.x,
                        l.block.y,
                        l.block.z,
                        verdict.map_or("", FamilyVerdict::label)
                    ))
                } else {
                    Ok(())
                }
            });
            ledger.record(at(CALLS[4]), outcome);
        }

        for tech in [Technique::Base, Technique::darsie()] {
            let label = tech.label();
            let name = move || format!("analysis/{abbr}/{label}/estimate");
            let (r, span) =
                clock.time(name, || catch(|| cost::estimate(&w.ck, &w.launch, &self.gc, &tech)));
            timed(5, span);
            let outcome = r.map(|e| {
                o.unbounded_loops += e.loops.iter().filter(|l| l.trips.is_err()).count() as u64;
                o.detail.extend([e.min_cycles, e.max_cycles.unwrap_or(u64::MAX)]);
            });
            ledger.record(name, outcome);
        }
        o
    }
}

/// Fails on any error-severity finding, naming the codes.
fn clean(d: &Diagnostics) -> Result<(), String> {
    if d.is_clean() {
        return Ok(());
    }
    let codes: Vec<&str> = d
        .items
        .iter()
        .filter(|i| i.severity == simt_verify::Severity::Error)
        .map(|i| i.code.code())
        .collect();
    Err(format!("error finding(s): {}", codes.join(", ")))
}

impl Runner for Analysis<'_> {
    fn units(&self) -> usize {
        self.catalog.len()
    }

    fn pass(&mut self, order: &[usize], clock: &mut Clock, ledger: &mut Ledger) -> Pass {
        let mut op_walls = vec![0.0; self.catalog.len() * CALLS.len()];
        let mut bytes = 0u64;
        for &k in order {
            let abbr = self.catalog[k].abbr;
            let walls = &mut op_walls[k * CALLS.len()..(k + 1) * CALLS.len()];
            let out = clock.group(
                || format!("analysis/{abbr}"),
                |clock| self.kernel(k, clock, ledger, walls, &mut bytes),
            );
            let repeat = match &self.reference[k] {
                Some(r) if *r != out => Err("outputs differ from the first pass".to_string()),
                _ => Ok(()),
            };
            ledger.record(|| format!("analysis/{abbr}/repeat"), repeat);
            self.reference[k].get_or_insert(out);
        }
        let host = if clock.traced() {
            let call_s = |i: usize| op_walls.iter().skip(i).step_by(CALLS.len()).sum::<f64>();
            vec![
                ("simt_verify.verify_full_s", call_s(0)),
                ("simt_verify.prove_s", call_s(1)),
                ("simt_verify.certify_s", call_s(2)),
                ("simt_verify.certify_family_s", call_s(3)),
                ("simt_verify.member_certify_s", call_s(4)),
                ("simt_verify.estimate_s", call_s(5)),
                ("simt_verify.alloc_mb", bytes as f64 / 1e6),
            ]
        } else {
            Vec::new()
        };
        Pass { op_walls, host }
    }

    fn model(&self) -> Vec<(&'static str, f64)> {
        let c = self.counters();
        ["claims_proved", "claims_unknown", "family_proved", "family_sampled"]
            .into_iter()
            .map(|n| (n, c[&format!("simt_verify.{n}")]))
            .collect()
    }

    fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for o in self.reference.iter().flatten() {
            for v in o.detail.iter().chain(&counts(o).map(|(_, v)| v)) {
                fold(&mut h, *v);
            }
        }
        h
    }

    fn counters(&self) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        for o in self.reference.iter().flatten() {
            for (name, v) in counts(o) {
                *m.entry(format!("simt_verify.{name}")).or_insert(0.0) += v as f64;
            }
        }
        m
    }
}

fn counts(o: &Outputs) -> [(&'static str, u64); 11] {
    [
        ("claims_proved", o.claims_proved),
        ("claims_unknown", o.claims_unknown),
        ("fuel_used", o.fuel_used),
        ("terms", o.terms),
        ("family_proved", o.family_proved),
        ("family_sampled", o.family_sampled),
        ("pairs_checked", o.pairs_checked),
        ("pairs_proved", o.pairs_proved),
        ("member_launches", o.member_launches),
        ("unbounded_loops", o.unbounded_loops),
        ("warnings", o.warnings),
    ]
}
