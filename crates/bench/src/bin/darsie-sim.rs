//! Command-line simulator driver: run one benchmark under one technique
//! and print the full statistics and energy breakdown.
//!
//! ```text
//! darsie-sim MM --technique darsie --sms 4 --scale eval
//! darsie-sim LIB --technique base --scheduler lrr
//! darsie-sim --list
//! darsie-sim verify [ABBR ...] [--workload NAME] [--scale test|eval] [--json]
//! darsie-sim certify [ABBR ...] [--workload NAME] [--scale test|eval] [--json]
//! darsie-sim certify --family [ABBR ...] [--scale test|eval] [--json]
//! darsie-sim analyze [ABBR ...] [--workload NAME] [--scale test|eval] [--json]
//! darsie-sim prove [ABBR ...] [--workload NAME] [--scale test|eval] [--json]
//! darsie-sim profile [ABBR ...] [--workload NAME] [--scale test|eval] [--json] [--perfetto PATH]
//! darsie-sim estimate [ABBR ...] [--workload NAME] [--scale test|eval] [--json]
//! darsie-sim replay-diff [ABBR ...] [--scale test|eval] [--json] [--technique T] [--sms N]
//!            [--scheduler gto|lrr] [--against KEY=VALUE ...] [--perturb CYCLE]
//! darsie-sim lints [--json]
//! ```
//!
//! Every subcommand (and the bare benchmark mode) additionally accepts
//! `--manifest PATH`: a structured run manifest — tool version, config
//! fingerprint, per-phase wall/allocation spans, result counters and
//! digest roots — is written there on exit, success or failure. All modes
//! parse through one shared parser ([`Command::parse`]), so a repeated
//! single-valued flag is a usage error everywhere, and every document is
//! built as a [`Json`] tree. `verify`, `certify` and `certify --family`
//! shard their workloads over one pool of as many workers as the host
//! has hardware threads; rendering stays sequential and in selection
//! order, so every document is byte-identical whatever the host.
//!
//! The `verify` subcommand runs the `simt-verify` static checks (including
//! the shared-memory race detector) and the differential marking-soundness
//! oracle over the selected workloads (all of them by default) and exits
//! non-zero on any error-severity finding. `--json` swaps the report for a
//! machine-readable document for CI consumption, including per-lint-code
//! totals.
//!
//! The `certify` subcommand is the inter-thread-block independence
//! certifier, which establishes that block replay order is unobservable
//! for a launch: for each workload it runs the
//! static block-affine global-footprint analysis and then replays the
//! whole launch under the dynamic global-memory shadow sanitizer, and
//! reports the classification (`block-independent`,
//! `commutative-atomics-only` or `potentially-racy`) with any
//! `V310`–`V313` findings and the first concrete block-pair witness. It
//! exits non-zero on any error-severity finding (`V310`/`V312`).
//!
//! `certify --family` switches to launch-family-parametric mode: one
//! certificate per kernel covering the workload's whole declared
//! grid/block region, tiered `FamilyProved` / `FamilySampled` /
//! `PerLaunchOnly`, each cross-checked by a differential gate that
//! certifies `family::SAMPLES` (25) deterministic member launches
//! concretely. Exits non-zero on any refutation or disagreement.
//!
//! The `analyze` subcommand is the static performance analyzer: for each
//! workload it reports baseline vs refined marking counts and skip
//! coverage, the refinement upgrades by pass, blame-seed histograms for
//! the remaining vector markings, the measured dynamic-redundancy headroom
//! of the refined plan, and predicted-vs-measured shared-memory
//! bank-conflict and global-coalescing statistics (cross-validated against
//! a cycle-simulator run of the baseline technique). It exits non-zero if
//! the refined markings fail the soundness oracle or any memory prediction
//! bound excludes the measured counters.
//!
//! The `prove` subcommand runs the symbolic translation validator: for
//! each workload it discharges every redundancy-marking and branch-sync
//! claim over the whole launch family the marking quantifies over, and
//! reports per-workload proved/disproved/unknown counts plus a per-claim
//! ledger (`--json`) with verdicts, unknown reasons and evaluation costs.
//! Claims are judged in order; wall time is printed to stderr. It exits
//! non-zero on any disproof (`S401`) or branch-sync violation (`S403`).
//!
//! The `profile` subcommand runs each selected workload under the
//! baseline and DARSIE with cycle-accounted profiling: every issue slot
//! of every cycle is attributed to exactly one stall cause, and the
//! accounting identity (`Σ causes == cycles × schedulers × issue_width`)
//! is checked on every run — a violation exits non-zero. The report
//! breaks slots down by cause, lists the hottest PCs, and summarizes
//! leader-election latency and DARSIE structure occupancy. With
//! `--perfetto PATH` the DARSIE run's pipeline events are written as
//! Chrome trace-event JSON loadable in <https://ui.perfetto.dev>.
//!
//! The `estimate` subcommand is the differential gate for the static
//! cycle-bound cost model: for each selected workload it runs the
//! WCET-style estimator and the cycle simulator side by side, under both
//! the baseline and DARSIE, and exits non-zero if any measured cycle
//! count falls outside its static `[min, max]` bracket (`E202`).
//! Unboundable loop trip counts (`E201`) leave the upper bound open and
//! are reported as warnings, not failures. Its `--json` document also
//! carries each run's digest root and the DARSIE-over-Base speedup per
//! workload, which CI compares against the committed `BENCH_*.json`
//! baseline to catch speedup regressions and silent behavioral drift
//! (same speedup, different state).
//!
//! The `replay-diff` subcommand is the first-divergence bisector of the
//! determinism observatory: it runs each selected workload twice and
//! compares the epoch-chained state digests. Plain `replay-diff` is the
//! determinism gate (same spec twice; any divergence is a bug, exit 1);
//! `--against KEY=VALUE` varies the second run's technique/scheduler/SM
//! count and `--perturb CYCLE` injects a one-word global-memory flip —
//! both hunts localize the first divergent epoch by binary search, re-run
//! at per-cycle cadence inside the bracketing window, and name the chain,
//! cycle, component and warp that first disagreed.
//!
//! The `lints` subcommand prints the registry of every lint the verifier
//! can emit — code, severity, producing pass and a one-line description —
//! generated from the `LintCode` enum itself so it can never go stale.

use darsie::DarsieConfig;
use darsie_bench::json::Json;
use darsie_bench::manifest::{json_header, RunManifest};
use darsie_bench::perfetto::chrome_trace;
use darsie_bench::replay::{replay_diff, RunSpec};
use gpu_energy::EnergyModel;
use gpu_sim::{GpuConfig, Perturb, SchedulerPolicy, Technique};
use simt_compiler::LaunchPlan;
use simt_isa::Dim3;
use simt_verify::perf::{MemPredKind, MemPrediction};
use simt_verify::{Diagnostic, Diagnostics};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::slice::Iter;
use workloads::{by_abbr, catalog, Scale, Workload};

/// Count allocation traffic so manifest phase spans carry
/// `alloc_bytes`/`allocs` alongside wall time.
#[global_allocator]
static ALLOC: darsie_bench::manifest::CountingAlloc = darsie_bench::manifest::CountingAlloc;

fn usage() -> ! {
    eprintln!(
        "usage: darsie-sim <ABBR> [options]   |   darsie-sim --list   |   \
         darsie-sim verify [ABBR ...] [--workload NAME] [--scale test|eval] [--json]   |   \
         darsie-sim certify [ABBR ...] [--workload NAME] [--scale test|eval] [--json] \
         [--family]   |   \
         darsie-sim analyze [ABBR ...] [--workload NAME] [--scale test|eval] [--json]   |   \
         darsie-sim prove [ABBR ...] [--workload NAME] [--scale test|eval] [--json]   |   \
         darsie-sim profile [ABBR ...] [--workload NAME] [--scale test|eval] [--json] \
         [--perfetto PATH]   |   \
         darsie-sim estimate [ABBR ...] [--workload NAME] [--scale test|eval] [--json]   |   \
         darsie-sim replay-diff [ABBR ...] [--workload NAME] [--scale test|eval] [--json] \
         [--technique T] [--sms N] [--scheduler gto|lrr] [--against KEY=VALUE ...] \
         [--perturb CYCLE]   |   \
         darsie-sim lints [--json]\n\
         every subcommand also accepts --manifest PATH (structured run telemetry)\n\
         options:\n\
           --technique base|uv|dac|darsie|darsie-ignore-store|darsie-no-cf-sync|silicon-sync\n\
           --scale test|eval        (default eval)\n\
           --sms N                  (default 4)\n\
           --scheduler gto|lrr      (default gto)\n\
           --skip-entries N         (default 8)\n\
           --rename-regs N          (default 32)\n\
           --skip-ports N           (default 2)\n\
           --max-leader-stall N     (default 64)\n\
           --trace N                print the first N pipeline events"
    );
    std::process::exit(2);
}

/// Comma-separated catalog abbreviations for "unknown workload" errors.
fn known_abbrs() -> String {
    catalog(Scale::Test).iter().map(|w| w.abbr).collect::<Vec<_>>().join(", ")
}

/// Rejects an unknown benchmark/workload name, listing the valid ones.
fn unknown_workload(kind: &str, name: &str) -> ! {
    eprintln!("unknown {kind} `{name}`; valid abbreviations: {}", known_abbrs());
    std::process::exit(2);
}

/// Rejects a repeated single-valued flag: taking the last occurrence
/// silently hides a typo in scripts, so it is a usage error instead.
fn duplicate_flag(flag: &str) -> ! {
    eprintln!("duplicate {flag}: each flag may be given at most once");
    std::process::exit(2);
}

/// The value after a flag; a missing one is a usage error.
fn value(it: &mut Iter<String>) -> String {
    it.next().cloned().unwrap_or_else(|| usage())
}

/// The value after a flag, parsed; a missing or malformed one is a usage
/// error.
fn number<T: std::str::FromStr>(it: &mut Iter<String>) -> T {
    value(it).parse().unwrap_or_else(|_| usage())
}

/// A count that must be at least 1. Zero SMs or skip-table ports leave
/// nothing to run on — an empty GPU panics and a portless skip table
/// never grants a probe — so anything else exits 2 with a message.
fn positive(flag: &str, v: Option<&str>) -> usize {
    match v.and_then(|n| n.parse::<usize>().ok()).filter(|&n| n >= 1) {
        Some(n) => n,
        None => {
            eprintln!("{flag} expects a positive integer");
            std::process::exit(2);
        }
    }
}

/// Parses a technique name; the DARSIE variants start from `dcfg`.
fn parse_technique(name: &str, dcfg: DarsieConfig) -> Technique {
    match name {
        "base" => Technique::Base,
        "uv" => Technique::Uv,
        "dac" | "dac-ideal" => Technique::DacIdeal,
        "darsie" => Technique::Darsie(dcfg),
        "darsie-ignore-store" => Technique::Darsie(DarsieConfig { ignore_store: true, ..dcfg }),
        "darsie-no-cf-sync" => Technique::Darsie(DarsieConfig { no_cf_sync: true, ..dcfg }),
        "silicon-sync" => Technique::SiliconSync,
        _ => usage(),
    }
}

fn parse_scheduler(name: &str) -> SchedulerPolicy {
    match name {
        "gto" => SchedulerPolicy::Gto,
        "lrr" => SchedulerPolicy::Lrr,
        _ => usage(),
    }
}

/// One `darsie-sim` mode: which shared flags it takes, and its body.
struct Command {
    name: &'static str,
    /// Default `--scale`; `None` when the mode takes no `--scale`.
    scale: Option<Scale>,
    /// Takes a workload selection (positional abbreviations and/or
    /// `--workload NAME` filters matching the abbreviation or full name,
    /// case-insensitively; the whole catalog when empty).
    select: bool,
    /// Takes `--json`.
    json: bool,
    run: fn(&Command, &[String]),
}

/// What the shared parser hands a mode: the selection and output mode,
/// plus the run manifest every exit goes through.
struct Ctx {
    json: bool,
    selected: Vec<Workload>,
    scale: Scale,
    mf: RunManifest,
    manifest: Option<String>,
}

impl Command {
    /// A workload-selecting subcommand with `--json` and `--scale`
    /// (default test).
    const fn sub(name: &'static str, run: fn(&Command, &[String])) -> Command {
        Command { name, scale: Some(Scale::Test), select: true, json: true, run }
    }

    /// The shared parser. Every mode goes through it, so
    /// unknown-abbreviation rejection (exit 2, listing the valid names),
    /// `--workload` semantics and duplicate rejection cannot drift
    /// between modes. `extra` sees every flag the mode does not share
    /// (plus the argument iterator, so it can consume a value) and
    /// returns whether it recognized it; flags it rejects are a usage
    /// error. Only `--workload` and `--against` may repeat.
    fn parse(
        &self,
        args: &[String],
        mut extra: impl FnMut(&str, &mut Iter<String>) -> bool,
    ) -> Ctx {
        let mut scale: Option<Scale> = None;
        let mut json = false;
        let mut manifest: Option<String> = None;
        let mut abbrs: Vec<&str> = Vec::new();
        let mut names: Vec<String> = Vec::new();
        let mut seen: Vec<&str> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let flag = a.as_str();
            if flag.starts_with("--") && !matches!(flag, "--workload" | "--against") {
                if seen.contains(&flag) {
                    duplicate_flag(flag);
                }
                seen.push(flag);
            }
            match flag {
                "--manifest" => manifest = Some(value(&mut it)),
                "--scale" if self.scale.is_some() => {
                    scale = match value(&mut it).as_str() {
                        "test" => Some(Scale::Test),
                        "eval" => Some(Scale::Eval),
                        _ => usage(),
                    }
                }
                "--json" if self.json => json = true,
                "--workload" if self.select => names.push(value(&mut it)),
                s if self.select && !s.starts_with("--") => abbrs.push(s),
                s => {
                    if !extra(s, &mut it) {
                        usage()
                    }
                }
            }
        }
        let scale = scale.or(self.scale).unwrap_or(Scale::Test);
        let mut selected: Vec<Workload> = abbrs
            .iter()
            .map(|a| by_abbr(a, scale).unwrap_or_else(|| unknown_workload("benchmark", a)))
            .collect();
        for n in &names {
            let nl = n.to_lowercase();
            let matched: Vec<Workload> = catalog(scale)
                .into_iter()
                .filter(|w| w.abbr.to_lowercase() == nl || w.name.to_lowercase() == nl)
                .collect();
            if matched.is_empty() {
                unknown_workload("workload", n);
            }
            selected.extend(matched);
        }
        if self.select && selected.is_empty() {
            selected = catalog(scale);
        }
        Ctx { json, selected, scale, mf: RunManifest::new(self.name, args), manifest }
    }
}

/// The subcommand table; anything else is the bare benchmark mode.
static COMMANDS: [Command; 8] = [
    Command::sub("verify", verify),
    Command::sub("certify", certify),
    Command::sub("analyze", analyze),
    Command::sub("prove", prove),
    Command::sub("profile", profile),
    Command::sub("estimate", estimate),
    Command::sub("replay-diff", replay),
    Command { name: "lints", scale: None, select: false, json: true, run: lints },
];

/// The bare benchmark mode: `darsie-sim ABBR [options]`.
static RUN: Command =
    Command { name: "run", scale: Some(Scale::Eval), select: false, json: false, run };

/// Order-preserving map over the selected workloads: `items` split into
/// contiguous chunks across at most `workers` scoped threads, results
/// returned in input order, so a document rendered from them is the same
/// for any worker count. One worker (or one item) is a plain sequential
/// map.
fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(items.len(), || None);
    std::thread::scope(|s| {
        for (inp, outp) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
            let f = &f;
            s.spawn(move || {
                for (i, o) in inp.iter().zip(outp.iter_mut()) {
                    *o = Some(f(i));
                }
            });
        }
    });
    out.into_iter().map(|r| r.expect("worker filled every slot")).collect()
}

/// [`parallel_map`] over `workloads` with one worker per hardware thread
/// of the host.
fn shard<R: Send>(workloads: &[Workload], f: impl Fn(&Workload) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    parallel_map(workloads, workers, f)
}

impl Ctx {
    /// Writes the run manifest (when `--manifest PATH` was given) carrying
    /// the exit code the process is about to return, then exits when that
    /// code is non-zero. Every mode funnels its exit through here so a
    /// failing run still leaves its telemetry behind.
    fn finish(&mut self, code: i32) {
        self.mf.exit_code = code;
        if let Some(p) = &self.manifest {
            if let Err(e) = self.mf.write(p) {
                eprintln!("cannot write manifest {p}: {e}");
                std::process::exit(2);
            }
        }
        if code != 0 {
            std::process::exit(code);
        }
    }
}

/// The `abbr`/`kernel` pair every per-workload record starts with.
fn workload_json(w: &Workload) -> Json {
    Json::obj().field("abbr", w.abbr).field("kernel", w.ck.kernel.name.as_str())
}

fn dim3_json(d: Dim3) -> Json {
    Json::arr([d.x, d.y, d.z])
}

fn diagnostics_json<'a>(items: impl IntoIterator<Item = &'a Diagnostic>) -> Json {
    Json::arr(items.into_iter().map(|d| {
        Json::obj()
            .field("code", d.code.to_string())
            .field("severity", d.severity.to_string())
            .field("pc", d.pc)
            .field("message", d.message.as_str())
    }))
}

fn witness_json(w: simt_verify::blocks::RaceWitness) -> Json {
    Json::obj()
        .field("pc_a", w.pc_a)
        .field("pc_b", w.pc_b)
        .field("block_a", dim3_json(w.block_a))
        .field("block_b", dim3_json(w.block_b))
        .field("word", w.word)
}

/// A count histogram as a JSON object, keys in map order.
fn counts_json<K: Display>(counts: &BTreeMap<K, usize>) -> Json {
    counts.iter().map(|(k, &n)| (k.to_string(), n)).collect()
}

/// A count histogram for humans: `K×N, K×N, ...`.
fn counts_human<K: Display, N: Display>(counts: impl IntoIterator<Item = (K, N)>) -> String {
    counts.into_iter().map(|(k, n)| format!("{k}\u{d7}{n}")).collect::<Vec<_>>().join(", ")
}

/// Error/warning totals and per-lint-code counts over a run's reports.
#[derive(Default)]
struct Tally {
    errors: usize,
    warnings: usize,
    by_code: BTreeMap<&'static str, usize>,
}

impl Tally {
    fn add(&mut self, report: &Diagnostics) {
        self.errors += report.error_count();
        self.warnings += report.warning_count();
        for d in &report.items {
            *self.by_code.entry(d.code.code()).or_insert(0) += 1;
        }
    }

    /// Prints the `verify`/`certify` document (`records` plus the totals),
    /// or the human footer, and records the counters in the manifest.
    fn finish(&self, cx: &mut Ctx, records: Vec<Json>, verb: &str) {
        if cx.json {
            let doc = json_header(cx.mf.subcommand.as_str(), None)
                .field("workloads", records)
                .field("by_code", counts_json(&self.by_code))
                .field("total_errors", self.errors)
                .field("total_warnings", self.warnings);
            println!("{doc}");
        } else {
            println!(
                "{verb} {} workload(s): {} error(s), {} warning(s)",
                cx.selected.len(),
                self.errors,
                self.warnings
            );
            if !self.by_code.is_empty() {
                println!("by code: {}", counts_human(&self.by_code));
            }
        }
        cx.mf.count("workloads", cx.selected.len() as u64);
        cx.mf.count("total_errors", self.errors as u64);
        cx.mf.count("total_warnings", self.warnings as u64);
        cx.finish(i32::from(self.errors > 0));
    }
}

/// `darsie-sim verify`: run every `simt-verify` pass over the selected
/// workloads at their native launches and exit 1 on any error-severity
/// finding. With `--json`, print one machine-readable document instead of
/// the human report.
fn verify(cmd: &Command, args: &[String]) {
    let mut cx = cmd.parse(args, |_, _| false);
    let reports = cx.mf.phase("verify", || {
        shard(&cx.selected, |w| simt_verify::verify_full(&w.ck, &w.launch, w.memory.clone()))
    });

    let mut tally = Tally::default();
    let mut records: Vec<Json> = Vec::new();
    for (w, report) in cx.selected.iter().zip(&reports) {
        tally.add(report);
        if cx.json {
            records.push(
                workload_json(w)
                    .field("block", dim3_json(w.block))
                    .field("diagnostics", diagnostics_json(&report.items))
                    .field("errors", report.error_count())
                    .field("warnings", report.warning_count()),
            );
        } else if report.items.is_empty() {
            println!(
                "verify {:8} ({}, TB=({},{},{})): clean",
                w.abbr, w.name, w.block.x, w.block.y, w.block.z
            );
        } else {
            print!("{}", report.render());
        }
    }
    tally.finish(&mut cx, records, "verified");
}

/// `darsie-sim certify`: the inter-thread-block independence certifier,
/// which establishes that block replay order is unobservable for a
/// launch. For each selected workload it runs the
/// static block-affine footprint analysis plus a dynamic replay under
/// the global-memory shadow sanitizer, prints the classification and
/// any `V310`–`V313` findings, and exits 1 on any error-severity
/// finding. `--family` switches to [`certify_family`].
fn certify(cmd: &Command, args: &[String]) {
    let mut family = false;
    let mut cx = cmd.parse(args, |flag, _| {
        let hit = flag == "--family";
        family |= hit;
        hit
    });
    if family {
        cx.mf.subcommand = "certify-family".to_string();
        let code = certify_family(&mut cx);
        cx.finish(code);
        return;
    }
    let results = cx.mf.phase("certify", || {
        shard(&cx.selected, |w| simt_verify::blocks::certify(&w.ck, &w.launch, w.memory.clone()))
    });

    let mut tally = Tally::default();
    let mut records: Vec<Json> = Vec::new();
    for (w, (cert, report)) in cx.selected.iter().zip(&results) {
        tally.add(report);
        if cx.json {
            records.push(
                workload_json(w)
                    .field("grid", dim3_json(w.launch.grid))
                    .field("classification", cert.classification.label())
                    .field("global_accesses", cert.global_accesses)
                    .field("unanalyzable", cert.unanalyzable)
                    .field("checked_pairs", cert.checked_pairs)
                    .field("dynamically_discharged", cert.dynamically_discharged)
                    .field("witness", cert.witness.map(witness_json))
                    .field("diagnostics", diagnostics_json(&report.items))
                    .field("errors", report.error_count())
                    .field("warnings", report.warning_count()),
            );
        } else {
            println!(
                "certify {:8} ({}, grid=({},{},{})): {} ({} global access(es), \
                 {} pair(s) checked)",
                w.abbr,
                w.name,
                w.launch.grid.x,
                w.launch.grid.y,
                w.launch.grid.z,
                cert.classification.label(),
                cert.global_accesses,
                cert.checked_pairs,
            );
            if cert.dynamically_discharged {
                println!("  (static overlaps discharged by exhaustive replay)");
            }
            if !report.items.is_empty() {
                print!("{}", report.render());
            }
        }
    }
    tally.finish(&mut cx, records, "certified");
}

/// `darsie-sim certify --family`: launch-family-parametric certification.
/// For each selected workload it certifies inter-thread-block
/// independence over the workload's declared [`simt_isa::LaunchFamily`]
/// region — one certificate per kernel covering the whole grid sweep —
/// and then runs the sampled differential gate ([`family::SAMPLES`]
/// member launches, each certified concretely) against the family
/// verdict. Returns 1 on any `PerLaunchOnly` refutation or any
/// family-vs-concrete disagreement.
///
/// [`family::SAMPLES`]: simt_verify::family::SAMPLES
fn certify_family(cx: &mut Ctx) -> i32 {
    use simt_verify::family::{self, FamilyVerdict, SAMPLES};
    let cfg = GpuConfig::test_small();
    cx.mf.set_config(&cfg);
    let results = cx.mf.phase("certify-family", || {
        shard(&cx.selected, |w| {
            family::certify_family(&w.ck, &w.family, &w.launch, &w.memory, &cfg).map(|cert| {
                let disagreements =
                    family::differential_check(&w.ck, &w.family, &w.launch, &w.memory, &cert);
                (cert, disagreements)
            })
        })
    });

    let mut proved = 0usize;
    let mut sampled = 0usize;
    let mut refuted = 0usize;
    let mut total_disagreements = 0usize;
    let mut records: Vec<Json> = Vec::new();
    for (w, result) in cx.selected.iter().zip(&results) {
        let (cert, disagreements) = match result {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("{}: malformed family region: {e}", w.abbr);
                std::process::exit(2);
            }
        };
        match cert.verdict {
            FamilyVerdict::FamilyProved => proved += 1,
            FamilyVerdict::FamilySampled => sampled += 1,
            FamilyVerdict::PerLaunchOnly => refuted += 1,
        }
        total_disagreements += disagreements.len();
        if cx.json {
            let r = &cert.region;
            let region: Json = [
                ("grid_x", &r.grid_x),
                ("grid_y", &r.grid_y),
                ("block_x", &r.block_x),
                ("block_y", &r.block_y),
                ("block_z", &r.block_z),
            ]
            .into_iter()
            .map(|(k, a)| {
                (k, Json::obj().field("lo", a.lo).field("hi", a.hi).field("step", a.step))
            })
            .collect();
            let unresolved = cert.unresolved.iter().map(|p| {
                Json::obj().field("pc_a", p.pc_a).field("pc_b", p.pc_b).field("reason", p.reason)
            });
            let witness_launch = cert.witness_launch.as_ref().map(|wl| {
                Json::obj().field("grid", dim3_json(wl.grid)).field("block", dim3_json(wl.block))
            });
            let cost = cert.cost.iter().map(|b| {
                Json::obj()
                    .field("technique", b.technique.as_str())
                    .field("min_cycles", b.min_cycles)
                    .field("max_cycles", b.max_cycles)
            });
            records.push(
                Json::obj()
                    .field("abbr", w.abbr)
                    .field("kernel", cert.kernel.as_str())
                    .field("region", region)
                    .field("member_count", cert.member_count)
                    .field("verdict", cert.verdict.label())
                    .field("classification", cert.classification.label())
                    .field("global_accesses", cert.global_accesses)
                    .field("checked_pairs", cert.checked_pairs)
                    .field("proved_pairs", cert.proved_pairs)
                    .field("unanalyzable", cert.unanalyzable)
                    .field("unresolved", Json::arr(unresolved))
                    .field("sampled_corners", cert.sampled_corners)
                    .field("witness_launch", witness_launch)
                    .field("witness", cert.witness.map(witness_json))
                    .field("cost", Json::arr(cost))
                    .field("notes", Json::arr(cert.notes.iter().map(String::as_str)))
                    .field("disagreements", Json::arr(disagreements.iter().map(String::as_str))),
            );
        } else {
            println!(
                "family {:8} ({}): {} over {} [{} member(s)] — {}/{} pair(s) proved, \
                 classification {}",
                w.abbr,
                w.name,
                cert.verdict.label(),
                cert.region,
                cert.member_count,
                cert.proved_pairs,
                cert.checked_pairs,
                cert.classification.label(),
            );
            for n in &cert.notes {
                println!("  note: {n}");
            }
            for d in disagreements {
                println!("  DISAGREEMENT: {d}");
            }
        }
    }
    if cx.json {
        let doc = json_header("certify-family", Some(&cfg))
            .field("workloads", records)
            .field("samples", SAMPLES)
            .field("proved", proved)
            .field("sampled", sampled)
            .field("refuted", refuted)
            .field("disagreements", total_disagreements);
        println!("{doc}");
    } else {
        println!(
            "certified {} family region(s): {proved} proved, {sampled} sampled, \
             {refuted} refuted, {total_disagreements} differential disagreement(s) \
             over {SAMPLES} sample(s) each",
            cx.selected.len()
        );
    }
    cx.mf.count("workloads", cx.selected.len() as u64);
    cx.mf.count("proved", proved as u64);
    cx.mf.count("sampled", sampled as u64);
    cx.mf.count("refuted", refuted as u64);
    cx.mf.count("disagreements", total_disagreements as u64);
    i32::from(refuted > 0 || total_disagreements > 0)
}

/// `darsie-sim prove`: the symbolic translation validator. Discharges
/// every redundancy-marking and branch-sync claim of the selected
/// workloads over their full quantified launch families and exits 1 on
/// any `S401` disproof or `S403` branch-sync violation.
fn prove(cmd: &Command, args: &[String]) {
    use simt_verify::symex::{self, Verdict};
    let mut cx = cmd.parse(args, |_, _| false);

    let mut tally = Tally::default();
    let mut unknown_reasons: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut totals = (0usize, 0usize, 0usize);
    let mut records: Vec<Json> = Vec::new();
    let wall = std::time::Instant::now();
    for w in &cx.selected {
        let p = cx.mf.phase(&format!("prove:{}", w.abbr), || {
            symex::prove(&w.ck, Some((&w.launch, &w.memory)))
        });
        let s = &p.stats;
        for c in &p.claims {
            if let Some(r) = c.unknown_reason {
                *unknown_reasons.entry(r.label()).or_insert(0) += 1;
            }
        }
        tally.add(&p.report);
        totals.0 += s.proved;
        totals.1 += s.disproved;
        totals.2 += s.unknown;
        if cx.json {
            let claims = p.claims.iter().map(|c| {
                let verdict = match c.verdict {
                    Verdict::Proved => "proved",
                    Verdict::Disproved => "disproved",
                    Verdict::Unknown => "unknown",
                };
                Json::obj()
                    .field("pc", c.pc)
                    .field("kind", c.kind.to_string())
                    .field("family", c.family.to_string())
                    .field("verdict", verdict)
                    .field("unknown_reason", c.unknown_reason.map(|r| r.label()))
                    .field("evals", c.evals)
                    .field(
                        "covered_region",
                        c.covers
                            .covered_region(&w.family, w.launch.warp_size)
                            .map(|r| r.to_string()),
                    )
            });
            records.push(
                workload_json(w)
                    .field("block", dim3_json(w.block))
                    .field("value_claims", s.value_claims)
                    .field("branch_claims", s.branch_claims)
                    .field("proved", s.proved)
                    .field("disproved", s.disproved)
                    .field("unknown", s.unknown)
                    .field("complete", s.complete)
                    .field("fuel_used", s.fuel_used)
                    .field("terms", s.terms)
                    .field("claims", Json::arr(claims))
                    .field("diagnostics", diagnostics_json(&p.report.items)),
            );
        } else {
            println!(
                "prove {:8} ({}, TB=({},{},{})): {} claim(s): {} proved, {} disproved, \
                 {} unknown{}",
                w.abbr,
                w.name,
                w.block.x,
                w.block.y,
                w.block.z,
                s.value_claims + s.branch_claims,
                s.proved,
                s.disproved,
                s.unknown,
                if s.complete { "" } else { " (budget exhausted)" }
            );
            if !p.report.items.is_empty() {
                print!("{}", p.report.render());
            }
        }
    }
    let elapsed = wall.elapsed();
    if cx.json {
        let doc = json_header("prove", None)
            .field("workloads", records)
            .field("by_code", counts_json(&tally.by_code))
            .field("unknown_reasons", counts_json(&unknown_reasons))
            .field("total_proved", totals.0)
            .field("total_disproved", totals.1)
            .field("total_unknown", totals.2);
        println!("{doc}");
    } else {
        println!(
            "proved {} workload(s): {} proved, {} disproved, {} unknown",
            cx.selected.len(),
            totals.0,
            totals.1,
            totals.2
        );
        if !unknown_reasons.is_empty() {
            let mut ranked: Vec<(&str, usize)> =
                unknown_reasons.iter().map(|(r, n)| (*r, *n)).collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            println!("top unknown reasons: {}", counts_human(ranked));
        }
    }
    // Wall time goes to stderr so `--json` stdout stays byte-identical
    // from run to run.
    eprintln!("prover wall time: {:.3}s", elapsed.as_secs_f64());
    cx.mf.count("workloads", cx.selected.len() as u64);
    cx.mf.count("total_proved", totals.0 as u64);
    cx.mf.count("total_disproved", totals.1 as u64);
    cx.mf.count("total_unknown", totals.2 as u64);
    cx.finish(i32::from(tally.errors > 0));
}

/// `darsie-sim lints`: the lint registry, generated from
/// [`simt_verify::LintCode`] itself — code, severity, producing pass and
/// one-line description.
fn lints(cmd: &Command, args: &[String]) {
    use simt_verify::LintCode;
    let mut cx = cmd.parse(args, |_, _| false);
    cx.mf.phase("render", || {
        if cx.json {
            let rows = LintCode::ALL.iter().map(|l| {
                Json::obj()
                    .field("code", l.code())
                    .field("severity", l.severity().to_string())
                    .field("pass", l.pass().to_string())
                    .field("doc", l.doc())
            });
            println!("{}", json_header("lints", None).field("lints", Json::arr(rows)));
        } else {
            for l in LintCode::ALL {
                println!(
                    "{:5} {:7} {:10} {}",
                    l.code(),
                    l.severity().to_string(),
                    l.pass(),
                    l.doc()
                );
            }
        }
    });
    cx.mf.count("lints", LintCode::ALL.len() as u64);
    cx.finish(0);
}

/// Serializes one memory prediction plus its validation outcome.
fn mem_check_json(p: &MemPrediction, v: Option<&simt_verify::perf::Validation>) -> Json {
    let o = Json::obj().field("pc", p.pc).field("store", p.is_store);
    let o = match &p.kind {
        MemPredKind::SharedConflict { min_degree, max_degree } => o
            .field("kind", "shared-conflict")
            .field("min_degree", *min_degree)
            .field("max_degree", *max_degree),
        MemPredKind::GlobalCoalesce { min_lines, max_lines, ideal_lines } => o
            .field("kind", "global-coalesce")
            .field("min_lines", *min_lines)
            .field("max_lines", *max_lines)
            .field("ideal_lines", *ideal_lines),
        MemPredKind::Unpredictable { reason } => {
            o.field("kind", "unpredictable").field("reason", reason.to_string())
        }
    };
    match v {
        Some(v) => o.field("ok", v.ok).field("measured", v.detail.as_str()),
        None => o,
    }
}

/// `darsie-sim analyze`: the static skip-coverage and memory-performance
/// report. Exits 1 when refined markings fail the soundness oracle or a
/// measured memory counter falls outside its predicted bounds.
fn analyze(cmd: &Command, args: &[String]) {
    let mut cx = cmd.parse(args, |_, _| false);
    let cfg = GpuConfig::test_small();
    cx.mf.set_config(&cfg);

    let mut total_oracle_errors = 0usize;
    let mut total_mem_violations = 0usize;
    let mut coverage_wins = 0usize;
    let mut marking_wins = 0usize;
    let mut records: Vec<Json> = Vec::new();

    for w in &cx.selected {
        let bz = w.launch.block.z.max(1);
        let refined = simt_compiler::refine(&w.ck, bz);
        let base_plan = LaunchPlan::new(&w.ck, &w.launch);
        let ref_plan = LaunchPlan::new(&refined.ck, &w.launch);
        let [bv, bc, bd] = w.ck.marking_counts();
        let [rv, rc, rd] = refined.ck.marking_counts();
        let (base_skip, ref_skip) = (base_plan.num_skippable(), ref_plan.num_skippable());
        if ref_skip > base_skip {
            coverage_wins += 1;
        }
        if rv < bv {
            marking_wins += 1;
        }

        let mut upgrades: BTreeMap<String, usize> = BTreeMap::new();
        for u in &refined.upgrades {
            *upgrades.entry(u.reason.to_string()).or_insert(0) += 1;
        }

        // Soundness gate: the refined markings must survive the
        // differential oracle on a real execution. The same replay
        // measures the dynamic headroom the refined plan leaves.
        let (oracle, headroom) = simt_verify::oracle::check_with_headroom(
            &refined.ck,
            &w.launch,
            Some(&ref_plan.skippable),
            w.memory.clone(),
        );
        let oracle_errors = oracle.error_count();
        total_oracle_errors += oracle_errors;

        // Blame the vector markings refinement could not recover.
        let blame = simt_compiler::blame(&refined.ck, &refined.ck.classes);
        let seeds = blame.seed_histogram();

        // Memory performance: predict statically, measure on the cycle
        // simulator under the baseline technique, check the bounds.
        let predictions = simt_verify::perf::predict(&w.ck, &w.launch);
        let result = cx.mf.phase(&format!("simulate:{}", w.abbr), || w.run(&cfg, Technique::Base));
        cx.mf.digest_root(&format!("{}/BASE", w.abbr), result.stats.digest_root);
        let checks = simt_verify::perf::validate(&predictions, &result.stats);
        let violations = checks.iter().filter(|c| !c.ok).count();
        total_mem_violations += violations;
        let unpredictable = predictions
            .iter()
            .filter(|p| matches!(p.kind, MemPredKind::Unpredictable { .. }))
            .count();
        let lints = simt_verify::perf::lint(&w.ck, &predictions);

        if cx.json {
            let marking = |v: usize, c: usize, d: usize, skippable: usize| {
                Json::obj()
                    .field("vector", v)
                    .field("cond", c)
                    .field("def", d)
                    .field("skippable", skippable)
            };
            let checks_json =
                predictions.iter().map(|p| mem_check_json(p, checks.iter().find(|c| c.pc == p.pc)));
            let lints_json = lints.items.iter().map(|d| {
                Json::obj()
                    .field("code", d.code.to_string())
                    .field("pc", d.pc)
                    .field("message", d.message.as_str())
            });
            records.push(
                workload_json(w)
                    .field("baseline", marking(bv, bc, bd, base_skip))
                    .field(
                        "refined",
                        marking(rv, rc, rd, ref_skip).field("upgrades", counts_json(&upgrades)),
                    )
                    .field("oracle_errors", oracle_errors)
                    .field(
                        "headroom",
                        Json::obj()
                            .field("dynamically_redundant", headroom.dynamically_redundant.len())
                            .field("never_aligned", headroom.never_aligned.len()),
                    )
                    .field("blame", counts_json(&seeds))
                    .field(
                        "mem",
                        Json::obj()
                            .field("accesses", predictions.len())
                            .field("unpredictable", unpredictable)
                            .field("violations", violations)
                            .field("checks", Json::arr(checks_json))
                            .field("lints", Json::arr(lints_json)),
                    ),
            );
        } else {
            println!(
                "analyze {:8} ({}, TB=({},{},{}))",
                w.abbr, w.name, w.block.x, w.block.y, w.block.z
            );
            println!(
                "  markings V/CR/DR     {bv}/{bc}/{bd} -> {rv}/{rc}/{rd}   \
                 skippable {base_skip} -> {ref_skip}"
            );
            if !upgrades.is_empty() {
                println!("  upgrades             {}", counts_human(&upgrades));
            }
            println!("  oracle               {} error(s) on refined markings", oracle_errors);
            println!(
                "  dynamic headroom     {} redundant-unskipped, {} never-aligned",
                headroom.dynamically_redundant.len(),
                headroom.never_aligned.len()
            );
            if !seeds.is_empty() {
                println!("  vector blame         {}", counts_human(&seeds));
            }
            println!(
                "  memory               {} access(es), {unpredictable} unpredictable, \
                 {violations} bound violation(s)",
                predictions.len()
            );
            for c in checks.iter().filter(|c| !c.ok) {
                println!("    VIOLATION {}", c.detail);
            }
            for d in &lints.items {
                println!("    {d}");
            }
        }
    }

    if cx.json {
        let totals = Json::obj()
            .field("oracle_errors", total_oracle_errors)
            .field("mem_violations", total_mem_violations)
            .field("coverage_wins", coverage_wins)
            .field("marking_wins", marking_wins);
        let doc =
            json_header("analyze", Some(&cfg)).field("workloads", records).field("totals", totals);
        println!("{doc}");
    } else {
        println!(
            "analyzed {} workload(s): {total_oracle_errors} oracle error(s), \
             {total_mem_violations} memory-bound violation(s), {coverage_wins} skip-coverage \
             win(s), {marking_wins} marking-precision win(s)",
            cx.selected.len()
        );
    }
    cx.mf.count("workloads", cx.selected.len() as u64);
    cx.mf.count("oracle_errors", total_oracle_errors as u64);
    cx.mf.count("mem_violations", total_mem_violations as u64);
    cx.finish(i32::from(total_oracle_errors > 0 || total_mem_violations > 0));
}

/// Serializes one technique's profile (plus the run's headline stats) as
/// a JSON object; returns the record and whether the accounting identity
/// held.
fn profile_record_json(
    technique: &Technique,
    r: &gpu_sim::SimResult,
    prof: &gpu_sim::SimProfile,
) -> (Json, bool) {
    let slots = prof.slots();
    let reused = r.stats.instrs_reused.total();
    let skipped = r.stats.instrs_skipped.total();
    // Two checks gate `identity_ok`: per-SM slot balance, and the
    // cross-check that `issued` slots equal the instructions the
    // simulator says it executed or reused.
    let balanced = prof.check_identity().is_ok();
    let crosscheck = slots.get(gpu_sim::StallCause::Issued) == r.stats.instrs_executed + reused;
    let ok = balanced && crosscheck;

    // Hot PCs: top 5 by total slot involvement (issued + skipped + blamed
    // stalls).
    let per_pc = prof.per_pc();
    let mut hot: Vec<(usize, &gpu_sim::PcProfile)> =
        per_pc.iter().map(|(&pc, p)| (pc, p)).collect();
    hot.sort_by_key(|(pc, p)| (std::cmp::Reverse(p.issued + p.skipped + p.stalls.total()), *pc));
    let hot_pcs = hot.iter().take(5).map(|(pc, p)| {
        let (top_cause, _) = p
            .stalls
            .iter()
            .filter(|&(c, _)| c != gpu_sim::StallCause::Issued)
            .max_by_key(|&(_, n)| n)
            .unwrap_or((gpu_sim::StallCause::IdleNoWarp, 0));
        Json::obj()
            .field("pc", *pc)
            .field("issued", p.issued)
            .field("skipped", p.skipped)
            .field("stall_slots", p.stalls.total())
            .field("top_stall", top_cause.label())
    });

    let hist = prof.leader_latency();
    let (mut samples, mut dropped) = (0u64, 0u64);
    let (mut peak_skip, mut peak_vers, mut peak_wait) = (0u32, 0u32, 0u32);
    for sm in &prof.sms {
        samples += sm.samples.len() as u64;
        dropped += sm.samples_dropped;
        for s in &sm.samples {
            peak_skip = peak_skip.max(s.skip_entries);
            peak_vers = peak_vers.max(s.live_versions);
            peak_wait = peak_wait.max(s.waiting_warps);
        }
    }

    let d = &r.stats.darsie;
    let record = Json::obj()
        .field("technique", technique.label())
        .field("cycles", r.cycles)
        .field("issue_slots", prof.issue_slots())
        .field("identity_ok", ok)
        .field("slots", slots.iter().map(|(c, n)| (c.label(), n)).collect::<Json>())
        .field("executed", r.stats.instrs_executed)
        .field("reused", reused)
        .field("skipped", skipped)
        .field("hot_pcs", Json::arr(hot_pcs))
        .field(
            "leader_latency",
            Json::obj().field("count", hist.count()).field("buckets", Json::arr(*hist.buckets())),
        )
        .field(
            "occupancy",
            Json::obj()
                .field("samples", samples)
                .field("dropped", dropped)
                .field("peak_skip_entries", peak_skip)
                .field("peak_live_versions", peak_vers)
                .field("peak_waiting_warps", peak_wait),
        )
        .field(
            "darsie",
            Json::obj()
                .field("leaders_elected", d.leaders_elected)
                .field("instructions_skipped", d.instructions_skipped)
                .field("leader_giveups", d.leader_giveups)
                .field("wait_for_leader_cycles", d.wait_for_leader_cycles)
                .field("branch_sync_cycles", d.branch_sync_cycles),
        )
        .field("trace_dropped", r.events.dropped)
        .field("trace_capacity", r.events.capacity())
        .field("digest_root", Json::hex(r.stats.digest_root));
    (record, ok)
}

/// The Perfetto output path for one workload: the user's path verbatim
/// for a single-workload run, `stem-ABBR.ext` otherwise.
fn perfetto_path(base: &str, abbr: &str, single: bool) -> String {
    if single {
        return base.to_string();
    }
    match base.rfind('.') {
        Some(dot) if dot > base.rfind('/').map_or(0, |s| s + 1) => {
            format!("{}-{}{}", &base[..dot], abbr, &base[dot..])
        }
        _ => format!("{base}-{abbr}"),
    }
}

/// `darsie-sim profile`: run each selected workload under Base and DARSIE
/// with cycle-accounted profiling on, and report where every issue slot
/// went. Exits 1 when any run violates the accounting identity
/// (`Σ slot causes == cycles × schedulers × issue_width`, and
/// `issued == executed + reused`). With `--perfetto PATH`, also writes a
/// Chrome trace-event JSON of the DARSIE run's pipeline events.
fn profile(cmd: &Command, args: &[String]) {
    let mut perfetto: Option<String> = None;
    let mut cx = cmd.parse(args, |flag, it| {
        if flag != "--perfetto" {
            return false;
        }
        perfetto = Some(value(it));
        true
    });
    // Owned here so a failed trace write can still finish the run.
    let selected = std::mem::take(&mut cx.selected);
    let single = selected.len() == 1;

    let mut violations = 0usize;
    let mut records: Vec<Json> = Vec::new();
    for w in &selected {
        let mut tech_records: Vec<Json> = Vec::new();
        for technique in [Technique::Base, Technique::darsie()] {
            let is_darsie = matches!(technique, Technique::Darsie(_));
            let trace = perfetto.is_some() && is_darsie;
            let cfg = GpuConfig {
                profile: true,
                shadow_check: false,
                trace_events: trace,
                ..GpuConfig::test_small()
            };
            cx.mf.set_config(&cfg);
            let r = cx.mf.phase(&format!("profile:{}/{}", w.abbr, technique.label()), || {
                w.run(&cfg, technique.clone())
            });
            cx.mf.digest_root(&format!("{}/{}", w.abbr, technique.label()), r.stats.digest_root);
            let prof = r.profile.as_ref().expect("profiling was enabled");
            let (record, ok) = profile_record_json(&technique, &r, prof);
            if !ok {
                violations += 1;
            }
            if cx.json {
                tech_records.push(record);
            } else {
                let slots = prof.slots();
                let total = slots.total().max(1);
                println!(
                    "profile {:8} {:12} {:>9} cycles, {:>11} issue slots{}",
                    w.abbr,
                    technique.label(),
                    r.cycles,
                    prof.issue_slots(),
                    if ok { "" } else { "  IDENTITY VIOLATION" }
                );
                for (cause, n) in slots.iter().filter(|&(_, n)| n > 0) {
                    println!(
                        "    {:18} {:>11}  ({:5.1}%)",
                        cause.label(),
                        n,
                        100.0 * n as f64 / total as f64
                    );
                }
                let hist = prof.leader_latency();
                if hist.count() > 0 {
                    println!("    leader latency     {:>11} samples", hist.count());
                }
            }
            if trace {
                let path =
                    perfetto_path(perfetto.as_deref().expect("perfetto path set"), w.abbr, single);
                // Host phase spans completed so far ride along in the
                // trace on their own process track.
                let json_trace = chrome_trace(&r.events, Some(prof), &cx.mf.phases);
                if let Err(e) = std::fs::write(&path, json_trace.to_string()) {
                    eprintln!("cannot write perfetto trace {path}: {e}");
                    cx.finish(1);
                }
                if !cx.json {
                    println!("    perfetto trace     {path}");
                }
            }
        }
        if cx.json {
            records.push(workload_json(w).field("techniques", tech_records));
        }
    }
    if cx.json {
        let totals =
            Json::obj().field("workloads", selected.len()).field("identity_violations", violations);
        let doc = json_header("profile", None).field("workloads", records).field("totals", totals);
        println!("{doc}");
    } else {
        println!("profiled {} workload(s): {violations} identity violation(s)", selected.len());
    }
    cx.mf.count("workloads", selected.len() as u64);
    cx.mf.count("identity_violations", violations as u64);
    cx.finish(i32::from(violations > 0));
}

/// `darsie-sim estimate`: the differential gate for the static
/// cycle-bound cost model. Runs the estimator and the cycle simulator
/// side by side for each selected workload under Base and DARSIE, and
/// exits 1 if any measured cycle count escapes its static `[min, max]`
/// bracket (`E202`). Unboundable trip counts (`E201`) leave the bracket
/// one-sided and are reported but do not fail the gate. The `--json`
/// document also carries each run's digest root and the DARSIE speedup.
fn estimate(cmd: &Command, args: &[String]) {
    let mut cx = cmd.parse(args, |_, _| false);
    let cfg = GpuConfig::test_small();
    cx.mf.set_config(&cfg);

    let mut violations = 0usize;
    let mut unbounded = 0usize;
    let mut width_sum = 0f64;
    let mut width_n = 0usize;
    let mut records: Vec<Json> = Vec::new();
    for w in &cx.selected {
        let mut cycles_by_tech = [0u64; 2];
        let mut tech_records: Vec<Json> = Vec::new();
        for (i, technique) in [Technique::Base, Technique::darsie()].into_iter().enumerate() {
            let est = cx.mf.phase(&format!("estimate:{}/{}", w.abbr, technique.label()), || {
                simt_verify::cost::estimate(&w.ck, &w.launch, &cfg, &technique)
            });
            let stats = cx
                .mf
                .phase(&format!("simulate:{}/{}", w.abbr, technique.label()), || {
                    w.run(&cfg, technique.clone())
                })
                .stats;
            let measured = stats.cycles;
            cycles_by_tech[i] = measured;
            let violation = simt_verify::cost::validate(&est, measured);
            if violation.is_some() {
                violations += 1;
            }
            unbounded += est.loops.iter().filter(|l| l.trips.is_err()).count();
            if let Some(hi) = est.max_cycles {
                width_sum += (hi - est.min_cycles) as f64 / measured.max(1) as f64;
                width_n += 1;
            }
            if cx.json {
                let loops = est.loops.iter().map(|l| {
                    let o = Json::obj().field("back_edge_pc", l.back_edge_pc);
                    match &l.trips {
                        Ok((lo, hi)) => o.field("min_trips", *lo).field("max_trips", *hi),
                        Err(e) => o.field("unbounded", e.to_string()),
                    }
                });
                let b = est.breakdown;
                let breakdown = Json::obj()
                    .field("fetch_bound", b.fetch_bound)
                    .field("issue_bound", b.issue_bound)
                    .field("lsu_bound", b.lsu_bound)
                    .field("chain_bound", b.chain_bound)
                    .field("fetch_serial", b.fetch_serial)
                    .field("issue_serial", b.issue_serial)
                    .field("lsu_serial", b.lsu_serial)
                    .field("sfu_serial", b.sfu_serial)
                    .field("dram_serial", b.dram_serial)
                    .field("exposed", b.exposed)
                    .field("darsie_slack", b.darsie_slack)
                    .field("tbs_per_sm", b.tbs_per_sm)
                    .field("waves", b.waves);
                tech_records.push(
                    Json::obj()
                        .field("technique", technique.label())
                        .field("min_cycles", est.min_cycles)
                        .field("max_cycles", est.max_cycles)
                        .field("measured_cycles", measured)
                        .field("in_bracket", est.contains(measured))
                        .field(
                            "predicted_skip_fraction",
                            Json::num(format_args!("{:.4}", est.predicted_skip_fraction)),
                        )
                        .field("loops", Json::arr(loops))
                        .field("breakdown", breakdown)
                        .field(
                            "diagnostics",
                            diagnostics_json(est.report.items.iter().chain(&violation)),
                        )
                        .field("digest_root", Json::hex(stats.digest_root)),
                );
            } else {
                let bracket = est.max_cycles.map_or_else(
                    || format!("[{}, unbounded)", est.min_cycles),
                    |hi| format!("[{}, {}]", est.min_cycles, hi),
                );
                let width = est.max_cycles.map_or_else(String::new, |hi| {
                    format!("  width {:.1}x", (hi - est.min_cycles) as f64 / measured.max(1) as f64)
                });
                println!(
                    "estimate {:8} {:12} {:>8} cycles in {:20}{}  skip {:4.1}%{}",
                    w.abbr,
                    technique.label(),
                    measured,
                    bracket,
                    width,
                    100.0 * est.predicted_skip_fraction,
                    if est.contains(measured) { "" } else { "  BOUND VIOLATION" }
                );
                if !est.report.items.is_empty() {
                    print!("{}", est.report.render());
                }
                if let Some(v) = &violation {
                    println!("  {v}");
                }
            }
        }
        if cx.json {
            let speedup = cycles_by_tech[0] as f64 / cycles_by_tech[1].max(1) as f64;
            records.push(
                workload_json(w)
                    .field("techniques", tech_records)
                    .field("darsie_speedup", Json::num(format_args!("{speedup:.4}"))),
            );
        }
    }
    let mean_width = if width_n > 0 { width_sum / width_n as f64 } else { 0.0 };
    if cx.json {
        let totals = Json::obj()
            .field("bound_violations", violations)
            .field("unbounded_loops", unbounded)
            .field("mean_bracket_width", Json::num(format_args!("{mean_width:.3}")));
        let doc =
            json_header("estimate", Some(&cfg)).field("workloads", records).field("totals", totals);
        println!("{doc}");
    } else {
        println!(
            "estimated {} workload(s) x 2 technique(s): {violations} bound violation(s), \
             {unbounded} unbounded loop(s), mean bracket width {mean_width:.1}x measured",
            cx.selected.len()
        );
    }
    cx.mf.count("workloads", cx.selected.len() as u64);
    cx.mf.count("bound_violations", violations as u64);
    cx.mf.count("unbounded_loops", unbounded as u64);
    cx.mf.metric("mean_bracket_width", mean_width);
    cx.finish(i32::from(violations > 0));
}

/// Applies one replay setting (`--KEY VALUE` or `--against KEY=VALUE`)
/// to a spec; returns false for an unknown key.
fn set_spec(spec: &mut RunSpec, key: &str, value: &str) -> bool {
    match key {
        "technique" => spec.technique = parse_technique(value, DarsieConfig::default()),
        "scheduler" => spec.scheduler = parse_scheduler(value),
        "sms" => spec.sms = positive("--sms", Some(value)),
        _ => return false,
    }
    true
}

/// Serializes a [`gpu_sim::Divergence`] for `replay-diff --json`.
fn divergence_json(d: &gpu_sim::Divergence) -> Json {
    let subs = d.subs.iter().map(|(label, a, b)| {
        Json::obj()
            .field("component", label.as_str())
            .field("a", Json::hex(*a))
            .field("b", Json::hex(*b))
    });
    Json::obj()
        .field("chain", d.chain.as_str())
        .field("sm", d.sm)
        .field("epoch", d.epoch)
        .field("cycle", d.cycle)
        .field("component", d.component.as_str())
        .field("warp", d.warp)
        .field("subs", Json::arr(subs))
}

/// `darsie-sim replay-diff`: the first-divergence bisector. Runs each
/// selected workload twice and compares the epoch-chained state digests.
/// Plain `replay-diff` is the determinism gate: both runs use the same
/// spec, any divergence is a bug and exits 1. `--against KEY=VALUE`
/// (repeatable, once per key; keys `technique`, `scheduler`, `sms`)
/// varies the second run's spec, and `--perturb CYCLE` injects a one-word
/// global-memory flip at that cycle into run B — both are divergence
/// *hunts*, so a found divergence is the expected result and exits 0.
fn replay(cmd: &Command, args: &[String]) {
    let mut spec_a = RunSpec::default();
    let mut against: Vec<(String, String)> = Vec::new();
    let mut perturb_cycle: Option<u64> = None;
    let mut cx = cmd.parse(args, |flag, it| match flag {
        "--technique" | "--scheduler" | "--sms" => set_spec(&mut spec_a, &flag[2..], &value(it)),
        "--against" => {
            let kv = value(it);
            let Some((k, v)) = kv.split_once('=') else {
                eprintln!("--against expects KEY=VALUE (technique|scheduler|sms)");
                std::process::exit(2);
            };
            if against.iter().any(|(seen, _)| seen == k) {
                duplicate_flag(&format!("--against {k}"));
            }
            against.push((k.to_string(), v.to_string()));
            true
        }
        "--perturb" => {
            perturb_cycle = Some(number(it));
            true
        }
        _ => false,
    });
    let mut spec_b = spec_a.clone();
    for (k, v) in &against {
        if !set_spec(&mut spec_b, k, v) {
            eprintln!("--against key must be technique, scheduler or sms (got {k})");
            std::process::exit(2);
        }
    }
    // A deliberately perturbed or cross-config pair is a divergence hunt;
    // only the plain self-comparison is a determinism gate.
    let self_compare = against.is_empty() && perturb_cycle.is_none();
    let perturb =
        perturb_cycle.map(|cycle| Perturb::GlobalWord { cycle, addr: 0x1000, xor: 0x5555_5555 });

    cx.mf.set_config(&spec_a.gpu_config(gpu_sim::DigestConfig::default(), None));
    let mut divergent = 0usize;
    let mut records: Vec<Json> = Vec::new();
    for w in &cx.selected {
        let r = cx
            .mf
            .phase(&format!("replay:{}", w.abbr), || replay_diff(w, &spec_a, &spec_b, perturb));
        cx.mf.digest_root(&format!("{}/A", w.abbr), r.root_a);
        cx.mf.digest_root(&format!("{}/B", w.abbr), r.root_b);
        if !r.identical {
            divergent += 1;
        }
        if cx.json {
            records.push(
                workload_json(w)
                    .field("identical", r.identical)
                    .field("root_a", Json::hex(r.root_a))
                    .field("root_b", Json::hex(r.root_b))
                    .field("cycles_a", r.cycles_a)
                    .field("cycles_b", r.cycles_b)
                    .field("epochs", r.epochs)
                    .field("divergence", r.divergence.as_ref().map(divergence_json)),
            );
        } else if r.identical {
            println!(
                "replay {:8} identical  root {:#018x}  {} cycles, {} epochs",
                w.abbr, r.root_a, r.cycles_a, r.epochs
            );
        } else {
            let d = r.divergence.as_ref();
            println!(
                "replay {:8} DIVERGED   roots {:#018x} vs {:#018x}  cycles {} vs {}",
                w.abbr, r.root_a, r.root_b, r.cycles_a, r.cycles_b
            );
            if let Some(d) = d {
                println!(
                    "    first divergence: chain {} epoch {} cycle {}  component {}{}",
                    d.chain,
                    d.epoch,
                    d.cycle,
                    d.component,
                    d.warp.map_or_else(String::new, |w| format!("  warp {w}")),
                );
                for (label, a, b) in &d.subs {
                    println!("      {label:12} {a:#018x} vs {b:#018x}");
                }
            }
        }
    }
    if cx.json {
        let totals =
            Json::obj().field("workloads", cx.selected.len()).field("divergent", divergent);
        let doc = json_header("replay-diff", None)
            .field("self_compare", self_compare)
            .field("workloads", records)
            .field("totals", totals);
        println!("{doc}");
    } else {
        println!(
            "replayed {} workload(s): {divergent} divergent{}",
            cx.selected.len(),
            if self_compare {
                " (self-comparison: any divergence is a determinism bug)"
            } else {
                ""
            }
        );
    }
    cx.mf.count("workloads", cx.selected.len() as u64);
    cx.mf.count("divergent", divergent as u64);
    cx.finish(i32::from(self_compare && divergent > 0));
}

/// The bare benchmark mode: `darsie-sim ABBR [options]` runs one workload
/// on the Table-2 machine and prints its statistics and energy.
fn run(cmd: &Command, args: &[String]) {
    let Some(abbr) = args.first().filter(|a| !a.starts_with("--")) else { usage() };
    let mut tech_name = "darsie".to_string();
    let mut sms = 4usize;
    let mut scheduler = SchedulerPolicy::Gto;
    let mut dcfg = DarsieConfig::default();
    let mut trace = 0usize;
    let mut cx = cmd.parse(&args[1..], |flag, it| {
        match flag {
            "--technique" => tech_name = value(it),
            "--sms" => sms = positive(flag, it.next().map(String::as_str)),
            "--scheduler" => scheduler = parse_scheduler(&value(it)),
            "--skip-entries" => dcfg.skip_entries_per_tb = number(it),
            "--rename-regs" => dcfg.rename_regs_per_tb = number(it),
            "--skip-ports" => dcfg.skip_table_ports = positive(flag, it.next().map(String::as_str)),
            "--max-leader-stall" => dcfg.max_leader_stall = number(it),
            "--trace" => trace = number(it),
            _ => return false,
        }
        true
    });
    let technique = parse_technique(&tech_name, dcfg);

    let Some(w) = by_abbr(abbr, cx.scale) else { unknown_workload("benchmark", abbr) };
    let cfg = GpuConfig {
        num_sms: sms,
        scheduler,
        shadow_check: false,
        trace_events: trace > 0,
        ..GpuConfig::pascal_gtx1080ti()
    };

    cx.mf.set_config(&cfg);
    let start = std::time::Instant::now();
    let mut r = cx.mf.phase(&format!("run:{}", w.abbr), || w.run(&cfg, technique.clone()));
    let wall = start.elapsed();
    cx.mf.digest_root(&format!("{}/{}", w.abbr, technique.label()), r.stats.digest_root);
    let s = &r.stats;

    println!("{} under {} ({} SMs, {:?}):", w.name, technique.label(), sms, scheduler);
    println!("  cycles               {:>12}", r.cycles);
    println!("  instructions fetched {:>12}", s.instrs_fetched);
    println!("  instructions executed{:>12}", s.instrs_executed);
    println!(
        "  eliminated           {:>12}  (U {} / A {} / X {})",
        s.instrs_skipped.total() + s.instrs_reused.total(),
        s.instrs_skipped.uniform + s.instrs_reused.uniform,
        s.instrs_skipped.affine + s.instrs_reused.affine,
        s.instrs_skipped.unstructured + s.instrs_reused.unstructured,
    );
    println!("  i-cache accesses     {:>12}  ({} misses)", s.icache_accesses, s.icache_misses);
    println!("  RF reads / writes    {:>12} / {}", s.rf_reads, s.rf_writes);
    println!("  ALU / SFU ops        {:>12} / {}", s.alu_ops, s.sfu_ops);
    println!(
        "  global transactions  {:>12}  (L1 {}/{}, L2 {}/{})",
        s.global_transactions,
        s.l1_hits,
        s.l1_hits + s.l1_misses,
        s.l2_hits,
        s.l2_hits + s.l2_misses
    );
    println!(
        "  shared ops           {:>12}  ({} bank conflicts)",
        s.smem_ops, s.smem_bank_conflicts
    );
    println!("  barrier waits        {:>12}", s.barrier_waits);
    if s.darsie.skip_table_probes > 0 {
        println!("  -- DARSIE --");
        println!("  skip-table probes    {:>12}", s.darsie.skip_table_probes);
        println!(
            "  leaders / skips      {:>12} / {}",
            s.darsie.leaders_elected, s.darsie.instructions_skipped
        );
        println!("  load invalidations   {:>12}", s.darsie.load_invalidations);
        println!("  wait-for-leader cyc  {:>12}", s.darsie.wait_for_leader_cycles);
        println!("  branch-sync cyc      {:>12}", s.darsie.branch_sync_cycles);
        println!("  freelist stalls      {:>12}", s.darsie.freelist_stalls);
        println!("  leader give-ups      {:>12}", s.darsie.leader_giveups);
    }
    let e = EnergyModel::with_sms(sms).evaluate(s);
    println!(
        "  energy (pJ)          {:>12.0}  (dynamic {:.0}, darsie overhead {:.0})",
        e.total(),
        e.dynamic(),
        e.darsie_overhead
    );
    println!("  state digest root    {:>#18x}", s.digest_root);
    println!("  wall time            {wall:>12.2?}");
    if trace > 0 {
        // The ring keeps the *last* events of the run: when it overflowed,
        // the window starts after the dropped ones.
        let (shown, kept, dropped) = (trace.min(r.events.len()), r.events.len(), r.events.dropped);
        if dropped > 0 {
            println!(
                "  -- first {shown} of the last {kept} pipeline events \
                 ({dropped} earlier events dropped) --"
            );
        } else {
            println!("  -- first {shown} pipeline events --");
        }
        for e in r.events.events().iter().take(trace) {
            println!("  {e}");
        }
    }
    println!("  validation           OK (matches CPU reference)");
    cx.finish(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for w in catalog(Scale::Test) {
            println!(
                "{:8} {:24} TB=({},{}) [{}]",
                w.abbr,
                w.name,
                w.block.x,
                w.block.y,
                if w.is_2d { "2D" } else { "1D" }
            );
        }
        return;
    }
    match COMMANDS.iter().find(|c| args.first().is_some_and(|a| a == c.name)) {
        Some(cmd) => (cmd.run)(cmd, &args[1..]),
        None => (RUN.run)(&RUN, &args),
    }
}

#[cfg(test)]
mod tests {
    use super::parallel_map;

    #[test]
    fn parallel_map_keeps_input_order_for_any_worker_count() {
        let items: Vec<u32> = (0..13).collect();
        let want: Vec<u32> = items.iter().map(|i| i * i + 1).collect();
        for workers in 1..=items.len() + 1 {
            assert_eq!(parallel_map(&items, workers, |i| i * i + 1), want, "{workers} worker(s)");
        }
        assert!(parallel_map(&[] as &[u32], 4, |i| *i).is_empty());
    }
}
