//! `darsie-benchmark`: times the simulator on the machines the paper's
//! figures are regenerated on, and the analysis stack that gates every
//! change, end to end and per layer. README.md explains the workloads,
//! the metrics and the `compare` subcommand.

mod alloc;
mod analysis;
mod compare;
mod json;
mod metrics;
mod run;
mod sim;
mod stats;

use darsie_bench::manifest::RunManifest;
use gpu_sim::Technique;
use run::{order, Clock, Ledger, Pass, Runner};
use simt_isa::Marking;
use stats::{median, quartiles};
use std::collections::BTreeMap;
use std::time::Instant;
use workloads::{catalog, Scale, Workload};

#[global_allocator]
static ALLOC: alloc::PeakAlloc = alloc::PeakAlloc;

/// Catalog builds timed for `setup_s`, after one discarded build.
const SETUP_BUILDS: usize = 9;
/// Measured passes a run makes however short `--seconds` is, so each
/// operation's time is the best of at least three.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage:
  darsie-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--manifest PATH]
  darsie-benchmark compare --parent FILE... --change FILE... [--spec BENCHMARK.json]
workloads: eval-base, eval-darsie, pascal28, analysis";

#[derive(Clone, Copy)]
enum Kind {
    Sim { sms: usize, base: bool, darsie: bool },
    Analysis,
}

/// The workloads by name. BENCHMARK.json and README.md say why each
/// exists.
const WORKLOADS: [(&str, Kind); 4] = [
    ("eval-base", Kind::Sim { sms: 4, base: true, darsie: false }),
    ("eval-darsie", Kind::Sim { sms: 4, base: false, darsie: true }),
    ("pascal28", Kind::Sim { sms: 28, base: true, darsie: true }),
    ("analysis", Kind::Analysis),
];

struct Options {
    workload: &'static str,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    manifest: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: "",
        kind: Kind::Analysis,
        seed: 1,
        seconds: 20.0,
        trace: false,
        manifest: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                (o.workload, o.kind) = *WORKLOADS
                    .iter()
                    .find(|(n, _)| n == value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
            }
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => o.seconds = value.parse::<u32>().map_err(|_| bad())?.into(),
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--manifest" => o.manifest = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if o.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if o.manifest.is_some() && !o.trace {
        return Err("--manifest needs --trace 1".to_string());
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("compare") {
        compare::main(&args[1..])
    } else {
        match parse(&args) {
            Ok(o) => run(&o, &args),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                2
            }
        }
    };
    std::process::exit(code);
}

/// Everything one run measured.
struct Measured {
    /// Wall time of each timed catalog build.
    setup: Vec<f64>,
    passes: Vec<Pass>,
    /// Peak live heap of each measured pass, bytes.
    peaks: Vec<u64>,
    ledger: Ledger,
    model: Vec<(&'static str, f64)>,
    fingerprint: u64,
    /// Per-layer values: deterministic counters, plus host medians when
    /// traced.
    layers: BTreeMap<String, f64>,
}

impl Measured {
    /// Wall time of one pass: each operation's fastest time over the
    /// measured passes, summed. Interference from a shared host only ever
    /// adds time; over ten seeds this estimator's spread was up to a third
    /// lower than that of per-operation medians, and never higher.
    fn wall(&self) -> f64 {
        let ops = self.passes.first().map_or(0, |p| p.op_walls.len());
        (0..ops)
            .map(|i| self.passes.iter().map(|p| p.op_walls[i]).fold(f64::INFINITY, f64::min))
            .sum()
    }

    fn end_to_end(&self) -> Vec<(String, &'static str, f64)> {
        let values = [
            self.wall(),
            median(&self.setup),
            median(&self.peaks.iter().map(|&b| b as f64).collect::<Vec<_>>()) / 1e6,
        ];
        metrics::END_TO_END.iter().zip(values).map(|((n, u), v)| (n.to_string(), *u, v)).collect()
    }
}

/// Builds the catalog, then runs one warm-up pass (the reference every
/// later pass must repeat) and measured passes until `seconds` have
/// passed and at least `min_passes` ran. With a manifest the measured
/// passes are traced.
fn measure(
    name: &'static str,
    kind: Kind,
    build: impl Fn() -> Vec<Workload>,
    seed: u64,
    seconds: f64,
    min_passes: usize,
    manifest: Option<&mut RunManifest>,
) -> Measured {
    let mut catalog = build();
    let mut setup = Vec::new();
    for _ in 0..SETUP_BUILDS {
        let t = Instant::now();
        let fresh = build();
        setup.push(t.elapsed().as_secs_f64());
        catalog = fresh;
    }
    let mut runner: Box<dyn Runner> = match kind {
        Kind::Sim { sms, base, darsie } => {
            let techniques: Vec<Technique> =
                [(base, Technique::Base), (darsie, Technique::darsie())]
                    .into_iter()
                    .filter_map(|(on, t)| on.then_some(t))
                    .collect();
            Box::new(sim::Sim::new(name, &catalog, sms, &techniques))
        }
        Kind::Analysis => Box::new(analysis::Analysis::new(&catalog)),
    };
    let mut ledger = Ledger::default();
    runner.pass(&order(runner.units(), seed, 0), &mut Clock::new(None), &mut ledger);

    let traced = manifest.is_some();
    let mut clock = Clock::new(manifest);
    let (mut passes, mut peaks) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        let ord = order(runner.units(), seed, passes.len() as u64 + 1);
        alloc::reset_peak();
        let mut pass = clock.group(|| name.to_string(), |c| runner.pass(&ord, c, &mut ledger));
        peaks.push(alloc::peak_bytes());
        if traced {
            pass.host.push((
                "simt_compiler.compile_s",
                recompile(name, &catalog, &mut clock, &mut ledger),
            ));
        }
        passes.push(pass);
    }

    let mut layers = runner.counters();
    let skippable =
        catalog.iter().flat_map(|w| &w.ck.markings).filter(|m| **m != Marking::Vector).count();
    layers.insert("simt_compiler.skippable_static".to_string(), skippable as f64);
    let mut m = Measured {
        setup,
        passes,
        peaks,
        ledger,
        model: runner.model(),
        fingerprint: runner.fingerprint(),
        layers,
    };
    if traced {
        let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (k, v) in m.passes.iter().flat_map(|p| &p.host) {
            samples.entry(k).or_default().push(*v);
        }
        for (k, v) in samples {
            m.layers.insert(k.to_string(), median(&v));
        }
        m.layers.insert("bench.traced_wall_s".to_string(), m.wall());
    }
    m
}

/// Re-runs `simt_compiler::compile` on every catalog kernel; the markings
/// must match the catalog build's. Returns the total compile time.
fn recompile(name: &str, catalog: &[Workload], clock: &mut Clock, ledger: &mut Ledger) -> f64 {
    let mut total = 0.0;
    for w in catalog {
        let label = || format!("{name}/{}/compile", w.abbr);
        let kernel = w.ck.kernel.clone();
        let (ck, span) = clock.time(label, || run::catch(|| simt_compiler::compile(kernel)));
        total += span.wall;
        let outcome = ck.and_then(|ck| {
            (ck.markings == w.ck.markings)
                .then_some(())
                .ok_or_else(|| "markings differ from the catalog build".to_string())
        });
        ledger.record(label, outcome);
    }
    total
}

fn run(o: &Options, args: &[String]) -> i32 {
    println!(
        "# darsie-benchmark workload={} seed={} seconds={} trace={}",
        o.workload,
        o.seed,
        o.seconds,
        u8::from(o.trace)
    );
    let mut mf = RunManifest::new("darsie-benchmark", args);
    let m = measure(
        o.workload,
        o.kind,
        || catalog(Scale::Eval),
        o.seed,
        o.seconds,
        MIN_PASSES,
        o.trace.then_some(&mut mf),
    );
    report(o, &m);
    if o.trace {
        print_self_times(&mf);
        if let Some(path) = &o.manifest {
            if let Err(e) = mf.write(path) {
                eprintln!("cannot write the span manifest to {path}: {e}");
                return 1;
            }
            println!("span manifest written to {path}");
        }
    }
    let values =
        if o.trace { metrics::fill(&metrics::per_layer(), &m.layers) } else { m.end_to_end() };
    println!("{}", run_line(o, &m));
    println!(
        "{}",
        metrics::result_line(m.ledger.attempted, m.ledger.failures.len() as u64, &values)
    );
    0
}

/// The human-readable summary printed above the result line.
fn report(o: &Options, m: &Measured) {
    match o.kind {
        Kind::Sim { sms, base, darsie } => println!(
            "machine: eval_gpu({sms}), techniques:{}{}, shadow check off, max_cycles {}; modelled caches \
             start empty on every launch; one thread",
            if base { " BASE" } else { "" },
            if darsie { " DARSIE" } else { "" },
            sim::MAX_CYCLES
        ),
        Kind::Analysis => println!(
            "calls per kernel: verify_full, symex::prove, blocks::certify, certify_family on eval_gpu(4), \
             blocks::certify on {} member launches, cost::estimate for BASE and DARSIE; no Gpu::launch; one thread",
            analysis::MEMBERS
        ),
    }
    let dist = |label: &str, xs: &[f64], unit: &str| {
        let (q1, q3) = quartiles(xs);
        println!(
            "{label}: median {:.4} {unit} [q1 {q1:.4}, q3 {q3:.4}] n={}",
            median(xs),
            xs.len()
        );
    };
    dist("setup (catalog build)", &m.setup, "s");
    let pass_walls: Vec<f64> = m.passes.iter().map(|p| p.op_walls.iter().sum()).collect();
    dist("pass wall", &pass_walls, "s");
    match stats::tail_percentile(pass_walls.len()) {
        Some(p) => {
            let mut s = pass_walls.clone();
            s.sort_by(f64::total_cmp);
            println!("pass wall p{p}: {:.4} s", s[(s.len() * p).div_ceil(100) - 1]);
        }
        None => println!(
            "no tail percentile: with {} passes none has ten samples beyond it",
            pass_walls.len()
        ),
    }
    for (n, u, v) in m.end_to_end() {
        println!("{n}: {v:.6} {u}");
    }
    let model: Vec<String> = m.model.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("model: {} fingerprint={:#018x}", model.join(" "), m.fingerprint);
    println!("operations: {} attempted, {} failed", m.ledger.attempted, m.ledger.failures.len());
    for f in &m.ledger.failures {
        println!("FAILED {f}");
    }
}

/// The machine-readable run record `compare` reads: which run this was and
/// its exact modelled outputs.
fn run_line(o: &Options, m: &Measured) -> String {
    let model: Vec<String> = m
        .model
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .chain(std::iter::once(format!("\"fingerprint\":\"{:#018x}\"", m.fingerprint)))
        .collect();
    format!(
        "run {{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"passes\":{},\"exact\":{{{}}}}}",
        o.workload,
        o.seed,
        u8::from(o.trace),
        m.passes.len(),
        model.join(",")
    )
}

/// Self time (span minus its child spans) of every traced span, summed by
/// the call it times; parent spans' self time is the benchmark's own
/// bookkeeping.
fn self_times(mf: &RunManifest) -> BTreeMap<String, f64> {
    // Spans are recorded when they end, so a parent follows its children,
    // which are the pending spans that started after it did.
    let mut pending: Vec<usize> = Vec::new();
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (i, s) in mf.phases.iter().enumerate() {
        let mut children = 0.0;
        let mut parent = false;
        while let Some(&j) = pending.last() {
            if mf.phases[j].start_seconds < s.start_seconds {
                break;
            }
            children += mf.phases[j].wall_seconds;
            parent = true;
            pending.pop();
        }
        pending.push(i);
        let call = if parent { "(bookkeeping)" } else { s.name.rsplit('/').next().unwrap_or("") };
        *out.entry(call.to_string()).or_insert(0.0) += s.wall_seconds - children;
    }
    out
}

fn print_self_times(mf: &RunManifest) {
    let times = self_times(mf);
    let total: f64 = times.values().sum();
    let mut ranked: Vec<(&String, &f64)> = times.iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(a.1));
    let parts: Vec<String> = ranked
        .iter()
        .map(|(k, v)| format!("{k} {v:.3} s ({:.1}%)", 100.0 * **v / total.max(1e-12)))
        .collect();
    println!("self time by call over {} span(s): {}", mf.phases.len(), parts.join(", "));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two-kernel subset the tests run: SR1 (1D) and HS (2D).
    fn subset() -> Vec<Workload> {
        catalog(Scale::Test).into_iter().filter(|w| w.abbr == "SR1" || w.abbr == "HS").collect()
    }

    fn quick(name: &'static str, passes: usize, mf: Option<&mut RunManifest>) -> Measured {
        let kind = WORKLOADS.iter().find(|(n, _)| *n == name).expect("known workload").1;
        measure(name, kind, subset, 3, 0.0, passes, mf)
    }

    fn spec() -> json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names_units(spec: &json::Value, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .expect(key)
            .as_array()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(json::Value::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn every_workload_passes_on_the_test_subset_and_repeats_exactly() {
        for (name, _) in WORKLOADS {
            let mut mf = RunManifest::new("test", &[]);
            let traced = quick(name, 1, Some(&mut mf));
            let untraced = quick(name, 2, None);
            for m in [&traced, &untraced] {
                assert!(m.ledger.failures.is_empty(), "{name}: {:?}", m.ledger.failures);
                assert!(m.ledger.attempted > 0);
            }
            // Two measured passes repeated the warm-up pass exactly (the
            // ledger would hold a nondeterminism failure otherwise), and
            // tracing does not change the modelled outputs.
            assert_eq!(traced.model, untraced.model, "{name}");
            assert_eq!(traced.fingerprint, untraced.fingerprint, "{name}");
            // Slot shares come from the traced profile launches only.
            for (k, v) in &untraced.layers {
                assert_eq!(traced.layers.get(k), Some(v), "{name}: {k}");
            }
            assert!(untraced.end_to_end().iter().all(|(_, _, v)| *v > 0.0), "{name}");
            assert!(!self_times(&mf).is_empty());
        }
    }

    #[test]
    fn workloads_separate_the_layers_as_predicted() {
        let mut mf = RunManifest::new("test", &[]);
        let base = quick("eval-base", 1, Some(&mut mf));
        for (k, v) in &base.layers {
            if k.starts_with("darsie.") {
                assert_eq!(*v, 0.0, "eval-base must never probe DARSIE structures: {k}");
            }
        }
        let slots: f64 = base
            .layers
            .iter()
            .filter(|(k, _)| k.starts_with("gpu_sim.slot."))
            .map(|(_, v)| v)
            .sum();
        assert!((slots - 1.0).abs() < 1e-9, "slot shares sum to {slots}");
        let mut mf = RunManifest::new("test", &[]);
        let analysis = quick("analysis", 1, Some(&mut mf));
        assert!(
            analysis.layers.keys().all(|k| !k.starts_with("gpu_sim.")),
            "analysis launched the simulator"
        );
        assert!(mf.phases.iter().all(|p| !p.name.ends_with("/launch")));
    }

    #[test]
    fn emitted_metric_names_match_benchmark_json() {
        let spec = spec();
        let end_to_end: Vec<(String, String)> =
            metrics::END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(names_units(&spec, "end_to_end"), end_to_end);
        let per_layer: Vec<(String, String)> =
            metrics::per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(names_units(&spec, "per_layer"), per_layer);
        let workloads: Vec<String> = spec
            .get("workloads")
            .expect("workloads")
            .as_array()
            .iter()
            .map(|w| w.get("name").and_then(json::Value::as_str).expect("name").to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|(n, _)| n.to_string()));
        // A traced run fills the table without inventing names.
        let mut mf = RunManifest::new("test", &[]);
        let m = quick("pascal28", 1, Some(&mut mf));
        assert_eq!(metrics::fill(&metrics::per_layer(), &m.layers).len(), per_layer.len());
    }

    #[test]
    fn corrupted_output_memory_counts_as_a_failure() {
        let cat = subset();
        let hs = cat.iter().position(|w| w.abbr == "HS").expect("HS in the subset");
        let mut s = sim::Sim::new("eval-base", &cat, 4, &[Technique::Base]);
        let mut res = gpu_sim::Gpu::new(darsie_bench::eval_gpu(4), Technique::Base).launch(
            &cat[hs].ck,
            &cat[hs].launch,
            cat[hs].memory.clone(),
        );
        // HotSpot's third parameter is its output buffer.
        let out = u64::from(cat[hs].launch.params[2].0);
        res.memory.write_u32(out, res.memory.read_u32(out) ^ 0x7f80_0001);
        let mut ledger = Ledger::default();
        ledger.record(|| "HS".to_string(), s.judge(hs, &res));
        assert_eq!((ledger.attempted, ledger.failures.len()), (1, 1));
        assert!(ledger.failures[0].contains("CPU reference mismatch"), "{:?}", ledger.failures);
    }

    #[test]
    fn a_launch_that_panics_counts_as_a_failure() {
        let cat = subset();
        let mut s = sim::Sim::new("eval-base", &cat, 4, &[Technique::Base]).with_max_cycles(10);
        let mut ledger = Ledger::default();
        s.pass(&[0, 1], &mut Clock::new(None), &mut ledger);
        assert_eq!(ledger.failures.len(), 2, "{:?}", ledger.failures);
        assert!(ledger.failures[0].contains("panicked"), "{:?}", ledger.failures);
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse(&args("--workload pascal28 --seed 4 --seconds 20 --trace 1")).expect("valid");
        assert_eq!((o.workload, o.seed, o.seconds, o.trace), ("pascal28", 4, 20.0, true));
        for bad in [
            "--workload nope",
            "--seed 1",
            "--workload analysis --trace 2",
            "--workload analysis --manifest x",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
