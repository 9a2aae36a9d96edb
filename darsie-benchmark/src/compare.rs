//! `darsie-benchmark compare`: runs of a parent commit against runs of a
//! change, judged with the bounds `BENCHMARK.json` fixes.
//!
//! Each input file holds the captured standard output of any number of
//! runs; a run is its `run {...}` record followed by its result line.

use crate::json::{self, Value};
use crate::metrics::is_exact;
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The outcome for one (workload, metric) pair.
pub struct Comparison {
    /// Pairs (i-th parent run, i-th change run) the change read better
    /// in; ties count for neither side.
    pub wins: usize,
    pub pairs: usize,
    /// Wider of the two sides' interquartile ranges, as a share of their
    /// median.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Better: the change wins at least nine tenths of the pairs and its
/// median beats the parent's by more than the parent's interquartile
/// range. Otherwise a spread wider than the bound is unresolved, unless
/// every change run beats every parent run. Otherwise worse when the
/// change's median is worse than the parent's by more than the bound.
pub fn judge(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Comparison {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let pairs = parent.len().min(change.len());
    let wins = parent.iter().zip(change).filter(|(p, c)| better(**c, **p)).count();
    let (mp, mc) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let gain = if lower_is_better { mp - mc } else { mc - mp };
    let spread = spread(parent).max(spread(change));
    let all_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
    let verdict = if pairs > 0 && wins * 10 >= pairs * 9 && gain > q3 - q1 {
        Verdict::Better
    } else if spread > bound {
        if all_better {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        }
    } else if -gain > bound * mp.abs() {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    };
    Comparison { wins, pairs, spread, verdict }
}

/// One run read back from captured output.
struct Sample {
    workload: String,
    trace: bool,
    /// Exact modelled outputs, rendered for equality.
    exact: Vec<(String, String)>,
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

fn read(path: &str) -> Result<Vec<Sample>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    samples(&text, path)
}

/// The runs in captured output `text` (read from `path`).
fn samples(text: &str, path: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    let mut current: Option<Sample> = None;
    for (n, line) in text.lines().enumerate() {
        let bad = |e: String| format!("{path}:{}: {e}", n + 1);
        if let Some(record) = line.strip_prefix("run ") {
            let v = json::parse(record).map_err(bad)?;
            current = Some(Sample {
                workload: v.get("workload").and_then(Value::as_str).unwrap_or("").to_string(),
                trace: v.get("trace").and_then(Value::as_f64) == Some(1.0),
                exact: v.get("exact").map_or_else(Vec::new, |e| {
                    e.members().iter().map(|(k, v)| (k.clone(), render(v))).collect()
                }),
                metrics: BTreeMap::new(),
                attempted: 0,
                failed: 0,
            });
        } else if line.starts_with('{') {
            let v = json::parse(line).map_err(bad)?;
            let Some(metrics) = v.get("metrics") else { continue };
            let mut s = current
                .take()
                .ok_or_else(|| bad("result line without a run record".to_string()))?;
            for (k, m) in metrics.members() {
                s.metrics
                    .insert(k.clone(), m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN));
            }
            let count = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u64;
            (s.attempted, s.failed) = (count("attempted"), count("failed"));
            out.push(s);
        }
    }
    Ok(out)
}

fn render(v: &Value) -> String {
    match v {
        Value::Num(n) => format!("{n}"),
        Value::Str(s) => s.clone(),
        other => format!("{other:?}"),
    }
}

/// `(name, lower is better, bound)` of each end-to-end metric.
fn bounds(spec_path: &str) -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = json::parse(&text).map_err(|e| format!("{spec_path}: {e}"))?;
    spec.get("end_to_end")
        .ok_or("no end_to_end metrics")?
        .as_array()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).ok_or("metric without a name")?;
            let lower = m.get("better").and_then(Value::as_str) == Some("lower");
            let bound = m.get("bound").and_then(Value::as_f64).ok_or("metric without a bound")?;
            Ok((name.to_string(), lower, bound))
        })
        .collect()
}

pub fn main(args: &[String]) -> i32 {
    let (mut parent, mut change, mut spec) = (Vec::new(), Vec::new(), "BENCHMARK.json".to_string());
    let mut side: Option<&mut Vec<String>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            "--spec" => match it.next() {
                Some(p) => spec = p.clone(),
                None => return usage("--spec expects a path"),
            },
            file => match side.as_deref_mut() {
                Some(files) => files.push(file.to_string()),
                None => return usage(&format!("{file}: name --parent or --change first")),
            },
        }
    }
    if parent.is_empty() || change.is_empty() {
        return usage("compare needs --parent FILE... and --change FILE...");
    }
    let loaded = bounds(&spec).and_then(|b| {
        let load = |files: &[String]| -> Result<Vec<Sample>, String> {
            files
                .iter()
                .map(|f| read(f))
                .collect::<Result<Vec<_>, _>>()
                .map(|v| v.into_iter().flatten().collect())
        };
        Ok((b, load(&parent)?, load(&change)?))
    });
    match loaded {
        Ok((b, p, c)) => i32::from(!report(&b, &p, &c)),
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

fn usage(msg: &str) -> i32 {
    eprintln!("{msg}\n{}", crate::USAGE);
    2
}

/// Prints the comparison; false when a pair reads worse or an exact
/// output differs.
fn report(bounds: &[(String, bool, f64)], parent: &[Sample], change: &[Sample]) -> bool {
    let mut workloads: Vec<&str> = Vec::new();
    for s in parent.iter().chain(change) {
        if !workloads.contains(&s.workload.as_str()) {
            workloads.push(&s.workload);
        }
    }
    let mut ok = true;
    for wl in workloads {
        let (p, c) = (pick(parent, wl, false), pick(change, wl, false));
        println!("== {wl}: {} parent and {} change untraced run(s)", p.len(), c.len());
        if !p.is_empty() && !c.is_empty() {
            println!(
                "{:14} {:>32} {:>32} {:>7} {:>7} {:>6}  verdict",
                "metric",
                "parent median [q1, q3]",
                "change median [q1, q3]",
                "wins",
                "spread",
                "bound"
            );
        }
        for (name, lower, bound) in bounds {
            let values = |side: &[&Sample]| -> Vec<f64> {
                side.iter().filter_map(|s| s.metrics.get(name).copied()).collect()
            };
            let (pv, cv) = (values(&p), values(&c));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let r = judge(&pv, &cv, *lower, *bound);
            ok &= r.verdict != Verdict::Worse;
            let dist = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.6} [{q1:.6}, {q3:.6}]", median(v))
            };
            println!(
                "{name:14} {:>32} {:>32} {:>7} {:>6.1}% {:>5.0}%  {}",
                dist(&pv),
                dist(&cv),
                format!("{}/{}", r.wins, r.pairs),
                100.0 * r.spread,
                100.0 * bound,
                r.verdict.label()
            );
        }
        let failed = |side: &[Sample]| {
            let f: u64 = side.iter().filter(|s| s.workload == wl).map(|s| s.failed).sum();
            let a: u64 = side.iter().filter(|s| s.workload == wl).map(|s| s.attempted).sum();
            format!("{f}/{a}")
        };
        println!("failed operations: parent {}, change {}", failed(parent), failed(change));

        let all: Vec<&Sample> = parent.iter().chain(change).filter(|s| s.workload == wl).collect();
        ok &= same_everywhere(
            "exact modelled outputs",
            all.iter().map(|s| s.exact.clone()).collect(),
        );
        let traced: Vec<&Sample> = all.iter().copied().filter(|s| s.trace).collect();
        if !traced.is_empty() {
            let exact_layers = |s: &Sample| -> Vec<(String, String)> {
                s.metrics
                    .iter()
                    .filter(|(k, _)| is_exact(k))
                    .map(|(k, v)| (k.clone(), format!("{v}")))
                    .collect()
            };
            ok &= same_everywhere(
                "exact per-layer metrics",
                traced.iter().map(|s| exact_layers(s)).collect(),
            );
            for (side, name) in [(parent, "parent"), (change, "change")] {
                let t: Vec<f64> = pick(side, wl, true)
                    .iter()
                    .filter_map(|s| s.metrics.get("bench.traced_wall_s").copied())
                    .collect();
                let u: Vec<f64> = pick(side, wl, false)
                    .iter()
                    .filter_map(|s| s.metrics.get("wall_s").copied())
                    .collect();
                if !t.is_empty() && !u.is_empty() {
                    println!(
                        "tracing overhead ({name}): traced wall {:.6} s vs untraced {:.6} s = {:+.1}%",
                        median(&t),
                        median(&u),
                        100.0 * (median(&t) / median(&u) - 1.0)
                    );
                }
            }
        }
    }
    ok
}

/// The runs of workload `wl` on one side, traced or untraced.
fn pick<'a>(side: &'a [Sample], wl: &str, trace: bool) -> Vec<&'a Sample> {
    side.iter().filter(|s| s.workload == wl && s.trace == trace).collect()
}

/// Prints whether every run reported the same values; false if not.
fn same_everywhere(what: &str, runs: Vec<Vec<(String, String)>>) -> bool {
    let Some(first) = runs.first() else { return true };
    let differing: Vec<String> = first
        .iter()
        .filter(|(k, v)| {
            runs.iter().any(|r| r.iter().find(|(rk, _)| rk == k).map(|(_, rv)| rv) != Some(v))
        })
        .map(|(k, _)| {
            let seen: Vec<&str> = runs
                .iter()
                .filter_map(|r| r.iter().find(|(rk, _)| rk == k).map(|(_, v)| v.as_str()))
                .collect();
            format!("{k} = {}", seen.join(" | "))
        })
        .collect();
    if differing.is_empty() && runs.iter().all(|r| r.len() == first.len()) {
        let shown: Vec<String> = first.iter().take(4).map(|(k, v)| format!("{k}={v}")).collect();
        println!(
            "{what}: identical in {} run(s) ({}{})",
            runs.len(),
            shown.join(" "),
            if first.len() > 4 { " ..." } else { "" }
        );
        true
    } else {
        println!("{what}: DIFFER across runs: {}", differing.join("; "));
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_are_unchanged() {
        let xs = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.01];
        let r = judge(&xs, &xs, true, 0.1);
        assert_eq!((r.wins, r.pairs, r.verdict), (0, 10, Verdict::Unchanged));
    }

    #[test]
    fn nine_wins_and_a_gap_beyond_the_iqr_is_better() {
        let parent = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.01];
        let mut change = parent.map(|x| x - 0.1);
        change[3] = 1.5;
        let r = judge(&parent, &change, true, 0.1);
        assert_eq!((r.wins, r.verdict), (9, Verdict::Better));
        // The same gap in a higher-is-better metric is a regression.
        assert_eq!(judge(&parent, &change, false, 0.05).verdict, Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let parent = [1.0, 1.3, 0.8, 1.2, 0.9, 1.1, 0.7, 1.25, 0.95, 1.05];
        let change = parent.map(|x| x * 1.05);
        let r = judge(&parent, &change, true, 0.1);
        assert!(r.spread > 0.1);
        assert_eq!(r.verdict, Verdict::Unresolved);
    }

    #[test]
    fn reads_runs_and_compares_identical_inputs_as_unchanged() {
        let mut text = String::new();
        for (i, w) in [1.00, 1.02, 0.99, 1.01].iter().enumerate() {
            text.push_str(&format!(
                "# header\nrun {{\"workload\":\"eval-base\",\"seed\":{i},\"trace\":0,\"passes\":3,\
                 \"exact\":{{\"sim_cycles\":167383,\"fingerprint\":\"0x01\"}}}}\n\
                 {{\"correct\":true,\"attempted\":13,\"failed\":0,\"metrics\":{{\
                 \"wall_s\":{{\"value\":{w},\"unit\":\"s\"}},\"setup_s\":{{\"value\":0.02,\"unit\":\"s\"}},\
                 \"peak_heap_mb\":{{\"value\":40.5,\"unit\":\"MB\"}}}}}}\n"
            ));
        }
        let samples = samples(&text, "runs.txt").expect("parses");
        assert_eq!(samples.len(), 4);
        assert_eq!(samples[0].metrics["wall_s"], 1.0);
        let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let b = bounds(spec).expect("bounds");
        for (name, lower, bound) in &b {
            let v: Vec<f64> = samples.iter().map(|s| s.metrics[name]).collect();
            assert_eq!(judge(&v, &v, *lower, *bound).verdict, Verdict::Unchanged, "{name}");
        }
        assert!(report(&b, &samples, &samples));
    }
}
