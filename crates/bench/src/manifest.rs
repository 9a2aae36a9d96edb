//! Structured run telemetry: the [`RunManifest`] every `darsie-sim`
//! subcommand can emit under `--manifest PATH`.
//!
//! A manifest is the run's flight recorder: tool and schema versions, the
//! exact subcommand and arguments, a fingerprint of the GPU configuration
//! the run used, per-phase spans (wall time plus allocation deltas from
//! the [`CountingAlloc`] global allocator), integer counters (lint
//! totals, workload counts), floating-point metrics (bracket widths),
//! and the per-run digest roots of every simulation the subcommand
//! performed. CI archives manifests as artifacts so a regression can be
//! traced to the phase that slowed down or the run whose root drifted.
//!
//! Like every other machine-readable document of the CLI the manifest is
//! built as a [`Json`] tree; digest roots and fingerprints are emitted as
//! `"0x..."` hex strings because they are full 64-bit values and JSON
//! numbers only carry 53 bits of integer precision.

use crate::json::Json;
use gpu_sim::digest::{fold, splitmix64, FNV_OFFSET};
use gpu_sim::GpuConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Version of the manifest (and shared `--json` header) schema. Bump on
/// any breaking change to the emitted document shape.
pub const SCHEMA_VERSION: u32 = 1;

/// Tool name emitted in headers and manifests.
pub const TOOL: &str = "darsie-sim";

/// Tool version (the workspace package version).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Bytes allocated since process start (never decremented: this counts
/// allocation traffic, not live heap).
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
/// Allocation calls since process start.
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-delegating global allocator that counts allocation
/// traffic, so phase spans can report `alloc_bytes`/`allocs` deltas.
/// Install it with `#[global_allocator]` in the binary.
pub struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counters are plain atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Current allocation-traffic counters `(bytes, calls)`.
#[must_use]
pub fn alloc_counters() -> (u64, u64) {
    (ALLOC_BYTES.load(Ordering::Relaxed), ALLOC_CALLS.load(Ordering::Relaxed))
}

/// A stable fingerprint of a GPU configuration: folds the full `Debug`
/// rendering (which covers every field, including the digest-layer
/// settings) through the digest hash. Two runs with equal fingerprints
/// simulated the same machine.
#[must_use]
pub fn config_fingerprint(cfg: &GpuConfig) -> u64 {
    let mut h = FNV_OFFSET;
    for b in format!("{cfg:?}").bytes() {
        fold(&mut h, u64::from(b));
    }
    splitmix64(h)
}

/// The shared `--json` document header: every machine-readable document
/// the CLI prints is an object that starts with these fields, so CI
/// consumers can check they are parsing the document shape they expect.
/// `cfg` is `None` for subcommands that never construct a GPU (e.g.
/// `lints`).
#[must_use]
pub fn json_header(subcommand: &str, cfg: Option<&GpuConfig>) -> Json {
    Json::obj()
        .field("tool", TOOL)
        .field("version", VERSION)
        .field("schema_version", SCHEMA_VERSION)
        .field("subcommand", subcommand)
        .field("config_fingerprint", cfg.map(|c| Json::hex(config_fingerprint(c))))
}

/// One timed phase of a run.
#[derive(Debug, Clone)]
pub struct PhaseSpan {
    /// Phase label (stable across runs, e.g. `run:BIN`).
    pub name: String,
    /// Offset of the phase start from manifest creation, seconds.
    pub start_seconds: f64,
    /// Wall-clock duration, seconds.
    pub wall_seconds: f64,
    /// Bytes of allocation traffic during the phase.
    pub alloc_bytes: u64,
    /// Allocation calls during the phase.
    pub allocs: u64,
}

/// Structured telemetry for one CLI invocation.
#[derive(Debug)]
pub struct RunManifest {
    /// Subcommand name (`verify`, `estimate`, `replay-diff`, ... or `run`
    /// for the bare benchmark mode).
    pub subcommand: String,
    /// Arguments after the subcommand, verbatim.
    pub args: Vec<String>,
    /// Fingerprint of the GPU configuration, when one was constructed.
    pub config_fingerprint: Option<u64>,
    /// Completed phase spans, in execution order.
    pub phases: Vec<PhaseSpan>,
    /// Integer counters (lint totals, workload counts, violations).
    pub counters: BTreeMap<String, u64>,
    /// Floating-point metrics (overheads, ratios).
    pub metrics: BTreeMap<String, f64>,
    /// Per-run digest roots, keyed `ABBR/TECHNIQUE` (or any stable label).
    pub digest_roots: BTreeMap<String, u64>,
    /// Exit code the process is about to return.
    pub exit_code: i32,
    started: Instant,
}

impl RunManifest {
    /// A fresh manifest; created at subcommand entry so phase offsets are
    /// relative to the start of real work.
    #[must_use]
    pub fn new(subcommand: &str, args: &[String]) -> RunManifest {
        RunManifest {
            subcommand: subcommand.to_string(),
            args: args.to_vec(),
            config_fingerprint: None,
            phases: Vec::new(),
            counters: BTreeMap::new(),
            metrics: BTreeMap::new(),
            digest_roots: BTreeMap::new(),
            exit_code: 0,
            started: Instant::now(),
        }
    }

    /// Records the GPU configuration fingerprint.
    pub fn set_config(&mut self, cfg: &GpuConfig) {
        self.config_fingerprint = Some(config_fingerprint(cfg));
    }

    /// Runs `f` as a named phase, recording wall time and allocation
    /// deltas, and returns its result.
    pub fn phase<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start_seconds = self.started.elapsed().as_secs_f64();
        let (b0, c0) = alloc_counters();
        let t0 = Instant::now();
        let out = f();
        let wall_seconds = t0.elapsed().as_secs_f64();
        let (b1, c1) = alloc_counters();
        self.phases.push(PhaseSpan {
            name: name.to_string(),
            start_seconds,
            wall_seconds,
            alloc_bytes: b1.saturating_sub(b0),
            allocs: c1.saturating_sub(c0),
        });
        out
    }

    /// Adds to an integer counter.
    pub fn count(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Sets a floating-point metric.
    pub fn metric(&mut self, name: &str, v: f64) {
        self.metrics.insert(name.to_string(), v);
    }

    /// Records one run's digest root under a stable label.
    pub fn digest_root(&mut self, label: &str, root: u64) {
        self.digest_roots.insert(label.to_string(), root);
    }

    /// Total wall time since manifest creation, seconds.
    #[must_use]
    pub fn elapsed_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Renders the manifest as a JSON document (with trailing newline).
    #[must_use]
    pub fn render_json(&self) -> String {
        let fixed6 = |v: f64| Json::num(format_args!("{v:.6}"));
        let phases = self.phases.iter().map(|p| {
            Json::obj()
                .field("name", p.name.as_str())
                .field("start_seconds", fixed6(p.start_seconds))
                .field("wall_seconds", fixed6(p.wall_seconds))
                .field("alloc_bytes", p.alloc_bytes)
                .field("allocs", p.allocs)
        });
        let doc = Json::obj()
            .field("tool", TOOL)
            .field("version", VERSION)
            .field("schema_version", SCHEMA_VERSION)
            .field("subcommand", self.subcommand.as_str())
            .field("args", Json::arr(self.args.iter().map(String::as_str)))
            .field("config_fingerprint", self.config_fingerprint.map(Json::hex))
            .field("wall_seconds", fixed6(self.elapsed_seconds()))
            .field("exit_code", self.exit_code)
            .field("phases", Json::arr(phases))
            .field(
                "counters",
                self.counters.iter().map(|(k, &v)| (k.as_str(), v)).collect::<Json>(),
            )
            .field(
                "metrics",
                self.metrics.iter().map(|(k, &v)| (k.as_str(), fixed6(v))).collect::<Json>(),
            )
            .field(
                "digest_roots",
                self.digest_roots
                    .iter()
                    .map(|(k, &v)| (k.as_str(), Json::hex(v)))
                    .collect::<Json>(),
            );
        format!("{doc}\n")
    }

    /// Writes the manifest to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error when the path is not writable.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_alloc_counters_are_monotone() {
        let (b0, c0) = alloc_counters();
        let v: Vec<u64> = (0..1024).collect();
        assert_eq!(v.len(), 1024);
        let (b1, c1) = alloc_counters();
        // The counters only move forward; whether this particular Vec was
        // observed depends on the test binary's global allocator, so only
        // monotonicity is asserted here (the CLI installs CountingAlloc).
        assert!(b1 >= b0);
        assert!(c1 >= c0);
    }

    #[test]
    fn config_fingerprint_distinguishes_configs() {
        let a = GpuConfig::test_small();
        let mut b = GpuConfig::test_small();
        b.num_sms += 1;
        assert_eq!(config_fingerprint(&a), config_fingerprint(&a));
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
    }

    #[test]
    fn manifest_renders_all_sections() {
        let mut m = RunManifest::new("verify", &["--json".to_string()]);
        m.set_config(&GpuConfig::test_small());
        let out = m.phase("work", || 7u32);
        assert_eq!(out, 7);
        m.count("total_errors", 0);
        m.count("workloads", 13);
        m.metric("mean_bracket_width", 1.25);
        m.digest_root("BIN/DARSIE", 0xdead_beef_0000_0001);
        m.exit_code = 0;
        let json = m.render_json();
        for needle in [
            "\"tool\":\"darsie-sim\"",
            "\"schema_version\":1",
            "\"subcommand\":\"verify\"",
            "\"args\":[\"--json\"]",
            "\"config_fingerprint\":\"0x",
            "\"phases\":[{\"name\":\"work\"",
            "\"wall_seconds\":",
            "\"alloc_bytes\":",
            "\"counters\":{\"total_errors\":0,\"workloads\":13}",
            "\"metrics\":{\"mean_bracket_width\":1.250000}",
            "\"digest_roots\":{\"BIN/DARSIE\":\"0xdeadbeef00000001\"}",
            "\"exit_code\":0",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn header_has_the_shared_fields() {
        let h = json_header("verify", Some(&GpuConfig::test_small())).to_string();
        assert!(h.starts_with("{\"tool\":\"darsie-sim\""));
        assert!(h.contains("\"schema_version\":1"));
        assert!(h.contains("\"subcommand\":\"verify\""));
        assert!(h.contains("\"config_fingerprint\":\"0x"));
        let h2 = json_header("lints", None).to_string();
        assert!(h2.contains("\"config_fingerprint\":null"));
    }
}
