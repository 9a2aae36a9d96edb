//! The metric tables (names and units as `BENCHMARK.json` lists them) and
//! the result line the benchmark prints last.

use crate::json::escape;
use gpu_sim::StallCause;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_heap_mb", "MB")];

/// Per-layer metrics measured on the host clock or allocator. Every other
/// per-layer metric is a deterministic count or ratio that must repeat
/// bit for bit unless the model changes.
const HOST: [&str; 16] = [
    "bench.traced_wall_s",
    "gpu_sim.launch_s",
    "gpu_sim.mem_clone_s",
    "gpu_sim.ns_per_sm_cycle",
    "gpu_sim.ns_per_winst",
    "gpu_sim.allocs_per_sm_cycle",
    "gpu_sim.alloc_mb",
    "gpu_sim.digest_share",
    "simt_compiler.compile_s",
    "simt_verify.verify_full_s",
    "simt_verify.prove_s",
    "simt_verify.certify_s",
    "simt_verify.certify_family_s",
    "simt_verify.member_certify_s",
    "simt_verify.estimate_s",
    "simt_verify.alloc_mb",
];

/// True for per-layer metrics that must repeat exactly.
pub fn is_exact(name: &str) -> bool {
    !HOST.contains(&name)
}

/// Per-layer metrics, printed by traced runs: `(name, unit)`. Names are
/// `<crate>.<metric>`; a layer a workload never calls reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut t: Vec<(String, &'static str)> = Vec::new();
    let add = |t: &mut Vec<(String, &'static str)>, names: &[&str], unit: &'static str| {
        t.extend(names.iter().map(|n| ((*n).to_string(), unit)));
    };
    add(&mut t, &["bench.traced_wall_s", "gpu_sim.launch_s", "gpu_sim.mem_clone_s"], "s");
    add(&mut t, &["gpu_sim.ns_per_sm_cycle", "gpu_sim.ns_per_winst"], "ns");
    add(&mut t, &["gpu_sim.allocs_per_sm_cycle"], "count");
    add(&mut t, &["gpu_sim.alloc_mb"], "MB");
    add(&mut t, &["gpu_sim.digest_share"], "fraction");
    for c in StallCause::ALL {
        t.push((format!("gpu_sim.slot.{}", c.label()), "fraction"));
    }
    add(&mut t, &["gpu_sim.sim_cycles"], "cycles");
    add(
        &mut t,
        &["gpu_sim.icache_miss_rate", "gpu_sim.l1_hit_rate", "gpu_sim.l2_hit_rate"],
        "fraction",
    );
    add(
        &mut t,
        &[
            "gpu_sim.dram_transactions",
            "gpu_sim.global_transactions",
            "gpu_sim.smem_bank_conflicts",
            "gpu_sim.rf_bank_conflicts",
            "gpu_sim.barrier_waits",
            "gpu_sim.instrs_fetched",
        ],
        "count",
    );
    add(&mut t, &["gpu_sim.active_cycle_frac", "darsie.insn_eliminated_frac"], "fraction");
    add(&mut t, &["darsie.speedup_gmean"], "x");
    add(&mut t, &["darsie.skip_table_probes"], "count");
    add(&mut t, &["darsie.skip_yield"], "fraction");
    add(&mut t, &["darsie.leaders_elected"], "count");
    add(&mut t, &["darsie.coalesced_frac"], "fraction");
    add(
        &mut t,
        &[
            "darsie.coalescer_rejections",
            "darsie.skip_table_evictions",
            "darsie.load_invalidations",
            "darsie.rename_reads",
            "darsie.rename_writes",
            "darsie.freelist_stalls",
            "darsie.leader_giveups",
        ],
        "count",
    );
    add(&mut t, &["darsie.wait_for_leader_cycles", "darsie.branch_sync_cycles"], "cycles");
    add(&mut t, &["darsie.majority_evictions"], "count");
    add(&mut t, &["gpu_energy.total_uj"], "uJ");
    add(&mut t, &["gpu_energy.darsie_overhead_frac"], "fraction");
    add(&mut t, &["simt_compiler.compile_s"], "s");
    add(&mut t, &["simt_compiler.skippable_static"], "count");
    add(
        &mut t,
        &[
            "simt_verify.verify_full_s",
            "simt_verify.prove_s",
            "simt_verify.certify_s",
            "simt_verify.certify_family_s",
            "simt_verify.member_certify_s",
            "simt_verify.estimate_s",
        ],
        "s",
    );
    add(&mut t, &["simt_verify.alloc_mb"], "MB");
    add(
        &mut t,
        &[
            "simt_verify.claims_proved",
            "simt_verify.claims_unknown",
            "simt_verify.fuel_used",
            "simt_verify.terms",
            "simt_verify.family_proved",
            "simt_verify.family_sampled",
            "simt_verify.pairs_checked",
            "simt_verify.pairs_proved",
            "simt_verify.member_launches",
            "simt_verify.unbounded_loops",
            "simt_verify.warnings",
        ],
        "count",
    );
    t
}

/// Fills `table` from `values`, reporting 0 for a metric the run did not
/// produce.
///
/// # Panics
///
/// Panics when `values` holds a name the table lacks: every measured
/// metric must be declared.
pub fn fill(
    table: &[(String, &'static str)],
    values: &BTreeMap<String, f64>,
) -> Vec<(String, &'static str, f64)> {
    for k in values.keys() {
        assert!(table.iter().any(|(n, _)| n == k), "metric {k} is missing from the table");
    }
    table.iter().map(|(n, u)| (n.clone(), *u, values.get(n).copied().unwrap_or(0.0))).collect()
}

/// The contract's last line: correctness, operation counts and metrics.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(String, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", escape(n), escape(u))
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    )
}
