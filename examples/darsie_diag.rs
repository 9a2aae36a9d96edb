//! DARSIE diagnostics across the whole benchmark suite: per-workload
//! speedup, skip fraction and the protocol costs (branch-sync stalls,
//! leader waits, freelist stalls, evictions) — the quickest way to see
//! where the mechanism wins and what it pays.
//!
//! ```text
//! cargo run --release --example darsie_diag
//! ```

use gpu_sim::Technique;
use workloads::{catalog, Scale};

fn main() {
    let cfg = gpu_sim::GpuConfig {
        num_sms: 4,
        shadow_check: false,
        ..gpu_sim::GpuConfig::pascal_gtx1080ti()
    };
    let mut logs = (0f64, 0usize, 0f64, 0usize);
    println!(
        "{:8} {:>7} {:>6} {:>10} {:>9} {:>8} {:>7}",
        "bench", "speedup", "skip%", "sync-cyc", "wait-cyc", "flstall", "evict"
    );
    for w in catalog(Scale::Eval) {
        let base = w.run(&cfg, Technique::Base);
        let d = w.run(&cfg, Technique::darsie());
        let sp = base.cycles as f64 / d.cycles as f64;
        println!(
            "{:8} {:>7.2} {:>6.1} {:>10} {:>9} {:>8} {:>7}",
            w.abbr,
            sp,
            d.stats.skip_fraction() * 100.0,
            d.stats.darsie.branch_sync_cycles,
            d.stats.darsie.wait_for_leader_cycles,
            d.stats.darsie.freelist_stalls,
            d.stats.darsie.skip_table_evictions
        );
        if w.is_2d {
            logs.2 += sp.ln();
            logs.3 += 1;
        } else {
            logs.0 += sp.ln();
            logs.1 += 1;
        }
    }
    println!(
        "GMEAN-1D {:.3}   GMEAN-2D {:.3}",
        (logs.0 / logs.1 as f64).exp(),
        (logs.2 / logs.3 as f64).exp()
    );
}
