//! Identity gate for the SM cycle's hot path: every catalog workload, on
//! an 8-SM machine where most SMs sit idle, must reproduce a pinned table
//! of `(cycles, instrs_executed, instrs_skipped, digest_root)` plus a
//! fingerprint of its cycle-accounted profile and pipeline event trace,
//! and a fingerprint of its whole `SimStats`. BASE and DARSIE also run on
//! a 28-SM machine, where most SM-cycles are spent waiting, and with a
//! fine digest window.
//!
//! The tables pin the simulator's modelled behaviour, not its speed: a
//! host-side optimisation of `Sm::cycle` (buffer reuse, sleeping SMs,
//! borrowed instructions) must leave every row unchanged. A row that moves
//! means the model changed; re-pin only when that is the intent.

use darsie_repro::sim::{DigestConfig, GpuConfig, SchedulerPolicy, SimResult, Technique};
use std::fmt::Debug;
use workloads::{catalog, Scale};

/// One pinned run: workload, technique/scheduler, cycles, executed,
/// skipped, digest root, profile + event-trace fingerprint.
type Row = (&'static str, &'static str, u64, u64, u64, u64, u64);

/// Whole-`SimStats` fingerprint of one `PINNED` run: workload,
/// technique/scheduler, [`fnv`] of the `Debug` rendering.
type StatsRow = (&'static str, &'static str, u64);

/// One many-SM run: a [`Row`] plus its whole-`SimStats` fingerprint.
type WideRow = (&'static str, &'static str, u64, u64, u64, u64, u64, u64);

/// One digest-cadence run: workload, technique, cadence, digest root,
/// epochs per chain, [`fnv`] of every chain (components included).
type CadenceRow = (&'static str, &'static str, &'static str, u64, usize, u64);

fn plain_cfg(num_sms: usize, scheduler: SchedulerPolicy) -> GpuConfig {
    GpuConfig { num_sms, shadow_check: false, scheduler, ..GpuConfig::test_small() }
}

/// The equivalence suite's techniques under GTO, plus BASE and DARSIE
/// under LRR.
fn runs() -> Vec<(String, SchedulerPolicy, Technique)> {
    let gto = [
        Technique::Base,
        Technique::Uv,
        Technique::DacIdeal,
        Technique::darsie(),
        Technique::Darsie(darsie::DarsieConfig::ignore_store()),
        Technique::Darsie(darsie::DarsieConfig::no_cf_sync()),
        Technique::Darsie(darsie::DarsieConfig::no_versioning()),
        Technique::SiliconSync,
    ];
    let mut v: Vec<_> =
        gto.into_iter().map(|t| (format!("{}/GTO", t.label()), SchedulerPolicy::Gto, t)).collect();
    for t in [Technique::Base, Technique::darsie()] {
        v.push((format!("{}/LRR", t.label()), SchedulerPolicy::Lrr, t));
    }
    v
}

/// FNV-1a over a rendering.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the `Debug` rendering of the profile and event trace (both
/// are ordered containers, so the rendering is deterministic).
fn observability_fingerprint(r: &SimResult) -> u64 {
    fnv(&format!("{:?}{:?}", r.profile, r.events))
}

/// Runs `tech` plain and again with profiling and tracing on, checks that
/// observation changed nothing, and returns the plain result with the
/// observed run's [`observability_fingerprint`].
fn run_observed(
    w: &workloads::Workload,
    cfg: &GpuConfig,
    tech: &Technique,
    label: &str,
) -> (SimResult, u64) {
    let plain = w.run(cfg, tech.clone());
    let observed_cfg = GpuConfig { profile: true, trace_events: true, ..cfg.clone() };
    let observed = w.run(&observed_cfg, tech.clone());
    assert_eq!(
        observed.stats, plain.stats,
        "{} {label}: profiling or tracing changed SimStats",
        w.abbr
    );
    let profile = observed.profile.as_ref().expect("profiling enabled");
    for sm in &profile.sms {
        assert_eq!(sm.check_identity(), Ok(()), "{} {label}", w.abbr);
    }
    (plain, observability_fingerprint(&observed))
}

/// Compares `got` with a pinned table; on a mismatch returns the message
/// naming the first differing row, followed by the actual table.
fn table_diff<T: PartialEq + Debug>(
    name: &str,
    got: &[T],
    want: &[T],
    render: impl Fn(&T) -> String,
) -> Option<String> {
    if got == want {
        return None;
    }
    let first = got.iter().zip(want).position(|(g, w)| g != w);
    let table: String = got.iter().map(|r| format!("    {},\n", render(r))).collect();
    Some(format!(
        "{name} moved (first differing row: {first:?}; {} rows vs {} pinned). Actual \
         table:\n{table}",
        got.len(),
        want.len()
    ))
}

fn assert_tables(diffs: &[Option<String>]) {
    let msgs: Vec<&str> = diffs.iter().flatten().map(String::as_str).collect();
    assert!(msgs.is_empty(), "{}", msgs.join("\n"));
}

#[test]
fn hot_path_runs_match_the_pinned_table() {
    let mut got = Vec::new();
    let mut got_stats = Vec::new();
    for w in catalog(Scale::Test) {
        for (label, scheduler, tech) in runs() {
            let (plain, observed) = run_observed(&w, &plain_cfg(8, scheduler), &tech, &label);
            let s = &plain.stats;
            got.push((
                w.abbr.to_string(),
                label.clone(),
                s.cycles,
                s.instrs_executed,
                s.instrs_skipped.total(),
                s.digest_root,
                observed,
            ));
            got_stats.push((w.abbr.to_string(), label, fnv(&format!("{s:?}"))));
        }
    }
    let want: Vec<_> = PINNED
        .iter()
        .map(|&(a, l, c, e, k, d, f)| (a.to_string(), l.to_string(), c, e, k, d, f))
        .collect();
    let want_stats: Vec<_> =
        PINNED_STATS.iter().map(|&(a, l, f)| (a.to_string(), l.to_string(), f)).collect();
    assert_tables(&[
        table_diff("hot-path identity table", &got, &want, |(a, l, c, e, k, d, f)| {
            format!("(\"{a}\", \"{l}\", {c}, {e}, {k}, {d:#018x}, {f:#018x})")
        }),
        table_diff("whole-SimStats table", &got_stats, &want_stats, |(a, l, f)| {
            format!("(\"{a}\", \"{l}\", {f:#018x})")
        }),
    ]);
}

/// BASE and DARSIE under GTO on 28 SMs: at test scale most SMs hold one
/// TB or none, so most SM-cycles wait on memory or sit empty.
#[test]
fn many_sm_runs_match_the_pinned_table() {
    let mut got = Vec::new();
    for w in catalog(Scale::Test) {
        for tech in [Technique::Base, Technique::darsie()] {
            let label = tech.label();
            let (plain, observed) =
                run_observed(&w, &plain_cfg(28, SchedulerPolicy::Gto), &tech, label);
            let s = &plain.stats;
            got.push((
                w.abbr.to_string(),
                label.to_string(),
                s.cycles,
                s.instrs_executed,
                s.instrs_skipped.total(),
                s.digest_root,
                observed,
                fnv(&format!("{s:?}")),
            ));
        }
    }
    let want: Vec<_> = PINNED_MANY_SM
        .iter()
        .map(|&(a, l, c, e, k, d, f, s)| (a.to_string(), l.to_string(), c, e, k, d, f, s))
        .collect();
    assert_tables(&[table_diff("many-SM table", &got, &want, |(a, l, c, e, k, d, f, s)| {
        format!("(\"{a}\", \"{l}\", {c}, {e}, {k}, {d:#018x}, {f:#018x}, {s:#018x})")
    })]);
}

/// A fine digest window (every cycle, with component sub-digests) on the
/// 28-SM machine.
#[test]
fn digest_cadences_match_the_pinned_table() {
    let digest = DigestConfig::fine((100, 227));
    let mut got = Vec::new();
    for w in catalog(Scale::Test) {
        for tech in [Technique::Base, Technique::darsie()] {
            let cfg = GpuConfig { digest, ..plain_cfg(28, SchedulerPolicy::Gto) };
            let r = w.run(&cfg, tech.clone());
            let d = r.digests.as_ref().expect("digests enabled");
            got.push((
                w.abbr.to_string(),
                tech.label().to_string(),
                "fine:100-227".to_string(),
                d.root,
                d.mem_chain.entries.len(),
                fnv(&format!("{d:?}")),
            ));
        }
    }
    let want: Vec<_> = PINNED_CADENCES
        .iter()
        .map(|&(a, l, c, d, n, f)| (a.to_string(), l.to_string(), c.to_string(), d, n, f))
        .collect();
    assert_tables(&[table_diff("digest-cadence table", &got, &want, |(a, l, c, d, n, f)| {
        format!("(\"{a}\", \"{l}\", \"{c}\", {d:#018x}, {n}, {f:#018x})")
    })]);
}

/// Generated on the simulator before the hot-path rework.
#[rustfmt::skip]
const PINNED: &[Row] = &[
    ("BIN", "BASE/GTO", 594, 1640, 0, 0xc1ec3a5e43d5f5cc, 0x4e758eb20c1205ff),
    ("BIN", "UV/GTO", 566, 1458, 0, 0x7229912aec6017e4, 0xa08bcd2cb02c0cb6),
    ("BIN", "DAC-IDEAL/GTO", 521, 1348, 292, 0x7340aa8b48d8a7d9, 0xe950012d93c9190f),
    ("BIN", "DARSIE/GTO", 580, 1376, 264, 0x3883e34eaac2b715, 0x4b002e1c2bc6f871),
    ("BIN", "DARSIE-IGNORE-STORE/GTO", 580, 1376, 264, 0x3883e34eaac2b715, 0x4b002e1c2bc6f871),
    ("BIN", "DARSIE-NO-CF-SYNC/GTO", 556, 1376, 264, 0xf37ec1f91121b679, 0x885299e0c6556fbe),
    ("BIN", "DARSIE-NO-VERSIONING/GTO", 580, 1376, 264, 0x3883e34eaac2b715, 0x4b002e1c2bc6f871),
    ("BIN", "SILICON-SYNC/GTO", 630, 1640, 0, 0xe28a976cd2b67b3b, 0xa7a29738bcc7a76d),
    ("BIN", "BASE/LRR", 598, 1640, 0, 0xd4ab4e9e7d0508d5, 0xbee75e8f10244c1d),
    ("BIN", "DARSIE/LRR", 565, 1376, 264, 0xbc7cab69c2fc0a6d, 0x1487c270428a2254),
    ("PT", "BASE/GTO", 2148, 3104, 0, 0xc80947b0138df93d, 0x2187fd25b77a1279),
    ("PT", "UV/GTO", 2095, 2382, 0, 0x491809a5886cde79, 0xa2139238327407dd),
    ("PT", "DAC-IDEAL/GTO", 1652, 2080, 1024, 0xb71ef34edc240d7e, 0x8d20c8ce65fa9042),
    ("PT", "DARSIE/GTO", 1804, 2298, 806, 0xf9f67b3540af0cfc, 0x6b787ba739c01519),
    ("PT", "DARSIE-IGNORE-STORE/GTO", 1804, 2298, 806, 0xf9f67b3540af0cfc, 0x6b787ba739c01519),
    ("PT", "DARSIE-NO-CF-SYNC/GTO", 1806, 2298, 806, 0x74a089ca4de935b0, 0x5f414548d218f89e),
    ("PT", "DARSIE-NO-VERSIONING/GTO", 1804, 2298, 806, 0xf9f67b3540af0cfc, 0x6b787ba739c01519),
    ("PT", "SILICON-SYNC/GTO", 2177, 3104, 0, 0x9c197d56ba687091, 0xd3b883b7c7ee5ef0),
    ("PT", "BASE/LRR", 2145, 3104, 0, 0xd213e76b4a08920a, 0xd23d814a9d782c1d),
    ("PT", "DARSIE/LRR", 1802, 2298, 806, 0x2591ba7b3166c942, 0xc6cd2665f89c2df2),
    ("FW", "BASE/GTO", 1261, 3040, 0, 0x884955ca73fba82b, 0xde259730f88ea65c),
    ("FW", "UV/GTO", 1155, 2424, 0, 0xe8e31415adc1fb8c, 0xf58fb5b9243c786c),
    ("FW", "DAC-IDEAL/GTO", 950, 2288, 752, 0xa489025dcecffa28, 0x7b14ef52aa5620be),
    ("FW", "DARSIE/GTO", 1080, 2438, 602, 0x13672b8dc6707e3d, 0x18e13471189ef826),
    ("FW", "DARSIE-IGNORE-STORE/GTO", 1080, 2438, 602, 0x13672b8dc6707e3d, 0x18e13471189ef826),
    ("FW", "DARSIE-NO-CF-SYNC/GTO", 1023, 2438, 602, 0xf7d669ede987a44b, 0x36837daf1b7b0f0e),
    ("FW", "DARSIE-NO-VERSIONING/GTO", 1080, 2438, 602, 0x13672b8dc6707e3d, 0x18e13471189ef826),
    ("FW", "SILICON-SYNC/GTO", 1275, 3040, 0, 0x0f3fab1f29d02874, 0x8e2fa9ead8f1ca76),
    ("FW", "BASE/LRR", 1279, 3040, 0, 0x84577bd3f19966a3, 0x1d8494725e7e01e8),
    ("FW", "DARSIE/LRR", 1088, 2438, 602, 0x4ca49b47e7529c6b, 0x4e77448530681236),
    ("SR1", "BASE/GTO", 494, 640, 0, 0xf96339bc0bbbe171, 0x36b0bea44577acd0),
    ("SR1", "UV/GTO", 495, 580, 0, 0x79d6dae9d698f28e, 0x508ecbd318c40b13),
    ("SR1", "DAC-IDEAL/GTO", 411, 496, 144, 0x50a206afe6ec428c, 0x274d622417022b61),
    ("SR1", "DARSIE/GTO", 443, 535, 105, 0xda21571c91f08234, 0x0cf19e48b749ca77),
    ("SR1", "DARSIE-IGNORE-STORE/GTO", 443, 535, 105, 0xda21571c91f08234, 0x0cf19e48b749ca77),
    ("SR1", "DARSIE-NO-CF-SYNC/GTO", 443, 535, 105, 0xda21571c91f08234, 0x0cf19e48b749ca77),
    ("SR1", "DARSIE-NO-VERSIONING/GTO", 443, 535, 105, 0xda21571c91f08234, 0x0cf19e48b749ca77),
    ("SR1", "SILICON-SYNC/GTO", 500, 640, 0, 0xb7c16d2418a32e83, 0xc3e954e50b6b4aad),
    ("SR1", "BASE/LRR", 497, 640, 0, 0x632b3bc93f5c232c, 0xb8d38d532e060d55),
    ("SR1", "DARSIE/LRR", 439, 535, 105, 0x40db84015913d6bd, 0xc52c1b40a3224874),
    ("LIB", "BASE/GTO", 1634, 1856, 0, 0xcaa66d3dc13530f7, 0x2c7e40a1f5f86927),
    ("LIB", "UV/GTO", 1405, 1021, 0, 0xa80e79838b8db8be, 0x496bb0b64f8928da),
    ("LIB", "DAC-IDEAL/GTO", 842, 768, 1088, 0xfe85f3a59ceccf1a, 0x71d3ba1582208271),
    ("LIB", "DARSIE/GTO", 1222, 869, 987, 0x1f4b28828059862b, 0xec715c17bd685d12),
    ("LIB", "DARSIE-IGNORE-STORE/GTO", 1222, 869, 987, 0x1f4b28828059862b, 0xec715c17bd685d12),
    ("LIB", "DARSIE-NO-CF-SYNC/GTO", 1283, 1415, 441, 0x323bba026378c2bb, 0x4b6973037f133f97),
    ("LIB", "DARSIE-NO-VERSIONING/GTO", 1222, 869, 987, 0x1f4b28828059862b, 0xec715c17bd685d12),
    ("LIB", "SILICON-SYNC/GTO", 1670, 1856, 0, 0xe52f75d1d5385c80, 0x0363c7d122d374d7),
    ("LIB", "BASE/LRR", 1644, 1856, 0, 0x52863bf2c34298ba, 0x1f27f1c34c6917b9),
    ("LIB", "DARSIE/LRR", 1205, 869, 987, 0x72b8f151f69bd4cf, 0x67c47a52a8a2a1da),
    ("IMNLM", "BASE/GTO", 1881, 3872, 0, 0x7dbe856fd9c0bb0d, 0x8078b8281b1d66b4),
    ("IMNLM", "UV/GTO", 1877, 3406, 0, 0x7d2347f585b960aa, 0x7d4b548441796093),
    ("IMNLM", "DAC-IDEAL/GTO", 1579, 3056, 816, 0x6228a5b510704784, 0x434747100b442a8f),
    ("IMNLM", "DARSIE/GTO", 1510, 2982, 890, 0x0390e11eea1c8324, 0xe783c6a1a28d564c),
    ("IMNLM", "DARSIE-IGNORE-STORE/GTO", 1510, 2982, 890, 0x0390e11eea1c8324, 0xe783c6a1a28d564c),
    ("IMNLM", "DARSIE-NO-CF-SYNC/GTO", 1563, 3416, 456, 0x5f14e604d0553b09, 0x82c9906f1d649078),
    ("IMNLM", "DARSIE-NO-VERSIONING/GTO", 4661, 3580, 292, 0xe87588b712888a36, 0x36e2b0b49f54c143),
    ("IMNLM", "SILICON-SYNC/GTO", 2233, 3872, 0, 0x56592219983d8b77, 0xbee1b8fba4a031ec),
    ("IMNLM", "BASE/LRR", 1894, 3872, 0, 0x4ad934542845bdc7, 0xcd0ec3617c222c76),
    ("IMNLM", "DARSIE/LRR", 1503, 2970, 902, 0xc1524ca3f826c419, 0x4ebf316707b40f53),
    ("BP", "BASE/GTO", 458, 530, 0, 0xe174caf64b5a4641, 0xec30e2f0d2f3cc69),
    ("BP", "UV/GTO", 445, 460, 0, 0xa30d019a281e7330, 0x43a9da3f30b28d8c),
    ("BP", "DAC-IDEAL/GTO", 439, 410, 120, 0xce76590d2aa2b317, 0x17ef5ae178012c63),
    ("BP", "DARSIE/GTO", 416, 436, 94, 0xb5358fb075537fff, 0x4087cbaa146a6ea7),
    ("BP", "DARSIE-IGNORE-STORE/GTO", 416, 436, 94, 0xb5358fb075537fff, 0x4087cbaa146a6ea7),
    ("BP", "DARSIE-NO-CF-SYNC/GTO", 403, 440, 90, 0x112563e5de120073, 0xb067836b552ac0ca),
    ("BP", "DARSIE-NO-VERSIONING/GTO", 416, 436, 94, 0xb5358fb075537fff, 0x4087cbaa146a6ea7),
    ("BP", "SILICON-SYNC/GTO", 558, 530, 0, 0x3472f0cf9486e526, 0xffeb976453d7ff30),
    ("BP", "BASE/LRR", 457, 530, 0, 0x8760ba3ede44ea84, 0xd38bfb648bfd8d0f),
    ("BP", "DARSIE/LRR", 417, 436, 94, 0xfafe6b8605b89362, 0x84861979935ac474),
    ("DCT8x8", "BASE/GTO", 732, 1584, 0, 0x003c43e812114e24, 0x978352202aed5698),
    ("DCT8x8", "UV/GTO", 655, 1400, 0, 0x91e0a95e04bf8ec6, 0x2863aea05a2df17e),
    ("DCT8x8", "DAC-IDEAL/GTO", 482, 992, 592, 0x14684013ce7f2141, 0xd0650e0be6c32a69),
    ("DCT8x8", "DARSIE/GTO", 731, 1212, 372, 0x665ed3c04f1456eb, 0x8a42e32cac556f8f),
    ("DCT8x8", "DARSIE-IGNORE-STORE/GTO", 731, 1212, 372, 0x665ed3c04f1456eb, 0x8a42e32cac556f8f),
    ("DCT8x8", "DARSIE-NO-CF-SYNC/GTO", 715, 1212, 372, 0x23aff9934526a0ce, 0x272fc170a0a05c4a),
    ("DCT8x8", "DARSIE-NO-VERSIONING/GTO", 731, 1212, 372, 0x665ed3c04f1456eb, 0x8a42e32cac556f8f),
    ("DCT8x8", "SILICON-SYNC/GTO", 821, 1584, 0, 0xd004fa5823a2772e, 0xa18e9bd8f05a0e13),
    ("DCT8x8", "BASE/LRR", 732, 1584, 0, 0x77c0800de63c74eb, 0x978352202aed5698),
    ("DCT8x8", "DARSIE/LRR", 731, 1212, 372, 0xdeca7d5dfecd0b08, 0x8a42e32cac556f8f),
    ("FWS", "BASE/GTO", 192, 832, 0, 0xc505fc9ffb741fb8, 0x039f9ae71b586a5f),
    ("FWS", "UV/GTO", 186, 748, 0, 0x421b4b86ddd96d2e, 0xbbfb3dab9a1c474b),
    ("FWS", "DAC-IDEAL/GTO", 158, 576, 256, 0x0632dbf99131727c, 0xc6ef9a93ace9591e),
    ("FWS", "DARSIE/GTO", 155, 616, 216, 0x9802cea5ad57ed75, 0xf238501363259bbc),
    ("FWS", "DARSIE-IGNORE-STORE/GTO", 155, 605, 227, 0x77e3f6b99866162b, 0x4dbdaf644fc4a1bb),
    ("FWS", "DARSIE-NO-CF-SYNC/GTO", 155, 616, 216, 0x9802cea5ad57ed75, 0xf238501363259bbc),
    ("FWS", "DARSIE-NO-VERSIONING/GTO", 155, 616, 216, 0x9802cea5ad57ed75, 0xf238501363259bbc),
    ("FWS", "SILICON-SYNC/GTO", 202, 832, 0, 0x371ba81a49f8c2ac, 0x074122ecd77ac816),
    ("FWS", "BASE/LRR", 189, 832, 0, 0x791f1ee2696d39ac, 0xafeb9bb2c3c3b968),
    ("FWS", "DARSIE/LRR", 159, 579, 253, 0xfe06bff60e95b749, 0xbe49a855aea76f11),
    ("HS", "BASE/GTO", 353, 752, 0, 0x04e6ebf027185a4d, 0x532f8459752a7217),
    ("HS", "UV/GTO", 343, 710, 0, 0x809962cab457afc5, 0x329ebda7a221a3eb),
    ("HS", "DAC-IDEAL/GTO", 333, 672, 80, 0x9b8bebc940f0c6f4, 0x705d33dff7b47e31),
    ("HS", "DARSIE/GTO", 309, 650, 102, 0x7c3772af36dfdd1c, 0x0240523d31d7f2e7),
    ("HS", "DARSIE-IGNORE-STORE/GTO", 309, 650, 102, 0x7c3772af36dfdd1c, 0x0240523d31d7f2e7),
    ("HS", "DARSIE-NO-CF-SYNC/GTO", 309, 650, 102, 0x7c3772af36dfdd1c, 0x0240523d31d7f2e7),
    ("HS", "DARSIE-NO-VERSIONING/GTO", 309, 650, 102, 0x7c3772af36dfdd1c, 0x0240523d31d7f2e7),
    ("HS", "SILICON-SYNC/GTO", 358, 752, 0, 0xb47dd088415a417e, 0x2d0fba166b177782),
    ("HS", "BASE/LRR", 357, 752, 0, 0x14f376d83a017eb4, 0x58ef566a3a309067),
    ("HS", "DARSIE/LRR", 294, 642, 110, 0x2e8f147fe66e7994, 0x25f71b1b5c2c35c1),
    ("CP", "BASE/GTO", 755, 2512, 0, 0x9783acbf68eef83c, 0x866b7f855b8ae0f4),
    ("CP", "UV/GTO", 724, 2040, 0, 0x3a7995ab7f6f1436, 0x41223f424c499bfc),
    ("CP", "DAC-IDEAL/GTO", 648, 1728, 784, 0xf1d937dc9179ccde, 0x7117e41d0f978c34),
    ("CP", "DARSIE/GTO", 809, 1680, 832, 0x053512b3235ae60b, 0xc9d1518998643cd7),
    ("CP", "DARSIE-IGNORE-STORE/GTO", 809, 1680, 832, 0x053512b3235ae60b, 0xc9d1518998643cd7),
    ("CP", "DARSIE-NO-CF-SYNC/GTO", 752, 1680, 832, 0x86f29e3d5da7b89c, 0x3e650dff898c9280),
    ("CP", "DARSIE-NO-VERSIONING/GTO", 3594, 2145, 367, 0x42627469c275d9b8, 0x7c29178fc60c8d64),
    ("CP", "SILICON-SYNC/GTO", 871, 2512, 0, 0x6c40a43dff08dc40, 0x5165154c29879124),
    ("CP", "BASE/LRR", 755, 2512, 0, 0xa25b63be72758f75, 0x866b7f855b8ae0f4),
    ("CP", "DARSIE/LRR", 809, 1680, 832, 0x85f4fc61c37478f3, 0xc9d1518998643cd7),
    ("CONVTEX", "BASE/GTO", 698, 1488, 0, 0x5e97df3d2c39a813, 0x0731447465d74e64),
    ("CONVTEX", "UV/GTO", 630, 1208, 0, 0x707d7f1933d294e4, 0xe9cbb9473c080dba),
    ("CONVTEX", "DAC-IDEAL/GTO", 485, 976, 512, 0x3f5aa2cbc2988b0c, 0x6dc71617454c585d),
    ("CONVTEX", "DARSIE/GTO", 469, 891, 597, 0x4555c47b7694bf94, 0xf00122c9bb46c694),
    ("CONVTEX", "DARSIE-IGNORE-STORE/GTO", 469, 891, 597, 0x4555c47b7694bf94, 0xf00122c9bb46c694),
    ("CONVTEX", "DARSIE-NO-CF-SYNC/GTO", 460, 1071, 417, 0xe4d8016c5484d9ba, 0xcdffd61027acfe03),
    ("CONVTEX", "DARSIE-NO-VERSIONING/GTO", 2473, 1297, 191, 0xdd8cf1f2f39eee82, 0xea97c50df43e0756),
    ("CONVTEX", "SILICON-SYNC/GTO", 686, 1488, 0, 0x6e130bcd7dda14d5, 0xf0ae273d2136a20f),
    ("CONVTEX", "BASE/LRR", 695, 1488, 0, 0x34fafb10d2ed4542, 0x17643cc857d95e67),
    ("CONVTEX", "DARSIE/LRR", 472, 894, 594, 0xd3661ca4d0c3f8d1, 0x1257c296a436917d),
    ("MM", "BASE/GTO", 6064, 36352, 0, 0x33137ba522ad0128, 0x339f6dad48d582b5),
    ("MM", "UV/GTO", 6051, 34348, 0, 0x5efa3e65fb9abf1c, 0x4b413b28f7750de1),
    ("MM", "DAC-IDEAL/GTO", 5614, 32768, 3584, 0xae84ab9f1095f28a, 0x219556e3499b0dc5),
    ("MM", "DARSIE/GTO", 4059, 24821, 11531, 0xbeb2012404a3740d, 0x929842352e2ea916),
    ("MM", "DARSIE-IGNORE-STORE/GTO", 4059, 24821, 11531, 0xe4f7054c6780bedb, 0xcf9da438ab893d76),
    ("MM", "DARSIE-NO-CF-SYNC/GTO", 4781, 29630, 6722, 0xd2a81dc4265365a6, 0xc078198eb10785e4),
    ("MM", "DARSIE-NO-VERSIONING/GTO", 7774, 27246, 9106, 0x88c4f1f2bd2b50d2, 0x1f9e9fb9b11b1089),
    ("MM", "SILICON-SYNC/GTO", 7888, 36352, 0, 0x558f301046354e1a, 0xcddb03689cbd4ae0),
    ("MM", "BASE/LRR", 6017, 36352, 0, 0xdef8c9c4ccbaeb92, 0x2a313b58f5ad63d4),
    ("MM", "DARSIE/LRR", 4061, 24764, 11588, 0x37fcca29be349bfd, 0x012b21776fb8feb5),
];

/// Generated on the simulator before the sleeping-SM rework.
#[rustfmt::skip]
const PINNED_STATS: &[StatsRow] = &[
    ("BIN", "BASE/GTO", 0x8fae8b74c6b8ac64),
    ("BIN", "UV/GTO", 0x18f562a2d7f5032c),
    ("BIN", "DAC-IDEAL/GTO", 0x8fba7141fd12fecb),
    ("BIN", "DARSIE/GTO", 0x02075ce97339ac3c),
    ("BIN", "DARSIE-IGNORE-STORE/GTO", 0x02075ce97339ac3c),
    ("BIN", "DARSIE-NO-CF-SYNC/GTO", 0x3ead2004044cae67),
    ("BIN", "DARSIE-NO-VERSIONING/GTO", 0x02075ce97339ac3c),
    ("BIN", "SILICON-SYNC/GTO", 0xb7e5364c8a6b5369),
    ("BIN", "BASE/LRR", 0x02b70852fb8a3faa),
    ("BIN", "DARSIE/LRR", 0xb69bfacc31c053e3),
    ("PT", "BASE/GTO", 0x613d732604c1651e),
    ("PT", "UV/GTO", 0x1902099843bc291e),
    ("PT", "DAC-IDEAL/GTO", 0x6d6b7b18c35dee09),
    ("PT", "DARSIE/GTO", 0xe58a17e9bdd49af0),
    ("PT", "DARSIE-IGNORE-STORE/GTO", 0xe58a17e9bdd49af0),
    ("PT", "DARSIE-NO-CF-SYNC/GTO", 0x9c8484c2a4df4bed),
    ("PT", "DARSIE-NO-VERSIONING/GTO", 0xe58a17e9bdd49af0),
    ("PT", "SILICON-SYNC/GTO", 0x184fd77738f1dc40),
    ("PT", "BASE/LRR", 0x2828f3e20998fb5d),
    ("PT", "DARSIE/LRR", 0xb7bde902c98fc748),
    ("FW", "BASE/GTO", 0xb17fe20c5eccf29f),
    ("FW", "UV/GTO", 0x5be08562b540d3da),
    ("FW", "DAC-IDEAL/GTO", 0xb60b9b2a60a472f8),
    ("FW", "DARSIE/GTO", 0x8e76d935d8d23d99),
    ("FW", "DARSIE-IGNORE-STORE/GTO", 0x8e76d935d8d23d99),
    ("FW", "DARSIE-NO-CF-SYNC/GTO", 0xa0c0c6deb555bb25),
    ("FW", "DARSIE-NO-VERSIONING/GTO", 0x8e76d935d8d23d99),
    ("FW", "SILICON-SYNC/GTO", 0x66e89c6ae27745bf),
    ("FW", "BASE/LRR", 0x790c06e5851747d5),
    ("FW", "DARSIE/LRR", 0xc339809dc2968a23),
    ("SR1", "BASE/GTO", 0x5fd4e82b9a3c5568),
    ("SR1", "UV/GTO", 0xa1ca2abb7bceed47),
    ("SR1", "DAC-IDEAL/GTO", 0x90ff2fae88dd4b6f),
    ("SR1", "DARSIE/GTO", 0x4935953645a9a502),
    ("SR1", "DARSIE-IGNORE-STORE/GTO", 0x4935953645a9a502),
    ("SR1", "DARSIE-NO-CF-SYNC/GTO", 0x4935953645a9a502),
    ("SR1", "DARSIE-NO-VERSIONING/GTO", 0x4935953645a9a502),
    ("SR1", "SILICON-SYNC/GTO", 0x92555102d5b3e330),
    ("SR1", "BASE/LRR", 0xd47c77948975c5b9),
    ("SR1", "DARSIE/LRR", 0x93a721ab6c188d53),
    ("LIB", "BASE/GTO", 0xf4d75b805a1f0189),
    ("LIB", "UV/GTO", 0x111af22ab6a490a3),
    ("LIB", "DAC-IDEAL/GTO", 0xc0cb3c8ad83ff0a8),
    ("LIB", "DARSIE/GTO", 0x855a6861451b6eb4),
    ("LIB", "DARSIE-IGNORE-STORE/GTO", 0x855a6861451b6eb4),
    ("LIB", "DARSIE-NO-CF-SYNC/GTO", 0x785ee927db625c4a),
    ("LIB", "DARSIE-NO-VERSIONING/GTO", 0x855a6861451b6eb4),
    ("LIB", "SILICON-SYNC/GTO", 0xc6e788676a20332a),
    ("LIB", "BASE/LRR", 0x5646b5f7356c9590),
    ("LIB", "DARSIE/LRR", 0x5d61786beffab398),
    ("IMNLM", "BASE/GTO", 0x2dd1cc4674636662),
    ("IMNLM", "UV/GTO", 0xbeb37af8383191ba),
    ("IMNLM", "DAC-IDEAL/GTO", 0x180ff28e9c4d2a0c),
    ("IMNLM", "DARSIE/GTO", 0xdba0a93c59871406),
    ("IMNLM", "DARSIE-IGNORE-STORE/GTO", 0xdba0a93c59871406),
    ("IMNLM", "DARSIE-NO-CF-SYNC/GTO", 0x1826cb6f5768636e),
    ("IMNLM", "DARSIE-NO-VERSIONING/GTO", 0xae12fdbc06f4b1fb),
    ("IMNLM", "SILICON-SYNC/GTO", 0x18aac355c354a300),
    ("IMNLM", "BASE/LRR", 0x6117db65be7bf87a),
    ("IMNLM", "DARSIE/LRR", 0x75194a28c1407014),
    ("BP", "BASE/GTO", 0xa0ce7b863e9dec23),
    ("BP", "UV/GTO", 0x10c97431deb4dec3),
    ("BP", "DAC-IDEAL/GTO", 0xb3df58396d5ff7f9),
    ("BP", "DARSIE/GTO", 0xc68d08f2e592456a),
    ("BP", "DARSIE-IGNORE-STORE/GTO", 0xc68d08f2e592456a),
    ("BP", "DARSIE-NO-CF-SYNC/GTO", 0x5cfb3817427e530d),
    ("BP", "DARSIE-NO-VERSIONING/GTO", 0xc68d08f2e592456a),
    ("BP", "SILICON-SYNC/GTO", 0x3e8ed13ea41c679e),
    ("BP", "BASE/LRR", 0xa9a4548e630908f6),
    ("BP", "DARSIE/LRR", 0xcd8774badbc57ee4),
    ("DCT8x8", "BASE/GTO", 0xb8ccafad3b11b7dd),
    ("DCT8x8", "UV/GTO", 0x31e53d1fcb79691b),
    ("DCT8x8", "DAC-IDEAL/GTO", 0x7de0a62baeaa0a0e),
    ("DCT8x8", "DARSIE/GTO", 0x17b45ab7fc46a547),
    ("DCT8x8", "DARSIE-IGNORE-STORE/GTO", 0x17b45ab7fc46a547),
    ("DCT8x8", "DARSIE-NO-CF-SYNC/GTO", 0x1a9f7ce3b472387b),
    ("DCT8x8", "DARSIE-NO-VERSIONING/GTO", 0x17b45ab7fc46a547),
    ("DCT8x8", "SILICON-SYNC/GTO", 0x082f9f7dcdf8b380),
    ("DCT8x8", "BASE/LRR", 0xf23d8f9814ee25ec),
    ("DCT8x8", "DARSIE/LRR", 0xa1b9b43bfee68eab),
    ("FWS", "BASE/GTO", 0x34864a28ea9c3fd2),
    ("FWS", "UV/GTO", 0x2180e462229eaf0c),
    ("FWS", "DAC-IDEAL/GTO", 0xad28b548b8f2155f),
    ("FWS", "DARSIE/GTO", 0x9e001f42ff7c38ab),
    ("FWS", "DARSIE-IGNORE-STORE/GTO", 0x350b3e21a5365b0d),
    ("FWS", "DARSIE-NO-CF-SYNC/GTO", 0x9e001f42ff7c38ab),
    ("FWS", "DARSIE-NO-VERSIONING/GTO", 0x9e001f42ff7c38ab),
    ("FWS", "SILICON-SYNC/GTO", 0xade598b8ab641908),
    ("FWS", "BASE/LRR", 0x71391bd6077c1f0a),
    ("FWS", "DARSIE/LRR", 0x3a71b8d45c49d9c7),
    ("HS", "BASE/GTO", 0x8ea8788bba74cd8e),
    ("HS", "UV/GTO", 0xc4b1075486370f30),
    ("HS", "DAC-IDEAL/GTO", 0x8d1549a63bd3999d),
    ("HS", "DARSIE/GTO", 0x01d22fe77d7402fa),
    ("HS", "DARSIE-IGNORE-STORE/GTO", 0x01d22fe77d7402fa),
    ("HS", "DARSIE-NO-CF-SYNC/GTO", 0x01d22fe77d7402fa),
    ("HS", "DARSIE-NO-VERSIONING/GTO", 0x01d22fe77d7402fa),
    ("HS", "SILICON-SYNC/GTO", 0x9e854579406acfa0),
    ("HS", "BASE/LRR", 0x144f6d69f46c4e08),
    ("HS", "DARSIE/LRR", 0x901ab60a91493d38),
    ("CP", "BASE/GTO", 0x16267ccbfe6a14dc),
    ("CP", "UV/GTO", 0x97f5c961909ae517),
    ("CP", "DAC-IDEAL/GTO", 0x9f8af2c3e3099c20),
    ("CP", "DARSIE/GTO", 0x372d876131991ea9),
    ("CP", "DARSIE-IGNORE-STORE/GTO", 0x54303e5dc65e5596),
    ("CP", "DARSIE-NO-CF-SYNC/GTO", 0xa183889699b9671a),
    ("CP", "DARSIE-NO-VERSIONING/GTO", 0x16c8d2f2b9407037),
    ("CP", "SILICON-SYNC/GTO", 0x8256abc482799ffe),
    ("CP", "BASE/LRR", 0x3942eeff22866ff2),
    ("CP", "DARSIE/LRR", 0x5b7acc366d587a19),
    ("CONVTEX", "BASE/GTO", 0x136aee03872015d4),
    ("CONVTEX", "UV/GTO", 0xe376787a2a4f273f),
    ("CONVTEX", "DAC-IDEAL/GTO", 0xf142de46f76406eb),
    ("CONVTEX", "DARSIE/GTO", 0xcec61428517fe2d4),
    ("CONVTEX", "DARSIE-IGNORE-STORE/GTO", 0xc54a02d098b91d85),
    ("CONVTEX", "DARSIE-NO-CF-SYNC/GTO", 0xd38d35887e05006f),
    ("CONVTEX", "DARSIE-NO-VERSIONING/GTO", 0x9344540537d79d3a),
    ("CONVTEX", "SILICON-SYNC/GTO", 0x3f3e46989b37a575),
    ("CONVTEX", "BASE/LRR", 0xc76e12fb9745e007),
    ("CONVTEX", "DARSIE/LRR", 0x6a0cbcf49e93e6d8),
    ("MM", "BASE/GTO", 0x4dbcf8af252c8370),
    ("MM", "UV/GTO", 0x6b096ab2effdf854),
    ("MM", "DAC-IDEAL/GTO", 0x432a99917ddc5c26),
    ("MM", "DARSIE/GTO", 0x10713a8c57a93299),
    ("MM", "DARSIE-IGNORE-STORE/GTO", 0xdd92fa7b69eb2dc6),
    ("MM", "DARSIE-NO-CF-SYNC/GTO", 0xd2c7e3fa5b1ab0d5),
    ("MM", "DARSIE-NO-VERSIONING/GTO", 0x86067d168c2918e5),
    ("MM", "SILICON-SYNC/GTO", 0xe36af173bc481370),
    ("MM", "BASE/LRR", 0x6167acefad91a722),
    ("MM", "DARSIE/LRR", 0x11bc57f4d5d30ea3),
];

/// Generated on the simulator before the sleeping-SM rework.
#[rustfmt::skip]
const PINNED_MANY_SM: &[WideRow] = &[
    ("BIN", "BASE", 594, 1640, 0, 0xe6b9be81b264aee3, 0xa95b2c160ff2a4f7, 0x0803ce601ca1ea80),
    ("BIN", "DARSIE", 580, 1376, 264, 0x4f1883889af29aec, 0x5baed9b0599a5b8f, 0xea01f1a99695d601),
    ("PT", "BASE", 2148, 3104, 0, 0x8fc6b706ddeeef9b, 0x465e9ca1e4289711, 0x8c8f95041b53dbd2),
    ("PT", "DARSIE", 1804, 2298, 806, 0x7492f7134efa4a3c, 0xd4b7bb2ba9720317, 0x3d36b94f0483c63e),
    ("FW", "BASE", 1261, 3040, 0, 0x23b455287d78c5b8, 0x47b698fec1922340, 0x12b3c849c6142204),
    ("FW", "DARSIE", 1080, 2438, 602, 0x0ef48a8404fce801, 0x472f9f36aa873b48, 0xcbd6ae4c573945bc),
    ("SR1", "BASE", 494, 640, 0, 0x9e620bf45e55df87, 0x246fda7a4c43522e, 0x8df0f06a65c4cd38),
    ("SR1", "DARSIE", 443, 535, 105, 0x64ff32a21c1e8cc1, 0xf1f1feefcc346bcf, 0xbc1c5ba41eac22b8),
    ("LIB", "BASE", 1634, 1856, 0, 0x00d210fb1fdffb39, 0x697729603e55d703, 0x500f25ea3c2e5c96),
    ("LIB", "DARSIE", 1222, 869, 987, 0xa657c86f5c4001ea, 0x90f14cb4761da0be, 0x74a5862ee4c0c2e1),
    ("IMNLM", "BASE", 1881, 3872, 0, 0x71fbf8de0ddc954e, 0xd0713b46706842f8, 0xb1b8bfda6a402703),
    ("IMNLM", "DARSIE", 1510, 2982, 890, 0xa399779024d5acae, 0x6646a943abc4fe10, 0x2979c5065f34d229),
    ("BP", "BASE", 458, 530, 0, 0xedbe81201e9fdc42, 0xd6e1aa4ce714b723, 0xb67ea334d9c59238),
    ("BP", "DARSIE", 416, 436, 94, 0x247819de0cb576f1, 0xac8fb7a6b3b89cc3, 0x2de0ef9623dd596f),
    ("DCT8x8", "BASE", 732, 1584, 0, 0xa17b9dcf32f23c69, 0x2de5db4a9eb65e74, 0x866658fb7e185986),
    ("DCT8x8", "DARSIE", 731, 1212, 372, 0xf9ce8ece016e9ea8, 0x4e93d028e87c469f, 0x667e70edb3356435),
    ("FWS", "BASE", 192, 832, 0, 0x046e5b683bec9961, 0xf1b4785ca5f73fff, 0x103826bccf08909f),
    ("FWS", "DARSIE", 155, 616, 216, 0x7e6ad3dc8c2e8f3b, 0x36e5db8171f24b3a, 0xcb626b6a60a0323d),
    ("HS", "BASE", 353, 752, 0, 0x1cb5f245cdfa95c9, 0x9b2231ccb1887c1b, 0xd82bbfbb32c762c3),
    ("HS", "DARSIE", 309, 650, 102, 0x23219a2b0caa7a53, 0xf609a41750ce0b1b, 0x471ed9babedc6396),
    ("CP", "BASE", 755, 2512, 0, 0x02a141da833158f1, 0x1f08692d07db9f9e, 0x9c355d17dc175890),
    ("CP", "DARSIE", 809, 1680, 832, 0xea704235cbc97715, 0x75380d38b537ef5b, 0x7faa71cbc71b39ee),
    ("CONVTEX", "BASE", 698, 1488, 0, 0xb50f7c58a823436c, 0xcd0c738f914ab3f2, 0xaaaed121a86d7fa4),
    ("CONVTEX", "DARSIE", 469, 891, 597, 0x8e454d93e5178600, 0x852bdd3e148e3892, 0xedcda7c14dfd52da),
    ("MM", "BASE", 6064, 36352, 0, 0xe8474bff69180c9d, 0xe47b34fe6b87a9fb, 0x65f4e7b8d93a0bb2),
    ("MM", "DARSIE", 4059, 24821, 11531, 0x1794f9dcc724f4ec, 0x71f9b97788b7598e, 0x24e2c166618f981b),
];

/// Generated on the simulator before the sleeping-SM rework.
#[rustfmt::skip]
const PINNED_CADENCES: &[CadenceRow] = &[
    ("BIN", "BASE", "fine:100-227", 0x71c6b20ea7cef226, 128, 0x0477236e40479bd2),
    ("BIN", "DARSIE", "fine:100-227", 0x18fa544bd8a6da59, 128, 0x4d6dbe2d5bfaa1c7),
    ("PT", "BASE", "fine:100-227", 0xd60ad131488e5137, 128, 0xf2d25dbd08f7b245),
    ("PT", "DARSIE", "fine:100-227", 0x308bb4fecfcaf76a, 128, 0x99b21f26cedc8e78),
    ("FW", "BASE", "fine:100-227", 0x8a447620edfeaa0c, 128, 0xca0b80e9dd76eccf),
    ("FW", "DARSIE", "fine:100-227", 0xcd1c298859c6ebc8, 128, 0x49f0d02cfefdf5cb),
    ("SR1", "BASE", "fine:100-227", 0x39f534d7ddcecbf9, 128, 0xc3ef0caaf534e34f),
    ("SR1", "DARSIE", "fine:100-227", 0xe33086dd646b194f, 128, 0xdca016bf151e5336),
    ("LIB", "BASE", "fine:100-227", 0x439030c84daedf41, 128, 0x40444eaa3f3e6c0c),
    ("LIB", "DARSIE", "fine:100-227", 0x4c108967a4680cda, 128, 0xd64ce6c588245e99),
    ("IMNLM", "BASE", "fine:100-227", 0x4abb64ff356c9456, 128, 0x8d0f7dd31112d6d2),
    ("IMNLM", "DARSIE", "fine:100-227", 0x240852045a0ecad5, 128, 0xa254f71a593ac903),
    ("BP", "BASE", "fine:100-227", 0x6adc26cb5bea85b9, 128, 0x97c13b1b8269d85c),
    ("BP", "DARSIE", "fine:100-227", 0xe4657caf838b77a2, 128, 0x82b34625b882b00a),
    ("DCT8x8", "BASE", "fine:100-227", 0x3701bdff3c892b01, 128, 0xe74b5b412ceec658),
    ("DCT8x8", "DARSIE", "fine:100-227", 0xd3ba7af79b1c412c, 128, 0x3dda77c27e1f968a),
    ("FWS", "BASE", "fine:100-227", 0x1f1fac23743544b8, 93, 0x521dfe6ccdd178fa),
    ("FWS", "DARSIE", "fine:100-227", 0x5faa857f7fe309fd, 56, 0x90439f166a7906cb),
    ("HS", "BASE", "fine:100-227", 0xb700bc4545a49146, 128, 0x5367aadaff0547e6),
    ("HS", "DARSIE", "fine:100-227", 0x0652705537dd9cd2, 128, 0xf352d381445ccf0a),
    ("CP", "BASE", "fine:100-227", 0x12949153cb7dcc8e, 128, 0x2960bf9136d50a05),
    ("CP", "DARSIE", "fine:100-227", 0x3d3977d818b26239, 128, 0xb86f89fd61d1fee8),
    ("CONVTEX", "BASE", "fine:100-227", 0x749723818c079628, 128, 0xdf0a9d2678edbcfa),
    ("CONVTEX", "DARSIE", "fine:100-227", 0xf16299b79fecc6ad, 128, 0xfc669ab9f696f56f),
    ("MM", "BASE", "fine:100-227", 0xea1ee053ae285676, 128, 0x63106f095a0ae99c),
    ("MM", "DARSIE", "fine:100-227", 0x1e35c6923362c6c6, 128, 0xef0d8244a795f104),
];
