//! Integration tests for the `darsie-sim` CLI: workload-selection
//! robustness (unknown names must fail fast and list the valid ones) and
//! golden schemas for every `--json` document, parsed with the library's
//! validating JSON reader so a malformed or restructured document fails
//! loudly rather than by substring accident.

use darsie_bench::json::{parse, Json};
use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_darsie-sim"))
        .args(args)
        .output()
        .expect("spawn darsie-sim");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

/// Parses a document the CLI wrote; a malformed one fails the test.
#[track_caller]
fn read(text: &str) -> Json {
    parse(text.trim()).unwrap_or_else(|e| panic!("invalid JSON document: {e}"))
}

/// Panicking accessors, so a restructured document fails a schema test
/// loudly, naming the key or type that did not match.
trait Doc {
    fn at(&self, key: &str) -> &Json;
    fn list(&self) -> &[Json];
    fn object(&self) -> &[(String, Json)];
    fn number(&self) -> f64;
    fn string(&self) -> &str;
    fn boolean(&self) -> bool;
}

impl Doc for Json {
    #[track_caller]
    fn at(&self, key: &str) -> &Json {
        self.get(key).unwrap_or_else(|| panic!("missing key `{key}` in {self}"))
    }

    #[track_caller]
    fn list(&self) -> &[Json] {
        self.as_array().unwrap_or_else(|| panic!("expected array, got {self}"))
    }

    #[track_caller]
    fn object(&self) -> &[(String, Json)] {
        self.as_object().unwrap_or_else(|| panic!("expected object, got {self}"))
    }

    #[track_caller]
    fn number(&self) -> f64 {
        self.as_f64().unwrap_or_else(|| panic!("expected number, got {self}"))
    }

    #[track_caller]
    fn string(&self) -> &str {
        self.as_str().unwrap_or_else(|| panic!("expected string, got {self}"))
    }

    #[track_caller]
    fn boolean(&self) -> bool {
        self.as_bool().unwrap_or_else(|| panic!("expected bool, got {self}"))
    }
}

/// Asserts the shared telemetry header every `--json` document leads
/// with: tool identity, version, schema version, echoed subcommand and
/// the configuration fingerprint (a hex string, or null for subcommands
/// that build no GPU configuration).
#[track_caller]
fn assert_header(doc: &Json, subcommand: &str) {
    assert_eq!(doc.at("tool").string(), "darsie-sim");
    assert!(!doc.at("version").string().is_empty());
    assert_eq!(doc.at("schema_version").number(), 1.0);
    assert_eq!(doc.at("subcommand").string(), subcommand);
    match doc.at("config_fingerprint") {
        Json::Null => {}
        fp => assert!(fp.string().starts_with("0x"), "fingerprint is a hex string"),
    }
}

/// Asserts a `"0x"`-prefixed 16-digit hex digest string.
#[track_caller]
fn assert_hex_digest(v: &Json) {
    let s = v.string();
    assert!(s.starts_with("0x") && s.len() == 18, "digest `{s}` is 0x + 16 hex digits");
    assert!(s[2..].bytes().all(|b| b.is_ascii_hexdigit()), "digest `{s}`");
}

/// Every subcommand that selects workloads rejects an unknown
/// `--workload` name with a usage exit and the full list of valid
/// abbreviations so the caller never has to guess.
#[test]
fn unknown_workload_name_fails_and_lists_valid_names() {
    for sub in ["verify", "analyze", "prove", "profile", "estimate", "replay-diff"] {
        let (code, _, err) = run(&[sub, "--workload", "nosuch"]);
        assert_eq!(code, Some(2), "{sub}: exit code");
        assert!(err.contains("unknown workload `nosuch`"), "{sub}: {err}");
        for abbr in ["BIN", "PT", "DCT8x8", "MM"] {
            assert!(err.contains(abbr), "{sub}: `{abbr}` missing from\n{err}");
        }
    }
}

/// Positional abbreviations get the same treatment.
#[test]
fn unknown_positional_abbr_fails_and_lists_valid_names() {
    for sub in ["verify", "analyze", "prove", "profile", "estimate", "replay-diff"] {
        let (code, _, err) = run(&[sub, "NOSUCH"]);
        assert_eq!(code, Some(2), "{sub}: exit code");
        assert!(err.contains("unknown benchmark `NOSUCH`"), "{sub}: {err}");
        assert!(err.contains("BIN"), "{sub}: valid names missing from\n{err}");
    }
}

/// Golden schema for `verify --json`.
#[test]
fn verify_json_schema() {
    let (code, out, _) = run(&["verify", "BIN", "--scale", "test", "--json"]);
    assert_eq!(code, Some(0));
    let doc = read(&out);
    assert_header(&doc, "verify");
    let ws = doc.at("workloads").list();
    assert_eq!(ws.len(), 1);
    let w = &ws[0];
    assert_eq!(w.at("abbr").string(), "BIN");
    assert!(!w.at("kernel").string().is_empty());
    assert_eq!(w.at("block").list().len(), 3);
    for d in w.at("diagnostics").list() {
        d.at("code").string();
        d.at("severity").string();
        d.at("message").string();
        assert!(matches!(d.at("pc"), Json::Num(_) | Json::Null));
    }
    w.at("errors").number();
    w.at("warnings").number();
    assert!(matches!(doc.at("by_code"), Json::Obj(_)));
    assert_eq!(doc.at("total_errors").number(), 0.0);
    doc.at("total_warnings").number();
}

/// Golden schema for `analyze --json`.
#[test]
fn analyze_json_schema() {
    let (code, out, _) = run(&["analyze", "BIN", "--scale", "test", "--json"]);
    assert_eq!(code, Some(0));
    let doc = read(&out);
    assert_header(&doc, "analyze");
    let w = &doc.at("workloads").list()[0];
    assert_eq!(w.at("abbr").string(), "BIN");
    for side in ["baseline", "refined"] {
        let s = w.at(side);
        s.at("vector").number();
        s.at("cond").number();
        s.at("def").number();
        s.at("skippable").number();
    }
    assert!(matches!(w.at("refined").at("upgrades"), Json::Obj(_)));
    assert_eq!(w.at("oracle_errors").number(), 0.0);
    w.at("headroom").at("dynamically_redundant").number();
    w.at("headroom").at("never_aligned").number();
    assert!(matches!(w.at("blame"), Json::Obj(_)));
    let mem = w.at("mem");
    mem.at("accesses").number();
    mem.at("unpredictable").number();
    mem.at("violations").number();
    mem.at("checks").list();
    mem.at("lints").list();
    let t = doc.at("totals");
    assert_eq!(t.at("oracle_errors").number(), 0.0);
    assert_eq!(t.at("mem_violations").number(), 0.0);
    t.at("coverage_wins").number();
    t.at("marking_wins").number();
}

/// Golden schema for `prove --json`, plus the headline property: the
/// catalog workload proves every claim with nothing left unknown.
#[test]
fn prove_json_schema() {
    let (code, out, err) = run(&["prove", "BIN", "--scale", "test", "--json"]);
    assert_eq!(code, Some(0));
    assert!(err.contains("prover wall time"), "wall time must go to stderr");
    let doc = read(&out);
    assert_header(&doc, "prove");
    let w = &doc.at("workloads").list()[0];
    assert_eq!(w.at("abbr").string(), "BIN");
    assert!(!w.at("kernel").string().is_empty());
    assert_eq!(w.at("block").list().len(), 3);
    let claims = w.at("value_claims").number() + w.at("branch_claims").number();
    assert!(claims > 0.0);
    assert_eq!(w.at("proved").number(), claims);
    assert_eq!(w.at("disproved").number(), 0.0);
    assert_eq!(w.at("unknown").number(), 0.0);
    assert!(w.at("complete").boolean());
    assert_eq!(w.at("diagnostics").list().len(), 0);
    assert!(matches!(doc.at("by_code"), Json::Obj(_)));
    assert!(doc.at("total_proved").number() > 0.0);
    assert_eq!(doc.at("total_disproved").number(), 0.0);
    assert_eq!(doc.at("total_unknown").number(), 0.0);
    // Per-claim ledger: one entry per obligation, every verdict proved on
    // this catalog workload, reasons null, with deterministic eval costs.
    assert!(w.at("fuel_used").number() > 0.0);
    assert!(w.at("terms").number() > 0.0);
    let ledger = w.at("claims").list();
    assert_eq!(ledger.len() as f64, claims);
    for c in ledger {
        c.at("pc").number();
        assert!(matches!(c.at("kind").string(), "value" | "branch"));
        assert!(!c.at("family").string().is_empty());
        assert_eq!(c.at("verdict").string(), "proved");
        assert_eq!(*c.at("unknown_reason"), Json::Null);
        c.at("evals").number();
    }
    assert!(matches!(doc.at("unknown_reasons"), Json::Obj(_)));
}

/// Repeated single-valued flags are usage errors (exit 2), not
/// silently-take-the-last; so are options the CLI no longer takes and a
/// non-positive SM or port count.
#[test]
fn flag_validation_rejects_duplicates_and_bad_thread_counts() {
    for args in [
        &["prove", "BIN", "--scale", "test", "--json", "--json"][..],
        &["prove", "BIN", "--scale", "test", "--scale", "test"][..],
        &["BIN", "--scale", "test", "--sms", "2", "--sms", "3"][..],
        &["replay-diff", "BIN", "--scale", "test", "--sms", "2", "--sms", "3"][..],
        &["replay-diff", "BIN", "--scale", "test", "--against", "sms=2", "--against", "sms=3"][..],
    ] {
        let (code, _, err) = run(args);
        assert_eq!(code, Some(2), "{args:?} must exit 2");
        assert!(err.contains("duplicate"), "{args:?}: {err}");
    }
    for args in [
        &["verify", "BIN", "--scale", "test", "--threads", "2"][..],
        &["prove", "BIN", "--scale", "test", "--threads", "2"][..],
        &["analyze", "BIN", "--scale", "test", "--threads", "2"][..],
        &["certify", "--family", "BIN", "--scale", "test", "--samples", "5"][..],
        &["certify", "BIN", "--scale", "test", "--samples", "5"][..],
        &["BIN", "--scale", "test", "--no-validate"][..],
    ] {
        let (code, _, err) = run(args);
        assert_eq!(code, Some(2), "{args:?} must exit 2");
        assert!(err.starts_with("usage: darsie-sim"), "{args:?}: {err}");
    }
    // Zero SMs or skip-table ports used to panic or spin until
    // `max_cycles`; they are usage errors.
    for args in [
        &["BIN", "--scale", "test", "--sms", "0"][..],
        &["BIN", "--scale", "test", "--skip-ports", "0"][..],
        &["replay-diff", "BIN", "--scale", "test", "--sms", "0"][..],
        &["replay-diff", "BIN", "--scale", "test", "--against", "sms=0"][..],
    ] {
        let (code, _, err) = run(args);
        assert_eq!(code, Some(2), "{args:?} must exit 2");
        assert!(err.contains("positive integer"), "{args:?}: {err}");
    }
}

/// Golden schema for `certify --json`, plus the headline acceptance
/// gate: every catalog workload certifies `block-independent` or
/// `commutative-atomics-only` with zero `V310`/`V312` findings.
#[test]
fn certify_json_schema_and_catalog_certifies() {
    let (code, out, _) = run(&["certify", "--scale", "test", "--json"]);
    assert_eq!(code, Some(0));
    let doc = read(&out);
    assert_header(&doc, "certify");
    let ws = doc.at("workloads").list();
    assert_eq!(ws.len(), 13, "all catalog workloads certified");
    for w in ws {
        assert!(!w.at("abbr").string().is_empty());
        assert!(!w.at("kernel").string().is_empty());
        assert_eq!(w.at("grid").list().len(), 3);
        let class = w.at("classification").string();
        assert!(
            class == "block-independent" || class == "commutative-atomics-only",
            "{} must certify, got {class}",
            w.at("abbr").string()
        );
        w.at("global_accesses").number();
        w.at("unanalyzable").number();
        w.at("checked_pairs").number();
        assert!(
            !w.at("dynamically_discharged").boolean(),
            "test scale certifies statically, no replay discharge"
        );
        assert!(matches!(w.at("witness"), Json::Obj(_) | Json::Null));
        for d in w.at("diagnostics").list() {
            let code = d.at("code").string();
            assert!(code != "V310" && code != "V312", "no races in the catalog: {code}");
        }
    }
    assert_eq!(doc.at("total_errors").number(), 0.0);
}

/// `verify`, `certify` and `certify --family` shard their workloads
/// over the host's hardware threads, yet each workload's record in a
/// multi-workload document is byte-for-byte the record a run selecting
/// only that workload prints, in selection order.
#[test]
fn sharded_documents_match_single_workload_runs() {
    let record = |args: &[&str]| -> Vec<String> {
        let (code, out, _) = run(args);
        assert_eq!(code, Some(0), "{args:?}");
        read(&out).at("workloads").list().iter().map(ToString::to_string).collect()
    };
    for (sub, abbrs) in [
        (&["verify"][..], &["BIN", "MM", "LIB", "FW", "CP"][..]),
        (&["certify"][..], &["BIN", "MM", "LIB", "FW", "CP"][..]),
        (&["certify", "--family"][..], &["BIN", "MM", "LIB"][..]),
    ] {
        let all: Vec<&str> = [sub, abbrs, &["--scale", "test", "--json"]].concat();
        let one_by_one: Vec<String> = abbrs
            .iter()
            .flat_map(|&a| record(&[sub, &[a, "--scale", "test", "--json"]].concat()))
            .collect();
        assert_eq!(record(&all), one_by_one, "{sub:?}");
    }
}

/// Golden schema for `certify --family --json`, plus the headline
/// acceptance gate: every catalog workload reaches at least
/// `FamilySampled` (no refutations) with an empty differential gate, and
/// at least 9 of 13 reach `FamilyProved` outright.
#[test]
fn certify_family_json_schema_and_catalog_proves() {
    let (code, out, _) = run(&["certify", "--family", "--scale", "test", "--json"]);
    assert_eq!(code, Some(0));
    let doc = read(&out);
    assert_header(&doc, "certify-family");
    let ws = doc.at("workloads").list();
    assert_eq!(ws.len(), 13, "one family certificate per catalog workload");
    let mut proved = 0usize;
    for w in ws {
        assert!(!w.at("abbr").string().is_empty());
        assert!(!w.at("kernel").string().is_empty());
        let region = w.at("region");
        for axis in ["grid_x", "grid_y", "block_x", "block_y", "block_z"] {
            let a = region.at(axis);
            let lo = a.at("lo").number();
            let hi = a.at("hi").number();
            assert!(1.0 <= lo && lo <= hi, "{axis}: [{lo}, {hi}]");
            assert!(a.at("step").number() >= 1.0);
        }
        assert!(w.at("member_count").number() >= 1.0);
        let verdict = w.at("verdict").string();
        assert!(
            verdict == "FamilyProved" || verdict == "FamilySampled",
            "{} must not be refuted, got {verdict}",
            w.at("abbr").string()
        );
        if verdict == "FamilyProved" {
            proved += 1;
            assert_eq!(w.at("unresolved").list().len(), 0);
            assert_eq!(w.at("sampled_corners").number(), 0.0);
        } else {
            assert!(!w.at("unresolved").list().is_empty());
            assert!(w.at("sampled_corners").number() > 0.0);
        }
        assert_eq!(w.at("checked_pairs").number(), w.at("proved_pairs").number());
        assert_eq!(*w.at("witness_launch"), Json::Null);
        assert_eq!(*w.at("witness"), Json::Null);
        let costs = w.at("cost").list();
        assert_eq!(costs.len(), 2, "Base and DARSIE brackets");
        let labels: Vec<&str> = costs.iter().map(|c| c.at("technique").string()).collect();
        assert_eq!(labels, ["BASE", "DARSIE"]);
        for c in costs {
            let min = c.at("min_cycles").number();
            match c.at("max_cycles") {
                max @ Json::Num(_) => assert!(min <= max.number()),
                Json::Null => {}
                other => panic!("max_cycles: {other:?}"),
            }
        }
        assert_eq!(w.at("disagreements").list().len(), 0, "differential gate clean");
    }
    assert!(proved >= 9, "only {proved}/13 workloads reached FamilyProved");
    assert_eq!(doc.at("proved").number(), proved as f64);
    assert_eq!(doc.at("refuted").number(), 0.0);
    assert_eq!(doc.at("disagreements").number(), 0.0);
    assert_eq!(doc.at("samples").number(), 25.0);
}

/// Golden schema for `profile --json`, plus the headline invariant: the
/// slot counts sum to exactly `cycles × schedulers × issue_width` (the
/// accounting identity) and the document says so via `identity_ok`.
#[test]
fn profile_json_schema() {
    let (code, out, _) = run(&["profile", "BIN", "--scale", "test", "--json"]);
    assert_eq!(code, Some(0));
    let doc = read(&out);
    assert_header(&doc, "profile");
    let ws = doc.at("workloads").list();
    assert_eq!(ws.len(), 1);
    let w = &ws[0];
    assert_eq!(w.at("abbr").string(), "BIN");
    assert!(!w.at("kernel").string().is_empty());
    let techs = w.at("techniques").list();
    assert_eq!(techs.len(), 2, "Base and DARSIE");
    let labels: Vec<&str> = techs.iter().map(|t| t.at("technique").string()).collect();
    assert_eq!(labels, ["BASE", "DARSIE"]);
    for t in techs {
        assert!(t.at("identity_ok").boolean());
        let slots = t.at("slots").object();
        assert_eq!(slots.len(), 12, "one key per stall cause");
        for key in [
            "issued",
            "skipped_by_darsie",
            "scoreboard",
            "operand_collector",
            "exec_unit_busy",
            "lsu_queue",
            "ibuffer_empty",
            "wait_leader",
            "branch_sync",
            "barrier",
            "majority_evict",
            "idle_no_warp",
        ] {
            assert!(slots.iter().any(|(k, _)| k == key), "missing slot cause `{key}`");
        }
        let sum: f64 = slots.iter().map(|(_, n)| n.number()).sum();
        assert_eq!(sum, t.at("issue_slots").number(), "accounting identity in the document");
        assert_eq!(
            t.at("slots").at("issued").number(),
            t.at("executed").number() + t.at("reused").number(),
            "issued slots cross-check"
        );
        for h in t.at("hot_pcs").list() {
            h.at("pc").number();
            h.at("issued").number();
            h.at("skipped").number();
            h.at("stall_slots").number();
            h.at("top_stall").string();
        }
        let lat = t.at("leader_latency");
        lat.at("count").number();
        assert_eq!(lat.at("buckets").list().len(), 16);
        let occ = t.at("occupancy");
        occ.at("samples").number();
        occ.at("dropped").number();
        occ.at("peak_skip_entries").number();
        occ.at("peak_live_versions").number();
        occ.at("peak_waiting_warps").number();
        let d = t.at("darsie");
        d.at("leaders_elected").number();
        d.at("instructions_skipped").number();
        d.at("leader_giveups").number();
        t.at("trace_dropped").number();
        t.at("trace_capacity").number();
        assert_hex_digest(t.at("digest_root"));
    }
    // DARSIE actually skips on BIN: the slots and counters show it.
    let dars = &techs[1];
    assert!(dars.at("slots").at("skipped_by_darsie").number() > 0.0);
    assert!(dars.at("darsie").at("leaders_elected").number() > 0.0);
    let t = doc.at("totals");
    assert_eq!(t.at("workloads").number(), 1.0);
    assert_eq!(t.at("identity_violations").number(), 0.0);
}

/// `profile --perfetto` writes a valid Chrome trace-event document:
/// round-trip parse it and check the event structure Perfetto requires.
#[test]
fn profile_perfetto_trace_round_trips() {
    let dir = std::env::temp_dir().join("darsie-sim-perfetto-test");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("bin.trace.json");
    let path_str = path.to_str().expect("utf-8 temp path");
    let (code, _, err) =
        run(&["profile", "BIN", "--scale", "test", "--json", "--perfetto", path_str]);
    assert_eq!(code, Some(0), "{err}");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    let doc = read(&text);
    let evs = doc.at("traceEvents").list();
    assert!(!evs.is_empty(), "trace has events");
    let mut complete = 0usize;
    let mut meta = 0usize;
    let mut phases = 0usize;
    for e in evs {
        match e.at("ph").string() {
            "X" => {
                complete += 1;
                e.at("ts").number();
                e.at("dur").number();
                e.at("pid").number();
                e.at("tid").number();
                assert!(!e.at("name").string().is_empty());
                if e.at("cat").string() == "phase" {
                    // Host phase spans live on their own synthetic process
                    // and carry no pc.
                    phases += 1;
                    assert!(e.at("dur").number() >= 1.0);
                } else {
                    e.at("args").at("pc").number();
                }
            }
            "M" => {
                meta += 1;
                assert!(!e.at("args").at("name").string().is_empty());
            }
            "C" => {
                e.at("args").at("skip_entries").number();
            }
            other => panic!("unexpected phase `{other}`"),
        }
    }
    assert!(complete > 0, "at least one complete event");
    assert!(meta > 0, "process/thread name metadata present");
    assert!(phases > 0, "host phase spans exported into the trace");
    doc.at("otherData").at("dropped_events").number();
}

/// Golden schema for `lints --json`: one row per `LintCode` variant with
/// all four columns, including the symbolic-validator codes.
#[test]
fn lints_json_schema() {
    let (code, out, _) = run(&["lints", "--json"]);
    assert_eq!(code, Some(0));
    let doc = read(&out);
    assert_header(&doc, "lints");
    let rows = doc.at("lints").list();
    let codes: Vec<&str> = rows
        .iter()
        .map(|r| {
            r.at("severity").string();
            r.at("pass").string();
            assert!(!r.at("doc").string().is_empty());
            r.at("code").string()
        })
        .collect();
    for c in ["V001", "V201", "V301", "P101", "S401", "S402", "S403", "E201", "E202"] {
        assert!(codes.contains(&c), "lint registry is missing {c}");
    }
}

/// Golden schema for `estimate --json`, plus the headline invariant: the
/// measured cycles sit inside the static bracket for both techniques
/// (zero `E202`) and every catalog loop has a two-sided bound.
#[test]
fn estimate_json_schema() {
    let (code, out, _) = run(&["estimate", "BIN", "--scale", "test", "--json"]);
    assert_eq!(code, Some(0));
    let doc = read(&out);
    assert_header(&doc, "estimate");
    let ws = doc.at("workloads").list();
    assert_eq!(ws.len(), 1);
    let w = &ws[0];
    assert_eq!(w.at("abbr").string(), "BIN");
    assert!(!w.at("kernel").string().is_empty());
    let techs = w.at("techniques").list();
    assert_eq!(techs.len(), 2, "Base and DARSIE");
    let labels: Vec<&str> = techs.iter().map(|t| t.at("technique").string()).collect();
    assert_eq!(labels, ["BASE", "DARSIE"]);
    for t in techs {
        let min = t.at("min_cycles").number();
        let max = t.at("max_cycles").number();
        let measured = t.at("measured_cycles").number();
        assert!(t.at("in_bracket").boolean());
        assert!(min <= measured && measured <= max, "{measured} outside [{min}, {max}]");
        let skip = t.at("predicted_skip_fraction").number();
        assert!((0.0..=1.0).contains(&skip));
        for l in t.at("loops").list() {
            l.at("back_edge_pc").number();
            let lo = l.at("min_trips").number();
            let hi = l.at("max_trips").number();
            assert!(lo >= 1.0 && lo <= hi);
        }
        let b = t.at("breakdown");
        for key in [
            "fetch_bound",
            "issue_bound",
            "lsu_bound",
            "chain_bound",
            "fetch_serial",
            "issue_serial",
            "lsu_serial",
            "sfu_serial",
            "dram_serial",
            "exposed",
            "darsie_slack",
            "tbs_per_sm",
            "waves",
        ] {
            b.at(key).number();
        }
        assert_eq!(t.at("diagnostics").list().len(), 0, "BIN estimates clean");
        assert_hex_digest(t.at("digest_root"));
    }
    assert_ne!(techs[0].at("digest_root"), techs[1].at("digest_root"));
    let cycles: Vec<f64> = techs.iter().map(|t| t.at("measured_cycles").number()).collect();
    let speedup = w.at("darsie_speedup").number();
    assert!(speedup > 0.0);
    assert!((speedup - cycles[0] / cycles[1]).abs() < 5e-5, "speedup {speedup} vs {cycles:?}");
    // DARSIE predicts actual savings on BIN.
    assert!(techs[1].at("predicted_skip_fraction").number() > 0.0);
    let t = doc.at("totals");
    assert_eq!(t.at("bound_violations").number(), 0.0);
    assert_eq!(t.at("unbounded_loops").number(), 0.0);
    assert!(t.at("mean_bracket_width").number() > 0.0);
}

/// The trace lines `--trace N` prints: the header and the events under it.
fn trace_window(out: &str) -> (&str, Vec<&str>) {
    let mut lines = out.lines().skip_while(|l| !l.starts_with("  -- first "));
    let header = lines.next().expect("trace header");
    (header, lines.take_while(|l| l.starts_with("  cycle")).collect())
}

/// `--trace N` prints the start of the event ring, which keeps the *last*
/// events of a run: when it overflowed (LIB at eval scale), the header
/// names that window and counts the earlier events dropped; when
/// everything fit (BIN at test scale), the header is the plain one.
#[test]
fn trace_header_names_the_kept_window() {
    let (code, out, err) = run(&["LIB", "--trace", "2"]);
    assert_eq!(code, Some(0), "{err}");
    let (header, events) = trace_window(&out);
    assert_eq!(
        header,
        "  -- first 2 of the last 200000 pipeline events (8427 earlier events dropped) --"
    );
    assert_eq!(events.len(), 2, "{out}");
    assert!(!out.contains("further events dropped"), "{out}");

    let (code, out, err) = run(&["BIN", "--scale", "test", "--trace", "2"]);
    assert_eq!(code, Some(0), "{err}");
    let (header, events) = trace_window(&out);
    assert_eq!(header, "  -- first 2 pipeline events --");
    assert_eq!(
        events,
        ["  cycle      1  sm0 w1   pc    0  Fetch", "  cycle      1  sm0 w1   pc    1  Lead"]
    );
}

/// Exact golden for the modelled numbers of `estimate --scale test --json`:
/// per workload, BASE cycles, digest root and static `[min, max]` cycle
/// bracket, the same for DARSIE, `darsie_speedup` as rendered, and every
/// loop's `back_edge_pc:min_trips..max_trips` (both techniques must report
/// the same trips). Any model change moves a row; re-pin only when that is
/// the intent, and name the numbers that moved.
#[test]
fn estimate_matches_the_pinned_golden() {
    let (code, out, err) = run(&["estimate", "--scale", "test", "--json"]);
    assert_eq!(code, Some(0), "{err}");
    let doc = read(&out);
    let got: Vec<String> = doc
        .at("workloads")
        .list()
        .iter()
        .map(|w| {
            let techs = w.at("techniques").list();
            let labels: Vec<&str> = techs.iter().map(|t| t.at("technique").string()).collect();
            assert_eq!(labels, ["BASE", "DARSIE"], "{}", w.at("abbr"));
            let loops: Vec<String> = techs
                .iter()
                .map(|t| {
                    let trips = t.at("loops").list().iter().map(|l| {
                        format!(
                            "{}:{}..{}",
                            l.at("back_edge_pc"),
                            l.at("min_trips"),
                            l.at("max_trips")
                        )
                    });
                    trips.collect::<Vec<_>>().join(" ")
                })
                .collect();
            assert_eq!(loops[0], loops[1], "{}: trips differ by technique", w.at("abbr"));
            let tech = |t: &Json| {
                format!(
                    "{}, \"{}\", ({}, {})",
                    t.at("measured_cycles"),
                    t.at("digest_root").string(),
                    t.at("min_cycles"),
                    t.at("max_cycles"),
                )
            };
            format!(
                "(\"{}\", {}, {}, \"{}\", \"{}\")",
                w.at("abbr").string(),
                tech(&techs[0]),
                tech(&techs[1]),
                w.at("darsie_speedup"),
                loops[0],
            )
        })
        .collect();
    let want: Vec<String> = ESTIMATE_GOLDEN
        .iter()
        .map(|(a, bc, br, (bl, bh), dc, dr, (dl, dh), s, l)| {
            format!("(\"{a}\", {bc}, \"{br}\", ({bl}, {bh}), {dc}, \"{dr}\", ({dl}, {dh}), \"{s}\", \"{l}\")")
        })
        .collect();
    assert!(got == want, "estimate golden moved; actual rows:\n    {}", got.join(",\n    "));
}

/// `(abbr, BASE cycles, BASE root, BASE bracket, DARSIE cycles, DARSIE
/// root, DARSIE bracket, speedup, loop trips)`.
#[rustfmt::skip]
#[allow(clippy::type_complexity)]
const ESTIMATE_GOLDEN: &[(&str, u64, &str, (u64, u64), u64, &str, (u64, u64), &str, &str)] = &[
    ("BIN", 1025, "0x6bcec553e0e73152", (816, 2736), 943, "0xf76d1f25ca95bd9e", (656, 3424), "1.0870", "28:8..8"),
    ("PT", 2148, "0x90a0fc003cfeabfe", (1552, 4964), 1804, "0xb1ffad486cfd93f0", (1136, 5964), "1.1907", "32:4..4"),
    ("FW", 2200, "0x3414d144df4e633c", (1520, 7996), 1814, "0x2dae61397f817f70", (1176, 9156), "1.2128", "31:8..8"),
    ("SR1", 494, "0xe94bc4623742c161", (320, 1274), 443, "0xbe32c4d80de8d430", (264, 1480), "1.1151", ""),
    ("LIB", 1634, "0x4a0ad075a960a80a", (928, 3236), 1222, "0x77f3271d9a54689e", (364, 5688), "1.3372", "47:6..6"),
    ("IMNLM", 3206, "0xcb0aa194417d0209", (1936, 12459), 2398, "0xc007d6a2f6351abe", (1368, 14291), "1.3369", "41:3..3 44:3..3"),
    ("BP", 458, "0x0ac22a1fe39feefc", (244, 1463), 416, "0x234ee89f49ac4374", (164, 1823), "1.1010", ""),
    ("DCT8x8", 1320, "0xfca0b2c2e8629c85", (792, 3697), 1002, "0x7e9089f5f60f9cc3", (420, 7593), "1.3174", "30:8..8 47:8..8"),
    ("FWS", 568, "0x8c9ab0cc214f3003", (416, 1531), 389, "0x3b3c271ce5617a96", (240, 2491), "1.4602", ""),
    ("HS", 559, "0x768a05fe3e65df7f", (376, 1590), 475, "0x68800cc8fa2ab9ac", (280, 2006), "1.1768", ""),
    ("CP", 2110, "0x0da7f802087779ad", (1256, 5359), 1532, "0xcb0cb73c31b80af5", (648, 12351), "1.3773", "32:8..8"),
    ("CONVTEX", 1151, "0x254a0a2d3aa7e314", (744, 5937), 720, "0x41da86f2fe025cff", (344, 7705), "1.5986", "27:5..5"),
    ("MM", 24356, "0xc4c7f1720f782fbe", (18176, 59816), 16198, "0x65c2df487404990f", (12096, 73752), "1.5036", "55:4..4 61:2..2"),
];

/// Golden schema for `replay-diff --json` in self-comparison mode: two
/// runs of the same spec must be digest-identical, exit 0.
#[test]
fn replay_diff_self_comparison_is_identical() {
    let (code, out, err) = run(&["replay-diff", "BIN", "--scale", "test", "--json"]);
    assert_eq!(code, Some(0), "{err}");
    let doc = read(&out);
    assert_header(&doc, "replay-diff");
    assert!(doc.at("self_compare").boolean());
    let ws = doc.at("workloads").list();
    assert_eq!(ws.len(), 1);
    let w = &ws[0];
    assert_eq!(w.at("abbr").string(), "BIN");
    assert!(!w.at("kernel").string().is_empty());
    assert!(w.at("identical").boolean());
    assert_hex_digest(w.at("root_a"));
    assert_eq!(w.at("root_a"), w.at("root_b"));
    assert_eq!(w.at("cycles_a").number(), w.at("cycles_b").number());
    assert!(w.at("epochs").number() >= 1.0);
    assert_eq!(*w.at("divergence"), Json::Null);
    let t = doc.at("totals");
    assert_eq!(t.at("workloads").number(), 1.0);
    assert_eq!(t.at("divergent").number(), 0.0);
}

/// `replay-diff --perturb CYCLE` flips one global-memory word in run B;
/// the bisector must localize the first divergence to the memory chain
/// at exactly that cycle — and, as a divergence hunt, still exit 0.
#[test]
fn replay_diff_perturbation_is_bisected_to_memory_at_cycle() {
    let (code, out, err) =
        run(&["replay-diff", "BIN", "--scale", "test", "--json", "--perturb", "10"]);
    assert_eq!(code, Some(0), "a hunt that finds its divergence succeeds: {err}");
    let doc = read(&out);
    assert_header(&doc, "replay-diff");
    assert!(!doc.at("self_compare").boolean());
    let w = &doc.at("workloads").list()[0];
    assert!(!w.at("identical").boolean());
    assert_ne!(w.at("root_a"), w.at("root_b"));
    let d = w.at("divergence");
    assert_eq!(d.at("chain").string(), "memory");
    assert_eq!(*d.at("sm"), Json::Null);
    assert_eq!(d.at("component").string(), "memory");
    assert_eq!(d.at("cycle").number(), 10.0, "fine mode pins the perturbation cycle");
    let subs = d.at("subs").list();
    assert!(!subs.is_empty());
    for s in subs {
        s.at("component").string();
        assert_hex_digest(s.at("a"));
        assert_hex_digest(s.at("b"));
    }
    assert_eq!(doc.at("totals").at("divergent").number(), 1.0);
}

/// `--against technique=base` compares DARSIE to the baseline pipeline:
/// the runs must diverge (that is the point of the hunt) and exit 0.
#[test]
fn replay_diff_against_differing_technique_diverges() {
    let (code, out, _) =
        run(&["replay-diff", "BIN", "--scale", "test", "--json", "--against", "technique=base"]);
    assert_eq!(code, Some(0));
    let doc = read(&out);
    let w = &doc.at("workloads").list()[0];
    assert!(!w.at("identical").boolean());
    assert!(matches!(w.at("divergence"), Json::Obj(_)));
    // `--against` takes the run mode's whole technique name set.
    let (code, _, err) = run(&[
        "replay-diff",
        "BIN",
        "--scale",
        "test",
        "--against",
        "technique=darsie-ignore-store",
    ]);
    assert_eq!(code, Some(0), "{err}");
}

/// Every `--json` document is already in canonical form: parsing it and
/// writing it back gives the same bytes.
#[test]
fn json_documents_are_canonical() {
    let mut runs: Vec<Vec<&str>> = [
        &["verify"][..],
        &["certify"],
        &["certify", "--family"],
        &["analyze"],
        &["prove"],
        &["profile"],
        &["estimate"],
        &["replay-diff"],
    ]
    .iter()
    .map(|sub| [sub, &["BIN", "--scale", "test", "--json"][..]].concat())
    .collect();
    runs.push(vec!["lints", "--json"]);
    for args in runs {
        let (code, out, err) = run(&args);
        assert_eq!(code, Some(0), "{args:?}: {err}");
        let text = out.strip_suffix('\n').expect("one document line");
        assert_eq!(read(text).to_string(), text, "{args:?} is not canonical");
    }
}

/// Golden schema for the run manifest every subcommand emits under
/// `--manifest PATH`: header, phase spans with wall/alloc counters,
/// counters, metrics, digest roots and the exit code.
#[test]
fn manifest_golden_schema() {
    let dir = std::env::temp_dir().join("darsie-sim-manifest-test");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("verify.manifest.json");
    let path_str = path.to_str().expect("utf-8 temp path");
    let (code, _, err) =
        run(&["verify", "BIN", "--scale", "test", "--json", "--manifest", path_str]);
    assert_eq!(code, Some(0), "{err}");
    let text = std::fs::read_to_string(&path).expect("manifest written");
    std::fs::remove_file(&path).ok();
    let doc = read(&text);
    assert_eq!(doc.at("tool").string(), "darsie-sim");
    assert!(!doc.at("version").string().is_empty());
    assert_eq!(doc.at("schema_version").number(), 1.0);
    assert_eq!(doc.at("subcommand").string(), "verify");
    assert!(doc.at("args").list().iter().any(|a| a.string() == "BIN"));
    assert!(doc.at("wall_seconds").number() >= 0.0);
    assert_eq!(doc.at("exit_code").number(), 0.0);
    let phases = doc.at("phases").list();
    assert!(!phases.is_empty(), "at least one phase span");
    for p in phases {
        assert!(!p.at("name").string().is_empty());
        assert!(p.at("start_seconds").number() >= 0.0);
        assert!(p.at("wall_seconds").number() >= 0.0);
        p.at("alloc_bytes").number();
        p.at("allocs").number();
    }
    doc.at("counters").at("workloads").number();
    assert!(matches!(doc.at("metrics"), Json::Obj(_)));
    assert!(matches!(doc.at("digest_roots"), Json::Obj(_)));
}

/// The manifest of a digest-bearing subcommand records per-run digest
/// roots (hex strings) and a config fingerprint; a `replay-diff`
/// self-comparison records matching A/B roots.
#[test]
fn manifest_records_digest_roots() {
    let dir = std::env::temp_dir().join("darsie-sim-manifest-digest-test");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("replay.manifest.json");
    let path_str = path.to_str().expect("utf-8 temp path");
    let (code, _, err) = run(&["replay-diff", "BIN", "--scale", "test", "--manifest", path_str]);
    assert_eq!(code, Some(0), "{err}");
    let text = std::fs::read_to_string(&path).expect("manifest written");
    std::fs::remove_file(&path).ok();
    let doc = read(&text);
    assert_hex_digest(doc.at("config_fingerprint"));
    let roots = doc.at("digest_roots");
    assert_hex_digest(roots.at("BIN/A"));
    assert_eq!(roots.at("BIN/A"), roots.at("BIN/B"), "self-comparison roots match");
}
