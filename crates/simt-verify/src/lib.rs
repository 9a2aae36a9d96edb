//! `simt-verify`: a static kernel verifier and marking-soundness
//! sanitizer for the DARSIE toolchain.
//!
//! DARSIE's correctness hinges on the compiler's *definitely /
//! conditionally redundant* markings being sound: a wrongly marked
//! instruction silently corrupts follower warps through the
//! rename-sharing hardware. This crate makes every kernel, workload and
//! compiler change self-checking with three independent analysis passes
//! over [`simt_compiler::CompiledKernel`]:
//!
//! 1. **Dataflow checking** ([`dataflow`]) — definite and potential
//!    reads of uninitialized registers / predicates on any path,
//!    unreachable basic blocks, and register / predicate writes no path
//!    ever observes.
//! 2. **Divergence-safety linting** ([`divergence`]) — `bar.sync`
//!    instructions reachable between a potentially divergent branch and
//!    its reconvergence point, where barrier arrival becomes
//!    thread-dependent, plus guarded barriers. Reuses the compiler's
//!    reconvergence table and predicate-uniformity classes.
//! 3. **Marking-soundness sanitizing** ([`oracle`]) — a differential
//!    oracle that replays the kernel per-warp on the headless functional
//!    executor and demands that every instruction marked
//!    `Marking::Redundant` (and every launch-promoted `CondRedundant`)
//!    produced bit-identical result vectors in all warps of every
//!    threadblock — the analog of a race detector for DARSIE's
//!    value sharing.
//! 4. **Shared-memory race detection** ([`races`] + the dynamic sanitizer
//!    wired into [`oracle`]) — a static affine-interval pass proving
//!    barrier-epoch race freedom of shared accesses, backed by a
//!    shadow-memory sanitizer during the oracle's functional replay.
//!    Races make TB-redundancy interleaving-dependent, so the oracle also
//!    downgrades redundancy claims that read race-tainted words.
//!
//! Every finding is a [`Diagnostic`] with a stable lint code (`V0xx`
//! dataflow, `V1xx` divergence, `V2xx` marking soundness, `V3xx` shared
//! memory races, `P1xx` memory performance — see [`perf`]) and a severity;
//! [`Diagnostics`] aggregates them into a report. The `darsie-sim verify`
//! subcommand runs all three passes over the shipped workloads.

pub mod blocks;
pub mod cost;
pub mod dataflow;
pub mod divergence;
pub mod family;
pub mod oracle;
pub mod perf;
pub mod races;
pub mod symex;

use gpu_sim::GlobalMemory;
use simt_compiler::CompiledKernel;
use simt_isa::LaunchConfig;
use std::fmt;

/// How bad a finding is. `Error` findings fail verification; warnings and
/// notes are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational observation.
    Note,
    /// Suspicious but not provably wrong (e.g. a value defined on only
    /// some paths — the undefined path reads architectural zero).
    Warning,
    /// Provably inconsistent kernel or unsound marking.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Declares [`LintCode`] from the lint registry: one row per lint, in
/// report order, giving its variant, code, severity, emitting pass and
/// one-line documentation.
macro_rules! lint_registry {
    ($($(#[$attr:meta])* $lint:ident: $code:literal, $severity:ident, $pass:literal, $doc:literal;)*) => {
        /// Stable lint codes. The numeric bands group the passes: `V0xx`
        /// dataflow, `V1xx` divergence safety, `V2xx` marking soundness.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum LintCode {
            $($(#[$attr])* $lint,)*
        }

        impl LintCode {
            /// Every lint, in report order. The `darsie-sim lints` registry
            /// and the README-drift test iterate this; every variant is a
            /// row of the registry, so it is complete by construction.
            pub const ALL: [LintCode; 24] = [$(LintCode::$lint,)*];

            /// This lint's `(code, severity, pass, doc)` registry row.
            fn row(self) -> (&'static str, Severity, &'static str, &'static str) {
                match self {
                    $(LintCode::$lint => ($code, Severity::$severity, $pass, $doc),)*
                }
            }
        }
    };
}

lint_registry! {
    /// `V001` — a register or predicate is read but no path from entry
    /// defines it.
    UninitRead: "V001", Error, "dataflow", "register or predicate read that no path defines";
    /// `V002` — a register or predicate is read but only some paths from
    /// entry define it.
    MaybeUninitRead: "V002", Warning, "dataflow",
        "register or predicate defined on only some paths";
    /// `V003` — a basic block is unreachable from the kernel entry.
    UnreachableBlock: "V003", Warning, "dataflow", "basic block unreachable from the kernel entry";
    /// `V004` — a register or predicate write is never observed by any
    /// subsequent read on any path.
    DeadWrite: "V004", Warning, "dataflow", "register or predicate write no path ever reads";
    /// `V101` — a `bar.sync` sits between a potentially divergent branch
    /// and its reconvergence point.
    BarrierUnderDivergence: "V101", Error, "divergence",
        "bar.sync between a potentially divergent branch and its reconvergence point";
    /// `V102` — a `bar.sync` carries a guard predicate.
    PredicatedBarrier: "V102", Error, "divergence", "bar.sync carries a guard predicate";
    /// `V201` — an instruction marked definitely redundant produced
    /// different result vectors across warps of one TB.
    UnsoundMarking: "V201", Error, "oracle",
        "definitely redundant instruction produced different vectors across warps";
    /// `V202` — a conditionally redundant instruction, promoted by this
    /// launch's dimensionality check, produced different result vectors
    /// across warps of one TB.
    UnsoundPromotion: "V202", Error, "oracle",
        "launch-promoted conditionally redundant instruction diverged across warps";
    /// `V301` — two shared-memory accesses (at least one store) provably
    /// overlap across distinct threads within one barrier interval.
    SharedRaceStatic: "V301", Error, "races",
        "shared-memory accesses provably overlap across threads in one barrier interval";
    /// `V302` — a shared-memory access's address is not thread-affine (or
    /// an overlap is undecidable), so race freedom cannot be established
    /// statically.
    SharedAddrUnknown: "V302", Warning, "races",
        "shared-memory race freedom undecidable (address not thread-affine)";
    /// `V303` — the dynamic sanitizer observed two threads touching one
    /// shared word in the same barrier epoch, at least one a write.
    SharedRaceDynamic: "V303", Error, "races",
        "sanitizer observed two threads touching one shared word in one epoch";
    /// `V310` — two global accesses (at least one a write, not a
    /// commuting atomic pair) provably touch one word from two distinct
    /// thread blocks, with a concrete block-pair witness.
    InterBlockRace: "V310", Error, "blocks",
        "global accesses of two distinct thread blocks provably share a word";
    /// `V311` — inter-block disjointness of two global accesses could
    /// not be proven (over-approximated footprints overlap); the kernel
    /// is conservatively not block-independent.
    InterBlockOverlap: "V311", Warning, "blocks",
        "inter-block disjointness of global footprints not provable";
    /// `V312` — the dynamic global sanitizer observed two distinct
    /// thread blocks touching one global word, at least one a
    /// non-atomic write or a non-commuting atomic.
    InterBlockRaceDynamic: "V312", Error, "blocks",
        "sanitizer observed two thread blocks touching one global word";
    /// `V313` — a global access's address escapes the block-affine
    /// domain, so its inter-block footprint is unknown.
    GlobalAddrUnknown: "V313", Warning, "blocks",
        "global address outside the block-affine domain; footprint unknown";
    /// `V314` — conservative inter-block findings (`V311`/`V313`) were
    /// discharged for this launch: the exhaustive functional replay of
    /// every thread block under the global shadow sanitizer observed no
    /// inter-block collision, so block independence holds per-launch.
    InterBlockDischarged: "V314", Note, "blocks",
        "conservative overlaps discharged: exhaustive replay saw no inter-block collision";
    /// `P101` — a shared-memory access provably serializes over more than
    /// one bank pass in every execution.
    SharedBankConflict: "P101", Warning, "perf",
        "shared access provably serializes over bank passes";
    /// `P102` — a global access provably touches more 128-byte lines per
    /// execution than a perfectly coalesced access of the same width.
    GlobalUncoalesced: "P102", Warning, "perf",
        "global access touches more lines than a coalesced one";
    /// `P103` — a memory access has no static performance bound (address
    /// or execution mask is not exactly thread-affine).
    MemUnpredictable: "P103", Note, "perf", "memory access has no static performance bound";
    /// `S401` — symbolic execution disproved a redundancy marking for
    /// some launch of the 2D family, with a replay-confirmed concrete
    /// counterexample (TB dimensions plus inputs).
    DisprovedMarking: "S401", Error, "symex",
        "symbolic execution disproved a marking with a replay-confirmed counterexample";
    /// `S402` — a redundancy or uniformity claim could not be proved for
    /// the whole launch family (symbolic budget exhausted or the value
    /// escapes the term domain); conservative warning.
    UnprovableMarking: "S402", Warning, "symex",
        "claim not provable for the whole launch family (budget or non-affine escape)";
    /// `S403` — a branch the classes declare skippable (TB-uniform) has a
    /// predicate that provably diverges across threads for some launch of
    /// the promotion family, breaking the single-control-flow-history
    /// requirement.
    BranchSyncViolation: "S403", Error, "symex",
        "skippable branch predicate provably diverges for some family launch";
    /// `E201` — a natural loop's trip count has no static bound under
    /// this launch (non-affine counter, data-dependent exit, or no exit
    /// within the search cap), so the cycle upper bound is unbounded.
    TripUnbounded: "E201", Warning, "cost",
        "loop trip count has no static bound, so the cycle bracket is one-sided";
    /// `E202` — differential validation found a measured cycle count
    /// outside the static `[min, max]` bracket: the cost model or the
    /// simulator is wrong.
    CycleBoundViolation: "E202", Error, "cost",
        "measured cycles fall outside the static [min, max] bracket";
}

impl LintCode {
    /// The stable code string used in reports and tests.
    #[must_use]
    pub fn code(self) -> &'static str {
        self.row().0
    }

    /// Fixed severity of this lint.
    #[must_use]
    pub fn severity(self) -> Severity {
        self.row().1
    }

    /// The pass that emits this lint (the README table's "Pass" column).
    #[must_use]
    pub fn pass(self) -> &'static str {
        self.row().2
    }

    /// One-line documentation rendered by `darsie-sim lints`.
    #[must_use]
    pub fn doc(self) -> &'static str {
        self.row().3
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// One finding of one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The lint that fired.
    pub code: LintCode,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// Static instruction index the finding anchors to, when applicable.
    pub pc: Option<usize>,
    /// Human-readable description with the evidence.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic; the severity is derived from the code.
    #[must_use]
    pub fn new(code: LintCode, pc: Option<usize>, message: impl Into<String>) -> Diagnostic {
        Diagnostic { code, severity: code.severity(), pc, message: message.into() }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pc {
            Some(pc) => write!(f, "{} [{}] pc {}: {}", self.severity, self.code, pc, self.message),
            None => write!(f, "{} [{}]: {}", self.severity, self.code, self.message),
        }
    }
}

/// Aggregated report of every pass run against one kernel.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    /// Name of the verified kernel.
    pub kernel: String,
    /// All findings, in pass order.
    pub items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Empty report for `kernel`.
    #[must_use]
    pub fn new(kernel: impl Into<String>) -> Diagnostics {
        Diagnostics { kernel: kernel.into(), items: Vec::new() }
    }

    /// Appends a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// Appends every finding of `other` (same kernel, later pass).
    pub fn merge(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// Number of error-severity findings.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.items.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.items.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// True when no error-severity finding exists.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Findings with the given code, in order.
    #[must_use]
    pub fn with_code(&self, code: LintCode) -> Vec<&Diagnostic> {
        self.items.iter().filter(|d| d.code == code).collect()
    }

    /// Renders the report, one finding per line, with a totals footer.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "verify {}:", self.kernel);
        for d in &self.items {
            let _ = writeln!(out, "  {d}");
        }
        let _ =
            writeln!(out, "  {} error(s), {} warning(s)", self.error_count(), self.warning_count());
        out
    }
}

/// Runs the two static passes with this launch's dimensionality promotion
/// applied to the uniformity classes.
#[must_use]
pub fn verify_launch(ck: &CompiledKernel, launch: &LaunchConfig) -> Diagnostics {
    let mut report = Diagnostics::new(ck.kernel.name.clone());
    report.merge(dataflow::check(ck));
    report.merge(divergence::check(ck, Some(launch)));
    report
}

/// Runs every pass: the static checks, the static shared-memory race
/// detector for this launch's block shape, and the differential marking
/// oracle (with its dynamic race sanitizers) over `memory` (consumed; the
/// oracle executes the kernel). The report carries the static and
/// dynamic inter-block findings; the launch's one block-independence
/// certificate, with its `V314` discharge, is [`blocks::certify`]'s.
#[must_use]
pub fn verify_full(
    ck: &CompiledKernel,
    launch: &LaunchConfig,
    memory: GlobalMemory,
) -> Diagnostics {
    let mut report = verify_launch(ck, launch);
    report.merge(races::check(ck, launch));
    report.merge(blocks::analyze(ck, launch).1);
    report.merge(cost::check(ck, launch));
    report.merge(symex::prove(ck, Some((launch, &memory))).report);
    report.merge(oracle::check(ck, launch, memory));
    report
}
