//! The DARSIE compiler: static TB-redundancy marking and launch-time
//! finalization (paper Sections 2 and 4.2).
//!
//! The pipeline is:
//!
//! 1. [`Cfg::build`] — basic blocks and edges, plus everything derived
//!    from the graph alone: reverse post-order, reachability,
//!    [`Doms`], [`PostDoms`], [`NaturalLoops`] and every two-way
//!    [`Branch`] with its join and legs;
//! 2. [`ReconvergenceTable::compute`] — SIMT reconvergence points for the
//!    simulator's divergence stack;
//! 3. [`analysis::analyze`] — the redundancy dataflow over the
//!    [`class::AbsClass`] lattice (redundancy × lane-pattern);
//! 4. [`compile`] — bundles it all into a [`CompiledKernel`] with
//!    per-instruction [`Marking`]s;
//! 5. [`LaunchPlan::new`] — at kernel launch, promotes conditionally
//!    redundant instructions using the TB-dimension check and derives the
//!    instruction sets for DARSIE, DAC-IDEAL and UV.
//!
//! ```
//! use simt_isa::{KernelBuilder, LaunchConfig, MemSpace, SpecialReg};
//! use simt_compiler::{compile, LaunchPlan};
//!
//! let mut b = KernelBuilder::new("example");
//! let t = b.special(SpecialReg::TidX);
//! let addr = b.shl_imm(t, 2);
//! let v = b.load(MemSpace::Global, addr, 0);
//! b.store(MemSpace::Global, addr, v, 4096);
//! let ck = compile(b.finish());
//!
//! // A 16x16 threadblock passes the launch-time check, so the whole
//! // tid.x-derived chain (including the load) becomes skippable.
//! let plan = LaunchPlan::new(&ck, &LaunchConfig::new(1u32, (16u32, 16u32)));
//! assert_eq!(plan.num_skippable(), 3);
//! ```
//!
//! [`Marking`]: simt_isa::Marking

pub mod affine;
pub mod analysis;
pub mod blame;
pub mod cfg;
pub mod class;
pub mod defs;
pub mod dom;
pub mod pass;
pub mod refine;
pub mod term;
pub mod trip;

pub use affine::{Affine, AffineVal, NEG_INF, POS_INF};
pub use analysis::{analyze, Analysis, AnalysisOptions};
pub use blame::{blame, Blame, BlameChain, BlameSeed};
pub use cfg::{BasicBlock, BlockId, Branch, Cfg};
pub use class::{AbsClass, Pat, Red, Taxonomy};
pub use defs::{Defs, ReachingDefs};
pub use dom::{Doms, NaturalLoop, NaturalLoops, PostDoms, ReconvergenceTable, RECONVERGE_AT_EXIT};
pub use pass::{compile, compile_with_options, promotes_tid_y, CompiledKernel, LaunchPlan};
pub use refine::{refine, RefineReason, Refined, Upgrade};
pub use term::{Deps, EvalCtx, TermArena, TermId, TermNode};
pub use trip::{infer_trips, LoopTrip, TripCounts, MAX_TRIPS};
