//! Block-and-thread-affine interval domain:
//! `a*tid.x + b*tid.y + d*ctaid.x + e*ctaid.y + c`, `c ∈ [lo, hi]`.
//!
//! This extends the redundancy classes of [`crate::analysis`] — which only
//! answer *whether* a value depends on the thread index — to *how* it
//! depends on it. A value abstracted as [`Affine`] is, at one dynamic
//! execution point, `a*tid.x + b*tid.y + d*ctaid.x + e*ctaid.y + c` for
//! every thread of the block, where `c` is a **TB-uniform** constant known
//! to lie in `[lo, hi]` (the same `c` for all threads; different dynamic
//! instances may pick different `c` from the interval). The bounds use
//! [`NEG_INF`] / [`POS_INF`] as infinities.
//!
//! The `d`/`e` block coefficients are TB-uniform by construction (every
//! thread of a block shares its `ctaid`), so they never perturb the
//! divergence/uniformity bit lattice: structural thread-uniformity is
//! still `a == b == 0`. What they add is *inter-block* structure — the
//! block-independence certifier in `simt-verify` separates per-block
//! global-memory footprints by exactly these coefficients.
//!
//! The domain is the address language of the static shared-memory race
//! pass and the block-independence certifier in `simt-verify`:
//! affine addresses give closed-form footprints whose overlap across
//! distinct threads (or distinct blocks) is decidable, and the interval
//! tracks barrier-free loop-carried constants (tile counters, strides)
//! precisely enough to separate double-buffered regions.
//!
//! The dataflow can run in three modes, selected by [`GridCtx`]:
//! *generic* (launch dimensions unknown; `ntid`/`nctaid` stay opaque),
//! *launch-aware* (a concrete [`LaunchConfig`]: grid and block dimensions
//! resolve to exact constants, and constant-address `ld.param` resolves to
//! the launch's actual parameter words, keeping address intervals finite)
//! and *family-symbolic* (a [`LaunchFamily`] region: `ntid`/`nctaid`
//! become interval-valued TB-uniform symbols covering every launch of the
//! region, `ctaid` keeps its block coefficients, and parameter words still
//! resolve against a reference launch — parameters are not part of the
//! region). Family-mode results over-approximate every member launch, so
//! a disjointness or bounds proof in family mode holds for the whole
//! region at once.
//!
//! Arithmetic is over ideal integers (no 32-bit wraparound). Kernel
//! address arithmetic never approaches `u32` range in this codebase — the
//! functional executor separately asserts in-bounds shared accesses — and
//! any value whose bounds leave the representable range collapses to
//! [`AffineVal::Unknown`], which the race pass escalates conservatively.

use crate::cfg::Cfg;
use simt_isa::{
    CmpOp, Instruction, Kernel, LaunchConfig, LaunchFamily, MemSpace, Op, Operand, Reg, SpecialReg,
};
use std::collections::BTreeMap;

/// Lower-bound infinity for [`Affine`] intervals.
pub const NEG_INF: i64 = i64::MIN;
/// Upper-bound infinity for [`Affine`] intervals.
pub const POS_INF: i64 = i64::MAX;

/// `a*tid.x + b*tid.y + d*ctaid.x + e*ctaid.y + c` with `c ∈ [lo, hi]`.
///
/// The `uniform` bit is the divergence-awareness of the domain: when set,
/// `c` is **TB-uniform** — one shared constant for every thread of the
/// dynamic instance. When clear, each thread may hold its own `c_t` from
/// the interval (the value went through a divergent write or merge), so
/// the interval is only a per-thread envelope. An *exact* constant
/// (`lo == hi`) determines every thread's value regardless of the bit.
/// The block terms `d*ctaid.x + e*ctaid.y` are TB-uniform by construction
/// and do not participate in the bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Affine {
    /// Coefficient of `tid.x`.
    pub a: i64,
    /// Coefficient of `tid.y`.
    pub b: i64,
    /// Coefficient of `ctaid.x`.
    pub d: i64,
    /// Coefficient of `ctaid.y`.
    pub e: i64,
    /// Lower bound (inclusive) of the constant.
    pub lo: i64,
    /// Upper bound (inclusive) of the constant.
    pub hi: i64,
    /// True when `c` is one shared constant across the threads of the
    /// dynamic instance (see type-level docs).
    pub uniform: bool,
}

/// Abstract value of one register in the affine-interval dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AffineVal {
    /// Unreached / no value yet (lattice top; identity of [`meet`]).
    ///
    /// [`meet`]: AffineVal::meet
    Top,
    /// Thread-affine with a uniform interval constant.
    Aff(Affine),
    /// Anything, possibly thread-dependent in a non-affine way
    /// (lattice bottom).
    Unknown,
}

/// Saturating add where out-of-range lower bounds clamp to `NEG_INF`.
fn add_lo(x: i64, y: i64) -> Option<i64> {
    if x == NEG_INF || y == NEG_INF {
        return Some(NEG_INF);
    }
    clamp_lo(i128::from(x) + i128::from(y))
}

/// Saturating add where out-of-range upper bounds clamp to `POS_INF`.
fn add_hi(x: i64, y: i64) -> Option<i64> {
    if x == POS_INF || y == POS_INF {
        return Some(POS_INF);
    }
    clamp_hi(i128::from(x) + i128::from(y))
}

/// Maps an exact value to a lower bound: clamping *down* is sound, a value
/// above the representable range is not (it would overstate the bound).
fn clamp_lo(v: i128) -> Option<i64> {
    if v <= i128::from(NEG_INF) {
        Some(NEG_INF)
    } else if v >= i128::from(POS_INF) {
        None
    } else {
        Some(v as i64)
    }
}

/// Maps an exact value to an upper bound (mirror of [`clamp_lo`]).
fn clamp_hi(v: i128) -> Option<i64> {
    if v >= i128::from(POS_INF) {
        Some(POS_INF)
    } else if v <= i128::from(NEG_INF) {
        None
    } else {
        Some(v as i64)
    }
}

/// `x * k` for an interval *bound* `x` and finite scale `k`, honoring
/// infinities and the direction flip on negative `k`.
fn mul_bound(x: i64, k: i64) -> i128 {
    if x == NEG_INF {
        if k >= 0 {
            i128::from(NEG_INF) * 2
        } else {
            i128::from(POS_INF) * 2
        }
    } else if x == POS_INF {
        if k >= 0 {
            i128::from(POS_INF) * 2
        } else {
            i128::from(NEG_INF) * 2
        }
    } else {
        i128::from(x) * i128::from(k)
    }
}

impl Affine {
    /// The exact constant `v`.
    #[must_use]
    pub fn constant(v: i64) -> Affine {
        Affine { a: 0, b: 0, d: 0, e: 0, lo: v, hi: v, uniform: true }
    }

    /// True when the value has no thread-coordinate component. This is the
    /// *structural* notion (thread coefficients only; the block terms are
    /// TB-uniform by construction); it says nothing about whether `c` is
    /// shared across threads — see [`is_tb_uniform`](Affine::is_tb_uniform)
    /// for the sound cross-thread claim.
    #[must_use]
    pub fn is_uniform(self) -> bool {
        self.a == 0 && self.b == 0
    }

    /// True when the value carries a block-coordinate component.
    #[must_use]
    pub fn has_block_terms(self) -> bool {
        self.d != 0 || self.e != 0
    }

    /// True when the constant is provably one shared value per dynamic
    /// instance: either the `uniform` bit survived every join and
    /// transfer, or the constant is exact (a literal is trivially
    /// shared).
    #[must_use]
    pub fn c_uniform(self) -> bool {
        self.uniform || self.lo == self.hi
    }

    /// True when the *value* is provably the same for every thread of the
    /// dynamic instance: no thread coordinates, and a shared constant (the
    /// block terms are shared within a block by construction).
    #[must_use]
    pub fn is_tb_uniform(self) -> bool {
        self.a == 0 && self.b == 0 && self.c_uniform()
    }

    /// True when the constant is a single known value. Note this speaks
    /// only about the interval: a value with block terms is exact *given
    /// the block coordinates* — use [`as_const`](Affine::as_const) for the
    /// grid-wide single-value claim.
    #[must_use]
    pub fn is_exact(self) -> bool {
        self.lo == self.hi
    }

    /// The single value this form takes for *every* thread of *every*
    /// block, if any: no thread or block coefficients and an exact
    /// constant. This is the only sound "known scalar" extraction once
    /// block terms exist — `is_uniform() && is_exact()` is not enough.
    #[must_use]
    pub fn as_const(self) -> Option<i64> {
        if self.a == 0 && self.b == 0 && self.d == 0 && self.e == 0 && self.lo == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }

    /// Evaluates for thread `(tx, ty)` when the constant is exact and the
    /// value has no block terms (the block coordinates are unknown here —
    /// see [`eval_at`](Affine::eval_at)).
    #[must_use]
    pub fn eval(self, tx: i64, ty: i64) -> Option<i64> {
        if self.has_block_terms() {
            return None;
        }
        self.eval_at(tx, ty, 0, 0)
    }

    /// Evaluates for thread `(tx, ty)` of block `(cx, cy)` when the
    /// constant is exact.
    #[must_use]
    pub fn eval_at(self, tx: i64, ty: i64, cx: i64, cy: i64) -> Option<i64> {
        if !self.is_exact() {
            return None;
        }
        let v = i128::from(self.a) * i128::from(tx)
            + i128::from(self.b) * i128::from(ty)
            + i128::from(self.d) * i128::from(cx)
            + i128::from(self.e) * i128::from(cy)
            + i128::from(self.lo);
        i64::try_from(v).ok()
    }

    /// The same form with the block terms removed: the intra-block shape,
    /// shared by every block up to the TB-uniform offset
    /// `d*ctaid.x + e*ctaid.y`.
    #[must_use]
    pub fn drop_block_terms(self) -> Affine {
        Affine { d: 0, e: 0, ..self }
    }

    /// Range of values over threads `tx ∈ [0, bx)`, `ty ∈ [0, by)` and
    /// every constant in the interval: `(min, max)` with infinities. A
    /// form with block terms has no block-free range — it spans the whole
    /// line as far as this (single-block) query can tell; use
    /// [`range_over`](Affine::range_over) to quantify over a grid.
    #[must_use]
    pub fn range(self, bx: i64, by: i64) -> (i64, i64) {
        if self.has_block_terms() {
            return (NEG_INF, POS_INF);
        }
        let ax = (self.a * (bx - 1)).min(0);
        let axh = (self.a * (bx - 1)).max(0);
        let by_ = (self.b * (by - 1)).min(0);
        let byh = (self.b * (by - 1)).max(0);
        let lo = add_lo(self.lo, ax + by_).unwrap_or(NEG_INF);
        let hi = add_hi(self.hi, axh + byh).unwrap_or(POS_INF);
        (lo, hi)
    }

    /// Range of values over threads `tx ∈ [0, bx)`, `ty ∈ [0, by)`,
    /// blocks `cx ∈ [0, gx)`, `cy ∈ [0, gy)` and every constant in the
    /// interval: `(min, max)` with infinities.
    #[must_use]
    pub fn range_over(self, bx: i64, by: i64, gx: i64, gy: i64) -> (i64, i64) {
        let (lo, hi) = self.drop_block_terms().range(bx, by);
        let span = |k: i64, n: i64| -> (i128, i128) {
            let v = i128::from(k) * i128::from(n - 1);
            (v.min(0), v.max(0))
        };
        let (dxl, dxh) = span(self.d, gx);
        let (eyl, eyh) = span(self.e, gy);
        let lo = if lo == NEG_INF {
            NEG_INF
        } else {
            clamp_lo(i128::from(lo) + dxl + eyl).unwrap_or(NEG_INF)
        };
        let hi = if hi == POS_INF {
            POS_INF
        } else {
            clamp_hi(i128::from(hi) + dxh + eyh).unwrap_or(POS_INF)
        };
        (lo, hi)
    }
}

/// Grid context the dataflow runs under: either *generic* (only the
/// block's z extent is known, for launch-family analyses) or
/// *launch-aware* (a concrete [`LaunchConfig`] whose dimensions and
/// parameter words resolve to exact constants).
#[derive(Debug, Clone, Copy)]
pub struct GridCtx<'a> {
    block_z: u32,
    launch: Option<&'a LaunchConfig>,
    family: Option<&'a LaunchFamily>,
}

impl GridCtx<'static> {
    /// Launch-agnostic mode: only `block_z` is pinned (the domain is 2D,
    /// so a flat block keeps `tid.z` inside the affine language);
    /// `ntid`/`nctaid` specials and parameter loads stay opaque.
    #[must_use]
    pub fn generic(block_z: u32) -> GridCtx<'static> {
        GridCtx { block_z, launch: None, family: None }
    }
}

impl<'a> GridCtx<'a> {
    /// Launch-aware mode: grid/block dimensions and constant-address
    /// parameter loads resolve against this concrete launch.
    #[must_use]
    pub fn launch(launch: &'a LaunchConfig) -> GridCtx<'a> {
        GridCtx { block_z: launch.block.z, launch: Some(launch), family: None }
    }

    /// Family-symbolic mode: `ntid`/`nctaid` specials become intervals
    /// covering every launch of `family`, `ctaid` keeps its block
    /// coefficients (pinned to zero only when the whole region is
    /// one-wide along that axis), and constant-address parameter loads
    /// still resolve against `reference` (parameter words are shared by
    /// the whole family, not part of the region). Interval hulls in this
    /// mode use the region's *upper* corner, so every produced envelope
    /// is a superset of the same analysis under any member launch.
    #[must_use]
    pub fn family(family: &'a LaunchFamily, reference: &'a LaunchConfig) -> GridCtx<'a> {
        GridCtx { block_z: family.block_z.hi, launch: Some(reference), family: Some(family) }
    }

    /// `(block_x, block_y, grid_x, grid_y)` extents for interval hulls:
    /// the region's upper corner in family mode (a superset of every
    /// member's hull), the concrete dimensions in launch mode, `None` in
    /// generic mode.
    #[must_use]
    pub fn hull_dims(self) -> Option<(i64, i64, i64, i64)> {
        if let Some(f) = self.family {
            return Some((
                i64::from(f.block_x.hi.max(1)),
                i64::from(f.block_y.hi.max(1)),
                i64::from(f.grid_x.hi.max(1)),
                i64::from(f.grid_y.hi.max(1)),
            ));
        }
        self.launch.map(|l| {
            (
                i64::from(l.block.x.max(1)),
                i64::from(l.block.y.max(1)),
                i64::from(l.grid.x.max(1)),
                i64::from(l.grid.y.max(1)),
            )
        })
    }
}

impl AffineVal {
    /// The exact constant `v`.
    #[must_use]
    pub fn constant(v: i64) -> AffineVal {
        AffineVal::Aff(Affine::constant(v))
    }

    /// A TB-uniform value about which nothing else is known.
    #[must_use]
    pub fn uniform_unknown() -> AffineVal {
        AffineVal::Aff(Affine { a: 0, b: 0, d: 0, e: 0, lo: NEG_INF, hi: POS_INF, uniform: true })
    }

    /// Clears the TB-uniform bit: the value keeps its per-thread affine
    /// envelope but loses the shared-constant claim. Applied to writes in
    /// divergent regions and to merges under non-uniform guards.
    #[must_use]
    pub fn non_uniform(self) -> AffineVal {
        match self {
            AffineVal::Aff(f) => AffineVal::Aff(Affine { uniform: false, ..f }),
            v => v,
        }
    }

    /// True when the value is provably one shared constant per dynamic
    /// instance (bit-aware; see [`Affine::is_tb_uniform`]).
    #[must_use]
    pub fn is_tb_uniform(self) -> bool {
        matches!(self, AffineVal::Aff(f) if f.is_tb_uniform())
    }

    /// A TB-uniform value known to lie in `[lo, hi]` (one shared value
    /// per dynamic instance; exact when the interval is a point).
    #[must_use]
    pub fn uniform_interval(lo: i64, hi: i64) -> AffineVal {
        AffineVal::Aff(Affine { a: 0, b: 0, d: 0, e: 0, lo, hi, uniform: true })
    }

    /// Family-symbolic value of a dimension-dependent special: an
    /// interval covering the register's value in *every* launch of the
    /// region. `None` for specials that do not consult launch dimensions
    /// (the caller falls through to the shared handling).
    fn of_special_family(s: SpecialReg, f: &LaunchFamily) -> Option<AffineVal> {
        let range = |r: &simt_isa::AxisRange| {
            AffineVal::uniform_interval(i64::from(r.lo.max(1)), i64::from(r.hi.max(1)))
        };
        Some(match s {
            // A region one-wide along a grid axis pins the coordinate;
            // anything else keeps the block coefficient, whose per-member
            // extent the certifier bounds by the region's upper corner.
            SpecialReg::CtaidX if f.grid_x.hi == 1 => AffineVal::constant(0),
            SpecialReg::CtaidX => {
                AffineVal::Aff(Affine { a: 0, b: 0, d: 1, e: 0, lo: 0, hi: 0, uniform: true })
            }
            SpecialReg::CtaidY if f.grid_y.hi == 1 => AffineVal::constant(0),
            SpecialReg::CtaidY => {
                AffineVal::Aff(Affine { a: 0, b: 0, d: 0, e: 1, lo: 0, hi: 0, uniform: true })
            }
            // Families pin grid depth to one.
            SpecialReg::CtaidZ => AffineVal::constant(0),
            SpecialReg::NtidX => range(&f.block_x),
            SpecialReg::NtidY => range(&f.block_y),
            SpecialReg::NtidZ => range(&f.block_z),
            SpecialReg::NctaidX => range(&f.grid_x),
            SpecialReg::NctaidY => range(&f.grid_y),
            SpecialReg::NctaidZ => AffineVal::constant(1),
            _ => return None,
        })
    }

    /// Abstract value of a special register under `ctx`.
    #[must_use]
    pub fn of_special(s: SpecialReg, ctx: GridCtx) -> AffineVal {
        if let Some(f) = ctx.family {
            if let Some(v) = AffineVal::of_special_family(s, f) {
                return v;
            }
        }
        let dims = ctx.launch.map(|l| (l.block, l.grid));
        match s {
            SpecialReg::TidX => {
                AffineVal::Aff(Affine { a: 1, b: 0, d: 0, e: 0, lo: 0, hi: 0, uniform: true })
            }
            SpecialReg::TidY => {
                AffineVal::Aff(Affine { a: 0, b: 1, d: 0, e: 0, lo: 0, hi: 0, uniform: true })
            }
            // The domain is 2D; a flat block pins tid.z to zero, anything
            // else is outside the affine language.
            SpecialReg::TidZ if ctx.block_z == 1 => AffineVal::constant(0),
            SpecialReg::TidZ => AffineVal::Unknown,
            // First-class block axes under a concrete launch: a one-wide
            // grid dimension pins the coordinate to zero, keeping
            // single-block launches exact. Generic mode keeps the legacy
            // TB-uniform opaque so launch-agnostic consumers (trip
            // solving, coalescing prediction) see finite thread-only
            // footprints.
            SpecialReg::CtaidX => match dims {
                Some((_, g)) if g.x == 1 => AffineVal::constant(0),
                Some(_) => {
                    AffineVal::Aff(Affine { a: 0, b: 0, d: 1, e: 0, lo: 0, hi: 0, uniform: true })
                }
                None => AffineVal::uniform_unknown(),
            },
            SpecialReg::CtaidY => match dims {
                Some((_, g)) if g.y == 1 => AffineVal::constant(0),
                Some(_) => {
                    AffineVal::Aff(Affine { a: 0, b: 0, d: 0, e: 1, lo: 0, hi: 0, uniform: true })
                }
                None => AffineVal::uniform_unknown(),
            },
            // The domain's block language is 2D too; a flat grid pins
            // ctaid.z, anything else is a TB-uniform opaque.
            SpecialReg::CtaidZ => match dims {
                Some((_, g)) if g.z == 1 => AffineVal::constant(0),
                _ => AffineVal::uniform_unknown(),
            },
            // Launch dimensions: exact under a concrete launch, TB-uniform
            // opaques in generic mode.
            SpecialReg::NtidX => match dims {
                Some((b, _)) => AffineVal::constant(i64::from(b.x)),
                None => AffineVal::uniform_unknown(),
            },
            SpecialReg::NtidY => match dims {
                Some((b, _)) => AffineVal::constant(i64::from(b.y)),
                None => AffineVal::uniform_unknown(),
            },
            SpecialReg::NtidZ => match dims {
                Some((b, _)) => AffineVal::constant(i64::from(b.z)),
                None => AffineVal::uniform_unknown(),
            },
            SpecialReg::NctaidX => match dims {
                Some((_, g)) => AffineVal::constant(i64::from(g.x)),
                None => AffineVal::uniform_unknown(),
            },
            SpecialReg::NctaidY => match dims {
                Some((_, g)) => AffineVal::constant(i64::from(g.y)),
                None => AffineVal::uniform_unknown(),
            },
            SpecialReg::NctaidZ => match dims {
                Some((_, g)) => AffineVal::constant(i64::from(g.z)),
                None => AffineVal::uniform_unknown(),
            },
            // Lane / warp ids relate to the *linear* thread id, not the
            // (tid.x, tid.y) coordinates this domain speaks.
            SpecialReg::LaneId | SpecialReg::WarpId => AffineVal::Unknown,
        }
    }

    /// True when the value has no thread-coordinate component: the
    /// *structural* notion of [`Affine::is_uniform`], which says nothing
    /// about whether the constant is shared across threads (see
    /// [`is_tb_uniform`](AffineVal::is_tb_uniform) for that claim).
    #[must_use]
    pub fn is_uniform(self) -> bool {
        matches!(self, AffineVal::Aff(f) if f.is_uniform())
    }

    /// The affine form, if any.
    #[must_use]
    pub fn affine(self) -> Option<Affine> {
        match self {
            AffineVal::Aff(f) => Some(f),
            _ => None,
        }
    }

    /// The grid-wide exact constant, if any (see [`Affine::as_const`]).
    #[must_use]
    pub fn as_const(self) -> Option<i64> {
        self.affine().and_then(Affine::as_const)
    }

    /// Lattice meet (join of concretizations): identical coefficients hull
    /// their intervals, anything else falls to [`AffineVal::Unknown`].
    /// With `widen`, a growing bound jumps straight to infinity so
    /// loop-carried constants converge.
    #[must_use]
    pub fn meet(self, other: AffineVal, widen: bool) -> AffineVal {
        match (self, other) {
            (AffineVal::Top, v) | (v, AffineVal::Top) => v,
            (AffineVal::Unknown, _) | (_, AffineVal::Unknown) => AffineVal::Unknown,
            (AffineVal::Aff(x), AffineVal::Aff(y)) => {
                if x.a != y.a || x.b != y.b || x.d != y.d || x.e != y.e {
                    return AffineVal::Unknown;
                }
                let lo = if y.lo < x.lo {
                    if widen {
                        NEG_INF
                    } else {
                        y.lo
                    }
                } else {
                    x.lo
                };
                let hi = if y.hi > x.hi {
                    if widen {
                        POS_INF
                    } else {
                        y.hi
                    }
                } else {
                    x.hi
                };
                // The raw bits AND: a hull mixes the two incoming
                // constants, which stays shared only when both sides were
                // shared (divergent mixes arrive here already bit-cleared
                // by the region-aware transfer).
                AffineVal::Aff(Affine { lo, hi, uniform: x.uniform && y.uniform, ..x })
            }
        }
    }

    /// `self * k` for an exact grid-wide scale `k`.
    #[must_use]
    fn scale(self, k: i64) -> AffineVal {
        let Some(x) = self.affine() else { return AffineVal::Unknown };
        let (Some(a), Some(b)) = (x.a.checked_mul(k), x.b.checked_mul(k)) else {
            return AffineVal::Unknown;
        };
        let (Some(d), Some(e)) = (x.d.checked_mul(k), x.e.checked_mul(k)) else {
            return AffineVal::Unknown;
        };
        let (p, q) = (mul_bound(x.lo, k), mul_bound(x.hi, k));
        let (Some(lo), Some(hi)) = (clamp_lo(p.min(q)), clamp_hi(p.max(q))) else {
            return AffineVal::Unknown;
        };
        AffineVal::Aff(Affine { a, b, d, e, lo, hi, uniform: x.c_uniform() })
    }

    /// Per-thread min. Decidable when both operands share the same thread
    /// and block coefficients: the coordinate terms cancel, so the min
    /// acts on the uniform constants alone (uniform operands are the
    /// `a = b = d = e = 0` special case).
    #[must_use]
    pub fn min_(self, other: AffineVal) -> AffineVal {
        match (self.affine(), other.affine()) {
            (Some(x), Some(y)) if x.a == y.a && x.b == y.b && x.d == y.d && x.e == y.e => {
                AffineVal::Aff(Affine {
                    lo: x.lo.min(y.lo),
                    hi: x.hi.min(y.hi),
                    uniform: x.c_uniform() && y.c_uniform(),
                    ..x
                })
            }
            _ => AffineVal::Unknown,
        }
    }

    /// Per-thread max (mirror of [`min_`](AffineVal::min_)).
    #[must_use]
    pub fn max_(self, other: AffineVal) -> AffineVal {
        match (self.affine(), other.affine()) {
            (Some(x), Some(y)) if x.a == y.a && x.b == y.b && x.d == y.d && x.e == y.e => {
                AffineVal::Aff(Affine {
                    lo: x.lo.max(y.lo),
                    hi: x.hi.max(y.hi),
                    uniform: x.c_uniform() && y.c_uniform(),
                    ..x
                })
            }
            _ => AffineVal::Unknown,
        }
    }

    /// Fallback transfer for ops the domain has no precise rule for:
    /// uniform inputs give a uniform (but otherwise unknown) result, any
    /// thread-dependent input poisons it.
    #[must_use]
    pub fn opaque(operands: impl IntoIterator<Item = AffineVal>) -> AffineVal {
        let (uniform, tb_uniform) = operands
            .into_iter()
            .fold((true, true), |(u, tb), v| (u && v.is_uniform(), tb && v.is_tb_uniform()));
        match (uniform, tb_uniform) {
            (false, _) => AffineVal::Unknown,
            (true, true) => AffineVal::uniform_unknown(),
            (true, false) => AffineVal::uniform_unknown().non_uniform(),
        }
    }

    /// The value ALU opcode `op` computes from operand values `srcs` (an
    /// operand the opcode does not take is the constant 0) under `ctx`:
    /// the domain's one ALU transfer. Integer add, subtract, multiply,
    /// multiply-add and shift-left by a constant are exact, `min`/`max`
    /// cancel agreeing coordinate terms or fall back to the grid hull
    /// (see [`AffineVal::min_`]), and every other op is
    /// [`opaque`](AffineVal::opaque).
    #[must_use]
    pub fn alu(op: Op, srcs: [AffineVal; 3], ctx: GridCtx) -> AffineVal {
        let [a, b, c] = srcs;
        match op {
            Op::Mov => a,
            Op::IAdd => a + b,
            Op::ISub => a - b,
            Op::IMul => a * b,
            Op::IMad => a * b + c,
            Op::Shl => a << b,
            Op::IMin => min_max(a, b, ctx, true),
            Op::IMax => min_max(a, b, ctx, false),
            // Bitwise, shifts-by-register, float and conversion ops:
            // uniform in, uniform out; thread-dependent in, unknown out.
            _ => AffineVal::opaque(srcs),
        }
    }

    /// The value `ld.space [base + offset]` loads under `ctx`. A
    /// constant-address parameter load under a concrete launch reads a
    /// known word of the parameter block (the executor reads missing
    /// words as zero). Any other load is unknown but as uniform as its
    /// address: a TB-uniform address loads one word into every lane, a
    /// merely structurally uniform one may differ per thread, so the word
    /// keeps the envelope but not the shared-constant bit.
    #[must_use]
    pub fn load(space: MemSpace, base: AffineVal, offset: i32, ctx: GridCtx) -> AffineVal {
        if space != MemSpace::Param {
            return AffineVal::opaque([base]);
        }
        let addr = base + AffineVal::constant(i64::from(offset));
        if let (Some(launch), Some(byte)) = (ctx.launch, addr.as_const()) {
            if byte >= 0 {
                let word = usize::try_from(byte / 4).unwrap_or(usize::MAX);
                let v = launch.params.get(word).map_or(0, |p| i64::from(p.0 as i32));
                return AffineVal::constant(v);
            }
        }
        AffineVal::opaque([addr])
    }

    /// The value each thread selects, `a` where the condition holds and
    /// `b` elsewhere, for a condition of abstract value `cond`. A
    /// condition every thread shares hulls the arms. Otherwise threads
    /// mix the arms: a structurally uniform condition, or equal arms,
    /// hull them without the shared-constant bit (two arms of one
    /// abstract value may still hold two different shared constants);
    /// any other condition mixes two forms per thread.
    #[must_use]
    pub fn select(cond: AffineVal, a: AffineVal, b: AffineVal) -> AffineVal {
        if cond.is_tb_uniform() {
            a.meet(b, false)
        } else if cond.is_uniform() || a == b {
            a.meet(b, false).non_uniform()
        } else {
            AffineVal::Unknown
        }
    }
}

impl std::ops::Add for AffineVal {
    type Output = AffineVal;

    fn add(self, other: AffineVal) -> AffineVal {
        let (Some(x), Some(y)) = (self.affine(), other.affine()) else {
            return AffineVal::Unknown;
        };
        let (Some(a), Some(b)) = (x.a.checked_add(y.a), x.b.checked_add(y.b)) else {
            return AffineVal::Unknown;
        };
        let (Some(d), Some(e)) = (x.d.checked_add(y.d), x.e.checked_add(y.e)) else {
            return AffineVal::Unknown;
        };
        let (Some(lo), Some(hi)) = (add_lo(x.lo, y.lo), add_hi(x.hi, y.hi)) else {
            return AffineVal::Unknown;
        };
        AffineVal::Aff(Affine { a, b, d, e, lo, hi, uniform: x.c_uniform() && y.c_uniform() })
    }
}

impl std::ops::Neg for AffineVal {
    type Output = AffineVal;

    fn neg(self) -> AffineVal {
        let Some(x) = self.affine() else { return AffineVal::Unknown };
        let (Some(a), Some(b)) = (x.a.checked_neg(), x.b.checked_neg()) else {
            return AffineVal::Unknown;
        };
        let (Some(d), Some(e)) = (x.d.checked_neg(), x.e.checked_neg()) else {
            return AffineVal::Unknown;
        };
        let lo = if x.hi == POS_INF { NEG_INF } else { -x.hi };
        let hi = if x.lo == NEG_INF { POS_INF } else { -x.lo };
        AffineVal::Aff(Affine { a, b, d, e, lo, hi, uniform: x.c_uniform() })
    }
}

impl std::ops::Sub for AffineVal {
    type Output = AffineVal;

    fn sub(self, other: AffineVal) -> AffineVal {
        self + -other
    }
}

/// `self * other`. Exact when one side is an exact grid-wide constant;
/// interval-valued for uniform × uniform; otherwise unknown (the
/// product of two thread-dependent values is not affine).
impl std::ops::Mul for AffineVal {
    type Output = AffineVal;

    fn mul(self, other: AffineVal) -> AffineVal {
        match (self.affine(), other.affine()) {
            (Some(x), _) if x.as_const().is_some() => other.scale(x.lo),
            (_, Some(y)) if y.as_const().is_some() => self.scale(y.lo),
            (Some(x), Some(y)) if x.is_uniform() && y.is_uniform() => {
                // Infinite inputs, overflow, or block terms (whose product
                // is block-quadratic, outside the language): stay uniform,
                // lose everything else.
                let shared = x.c_uniform() && y.c_uniform();
                let wide = AffineVal::Aff(Affine {
                    a: 0,
                    b: 0,
                    d: 0,
                    e: 0,
                    lo: NEG_INF,
                    hi: POS_INF,
                    uniform: shared,
                });
                if x.has_block_terms() || y.has_block_terms() {
                    return wide;
                }
                let corners = [
                    mul_bound(x.lo, 1).checked_mul(i128::from(y.lo)),
                    mul_bound(x.lo, 1).checked_mul(i128::from(y.hi)),
                    mul_bound(x.hi, 1).checked_mul(i128::from(y.lo)),
                    mul_bound(x.hi, 1).checked_mul(i128::from(y.hi)),
                ];
                if x.lo == NEG_INF
                    || x.hi == POS_INF
                    || y.lo == NEG_INF
                    || y.hi == POS_INF
                    || corners.iter().any(Option::is_none)
                {
                    return wide;
                }
                let vals: Vec<i128> = corners.iter().map(|c| c.unwrap()).collect();
                let (Some(lo), Some(hi)) =
                    (clamp_lo(*vals.iter().min().unwrap()), clamp_hi(*vals.iter().max().unwrap()))
                else {
                    return wide;
                };
                AffineVal::Aff(Affine { a: 0, b: 0, d: 0, e: 0, lo, hi, uniform: shared })
            }
            _ => AffineVal::Unknown,
        }
    }
}

/// `self << k` for an exact grid-wide shift `k` (multiplication by
/// `2^k`); anything else is unknown.
impl std::ops::Shl for AffineVal {
    type Output = AffineVal;

    fn shl(self, other: AffineVal) -> AffineVal {
        match other.as_const() {
            Some(k) if (0..=31).contains(&k) => self.scale(1i64 << k),
            _ => AffineVal::Unknown,
        }
    }
}

// ---------------------------------------------------------------------------
// Affine-interval dataflow over a kernel CFG.
//
// This is the shared analysis engine behind the race pass, the
// block-independence certifier, the memory-performance predictions, the
// cost estimator and the symbolic validator's fallback in `simt-verify`,
// and behind trip inference and marking refinement here. One sweep
// abstracts every register as an [`AffineVal`] and every predicate as the
// comparison that defined it, with branch-edge interval refinement for
// uniform loop counters and widening after [`MAX_PRECISE_SWEEPS`]; each
// consumer reads the result through one [`Flow`].
// ---------------------------------------------------------------------------

/// Sweeps with precise interval hulls before widening kicks in: loop
/// counters with small exact bounds converge precisely, unbounded
/// loop-carried values jump to infinity instead of iterating forever.
pub const MAX_PRECISE_SWEEPS: usize = 40;

/// Abstract predicate: the comparison that defined it, kept symbolic so
/// guards can be evaluated per-thread and branch edges can refine the
/// compared register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredVal {
    /// Never defined on any path seen so far.
    Top,
    /// `cmp(lhs, rhs)` over the operand snapshots at the defining `setp`.
    Cmp {
        /// The comparison operator.
        cmp: CmpOp,
        /// Left operand snapshot at the defining `setp`.
        lhs: AffineVal,
        /// Right operand snapshot at the defining `setp`.
        rhs: AffineVal,
        /// Names the compared register while it is still live unredefined
        /// (for edge refinement); cleared on redefinition.
        lhs_reg: Option<Reg>,
    },
    /// Unknown truth value.
    Unknown,
}

impl PredVal {
    /// Lattice meet: agreeing snapshots survive, anything else degrades.
    #[must_use]
    pub fn meet(self, other: PredVal) -> PredVal {
        match (self, other) {
            (PredVal::Top, v) | (v, PredVal::Top) => v,
            (a, b) if a == b => a,
            _ => PredVal::Unknown,
        }
    }

    /// Structural uniformity of the operand snapshots (coefficients
    /// only). Kept for the per-thread envelope consumers; the sound
    /// cross-thread claim is [`is_tb_uniform`](PredVal::is_tb_uniform).
    #[must_use]
    pub fn is_uniform(self) -> bool {
        match self {
            PredVal::Cmp { lhs, rhs, .. } => lhs.is_uniform() && rhs.is_uniform(),
            _ => false,
        }
    }

    /// True when the predicate provably holds the same truth value in
    /// every thread of the dynamic instance: both operand snapshots are
    /// one shared constant (divergence-bit-aware).
    #[must_use]
    pub fn is_tb_uniform(self) -> bool {
        match self {
            PredVal::Cmp { lhs, rhs, .. } => lhs.is_tb_uniform() && rhs.is_tb_uniform(),
            _ => false,
        }
    }

    /// The predicate as a 0/1 value: one shared truth value when it is
    /// TB-uniform, a per-thread one when its operands are only
    /// structurally uniform, unknown otherwise.
    #[must_use]
    pub fn value(self) -> AffineVal {
        let bit = AffineVal::uniform_interval(0, 1);
        if self.is_tb_uniform() {
            bit
        } else if self.is_uniform() {
            bit.non_uniform()
        } else {
            AffineVal::Unknown
        }
    }

    /// True when both operand snapshots determine every thread's value
    /// outright (exact constants per thread), so old and new definitions
    /// of the predicate agree bit-for-bit.
    #[must_use]
    fn is_determined(self) -> bool {
        match self {
            PredVal::Cmp { lhs, rhs, .. } => {
                lhs.affine().is_some_and(Affine::is_exact)
                    && rhs.affine().is_some_and(Affine::is_exact)
            }
            _ => false,
        }
    }

    /// Per-thread truth value, when both operands are exact affine with
    /// no block terms.
    #[must_use]
    pub fn eval(self, tx: i64, ty: i64) -> Option<bool> {
        let PredVal::Cmp { cmp, lhs, rhs, .. } = self else { return None };
        let l = lhs.affine()?.eval(tx, ty)?;
        let r = rhs.affine()?.eval(tx, ty)?;
        Some(cmp.eval(l, r))
    }

    /// Per-thread truth value for thread `(tx, ty)` of block `(cx, cy)`,
    /// when both operands are exact affine.
    #[must_use]
    pub fn eval_at(self, tx: i64, ty: i64, cx: i64, cy: i64) -> Option<bool> {
        let PredVal::Cmp { cmp, lhs, rhs, .. } = self else { return None };
        let l = lhs.affine()?.eval_at(tx, ty, cx, cy)?;
        let r = rhs.affine()?.eval_at(tx, ty, cx, cy)?;
        Some(cmp.eval(l, r))
    }
}

/// Dataflow state at one program point.
#[derive(Debug, PartialEq)]
pub struct FlowState {
    /// False while no path from entry has reached this point.
    pub reachable: bool,
    /// Abstract value per general register.
    pub regs: Vec<AffineVal>,
    /// Abstract value per predicate register.
    pub preds: Vec<PredVal>,
}

/// Written out so that [`clone_from`](Clone::clone_from) copies into the
/// target's register vectors instead of allocating new ones (the derived
/// one replaces them).
impl Clone for FlowState {
    fn clone(&self) -> FlowState {
        FlowState { reachable: self.reachable, regs: self.regs.clone(), preds: self.preds.clone() }
    }

    fn clone_from(&mut self, source: &FlowState) {
        self.reachable = source.reachable;
        self.regs.clone_from(&source.regs);
        self.preds.clone_from(&source.preds);
    }
}

impl FlowState {
    /// The not-yet-reached state (everything [`AffineVal::Top`]).
    #[must_use]
    pub fn unreachable(nregs: usize, npreds: usize) -> FlowState {
        FlowState {
            reachable: false,
            regs: vec![AffineVal::Top; nregs],
            preds: vec![PredVal::Top; npreds],
        }
    }

    /// A scratch state with no registers, to be overwritten through
    /// [`clone_from`](Clone::clone_from).
    fn empty() -> FlowState {
        FlowState::unreachable(0, 0)
    }

    /// The kernel-entry state. With `zeroed`, registers start as the exact
    /// constant 0 — sound for the functional executor, whose warps
    /// zero-initialize the register file, and TB-uniform by construction.
    /// Without it, entry values are unconstrained.
    #[must_use]
    pub fn entry(nregs: usize, npreds: usize, zeroed: bool) -> FlowState {
        let mut st = FlowState { reachable: true, ..FlowState::unreachable(nregs, npreds) };
        if zeroed {
            st.regs = vec![AffineVal::constant(0); nregs];
        }
        st
    }

    /// Meet with a predecessor's out-state; returns true on change.
    pub fn meet_with(&mut self, other: &FlowState, widen: bool) -> bool {
        if !other.reachable {
            return false;
        }
        if !self.reachable {
            self.clone_from(other);
            return true;
        }
        let mut changed = false;
        for (a, b) in self.regs.iter_mut().zip(&other.regs) {
            let m = a.meet(*b, widen);
            if m != *a {
                *a = m;
                changed = true;
            }
        }
        for (a, b) in self.preds.iter_mut().zip(&other.preds) {
            let m = a.meet(*b);
            if m != *a {
                *a = m;
                changed = true;
            }
        }
        changed
    }
}

/// Abstract value of one operand under `st`.
#[must_use]
pub fn resolve(st: &FlowState, op: Operand) -> AffineVal {
    match op {
        // Reads of never-defined registers are V001/V002 territory; here
        // they are simply unknown.
        Operand::Reg(r) => match st.regs[usize::from(r.0)] {
            AffineVal::Top => AffineVal::Unknown,
            v => v,
        },
        // Immediates are u32 bit patterns used with wrapping adds;
        // sign-extending matches how negative deltas are encoded.
        Operand::Imm(v) => AffineVal::constant(i64::from(v as i32)),
    }
}

/// Abstract value an instruction computes for its general destination.
fn value_of(st: &FlowState, instr: &Instruction, ctx: GridCtx) -> AffineVal {
    let s = |i: usize| instr.srcs.get(i).map_or(AffineVal::constant(0), |&o| resolve(st, o));
    match instr.op {
        Op::S2R(sp) => AffineVal::of_special(sp, ctx),
        Op::Ld(space) => AffineVal::load(space, s(0), instr.offset, ctx),
        Op::Atom(_) => AffineVal::Unknown,
        Op::Sel(p) => AffineVal::select(st.preds[usize::from(p.0)].value(), s(0), s(1)),
        op => AffineVal::alu(op, [s(0), s(1), s(2)], ctx),
    }
}

/// `min`/`max` transfer: precise when the coefficients agree (the
/// coordinate terms cancel, see [`AffineVal::min_`]). Under a concrete
/// launch a coefficient mismatch still yields the interval hull of the
/// operands' grid-wide ranges, so clamp idioms
/// (`max(min(x, hi), lo)`) stay bounded instead of escaping the domain.
/// In family mode the hull is taken at the region's *upper* corner:
/// `range_over` is monotone in every extent (larger dimensions widen the
/// coordinate domain), so the boundary instantiation covers the hull of
/// every member launch.
///
/// The ISA compares the words as `i32`s, the domain its unbounded
/// integers; they order alike only while every value is an `i32` (over
/// the launch's threads, or in generic mode over blocks of CUDA's
/// 1024 × 1024 limit). When that is not known, a finite precise result
/// falls back to the hull of the operands (each thread still holds one
/// of them), and the grid hull is not taken.
fn min_max(x: AffineVal, y: AffineVal, ctx: GridCtx, is_min: bool) -> AffineVal {
    let i32_valued = |v: AffineVal| {
        let Some(f) = v.affine() else { return false };
        let (lo, hi) = match ctx.hull_dims() {
            Some((bx, by, gx, gy)) => f.range_over(bx, by, gx, gy),
            None => f.range(1024, 1024),
        };
        lo >= i64::from(i32::MIN) && hi <= i64::from(i32::MAX)
    };
    let wraps = !(i32_valued(x) && i32_valued(y));
    let precise = if is_min { x.min_(y) } else { x.max_(y) };
    if let Some(f) = precise.affine() {
        if wraps && f.lo != NEG_INF && f.hi != POS_INF {
            let hull = x.meet(y, false);
            return if x.is_tb_uniform() && y.is_tb_uniform() { hull } else { hull.non_uniform() };
        }
        return precise;
    }
    let Some((bx, by, gx, gy)) = ctx.hull_dims() else { return AffineVal::Unknown };
    let (Some(fx), Some(fy)) = (x.affine(), y.affine()) else { return AffineVal::Unknown };
    let (xl, xh) = fx.range_over(bx, by, gx, gy);
    let (yl, yh) = fy.range_over(bx, by, gx, gy);
    if wraps {
        return AffineVal::Unknown;
    }
    // Per thread, min(x_t, y_t) ∈ [min(xl, yl), min(xh, yh)] (and the
    // max mirror): each bound is itself a min/max of the per-operand
    // bounds. The result is a thread-dependent value inside the hull.
    let (lo, hi) = if is_min { (xl.min(yl), xh.min(yh)) } else { (xl.max(yl), xh.max(yh)) };
    AffineVal::Aff(Affine { a: 0, b: 0, d: 0, e: 0, lo, hi, uniform: false })
}

/// Narrows `lhs_reg`'s interval on a branch edge where the predicate is
/// known to be `polarity`. Only sound for TB-uniform comparisons against
/// exact grid-wide constants (all threads agree on the edge taken, and
/// the interval narrowing speaks about the constant alone — block terms
/// on either side would fold block coordinates into the bound).
fn refine_edge(st: &mut FlowState, pv: PredVal, polarity: bool) {
    let PredVal::Cmp { cmp, lhs, rhs, lhs_reg: Some(r) } = pv else { return };
    let Some(c) = rhs.as_const() else { return };
    let Some(l) = lhs.affine() else { return };
    if !l.is_uniform() || l.has_block_terms() {
        return;
    }
    let slot = usize::from(r.0);
    // Belt and braces: the predicate describes the register only while
    // the register still holds the compared value.
    if st.regs[slot] != lhs {
        return;
    }
    let AffineVal::Aff(f) = st.regs[slot] else { return };
    let (mut lo, mut hi) = (f.lo, f.hi);
    match (cmp, polarity) {
        (CmpOp::Lt, true) | (CmpOp::Ge, false) => hi = hi.min(c.saturating_sub(1)),
        (CmpOp::Lt, false) | (CmpOp::Ge, true) => lo = lo.max(c),
        (CmpOp::Le, true) | (CmpOp::Gt, false) => hi = hi.min(c),
        (CmpOp::Le, false) | (CmpOp::Gt, true) => lo = lo.max(c.saturating_add(1)),
        (CmpOp::Eq, true) | (CmpOp::Ne, false) => {
            lo = lo.max(c);
            hi = hi.min(c);
        }
        (CmpOp::Eq, false) | (CmpOp::Ne, true) => {}
    }
    if lo <= hi {
        st.regs[slot] = AffineVal::Aff(Affine { lo, hi, ..f });
    }
}

/// Number of predicate slots touched by `instrs` (destinations, guards and
/// `sel` conditions).
#[must_use]
pub fn num_preds(instrs: &[Instruction]) -> usize {
    instrs
        .iter()
        .flat_map(|i| {
            i.pdst.into_iter().chain(i.guard.map(|g| g.pred)).chain(match i.op {
                Op::Sel(p) => Some(p),
                _ => None,
            })
        })
        .map(|p| usize::from(p.0) + 1)
        .max()
        .unwrap_or(0)
}

/// Interval clamps for [`Flow::solve`]: before an edge state meets into
/// block `b`, register `r`'s constant interval is intersected with
/// `clamps[(b, r)]` whenever the coefficients agree. Clamps carry facts
/// the interval fixpoint cannot represent by itself — e.g. trip-bounded
/// loop accumulators ([`crate::trip::induction_clamps`]) — and recover
/// finite ranges the back-edge widening destroyed. An unsound clamp yields
/// unsound states; callers own the proof obligation.
pub type Clamps = BTreeMap<(usize, usize), Affine>;

/// The affine-interval dataflow of one kernel, solved once: the per-block
/// **in**-states, the divergent-region flags, the [`GridCtx`] they were
/// solved under and the kernel/CFG they describe.
///
/// `divergent[b]` is true when block `b` lies on a leg of some branch
/// whose predicate is not provably one shared value (before the branch's
/// join, [`crate::Branch`]): writes there reach only the active threads, so they
/// lose the shared-constant bit and predicate redefinitions degrade like
/// non-uniform guards. [`Flow::replay_block`] is the only place an
/// instruction's transfer runs — the solver's own sweeps included — so
/// every reader sees exactly the values the fixpoint computed, under its
/// context and its divergence flags.
pub struct Flow<'a> {
    kernel: &'a Kernel,
    cfg: &'a Cfg,
    ctx: GridCtx<'a>,
    in_states: Vec<FlowState>,
    divergent: Vec<bool>,
}

impl<'a> Flow<'a> {
    /// Runs the dataflow to a fixed point. `entry_zeroed` selects
    /// [`FlowState::entry`]'s register initialization. Branch edges of
    /// two-way guarded branches are refined per `refine_edge` and clamped
    /// per [`Clamps`]; widening starts after [`MAX_PRECISE_SWEEPS`].
    #[must_use]
    pub fn solve(
        kernel: &'a Kernel,
        cfg: &'a Cfg,
        ctx: GridCtx<'a>,
        entry_zeroed: bool,
        clamps: &Clamps,
    ) -> Flow<'a> {
        let (nregs, npreds) = (usize::from(kernel.num_regs), num_preds(&kernel.instrs));
        let nb = cfg.blocks.len();
        let mut flow = Flow {
            kernel,
            cfg,
            ctx,
            in_states: (0..nb).map(|_| FlowState::unreachable(nregs, npreds)).collect(),
            // Taint is monotone: a branch once seen divergent stays
            // divergent (its predicate can only descend the lattice), so
            // regions only grow.
            divergent: vec![false; nb],
        };
        flow.in_states[0] = FlowState::entry(nregs, npreds, entry_zeroed);
        // Scratch for a block's out-state and for one edge's state,
        // reused across blocks and sweeps.
        let (mut st, mut out) = (FlowState::empty(), FlowState::empty());
        for sweep in 0.. {
            let widen = sweep >= MAX_PRECISE_SWEEPS;
            let mut changed = false;
            for &b in &cfg.rpo {
                if !flow.in_states[b].reachable {
                    continue;
                }
                flow.replay_block_into(b, &mut st, |_, _, _| {});
                let branch = cfg.branch(b);
                let branch_guard = branch.and_then(|br| kernel.instrs[br.pc].guard);
                if let (Some(br), Some(g)) = (branch, branch_guard) {
                    let pv = st.preds[usize::from(g.pred.0)];
                    // Top (never defined) is the zero-initialized register:
                    // uniformly false, not divergent.
                    if !matches!(pv, PredVal::Top) && !pv.is_tb_uniform() {
                        for (x, d) in flow.divergent.iter_mut().enumerate() {
                            if br.in_region(x) && !*d {
                                *d = true;
                                changed = true;
                            }
                        }
                    }
                }
                for (i, &succ) in cfg.blocks[b].succs.iter().enumerate() {
                    out.clone_from(&st);
                    if let Some(g) = branch_guard {
                        // succs[0] is the taken edge: the guard accepted.
                        let polarity = if i == 0 { !g.negate } else { g.negate };
                        let pv = out.preds[usize::from(g.pred.0)];
                        refine_edge(&mut out, pv, polarity);
                    }
                    // Clamping the *edge* state (not the met in-state) keeps
                    // the fixpoint monotone: the meet of clamped edges is
                    // itself within the clamp, so it cannot re-grow.
                    for (&(_, reg), cl) in clamps.range((succ, 0)..=(succ, usize::MAX)) {
                        if let AffineVal::Aff(f) = out.regs[reg] {
                            if f.a == cl.a && f.b == cl.b && f.d == cl.d && f.e == cl.e {
                                let (lo, hi) = (f.lo.max(cl.lo), f.hi.min(cl.hi));
                                if lo <= hi {
                                    out.regs[reg] = AffineVal::Aff(Affine { lo, hi, ..f });
                                }
                            }
                        }
                    }
                    changed |= flow.in_states[succ].meet_with(&out, widen);
                }
            }
            if !changed {
                break;
            }
        }
        flow
    }

    /// The kernel this flow describes.
    #[must_use]
    pub fn kernel(&self) -> &'a Kernel {
        self.kernel
    }

    /// The CFG this flow describes.
    #[must_use]
    pub fn cfg(&self) -> &'a Cfg {
        self.cfg
    }

    /// The value `instr` computes from `st` under the flow's context,
    /// before any guard or divergence merge with the old destination.
    #[must_use]
    pub fn value_of(&self, st: &FlowState, instr: &Instruction) -> AffineVal {
        value_of(st, instr, self.ctx)
    }

    /// Replays block `b`'s body from its in-state and returns its
    /// out-state. `visit(pc, st, wrote)` sees every instruction's pc, the
    /// state just before it, and the value it writes to its general
    /// destination (`None` when it has none). An unreachable block runs
    /// nothing and returns its unreachable in-state.
    pub fn replay_block(
        &self,
        b: usize,
        visit: impl FnMut(usize, &FlowState, Option<AffineVal>),
    ) -> FlowState {
        let mut st = FlowState::empty();
        self.replay_block_into(b, &mut st, visit);
        st
    }

    /// [`Flow::replay_block`] into `st`, whose previous contents are
    /// overwritten and whose vectors are reused.
    pub(crate) fn replay_block_into(
        &self,
        b: usize,
        st: &mut FlowState,
        mut visit: impl FnMut(usize, &FlowState, Option<AffineVal>),
    ) {
        st.clone_from(&self.in_states[b]);
        if st.reachable {
            for pc in self.cfg.blocks[b].range() {
                self.transfer(st, pc, self.divergent[b], &mut visit);
            }
        }
    }

    /// [`Flow::replay_block`] over every reachable block, in reverse
    /// post-order.
    pub fn replay(&self, mut visit: impl FnMut(usize, &FlowState, Option<AffineVal>)) {
        let mut st = FlowState::empty();
        for &b in &self.cfg.rpo {
            if self.in_states[b].reachable {
                self.replay_block_into(b, &mut st, &mut visit);
            }
        }
    }

    /// Applies instruction `pc` to `st`, knowing whether it sits inside a
    /// divergent region, after showing `visit` the state before it and
    /// the value it writes. Both the predicate and the register effect
    /// read the state before the instruction.
    fn transfer(
        &self,
        st: &mut FlowState,
        pc: usize,
        divergent: bool,
        visit: &mut impl FnMut(usize, &FlowState, Option<AffineVal>),
    ) {
        let instr = &self.kernel.instrs[pc];
        let guard_pred = instr.guard.map(|g| st.preds[usize::from(g.pred.0)]);
        // True when every thread of the instance takes the write together:
        // no guard outside a divergent region, or a guard whose truth is
        // one shared value.
        let write_is_total = !divergent && guard_pred.is_none_or(PredVal::is_tb_uniform);
        let pred = instr.pdst.map(|p| {
            let new = match instr.op {
                Op::Setp(cmp) => PredVal::Cmp {
                    cmp,
                    lhs: resolve(st, instr.srcs[0]),
                    rhs: resolve(st, instr.srcs[1]),
                    lhs_reg: match instr.srcs[0] {
                        Operand::Reg(r) => Some(r),
                        Operand::Imm(_) => None,
                    },
                },
                _ => PredVal::Unknown,
            };
            let old = st.preds[usize::from(p.0)];
            // A guarded or divergent-region setp mixes old and new bits;
            // predicates have no hull, so anything but a redefinition
            // whose per-thread truth is unchanged (identical snapshot of
            // exact operands) degrades.
            let kept = (instr.guard.is_none() && !divergent) || (old == new && new.is_determined());
            (p, if kept { new } else { PredVal::Unknown })
        });
        let wrote = instr.dst.map(|d| {
            let v = value_of(st, instr, self.ctx);
            let old = match st.regs[usize::from(d.0)] {
                AffineVal::Top => AffineVal::Unknown,
                o => o,
            };
            // A guarded write selects, per thread, the new value where
            // the guard holds and the old one elsewhere.
            let merged = guard_pred.map_or(v, |g| AffineVal::select(g.value(), v, old));
            // A partial write leaves inactive threads holding other
            // values; the envelope survives but the shared-constant claim
            // does not.
            if write_is_total {
                merged
            } else {
                merged.non_uniform()
            }
        });
        visit(pc, st, wrote);
        if let Some((p, v)) = pred {
            st.preds[usize::from(p.0)] = v;
        }
        if let (Some(d), Some(v)) = (instr.dst, wrote) {
            st.regs[usize::from(d.0)] = v;
            // The compared register changed: branch edges can no longer
            // refine it through predicates captured before this write.
            for p in &mut st.preds {
                if let PredVal::Cmp { lhs_reg, .. } = p {
                    if *lhs_reg == Some(d) {
                        *lhs_reg = None;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{Dim3, Value};

    fn aff(a: i64, b: i64, lo: i64, hi: i64) -> AffineVal {
        AffineVal::Aff(Affine { a, b, d: 0, e: 0, lo, hi, uniform: true })
    }

    fn baff(d: i64, e: i64, lo: i64, hi: i64) -> AffineVal {
        AffineVal::Aff(Affine { a: 0, b: 0, d, e, lo, hi, uniform: true })
    }

    #[test]
    fn specials_map_to_affine_axes() {
        let g = GridCtx::generic(1);
        assert_eq!(AffineVal::of_special(SpecialReg::TidX, g), aff(1, 0, 0, 0));
        assert_eq!(AffineVal::of_special(SpecialReg::TidY, g), aff(0, 1, 0, 0));
        assert_eq!(AffineVal::of_special(SpecialReg::TidZ, g), AffineVal::constant(0));
        assert_eq!(
            AffineVal::of_special(SpecialReg::TidZ, GridCtx::generic(4)),
            AffineVal::Unknown
        );
        // Generic mode keeps the legacy TB-uniform opaque for the block
        // axes; the first-class block terms need a concrete launch.
        assert_eq!(AffineVal::of_special(SpecialReg::CtaidX, g), AffineVal::uniform_unknown());
        assert_eq!(AffineVal::of_special(SpecialReg::CtaidY, g), AffineVal::uniform_unknown());
        assert!(AffineVal::of_special(SpecialReg::CtaidX, g).is_uniform());
        assert!(AffineVal::of_special(SpecialReg::CtaidX, g).is_tb_uniform());
        assert_eq!(AffineVal::of_special(SpecialReg::LaneId, g), AffineVal::Unknown);
    }

    #[test]
    fn launch_ctx_resolves_dimensions_and_pins_flat_axes() {
        let launch = LaunchConfig::new(Dim3::two_d(8, 1), Dim3::two_d(16, 4));
        let ctx = GridCtx::launch(&launch);
        assert_eq!(AffineVal::of_special(SpecialReg::NtidX, ctx), AffineVal::constant(16));
        assert_eq!(AffineVal::of_special(SpecialReg::NtidY, ctx), AffineVal::constant(4));
        assert_eq!(AffineVal::of_special(SpecialReg::NctaidX, ctx), AffineVal::constant(8));
        assert_eq!(AffineVal::of_special(SpecialReg::CtaidX, ctx), baff(1, 0, 0, 0));
        // One-wide grid dimensions pin the coordinate exactly.
        assert_eq!(AffineVal::of_special(SpecialReg::CtaidY, ctx), AffineVal::constant(0));
        assert_eq!(AffineVal::of_special(SpecialReg::CtaidZ, ctx), AffineVal::constant(0));
    }

    #[test]
    fn launch_ctx_resolves_constant_param_loads() {
        use simt_isa::KernelBuilder;
        let mut b = KernelBuilder::new("p");
        let x = b.param(1);
        let t = b.special(SpecialReg::TidX);
        let y = b.iadd(x, t);
        let _ = y;
        let k = b.finish();
        let cfg = Cfg::build(&k);
        let launch =
            LaunchConfig::new(1u32, Dim3::one_d(32)).with_params(vec![Value(7), Value(4096)]);
        let wrote = |ctx| {
            let mut wrote = Vec::new();
            Flow::solve(&k, &cfg, ctx, true, &Clamps::new())
                .replay_block(0, |_, _, v| wrote.push(v));
            wrote
        };
        let wrote_launch = wrote(GridCtx::launch(&launch));
        assert_eq!(wrote_launch[0], Some(AffineVal::constant(4096)));
        assert_eq!(wrote_launch[2], Some(aff(1, 0, 4096, 4096)));
        // Generic mode keeps the parameter opaque but TB-uniform.
        assert_eq!(wrote(GridCtx::generic(1))[0], Some(AffineVal::uniform_unknown()));
    }

    #[test]
    fn min_max_of_words_beyond_i32_take_the_hull() {
        // `imax` compares i32 words: 2^40 is the word 0, so the max is 5
        // (found by the random-program properties).
        let k = AffineVal::constant;
        let v = AffineVal::alu(Op::IMax, [k(1 << 40), k(5), k(0)], GridCtx::generic(1));
        let f = v.affine().expect("a hull of two constants");
        assert!(f.lo <= 5 && 5 <= f.hi && f.is_tb_uniform(), "{v:?}");
    }

    #[test]
    fn affine_arithmetic_tracks_coefficients() {
        let tx = aff(1, 0, 0, 0);
        let four_tx = tx << AffineVal::constant(2);
        assert_eq!(four_tx, aff(4, 0, 0, 0));
        let addr = four_tx + AffineVal::constant(128);
        assert_eq!(addr, aff(4, 0, 128, 128));
        let scaled = tx * AffineVal::constant(12) + aff(0, 1, 0, 0) * AffineVal::constant(3);
        assert_eq!(scaled, aff(12, 3, 0, 0));
        assert_eq!(tx * tx, AffineVal::Unknown, "tx*tx is not affine");
        assert_eq!(tx - AffineVal::constant(4), aff(1, 0, -4, -4));
    }

    #[test]
    fn block_terms_flow_through_arithmetic() {
        let cx = baff(1, 0, 0, 0);
        let tx = aff(1, 0, 0, 0);
        // ctaid.x * 64 + tid.x: the canonical global linear index.
        let lin = cx * AffineVal::constant(64) + tx;
        assert_eq!(
            lin,
            AffineVal::Aff(Affine { a: 1, b: 0, d: 64, e: 0, lo: 0, hi: 0, uniform: true })
        );
        let byte = lin << AffineVal::constant(2);
        assert_eq!(
            byte,
            AffineVal::Aff(Affine { a: 4, b: 0, d: 256, e: 0, lo: 0, hi: 0, uniform: true })
        );
        // A block-term "constant" must not act as a scale factor.
        let blocky = baff(1, 0, 3, 3);
        assert!(blocky.as_const().is_none());
        assert_eq!(blocky * tx, AffineVal::Unknown, "block-term scale is not affine");
        // uniform * uniform with block terms widens instead of treating
        // the interval as the value.
        let u = AffineVal::uniform_unknown();
        let w = blocky * u;
        assert_eq!(w, AffineVal::uniform_unknown());
    }

    #[test]
    fn eval_and_range_respect_block_terms() {
        let f = Affine { a: 4, b: 0, d: 256, e: 0, lo: 0, hi: 0, uniform: true };
        assert_eq!(f.eval(3, 0), None, "block terms need block coordinates");
        assert_eq!(f.eval_at(3, 0, 2, 0), Some(4 * 3 + 256 * 2));
        assert_eq!(f.range(16, 1), (NEG_INF, POS_INF));
        assert_eq!(f.range_over(16, 1, 4, 1), (0, 4 * 15 + 256 * 3));
        assert_eq!(f.drop_block_terms().range(16, 1), (0, 60));
    }

    #[test]
    fn meet_hulls_matching_coefficients() {
        let x = aff(4, 0, 0, 0);
        let y = aff(4, 0, 32, 96);
        assert_eq!(x.meet(y, false), aff(4, 0, 0, 96));
        assert_eq!(x.meet(y, true), aff(4, 0, 0, POS_INF), "widening jumps to infinity");
        assert_eq!(x.meet(aff(8, 0, 0, 0), false), AffineVal::Unknown);
        assert_eq!(x.meet(baff(4, 0, 0, 0), false), AffineVal::Unknown, "block axis differs");
        assert_eq!(baff(2, 0, 0, 0).meet(baff(2, 0, 5, 9), false), baff(2, 0, 0, 9));
        assert_eq!(AffineVal::Top.meet(x, false), x);
        assert_eq!(x.meet(AffineVal::Unknown, false), AffineVal::Unknown);
    }

    #[test]
    fn range_spans_threads_and_interval() {
        let f = Affine { a: 4, b: 64, d: 0, e: 0, lo: 8, hi: 12, uniform: true };
        // tx in [0,16), ty in [0,4): 4*15 + 64*3 + 12 = 264.
        assert_eq!(f.range(16, 4), (8, 264));
        let g = Affine { a: -4, b: 0, d: 0, e: 0, lo: 0, hi: 0, uniform: true };
        assert_eq!(g.range(8, 1), (-28, 0));
    }

    #[test]
    fn opaque_preserves_uniformity_only() {
        assert!(
            AffineVal::opaque([AffineVal::constant(3), AffineVal::uniform_unknown()]).is_uniform()
        );
        assert_eq!(
            AffineVal::opaque([AffineVal::constant(3), aff(1, 0, 0, 0)]),
            AffineVal::Unknown
        );
    }

    #[test]
    fn eval_requires_exact_constant() {
        let f = Affine { a: 4, b: 32, d: 0, e: 0, lo: 8, hi: 8, uniform: true };
        assert_eq!(f.eval(3, 2), Some(4 * 3 + 32 * 2 + 8));
        assert_eq!(Affine { a: 1, b: 0, d: 0, e: 0, lo: 0, hi: 4, uniform: true }.eval(1, 0), None);
    }

    #[test]
    fn family_mode_specials_cover_every_member_launch() {
        use simt_isa::{LaunchConfig, LaunchFamily, Value};
        let reference = LaunchConfig::new((8u32, 1u32), (64u32, 1u32)).with_params(vec![Value(7)]);
        let fam = LaunchFamily::grids_up_to(&reference);
        let ctx = GridCtx::family(&fam, &reference);

        // nctaid.x hulls the whole axis range as a TB-uniform interval.
        let n = AffineVal::of_special(SpecialReg::NctaidX, ctx);
        assert_eq!(n, AffineVal::uniform_interval(1, 8));
        // The block shape is fixed in the region, so ntid.x stays exact.
        assert_eq!(AffineVal::of_special(SpecialReg::NtidX, ctx), AffineVal::constant(64));
        // ctaid.x keeps its block coefficient (the region is multi-block);
        // the one-wide y axis pins ctaid.y.
        assert_eq!(
            AffineVal::of_special(SpecialReg::CtaidX, ctx)
                .affine()
                .map(|f| (f.a, f.b, f.d, f.e, f.lo, f.hi)),
            Some((0, 0, 1, 0, 0, 0))
        );
        assert_eq!(AffineVal::of_special(SpecialReg::CtaidY, ctx), AffineVal::constant(0));
        // Every family interval contains the concrete value under every
        // member launch of the region.
        for gx in 1..=8u32 {
            let member = LaunchConfig::new((gx, 1u32), (64u32, 1u32));
            let exact = AffineVal::of_special(SpecialReg::NctaidX, GridCtx::launch(&member));
            let v = exact.as_const().expect("concrete nctaid is exact");
            let hull = n.affine().expect("family nctaid is affine");
            assert!(hull.lo <= v && v <= hull.hi);
        }
    }

    #[test]
    fn family_hull_dims_use_the_upper_corner() {
        use simt_isa::{LaunchConfig, LaunchFamily};
        let reference = LaunchConfig::new((4u32, 3u32), (16u32, 16u32));
        let fam = LaunchFamily::grids_up_to(&reference);
        let ctx = GridCtx::family(&fam, &reference);
        assert_eq!(ctx.hull_dims(), Some((16, 16, 4, 3)));
        let small = LaunchConfig::new((2u32, 1u32), (16u32, 16u32));
        assert_eq!(GridCtx::launch(&small).hull_dims(), Some((16, 16, 2, 1)));
        assert_eq!(GridCtx::generic(1).hull_dims(), None);
    }
}
