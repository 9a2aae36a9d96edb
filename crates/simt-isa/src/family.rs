//! Launch families: first-class regions of launch configurations.
//!
//! A [`LaunchFamily`] describes a *set* of launches — a range (with
//! stride) per grid/block axis — so analyses can certify a kernel once
//! for every launch in the region instead of re-running per concrete
//! [`LaunchConfig`]. Kernel parameters are *not* part of the region: a
//! family instance copies its parameter words and warp size from a
//! reference launch, so the quantification is purely geometric.
//! Grid depth is pinned to `z = 1` (the analyses' block language is 2D).

use crate::kernel::LaunchConfig;
use crate::value::Dim3;
use std::fmt;

/// An inclusive strided range `{lo, lo+step, ..., hi}` over one launch
/// axis. `hi` must be reachable from `lo` in whole steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AxisRange {
    /// Smallest admitted extent (≥ 1).
    pub lo: u32,
    /// Largest admitted extent (≥ `lo`).
    pub hi: u32,
    /// Stride between admitted extents (≥ 1).
    pub step: u32,
}

impl AxisRange {
    /// The single-point range `{v}`.
    #[must_use]
    pub fn fixed(v: u32) -> AxisRange {
        AxisRange { lo: v, hi: v, step: 1 }
    }

    /// The dense range `{lo, lo+1, ..., hi}`.
    #[must_use]
    pub fn new(lo: u32, hi: u32) -> AxisRange {
        AxisRange { lo, hi, step: 1 }
    }

    /// The strided range `{lo, lo+step, ..., hi}`.
    #[must_use]
    pub fn strided(lo: u32, hi: u32, step: u32) -> AxisRange {
        AxisRange { lo, hi, step }
    }

    /// True when the range admits exactly one extent.
    #[must_use]
    pub fn is_fixed(&self) -> bool {
        self.lo == self.hi
    }

    /// Number of admitted extents.
    #[must_use]
    pub fn count(&self) -> u64 {
        u64::from((self.hi - self.lo) / self.step.max(1)) + 1
    }

    /// True when `v` is one of the admitted extents.
    #[must_use]
    pub fn contains(&self, v: u32) -> bool {
        v >= self.lo && v <= self.hi && (v - self.lo).is_multiple_of(self.step.max(1))
    }

    /// The admitted extents, smallest first.
    pub fn values(&self) -> impl Iterator<Item = u32> + '_ {
        (self.lo..=self.hi).step_by(self.step.max(1) as usize).filter(|&v| self.contains(v))
    }

    /// The smallest admitted extent ≥ `v`, if any.
    #[must_use]
    pub fn round_up(&self, v: u32) -> Option<u32> {
        if v <= self.lo {
            return Some(self.lo);
        }
        if v > self.hi {
            return None;
        }
        let over = (v - self.lo) % self.step.max(1);
        let up = if over == 0 { v } else { v + (self.step.max(1) - over) };
        (up <= self.hi).then_some(up)
    }

    /// True when every extent of `self` is also an extent of `other`.
    #[must_use]
    pub fn is_subrange_of(&self, other: &AxisRange) -> bool {
        self.values().all(|v| other.contains(v))
    }

    fn endpoints(&self) -> impl Iterator<Item = u32> + '_ {
        let hi = (self.hi != self.lo).then_some(self.hi);
        std::iter::once(self.lo).chain(hi)
    }
}

impl fmt::Display for AxisRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_fixed() {
            write!(f, "{}", self.lo)
        } else if self.step == 1 {
            write!(f, "[{}..{}]", self.lo, self.hi)
        } else {
            write!(f, "[{}..{}:{}]", self.lo, self.hi, self.step)
        }
    }
}

/// A malformed [`LaunchFamily`] axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FamilyError {
    /// An axis admits extent zero (`lo == 0`).
    ZeroExtent {
        /// The offending axis name.
        axis: &'static str,
    },
    /// An axis has `lo > hi`.
    EmptyRange {
        /// The offending axis name.
        axis: &'static str,
    },
    /// An axis has stride zero.
    ZeroStep {
        /// The offending axis name.
        axis: &'static str,
    },
    /// `hi` is not reachable from `lo` in whole steps.
    MisalignedHi {
        /// The offending axis name.
        axis: &'static str,
    },
}

impl fmt::Display for FamilyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FamilyError::ZeroExtent { axis } => write!(f, "axis {axis}: extent 0 is not a launch"),
            FamilyError::EmptyRange { axis } => write!(f, "axis {axis}: lo > hi (empty range)"),
            FamilyError::ZeroStep { axis } => write!(f, "axis {axis}: step must be >= 1"),
            FamilyError::MisalignedHi { axis } => {
                write!(f, "axis {axis}: hi is not lo + k*step for any whole k")
            }
        }
    }
}

impl std::error::Error for FamilyError {}

/// A region of launch configurations: one [`AxisRange`] per grid/block
/// axis (grid depth pinned to 1). Declared per catalog entry so one
/// certificate covers an entire grid/block sweep.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LaunchFamily {
    /// Admitted `gridDim.x` extents.
    pub grid_x: AxisRange,
    /// Admitted `gridDim.y` extents.
    pub grid_y: AxisRange,
    /// Admitted `blockDim.x` extents.
    pub block_x: AxisRange,
    /// Admitted `blockDim.y` extents.
    pub block_y: AxisRange,
    /// Admitted `blockDim.z` extents.
    pub block_z: AxisRange,
}

impl LaunchFamily {
    /// The singleton family containing exactly `launch`'s geometry.
    #[must_use]
    pub fn point(launch: &LaunchConfig) -> LaunchFamily {
        LaunchFamily {
            grid_x: AxisRange::fixed(launch.grid.x.max(1)),
            grid_y: AxisRange::fixed(launch.grid.y.max(1)),
            block_x: AxisRange::fixed(launch.block.x.max(1)),
            block_y: AxisRange::fixed(launch.block.y.max(1)),
            block_z: AxisRange::fixed(launch.block.z.max(1)),
        }
    }

    /// The family of every grid `1..=launch.grid` (axis-wise) at
    /// `launch`'s exact block shape — the natural declaration for a
    /// catalog entry whose parameters size buffers for its own grid.
    #[must_use]
    pub fn grids_up_to(launch: &LaunchConfig) -> LaunchFamily {
        LaunchFamily {
            grid_x: AxisRange::new(1, launch.grid.x.max(1)),
            grid_y: AxisRange::new(1, launch.grid.y.max(1)),
            ..LaunchFamily::point(launch)
        }
    }

    /// Validates every axis (non-zero extents, non-empty ranges,
    /// reachable `hi`).
    ///
    /// # Errors
    ///
    /// Returns the first malformed axis found.
    pub fn validate(&self) -> Result<(), FamilyError> {
        for (axis, r) in self.axes() {
            if r.lo == 0 {
                return Err(FamilyError::ZeroExtent { axis });
            }
            if r.lo > r.hi {
                return Err(FamilyError::EmptyRange { axis });
            }
            if r.step == 0 {
                return Err(FamilyError::ZeroStep { axis });
            }
            if (r.hi - r.lo) % r.step != 0 {
                return Err(FamilyError::MisalignedHi { axis });
            }
        }
        Ok(())
    }

    /// The five axes, with their names (declaration order).
    #[must_use]
    pub fn axes(&self) -> [(&'static str, AxisRange); 5] {
        [
            ("gridDim.x", self.grid_x),
            ("gridDim.y", self.grid_y),
            ("blockDim.x", self.block_x),
            ("blockDim.y", self.block_y),
            ("blockDim.z", self.block_z),
        ]
    }

    /// True when `launch`'s geometry lies in the region (grid depth must
    /// be 1; parameters and warp size are not part of the region).
    #[must_use]
    pub fn contains(&self, launch: &LaunchConfig) -> bool {
        launch.grid.z == 1
            && self.grid_x.contains(launch.grid.x)
            && self.grid_y.contains(launch.grid.y)
            && self.block_x.contains(launch.block.x)
            && self.block_y.contains(launch.block.y)
            && self.block_z.contains(launch.block.z)
    }

    /// Total number of launches in the region.
    #[must_use]
    pub fn member_count(&self) -> u128 {
        self.axes().iter().map(|(_, r)| u128::from(r.count())).product()
    }

    /// True when every launch of `self` is also a launch of `other`.
    #[must_use]
    pub fn is_subregion_of(&self, other: &LaunchFamily) -> bool {
        let [sg_x, sg_y, sb_x, sb_y, sb_z] = self.axes().map(|(_, r)| r);
        let [og_x, og_y, ob_x, ob_y, ob_z] = other.axes().map(|(_, r)| r);
        sg_x.is_subrange_of(&og_x)
            && sg_y.is_subrange_of(&og_y)
            && sb_x.is_subrange_of(&ob_x)
            && sb_y.is_subrange_of(&ob_y)
            && sb_z.is_subrange_of(&ob_z)
    }

    /// A member launch: the given geometry with parameter words and warp
    /// size copied from `reference`.
    #[must_use]
    pub fn instantiate(
        &self,
        gx: u32,
        gy: u32,
        bx: u32,
        by: u32,
        bz: u32,
        reference: &LaunchConfig,
    ) -> LaunchConfig {
        LaunchConfig {
            grid: Dim3::two_d(gx, gy),
            block: Dim3::three_d(bx, by, bz),
            params: reference.params.clone(),
            warp_size: reference.warp_size,
        }
    }

    /// The region's upper corner (every axis at `hi`).
    #[must_use]
    pub fn hi_corner(&self, reference: &LaunchConfig) -> LaunchConfig {
        self.instantiate(
            self.grid_x.hi,
            self.grid_y.hi,
            self.block_x.hi,
            self.block_y.hi,
            self.block_z.hi,
            reference,
        )
    }

    /// Every distinct region corner (each axis at `lo` or `hi`;
    /// single-point axes contribute one endpoint, so a fully fixed
    /// region has exactly one corner).
    #[must_use]
    pub fn corners(&self, reference: &LaunchConfig) -> Vec<LaunchConfig> {
        let mut out = Vec::new();
        for gx in self.grid_x.endpoints() {
            for gy in self.grid_y.endpoints() {
                for bx in self.block_x.endpoints() {
                    for by in self.block_y.endpoints() {
                        for bz in self.block_z.endpoints() {
                            out.push(self.instantiate(gx, gy, bx, by, bz, reference));
                        }
                    }
                }
            }
        }
        out
    }

    /// `n` draws, possibly repeated, of deterministic member launches (a
    /// fixed-seed splitmix64 draw per axis, with replacement), always
    /// including the lower and upper corners when `n >= 2`. Deterministic
    /// across runs and platforms.
    #[must_use]
    pub fn sample(&self, seed: u64, n: usize, reference: &LaunchConfig) -> Vec<LaunchConfig> {
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut draw = |r: &AxisRange| {
            // splitmix64 step: well-distributed and dependency-free.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let idx = z % r.count();
            #[allow(clippy::cast_possible_truncation)]
            let v = r.lo + (idx as u32) * r.step;
            v
        };
        let mut out = Vec::with_capacity(n);
        if n >= 1 {
            out.push(self.instantiate(
                self.grid_x.lo,
                self.grid_y.lo,
                self.block_x.lo,
                self.block_y.lo,
                self.block_z.lo,
                reference,
            ));
        }
        if n >= 2 {
            out.push(self.hi_corner(reference));
        }
        while out.len() < n {
            let (gx, gy) = (draw(&self.grid_x), draw(&self.grid_y));
            let (bx, by, bz) = (draw(&self.block_x), draw(&self.block_y), draw(&self.block_z));
            out.push(self.instantiate(gx, gy, bx, by, bz, reference));
        }
        out
    }
}

impl fmt::Display for LaunchFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "grid ({} x {}) block ({},{},{})",
            self.grid_x, self.grid_y, self.block_x, self.block_y, self.block_z
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_values_and_contains_agree() {
        let r = AxisRange::strided(2, 14, 4);
        assert_eq!(r.values().collect::<Vec<_>>(), [2, 6, 10, 14]);
        assert_eq!(r.count(), 4);
        for v in 0..20 {
            assert_eq!(r.contains(v), [2, 6, 10, 14].contains(&v), "v={v}");
        }
        assert_eq!(r.round_up(3), Some(6));
        assert_eq!(r.round_up(6), Some(6));
        assert_eq!(r.round_up(1), Some(2));
        assert_eq!(r.round_up(15), None);
    }

    #[test]
    fn validation_rejects_malformed_axes() {
        let l = LaunchConfig::new(4u32, 64u32);
        let good = LaunchFamily::grids_up_to(&l);
        assert_eq!(good.validate(), Ok(()));
        let mut bad = good.clone();
        bad.grid_x = AxisRange { lo: 0, hi: 4, step: 1 };
        assert_eq!(bad.validate(), Err(FamilyError::ZeroExtent { axis: "gridDim.x" }));
        bad.grid_x = AxisRange { lo: 5, hi: 4, step: 1 };
        assert_eq!(bad.validate(), Err(FamilyError::EmptyRange { axis: "gridDim.x" }));
        bad.grid_x = AxisRange { lo: 1, hi: 4, step: 0 };
        assert_eq!(bad.validate(), Err(FamilyError::ZeroStep { axis: "gridDim.x" }));
        bad.grid_x = AxisRange { lo: 1, hi: 4, step: 2 };
        assert_eq!(bad.validate(), Err(FamilyError::MisalignedHi { axis: "gridDim.x" }));
    }

    #[test]
    fn membership_and_corners() {
        let l = LaunchConfig::new((4u32, 3u32), (16u32, 16u32));
        let fam = LaunchFamily::grids_up_to(&l);
        assert!(fam.contains(&l));
        assert!(fam.contains(&LaunchConfig::new((1u32, 1u32), (16u32, 16u32))));
        assert!(!fam.contains(&LaunchConfig::new((5u32, 1u32), (16u32, 16u32))));
        assert!(!fam.contains(&LaunchConfig::new((4u32, 3u32), (16u32, 8u32))));
        assert_eq!(fam.member_count(), 12);
        // Two varying axes -> four corners; block axes are fixed.
        assert_eq!(fam.corners(&l).len(), 4);
        let hi = fam.hi_corner(&l);
        assert_eq!((hi.grid.x, hi.grid.y), (4, 3));
        assert_eq!(hi.block, l.block);
    }

    #[test]
    fn sampling_is_deterministic_and_in_region() {
        let l = LaunchConfig::new((8u32, 2u32), 128u32).with_params(vec![crate::Value(7)]);
        let fam = LaunchFamily::grids_up_to(&l);
        let a = fam.sample(42, 25, &l);
        let b = fam.sample(42, 25, &l);
        assert_eq!(a, b);
        assert_eq!(a.len(), 25);
        for s in &a {
            assert!(fam.contains(s), "sample {:?} escaped the region", s.grid);
            assert_eq!(s.params, l.params, "samples must inherit reference params");
        }
        // Lower and upper corners are always exercised.
        assert!(a.iter().any(|s| s.grid == Dim3::two_d(1, 1)));
        assert!(a.iter().any(|s| s.grid == Dim3::two_d(8, 2)));
    }

    #[test]
    fn subregion_respects_strides() {
        let l = LaunchConfig::new(16u32, 64u32);
        let big = LaunchFamily::grids_up_to(&l);
        let mut small = big.clone();
        small.grid_x = AxisRange::strided(2, 10, 4);
        assert!(small.is_subregion_of(&big));
        assert!(!big.is_subregion_of(&small));
        let mut off = big.clone();
        off.grid_x = AxisRange::new(1, 17);
        assert!(!off.is_subregion_of(&big));
    }
}
