//! A multiplicative hasher for the integer keys of the replay's hot maps
//! (page numbers, word indices, pcs), replacing SipHash where a map is
//! probed once per lane or per warp instruction.
//!
//! Its hashes are not randomized, so a map's iteration order is fixed by
//! its insertion history rather than by a per-process seed. That is still
//! no order to rely on: back only maps whose iteration order cannot reach
//! an output (never iterated, keys sorted before use, or folded per key).
//! Keys must come from the simulated program, not from outside input:
//! the hash gives no protection against crafted collisions.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx scheme: rotate, xor in the next word, multiply by an odd
/// constant.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A `HashMap` keyed through [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` keyed through [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;
