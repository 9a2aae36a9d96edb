//! Parity of the allocation-free warp-access helpers with their original
//! formulations. The cycle simulator and `simt_verify::perf`'s static
//! predictions share `coalesce_lines` and `smem_conflict_degree`, so both
//! must keep computing exactly what the `HashMap` and sort+dedup versions
//! did.

use gpu_sim::mem::{coalesce_lines, smem_conflict_degree};
use gpu_sim::GpuConfig;
use proptest::prelude::*;
use std::collections::HashMap;

/// Reference: distinct lines, sorted.
fn oracle_lines(addrs: &[u64]) -> Vec<u64> {
    let mut lines: Vec<u64> = addrs.iter().map(|a| a / GpuConfig::LINE_BYTES).collect();
    lines.sort_unstable();
    lines.dedup();
    lines
}

/// Reference: most distinct words on one of 32 four-byte banks.
fn oracle_degree(addrs: &[u64]) -> u32 {
    let mut per_bank: HashMap<u64, Vec<u64>> = HashMap::new();
    for &a in addrs {
        let word = a / 4;
        let v = per_bank.entry(word % 32).or_default();
        if !v.contains(&word) {
            v.push(word);
        }
    }
    per_bank.values().map(|v| v.len() as u32).max().unwrap_or(1).max(1)
}

/// One lane's byte address: mostly from a small pool (a few banks, a few
/// rows per bank, any byte within a word) so broadcasts, duplicate words
/// and bank collisions are common; sometimes anywhere in the address space.
fn arb_lane() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u64..4, 0u64..4, 0u64..4).prop_map(|(bank, row, byte)| 4 * (bank + 32 * row) + byte),
        (0u64..64).prop_map(|word| 4 * word),
        any::<u32>().prop_map(u64::from),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn warp_access_helpers_match_their_oracles(
        base in any::<u32>(),
        lanes in prop::collection::vec(arb_lane(), 1..=32),
    ) {
        let addrs: Vec<u64> = lanes.iter().map(|&a| u64::from(base) * 4 + a).collect();
        prop_assert_eq!(coalesce_lines(addrs.iter().copied()).to_vec(), oracle_lines(&addrs));
        prop_assert_eq!(smem_conflict_degree(addrs.iter().copied()), oracle_degree(&addrs));
    }

    /// The lemma `simt_verify::perf` evaluates bank conflicts by: shifting
    /// every lane by `k` whole words rotates the banks by `k`, so the
    /// degree is unchanged.
    #[test]
    fn a_whole_word_shift_keeps_the_conflict_degree(
        k in 0u64..(1 << 20),
        lanes in prop::collection::vec(arb_lane(), 1..=32),
    ) {
        let shifted = lanes.iter().map(|&a| a + 4 * k);
        prop_assert_eq!(smem_conflict_degree(shifted), smem_conflict_degree(lanes.iter().copied()));
    }
}

#[test]
fn helpers_match_their_oracles_on_classic_patterns() {
    let patterns: [Vec<u64>; 9] = [
        (0..32).map(|l| 4 * l).collect(),                 // unit stride
        vec![64; 32],                                     // broadcast
        (0..32).map(|l| 4 * 32 * l).collect(),            // one bank, 32 words
        (0..32).map(|l| 128 * l + 4 * (l % 3)).collect(), // line per lane
        (0..32).map(|l| 4 * (l % 2) * 33).collect(),      // two words, two banks
        // Same-bank words beyond a bank's first, each repeated: the
        // degree counts each once.
        (0..32).map(|l| 4 * 32 * (l % 5)).collect(),
        (0..32).map(|l| 4 * (3 + 32 * (l % 4) + 64 * (l / 16))).collect(),
        // A later word of one bank reappearing after other banks' words.
        (0..32).map(|l| if l % 2 == 0 { 4 * 32 * (l % 6) } else { 4 * l }).collect(),
        // The bank's first word repeated between its later words.
        (0..32).map(|l| if l % 3 == 0 { 8 } else { 8 + 4 * 32 * (l % 7) }).collect(),
    ];
    for addrs in &patterns {
        assert_eq!(coalesce_lines(addrs.iter().copied()).to_vec(), oracle_lines(addrs));
        assert_eq!(smem_conflict_degree(addrs.iter().copied()), oracle_degree(addrs));
    }
}

#[test]
#[should_panic(expected = "a warp access names at most 32 words")]
fn a_thirty_third_distinct_word_panics_even_on_an_empty_bank() {
    // 32 distinct words fill bank 0; the 33rd is bank 1's first.
    let _ = smem_conflict_degree((0..32).map(|l| 4 * 32 * l).chain([4]));
}
