//! Parity of the allocation-free warp-access helpers with their original
//! formulations. The cycle simulator and `simt_verify::perf`'s static
//! predictions share `coalesce_lines` and `smem_conflict_degree`, so both
//! must keep computing exactly what the `HashMap` and sort+dedup versions
//! did.

use gpu_sim::mem::{coalesce_lines, smem_conflict_degree};
use gpu_sim::GpuConfig;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
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
/// `arms` counts the three kinds drawn.
fn lane(rng: &mut SmallRng, arms: &mut [u32; 3]) -> u64 {
    let arm = rng.gen_range(0..3usize);
    arms[arm] += 1;
    match arm {
        0 => {
            let (bank, row, byte) =
                (rng.gen_range(0..4u64), rng.gen_range(0..4u64), rng.gen_range(0..4u64));
            4 * (bank + 32 * row) + byte
        }
        1 => 4 * rng.gen_range(0..64u64),
        _ => u64::from(rng.next_u32()),
    }
}

fn lanes(rng: &mut SmallRng, arms: &mut [u32; 3]) -> Vec<u64> {
    (0..rng.gen_range(1..=32)).map(|_| lane(rng, arms)).collect()
}

#[test]
fn warp_access_helpers_match_their_oracles() {
    let mut arms = [0; 3];
    for case in 0..512 {
        let mut rng = SmallRng::seed_from_u64(case);
        let base = rng.next_u32();
        let lanes = lanes(&mut rng, &mut arms);
        let addrs: Vec<u64> = lanes.iter().map(|&a| u64::from(base) * 4 + a).collect();
        let lines = coalesce_lines(addrs.iter().copied()).to_vec();
        assert_eq!(lines, oracle_lines(&addrs), "case {case}");
        let degree = smem_conflict_degree(addrs.iter().copied());
        assert_eq!(degree, oracle_degree(&addrs), "case {case}");
    }
    assert!(!arms.contains(&0), "a lane kind was never drawn: {arms:?}");
}

/// The lemma `simt_verify::perf` evaluates bank conflicts by: shifting
/// every lane by `k` whole words rotates the banks by `k`, so the
/// degree is unchanged.
#[test]
fn a_whole_word_shift_keeps_the_conflict_degree() {
    let mut arms = [0; 3];
    for case in 0..512 {
        let mut rng = SmallRng::seed_from_u64(case);
        let k = rng.gen_range(0u64..(1 << 20));
        let lanes = lanes(&mut rng, &mut arms);
        let shifted = lanes.iter().map(|&a| a + 4 * k);
        let degree = smem_conflict_degree(lanes.iter().copied());
        assert_eq!(smem_conflict_degree(shifted), degree, "case {case}");
    }
    assert!(!arms.contains(&0), "a lane kind was never drawn: {arms:?}");
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
