//! Binary-format integration: every instruction of every Table-1 workload
//! kernel must survive a round trip through the 64-bit encoder (including
//! its two DARSIE marking bits) unchanged.

use simt_isa::{decode, encode, EncodeError, Marking};
use workloads::{catalog, Scale};

#[test]
fn workload_kernels_roundtrip_through_the_64bit_encoding() {
    let mut encoded = 0usize;
    let mut legalization_needed = 0usize;
    for w in catalog(Scale::Test) {
        for (pc, instr) in w.ck.kernel.instrs.iter().enumerate() {
            let marking = w.ck.markings[pc];
            match encode(instr, marking) {
                Ok(word) => {
                    let (decoded, m2) = decode(word)
                        .unwrap_or_else(|e| panic!("{} pc {pc}: decode failed: {e}", w.abbr));
                    assert_eq!(&decoded, instr, "{} pc {pc} word {word:#018x}", w.abbr);
                    assert_eq!(m2, marking, "{} pc {pc}: marking bits lost", w.abbr);
                    encoded += 1;
                }
                // Fixed-width ISAs cannot encode every immediate; such
                // instructions would be legalized (e.g. a MOV of the wide
                // constant first). They must be the exception.
                Err(
                    EncodeError::ImmediateTooWide
                    | EncodeError::OffsetTooWide
                    | EncodeError::TooManyImmediates,
                ) => legalization_needed += 1,
                Err(e) => panic!("{} pc {pc}: unexpected encode error {e}", w.abbr),
            }
        }
    }
    assert!(encoded > 300, "expected substantial coverage, encoded {encoded}");
    let frac = legalization_needed as f64 / (encoded + legalization_needed) as f64;
    assert!(
        frac < 0.15,
        "too many unencodable instructions: {legalization_needed}/{}",
        encoded + legalization_needed
    );
}

#[test]
fn marking_bits_are_ignored_gracefully_by_unaware_decoders() {
    // Paper Section 4.2: binaries with markings run on non-DARSIE
    // hardware. Masking the two marking bits must yield the same
    // instruction with a Vector marking.
    let w = workloads::by_abbr("MM", Scale::Test).expect("MM exists");
    for (pc, instr) in w.ck.kernel.instrs.iter().enumerate() {
        if let Ok(word) = encode(instr, w.ck.markings[pc]) {
            let stripped = word & !(0b11 << 55);
            let (decoded, m) = decode(stripped).expect("still decodable");
            assert_eq!(&decoded, instr);
            assert_eq!(m, Marking::Vector);
        }
    }
}
