//! Exhaustive corruption sweep over the snapshot byte format.
//!
//! For *every* single-byte flip and *every* truncation length of a
//! frozen session image, exactly one of two things must happen:
//!
//! 1. the image still decodes and thaws **bit-identically** (possible
//!    in principle for flips the checks cannot distinguish, e.g. inside
//!    ignored padding — the format has none today, so in practice every
//!    flip is caught), or
//! 2. the image is rejected with a **typed [`nfd::snap::SnapError`]** —
//!    never a panic, never a silently wrong session — and the caller
//!    falls back to a fresh compile that answers correctly.
//!
//! The lenient decoder is swept too: a salvage either fails typed or
//! recovers source sections that parse back to the original schema/Σ.

use nfd::prelude::*;
use nfd::snap;
use nfd_core::nfd::parse_set;
use std::panic::{catch_unwind, AssertUnwindSafe};

const SCHEMA: &str = "Course : { <cnum: string, time: int,
    students: {<sid: int, grade: string>}> };";

const SIGMA: &str = "
    Course:[cnum -> time];
    Course:students:[sid -> grade];
    Course:[time, students:sid -> cnum];";

struct Baseline {
    schema: Schema,
    sigma: Vec<Nfd>,
    bytes: Vec<u8>,
    pool: String,
}

fn baseline() -> Baseline {
    let schema = Schema::parse(SCHEMA).unwrap();
    let sigma = parse_set(&schema, SIGMA).unwrap();
    let session = Session::new(&schema, &sigma).unwrap();
    // Every image carries every section the format emits, so the sweep
    // covers each section tag.
    let image = session.freeze();
    let pool = format!("{:?}", session.engine().pool_dump());
    Baseline {
        schema,
        sigma,
        bytes: snap::encode(&image),
        pool,
    }
}

/// Feeds one corrupted image through the strict decoder and (when it
/// decodes) the thaw path, asserting the only two permitted outcomes.
/// Returns `true` when the corruption was detected (rejected somewhere).
fn assert_sound(b: &Baseline, corrupted: &[u8], what: &str) -> bool {
    let outcome = catch_unwind(AssertUnwindSafe(|| match snap::decode(corrupted) {
        Err(_) => Ok(true),
        Ok(image) => match Session::thaw(
            &b.schema,
            &b.sigma,
            EmptySetPolicy::Forbidden,
            Budget::standard(),
            nfd_core::TierPreference::Auto,
            &image,
        ) {
            Err(_) => Ok(true),
            Ok(session) => {
                // The corruption slipped past every check: the only
                // acceptable reason is that it did not change the
                // decoded meaning — the thawed session must be
                // bit-identical to the fresh baseline.
                if format!("{:?}", session.engine().pool_dump()) == b.pool {
                    Ok(false)
                } else {
                    Err("thawed a DIFFERENT session".to_string())
                }
            }
        },
    }));
    match outcome {
        Ok(Ok(rejected)) => rejected,
        Ok(Err(msg)) => panic!("{what}: {msg}"),
        Err(_) => panic!("{what}: decoder or thaw PANICKED"),
    }
}

/// The lenient decoder under the same corruption: either a typed error,
/// or a salvage whose source sections parse back to the originals.
fn assert_lenient_sound(b: &Baseline, corrupted: &[u8], what: &str) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Ok(salvaged) = snap::decode_lenient(corrupted) {
            let image = salvaged.snapshot;
            let schema = Schema::parse(&image.schema_text)
                .map_err(|e| format!("salvaged schema does not parse: {e}"))?;
            if schema.to_string() != b.schema.to_string() {
                return Err("salvaged a DIFFERENT schema".to_string());
            }
            let sigma = parse_set(&schema, &image.sigma_text)
                .map_err(|e| format!("salvaged Σ does not parse: {e}"))?;
            if sigma != b.sigma {
                return Err("salvaged a DIFFERENT Σ".to_string());
            }
        }
        Ok(())
    }));
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(msg)) => panic!("{what}: {msg}"),
        Err(_) => panic!("{what}: lenient decoder PANICKED"),
    }
}

#[test]
fn every_single_byte_flip_is_rejected_or_harmless() {
    let b = baseline();
    let mut undetected = 0usize;
    for i in 0..b.bytes.len() {
        for mask in [0xFFu8, 0x01] {
            let mut corrupted = b.bytes.clone();
            corrupted[i] ^= mask;
            let what = format!("flip byte {i} mask {mask:#04x}");
            if !assert_sound(&b, &corrupted, &what) {
                undetected += 1;
            }
            assert_lenient_sound(&b, &corrupted, &what);
        }
    }
    // Every byte of the format is covered by the magic, a length bound,
    // a section CRC or the whole-file CRC, so nothing slips through.
    assert_eq!(undetected, 0, "{undetected} flips thawed undetected");
}

#[test]
fn every_truncation_length_is_rejected() {
    let b = baseline();
    for len in 0..b.bytes.len() {
        let corrupted = &b.bytes[..len];
        let what = format!("truncate to {len} bytes");
        assert!(
            assert_sound(&b, corrupted, &what),
            "{what}: a strict prefix of the image must never decode"
        );
        assert_lenient_sound(&b, corrupted, &what);
    }
    // Trailing garbage is the mirror image of truncation.
    let mut extended = b.bytes.clone();
    extended.push(0);
    assert!(
        assert_sound(&b, &extended, "one trailing byte"),
        "trailing bytes after END must be rejected"
    );
}

#[test]
fn rejected_snapshots_degrade_to_a_correct_fresh_compile() {
    let b = baseline();
    // The caller-side contract exercised by the CLI and the daemon:
    // when the image is rejected, a fresh compile of the live sources
    // serves the query stream with correct answers.
    let mut corrupted = b.bytes.clone();
    let mid = corrupted.len() / 2;
    corrupted[mid] ^= 0xFF;
    assert!(snap::decode(&corrupted).is_err());
    let fallback = Session::new(&b.schema, &b.sigma).unwrap();
    assert!(fallback
        .implies_text("Course:[time, students:sid -> cnum]")
        .unwrap());
    assert!(!fallback.implies_text("Course:[time -> cnum]").unwrap());
    assert_eq!(format!("{:?}", fallback.engine().pool_dump()), b.pool);
}

#[test]
fn version_skew_is_a_typed_rejection() {
    let b = baseline();
    // The format version rides little-endian right after the magic.
    let mut skewed = b.bytes.clone();
    let at = snap::MAGIC.len();
    skewed[at] = skewed[at].wrapping_add(1);
    match snap::decode(&skewed) {
        Err(snap::SnapError::UnsupportedVersion(v)) => {
            assert_eq!(v, snap::FORMAT_VERSION + 1);
        }
        other => panic!("version skew must be typed, got {other:?}"),
    }
    // Bad magic likewise.
    let mut alien = b.bytes.clone();
    alien[0] ^= 0xFF;
    assert!(matches!(
        snap::decode(&alien),
        Err(snap::SnapError::BadMagic)
    ));
}
