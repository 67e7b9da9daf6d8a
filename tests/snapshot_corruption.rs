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
//!
//! A CRC only catches accidental damage, so the forgery sweep rewrites
//! the one thing an image stores per pool entry, its derivation, and
//! re-checksums: every provenance a thaw could be handed for every entry
//! of three sources. A thaw re-derives each entry, so a forgery is either
//! rejected or thaws to a session that answers no more than a compile.

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

/// One source of the forgery sweep: a schema and Σ text.
struct Source {
    name: &'static str,
    schema: &'static str,
    sigma: &'static str,
}

const FORGERY_SOURCES: &[Source] = &[
    // The README quickstart.
    Source {
        name: "Course",
        schema: "Course : { <cnum: string, time: int,
            students: {<sid: int, age: int, grade: string>},
            books: {<isbn: string, title: string>}> };",
        sigma: "Course:[cnum -> time]; Course:[cnum -> students]; Course:[cnum -> books];
            Course:[books:isbn -> books:title];
            Course:students:[sid -> grade];
            Course:[students:sid -> students:age];
            Course:[time, students:sid -> cnum];",
    },
    // examples/acedb_singletons.rs: the singleton rule fires on `name`.
    Source {
        name: "Genes",
        schema: "Genes : { <gid: int, name: {<text: string>}, aliases: {<text2: string>},
            papers: {<pmid: int, year: int>}> };",
        sigma: "Genes:[gid -> name:text]; Genes:[gid -> papers]; Genes:papers:[pmid -> year];",
    },
    // A three-level ladder: prefix, full-locality, resolution and
    // singleton entries at every depth.
    Source {
        name: "ladder",
        schema: "R : {<k0: int, v0: int, s0: {<k1: int, v1: int,
            s1: {<k2: int, v2: int>}>}>};",
        sigma: "R:[k0 -> v0]; R:[k0 -> s0]; R:s0:[k1 -> v1]; R:s0:[k1 -> s1];
            R:s0:s1:[k2 -> v2]; R:[s0:k1, k0 -> s0:s1:k2];",
    },
];

/// Every provenance the sweep substitutes for entry `e` of a pool whose
/// entries have RHS ids `rhs`, over `paths` path ids and a Σ of `sigma`
/// NFDs: each `Given`, each `Singleton`, `Prefix` and `FullLocality`
/// over every path id (one past the end included) and every premise up
/// to the entry itself, `Resolve` for every (target, supplier) pair, and
/// the entry's own `Resolve` with each field varied over its range.
fn forgeries(
    own: &snap::ProvSnap,
    e: u64,
    rhs: &[u32],
    paths: u32,
    sigma: u64,
) -> Vec<snap::ProvSnap> {
    use snap::ProvSnap as P;
    let mut out: Vec<P> = (0..=sigma).map(P::Given).collect();
    for x in 0..=paths {
        out.push(P::Singleton { x });
        for dep in 0..=e {
            out.push(P::Prefix { dep, shortened: x });
            out.push(P::FullLocality { dep, x });
        }
    }
    for target in 0..=e {
        for supplier in 0..=e {
            let on = rhs[supplier as usize];
            out.push(P::Resolve {
                target,
                supplier,
                on,
            });
        }
    }
    if let P::Resolve {
        target,
        supplier,
        on,
    } = *own
    {
        for v in 0..=e {
            out.push(P::Resolve {
                target: v,
                supplier,
                on,
            });
            out.push(P::Resolve {
                target,
                supplier: v,
                on,
            });
        }
        for v in 0..=paths {
            out.push(P::Resolve {
                target,
                supplier,
                on: v,
            });
        }
    }
    out.retain(|p| p != own);
    out
}

/// Replaces each pool entry's provenance with every forgery in turn,
/// re-encodes the image and thaws it. A thaw must either reject the
/// image as a mismatch or give a session that answers no more than a
/// compile: every closure of a one- or two-path LHS within the
/// compile's, and a verified proof for every implied one-path goal.
/// Returns how many forgeries were tried and how many thawed.
fn sweep_forged_derivations(source: &Source) -> (usize, usize) {
    let schema = Schema::parse(source.schema).unwrap();
    let sigma = parse_set(&schema, source.sigma).unwrap();
    let compiled = Session::new(&schema, &sigma).unwrap();
    let image = compiled.freeze();
    let dump = compiled.engine().pool_dump();
    let thaw = |image: &snap::Snapshot| {
        let bytes = snap::encode(image);
        let decoded = snap::decode(&bytes).expect("a re-encoded image decodes");
        Session::thaw(
            &schema,
            &sigma,
            EmptySetPolicy::Forbidden,
            Budget::standard(),
            nfd_core::TierPreference::Auto,
            &decoded,
        )
    };

    // Every relation's one- and two-path LHSs with the compile's closure,
    // and every one-path goal.
    let mut lhss = Vec::new();
    let mut goals = Vec::new();
    for (relation, _) in &dump {
        let table = compiled
            .engine()
            .tables()
            .get(Label::new(relation))
            .unwrap();
        let base = RootedPath::parse(relation).unwrap();
        let paths = table.paths();
        for (i, a) in paths.iter().enumerate() {
            for b in &paths[i..] {
                let lhs = if a == b {
                    vec![a.clone()]
                } else {
                    vec![a.clone(), b.clone()]
                };
                let closure = compiled.closure(&base, &lhs).unwrap();
                lhss.push((base.clone(), lhs, closure));
            }
            for b in paths {
                goals.push(Nfd::parse(&schema, &format!("{relation}:[{a} -> {b}]")).unwrap());
            }
        }
    }

    let (mut tried, mut thawed) = (0, 0);
    for (p, (relation, entries)) in dump.iter().enumerate() {
        let paths = compiled
            .engine()
            .tables()
            .get(Label::new(relation))
            .unwrap()
            .len() as u32;
        let rhs: Vec<u32> = entries.iter().map(|d| d.rhs).collect();
        for (e, own) in image.pools[p].deps.iter().enumerate() {
            for forged in forgeries(&own.prov, e as u64, &rhs, paths, sigma.len() as u64) {
                tried += 1;
                let what = format!("{}: {relation} entry {e} as {forged:?}", source.name);
                let mut bad = image.clone();
                bad.pools[p].deps[e].prov = forged;
                let session = match thaw(&bad) {
                    Err(snap::SnapError::Mismatch(_)) => continue,
                    Err(other) => panic!("{what}: rejected untyped: {other:?}"),
                    Ok(session) => session,
                };
                thawed += 1;
                for (base, lhs, closure) in &lhss {
                    let got = session.closure(base, lhs).unwrap();
                    assert!(
                        got.iter().all(|q| closure.contains(q)),
                        "{what}: closure of {base}:{lhs:?} grew to {got:?}"
                    );
                }
                for goal in &goals {
                    if session.implies(goal).unwrap() {
                        let pf = session.prove(goal).unwrap().expect("implied goals prove");
                        session
                            .verify(&pf)
                            .unwrap_or_else(|e| panic!("{what}: proof of {goal} fails: {e}"));
                    }
                }
            }
        }
    }

    let mut poolless = image.clone();
    poolless.pools.clear();
    assert!(
        matches!(thaw(&poolless), Err(snap::SnapError::Mismatch(_))),
        "{}: an image without pools must be rejected",
        source.name
    );
    (tried, thawed)
}

#[test]
fn a_forged_derivation_never_adds_an_answer() {
    for source in FORGERY_SOURCES {
        let (tried, thawed) = sweep_forged_derivations(source);
        println!("{}: {tried} forgeries, {thawed} thawed", source.name);
        assert!(
            tried > thawed,
            "{}: some forgery must be rejected",
            source.name
        );
    }
}
