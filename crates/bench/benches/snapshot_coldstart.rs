//! Bench `snapshot_coldstart` (EXPERIMENTS.md §B17): warm-starting a
//! session from an `nfd-snap` image against compiling it fresh.
//!
//! A snapshot stores the *outputs* of compilation — interned path
//! tables, the saturated Σ pool with provenance, the warm closure
//! cache — so a thaw replaces the saturation fixpoint (the superlinear
//! part of startup) with a validated linear replay of the frozen pool.
//! This harness measures the full cold-start path a CLI warm start
//! actually performs — read the image from disk, strictly decode it
//! (every section CRC checked), thaw, answer one query — against the
//! only alternative: parse-free fresh compilation over the same
//! in-memory schema and Σ, then the same query.
//!
//! * `wide_sigma_coldstart` — the headline shape: one relation with a
//!   wide overlapping Σ (the B14 family) where saturation dominates
//!   startup and the thaw's linear replay wins.
//! * `multi_wide_coldstart` — 8 isomorphic wide-Σ relations: the
//!   schema-registry restart shape (`nfdtool serve` RESTORE).
//! * `course_coldstart` — the honest row: the paper's 7-NFD Course
//!   schema, where there is almost no saturation to skip and the CRC
//!   sweep + validated replay is pure overhead, so fresh compilation
//!   wins or ties and the record says so.
//!
//! The `image_bytes` trailer records each image's size.

use nfd::session::Session;
use nfd_bench::*;
use nfd_core::{EmptySetPolicy, Nfd, TierPreference};
use nfd_govern::Budget;
use nfd_model::Schema;

fn fresh<'s>(schema: &'s Schema, sigma: &[Nfd]) -> Session<'s> {
    Session::with_budget(schema, sigma, EmptySetPolicy::Forbidden, Budget::standard()).unwrap()
}

/// Records fresh compile + one query (the cold start a snapshot-less
/// stack pays) against disk read → strict decode → thaw + the same query
/// (the warm start from an image written to `path`). Returns the image
/// size in bytes.
fn coldstart(
    bench: &mut Bench,
    workload: &'static str,
    param: usize,
    samples: usize,
    (schema, sigma): (&Schema, &[Nfd]),
    goal: &Nfd,
    path: &std::path::Path,
) -> usize {
    let image = fresh(schema, sigma).freeze();
    let bytes = nfd::snap::encode(&image);
    nfd::snap::write_atomic(path, &bytes).unwrap();
    let thaw_ns = bench.time_n(samples, || {
        let bytes = nfd::snap::read_file(path).unwrap();
        let decoded = nfd::snap::decode(&bytes).unwrap();
        let session = Session::thaw(
            schema,
            sigma,
            EmptySetPolicy::Forbidden,
            Budget::standard(),
            TierPreference::Auto,
            &decoded,
        )
        .unwrap();
        session.implies(goal).unwrap()
    });
    let fresh_ns = bench.time_n(samples, || fresh(schema, sigma).implies(goal).unwrap());
    bench.pair(workload, param, ("fresh", fresh_ns), ("thaw", thaw_ns));
    bytes.len()
}

fn main() {
    let samples = 5;
    let mut bench = Bench::new("B17", "snapshot_coldstart", samples);
    let dir = std::env::temp_dir().join(format!("nfd-bench-b17-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut sizes: Vec<String> = Vec::new();

    // Headline: one relation, wide overlapping Σ — saturation dominates
    // the fresh compile, the thaw replays its output linearly.
    const ATTRS: usize = 24;
    for &n in bench.sizes(&[16], &[64, 128]) {
        let schema = flat_schema(ATTRS);
        let sigma = wide_sigma(&schema, ATTRS, n);
        let goal = Nfd::parse(&schema, "R:[a0, a1 -> a2]").unwrap();
        let path = dir.join(format!("wide-{n}.snap"));
        let shape = (&schema, &sigma[..]);
        let size = coldstart(
            &mut bench,
            "wide_sigma_coldstart",
            n,
            samples,
            shape,
            &goal,
            &path,
        );
        sizes.push(format!("\"wide_sigma/{n}\": {size}"));
    }

    // Registry-restart shape: 8 isomorphic wide-Σ relations.
    const RELS: usize = 8;
    for &n in bench.sizes(&[8], &[32, 64]) {
        let schema = multi_flat_schema(RELS, ATTRS);
        let sigma = multi_wide_sigma(&schema, RELS, ATTRS, n);
        let goal = Nfd::parse(&schema, "R0:[r0a0, r0a1 -> r0a2]").unwrap();
        let path = dir.join(format!("multi-{n}.snap"));
        let shape = (&schema, &sigma[..]);
        let size = coldstart(
            &mut bench,
            "multi_wide_coldstart",
            n,
            3,
            shape,
            &goal,
            &path,
        );
        sizes.push(format!("\"multi_wide/{n}\": {size}"));
    }

    // Honest row: the paper's Course schema — Σ of seven NFDs leaves
    // almost no saturation to skip, so the checksum sweep and validated
    // replay are pure overhead here.
    let (schema, sigma) = course();
    let goal = Nfd::parse(&schema, "Course:[time, students:sid -> books]").unwrap();
    let path = dir.join("course.snap");
    let shape = (&schema, &sigma[..]);
    let size = coldstart(
        &mut bench,
        "course_coldstart",
        sigma.len(),
        samples,
        shape,
        &goal,
        &path,
    );
    sizes.push(format!("\"course\": {size}"));

    let _ = std::fs::remove_dir_all(&dir);
    bench.extra("image_bytes", format!("{{{}}}", sizes.join(", ")));
    bench.finish();
}
