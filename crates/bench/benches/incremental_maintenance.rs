//! Bench `incremental_maintenance` (EXPERIMENTS.md §B16): delta Σ
//! maintenance against full reconfiguration.
//!
//! The delta layer (`Engine::add_dep` / `Engine::remove_dep`) rebuilds
//! only the relation a mutated dependency names, leaving every other
//! relation's pool untouched and bit-identical. This harness measures
//! the round-trip a live session actually performs — mutate, answer a
//! query, mutate back, answer again — against the only alternative: a
//! full from-scratch rebuild of the session for each Σ revision.
//!
//! * `multi_wide_roundtrip` — the headline shape: 8 relations, each
//!   carrying a wide Σ of `n ≥ 32` overlapping dependencies. A
//!   single-dep mutation touches 1/8 of the saturation work a full
//!   reconfigure redoes, so this is the ≥ 5× acceptance row.
//! * `flat_chain_roundtrip` — the honest row. One relation, small
//!   chain Σ: the delta rebuild IS a full rebuild of the only relation,
//!   plus the retraction's over-delete bookkeeping, so rebuild wins or
//!   ties and the record says so.
//! * `course_roundtrip` — the paper's Course schema (7 NFDs): small-Σ
//!   honest trailer on a nested shape.
//!
//! The `mutation_profile` trailer reports what one retraction on the
//! headline shape touches.

use nfd::session::Session;
use nfd_bench::*;
use nfd_core::{EmptySetPolicy, Nfd};
use nfd_govern::Budget;
use nfd_model::Schema;

fn session<'s>(schema: &'s Schema, sigma: &[Nfd]) -> Session<'s> {
    Session::with_budget(schema, sigma, EmptySetPolicy::Forbidden, Budget::standard()).unwrap()
}

/// Records one Σ-revision round trip — add `extra`, answer `goal`,
/// retract `extra`, answer again — through the delta layer, against the
/// only way a delta-less stack can answer the same two revisions: a full
/// from-scratch session rebuild per revision.
fn roundtrip(
    bench: &mut Bench,
    workload: &'static str,
    param: usize,
    samples: usize,
    (schema, sigma): (&Schema, &[Nfd]),
    (extra, goal): (&Nfd, &Nfd),
) {
    let mut grown_sigma = sigma.to_vec();
    grown_sigma.push(extra.clone());
    let rebuild = bench.time_n(samples, || {
        let grown = session(schema, &grown_sigma).implies(goal).unwrap();
        (grown, session(schema, sigma).implies(goal).unwrap())
    });
    // The live session ends every run back at the original Σ, so every
    // run times the same work.
    let mut live = session(schema, sigma);
    let delta = bench.time_n(samples, || {
        live.add_deps(std::slice::from_ref(extra)).unwrap();
        let grown = live.implies(goal).unwrap();
        live.remove_deps(std::slice::from_ref(extra)).unwrap();
        (grown, live.implies(goal).unwrap())
    });
    bench.pair(workload, param, ("rebuild", rebuild), ("delta", delta));
}

fn main() {
    let samples = 5;
    let mut bench = Bench::new("B16", "incremental_maintenance", samples);

    // Headline: 8 wide-Σ relations, single-dep mutations in one of them.
    const RELS: usize = 8;
    const ATTRS: usize = 24;
    let wide_sizes = bench.sizes(&[8], &[32, 64]);
    for &n in wide_sizes {
        let schema = multi_flat_schema(RELS, ATTRS);
        let sigma = multi_wide_sigma(&schema, RELS, ATTRS, n);
        let extra = Nfd::parse(&schema, &format!("R0:[r0a0 -> r0a{}]", ATTRS - 1)).unwrap();
        let goal = Nfd::parse(&schema, "R0:[r0a0 -> r0a1]").unwrap();
        let shape = (&schema, &sigma[..]);
        roundtrip(
            &mut bench,
            "multi_wide_roundtrip",
            n,
            3,
            shape,
            (&extra, &goal),
        );
    }

    // Honest row: one relation, so the delta rebuild redoes everything
    // the full rebuild does, plus retraction bookkeeping.
    for &n in bench.sizes(&[4], &[8, 16]) {
        let schema = flat_schema(n);
        let sigma = flat_chain_sigma(&schema, n);
        let extra = Nfd::parse(&schema, &format!("R:[a{} -> a0]", n - 1)).unwrap();
        let goal = Nfd::parse(&schema, &format!("R:[a0 -> a{}]", n - 1)).unwrap();
        let shape = (&schema, &sigma[..]);
        roundtrip(
            &mut bench,
            "flat_chain_roundtrip",
            n,
            samples,
            shape,
            (&extra, &goal),
        );
    }

    // Honest trailer: the paper's Course schema, Σ of seven NFDs.
    let (schema, sigma) = course();
    let extra = Nfd::parse(&schema, "Course:[time -> books:isbn]").unwrap();
    let goal = Nfd::parse(&schema, "Course:[students:sid -> books:isbn]").unwrap();
    let shape = (&schema, &sigma[..]);
    roundtrip(
        &mut bench,
        "course_roundtrip",
        sigma.len(),
        samples,
        shape,
        (&extra, &goal),
    );

    // Observability trailer: what one retraction on the headline shape
    // actually touches (scoped to R0; overdeleted = counting pass size).
    let schema = multi_flat_schema(RELS, ATTRS);
    let n = wide_sizes[wide_sizes.len() - 1];
    let sigma = multi_wide_sigma(&schema, RELS, ATTRS, n);
    let mut live = session(&schema, &sigma);
    // Retract the R0 given with the largest over-delete set, so the
    // profile shows the counting pass doing real work.
    let target = sigma[..n]
        .iter()
        .max_by_key(|d| live.engine().retraction_impact(d).unwrap())
        .unwrap()
        .clone();
    let report = live
        .remove_deps(std::slice::from_ref(&target))
        .unwrap()
        .remove(0);
    bench.extra(
        "mutation_profile",
        format!(
            "{{\"relations\": {}, \"relation\": \"{}\", \"pool_before\": {}, \"pool_after\": {}, \"overdeleted\": {}}}",
            RELS, report.relation, report.pool_before, report.pool_after, report.overdeleted
        ),
    );
    bench.finish();
}
