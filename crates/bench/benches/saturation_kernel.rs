//! Bench `saturation_kernel` (EXPERIMENTS.md §B14): the indexed
//! semi-naive kernel, and the cached `Session` every user query goes
//! through, against the retained naive engine, like for like.
//!
//! `nfd_core::naive` preserves the pre-index saturation verbatim (full
//! pool subsumption scans, all-pairs resolution, pass-structured
//! chaining), so this harness times the *same* workloads through both
//! implementations. Candidate `indexed` is a bare `Engine`:
//!
//! * B1's flat-chain and ladder families (build + uncached queries);
//! * a synthetic wide-Σ family — one flat relation, many overlapping
//!   dependencies — where the all-pairs saturation scan is quadratic
//!   while the occurrence-indexed worklist touches only resolvable
//!   pairs.
//!
//! Candidate `session` is a fresh `Session` per run, built outside the
//! timed region so its closure cache starts empty; every session query
//! takes the closure cache, then the counting kernel:
//!
//! * `flat_chain_cold` — one all-pairs sweep over a flat chain.
//! * `flat_chain_sweep` — four all-pairs passes; passes 2–4 hit the
//!   cache.
//! * `ladder_goal_repeated` — one deep goal asked 32 times.
//! * `wide_sigma` — 200 all-pairs goals over wide Σ, one pass.
//!
//! The `session_sweeps` trailer times a cold sweep (first pass, empty
//! cache) and a warm sweep (second pass) per shape (§B21's table); the
//! `course_session` trailer reports the closure-cache hit rate of a
//! repeated batch sweep over the paper's Course schema.

use nfd::session::Session;
use nfd_bench::*;
use nfd_core::engine::Engine;
use nfd_core::naive::NaiveEngine;
use nfd_core::Nfd;
use nfd_govern::Budget;
use nfd_model::Schema;
use std::time::Instant;

const WIDE_ATTRS: usize = 24;

/// One two-attribute goal per attribute pair `{a_i, a_j}` (`i < j`) of a
/// flat schema, each with a right-hand side outside its LHS — a distinct
/// closure per goal, so a cold sweep chains every one.
fn pair_goals(schema: &Schema, n: usize) -> Vec<Nfd> {
    let mut goals = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            let mut k = (j + 1) % n;
            if k == i {
                k = (k + 1) % n;
            }
            goals.push(Nfd::parse(schema, &format!("R:[a{i}, a{j} -> a{k}]")).unwrap());
        }
    }
    goals
}

/// Every single-path goal `Course:[x -> y]` over the Course paths.
fn course_goals(schema: &Schema) -> Vec<Nfd> {
    let paths = [
        "cnum",
        "time",
        "students",
        "students:sid",
        "students:age",
        "students:grade",
        "books",
        "books:isbn",
        "books:title",
    ];
    let mut goals = Vec::new();
    for x in paths {
        for y in paths {
            if x != y {
                goals.push(Nfd::parse(schema, &format!("Course:[{x} -> {y}]")).unwrap());
            }
        }
    }
    goals
}

/// Implied goals over `passes` sweeps of `goals` through the naive engine.
fn naive_passes(naive: &NaiveEngine<'_>, goals: &[Nfd], passes: usize) -> usize {
    (0..passes)
        .map(|_| goals.iter().filter(|g| naive.implies(g).unwrap()).count())
        .sum()
}

/// Implied goals over `passes` sweeps of `goals` through a session.
fn session_passes(session: &Session<'_>, goals: &[Nfd], passes: usize) -> usize {
    (0..passes)
        .map(|_| goals.iter().filter(|g| session.implies(g).unwrap()).count())
        .sum()
}

/// Records the naive engine against a fresh session over `passes` sweeps
/// of `goals`.
fn naive_vs_session(
    bench: &mut Bench,
    workload: &'static str,
    param: usize,
    schema: &Schema,
    sigma: &[Nfd],
    goals: &[Nfd],
    passes: usize,
) {
    let naive = NaiveEngine::new(schema, sigma).unwrap();
    let naive_ns = bench.time(|| naive_passes(&naive, goals, passes));
    let session_ns = bench.time_fresh(
        || Session::new(schema, sigma).unwrap(),
        |session| session_passes(session, goals, passes),
    );
    bench.pair(
        workload,
        param,
        ("naive", naive_ns),
        ("session", session_ns),
    );
}

fn main() {
    let mut bench = Bench::new("B14", "saturation_kernel", 5);
    // The naive engine takes seconds per wide-Σ build — two samples keep
    // the harness short without hiding the gap.
    let wide_samples = 2;

    // B1 flat chain: a0 → a1 → … → a{n-1}.
    for &n in bench.sizes(&[8], &[16, 24, 32]) {
        let schema = flat_schema(n);
        let sigma = flat_chain_sigma(&schema, n);
        bench.pair(
            "flat_chain_build",
            n,
            (
                "naive",
                bench.time(|| NaiveEngine::new(&schema, &sigma).unwrap()),
            ),
            (
                "indexed",
                bench.time(|| Engine::new(&schema, &sigma).unwrap()),
            ),
        );
        let naive = NaiveEngine::new(&schema, &sigma).unwrap();
        let indexed = Engine::new(&schema, &sigma).unwrap();
        let goals = all_pairs_goals(&schema, n);
        bench.pair(
            "flat_chain_queries",
            n,
            ("naive", bench.time(|| naive_passes(&naive, &goals, 1))),
            (
                "indexed",
                bench.time(|| goals.iter().filter(|g| indexed.implies(g).unwrap()).count()),
            ),
        );
        // One cold all-pairs sweep: every LHS chains once, the rest hit.
        naive_vs_session(&mut bench, "flat_chain_cold", n, &schema, &sigma, &goals, 1);
    }

    // Repeated all-pairs passes: the cache answers passes 2–4 outright,
    // while the naive engine recomputes every chain of every pass.
    for &n in bench.sizes(&[8], &[16, 24, 32, 48, 64]) {
        let schema = flat_schema(n);
        let sigma = flat_chain_sigma(&schema, n);
        let goals = all_pairs_goals(&schema, n);
        naive_vs_session(
            &mut bench,
            "flat_chain_sweep",
            n,
            &schema,
            &sigma,
            &goals,
            4,
        );
    }

    // B1 ladder: nested prefixes exercising prefix-weakening and
    // full-locality during saturation.
    for &depth in bench.sizes(&[4], &[6, 8]) {
        let schema = ladder_schema(depth);
        let sigma = ladder_sigma(&schema, depth);
        bench.pair(
            "ladder_build",
            depth,
            (
                "naive",
                bench.time(|| NaiveEngine::new(&schema, &sigma).unwrap()),
            ),
            (
                "indexed",
                bench.time(|| Engine::new(&schema, &sigma).unwrap()),
            ),
        );
        let naive = NaiveEngine::new(&schema, &sigma).unwrap();
        let indexed = Engine::new(&schema, &sigma).unwrap();
        let goals = vec![ladder_goal(&schema, depth)];
        bench.pair(
            "ladder_goal",
            depth,
            ("naive", bench.time(|| naive_passes(&naive, &goals, 1))),
            (
                "indexed",
                bench.time(|| indexed.implies(&goals[0]).unwrap()),
            ),
        );
        // One deep goal, repeated: one chain, then cache hits.
        naive_vs_session(
            &mut bench,
            "ladder_goal_repeated",
            depth,
            &schema,
            &sigma,
            &goals,
            32,
        );
    }

    // Wide Σ: overlapping dependencies over a flat relation, scaling |Σ|.
    for &n in bench.sizes(&[32], &[64, 128, 256]) {
        let schema = flat_schema(WIDE_ATTRS);
        let sigma = wide_sigma(&schema, WIDE_ATTRS, n);
        bench.pair(
            "wide_sigma_build",
            n,
            (
                "naive",
                bench.time_n(wide_samples, || NaiveEngine::new(&schema, &sigma).unwrap()),
            ),
            (
                "indexed",
                bench.time_n(wide_samples, || Engine::new(&schema, &sigma).unwrap()),
            ),
        );
    }
    for &n in bench.sizes(&[32], &[64, 128]) {
        let schema = flat_schema(WIDE_ATTRS);
        let sigma = wide_sigma(&schema, WIDE_ATTRS, n);
        let mut goals = all_pairs_goals(&schema, WIDE_ATTRS);
        goals.truncate(200);
        naive_vs_session(&mut bench, "wide_sigma", n, &schema, &sigma, &goals, 1);
    }

    // Cold and warm session sweeps per shape (§B21).
    let mut shapes: Vec<(String, Schema, Vec<Nfd>, Vec<Nfd>)> = Vec::new();
    for &n in bench.sizes(&[8], &[16, 32]) {
        let schema = flat_schema(n);
        let sigma = flat_chain_sigma(&schema, n);
        let one = all_pairs_goals(&schema, n);
        let two = pair_goals(&schema, n);
        shapes.push((
            format!("flat_chain({n}) 1-attr"),
            schema.clone(),
            sigma.clone(),
            one,
        ));
        shapes.push((format!("flat_chain({n}) 2-attr"), schema, sigma, two));
    }
    for &n in bench.sizes(&[32], &[64, 128]) {
        let schema = flat_schema(WIDE_ATTRS);
        let sigma = wide_sigma(&schema, WIDE_ATTRS, n);
        let goals = all_pairs_goals(&schema, WIDE_ATTRS);
        shapes.push((
            format!("wide_sigma({WIDE_ATTRS},{n})"),
            schema,
            sigma,
            goals,
        ));
    }
    let (schema, sigma) = course();
    let goals = course_goals(&schema);
    shapes.push(("course".to_string(), schema, sigma, goals));
    let sweeps: Vec<String> = shapes
        .iter()
        .map(|(name, schema, sigma, goals)| {
            let cold = bench.time_fresh(
                || Session::new(schema, sigma).unwrap(),
                |session| session_passes(session, goals, 1),
            );
            let warm = bench.time_fresh(
                || {
                    let session = Session::new(schema, sigma).unwrap();
                    session_passes(&session, goals, 1);
                    session
                },
                |session| session_passes(session, goals, 1),
            );
            format!(
                "{{\"shape\": \"{name}\", \"goals\": {}, \"cold_ns\": {cold}, \"warm_ns\": {warm}}}",
                goals.len()
            )
        })
        .collect();
    bench.extra("session_sweeps", format!("[{}]", sweeps.join(", ")));

    // B10 course session: a repeated batch sweep through one session, the
    // sweeps after the first served by the closure cache. One timed run:
    // the trailer's point is the hit rate, which repeats would inflate.
    let (schema, sigma) = course();
    let session = Session::new(&schema, &sigma).unwrap();
    let attrs = ["cnum", "time", "room", "books", "students"];
    let mut goals = Vec::new();
    for a in attrs {
        for b in attrs {
            if a != b {
                if let Ok(g) = Nfd::parse(&schema, &format!("Course:[{a} -> {b}]")) {
                    goals.push(g);
                }
            }
        }
    }
    let budget = Budget::standard();
    let course_sweeps = if bench.smoke() { 2 } else { 8 };
    let start = Instant::now();
    for _ in 0..course_sweeps {
        session.implies_batch(&goals, &budget, 1).unwrap();
    }
    let course_ns = start.elapsed().as_nanos();
    let cache = session.cache_stats();
    bench.extra(
        "course_session",
        format!(
            "{{\"goals\": {}, \"sweeps\": {course_sweeps}, \"total_ns\": {course_ns}, \"cache_hits\": {}, \"cache_misses\": {}}}",
            goals.len(),
            cache.hits,
            cache.misses
        ),
    );
    bench.finish();
}
