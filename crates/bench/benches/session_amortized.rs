//! Bench `session_amortized` (EXPERIMENTS.md §B10): what the
//! query-amortizing `Session` buys over building a fresh `Engine` per
//! query.
//!
//! A fresh engine repeats schema interning, Σ normalization and the full
//! resolution saturation for every goal; a session pays that once and
//! answers each goal with a single bitset fixed point over the cached
//! pool. The gap therefore grows with |Σ| (saturation is the superlinear
//! part) and with the number of goals amortized over. The goal batch is
//! every single-attribute question over the flat chain (mixed implied /
//! not-implied verdicts).

use nfd::session::Session;
use nfd_bench::*;
use nfd_core::engine::Engine;
use nfd_core::EmptySetPolicy;
use std::hint::black_box;

fn main() {
    let mut bench = Bench::new("B10", "session_amortized", 10);
    for n in [8usize, 16, 24] {
        let schema = flat_schema(n);
        let sigma = flat_chain_sigma(&schema, n);
        let goals = all_pairs_goals(&schema, n);

        // One fresh engine per query (the pre-session idiom) against one
        // session compiled for the whole batch.
        bench.pair(
            "all_pairs_batch",
            n,
            (
                "fresh_engine_per_query",
                bench.time(|| {
                    goals
                        .iter()
                        .filter(|goal| {
                            Engine::new(black_box(&schema), black_box(&sigma))
                                .unwrap()
                                .implies(goal)
                                .unwrap()
                        })
                        .count()
                }),
            ),
            (
                "one_session",
                bench.time(|| {
                    let session = Session::new(black_box(&schema), black_box(&sigma)).unwrap();
                    goals.iter().filter(|g| session.implies(g).unwrap()).count()
                }),
            ),
        );

        // Steady state: the per-batch cost once compilation is sunk.
        let session = Session::new(&schema, &sigma).unwrap();
        bench.one(
            "steady_state_batch",
            n,
            "session",
            bench.time(|| {
                goals
                    .iter()
                    .filter(|g| session.implies(black_box(g)).unwrap())
                    .count()
            }),
        );
    }

    // Same Σ under another empty-set policy: a from-scratch compile
    // against `reconfigure`, which reuses the compiled path tables.
    let (schema, sigma) = course();
    let session = Session::new(&schema, &sigma).unwrap();
    bench.pair(
        "course_policy_switch",
        sigma.len(),
        (
            "rebuild",
            bench.time(|| {
                Session::with_policy(
                    black_box(&schema),
                    black_box(&sigma),
                    EmptySetPolicy::pessimistic(),
                )
                .unwrap()
                .sigma()
                .len()
            }),
        ),
        (
            "reconfigure",
            bench.time(|| {
                session
                    .reconfigure(EmptySetPolicy::pessimistic())
                    .unwrap()
                    .sigma()
                    .len()
            }),
        ),
    );
    bench.finish();
}
