//! Bench `chase_vs_axioms` (EXPERIMENTS.md §B8): the two decision
//! procedures for NFD implication — the axiomatic saturation engine
//! (Theorem 3.1) and the nested tableau chase (the paper's §4 future
//! work) — on identical problems. Each row takes the chase as its
//! baseline, so a speedup above 1 means the axioms win.
//!
//! Expected shape: identical verdicts (differentially tested); the chase
//! re-enumerates tableau assignments per step, so it scales worse with
//! nesting depth and Σ size, while the engine amortizes saturation across
//! queries.

use nfd_bench::*;
use nfd_chase::chase;
use nfd_core::engine::Engine;
use nfd_core::Nfd;
use nfd_model::Schema;
use std::hint::black_box;

/// Times the chase and a cold engine (build + query) on one problem,
/// after checking that they agree.
fn chase_vs_cold(
    bench: &Bench,
    schema: &Schema,
    sigma: &[Nfd],
    goal: &Nfd,
) -> [(&'static str, u128); 2] {
    assert_eq!(
        Engine::new(schema, sigma).unwrap().implies(goal).unwrap(),
        chase(schema, sigma, goal).unwrap().implied,
        "the procedures must agree"
    );
    [
        (
            "chase",
            bench.time(|| chase(black_box(schema), sigma, goal).unwrap().implied),
        ),
        (
            "axioms_cold",
            bench.time(|| {
                Engine::new(black_box(schema), black_box(sigma))
                    .unwrap()
                    .implies(goal)
                    .unwrap()
            }),
        ),
    ]
}

fn main() {
    let mut bench = Bench::new("B8", "chase_vs_axioms", 10);
    let (schema, sigma, goal) = worked_example();
    let [chased, cold] = chase_vs_cold(&bench, &schema, &sigma, &goal);
    bench.pair("worked_example", sigma.len(), chased, cold);
    let engine = Engine::new(&schema, &sigma).unwrap();
    bench.pair(
        "worked_example",
        sigma.len(),
        chased,
        (
            "axioms_warm",
            bench.time(|| engine.implies(black_box(&goal)).unwrap()),
        ),
    );

    for n in [4usize, 8, 12] {
        let schema = flat_schema(n);
        let sigma = flat_chain_sigma(&schema, n);
        let goal = Nfd::parse(&schema, &format!("R:[a0 -> a{}]", n - 1)).unwrap();
        let [chased, cold] = chase_vs_cold(&bench, &schema, &sigma, &goal);
        bench.pair("flat_chain", n, chased, cold);
    }

    for depth in [1usize, 2] {
        let schema = ladder_schema(depth);
        let sigma = ladder_sigma(&schema, depth);
        let goal = ladder_goal(&schema, depth);
        let [chased, cold] = chase_vs_cold(&bench, &schema, &sigma, &goal);
        bench.pair("ladder", depth, chased, cold);
    }
    bench.finish();
}
