//! Bench `construct` (EXPERIMENTS.md §B4): the Appendix A counterexample
//! construction as the schema widens and deepens.
//!
//! Expected shape: linear in the number of schema paths for fixed depth
//! (one `assignVal` per closure path, one `assignNew` per non-closure
//! child); deeper ladders additionally pay for the constants closures
//! `(p, ∅)*` that `newRow` consults.

use nfd_bench::*;
use nfd_core::{construct, engine::Engine};
use nfd_path::{Path, RootedPath};
use std::hint::black_box;

fn main() {
    let mut bench = Bench::new("B4", "construct", 10);
    let base = RootedPath::parse("R").unwrap();
    let built = |engine: &Engine<'_>, x: &[Path]| {
        construct::counterexample(black_box(engine), &base, x)
            .unwrap()
            .instance
            .base_count()
    };

    for n in [4usize, 8, 16, 32] {
        let schema = flat_schema(n);
        let sigma = flat_chain_sigma(&schema, n);
        let engine = Engine::new(&schema, &sigma).unwrap();
        let x = vec![Path::parse("a0").unwrap()];
        bench.one(
            "flat_width",
            n,
            "construct",
            bench.time(|| built(&engine, &x)),
        );
    }

    for depth in [1usize, 2, 3, 4] {
        let schema = ladder_schema(depth);
        let sigma = ladder_sigma(&schema, depth);
        let engine = Engine::new(&schema, &sigma).unwrap();
        let x = vec![Path::parse("k0").unwrap()];
        bench.one(
            "ladder_depth",
            depth,
            "construct",
            bench.time(|| built(&engine, &x)),
        );
    }

    // Construction + full Lemma A.1 validation (what the completeness
    // test suite pays per trial).
    let (schema, sigma, _) = worked_example();
    let engine = Engine::new(&schema, &sigma).unwrap();
    let x = vec![Path::parse("A:B:C").unwrap()];
    bench.one(
        "worked_example_validate",
        sigma.len(),
        "construct_and_check",
        bench.time(|| {
            let built = construct::counterexample(black_box(&engine), &base, &x).unwrap();
            sigma
                .iter()
                .filter(|n| nfd_core::check(&schema, &built.instance, n).unwrap().holds)
                .count()
        }),
    );
    bench.finish();
}
