//! Bench `closure` (EXPERIMENTS.md §B1): cost of the saturation engine —
//! pool construction and implication queries — as Σ grows (flat chains)
//! and as nesting deepens (ladders).
//!
//! Expected shape: pool construction superlinear in |Σ| (resolution
//! saturation), queries cheap after construction; depth multiplies the
//! path vocabulary and the full-locality opportunities, so ladders grow
//! faster than flat chains of the same |Σ|.

use nfd_bench::*;
use nfd_core::engine::Engine;
use nfd_core::Nfd;
use std::hint::black_box;

fn main() {
    let mut bench = Bench::new("B1", "closure", 10);
    for n in [4usize, 8, 16, 32] {
        let schema = flat_schema(n);
        let sigma = flat_chain_sigma(&schema, n);
        bench.one(
            "flat_chain_build",
            n,
            "engine",
            bench.time(|| {
                Engine::new(black_box(&schema), black_box(&sigma))
                    .unwrap()
                    .pool_size()
            }),
        );
        let engine = Engine::new(&schema, &sigma).unwrap();
        let goal = Nfd::parse(&schema, &format!("R:[a0 -> a{}]", n - 1)).unwrap();
        bench.one(
            "flat_chain_query",
            n,
            "engine",
            bench.time(|| engine.implies(black_box(&goal)).unwrap()),
        );
    }

    for depth in [1usize, 2, 3, 4] {
        let schema = ladder_schema(depth);
        let sigma = ladder_sigma(&schema, depth);
        let goal = ladder_goal(&schema, depth);
        bench.one(
            "ladder_build",
            depth,
            "engine",
            bench.time(|| {
                Engine::new(black_box(&schema), black_box(&sigma))
                    .unwrap()
                    .pool_size()
            }),
        );
        let engine = Engine::new(&schema, &sigma).unwrap();
        bench.one(
            "ladder_query",
            depth,
            "engine",
            bench.time(|| engine.implies(black_box(&goal)).unwrap()),
        );
    }

    for depth in [1usize, 2, 3] {
        let schema = ladder_schema(depth);
        let sigma = ladder_sigma(&schema, depth);
        let engine = Engine::new(&schema, &sigma).unwrap();
        let base = nfd_path::RootedPath::parse("R").unwrap();
        let x = vec![nfd_path::Path::parse("k0").unwrap()];
        bench.one(
            "ladder_closure_set",
            depth,
            "engine",
            bench.time(|| {
                engine
                    .closure(black_box(&base), black_box(&x))
                    .unwrap()
                    .len()
            }),
        );
    }
    bench.finish();
}
