//! Bench `simple_vs_path_form` (EXPERIMENTS.md §B6): the Section 3.2
//! discussion contrasts the eight-rule path-form presentation against the
//! six-rule simple form. The engine normalizes to simple form internally,
//! so the measurable difference is (a) the normalization cost itself and
//! (b) whether Σ arrives pre-normalized.
//!
//! Expected shape: normalization is cheap (linear in base-path length);
//! engine construction dominated by saturation either way, with the
//! pre-normalized variant saving only the push-in passes.

use nfd_bench::*;
use nfd_core::engine::Engine;
use nfd_core::{simple, Nfd};
use std::hint::black_box;

fn main() {
    let mut bench = Bench::new("B6", "simple_vs_path_form", 10);
    for depth in [1usize, 2, 3, 4] {
        let schema = ladder_schema(depth);
        // The deepest local NFD of the ladder.
        let base: String = (0..depth).map(|d| format!(":s{d}")).collect();
        let local = Nfd::parse(&schema, &format!("R{base}:[k{depth} -> v{depth}]")).unwrap();
        bench.one(
            "to_simple",
            depth,
            "simple",
            bench.time(|| simple::to_simple(black_box(&local))),
        );
        let simple_form = simple::to_simple(&local);
        bench.one(
            "localize",
            depth,
            "simple",
            bench.time(|| simple::localize(black_box(&simple_form))),
        );
    }

    for depth in [2usize, 3, 4] {
        let schema = ladder_schema(depth);
        let sigma_local = ladder_sigma(&schema, depth);
        let sigma_simple: Vec<Nfd> = sigma_local.iter().map(simple::to_simple).collect();
        let build = |sigma: &[Nfd]| {
            Engine::new(black_box(&schema), black_box(sigma))
                .unwrap()
                .pool_size()
        };
        bench.pair(
            "engine_build",
            depth,
            ("path_form", bench.time(|| build(&sigma_local))),
            ("simple_form", bench.time(|| build(&sigma_simple))),
        );
    }
    bench.finish();
}
