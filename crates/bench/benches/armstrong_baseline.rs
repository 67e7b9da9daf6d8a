//! Bench `armstrong_baseline` (EXPERIMENTS.md §B5): on flat schemas the
//! NFD engine and the classical attribute-closure algorithm solve the
//! same problem — this measures what the generality of NFDs costs.
//!
//! Expected shape: Armstrong closure is linear and allocation-light; the
//! NFD engine pays a polynomial saturation cost up front (prefix /
//! locality / resolution scans that can never fire on flat paths) and a
//! fixpoint-chaining query. The baseline should win by one to two orders
//! of magnitude — the price of handling nesting uniformly.

use nfd_bench::*;
use nfd_core::engine::Engine;
use nfd_core::Nfd;
use nfd_relational::{attrs, closure, implies, Fd};
use std::hint::black_box;

fn main() {
    let mut bench = Bench::new("B5", "armstrong_baseline", 10);
    for n in [4usize, 8, 16, 32] {
        let schema = flat_schema(n);
        let sigma_nfd = flat_chain_sigma(&schema, n);
        let sigma_fd = flat_chain_fds(n);
        let goal_nfd = Nfd::parse(&schema, &format!("R:[a0 -> a{}]", n - 1)).unwrap();
        let goal_fd = Fd::of(["a0"], [format!("a{}", n - 1).as_str()]);

        let armstrong = bench.time(|| implies(black_box(&sigma_fd), black_box(&goal_fd)));
        bench.pair(
            "implication_cold",
            n,
            ("armstrong", armstrong),
            (
                "nfd_engine",
                bench.time(|| {
                    Engine::new(black_box(&schema), black_box(&sigma_nfd))
                        .unwrap()
                        .implies(&goal_nfd)
                        .unwrap()
                }),
            ),
        );
        let engine = Engine::new(&schema, &sigma_nfd).unwrap();
        bench.pair(
            "implication_warm",
            n,
            ("armstrong", armstrong),
            (
                "nfd_engine",
                bench.time(|| engine.implies(black_box(&goal_nfd)).unwrap()),
            ),
        );
    }

    for n in [8usize, 32] {
        let schema = flat_schema(n);
        let sigma_nfd = flat_chain_sigma(&schema, n);
        let sigma_fd = flat_chain_fds(n);
        let engine = Engine::new(&schema, &sigma_nfd).unwrap();
        let base = nfd_path::RootedPath::parse("R").unwrap();
        let x_paths = vec![nfd_path::Path::parse("a0").unwrap()];
        let x_attrs = attrs(["a0"]);
        bench.pair(
            "closure",
            n,
            (
                "armstrong",
                bench.time(|| closure(black_box(&sigma_fd), black_box(&x_attrs)).len()),
            ),
            (
                "nfd_engine",
                bench.time(|| {
                    engine
                        .closure(black_box(&base), black_box(&x_paths))
                        .unwrap()
                        .len()
                }),
            ),
        );
    }

    // The design algorithms of the relational baseline, on its own.
    let n = 8;
    let sigma = flat_chain_fds(n);
    let names: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
    let universe = attrs(names.iter().map(String::as_str));
    bench.one(
        "candidate_keys",
        n,
        "relational",
        bench
            .time(|| nfd_relational::candidate_keys(black_box(&universe), black_box(&sigma)).len()),
    );
    bench.one(
        "minimal_cover",
        n,
        "relational",
        bench.time(|| nfd_relational::minimal_cover(black_box(&sigma)).len()),
    );
    bench.finish();
}
