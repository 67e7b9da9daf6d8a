//! Bench `emptyset_policies` (EXPERIMENTS.md §B7): overhead of the
//! Section 3.2 gated rules (modified transitivity via `follows`, modified
//! prefix via annotations) relative to the Theorem 3.1 engine.
//!
//! Expected shape: the gates add per-step path comparisons during
//! saturation and chaining — a modest constant factor; the pessimistic
//! policy additionally *prunes* derivations, which can make its pool
//! smaller and its queries faster despite the gate cost.

use nfd_bench::*;
use nfd_core::engine::Engine;
use nfd_core::{EmptySetPolicy, Nfd};
use nfd_model::gen::{GenConfig, Generator};
use nfd_path::RootedPath;
use std::hint::black_box;

fn policies(schema: &nfd_model::Schema, depth: usize) -> Vec<(&'static str, EmptySetPolicy)> {
    // Annotate every spine set of the ladder as non-empty.
    let rel = schema.relation_names().next().unwrap();
    let mut spine = String::new();
    let mut annotated = Vec::new();
    for d in 0..depth {
        if !spine.is_empty() {
            spine.push(':');
        }
        spine.push_str(&format!("s{d}"));
        annotated.push(RootedPath::parse(&format!("{rel}:{spine}")).unwrap());
    }
    vec![
        ("forbidden", EmptySetPolicy::Forbidden),
        ("pessimistic", EmptySetPolicy::pessimistic()),
        ("annotated", EmptySetPolicy::non_empty(annotated)),
    ]
}

fn main() {
    let mut bench = Bench::new("B7", "emptyset_policies", 10);
    let depth = 3;
    let schema = ladder_schema(depth);
    let sigma = ladder_sigma(&schema, depth);
    let goal = ladder_goal(&schema, depth);
    // Each gated policy against the Theorem 3.1 engine (`forbidden`).
    let mut build = Vec::new();
    let mut query = Vec::new();
    for (name, policy) in policies(&schema, depth) {
        build.push((
            name,
            bench.time(|| {
                Engine::with_policy(black_box(&schema), black_box(&sigma), policy.clone())
                    .unwrap()
                    .pool_size()
            }),
        ));
        let engine = Engine::with_policy(&schema, &sigma, policy).unwrap();
        query.push((
            name,
            bench.time(|| engine.implies(black_box(&goal)).unwrap()),
        ));
    }
    for (workload, times) in [("ladder_build", &build), ("ladder_query", &query)] {
        for &gated in &times[1..] {
            bench.pair(workload, depth, times[0], gated);
        }
    }

    // Satisfaction checking on instances with empty sets: vacuous
    // branches make checking *cheaper*, quantifying the Section 3.2
    // phenomenon. The param is the empty-set rate in percent.
    let (schema, _) = course();
    let global = Nfd::parse(&schema, "Course:[students:sid -> students:age]").unwrap();
    for pct in [0usize, 25, 50, 75] {
        let mut g = Generator::new(
            7,
            GenConfig {
                min_set: 0,
                max_set: 4,
                empty_prob: pct as f64 / 100.0,
                domain: 64,
            },
        );
        let inst = g.instance(&schema);
        bench.one(
            "check_vs_empty_rate",
            pct,
            "check",
            bench.time(|| {
                nfd_core::check(&schema, black_box(&inst), &global)
                    .unwrap()
                    .assignments_checked
            }),
        );
    }
    bench.finish();
}
