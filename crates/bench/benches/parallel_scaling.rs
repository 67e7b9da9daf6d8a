//! Bench `parallel_scaling` (EXPERIMENTS.md §B12): the candidate-key
//! search, the worker pool's one query-side caller, at 2/4/8 threads
//! against one. Each row compares a thread count against one thread on
//! one shape: the paper's Course schema, a flat chain, and the wide-Σ
//! family of B14.
//!
//! The search splits each size level into one task per leading
//! attribute, thousands of closures each on the wide shapes, so its
//! tasks are coarse enough for a pool to pay off there, where a batch's
//! goals, one closure each, are not (DESIGN.md §7). Keys are identical
//! at every thread count, so before timing anything this harness asserts
//! exactly that. Speedup is bounded by the cores the machine exposes
//! (the record's `host_parallelism`); on a single-core box every thread
//! count degenerates to the sequential sweep and the rows measure the
//! pool's overhead.

use nfd::prelude::*;
use nfd_bench::*;
use nfd_core::analysis::candidate_keys_threaded;
use std::hint::black_box;

/// Largest key the search looks for, as `nfdtool keys` does.
const MAX_KEY_SIZE: usize = 4;

fn main() {
    let mut bench = Bench::new("B12", "parallel_scaling", 10);
    let shapes: Vec<(&'static str, usize, Schema, Vec<Nfd>)> = {
        let (course_schema, course_sigma) = course();
        let mut shapes = vec![("keys_course", 4, course_schema, course_sigma)];
        let sizes: &[(&'static str, usize, usize)] = bench.sizes(
            &[("keys_wide_n32", 16, 32)],
            &[
                ("keys_flat_chain", 24, 0),
                ("keys_wide_n32", 16, 32),
                ("keys_wide_n64", 20, 64),
                ("keys_wide_n64", 24, 64),
                ("keys_wide_n128", 24, 128),
            ],
        );
        for &(workload, attrs, n) in sizes {
            let schema = flat_schema(attrs);
            let sigma = if n == 0 {
                flat_chain_sigma(&schema, attrs)
            } else {
                wide_sigma(&schema, attrs, n)
            };
            shapes.push((workload, attrs, schema, sigma));
        }
        shapes
    };

    for (workload, attrs, schema, sigma) in &shapes {
        let engine = Engine::new(schema, sigma).unwrap();
        let relation = schema.relation_names().next().unwrap();

        // The contract the numbers rest on: every thread count finds the
        // sequential sweep's keys.
        let sequential = candidate_keys_threaded(&engine, relation, MAX_KEY_SIZE, 1).unwrap();
        for threads in [2usize, 4, 8] {
            let keys = candidate_keys_threaded(&engine, relation, MAX_KEY_SIZE, threads).unwrap();
            assert_eq!(
                keys, sequential,
                "{workload}/{attrs}, threads = {threads}: keys deviate from the sequential sweep"
            );
        }

        let times: Vec<(&'static str, u128)> = [
            (1, "threads_1"),
            (2, "threads_2"),
            (4, "threads_4"),
            (8, "threads_8"),
        ]
        .into_iter()
        .map(|(threads, name)| {
            let ns = bench.time(|| {
                candidate_keys_threaded(black_box(&engine), relation, MAX_KEY_SIZE, threads)
                    .unwrap()
                    .len()
            });
            (name, ns)
        })
        .collect();
        for &threads in &times[1..] {
            bench.pair(workload, *attrs, times[0], threads);
        }
    }
    bench.finish();
}
