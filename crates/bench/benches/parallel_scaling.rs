//! Bench `parallel_scaling` (EXPERIMENTS.md §B12): throughput of
//! `Session::implies_batch` at 1/2/4/8 worker threads on the B10
//! workload (the flat transitive chain with every single-attribute
//! implication question as the goal batch). Each row compares a thread
//! count against one thread.
//!
//! The batch contract is results bit-identical to a sequential
//! `implies_with` loop at every thread count, so before timing anything
//! this harness asserts exactly that — a benchmark of a pool that
//! answers differently would be meaningless. Speedup is bounded by the
//! cores the machine exposes (the record's `host_parallelism`); on a
//! single-core box all thread counts degenerate to sequential execution
//! and the interesting number is the pool overhead.

use nfd::prelude::*;
use nfd::session::Decision;
use nfd_bench::*;
use std::hint::black_box;

fn main() {
    let mut bench = Bench::new("B12", "parallel_scaling", 10);
    for n in [16usize, 24] {
        let schema = flat_schema(n);
        let sigma = flat_chain_sigma(&schema, n);
        let goals = all_pairs_goals(&schema, n);
        let session = Session::new(&schema, &sigma).unwrap();
        let budget = Budget::standard();

        // The contract the numbers rest on: every thread count reproduces
        // the sequential loop exactly.
        let sequential: Vec<Result<Decision, CoreError>> = goals
            .iter()
            .map(|g| Ok(session.implies_with(g, &budget).unwrap()))
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let batch = session.implies_batch(&goals, &budget, threads).unwrap();
            assert_eq!(
                batch.decisions, sequential,
                "threads = {threads}: batch deviates from the sequential loop"
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
                session
                    .implies_batch(black_box(&goals), &budget, threads)
                    .unwrap()
                    .implied_count()
            });
            (name, ns)
        })
        .collect();
        for &threads in &times[1..] {
            bench.pair("batch_threads", n, times[0], threads);
        }
    }
    bench.finish();
}
