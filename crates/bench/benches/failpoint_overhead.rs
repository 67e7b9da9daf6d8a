//! Bench `failpoint_overhead` (EXPERIMENTS.md §B13): what the failpoint
//! plumbing costs when it is compiled out.
//!
//! `fail_point!` sites thread the hot paths of every crate; with the
//! `failpoints` feature disabled (always, for benches) the macro expands
//! to an empty block. The `failpoint_free_baseline` rows run the
//! B10/B11-shaped all-pairs workload through a fresh session and
//! per-goal `implies_with`, so the engine build and session query sites
//! are on the measured path. Their numbers are recorded in
//! EXPERIMENTS.md §B13 as their own drift baseline — the acceptance bar
//! for failpoint plumbing is <1% drift on re-runs.

use nfd::prelude::*;
use nfd_bench::*;
use std::hint::black_box;

fn main() {
    let mut bench = Bench::new("B13", "failpoint_overhead", 10);
    // The B11 standard-budget workload, rerun so feature-off failpoint
    // overhead shows up as drift against EXPERIMENTS.md §B11.
    for n in [12usize, 16] {
        let schema = flat_schema(n);
        let sigma = flat_chain_sigma(&schema, n);
        let goals = all_pairs_goals(&schema, n);
        let budget = Budget::standard();
        bench.one(
            "failpoint_free_baseline",
            n,
            "standard",
            bench.time(|| {
                let session = Session::new(&schema, &sigma).unwrap();
                goals
                    .iter()
                    .filter(|goal| {
                        let d = session.implies_with(black_box(goal), &budget).unwrap();
                        d.verdict.as_bool() == Some(true)
                    })
                    .count()
            }),
        );
    }
    bench.finish();
}
