//! Bench `budgeted_overhead` (EXPERIMENTS.md §B11): the price of
//! resource governance.
//!
//! Every saturation loop, chase expansion and quantifier enumeration now
//! carries cooperative budget checks — a counter comparison on the hot
//! path plus a deadline/cancellation poll every few thousand iterations.
//! This bench reruns the B10 session workload (flat chain, all-pairs goal
//! batch) under three budgets to measure what those checks cost:
//!
//! * `standard`  — the default budget (generous counters, no deadline),
//!   the baseline of every row;
//! * `unlimited` — every counter at `u64::MAX`, no deadline;
//! * `deadline`  — unlimited counters plus a far-future deadline and a
//!   cancellation token, so every `check_live` poll reads the clock and
//!   the atomic.
//!
//! The acceptance bar for the governance PR is `deadline` within 5% of
//! `standard` on the B10 workload.

use nfd::session::Session;
use nfd_bench::*;
use nfd_core::{EmptySetPolicy, Nfd};
use nfd_govern::{Budget, CancelToken};
use std::hint::black_box;
use std::time::Duration;

fn budgets() -> Vec<(&'static str, Budget)> {
    vec![
        ("standard", Budget::standard()),
        ("unlimited", Budget::unlimited()),
        (
            "deadline",
            Budget::unlimited()
                .with_timeout(Duration::from_secs(3600))
                .with_cancel(CancelToken::new()),
        ),
    ]
}

/// One row per governed budget against `standard`, from the times of
/// [`budgets`] in order.
fn against_standard(
    bench: &mut Bench,
    workload: &'static str,
    param: usize,
    times: &[(&'static str, u128)],
) {
    for &governed in &times[1..] {
        bench.pair(workload, param, times[0], governed);
    }
}

fn main() {
    let mut bench = Bench::new("B11", "budgeted_overhead", 10);
    // Build + all-pairs query batch under each budget flavour — the same
    // work as B10's `one_session`, now with governance on.
    for n in [8usize, 16, 24] {
        let schema = flat_schema(n);
        let sigma = flat_chain_sigma(&schema, n);
        let goals = all_pairs_goals(&schema, n);
        let times: Vec<_> = budgets()
            .into_iter()
            .map(|(label, budget)| {
                let ns = bench.time(|| {
                    let session = Session::with_budget(
                        black_box(&schema),
                        black_box(&sigma),
                        EmptySetPolicy::Forbidden,
                        budget.clone(),
                    )
                    .unwrap();
                    goals
                        .iter()
                        .filter(|g| session.implies(black_box(g)).unwrap())
                        .count()
                });
                (label, ns)
            })
            .collect();
        against_standard(&mut bench, "session_batch", n, &times);
    }

    // Steady-state queries over a prebuilt session, per budget — the
    // per-query overhead with compilation sunk.
    let n = 16usize;
    let schema = flat_schema(n);
    let sigma = flat_chain_sigma(&schema, n);
    let goals = all_pairs_goals(&schema, n);
    let times: Vec<_> = budgets()
        .into_iter()
        .map(|(label, budget)| {
            let session =
                Session::with_budget(&schema, &sigma, EmptySetPolicy::Forbidden, budget).unwrap();
            let ns = bench.time(|| {
                goals
                    .iter()
                    .filter(|g| session.implies(black_box(g)).unwrap())
                    .count()
            });
            (label, ns)
        })
        .collect();
    against_standard(&mut bench, "steady_state", n, &times);

    // The chase under governance: assignment counting dominates its
    // checks.
    let (schema, sigma) = course();
    let goal = Nfd::parse(&schema, "Course:[time, students:sid -> books]").unwrap();
    let times: Vec<_> = budgets()
        .into_iter()
        .map(|(label, budget)| {
            let ns = bench.time(|| {
                nfd_chase::chase_with(
                    black_box(&schema),
                    black_box(&sigma),
                    black_box(&goal),
                    &budget,
                )
                .unwrap()
                .implied
            });
            (label, ns)
        })
        .collect();
    against_standard(&mut bench, "course_chase", sigma.len(), &times);
    bench.finish();
}
