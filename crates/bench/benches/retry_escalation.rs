//! Bench `retry_escalation` (EXPERIMENTS.md §B13): what graceful
//! degradation costs, and what the failpoint plumbing costs when it is
//! compiled out.
//!
//! Two questions:
//!
//! * **Escalation vs. one good budget.** A read polls its budget for
//!   liveness only, so the one exhaustion a read meets without faults is
//!   an expired deadline. A query that starts from an already expired
//!   deadline and heals by retrying (`implies_retry`, factor 4, which
//!   re-arms the timeout at 1 ms) pays for the failed round and the
//!   retry. How much slower is that than one `implies_with` under the
//!   standard budget? The `upfront` call is each row's baseline, so the
//!   speedup reads below 1.
//!
//! * **Feature-off failpoint overhead.** `fail_point!` sites thread the
//!   hot paths of every crate; with the `failpoints` feature disabled
//!   (always, for benches) the macro expands to an empty block. The
//!   `failpoint_free_baseline` rows run the B10/B11-shaped all-pairs
//!   workload through a fresh session and per-goal `implies_with`, so
//!   the engine build and session query sites are on the measured path.
//!   Their numbers are recorded in EXPERIMENTS.md §B13 as their own
//!   drift baseline — the acceptance bar for failpoint plumbing is <1%
//!   drift on re-runs.

use nfd::prelude::*;
use nfd_bench::*;
use nfd_core::Nfd;
use std::hint::black_box;

fn main() {
    let mut bench = Bench::new("B13", "retry_escalation", 10);
    // Retries from an expired deadline vs. the standard budget up front,
    // on one implication query over the flat chain.
    for n in [16usize, 24] {
        let schema = flat_schema(n);
        let sigma = flat_chain_sigma(&schema, n);
        let session = Session::new(&schema, &sigma).unwrap();
        let goal = Nfd::parse(&schema, &format!("R:[a0 -> a{}]", n - 1)).unwrap();
        let expired = Budget::standard().with_timeout_ms(0);
        let policy = RetryPolicy::new(12).with_escalation(4.0);

        // Calibrate: `implies_retry` must end on an answer, not
        // exhaustion, after at least one retry, for the comparison to
        // measure escalation.
        let decision = session.implies_retry(&goal, &expired, &policy).unwrap();
        let rounds = decision.attempts.iter().map(|a| a.round).max().unwrap();
        assert!(
            decision.verdict.as_bool().is_some() && rounds >= 1,
            "calibration: escalation must retry at least once and then answer"
        );

        let standard = Budget::standard();
        bench.pair(
            "escalation",
            n,
            (
                "upfront",
                bench.time(|| {
                    session
                        .implies_with(black_box(&goal), &standard)
                        .unwrap()
                        .verdict
                        .as_bool()
                }),
            ),
            (
                "escalating",
                bench.time(|| {
                    session
                        .implies_retry(black_box(&goal), &expired, &policy)
                        .unwrap()
                        .verdict
                        .as_bool()
                }),
            ),
        );
    }

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
