//! Concurrency invariants of the shared [`Session`] and the batch
//! executor: many threads hammering one compiled session must observe
//! identical answers regardless of scheduling, and an expired deadline or
//! an external cancellation must preempt the budgeted loops promptly
//! (they poll every ~4096 work units, so a cancelled run does a small
//! fraction of the full work).

mod common;

use common::{course_schema, course_sigma, random_nfd, random_schema, random_sigma, SchemaShape};
use nfd::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Fisher–Yates over goal indices, so every thread visits the same goals
/// in its own seeded order.
fn shuffled_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// A flat transitive chain `a0 → a1 → … → a{n-1}` — saturation cost grows
/// superlinearly with `n`, which makes it the heavy workload for the
/// promptness tests.
fn chain_problem(n: usize) -> (Schema, Vec<Nfd>) {
    let fields = (0..n)
        .map(|i| format!("a{i}: int"))
        .collect::<Vec<_>>()
        .join(", ");
    let schema = Schema::parse(&format!("R : {{<{fields}>}};")).unwrap();
    let text = (0..n - 1)
        .map(|i| format!("R:[a{i} -> a{}];", i + 1))
        .collect::<String>();
    let sigma = nfd::core::nfd::parse_set(&schema, &text).unwrap();
    (schema, sigma)
}

#[test]
fn hammering_one_session_from_many_threads_is_deterministic() {
    for seed in 0..6u64 {
        let schema = random_schema(seed, SchemaShape::default());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0C0);
        let sigma = random_sigma(&mut rng, &schema, 6);
        let goals: Vec<Nfd> = (0..40)
            .filter_map(|_| random_nfd(&mut rng, &schema))
            .take(16)
            .collect();
        let session = Session::new(&schema, &sigma).expect("generated Σ compiles");
        let budget = Budget::standard();

        let reference: Vec<Decision> = goals
            .iter()
            .map(|g| session.implies_with(g, &budget).expect("decides"))
            .collect();

        // Each worker walks the same goal set in its own shuffled order;
        // every observation must match the sequential reference.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8u64)
                .map(|worker| {
                    let session = &session;
                    let goals = &goals;
                    let budget = &budget;
                    scope.spawn(move || {
                        let mut seen: Vec<(usize, Decision)> = Vec::new();
                        for i in shuffled_indices(goals.len(), seed * 31 + worker) {
                            let d = session.implies_with(&goals[i], budget).expect("decides");
                            seen.push((i, d));
                        }
                        seen
                    })
                })
                .collect();
            for h in handles {
                for (i, d) in h.join().expect("worker completes") {
                    assert_eq!(
                        d, reference[i],
                        "seed {seed}: goal {i} answered differently under contention"
                    );
                }
            }
        });
    }
}

#[test]
fn concurrent_batches_and_key_searches_agree() {
    let schema = course_schema();
    let sigma = course_sigma(&schema);
    let session = Session::new(&schema, &sigma).unwrap();
    let goals: Vec<Nfd> = [
        "Course:[time, students:sid -> books]",
        "Course:[time -> cnum]",
        "Course:[cnum -> books]",
        "Course:[books:isbn -> books:title]",
    ]
    .iter()
    .map(|t| Nfd::parse(&schema, t).unwrap())
    .collect();
    let budget = Budget::standard();
    let batch_ref = session.implies_batch(&goals, &budget, 1).unwrap();
    let keys_ref = session.candidate_keys(Label::new("Course"), 3).unwrap();

    // Batches, and key searches at mixed thread counts, racing on one
    // session all reproduce the sequential answers.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6usize)
            .map(|worker| {
                let session = &session;
                let goals = &goals;
                let budget = &budget;
                scope.spawn(move || {
                    let threads = [1, 2, 8][worker % 3];
                    let batch = session.implies_batch(goals, budget, 1).unwrap();
                    let keys = session
                        .candidate_keys_threaded(Label::new("Course"), 3, threads)
                        .unwrap();
                    (batch, keys)
                })
            })
            .collect();
        for h in handles {
            let (batch, keys) = h.join().expect("worker completes");
            assert_eq!(batch, batch_ref);
            assert_eq!(keys, keys_ref);
        }
    });
}

#[test]
fn an_expired_deadline_stops_the_whole_batch_promptly() {
    // Reference: the full saturation of the chain is the work a runaway
    // batch would do. A budget that exhausts almost immediately must end
    // the whole batch in a small fraction of that time: every goal's read
    // polls the caller's deadline before it chains.
    let (schema, sigma) = chain_problem(64);
    let full = Instant::now();
    let session = Session::new(&schema, &sigma).unwrap();
    let full_time = full.elapsed();

    let goals: Vec<Nfd> = (0..12)
        .map(|i| Nfd::parse(&schema, &format!("R:[a{i} -> a{}]", i + 40)).unwrap())
        .collect();
    // An expired deadline is what stops a read (a counter cap never
    // does): every goal exhausts at its first liveness poll.
    let starved = Budget::standard().with_timeout_ms(0);
    let t = Instant::now();
    let batch = session.implies_batch(&goals, &starved, 1).unwrap();
    let starved_time = t.elapsed();

    assert_eq!(batch.first_exhausted, Some(0), "goal 0 starves first");
    assert!(
        batch
            .decisions
            .iter()
            .all(|d| matches!(d, Ok(d) if d.verdict.is_exhausted())),
        "every goal is honestly exhausted, never mis-answered"
    );
    // Generous headroom: the starved batch polls one deadline per goal
    // against the chain's ~170k-pair full saturation.
    assert!(
        starved_time < full_time,
        "a starved batch ({starved_time:?}) must not redo the full \
         saturation ({full_time:?})"
    );
}

#[test]
fn external_cancellation_preempts_a_heavy_compile() {
    // Calibrate the workload so the uncancelled compile would take at
    // least ~400ms on this machine, then cancel early and require the
    // compile to return well before the full work completes. The ladder
    // reaches well past n=200 because the indexed saturation kernel
    // builds chains far faster than the old all-pairs scan did. Queries
    // answer from the resident pools and never saturate, so the compile
    // is the heavy work a cancellation has to preempt.
    let mut calibrated = None;
    for n in [100usize, 140, 200, 280, 400, 560, 800] {
        let (schema, sigma) = chain_problem(n);
        let t = Instant::now();
        let session = Session::new(&schema, &sigma).unwrap();
        let build = t.elapsed();
        if build >= Duration::from_millis(400) {
            calibrated = Some((schema, sigma, build));
            break;
        }
        drop(session);
    }
    let Some((schema, sigma, full_time)) = calibrated else {
        panic!("even the largest chain saturates in <400ms; grow the calibration sizes");
    };

    let token = CancelToken::new();
    let budget = Budget::standard().with_cancel(token.clone());
    let delay = full_time / 10;
    let t = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(delay);
            token.cancel();
        });
        // The cancel lands mid-saturation and must preempt it.
        let err = Session::with_budget(&schema, &sigma, EmptySetPolicy::Forbidden, budget).err();
        let elapsed = t.elapsed();
        assert!(
            matches!(&err, Some(CoreError::Exhausted(r)) if r.kind == ResourceKind::Cancelled),
            "a cancelled compile reports cancellation, never a session: {err:?}"
        );
        assert!(
            elapsed < full_time / 2 + delay,
            "cancellation after {delay:?} must preempt the ≈{full_time:?} build, \
             took {elapsed:?}"
        );
    });
}

#[test]
fn already_cancelled_budget_refuses_all_work_consistently() {
    let schema = course_schema();
    let sigma = course_sigma(&schema);
    let session = Session::new(&schema, &sigma).unwrap();
    let goals: Vec<Nfd> = ["Course:[cnum -> time]", "Course:[time -> cnum]"]
        .iter()
        .map(|t| Nfd::parse(&schema, t).unwrap())
        .collect();
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::standard().with_cancel(token);
    let batch = session.implies_batch(&goals, &budget, 1).unwrap();
    assert!(batch
        .decisions
        .iter()
        .all(|d| matches!(d, Ok(d) if d.verdict.is_exhausted())));
    assert_eq!(batch.first_exhausted, Some(0));
}

/// Graceful degradation: one goal's read panicking mid-`implies_batch`
/// (injected through the `engine::implies` failpoint) must be
/// contained to its own goal — surfaced as `Err(Internal)` in that slot —
/// while every sibling still matches the fault-free reference, and the
/// same `Session` serves the next batch as if nothing happened.
///
/// Runs only under `--features failpoints`; the registry is
/// process-global, so CI runs this binary with `--test-threads=1` when
/// the feature is on (other tests here issue batches of their own and
/// would otherwise eat the count-limited panic).
#[cfg(feature = "failpoints")]
#[test]
fn one_panicking_worker_degrades_only_its_own_goal() {
    use nfd::faults;

    let schema = course_schema();
    let sigma = course_sigma(&schema);
    let session = Session::new(&schema, &sigma).unwrap();
    let goals: Vec<Nfd> = [
        "Course:[time, students:sid -> books]",
        "Course:[cnum -> time]",
        "Course:[time -> cnum]",
        "Course:[books:isbn -> books:title]",
        "Course:[books:title -> books:isbn]",
        "Course:[cnum -> students]",
    ]
    .iter()
    .map(|t| Nfd::parse(&schema, t).unwrap())
    .collect();
    let budget = Budget::standard();
    let reference = session.implies_batch(&goals, &budget, 1).unwrap();
    assert!(reference.decisions.iter().all(|d| d.is_ok()));

    // Exactly one firing: the first goal's read reaches the site first
    // and panics; its siblings must not notice.
    faults::configure_limited("engine::implies", 1, faults::FaultAction::Panic);
    let degraded = session.implies_batch(&goals, &budget, 1).unwrap();
    faults::reset();

    let failed: Vec<usize> = degraded
        .decisions
        .iter()
        .enumerate()
        .filter_map(|(i, d)| d.is_err().then_some(i))
        .collect();
    assert_eq!(failed, [0usize], "exactly the first goal fails: {failed:?}");
    assert_eq!(degraded.failed_count(), 1);
    match &degraded.decisions[failed[0]] {
        Err(CoreError::Internal(msg)) => {
            assert!(
                msg.contains("panicked"),
                "internal error names the panic: {msg}"
            )
        }
        other => panic!("expected Err(Internal), got {other:?}"),
    }
    for (i, (got, want)) in degraded
        .decisions
        .iter()
        .zip(&reference.decisions)
        .enumerate()
    {
        if i != failed[0] {
            assert_eq!(got, want, "sibling goal {i} deviates after a worker panic");
        }
    }

    // The session is not poisoned: the next batch reproduces the
    // reference exactly.
    let after = session.implies_batch(&goals, &budget, 1).unwrap();
    assert_eq!(after, reference, "session unusable after a contained panic");
}
