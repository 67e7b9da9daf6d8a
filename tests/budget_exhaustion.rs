//! Resource governance: budgets, deadlines and cancellation produce
//! `Exhausted` — an honest "don't know" — and never a wrong verdict, a
//! panic, or a runaway computation.

use nfd::core::nfd::parse_set;
use nfd::core::CoreError;
use nfd::prelude::*;
use std::time::{Duration, Instant};

fn course() -> (Schema, Vec<Nfd>) {
    let schema = Schema::parse(
        "Course : { <cnum: string, time: int,
                     students: {<sid: int, age: int, grade: string>},
                     books: {<isbn: string, title: string>}> };",
    )
    .unwrap();
    let sigma = parse_set(
        &schema,
        "Course:[cnum -> time]; Course:[cnum -> students]; Course:[cnum -> books];
         Course:[books:isbn -> books:title];
         Course:students:[sid -> grade];
         Course:[students:sid -> students:age];
         Course:[time, students:sid -> cnum];",
    )
    .unwrap();
    (schema, sigma)
}

fn worked_example() -> (Schema, Vec<Nfd>) {
    let schema =
        Schema::parse("R : { <A: {<B: {<C: int>}, E: {<F: int, G: int>}>}, D: int> };").unwrap();
    let sigma = parse_set(&schema, "R:[A:B:C, D -> A:E:F]; R:A:[B -> E:G];").unwrap();
    (schema, sigma)
}

/// E1–E12: the paper's worked goals. A budgeted query under an unlimited
/// budget must agree with the plain (unbudgeted) session verdict on every
/// one, and must report which decider answered.
#[test]
fn cascade_agrees_with_unbudgeted_verdicts_on_paper_goals() {
    let (course_schema, course_sigma) = course();
    let (ex_schema, ex_sigma) = worked_example();
    let course_goals = [
        "Course:[time, students:sid -> books]",  // E1
        "Course:[cnum -> students:age]",         // E2
        "Course:[time -> cnum]",                 // E3
        "Course:[books:title -> books:isbn]",    // E4
        "Course:[cnum -> time]",                 // E5
        "Course:[students:sid -> students:age]", // E6
        "Course:students:[sid -> grade]",        // E7
        "Course:[time, students:sid -> cnum]",   // E8
    ];
    let ex_goals = [
        "R:A:[B -> E]",          // E9
        "R:[D -> A]",            // E10
        "R:[A -> D]",            // E11
        "R:[A:B:C, D -> A:E:F]", // E12
    ];
    for (schema, sigma, goals) in [
        (&course_schema, &course_sigma, &course_goals[..]),
        (&ex_schema, &ex_sigma, &ex_goals[..]),
    ] {
        let session = Session::new(schema, sigma).unwrap();
        for goal_text in goals {
            let goal = Nfd::parse(schema, goal_text).unwrap();
            let truth = session.implies(&goal).unwrap();
            let decision = session.implies_with(&goal, &Budget::unlimited()).unwrap();
            assert_eq!(
                decision.verdict.as_bool(),
                Some(truth),
                "budgeted query disagrees with unbudgeted verdict on {goal_text}"
            );
            assert!(decision.answered_by().is_some(), "{goal_text}");
        }
    }
}

/// Sweeping counter caps from zero upward: a read polls its budget for
/// liveness only and answers from the resident pools, so every cap —
/// even one far below the Course pool — answers, correctly, from one
/// saturation attempt.
#[test]
fn tiny_budgets_never_give_wrong_verdicts() {
    let (schema, sigma) = course();
    let session = Session::new(&schema, &sigma).unwrap();
    for goal_text in [
        "Course:[time, students:sid -> books]",
        "Course:[time -> cnum]",
        "Course:[cnum -> students:grade]",
    ] {
        let goal = Nfd::parse(&schema, goal_text).unwrap();
        let truth = session.implies(&goal).unwrap();
        for n in 0..40u64 {
            let decision = session.implies_with(&goal, &Budget::limited(n)).unwrap();
            assert_eq!(
                decision.verdict.as_bool(),
                Some(truth),
                "cap {n} on {goal_text}: {decision:?}"
            );
            let deciders: Vec<&str> = decision.attempts.iter().map(|a| a.decider).collect();
            assert_eq!(deciders, ["saturation"], "cap {n} on {goal_text}");
        }
        // A generous budget always answers, and correctly.
        let decision = session
            .implies_with(&goal, &Budget::limited(1_000_000))
            .unwrap();
        assert_eq!(decision.verdict.as_bool(), Some(truth), "{goal_text}");
    }
}

/// A pre-cancelled token stops everything immediately: session build and
/// queries both return `Cancelled` exhaustion, promptly.
#[test]
fn precancelled_token_stops_build_and_queries() {
    let (schema, sigma) = course();
    let token = CancelToken::new();
    token.cancel();

    let start = Instant::now();
    match Session::with_budget(
        &schema,
        &sigma,
        EmptySetPolicy::Forbidden,
        Budget::standard().with_cancel(token.clone()),
    ) {
        Err(CoreError::Exhausted(r)) => assert_eq!(r.kind, ResourceKind::Cancelled),
        Ok(_) => panic!("expected cancelled build"),
        Err(e) => panic!("expected cancellation, got {e}"),
    }
    assert!(start.elapsed() < Duration::from_secs(5));

    let session = Session::new(&schema, &sigma).unwrap();
    let goal = Nfd::parse(&schema, "Course:[cnum -> time]").unwrap();
    let decision = session
        .implies_with(&goal, &Budget::unlimited().with_cancel(token))
        .unwrap();
    assert!(decision.verdict.is_exhausted());
}

/// Cancelling from another thread interrupts a large saturation mid-run.
/// The run either observes the cancellation (the expected case) or — on
/// an implausibly fast machine — completes first; it must never hang,
/// panic, or return a fabricated verdict.
#[test]
fn cancellation_interrupts_saturation_mid_run() {
    // A dense cyclic FD chain over many attributes: saturation derives
    // O(n²) dependencies, far more work than the cancellation delay.
    let n = 220usize;
    let attrs = (0..n)
        .map(|i| format!("a{i}: int"))
        .collect::<Vec<_>>()
        .join(", ");
    let schema = Schema::parse(&format!("W : {{<{attrs}>}};")).unwrap();
    let deps = (0..n)
        .map(|i| format!("W:[a{i} -> a{}];", (i + 1) % n))
        .collect::<String>();
    let sigma = parse_set(&schema, &deps).unwrap();

    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            token.cancel();
        })
    };
    let start = Instant::now();
    let built = Engine::with_budget(
        &schema,
        &sigma,
        EmptySetPolicy::Forbidden,
        Budget::unlimited().with_cancel(token),
    );
    let elapsed = start.elapsed();
    canceller.join().unwrap();
    match built {
        Err(CoreError::Exhausted(r)) => assert_eq!(r.kind, ResourceKind::Cancelled),
        Ok(_) => {} // finished before the cancel fired; nothing to check
        Err(e) => panic!("unexpected error: {e}"),
    }
    // Promptness: cancellation (or completion) must not be orders of
    // magnitude slower than the polling granularity.
    assert!(elapsed < Duration::from_secs(60), "took {elapsed:?}");
}

/// Adversarial nesting vs. a wall-clock deadline: the chase's template
/// for a deeply nested schema is exponential, but the deadline cuts the
/// run off within the polling granularity — well before memory blows up.
#[test]
fn deadline_bounds_adversarial_chase() {
    let depth = 14usize;
    let mut ty = String::from("int");
    for level in (0..depth).rev() {
        ty = format!("{{<f{level}: {ty}, g{level}: int>}}");
    }
    let schema = Schema::parse(&format!("R : {ty};")).unwrap();
    let goal_path = (0..depth)
        .map(|l| format!("f{l}"))
        .collect::<Vec<_>>()
        .join(":");
    let goal_text = format!("R:[{goal_path} -> g0]");
    let goal = Nfd::parse(&schema, &goal_text).unwrap();

    let budget = Budget::unlimited().with_timeout_ms(100);
    let start = Instant::now();
    let result = nfd::chase::chase_with(&schema, &[], &goal, &budget);
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(30),
        "deadline did not bound the run: {elapsed:?}"
    );
    if let Err(e) = result {
        assert!(
            matches!(e, nfd::chase::ChaseError::Exhausted(_)),
            "expected exhaustion, got {e}"
        );
    }
}

/// The three-valued verdict helpers behave.
#[test]
fn verdict_accessors() {
    assert_eq!(Verdict::from_bool(true), Verdict::Implied);
    assert_eq!(Verdict::Implied.as_bool(), Some(true));
    assert_eq!(Verdict::NotImplied.as_bool(), Some(false));
    let r = ResourceReport::counter(ResourceKind::ChaseSteps, 5, 6);
    assert_eq!(Verdict::Exhausted(r.clone()).as_bool(), None);
    assert!(Verdict::Exhausted(r).is_exhausted());
}

/// Regression: a zero-millisecond timeout is a budget that is *already*
/// past its deadline. It must trip on the first liveness check with a
/// coherent deadline report (limit = the configured timeout, used ≥
/// limit), not underflow, hang, or report a mislabeled counter.
#[test]
fn zero_timeout_exhausts_immediately_with_a_coherent_report() {
    let (schema, sigma) = course();
    let session = Session::new(&schema, &sigma).unwrap();
    let goal = Nfd::parse(&schema, "Course:[cnum -> time]").unwrap();

    let start = Instant::now();
    let decision = session
        .implies_with(&goal, &Budget::standard().with_timeout_ms(0))
        .unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "must trip, not spin"
    );
    match &decision.verdict {
        Verdict::Exhausted(r) => {
            assert_eq!(r.kind, ResourceKind::Deadline);
            assert_eq!(r.limit, 0, "the report names the configured timeout");
            assert!(
                r.to_string().contains("deadline"),
                "report reads as a deadline: {r}"
            );
        }
        other => panic!("a zero deadline cannot produce a verdict: {other:?}"),
    }

    // Build-path too: compiling a session under an expired deadline.
    match Session::with_budget(
        &schema,
        &sigma,
        EmptySetPolicy::Forbidden,
        Budget::standard().with_timeout_ms(0),
    ) {
        Err(CoreError::Exhausted(r)) => assert_eq!(r.kind, ResourceKind::Deadline),
        Ok(_) => panic!("expected an exhausted build"),
        Err(e) => panic!("expected deadline exhaustion, got {e}"),
    }
}

/// Regression: zero-limit counters trip on the *first* unit of work with
/// `used > limit` in the report, never a wrap-around or a free pass.
/// Counters govern builds, so the compile is where they trip: on the
/// first pool entry.
#[test]
fn zero_limit_counters_trip_coherently() {
    let (schema, sigma) = course();
    match Session::with_budget(
        &schema,
        &sigma,
        EmptySetPolicy::Forbidden,
        Budget::limited(0),
    ) {
        Err(CoreError::Exhausted(r)) => {
            assert_eq!(r, ResourceReport::counter(ResourceKind::PoolDeps, 0, 1))
        }
        Ok(_) => panic!("a zero budget cannot build a pool"),
        Err(e) => panic!("expected pool exhaustion, got {e}"),
    }
}

/// An expired deadline is the one thing, short of a cancellation or a
/// fault, that stops a read, and it stops it in one attempt: a read runs
/// once under the budget its caller gives and never retries. A deadline
/// report's `used` is elapsed milliseconds, so only its kind is compared.
#[test]
fn an_expired_deadline_stops_a_read_after_one_attempt() {
    let (schema, sigma) = course();
    let session = Session::new(&schema, &sigma).unwrap();
    let goal = Nfd::parse(&schema, "Course:[time -> cnum]").unwrap();

    let starved = Budget::standard().with_timeout_ms(0);
    let decision = session.implies_with(&goal, &starved).unwrap();
    let deciders: Vec<&str> = decision.attempts.iter().map(|a| a.decider).collect();
    assert_eq!(deciders, ["saturation"], "{decision:?}");
    assert!(
        matches!(&decision.verdict, Verdict::Exhausted(r) if r.kind == ResourceKind::Deadline),
        "{decision:?}"
    );
}

/// An expired deadline stops a batch at its first goal, and every later
/// goal carries the batch's cancellation: nothing in the batch answers,
/// and nothing re-runs.
#[test]
fn an_expired_deadline_exhausts_every_batch_goal() {
    let (schema, sigma) = course();
    let session = Session::new(&schema, &sigma).unwrap();
    let goals: Vec<Nfd> = [
        "Course:[time, students:sid -> books]",
        "Course:[time -> cnum]",
        "Course:[cnum -> students:age]",
        "Course:[books:title -> books:isbn]",
    ]
    .iter()
    .map(|t| Nfd::parse(&schema, t).unwrap())
    .collect();

    let starved = Budget::standard().with_timeout_ms(0);
    let batch = session.implies_batch(&goals, &starved, 1).unwrap();
    assert_eq!(
        batch.first_exhausted,
        Some(0),
        "an expired deadline stops the batch"
    );
    assert_eq!(batch.exhausted_count(), goals.len(), "{batch:?}");
    assert_eq!(batch.failed_count(), 0);
    for (i, slot) in batch.decisions.iter().enumerate() {
        assert_eq!(slot.as_ref().unwrap().attempts.len(), 1, "goal {i}");
    }
}

/// A cancelled budget stops a read at once, with one attempt: the
/// caller's stop request is final.
#[test]
fn a_cancelled_budget_stops_a_read_at_once() {
    let (schema, sigma) = course();
    let session = Session::new(&schema, &sigma).unwrap();
    let goal = Nfd::parse(&schema, "Course:[cnum -> time]").unwrap();
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::standard().with_cancel(token);

    let start = Instant::now();
    let decision = session.implies_with(&goal, &budget).unwrap();
    assert!(start.elapsed() < Duration::from_secs(5));
    assert!(
        matches!(&decision.verdict, Verdict::Exhausted(r) if r.kind == ResourceKind::Cancelled),
        "{decision:?}"
    );
    assert_eq!(decision.attempts.len(), 1, "{decision:?}");
}
