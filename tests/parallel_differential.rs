//! Differential lockdown of the batch read and of parallel proof
//! extraction.
//!
//! `Session::implies_batch` is its goals' reads, one after another on
//! the caller's thread, so it promises results bit-identical to a
//! sequential `implies_with` loop — verdicts, attempt logs and
//! exhaustion reports alike, including under tiny counter caps. Proof
//! extraction over the shared saturated engine must not notice a worker
//! pool either. These tests hold both to that promise over seeded random
//! `(Schema, Σ, goals)` batches, so any dependence shows up as a
//! reproducible seed.

mod common;

use common::{random_nfd, random_schema, random_sigma, SchemaShape};
use nfd::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A seeded random problem: schema, Σ, and a goal batch (goals are drawn
/// from the same generator as Σ, so some are implied, some not).
fn problem(seed: u64, goals: usize) -> (Schema, Vec<Nfd>, Vec<Nfd>) {
    let schema = random_schema(seed, SchemaShape::default());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
    let sigma = random_sigma(&mut rng, &schema, 6);
    let batch: Vec<Nfd> = (0..goals * 2)
        .filter_map(|_| random_nfd(&mut rng, &schema))
        .take(goals)
        .collect();
    (schema, sigma, batch)
}

#[test]
fn batch_equals_sequential_loop_on_random_problems() {
    for seed in 0..25u64 {
        let (schema, sigma, goals) = problem(seed, 12);
        let session = Session::new(&schema, &sigma).expect("generated Σ compiles");
        let budget = Budget::standard();
        let sequential: Vec<Result<Decision, CoreError>> = goals
            .iter()
            .map(|g| {
                session
                    .implies_with(g, &budget)
                    .map(Ok)
                    .expect("seed {seed}")
            })
            .collect();
        let batch = session
            .implies_batch(&goals, &budget, 1)
            .expect("batch runs");
        assert_eq!(
            batch.decisions, sequential,
            "seed {seed}: batch deviates from the sequential loop"
        );
        assert_eq!(batch.first_exhausted, None, "seed {seed}");
    }
}

#[test]
fn counter_capped_batches_agree_with_the_uncapped_batch() {
    // A read charges no counter, so small counter caps never stop a
    // batch: every goal is decided, and the whole BatchDecision
    // (verdicts, attempts, the cutoff index) must not notice the cap.
    for seed in 0..25u64 {
        let (schema, sigma, goals) = problem(seed, 12);
        let session = Session::new(&schema, &sigma).expect("generated Σ compiles");
        let reference = session
            .implies_batch(&goals, &Budget::standard(), 1)
            .expect("batch runs");
        for cap in [1u64, 8, 64, 512] {
            let batch = session
                .implies_batch(&goals, &Budget::limited(cap), 1)
                .expect("batch runs");
            assert_eq!(
                batch.first_exhausted, None,
                "seed {seed}, cap {cap}: a counter cap stopped the batch"
            );
            assert_eq!(
                batch, reference,
                "seed {seed}, cap {cap}: capped batch deviates"
            );
        }
    }
}

#[test]
fn counter_caps_never_exhaust_or_flip_a_verdict() {
    // A counter-capped batch answers every goal from the resident pools,
    // and each answer must match the generously budgeted ground truth.
    for seed in 0..15u64 {
        let (schema, sigma, goals) = problem(seed, 10);
        let session = Session::new(&schema, &sigma).expect("generated Σ compiles");
        let truth: Vec<Option<bool>> = goals
            .iter()
            .map(|g| {
                session
                    .implies_with(g, &Budget::standard())
                    .expect("standard budget decides")
                    .verdict
                    .as_bool()
            })
            .collect();
        for cap in [1u64, 16, 256] {
            let batch = session
                .implies_batch(&goals, &Budget::limited(cap), 1)
                .expect("batch runs");
            assert_eq!(
                batch.first_exhausted, None,
                "seed {seed}, cap {cap}: a counter cap stopped the batch"
            );
            for (i, d) in batch.decisions.iter().enumerate() {
                let d = d.as_ref().expect("no faults injected, no goal fails");
                assert_eq!(
                    d.verdict.as_bool(),
                    truth[i],
                    "seed {seed}, cap {cap}, goal {i}: \
                     a capped run answered differently from ground truth"
                );
            }
        }
    }
}

#[test]
fn proofs_are_identical_under_parallel_querying() {
    // Proof extraction runs over the shared saturated engine; hammering
    // it from a worker pool must reproduce the sequential certificates
    // step for step.
    for seed in 0..10u64 {
        let (schema, sigma, goals) = problem(seed, 10);
        let session = Session::new(&schema, &sigma).expect("generated Σ compiles");
        let sequential: Vec<Option<nfd::core::proof::Proof>> = goals
            .iter()
            .map(|g| session.prove(g).expect("prove runs"))
            .collect();
        for threads in [2usize, 8] {
            let parallel = nfd::par::map_indexed(goals.len(), threads, |i| {
                session.prove(&goals[i]).expect("prove runs")
            });
            assert_eq!(
                parallel, sequential,
                "seed {seed}, threads {threads}: proofs deviate"
            );
        }
        // Every certificate replays against the session.
        for pf in sequential.into_iter().flatten() {
            session.verify(&pf).expect("certificate verifies");
        }
    }
}

#[test]
fn batch_over_the_paper_example_is_stable() {
    let schema = common::course_schema();
    let sigma = common::course_sigma(&schema);
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
    assert_eq!(reference.implied_count(), 4);
    assert_eq!(reference.first_exhausted, None);
    // The repeat answers every goal from the closure cache, which must
    // not change a decision.
    assert_eq!(
        session.implies_batch(&goals, &budget, 1).unwrap(),
        reference
    );
}
