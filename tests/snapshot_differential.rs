//! Thaw-vs-fresh differential census: a session thawed from a snapshot
//! must be *bit-identical* to one compiled fresh — same saturated pools,
//! same verdicts, same derivation chains, same closures, same candidate
//! keys, same verified proofs — across the empty-set policies and batch
//! parallelism at 1/2/8 threads.
//!
//! This is the headline correctness proof for `nfd-snap`: warm starts
//! are a pure performance optimization with zero observable semantics.

use nfd::prelude::*;
use nfd_core::nfd::parse_set;
use nfd_core::TierPreference;
use nfd_path::RootedPath;

const SCHEMA: &str = "Course : { <cnum: string, time: int,
    students: {<sid: int, age: int, grade: string>},
    books: {<isbn: string, title: string>}> };
R : { <A: int, B: {<C: int>}, D: int> };";

const SIGMA: &str = "
    Course:[cnum -> time]; Course:[cnum -> students]; Course:[cnum -> books];
    Course:[books:isbn -> books:title];
    Course:students:[sid -> grade];
    Course:[students:sid -> students:age];
    Course:[time, students:sid -> cnum];
    R:[A -> B:C]; R:[B:C -> D];";

/// Goals spanning implied, not-implied, and empty-set-sensitive cases.
const GOALS: &[&str] = &[
    "Course:[time, students:sid -> books]",
    "Course:[cnum -> students:age]",
    "Course:[time -> cnum]",
    "Course:[students:sid -> books]",
    "Course:[books:isbn -> books:title]",
    "R:[A -> D]",
    "R:[B:C -> A]",
];

fn policies() -> Vec<(&'static str, EmptySetPolicy)> {
    vec![
        ("forbidden", EmptySetPolicy::Forbidden),
        ("pessimistic", EmptySetPolicy::pessimistic()),
        (
            "annotated",
            EmptySetPolicy::non_empty(vec![RootedPath::parse("R:B").unwrap()]),
        ),
    ]
}

/// Round-trips a frozen session through the byte format and thaws it,
/// asserting the codec is lossless on the way.
fn thaw_round_trip<'s>(
    fresh: &Session<'s>,
    schema: &'s Schema,
    sigma: &[Nfd],
    policy: &EmptySetPolicy,
) -> Session<'s> {
    let image = fresh.freeze();
    let bytes = nfd::snap::encode(&image);
    let decoded = nfd::snap::decode(&bytes).expect("pristine image decodes");
    assert_eq!(decoded, image, "encode/decode must be lossless");
    Session::thaw(
        schema,
        sigma,
        policy.clone(),
        Budget::standard(),
        TierPreference::Auto,
        &decoded,
    )
    .expect("pristine image thaws")
}

#[test]
fn thawed_sessions_are_bit_identical_to_fresh_compiles() {
    let schema = Schema::parse(SCHEMA).unwrap();
    let sigma = parse_set(&schema, SIGMA).unwrap();
    for (policy_name, policy) in policies() {
        let tag = format!("policy={policy_name}");
        let fresh =
            Session::with_budget(&schema, &sigma, policy.clone(), Budget::standard()).unwrap();
        // Warm the closure cache before freezing so the snapshot
        // carries non-trivial cache entries too.
        let base = RootedPath::parse("Course").unwrap();
        let lhs = vec![nfd_path::Path::parse("cnum").unwrap()];
        let fresh_closure = fresh.closure(&base, &lhs).unwrap();

        let thawed = thaw_round_trip(&fresh, &schema, &sigma, &policy);

        // Census 1: the saturated pools, entry for entry.
        assert_eq!(
            fresh.engine().pool_dump(),
            thawed.engine().pool_dump(),
            "pool census diverged ({tag})"
        );
        thawed.engine().check_invariants().unwrap();

        // Census 2: verdicts and derivation chains per goal.
        for goal_text in GOALS {
            let goal = Nfd::parse(&schema, goal_text).unwrap();
            let fresh_verdict = fresh.implies_text(goal_text).unwrap();
            let thawed_verdict = thawed.implies_text(goal_text).unwrap();
            assert_eq!(
                fresh_verdict, thawed_verdict,
                "verdict diverged on {goal_text} ({tag})"
            );
            assert_eq!(
                fresh.engine().chain_dump(&goal).unwrap(),
                thawed.engine().chain_dump(&goal).unwrap(),
                "chain dump diverged on {goal_text} ({tag})"
            );
        }

        // Census 3: closures (including the cache-warmed one).
        assert_eq!(
            thawed.closure(&base, &lhs).unwrap(),
            fresh_closure,
            "closure diverged ({tag})"
        );
        let r_base = RootedPath::parse("R").unwrap();
        let r_lhs = vec![nfd_path::Path::parse("A").unwrap()];
        assert_eq!(
            fresh.closure(&r_base, &r_lhs).unwrap(),
            thawed.closure(&r_base, &r_lhs).unwrap(),
            "R closure diverged ({tag})"
        );

        // Census 4: verified proofs replay across the pair.
        let provable = Nfd::parse(&schema, "Course:[time, students:sid -> books]").unwrap();
        let fresh_proof = fresh.prove(&provable).unwrap().expect("provable");
        let thawed_proof = thawed.prove(&provable).unwrap().expect("provable");
        assert_eq!(
            fresh_proof.to_string(),
            thawed_proof.to_string(),
            "proof text diverged ({tag})"
        );
        fresh.verify(&thawed_proof).unwrap();
        thawed.verify(&fresh_proof).unwrap();
    }
}

#[test]
fn batch_and_keys_match_at_every_thread_count() {
    let schema = Schema::parse(SCHEMA).unwrap();
    let sigma = parse_set(&schema, SIGMA).unwrap();
    let goals: Vec<Nfd> = GOALS
        .iter()
        .map(|g| Nfd::parse(&schema, g).unwrap())
        .collect();
    for (policy_name, policy) in policies() {
        let fresh =
            Session::with_budget(&schema, &sigma, policy.clone(), Budget::standard()).unwrap();
        let thawed = thaw_round_trip(&fresh, &schema, &sigma, &policy);
        for threads in [1usize, 2, 8] {
            let tag = format!("policy={policy_name} threads={threads}");
            let budget = Budget::standard();
            let fresh_batch = fresh.implies_batch(&goals, &budget, threads).unwrap();
            let thawed_batch = thawed.implies_batch(&goals, &budget, threads).unwrap();
            let fresh_verdicts: Vec<_> = fresh_batch
                .decisions
                .iter()
                .map(|d| d.as_ref().unwrap().verdict.clone())
                .collect();
            let thawed_verdicts: Vec<_> = thawed_batch
                .decisions
                .iter()
                .map(|d| d.as_ref().unwrap().verdict.clone())
                .collect();
            assert_eq!(fresh_verdicts, thawed_verdicts, "batch diverged ({tag})");
            for relation in ["Course", "R"] {
                assert_eq!(
                    fresh
                        .candidate_keys_threaded(Label::new(relation), 4, threads)
                        .unwrap(),
                    thawed
                        .candidate_keys_threaded(Label::new(relation), 4, threads)
                        .unwrap(),
                    "candidate keys of {relation} diverged ({tag})"
                );
            }
        }
    }
}

#[test]
fn freeze_after_mutation_round_trips_the_mutated_sigma() {
    let schema = Schema::parse(SCHEMA).unwrap();
    let sigma = parse_set(&schema, SIGMA).unwrap();
    let mut session = Session::new(&schema, &sigma).unwrap();
    let added = Nfd::parse(&schema, "Course:[time -> cnum]").unwrap();
    session.add_deps(std::slice::from_ref(&added)).unwrap();

    // The snapshot's Σ is the *mutated* set, so thawing requires it.
    let mut mutated = sigma.clone();
    mutated.push(added);
    let image = session.freeze();
    let bytes = nfd::snap::encode(&image);
    let decoded = nfd::snap::decode(&bytes).unwrap();
    match Session::thaw(
        &schema,
        &sigma,
        EmptySetPolicy::Forbidden,
        Budget::standard(),
        TierPreference::Auto,
        &decoded,
    ) {
        Err(nfd::snap::SnapError::Mismatch(_)) => {}
        Err(other) => panic!("stale Σ: wrong error {other:?}"),
        Ok(_) => panic!("stale Σ must be a typed mismatch, not a thaw"),
    }

    let thawed = Session::thaw(
        &schema,
        &mutated,
        EmptySetPolicy::Forbidden,
        Budget::standard(),
        TierPreference::Auto,
        &decoded,
    )
    .unwrap();
    assert_eq!(
        session.engine().pool_dump(),
        thawed.engine().pool_dump(),
        "mutated pool census diverged"
    );
    assert!(thawed.implies_text("Course:[time -> cnum]").unwrap());
}
