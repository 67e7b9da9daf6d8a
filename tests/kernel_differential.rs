//! The indexed semi-naive kernel against the retained naive oracle.
//!
//! `nfd::core::naive` preserves the pre-index engine verbatim: full-pool
//! subsumption scans, all-pairs saturation, pass-structured chaining.
//! The indexed engine (live RHS buckets holding only unsubsumed entries,
//! LHS-occurrence worklist, counting chain) is an optimization and must
//! never be a semantic change, so this suite demands *bit-identical*
//! observables on seeded random schemas, the paper's own examples and
//! the subsumption-heavy wide-Σ family:
//!
//! * pool dumps — every entry's LHS/RHS, provenance and subsumption flag
//!   in pool order (identical pools ⇒ identical proof replays; the live
//!   buckets evict in whatever order they like, so flags matching the
//!   naive pool-order scan is the property under test);
//! * chain dumps — verdict, closure and the `fired` provenance map per
//!   goal (identical maps ⇒ identical reconstructed proofs);
//! * Appendix-A closures, candidate keys at every thread count, and
//!   proofs that verify on the indexed engine;
//! * all of the above under the pessimistic empty-set policy too, so the
//!   counting kernel's lazy `need_x` gate is exercised;
//! * the session's one query path (closure cache, then the counting
//!   kernel): verdicts, closures and candidate keys match the oracle, and
//!   a goal asked again is served from the cache, never from a stale or
//!   differently computed closure.

mod common;

use common::*;
use nfd::core::analysis;
use nfd::core::engine::{Engine, Prov};
use nfd::core::naive::NaiveEngine;
use nfd::core::proof;
use nfd::core::{EmptySetPolicy, Nfd, Tier};
use nfd::govern::{Budget, Verdict};
use nfd::path::RootedPath;
use nfd::session::Session;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seeds for the broad sweep. Each seed yields a distinct single-relation
/// schema (depth ≤ 2, 2–4 fields per record) and Σ.
const SWEEP_SEEDS: std::ops::Range<u64> = 0..32;

/// Random goals compared per seed.
const GOALS_PER_SEED: usize = 24;

/// Pools, verdicts, closures and fired maps agree on random schemas under
/// the Forbidden policy (Theorem 3.1's regime).
#[test]
fn random_sweep_matches_naive_oracle() {
    for seed in SWEEP_SEEDS {
        let schema = random_schema(seed, SchemaShape::default());
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9) | 1);
        let sigma = random_sigma(&mut rng, &schema, 6);
        let (naive, engine) = build_pair(&schema, &sigma, EmptySetPolicy::Forbidden);

        // Saturated pools are identical entry by entry: same order, same
        // provenance, same subsumption flags.
        assert_eq!(
            naive.pool_dump(),
            engine.pool_dump(),
            "pool dump diverged at seed {seed}"
        );

        for _ in 0..GOALS_PER_SEED {
            let Some(goal) = random_nfd(&mut rng, &schema) else {
                continue;
            };
            assert_eq!(
                naive.implies(&goal).unwrap(),
                engine.implies(&goal).unwrap(),
                "verdict diverged at seed {seed} on `{goal}`"
            );
            // The chain dump carries the closure *and* the fired map the
            // proof reconstructor walks — identical dumps mean the
            // counting kernel replays the naive pass scan exactly.
            assert_eq!(
                naive.chain_dump(&goal).unwrap(),
                engine.chain_dump(&goal).unwrap(),
                "chain dump diverged at seed {seed} on `{goal}`"
            );
            // Appendix-A closure of the goal's own base/LHS.
            assert_eq!(
                naive.closure(&goal.base, goal.lhs()).unwrap(),
                engine.closure(&goal.base, goal.lhs()).unwrap(),
                "closure diverged at seed {seed} on `{goal}`"
            );
        }

        // Closures from every base candidate with an empty LHS (the pure
        // prefix-extension view).
        for base in base_candidates(&schema, only_relation(&schema)) {
            assert_eq!(
                naive.closure(&base, &[]).unwrap(),
                engine.closure(&base, &[]).unwrap(),
                "empty-LHS closure diverged at seed {seed} on `{base}`"
            );
        }
    }
}

/// Wide flat Σ (the hash family of B14's `wide_sigma`): almost every
/// resolvent lands on an RHS that already has a smaller LHS, so the live
/// buckets evict and reject far more than they admit. Pools must still
/// match the naive full-pool scans entry by entry, and so must every
/// single-attribute chain dump.
#[test]
fn wide_sigma_matches_naive_oracle() {
    for (attrs, n) in [
        (12, 24),
        (12, 32),
        (14, 28),
        (16, 24),
        (16, 32),
        (16, 48),
        (20, 48),
    ] {
        let schema = wide_schema(1, attrs);
        let sigma = wide_sigma(&schema, 1, attrs, n);
        let (naive, engine) = build_pair(&schema, &sigma, EmptySetPolicy::Forbidden);
        let dump = engine.pool_dump();
        assert_eq!(
            naive.pool_dump(),
            dump,
            "wide pool dump diverged at {attrs} attributes × {n} deps"
        );
        engine
            .check_invariants()
            .unwrap_or_else(|e| panic!("wide({attrs}, {n}): {e}"));
        // The shape is only a subsumption test if most entries retire.
        let subsumed = dump[0].1.iter().filter(|e| e.subsumed).count();
        assert!(
            2 * subsumed > dump[0].1.len(),
            "wide({attrs}, {n}): only {subsumed} of {} entries subsumed",
            dump[0].1.len()
        );
        for i in 0..attrs {
            for j in (0..attrs).filter(|&j| j != i) {
                let goal = Nfd::parse(&schema, &format!("R0:[r0a{i} -> r0a{j}]")).unwrap();
                assert_eq!(
                    naive.chain_dump(&goal).unwrap(),
                    engine.chain_dump(&goal).unwrap(),
                    "wide({attrs}, {n}) chain dump diverged on `{goal}`"
                );
            }
        }
    }
}

/// The same sweep under `EmptySetPolicy::pessimistic()`, which compiles
/// non-trivial `need_x` gates — the lazy gate check in the counting
/// kernel must fire at exactly the moments the naive pass scan checks it.
#[test]
fn random_sweep_matches_naive_oracle_pessimistic() {
    for seed in SWEEP_SEEDS {
        let schema = random_schema(seed, SchemaShape::default());
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x1234_5677) | 1);
        let sigma = random_sigma(&mut rng, &schema, 6);
        let (naive, engine) = build_pair(&schema, &sigma, EmptySetPolicy::pessimistic());

        assert_eq!(
            naive.pool_dump(),
            engine.pool_dump(),
            "pessimistic pool dump diverged at seed {seed}"
        );

        for _ in 0..GOALS_PER_SEED {
            let Some(goal) = random_nfd(&mut rng, &schema) else {
                continue;
            };
            assert_eq!(
                naive.chain_dump(&goal).unwrap(),
                engine.chain_dump(&goal).unwrap(),
                "pessimistic chain dump diverged at seed {seed} on `{goal}`"
            );
        }
    }
}

/// Candidate keys: the naive sequential sweep against the indexed engine
/// at thread counts 1, 2 and 8, on random schemas and on wide Σ, and
/// against the session front end (which adds the keys memo on top).
#[test]
fn candidate_keys_match_naive_at_every_thread_count() {
    for seed in 0..16u64 {
        let schema = random_schema(seed, SchemaShape::default());
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x5151_5151) | 1);
        let sigma = random_sigma(&mut rng, &schema, 6);
        let relation = only_relation(&schema);
        let (naive, engine) = build_pair(&schema, &sigma, EmptySetPolicy::Forbidden);

        let expected = naive.candidate_keys(relation, 3).unwrap();
        for threads in [1usize, 2, 8] {
            assert_eq!(
                expected,
                analysis::candidate_keys_threaded(&engine, relation, 3, threads).unwrap(),
                "candidate keys diverged at seed {seed}, {threads} threads"
            );
        }

        let session = Session::new(&schema, &sigma).unwrap();
        for threads in [1usize, 2, 8] {
            // The second and third calls are keys-memo hits; the memo must
            // hand back exactly the sweep's answer.
            assert_eq!(
                expected,
                session
                    .candidate_keys_threaded(relation, 3, threads)
                    .unwrap(),
                "session candidate keys diverged at seed {seed}, {threads} threads"
            );
        }
        assert!(session.keys_memo_hits() >= 2);
    }

    // Wide Σ, with zero, one and two attributes that no dependency
    // derives (the sweep skips candidates missing any of them).
    for (attrs, n) in [(12, 24), (14, 28), (16, 32)] {
        let schema = wide_schema(1, attrs);
        let sigma = wide_sigma(&schema, 1, attrs, n);
        let relation = only_relation(&schema);
        let (naive, engine) = build_pair(&schema, &sigma, EmptySetPolicy::Forbidden);
        let expected = naive.candidate_keys(relation, 3).unwrap();
        for threads in [1usize, 2, 8] {
            assert_eq!(
                expected,
                analysis::candidate_keys_threaded(&engine, relation, 3, threads).unwrap(),
                "wide({attrs}, {n}) candidate keys diverged, {threads} threads"
            );
        }
    }
}

/// Proof reconstruction stays well-founded over the indexed pools: every
/// implied random goal yields a certificate that the checker accepts.
#[test]
fn proofs_reconstruct_and_verify_on_indexed_pools() {
    let mut proved = 0usize;
    for seed in SWEEP_SEEDS {
        let schema = random_schema(seed, SchemaShape::default());
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x0bad_cafd) | 1);
        let sigma = random_sigma(&mut rng, &schema, 6);
        let (naive, engine) = build_pair(&schema, &sigma, EmptySetPolicy::Forbidden);

        for _ in 0..GOALS_PER_SEED {
            let Some(goal) = random_nfd(&mut rng, &schema) else {
                continue;
            };
            let pf = proof::prove(&engine, &goal).unwrap();
            assert_eq!(
                naive.implies(&goal).unwrap(),
                pf.is_some(),
                "prove/implies disagreed at seed {seed} on `{goal}`"
            );
            if let Some(pf) = pf {
                proof::verify(&engine, &pf)
                    .unwrap_or_else(|e| panic!("proof rejected at seed {seed} on `{goal}`: {e}"));
                proved += 1;
            }
        }
    }
    // The sweep must actually exercise the prover, not vacuously pass.
    assert!(proved > 50, "only {proved} goals were provable");
}

/// Session batch verdicts agree with the naive oracle at every thread
/// count (every batch goal reads the session's closure cache — cache
/// hits must never change a verdict).
#[test]
fn session_batches_match_naive_at_every_thread_count() {
    for seed in 0..12u64 {
        let schema = random_schema(seed, SchemaShape::default());
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x00c0_ffed) | 1);
        let sigma = random_sigma(&mut rng, &schema, 6);
        let naive = NaiveEngine::new(&schema, &sigma).unwrap();
        let session = Session::new(&schema, &sigma).unwrap();

        let goals: Vec<Nfd> = (0..GOALS_PER_SEED)
            .filter_map(|_| random_nfd(&mut rng, &schema))
            .collect();
        let expected: Vec<bool> = goals.iter().map(|g| naive.implies(g).unwrap()).collect();

        for threads in [1usize, 2, 8] {
            let batch = session
                .implies_batch(&goals, &Budget::standard(), threads)
                .unwrap();
            let got: Vec<bool> = batch
                .decisions
                .iter()
                .map(|d| match d.as_ref().unwrap().verdict {
                    Verdict::Implied => true,
                    Verdict::NotImplied => false,
                    ref v => panic!("unexpected verdict {v:?}"),
                })
                .collect();
            assert_eq!(
                expected, got,
                "batch verdicts diverged at seed {seed}, {threads} threads"
            );
        }
    }
}

/// The paper's running Course example, end to end: pools, every
/// single-attribute implication, and the E5 proof.
#[test]
fn course_example_matches_naive_end_to_end() {
    let schema = course_schema();
    let sigma = course_sigma(&schema);
    let (naive, engine) = build_pair(&schema, &sigma, EmptySetPolicy::Forbidden);

    assert_eq!(naive.pool_dump(), engine.pool_dump());

    let relation = only_relation(&schema);
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..64 {
        let Some(goal) = random_nfd(&mut rng, &schema) else {
            continue;
        };
        assert_eq!(
            naive.chain_dump(&goal).unwrap(),
            engine.chain_dump(&goal).unwrap(),
            "course chain dump diverged on `{goal}`"
        );
    }

    assert_eq!(
        naive.candidate_keys(relation, 3).unwrap(),
        analysis::candidate_keys_threaded(&engine, relation, 3, 4).unwrap()
    );

    // The Section 1 inference and its certificate.
    let goal = Nfd::parse(&schema, "Course:[time, students:sid -> books]").unwrap();
    assert!(naive.implies(&goal).unwrap());
    let pf = proof::prove(&engine, &goal).unwrap().expect("E5 proof");
    proof::verify(&engine, &pf).unwrap();
}

/// The singleton rule's conclusions are pinned on the paper's examples:
/// the Section 2.1 empty-or-singleton inference still fires (and its
/// provenance survives in the indexed pool), the Appendix A.1/A.2
/// closures are unchanged, and `forced_singletons` reports exactly the
/// paths it always did.
#[test]
fn singleton_conclusions_pinned_on_appendix_a_examples() {
    // Section 2.1: R : { <A: {<B, C>}, D> } with D → A:B and D → A:C
    // forces A to be empty-or-singleton, hence D → A.
    let schema = nfd::model::Schema::parse("R : { <A: {<B: int, C: int>}, D: int> };").unwrap();
    let sigma = vec![
        Nfd::parse(&schema, "R:[D -> A:B]").unwrap(),
        Nfd::parse(&schema, "R:[D -> A:C]").unwrap(),
    ];
    let (naive, engine) = build_pair(&schema, &sigma, EmptySetPolicy::Forbidden);
    let goal = Nfd::parse(&schema, "R:[D -> A]").unwrap();
    assert!(engine.implies(&goal).unwrap());
    assert_eq!(naive.pool_dump(), engine.pool_dump());
    // The singleton introduction is present in the indexed pool with its
    // provenance intact.
    let dump = engine.pool_dump();
    assert!(
        dump.iter().any(|(_, entries)| entries
            .iter()
            .any(|e| matches!(e.prov, Prov::Singleton { .. }))),
        "no singleton-introduced entry in the saturated pool"
    );
    assert_eq!(
        analysis::forced_singletons(&engine).unwrap(),
        vec![RootedPath::parse("R:A").unwrap()]
    );

    // Dropping one premise withdraws the conclusion.
    let partial = vec![Nfd::parse(&schema, "R:[D -> A:B]").unwrap()];
    let engine = Engine::new(&schema, &partial).unwrap();
    assert!(!engine.implies(&goal).unwrap());
    assert!(analysis::forced_singletons(&engine).unwrap().is_empty());

    // Example A.1: closure pinned against the oracle and by value.
    let schema =
        nfd::model::Schema::parse("R : { <A: {<B: {<C: int>}, E: {<F: int, G: int>}>}, D: int> };")
            .unwrap();
    let sigma = vec![
        Nfd::parse(&schema, "R:[A:B:C, D -> A:E:F]").unwrap(),
        Nfd::parse(&schema, "R:A:[B -> E:G]").unwrap(),
    ];
    let (naive, engine) = build_pair(&schema, &sigma, EmptySetPolicy::Forbidden);
    assert_eq!(naive.pool_dump(), engine.pool_dump());
    let base = RootedPath::parse("R:A").unwrap();
    let lhs = vec![nfd::path::Path::parse("B").unwrap()];
    assert_eq!(
        naive.closure(&base, &lhs).unwrap(),
        engine.closure(&base, &lhs).unwrap()
    );

    // Example A.2's shape.
    let schema =
        nfd::model::Schema::parse("R : { <A: {<B: {<C: int, D: int, E: {<F: int>}>}, H: int>}> };")
            .unwrap();
    let sigma = vec![
        Nfd::parse(&schema, "R:[A:B:C -> A:B]").unwrap(),
        Nfd::parse(&schema, "R:[A:B:C -> A:B:E:F]").unwrap(),
        Nfd::parse(&schema, "R:[A:H -> A:B:D]").unwrap(),
    ];
    let (naive, engine) = build_pair(&schema, &sigma, EmptySetPolicy::Forbidden);
    assert_eq!(naive.pool_dump(), engine.pool_dump());
    let base = RootedPath::relation_only(only_relation(&schema));
    let mut rng = StdRng::seed_from_u64(21);
    for _ in 0..16 {
        let Some(goal) = random_nfd(&mut rng, &schema) else {
            continue;
        };
        assert_eq!(
            naive.chain_dump(&goal).unwrap(),
            engine.chain_dump(&goal).unwrap()
        );
    }
    assert_eq!(
        naive.closure(&base, &[]).unwrap(),
        engine.closure(&base, &[]).unwrap()
    );
}

/// The session's one query path against the naive oracle: verdicts,
/// closures and candidate keys (at thread counts 1/2/8) are bit-identical
/// under both empty-set policies, and every decision that looked a
/// closure up reports [`Tier::Indexed`]. The saturated pool — the
/// provenance store proofs replay against — matches too, so the
/// guarantee extends to certificates.
#[test]
fn tier_differential_sweep() {
    for seed in 0..12u64 {
        for policy in [EmptySetPolicy::Forbidden, EmptySetPolicy::pessimistic()] {
            let schema = random_schema(seed, SchemaShape::default());
            // One rng per (seed, policy) with a fixed constant: both
            // policies see the same Σ and the same goal stream.
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x7157_3157) | 1);
            let sigma = random_sigma(&mut rng, &schema, 6);
            let relation = only_relation(&schema);
            let naive = NaiveEngine::with_policy_budget(
                &schema,
                &sigma,
                policy.clone(),
                Budget::standard(),
            )
            .unwrap();
            let s =
                Session::with_budget(&schema, &sigma, policy.clone(), Budget::standard()).unwrap();
            assert_eq!(
                naive.pool_dump(),
                s.engine().pool_dump(),
                "pool dump diverged at seed {seed}"
            );

            let goals: Vec<Nfd> = (0..GOALS_PER_SEED)
                .filter_map(|_| random_nfd(&mut rng, &schema))
                .collect();
            for goal in &goals {
                let d = s.implies_with(goal, &Budget::standard()).unwrap();
                assert_eq!(
                    naive.implies(goal).unwrap(),
                    verdict_bool(&d.verdict),
                    "verdict diverged at seed {seed} on `{goal}`"
                );
                // `None` means no closure was looked up (reflexivity).
                assert!(
                    matches!(d.tier, None | Some(Tier::Indexed)),
                    "tier {:?} reported at seed {seed} on `{goal}`",
                    d.tier
                );
                let (got_closure, _) = s.closure_traced(&goal.base, goal.lhs()).unwrap();
                assert_eq!(
                    naive.closure(&goal.base, goal.lhs()).unwrap(),
                    got_closure,
                    "closure diverged at seed {seed} on `{goal}`"
                );
            }

            let expected_keys = naive.candidate_keys(relation, 3).unwrap();
            for threads in [1usize, 2, 8] {
                assert_eq!(
                    expected_keys,
                    s.candidate_keys_threaded(relation, 3, threads).unwrap(),
                    "keys diverged at seed {seed}, {threads} threads"
                );
            }
        }
    }
}

/// One goal asked 16 times through `implies_with`: every ask returns the
/// oracle's verdict and closure, and from the second ask on each decision
/// is one closure-cache hit on the one query path — the cache stays in
/// front of every repeated query, however hot the relation gets.
fn assert_repeated_asks_hit_the_cache(
    schema: &nfd::model::Schema,
    sigma: &[Nfd],
    policy: &EmptySetPolicy,
    goal: &str,
) {
    let goal = Nfd::parse(schema, goal).unwrap();
    let naive =
        NaiveEngine::with_policy_budget(schema, sigma, policy.clone(), Budget::standard()).unwrap();
    let expected = naive.implies(&goal).unwrap();
    let want_closure = naive.closure(&goal.base, goal.lhs()).unwrap();
    let session = Session::with_budget(schema, sigma, policy.clone(), Budget::standard()).unwrap();
    for ask in 0..16 {
        let d = session.implies_with(&goal, &Budget::standard()).unwrap();
        assert_eq!(
            expected,
            verdict_bool(&d.verdict),
            "verdict flipped at ask {ask} on `{goal}`"
        );
        if ask > 0 {
            assert_eq!(d.cache_hits, 1, "ask {ask} on `{goal}` missed the cache");
            assert_eq!(d.tier, Some(Tier::Indexed), "ask {ask} on `{goal}`");
        }
        let (got, _) = session.closure_traced(&goal.base, goal.lhs()).unwrap();
        assert_eq!(want_closure, got, "closure drifted at ask {ask}");
    }
}

/// Repeated asks stay on the cache and on the oracle's answers, on the
/// Course example under both policies and on the wide-Σ family; batches
/// of random goals agree with the oracle at thread counts 1/2/8; and
/// `reconfigure` starts from an empty cache.
#[test]
fn repeated_queries_hit_the_cache_and_match_naive() {
    let schema = course_schema();
    let sigma = course_sigma(&schema);
    let goal_text = "Course:[time, students:sid -> books]";
    let wide = wide_schema(1, 16);
    let wide_deps = wide_sigma(&wide, 1, 16, 32);
    assert_repeated_asks_hit_the_cache(
        &wide,
        &wide_deps,
        &EmptySetPolicy::Forbidden,
        "R0:[r0a0, r0a1 -> r0a2]",
    );

    let goal = Nfd::parse(&schema, goal_text).unwrap();
    for policy in [EmptySetPolicy::Forbidden, EmptySetPolicy::pessimistic()] {
        assert_repeated_asks_hit_the_cache(&schema, &sigma, &policy, goal_text);
        let naive =
            NaiveEngine::with_policy_budget(&schema, &sigma, policy.clone(), Budget::standard())
                .unwrap();
        let expected = naive.implies(&goal).unwrap();

        // `reconfigure` starts from a fresh cache.
        let session =
            Session::with_budget(&schema, &sigma, policy.clone(), Budget::standard()).unwrap();
        session.implies_with(&goal, &Budget::standard()).unwrap();
        let re = session.reconfigure(policy.clone()).unwrap();
        let d = re.implies_with(&goal, &Budget::standard()).unwrap();
        assert_eq!(d.cache_hits, 0, "closures leaked across reconfigure");
        assert_eq!(expected, verdict_bool(&d.verdict));
        let d2 = re.implies_with(&goal, &Budget::standard()).unwrap();
        assert_eq!(d2.cache_hits, 1);

        let mut rng = StdRng::seed_from_u64(0x00d5_7ea5 | 1);
        let goals: Vec<Nfd> = (0..24)
            .filter_map(|_| random_nfd(&mut rng, &schema))
            .collect();
        let expected_batch: Vec<bool> = goals.iter().map(|g| naive.implies(g).unwrap()).collect();
        for threads in [1usize, 2, 8] {
            let fresh =
                Session::with_budget(&schema, &sigma, policy.clone(), Budget::standard()).unwrap();
            let batch = fresh
                .implies_batch(&goals, &Budget::standard(), threads)
                .unwrap();
            let got: Vec<bool> = batch
                .decisions
                .iter()
                .map(|d| verdict_bool(&d.as_ref().unwrap().verdict))
                .collect();
            assert_eq!(expected_batch, got, "batch diverged at {threads} threads");
        }
    }
}
