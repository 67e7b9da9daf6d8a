//! The incremental Σ-maintenance engine against from-scratch rebuilds.
//!
//! `Engine::add_dep` / `Engine::remove_dep` (`nfd::core::delta`) promise
//! *bit-identity*: after any sequence of mutations the maintained engine
//! is indistinguishable from one freshly saturated over the final Σ —
//! same pools entry by entry (order, provenance, subsumption flags),
//! same verdicts, closures, candidate keys and verified proofs. This
//! suite is the mutation census that proves it:
//!
//! * a seeded random walk of hundreds of add/remove steps per seed,
//!   asserting after *every* step against both a fresh indexed rebuild
//!   and the retained [`NaiveEngine`] oracle;
//! * multi-relation schemas, so retraction's `Given`-relabelling of
//!   untouched relations is exercised, not just the rebuilt one;
//! * both empty-set policies, and candidate keys at thread counts 1/2/8;
//! * the [`Session`] layer on top: scoped cache invalidation must keep
//!   untouched relations' closure-cache entries warm while never serving
//!   a stale answer for the mutated relation.

mod common;

use common::*;
use nfd::core::analysis;
use nfd::core::engine::Engine;
use nfd::core::nfd::parse_set;
use nfd::core::proof;
use nfd::core::{EmptySetPolicy, Nfd};
use nfd::govern::Budget;
use nfd::model::{Label, Schema};
use nfd::path::RootedPath;
use nfd::session::Session;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeds for the broad sweep; each yields a distinct schema and walk.
const SWEEP_SEEDS: std::ops::Range<u64> = 0..32;

/// Mutation steps per seed (the census floor is 200).
const STEPS_PER_SEED: usize = 200;

/// Σ size cap — past it the walk is forced to retract, so both
/// directions keep being exercised without the pool blowing up.
const SIGMA_CAP: usize = 12;

/// One random walk: mutate the maintained engine step by step, holding a
/// mirror Σ, and demand bit-identity with a fresh build and the naive
/// oracle after every step.
fn census(seed: u64, policy: EmptySetPolicy) {
    // 1–3 relations per seed: multi-relation walks exercise the
    // cross-relation `Given` relabel in `remove_dep`.
    let schema = random_multi_schema(seed, SchemaShape::default(), 1 + (seed % 3) as usize);
    let relations: Vec<Label> = schema.relation_names().collect();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xde17_a5ed) | 1);

    // Seed Σ with a couple of deps per relation so early retractions
    // have something to bite on.
    let mut sigma: Vec<Nfd> = Vec::new();
    for &rel in &relations {
        for _ in 0..2 {
            sigma.extend(random_nfd_in(&mut rng, &schema, rel));
        }
    }
    let mut maintained = Engine::with_policy(&schema, &sigma, policy.clone()).unwrap();

    for step in 0..STEPS_PER_SEED {
        // -- one mutation --------------------------------------------
        let add = sigma.is_empty() || (sigma.len() < SIGMA_CAP && rng.gen_bool(0.55));
        if add {
            let rel = relations[rng.gen_range(0..relations.len())];
            let Some(dep) = random_nfd_in(&mut rng, &schema, rel) else {
                continue;
            };
            let report = maintained.add_dep(&dep).unwrap();
            sigma.push(dep);
            assert_eq!(
                report.overdeleted, 0,
                "adds never over-delete (seed {seed} step {step})"
            );
        } else {
            let dep = sigma[rng.gen_range(0..sigma.len())].clone();
            let impact = maintained.retraction_impact(&dep).unwrap();
            let report = maintained.remove_dep(&dep).unwrap();
            assert_eq!(
                report.overdeleted, impact,
                "retraction_impact must preview the over-delete (seed {seed} step {step})"
            );
            // The engine retracts the first occurrence of an equal NFD;
            // the mirror must drop the same position.
            let pos = sigma.iter().position(|n| n == &dep).unwrap();
            sigma.remove(pos);
        }

        // -- bit-identity after every step ---------------------------
        let (naive, fresh) = build_pair(&schema, &sigma, policy.clone());
        assert_eq!(
            maintained.sigma, fresh.sigma,
            "Σ diverged (seed {seed} step {step})"
        );
        assert_eq!(
            maintained.pool_dump(),
            fresh.pool_dump(),
            "maintained pool != fresh rebuild (seed {seed} step {step})"
        );
        assert_eq!(
            fresh.pool_dump(),
            naive.pool_dump(),
            "indexed rebuild != naive oracle (seed {seed} step {step})"
        );
        maintained
            .check_invariants()
            .unwrap_or_else(|e| panic!("invariants broken (seed {seed} step {step}): {e}"));

        // -- observable agreement ------------------------------------
        for _ in 0..2 {
            let grel = relations[rng.gen_range(0..relations.len())];
            let Some(goal) = random_nfd_in(&mut rng, &schema, grel) else {
                continue;
            };
            let want = naive.implies(&goal).unwrap();
            assert_eq!(
                want,
                maintained.implies(&goal).unwrap(),
                "verdict diverged (seed {seed} step {step}) on `{goal}`"
            );
            assert_eq!(
                fresh.chain_dump(&goal).unwrap(),
                maintained.chain_dump(&goal).unwrap(),
                "chain dump diverged (seed {seed} step {step}) on `{goal}`"
            );
            assert_eq!(
                naive.closure(&goal.base, goal.lhs()).unwrap(),
                maintained.closure(&goal.base, goal.lhs()).unwrap(),
                "closure diverged (seed {seed} step {step}) on `{goal}`"
            );
            if step % 8 == 0 {
                let pf = proof::prove(&maintained, &goal).unwrap();
                assert_eq!(
                    want,
                    pf.is_some(),
                    "prove/implies disagreed (seed {seed} step {step}) on `{goal}`"
                );
                if let Some(pf) = pf {
                    proof::verify(&maintained, &pf).unwrap_or_else(|e| {
                        panic!("proof rejected (seed {seed} step {step}) on `{goal}`: {e}")
                    });
                }
            }
        }

        // -- candidate keys at every thread count, periodically ------
        if step % 16 == 0 || step + 1 == STEPS_PER_SEED {
            for &rel in &relations {
                let expected = naive.candidate_keys(rel, 2).unwrap();
                for threads in [1usize, 2, 8] {
                    assert_eq!(
                        expected,
                        analysis::candidate_keys_threaded(&maintained, rel, 2, threads).unwrap(),
                        "keys diverged (seed {seed} step {step}, {threads} threads)"
                    );
                }
            }
        }
    }
}

#[test]
fn mutation_census_forbidden() {
    for seed in SWEEP_SEEDS {
        census(seed, EmptySetPolicy::Forbidden);
    }
}

#[test]
fn mutation_census_pessimistic() {
    for seed in SWEEP_SEEDS {
        census(seed, EmptySetPolicy::pessimistic());
    }
}

/// The write pattern of a serving tenant on a wide Σ: fork the live
/// engine, ADD one follow-on dependency of the wide hash family (the
/// members after Σ's own), swap, then fork again and DROP it. Wide pools
/// are mostly subsumed entries, so every delta rebuild leans on live
/// bucket eviction. A last DROP of Σ's first dependency relabels the
/// `Given` indices of the other relations, which copies their shared
/// pools, buckets included. After every step the pool must match a fresh
/// build and the naive oracle entry by entry.
#[test]
fn wide_follow_on_add_drop_walk_matches_fresh_builds() {
    const RELATIONS: usize = 3;
    const ATTRS: usize = 12;
    const N: usize = 24;
    const EXTRA: usize = 4;
    let schema = wide_schema(RELATIONS, ATTRS);
    let family = wide_sigma(&schema, RELATIONS, ATTRS, N + EXTRA);
    let mut sigma: Vec<Nfd> = Vec::new();
    let mut follow_on: Vec<Nfd> = Vec::new();
    for members in family.chunks(N + EXTRA) {
        sigma.extend_from_slice(&members[..N]);
        follow_on.extend_from_slice(&members[N..]);
    }
    let check = |engine: &Engine<'_>, sigma: &[Nfd], what: &str| {
        let (naive, fresh) = build_pair(&schema, sigma, EmptySetPolicy::Forbidden);
        assert_eq!(engine.sigma, fresh.sigma, "Σ diverged after {what}");
        assert_eq!(
            engine.pool_dump(),
            fresh.pool_dump(),
            "maintained pool != fresh rebuild after {what}"
        );
        assert_eq!(
            fresh.pool_dump(),
            naive.pool_dump(),
            "indexed rebuild != naive oracle after {what}"
        );
        engine
            .check_invariants()
            .unwrap_or_else(|e| panic!("invariants broken after {what}: {e}"));
    };

    let mut live = Engine::new(&schema, &sigma).unwrap();
    for dep in &follow_on {
        let mut next = live.fork();
        next.add_dep(dep).unwrap();
        live = next;
        let mut grown = sigma.clone();
        grown.push(dep.clone());
        check(&live, &grown, &format!("ADDDEP {dep}"));

        let mut next = live.fork();
        next.remove_dep(dep).unwrap();
        live = next;
        check(&live, &sigma, &format!("DROPDEP {dep}"));
    }

    let first = sigma.remove(0);
    let mut next = live.fork();
    next.remove_dep(&first).unwrap();
    check(&next, &sigma, &format!("DROPDEP {first}"));
}

/// The session layer: a mutation walk through `add_deps`/`remove_deps`
/// must stay bit-identical to a freshly compiled session, and warm
/// caches must never leak a stale verdict or closure.
///
/// Every step also forks the pre-step session and applies the step's
/// mutation to the fork first: the fork must match the fresh compile
/// (pools, verdicts, closures), and the session it was forked from must
/// keep its pre-step pools, Σ and closures — a pool shared by mistake
/// would leak the new Σ into the old epoch's readers.
#[test]
fn session_mutation_walk_matches_fresh_sessions() {
    for seed in 0..8u64 {
        for policy in [EmptySetPolicy::Forbidden, EmptySetPolicy::pessimistic()] {
            let schema = random_multi_schema(seed, SchemaShape::default(), 2);
            let relations: Vec<Label> = schema.relation_names().collect();
            let closures = |s: &Session<'_>| -> Vec<Vec<RootedPath>> {
                relations
                    .iter()
                    .map(|&rel| s.closure(&RootedPath::relation_only(rel), &[]).unwrap())
                    .collect()
            };
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x5e55_10f1) | 1);
            let mut sigma: Vec<Nfd> = Vec::new();
            for &rel in &relations {
                sigma.extend(random_nfd_in(&mut rng, &schema, rel));
            }
            let mut session =
                Session::with_budget(&schema, &sigma, policy.clone(), Budget::standard()).unwrap();
            let budget = Budget::standard();

            for step in 0..40usize {
                let pre_pools = session.engine().pool_dump();
                let pre_closures = closures(&session);
                let mut fork = session.fork();
                let add = sigma.is_empty() || (sigma.len() < SIGMA_CAP && rng.gen_bool(0.55));
                if add {
                    let rel = relations[rng.gen_range(0..relations.len())];
                    let Some(dep) = random_nfd_in(&mut rng, &schema, rel) else {
                        continue;
                    };
                    fork.add_deps(std::slice::from_ref(&dep)).unwrap();
                    assert_forked_from_intact(
                        &session,
                        &sigma,
                        &pre_pools,
                        &pre_closures,
                        seed,
                        step,
                    );
                    session.add_deps(std::slice::from_ref(&dep)).unwrap();
                    sigma.push(dep);
                } else {
                    let dep = sigma[rng.gen_range(0..sigma.len())].clone();
                    fork.remove_deps(std::slice::from_ref(&dep)).unwrap();
                    assert_forked_from_intact(
                        &session,
                        &sigma,
                        &pre_pools,
                        &pre_closures,
                        seed,
                        step,
                    );
                    session.remove_deps(std::slice::from_ref(&dep)).unwrap();
                    let pos = sigma.iter().position(|n| n == &dep).unwrap();
                    sigma.remove(pos);
                }

                let fresh =
                    Session::with_budget(&schema, &sigma, policy.clone(), Budget::standard())
                        .unwrap();
                assert_eq!(
                    session.engine().pool_dump(),
                    fresh.engine().pool_dump(),
                    "session pool != fresh session (seed {seed} step {step})"
                );
                assert_eq!(
                    fork.engine().pool_dump(),
                    fresh.engine().pool_dump(),
                    "mutated fork pool != fresh session (seed {seed} step {step})"
                );
                assert_eq!(
                    fork.sigma(),
                    fresh.sigma(),
                    "fork Σ (seed {seed} step {step})"
                );
                assert_eq!(
                    closures(&fork),
                    closures(&fresh),
                    "fork closure diverged (seed {seed} step {step})"
                );

                // Warm caches cannot change answers.
                let grel = relations[rng.gen_range(0..relations.len())];
                let Some(goal) = random_nfd_in(&mut rng, &schema, grel) else {
                    continue;
                };
                let d = session.implies_with(&goal, &budget).unwrap();
                let want = fresh.implies_with(&goal, &budget).unwrap();
                assert_eq!(
                    verdict_bool(&want.verdict),
                    verdict_bool(&d.verdict),
                    "session verdict diverged (seed {seed} step {step}) on `{goal}`"
                );
                assert_eq!(
                    verdict_bool(&want.verdict),
                    verdict_bool(&fork.implies_with(&goal, &budget).unwrap().verdict),
                    "fork verdict diverged (seed {seed} step {step}) on `{goal}`"
                );
                for &rel in &relations {
                    let base = RootedPath::relation_only(rel);
                    assert_eq!(
                        fresh.closure(&base, &[]).unwrap(),
                        session.closure(&base, &[]).unwrap(),
                        "closure diverged (seed {seed} step {step}) on `{base}`"
                    );
                }
            }
        }
    }
}

/// The session a fork was taken from, after the fork was mutated: still
/// the pre-step pools, Σ and closures.
fn assert_forked_from_intact(
    origin: &Session<'_>,
    sigma: &[Nfd],
    pools: &nfd::core::naive::PoolDump,
    closures: &[Vec<RootedPath>],
    seed: u64,
    step: usize,
) {
    assert_eq!(
        &origin.engine().pool_dump(),
        pools,
        "mutating a fork changed its origin's pools (seed {seed} step {step})"
    );
    assert_eq!(origin.sigma(), sigma, "origin Σ (seed {seed} step {step})");
    let now: Vec<Vec<RootedPath>> = origin
        .engine()
        .schema()
        .relation_names()
        .map(|rel| {
            origin
                .closure(&RootedPath::relation_only(rel), &[])
                .unwrap()
        })
        .collect();
    assert_eq!(
        now, closures,
        "mutating a fork changed its origin's closures (seed {seed} step {step})"
    );
}

/// The census through repeated session queries: after every mutation,
/// each goal is asked twice through `implies_with`, so the second ask is
/// served from the closure cache the first one filled — scoped
/// invalidation must never leave a pre-mutation closure behind for it.
#[test]
fn mutation_census_through_repeated_session_queries() {
    for seed in 0..4u64 {
        let schema = random_multi_schema(seed, SchemaShape::default(), 2);
        let relations: Vec<Label> = schema.relation_names().collect();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x7137_ee1d) | 1);
        let mut sigma: Vec<Nfd> = Vec::new();
        for &rel in &relations {
            sigma.extend(random_nfd_in(&mut rng, &schema, rel));
        }
        let policy = EmptySetPolicy::Forbidden;
        let budget = Budget::standard();
        let mut session =
            Session::with_budget(&schema, &sigma, policy.clone(), Budget::standard()).unwrap();

        for step in 0..30usize {
            let add = sigma.is_empty() || (sigma.len() < SIGMA_CAP && rng.gen_bool(0.55));
            if add {
                let rel = relations[rng.gen_range(0..relations.len())];
                let Some(dep) = random_nfd_in(&mut rng, &schema, rel) else {
                    continue;
                };
                session.add_deps(std::slice::from_ref(&dep)).unwrap();
                sigma.push(dep);
            } else {
                let dep = sigma[rng.gen_range(0..sigma.len())].clone();
                session.remove_deps(std::slice::from_ref(&dep)).unwrap();
                let pos = sigma.iter().position(|n| n == &dep).unwrap();
                sigma.remove(pos);
            }

            // The reference: a plain fresh session over the mirror Σ.
            let fresh =
                Session::with_budget(&schema, &sigma, policy.clone(), Budget::standard()).unwrap();
            assert_eq!(
                session.engine().pool_dump(),
                fresh.engine().pool_dump(),
                "pool diverged (seed {seed} step {step})"
            );
            let grel = relations[rng.gen_range(0..relations.len())];
            let Some(goal) = random_nfd_in(&mut rng, &schema, grel) else {
                continue;
            };
            let want = verdict_bool(&fresh.implies_with(&goal, &budget).unwrap().verdict);
            for ask in 0..2 {
                let got = session.implies_with(&goal, &budget).unwrap();
                assert_eq!(
                    want,
                    verdict_bool(&got.verdict),
                    "verdict diverged on ask {ask} with {} cache hits \
                     (seed {seed} step {step}) on `{goal}`",
                    got.cache_hits
                );
            }
            assert_eq!(
                fresh.closure(&goal.base, goal.lhs()).unwrap(),
                session.closure(&goal.base, goal.lhs()).unwrap(),
                "closure diverged (seed {seed} step {step})"
            );
        }
    }
}

/// Scoped invalidation, pinned: mutating relation `R` must drop only
/// `R`'s closure-cache entries — `S`'s stay warm (cache hits keep
/// accruing) — while `R` itself recomputes rather than serving the
/// pre-mutation closure.
#[test]
fn scoped_invalidation_keeps_untouched_relations_warm() {
    let schema = Schema::parse(
        "R : { <A: int, B: {<C: int>}, D: int> };
         S : { <P: int, Q: int, T: int> };",
    )
    .unwrap();
    let sigma = parse_set(&schema, "R:[A -> B:C]; S:[P -> Q]; S:[Q -> T];").unwrap();
    let mut session = Session::new(&schema, &sigma).unwrap();

    let r_base = RootedPath::parse("R").unwrap();
    let s_base = RootedPath::parse("S").unwrap();
    let r_lhs = [nfd::path::Path::parse("A").unwrap()];
    let s_lhs = [nfd::path::Path::parse("P").unwrap()];

    // Warm both relations and prove the closure path is cached at all:
    // the repeat queries must register hits.
    for _ in 0..2 {
        session.closure(&r_base, &r_lhs).unwrap();
        session.closure(&s_base, &s_lhs).unwrap();
    }
    let warm_hits = session.cache_stats().hits;
    assert!(warm_hits > 0, "repeat closures must hit the cache");

    // Mutate R only. S's entry must survive (its next query is a hit);
    // R must recompute and pick up the new dependency.
    let added = Nfd::parse(&schema, "R:[A -> D]").unwrap();
    session.add_deps(std::slice::from_ref(&added)).unwrap();

    let s_closure = session.closure(&s_base, &s_lhs).unwrap();
    assert!(
        session.cache_stats().hits > warm_hits,
        "S's cache entry was dropped by a mutation that never touched S: {:?}",
        session.cache_stats()
    );

    let r_closure = session.closure(&r_base, &r_lhs).unwrap();
    assert!(
        r_closure.contains(&RootedPath::parse("R:D").unwrap()),
        "R served a stale pre-mutation closure: {r_closure:?}"
    );

    // Both answers match a session compiled from scratch over the new Σ.
    let mut full: Vec<Nfd> = sigma.clone();
    full.push(added);
    let fresh = Session::new(&schema, &full).unwrap();
    assert_eq!(fresh.closure(&r_base, &r_lhs).unwrap(), r_closure);
    assert_eq!(fresh.closure(&s_base, &s_lhs).unwrap(), s_closure);
}

/// Retracting an NFD that is not in Σ fails cleanly: typed error, no Σ
/// change, and the batch-prefix contract (`remove_deps` applies deps in
/// order until the first failure).
#[test]
fn failed_retraction_leaves_the_session_intact() {
    let schema = course_schema();
    let sigma = course_sigma(&schema);
    let mut session = Session::new(&schema, &sigma).unwrap();
    let absent = Nfd::parse(&schema, "Course:[time -> books]").unwrap();
    let present = Nfd::parse(&schema, "Course:[cnum -> time]").unwrap();

    let err = session
        .remove_deps(std::slice::from_ref(&absent))
        .unwrap_err();
    assert!(
        err.to_string().contains("not in"),
        "typed not-in-Σ error, got: {err}"
    );
    assert_eq!(
        session.engine().pool_dump(),
        Session::new(&schema, &sigma).unwrap().engine().pool_dump(),
        "a failed retraction must not change the pool"
    );

    // Prefix semantics: [present, absent] applies the first, then stops.
    let err = session.remove_deps(&[present.clone(), absent]).unwrap_err();
    assert!(err.to_string().contains("not in"));
    let remaining: Vec<Nfd> = sigma.iter().filter(|n| **n != present).cloned().collect();
    assert_eq!(
        session.engine().pool_dump(),
        Session::new(&schema, &remaining)
            .unwrap()
            .engine()
            .pool_dump(),
        "the prefix before the failure must have been applied"
    );
}
