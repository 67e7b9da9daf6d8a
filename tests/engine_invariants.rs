//! Structural invariants of the saturation engine, validated after
//! building on randomized and adversarial inputs, plus budget behaviour.

mod common;

use common::*;
use nfd::core::engine::Engine;
use nfd::core::nfd::parse_set;
use nfd::core::{CoreError, EmptySetPolicy, Nfd};
use nfd::govern::{Budget, ResourceKind};
use nfd::model::Schema;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn invariants_hold_on_random_inputs() {
    for seed in 0..120u64 {
        let schema = random_schema(seed, SchemaShape::default());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1171);
        let sigma = random_sigma(&mut rng, &schema, 3);
        let engine = Engine::new(&schema, &sigma).unwrap();
        engine
            .check_invariants()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let gated = Engine::with_policy(&schema, &sigma, EmptySetPolicy::pessimistic()).unwrap();
        gated
            .check_invariants()
            .unwrap_or_else(|e| panic!("seed {seed} (gated): {e}"));
    }
}

#[test]
fn invariants_hold_on_dense_flat_sigma() {
    // An adversarial flat input: a dense web of 2-attribute dependencies
    // drives resolution hard.
    let n = 7usize;
    let fields = (0..n)
        .map(|i| format!("a{i}: int"))
        .collect::<Vec<_>>()
        .join(", ");
    let schema = Schema::parse(&format!("W : {{<{fields}>}};")).unwrap();
    let mut text = String::new();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                text.push_str(&format!("W:[a{i} -> a{j}];"));
            }
        }
    }
    let sigma = parse_set(&schema, &text).unwrap();
    let engine = Engine::new(&schema, &sigma).unwrap();
    engine.check_invariants().unwrap();
    // Everything determines everything: every single-attribute LHS is a
    // key of the whole tuple.
    for i in 0..n {
        for j in 0..n {
            let goal = Nfd::parse(&schema, &format!("W:[a{i} -> a{j}]")).unwrap();
            assert!(engine.implies(&goal).unwrap());
        }
    }
}

#[test]
fn tight_budget_fails_cleanly_generous_budget_succeeds() {
    let schema = Schema::parse("R : {<A: int, B: int, C: int, D: int>};").unwrap();
    let sigma = parse_set(&schema, "R:[A -> B]; R:[B -> C]; R:[C -> D];").unwrap();
    // A budget of 2 cannot even hold Σ.
    match Engine::with_budget(
        &schema,
        &sigma,
        EmptySetPolicy::Forbidden,
        Budget::limited(2),
    ) {
        Err(CoreError::Exhausted(r)) => assert_eq!(r.kind, ResourceKind::PoolDeps),
        other => panic!("expected budget exhaustion, got {:?}", other.err()),
    }
    // A generous budget succeeds and answers the chained goal.
    let engine = Engine::with_budget(
        &schema,
        &sigma,
        EmptySetPolicy::Forbidden,
        Budget::limited(10_000),
    )
    .unwrap();
    assert!(engine
        .implies(&Nfd::parse(&schema, "R:[A -> D]").unwrap())
        .unwrap());
    engine.check_invariants().unwrap();
}

#[test]
fn pool_size_reports_and_is_stable_across_queries() {
    let schema = Schema::parse("R : {<A: int, B: int, C: int>};").unwrap();
    let sigma = parse_set(&schema, "R:[A -> B]; R:[B -> C];").unwrap();
    let engine = Engine::new(&schema, &sigma).unwrap();
    let before = engine.pool_size();
    assert!(before >= 2);
    // Queries never mutate the pool.
    for t in ["R:[A -> C]", "R:[C -> A]", "R:[B -> C]"] {
        let _ = engine.implies(&Nfd::parse(&schema, t).unwrap()).unwrap();
    }
    assert_eq!(engine.pool_size(), before);
}

/// A fork's cancellation stays on the fork: it gets a token of its own,
/// so the engine it was forked from keeps answering.
#[test]
fn cancelling_a_fork_leaves_its_parent_live() {
    let schema = Schema::parse("R : {<A: int, B: int, C: int>};").unwrap();
    let sigma = parse_set(&schema, "R:[A -> B]; R:[B -> C];").unwrap();
    let engine = Engine::new(&schema, &sigma).unwrap();
    let fork = engine.fork();
    fork.budget().cancel_token().cancel();
    let goal = Nfd::parse(&schema, "R:[A -> C]").unwrap();
    match fork.implies(&goal) {
        Err(CoreError::Exhausted(r)) => assert_eq!(r.kind, ResourceKind::Cancelled),
        other => panic!("a cancelled fork answered {other:?}"),
    }
    assert!(engine.implies(&goal).unwrap());
}
