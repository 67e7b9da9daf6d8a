//! Shared randomized generators for the integration test suite.
//!
//! All generators are seeded (`StdRng`), so every test run is
//! deterministic and failures are reproducible from the seed printed in
//! the assertion message.

#![allow(dead_code)] // each integration test binary uses a subset

use nfd::core::engine::Engine;
use nfd::core::naive::NaiveEngine;
use nfd::core::{EmptySetPolicy, Nfd};
use nfd::govern::{Budget, Verdict};
use nfd::model::gen::{GenConfig, Generator};
use nfd::model::{BaseType, Field, Instance, Label, RecordType, Schema, Type};
use nfd::path::typing::paths_of_record;
use nfd::path::{Path, RootedPath};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape parameters for random schemas.
#[derive(Clone, Copy)]
pub struct SchemaShape {
    /// Maximum nesting depth below the relation's own set constructor.
    pub max_depth: usize,
    /// Fields per record (inclusive range).
    pub fields: (usize, usize),
    /// Probability that a field is set-valued (when depth remains).
    pub set_prob: f64,
}

impl Default for SchemaShape {
    fn default() -> Self {
        SchemaShape {
            max_depth: 2,
            fields: (2, 4),
            set_prob: 0.4,
        }
    }
}

/// Generates a random single-relation schema named `R{seed}` with
/// globally unique labels (the paper's no-repeated-labels assumption).
/// Only `int`/`string` base types are used so the Appendix A construction
/// applies.
pub fn random_schema(seed: u64, shape: SchemaShape) -> Schema {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counter = 0usize;
    let rel = format!("R{seed}");
    let rec = random_record(&mut rng, &mut counter, shape.max_depth, &shape, seed);
    Schema::new(
        vec![(Label::new(&rel), Type::Set(Box::new(Type::Record(rec))))],
        nfd::model::types::Strictness::Strict,
    )
    .expect("generated schema is valid")
}

fn random_record(
    rng: &mut StdRng,
    counter: &mut usize,
    depth: usize,
    shape: &SchemaShape,
    seed: u64,
) -> RecordType {
    let n = rng.gen_range(shape.fields.0..=shape.fields.1);
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let label = format!("f{seed}_{}", *counter);
        *counter += 1;
        let ty = if depth > 0 && rng.gen_bool(shape.set_prob) {
            Type::Set(Box::new(Type::Record(random_record(
                rng,
                counter,
                depth - 1,
                shape,
                seed,
            ))))
        } else if rng.gen_bool(0.5) {
            Type::Base(BaseType::Int)
        } else {
            Type::Base(BaseType::String)
        };
        fields.push(Field {
            label: Label::new(&label),
            ty,
        });
    }
    RecordType::new(fields).expect("labels are unique by construction")
}

/// Generates a random schema with `relations` relations named
/// `R{seed}x{k}`, sharing one label counter so every label stays
/// globally unique. With `relations == 1` this is [`random_schema`]
/// modulo the relation name.
pub fn random_multi_schema(seed: u64, shape: SchemaShape, relations: usize) -> Schema {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counter = 0usize;
    let rels = (0..relations.max(1))
        .map(|k| {
            let rec = random_record(&mut rng, &mut counter, shape.max_depth, &shape, seed);
            (
                Label::new(&format!("R{seed}x{k}")),
                Type::Set(Box::new(Type::Record(rec))),
            )
        })
        .collect();
    Schema::new(rels, nfd::model::types::Strictness::Strict).expect("generated schema is valid")
}

/// The single relation of a [`random_schema`] result.
pub fn only_relation(schema: &Schema) -> Label {
    schema.relation_names().next().expect("one relation")
}

/// All base-path candidates of a relation: rooted paths resolving to a
/// set of records (including the bare relation name).
pub fn base_candidates(schema: &Schema, relation: Label) -> Vec<RootedPath> {
    let mut out = vec![RootedPath::relation_only(relation)];
    let rec = schema
        .relation_type(relation)
        .unwrap()
        .element_record()
        .unwrap();
    for p in paths_of_record(rec) {
        let rooted = RootedPath::new(relation, p);
        if nfd::path::typing::base_element_record(schema, &rooted).is_ok() {
            out.push(rooted);
        }
    }
    out
}

/// A random well-formed NFD over the schema (possibly with a nested base
/// path; LHS of size 0..=3).
pub fn random_nfd(rng: &mut StdRng, schema: &Schema) -> Option<Nfd> {
    let relation = only_relation(schema);
    random_nfd_in(rng, schema, relation)
}

/// [`random_nfd`] scoped to one relation of a (possibly multi-relation)
/// schema.
pub fn random_nfd_in(rng: &mut StdRng, schema: &Schema, relation: Label) -> Option<Nfd> {
    let bases = base_candidates(schema, relation);
    let base = bases[rng.gen_range(0..bases.len())].clone();
    let rec = nfd::path::typing::base_element_record(schema, &base).ok()?;
    let paths = paths_of_record(rec);
    if paths.is_empty() {
        return None;
    }
    let pick = |rng: &mut StdRng| paths[rng.gen_range(0..paths.len())].clone();
    let lhs: Vec<Path> = (0..rng.gen_range(0..=3usize)).map(|_| pick(rng)).collect();
    let rhs = pick(rng);
    Nfd::new(base, lhs, rhs).ok()
}

/// A random set of `n` NFDs.
pub fn random_sigma(rng: &mut StdRng, schema: &Schema, n: usize) -> Vec<Nfd> {
    (0..n).filter_map(|_| random_nfd(rng, schema)).collect()
}

/// A `(naive oracle, indexed engine)` pair compiled from the same
/// `(schema, Σ, policy)` — the standard differential fixture.
pub fn build_pair<'s>(
    schema: &'s Schema,
    sigma: &[Nfd],
    policy: EmptySetPolicy,
) -> (NaiveEngine<'s>, Engine<'s>) {
    let naive =
        NaiveEngine::with_policy_budget(schema, sigma, policy.clone(), Budget::standard()).unwrap();
    let engine = Engine::with_policy(schema, sigma, policy).unwrap();
    (naive, engine)
}

/// Collapses a decided two-valued verdict to `bool`; panics on
/// `Exhausted` (differential suites run under ample budgets).
pub fn verdict_bool(v: &Verdict) -> bool {
    match v {
        Verdict::Implied => true,
        Verdict::NotImplied => false,
        other => panic!("unexpected verdict {other:?}"),
    }
}

/// A small random instance of the schema with colliding base values and
/// no empty sets (Theorem 3.1's regime).
pub fn random_instance_no_empty(seed: u64, schema: &Schema) -> Instance {
    let mut g = Generator::new(
        seed,
        GenConfig {
            min_set: 1,
            max_set: 2,
            empty_prob: 0.0,
            domain: 2,
        },
    );
    g.instance(schema)
}

/// A small random instance that may contain empty sets (Section 3.2's
/// regime).
pub fn random_instance_with_empties(seed: u64, schema: &Schema) -> Instance {
    let mut g = Generator::new(
        seed,
        GenConfig {
            min_set: 0,
            max_set: 2,
            empty_prob: 0.3,
            domain: 2,
        },
    );
    g.instance(schema)
}

/// The Course schema used throughout the paper.
pub fn course_schema() -> Schema {
    Schema::parse(
        "Course : { <cnum: string, time: int,
                     students: {<sid: int, age: int, grade: string>},
                     books: {<isbn: string, title: string>}> };",
    )
    .unwrap()
}

/// The five Course constraints of the paper's introduction (as seven
/// NFDs; the key constraint expands to three).
pub fn course_sigma(schema: &Schema) -> Vec<Nfd> {
    nfd::core::nfd::parse_set(
        schema,
        "Course:[cnum -> time]; Course:[cnum -> students]; Course:[cnum -> books];
         Course:[books:isbn -> books:title];
         Course:students:[sid -> grade];
         Course:[students:sid -> students:age];
         Course:[time, students:sid -> cnum];",
    )
    .unwrap()
}

/// A flat multi-relation schema: `relations` relations `R0 … R{r-1}`,
/// each with `attrs` `int` attributes `r{r}a0 … r{r}a{attrs-1}` (labels
/// stay globally unique).
pub fn wide_schema(relations: usize, attrs: usize) -> Schema {
    let mut text = String::new();
    for r in 0..relations.max(1) {
        let fields = (0..attrs)
            .map(|i| format!("r{r}a{i}: int"))
            .collect::<Vec<_>>()
            .join(", ");
        text.push_str(&format!("R{r} : {{<{fields}>}};"));
    }
    Schema::parse(&text).expect("wide schema parses")
}

/// The wide-Σ hash family over [`wide_schema`]: per relation, `n`
/// two-LHS dependencies `[a, b -> c]` whose attributes are
/// splitmix-hashed from the dependency's index. The paths overlap
/// heavily, so saturation generates far more resolvents than it keeps —
/// the subsumption-heavy shape. Every relation gets the same pick
/// sequence, so the relations are isomorphic.
pub fn wide_sigma(schema: &Schema, relations: usize, attrs: usize, n: usize) -> Vec<Nfd> {
    let pick = |i: usize, salt: u64| -> usize {
        let mut z = (i as u64)
            .wrapping_add(salt)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as usize % attrs
    };
    let mut sigma = Vec::with_capacity(relations * n);
    for r in 0..relations.max(1) {
        for i in 0..n {
            let (a, b, c) = (pick(i, 1), pick(i, 2), pick(i, 3));
            let text = format!("R{r}:[r{r}a{a}, r{r}a{b} -> r{r}a{c}]");
            sigma.push(Nfd::parse(schema, &text).expect("wide dependency parses"));
        }
    }
    sigma
}
