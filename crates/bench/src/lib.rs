//! # nfd-bench — the bench harness and its workload generators
//!
//! The benches under `benches/` (B1–B14, B16–B18) regenerate the
//! performance characterization recorded in `EXPERIMENTS.md` Part B (the
//! paper itself is theory-only, so its "evaluation" artifacts are
//! reproduced exactly in the test suite; the benches characterize the
//! algorithms it introduces). Each is a `harness = false` main on
//! [`Bench`], which times, prints the table and writes the bench's
//! `BENCH_<id>.json` record.
//!
//! Everything here is deterministic: workloads are parameterized by size,
//! never by randomness, so bench runs are comparable.

#![warn(missing_docs)]

mod harness;

pub use harness::Bench;

use nfd_core::nfd::parse_set;
use nfd_core::Nfd;
use nfd_model::gen::{GenConfig, Generator};
use nfd_model::{Instance, Schema};
use std::fmt::Write as _;

/// A flat schema `R : {<a0: int, …, a{n-1}: int>}`.
pub fn flat_schema(n: usize) -> Schema {
    let fields = (0..n)
        .map(|i| format!("a{i}: int"))
        .collect::<Vec<_>>()
        .join(", ");
    Schema::parse(&format!("R : {{<{fields}>}};")).expect("flat schema parses")
}

/// A transitive chain `a0 → a1, a1 → a2, …` over [`flat_schema`]`(n)`.
pub fn flat_chain_sigma(schema: &Schema, n: usize) -> Vec<Nfd> {
    let text = (0..n - 1)
        .map(|i| format!("R:[a{i} -> a{}];", i + 1))
        .collect::<String>();
    parse_set(schema, &text).expect("chain parses")
}

/// Every single-attribute goal `R:[ai -> aj]`, `i ≠ j`, over
/// [`flat_schema`]`(n)`: n·(n−1) goals, implied or not depending on Σ.
pub fn all_pairs_goals(schema: &Schema, n: usize) -> Vec<Nfd> {
    let mut goals = Vec::with_capacity(n * n.saturating_sub(1));
    for i in 0..n {
        for j in 0..n {
            if i != j {
                goals.push(Nfd::parse(schema, &format!("R:[a{i} -> a{j}]")).expect("goal parses"));
            }
        }
    }
    goals
}

/// The same chain as classical FDs for the Armstrong baseline.
pub fn flat_chain_fds(n: usize) -> Vec<nfd_relational::Fd> {
    (0..n - 1)
        .map(|i| {
            nfd_relational::Fd::of([format!("a{i}").as_str()], [format!("a{}", i + 1).as_str()])
        })
        .collect()
}

/// A nested "ladder" schema of the given depth:
/// `R : {<k0: int, v0: int, s0: {<k1: int, v1: int, s1: {…}>}>}`.
pub fn ladder_schema(depth: usize) -> Schema {
    fn level(d: usize, depth: usize) -> String {
        if d == depth {
            format!("{{<k{d}: int, v{d}: int>}}")
        } else {
            format!("{{<k{d}: int, v{d}: int, s{d}: {}>}}", level(d + 1, depth))
        }
    }
    Schema::parse(&format!("R : {};", level(0, depth))).expect("ladder schema parses")
}

/// Per-level key constraints on a ladder: at every level, `k` determines
/// `v` and the nested set.
pub fn ladder_sigma(schema: &Schema, depth: usize) -> Vec<Nfd> {
    let mut text = String::new();
    let mut base = String::from("R");
    for d in 0..=depth {
        text.push_str(&format!("{base}:[k{d} -> v{d}];"));
        if d < depth {
            text.push_str(&format!("{base}:[k{d} -> s{d}];"));
            base.push_str(&format!(":s{d}"));
        }
    }
    parse_set(schema, &text).expect("ladder sigma parses")
}

/// The goal "the keys of every level jointly determine the innermost
/// value" — derivable, but only by chaining through every level of the
/// ladder (set determination at each step, then the local key inside).
pub fn ladder_goal(schema: &Schema, depth: usize) -> Nfd {
    let mut lhs = vec!["k0".to_string()];
    let mut spine = String::new();
    for d in 0..depth {
        if !spine.is_empty() {
            spine.push(':');
        }
        spine.push_str(&format!("s{d}"));
        lhs.push(format!("{spine}:k{}", d + 1));
    }
    let rhs = if spine.is_empty() {
        format!("v{depth}")
    } else {
        format!("{spine}:v{depth}")
    };
    Nfd::parse(schema, &format!("R:[{} -> {rhs}]", lhs.join(", "))).expect("ladder goal parses")
}

/// The wide-Σ family over [`flat_schema`]`(attrs)`: `n` deterministic
/// two-LHS dependencies whose paths overlap heavily, so almost every
/// pool entry shares paths with many others — the shape where all-pairs
/// naive saturation degrades quadratically (B14, B17, B18).
pub fn wide_sigma(schema: &Schema, attrs: usize, n: usize) -> Vec<Nfd> {
    // Deterministic splitmix-style attribute picks: a polynomial in `i`
    // mod `attrs` would repeat with period `attrs` and collapse under
    // subsumption, so hash `i` into well-spread 64-bit states instead.
    let pick = |i: usize, salt: u64| -> usize {
        let mut z = (i as u64)
            .wrapping_add(salt)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as usize % attrs
    };
    (0..n)
        .map(|i| {
            let a = pick(i, 1);
            let b = pick(i, 2);
            let c = pick(i, 3);
            Nfd::parse(schema, &format!("R:[a{a}, a{b} -> a{c}]")).unwrap()
        })
        .collect()
}

/// A multi-relation flat schema: `relations` copies of
/// [`flat_schema`]`(attrs)` named `R0 … R{relations-1}`, attributes
/// prefixed per relation (`r0a0, …`) so every label stays globally
/// unique (the paper's no-repeated-labels assumption).
pub fn multi_flat_schema(relations: usize, attrs: usize) -> Schema {
    let mut text = String::new();
    for r in 0..relations.max(1) {
        let fields = (0..attrs)
            .map(|i| format!("r{r}a{i}: int"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(text, "R{r} : {{<{fields}>}};");
    }
    Schema::parse(&text).expect("multi flat schema parses")
}

/// The wide-Σ family over every relation of a
/// [`multi_flat_schema`]`(relations, attrs)`: `n` overlapping two-LHS
/// dependencies per relation, same deterministic attribute hashing as
/// [`wide_sigma`]. Every relation gets the *same* pick sequence modulo
/// its label prefix, so the relations are isomorphic and each one
/// contributes exactly 1/`relations` of the saturation work — the
/// controlled shape for the incremental-maintenance headline: a
/// single-dep mutation names one relation, so a delta rebuild redoes
/// precisely that share of what a full reconfigure redoes. (Saturation
/// cost is highly sensitive to the dep structure; per-relation salting
/// would make the touched relation's share an uncontrolled variable.)
pub fn multi_wide_sigma(schema: &Schema, relations: usize, attrs: usize, n: usize) -> Vec<Nfd> {
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
            let a = pick(i, 1);
            let b = pick(i, 2);
            let c = pick(i, 3);
            sigma.push(
                Nfd::parse(schema, &format!("R{r}:[r{r}a{a}, r{r}a{b} -> r{r}a{c}]")).unwrap(),
            );
        }
    }
    sigma
}

/// The Course schema and constraints of the paper (E1).
pub fn course() -> (Schema, Vec<Nfd>) {
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

/// A deterministic Course-shaped instance with `tuples` courses and
/// `fanout` students/books each.
pub fn course_instance(schema: &Schema, tuples: usize, fanout: usize) -> Instance {
    let mut g = Generator::new(
        42,
        GenConfig {
            min_set: fanout,
            max_set: fanout,
            empty_prob: 0.0,
            domain: (tuples * fanout * 8).max(16) as u32,
        },
    );
    // The generator draws set sizes; for the relation itself we assemble
    // the requested number of tuples explicitly.
    let rec = schema
        .relation_type(nfd_model::Label::new("Course"))
        .unwrap()
        .element_record()
        .unwrap()
        .clone();
    let elems: Vec<nfd_model::Value> = (0..tuples)
        .map(|_| g.value(&nfd_model::Type::Record(rec.clone())))
        .collect();
    Instance::new(
        schema,
        vec![(
            nfd_model::Label::new("Course"),
            nfd_model::Value::set(elems),
        )],
    )
    .expect("generated instance validates")
}

/// The Section 3.1 worked example: schema, Σ, goal.
pub fn worked_example() -> (Schema, Vec<Nfd>, Nfd) {
    let schema =
        Schema::parse("R : { <A: {<B: {<C: int>}, E: {<F: int, G: int>}>}, D: int> };").unwrap();
    let sigma = parse_set(&schema, "R:[A:B:C, D -> A:E:F]; R:A:[B -> E:G];").unwrap();
    let goal = Nfd::parse(&schema, "R:A:[B -> E]").unwrap();
    (schema, sigma, goal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfd_core::engine::Engine;

    #[test]
    fn flat_chain_workload_is_consistent() {
        let schema = flat_schema(6);
        let sigma = flat_chain_sigma(&schema, 6);
        assert_eq!(sigma.len(), 5);
        let engine = Engine::new(&schema, &sigma).unwrap();
        let goal = Nfd::parse(&schema, "R:[a0 -> a5]").unwrap();
        assert!(engine.implies(&goal).unwrap());
    }

    #[test]
    fn ladder_workload_is_consistent() {
        for depth in 1..=3 {
            let schema = ladder_schema(depth);
            let sigma = ladder_sigma(&schema, depth);
            let goal = ladder_goal(&schema, depth);
            let engine = Engine::new(&schema, &sigma).unwrap();
            assert!(engine.implies(&goal).unwrap(), "depth {depth}");
        }
    }

    #[test]
    fn course_instance_scales() {
        let (schema, sigma) = course();
        let inst = course_instance(&schema, 8, 3);
        assert!(
            inst.relation(nfd_model::Label::new("Course"))
                .unwrap()
                .len()
                >= 6
        );
        // The generated instance need not satisfy Σ — it is a checking
        // workload — but checking must run without errors.
        for nfd in &sigma {
            nfd_core::check(&schema, &inst, nfd).unwrap();
        }
    }

    #[test]
    fn multi_wide_workload_is_consistent() {
        let schema = multi_flat_schema(3, 8);
        let sigma = multi_wide_sigma(&schema, 3, 8, 6);
        assert_eq!(sigma.len(), 18);
        let mut engine = Engine::new(&schema, &sigma).unwrap();
        // A mutation in R0 leaves the other relations' pools untouched
        // and stays bit-identical to a fresh build.
        let extra = Nfd::parse(&schema, "R0:[r0a0 -> r0a7]").unwrap();
        engine.add_dep(&extra).unwrap();
        let mut grown = sigma.clone();
        grown.push(extra);
        assert_eq!(
            engine.pool_dump(),
            Engine::new(&schema, &grown).unwrap().pool_dump()
        );
    }

    #[test]
    fn worked_example_is_consistent() {
        let (schema, sigma, goal) = worked_example();
        let engine = Engine::new(&schema, &sigma).unwrap();
        assert!(engine.implies(&goal).unwrap());
    }
}
