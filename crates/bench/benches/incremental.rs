//! Bench `incremental` (EXPERIMENTS.md §B9): constraint maintenance under
//! updates — the paper's "later updated" motivation. Compares validating
//! a stream of insertions through the persistent [`ConstraintIndex`]
//! against from-scratch rechecks after every insertion.
//!
//! Expected shape: full recheck is quadratic in stream length (each of
//! the n insertions rechecks O(n) accumulated tuples); the index is
//! linear (each insertion touches only its own assignments).

use nfd_bench::{course, Bench};
use nfd_core::incremental::ConstraintIndex;
use nfd_core::satisfy;
use nfd_model::gen::{GenConfig, Generator};
use nfd_model::{Instance, Label, RecordValue, Type, Value};
use std::hint::black_box;

fn stream(n: usize) -> (nfd_model::Schema, Vec<nfd_core::Nfd>, Vec<RecordValue>) {
    let (schema, sigma) = course();
    let rec_ty = schema
        .relation_type(Label::new("Course"))
        .unwrap()
        .element_record()
        .unwrap()
        .clone();
    let mut g = Generator::new(
        9,
        GenConfig {
            min_set: 1,
            max_set: 2,
            empty_prob: 0.0,
            domain: 64, // large domain: most insertions are accepted
        },
    );
    let tuples: Vec<RecordValue> = (0..n)
        .map(|_| {
            g.value(&Type::Record(rec_ty.clone()))
                .as_record()
                .unwrap()
                .clone()
        })
        .collect();
    (schema, sigma, tuples)
}

fn main() {
    let mut bench = Bench::new("B9", "incremental", 10);
    for n in [8usize, 32, 128] {
        let (schema, sigma, tuples) = stream(n);
        let index_insert = bench.time(|| {
            let empty = Instance::parse(&schema, "Course = {};").unwrap();
            let mut index = ConstraintIndex::build(&schema, &empty, &sigma).unwrap();
            let mut accepted = 0usize;
            for t in &tuples {
                if index.insert(black_box(t)).unwrap().is_none() {
                    accepted += 1;
                }
            }
            accepted
        });
        let full_recheck = bench.time(|| {
            let mut accepted: Vec<Value> = Vec::new();
            let mut count = 0usize;
            for t in &tuples {
                let mut with = accepted.clone();
                with.push(Value::Record(t.clone()));
                let trial =
                    Instance::new(&schema, vec![(Label::new("Course"), Value::set(with))]).unwrap();
                if satisfy::satisfies_all(&schema, black_box(&trial), &sigma).unwrap() {
                    accepted.push(Value::Record(t.clone()));
                    count += 1;
                }
            }
            count
        });
        bench.pair(
            "insert_stream",
            n,
            ("full_recheck", full_recheck),
            ("index_insert", index_insert),
        );
    }
    bench.finish();
}
