//! Bench `satisfy` (EXPERIMENTS.md §B2): satisfaction checking cost as the
//! instance grows, for local vs global NFDs.
//!
//! Expected shape: a global NFD groups assignments from all tuples of the
//! relation (work ∝ tuples × fanout); a local NFD groups within one set
//! at a time, so the same totals with much smaller tables. Both are
//! linear in the number of assignments — the violation check is
//! hash-grouped rather than pairwise.

use nfd_bench::*;
use nfd_core::{check, Nfd};
use nfd_model::Instance;
use std::hint::black_box;

fn main() {
    let mut bench = Bench::new("B2", "satisfy", 10);
    let (schema, _) = course();
    let checked = |inst: &Instance, nfd: &Nfd| {
        check(&schema, black_box(inst), nfd)
            .unwrap()
            .assignments_checked
    };
    let local = Nfd::parse(&schema, "Course:students:[sid -> grade]").unwrap();
    let global = Nfd::parse(&schema, "Course:[students:sid -> students:age]").unwrap();
    let key = Nfd::parse(&schema, "Course:[cnum -> books]").unwrap();

    for tuples in [4usize, 16, 64, 256] {
        let inst = course_instance(&schema, tuples, 3);
        for (workload, nfd) in [
            ("tuples_local", &local),
            ("tuples_global", &global),
            ("tuples_key", &key),
        ] {
            bench.one(
                workload,
                tuples,
                "check",
                bench.time(|| checked(&inst, nfd)),
            );
        }
    }

    for fanout in [1usize, 2, 4, 8, 16] {
        let inst = course_instance(&schema, 32, fanout);
        bench.one(
            "fanout_global",
            fanout,
            "check",
            bench.time(|| checked(&inst, &global)),
        );
    }

    // Multi-path NFDs multiply assignments (cross product of trie
    // branches); the param is the number of LHS paths.
    let inst = course_instance(&schema, 32, 4);
    for (paths, text) in [
        (1usize, "Course:[students:sid -> time]"),
        (2, "Course:[students:sid, books:isbn -> time]"),
        (
            3,
            "Course:[students:sid, students:grade, books:isbn -> time]",
        ),
    ] {
        let nfd = Nfd::parse(&schema, text).unwrap();
        bench.one(
            "lhs_width",
            paths,
            "check",
            bench.time(|| checked(&inst, &nfd)),
        );
    }
    bench.finish();
}
