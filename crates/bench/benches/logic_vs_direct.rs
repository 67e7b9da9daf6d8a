//! Bench `logic_vs_direct` (EXPERIMENTS.md §B3): the ablation between the
//! two satisfaction checkers — the direct Definition 2.4 checker (hash
//! grouping) and the Section 2.2 logic-translation evaluator (naive
//! quantifier nesting).
//!
//! Expected shape: identical verdicts everywhere (property-tested);
//! the logic evaluator pays a quadratic factor for the explicit `v1, v2`
//! pair enumeration that grouping avoids, so the gap widens with tuple
//! count.

use nfd_bench::*;
use nfd_core::{check, Nfd};
use std::hint::black_box;

fn main() {
    let mut bench = Bench::new("B3", "logic_vs_direct", 10);
    let (schema, sigma) = course();
    let global = Nfd::parse(&schema, "Course:[students:sid -> students:age]").unwrap();
    let formula = global.to_formula(&schema).unwrap();

    for tuples in [2usize, 4, 8, 16, 32] {
        let inst = course_instance(&schema, tuples, 3);
        // Verdicts must agree — assert once outside the timed loop.
        let direct_verdict = check(&schema, &inst, &global).unwrap().holds;
        let logic_verdict = nfd_logic::eval(&inst, &formula).unwrap();
        assert_eq!(direct_verdict, logic_verdict, "checkers must agree");

        bench.pair(
            "global_check",
            tuples,
            (
                "logic_eval",
                bench.time(|| nfd_logic::eval(black_box(&inst), &formula).unwrap()),
            ),
            (
                "direct",
                bench.time(|| check(&schema, black_box(&inst), &global).unwrap().holds),
            ),
        );
    }

    bench.one(
        "translate_course_sigma",
        sigma.len(),
        "to_formula",
        bench.time(|| {
            sigma
                .iter()
                .map(|n| n.to_formula(black_box(&schema)).unwrap().quantifier_count())
                .sum::<usize>()
        }),
    );
    bench.finish();
}
