//! Bench `tier_select` (EXPERIMENTS.md §B15, §B21): a cached `Session`
//! against the naive engine, on the query shapes that once motivated the
//! tier router.
//!
//! Every session query takes one path: the closure cache, then the
//! counting kernel. The candidate is therefore a fresh `Session` per
//! iteration (built outside the timed region, so its cache starts
//! empty), and the baseline is the naive engine recomputing every chain:
//!
//! * `flat_chain_cold` — one all-pairs sweep over a flat chain.
//! * `flat_chain_sweep` — four all-pairs passes; passes 2–4 hit the
//!   cache.
//! * `ladder_goal` — one deep goal asked 32 times.
//! * `wide_sigma` — 200 all-pairs goals over wide Σ, one pass.
//!
//! The `session_sweeps` trailer times a cold sweep (first pass, empty
//! cache) and a warm sweep (second pass) per shape; run against two
//! revisions it gives §B21's table. It uses only `Session::new` and
//! `Session::implies`, so the file builds on revisions that still had
//! the router too.
//!
//! Custom `harness = false` main emitting `BENCH_B15.json` (path
//! overridable via `BENCH_B15_OUT`) in the shared record schema, for CI
//! to archive next to B14. Honours the `--test` smoke flag.

use nfd::session::Session;
use nfd_bench::*;
use nfd_core::naive::NaiveEngine;
use nfd_core::Nfd;
use nfd_govern::Budget;
use nfd_model::Schema;
use std::hint::black_box;
use std::time::Instant;

/// Best-of-`iters` wall time of `f`, in nanoseconds (minimum, to shed
/// scheduler noise).
fn time_ns<T>(iters: usize, mut f: impl FnMut() -> T) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..iters {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed().as_nanos());
    }
    best
}

/// All-pairs single-attribute goals over a flat schema.
fn all_pairs_goals(schema: &Schema, n: usize) -> Vec<Nfd> {
    let mut goals = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                goals.push(Nfd::parse(schema, &format!("R:[a{i} -> a{j}]")).unwrap());
            }
        }
    }
    goals
}

/// One two-attribute goal per attribute pair `{a_i, a_j}` (`i < j`) of a
/// flat schema, each with a right-hand side outside its LHS — a distinct
/// closure per goal, so a cold sweep chains every one.
fn pair_goals(schema: &Schema, n: usize) -> Vec<Nfd> {
    let mut goals = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            let mut k = (j + 1) % n;
            if k == i {
                k = (k + 1) % n;
            }
            goals.push(Nfd::parse(schema, &format!("R:[a{i}, a{j} -> a{k}]")).unwrap());
        }
    }
    goals
}

/// Every single-path goal `Course:[x -> y]` over the Course paths.
fn course_goals(schema: &Schema) -> Vec<Nfd> {
    let paths = [
        "cnum",
        "time",
        "students",
        "students:sid",
        "students:age",
        "students:grade",
        "books",
        "books:isbn",
        "books:title",
    ];
    let mut goals = Vec::new();
    for x in paths {
        for y in paths {
            if x != y {
                goals.push(Nfd::parse(schema, &format!("Course:[{x} -> {y}]")).unwrap());
            }
        }
    }
    goals
}

/// Sweep `goals` `passes` times through a prebuilt naive engine.
fn naive_sweep_ns(naive: &NaiveEngine<'_>, goals: &[Nfd], passes: usize, iters: usize) -> u128 {
    time_ns(iters, || {
        (0..passes)
            .map(|_| goals.iter().filter(|g| naive.implies(g).unwrap()).count())
            .sum::<usize>()
    })
}

/// Implied goals in one pass through the session.
fn session_pass(session: &Session<'_>, goals: &[Nfd]) -> usize {
    goals.iter().filter(|g| session.implies(g).unwrap()).count()
}

/// Sweep `goals` `passes` times through a fresh session per iteration:
/// the build stays outside the timed region, the cold cache inside.
fn session_sweep_ns(
    schema: &Schema,
    sigma: &[Nfd],
    goals: &[Nfd],
    passes: usize,
    iters: usize,
) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..iters {
        let session = Session::new(schema, sigma).unwrap();
        let t = Instant::now();
        let implied = (0..passes)
            .map(|_| session_pass(&session, goals))
            .sum::<usize>();
        black_box(implied);
        best = best.min(t.elapsed().as_nanos());
    }
    best
}

/// Best-of-`iters` cold (first pass, empty cache) and warm (second pass)
/// sweep times through a fresh session per iteration.
fn cold_warm_ns(schema: &Schema, sigma: &[Nfd], goals: &[Nfd], iters: usize) -> (u128, u128) {
    let (mut cold, mut warm) = (u128::MAX, u128::MAX);
    for _ in 0..iters {
        let session = Session::new(schema, sigma).unwrap();
        let t = Instant::now();
        black_box(session_pass(&session, goals));
        cold = cold.min(t.elapsed().as_nanos());
        let t = Instant::now();
        black_box(session_pass(&session, goals));
        warm = warm.min(t.elapsed().as_nanos());
    }
    (cold, warm)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let iters = if smoke { 1 } else { 5 };
    let mut rows: Vec<BenchRecord> = Vec::new();

    // One cold all-pairs sweep: every LHS chains once, the rest hit.
    let flat_sizes: &[usize] = if smoke { &[8] } else { &[16, 24, 32] };
    for &n in flat_sizes {
        let schema = flat_schema(n);
        let sigma = flat_chain_sigma(&schema, n);
        let goals = all_pairs_goals(&schema, n);
        let naive = NaiveEngine::new(&schema, &sigma).unwrap();
        rows.push(BenchRecord {
            bench_id: "B15",
            workload: "flat_chain_cold",
            param: n,
            baseline: "naive",
            baseline_ns: naive_sweep_ns(&naive, &goals, 1, iters),
            candidate: "session",
            candidate_ns: session_sweep_ns(&schema, &sigma, &goals, 1, iters),
        });
    }

    // Repeated all-pairs passes: the cache answers passes 2–4 outright,
    // while the naive engine recomputes every chain of every pass.
    let sweep_sizes: &[usize] = if smoke { &[8] } else { &[16, 24, 32, 48, 64] };
    for &n in sweep_sizes {
        let schema = flat_schema(n);
        let sigma = flat_chain_sigma(&schema, n);
        let goals = all_pairs_goals(&schema, n);
        let naive = NaiveEngine::new(&schema, &sigma).unwrap();
        let passes = 4;
        rows.push(BenchRecord {
            bench_id: "B15",
            workload: "flat_chain_sweep",
            param: n,
            baseline: "naive",
            baseline_ns: naive_sweep_ns(&naive, &goals, passes, iters),
            candidate: "session",
            candidate_ns: session_sweep_ns(&schema, &sigma, &goals, passes, iters),
        });
    }

    // Ladder: one deep goal, repeated — one chain, then cache hits.
    let depths: &[usize] = if smoke { &[4] } else { &[6, 8] };
    for &depth in depths {
        let schema = ladder_schema(depth);
        let sigma = ladder_sigma(&schema, depth);
        let goals = vec![ladder_goal(&schema, depth)];
        let naive = NaiveEngine::new(&schema, &sigma).unwrap();
        let passes = 32;
        rows.push(BenchRecord {
            bench_id: "B15",
            workload: "ladder_goal",
            param: depth,
            baseline: "naive",
            baseline_ns: naive_sweep_ns(&naive, &goals, passes, iters),
            candidate: "session",
            candidate_ns: session_sweep_ns(&schema, &sigma, &goals, passes, iters),
        });
    }

    // Wide Σ: the saturation-heavy shape.
    const WIDE_ATTRS: usize = 24;
    let wide_sizes: &[usize] = if smoke { &[32] } else { &[64, 128] };
    let wide_iters = if smoke { 1 } else { 2 };
    for &n in wide_sizes {
        let schema = flat_schema(WIDE_ATTRS);
        let sigma = wide_sigma(&schema, WIDE_ATTRS, n);
        let mut goals = all_pairs_goals(&schema, WIDE_ATTRS);
        goals.truncate(200);
        let naive = NaiveEngine::new(&schema, &sigma).unwrap();
        rows.push(BenchRecord {
            bench_id: "B15",
            workload: "wide_sigma",
            param: n,
            baseline: "naive",
            baseline_ns: naive_sweep_ns(&naive, &goals, 1, wide_iters),
            candidate: "session",
            candidate_ns: session_sweep_ns(&schema, &sigma, &goals, 1, wide_iters),
        });
    }

    // Cold and warm session sweeps per shape (§B21).
    let mut shapes: Vec<(String, Schema, Vec<Nfd>, Vec<Nfd>)> = Vec::new();
    for &n in if smoke { &[8][..] } else { &[16, 32][..] } {
        let schema = flat_schema(n);
        let sigma = flat_chain_sigma(&schema, n);
        let one = all_pairs_goals(&schema, n);
        let two = pair_goals(&schema, n);
        shapes.push((
            format!("flat_chain({n}) 1-attr"),
            schema.clone(),
            sigma.clone(),
            one,
        ));
        shapes.push((format!("flat_chain({n}) 2-attr"), schema, sigma, two));
    }
    for &n in if smoke { &[32][..] } else { &[64, 128][..] } {
        let schema = flat_schema(WIDE_ATTRS);
        let sigma = wide_sigma(&schema, WIDE_ATTRS, n);
        let goals = all_pairs_goals(&schema, WIDE_ATTRS);
        shapes.push((
            format!("wide_sigma({WIDE_ATTRS},{n})"),
            schema,
            sigma,
            goals,
        ));
    }
    let (schema, sigma) = course();
    let goals = course_goals(&schema);
    shapes.push(("course".to_string(), schema, sigma, goals));
    let sweeps: Vec<(String, usize, u128, u128)> = shapes
        .iter()
        .map(|(name, schema, sigma, goals)| {
            let (cold, warm) = cold_warm_ns(schema, sigma, goals, iters);
            (name.clone(), goals.len(), cold, warm)
        })
        .collect();

    // Course session trailer: batch sweeps through one session.
    let (schema, sigma) = course();
    let session = Session::new(&schema, &sigma).unwrap();
    let attrs = ["cnum", "time", "room", "books", "students"];
    let mut goals = Vec::new();
    for a in attrs {
        for b in attrs {
            if a != b {
                if let Ok(g) = Nfd::parse(&schema, &format!("Course:[{a} -> {b}]")) {
                    goals.push(g);
                }
            }
        }
    }
    let budget = Budget::standard();
    let course_sweeps = if smoke { 2 } else { 8 };
    let course_ns = time_ns(1, || {
        for _ in 0..course_sweeps {
            session.implies_batch(&goals, &budget, 1).unwrap();
        }
    });
    let cache = session.cache_stats();

    println!(
        "B15 — a cached Session vs the naive engine ({} iteration(s), best-of)",
        iters
    );
    println!(
        "{:<26} {:>6} {:>10} {:>14} {:>10} {:>14} {:>9}",
        "workload", "param", "baseline", "ns", "candidate", "ns", "speedup"
    );
    for r in &rows {
        println!(
            "{:<26} {:>6} {:>10} {:>14} {:>10} {:>14} {:>8.2}x",
            r.workload,
            r.param,
            r.baseline,
            r.baseline_ns,
            r.candidate,
            r.candidate_ns,
            r.speedup()
        );
    }
    println!(
        "{:<26} {:>6} {:>14} {:>14}",
        "session sweep", "goals", "cold ns", "warm ns"
    );
    for (name, goals, cold, warm) in &sweeps {
        println!("{name:<26} {goals:>6} {cold:>14} {warm:>14}");
    }
    println!(
        "course session: {} goals x {} sweeps in {} ns; cache {} hits / {} misses",
        goals.len(),
        course_sweeps,
        course_ns,
        cache.hits,
        cache.misses
    );

    let session_sweeps = format!(
        "[{}]",
        sweeps
            .iter()
            .map(|(name, goals, cold, warm)| format!(
                "{{\"shape\": \"{name}\", \"goals\": {goals}, \"cold_ns\": {cold}, \"warm_ns\": {warm}}}"
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let course_session = format!(
        "{{\"goals\": {}, \"sweeps\": {}, \"total_ns\": {}, \"cache_hits\": {}, \"cache_misses\": {}}}",
        goals.len(),
        course_sweeps,
        course_ns,
        cache.hits,
        cache.misses
    );
    BenchReport {
        bench_id: "B15",
        bench: "tier_select",
        mode: if smoke { "smoke" } else { "full" },
        iters,
        records: rows,
        extra: vec![
            ("session_sweeps".to_string(), session_sweeps),
            ("course_session".to_string(), course_session),
        ],
    }
    .write("BENCH_B15_OUT");
}
