//! Failpoint-driven chaos harness (runs only under `--features
//! failpoints`; see `crates/faults`).
//!
//! Strategy: first a *census* — run a representative workload with
//! nothing armed and read off which `fail_point!` sites it actually
//! reaches — then a site × action sweep injecting every fault at every
//! reached layer and holding the library to its degradation contract:
//!
//! * **no panic ever escapes a `Session` entry point or `cli::run`** —
//!   injected panics surface as `CoreError::Internal` / exit code 101;
//! * **a produced verdict is never wrong** — whatever a faulted run
//!   answers (if it answers at all) matches the fault-free reference;
//!   faults may only ever downgrade an answer to `Exhausted`/`Internal`;
//! * **errors keep their contracted shapes** — only `Exhausted` and
//!   `Internal`, never a new variant, never a poisoned lock;
//! * **the session outlives the fault** — once the site is disarmed the
//!   same session answers exactly as before.
//!
//! The failpoint registry is process-global, so every test here
//! serializes on one lock and `reset()`s between cases; CI additionally
//! runs this binary with `--test-threads=1`.

#![cfg(feature = "failpoints")]

mod common;

use common::{course_schema, course_sigma};
use nfd::faults::{self, FaultAction};
use nfd::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// One registry, one test at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// The goal set used throughout: a mix of implied and not-implied NFDs
/// over the paper's Course schema.
const GOALS: [&str; 5] = [
    "Course:[time, students:sid -> books]",
    "Course:[cnum -> time]",
    "Course:[time -> cnum]",
    "Course:[books:isbn -> books:title]",
    "Course:[books:title -> books:isbn]",
];

fn fixture() -> (Schema, Vec<Nfd>) {
    let schema = course_schema();
    let sigma = course_sigma(&schema);
    (schema, sigma)
}

fn parse_goals(schema: &Schema) -> Vec<Nfd> {
    GOALS
        .iter()
        .map(|t| Nfd::parse(schema, t).unwrap())
        .collect()
}

/// Fault-free ground truth for [`GOALS`].
fn reference_verdicts(session: &Session, goals: &[Nfd]) -> Vec<bool> {
    goals
        .iter()
        .map(|g| {
            session
                .implies_with(g, &Budget::standard())
                .expect("fault-free run decides")
                .verdict
                .as_bool()
                .expect("standard budget answers the Course goals")
        })
        .collect()
}

/// Asserts an error has one of the two contracted shapes.
fn assert_contracted_error(site: &str, action: FaultAction, e: &CoreError) {
    assert!(
        matches!(e, CoreError::Exhausted(_) | CoreError::Internal(_)),
        "{site} × {action:?}: error is neither Exhausted nor Internal: {e:?}"
    );
}

// ---------------------------------------------------------------------
// Phase 1: census.
// ---------------------------------------------------------------------

/// Sites the standard workload must reach; a site disappearing from this
/// census means a refactor silently dropped its chaos coverage.
const EXPECTED_SITES: [&str; 20] = [
    "chase::build",
    "chase::scan",
    "chase::step",
    "delta::insert",
    "delta::retract",
    "engine::build",
    "engine::closure",
    "engine::implies",
    "engine::saturate",
    "engine::singleton",
    "logic::eval",
    "logic::forall",
    "model::parse_input",
    "model::parse_depth",
    "par::reassemble",
    "par::worker",
    "snap::read",
    "snap::rename",
    "snap::verify",
    "snap::write",
];

#[test]
fn census_reaches_every_layer() {
    let _guard = serial();
    faults::reset();

    // Parse → build → query → batch → key search → closure → direct
    // deciders: one sweep through everything a user can drive, nothing
    // armed.
    let (schema, sigma) = fixture();
    let goals = parse_goals(&schema);
    let mut session = Session::new(&schema, &sigma).unwrap();
    let budget = Budget::standard();
    for g in &goals {
        session.implies_with(g, &budget).unwrap();
    }
    session.implies_batch(&goals, &budget, 1).unwrap();
    // The key search is the one caller of the worker pool, so it is how
    // the census reaches the pool sites.
    session
        .candidate_keys_threaded(Label::new("Course"), 4, 4)
        .unwrap();
    session
        .closure(
            &RootedPath::parse("Course").unwrap(),
            &[Path::parse("cnum").unwrap()],
        )
        .unwrap();
    // Every decider, called directly under a generous budget: no query
    // runs the chase or the evaluator, so this is how their deep sites
    // (tableau violation scan, ∀-evaluation) are reached.
    for d in nfd::session::all_deciders() {
        d.decide(&schema, &sigma, &goals[0], &budget).unwrap();
    }
    // Σ maintenance: one insert and one retraction reach the delta sites.
    let extra = Nfd::parse(&schema, "Course:[time -> books:isbn]").unwrap();
    session.add_deps(std::slice::from_ref(&extra)).unwrap();
    session.remove_deps(std::slice::from_ref(&extra)).unwrap();
    // Snapshot persistence: freeze → atomic write → read back → strict
    // decode → thaw reaches all four snap sites.
    let dir = std::env::temp_dir().join(format!("nfd-chaos-census-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("census.snap");
    nfd::snap::write_atomic(&snap_path, &nfd::snap::encode(&session.freeze())).unwrap();
    let decoded = nfd::snap::decode(&nfd::snap::read_file(&snap_path).unwrap()).unwrap();
    Session::thaw(
        &schema,
        &sigma,
        EmptySetPolicy::Forbidden,
        Budget::standard(),
        nfd_core::TierPreference::Auto,
        &decoded,
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let hit = faults::sites_hit();
    let names: Vec<&str> = hit.iter().map(|(n, _)| n.as_str()).collect();
    for site in EXPECTED_SITES {
        assert!(names.contains(&site), "census missed `{site}`: {names:?}");
    }
    assert!(
        hit.len() >= 12,
        "census must reach at least 12 sites, got {}: {names:?}",
        hit.len()
    );
    faults::reset();
}

// ---------------------------------------------------------------------
// Phase 2: site × action sweep.
// ---------------------------------------------------------------------

/// Query-phase sites: a query is one saturation attempt over the
/// resident pools, so this is every site it passes. The build
/// sites are absent: queries never build an engine
/// (`queries_never_rebuild_the_engine`), so
/// `build_sites_fail_closed_and_disarm_cleanly` covers them. The chase
/// sites are absent too: no query runs the chase, and the census reaches
/// them through its direct `all_deciders()` calls.
const QUERY_SITES: [&str; 1] = ["engine::implies"];

const ACTIONS: [FaultAction; 4] = [
    FaultAction::ReturnExhausted,
    FaultAction::Panic,
    FaultAction::Delay(2),
    FaultAction::Cancel,
];

#[test]
fn every_query_site_survives_every_action() {
    let _guard = serial();
    faults::reset();
    let (schema, sigma) = fixture();
    let goals = parse_goals(&schema);
    let session = Session::new(&schema, &sigma).unwrap();
    let expected = reference_verdicts(&session, &goals);
    let base = RootedPath::parse("Course").unwrap();
    let lhs = [Path::parse("cnum").unwrap()];
    let closure = session.closure(&base, &lhs).unwrap();

    for site in QUERY_SITES {
        for action in ACTIONS {
            faults::reset();
            faults::configure(site, action);

            for (goal, &want) in goals.iter().zip(&expected) {
                // Fresh budget per query: `Cancel` poisons the token it
                // finds in scope, by design.
                let budget = Budget::standard();
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| session.implies_with(goal, &budget)));
                let result = outcome
                    .unwrap_or_else(|_| panic!("{site} × {action:?}: panic escaped implies_with"));
                match result {
                    Ok(d) => {
                        if let Some(got) = d.verdict.as_bool() {
                            assert_eq!(
                                got, want,
                                "{site} × {action:?}: flipped the verdict on {goal}"
                            );
                        }
                    }
                    Err(e) => assert_contracted_error(site, action, &e),
                }
            }
            // An entry no query reaches would pass the checks above
            // vacuously.
            assert!(
                faults::hits(site) > 0,
                "{site} × {action:?}: no query reached the armed site"
            );

            // Disarm; the same session must answer exactly as before, from
            // saturation. A fault on the query path acts on the query's
            // budget, never on the session's build token, so `closure`
            // (which runs under that token) still answers too.
            faults::reset();
            for (goal, &want) in goals.iter().zip(&expected) {
                let d = session
                    .implies_with(goal, &Budget::standard())
                    .unwrap_or_else(|e| {
                        panic!("{site} × {action:?}: session unusable after fault: {e}")
                    });
                assert_eq!(d.verdict.as_bool(), Some(want), "{site} × {action:?}");
                assert_eq!(d.answered_by(), Some("saturation"), "{site} × {action:?}");
            }
            assert_eq!(
                session.closure(&base, &lhs).unwrap_or_else(|e| {
                    panic!("{site} × {action:?}: closure unusable after fault: {e}")
                }),
                closure,
                "{site} × {action:?}"
            );
        }
    }
}

#[test]
fn closure_contains_faults_and_recovers_on_a_fresh_session() {
    let _guard = serial();
    faults::reset();
    let (schema, sigma) = fixture();
    let base = RootedPath::parse("Course").unwrap();
    let lhs = [Path::parse("cnum").unwrap()];
    let reference = {
        let session = Session::new(&schema, &sigma).unwrap();
        session.closure(&base, &lhs).unwrap()
    };

    for action in ACTIONS {
        faults::reset();
        // Fresh session per case: `Cancel` here cancels the session
        // engine's own budget token, which (correctly, cooperatively)
        // retires that session for engine-level calls.
        let session = Session::new(&schema, &sigma).unwrap();
        faults::configure("engine::closure", action);
        let result = catch_unwind(AssertUnwindSafe(|| session.closure(&base, &lhs)))
            .unwrap_or_else(|_| panic!("engine::closure × {action:?}: panic escaped"));
        match result {
            Ok(c) => assert_eq!(c, reference, "engine::closure × {action:?}"),
            Err(e) => assert_contracted_error("engine::closure", action, &e),
        }
        faults::reset();
        let fresh = Session::new(&schema, &sigma).unwrap();
        assert_eq!(fresh.closure(&base, &lhs).unwrap(), reference);
    }
}

/// The batch's one site, `engine::implies`, under every action: each
/// slot answers right or reports a contracted error, and disarmed, the
/// same batch reproduces the reference. The pool sites sit under the
/// key search, the pool's one caller: a fault there yields the same keys
/// or a contracted error, never a wrong key or an escaped panic.
#[test]
fn batch_sites_degrade_gracefully() {
    let _guard = serial();
    faults::reset();
    let (schema, sigma) = fixture();
    let goals = parse_goals(&schema);
    let session = Session::new(&schema, &sigma).unwrap();
    let expected = reference_verdicts(&session, &goals);
    let reference = session
        .implies_batch(&goals, &Budget::standard(), 1)
        .unwrap();

    let site = "engine::implies";
    for action in ACTIONS {
        faults::reset();
        faults::configure(site, action);
        let budget = Budget::standard();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            session.implies_batch(&goals, &budget, 1)
        }));
        let batch = outcome
            .unwrap_or_else(|_| panic!("{site} × {action:?}: panic escaped implies_batch"))
            .unwrap_or_else(|e| panic!("{site} × {action:?}: a read fault failed the batch: {e}"));
        assert_eq!(batch.decisions.len(), goals.len());
        for (i, slot) in batch.decisions.iter().enumerate() {
            match slot {
                Ok(d) => {
                    if let Some(got) = d.verdict.as_bool() {
                        assert_eq!(got, expected[i], "{site} × {action:?}: flipped goal {i}");
                    }
                }
                Err(e) => assert_contracted_error(site, action, e),
            }
        }

        // The session survives: disarmed, the same batch call
        // reproduces the reference bit for bit.
        faults::reset();
        let after = session
            .implies_batch(&goals, &Budget::standard(), 1)
            .unwrap_or_else(|e| panic!("{site} × {action:?}: batch unusable after fault: {e}"));
        assert_eq!(after, reference, "{site} × {action:?}: batch changed");
    }

    let course = Label::new("Course");
    let keys = session.candidate_keys(course, 4).unwrap();
    for site in ["par::worker", "par::reassemble"] {
        for action in ACTIONS {
            faults::reset();
            // A fresh session per case: completed sweeps are memoized.
            let session = Session::new(&schema, &sigma).unwrap();
            faults::configure(site, action);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                session.candidate_keys_threaded(course, 4, 4)
            }));
            let result = outcome.unwrap_or_else(|_| {
                panic!("{site} × {action:?}: panic escaped candidate_keys_threaded")
            });
            assert!(
                faults::hits(site) > 0,
                "{site} × {action:?}: the key search never reached the pool"
            );
            match result {
                Ok(found) => assert_eq!(found, keys, "{site} × {action:?}: keys changed"),
                Err(e) => assert_contracted_error(site, action, &e),
            }
            faults::reset();
            assert_eq!(
                session.candidate_keys_threaded(course, 4, 4).unwrap(),
                keys,
                "{site} × {action:?}: key search unusable after fault"
            );
        }
    }
}

/// A batch is a loop on the caller's thread, so neither
/// `Session::implies_batch`, whatever width it is given, nor the daemon's
/// `BATCH` ever enters the worker pool; the key search, the pool's one
/// caller, still does.
#[test]
fn batches_never_enter_the_worker_pool() {
    let _guard = serial();
    faults::reset();
    let (schema, sigma) = fixture();
    let goals = parse_goals(&schema);
    let session = Session::new(&schema, &sigma).unwrap();
    let reference = session
        .implies_batch(&goals, &Budget::standard(), 1)
        .unwrap();
    for threads in [1usize, 2, 8] {
        let batch = session
            .implies_batch(&goals, &Budget::standard(), threads)
            .unwrap();
        assert_eq!(batch, reference, "threads = {threads}");
    }
    let reg = nfd::serve::Registry::new(nfd::serve::RegistryConfig::default());
    let line = |text: &str| Command::parse(text).unwrap();
    assert!(reg
        .handle(line(&format!("LOAD t {COURSE_SCHEMA} | {COURSE_DEPS}")))
        .is_ok());
    assert_eq!(
        reg.handle(line(&format!("BATCH t {}", GOALS.join("; ")))),
        Response::Ok("implied,implied,not-implied,implied,not-implied".to_string())
    );
    reg.on_shutdown();
    for site in ["par::worker", "par::reassemble"] {
        assert_eq!(
            faults::hits(site),
            0,
            "a batch entered the pool at `{site}`"
        );
    }

    session
        .candidate_keys_threaded(Label::new("Course"), 4, 4)
        .unwrap();
    for site in ["par::worker", "par::reassemble"] {
        assert!(faults::hits(site) > 0, "the key search missed `{site}`");
    }
    faults::reset();
}

/// A batch is its goals' reads: a one-shot fault stops only the goal it
/// fires in. That goal reports `Exhausted(Injected)` and is
/// `first_exhausted`; every other goal keeps its own answer, which
/// nothing re-runs or overwrites.
#[test]
fn a_one_shot_fault_costs_only_its_own_batch_goal() {
    let _guard = serial();
    faults::reset();
    let (schema, sigma) = fixture();
    let goals = parse_goals(&schema);
    let session = Session::new(&schema, &sigma).unwrap();
    let expected = reference_verdicts(&session, &goals);

    faults::configure_limited("engine::implies", 1, FaultAction::ReturnExhausted);
    let batch = session
        .implies_batch(&goals, &Budget::standard(), 1)
        .unwrap();
    faults::reset();
    assert_eq!(batch.exhausted_count(), 1, "{batch:?}");
    assert_eq!(batch.failed_count(), 0);
    // The goals run in input order, so the one-shot fault stops the first.
    assert_eq!(batch.first_exhausted, Some(0));
    for (i, slot) in batch.decisions.iter().enumerate() {
        let d = slot.as_ref().unwrap();
        if i == 0 {
            assert!(
                matches!(&d.verdict, Verdict::Exhausted(r) if r.kind == ResourceKind::Injected),
                "goal 0 is the faulted one: {:?}",
                d.verdict
            );
        } else {
            assert_eq!(
                d.verdict.as_bool(),
                Some(expected[i]),
                "goal {i} lost its own answer"
            );
        }
    }
}

/// Queries answer from the resident engine: once a session is built, no
/// `implies_with` or `implies_batch` call builds or saturates an engine
/// again, not even one whose counter cap is far below the pool.
#[test]
fn queries_never_rebuild_the_engine() {
    let _guard = serial();
    faults::reset();
    let (schema, sigma) = fixture();
    let goals = parse_goals(&schema);
    let session = Session::new(&schema, &sigma).unwrap();
    let built = faults::hits("engine::build");
    let saturated = faults::hits("engine::saturate");
    assert_eq!(built, 1, "construction builds the engine once");

    session
        .implies_with(&goals[0], &Budget::standard())
        .unwrap();
    session
        .implies_with(&goals[1], &Budget::standard())
        .unwrap();
    session
        .implies_batch(&goals, &Budget::standard(), 1)
        .unwrap();
    let capped = Budget::limited(1);
    session.implies_with(&goals[0], &capped).unwrap();
    session.implies_batch(&goals, &capped, 1).unwrap();
    assert_eq!(
        faults::hits("engine::build"),
        built,
        "a query built an engine"
    );
    assert_eq!(
        faults::hits("engine::saturate"),
        saturated,
        "a query re-saturated a pool"
    );
    faults::reset();
}

#[test]
fn build_sites_fail_closed_and_disarm_cleanly() {
    let _guard = serial();
    faults::reset();
    let (schema, sigma) = fixture();

    for site in ["engine::build", "engine::saturate", "engine::singleton"] {
        for action in ACTIONS {
            faults::reset();
            faults::configure(site, action);
            let result = catch_unwind(AssertUnwindSafe(|| Session::new(&schema, &sigma)))
                .unwrap_or_else(|_| panic!("{site} × {action:?}: panic escaped Session::new"));
            match result {
                Ok(s) => {
                    // Delay (and Cancel losing the race) still builds; it
                    // must be a *working* session.
                    faults::reset();
                    assert!(s
                        .implies_text("Course:[cnum -> time]")
                        .expect("built session answers"));
                }
                Err(e) => assert_contracted_error(site, action, &e),
            }
            faults::reset();
            Session::new(&schema, &sigma)
                .unwrap_or_else(|e| panic!("{site} × {action:?}: build broken after reset: {e}"));
        }
    }

    // Parser sites via the library: a fault is an input-shaped error
    // (the model layer has no Exhausted channel), never a wrong parse.
    for site in ["model::parse_input", "model::parse_depth"] {
        faults::reset();
        faults::configure(site, FaultAction::ReturnExhausted);
        assert!(
            Schema::parse("Course : { <cnum: string> };").is_err(),
            "{site}: injected parse fault must surface as an error"
        );
        faults::reset();
        assert!(Schema::parse("Course : { <cnum: string> };").is_ok());
    }
    faults::reset();
}

// ---------------------------------------------------------------------
// Cancellation under injected faults.
// ---------------------------------------------------------------------

#[test]
fn cancellation_is_never_retried() {
    let _guard = serial();
    faults::reset();
    let (schema, sigma) = fixture();
    let goals = parse_goals(&schema);
    let session = Session::new(&schema, &sigma).unwrap();

    // `Cancel` at the query site cancels the query budget's token; the
    // query honours it and stops after its one attempt.
    faults::configure("engine::implies", FaultAction::Cancel);
    let d = session
        .implies_with(&goals[0], &Budget::standard())
        .unwrap();
    faults::reset();
    assert!(
        matches!(&d.verdict, Verdict::Exhausted(r) if r.kind == ResourceKind::Cancelled),
        "a cancelled run stays cancelled: {:?}",
        d.verdict
    );
    assert_eq!(d.attempts.len(), 1, "one attempt: {:?}", d.attempts);
}

// ---------------------------------------------------------------------
// The CLI under faults: exit codes keep their contract.
// ---------------------------------------------------------------------

/// The Course fixture as source text, one line each, as the wire takes it.
const COURSE_SCHEMA: &str = "Course : { <cnum: string, time: int, \
    students: {<sid: int, age: int, grade: string>}, \
    books: {<isbn: string, title: string>}> };";
const COURSE_DEPS: &str = "Course:[cnum -> time]; Course:[cnum -> students]; \
    Course:[cnum -> books]; Course:[books:isbn -> books:title]; \
    Course:students:[sid -> grade]; Course:[students:sid -> students:age]; \
    Course:[time, students:sid -> cnum];";

/// Writes the Course fixture to temp files and returns
/// `(schema_path, deps_path, goals_path)`.
fn cli_fixture_files() -> (std::path::PathBuf, std::path::PathBuf, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("nfd-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let schema = dir.join("course.schema");
    let deps = dir.join("course.deps");
    let goals = dir.join("course.goals");
    std::fs::write(&schema, COURSE_SCHEMA).unwrap();
    std::fs::write(&deps, COURSE_DEPS).unwrap();
    std::fs::write(&goals, GOALS.join(";\n")).unwrap();
    (schema, deps, goals)
}

fn cli_args(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

#[test]
fn cli_exit_codes_keep_their_contract_under_faults() {
    let _guard = serial();
    faults::reset();
    let (schema, deps, goals) = cli_fixture_files();
    let single = cli_args(&[
        "implies",
        "--schema",
        schema.to_str().unwrap(),
        "--deps",
        deps.to_str().unwrap(),
        "Course:[cnum -> time]",
    ]);
    let batch = cli_args(&[
        "implies",
        "--schema",
        schema.to_str().unwrap(),
        "--deps",
        deps.to_str().unwrap(),
        "--goals",
        goals.to_str().unwrap(),
    ]);
    // `keys` runs the key search on all available cores, so this is how
    // the CLI reaches the worker pool.
    let keys = cli_args(&[
        "keys",
        "--schema",
        schema.to_str().unwrap(),
        "--deps",
        deps.to_str().unwrap(),
        "--relation",
        "Course",
    ]);

    let mut out = String::new();
    let single_baseline = nfd::cli::run(&single, &mut out);
    assert_eq!(single_baseline, 0, "fault-free baseline: {out}");
    out.clear();
    let batch_baseline = nfd::cli::run(&batch, &mut out);
    assert_eq!(batch_baseline, 1, "one GOALS entry is not implied: {out}");
    out.clear();
    let keys_baseline = nfd::cli::run(&keys, &mut out);
    assert_eq!(keys_baseline, 0, "fault-free key search: {out}");

    let sites = [
        "model::parse_input",
        "model::parse_depth",
        "engine::build",
        "engine::saturate",
        "engine::implies",
        "par::worker",
    ];
    for site in sites {
        for action in ACTIONS {
            for (args, baseline) in [
                (&single, single_baseline),
                (&batch, batch_baseline),
                (&keys, keys_baseline),
            ] {
                faults::reset();
                faults::configure(site, action);
                let mut out = String::new();
                let code = catch_unwind(AssertUnwindSafe(|| nfd::cli::run(args, &mut out)))
                    .unwrap_or_else(|_| panic!("{site} × {action:?}: panic escaped cli::run"));
                assert!(
                    [0, 1, 2, 3, 101].contains(&code),
                    "{site} × {action:?}: exit code {code} outside the contract\n{out}"
                );
                // A fault may downgrade a verdict to an error code, but
                // never flip implied ↔ not-implied.
                if code <= 1 {
                    assert_eq!(
                        code, baseline,
                        "{site} × {action:?}: fault flipped the CLI verdict\n{out}"
                    );
                }
            }
        }
    }
    faults::reset();

    // A one-shot injected exhaustion is terminal (exit 3): a command runs
    // once, and the fault is reported as the one `exhausted:` line a
    // compile exhaustion prints.
    faults::configure_limited("engine::implies", 1, FaultAction::ReturnExhausted);
    let mut out = String::new();
    let code = nfd::cli::run(&single, &mut out);
    faults::reset();
    assert_eq!(code, 3, "the injected exhaustion is final: {out}");
    assert_eq!(out, "exhausted: injected fault (failpoint)\n");
}

#[test]
fn nfd_failpoints_env_var_arms_the_binary() {
    let _guard = serial();
    let (schema, deps, _) = cli_fixture_files();
    let args = [
        "implies",
        "--schema",
        schema.to_str().unwrap(),
        "--deps",
        deps.to_str().unwrap(),
        "Course:[cnum -> time]",
    ];
    let run = |spec: Option<&str>| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_nfdtool"));
        cmd.args(args).env_remove("NFD_FAILPOINTS");
        if let Some(spec) = spec {
            cmd.env("NFD_FAILPOINTS", spec);
        }
        cmd.output().expect("nfdtool runs")
    };

    assert_eq!(run(None).status.code(), Some(0), "fault-free baseline");
    let faulted = run(Some("engine::build=return-exhausted"));
    assert_eq!(
        faulted.status.code(),
        Some(3),
        "an injected build exhaustion exits 3: {}",
        String::from_utf8_lossy(&faulted.stdout)
    );
    assert_eq!(
        run(Some("engine::build=delay(1)")).status.code(),
        Some(0),
        "a delay-only fault changes nothing"
    );
    // A malformed spec is a logged no-op: nothing is armed — not even
    // the entries that would have parsed — and the process warns on
    // stderr instead of running a partial fault plan silently.
    let partial = run(Some("engine::build=return-exhausted;garbage"));
    assert_eq!(
        partial.status.code(),
        Some(0),
        "valid prefix of a malformed spec must not arm"
    );
    assert!(
        String::from_utf8_lossy(&partial.stderr).contains("NFD_FAILPOINTS ignored"),
        "the no-op is logged: {}",
        String::from_utf8_lossy(&partial.stderr)
    );
    assert_eq!(run(Some("garbage;;also=nonsense")).status.code(), Some(0));
    // A spec naming a site no `fail_point!` declares takes the same
    // path: a misspelt site would otherwise run the plan without its
    // fault, silently.
    let misspelt = run(Some(
        "engine::build=return-exhausted;engine::implys=return-exhausted",
    ));
    assert_eq!(
        misspelt.status.code(),
        Some(0),
        "an unknown site arms nothing"
    );
    assert!(
        String::from_utf8_lossy(&misspelt.stderr)
            .contains("unknown failpoint site `engine::implys`"),
        "the no-op is logged: {}",
        String::from_utf8_lossy(&misspelt.stderr)
    );
    // Trailing separators are not malformed.
    assert_eq!(
        run(Some("engine::build=return-exhausted;")).status.code(),
        Some(3),
        "trailing separator still arms the spec"
    );
}

// ---------------------------------------------------------------------
// Phase 5: Σ-maintenance faults (the delta sites).
// ---------------------------------------------------------------------

/// Faults on `delta::insert` / `delta::retract` and mid-rebuild: an
/// injected exhaustion or panic during a mutation surfaces as a
/// contracted error, rolls the engine back to the pre-mutation Σ —
/// bit-identical to a fresh build over it, never a half-applied hybrid —
/// and the session keeps answering; disarmed, the same mutation applies.
#[test]
fn delta_faults_roll_back_and_the_session_survives() {
    let _guard = serial();
    faults::reset();
    let (schema, sigma) = fixture();
    let goals = parse_goals(&schema);
    let mut session = Session::new(&schema, &sigma).unwrap();
    let reference = reference_verdicts(&session, &goals);
    let extra = Nfd::parse(&schema, "Course:[time -> books:isbn]").unwrap();

    // Insert faults: Σ and pools untouched, answers unchanged.
    for action in [FaultAction::ReturnExhausted, FaultAction::Panic] {
        faults::configure_limited("delta::insert", 1, action);
        let e = session.add_deps(std::slice::from_ref(&extra)).unwrap_err();
        assert_contracted_error("delta::insert", action, &e);
        assert_eq!(
            session.engine().pool_dump(),
            Session::new(&schema, &sigma).unwrap().engine().pool_dump(),
            "a faulted insert must leave Σ and pools untouched ({action:?})"
        );
        assert_eq!(
            reference,
            reference_verdicts(&session, &goals),
            "session must survive a faulted insert ({action:?})"
        );
    }
    faults::reset();

    // Disarmed, the insert applies; then fault its retraction.
    session.add_deps(std::slice::from_ref(&extra)).unwrap();
    let mut grown = sigma.clone();
    grown.push(extra.clone());
    let grown_pool = Session::new(&schema, &grown).unwrap().engine().pool_dump();
    assert_eq!(session.engine().pool_dump(), grown_pool);
    for action in [FaultAction::ReturnExhausted, FaultAction::Panic] {
        faults::configure_limited("delta::retract", 1, action);
        let e = session
            .remove_deps(std::slice::from_ref(&extra))
            .unwrap_err();
        assert_contracted_error("delta::retract", action, &e);
        assert_eq!(
            session.engine().pool_dump(),
            grown_pool,
            "a faulted retraction must leave Σ and pools untouched ({action:?})"
        );
    }
    faults::reset();

    // A panic injected *mid-rebuild* (the saturation loop inside the
    // relation replay) during a retraction: the catch-and-rollback seam
    // in `remove_dep` must restore Σ, not leave a stale hybrid.
    faults::configure_limited("engine::saturate", 1, FaultAction::Panic);
    let e = session
        .remove_deps(std::slice::from_ref(&extra))
        .unwrap_err();
    assert_contracted_error("engine::saturate", FaultAction::Panic, &e);
    assert_eq!(
        session.engine().pool_dump(),
        grown_pool,
        "a mid-rebuild panic must roll Σ back, not leave a hybrid"
    );
    faults::reset();

    // Disarmed, the retraction applies and the round trip is exact.
    session.remove_deps(std::slice::from_ref(&extra)).unwrap();
    assert_eq!(
        session.engine().pool_dump(),
        Session::new(&schema, &sigma).unwrap().engine().pool_dump()
    );
    assert_eq!(reference, reference_verdicts(&session, &goals));
    faults::reset();
}

// ---------------------------------------------------------------------
// Phase 6: snapshot persistence faults (the snap sites).
// ---------------------------------------------------------------------

/// Every `snap::*` site injects its *typed* error — `SnapError::Io` for
/// the filesystem sites, `SnapError::Injected` for verification — and a
/// failed write is crash-atomic: no torn target, no temp debris, an
/// existing snapshot left byte-identical.
#[test]
fn snap_sites_inject_typed_errors_and_writes_stay_atomic() {
    let _guard = serial();
    faults::reset();
    let (schema, sigma) = fixture();
    let session = Session::new(&schema, &sigma).unwrap();
    let image = session.freeze();
    let bytes = nfd::snap::encode(&image);
    let dir = std::env::temp_dir().join(format!("nfd-chaos-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("image.snap");

    // Faulted first-time writes: typed error, no target file, no temp
    // file left behind.
    for (site, needle) in [
        ("snap::write", "injected write fault"),
        ("snap::rename", "injected rename fault"),
    ] {
        faults::configure(site, FaultAction::ReturnExhausted);
        match nfd::snap::write_atomic(&path, &bytes) {
            Err(nfd::snap::SnapError::Io(msg)) => {
                assert!(msg.contains(needle), "{site}: wrong message: {msg}");
            }
            other => panic!("{site}: want a typed Io error, got {other:?}"),
        }
        faults::reset();
        assert!(!path.exists(), "{site}: faulted write left a target file");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "{site}: faulted write left temp debris"
        );
    }

    // A faulted *overwrite* leaves the previous snapshot byte-identical:
    // either the old file or the new one, never a torn hybrid.
    nfd::snap::write_atomic(&path, &bytes).unwrap();
    let mut newer = bytes.clone();
    newer.push(0);
    faults::configure("snap::rename", FaultAction::ReturnExhausted);
    assert!(nfd::snap::write_atomic(&path, &newer).is_err());
    faults::reset();
    assert_eq!(
        nfd::snap::read_file(&path).unwrap(),
        bytes,
        "a failed overwrite must leave the previous snapshot intact"
    );

    // Faulted read: typed error; disarmed, the same path reads back.
    faults::configure("snap::read", FaultAction::ReturnExhausted);
    match nfd::snap::read_file(&path) {
        Err(nfd::snap::SnapError::Io(msg)) => {
            assert!(msg.contains("injected read fault"), "{msg}");
        }
        other => panic!("snap::read: want a typed Io error, got {other:?}"),
    }
    faults::reset();
    assert_eq!(nfd::snap::read_file(&path).unwrap(), bytes);

    // Faulted verification: both decoders reject with the dedicated
    // `Injected` variant; disarmed, the same bytes decode losslessly.
    for action in [FaultAction::ReturnExhausted, FaultAction::Cancel] {
        faults::configure("snap::verify", action);
        assert!(
            matches!(
                nfd::snap::decode(&bytes),
                Err(nfd::snap::SnapError::Injected)
            ),
            "snap::verify × {action:?}: strict decode must reject typed"
        );
        assert!(
            matches!(
                nfd::snap::decode_lenient(&bytes),
                Err(nfd::snap::SnapError::Injected)
            ),
            "snap::verify × {action:?}: lenient decode must reject typed"
        );
        faults::reset();
    }
    assert_eq!(nfd::snap::decode(&bytes).unwrap(), image);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The CLI's warm-start contract under injected snapshot faults: a
/// rejected thaw is a *logged degradation to a fresh compile* — same
/// exit code, same verdict — and a faulted `nfdtool snapshot` write is a
/// clean typed CLI error that leaves no file behind.
#[test]
fn cli_warm_start_degrades_gracefully_under_snap_faults() {
    let _guard = serial();
    faults::reset();
    let (schema, deps, _) = cli_fixture_files();
    let dir = std::env::temp_dir().join(format!("nfd-chaos-snapcli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("warm.snap");

    // Write a pristine snapshot through the CLI itself.
    let write_args = cli_args(&[
        "snapshot",
        "--schema",
        schema.to_str().unwrap(),
        "--deps",
        deps.to_str().unwrap(),
        "--out",
        snap_path.to_str().unwrap(),
    ]);
    let mut out = String::new();
    assert_eq!(nfd::cli::run(&write_args, &mut out), 0, "{out}");

    let query = cli_args(&[
        "implies",
        "--schema",
        schema.to_str().unwrap(),
        "--deps",
        deps.to_str().unwrap(),
        "--snapshot",
        snap_path.to_str().unwrap(),
        "Course:[cnum -> time]",
    ]);
    let mut out = String::new();
    let baseline = nfd::cli::run(&query, &mut out);
    assert_eq!(baseline, 0, "fault-free warm start: {out}");
    assert!(out.contains("warm start"), "{out}");

    for site in ["snap::read", "snap::verify"] {
        for action in ACTIONS {
            faults::reset();
            faults::configure(site, action);
            let mut out = String::new();
            let code = catch_unwind(AssertUnwindSafe(|| nfd::cli::run(&query, &mut out)))
                .unwrap_or_else(|_| panic!("{site} × {action:?}: panic escaped cli::run"));
            assert!(
                [0, 1, 2, 3, 101].contains(&code),
                "{site} × {action:?}: exit code {code} outside the contract\n{out}"
            );
            if code <= 1 {
                assert_eq!(
                    code, baseline,
                    "{site} × {action:?}: fault flipped the CLI verdict\n{out}"
                );
            }
            // An injected rejection is a logged degradation, never a
            // failure: the query is answered from a fresh compile.
            if matches!(action, FaultAction::ReturnExhausted | FaultAction::Cancel) {
                assert_eq!(
                    code, baseline,
                    "{site} × {action:?}: degradation failed\n{out}"
                );
                assert!(
                    out.contains("compiling fresh"),
                    "{site} × {action:?}: fallback not logged\n{out}"
                );
            }
        }
    }
    faults::reset();

    // A faulted snapshot write surfaces the typed error as a clean CLI
    // failure and leaves nothing at --out.
    for site in ["snap::write", "snap::rename"] {
        faults::reset();
        faults::configure(site, FaultAction::ReturnExhausted);
        let faulted_out = dir.join("faulted.snap");
        let args = cli_args(&[
            "snapshot",
            "--schema",
            schema.to_str().unwrap(),
            "--deps",
            deps.to_str().unwrap(),
            "--out",
            faulted_out.to_str().unwrap(),
        ]);
        let mut out = String::new();
        let code = nfd::cli::run(&args, &mut out);
        assert_eq!(code, 2, "{site}: faulted write must fail cleanly: {out}");
        assert!(out.contains("injected"), "{site}: typed reason lost: {out}");
        faults::reset();
        assert!(
            !faulted_out.exists(),
            "{site}: faulted CLI write left a file behind"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
