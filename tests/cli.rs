//! End-to-end tests of the `nfdtool` CLI (through `nfd::cli::run`, which
//! the binary wraps 1:1).

use std::path::PathBuf;

struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("nfdtool-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Fixture { dir }
    }

    fn file(&self, name: &str, contents: &str) -> String {
        let path = self.dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn run(args: &[&str]) -> (i32, String) {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = String::new();
    let code = nfd::cli::run(&args, &mut out);
    (code, out)
}

const COURSE_SCHEMA: &str = "Course : { <cnum: string, time: int,
    students: {<sid: int, age: int, grade: string>},
    books: {<isbn: string, title: string>}> };";

const COURSE_DEPS: &str = "
    Course:[cnum -> time]; Course:[cnum -> students]; Course:[cnum -> books];
    Course:[books:isbn -> books:title];
    Course:students:[sid -> grade];
    Course:[students:sid -> students:age];
    Course:[time, students:sid -> cnum];";

const GOOD_INSTANCE: &str = r#"Course = {
    <cnum: "cis550", time: 10,
     students: {<sid: 1001, age: 20, grade: "A">},
     books: {<isbn: "0-13", title: "DB">}> };"#;

const BAD_INSTANCE: &str = r#"Course = {
    <cnum: "x", time: 1, students: {<sid: 1, age: 20, grade: "A">},
     books: {<isbn: "i", title: "t">}>,
    <cnum: "y", time: 2, students: {<sid: 1, age: 30, grade: "A">},
     books: {<isbn: "i", title: "t">}> };"#;

#[test]
fn check_accepts_and_rejects() {
    let f = Fixture::new("check");
    let schema = f.file("s.nfds", COURSE_SCHEMA);
    let deps = f.file("d.nfdd", COURSE_DEPS);
    let good = f.file("good.nfdi", GOOD_INSTANCE);
    let bad = f.file("bad.nfdi", BAD_INSTANCE);

    let (code, out) = run(&[
        "check",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--instance",
        &good,
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("7 of 7 constraints hold"), "{out}");

    let (code, out) = run(&[
        "check",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--instance",
        &bad,
    ]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("FAIL"), "{out}");
    assert!(out.contains("witness"), "{out}");
}

#[test]
fn implies_and_prove() {
    let f = Fixture::new("implies");
    let schema = f.file("s.nfds", COURSE_SCHEMA);
    let deps = f.file("d.nfdd", COURSE_DEPS);

    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "Course:[time, students:sid -> books]",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("implied"), "{out}");

    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "Course:[students:sid -> books]",
    ]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("not implied"), "{out}");

    let (code, out) = run(&[
        "prove",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "Course:[time, students:sid -> books]",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("Proof of"), "{out}");
    assert!(out.contains("transitivity"), "{out}");
}

#[test]
fn implies_batch_mode() {
    let f = Fixture::new("batch");
    let schema = f.file("s.nfds", COURSE_SCHEMA);
    let deps = f.file("d.nfdd", COURSE_DEPS);

    // All implied → exit 0, one verdict line per goal.
    let all_good = f.file(
        "good.goals",
        "Course:[time, students:sid -> books];
         Course:[books:isbn -> books:title];",
    );
    let (code, out) = run(&[
        "implies", "--schema", &schema, "--deps", &deps, "--goals", &all_good,
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("2 of 2 goals implied"), "{out}");

    // A mixed file → exit 1, with per-goal verdicts.
    let mixed = f.file(
        "mixed.goals",
        "Course:[cnum -> time];
         Course:[students:sid -> books];
         Course:[time -> cnum];",
    );
    let (code, out) = run(&[
        "implies", "--schema", &schema, "--deps", &deps, "--goals", &mixed,
    ]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("1 of 3 goals implied"), "{out}");
    assert!(out.contains("not implied  Course:[time -> cnum]"), "{out}");

    // Empty goals file is a usage error.
    let empty = f.file("empty.goals", "");
    let (code, out) = run(&[
        "implies", "--schema", &schema, "--deps", &deps, "--goals", &empty,
    ]);
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("no NFDs"), "{out}");
}

#[test]
fn closure_and_witness() {
    let f = Fixture::new("closure");
    let schema = f.file(
        "s.nfds",
        "R : { <A: int, B: {<C: int>}, D: int, E: {<F: int, G: int>},
               H: {<J: int, L: int>}, I: int, M: {<N: int, O: int>}> };",
    );
    let deps = f.file(
        "d.nfdd",
        "R:[A -> B:C]; R:[B:C -> D]; R:[D -> E:F];
         R:[A -> E:G]; R:[B:C -> H]; R:[I -> H:J];",
    );
    let (code, out) = run(&[
        "closure", "--schema", &schema, "--deps", &deps, "--base", "R", "--lhs", "B",
    ]);
    assert_eq!(code, 0, "{out}");
    // Example A.1's closure, one path per line.
    for p in ["R:B", "R:B:C", "R:D", "R:E:F", "R:H", "R:H:J"] {
        assert!(out.contains(p), "missing {p} in:\n{out}");
    }
    assert!(out.contains("(6 paths)"), "{out}");

    let (code, out) = run(&[
        "witness", "--schema", &schema, "--deps", &deps, "--base", "R", "--lhs", "B",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("# closure:"), "{out}");
    assert!(out.contains("R = {"), "{out}");
}

#[test]
fn keys_and_analyze() {
    let f = Fixture::new("keys");
    let schema = f.file("s.nfds", COURSE_SCHEMA);
    let deps = f.file("d.nfdd", COURSE_DEPS);
    let (code, out) = run(&[
        "keys",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--relation",
        "Course",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("{cnum}"), "{out}");

    let (code, out) = run(&["analyze", "--schema", &schema, "--deps", &deps]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("minimal cover"), "{out}");
    assert!(out.contains("forced singleton sets"), "{out}");
}

#[test]
fn render_draws_tables() {
    let f = Fixture::new("render");
    let schema = f.file("s.nfds", COURSE_SCHEMA);
    let inst = f.file("i.nfdi", GOOD_INSTANCE);
    let (code, out) = run(&["render", "--schema", &schema, "--instance", &inst]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("| cnum"), "{out}");
    assert!(out.contains("cis550"), "{out}");
}

#[test]
fn policy_flag_switches_regime() {
    let f = Fixture::new("policy");
    let schema = f.file("s.nfds", "R : { <A: int, B: {<C: int>}, D: int> };");
    let deps = f.file("d.nfdd", "R:[A -> B:C]; R:[B:C -> D];");
    // Strict (default): Example 3.2's inference goes through.
    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "R:[A -> D]",
    ]);
    assert_eq!(code, 0, "{out}");
    // Pessimistic: refused.
    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--policy",
        "pessimistic",
        "R:[A -> D]",
    ]);
    assert_eq!(code, 1, "{out}");
    // Declaring R:B non-empty restores it.
    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--policy",
        "nonempty:R:B",
        "R:[A -> D]",
    ]);
    assert_eq!(code, 0, "{out}");
    // Bad policy string is a usage error.
    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--policy",
        "maybe",
        "R:[A -> D]",
    ]);
    assert_eq!(code, 2);
    assert!(out.contains("--policy"), "{out}");
}

#[test]
fn error_paths() {
    let f = Fixture::new("errors");
    let schema = f.file("s.nfds", COURSE_SCHEMA);
    // Missing required flags.
    let (code, out) = run(&["closure", "--schema", &schema]);
    assert_eq!(code, 2);
    assert!(out.contains("--deps is required"), "{out}");
    // Nonexistent file.
    let (code, out) = run(&[
        "check",
        "--schema",
        "/nonexistent/x",
        "--deps",
        "/y",
        "--instance",
        "/z",
    ]);
    assert_eq!(code, 2);
    assert!(out.contains("cannot read"), "{out}");
    // Malformed goal.
    let deps = f.file("d.nfdd", COURSE_DEPS);
    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "not an nfd",
    ]);
    assert_eq!(code, 2);
    assert!(out.contains("goal:"), "{out}");
    // An unrecognised flag is a usage error.
    let goal = "Course:[cnum -> time]";
    let (code, out) = run(&[
        "implies", "--schema", &schema, "--deps", &deps, "--turbo", "on", goal,
    ]);
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("unknown flag `--turbo`"), "{out}");
}

#[test]
fn budget_flags_and_exhausted_exit_code() {
    let f = Fixture::new("budget");
    let schema = f.file("s.nfds", COURSE_SCHEMA);
    let deps = f.file("d.nfdd", COURSE_DEPS);

    // A generous budget behaves exactly like no budget.
    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--budget",
        "100000",
        "--timeout-ms",
        "60000",
        "Course:[time, students:sid -> books]",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("implied"), "{out}");

    // Starvation: exit 3 with an exhaustion report, not a wrong verdict.
    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--budget",
        "1",
        "Course:[time, students:sid -> books]",
    ]);
    assert_eq!(code, 3, "{out}");
    assert!(out.contains("exhausted"), "{out}");

    // Bad flag values are usage errors.
    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--budget",
        "lots",
        "Course:[cnum -> time]",
    ]);
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("--budget"), "{out}");
    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--timeout-ms",
        "-5",
        "Course:[cnum -> time]",
    ]);
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("--timeout-ms"), "{out}");
}

#[test]
fn budget_flags_cover_other_subcommands() {
    let f = Fixture::new("budget2");
    let schema = f.file("s.nfds", COURSE_SCHEMA);
    let deps = f.file("d.nfdd", COURSE_DEPS);

    // keys under starvation: exhausted, exit 3.
    let (code, out) = run(&[
        "keys",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--relation",
        "Course",
        "--budget",
        "1",
    ]);
    assert_eq!(code, 3, "{out}");
    assert!(out.contains("exhausted"), "{out}");

    // closure under a generous budget still works.
    let (code, out) = run(&[
        "closure", "--schema", &schema, "--deps", &deps, "--base", "Course", "--lhs", "cnum",
        "--budget", "100000",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("Course:time"), "{out}");

    // batch goals under starvation: exit 3 and a per-goal marker.
    let goals = f.file("g.nfdd", "Course:[cnum -> time]; Course:[time -> cnum];");
    let (code, out) = run(&[
        "implies", "--schema", &schema, "--deps", &deps, "--goals", &goals, "--budget", "1",
    ]);
    assert_eq!(code, 3, "{out}");
    assert!(out.contains("exhausted"), "{out}");
}

#[test]
fn one_budget_answers_in_one_run_and_retry_flags_are_unknown() {
    let f = Fixture::new("onebudget");
    let schema = f.file("s.nfds", COURSE_SCHEMA);
    let deps = f.file("d.nfdd", COURSE_DEPS);
    let goals = f.file("g.goals", "Course:[cnum -> time]; Course:[cnum -> books];");

    // `--budget 1` is too small even to build the session (exit 3, see
    // budget_flags_and_exhausted_exit_code). The limit six ×10
    // escalations would reach from 1 builds and answers in one run.
    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--budget",
        "1000000",
        "Course:[cnum -> time]",
    ]);
    assert_eq!(code, 0, "{out}");
    assert_eq!(out, "implied\n");

    let (code, out) = run(&[
        "implies", "--schema", &schema, "--deps", &deps, "--goals", &goals, "--budget", "1000000",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("2 of 2 goals implied"), "{out}");

    // The retry flags are gone from every subcommand.
    for (cmd, flag, rest) in [
        ("implies", "--retry", &["2", "Course:[cnum -> time]"][..]),
        ("implies", "--escalate", &["2", "Course:[cnum -> time]"][..]),
        ("closure", "--escalate", &["9", "--base", "Course"][..]),
    ] {
        let mut args = vec![cmd, "--schema", &schema, "--deps", &deps, flag];
        args.extend_from_slice(rest);
        let (code, out) = run(&args);
        assert_eq!(code, 2, "{cmd} {flag}: {out}");
        assert!(out.contains(&format!("unknown flag `{flag}`")), "{out}");
        assert!(out.contains("usage:"), "{out}");
    }
}

#[test]
fn threads_and_workers_are_unknown_flags() {
    let f = Fixture::new("widthflags");
    let schema = f.file("s.nfds", COURSE_SCHEMA);
    let deps = f.file("d.nfdd", COURSE_DEPS);
    let goals = f.file("g.goals", "Course:[cnum -> time]; Course:[cnum -> books];");

    // A batch runs its goals one after another and the key search always
    // uses every core, so neither takes a width, and the daemon has no
    // BATCH width either. `serve` gets no --addr: a build that still
    // took the flag would then refuse for the missing address instead of
    // starting a daemon.
    for (args, flag) in [
        (
            vec![
                "implies",
                "--schema",
                &schema,
                "--deps",
                &deps,
                "--goals",
                &goals,
                "--threads",
                "4",
            ],
            "--threads",
        ),
        (
            vec![
                "keys",
                "--schema",
                &schema,
                "--deps",
                &deps,
                "--relation",
                "Course",
                "--threads",
                "2",
            ],
            "--threads",
        ),
        (vec!["serve", "--workers", "8"], "--workers"),
    ] {
        let (code, out) = run(&args);
        assert_eq!(code, 2, "{args:?}: {out}");
        assert!(
            out.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {out}"
        );
    }
}

#[test]
fn implies_add_dep_supplies_missing_dependency() {
    let f = Fixture::new("adddep");
    let schema = f.file("s.nfds", COURSE_SCHEMA);
    // Deps file without `Course:[cnum -> time]`.
    let deps = f.file(
        "d.nfdd",
        "Course:[cnum -> students]; Course:[books:isbn -> books:title];",
    );
    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "Course:[cnum -> time]",
    ]);
    assert_eq!(code, 1, "{out}");
    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--add-dep",
        "Course:[cnum -> time]",
        "Course:[cnum -> time]",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("implied"), "{out}");
}

#[test]
fn implies_drop_dep_retracts_and_flips_verdict() {
    let f = Fixture::new("dropdep");
    let schema = f.file("s.nfds", COURSE_SCHEMA);
    let deps = f.file("d.nfdd", COURSE_DEPS);
    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--drop-dep",
        "Course:[cnum -> time]",
        "Course:[cnum -> time]",
    ]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("not implied"), "{out}");
    // Dropping an NFD that is not in the set is a usage error (exit 2).
    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--drop-dep",
        "Course:[time -> books]",
        "Course:[cnum -> time]",
    ]);
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("not in"), "{out}");
}

#[test]
fn closure_respects_mutations() {
    let f = Fixture::new("closure-mut");
    let schema = f.file("s.nfds", COURSE_SCHEMA);
    let deps = f.file("d.nfdd", "Course:[cnum -> time];");
    let (code, out) = run(&[
        "closure",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--add-dep",
        "Course:[time -> students]",
        "--base",
        "Course",
        "--lhs",
        "cnum",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("students"), "{out}");
    let (code, out) = run(&[
        "closure",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--drop-dep",
        "Course:[cnum -> time]",
        "--base",
        "Course",
        "--lhs",
        "cnum",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(!out.contains("time"), "{out}");
}

#[test]
fn keys_respects_mutation_flags() {
    let f = Fixture::new("keys-mut");
    let schema = f.file("s.nfds", COURSE_SCHEMA);
    let deps = f.file("d.nfdd", COURSE_DEPS);
    // Baseline: {time, students:sid} determines cnum, so adding nothing
    // keeps {cnum} the only singleton-rooted key.
    let (code, out) = run(&[
        "keys",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--relation",
        "Course",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("{cnum}"), "{out}");
    // Adding Course:[time -> cnum] makes {time} a candidate key too.
    let (code, out) = run(&[
        "keys",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--relation",
        "Course",
        "--add-dep",
        "Course:[time -> cnum]",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("{time}"), "{out}");
    // Dropping Course:[cnum -> time] dethrones {cnum}.
    let (code, out) = run(&[
        "keys",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--relation",
        "Course",
        "--drop-dep",
        "Course:[cnum -> time]",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(!out.contains("{cnum}\n"), "{out}");
    // Dropping an absent NFD stays a usage error here too.
    let (code, out) = run(&[
        "keys",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--relation",
        "Course",
        "--drop-dep",
        "Course:[time -> books]",
    ]);
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("not in"), "{out}");
}

#[test]
fn prove_respects_mutation_flags() {
    let f = Fixture::new("prove-mut");
    let schema = f.file("s.nfds", COURSE_SCHEMA);
    let deps = f.file("d.nfdd", "Course:[cnum -> students];");
    // Unprovable from the file alone…
    let (code, out) = run(&[
        "prove",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "Course:[cnum -> time]",
    ]);
    assert_eq!(code, 1, "{out}");
    // …provable once --add-dep supplies the premise.
    let (code, out) = run(&[
        "prove",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--add-dep",
        "Course:[cnum -> time]",
        "Course:[cnum -> time]",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("Proof of"), "{out}");
    // --drop-dep retracts a premise and the proof disappears.
    let (code, out) = run(&[
        "prove",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--drop-dep",
        "Course:[cnum -> students]",
        "Course:[cnum -> students]",
    ]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("not implied"), "{out}");
}

#[test]
fn snapshot_roundtrip_warm_starts_every_session_subcommand() {
    let f = Fixture::new("snap-rt");
    let schema = f.file("s.nfds", COURSE_SCHEMA);
    let deps = f.file("d.nfdd", COURSE_DEPS);
    let snap = f.dir.join("course.snap").to_string_lossy().into_owned();

    let (code, out) = run(&[
        "snapshot", "--schema", &schema, "--deps", &deps, "--out", &snap,
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("snapshot: wrote"), "{out}");
    assert!(std::path::Path::new(&snap).exists());

    // implies: warm-started, same verdicts as a fresh compile.
    let goal = "Course:[time, students:sid -> books]";
    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--snapshot",
        &snap,
        goal,
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("(warm start: thawed snapshot"), "{out}");
    assert!(out.contains("implied"), "{out}");
    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--snapshot",
        &snap,
        "Course:[time -> cnum]",
    ]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("not implied"), "{out}");

    // prove: the certificate still verifies after a thaw.
    let (code, out) = run(&[
        "prove",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--snapshot",
        &snap,
        goal,
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("Proof of"), "{out}");

    // closure and keys warm-start too.
    let (code, out) = run(&[
        "closure",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--snapshot",
        &snap,
        "--base",
        "Course",
        "--lhs",
        "cnum",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("Course:time"), "{out}");
    let (code, out) = run(&[
        "keys",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--snapshot",
        &snap,
        "--relation",
        "Course",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("{cnum}"), "{out}");

    // Mutations apply after the thaw exactly as after a compile.
    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--snapshot",
        &snap,
        "--drop-dep",
        "Course:[cnum -> time]",
        "Course:[cnum -> time]",
    ]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("(warm start:"), "{out}");
    assert!(out.contains("not implied"), "{out}");
}

#[test]
fn snapshot_rejection_degrades_to_a_fresh_compile() {
    let f = Fixture::new("snap-degrade");
    let schema = f.file("s.nfds", COURSE_SCHEMA);
    let deps = f.file("d.nfdd", COURSE_DEPS);
    let goal = "Course:[time, students:sid -> books]";

    // A missing file: logged, then answered from a fresh compile.
    let missing = f.dir.join("nope.snap").to_string_lossy().into_owned();
    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--snapshot",
        &missing,
        goal,
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("rejected"), "{out}");
    assert!(out.contains("compiling fresh"), "{out}");
    assert!(out.contains("implied"), "{out}");

    // A corrupt image (flipped byte): typed rejection, correct verdict.
    let snap = f.dir.join("c.snap").to_string_lossy().into_owned();
    let (code, out) = run(&[
        "snapshot", "--schema", &schema, "--deps", &deps, "--out", &snap,
    ]);
    assert_eq!(code, 0, "{out}");
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&snap, &bytes).unwrap();
    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--snapshot",
        &snap,
        goal,
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("rejected"), "{out}");
    assert!(out.contains("implied"), "{out}");

    // An image of an older format (the version field, right after the
    // magic) is refused by version before anything else is read: format 1
    // (with a closure cache) and format 2 (with stored conclusions and
    // path-table matrices) alike.
    for version in [1u32, 2] {
        let old = f.dir.join(format!("v{version}.snap"));
        let old = old.to_string_lossy().into_owned();
        let (code, out) = run(&[
            "snapshot", "--schema", &schema, "--deps", &deps, "--out", &old,
        ]);
        assert_eq!(code, 0, "{out}");
        let mut bytes = std::fs::read(&old).unwrap();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&old, &bytes).unwrap();
        let (code, out) = run(&[
            "implies",
            "--schema",
            &schema,
            "--deps",
            &deps,
            "--snapshot",
            &old,
            goal,
        ]);
        assert_eq!(code, 0, "{out}");
        let refused =
            format!("rejected: unsupported snapshot format version {version} (expected 3)");
        assert!(out.contains(&refused), "{out}");
        assert!(out.contains("compiling fresh"), "{out}");
        assert!(out.contains("implied"), "{out}");
    }

    // A stale image — frozen from a *different* Σ — is a typed mismatch,
    // never a silently wrong warm start.
    let other_deps = f.file("other.nfdd", "Course:[cnum -> time];");
    let stale = f.dir.join("stale.snap").to_string_lossy().into_owned();
    let (code, out) = run(&[
        "snapshot",
        "--schema",
        &schema,
        "--deps",
        &other_deps,
        "--out",
        &stale,
    ]);
    assert_eq!(code, 0, "{out}");
    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--snapshot",
        &stale,
        goal,
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("rejected"), "{out}");
    assert!(out.contains("implied"), "{out}");

    // Without --out the snapshot subcommand is a usage error.
    let (code, out) = run(&["snapshot", "--schema", &schema, "--deps", &deps]);
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("--out is required"), "{out}");
}

/// Any valid image thaws, whatever its size: the 7-NFD Course schema
/// freezes to under 2 KiB and still warm-starts with no flag, with the
/// verdict of a fresh compile. The size floor and its flag are gone, so
/// `--thaw-min-bytes` is an unknown flag.
#[test]
fn tiny_snapshot_thaws_by_default() {
    let f = Fixture::new("snap-tiny");
    let schema = f.file("s.nfds", COURSE_SCHEMA);
    let deps = f.file("d.nfdd", COURSE_DEPS);
    let snap = f.dir.join("tiny.snap").to_string_lossy().into_owned();
    let goal = "Course:[time, students:sid -> books]";

    let (code, out) = run(&[
        "snapshot", "--schema", &schema, "--deps", &deps, "--out", &snap,
    ]);
    assert_eq!(code, 0, "{out}");
    let image_bytes = std::fs::metadata(&snap).unwrap().len();
    assert!(
        image_bytes < 4 * 1024,
        "fixture drifted: the Course image is no longer tiny ({image_bytes} bytes)"
    );

    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--snapshot",
        &snap,
        goal,
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("(warm start: thawed snapshot"), "{out}");
    assert!(!out.contains("compiling fresh"), "{out}");
    assert!(out.ends_with("implied\n"), "{out}");

    let (code, out) = run(&[
        "implies",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--snapshot",
        &snap,
        "--thaw-min-bytes",
        "0",
        goal,
    ]);
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("unknown flag `--thaw-min-bytes`"), "{out}");
}

/// `keys` opens its session under `--policy` like every other session
/// subcommand. Under pessimism `B:C` may be undefined, so `A -> B:C ->
/// D` no longer chains and `{A}` stops being a key, exactly as `closure`
/// reports.
#[test]
fn keys_honor_the_empty_set_policy() {
    let f = Fixture::new("keys-policy");
    let schema = f.file("s.nfds", "R : {<A: int, B: {<C: int>}, D: int>};");
    let deps = f.file("d.nfdd", "R:[A -> B:C]; R:[B:C -> D]; R:[D -> B];");
    let keys = |policy: &str| {
        run(&[
            "keys",
            "--schema",
            &schema,
            "--deps",
            &deps,
            "--policy",
            policy,
            "--relation",
            "R",
        ])
    };
    let (code, out) = keys("strict");
    assert_eq!(code, 0, "{out}");
    assert!(out.starts_with("{A}\n"), "{out}");

    let (code, out) = run(&[
        "closure",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--policy",
        "pessimistic",
        "--base",
        "R",
        "--lhs",
        "A",
    ]);
    assert_eq!(code, 0, "{out}");
    assert_eq!(out, "R:A\nR:B:C\n(2 paths)\n");
    let (code, out) = keys("pessimistic");
    assert_eq!(code, 0, "{out}");
    assert!(!out.contains("{A}\n"), "{out}");
    assert!(out.contains("{A, D}\n"), "{out}");
}

/// `witness` and `analyze` open their session like every other session
/// subcommand, so they honour `--add-dep`; they refuse any `--policy`
/// but `strict`, because the Appendix A construction and the minimal
/// cover assume no empty sets.
#[test]
fn witness_and_analyze_open_the_session_strictly() {
    let f = Fixture::new("witness-analyze");
    let schema = f.file("s.nfds", COURSE_SCHEMA);
    let deps = f.file("d.nfdd", COURSE_DEPS);
    let added = "Course:[students:sid -> cnum]";
    for sub in [
        &["witness", "--base", "Course", "--lhs", "cnum"][..],
        &["analyze"][..],
    ] {
        let mut args = vec![sub[0], "--schema", &schema, "--deps", &deps];
        args.extend_from_slice(&sub[1..]);
        let (code, out) = run(&args);
        assert_eq!(code, 0, "{out}");
        args.extend_from_slice(&["--policy", "pessimistic"]);
        let (code, out) = run(&args);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("--policy must be `strict`"), "{out}");
    }

    let (code, out) = run(&["analyze", "--schema", &schema, "--deps", &deps]);
    assert_eq!(code, 0, "{out}");
    assert!(!out.contains(added), "{out}");
    let (code, out) = run(&[
        "analyze",
        "--schema",
        &schema,
        "--deps",
        &deps,
        "--add-dep",
        added,
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains(&format!("  {added};")), "{out}");
    assert!(out.contains("of 8 kept"), "{out}");
}
