//! The `nfdtool` command-line interface.
//!
//! A thin, dependency-free front end over the library: schemas,
//! dependency sets and instances are read from files in the textual
//! syntaxes of [`nfd_model::parse`] and [`nfd_core::nfd`], and each
//! subcommand maps to one library entry point.
//!
//! ```text
//! nfdtool check    --schema S --deps D --instance I    # I ⊨ Σ? (witnesses)
//! nfdtool implies  --schema S --deps D "R:[A -> B]"    # Σ ⊨ σ?
//! nfdtool implies  --schema S --deps D --goals G       # batch: one session, many σ
//! nfdtool prove    --schema S --deps D "R:[A -> B]"    # derivation certificate
//! nfdtool closure  --schema S --deps D --base R:A --lhs B:C,D
//! nfdtool witness  --schema S --deps D --base R --lhs A   # Appendix A instance
//! nfdtool keys     --schema S --deps D --relation R
//! nfdtool analyze  --schema S --deps D            # singletons, redundancy, minimal cover
//! nfdtool render   --schema S --instance I        # nested tables
//! nfdtool snapshot --schema S --deps D --out F    # freeze the compiled session
//! nfdtool serve    --addr HOST:PORT               # multi-tenant registry daemon
//! ```
//!
//! The `implies`, `prove`, `closure` and `keys` subcommands are served by
//! one compiled [`Session`]; batch mode (`--goals`) amortizes that
//! compilation over every goal in the file, and `--snapshot FILE` warm
//! starts the session from a [`crate::snap`] image written by
//! `nfdtool snapshot` (falling back to a fresh compile when the image is
//! corrupt or stale).
//!
//! The entry point [`run`] writes to the supplied sink and returns a
//! process exit code, so the whole CLI is unit-testable.

use crate::session::Session;
use nfd_core::engine::Engine;
use nfd_core::{analysis, construct, nfd::parse_set, satisfy, CoreError, Nfd, TierPreference};
use nfd_govern::{Budget, Verdict};
use nfd_model::{render, Instance, Schema};
use nfd_path::{Path, RootedPath};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A dispatch failure, distinguishing bad input from exhausted budgets so
/// callers (and scripts) can tell them apart by exit code.
enum CliFail {
    /// Usage or input error → exit 2, with the usage text.
    Usage(String),
    /// A resource budget/deadline ran out → exit 3.
    Exhausted(String),
    /// A contained internal failure (e.g. a decision-procedure panic the
    /// library caught and reported as `CoreError::Internal`) → exit 101.
    /// Not a usage problem, so no usage text.
    Internal(String),
}

impl From<String> for CliFail {
    fn from(msg: String) -> CliFail {
        CliFail::Usage(msg)
    }
}

impl From<&str> for CliFail {
    fn from(msg: &str) -> CliFail {
        CliFail::Usage(msg.to_string())
    }
}

/// Maps a library error: budget exhaustion keeps its identity, everything
/// else is an input/usage failure.
fn core_fail(e: CoreError) -> CliFail {
    match e {
        CoreError::Exhausted(r) => CliFail::Exhausted(r.to_string()),
        CoreError::Internal(msg) => CliFail::Internal(msg),
        other => CliFail::Usage(other.to_string()),
    }
}

/// Runs the CLI with the given arguments (excluding the program name),
/// writing human-readable output to `out`. Returns the exit code:
/// `0` success / property holds, `1` property fails (violation found or
/// not implied), `2` usage or input error, `3` resource budget or
/// deadline exhausted before a verdict, `101` contained internal panic.
pub fn run(args: &[String], out: &mut String) -> i32 {
    let mut inner = String::new();
    let code = match catch_unwind(AssertUnwindSafe(|| dispatch(args, &mut inner))) {
        Ok(Ok(code)) => code,
        Ok(Err(CliFail::Usage(msg))) => {
            let _ = writeln!(inner, "error: {msg}");
            let _ = writeln!(inner, "{USAGE}");
            2
        }
        Ok(Err(CliFail::Exhausted(msg))) => {
            let _ = writeln!(inner, "exhausted: {msg}");
            3
        }
        Ok(Err(CliFail::Internal(msg))) => {
            let _ = writeln!(inner, "internal error: {msg}");
            101
        }
        Err(_) => {
            let _ = writeln!(inner, "internal error: a decision procedure panicked");
            101
        }
    };
    out.push_str(&inner);
    code
}

const USAGE: &str = "usage:
  nfdtool check    --schema FILE --deps FILE --instance FILE
  nfdtool implies  --schema FILE --deps FILE [--policy P] [--budget N] [--timeout-ms T] [--snapshot FILE [--thaw-min-bytes N]] [--add-dep NFD]… [--drop-dep NFD]… NFD
  nfdtool implies  --schema FILE --deps FILE [--policy P] [--budget N] [--timeout-ms T] [--threads N] [--snapshot FILE [--thaw-min-bytes N]] [--add-dep NFD]… [--drop-dep NFD]… --goals FILE
  nfdtool prove    --schema FILE --deps FILE [--policy P] [--budget N] [--timeout-ms T] [--snapshot FILE [--thaw-min-bytes N]] [--add-dep NFD]… [--drop-dep NFD]… NFD
  nfdtool closure  --schema FILE --deps FILE [--policy P] [--budget N] [--timeout-ms T] [--snapshot FILE [--thaw-min-bytes N]] [--add-dep NFD]… [--drop-dep NFD]… --base PATH [--lhs P1,P2,…]
  nfdtool witness  --schema FILE --deps FILE --base PATH [--lhs P1,P2,…]
  nfdtool keys     --schema FILE --deps FILE --relation NAME [--budget N] [--timeout-ms T] [--threads N] [--snapshot FILE [--thaw-min-bytes N]] [--add-dep NFD]… [--drop-dep NFD]…
  nfdtool analyze  --schema FILE --deps FILE
  nfdtool render   --schema FILE --instance FILE
  nfdtool snapshot --schema FILE --deps FILE [--policy P] [--budget N] [--timeout-ms T] [--add-dep NFD]… [--drop-dep NFD]… --out FILE
  nfdtool serve    --addr HOST:PORT [--max-resident N] [--max-inflight N] [--queue N] [--quota N] [--budget N] [--timeout-ms T] [--workers N]

  --goals FILE decides every NFD of the (semicolon-separated) file against
  one compiled session; exit 0 iff all goals are implied.

  --policy P controls empty-set reasoning (Section 3.2 of the paper):
     strict            no instance contains an empty set (default; Theorem 3.1)
     pessimistic       empty sets anywhere; only `follows`-safe inferences
     nonempty:R:A,R:B  like pessimistic, with the listed set paths declared
                       non-empty (the paper's NON-NULL analogue)

  --budget N caps every work counter at N; --timeout-ms T adds a
  wall-clock deadline. With neither flag generous defaults apply. The
  two flags are the whole budget: a command runs once under it and
  never retries. An exhausted budget is an honest \"don't know\", never
  a wrong verdict. The counters govern the session compile, which
  derives every saturated pool (one below the largest pool exits 3 at
  compile), and the key search's candidates. A query answers from those
  pools and polls the budget for liveness only, so only the deadline
  can stop it. To size them, give --budget at least the largest pool
  and --timeout-ms the longest compile or query you will wait for; on
  exit 3, run again with a larger value: the compile is deterministic,
  so a budget that fits derives the same pools and verdict every time.

  --threads N shards batch implication (--goals) and the candidate-key
  search across N worker threads sharing one budget; 0 or omitted uses all
  available parallelism. Results are identical at every thread count.

  --add-dep / --drop-dep mutate the dependency set after the session
  compiles (every --add-dep in flag order, then every --drop-dep; a
  dropped NFD must be present). Each mutation re-saturates only the
  relation it names — incremental delta maintenance, bit-identical to
  recompiling from the mutated --deps file — so queries after the flags
  see exactly the mutated Σ.

  snapshot compiles the session and writes it — interned path tables,
  the saturated Σ pool with full provenance, the empty-set policy and
  the warm closure cache — to --out as a length-prefixed, per-section
  CRC-checksummed binary image, atomically (temp file, flush, rename).
  The other session subcommands accept --snapshot FILE to warm-start
  from such an image: a valid image matching the --schema/--deps/--policy
  on the command line skips the saturation fixpoint entirely, while a
  corrupt, truncated or mismatched one is rejected with a typed reason
  and the tool transparently compiles fresh. Degraded startup is a
  logged event, never a failure and never a wrong answer; --add-dep /
  --drop-dep mutations apply after the thaw exactly as after a compile.
  Images smaller than --thaw-min-bytes (default 16384) compile fresh
  without decoding: tiny sessions compile faster than they thaw (B17),
  so the warm start only engages where it wins. 0 disables the floor.

  serve runs the crash-contained multi-tenant registry daemon: named
  schemas stay resident as compiled sessions behind a line protocol
  (LOAD/IMPLIES/BATCH/CLOSURE/KEYS/SNAPSHOT/RESTORE/QUOTA/EVICT/STATS/
  PING/SHUTDOWN; see
  the README). --max-resident caps warm sessions (LRU eviction, default
  8); --max-inflight and --queue bound admission (overflow answers BUSY);
  --quota meters each tenant's work units (EXHAUSTED when drained): a
  read costs one unit per goal, a mutation its rebuilt pool; --budget
  caps the counters of the builds (LOAD, RESTORE, ADDDEP, DROPDEP) and
  the candidates KEYS enumerates, and --timeout-ms (default 30000) is
  the per-request deadline of IMPLIES and BATCH. Reads (IMPLIES/BATCH/CLOSURE/KEYS) run in parallel on the
  connection threads, as many as --max-inflight admits; ADDDEP/DROPDEP
  fork the tenant's compiled session, change the fork and swap it in,
  never blocking readers. Every read answers from the resident compiled
  session, which no query re-saturates, and polls only the deadline,
  so a metered tenant gets the answers an unmetered one does.
  --workers N sets only how many threads each BATCH runs on (0 or
  omitted: all available cores). Exits 0 on a clean SHUTDOWN drain.

  exit codes: 0 holds/implied · 1 fails/not implied · 2 usage or input
  error · 3 budget or deadline exhausted · 101 contained internal panic";

struct Opts {
    schema: Option<String>,
    deps: Option<String>,
    instance: Option<String>,
    base: Option<String>,
    lhs: Option<String>,
    relation: Option<String>,
    policy: Option<String>,
    goals: Option<String>,
    budget: Option<String>,
    timeout_ms: Option<String>,
    threads: Option<String>,
    addr: Option<String>,
    max_resident: Option<String>,
    max_inflight: Option<String>,
    queue: Option<String>,
    quota: Option<String>,
    /// Repeatable `--add-dep NFD`: dependencies added to Σ after the
    /// session compiles, via incremental delta saturation.
    add_dep: Vec<String>,
    /// Repeatable `--drop-dep NFD`: dependencies retracted from Σ after
    /// the session compiles (and after every `--add-dep`).
    drop_dep: Vec<String>,
    /// `--snapshot FILE`: warm-start the session from a frozen image,
    /// falling back to a fresh compile when the image is rejected.
    snapshot: Option<String>,
    /// `--thaw-min-bytes N`: image-size floor below which `--snapshot`
    /// compiles fresh instead of thawing (`0` disables the gate).
    thaw_min_bytes: Option<String>,
    /// `--workers N`: `serve`'s `BATCH` thread count.
    workers: Option<String>,
    /// `--out FILE`: where the `snapshot` subcommand writes its image.
    out: Option<String>,
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        schema: None,
        deps: None,
        instance: None,
        base: None,
        lhs: None,
        relation: None,
        policy: None,
        goals: None,
        budget: None,
        timeout_ms: None,
        threads: None,
        addr: None,
        max_resident: None,
        max_inflight: None,
        queue: None,
        quota: None,
        add_dep: Vec::new(),
        drop_dep: Vec::new(),
        snapshot: None,
        thaw_min_bytes: None,
        workers: None,
        out: None,
        positional: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("flag `{}` needs a value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--schema" => o.schema = Some(take(&mut i)?),
            "--deps" => o.deps = Some(take(&mut i)?),
            "--instance" => o.instance = Some(take(&mut i)?),
            "--base" => o.base = Some(take(&mut i)?),
            "--lhs" => o.lhs = Some(take(&mut i)?),
            "--relation" => o.relation = Some(take(&mut i)?),
            "--policy" => o.policy = Some(take(&mut i)?),
            "--goals" => o.goals = Some(take(&mut i)?),
            "--budget" => o.budget = Some(take(&mut i)?),
            "--timeout-ms" => o.timeout_ms = Some(take(&mut i)?),
            "--threads" => o.threads = Some(take(&mut i)?),
            "--addr" => o.addr = Some(take(&mut i)?),
            "--max-resident" => o.max_resident = Some(take(&mut i)?),
            "--max-inflight" => o.max_inflight = Some(take(&mut i)?),
            "--queue" => o.queue = Some(take(&mut i)?),
            "--quota" => o.quota = Some(take(&mut i)?),
            "--add-dep" => o.add_dep.push(take(&mut i)?),
            "--drop-dep" => o.drop_dep.push(take(&mut i)?),
            "--snapshot" => o.snapshot = Some(take(&mut i)?),
            "--thaw-min-bytes" => o.thaw_min_bytes = Some(take(&mut i)?),
            "--workers" => o.workers = Some(take(&mut i)?),
            "--out" => o.out = Some(take(&mut i)?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            other => o.positional.push(other.to_string()),
        }
        i += 1;
    }
    Ok(o)
}

fn read(path: &str, what: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {what} file `{path}`: {e}"))
}

fn load_schema(o: &Opts) -> Result<Schema, String> {
    let path = o.schema.as_deref().ok_or("--schema is required")?;
    Schema::parse(&read(path, "schema")?).map_err(|e| format!("schema: {e}"))
}

fn load_deps(o: &Opts, schema: &Schema) -> Result<Vec<Nfd>, String> {
    let path = o.deps.as_deref().ok_or("--deps is required")?;
    parse_set(schema, &read(path, "dependencies")?).map_err(|e| format!("dependencies: {e}"))
}

fn load_instance(o: &Opts, schema: &Schema) -> Result<Instance, String> {
    let path = o.instance.as_deref().ok_or("--instance is required")?;
    Instance::parse(schema, &read(path, "instance")?).map_err(|e| format!("instance: {e}"))
}

fn parse_lhs(o: &Opts) -> Result<Vec<Path>, String> {
    match &o.lhs {
        None => Ok(Vec::new()),
        Some(text) => text
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| Path::parse(s).map_err(|e| format!("--lhs: {e}")))
            .collect(),
    }
}

fn parse_policy(o: &Opts) -> Result<nfd_core::EmptySetPolicy, String> {
    match o.policy.as_deref() {
        None | Some("strict") => Ok(nfd_core::EmptySetPolicy::Forbidden),
        Some("pessimistic") => Ok(nfd_core::EmptySetPolicy::pessimistic()),
        Some(spec) if spec.starts_with("nonempty:") => {
            let paths: Result<Vec<RootedPath>, String> = spec["nonempty:".len()..]
                .split(',')
                .filter(|s| !s.trim().is_empty())
                .map(|s| RootedPath::parse(s.trim()).map_err(|e| format!("--policy: {e}")))
                .collect();
            Ok(nfd_core::EmptySetPolicy::non_empty(paths?))
        }
        Some(other) => Err(format!(
            "--policy must be `strict`, `pessimistic` or `nonempty:R:A,…`, got `{other}`"
        )),
    }
}

/// Builds the [`Budget`] requested by `--budget` / `--timeout-ms`. With
/// neither flag the standard budget applies (generous counter ceilings,
/// no deadline) — exactly the pre-governance behaviour.
fn parse_budget(o: &Opts) -> Result<Budget, String> {
    let mut budget = match o.budget.as_deref() {
        None => Budget::standard(),
        Some(text) => {
            let n: u64 = text
                .parse()
                .map_err(|_| format!("--budget must be a non-negative integer, got `{text}`"))?;
            Budget::limited(n)
        }
    };
    if let Some(text) = o.timeout_ms.as_deref() {
        let ms: u64 = text
            .parse()
            .map_err(|_| format!("--timeout-ms must be a non-negative integer, got `{text}`"))?;
        budget = budget.with_timeout_ms(ms);
    }
    Ok(budget)
}

/// Applies `--add-dep` / `--drop-dep` mutations to a compiled session:
/// every `--add-dep` first (in flag order), then every `--drop-dep`.
/// Each mutation re-saturates only the relation it names (the rest of
/// the session stays warm) and is atomic — a failure leaves the session
/// reflecting the mutations applied so far, and aborts the command.
fn apply_mutations(session: &mut Session, schema: &Schema, o: &Opts) -> Result<(), CliFail> {
    if o.add_dep.is_empty() && o.drop_dep.is_empty() {
        return Ok(());
    }
    let parse = |texts: &[String], flag: &str| -> Result<Vec<Nfd>, CliFail> {
        texts
            .iter()
            .map(|t| Nfd::parse(schema, t).map_err(|e| CliFail::Usage(format!("{flag}: {e}"))))
            .collect()
    };
    let adds = parse(&o.add_dep, "--add-dep")?;
    let drops = parse(&o.drop_dep, "--drop-dep")?;
    session.add_deps(&adds).map_err(core_fail)?;
    session.remove_deps(&drops).map_err(core_fail)?;
    Ok(())
}

/// Image-size floor (bytes) below which `--snapshot` compiles fresh by
/// default. B17 measured the crossover honestly: a 7-NFD Course image
/// (1.6 KiB) thaws at 0.4–0.5× a fresh compile — decode + checksum +
/// replay validation costs more than the saturation it skips — while a
/// wide 64-NFD image (774 KiB) thaws at 3–4×. Small images up to about
/// 9.5 KiB can thaw slower than they compile and every one from 13 KiB
/// up thaws faster, so the gate sits just above the losing sizes;
/// `--thaw-min-bytes` moves it (0 disables the gate).
const DEFAULT_THAW_MIN_BYTES: u64 = 16 * 1024;

/// Attempts the `--snapshot FILE` warm start. `Ok(None)` means "compile
/// fresh": either the flag was absent, or the image was rejected —
/// unreadable, corrupt, truncated, version-skewed, or frozen from a
/// different schema/Σ/policy. Rejection is graceful degradation, not an
/// error: the typed reason is logged to `out` and the caller proceeds
/// with an ordinary [`Session::with_budget`] compile. A malformed
/// `--thaw-min-bytes` is a usage error.
fn thaw_from_flag<'s>(
    o: &Opts,
    schema: &'s Schema,
    sigma: &[Nfd],
    policy: &nfd_core::EmptySetPolicy,
    budget: &Budget,
    out: &mut String,
) -> Result<Option<Session<'s>>, String> {
    let floor = match o.thaw_min_bytes.as_deref() {
        None => DEFAULT_THAW_MIN_BYTES,
        Some(text) => text.parse().map_err(|_| {
            format!("--thaw-min-bytes must be a non-negative integer, got `{text}`")
        })?,
    };
    let Some(path) = o.snapshot.as_deref() else {
        return Ok(None);
    };
    let mut attempt = || -> Result<Option<Session<'s>>, nfd_snap::SnapError> {
        let bytes = nfd_snap::read_file(std::path::Path::new(path))?;
        if (bytes.len() as u64) < floor {
            let _ = writeln!(
                out,
                "(snapshot `{path}` is {} bytes, under the {floor}-byte warm-start floor; tiny sessions compile faster than they thaw — compiling fresh)",
                bytes.len()
            );
            return Ok(None);
        }
        let snapshot = nfd_snap::decode(&bytes)?;
        Session::thaw(
            schema,
            sigma,
            policy.clone(),
            budget.clone(),
            TierPreference::Auto,
            &snapshot,
        )
        .map(Some)
    };
    Ok(match attempt() {
        Ok(Some(session)) => {
            let _ = writeln!(out, "(warm start: thawed snapshot `{path}`)");
            Some(session)
        }
        Ok(None) => None,
        Err(e) => {
            let _ = writeln!(out, "(snapshot `{path}` rejected: {e}; compiling fresh)");
            None
        }
    })
}

/// Parses `--threads`: `0` (the default) means all available parallelism.
fn parse_threads(o: &Opts) -> Result<usize, String> {
    match o.threads.as_deref() {
        None => Ok(0),
        Some(text) => text
            .parse()
            .map_err(|_| format!("--threads must be a non-negative integer, got `{text}`")),
    }
}

fn dispatch(args: &[String], out: &mut String) -> Result<i32, CliFail> {
    let Some(cmd) = args.first() else {
        return Err("no subcommand".into());
    };
    let o = parse_opts(&args[1..])?;
    match cmd.as_str() {
        "check" => {
            let schema = load_schema(&o)?;
            let sigma = load_deps(&o, &schema)?;
            let inst = load_instance(&o, &schema)?;
            let mut failures = 0usize;
            for nfd in &sigma {
                let r = satisfy::check(&schema, &inst, nfd).map_err(|e| e.to_string())?;
                if r.holds {
                    let _ = writeln!(out, "ok    {nfd}");
                } else {
                    failures += 1;
                    let _ = writeln!(out, "FAIL  {nfd}");
                    if let Some(v) = r.violation {
                        let _ = writeln!(out, "      witness: {v}");
                    }
                }
            }
            let _ = writeln!(
                out,
                "{} of {} constraints hold",
                sigma.len() - failures,
                sigma.len()
            );
            Ok(if failures == 0 { 0 } else { 1 })
        }
        "implies" | "prove" => {
            let schema = load_schema(&o)?;
            let sigma = load_deps(&o, &schema)?;
            let policy = parse_policy(&o)?;
            let budget = parse_budget(&o)?;
            // Session compilation runs under the same budget as the
            // queries. A `--snapshot` warm start replaces the compile
            // when the image is accepted.
            let mut session = match thaw_from_flag(&o, &schema, &sigma, &policy, &budget, out)? {
                Some(s) => s,
                None => Session::with_budget(&schema, &sigma, policy, budget.clone())
                    .map_err(core_fail)?,
            };
            apply_mutations(&mut session, &schema, &o)?;
            // Batch mode: one compiled session answers every goal of the
            // file — the compilation cost is paid once, not per goal.
            if cmd == "implies" && o.goals.is_some() {
                let path = o.goals.as_deref().expect("checked is_some");
                let goals =
                    parse_set(&schema, &read(path, "goals")?).map_err(|e| format!("goals: {e}"))?;
                if goals.is_empty() {
                    return Err(format!("goals file `{path}` contains no NFDs").into());
                }
                let threads = parse_threads(&o)?;
                let batch = session
                    .implies_batch(&goals, &budget, threads)
                    .map_err(core_fail)?;
                for (goal, slot) in goals.iter().zip(&batch.decisions) {
                    let word = match slot {
                        Ok(d) => match d.verdict.as_bool() {
                            Some(true) => "implied    ",
                            Some(false) => "not implied",
                            None => "exhausted  ",
                        },
                        Err(_) => "failed     ",
                    };
                    let _ = writeln!(out, "{word}  {goal}");
                }
                let implied = batch.implied_count();
                let exhausted = batch.exhausted_count();
                let failed = batch.failed_count();
                let _ = writeln!(out, "{implied} of {} goals implied", goals.len());
                if failed > 0 {
                    let _ = writeln!(out, "({failed} failed internally)");
                    return Ok(101);
                }
                if exhausted > 0 {
                    let _ = writeln!(out, "({exhausted} exhausted the budget)");
                    return Ok(3);
                }
                return Ok(if implied == goals.len() { 0 } else { 1 });
            }
            let goal_text = o
                .positional
                .first()
                .ok_or("expected the goal NFD as a positional argument (or --goals FILE)")?;
            let goal = Nfd::parse(&schema, goal_text).map_err(|e| format!("goal: {e}"))?;
            if cmd == "implies" {
                let decision = session.implies_with(&goal, &budget).map_err(core_fail)?;
                let yes = match &decision.verdict {
                    Verdict::Exhausted(r) => return Err(CliFail::Exhausted(r.to_string())),
                    verdict => *verdict == Verdict::Implied,
                };
                let _ = writeln!(out, "{}", if yes { "implied" } else { "not implied" });
                Ok(if yes { 0 } else { 1 })
            } else {
                match session.prove(&goal).map_err(core_fail)? {
                    Some(pf) => {
                        session
                            .verify(&pf)
                            .map_err(|e| format!("internal: certificate rejected: {e}"))?;
                        let _ = write!(out, "{pf}");
                        Ok(0)
                    }
                    None => {
                        let _ = writeln!(out, "not implied (no derivation exists)");
                        Ok(1)
                    }
                }
            }
        }
        "closure" => {
            let schema = load_schema(&o)?;
            let sigma = load_deps(&o, &schema)?;
            let base_text = o.base.as_deref().ok_or("--base is required")?;
            let base = RootedPath::parse(base_text).map_err(|e| format!("--base: {e}"))?;
            let lhs = parse_lhs(&o)?;
            let policy = parse_policy(&o)?;
            let budget = parse_budget(&o)?;
            let mut session = match thaw_from_flag(&o, &schema, &sigma, &policy, &budget, out)? {
                Some(s) => s,
                None => Session::with_budget(&schema, &sigma, policy, budget).map_err(core_fail)?,
            };
            apply_mutations(&mut session, &schema, &o)?;
            let cl = session.closure(&base, &lhs).map_err(core_fail)?;
            for p in &cl {
                let _ = writeln!(out, "{p}");
            }
            let _ = writeln!(out, "({} paths)", cl.len());
            Ok(0)
        }
        "witness" => {
            let schema = load_schema(&o)?;
            let sigma = load_deps(&o, &schema)?;
            let base_text = o.base.as_deref().ok_or("--base is required")?;
            let base = RootedPath::parse(base_text).map_err(|e| format!("--base: {e}"))?;
            let lhs = parse_lhs(&o)?;
            let engine = Engine::new(&schema, &sigma).map_err(|e| e.to_string())?;
            let built =
                construct::counterexample(&engine, &base, &lhs).map_err(|e| e.to_string())?;
            let _ = writeln!(
                out,
                "# Appendix-A instance: satisfies the dependency set and violates"
            );
            let _ = writeln!(
                out,
                "# {base}:[{} -> y] for every y outside the closure below.",
                lhs.iter()
                    .map(Path::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            let _ = writeln!(
                out,
                "# closure: {}",
                built
                    .closure
                    .iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            let _ = write!(out, "{}", built.instance);
            Ok(0)
        }
        "keys" => {
            let schema = load_schema(&o)?;
            let sigma = load_deps(&o, &schema)?;
            let rel_text = o.relation.as_deref().ok_or("--relation is required")?;
            let relation = nfd_model::Label::new(rel_text);
            let budget = parse_budget(&o)?;
            let policy = nfd_core::EmptySetPolicy::Forbidden;
            let mut session = match thaw_from_flag(&o, &schema, &sigma, &policy, &budget, out)? {
                Some(s) => s,
                None => Session::with_budget(&schema, &sigma, policy, budget).map_err(core_fail)?,
            };
            apply_mutations(&mut session, &schema, &o)?;
            let threads = parse_threads(&o)?;
            let keys = session
                .candidate_keys_threaded(relation, 4, threads)
                .map_err(core_fail)?;
            for k in &keys {
                let _ = writeln!(
                    out,
                    "{{{}}}",
                    k.iter().map(Path::to_string).collect::<Vec<_>>().join(", ")
                );
            }
            let _ = writeln!(out, "({} candidate keys of size ≤ 4)", keys.len());
            Ok(0)
        }
        "analyze" => {
            let schema = load_schema(&o)?;
            let sigma = load_deps(&o, &schema)?;
            let engine = Engine::new(&schema, &sigma).map_err(|e| e.to_string())?;
            let singles = analysis::forced_singletons(&engine).map_err(|e| e.to_string())?;
            let _ = writeln!(out, "forced singleton sets:");
            if singles.is_empty() {
                let _ = writeln!(out, "  (none)");
            }
            for s in singles {
                let _ = writeln!(out, "  {s}");
            }
            let eod = analysis::equal_or_disjoint_sets(&engine).map_err(|e| e.to_string())?;
            let _ = writeln!(out, "equal-or-disjoint sets:");
            if eod.is_empty() {
                let _ = writeln!(out, "  (none)");
            }
            for s in eod {
                let _ = writeln!(out, "  {s}");
            }
            let min = analysis::minimize(&schema, &sigma).map_err(|e| e.to_string())?;
            let _ = writeln!(
                out,
                "minimal cover ({} of {} kept):",
                min.len(),
                sigma.len()
            );
            for nfd in min {
                let _ = writeln!(out, "  {nfd};");
            }
            Ok(0)
        }
        "render" => {
            let schema = load_schema(&o)?;
            let inst = load_instance(&o, &schema)?;
            let _ = write!(out, "{}", render::render_instance(&schema, &inst));
            Ok(0)
        }
        "snapshot" => {
            let schema = load_schema(&o)?;
            let sigma = load_deps(&o, &schema)?;
            let policy = parse_policy(&o)?;
            let budget = parse_budget(&o)?;
            let out_path = o.out.as_deref().ok_or("--out is required")?;
            let mut session =
                Session::with_budget(&schema, &sigma, policy, budget).map_err(core_fail)?;
            apply_mutations(&mut session, &schema, &o)?;
            let image = session.freeze();
            let bytes = nfd_snap::encode(&image);
            nfd_snap::write_atomic(std::path::Path::new(out_path), &bytes)
                .map_err(|e| CliFail::Usage(format!("cannot write snapshot `{out_path}`: {e}")))?;
            let _ = writeln!(
                out,
                "snapshot: wrote {} bytes to `{out_path}` ({} pools, {} cached closures)",
                bytes.len(),
                image.pools.len(),
                image.cache.len()
            );
            Ok(0)
        }
        "serve" => {
            let addr = o
                .addr
                .as_deref()
                .ok_or("--addr is required (e.g. --addr 127.0.0.1:7171)")?;
            let parse_u64 = |text: Option<&str>, flag: &str| -> Result<Option<u64>, String> {
                text.map(|t| {
                    t.parse::<u64>()
                        .map_err(|_| format!("{flag} must be a non-negative integer, got `{t}`"))
                })
                .transpose()
            };
            let mut registry_cfg = crate::serve::RegistryConfig::default();
            if let Some(n) = parse_u64(o.max_resident.as_deref(), "--max-resident")? {
                registry_cfg.max_resident = n as usize;
            }
            if let Some(n) = parse_u64(o.quota.as_deref(), "--quota")? {
                registry_cfg.default_quota = Some(n);
            }
            if let Some(n) = parse_u64(o.budget.as_deref(), "--budget")? {
                registry_cfg.build_budget = Some(n);
            }
            if let Some(ms) = parse_u64(o.timeout_ms.as_deref(), "--timeout-ms")? {
                registry_cfg.request_timeout_ms = ms;
            }
            if let Some(n) = parse_u64(o.workers.as_deref(), "--workers")? {
                registry_cfg.workers = n as usize;
            }
            let mut server_cfg = nfd_serve::ServerConfig::default();
            if let Some(n) = parse_u64(o.max_inflight.as_deref(), "--max-inflight")? {
                server_cfg.max_inflight = n as usize;
            }
            if let Some(n) = parse_u64(o.queue.as_deref(), "--queue")? {
                server_cfg.queue_depth = n as usize;
            }
            let registry = crate::serve::Registry::new(registry_cfg);
            let server = nfd_serve::Server::bind(addr, server_cfg, registry)
                .map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
            let local = server
                .local_addr()
                .map_err(|e| CliFail::Internal(format!("local_addr: {e}")))?;
            // Directly to stderr, not the buffered sink: scripts need the
            // "listening" line (with the resolved port) *before* exit.
            eprintln!("nfdtool serve: listening on {local} (send SHUTDOWN to drain)");
            let stats = server
                .run()
                .map_err(|e| CliFail::Internal(format!("server failed: {e}")))?;
            let _ = writeln!(
                out,
                "serve: drained cleanly — {} connections, {} requests, {} shed, {} contained panics",
                stats.connections, stats.requests, stats.shed, stats.contained_panics
            );
            Ok(0)
        }
        "help" | "--help" | "-h" => {
            let _ = writeln!(out, "{USAGE}");
            Ok(0)
        }
        other => Err(format!("unknown subcommand `{other}`").into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_subcommand_is_usage_error() {
        let mut out = String::new();
        assert_eq!(run(&[], &mut out), 2);
        assert!(out.contains("usage:"));
    }

    #[test]
    fn unknown_subcommand() {
        let mut out = String::new();
        assert_eq!(run(&args(&["frobnicate"]), &mut out), 2);
        assert!(out.contains("unknown subcommand"));
    }

    #[test]
    fn help_prints_usage() {
        let mut out = String::new();
        assert_eq!(run(&args(&["help"]), &mut out), 0);
        assert!(out.contains("nfdtool implies"));
    }

    #[test]
    fn missing_flag_value() {
        let mut out = String::new();
        assert_eq!(run(&args(&["closure", "--schema"]), &mut out), 2);
        assert!(out.contains("needs a value"));
    }
}
