//! The traced run: a short end-to-end run, then the very ops it executed
//! replayed in-process through the layers' public functions, each call
//! timed from outside. An op's end-to-end latency minus its in-process
//! time is the transport's share; the in-process time splits further
//! across the layer calls. Spans inside the program are not used: this
//! is the benchmark's view from the layer boundaries.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use nfd::core::{EmptySetPolicy, Nfd, Tier, TierPreference};
use nfd::govern::Budget;
use nfd::model::Label;
use nfd::net::{Command, Gate, Handler, ServerConfig};
use nfd::serve::Registry;
use nfd::session::{Decision, Session};

use crate::exec::{self, daemon_config, E2e, Target, Turns};
use crate::oracle::{self, Read, Tenant};
use crate::plan::{Body, Call, Class, CliKind, Op, Plan};
use crate::{median, Metric};

/// Per-layer metrics of one traced run. `layers` are the uniform set
/// every workload reports; `notes` add the layers only some workloads
/// pass through.
pub struct Traced {
    /// The end-to-end half of the run.
    pub e2e: E2e,
    /// Metrics named in `BENCHMARK.json` `per_layer`.
    pub layers: Vec<Metric>,
    /// Workload-specific decomposition, printed only.
    pub notes: Vec<Metric>,
}

/// One op replayed in-process.
#[derive(Clone, Copy)]
struct Step {
    client: usize,
    index: usize,
    class: Class,
    /// Time through the program's entry point (µs).
    total_us: f64,
    parse_us: f64,
    admit_us: f64,
    handle_us: f64,
    wire_us: f64,
    req_bytes: usize,
    resp_bytes: usize,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, us(started.elapsed()))
}

/// Runs the traced variant of `plan` for `seconds` in total.
pub fn run(plan: &Plan, target: &Target, seconds: f64) -> Result<Traced, String> {
    let mut e2e = exec::run(plan, target, seconds / 2.0, 1)?;
    let mut notes = Vec::new();
    let steps = match &plan.body {
        Body::Serve { setup, streams, .. } => replay_serve(plan, setup, streams, &e2e, &mut notes)?,
        Body::Cli { calls } => replay_cli(plan, calls, &e2e, &mut notes)?,
    };
    if let Some(bad) = steps.iter().find_map(|s| s.as_ref().err()) {
        e2e.failed += 1;
        e2e.reasons.push(format!("in-process replay: {bad}"));
    }
    let steps: Vec<Step> = steps.into_iter().filter_map(Result::ok).collect();
    let session = session_layer(plan, &steps, &mut notes)?;

    let mut transport = Vec::new();
    for s in &e2e.samples {
        if let Some(step) = steps
            .iter()
            .find(|t| t.client == s.client && t.index == s.index)
        {
            transport.push(s.ms - step.total_us / 1e3);
        }
    }
    let sum = |f: fn(&Tenant) -> f64| plan.tenants.iter().map(f).sum::<f64>();
    let layers = vec![
        Metric::new("transport_ms", median(&transport), "ms", transport.len()),
        Metric::new(
            "program.op_us",
            median(&steps.iter().map(|s| s.total_us).collect::<Vec<_>>()),
            "us",
            steps.len(),
        ),
        Metric::new("session.read_us", median(&session), "us", session.len()),
        Metric::new(
            "engine.build_ms",
            sum(|t| t.build_time.as_secs_f64() * 1e3),
            "ms",
            plan.tenants.len(),
        ),
        Metric::new(
            "parse.source_us",
            sum(|t| us(t.parse_time)),
            "us",
            plan.tenants.len(),
        ),
        Metric::new(
            "engine.pool_entries",
            sum(|t| t.session.engine().pool_size() as f64),
            "count",
            plan.tenants.len(),
        ),
    ];
    Ok(Traced { e2e, layers, notes })
}

/// How many ops each client executed end to end.
fn executed(e2e: &E2e, client: usize) -> usize {
    e2e.samples
        .iter()
        .filter(|s| s.client == client)
        .map(|s| s.index + 1)
        .max()
        .unwrap_or(0)
}

fn class_median(steps: &[Step], class: Class, f: fn(&Step) -> f64) -> (f64, usize) {
    let v: Vec<f64> = steps.iter().filter(|s| s.class == class).map(f).collect();
    (median(&v), v.len())
}

/// One serve op through parse, admission, the registry and the wire.
fn replay_op(
    registry: &Registry,
    gate: &Gate,
    op: &Op,
    client: usize,
    index: usize,
) -> Result<Step, String> {
    let (cmd, parse_us) = timed(|| Command::parse(&op.line));
    let cmd = cmd?;
    let (permit, admit_us) = timed(|| gate.admit());
    let permit = permit.map_err(|shed| shed.reason().to_string())?;
    let (resp, handle_us) = timed(|| registry.handle(cmd));
    drop(permit);
    let (wire, wire_us) = timed(|| resp.wire());
    if !op.expect.accepts(&wire) {
        return Err(format!("`{}` answered {wire:?} in-process", op.line));
    }
    Ok(Step {
        client,
        index,
        class: op.class,
        total_us: parse_us + admit_us + handle_us + wire_us,
        parse_us,
        admit_us,
        handle_us,
        wire_us,
        req_bytes: op.line.len() + 1,
        resp_bytes: wire.len() + 1,
    })
}

fn replay_serve(
    plan: &Plan,
    setup: &[Op],
    streams: &[Vec<Op>; 2],
    e2e: &E2e,
    notes: &mut Vec<Metric>,
) -> Result<Vec<Result<Step, String>>, String> {
    let registry = Registry::new(daemon_config());
    let cfg = ServerConfig::default();
    let gate = Gate::new(
        cfg.max_inflight,
        cfg.queue_depth,
        Duration::from_millis(cfg.queue_wait_ms),
    );
    for op in setup {
        let reply = registry.handle(Command::parse(&op.line)?).wire();
        if !op.expect.accepts(&reply) {
            return Err(format!("in-process setup `{}` answered {reply:?}", op.line));
        }
    }
    // Heavy ops take turns as they did end to end. A client that has
    // replayed all its ops releases the others' turns, in case a failed
    // run left the clients with unequal counts.
    let turns = Turns::new(streams.len());
    let steps: Vec<Result<Step, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(client, stream)| {
                let (registry, gate, turns) = (&registry, &gate, &turns);
                s.spawn(move || {
                    let mut heavy = 0;
                    let steps = (0..executed(e2e, client))
                        .map(|index| {
                            let op = &stream[index % stream.len()];
                            if op.class == Class::Read {
                                return replay_op(registry, gate, op, client, index);
                            }
                            turns.wait(client, heavy);
                            let step = replay_op(registry, gate, op, client, index);
                            turns.done();
                            heavy += 1;
                            step
                        })
                        .collect::<Vec<_>>();
                    turns.stop_at(0);
                    steps
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay thread"))
            .collect()
    });
    let stats = registry.stats_line();
    registry.on_shutdown();

    let ok: Vec<Step> = steps
        .iter()
        .filter_map(|s| s.as_ref().ok().copied())
        .collect();
    let col = |f: fn(&Step) -> f64| median(&ok.iter().map(f).collect::<Vec<_>>());
    let n = ok.len();
    notes.push(Metric::new("proto.parse_us", col(|s| s.parse_us), "us", n));
    notes.push(Metric::new("proto.wire_us", col(|s| s.wire_us), "us", n));
    notes.push(Metric::new(
        "proto.req_bytes",
        col(|s| s.req_bytes as f64),
        "bytes",
        n,
    ));
    notes.push(Metric::new(
        "proto.resp_bytes",
        col(|s| s.resp_bytes as f64),
        "bytes",
        n,
    ));
    notes.push(Metric::new("gate.admit_us", col(|s| s.admit_us), "us", n));
    for (name, class, scale, unit) in [
        ("registry.read_us", Class::Read, 1.0, "us"),
        ("registry.write_ms", Class::Write, 1e-3, "ms"),
        ("registry.load_ms", Class::Load, 1e-3, "ms"),
    ] {
        let (v, n) = class_median(&ok, class, |s| s.handle_us);
        if n > 0 {
            notes.push(Metric::new(name, v * scale, unit, n));
        }
    }
    let hits = exec::counter(&stats, "closure_hits").unwrap_or(0) as f64;
    let misses = exec::counter(&stats, "closure_misses").unwrap_or(0) as f64;
    if hits + misses > 0.0 {
        notes.push(Metric::new(
            "registry.closure_hit_frac",
            hits / (hits + misses),
            "ratio",
            1,
        ));
    }
    for key in ["epoch_swaps", "evicted_lru", "reloads", "worker_failures"] {
        let v = exec::counter(&stats, key).unwrap_or(0) as f64;
        notes.push(Metric::new(&format!("registry.{key}"), v, "count", 1));
    }
    if plan.workload == crate::Workload::ServeWrite {
        write_path(&plan.tenants[0], streams, notes)?;
    }
    if !plan.fixtures.snapshots.is_empty() {
        thaw_costs(plan, notes)?;
    }
    Ok(steps)
}

/// The write path's parts, timed on the oracle tenant for each dep the
/// streams add: freeze+encode, decode+thaw, `add_deps`, `remove_deps`.
fn write_path(
    tenant: &Tenant,
    streams: &[Vec<Op>; 2],
    notes: &mut Vec<Metric>,
) -> Result<(), String> {
    let mut deps: Vec<&str> = Vec::new();
    for op in streams
        .iter()
        .flatten()
        .filter(|op| op.line.starts_with("ADDDEP "))
    {
        let dep = op.line.splitn(3, ' ').nth(2).expect("ADDDEP <name> <dep>");
        if !deps.contains(&dep) {
            deps.push(dep);
        }
    }
    let (mut freeze, mut thaw, mut add, mut remove, mut bytes) =
        (vec![], vec![], vec![], vec![], vec![]);
    for dep in deps {
        let nfd = tenant.nfd(dep)?;
        let (image, t) = timed(|| nfd::snap::encode(&tenant.session.freeze()));
        freeze.push(t / 1e3);
        bytes.push(image.len() as f64);
        let (session, t) = timed(|| thaw_image(tenant, &image));
        thaw.push(t / 1e3);
        let mut session = session?;
        let (r, t) = timed(|| session.add_deps(std::slice::from_ref(&nfd)));
        r.map_err(|e| e.to_string())?;
        add.push(t / 1e3);
        let (r, t) = timed(|| session.remove_deps(std::slice::from_ref(&nfd)));
        r.map_err(|e| e.to_string())?;
        remove.push(t / 1e3);
    }
    for (name, v, unit) in [
        ("snap.freeze_ms", &freeze, "ms"),
        ("snap.thaw_ms", &thaw, "ms"),
        ("snap.bytes", &bytes, "bytes"),
        ("delta.add_ms", &add, "ms"),
        ("delta.remove_ms", &remove, "ms"),
    ] {
        notes.push(Metric::new(name, median(v), unit, v.len()));
    }
    Ok(())
}

/// decode + `Session::thaw`, as `RESTORE` and `--snapshot` do.
fn thaw_image(tenant: &Tenant, image: &[u8]) -> Result<Session<'static>, String> {
    let snap = nfd::snap::decode(image).map_err(|e| e.to_string())?;
    Session::thaw(
        tenant.schema,
        &tenant.sigma,
        EmptySetPolicy::Forbidden,
        Budget::standard(),
        TierPreference::Auto,
        &snap,
    )
    .map_err(|e| e.to_string())
}

/// decode + thaw of every snapshot fixture the setup wrote.
fn thaw_costs(plan: &Plan, notes: &mut Vec<Metric>) -> Result<(), String> {
    let mut thaw = Vec::new();
    for (tenant, args) in plan.tenants.iter().zip(&plan.fixtures.snapshots) {
        let path = args.last().expect("snapshot calls end with --out PATH");
        let image = nfd::snap::read_file(std::path::Path::new(path)).map_err(|e| e.to_string())?;
        let (session, t) = timed(|| thaw_image(tenant, &image));
        session?;
        thaw.push(t / 1e3);
    }
    notes.push(Metric::new("snap.thaw_ms", median(&thaw), "ms", thaw.len()));
    Ok(())
}

fn replay_cli(
    plan: &Plan,
    calls: &[Call],
    e2e: &E2e,
    notes: &mut Vec<Metric>,
) -> Result<Vec<Result<Step, String>>, String> {
    let steps: Vec<Result<Step, String>> = (0..executed(e2e, 0))
        .map(|index| {
            let call = &calls[index % calls.len()];
            let mut out = String::new();
            let (code, run_us) = timed(|| nfd::cli::run(&call.args, &mut out));
            if code != call.code || crate::plan::cli_verdict(&out) != call.expect {
                return Err(format!(
                    "nfdtool {} differs in-process",
                    call.args.join(" ")
                ));
            }
            Ok(Step {
                client: 0,
                index,
                class: Class::Read,
                total_us: run_us,
                parse_us: 0.0,
                admit_us: 0.0,
                handle_us: run_us,
                wire_us: 0.0,
                req_bytes: 0,
                resp_bytes: out.len(),
            })
        })
        .collect();
    let run: Vec<f64> = steps
        .iter()
        .filter_map(|s| s.as_ref().ok())
        .map(|s| s.total_us / 1e3)
        .collect();
    notes.push(Metric::new("cli.run_ms", median(&run), "ms", run.len()));
    thaw_costs(plan, notes)?;
    Ok(steps)
}

/// Times the session-layer call behind every replayed read, on the
/// session the program's path would use: the resident, warm engine for
/// serve; a freshly compiled one per call for the CLI, which compiles
/// per process. Returns the per-call times (µs) and adds the time per
/// call kind, the tier mix and the cache-hit share to `notes`.
fn session_layer(plan: &Plan, steps: &[Step], notes: &mut Vec<Metric>) -> Result<Vec<f64>, String> {
    let budget = Budget::standard().with_timeout_ms(30_000);
    let threads = nfd::par::available();
    let mut times = Vec::new();
    let mut decisions: Vec<Decision> = Vec::new();
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut dispatch = Vec::new();
    for step in steps.iter().filter(|s| s.class == Class::Read) {
        match &plan.body {
            Body::Serve { streams, .. } => {
                let stream = &streams[step.client];
                let Some((t, read)) = &stream[step.index % stream.len()].read else {
                    continue;
                };
                let tenant = &plan.tenants[*t];
                let (d, t) = serve_read(tenant, read, &budget, threads)?;
                let kind = match read {
                    Read::Implies(_) => "session.implies_us",
                    Read::Batch(_) => "session.batch_us",
                    Read::Closure(..) => "session.closure_us",
                    Read::Keys(_) => "session.keys_us",
                };
                by_kind.entry(kind).or_default().push(t);
                decisions.extend(d);
                times.push(t);
                dispatch.push(step.handle_us - t);
            }
            Body::Cli { calls } => {
                let (f, kind) = &calls[step.index % calls.len()].kind;
                let tenant = &plan.tenants[*f];
                let fresh =
                    oracle::build(tenant.schema, &tenant.sigma).map_err(|e| e.to_string())?;
                let (d, t) = cli_read(tenant, &fresh, kind)?;
                // `implies_with` re-saturates under the query budget.
                let kind = match kind {
                    CliKind::Implies(_) | CliKind::Warm(_) => "session.rebuild_us",
                    CliKind::Goals(_) => "session.batch_us",
                    CliKind::Closure(..) => "session.closure_us",
                    CliKind::Keys(_) => "session.keys_us",
                };
                by_kind.entry(kind).or_default().push(t);
                decisions.extend(d);
                times.push(t);
            }
        }
    }
    if !dispatch.is_empty() {
        notes.push(Metric::new(
            "registry.dispatch_us",
            median(&dispatch),
            "us",
            dispatch.len(),
        ));
    }
    for (name, v) in &by_kind {
        notes.push(Metric::new(name, median(v), "us", v.len()));
    }
    let n = decisions.len().max(1) as f64;
    for (name, tier) in [
        ("select.naive_frac", Tier::Naive),
        ("select.indexed_frac", Tier::Indexed),
        ("select.dense_frac", Tier::Dense),
    ] {
        let k = decisions.iter().filter(|d| d.tier == Some(tier)).count();
        notes.push(Metric::new(name, k as f64 / n, "ratio", decisions.len()));
    }
    let first = decisions
        .iter()
        .filter(|d| {
            d.attempts
                .first()
                .is_some_and(|a| a.decider == "saturation")
                && d.answered_by() == Some("saturation")
        })
        .count();
    notes.push(Metric::new(
        "session.saturation_first_frac",
        first as f64 / n,
        "ratio",
        decisions.len(),
    ));
    let hits = decisions.iter().filter(|d| d.cache_hits > 0).count();
    notes.push(Metric::new(
        "session.cache_hit_frac",
        hits as f64 / n,
        "ratio",
        decisions.len(),
    ));
    Ok(times)
}

fn parse_goals(tenant: &Tenant, goals: &[String]) -> Result<Vec<Nfd>, String> {
    goals.iter().map(|g| tenant.nfd(g)).collect()
}

/// The resident-engine calls the daemon makes for one read.
fn serve_read(
    tenant: &Tenant,
    read: &Read,
    budget: &Budget,
    threads: usize,
) -> Result<(Vec<Decision>, f64), String> {
    let s = &tenant.session;
    Ok(match read {
        Read::Implies(g) => {
            let goal = tenant.nfd(g)?;
            let (d, t) = timed(|| s.implies_with_resident(&goal, budget));
            (vec![d.map_err(|e| e.to_string())?], t)
        }
        Read::Batch(goals) => {
            let goals = parse_goals(tenant, goals)?;
            let (b, t) = timed(|| s.implies_batch_resident(&goals, budget, threads));
            let b = b.map_err(|e| e.to_string())?;
            (b.decisions.into_iter().filter_map(Result::ok).collect(), t)
        }
        Read::Closure(base, lhs) => {
            let (base, lhs) = oracle::closure_args(base, lhs)?;
            let (r, t) = timed(|| s.closure(&base, &lhs));
            r.map_err(|e| e.to_string())?;
            (Vec::new(), t)
        }
        Read::Keys(rel) => {
            let (r, t) = timed(|| s.candidate_keys(Label::new(rel), 4));
            r.map_err(|e| e.to_string())?;
            (Vec::new(), t)
        }
    })
}

/// The session calls one CLI process makes after compiling.
fn cli_read(
    tenant: &Tenant,
    s: &Session<'static>,
    kind: &CliKind,
) -> Result<(Vec<Decision>, f64), String> {
    let budget = Budget::standard();
    Ok(match kind {
        CliKind::Implies(g) | CliKind::Warm(g) => {
            let goal = tenant.nfd(g)?;
            let (d, t) = timed(|| s.implies_with(&goal, &budget));
            (vec![d.map_err(|e| e.to_string())?], t)
        }
        CliKind::Goals(goals) => {
            let goals = parse_goals(tenant, goals)?;
            let (b, t) = timed(|| s.implies_batch(&goals, &budget, 0));
            let b = b.map_err(|e| e.to_string())?;
            (b.decisions.into_iter().filter_map(Result::ok).collect(), t)
        }
        CliKind::Closure(base, lhs) => {
            let (base, lhs) = oracle::closure_args(base, lhs)?;
            let (r, t) = timed(|| s.closure_traced(&base, &lhs));
            r.map_err(|e| e.to_string())?;
            (Vec::new(), t)
        }
        CliKind::Keys(rel) => {
            let (r, t) = timed(|| s.candidate_keys_threaded(Label::new(rel), 4, 0));
            r.map_err(|e| e.to_string())?;
            (Vec::new(), t)
        }
    })
}
