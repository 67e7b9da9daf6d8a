//! The four workloads as data: sources, fixtures, setup steps and one
//! pass of each client's op stream, every op paired with the reply the
//! oracle says it must get. A run repeats the pass until its time is up;
//! a pass always ends in the state it started from, so repeating keeps
//! every expected reply valid.

use std::path::{Path, PathBuf};

use crate::gen::{self, quota, zipf_weights, Rng, Source, Zipf};
use crate::oracle::{Read, ReadKind, Tenant, POOL};
use crate::{Scale, Workload};

/// What an op does to the daemon; latencies are split by class in the
/// traced run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// IMPLIES, BATCH, CLOSURE, KEYS, or a CLI query.
    Read,
    /// ADDDEP, DROPDEP.
    Write,
    /// LOAD, RESTORE.
    Load,
}

/// The reply an op must get.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// Exactly this line.
    Exact(String),
    /// Any of these lines (a read of a tenant another client mutates).
    OneOf(Vec<String>),
}

impl Expect {
    /// Does `reply` satisfy this expectation?
    pub fn accepts(&self, reply: &str) -> bool {
        match self {
            Expect::Exact(e) => e == reply,
            Expect::OneOf(v) => v.iter().any(|e| e == reply),
        }
    }
}

/// One wire request.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    /// The request line (no newline).
    pub line: String,
    /// Its class.
    pub class: Class,
    /// The reply it must get.
    pub expect: Expect,
    /// For reads: the oracle tenant index and the read, so the traced
    /// run can time the same call on the session layer.
    pub read: Option<(usize, Read)>,
}

/// What a CLI call asks.
#[derive(Clone, Debug, PartialEq)]
pub enum CliKind {
    /// `implies NFD`.
    Implies(String),
    /// `implies --goals FILE`, with the file's goals.
    Goals(Vec<String>),
    /// `closure --base B --lhs L`.
    Closure(String, Vec<String>),
    /// `keys --relation R`.
    Keys(String),
    /// `implies --snapshot FILE NFD`.
    Warm(String),
}

/// One `nfdtool` invocation and the output it must produce.
#[derive(Clone, Debug, PartialEq)]
pub struct Call {
    /// Arguments after the program name.
    pub args: Vec<String>,
    /// Expected stdout, warm-start notes removed (see [`cli_verdict`]).
    pub expect: String,
    /// Expected exit code.
    pub code: i32,
    /// Fixture (oracle tenant) index and what was asked.
    pub kind: (usize, CliKind),
}

/// Files a setup writes, and the `nfdtool snapshot` calls it makes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Fixtures {
    /// `(path, contents)`.
    pub files: Vec<(PathBuf, String)>,
    /// Argument lists of `nfdtool snapshot` calls.
    pub snapshots: Vec<Vec<String>>,
}

/// What a workload sends, and to whom.
pub enum Body {
    /// Two closed-loop clients on two connections to `nfdtool serve`.
    Serve {
        /// Setup ops, sent one at a time on one connection.
        setup: Vec<Op>,
        /// One pass per client.
        streams: [Vec<Op>; 2],
        /// Ops per cycle: a client checks the clock only between cycles,
        /// so every run measures whole cycles and keeps the op mix exact.
        cycle: usize,
    },
    /// One CLI invocation at a time.
    Cli {
        /// One pass.
        calls: Vec<Call>,
    },
}

/// A generated workload.
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// The oracle's compiled sources.
    pub tenants: Vec<Tenant>,
    /// Fixture files written at every setup.
    pub fixtures: Fixtures,
    /// The traffic.
    pub body: Body,
}

/// Builds the plan for `workload` from `seed`. `work` is the directory
/// fixture files go to.
pub fn plan(workload: Workload, seed: u64, scale: Scale, work: &Path) -> Result<Plan, String> {
    match workload {
        Workload::ServeRead => serve_read(seed, scale),
        Workload::ServeWrite => serve_write(seed, scale),
        Workload::ServeChurn => serve_churn(seed, scale, work),
        Workload::CliOneshot => cli_oneshot(seed, scale, work),
    }
}

fn exact(line: String, class: Class, expect: String) -> Op {
    Op {
        line,
        class,
        expect: Expect::Exact(expect),
        read: None,
    }
}

fn load_op(tenant: &Tenant, name: &str) -> Op {
    exact(
        format!(
            "LOAD {name} {} | {}",
            tenant.source.schema, tenant.source.deps
        ),
        Class::Load,
        format!("OK loaded deps={}", tenant.sigma.len()),
    )
}

fn read_op(tenants: &[Tenant], t: usize, name: &str, read: Read) -> Result<Op, String> {
    Ok(Op {
        line: read.wire(name),
        class: Class::Read,
        expect: Expect::Exact(tenants[t].reply(&read)?),
        read: Some((t, read)),
    })
}

/// Untimed warm-up: per tenant, one BATCH of the 16 most popular goals
/// of each relation (past the dense-tier promotion threshold of 8
/// queries) and one KEYS per relation, so the measured phase starts on
/// warm closure caches and key memos.
fn warmup(tenants: &[Tenant], names: &[&str]) -> Result<Vec<Op>, String> {
    let mut ops = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        for pool in &tenant.pools {
            let goals = pool.goals.iter().take(16).cloned().collect();
            ops.push(read_op(tenants, t, names[t], Read::Batch(goals))?);
            ops.push(read_op(
                tenants,
                t,
                names[t],
                Read::Keys(pool.base.clone()),
            )?);
        }
    }
    Ok(ops)
}

const READ_MIX: [(ReadKind, f64); 4] = [
    (ReadKind::Implies, 0.55),
    (ReadKind::Batch, 0.25),
    (ReadKind::Closure, 0.15),
    (ReadKind::Keys, 0.05),
];

/// serve_read: four resident tenants of very different shapes, hot reads.
fn serve_read(seed: u64, scale: Scale) -> Result<Plan, String> {
    let mut rng = Rng::new(seed, 1);
    let sources = match scale {
        Scale::Full => [
            gen::course(),
            gen::ladder(6),
            gen::chain(32, &mut rng),
            gen::wide(24, 64, &mut rng),
        ],
        Scale::Smoke => [
            gen::course(),
            gen::ladder(3),
            gen::chain(8, &mut rng),
            gen::wide(10, 16, &mut rng),
        ],
    };
    let names = ["course", "ladder", "chain", "wide"];
    let tenants = compile_all(&names, sources.to_vec(), &mut rng)?;
    let zipf = Zipf::new(POOL, 1.1);
    let weights: Vec<f64> = READ_MIX.iter().map(|(_, w)| *w).collect();
    let pass = match scale {
        Scale::Full => 700,
        Scale::Smoke => 40,
    };
    let cycle = 20;
    let mut streams: [Vec<Op>; 2] = Default::default();
    for (c, stream) in streams.iter_mut().enumerate() {
        let mut rng = Rng::new(seed, 10 + c as u64);
        while stream.len() < pass {
            let kinds = quota(&weights, cycle, &mut rng);
            let targets = quota(&[1.0; 4], cycle, &mut rng);
            for (kind, t) in kinds.into_iter().zip(targets) {
                let read = tenants[t].draw(READ_MIX[kind].0, &zipf, &mut rng);
                stream.push(read_op(&tenants, t, names[t], read)?);
            }
        }
    }
    let mut setup: Vec<Op> = (0..4).map(|t| load_op(&tenants[t], names[t])).collect();
    setup.extend(warmup(&tenants, &names)?);
    Ok(Plan {
        workload: Workload::ServeRead,
        tenants,
        fixtures: Fixtures::default(),
        body: Body::Serve {
            setup,
            streams,
            cycle,
        },
    })
}

fn compile_all(names: &[&str], sources: Vec<Source>, rng: &mut Rng) -> Result<Vec<Tenant>, String> {
    names
        .iter()
        .zip(sources)
        .map(|(name, source)| Tenant::compile(name, source, POOL, rng))
        .collect()
}

/// The reply a Σ mutation gets (`mutation_reply` in `src/serve.rs`).
fn delta_reply(verb: &str, reports: &[nfd::core::DeltaReport]) -> String {
    let parts: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "{verb} relation={} pool={}->{} overdeleted={}",
                r.relation, r.pool_before, r.pool_after, r.overdeleted
            )
        })
        .collect();
    format!("OK {}", parts.join("; "))
}

/// serve_write: each client alternates ADDDEP/DROPDEP on its own tenant
/// with reads of both tenants.
fn serve_write(seed: u64, scale: Scale) -> Result<Plan, String> {
    let mut rng = Rng::new(seed, 2);
    let (source, follow_on) = match scale {
        Scale::Full => gen::multi_wide_family(8, 24, 28, 16, &mut rng),
        Scale::Smoke => gen::multi_wide_family(6, 8, 8, 16, &mut rng),
    };
    let mut tenants = compile_all(&["m"], vec![source], &mut rng)?;
    let tenant = &mut tenants[0];
    // Six deps Σ does not imply, one on each of six relations. The
    // relations are isomorphic, so every d_j costs the same to add.
    let mut deps = Vec::new();
    for candidates in follow_on.iter().take(6) {
        let dep = candidates
            .iter()
            .find(|d| !tenant.implied(d).unwrap_or(true))
            .ok_or("no follow-on dep outside Σ")?;
        deps.push(dep.clone());
    }
    // A fixed read pool, answered in Σ and in each Σ ∪ {d_j}.
    let zipf = Zipf::new(POOL, 1.1);
    let kinds = [
        (ReadKind::Implies, 5.0),
        (ReadKind::Batch, 3.0),
        (ReadKind::Closure, 1.0),
    ];
    let weights: Vec<f64> = kinds.iter().map(|(_, w)| *w).collect();
    let reads: Vec<Read> = quota(&weights, 45, &mut rng)
        .into_iter()
        .map(|k| tenant.draw(kinds[k].0, &zipf, &mut rng))
        .collect();
    let answer_all =
        |t: &Tenant| -> Result<Vec<String>, String> { reads.iter().map(|r| t.reply(r)).collect() };
    let base = answer_all(tenant)?;
    let mut states = Vec::new();
    for dep in &deps {
        let nfd = tenant.nfd(dep)?;
        let added = tenant
            .session
            .add_deps(std::slice::from_ref(&nfd))
            .map_err(|e| e.to_string())?;
        let answers = answer_all(tenant)?;
        let dropped = tenant
            .session
            .remove_deps(std::slice::from_ref(&nfd))
            .map_err(|e| e.to_string())?;
        states.push((
            delta_reply("added", &added),
            answers,
            delta_reply("dropped", &dropped),
        ));
    }
    let any_state = |r: usize| -> Expect {
        let mut all = vec![base[r].clone()];
        for (_, answers, _) in &states {
            if !all.contains(&answers[r]) {
                all.push(answers[r].clone());
            }
        }
        Expect::OneOf(all)
    };
    let names = ["m0", "m1"];
    let cycles = match scale {
        Scale::Full => 30,
        Scale::Smoke => 6,
    };
    let read_of = |r: usize, name: &str, expect: Expect| Op {
        line: reads[r].wire(name),
        class: Class::Read,
        expect,
        read: Some((0, reads[r].clone())),
    };
    // Client k is the only writer of m{k}. Its reads alternate between
    // its own tenant, whose state it knows exactly, and the other
    // client's, which may be in any state the other writer passes through.
    let mut streams: [Vec<Op>; 2] = Default::default();
    for (k, stream) in streams.iter_mut().enumerate() {
        let (own, other) = (names[k], names[1 - k]);
        let mut rng = Rng::new(seed, 20 + k as u64);
        for cycle in 0..cycles {
            // The writers start half a rotation apart, so at any moment
            // they add deps on different relations.
            let j = (cycle + k * deps.len() / 2) % deps.len();
            let (added, answers, dropped) = &states[j];
            let dep = &deps[j];
            for (verb, reply, state, visible) in [
                ("ADDDEP", added, answers, "OK implied"),
                ("DROPDEP", dropped, &base, "OK not-implied"),
            ] {
                stream.push(exact(
                    format!("{verb} {own} {dep}"),
                    Class::Write,
                    reply.clone(),
                ));
                // The writer's first read checks that its write is visible.
                stream.push(Op {
                    read: Some((0, Read::Implies(dep.clone()))),
                    ..exact(format!("IMPLIES {own} {dep}"), Class::Read, visible.into())
                });
                for i in 1..9 {
                    let r = rng.below(reads.len());
                    stream.push(if i % 2 == 0 {
                        read_of(r, own, Expect::Exact(state[r].clone()))
                    } else {
                        read_of(r, other, any_state(r))
                    });
                }
            }
        }
    }
    let mut setup = Vec::new();
    for name in names {
        let goals = tenants[0]
            .pools
            .iter()
            .flat_map(|p| p.goals.iter().take(2).cloned())
            .collect();
        setup.push(load_op(&tenants[0], name));
        setup.push(read_op(&tenants, 0, name, Read::Batch(goals))?);
    }
    Ok(Plan {
        workload: Workload::ServeWrite,
        tenants,
        fixtures: Fixtures::default(),
        body: Body::Serve {
            setup,
            streams,
            cycle: 20,
        },
    })
}

/// Writes `name.nfds`/`name.nfdd` for `source` and the `nfdtool
/// snapshot` call that freezes it to `name.snap`; returns the three paths.
fn fixture(fx: &mut Fixtures, work: &Path, name: &str, source: &Source) -> [String; 3] {
    let path = |ext: &str| work.join(format!("{name}.{ext}"));
    fx.files.push((path("nfds"), source.schema.clone()));
    fx.files.push((path("nfdd"), source.deps.clone()));
    let [s, d, snap] = ["nfds", "nfdd", "snap"].map(|e| path(e).display().to_string());
    fx.snapshots.push(
        ["snapshot", "--schema", &s, "--deps", &d, "--out", &snap]
            .map(String::from)
            .to_vec(),
    );
    [s, d, snap]
}

/// serve_churn cycles (LOAD or RESTORE, then three reads) per block; the
/// tenant mix is apportioned per block, and clients stop between blocks.
const CHURN_BLOCK: usize = 20;

/// Blocks per pass.
const CHURN_BLOCKS: usize = 3;

/// serve_churn: LOAD/RESTORE of twelve tenants past the residency cap.
fn serve_churn(seed: u64, scale: Scale, work: &Path) -> Result<Plan, String> {
    let mut rng = Rng::new(seed, 3);
    // Popularity rank is the table order, fixed so that every seed draws
    // the same cost mix. The costliest sources are the most popular, so
    // the latency tail comes from the same tenants in every run, while
    // the cheap end of the table is what LRU evicts.
    let sources: Vec<Source> = match scale {
        Scale::Full => vec![
            gen::multi_wide(3, 24, 28, &mut rng),
            gen::multi_wide(8, 20, 24, &mut rng),
            gen::multi_wide(3, 20, 48, &mut rng),
            gen::multi_wide(6, 20, 24, &mut rng),
            gen::wide(20, 64, &mut rng),
            gen::course(),
            gen::multi_wide(4, 16, 24, &mut rng),
            gen::ladder(5),
            gen::chain(40, &mut rng),
            gen::multi_wide(2, 16, 32, &mut rng),
            gen::ladder(7),
            gen::chain(24, &mut rng),
        ],
        Scale::Smoke => vec![
            gen::course(),
            gen::ladder(3),
            gen::chain(8, &mut rng),
            gen::wide(10, 16, &mut rng),
        ],
    };
    let names: Vec<String> = (0..sources.len()).map(|i| format!("t{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let tenants = compile_all(&name_refs, sources, &mut rng)?;
    let mut fixtures = Fixtures::default();
    let snaps: Vec<String> = tenants
        .iter()
        .map(|t| fixture(&mut fixtures, work, &t.name, &t.source)[2].clone())
        .collect();
    let popularity = zipf_weights(tenants.len(), 0.8);
    let zipf = Zipf::new(POOL, 1.1);
    // Both clients churn the same tenant names: LOAD or RESTORE, then
    // three reads of that tenant. A read touches the tenant in the LRU
    // order, and the other client can load at most one tenant while
    // those reads run, so a cap of 8 never evicts a tenant between its
    // LOAD and its reads.
    let mut streams: [Vec<Op>; 2] = Default::default();
    let kinds = [ReadKind::Implies, ReadKind::Batch, ReadKind::Closure];
    for (k, stream) in streams.iter_mut().enumerate() {
        let mut rng = Rng::new(seed, 30 + k as u64);
        for _ in 0..CHURN_BLOCKS {
            // Every block holds the same (tenant, LOAD or RESTORE)
            // multiset: a tenant's slots alternate the two verbs, and
            // the clients start on opposite verbs.
            let mut slots = vec![k; tenants.len()];
            for t in quota(&popularity, CHURN_BLOCK, &mut rng) {
                let restore = (slots[t] + t) % 2 == 1;
                slots[t] += 1;
                stream.push(if restore {
                    exact(
                        format!("RESTORE {} {}", names[t], snaps[t]),
                        Class::Load,
                        format!("OK restored deps={} (thawed)", tenants[t].sigma.len()),
                    )
                } else {
                    load_op(&tenants[t], &names[t])
                });
                let mut order = kinds;
                rng.shuffle(&mut order);
                for kind in order {
                    let read = tenants[t].draw(kind, &zipf, &mut rng);
                    stream.push(read_op(&tenants, t, &names[t], read)?);
                }
            }
        }
    }
    Ok(Plan {
        workload: Workload::ServeChurn,
        tenants,
        fixtures,
        body: Body::Serve {
            setup: Vec::new(),
            streams,
            cycle: 4 * CHURN_BLOCK,
        },
    })
}

/// The CLI output `nfdtool` prints for a verdict-bearing call, minus the
/// warm-start notes whose wording depends on the snapshot's size.
pub fn cli_verdict(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|l| !l.starts_with("(warm start") && !l.starts_with("(snapshot "))
        .map(|l| format!("{l}\n"))
        .collect()
}

const CLI_MIX: [f64; 5] = [0.40, 0.20, 0.15, 0.10, 0.15];

/// cli_oneshot: one `nfdtool` process per query over eight fixtures.
fn cli_oneshot(seed: u64, scale: Scale, work: &Path) -> Result<Plan, String> {
    let mut rng = Rng::new(seed, 4);
    let sources: Vec<Source> = match scale {
        Scale::Full => vec![
            gen::course(),
            gen::ladder(4),
            gen::wide(16, 32, &mut rng),
            gen::ladder(6),
            gen::wide(16, 48, &mut rng),
            gen::wide(20, 48, &mut rng),
            gen::chain(24, &mut rng),
            gen::wide(20, 64, &mut rng),
        ],
        Scale::Smoke => vec![gen::course(), gen::ladder(3), gen::wide(10, 16, &mut rng)],
    };
    let names: Vec<String> = (0..sources.len()).map(|i| format!("f{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let tenants = compile_all(&name_refs, sources, &mut rng)?;
    let zipf = Zipf::new(POOL, 1.1);
    let mut fixtures = Fixtures::default();
    let mut files = Vec::new();
    for t in &tenants {
        let [s, d, snap] = fixture(&mut fixtures, work, &t.name, &t.source);
        let mut goal_files = Vec::new();
        for g in 0..4 {
            let goals: Vec<String> = (0..16).map(|_| draw_goal(t, &zipf, &mut rng)).collect();
            let path = work.join(format!("{}.g{g}.goals", t.name));
            fixtures.files.push((
                path.clone(),
                goals.iter().map(|g| format!("{g};\n")).collect(),
            ));
            goal_files.push((path.display().to_string(), goals));
        }
        files.push((s, d, snap, goal_files));
    }
    // Twenty rounds; in each, every fixture gets one call. Fixture f takes
    // kind schedule entry (round + f) mod 20, so over a pass every fixture
    // gets the exact 40/20/15/10/15 mix and every whole round is balanced.
    let rounds = 20;
    let schedule = quota(&CLI_MIX, rounds, &mut rng);
    let mut calls = Vec::new();
    for round in 0..rounds {
        for f in rng.permutation(tenants.len()) {
            let t = &tenants[f];
            let (s, d, snap, goal_files) = &files[f];
            let (cmd, tail, kind) = match schedule[(round + f) % rounds] {
                0 => {
                    let goal = draw_goal(t, &zipf, &mut rng);
                    ("implies", vec![goal.clone()], CliKind::Implies(goal))
                }
                1 => {
                    let (path, goals) = &goal_files[rng.below(goal_files.len())];
                    (
                        "implies",
                        vec!["--goals".into(), path.clone()],
                        CliKind::Goals(goals.clone()),
                    )
                }
                2 => {
                    let pool = &t.pools[rng.below(t.pools.len())];
                    let lhs = pool.lhs[zipf.sample(&mut rng).min(pool.lhs.len() - 1)].clone();
                    let tail = vec![
                        "--base".into(),
                        pool.base.clone(),
                        "--lhs".into(),
                        lhs.join(","),
                    ];
                    ("closure", tail, CliKind::Closure(pool.base.clone(), lhs))
                }
                3 => {
                    let rel = t.pools[rng.below(t.pools.len())].base.clone();
                    (
                        "keys",
                        vec!["--relation".into(), rel.clone()],
                        CliKind::Keys(rel),
                    )
                }
                _ => {
                    let goal = draw_goal(t, &zipf, &mut rng);
                    (
                        "implies",
                        vec!["--snapshot".into(), snap.clone(), goal.clone()],
                        CliKind::Warm(goal),
                    )
                }
            };
            let mut args: Vec<String> =
                [cmd, "--schema", s, "--deps", d].map(String::from).to_vec();
            args.extend(tail);
            let (expect, code) = cli_expect(t, &kind)?;
            calls.push(Call {
                args,
                expect,
                code,
                kind: (f, kind),
            });
        }
    }
    Ok(Plan {
        workload: Workload::CliOneshot,
        tenants,
        fixtures,
        body: Body::Cli { calls },
    })
}

fn draw_goal(t: &Tenant, zipf: &Zipf, rng: &mut Rng) -> String {
    let pool = &t.pools[rng.below(t.pools.len())];
    pool.goals[zipf.sample(rng).min(pool.goals.len() - 1)].clone()
}

/// The exact stdout (per [`cli_verdict`]) and exit code of a CLI call.
fn cli_expect(t: &Tenant, kind: &CliKind) -> Result<(String, i32), String> {
    Ok(match kind {
        CliKind::Implies(goal) | CliKind::Warm(goal) => {
            let yes = t.implied(goal)?;
            (
                format!("{}\n", if yes { "implied" } else { "not implied" }),
                i32::from(!yes),
            )
        }
        CliKind::Goals(goals) => {
            let mut out = String::new();
            let mut implied = 0;
            for goal in goals {
                let yes = t.implied(goal)?;
                implied += usize::from(yes);
                let word = if yes { "implied    " } else { "not implied" };
                out.push_str(&format!("{word}  {}\n", t.nfd(goal)?));
            }
            out.push_str(&format!("{implied} of {} goals implied\n", goals.len()));
            (out, i32::from(implied != goals.len()))
        }
        CliKind::Closure(base, lhs) => {
            let paths = t.closure_texts(base, lhs)?;
            let mut out: String = paths.iter().map(|p| format!("{p}\n")).collect();
            out.push_str(&format!("({} paths)\n", paths.len()));
            (out, 0)
        }
        CliKind::Keys(rel) => {
            let keys = t.keys(rel)?;
            let mut out: String = keys
                .iter()
                .map(|k| format!("{{{}}}\n", k.join(", ")))
                .collect();
            out.push_str(&format!("({} candidate keys of size ≤ 4)\n", keys.len()));
            (out, 0)
        }
    })
}
