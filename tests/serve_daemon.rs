//! End-to-end tests of `nfdtool serve`'s registry daemon, feature-off
//! (the armed chaos-side tests live in `serve_chaos.rs`).
//!
//! The load-bearing assertion is *differential*: every verdict served
//! over the wire must be bit-identical to a direct in-process
//! [`Session`] on the same `(Schema, Σ)` — the transport, actor
//! threads, admission gate and quota metering may refuse or delay an
//! answer, but may never change one.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;

use nfd::prelude::*;
use nfd::serve::{Registry, RegistryConfig};

/// The paper's Course schema (one line, as the `LOAD` verb wants it).
fn course_sources() -> (String, String) {
    let schema = std::fs::read_to_string("examples/data/course.nfds").expect("course.nfds");
    let deps = std::fs::read_to_string("examples/data/course.nfdd").expect("course.nfdd");
    (one_line(&schema), one_line(&deps))
}

/// Protocol lines are `\n`-framed, so multi-line sources ride flattened —
/// with `#` comments stripped first, since flattening would otherwise
/// extend the first comment over the whole request.
fn one_line(src: &str) -> String {
    src.lines()
        .map(|line| line.split('#').next().unwrap_or(""))
        .flat_map(str::split_whitespace)
        .collect::<Vec<_>>()
        .join(" ")
}

fn start(
    registry_cfg: RegistryConfig,
    server_cfg: ServerConfig,
) -> (SocketAddr, JoinHandle<ServerStats>) {
    let server =
        Server::bind("127.0.0.1:0", server_cfg, Registry::new(registry_cfg)).expect("bind");
    let addr = server.local_addr().expect("addr");
    (addr, std::thread::spawn(move || server.run().expect("run")))
}

fn quick_server_cfg() -> ServerConfig {
    ServerConfig {
        idle_poll_ms: 5,
        ..ServerConfig::default()
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn ask(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("recv");
        resp.trim_end().to_string()
    }
}

/// A sweep of goals spanning implied / not-implied / nested shapes on
/// the Course schema — the differential corpus.
const SWEEP: [&str; 8] = [
    "Course:[time, students:sid -> books]",
    "Course:[students:sid -> books]",
    "Course:[cnum -> time]",
    "Course:[time -> cnum]",
    "Course:[cnum -> books:title]",
    "Course:[books:isbn -> books:title]",
    "Course:students:[sid -> grade]",
    "Course:[students:sid -> students:age]",
];

#[test]
fn wire_verdicts_are_bit_identical_to_a_direct_session() {
    let (schema_src, deps_src) = course_sources();
    let schema = Schema::parse(&schema_src).expect("schema parses");
    let sigma = nfd::core::nfd::parse_set(&schema, &deps_src).expect("deps parse");
    let direct = Session::new(&schema, &sigma).expect("direct session");

    let (addr, server) = start(RegistryConfig::default(), quick_server_cfg());
    let mut c = Client::connect(addr);
    let loaded = c.ask(&format!("LOAD course {schema_src} | {deps_src}"));
    assert_eq!(loaded, format!("OK loaded deps={}", sigma.len()));

    for goal in SWEEP {
        let expected = if direct.implies_text(goal).expect("direct verdict") {
            "OK implied"
        } else {
            "OK not-implied"
        };
        assert_eq!(
            c.ask(&format!("IMPLIES course {goal}")),
            expected,
            "wire and in-process verdicts must agree on {goal}"
        );
    }

    // BATCH over the same sweep: one line, per-goal verdicts, same bits.
    let batch_goals = SWEEP.join("; ");
    let expected: Vec<&str> = SWEEP
        .iter()
        .map(|g| {
            if direct.implies_text(g).expect("direct") {
                "implied"
            } else {
                "not-implied"
            }
        })
        .collect();
    assert_eq!(
        c.ask(&format!("BATCH course {batch_goals}")),
        format!("OK {}", expected.join(","))
    );

    // CLOSURE and KEYS agree with the direct session too.
    let base = RootedPath::parse("Course").expect("base");
    let lhs = [Path::parse("cnum").expect("lhs")];
    let direct_closure = direct
        .closure(&base, &lhs)
        .expect("direct closure")
        .iter()
        .map(|p| p.to_string())
        .collect::<Vec<_>>()
        .join(" ");
    assert_eq!(
        c.ask("CLOSURE course Course cnum"),
        format!("OK {direct_closure}")
    );
    let wire_keys = c.ask("KEYS course Course");
    let direct_keys = direct
        .candidate_keys(Label::new("Course"), 4)
        .expect("direct keys");
    for key in &direct_keys {
        let rendered = format!(
            "{{{}}}",
            key.iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        assert!(
            wire_keys.contains(&rendered),
            "{wire_keys} missing {rendered}"
        );
    }

    assert_eq!(c.ask("SHUTDOWN"), "OK draining");
    let stats = server.join().expect("server");
    assert_eq!(stats.contained_panics, 0);
}

#[test]
fn protocol_failures_are_typed_not_fatal() {
    let (schema_src, deps_src) = course_sources();
    let (addr, server) = start(RegistryConfig::default(), quick_server_cfg());
    let mut c = Client::connect(addr);

    // Unknown tenant, unparsable sources, malformed requests: all ERR,
    // all on a connection that keeps serving afterwards.
    let unknown = c.ask("IMPLIES ghost Course:[cnum -> time]");
    assert!(
        unknown.starts_with("ERR") && unknown.contains("unknown tenant"),
        "{unknown}"
    );
    let bad_schema = c.ask("LOAD bad not a schema | junk");
    assert!(bad_schema.starts_with("ERR"), "{bad_schema}");
    let bad_verb = c.ask("FROBNICATE x");
    assert!(bad_verb.starts_with("ERR"), "{bad_verb}");
    let no_sep = c.ask("LOAD t missing-the-separator");
    assert!(no_sep.starts_with("ERR"), "{no_sep}");

    assert_eq!(
        c.ask(&format!("LOAD course {schema_src} | {deps_src}")),
        "OK loaded deps=7"
    );
    // A goal that fails to parse against the loaded schema: ERR, and
    // the very next request on the same tenant answers normally.
    let bad_goal = c.ask("IMPLIES course Course:[nope -> nothing]");
    assert!(bad_goal.starts_with("ERR"), "{bad_goal}");
    assert_eq!(c.ask("IMPLIES course Course:[cnum -> time]"), "OK implied");

    assert_eq!(c.ask("SHUTDOWN"), "OK draining");
    server.join().expect("server");
}

#[test]
fn tenant_quotas_meter_exhaust_and_recover() {
    let (schema_src, deps_src) = course_sources();
    let (addr, server) = start(
        RegistryConfig {
            default_quota: Some(50_000),
            ..RegistryConfig::default()
        },
        quick_server_cfg(),
    );
    let mut c = Client::connect(addr);
    assert_eq!(
        c.ask(&format!("LOAD course {schema_src} | {deps_src}")),
        "OK loaded deps=7"
    );
    assert_eq!(c.ask("IMPLIES course Course:[cnum -> time]"), "OK implied");

    // Drain the quota to zero: the next query is refused *typed* —
    // EXHAUSTED, not ERR, not a dropped connection.
    assert_eq!(c.ask("QUOTA course 0"), "OK quota=0");
    let denied = c.ask("IMPLIES course Course:[cnum -> time]");
    assert!(
        denied.starts_with("EXHAUSTED") && denied.contains("quota"),
        "{denied}"
    );
    // Control plane still works while the tenant is starved.
    let stats = c.ask("STATS");
    assert!(stats.contains("quota_denials=1"), "{stats}");

    // Refill: the same warm session serves again.
    assert_eq!(c.ask("QUOTA course 50000"), "OK quota=50000");
    assert_eq!(c.ask("IMPLIES course Course:[cnum -> time]"), "OK implied");

    assert_eq!(c.ask("SHUTDOWN"), "OK draining");
    server.join().expect("server");
}

/// A metered tenant gets the answers an unmetered one does: a read polls
/// its budget for liveness only and costs one unit per goal, so a quota
/// far below the Course pool buys `OK implied`, not `EXHAUSTED`, and
/// drains by goal count. 5 − 3 `IMPLIES` − 1 `CLOSURE` − 2 `BATCH` goals
/// saturates at 0, and the next read is refused before dispatch.
#[test]
fn metered_reads_answer_and_cost_one_unit_a_goal() {
    let (schema_src, deps_src) = course_sources();
    let (addr, server) = start(
        RegistryConfig {
            default_quota: Some(5),
            ..RegistryConfig::default()
        },
        quick_server_cfg(),
    );
    let mut c = Client::connect(addr);
    assert_eq!(
        c.ask(&format!("LOAD course {schema_src} | {deps_src}")),
        "OK loaded deps=7"
    );
    for _ in 0..3 {
        assert_eq!(
            c.ask("IMPLIES course Course:[time, students:sid -> books]"),
            "OK implied"
        );
    }
    let closure = c.ask("CLOSURE course Course cnum");
    assert!(
        closure.starts_with("OK") && closure.contains("Course:time"),
        "{closure}"
    );
    assert_eq!(
        c.ask("BATCH course Course:[cnum -> time]; Course:[time -> cnum];"),
        "OK implied,not-implied"
    );
    let denied = c.ask("IMPLIES course Course:[time, students:sid -> books]");
    assert!(
        denied.starts_with("EXHAUSTED") && denied.contains("quota"),
        "{denied}"
    );
    let stats = c.ask("STATS");
    assert!(stats.contains("quota_denials=1"), "{stats}");

    assert_eq!(c.ask("SHUTDOWN"), "OK draining");
    server.join().expect("server");
}

/// A metered tenant gets the resident engine's answers: the quota only
/// counts goals, so it decides whether a read runs, never what the read
/// answers.
#[test]
fn metered_tenants_get_the_resident_replies() {
    let (schema_src, deps_src) = course_sources();
    let replies = |quota: u64| -> Vec<String> {
        let (addr, server) = start(
            RegistryConfig {
                default_quota: Some(quota),
                ..RegistryConfig::default()
            },
            quick_server_cfg(),
        );
        let mut c = Client::connect(addr);
        assert_eq!(
            c.ask(&format!("LOAD course {schema_src} | {deps_src}")),
            "OK loaded deps=7"
        );
        let replies = vec![
            c.ask("IMPLIES course Course:[time, students:sid -> books]"),
            c.ask("BATCH course Course:[cnum -> time]; Course:[time -> cnum];"),
        ];
        assert_eq!(c.ask("SHUTDOWN"), "OK draining");
        server.join().expect("server");
        replies
    };
    let drained = "EXHAUSTED tenant `course` quota exhausted";
    for (quota, want) in [
        (1, ["OK implied", drained]),
        (5, ["OK implied", "OK implied,not-implied"]),
        (20, ["OK implied", "OK implied,not-implied"]),
    ] {
        assert_eq!(replies(quota), want, "quota {quota}");
    }
}

#[test]
fn lru_keeps_hot_tenants_resident() {
    let (schema_src, deps_src) = course_sources();
    let (addr, server) = start(
        RegistryConfig {
            max_resident: 2,
            ..RegistryConfig::default()
        },
        quick_server_cfg(),
    );
    let mut c = Client::connect(addr);
    let load = |c: &mut Client, name: &str| {
        assert_eq!(
            c.ask(&format!("LOAD {name} {schema_src} | {deps_src}")),
            "OK loaded deps=7",
            "loading {name}"
        );
    };
    load(&mut c, "a");
    load(&mut c, "b");
    // Touch `a`, making `b` the coldest when `c` arrives.
    assert_eq!(c.ask("IMPLIES a Course:[cnum -> time]"), "OK implied");
    load(&mut c, "cc");
    let evicted = c.ask("IMPLIES b Course:[cnum -> time]");
    assert!(
        evicted.starts_with("ERR") && evicted.contains("unknown tenant"),
        "{evicted}"
    );
    assert_eq!(c.ask("IMPLIES a Course:[cnum -> time]"), "OK implied");
    assert_eq!(c.ask("IMPLIES cc Course:[cnum -> time]"), "OK implied");
    let stats = c.ask("STATS");
    assert!(stats.contains("evicted_lru=1"), "{stats}");
    assert!(stats.contains("sessions=2"), "{stats}");

    assert_eq!(c.ask("SHUTDOWN"), "OK draining");
    server.join().expect("server");
}

#[test]
fn concurrent_connections_share_one_tenant() {
    let (schema_src, deps_src) = course_sources();
    let (addr, server) = start(RegistryConfig::default(), quick_server_cfg());
    let mut c = Client::connect(addr);
    assert_eq!(
        c.ask(&format!("LOAD course {schema_src} | {deps_src}")),
        "OK loaded deps=7"
    );
    let workers: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let goal = SWEEP[i % SWEEP.len()];
                c.ask(&format!("IMPLIES course {goal}"))
            })
        })
        .collect();
    for (i, worker) in workers.into_iter().enumerate() {
        let resp = worker.join().expect("client thread");
        assert!(
            resp == "OK implied" || resp == "OK not-implied",
            "connection {i}: {resp}"
        );
    }
    assert_eq!(c.ask("SHUTDOWN"), "OK draining");
    let stats = server.join().expect("server");
    assert_eq!(stats.connections, 9);
}

/// A process's live thread count, from the `Threads:` line of
/// `/proc/<pid>/status`.
fn thread_count(pid: u32) -> usize {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("/proc status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("status has a Threads: line")
}

/// The real binary: boot `nfdtool serve`, scrape the resolved port off
/// stderr, drive a session over TCP, and assert a clean drain (exit 0)
/// and a thread count that does not grow with tenants or writes.
#[test]
fn spawned_binary_serves_and_drains_cleanly() {
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_nfdtool"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("nfdtool serve spawns");

    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr);
    let mut banner = String::new();
    lines.read_line(&mut banner).expect("listening banner");
    let addr: SocketAddr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("banner names the address")
        .parse()
        .expect("address parses");

    let (schema_src, deps_src) = course_sources();
    let mut c = Client::connect(addr);
    assert_eq!(c.ask("PING"), "OK pong");
    let threads_before = thread_count(child.id());
    // Tenants and writes must not cost threads: eight resident tenants
    // and four epoch swaps leave the count where one connection put it.
    for name in ["course", "t1", "t2", "t3", "t4", "t5", "t6", "t7"] {
        assert_eq!(
            c.ask(&format!("LOAD {name} {schema_src} | {deps_src}")),
            "OK loaded deps=7"
        );
    }
    for _ in 0..4 {
        let added = c.ask("ADDDEP course Course:[time -> cnum]");
        assert!(added.starts_with("OK added"), "{added}");
        let dropped = c.ask("DROPDEP course Course:[time -> cnum]");
        assert!(dropped.starts_with("OK dropped"), "{dropped}");
    }
    let threads_after = thread_count(child.id());
    assert!(
        threads_after <= threads_before + 2,
        "8 tenants and 4 write pairs grew the daemon from {threads_before} to {threads_after} threads"
    );
    assert_eq!(
        c.ask("IMPLIES course Course:[time, students:sid -> books]"),
        "OK implied"
    );
    assert_eq!(c.ask("SHUTDOWN"), "OK draining");

    let out = child.wait_with_output().expect("child exits");
    assert_eq!(out.status.code(), Some(0), "clean drain exits 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("drained cleanly"), "{stdout}");
}

/// The tentpole's wire contract: `ADDDEP`/`DROPDEP` mutate the resident
/// session and every verdict afterwards is bit-identical to an
/// in-process [`Session`] mutated through the same
/// `add_deps`/`remove_deps` API. Eviction then proves mutations are
/// resident-state only: a reload recompiles from the `LOAD` sources and
/// the sweep reverts to the unmutated session.
#[test]
fn wire_mutations_match_an_in_process_mutated_session() {
    let (schema_src, deps_src) = course_sources();
    let schema = Schema::parse(&schema_src).expect("schema parses");
    let sigma = nfd::core::nfd::parse_set(&schema, &deps_src).expect("deps parse");
    let mut direct = Session::new(&schema, &sigma).expect("direct session");

    let (addr, server) = start(RegistryConfig::default(), quick_server_cfg());
    let mut c = Client::connect(addr);
    assert_eq!(
        c.ask(&format!("LOAD course {schema_src} | {deps_src}")),
        "OK loaded deps=7"
    );

    let sweep = |c: &mut Client, direct: &Session, ctx: &str| {
        for goal in SWEEP {
            let expected = if direct.implies_text(goal).expect("direct verdict") {
                "OK implied"
            } else {
                "OK not-implied"
            };
            assert_eq!(
                c.ask(&format!("IMPLIES course {goal}")),
                expected,
                "{ctx}: wire and in-process verdicts must agree on {goal}"
            );
        }
    };

    // ADDDEP: students:sid now determines cnum, which flips the sweep's
    // "students:sid -> books" goal from not-implied to implied.
    let added = Nfd::parse(&schema, "Course:[students:sid -> cnum]").expect("added dep");
    direct
        .add_deps(std::slice::from_ref(&added))
        .expect("direct add");
    let resp = c.ask("ADDDEP course Course:[students:sid -> cnum]");
    assert!(resp.starts_with("OK added relation=Course pool="), "{resp}");
    sweep(&mut c, &direct, "after ADDDEP");

    // DROPDEP: retracting cnum -> time flips that goal back off.
    let dropped = Nfd::parse(&schema, "Course:[cnum -> time]").expect("dropped dep");
    direct
        .remove_deps(std::slice::from_ref(&dropped))
        .expect("direct drop");
    let resp = c.ask("DROPDEP course Course:[cnum -> time]");
    assert!(
        resp.starts_with("OK dropped relation=Course pool="),
        "{resp}"
    );
    sweep(&mut c, &direct, "after DROPDEP");

    // Closures ride the same mutated Σ.
    let base = RootedPath::parse("Course").expect("base");
    let lhs = [Path::parse("cnum").expect("lhs")];
    let direct_closure = direct
        .closure(&base, &lhs)
        .expect("direct closure")
        .iter()
        .map(|p| p.to_string())
        .collect::<Vec<_>>()
        .join(" ");
    assert_eq!(
        c.ask("CLOSURE course Course cnum"),
        format!("OK {direct_closure}")
    );

    // Retracting an absent dep: typed ERR, warm session keeps serving.
    let err = c.ask("DROPDEP course Course:[cnum -> time]");
    assert!(err.starts_with("ERR") && err.contains("not in"), "{err}");
    sweep(&mut c, &direct, "after failed DROPDEP");

    // Evict and reload: mutations were resident-state only, so the
    // recompiled tenant answers from the original `LOAD` sources.
    assert_eq!(c.ask("EVICT course"), "OK evicted");
    assert_eq!(
        c.ask(&format!("LOAD course {schema_src} | {deps_src}")),
        "OK loaded deps=7"
    );
    let pristine = Session::new(&schema, &sigma).expect("pristine session");
    sweep(&mut c, &pristine, "after evict + reload");

    assert_eq!(c.ask("SHUTDOWN"), "OK draining");
    let stats = server.join().expect("server");
    assert_eq!(stats.contained_panics, 0);
}

/// Mutations are workload verbs: metered against the tenant quota (the
/// charge is the rebuilt pool size) and refused typed once it drains.
#[test]
fn mutations_are_metered_against_the_tenant_quota() {
    let (schema_src, deps_src) = course_sources();
    let (addr, server) = start(RegistryConfig::default(), quick_server_cfg());
    let mut c = Client::connect(addr);
    assert_eq!(
        c.ask(&format!("LOAD course {schema_src} | {deps_src}")),
        "OK loaded deps=7"
    );

    // A Course rebuild replays far more than 2 pool entries, so one
    // mutation drains this quota to zero.
    assert_eq!(c.ask("QUOTA course 2"), "OK quota=2");
    let resp = c.ask("ADDDEP course Course:[students:sid -> cnum]");
    assert!(resp.starts_with("OK added"), "{resp}");
    let denied = c.ask("DROPDEP course Course:[students:sid -> cnum]");
    assert!(
        denied.starts_with("EXHAUSTED") && denied.contains("quota"),
        "mutations must be admission-gated like any workload verb: {denied}"
    );

    // Refill: the mutation applied before the drain is still in force.
    assert_eq!(c.ask("QUOTA course 50000"), "OK quota=50000");
    assert_eq!(
        c.ask("IMPLIES course Course:[students:sid -> books]"),
        "OK implied",
        "the charged mutation must have been applied, not rolled back"
    );

    assert_eq!(c.ask("SHUTDOWN"), "OK draining");
    server.join().expect("server");
}

/// The read-parallel observability fields ride on STATS: epoch swaps
/// and closure-cache hits/misses (per tenant and for the shared
/// cross-tenant pool). A request runs on its connection's thread, so no
/// worker count or queue depth is reported. Two tenants loaded from
/// identical sources share one pooled cache, so the second tenant's
/// CLOSURE is a hit on closures the first tenant computed.
#[test]
fn stats_reports_cache_and_epoch_observability() {
    let (schema_src, deps_src) = course_sources();
    let (addr, server) = start(RegistryConfig::default(), quick_server_cfg());
    let mut c = Client::connect(addr);
    assert!(c
        .ask(&format!("LOAD a {schema_src} | {deps_src}"))
        .starts_with("OK"));
    assert!(c
        .ask(&format!("LOAD b {schema_src} | {deps_src}"))
        .starts_with("OK"));

    // Tenant `a` computes a closure; tenant `b` asks for the same one
    // and hits the shared pool entry.
    assert!(c.ask("CLOSURE a Course cnum").starts_with("OK"));
    assert!(c.ask("CLOSURE b Course cnum").starts_with("OK"));

    let stats = c.ask("STATS");
    for field in [
        "epoch_swaps=0",
        "closure_hits=",
        "closure_misses=",
        "shared_caches=1",
        "shared_cache_hits=",
        "shared_cache_misses=",
        "tenant_cache=[",
    ] {
        assert!(stats.contains(field), "missing `{field}` in: {stats}");
    }
    for gone in ["workers=", "worker_queue_depth="] {
        assert!(
            !stats.split_whitespace().any(|f| f.starts_with(gone)),
            "`{gone}` is no longer reported: {stats}"
        );
    }
    let hits: u64 = stats
        .split("closure_hits=")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("closure_hits parses");
    assert!(
        hits >= 1,
        "cross-tenant cache sharing produced no hit: {stats}"
    );

    // A mutation swaps tenant `b` onto a fresh epoch (and a private
    // cache): epoch_swaps ticks, and the shared pool keeps serving `a`.
    assert!(c
        .ask("ADDDEP b Course:[time -> cnum]")
        .starts_with("OK added"));
    let stats = c.ask("STATS");
    assert!(stats.contains("epoch_swaps=1"), "{stats}");
    assert!(stats.contains("shared_caches=1"), "{stats}");
    assert_eq!(c.ask("IMPLIES a Course:[time -> cnum]"), "OK not-implied");
    assert_eq!(c.ask("IMPLIES b Course:[time -> cnum]"), "OK implied");

    assert_eq!(c.ask("SHUTDOWN"), "OK draining");
    let stats = server.join().expect("server");
    assert_eq!(stats.contained_panics, 0);
}
