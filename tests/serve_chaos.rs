//! Chaos tests for the serve layer — the ISSUE's acceptance criterion
//! lives here: with failpoints armed in the dispatch path, a panicked
//! request yields an `ERR` line on that connection only; the server
//! then answers a fresh differential sweep bit-identically to a direct
//! in-process [`Session`]; and an overloaded server sheds with `BUSY`
//! instead of hanging or crashing.
//!
//! Compiled only with `--features failpoints`; the registry is
//! process-global, so run armed suites with `--test-threads=1` (the CI
//! chaos job does) and take the serial lock in every test.

#![cfg(feature = "failpoints")]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use nfd::faults::{self, FaultAction};
use nfd::prelude::*;
use nfd::serve::{Registry, RegistryConfig};

fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn course_sources() -> (String, String) {
    let strip = |src: String| {
        src.lines()
            .map(|line| line.split('#').next().unwrap_or(""))
            .flat_map(str::split_whitespace)
            .collect::<Vec<_>>()
            .join(" ")
    };
    (
        strip(std::fs::read_to_string("examples/data/course.nfds").expect("course.nfds")),
        strip(std::fs::read_to_string("examples/data/course.nfdd").expect("course.nfdd")),
    )
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

fn quick_cfg() -> ServerConfig {
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

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> String {
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("recv");
        resp.trim_end().to_string()
    }

    fn ask(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

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

/// Nothing armed: one pass through the protocol reaches every serve
/// failpoint site (the census discipline from `chaos_harness.rs`).
#[test]
fn census_reaches_every_serve_site() {
    let _guard = serial();
    faults::reset();
    let (schema_src, deps_src) = course_sources();
    let (addr, server) = start(RegistryConfig::default(), quick_cfg());
    let mut c = Client::connect(addr);
    assert_eq!(
        c.ask(&format!("LOAD course {schema_src} | {deps_src}")),
        "OK loaded deps=7"
    );
    assert_eq!(c.ask("IMPLIES course Course:[cnum -> time]"), "OK implied");
    // A mutation drives the epoch-swap write path.
    assert!(c
        .ask("ADDDEP course Course:[time -> cnum]")
        .starts_with("OK added"));
    assert_eq!(c.ask("SHUTDOWN"), "OK draining");
    server.join().expect("server");

    let hit: Vec<String> = faults::sites_hit().into_iter().map(|(n, _)| n).collect();
    for site in [
        "serve::accept",
        "serve::parse",
        "serve::dispatch",
        "serve::respond",
        "serve::tenant_query",
        "serve::shared_cache",
        "serve::epoch_swap",
    ] {
        assert!(
            hit.iter().any(|n| n == site),
            "census missed `{site}`: {hit:?}"
        );
    }
    faults::reset();
}

/// THE acceptance test. An armed dispatch-path panic costs exactly one
/// request one `ERR` line on one connection; the server, the other
/// connections, and the tenant's warm session all survive, and a fresh
/// differential sweep is then bit-identical to a direct in-process
/// session.
#[test]
fn dispatch_panic_is_contained_and_sweep_stays_bit_identical() {
    let _guard = serial();
    faults::reset();
    let (schema_src, deps_src) = course_sources();
    let schema = Schema::parse(&schema_src).expect("schema");
    let sigma = nfd::core::nfd::parse_set(&schema, &deps_src).expect("deps");
    let direct = Session::new(&schema, &sigma).expect("direct session");

    let (addr, server) = start(RegistryConfig::default(), quick_cfg());
    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);
    assert_eq!(
        a.ask(&format!("LOAD course {schema_src} | {deps_src}")),
        "OK loaded deps=7"
    );

    // Arm: the next dispatched request panics inside the server.
    faults::configure_limited("serve::dispatch", 1, FaultAction::Panic);
    let err = a.ask("IMPLIES course Course:[cnum -> time]");
    assert!(
        err.starts_with("ERR contained panic:") && err.contains("serve::dispatch"),
        "the poisoned request answers ERR on its own connection: {err}"
    );

    // That connection only: B never noticed, and A itself keeps working.
    assert_eq!(b.ask("PING"), "OK pong");
    assert_eq!(b.ask("IMPLIES course Course:[cnum -> time]"), "OK implied");
    assert_eq!(a.ask("IMPLIES course Course:[cnum -> time]"), "OK implied");

    // Fresh differential sweep, bit-identical to the direct session.
    faults::reset();
    for goal in SWEEP {
        let expected = if direct.implies_text(goal).expect("direct verdict") {
            "OK implied"
        } else {
            "OK not-implied"
        };
        assert_eq!(a.ask(&format!("IMPLIES course {goal}")), expected, "{goal}");
        assert_eq!(b.ask(&format!("IMPLIES course {goal}")), expected, "{goal}");
    }

    assert_eq!(a.ask("SHUTDOWN"), "OK draining");
    let stats = server.join().expect("server");
    assert_eq!(stats.contained_panics, 1, "exactly the injected panic");
    faults::reset();
}

/// An overloaded server sheds with `BUSY` instead of hanging or
/// crashing — and the admitted request still completes with the right
/// verdict (degradation never flips an answer).
#[test]
fn overloaded_server_sheds_busy_and_never_flips_a_verdict() {
    let _guard = serial();
    faults::reset();
    let (schema_src, deps_src) = course_sources();
    let (addr, server) = start(
        RegistryConfig::default(),
        ServerConfig {
            max_inflight: 1,
            queue_depth: 0,
            queue_wait_ms: 10,
            ..quick_cfg()
        },
    );
    let mut slow = Client::connect(addr);
    assert_eq!(
        slow.ask(&format!("LOAD course {schema_src} | {deps_src}")),
        "OK loaded deps=7"
    );

    // Every dispatched request now dawdles 400 ms holding its admission
    // permit — the cheap way to wedge a 1-slot server.
    faults::configure("serve::dispatch", FaultAction::Delay(400));
    slow.send("IMPLIES course Course:[time, students:sid -> books]");
    std::thread::sleep(Duration::from_millis(100));

    let mut shed = Client::connect(addr);
    let busy = shed.ask("IMPLIES course Course:[cnum -> time]");
    assert!(busy.starts_with("BUSY "), "overload answers BUSY: {busy}");
    // The control plane keeps answering while the gate sheds.
    let stats_line = shed.ask("STATS");
    assert!(stats_line.starts_with("OK "), "{stats_line}");

    faults::reset();
    assert_eq!(
        slow.recv(),
        "OK implied",
        "the admitted request completes with the true verdict"
    );
    // Capacity freed: the previously-shed client is served normally.
    assert_eq!(
        shed.ask("IMPLIES course Course:[cnum -> time]"),
        "OK implied"
    );

    assert_eq!(shed.ask("SHUTDOWN"), "OK draining");
    let stats = server.join().expect("server");
    assert!(stats.shed >= 1, "{stats:?}");
    assert_eq!(stats.contained_panics, 0);
    faults::reset();
}

/// `ReturnExhausted` on the registry's query path surfaces as a typed
/// `EXHAUSTED` response — never an ERR, never a dropped connection.
#[test]
fn injected_exhaustion_is_a_typed_response() {
    let _guard = serial();
    faults::reset();
    let (schema_src, deps_src) = course_sources();
    let (addr, server) = start(RegistryConfig::default(), quick_cfg());
    let mut c = Client::connect(addr);
    assert_eq!(
        c.ask(&format!("LOAD course {schema_src} | {deps_src}")),
        "OK loaded deps=7"
    );

    faults::configure_limited("serve::tenant_query", 1, FaultAction::ReturnExhausted);
    assert_eq!(
        c.ask("IMPLIES course Course:[cnum -> time]"),
        "EXHAUSTED injected fault (failpoint)"
    );
    assert_eq!(
        c.ask("IMPLIES course Course:[cnum -> time]"),
        "OK implied",
        "the fault was count-limited; service resumes"
    );

    faults::configure_limited("serve::dispatch", 1, FaultAction::ReturnExhausted);
    assert_eq!(
        c.ask("IMPLIES course Course:[cnum -> time]"),
        "EXHAUSTED injected fault (failpoint)"
    );
    assert_eq!(c.ask("IMPLIES course Course:[cnum -> time]"), "OK implied");

    assert_eq!(c.ask("SHUTDOWN"), "OK draining");
    server.join().expect("server");
    faults::reset();
}

/// A respond-path fault (the write back to the client fails) drops that
/// connection only; the server and other connections keep serving.
#[test]
fn respond_fault_drops_one_connection_only() {
    let _guard = serial();
    faults::reset();
    let (schema_src, deps_src) = course_sources();
    let (addr, server) = start(RegistryConfig::default(), quick_cfg());
    let mut a = Client::connect(addr);
    assert_eq!(
        a.ask(&format!("LOAD course {schema_src} | {deps_src}")),
        "OK loaded deps=7"
    );

    faults::configure_limited("serve::respond", 1, FaultAction::ReturnExhausted);
    a.send("IMPLIES course Course:[cnum -> time]");
    assert_eq!(a.recv(), "", "the faulted connection is hung up (EOF)");

    let mut b = Client::connect(addr);
    assert_eq!(
        b.ask("IMPLIES course Course:[cnum -> time]"),
        "OK implied",
        "fresh connections are unaffected"
    );
    assert_eq!(b.ask("SHUTDOWN"), "OK draining");
    server.join().expect("server");
    faults::reset();
}

/// A parse-path fault turns every request into `ERR` without taking the
/// connection down; disarming restores service in place.
#[test]
fn parse_fault_is_an_err_line_not_a_hangup() {
    let _guard = serial();
    faults::reset();
    let (addr, server) = start(RegistryConfig::default(), quick_cfg());
    let mut c = Client::connect(addr);

    faults::configure_limited("serve::parse", 1, FaultAction::ReturnExhausted);
    assert_eq!(c.ask("PING"), "ERR injected fault (failpoint)");
    assert_eq!(
        c.ask("PING"),
        "OK pong",
        "same connection, disarmed, serves"
    );

    assert_eq!(c.ask("SHUTDOWN"), "OK draining");
    server.join().expect("server");
    faults::reset();
}

/// The ISSUE's mutation-chaos criterion: an armed `delta::retract` panic
/// answers `ERR` on its own connection only, and the resident session —
/// including a mutation applied *before* the fault — still matches a
/// fresh in-process rebuild bit for bit; disarmed, the retraction lands.
#[test]
fn retraction_panic_is_contained_and_session_matches_fresh_rebuild() {
    let _guard = serial();
    faults::reset();
    let (schema_src, deps_src) = course_sources();
    let schema = Schema::parse(&schema_src).expect("schema");
    let sigma = nfd::core::nfd::parse_set(&schema, &deps_src).expect("deps");

    let (addr, server) = start(RegistryConfig::default(), quick_cfg());
    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);
    assert_eq!(
        a.ask(&format!("LOAD course {schema_src} | {deps_src}")),
        "OK loaded deps=7"
    );

    // Mutate once so the resident Σ differs from the LOAD sources — the
    // later rebuild comparison must see this survive the fault.
    let added = Nfd::parse(&schema, "Course:[students:sid -> cnum]").expect("added");
    assert!(a
        .ask("ADDDEP course Course:[students:sid -> cnum]")
        .starts_with("OK added"));

    // Armed: the retraction panics before touching Σ; the request
    // answers ERR on connection A only.
    faults::configure_limited("delta::retract", 1, FaultAction::Panic);
    let err = a.ask("DROPDEP course Course:[cnum -> time]");
    assert!(
        err.starts_with("ERR") && err.contains("delta::retract"),
        "the poisoned retraction answers a typed ERR: {err}"
    );
    assert_eq!(b.ask("PING"), "OK pong", "connection B never noticed");
    faults::reset();

    // The resident session matches a fresh rebuild over (Σ + added):
    // the faulted retraction must not have been half-applied.
    let mut grown = sigma.clone();
    grown.push(added);
    let direct = Session::new(&schema, &grown).expect("fresh rebuild");
    for goal in SWEEP {
        let expected = if direct.implies_text(goal).expect("direct verdict") {
            "OK implied"
        } else {
            "OK not-implied"
        };
        assert_eq!(a.ask(&format!("IMPLIES course {goal}")), expected, "{goal}");
        assert_eq!(b.ask(&format!("IMPLIES course {goal}")), expected, "{goal}");
    }

    // Disarmed, the same retraction applies; the sweep tracks it.
    assert!(b
        .ask("DROPDEP course Course:[cnum -> time]")
        .starts_with("OK dropped"));
    let retracted: Vec<Nfd> = {
        let target = Nfd::parse(&schema, "Course:[cnum -> time]").expect("target");
        let mut s = grown.clone();
        let pos = s.iter().position(|n| *n == target).expect("present");
        s.remove(pos);
        s
    };
    let direct = Session::new(&schema, &retracted).expect("fresh rebuild");
    for goal in SWEEP {
        let expected = if direct.implies_text(goal).expect("direct verdict") {
            "OK implied"
        } else {
            "OK not-implied"
        };
        assert_eq!(a.ask(&format!("IMPLIES course {goal}")), expected, "{goal}");
    }

    assert_eq!(a.ask("SHUTDOWN"), "OK draining");
    server.join().expect("server");
    faults::reset();
}

/// The ISSUE's epoch-swap criterion: a fault armed at `serve::epoch_swap`
/// fires *after* the next epoch is fully built and *before* it is
/// installed — the worst possible moment. Both the typed-return and the
/// panic leg must leave the old epoch serving its pre-mutation Σ, and a
/// disarmed retry must land the mutation cleanly.
#[test]
fn mid_swap_fault_leaves_the_old_epoch_serving() {
    let _guard = serial();
    faults::reset();
    let (schema_src, deps_src) = course_sources();
    let flipped = "Course:[time -> cnum]";

    let (addr, server) = start(RegistryConfig::default(), quick_cfg());
    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);
    assert_eq!(
        a.ask(&format!("LOAD course {schema_src} | {deps_src}")),
        "OK loaded deps=7"
    );
    assert_eq!(
        a.ask(&format!("IMPLIES course {flipped}")),
        "OK not-implied"
    );

    // Leg 1: typed return at the swap point — the mutation reports
    // EXHAUSTED, the built next epoch is discarded, the old one serves.
    faults::configure_limited("serve::epoch_swap", 1, FaultAction::ReturnExhausted);
    let resp = a.ask(&format!("ADDDEP course {flipped}"));
    assert_eq!(resp, "EXHAUSTED injected fault (failpoint)", "{resp}");
    assert_eq!(
        a.ask(&format!("IMPLIES course {flipped}")),
        "OK not-implied",
        "the discarded epoch must not have leaked its Σ"
    );
    faults::reset();

    // Leg 2: a panic mid-swap — contained to the request, old epoch
    // untouched, both connections keep serving.
    faults::configure_limited("serve::epoch_swap", 1, FaultAction::Panic);
    let err = a.ask(&format!("ADDDEP course {flipped}"));
    assert!(
        err.starts_with("ERR contained panic:") && err.contains("serve::epoch_swap"),
        "{err}"
    );
    assert_eq!(b.ask("PING"), "OK pong", "connection B never noticed");
    assert_eq!(
        b.ask(&format!("IMPLIES course {flipped}")),
        "OK not-implied",
        "a mid-swap panic must leave the old epoch serving"
    );
    assert_eq!(
        a.ask(&format!("IMPLIES course {flipped}")),
        "OK not-implied"
    );
    faults::reset();

    // Disarmed: the same mutation lands and the verdict flips.
    assert!(a
        .ask(&format!("ADDDEP course {flipped}"))
        .starts_with("OK added"));
    assert_eq!(a.ask(&format!("IMPLIES course {flipped}")), "OK implied");
    assert_eq!(b.ask(&format!("IMPLIES course {flipped}")), "OK implied");

    assert_eq!(a.ask("SHUTDOWN"), "OK draining");
    let stats = server.join().expect("server");
    assert_eq!(stats.contained_panics, 1, "exactly the injected panic");
    faults::reset();
}

/// A panic armed at `serve::shared_cache` (the cross-tenant cache-pool
/// lookup inside LOAD/RESTORE) is contained to that request: no tenant
/// is half-registered, other tenants keep serving, and a disarmed
/// reload succeeds.
#[test]
fn shared_cache_fault_contains_the_load() {
    let _guard = serial();
    faults::reset();
    let (schema_src, deps_src) = course_sources();

    let (addr, server) = start(RegistryConfig::default(), quick_cfg());
    let mut a = Client::connect(addr);
    assert_eq!(
        a.ask(&format!("LOAD stable {schema_src} | {deps_src}")),
        "OK loaded deps=7"
    );

    faults::configure_limited("serve::shared_cache", 1, FaultAction::Panic);
    let err = a.ask(&format!("LOAD broken {schema_src} | {deps_src}"));
    assert!(
        err.starts_with("ERR contained panic:") && err.contains("serve::shared_cache"),
        "{err}"
    );
    faults::reset();

    // Nothing half-registered; the stable tenant kept its epoch.
    assert!(matches!(
        a.ask("IMPLIES broken Course:[cnum -> time]").as_str(),
        resp if resp.starts_with("ERR") && resp.contains("unknown tenant")
    ));
    assert_eq!(a.ask("IMPLIES stable Course:[cnum -> time]"), "OK implied");

    // Disarmed, the same LOAD lands and shares the stable tenant's
    // pooled cache.
    assert_eq!(
        a.ask(&format!("LOAD broken {schema_src} | {deps_src}")),
        "OK loaded deps=7"
    );
    assert_eq!(a.ask("IMPLIES broken Course:[cnum -> time]"), "OK implied");
    let stats_line = a.ask("STATS");
    assert!(stats_line.contains("shared_caches=1"), "{stats_line}");

    assert_eq!(a.ask("SHUTDOWN"), "OK draining");
    let stats = server.join().expect("server");
    assert_eq!(stats.contained_panics, 1, "exactly the injected panic");
    faults::reset();
}

/// A write that is cancelled on its fork leaves the serving epoch live.
/// `Cancel` at a delta site cancels the token of the budget the write
/// runs under; the fork owns that token, so the epoch readers still hold
/// keeps answering, and the next write forks a live epoch again. Run for
/// the insert (`ADDDEP`) and the retraction (`DROPDEP`) path.
#[test]
fn cancelled_write_leaves_the_serving_epoch_live() {
    let _guard = serial();
    faults::reset();
    let (addr, server) = start(RegistryConfig::default(), quick_cfg());
    let mut c = Client::connect(addr);
    assert_eq!(
        c.ask("LOAD t R : {<A: int, B: int, C: int>}; | R:[A -> B]; R:[B -> C];"),
        "OK loaded deps=2"
    );
    for (site, write) in [
        ("delta::insert", "ADDDEP t R:[C -> A]"),
        ("delta::retract", "DROPDEP t R:[B -> C]"),
    ] {
        faults::configure_limited(site, 1, FaultAction::Cancel);
        assert_eq!(c.ask(write), "EXHAUSTED cancelled by caller", "{site}");
        faults::reset();
        assert_eq!(c.ask("CLOSURE t R A"), "OK R:A R:B R:C", "{site}");
        assert_eq!(c.ask("IMPLIES t R:[A -> C]"), "OK implied", "{site}");
    }
    // Disarmed, both writes land on the live epoch.
    assert!(c.ask("ADDDEP t R:[C -> A]").starts_with("OK added"));
    assert_eq!(c.ask("CLOSURE t R C"), "OK R:A R:B R:C");
    assert!(c.ask("DROPDEP t R:[B -> C]").starts_with("OK dropped"));
    assert_eq!(c.ask("CLOSURE t R A"), "OK R:A R:B");

    assert_eq!(c.ask("SHUTDOWN"), "OK draining");
    server.join().expect("server");
    faults::reset();
}
