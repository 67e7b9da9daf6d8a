//! Concurrency tests for the read-parallel registry (`nfdtool serve`):
//! reads answer from the tenant's resident engine on the connection
//! threads, and each `BATCH` fans out to `--workers N` threads.
//!
//! Two load-bearing pins:
//!
//! 1. **Bit-identity under concurrency.** N clients hammering one hot
//!    tenant, with every `BATCH` 8 wide, receive byte-for-byte the
//!    responses one client of a `workers = 1` daemon (every `BATCH`
//!    sequential) gets for the same requests — concurrency may reorder
//!    *which* reader answers, never *what* is answered.
//! 2. **Epoch atomicity under interleaved mutation.** While a writer
//!    flips Σ back and forth with ADDDEP/DROPDEP, every concurrently
//!    served BATCH sees either the old Σ or the new Σ in full: two
//!    goals whose verdicts both hinge on the mutated dependency always
//!    answer as a pair, never half-applied.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use nfd::prelude::*;
use nfd::serve::{Registry, RegistryConfig};

fn course_sources() -> (String, String) {
    let schema = std::fs::read_to_string("examples/data/course.nfds").expect("course.nfds");
    let deps = std::fs::read_to_string("examples/data/course.nfdd").expect("course.nfdd");
    (one_line(&schema), one_line(&deps))
}

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
        // Enough admission slots for every concurrent client below —
        // this suite tests the worker pool, not the shed gate.
        max_inflight: 32,
        queue_depth: 64,
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

/// The read-only request corpus: implied, not-implied and nested goals,
/// plus BATCH, CLOSURE and KEYS — everything the worker pool serves.
fn read_requests() -> Vec<String> {
    let goals = [
        "Course:[time, students:sid -> books]",
        "Course:[students:sid -> books]",
        "Course:[cnum -> time]",
        "Course:[time -> cnum]",
        "Course:[cnum -> books:title]",
        "Course:[books:isbn -> books:title]",
        "Course:students:[sid -> grade]",
        "Course:[students:sid -> students:age]",
    ];
    let mut reqs: Vec<String> = goals
        .iter()
        .map(|g| format!("IMPLIES course {g}"))
        .collect();
    reqs.push(format!("BATCH course {};", goals.join("; ")));
    reqs.push("CLOSURE course Course cnum".to_string());
    reqs.push("KEYS course Course".to_string());
    reqs
}

/// Pin 1: every response from the 8-wide daemon, under 8 concurrent
/// clients, is byte-identical to the sequential daemon's answer for the
/// same request line.
#[test]
fn concurrent_clients_are_bit_identical_to_the_sequential_daemon() {
    let (schema_src, deps_src) = course_sources();
    let load = format!("LOAD course {schema_src} | {deps_src}");
    let requests = read_requests();

    // Sequential replay first: one client, every BATCH on one thread.
    let expected: Vec<String> = {
        let (addr, server) = start(
            RegistryConfig {
                workers: 1,
                ..RegistryConfig::default()
            },
            quick_server_cfg(),
        );
        let mut c = Client::connect(addr);
        assert!(c.ask(&load).starts_with("OK loaded"));
        let expected = requests.iter().map(|r| c.ask(r)).collect();
        assert_eq!(c.ask("SHUTDOWN"), "OK draining");
        server.join().expect("server");
        expected
    };

    let (addr, server) = start(
        RegistryConfig {
            workers: 8,
            ..RegistryConfig::default()
        },
        quick_server_cfg(),
    );
    let mut c = Client::connect(addr);
    assert!(c.ask(&load).starts_with("OK loaded"));

    let clients: Vec<JoinHandle<()>> = (0..8)
        .map(|client| {
            let requests = requests.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for round in 0..3 {
                    // Stagger the order per client so the pool genuinely
                    // interleaves different verbs at once.
                    for i in 0..requests.len() {
                        let at = (i + client + round) % requests.len();
                        assert_eq!(
                            c.ask(&requests[at]),
                            expected[at],
                            "client {client} diverged from the sequential daemon on `{}`",
                            requests[at]
                        );
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    assert_eq!(c.ask("SHUTDOWN"), "OK draining");
    let stats = server.join().expect("server");
    assert_eq!(stats.contained_panics, 0);
}

/// Pin 2: readers racing a writer never observe a half-applied Σ.
///
/// The writer flips `Course:[time -> cnum]` in and out of Σ. Both BATCH
/// goals — the dependency itself and `Course:[time -> books]`, which is
/// implied exactly when the flipped dependency is present (via
/// `cnum -> books`) — must answer as a pair: the full old epoch or the
/// full new epoch, never one goal from each.
#[test]
fn interleaved_mutations_never_expose_a_half_applied_sigma() {
    let (schema_src, deps_src) = course_sources();
    let flipped = "Course:[time -> cnum]";
    let batch = format!("BATCH course {flipped}; Course:[time -> books];");

    // The two legal responses, computed differentially from direct
    // in-process sessions over each Σ state.
    let schema = Schema::parse(&schema_src).expect("schema parses");
    let base_sigma = nfd::core::nfd::parse_set(&schema, &deps_src).expect("deps parse");
    let mutated_sigma = {
        let mut sigma = base_sigma.clone();
        sigma.push(Nfd::parse(&schema, flipped).expect("flipped dep parses"));
        sigma
    };
    let verdicts = |sigma: &[Nfd]| -> String {
        let session = Session::new(&schema, sigma).expect("direct session");
        let words: Vec<&str> = [flipped, "Course:[time -> books]"]
            .iter()
            .map(|g| {
                if session.implies_text(g).expect("direct verdict") {
                    "implied"
                } else {
                    "not-implied"
                }
            })
            .collect();
        format!("OK {}", words.join(","))
    };
    let old_epoch = verdicts(&base_sigma);
    let new_epoch = verdicts(&mutated_sigma);
    assert_ne!(
        old_epoch, new_epoch,
        "fixture drifted: the mutation no longer flips the batch verdicts"
    );

    let (addr, server) = start(
        RegistryConfig {
            workers: 8,
            ..RegistryConfig::default()
        },
        quick_server_cfg(),
    );
    let mut c = Client::connect(addr);
    assert!(c
        .ask(&format!("LOAD course {schema_src} | {deps_src}"))
        .starts_with("OK loaded"));

    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<JoinHandle<u64>> = (0..4)
        .map(|reader| {
            let batch = batch.clone();
            let old_epoch = old_epoch.clone();
            let new_epoch = new_epoch.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let mut served = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let resp = c.ask(&batch);
                    assert!(
                        resp == old_epoch || resp == new_epoch,
                        "reader {reader} saw a half-applied Σ: `{resp}` \
                         (legal: `{old_epoch}` | `{new_epoch}`)"
                    );
                    served += 1;
                }
                served
            })
        })
        .collect();

    // The writer flips Σ back and forth through full epoch swaps; every
    // mutation must succeed (the write path may not be starved or
    // wedged by the racing readers).
    for _ in 0..6 {
        let added = c.ask(&format!("ADDDEP course {flipped}"));
        assert!(added.starts_with("OK added"), "{added}");
        let dropped = c.ask(&format!("DROPDEP course {flipped}"));
        assert!(dropped.starts_with("OK dropped"), "{dropped}");
    }
    done.store(true, Ordering::Relaxed);
    let served: u64 = readers
        .into_iter()
        .map(|h| h.join().expect("reader thread"))
        .sum();

    assert!(served > 0, "readers served nothing while the writer ran");
    assert_eq!(c.ask("SHUTDOWN"), "OK draining");
    let stats = server.join().expect("server");
    assert_eq!(stats.contained_panics, 0);
}
