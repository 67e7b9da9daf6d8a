//! B18 — BATCH-width scaling of `nfdtool serve` (`--workers N`).
//!
//! One hot tenant carrying a wide Σ (the B14 overlapping-paths
//! family) is hammered with BATCH requests by concurrent TCP clients.
//! Every read answers from the tenant's resident compiled session on
//! its connection thread; `workers` only sets how many threads one
//! BATCH fans its goals across, so `--workers 1` (every BATCH
//! sequential) is the baseline.
//!
//! Two sweeps, both over the same request corpus:
//!
//! * `batch_vs_workers` — 8 clients, workers ∈ {1, 2, 4, 8}; baseline
//!   is the same daemon at workers = 1.
//! * `batch_vs_clients` — workers = 8, clients ∈ {1, 2, 4, 8}; baseline
//!   is workers = 1 at the *same* client count.
//!
//! Every response from every run is asserted byte-identical to the
//! expected transcript before any time is recorded — the speedup is
//! only meaningful if every width answers the same question the same
//! way.
//!
//! A BATCH of four goals costs microseconds of engine work, while each
//! response waits on the ~44 ms transport floor (`nfdbench/README.md`,
//! "The 44 ms transport floor"), so the rows time that floor until it
//! is removed. BATCH threads beyond the core count add nothing; the
//! record's `host_parallelism` lets readers interpret the spread.
//!
//! Each row is the best of the bench's samples of one whole
//! configuration run, timed from the first request to the last response
//! (server start and LOAD excluded).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

use nfd::prelude::*;
use nfd::serve::{Registry, RegistryConfig};
use nfd_bench::{flat_schema, wide_sigma, Bench};

/// One benchmark server: a registry at the given worker count behind a
/// TCP acceptor with enough admission slots for every client below.
fn start(workers: usize) -> (SocketAddr, JoinHandle<ServerStats>) {
    let registry = Registry::new(RegistryConfig {
        workers,
        ..RegistryConfig::default()
    });
    let server_cfg = ServerConfig {
        idle_poll_ms: 2,
        max_inflight: 32,
        queue_depth: 64,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", server_cfg, registry).expect("bind");
    let addr = server.local_addr().expect("addr");
    (addr, std::thread::spawn(move || server.run().expect("run")))
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
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

/// The hot tenant's sources: a flat schema and the wide-Σ family
/// rendered back to one-line daemon wire text.
fn tenant_sources(attrs: usize, sigma_n: usize) -> (String, String) {
    let schema = flat_schema(attrs);
    let fields = (0..attrs)
        .map(|i| format!("a{i}: int"))
        .collect::<Vec<_>>()
        .join(", ");
    let schema_src = format!("R : {{<{fields}>}};");
    let deps_src = wide_sigma(&schema, attrs, sigma_n)
        .iter()
        .map(|nfd| format!("{nfd};"))
        .collect::<Vec<_>>()
        .join(" ");
    (schema_src, deps_src)
}

/// The measured request: one BATCH whose goals mix members of Σ
/// (implied) with goals the wide family does not derive.
fn batch_request(attrs: usize) -> String {
    let goals = [
        format!("R:[a0, a1 -> a{}]", attrs - 1),
        "R:[a0 -> a1]".to_string(),
        format!("R:[a{} -> a0]", attrs - 2),
        "R:[a1, a2 -> a3]".to_string(),
    ];
    format!("BATCH hot {};", goals.join("; "))
}

/// Runs one configuration to completion and returns total wall
/// nanoseconds for `clients × reqs_per_client` BATCH requests. Every
/// response is asserted equal to `expected` before the time counts.
fn run(
    workers: usize,
    clients: usize,
    reqs_per_client: usize,
    load: &str,
    batch: &str,
    expected: &str,
) -> u128 {
    let (addr, server) = start(workers);
    let mut control = Client::connect(addr);
    assert!(
        control.ask(load).starts_with("OK loaded"),
        "LOAD failed at workers={workers}"
    );
    // Prime once so listener-side lazy work (first-epoch spin-up) is
    // outside the timed window for every configuration equally.
    assert_eq!(control.ask(batch), expected, "prime diverged");

    let started = Instant::now();
    let threads: Vec<JoinHandle<()>> = (0..clients)
        .map(|client| {
            let batch = batch.to_string();
            let expected = expected.to_string();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for _ in 0..reqs_per_client {
                    let resp = c.ask(&batch);
                    assert_eq!(
                        resp, expected,
                        "client {client} (workers={workers}) diverged from the transcript"
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let elapsed = started.elapsed().as_nanos();

    assert_eq!(control.ask("SHUTDOWN"), "OK draining");
    let stats = server.join().expect("server");
    assert_eq!(stats.contained_panics, 0, "bench run contained a panic");
    elapsed
}

fn main() {
    let mut bench = Bench::new("B18", "serve_throughput", 2);
    let (attrs, sigma_n, reqs_per_client) = if bench.smoke() {
        (12, 16, 2)
    } else {
        (24, 64, 8)
    };

    let (schema_src, deps_src) = tenant_sources(attrs, sigma_n);
    let load = format!("LOAD hot {schema_src} | {deps_src}");
    let batch = batch_request(attrs);

    // The reference transcript comes from a single client of a daemon
    // that runs every BATCH sequentially.
    let expected = {
        let (addr, server) = start(1);
        let mut c = Client::connect(addr);
        assert!(c.ask(&load).starts_with("OK loaded"));
        let expected = c.ask(&batch);
        assert!(
            expected.starts_with("OK "),
            "reference BATCH failed: {expected}"
        );
        assert_eq!(c.ask("SHUTDOWN"), "OK draining");
        server.join().expect("server");
        expected
    };

    let samples = bench.samples();
    let best = |workers: usize, clients: usize| -> u128 {
        (0..samples)
            .map(|_| run(workers, clients, reqs_per_client, &load, &batch, &expected))
            .min()
            .expect("at least one sample")
    };

    // Sweep 1: fixed 8 clients, workers 1 → 8.
    let seq_8c = best(1, 8);
    for (workers, name) in [
        (1usize, "workers=1"),
        (2, "workers=2"),
        (4, "workers=4"),
        (8, "workers=8"),
    ] {
        let ns = if workers == 1 {
            seq_8c
        } else {
            best(workers, 8)
        };
        bench.pair(
            "batch_vs_workers",
            workers,
            ("workers=1", seq_8c),
            (name, ns),
        );
    }

    // Sweep 2: fixed 8 workers, clients 1 → 8; baseline is workers = 1
    // at the same client count.
    for clients in [1usize, 2, 4, 8] {
        let baseline = if clients == 8 {
            seq_8c
        } else {
            best(1, clients)
        };
        bench.pair(
            "batch_vs_clients",
            clients,
            ("workers=1", baseline),
            ("workers=8", best(8, clients)),
        );
    }
    bench.extra("attrs", attrs.to_string());
    bench.extra("sigma", sigma_n.to_string());
    bench.extra("reqs_per_client", reqs_per_client.to_string());
    bench.finish();
}
