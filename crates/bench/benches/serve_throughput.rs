//! B18 — BATCH-width scaling of `nfdtool serve` (`--workers N`).
//!
//! One hot tenant carrying a wide Σ (the B14/B15 overlapping-paths
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
//! report records host parallelism so readers can interpret the spread.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

use nfd::prelude::*;
use nfd::serve::{Registry, RegistryConfig};
use nfd_bench::{flat_schema, wide_sigma, BenchRecord, BenchReport};

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
    let smoke = std::env::args().any(|a| a == "--test");
    let (attrs, sigma_n, reqs_per_client, iters) = if smoke {
        (12, 16, 2, 1)
    } else {
        (24, 64, 8, 2)
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

    let best = |workers: usize, clients: usize| -> u128 {
        (0..iters)
            .map(|_| run(workers, clients, reqs_per_client, &load, &batch, &expected))
            .min()
            .expect("at least one iter")
    };

    let mut records = Vec::new();
    println!("B18 serve_throughput (wide Σ: {attrs} attrs × {sigma_n} deps, {reqs_per_client} BATCH/client)");
    println!(
        "{:<22} {:>14} {:>14} {:>9}",
        "row", "workers=1 ns", "candidate ns", "speedup"
    );

    // Sweep 1: fixed 8 clients, workers 1 → 8.
    let seq_8c = best(1, 8);
    for (workers, candidate) in [
        (1usize, "workers=1"),
        (2, "workers=2"),
        (4, "workers=4"),
        (8, "workers=8"),
    ] {
        let candidate_ns = if workers == 1 {
            seq_8c
        } else {
            best(workers, 8)
        };
        let rec = BenchRecord {
            bench_id: "B18",
            workload: "batch_vs_workers",
            param: workers,
            baseline: "workers=1",
            baseline_ns: seq_8c,
            candidate,
            candidate_ns,
        };
        println!(
            "{:<22} {:>14} {:>14} {:>8.2}x",
            format!("8 clients, {candidate}"),
            rec.baseline_ns,
            rec.candidate_ns,
            rec.speedup()
        );
        records.push(rec);
    }

    // Sweep 2: fixed 8 workers, clients 1 → 8; baseline is workers = 1
    // at the same client count.
    for clients in [1usize, 2, 4, 8] {
        let baseline_ns = if clients == 8 {
            seq_8c
        } else {
            best(1, clients)
        };
        let rec = BenchRecord {
            bench_id: "B18",
            workload: "batch_vs_clients",
            param: clients,
            baseline: "workers=1",
            baseline_ns,
            candidate: "workers=8",
            candidate_ns: best(8, clients),
        };
        println!(
            "{:<22} {:>14} {:>14} {:>8.2}x",
            format!("{clients} clients, workers=8"),
            rec.baseline_ns,
            rec.candidate_ns,
            rec.speedup()
        );
        records.push(rec);
    }

    let headline = records
        .iter()
        .find(|r| r.workload == "batch_vs_workers" && r.param == 8)
        .expect("headline row");
    let total_requests = 8 * reqs_per_client;
    let qps = |ns: u128| total_requests as f64 / (ns as f64 / 1e9);
    println!(
        "headline: {:.0} → {:.0} BATCH/s at 8 clients ({:.2}x)",
        qps(headline.baseline_ns),
        qps(headline.candidate_ns),
        headline.speedup()
    );

    BenchReport {
        bench_id: "B18",
        bench: "serve_throughput",
        mode: if smoke { "smoke" } else { "full" },
        iters,
        records,
        extra: vec![
            ("attrs".to_string(), attrs.to_string()),
            ("sigma".to_string(), sigma_n.to_string()),
            ("reqs_per_client".to_string(), reqs_per_client.to_string()),
            (
                "host_parallelism".to_string(),
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .to_string(),
            ),
        ],
    }
    .write("BENCH_B18_OUT");
}
