//! The end-to-end run: `nfdtool serve` reached over TCP by two
//! closed-loop clients, or `nfdtool` invoked once per query, every reply
//! checked against the plan. The same code drives an in-process
//! `Server<Registry>` and `nfd::cli::run` for the smoke tests.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, ExitStatus, Stdio};
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nfd::net::{Server, ServerConfig, ServerStats};
use nfd::serve::{Registry, RegistryConfig};

use crate::plan::{Body, Call, Class, Fixtures, Op, Plan};

/// What the workloads run against.
#[derive(Clone, Debug)]
pub enum Target {
    /// The real `nfdtool` binary, spawned as child processes.
    Binary(PathBuf),
    /// An in-process `Server<Registry>` and `nfd::cli::run` (tests).
    InProcess,
}

/// The registry `nfdtool serve` builds when given no flags. Not
/// `RegistryConfig::default()` itself, whose `workers: 1` selects the
/// per-query-rebuild path the daemon does not run; the daemon's other
/// defaults (8 resident tenants, 30 s request timeout, no quota or
/// budget) are the library's.
pub fn daemon_config() -> RegistryConfig {
    RegistryConfig {
        workers: 0,
        ..RegistryConfig::default()
    }
}

/// One timed op.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Client (0 or 1; always 0 for the CLI).
    pub client: usize,
    /// Position in that client's op sequence.
    pub index: usize,
    /// Op class.
    pub class: Class,
    /// Latency; failed ops count as infinitely slow.
    pub ms: f64,
}

/// Everything one end-to-end run measured.
#[derive(Debug, Default)]
pub struct E2e {
    /// Seconds from the start of each setup to its end.
    pub setup_s: Vec<f64>,
    /// Timed ops of the measured phase.
    pub samples: Vec<Sample>,
    /// Seconds each client spent in the measured phase.
    pub client_s: Vec<f64>,
    /// The daemon's peak resident set (`VmHWM`) before it was shut
    /// down, KiB; `None` for the CLI and in-process.
    pub rss_kb: Option<u64>,
    /// Failed ops.
    pub failed: usize,
    /// Up to eight failure reasons.
    pub reasons: Vec<String>,
}

impl E2e {
    fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }
}

/// Runs `setups` setups and, after the last, the measured phase for
/// `seconds`.
pub fn run(plan: &Plan, target: &Target, seconds: f64, setups: usize) -> Result<E2e, String> {
    match &plan.body {
        Body::Serve {
            setup,
            streams,
            cycle,
        } => run_serve(plan, setup, streams, *cycle, target, seconds, setups),
        Body::Cli { calls } => run_cli(&plan.fixtures, calls, target, seconds, setups),
    }
}

fn run_serve(
    plan: &Plan,
    setup: &[Op],
    streams: &[Vec<Op>; 2],
    cycle: usize,
    target: &Target,
    seconds: f64,
    setups: usize,
) -> Result<E2e, String> {
    let mut e2e = E2e::default();
    for rep in 0..setups {
        let started = Instant::now();
        write_fixtures(&plan.fixtures, target)?;
        let daemon = Daemon::spawn(target)?;
        let mut clients = [daemon.connect()?, daemon.connect()?];
        clients[0].expect_all(setup)?;
        e2e.setup_s.push(started.elapsed().as_secs_f64());
        if rep + 1 < setups {
            daemon.shutdown()?;
            continue;
        }
        let started = Instant::now();
        let deadline = Duration::from_secs_f64(seconds);
        let turns = Turns::new(clients.len());
        let per_client: Vec<(Vec<Sample>, Vec<String>, f64)> = std::thread::scope(|s| {
            let turns = &turns;
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(streams)
                .enumerate()
                .map(|(c, (client, stream))| {
                    s.spawn(move || client.closed_loop(c, stream, cycle, started, deadline, turns))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        for (samples, reasons, seconds) in per_client {
            e2e.client_s.push(seconds);
            e2e.failed += samples.iter().filter(|s| s.ms.is_infinite()).count();
            e2e.reasons.extend(reasons.into_iter().take(4));
            e2e.samples.extend(samples);
        }
        let stats = clients[0].ask("STATS").map_err(|e| format!("STATS: {e}"))?;
        for (key, want) in [("contained_panics", 0), ("worker_failures", 0), ("shed", 0)] {
            if counter(&stats, key) != Some(want) {
                e2e.fail(format!("STATS {key} is not {want}: {stats}"));
            }
        }
        drop(clients);
        e2e.rss_kb = daemon.shutdown()?;
    }
    Ok(e2e)
}

/// Reads `key=N` from a `STATS` line.
pub fn counter(stats: &str, key: &str) -> Option<u64> {
    stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

fn run_cli(
    fixtures: &Fixtures,
    calls: &[Call],
    target: &Target,
    seconds: f64,
    setups: usize,
) -> Result<E2e, String> {
    let mut e2e = E2e::default();
    for _ in 0..setups {
        let started = Instant::now();
        write_fixtures(fixtures, target)?;
        e2e.setup_s.push(started.elapsed().as_secs_f64());
    }
    let started = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let mut index = 0;
    // Whole passes only: a pass is the smallest run of calls that gives
    // every fixture the exact mix.
    while index % calls.len() != 0 || started.elapsed() < deadline {
        let call = &calls[index % calls.len()];
        let sent = Instant::now();
        let (code, stdout) = invoke(target, &call.args)?;
        let mut ms = sent.elapsed().as_secs_f64() * 1e3;
        let got = crate::plan::cli_verdict(&stdout);
        if code != call.code || got != call.expect {
            ms = f64::INFINITY;
            e2e.fail(format!(
                "nfdtool {}: exit {code} (want {}), stdout {got:?} (want {:?})",
                call.args.join(" "),
                call.code,
                call.expect
            ));
        }
        e2e.samples.push(Sample {
            client: 0,
            index,
            class: Class::Read,
            ms,
        });
        index += 1;
    }
    e2e.client_s.push(started.elapsed().as_secs_f64());
    Ok(e2e)
}

/// Writes the fixture files, then runs every `nfdtool snapshot` call.
fn write_fixtures(fixtures: &Fixtures, target: &Target) -> Result<(), String> {
    for (path, text) in &fixtures.files {
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    for args in &fixtures.snapshots {
        let (code, stdout) = invoke(target, args)?;
        if code != 0 {
            return Err(format!("nfdtool {}: exit {code}: {stdout}", args.join(" ")));
        }
    }
    Ok(())
}

/// Runs one `nfdtool` call: exit code and stdout.
pub fn invoke(target: &Target, args: &[String]) -> Result<(i32, String), String> {
    match target {
        Target::Binary(bin) => {
            let output = Command::new(bin)
                .args(args)
                .stdin(Stdio::null())
                .stderr(Stdio::null())
                .output()
                .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
            let stdout =
                String::from_utf8(output.stdout).map_err(|e| format!("nfdtool stdout: {e}"))?;
            Ok((exit_code(output.status), stdout))
        }
        Target::InProcess => {
            let mut out = String::new();
            let code = nfd::cli::run(args, &mut out);
            Ok((code, out))
        }
    }
}

/// The exit code, or `128 + signal` for a process a signal ended.
fn exit_code(status: ExitStatus) -> i32 {
    status
        .code()
        .or_else(|| status.signal().map(|sig| 128 + sig))
        .unwrap_or(-1)
}

/// The peak resident set of a live process, from `VmHWM` in
/// `/proc/<pid>/status` (KiB).
fn peak_rss_kb(pid: u32) -> Option<u64> {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// A running `nfdtool serve`, child process or in-process thread.
struct Daemon {
    addr: SocketAddr,
    child: Option<(Child, BufReader<ChildStderr>)>,
    thread: Option<JoinHandle<std::io::Result<ServerStats>>>,
}

impl Daemon {
    fn spawn(target: &Target) -> Result<Daemon, String> {
        match target {
            Target::Binary(bin) => {
                let mut child = Command::new(bin)
                    .args(["serve", "--addr", "127.0.0.1:0"])
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::piped())
                    .spawn()
                    .map_err(|e| format!("spawn {} serve: {e}", bin.display()))?;
                let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
                let mut banner = String::new();
                let _ = stderr.read_line(&mut banner);
                let addr = banner
                    .split("listening on ")
                    .nth(1)
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|a| a.parse().ok());
                // Built before the check so that a daemon which did not
                // come up is still killed and waited for on drop.
                let mut daemon = Daemon {
                    addr: SocketAddr::from(([127, 0, 0, 1], 0)),
                    child: Some((child, stderr)),
                    thread: None,
                };
                daemon.addr = addr.ok_or_else(|| {
                    format!("nfdtool serve did not announce its port: {banner:?}")
                })?;
                Ok(daemon)
            }
            Target::InProcess => {
                let server = Server::bind(
                    "127.0.0.1:0",
                    ServerConfig::default(),
                    Registry::new(daemon_config()),
                )
                .map_err(|e| format!("bind: {e}"))?;
                let addr = server.local_addr().map_err(|e| e.to_string())?;
                Ok(Daemon {
                    addr,
                    child: None,
                    thread: Some(std::thread::spawn(move || server.run())),
                })
            }
        }
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Reads the daemon's peak RSS (`None` in-process, where the daemon
    /// shares the benchmark's process), then sends SHUTDOWN and waits for
    /// a clean exit.
    fn shutdown(mut self) -> Result<Option<u64>, String> {
        let rss_kb = self
            .child
            .as_ref()
            .and_then(|(child, _)| peak_rss_kb(child.id()));
        let reply = self
            .connect()?
            .ask("SHUTDOWN")
            .map_err(|e| format!("SHUTDOWN: {e}"))?;
        if reply != "OK draining" {
            return Err(format!("SHUTDOWN answered {reply:?}"));
        }
        if let Some(thread) = self.thread.take() {
            thread
                .join()
                .expect("server thread")
                .map_err(|e| format!("server: {e}"))?;
            return Ok(None);
        }
        let (mut child, _stderr) = self.child.take().expect("a daemon is a thread or a child");
        let status = child.wait().map_err(|e| format!("nfdtool serve: {e}"))?;
        match exit_code(status) {
            0 => Ok(rss_kb),
            code => Err(format!("nfdtool serve exited with {code}")),
        }
    }
}

impl Drop for Daemon {
    /// Error paths only: a daemon that was not shut down is stopped and
    /// waited for, so no process outlives the benchmark.
    fn drop(&mut self) {
        if let Some((mut child, _)) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(thread) = self.thread.take() {
            if let Ok(mut c) = Client::connect(self.addr) {
                let _ = c.ask("SHUTDOWN");
            }
            let _ = thread.join();
        }
    }
}

/// One connection, one request in flight.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one line and reads one reply line.
    pub fn ask(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(reply.trim_end().to_string())
    }

    /// Setup steps: every reply must match, or the run aborts.
    fn expect_all(&mut self, ops: &[Op]) -> Result<(), String> {
        for op in ops {
            let reply = self
                .ask(&op.line)
                .map_err(|e| format!("{}: {e}", op.line))?;
            if !op.expect.accepts(&reply) {
                return Err(format!(
                    "setup `{}` answered {reply:?}, want {:?}",
                    op.line, op.expect
                ));
            }
        }
        Ok(())
    }

    /// Whole cycles of `stream` (repeated as needed) until `deadline`
    /// has passed since `started`. Writes and loads take `turns` (see
    /// [`Turns`]); the first client decides when the run stops, and the
    /// others stop at the same cycle.
    fn closed_loop(
        &mut self,
        client: usize,
        stream: &[Op],
        cycle: usize,
        started: Instant,
        deadline: Duration,
        turns: &Turns,
    ) -> (Vec<Sample>, Vec<String>, f64) {
        let mut samples = Vec::new();
        let mut reasons = Vec::new();
        let mut index = 0;
        let mut heavy = 0;
        loop {
            let op = &stream[index % stream.len()];
            let is_heavy = op.class != Class::Read;
            if index % cycle == 0 && started.elapsed() >= deadline && (client == 0 || !is_heavy) {
                turns.stop_at(heavy);
                break;
            }
            if is_heavy && !turns.wait(client, heavy) {
                break;
            }
            let sent = Instant::now();
            let reply = self.ask(&op.line);
            let mut ms = sent.elapsed().as_secs_f64() * 1e3;
            if is_heavy {
                turns.done();
                heavy += 1;
            }
            if !matches!(&reply, Ok(r) if op.expect.accepts(r)) {
                ms = f64::INFINITY;
                if reasons.len() < 4 {
                    reasons.push(format!(
                        "`{}` answered {reply:?}, want {:?}",
                        op.line, op.expect
                    ));
                }
            }
            samples.push(Sample {
                client,
                index,
                class: op.class,
                ms,
            });
            if reply.is_err() {
                // The connection is gone: the failed op is counted, and
                // this client stops, and the others at their next turn.
                turns.stop_at(0);
                break;
            }
            index += 1;
        }
        (samples, reasons, started.elapsed().as_secs_f64())
    }
}

/// Turn-taking for the heavy ops (writes, loads) of the closed-loop
/// clients: client `c`'s `k`-th heavy op runs after every client's
/// `k - 1`-th and after the `k`-th of clients `0..c`, so at most one is
/// in flight. Reads stay concurrent. Two compiles at once would measure
/// how soon the host gives this machine its second core, which varies
/// from run to run, rather than the program; one at a time, each runs on
/// a core of its own, beside the other client's reads.
pub struct Turns {
    state: Mutex<TurnState>,
    changed: Condvar,
}

struct TurnState {
    clients: usize,
    /// Heavy ops completed, over all clients.
    done: usize,
    /// No client starts its heavy op with this number or a later one.
    stop_at: Option<usize>,
}

impl Turns {
    /// Turns for `clients` clients.
    pub fn new(clients: usize) -> Turns {
        Turns {
            state: Mutex::new(TurnState {
                clients,
                done: 0,
                stop_at: None,
            }),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TurnState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until `client` may start its heavy op number `k`; false if
    /// the run stops first.
    pub fn wait(&self, client: usize, k: usize) -> bool {
        let mut s = self.lock();
        loop {
            if s.stop_at.is_some_and(|stop| k >= stop) {
                return false;
            }
            if s.done == k * s.clients + client {
                return true;
            }
            s = self.changed.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The heavy op whose turn it was has finished.
    pub fn done(&self) {
        self.lock().done += 1;
        self.changed.notify_all();
    }

    /// Heavy op number `k` and later ones are not run, by any client.
    pub fn stop_at(&self, k: usize) {
        let mut s = self.lock();
        s.stop_at = Some(s.stop_at.map_or(k, |stop| stop.min(k)));
        self.changed.notify_all();
    }
}

/// A fresh directory for one run's fixtures, inside the build directory
/// (`CARGO_TARGET_DIR` when set, else `target/` of the repository).
pub fn work_dir(tag: &str) -> Result<PathBuf, String> {
    let base = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(dir),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("../target"),
    };
    let dir = base
        .join("nfdbench-work")
        .join(format!("{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}
