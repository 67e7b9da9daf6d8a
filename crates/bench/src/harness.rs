//! The one bench harness: a best-of timing loop, the `--test` smoke
//! switch, and the `BENCH_<id>.json` report every bench writes.
//!
//! A bench's `main` opens a [`Bench`], times its bodies with
//! [`Bench::time`] (or [`Bench::time_fresh`] when each run needs fresh
//! input built outside the timed region), adds one row per measurement,
//! and calls [`Bench::finish`], which prints the table and writes the
//! record.
//!
//! Where the record goes: `$BENCH_OUT_DIR/BENCH_<id>.json` when
//! `BENCH_OUT_DIR` is set; otherwise a full run writes
//! `BENCH_<id>.json` at the workspace root (found from the working
//! directory, which `cargo bench` sets to `crates/bench`) and a smoke
//! run writes nothing, so `-- --test` never overwrites the committed
//! full-size records.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Wall time one timed sample aims to fill. A body faster than this runs
/// in batches sized to fill it (the per-run time is the batch mean), so
/// microsecond rows are not timer noise; a slower body runs once per
/// sample.
const SAMPLE_WINDOW: Duration = Duration::from_millis(20);

/// One bench run: its identity, its mode, and the rows it has measured.
pub struct Bench {
    bench_id: &'static str,
    bench: &'static str,
    smoke: bool,
    samples: usize,
    records: Vec<BenchRecord>,
    extra: Vec<(String, String)>,
}

impl Bench {
    /// Opens bench `bench_id` (`"B14"`), named after its target
    /// (`"saturation_kernel"`), keeping the best of `samples` samples per
    /// timed body. `--test` on the command line selects the smoke mode:
    /// every body runs once.
    pub fn new(bench_id: &'static str, bench: &'static str, samples: usize) -> Bench {
        let smoke = std::env::args().skip(1).any(|arg| arg == "--test");
        Bench::with_mode(bench_id, bench, samples, smoke)
    }

    fn with_mode(
        bench_id: &'static str,
        bench: &'static str,
        samples: usize,
        smoke: bool,
    ) -> Bench {
        Bench {
            bench_id,
            bench,
            smoke,
            samples: if smoke { 1 } else { samples.max(1) },
            records: Vec::new(),
            extra: Vec::new(),
        }
    }

    /// True under `--test`.
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// Samples per timed body: 1 under `--test`.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// `smoke` under `--test`, `full` otherwise — the size lists of a
    /// bench whose full sizes are too slow for a smoke run.
    pub fn sizes<'a, T>(&self, smoke: &'a [T], full: &'a [T]) -> &'a [T] {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// Best-of time of one run of `body`, in nanoseconds, over the
    /// bench's sample count.
    pub fn time<T>(&self, body: impl FnMut() -> T) -> u128 {
        self.time_n(self.samples, body)
    }

    /// [`Bench::time`] over `samples` samples, for rows too slow for the
    /// bench's usual count.
    pub fn time_n<T>(&self, samples: usize, mut body: impl FnMut() -> T) -> u128 {
        self.best(samples, |runs| {
            let start = Instant::now();
            for _ in 0..runs {
                black_box(body());
            }
            start.elapsed()
        })
    }

    /// Best-of time of `body` alone, where every run gets a fresh input
    /// from `setup`, built before and dropped after the timed region.
    pub fn time_fresh<S, T>(
        &self,
        mut setup: impl FnMut() -> S,
        mut body: impl FnMut(&mut S) -> T,
    ) -> u128 {
        self.best(self.samples, |runs| {
            let mut timed = Duration::ZERO;
            for _ in 0..runs {
                let mut input = setup();
                let start = Instant::now();
                black_box(body(&mut input));
                timed += start.elapsed();
            }
            timed
        })
    }

    fn best(&self, samples: usize, run: impl FnMut(u64) -> Duration) -> u128 {
        let (samples, window) = if self.smoke {
            (1, Duration::ZERO)
        } else {
            (samples, SAMPLE_WINDOW)
        };
        sample(samples, window, run).0
    }

    /// Records a row that times one implementation: no baseline, no
    /// speedup.
    pub fn one(&mut self, workload: &'static str, param: usize, candidate: &'static str, ns: u128) {
        self.records.push(BenchRecord {
            workload,
            param,
            baseline: None,
            candidate,
            candidate_ns: ns,
        });
    }

    /// Records a row comparing `candidate` against `baseline` on one
    /// workload.
    pub fn pair(
        &mut self,
        workload: &'static str,
        param: usize,
        (baseline, baseline_ns): (&'static str, u128),
        (candidate, candidate_ns): (&'static str, u128),
    ) {
        self.records.push(BenchRecord {
            workload,
            param,
            baseline: Some((baseline, baseline_ns)),
            candidate,
            candidate_ns,
        });
    }

    /// Adds a bench-specific top-level field to the record; `json` is the
    /// already rendered JSON value.
    pub fn extra(&mut self, key: &str, json: String) {
        self.extra.push((key.to_string(), json));
    }

    /// Prints the table and writes the record (see the module docs for
    /// where). Panics if the record cannot be written, so a run whose
    /// record is lost fails.
    pub fn finish(self) {
        print!("{}", self.table());
        let out_dir = std::env::var_os("BENCH_OUT_DIR")
            .filter(|dir| !dir.is_empty())
            .map(PathBuf::from);
        match self.write_to(out_dir.as_deref()) {
            Ok(Some(path)) => println!("wrote {}", path.display()),
            Ok(None) => println!("smoke run: no record written (set BENCH_OUT_DIR to keep one)"),
            Err(e) => panic!("could not write the {} record: {e}", self.bench_id),
        }
    }

    /// Writes the record into `out_dir`, or, with none, at the workspace
    /// root for a full run and nowhere for a smoke run. Returns the path
    /// written.
    fn write_to(&self, out_dir: Option<&Path>) -> std::io::Result<Option<PathBuf>> {
        let dir = match out_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                dir.to_path_buf()
            }
            None if self.smoke => return Ok(None),
            None => workspace_root()?,
        };
        let path = dir.join(format!("BENCH_{}.json", self.bench_id));
        std::fs::write(&path, self.to_json())?;
        Ok(Some(path))
    }

    /// The record as stable, human-diffable JSON: a header, the `results`
    /// rows, then the bench-specific fields.
    fn to_json(&self) -> String {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"bench_id\": \"{}\",", self.bench_id);
        let _ = writeln!(json, "  \"bench\": \"{}\",", self.bench);
        let mode = if self.smoke { "smoke" } else { "full" };
        let _ = writeln!(json, "  \"mode\": \"{mode}\",");
        let _ = writeln!(json, "  \"samples\": {},", self.samples);
        let _ = writeln!(json, "  \"host_parallelism\": {},", host_parallelism());
        let _ = writeln!(json, "  \"results\": [");
        for (i, r) in self.records.iter().enumerate() {
            let comma = if i + 1 < self.records.len() { "," } else { "" };
            let _ = writeln!(json, "    {}{comma}", r.json(self.bench_id));
        }
        let trailer = if self.extra.is_empty() { "" } else { "," };
        let _ = writeln!(json, "  ]{trailer}");
        for (i, (key, value)) in self.extra.iter().enumerate() {
            let comma = if i + 1 < self.extra.len() { "," } else { "" };
            let _ = writeln!(json, "  \"{key}\": {value}{comma}");
        }
        json.push_str("}\n");
        json
    }

    /// The human-readable table of every row, then the extra fields.
    fn table(&self) -> String {
        let mode = if self.smoke {
            "smoke: one run per body".to_string()
        } else {
            format!("best of {} samples", self.samples)
        };
        let mut out = format!("{} {} ({mode})\n", self.bench_id, self.bench);
        let _ = writeln!(
            out,
            "{:<26} {:>6} {:>18} {:>10} {:>18} {:>10} {:>9}",
            "workload", "param", "baseline", "time", "candidate", "time", "speedup"
        );
        for r in &self.records {
            let (baseline, baseline_time, speedup) = match r.baseline {
                Some((name, ns)) => (name, fmt_ns(ns), format!("{:.2}x", r.speedup(ns))),
                None => ("-", "-".to_string(), "-".to_string()),
            };
            let _ = writeln!(
                out,
                "{:<26} {:>6} {:>18} {:>10} {:>18} {:>10} {:>9}",
                r.workload,
                r.param,
                baseline,
                baseline_time,
                r.candidate,
                fmt_ns(r.candidate_ns),
                speedup
            );
        }
        for (key, value) in &self.extra {
            let _ = writeln!(out, "{key}: {value}");
        }
        out
    }
}

/// One row of a record. The JSON keys are the record schema every
/// `BENCH_*.json` shares, so rows stay diffable across revisions.
struct BenchRecord {
    workload: &'static str,
    param: usize,
    /// What the baseline ran and its best-of time, for a comparison row.
    baseline: Option<(&'static str, u128)>,
    candidate: &'static str,
    candidate_ns: u128,
}

impl BenchRecord {
    /// Baseline time over candidate time (>1 means the candidate wins).
    fn speedup(&self, baseline_ns: u128) -> f64 {
        if self.candidate_ns == 0 {
            return f64::INFINITY;
        }
        baseline_ns as f64 / self.candidate_ns as f64
    }

    fn json(&self, bench_id: &str) -> String {
        let (baseline, baseline_ns, speedup) = match self.baseline {
            Some((name, ns)) => (
                format!("\"{name}\""),
                ns.to_string(),
                format!(", \"speedup\": {:.3}", self.speedup(ns)),
            ),
            None => ("null".to_string(), "null".to_string(), String::new()),
        };
        format!(
            "{{\"bench_id\": \"{bench_id}\", \"workload\": \"{}\", \"param\": {}, \
             \"baseline\": {baseline}, \"baseline_ns\": {baseline_ns}, \
             \"candidate\": \"{}\", \"candidate_ns\": {}{speedup}}}",
            self.workload, self.param, self.candidate, self.candidate_ns
        )
    }
}

/// The timing loop. `run(k)` executes the body `k` times and returns the
/// time to charge them. Single runs first fill one `window` of wall
/// time, as warm-up and to size the batch: a body slower than the window
/// runs once per sample (and that first run is the first sample), a
/// faster one in batches that fill the window. Returns the best of
/// `samples` batch means in nanoseconds, and the runs per sample.
fn sample(samples: usize, window: Duration, mut run: impl FnMut(u64) -> Duration) -> (u128, u64) {
    let warm = Instant::now();
    let first = run(1);
    let mut runs: u32 = 1;
    while warm.elapsed() < window {
        run(1);
        runs += 1;
    }
    if runs == 1 {
        let best = (1..samples).map(|_| run(1)).fold(first, Duration::min);
        return (best.as_nanos(), 1);
    }
    let per_run = warm.elapsed() / runs;
    let batch =
        (window.as_nanos() / per_run.as_nanos().max(1)).clamp(1, u128::from(u32::MAX)) as u64;
    let best = (0..samples.max(1))
        .map(|_| run(batch) / batch as u32)
        .min()
        .expect("at least one sample");
    (best.as_nanos(), batch)
}

/// The workspace root: the nearest ancestor of the working directory
/// whose `Cargo.toml` declares `[workspace]`.
fn workspace_root() -> std::io::Result<PathBuf> {
    let cwd = std::env::current_dir()?;
    cwd.ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|manifest| manifest.lines().any(|l| l.trim() == "[workspace]"))
        })
        .map(Path::to_path_buf)
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no workspace Cargo.toml above {}", cwd.display()),
            )
        })
}

/// The core count the host exposes to this process.
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn fmt_ns(ns: u128) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(smoke: bool) -> Bench {
        let mut bench = Bench::with_mode("T0", "harness_test", 3, smoke);
        bench.one("solo", 4, "engine", 1_500);
        bench.pair("duel", 8, ("naive", 3_000), ("indexed", 1_000));
        bench
    }

    #[test]
    fn one_sided_row_has_a_null_baseline_and_no_speedup() {
        let json = report(false).to_json();
        let row = json.lines().find(|l| l.contains("\"solo\"")).unwrap();
        assert_eq!(
            row.trim(),
            "{\"bench_id\": \"T0\", \"workload\": \"solo\", \"param\": 4, \
             \"baseline\": null, \"baseline_ns\": null, \
             \"candidate\": \"engine\", \"candidate_ns\": 1500},"
        );
        assert!(!row.contains("speedup"));
    }

    #[test]
    fn two_sided_row_keeps_the_shared_record_keys() {
        let json = report(false).to_json();
        let row = json.lines().find(|l| l.contains("\"duel\"")).unwrap();
        assert_eq!(
            row.trim(),
            "{\"bench_id\": \"T0\", \"workload\": \"duel\", \"param\": 8, \
             \"baseline\": \"naive\", \"baseline_ns\": 3000, \
             \"candidate\": \"indexed\", \"candidate_ns\": 1000, \"speedup\": 3.000}"
        );
        assert!(json.contains(&format!("\"host_parallelism\": {},", host_parallelism())));
    }

    #[test]
    fn smoke_report_without_an_out_dir_writes_nothing() {
        let smoke = report(true);
        assert_eq!(smoke.write_to(None).unwrap(), None);
        let root = workspace_root().unwrap();
        assert!(!root.join("BENCH_T0.json").exists());

        let dir = std::env::temp_dir().join(format!("nfd-bench-harness-{}", std::process::id()));
        let written = smoke.write_to(Some(&dir)).unwrap().unwrap();
        assert_eq!(written, dir.join("BENCH_T0.json"));
        let json = std::fs::read_to_string(&written).unwrap();
        assert!(json.contains("\"mode\": \"smoke\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn timing_loop_batches_fast_bodies_and_runs_slow_ones_once_per_sample() {
        let (_, batch) = sample(3, Duration::from_millis(10), |runs| {
            let start = Instant::now();
            for i in 0..runs {
                black_box(i);
            }
            start.elapsed()
        });
        assert!(batch > 1, "a near-free body must be batched");

        let mut calls = 0;
        let (best_ns, batch) = sample(3, Duration::from_millis(2), |runs| {
            calls += runs;
            std::thread::sleep(Duration::from_millis(3) * runs as u32);
            Duration::from_millis(3) * runs as u32
        });
        assert_eq!(batch, 1);
        assert_eq!(
            calls, 3,
            "one run per sample, the warm-up run counted as the first"
        );
        assert_eq!(best_ns, 3_000_000);
    }
}
