//! `nfdbench`: one end-to-end benchmark of `nfdtool serve` and the
//! `nfdtool` CLI, plus a traced run that attributes each op's latency to
//! the layers it passes through. See `README.md` for the workloads, the
//! metrics and the layer table.

pub mod exec;
pub mod gen;
pub mod oracle;
pub mod plan;
pub mod trace;

use exec::{E2e, Target};

/// The four traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Hot reads on four resident tenants.
    ServeRead,
    /// Σ mutation beside reads.
    ServeWrite,
    /// LOAD/RESTORE churn past the residency cap.
    ServeChurn,
    /// One `nfdtool` process per query.
    CliOneshot,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeRead,
        Workload::ServeWrite,
        Workload::ServeChurn,
        Workload::CliOneshot,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeRead => "serve_read",
            Workload::ServeWrite => "serve_write",
            Workload::ServeChurn => "serve_churn",
            Workload::CliOneshot => "cli_oneshot",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the benchmark's, or the smoke tests' small ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` runs.
    Full,
    /// Small inputs that exercise every path in a second or two.
    Smoke,
}

/// How many times a run sets up from scratch; `setup_s` is the median.
pub const SETUPS: usize = 9;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// The median (mean of the middle two for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest value, and the percentile it sits at. `None` below
/// eleven samples, where no tail can be reported honestly.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (n >= 11).then(|| (v[n - 11], 100.0 * (n - 10) as f64 / n as f64))
}

/// What one run of one workload produced.
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// Every reply matched the oracle and the daemon's counters are clean.
    pub correct: bool,
    /// Timed ops attempted.
    pub attempted: usize,
    /// Timed ops failed.
    pub failed: usize,
    /// The metrics the mode reports (`end_to_end`, or `per_layer`).
    pub metrics: Vec<Metric>,
    /// Further measurements, printed but not part of the contract.
    pub notes: Vec<Metric>,
    /// Why ops failed, for the log.
    pub reasons: Vec<String>,
    /// Each setup's duration, seconds.
    pub setups: Vec<f64>,
}

/// One run of `workload`: plan from `seed`, then the end-to-end run for
/// `seconds` (`traced == false`) or the traced run (`traced == true`).
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    target: &Target,
) -> Result<Outcome, String> {
    let work = exec::work_dir(workload.name())?;
    let result = run_in(workload, seed, seconds, traced, scale, target, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    target: &Target,
    work: &std::path::Path,
) -> Result<Outcome, String> {
    let plan = plan::plan(workload, seed, scale, work)?;
    let (e2e, metrics, notes) = if traced {
        let t = trace::run(&plan, target, seconds)?;
        (t.e2e, t.layers, t.notes)
    } else {
        let e2e = exec::run(&plan, target, seconds, SETUPS)?;
        let (metrics, notes) = end_to_end(&e2e)?;
        (e2e, metrics, notes)
    };
    Ok(Outcome {
        workload,
        correct: e2e.failed == 0,
        attempted: e2e.samples.len(),
        failed: e2e.failed,
        metrics,
        notes,
        reasons: e2e.reasons,
        setups: e2e.setup_s,
    })
}

/// The `end_to_end` metrics of one run, and the measurements printed
/// beside them that are not steady enough on a shared 2-core host to
/// gate a change: the order-statistic tail and peak memory.
pub fn end_to_end(e2e: &E2e) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let ms: Vec<f64> = e2e.samples.iter().map(|s| s.ms).collect();
    let n = ms.len();
    let (tail_ms, pct) =
        tail(&ms).ok_or_else(|| format!("only {n} ops ran; a tail needs at least 11"))?;
    let gated = vec![
        Metric::new("setup_s", median(&e2e.setup_s), "s", e2e.setup_s.len()),
        Metric::new("op_p50_ms", median(&ms), "ms", n),
        Metric::new("op_worst10_mean_ms", worst_tenth_mean(&ms), "ms", n),
        Metric::new("ops_per_s", throughput(e2e), "1/s", n),
    ];
    let mut notes = vec![
        Metric::new("op_tail_ms", tail_ms, "ms", n),
        Metric::new("op_tail_percentile", pct, "%", n),
    ];
    if let Some(kb) = e2e.rss_kb {
        notes.push(Metric::new("rss_peak_mib", kb as f64 / 1024.0, "MiB", 1));
    }
    Ok((gated, notes))
}

/// The mean of the slowest tenth of `values`: a tail measure that
/// averages a tenth of the samples instead of resting on one order
/// statistic, so it moves with the cost of the slow op classes (writes,
/// loads, heavy CLI calls) without the run-to-run jitter of a single
/// extreme sample.
pub fn worst_tenth_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    let k = v.len().div_ceil(10).max(1);
    v.iter().take(k).sum::<f64>() / k as f64
}

/// Completed ops per second: each closed-loop client's own rate, summed,
/// so a client idling while the other finishes its last cycle does not
/// count as lost throughput.
fn throughput(e2e: &E2e) -> f64 {
    e2e.client_s
        .iter()
        .enumerate()
        .map(|(c, secs)| e2e.samples.iter().filter(|s| s.client == c).count() as f64 / secs)
        .sum()
}

/// A finite JSON number (a failed op's infinite latency prints as the
/// largest double, and the run is already marked incorrect).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{:e}", f64::MAX)
    }
}

impl Outcome {
    /// `workload metric value unit (n=samples)` lines, then the JSON line.
    pub fn report(&self, seed: u64, revision: &str) -> String {
        let w = self.workload.name();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut out = format!(
            "{w} run seed={seed} revision={revision} nproc={nproc} attempted={} failed={} setups_s={:?}\n",
            self.attempted, self.failed, self.setups
        );
        for reason in &self.reasons {
            out.push_str(&format!("{w} failure {reason}\n"));
        }
        for m in self.metrics.iter().chain(&self.notes) {
            out.push_str(&format!(
                "{w} {} {} {} (n={})\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ));
        out
    }
}
