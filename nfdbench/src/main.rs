//! `nfdbench [--workload NAME]… [--seed N] [--seconds S] [--trace 0|1]
//! [--traced] [--smoke]`
//!
//! Builds `nfdtool` from this checkout, then runs each named workload
//! (all four by default) against it. Every metric prints as `workload
//! metric value unit (n=samples)`; each workload ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 1` (or
//! `--traced`) runs the traced variant and reports the per-layer metrics
//! instead of the end-to-end ones. Exit status: 0 when every reply was
//! correct, 1 when one was not, 2 when the run could not be made.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use nfdbench::exec::Target;
use nfdbench::{Scale, Workload};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 20.0,
        traced: false,
        scale: Scale::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads
                    .push(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.traced = value()? == "1",
            "--traced" => args.traced = true,
            "--smoke" => args.scale = Scale::Smoke,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = Workload::ALL.to_vec();
    }
    if args.scale == Scale::Smoke {
        args.seconds = args.seconds.min(2.0);
    }
    Ok(args)
}

/// The repository this benchmark lives in.
fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Builds `nfdtool` in release mode with the caller's `cargo` (and its
/// `CARGO_TARGET_DIR`) and returns the executable Cargo reports.
fn build_nfdtool() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let output = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "nfdtool"])
        .args([
            "--message-format",
            "json-render-diagnostics",
            "--manifest-path",
        ])
        .arg(repo().join("Cargo.toml"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("building nfdtool failed ({})", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter(|l| l.contains("\"reason\":\"compiler-artifact\""))
        .find_map(|l| {
            let rest = l.split("\"executable\":\"").nth(1)?;
            Some(PathBuf::from(&rest[..rest.find('"')?]))
        })
        .ok_or_else(|| "cargo reported no nfdtool executable".to_string())
}

fn revision() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(repo())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let code = match parse_args().and_then(|args| {
        let target = Target::Binary(build_nfdtool()?);
        let rev = revision();
        let mut all_correct = true;
        for w in &args.workloads {
            let outcome = nfdbench::run(
                *w,
                args.seed,
                args.seconds,
                args.traced,
                args.scale,
                &target,
            )?;
            all_correct &= outcome.correct;
            print!("{}", outcome.report(args.seed, &rev));
        }
        Ok(all_correct)
    }) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("nfdbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
