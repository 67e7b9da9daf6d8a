//! Every workload at smoke size against an in-process `Server<Registry>`
//! (configured as `nfdtool serve` configures it) and `nfd::cli::run`:
//! no op may fail, and every metric `BENCHMARK.json` names must be
//! reported. Plus: op lists are a function of the seed, and heavy ops
//! take turns.

use nfdbench::exec::{work_dir, Target, Turns};
use nfdbench::plan::{plan, Body, Plan};
use nfdbench::{Scale, Workload};

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names(section: &str) -> Vec<String> {
    let json = include_str!("../../BENCHMARK.json");
    let body = &json[json
        .find(&format!("\"{section}\""))
        .expect("section present")..];
    body[..body.find(']').expect("section is an array")]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

fn smoke(workload: Workload) {
    for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let out = nfdbench::run(workload, 1, 0.5, traced, Scale::Smoke, &Target::InProcess)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert!(
            out.correct && out.failed == 0,
            "{}: {:?}",
            workload.name(),
            out.reasons
        );
        assert!(out.attempted > 0);
        let got: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(got, names(section), "{} {section}", workload.name());
        // In-process, a CLI call has no process boundary, so its
        // transport_ms is noise around zero; everything else is positive.
        for m in &out.metrics {
            let positive = m.value > 0.0 || m.name == "transport_ms";
            assert!(
                m.value.is_finite() && positive,
                "{} {}: {}",
                workload.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn serve_read_smoke() {
    smoke(Workload::ServeRead);
}

#[test]
fn serve_write_smoke() {
    smoke(Workload::ServeWrite);
}

#[test]
fn serve_churn_smoke() {
    smoke(Workload::ServeChurn);
}

#[test]
fn cli_oneshot_smoke() {
    smoke(Workload::CliOneshot);
}

#[test]
fn benchmark_json_names_only_known_workloads() {
    let listed = names("workloads");
    assert!(!listed.is_empty());
    for name in listed {
        assert!(
            Workload::parse(&name).is_some(),
            "unknown workload `{name}`"
        );
    }
}

#[test]
fn heavy_ops_take_turns_and_a_stop_releases_waiters() {
    let turns = Turns::new(2);
    let order = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for client in [1, 0] {
            let (turns, order) = (&turns, &order);
            s.spawn(move || {
                for k in 0..3 {
                    assert!(turns.wait(client, k));
                    order.lock().unwrap().push(client);
                    turns.done();
                }
            });
        }
    });
    assert_eq!(order.into_inner().unwrap(), [0, 1, 0, 1, 0, 1]);

    // Client 1 waits for a turn client 0 never takes.
    let turns = Turns::new(2);
    std::thread::scope(|s| {
        let waiter = s.spawn(|| turns.wait(1, 0));
        turns.stop_at(0);
        assert!(!waiter.join().unwrap());
    });
}

/// Everything a plan sends or writes, in order.
fn transcript(plan: &Plan) -> Vec<String> {
    let mut lines: Vec<String> = plan
        .fixtures
        .files
        .iter()
        .map(|(path, text)| format!("{} {text}", path.display()))
        .collect();
    match &plan.body {
        Body::Serve { setup, streams, .. } => {
            let ops = setup.iter().chain(streams.iter().flatten());
            lines.extend(ops.map(|op| op.line.clone()));
        }
        Body::Cli { calls } => lines.extend(calls.iter().map(|c| c.args.join(" "))),
    }
    lines
}

#[test]
fn op_lists_are_a_function_of_the_seed() {
    for workload in Workload::ALL {
        let dir = work_dir(&format!("seeds-{}", workload.name())).expect("work dir");
        let ops = |seed| transcript(&plan(workload, seed, Scale::Smoke, &dir).expect("plan"));
        let first = ops(1);
        assert_eq!(first, ops(1), "{}: same seed, same ops", workload.name());
        assert_ne!(
            first,
            ops(2),
            "{}: another seed, other ops",
            workload.name()
        );
        std::fs::remove_dir_all(&dir).expect("remove work dir");
    }
}
