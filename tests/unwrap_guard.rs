//! Source-level guard against reintroducing panicking sites.
//!
//! PR "resource-governed execution" converted every `unwrap`/`expect`/
//! `panic!`/`unreachable!` reachable from the public API of the hot
//! decision-procedure modules into propagated `CoreError`/`ChaseError`
//! values. This test greps those sources (minus their `#[cfg(test)]`
//! modules, where panicking asserts are idiomatic) and fails if new
//! panicking sites appear, so the panic-free boundary cannot rot
//! silently.
//!
//! If you add a site that is *provably* unreachable, prefer returning
//! `CoreError::Internal`-style errors anyway — and if you must panic,
//! raise the budget here with a comment justifying it.

use std::path::Path;

/// (file, allowed panicking sites outside `#[cfg(test)]`).
const BUDGETS: &[(&str, usize)] = &[
    ("crates/core/src/engine.rs", 0),
    ("crates/core/src/kernel.rs", 0),
    ("crates/core/src/naive.rs", 0),
    ("crates/core/src/satisfy.rs", 0),
    ("crates/core/src/analysis.rs", 0),
    ("crates/core/src/delta.rs", 0),
    ("crates/core/src/select.rs", 0),
    ("crates/par/src/lib.rs", 0),
    ("crates/chase/src/tableau.rs", 0),
    ("crates/logic/src/eval.rs", 0),
    ("crates/model/src/parse.rs", 0),
    // One deliberate site: `trigger`'s `FaultAction::Panic` arm — the
    // whole point of that action is to panic so the chaos harness can
    // prove the `catch_unwind` boundaries contain it. The module is
    // compiled only under the (never-default) `failpoints` feature.
    ("crates/faults/src/lib.rs", 1),
    // The serve layer promises crash containment; a panicking site here
    // would be a hole in the very boundary it exists to enforce.
    ("crates/serve/src/lib.rs", 0),
    ("crates/serve/src/proto.rs", 0),
    ("crates/serve/src/gate.rs", 0),
    ("crates/serve/src/server.rs", 0),
    ("src/serve.rs", 0),
    // The snapshot decoder's whole contract is "malformed bytes become
    // typed errors, never panics" — zero tolerance, and the same for
    // the freeze/thaw conversion layer in the facade.
    ("crates/snap/src/lib.rs", 0),
    ("src/snapshot.rs", 0),
];

/// Matches the panicking constructs we guard against. `.unwrap()` and
/// `.expect("…")`/`.expect(format!` only — `unwrap_or`/`expect_err` etc.
/// do not panic, and `Parser::expect(TokenKind…)` in the model crate is a
/// Result-returning method, so the `.expect(` needle requires a message
/// argument to avoid flagging it.
fn panicking_sites(code: &str) -> Vec<(usize, String)> {
    let needles = [
        ".unwrap()",
        ".expect(\"",
        ".expect(format!",
        "panic!(",
        "unreachable!(",
        "unreachable!()",
    ];
    code.lines()
        .enumerate()
        .filter(|(_, l)| {
            let t = l.trim_start();
            !t.starts_with("//") && needles.iter().any(|n| l.contains(n))
        })
        .map(|(i, l)| (i + 1, l.trim().to_string()))
        .collect()
}

/// Drops everything from the first test-module attribute on — plain
/// `#[cfg(test)]` or a compound `#[cfg(all(test, …))]` (used by the
/// feature-gated faults crate). Test modules sit at the end of each file
/// in this repository, so a simple prefix cut is exact; the assertion
/// below keeps that assumption honest.
fn non_test_prefix(code: &str) -> &str {
    let markers = ["#[cfg(test)]", "#[cfg(all(test"];
    match markers.iter().filter_map(|m| code.find(m)).min() {
        Some(pos) => {
            let rest = &code[pos..];
            assert!(
                rest.contains("mod tests"),
                "test cfg not introducing a test module — update the guard"
            );
            &code[..pos]
        }
        None => code,
    }
}

#[test]
fn decision_procedure_sources_stay_panic_free() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (file, budget) in BUDGETS {
        let path = root.join(file);
        let code = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let sites = panicking_sites(non_test_prefix(&code));
        assert!(
            sites.len() <= *budget,
            "{file} has {} panicking site(s), budget is {budget}:\n{}",
            sites.len(),
            sites
                .iter()
                .map(|(line, text)| format!("  {file}:{line}: {text}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn guard_actually_detects_sites() {
    // Self-test: the matcher must flag real sites and pass over lookalikes.
    let flagged = panicking_sites(
        "let x = y.unwrap();\nlet z = w.expect(\"msg\");\npanic!(\"boom\");\nunreachable!()",
    );
    assert_eq!(flagged.len(), 4);
    let clean = panicking_sites(
        "let x = y.unwrap_or(0);\nlet z = w.unwrap_or_else(|| 1);\n// .unwrap() in a comment",
    );
    assert!(clean.is_empty(), "{clean:?}");
}

/// The `failpoints` feature must never be on by default: release builds
/// carry no registry and no injected-fault code paths. This greps every
/// workspace manifest for a `default = […]` feature list naming it, and
/// pins the one legitimate forwarding arm (the `nfd` facade).
#[test]
fn failpoints_is_never_a_default_feature() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    for dir in ["crates", "compat"] {
        for entry in std::fs::read_dir(root.join(dir)).unwrap() {
            let manifest = entry.unwrap().path().join("Cargo.toml");
            if manifest.is_file() {
                manifests.push(manifest);
            }
        }
    }
    assert!(manifests.len() > 10, "workspace scan looks broken");

    let mut forwarding_arms = 0;
    for manifest in manifests {
        let toml = std::fs::read_to_string(&manifest).unwrap();
        for line in toml.lines() {
            let line = line.trim();
            if line.starts_with('#') {
                continue;
            }
            if line.starts_with("default") && line.contains('=') {
                assert!(
                    !line.contains("failpoints"),
                    "{}: `failpoints` must never be a default feature: {line}",
                    manifest.display()
                );
            }
            if line.starts_with("failpoints") && line.contains("nfd-faults/failpoints") {
                forwarding_arms += 1;
            }
        }
    }
    assert_eq!(
        forwarding_arms, 1,
        "exactly one manifest (the facade) forwards the feature"
    );
}
