//! Dependency-set analysis: the "tools to operate on dependencies" the
//! paper motivates (Section 1: equivalence-preserving transformations,
//! redundancy elimination, design-style reasoning), built on the
//! implication engine.
//!
//! Everything here is the nested analogue of classical FD design theory:
//!
//! * [`equivalent`] — mutual implication of two Σ sets;
//! * [`minimize`] — a minimal cover: drop implied NFDs, then drop
//!   extraneous LHS paths;
//! * [`candidate_keys`] — minimal path sets determining every path of a
//!   relation;
//! * [`forced_singletons`] — set-valued paths that Σ forces to be
//!   singletons (the Section 2.1 observation, decided by the engine);
//! * [`equal_or_disjoint_sets`] — set-valued paths whose values Σ forces
//!   to be pairwise equal or disjoint (the `x0:[x1:x2 → x1]` pattern).

use crate::engine::Engine;
use crate::error::CoreError;
use crate::kernel::ChainScratch;
use crate::nfd::Nfd;
use nfd_govern::{ResourceKind, ResourceReport};
use nfd_model::{Label, Schema};
use nfd_path::table::{PathId, PathSet};
use nfd_path::{Path, RootedPath};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Do `a` and `b` imply each other over `schema`?
pub fn equivalent(schema: &Schema, a: &[Nfd], b: &[Nfd]) -> Result<bool, CoreError> {
    let ea = Engine::new(schema, a)?;
    for nfd in b {
        if !ea.implies(nfd)? {
            return Ok(false);
        }
    }
    let eb = Engine::new(schema, b)?;
    for nfd in a {
        if !eb.implies(nfd)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Is `nfd` redundant in `sigma` (implied by the others)?
pub fn is_redundant(schema: &Schema, sigma: &[Nfd], index: usize) -> Result<bool, CoreError> {
    let rest: Vec<Nfd> = sigma
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != index)
        .map(|(_, n)| n.clone())
        .collect();
    Engine::new(schema, &rest)?.implies(&sigma[index])
}

/// A minimal cover of Σ: equivalent to the input, with
///
/// 1. no extraneous LHS paths (no LHS path of any member can be dropped
///    without weakening it), and
/// 2. no redundant members (none is implied by the rest).
///
/// Like its classical counterpart the result depends on examination order;
/// it is deterministic for a given input.
pub fn minimize(schema: &Schema, sigma: &[Nfd]) -> Result<Vec<Nfd>, CoreError> {
    let mut fds: Vec<Nfd> = sigma.to_vec();
    fds.sort();
    fds.dedup();

    // 1. Trim extraneous LHS paths, one at a time.
    let mut i = 0;
    while i < fds.len() {
        let mut changed = true;
        while changed {
            changed = false;
            let lhs: Vec<Path> = fds[i].lhs().to_vec();
            for drop in &lhs {
                if fds[i].lhs().len() <= 1 && fds[i].lhs().contains(drop) && fds[i].lhs().len() == 1
                {
                    // Allow trimming down to the constant form only if it
                    // still follows; handled by the same check below.
                }
                let reduced = Nfd::new(
                    fds[i].base.clone(),
                    lhs.iter().filter(|p| *p != drop).cloned(),
                    fds[i].rhs.clone(),
                )?;
                if reduced == fds[i] {
                    continue;
                }
                // The reduced NFD must follow from the CURRENT set.
                let engine = Engine::new(schema, &fds)?;
                if engine.implies(&reduced)? {
                    fds[i] = reduced;
                    changed = true;
                    break;
                }
            }
        }
        i += 1;
    }
    fds.sort();
    fds.dedup();

    // 2. Drop redundant members.
    let mut i = 0;
    while i < fds.len() {
        if is_redundant(schema, &fds, i)? {
            fds.remove(i);
        } else {
            i += 1;
        }
    }
    Ok(fds)
}

/// All candidate keys of `relation`: ⊆-minimal sets `X` of top-level
/// attribute paths whose closure contains **every top-level attribute** —
/// i.e. `X` determines the whole tuple. (A tuple of a nested relation is
/// its record of top-level fields; deeper paths denote *elements inside*
/// set-valued fields and are never functionally determined by tuple
/// identity alone, so they do not belong to the key notion.)
///
/// Like the classical problem this is exponential in the worst case;
/// `max_key_size` caps the search (keys larger than the cap are not
/// reported).
pub fn candidate_keys(
    engine: &Engine<'_>,
    relation: Label,
    max_key_size: usize,
) -> Result<Vec<Vec<Path>>, CoreError> {
    candidate_keys_threaded(engine, relation, max_key_size, 1)
}

/// [`candidate_keys`] sharded across `threads` workers (`0` = all
/// available parallelism). Each size level is partitioned by the first
/// attribute of the combination — independent subsets per worker — with
/// levels merged at a barrier so superset pruning sees exactly the keys a
/// sequential sweep would have.
///
/// The result (keys, or the exhaustion report) is identical at every
/// thread count for counter-only budgets:
///
/// * candidates are counted on one shared atomic, and a level enumerates
///   a fixed candidate population, so whether the cumulative count
///   crosses `max_key_candidates` does not depend on interleaving; the
///   first over-limit count is canonically `limit + 1`;
/// * pruning only ever consults keys from strictly smaller levels — a
///   same-level "superset" would be an equal-size distinct combination,
///   which cannot be a superset — so dropping the sequential sweep's
///   incremental same-level pruning changes nothing;
/// * each level's keys are merged in task order (= first-attribute
///   order), reproducing sequential discovery order before the final
///   sort.
///
/// Deadline and external-cancellation exhaustion remain timing-dependent,
/// as they are for sequential runs.
pub fn candidate_keys_threaded(
    engine: &Engine<'_>,
    relation: Label,
    max_key_size: usize,
    threads: usize,
) -> Result<Vec<Vec<Path>>, CoreError> {
    engine
        .schema()
        .relation_type(relation)
        .map_err(|_| CoreError::Nav(format!("unknown relation `{relation}`")))?
        .element_record()
        .ok_or_else(|| CoreError::Nav(format!("relation `{relation}` has no element record")))?;
    let rel = engine.rel(relation)?;
    let table = &rel.table;
    // Candidate components and the coverage universe: top-level
    // attributes (paths of length 1 — the ids with no parent).
    let attrs: Vec<PathId> = (0..table.len() as PathId)
        .filter(|&id| table.parent(id).is_none())
        .collect();
    let universe = PathSet::from_ids(table.words(), attrs.iter().copied());
    // A path joins a closure only by being in `X` or as the RHS of a pool
    // entry, so an attribute no entry derives must sit in every key; a
    // candidate without all of them cannot cover and needs no closure.
    // Every subsumed entry leaves a live one with its RHS, so the live
    // buckets name the derived attributes.
    let underived: Vec<PathId> = attrs
        .iter()
        .copied()
        .filter(|&a| rel.index.live_with_rhs(a).is_empty())
        .collect();

    // Subset enumeration is exponential; count candidates against the
    // engine's budget (shared across workers) and stop the whole level
    // the moment it runs out.
    let budget = engine.budget();
    let visited = AtomicU64::new(0);
    let stop = AtomicBool::new(false);

    // One candidate: budget first (every enumerated candidate counts,
    // pruned or not, exactly as in a sequential sweep), then prune
    // against keys from completed levels and against missing underived
    // attributes, then the closure cover test.
    // Each worker owns a chain scratch, so the cover test reuses the
    // counting kernel's buffers across every candidate it enumerates.
    let visit_one = |cand: &[PathId],
                     known: &[Vec<PathId>],
                     scratch: &mut ChainScratch|
     -> Result<bool, ResourceReport> {
        let v = visited.fetch_add(1, Ordering::Relaxed) + 1;
        budget
            .check_counter(ResourceKind::KeyCandidates, v)
            .map_err(|r| {
                // Racing workers may overshoot the limit by up to one
                // candidate each; the first over-limit count is limit+1
                // at any thread count, so that is the canonical report.
                ResourceReport::counter(r.kind, r.limit, r.limit.saturating_add(1))
            })?;
        if v.is_multiple_of(1024) {
            budget.check_live()?;
        }
        if known.iter().any(|k| k.iter().all(|p| cand.contains(p))) {
            return Ok(false); // superset of a known key
        }
        if !underived.iter().all(|p| cand.contains(p)) {
            return Ok(false);
        }
        Ok(universe.is_subset(&rel.chain_scratch(cand, scratch)))
    };

    let mut keys: Vec<Vec<PathId>> = Vec::new();
    for size in 0..=max_key_size.min(attrs.len()) {
        let known = &keys;
        // Task `first` enumerates the combinations beginning with
        // attrs[first] (size 0 has the single empty combination).
        let tasks = if size == 0 { 1 } else { attrs.len() };
        let results: Vec<Result<Vec<Vec<PathId>>, ResourceReport>> =
            nfd_par::map_indexed(tasks, threads, |first| {
                let mut found: Vec<Vec<PathId>> = Vec::new();
                let mut fail: Option<ResourceReport> = None;
                let mut combo: Vec<PathId> = Vec::with_capacity(size);
                let mut scratch = ChainScratch::default();
                let start = if size == 0 {
                    0
                } else {
                    combo.push(attrs[first]);
                    first + 1
                };
                search(&attrs, size, start, &mut combo, &mut |cand| {
                    if stop.load(Ordering::Relaxed) {
                        // A sibling exhausted the budget: quit; partial
                        // results are discarded with the whole level.
                        return false;
                    }
                    match visit_one(cand, known, &mut scratch) {
                        Ok(true) => {
                            found.push(cand.to_vec());
                            true
                        }
                        Ok(false) => true,
                        Err(r) => {
                            stop.store(true, Ordering::Relaxed);
                            fail = Some(r);
                            false
                        }
                    }
                });
                match fail {
                    Some(r) => Err(r),
                    None => Ok(found),
                }
            });
        // Merge in task order. On exhaustion prefer the canonical counter
        // report (identical from every worker that trips it) over the
        // timing-dependent liveness kinds.
        let mut exhausted: Option<ResourceReport> = None;
        for res in results {
            match res {
                Ok(found) => keys.extend(found),
                Err(r) => {
                    if exhausted.is_none() || r.kind == ResourceKind::KeyCandidates {
                        exhausted = Some(r);
                    }
                }
            }
        }
        if let Some(r) = exhausted {
            return Err(CoreError::Exhausted(r));
        }
    }
    let mut keys: Vec<Vec<Path>> = keys
        .into_iter()
        .map(|k| k.into_iter().map(|id| table.path(id).clone()).collect())
        .collect();
    keys.sort();
    Ok(keys)
}

/// Enumerates `size`-subsets of `items`, calling `visit` on each; the
/// visitor returns whether to continue, and `search` propagates an abort
/// all the way out.
fn search(
    items: &[PathId],
    size: usize,
    start: usize,
    combo: &mut Vec<PathId>,
    visit: &mut dyn FnMut(&[PathId]) -> bool,
) -> bool {
    if combo.len() == size {
        return visit(combo);
    }
    for i in start..items.len() {
        combo.push(items[i]);
        let keep_going = search(items, size, i + 1, combo, visit);
        combo.pop();
        if !keep_going {
            return false;
        }
    }
    true
}

/// Set-valued paths that Σ forces to be empty-or-singleton: those whose
/// value is determined by each of its element attributes, i.e.
/// `x0:[x → x:Ai]` is derivable for every attribute `Ai` (the paper's
/// Section 2.1 singleton analysis). Returned as rooted paths.
pub fn forced_singletons(engine: &Engine<'_>) -> Result<Vec<RootedPath>, CoreError> {
    let mut out = Vec::new();
    let mut scratch = ChainScratch::default();
    for relation in engine.schema().relation_names() {
        let rel = engine.rel(relation)?;
        let table = &rel.table;
        for x_id in 0..table.len() as PathId {
            if !table.is_set_record(x_id) {
                continue;
            }
            let attrs = table.children(x_id);
            if attrs.is_empty() {
                continue;
            }
            let c = rel.chain_scratch(&[x_id], &mut scratch);
            if attrs.iter().all(|&a| c.contains(a)) {
                out.push(RootedPath::new(relation, table.path(x_id).clone()));
            }
        }
    }
    Ok(out)
}

/// Set-valued paths `x1` for which Σ forces any two values to be equal or
/// disjoint — the paper's observation about NFDs of form
/// `x0:[x1:x2 → x1]`. A path qualifies if such an NFD is derivable for
/// some child `x2`.
pub fn equal_or_disjoint_sets(engine: &Engine<'_>) -> Result<Vec<RootedPath>, CoreError> {
    let mut out = Vec::new();
    let mut scratch = ChainScratch::default();
    for relation in engine.schema().relation_names() {
        let rel = engine.rel(relation)?;
        let table = &rel.table;
        for x1_id in 0..table.len() as PathId {
            if !table.is_set_record(x1_id) {
                continue;
            }
            for &a in table.children(x1_id) {
                if rel.chain_scratch(&[a], &mut scratch).contains(x1_id) {
                    out.push(RootedPath::new(relation, table.path(x1_id).clone()));
                    break;
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfd::parse_set;

    fn course() -> (Schema, Vec<Nfd>) {
        let schema = Schema::parse(
            "Course : { <cnum: string, time: int,
                         students: {<sid: int, age: int, grade: string>},
                         books: {<isbn: string, title: string>}> };",
        )
        .unwrap();
        let sigma = parse_set(
            &schema,
            "Course:[cnum -> time]; Course:[cnum -> students]; Course:[cnum -> books];
             Course:[books:isbn -> books:title];
             Course:students:[sid -> grade];
             Course:[students:sid -> students:age];
             Course:[time, students:sid -> cnum];",
        )
        .unwrap();
        (schema, sigma)
    }

    #[test]
    fn equivalence_of_presentations() {
        let (schema, sigma) = course();
        // Replacing the local grade constraint by its simple form keeps Σ
        // equivalent.
        let mut alt = sigma.clone();
        alt[4] = crate::simple::to_simple(&alt[4]);
        assert!(equivalent(&schema, &sigma, &alt).unwrap());
        // Dropping the key constraint does not.
        let weaker: Vec<Nfd> = sigma[1..].to_vec();
        assert!(!equivalent(&schema, &sigma, &weaker).unwrap());
    }

    #[test]
    fn minimize_removes_implied_members() {
        let schema = Schema::parse("R : {<A: int, B: int, C: int>};").unwrap();
        let sigma = parse_set(&schema, "R:[A -> B]; R:[B -> C]; R:[A -> C];").unwrap();
        let min = minimize(&schema, &sigma).unwrap();
        assert_eq!(min.len(), 2);
        assert!(equivalent(&schema, &min, &sigma).unwrap());
    }

    #[test]
    fn minimize_trims_extraneous_lhs() {
        let schema = Schema::parse("R : {<A: int, B: int, C: int>};").unwrap();
        // A,B → C with A → B: B is extraneous.
        let sigma = parse_set(&schema, "R:[A, B -> C]; R:[A -> B];").unwrap();
        let min = minimize(&schema, &sigma).unwrap();
        assert!(min.contains(&Nfd::parse(&schema, "R:[A -> C]").unwrap()));
        assert!(equivalent(&schema, &min, &sigma).unwrap());
    }

    #[test]
    fn minimize_is_idempotent_on_course() {
        let (schema, sigma) = course();
        let min = minimize(&schema, &sigma).unwrap();
        assert!(equivalent(&schema, &min, &sigma).unwrap());
        let again = minimize(&schema, &min).unwrap();
        assert_eq!(min, again);
    }

    #[test]
    fn course_candidate_keys() {
        let (schema, sigma) = course();
        let engine = Engine::new(&schema, &sigma).unwrap();
        let keys = candidate_keys(&engine, Label::new("Course"), 3).unwrap();
        // cnum alone is a key (it determines everything at the top level
        // and, because students/books are whole sets, everything below).
        assert!(
            keys.contains(&vec![Path::parse("cnum").unwrap()]),
            "keys: {keys:?}"
        );
        // No key omits cnum-or-equivalent: time alone is not a key.
        assert!(!keys.contains(&vec![Path::parse("time").unwrap()]));
    }

    #[test]
    fn keys_identify_tuples_not_elements() {
        // K → S makes {K} a key: it determines the whole tuple (K itself
        // and the set S). It does NOT determine S:A — different elements
        // of the same set may differ — and indeed S:A stays outside the
        // closure; keys are about tuple identity, not element choice.
        let schema = Schema::parse("R : {<K: int, S: {<A: int>}>};").unwrap();
        let sigma = parse_set(&schema, "R:[K -> S];").unwrap();
        let engine = Engine::new(&schema, &sigma).unwrap();
        let keys = candidate_keys(&engine, Label::new("R"), 2).unwrap();
        assert_eq!(keys, vec![vec![Path::parse("K").unwrap()]]);
        let cl = engine
            .closure(
                &RootedPath::parse("R").unwrap(),
                &[Path::parse("K").unwrap()],
            )
            .unwrap();
        assert!(!cl.contains(&RootedPath::parse("R:S:A").unwrap()));
        // Without any constraints, only the full attribute set is a key.
        let bare = Engine::new(&schema, &[]).unwrap();
        let keys = candidate_keys(&bare, Label::new("R"), 2).unwrap();
        assert_eq!(
            keys,
            vec![vec![Path::parse("K").unwrap(), Path::parse("S").unwrap()]]
        );
    }

    #[test]
    fn forced_singletons_section_2_1() {
        // R:[D → A:B], R:[D → A:C] forces A to be a singleton.
        let schema = Schema::parse("R : {<A: {<B: int, C: int>}, D: int>};").unwrap();
        let sigma = parse_set(&schema, "R:[D -> A:B]; R:[D -> A:C];").unwrap();
        let engine = Engine::new(&schema, &sigma).unwrap();
        let singles = forced_singletons(&engine).unwrap();
        assert_eq!(singles, vec![RootedPath::parse("R:A").unwrap()]);
        // One attribute is not enough.
        let sigma2 = parse_set(&schema, "R:[D -> A:B];").unwrap();
        let engine2 = Engine::new(&schema, &sigma2).unwrap();
        assert!(forced_singletons(&engine2).unwrap().is_empty());
    }

    #[test]
    fn forced_singleton_detection_is_semantic() {
        // The constant form [∅ → A:B] also forces per-set constancy.
        let schema = Schema::parse("R : {<A: {<B: int>}, D: int>};").unwrap();
        let sigma = parse_set(&schema, "R:[ -> A:B];").unwrap();
        let engine = Engine::new(&schema, &sigma).unwrap();
        assert_eq!(
            forced_singletons(&engine).unwrap(),
            vec![RootedPath::parse("R:A").unwrap()]
        );
    }

    #[test]
    fn equal_or_disjoint_detection() {
        let schema = Schema::parse("R : {<A: {<B: int>}, D: int>};").unwrap();
        let sigma = parse_set(&schema, "R:[A:B -> A];").unwrap();
        let engine = Engine::new(&schema, &sigma).unwrap();
        assert_eq!(
            equal_or_disjoint_sets(&engine).unwrap(),
            vec![RootedPath::parse("R:A").unwrap()]
        );
        let none = Engine::new(&schema, &[]).unwrap();
        assert!(equal_or_disjoint_sets(&none).unwrap().is_empty());
    }

    #[test]
    fn key_search_respects_candidate_budget() {
        let (schema, sigma) = course();
        let mut budget = nfd_govern::Budget::standard();
        budget.max_key_candidates = 2;
        let engine = Engine::with_budget(
            &schema,
            &sigma,
            crate::emptyset::EmptySetPolicy::Forbidden,
            budget,
        )
        .unwrap();
        match candidate_keys(&engine, Label::new("Course"), 3) {
            Err(CoreError::Exhausted(r)) => {
                assert_eq!(r.kind, nfd_govern::ResourceKind::KeyCandidates)
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn threaded_key_search_matches_sequential() {
        let (schema, sigma) = course();
        let engine = Engine::new(&schema, &sigma).unwrap();
        let sequential = candidate_keys(&engine, Label::new("Course"), 3).unwrap();
        for threads in [0, 2, 8] {
            let parallel =
                candidate_keys_threaded(&engine, Label::new("Course"), 3, threads).unwrap();
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn threaded_key_search_exhaustion_is_canonical() {
        let (schema, sigma) = course();
        let mut budget = nfd_govern::Budget::standard();
        budget.max_key_candidates = 2;
        let engine = Engine::with_budget(
            &schema,
            &sigma,
            crate::emptyset::EmptySetPolicy::Forbidden,
            budget,
        )
        .unwrap();
        let sequential = match candidate_keys(&engine, Label::new("Course"), 3) {
            Err(CoreError::Exhausted(r)) => r,
            other => panic!("expected exhaustion, got {other:?}"),
        };
        assert_eq!(sequential.used, 3, "first over-limit count");
        for threads in [2, 8] {
            match candidate_keys_threaded(&engine, Label::new("Course"), 3, threads) {
                Err(CoreError::Exhausted(r)) => {
                    assert_eq!(r, sequential, "threads = {threads}")
                }
                other => panic!("expected exhaustion at {threads} threads, got {other:?}"),
            }
        }
    }

    #[test]
    fn redundancy_check() {
        let schema = Schema::parse("R : {<A: int, B: int, C: int>};").unwrap();
        let sigma = parse_set(&schema, "R:[A -> B]; R:[B -> C]; R:[A -> C];").unwrap();
        assert!(is_redundant(&schema, &sigma, 2).unwrap());
        assert!(!is_redundant(&schema, &sigma, 0).unwrap());
    }
}
