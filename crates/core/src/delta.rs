//! Live Σ maintenance — delta insertion and counting-based retraction.
//!
//! [`Engine`] construction saturates one dependency pool per relation and
//! then treats the result as immutable; before this module, the only way
//! to change Σ was to throw the compilation away and rebuild everything
//! (`Session::reconfigure`). This module adds [`Engine::add_dep`] and
//! [`Engine::remove_dep`], which maintain the saturated state under
//! single-dependency mutation while keeping a hard exactness contract:
//!
//! > After any sequence of mutations, every relation's pool — contents,
//! > entry order, subsumption flags, `max` bounds and provenance — is
//! > **bit-for-bit identical** to the pool a from-scratch
//! > [`Engine::compile`] over the mutated Σ would produce.
//!
//! The contract is what makes maintenance *testable*: the mutation census
//! (`tests/delta_differential.rs`) walks hundreds of add/remove steps and
//! compares the maintained engine against a fresh build and against the
//! retained naive oracle after every step.
//!
//! ## Why exactness forces a scoped replay (the support-count argument)
//!
//! Retraction is the instructive case. The pool is a derivation DAG:
//! entry `j` cites its premises by pool index (`Prov::Resolve { target,
//! supplier, .. }` etc.), so removing the given `σ = Σ[i]` suggests the
//! classic counting / DRed plan — walk the DAG, decrement each entry's
//! support count, *over-delete* the entries whose count hits zero
//! (everything transitively supported by `σ`'s pool entry), then
//! *re-derive* survivors that have alternative derivations. The counting
//! pass is implemented here ([`Engine::retraction_impact`], and
//! `remove_dep` reports its size as [`DeltaReport::overdeleted`]), and it
//! correctly identifies the doomed entries. But counting alone cannot
//! reproduce the fresh pool, for four compounding reasons:
//!
//! 1. **Positions shift.** Pool entries embed premise *indices*, and
//!    proof reconstruction bounds chaining by those indices (`max`), so
//!    when the dead entries are squeezed out every surviving index — and
//!    every `Prov` citing one — changes. Exactness is positional, not
//!    just set-valued.
//! 2. **Subsumption races.** `RelEngine::add` rejects a candidate whose
//!    LHS is a superset of an *already present* active entry with the
//!    same RHS. Removing `σ` changes which entries are present at each
//!    insertion instant, so a survivor of the old pool can be rejected in
//!    the fresh build (something stronger now lands first) and an entry
//!    the old build rejected can now be admitted. Membership itself,
//!    not only order, depends on the full replay history.
//! 3. **Rejections are history-dependent.** `add` refuses a candidate
//!    because some entry at least as strong is already present, and
//!    which entries those are depends on everything offered before,
//!    including what `σ` seeded; a maintained engine cannot tell which
//!    of its past refusals a fresh build over the new Σ would accept.
//! 4. **Singleton premises are implicit.** `Prov::Singleton { x }` cites
//!    no pool indices — its premises are the closure facts `x → x:Aᵢ`,
//!    replayed on demand — so the provenance DAG *under-counts* support
//!    and the over-delete set is a lower bound, not an exact frontier.
//!
//! So the re-derive phase must replay the deterministic insertion order
//! in full. What keeps that cheap is the *independence boundary*:
//! relation pools never interact (a pool depends only on the relation's
//! table, the policy, and the Σ entries naming that relation, added in Σ
//! order — `RelEngine::build`, the one build sequence a compile and a
//! rebuild share). A mutation therefore re-runs the
//! build for **one** relation (`Engine::rebuild_relation`) and leaves
//! every other relation's pool and closure-cache entries untouched and
//! warm. The one cross-relation effect of removal is notational:
//! `Prov::Given(k)` cites positions in Σ, so untouched relations get a
//! pure index relabel (`k > i` becomes `k - 1`), which changes no pool
//! content and is exactly what the fresh build over the shortened Σ
//! records.
//!
//! Insertion is the same story run forward: appending `σ` to Σ seeds the
//! touched relation's frontier with one new given, and the semi-naive
//! worklist discipline inside `RelEngine::saturate` (each new entry is
//! resolved only against the already-processed prefix, through the
//! `DepIndex` occurrence lists) is what the replay reuses — the delta is
//! scoped by *relation*, and within the relation the engine's existing
//! indexed saturation already does frontier-driven work.
//!
//! Mutations are atomic: the fresh pool is built on the side and swapped
//! in only on success, so a budget exhaustion (or an injected
//! `delta::insert` / `delta::retract` fault) leaves the engine exactly as
//! it was — the old Σ, the old pools, the old caches — never a stale
//! hybrid. Scoped cache invalidation for the touched relation
//! happens only on the commit path (see DESIGN.md §12).

use crate::engine::{Engine, Prov};
use crate::error::CoreError;
use crate::nfd::Nfd;
use crate::simple;
use nfd_faults::fail_point;
use nfd_model::Label;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// What one Σ mutation did to the touched relation's pool — returned by
/// [`Engine::add_dep`] and [`Engine::remove_dep`] for observability
/// (serve responses, benches, the mutation census).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaReport {
    /// The relation whose pool was rebuilt; every other relation was
    /// left untouched.
    pub relation: Label,
    /// Pool entries of the touched relation before the mutation.
    pub pool_before: usize,
    /// Pool entries after the mutation committed.
    pub pool_after: usize,
    /// For removals: old pool entries transitively supported by the
    /// removed given — the counting pass's over-delete set (a lower
    /// bound; `Prov::Singleton` premises are replayed on demand and are
    /// not traced through the provenance DAG). Always zero for
    /// insertions.
    pub overdeleted: usize,
}

impl<'s> Engine<'s> {
    /// Adds `dep` to Σ and incrementally re-establishes saturation: only
    /// the relation `dep` names is rebuilt (bit-identical to a
    /// from-scratch build over the extended Σ — see the module docs);
    /// every other relation's pool and caches stay warm.
    ///
    /// On error (validation, budget exhaustion, injected fault) the
    /// engine is unchanged.
    pub fn add_dep(&mut self, dep: &Nfd) -> Result<DeltaReport, CoreError> {
        fail_point!(
            "delta::insert",
            Err(CoreError::Exhausted(nfd_govern::ResourceReport::injected())),
            self.budget().cancel_token()
        );
        self.budget().check_live().map_err(CoreError::Exhausted)?;
        dep.validate(self.schema())?;
        let relation = simple::to_simple(dep).base.relation;
        let pool_before = self.rel(relation)?.deps.len();
        self.sigma.push(dep.clone());
        // The rebuild happens on the side and commits atomically, but a
        // panic unwinding out of it (e.g. an armed `engine::saturate`
        // fault) would leave the pushed Σ entry paired with the old pool
        // — a stale hybrid. Roll Σ back before letting the panic
        // continue, so containment boundaries above observe a
        // fully-unmutated engine.
        match catch_unwind(AssertUnwindSafe(|| self.rebuild_relation(relation))) {
            Ok(Ok(())) => Ok(DeltaReport {
                relation,
                pool_before,
                pool_after: self.rels[&relation].deps.len(),
                overdeleted: 0,
            }),
            Ok(Err(e)) => {
                self.sigma.pop();
                Err(e)
            }
            Err(payload) => {
                self.sigma.pop();
                resume_unwind(payload)
            }
        }
    }

    /// Removes the first Σ entry equal to `dep` and incrementally
    /// re-establishes saturation: counting retraction identifies the
    /// over-delete set (reported as [`DeltaReport::overdeleted`]), the
    /// named relation replays its deterministic build over the shortened
    /// Σ, and untouched relations only have their `Prov::Given` indices
    /// relabelled past the removed position — no pool content changes
    /// outside the touched relation.
    ///
    /// Returns [`CoreError::Nav`] if `dep` is not in Σ. On error the
    /// engine is unchanged.
    pub fn remove_dep(&mut self, dep: &Nfd) -> Result<DeltaReport, CoreError> {
        fail_point!(
            "delta::retract",
            Err(CoreError::Exhausted(nfd_govern::ResourceReport::injected())),
            self.budget().cancel_token()
        );
        self.budget().check_live().map_err(CoreError::Exhausted)?;
        dep.validate(self.schema())?;
        let relation = simple::to_simple(dep).base.relation;
        let Some(i) = self.sigma.iter().position(|n| n == dep) else {
            return Err(CoreError::Nav(format!("dependency `{dep}` is not in Σ")));
        };
        let pool_before = self.rel(relation)?.deps.len();
        let overdeleted = dead_entries(self, relation, i)
            .iter()
            .filter(|&&d| d)
            .count();
        let removed = self.sigma.remove(i);
        match catch_unwind(AssertUnwindSafe(|| self.rebuild_relation(relation))) {
            Ok(Ok(())) => {
                // Commit the cross-relation effect: `Given(k)` cites a
                // position in Σ, and every position past `i` moved down
                // one. A pure relabel — content, order and subsumption
                // flags are untouched, which is exactly what a fresh
                // build over the shortened Σ records for these pools.
                for (name, rel) in self.rels.iter_mut() {
                    let renumbered = rel
                        .deps
                        .iter()
                        .any(|d| matches!(d.prov, Prov::Given(k) if k > i));
                    if *name == relation || !renumbered {
                        continue;
                    }
                    // Copy-on-write: a fork may share this pool with the
                    // engine it was forked from, which must keep its own
                    // Σ's numbering.
                    for d in &mut Arc::make_mut(rel).deps {
                        if let Prov::Given(k) = &mut d.prov {
                            if *k > i {
                                *k -= 1;
                            }
                        }
                    }
                }
                Ok(DeltaReport {
                    relation,
                    pool_before,
                    pool_after: self.rels[&relation].deps.len(),
                    overdeleted,
                })
            }
            Ok(Err(e)) => {
                self.sigma.insert(i, removed);
                Err(e)
            }
            Err(payload) => {
                self.sigma.insert(i, removed);
                resume_unwind(payload)
            }
        }
    }

    /// The counting pass alone: how many of the touched relation's pool
    /// entries are transitively supported by the given `dep` (the
    /// DRed-style over-delete set), without mutating anything. A lower
    /// bound — see the module docs on `Prov::Singleton`. Returns
    /// [`CoreError::Nav`] if `dep` is not in Σ.
    pub fn retraction_impact(&self, dep: &Nfd) -> Result<usize, CoreError> {
        dep.validate(self.schema())?;
        let relation = simple::to_simple(dep).base.relation;
        let Some(i) = self.sigma.iter().position(|n| n == dep) else {
            return Err(CoreError::Nav(format!("dependency `{dep}` is not in Σ")));
        };
        Ok(dead_entries(self, relation, i)
            .iter()
            .filter(|&&d| d)
            .count())
    }
}

/// Marks the pool entries of `relation` transitively supported by the
/// given at Σ position `sigma_idx`: the entry carrying
/// `Prov::Given(sigma_idx)` (if the pool admitted one) plus everything
/// citing a dead entry as a premise. Premise indices are well-founded
/// (`premise < entry` — checked by `Engine::check_invariants`), so one
/// forward pass suffices.
fn dead_entries(engine: &Engine<'_>, relation: Label, sigma_idx: usize) -> Vec<bool> {
    let Some(rel) = engine.rels.get(&relation) else {
        return Vec::new();
    };
    let mut dead = vec![false; rel.deps.len()];
    for (j, d) in rel.deps.iter().enumerate() {
        dead[j] = match &d.prov {
            Prov::Given(k) => *k == sigma_idx,
            Prov::Prefix { dep, .. } | Prov::FullLocality { dep, .. } => dead[*dep],
            Prov::Resolve {
                target, supplier, ..
            } => dead[*target] || dead[*supplier],
            // Premises are closure facts replayed on demand, not pool
            // indices: not traceable here (the lower-bound caveat).
            Prov::Singleton { .. } => false,
        };
    }
    dead
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emptyset::EmptySetPolicy;
    use crate::nfd::parse_set;
    use nfd_model::Schema;

    fn two_relation_setup() -> (Schema, Vec<Nfd>) {
        let schema = Schema::parse(
            "R : { <A: {<B: {<C: int>}, E: {<F: int, G: int>}>}, D: int> };
             S : { <P: int, Q: int, T: int> };",
        )
        .unwrap();
        let sigma = parse_set(
            &schema,
            "S:[P -> Q];
             R:[A:B:C, D -> A:E:F];
             S:[Q -> T];
             R:A:[B -> E:G];",
        )
        .unwrap();
        (schema, sigma)
    }

    fn assert_bit_identical(maintained: &Engine<'_>, schema: &Schema, sigma: &[Nfd]) {
        let fresh = Engine::with_policy(schema, sigma, maintained.policy().clone()).unwrap();
        assert_eq!(maintained.sigma, fresh.sigma, "Σ must match");
        assert_eq!(
            maintained.pool_dump(),
            fresh.pool_dump(),
            "maintained pool must be bit-identical to a from-scratch build"
        );
        maintained.check_invariants().unwrap();
    }

    #[test]
    fn add_dep_matches_fresh_build() {
        let (schema, sigma) = two_relation_setup();
        let mut engine = Engine::new(&schema, &sigma[..3]).unwrap();
        let report = engine.add_dep(&sigma[3]).unwrap();
        assert_eq!(report.relation, Label::new("R"));
        assert_eq!(report.overdeleted, 0);
        assert!(report.pool_after > report.pool_before);
        assert_bit_identical(&engine, &schema, &sigma);
    }

    #[test]
    fn remove_dep_matches_fresh_build_and_relabels_givens() {
        let (schema, sigma) = two_relation_setup();
        let mut engine = Engine::new(&schema, &sigma).unwrap();
        // Remove an R dependency sitting *between* the two S givens in Σ
        // order, so S's `Given` indices must be relabelled.
        let report = engine.remove_dep(&sigma[1]).unwrap();
        assert_eq!(report.relation, Label::new("R"));
        let remaining: Vec<Nfd> = sigma
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, n)| n.clone())
            .collect();
        assert_bit_identical(&engine, &schema, &remaining);
    }

    #[test]
    fn remove_then_add_round_trips_modulo_sigma_order() {
        let (schema, sigma) = two_relation_setup();
        let mut engine = Engine::new(&schema, &sigma).unwrap();
        engine.remove_dep(&sigma[2]).unwrap();
        engine.add_dep(&sigma[2]).unwrap();
        // Σ[2] moved to the tail, so compare against a fresh build over
        // the reordered Σ (pool contents depend on per-relation given
        // order, which for S changed).
        let reordered = vec![
            sigma[0].clone(),
            sigma[1].clone(),
            sigma[3].clone(),
            sigma[2].clone(),
        ];
        assert_bit_identical(&engine, &schema, &reordered);
    }

    #[test]
    fn remove_missing_dep_is_an_error_and_leaves_engine_unchanged() {
        let (schema, sigma) = two_relation_setup();
        let mut engine = Engine::new(&schema, &sigma[..2]).unwrap();
        let before = engine.pool_dump();
        let err = engine.remove_dep(&sigma[2]).unwrap_err();
        assert!(matches!(err, CoreError::Nav(_)));
        assert_eq!(engine.pool_dump(), before);
        assert_eq!(engine.sigma.len(), 2);
    }

    #[test]
    fn retraction_impact_counts_supported_entries() {
        let (schema, sigma) = two_relation_setup();
        let engine = Engine::new(&schema, &sigma).unwrap();
        // R:[A:B:C, D -> A:E:F] seeds the whole worked-example derivation
        // chain, so its impact must cover more than itself.
        let impact = engine.retraction_impact(&sigma[1]).unwrap();
        assert!(impact >= 1, "the given's own pool entry is supported");
        let mut engine = engine;
        let report = engine.remove_dep(&sigma[1]).unwrap();
        assert_eq!(report.overdeleted, impact);
        assert!(
            report.pool_after <= report.pool_before,
            "retraction cannot grow the pool"
        );
    }

    #[test]
    fn mutation_under_annotated_policy_matches_fresh_build() {
        let (schema, sigma) = two_relation_setup();
        let policy = EmptySetPolicy::pessimistic();
        let mut engine = Engine::with_policy(&schema, &sigma[..3], policy).unwrap();
        engine.add_dep(&sigma[3]).unwrap();
        assert_bit_identical(&engine, &schema, &sigma);
        engine.remove_dep(&sigma[0]).unwrap();
        let remaining: Vec<Nfd> = sigma[1..].to_vec();
        assert_bit_identical(&engine, &schema, &remaining);
    }
}
