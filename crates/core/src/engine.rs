//! The saturation-based implication engine.
//!
//! Deciding `Σ ⊨ σ` is the paper's central question; Theorem 3.1 shows the
//! eight NFD-rules are sound and complete for it (without empty sets). The
//! engine decides implication by working in the *simple form* of
//! Section 3.2 (base paths normalized to relation names via push-in /
//! pull-out) and saturating the dependency pool under the remaining rules:
//!
//! * **prefix-weakening** — each LHS path `x1:A` may be shortened to `x1`
//!   when `x1` is not a prefix of the RHS;
//! * **full-locality** — for every proper prefix `x` of the RHS, the
//!   out-of-subtree LHS paths may be replaced by `x` itself;
//! * **resolution** — transitivity composed at the pool level: a dependency
//!   producing `p` may discharge `p` from another dependency's LHS;
//! * **singleton introduction** — when the pool proves `x → x:Ai` for
//!   every attribute of a set-of-records path `x`, the singleton rule's
//!   conclusion `x:A1,…,x:An → x` joins the pool.
//!
//! A query `Σ ⊢ R:[X → y]` then chains over the saturated pool: starting
//! from `C = X` (reflexivity), any pool dependency whose LHS is contained
//! in `C` contributes its RHS (transitivity + augmentation), until `y`
//! appears or the closure is stable. Subsumption pruning (same RHS, ⊆ LHS)
//! keeps the pool an antichain.
//!
//! The engine works over the compiled dependency IR of
//! [`nfd_path::table`]: each relation's paths are interned once into a
//! shared [`PathTable`], LHS sets are [`PathSet`] bitsets, and the prefix /
//! follows relations are precomputed matrices — so subsumption, resolution
//! and query chaining are word-wise bitset operations. The empty-set
//! policy is compiled too: the `non_empty` / `defined` path sets are fixed
//! at construction, and each pool entry precomputes the subset of its LHS
//! that the modified-transitivity gate requires to sit in the query's `X`
//! (`need_x`), turning the per-step gate into a single subset test.
//!
//! Every pool entry records provenance, so any positive answer can be
//! replayed as a numbered derivation over the original eight rules (see
//! [`crate::proof`]). Completeness is cross-checked in the test suite
//! against the Appendix A construction: whenever the engine answers *no*,
//! the constructed instance satisfies Σ and violates the goal.
//!
//! Under [`EmptySetPolicy::Annotated`], resolution, query chaining, prefix
//! and locality apply only through their Section 3.2 gates; the engine is
//! then sound for instances with empty sets (completeness in that regime
//! is the paper's stated future work).

use crate::emptyset::EmptySetPolicy;
use crate::error::CoreError;
use crate::kernel::{self, ChainScratch, ClosureCache, DepIndex};
use crate::nfd::Nfd;
use crate::simple;
use nfd_faults::fail_point;
use nfd_govern::{Budget, ResourceKind};
use nfd_model::{Label, Schema};
use nfd_path::table::{PathId, PathSet, PathTable, SchemaTables};
use nfd_path::{Path, RootedPath};
use std::collections::HashMap;
use std::sync::Arc;

/// Provenance of a pool dependency — enough to replay a rule-level proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Prov {
    /// Normalized form of the `i`-th NFD of Σ.
    Given(usize),
    /// Prefix-weakening of pool entry `dep`, shortening the LHS path with
    /// index `shortened`.
    Prefix {
        /// Pool index of the premise.
        dep: usize,
        /// Path id (in the relation's path table) that was shortened.
        shortened: PathId,
    },
    /// Full-locality of pool entry `dep` at prefix `x`.
    FullLocality {
        /// Pool index of the premise.
        dep: usize,
        /// Path id of the localized prefix.
        x: PathId,
    },
    /// Resolution: `supplier`'s RHS discharged path `on` from `target`'s
    /// LHS (transitivity composed with reflexivity/augmentation).
    Resolve {
        /// Pool index of the dependency whose LHS was rewritten.
        target: usize,
        /// Pool index of the dependency supplying the discharged path.
        supplier: usize,
        /// Path id that was discharged.
        on: PathId,
    },
    /// Singleton introduction at set-valued path `x` (premises are the
    /// closure facts `x → x:Ai`, replayed on demand).
    Singleton {
        /// Path id of the singleton set.
        x: PathId,
    },
}

/// A compiled dependency in the saturated pool (simple form, LHS as a
/// bitset over the relation's [`PathTable`]).
#[derive(Clone, Debug)]
pub struct CDep {
    /// LHS path ids.
    pub lhs: PathSet,
    /// RHS path id.
    pub rhs: PathId,
    /// How this dependency was obtained.
    pub prov: Prov,
    /// Subsumed by a later entry with the same RHS and smaller LHS; kept
    /// for provenance but skipped by queries.
    pub subsumed: bool,
    /// The LHS paths that fail the compiled modified-transitivity gate
    /// (`lhs \ followers(rhs) \ defined`): a chain step through this entry
    /// is legal iff `need_x ⊆ X`. Empty under
    /// [`EmptySetPolicy::Forbidden`].
    pub(crate) need_x: PathSet,
}

/// One pool dependency as exported by [`Engine::export_pools`] — the
/// portable form of a [`CDep`]. `need_x` is deliberately absent: it is a
/// pure function of `(lhs, rhs, policy)` and is recomputed on thaw, so a
/// snapshot can never smuggle in an inconsistent gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrozenDep {
    /// LHS path ids.
    pub lhs: PathSet,
    /// RHS path id.
    pub rhs: PathId,
    /// How the dependency was derived (validated for well-foundedness on
    /// thaw).
    pub prov: Prov,
    /// Subsumption flag at export time — thaw replays the pool and
    /// requires the replayed flags to match exactly.
    pub subsumed: bool,
}

/// One relation's saturated pool in portable form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrozenPool {
    /// The relation the pool belongs to.
    pub relation: Label,
    /// Pool entries in pool order.
    pub deps: Vec<FrozenDep>,
    /// Set-of-records paths whose singleton rule has fired.
    pub singletons: Vec<PathId>,
}

/// Compiles an empty-set policy to the `(non_empty, defined)` path sets
/// of a relation — shared with the naive oracle so both engines reason
/// under byte-identical gates.
pub(crate) fn compile_policy(
    relation: Label,
    table: &PathTable,
    policy: &EmptySetPolicy,
) -> (PathSet, PathSet) {
    match policy {
        EmptySetPolicy::Forbidden => (table.full_set(), table.full_set()),
        EmptySetPolicy::Annotated(_) => {
            let non_empty = PathSet::from_ids(
                table.words(),
                (0..table.len() as PathId)
                    .filter(|&id| policy.is_non_empty(relation, table.path(id))),
            );
            let defined = PathSet::from_ids(
                table.words(),
                (0..table.len() as PathId).filter(|&id| {
                    let mut proper = table.prefixes_of(id).clone();
                    proper.remove(id);
                    proper.is_subset(&non_empty)
                }),
            );
            (non_empty, defined)
        }
    }
}

/// Per-relation saturation state over the shared compiled path table.
///
/// Mutable only while it is being built; an [`Engine`] holds each
/// saturated pool behind an `Arc` and never adds to it again, which is
/// what lets [`Engine::fork`] share it.
#[derive(Clone)]
pub(crate) struct RelEngine {
    pub(crate) relation: Label,
    /// The relation's compiled path table — the id space of the pool.
    pub(crate) table: Arc<PathTable>,
    pub(crate) deps: Vec<CDep>,
    /// Indices over `deps`, maintained in lock-step by
    /// [`RelEngine::add`]: live RHS buckets for subsumption and
    /// resolution candidates, LHS occurrences for resolution candidates
    /// and the counting chain kernel.
    pub(crate) index: DepIndex,
    /// Set-of-records paths whose singleton rule has fired.
    pub(crate) singletons_granted: Vec<PathId>,
    /// Ids declared non-empty by the policy (all ids under `Forbidden`).
    non_empty: PathSet,
    /// Ids whose every proper prefix is non-empty (all ids under
    /// `Forbidden`); the compiled form of [`EmptySetPolicy::is_defined`].
    defined: PathSet,
}

impl RelEngine {
    /// An empty pool for `relation` over its table in `tables`.
    fn new(
        relation: Label,
        tables: &SchemaTables,
        policy: &EmptySetPolicy,
    ) -> Result<RelEngine, CoreError> {
        let table = Arc::clone(
            tables
                .get(relation)
                .ok_or_else(|| CoreError::Nav(format!("unknown relation `{relation}`")))?,
        );
        let (non_empty, defined) = compile_policy(relation, &table, policy);
        let index = DepIndex::new(table.len(), table.words());
        Ok(RelEngine {
            relation,
            table,
            deps: Vec::new(),
            index,
            singletons_granted: Vec::new(),
            non_empty,
            defined,
        })
    }

    /// Builds `relation`'s saturated pool from scratch: the entries of
    /// `simple` (Σ in simple form, in Σ order) that name the relation,
    /// each as `Prov::Given` of its Σ position, then saturation
    /// interleaved with singleton rounds until stable. A pool depends on
    /// nothing else, and the build is deterministic, so this one
    /// sequence serves both [`Engine::compile`] and the delta layer's
    /// `Engine::rebuild_relation`, which is what makes a rebuilt pool
    /// bit-identical to a fresh compile's.
    fn build(
        relation: Label,
        tables: &SchemaTables,
        policy: &EmptySetPolicy,
        simple: &[Nfd],
        budget: &Budget,
    ) -> Result<RelEngine, CoreError> {
        let mut rel = RelEngine::new(relation, tables, policy)?;
        for (i, s) in simple.iter().enumerate() {
            if s.base.relation == relation {
                let lhs = rel.intern_lhs(s.lhs())?;
                let rhs = rel.path_id(&s.rhs)?;
                rel.add(lhs, rhs, Prov::Given(i), budget)?;
            }
        }
        loop {
            rel.saturate(budget)?;
            if !rel.singleton_round(budget)? {
                return Ok(rel);
            }
        }
    }

    fn path_id(&self, p: &Path) -> Result<PathId, CoreError> {
        self.table.id_of(p).ok_or_else(|| {
            CoreError::Nav(format!(
                "path `{p}` is not a path of relation `{}`",
                self.relation
            ))
        })
    }

    fn intern_lhs(&self, lhs: &[Path]) -> Result<PathSet, CoreError> {
        let mut set = self.table.empty_set();
        for p in lhs {
            set.insert(self.path_id(p)?);
        }
        Ok(set)
    }

    /// Adds a dependency unless trivial or subsumed; marks older entries
    /// this one subsumes. Returns whether it was added.
    ///
    /// Subsumption only relates entries with the same RHS, and only live
    /// (unsubsumed) entries take part, so both checks read the RHS's live
    /// bucket alone: the forward check rejects the candidate if some live
    /// LHS is a subset of it, and the backward pass flags and evicts every
    /// live entry whose LHS contains it. The first is an existence test
    /// and the second acts on the whole matching set, so the order of the
    /// bucket's rows cannot change either outcome — the pool and its
    /// flags match a full scan in pool order.
    ///
    /// A candidate offered again needs no duplicate set: its first offer
    /// was either rejected by, or became, a live entry with the same RHS
    /// and an LHS inside it, and subsumption only ever retires a live
    /// entry for a smaller one, so the forward check rejects the repeat
    /// too.
    fn add(
        &mut self,
        lhs: PathSet,
        rhs: PathId,
        prov: Prov,
        budget: &Budget,
    ) -> Result<bool, CoreError> {
        if lhs.contains(rhs) {
            return Ok(false); // reflexivity instance: never useful in the pool
        }
        if self.index.live_subset_of(rhs, &lhs) {
            return Ok(false);
        }
        let deps = &mut self.deps;
        self.index
            .evict_live_supersets(rhs, &lhs, |j| deps[j].subsumed = true);
        budget.check_counter(ResourceKind::PoolDeps, self.deps.len() as u64 + 1)?;
        let mut need_x = lhs.clone();
        need_x.difference_with(self.table.followers_of(rhs));
        need_x.difference_with(&self.defined);
        self.index.push(&lhs, rhs);
        self.deps.push(CDep {
            lhs,
            rhs,
            prov,
            subsumed: false,
            need_x,
        });
        debug_assert_eq!(self.index.len(), self.deps.len());
        Ok(true)
    }

    /// Saturates the pool under prefix-weakening, full-locality and
    /// resolution (all through the compiled policy gates). Polls the
    /// budget's liveness conditions (deadline, cancellation) every few
    /// thousand resolution pairs so a runaway saturation stops promptly.
    fn saturate(&mut self, budget: &Budget) -> Result<(), CoreError> {
        fail_point!(
            "engine::saturate",
            Err(CoreError::Exhausted(nfd_govern::ResourceReport::injected())),
            budget.cancel_token()
        );
        let mut i = 0;
        let mut tick: u32 = 0;
        let mut cands: Vec<usize> = Vec::new();
        while i < self.deps.len() {
            budget.check_live().map_err(CoreError::Exhausted)?;
            if self.deps[i].subsumed {
                i += 1;
                continue;
            }
            self.unary_conclusions(i, budget)?;
            // Resolution frontier: entry `i` is the worklist head and an
            // earlier live entry `j` can interact with it only if `rhs(j) ∈
            // lhs(i)` (j supplies i) or `rhs(i) ∈ lhs(j)` (i supplies j).
            // The live buckets and the LHS-occurrence index produce exactly
            // those `j`s; replaying them in ascending order — the order the
            // naive all-pairs scan considered them — grows the pool through
            // the identical add sequence, because `resolve_pair` is a no-op
            // on every skipped pair and a subsumed `j` is skipped anyway.
            // LHS/RHS are immutable after `add`, so the candidate list stays
            // exact while the loop itself appends new entries; only the
            // `subsumed` flag moves, monotonically, and it is re-read per
            // pair.
            cands.clear();
            for p in self.deps[i].lhs.iter() {
                cands.extend(
                    self.index
                        .live_with_rhs(p)
                        .iter()
                        .copied()
                        .filter(|&j| j < i),
                );
            }
            let rhs_i = self.deps[i].rhs;
            let occ = self.index.with_lhs_containing(rhs_i);
            cands.extend(
                occ[..occ.partition_point(|&j| j < i)]
                    .iter()
                    .copied()
                    .filter(|&j| !self.deps[j].subsumed),
            );
            cands.sort_unstable();
            cands.dedup();
            for &j in &cands {
                tick = tick.wrapping_add(1);
                if tick.is_multiple_of(4096) {
                    budget.check_live().map_err(CoreError::Exhausted)?;
                }
                if self.deps[j].subsumed {
                    continue;
                }
                self.resolve_pair(i, j, budget)?;
                self.resolve_pair(j, i, budget)?;
            }
            i += 1;
        }
        Ok(())
    }

    /// Prefix-weakening and full-locality conclusions of `deps[i]`.
    fn unary_conclusions(&mut self, i: usize, budget: &Budget) -> Result<(), CoreError> {
        let table = Arc::clone(&self.table);
        let (lhs, rhs) = (self.deps[i].lhs.clone(), self.deps[i].rhs);

        // prefix: shorten any LHS path x1:A to x1 (x1 not a prefix of the
        // RHS; under empty sets, x1 must be non-empty and reachable).
        for pid in lhs.iter() {
            let Some(x1) = table.parent(pid) else {
                continue; // single-label path: parent is the empty path
            };
            if table.is_prefix(x1, rhs) {
                continue;
            }
            if !(self.non_empty.contains(x1) && self.defined.contains(x1)) {
                continue;
            }
            let mut new_lhs = lhs.clone();
            new_lhs.remove(pid);
            new_lhs.insert(x1);
            self.add(
                new_lhs,
                rhs,
                Prov::Prefix {
                    dep: i,
                    shortened: pid,
                },
                budget,
            )?;
        }

        // full-locality: for each proper prefix x of the RHS, keep only the
        // x-prefixed LHS paths plus x itself; the dismissed paths must pass
        // the locality gate (follow the RHS or be defined) under empty sets.
        for x_id in table.ancestors(rhs) {
            let mut kept = lhs.clone();
            kept.intersect_with(table.extensions_of(x_id));
            let mut dismissed = lhs.clone();
            dismissed.difference_with(&kept);
            dismissed.remove(x_id);
            dismissed.difference_with(table.followers_of(rhs));
            dismissed.difference_with(&self.defined);
            if !dismissed.is_empty() {
                continue;
            }
            kept.insert(x_id);
            self.add(kept, rhs, Prov::FullLocality { dep: i, x: x_id }, budget)?;
        }
        Ok(())
    }

    /// Resolution: if `deps[supplier].rhs ∈ deps[target].lhs`, replace it
    /// by `deps[supplier].lhs`.
    fn resolve_pair(
        &mut self,
        target: usize,
        supplier: usize,
        budget: &Budget,
    ) -> Result<(), CoreError> {
        let on = self.deps[supplier].rhs;
        if !self.deps[target].lhs.contains(on) {
            return Ok(());
        }
        let t_rhs = self.deps[target].rhs;
        // Modified transitivity gate on the discharged path (it is the
        // intermediate value not present in the final LHS).
        if !(self.table.follows(on, t_rhs) || self.defined.contains(on)) {
            return Ok(());
        }
        let mut new_lhs = self.deps[target].lhs.clone();
        new_lhs.remove(on);
        new_lhs.union_with(&self.deps[supplier].lhs);
        self.add(
            new_lhs,
            t_rhs,
            Prov::Resolve {
                target,
                supplier,
                on,
            },
            budget,
        )?;
        Ok(())
    }

    /// Query-level chaining: the closure `C(X)` of a set of path ids under
    /// the saturated pool, with the modified-transitivity gate. Optionally
    /// records which pool entry produced each path (for proofs).
    pub(crate) fn chain(
        &self,
        x: &[PathId],
        fired: Option<&mut HashMap<PathId, usize>>,
    ) -> PathSet {
        self.chain_bounded(x, fired, self.deps.len())
    }

    /// [`RelEngine::chain`] restricted to pool entries with index `< max`
    /// — used by proof reconstruction, where provenance is well-founded by
    /// pool index. Subsumed entries are still sound and must stay usable
    /// here: proof reconstruction bounds `max` below the index of the
    /// entry that subsumed them.
    ///
    /// Runs on the counting kernel ([`kernel::chain_counting`]), which
    /// replays the historical pass scan's firing order exactly, so the
    /// `fired` maps — and therefore the reconstructed proofs — are
    /// identical to the naive implementation's.
    pub(crate) fn chain_bounded(
        &self,
        x: &[PathId],
        fired: Option<&mut HashMap<PathId, usize>>,
        max: usize,
    ) -> PathSet {
        let mut scratch = ChainScratch::default();
        self.chain_bounded_scratch(x, fired, max, &mut scratch)
    }

    /// [`RelEngine::chain`] with caller-owned scratch buffers — the
    /// allocation-free variant for tight loops (singleton rounds,
    /// candidate-key sweeps) that chain many times over one pool.
    pub(crate) fn chain_scratch(&self, x: &[PathId], scratch: &mut ChainScratch) -> PathSet {
        self.chain_bounded_scratch(x, None, self.deps.len(), scratch)
    }

    fn chain_bounded_scratch(
        &self,
        x: &[PathId],
        fired: Option<&mut HashMap<PathId, usize>>,
        max: usize,
        scratch: &mut ChainScratch,
    ) -> PathSet {
        kernel::chain_counting(
            &self.deps,
            &self.index,
            self.table.words(),
            x,
            fired,
            max,
            scratch,
        )
    }

    /// One round of singleton introduction; returns whether any new
    /// singleton conclusion joined the pool.
    fn singleton_round(&mut self, budget: &Budget) -> Result<bool, CoreError> {
        fail_point!(
            "engine::singleton",
            Err(CoreError::Exhausted(nfd_govern::ResourceReport::injected())),
            budget.cancel_token()
        );
        let table = Arc::clone(&self.table);
        let mut added = false;
        budget.check_live().map_err(CoreError::Exhausted)?;
        // One scratch for the whole round: every candidate's chain reuses
        // the counter/ready buffers instead of reallocating from scratch.
        let mut scratch = ChainScratch::default();
        for x_id in 0..table.len() as PathId {
            if self.singletons_granted.contains(&x_id) {
                continue;
            }
            if !table.is_set_record(x_id) {
                continue;
            }
            let attrs = table.children(x_id);
            if attrs.is_empty() {
                continue;
            }
            let c = self.chain_scratch(&[x_id], &mut scratch);
            if attrs.iter().all(|&a| c.contains(a)) {
                let lhs = PathSet::from_ids(table.words(), attrs.iter().copied());
                self.add(lhs, x_id, Prov::Singleton { x: x_id }, budget)?;
                self.singletons_granted.push(x_id);
                added = true;
            }
        }
        Ok(added)
    }
}

/// How an [`Engine`] holds its schema: borrowed for the caller's
/// lifetime `'s`, or shared-owned, which makes the engine (and a session
/// built on it) `'static` without leaking the schema.
#[derive(Clone, Debug)]
pub enum SchemaRef<'s> {
    /// Borrowed from the caller.
    Borrowed(&'s Schema),
    /// Owned jointly with whoever else holds the `Arc`.
    Shared(Arc<Schema>),
}

impl std::ops::Deref for SchemaRef<'_> {
    type Target = Schema;

    fn deref(&self) -> &Schema {
        match self {
            SchemaRef::Borrowed(schema) => schema,
            SchemaRef::Shared(schema) => schema,
        }
    }
}

/// The implication engine for a schema and a set Σ of NFDs.
///
/// Construction validates and normalizes Σ and saturates one pool per
/// relation over the schema's compiled [`SchemaTables`]; queries are then
/// cheap. See the module docs for the algorithm.
pub struct Engine<'s> {
    schema: SchemaRef<'s>,
    tables: SchemaTables,
    /// The original Σ (used for proof display).
    pub sigma: Vec<Nfd>,
    /// One saturated pool per relation. Pools are immutable once built
    /// and may be shared with forks ([`Engine::fork`]); a Σ mutation
    /// replaces the touched relation's `Arc` instead of editing it.
    pub(crate) rels: HashMap<Label, Arc<RelEngine>>,
    policy: EmptySetPolicy,
    budget: Budget,
    /// Optional shared closure cache (attached by sessions); `None` for
    /// stand-alone engines, whose queries always chain directly.
    cache: Option<Arc<ClosureCache>>,
}

/// What one `implies` or `closure` query did. Sessions surface it in
/// `Decision.cache_hits` and `Decision.tier`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryTrace {
    /// Whether the query looked a closure up at all (`false` when
    /// reflexivity decided the goal first).
    pub chained: bool,
    /// Whether the closure came from the attached [`ClosureCache`].
    pub cache_hit: bool,
}

impl<'s> Engine<'s> {
    /// Builds an engine under [`EmptySetPolicy::Forbidden`] (Theorem 3.1's
    /// regime) with the standard resource budget.
    pub fn new(schema: &'s Schema, sigma: &[Nfd]) -> Result<Engine<'s>, CoreError> {
        Engine::with_policy(schema, sigma, EmptySetPolicy::Forbidden)
    }

    /// Builds an engine under the given empty-set policy.
    pub fn with_policy(
        schema: &'s Schema,
        sigma: &[Nfd],
        policy: EmptySetPolicy,
    ) -> Result<Engine<'s>, CoreError> {
        Engine::with_budget(schema, sigma, policy, Budget::standard())
    }

    /// Builds an engine with an explicit resource [`Budget`]. Exhausting
    /// it is a [`CoreError::Exhausted`], not an incorrect answer.
    pub fn with_budget(
        schema: &'s Schema,
        sigma: &[Nfd],
        policy: EmptySetPolicy,
        budget: Budget,
    ) -> Result<Engine<'s>, CoreError> {
        let tables = SchemaTables::new(schema).map_err(|e| CoreError::Nav(e.to_string()))?;
        Engine::with_tables(schema, tables, sigma, policy, budget)
    }

    /// Builds an engine over pre-compiled path tables, sharing them with
    /// the caller instead of recompiling — the amortization hook used by
    /// query sessions. The tables must have been compiled from `schema`.
    pub fn with_tables(
        schema: &'s Schema,
        tables: SchemaTables,
        sigma: &[Nfd],
        policy: EmptySetPolicy,
        budget: Budget,
    ) -> Result<Engine<'s>, CoreError> {
        Engine::compile(SchemaRef::Borrowed(schema), tables, sigma, policy, budget)
    }

    /// [`Engine::with_tables`] over either kind of [`SchemaRef`] — with
    /// a shared schema the engine is `'static`.
    pub fn compile(
        schema: SchemaRef<'s>,
        tables: SchemaTables,
        sigma: &[Nfd],
        policy: EmptySetPolicy,
        budget: Budget,
    ) -> Result<Engine<'s>, CoreError> {
        fail_point!(
            "engine::build",
            Err(CoreError::Exhausted(nfd_govern::ResourceReport::injected())),
            budget.cancel_token()
        );
        // Validation also proves that every NFD names a schema relation,
        // so each one lands in the pool of the relation it names.
        let simple = sigma
            .iter()
            .map(|nfd| nfd.validate(&schema).map(|()| simple::to_simple(nfd)))
            .collect::<Result<Vec<Nfd>, CoreError>>()?;
        let mut rels = HashMap::new();
        for name in schema.relation_names() {
            let rel = RelEngine::build(name, &tables, &policy, &simple, &budget)?;
            rels.insert(name, Arc::new(rel));
        }
        Ok(Engine {
            schema,
            tables,
            sigma: sigma.to_vec(),
            rels,
            policy,
            budget,
            cache: None,
        })
    }

    /// Exports every relation's saturated pool in portable form, sorted
    /// by relation name — the compiled payload of a session snapshot.
    pub fn export_pools(&self) -> Vec<FrozenPool> {
        let mut out: Vec<FrozenPool> = self
            .rels
            .values()
            .map(|r| FrozenPool {
                relation: r.relation,
                deps: r
                    .deps
                    .iter()
                    .map(|d| FrozenDep {
                        lhs: d.lhs.clone(),
                        rhs: d.rhs,
                        prov: d.prov.clone(),
                        subsumed: d.subsumed,
                    })
                    .collect(),
                singletons: r.singletons_granted.clone(),
            })
            .collect();
        out.sort_by_key(|p| p.relation.to_string());
        out
    }

    /// Rebuilds an engine from pools exported by
    /// [`Engine::export_pools`], skipping the saturation fixpoint — the
    /// thaw path of compiled-session snapshots.
    ///
    /// This is a *validated replay*, not a blind install: every frozen
    /// entry is pushed through the same `RelEngine::add` a fresh build
    /// uses, in pool order. `add` is deterministic and its subsumption
    /// bookkeeping depends only on the entries accepted so far, so an
    /// honest export replays to a bit-identical pool (same entries, same
    /// occurrence indices, same subsumption flags, same recomputed
    /// `need_x` gates). Any deviation — an entry `add` rejects, a
    /// replayed subsumption flag differing from the frozen one, an
    /// out-of-range id or premise index — is a typed
    /// [`CoreError::Internal`], and the caller falls back to a fresh
    /// compile. The budget is charged exactly as a fresh build's pool
    /// growth would be, so thawing under a tighter budget reports
    /// honest exhaustion.
    pub fn from_frozen(
        schema: &'s Schema,
        tables: SchemaTables,
        sigma: &[Nfd],
        policy: EmptySetPolicy,
        budget: Budget,
        pools: Vec<FrozenPool>,
    ) -> Result<Engine<'s>, CoreError> {
        Engine::replay(
            SchemaRef::Borrowed(schema),
            tables,
            sigma,
            policy,
            budget,
            pools,
        )
    }

    /// [`Engine::from_frozen`] over either kind of [`SchemaRef`].
    pub fn replay(
        schema: SchemaRef<'s>,
        tables: SchemaTables,
        sigma: &[Nfd],
        policy: EmptySetPolicy,
        budget: Budget,
        pools: Vec<FrozenPool>,
    ) -> Result<Engine<'s>, CoreError> {
        let mut rels = HashMap::new();
        for name in schema.relation_names() {
            rels.insert(name, RelEngine::new(name, &tables, &policy)?);
        }
        for pool in pools {
            let rel = rels.get_mut(&pool.relation).ok_or_else(|| {
                CoreError::Internal(format!(
                    "frozen pool names relation `{}` which is not in the schema",
                    pool.relation
                ))
            })?;
            if !rel.deps.is_empty() {
                return Err(CoreError::Internal(format!(
                    "duplicate frozen pool for relation `{}`",
                    pool.relation
                )));
            }
            let relation = rel.relation;
            let table_len = rel.table.len() as PathId;
            let words = rel.table.words();
            let expected_flags: Vec<bool> = pool.deps.iter().map(|d| d.subsumed).collect();
            for (i, fd) in pool.deps.into_iter().enumerate() {
                let ctx = move |what: &str| {
                    CoreError::Internal(format!("frozen pool of `{relation}`, entry {i}: {what}"))
                };
                if fd.lhs.as_words().len() != words {
                    return Err(ctx("LHS bitset width does not match the path table"));
                }
                if fd.rhs >= table_len || fd.lhs.iter().any(|p| p >= table_len) {
                    return Err(ctx("path id out of range for the relation"));
                }
                let well_founded = match &fd.prov {
                    Prov::Given(k) => *k < sigma.len(),
                    Prov::Prefix { dep, shortened } => *dep < i && *shortened < table_len,
                    Prov::FullLocality { dep, x } => *dep < i && *x < table_len,
                    Prov::Resolve {
                        target,
                        supplier,
                        on,
                    } => *target < i && *supplier < i && *on < table_len,
                    Prov::Singleton { x } => *x < table_len,
                };
                if !well_founded {
                    return Err(ctx("provenance is not well-founded"));
                }
                if !rel.add(fd.lhs, fd.rhs, fd.prov, &budget)? {
                    return Err(ctx(
                        "replay rejected the entry (reflexive, duplicate, or subsumed)",
                    ));
                }
            }
            for (i, expected) in expected_flags.iter().enumerate() {
                if rel.deps[i].subsumed != *expected {
                    return Err(CoreError::Internal(format!(
                        "frozen pool of `{}`, entry {i}: replayed subsumption flag \
                         disagrees with the snapshot",
                        rel.relation
                    )));
                }
            }
            if pool.singletons.iter().any(|&x| x >= table_len) {
                return Err(CoreError::Internal(format!(
                    "frozen pool of `{}`: singleton id out of range",
                    rel.relation
                )));
            }
            rel.singletons_granted = pool.singletons;
        }
        Ok(Engine {
            schema,
            tables,
            sigma: sigma.to_vec(),
            rels: rels
                .into_iter()
                .map(|(name, rel)| (name, Arc::new(rel)))
                .collect(),
            policy,
            budget,
            cache: None,
        })
    }

    /// A copy of this engine that shares every saturated pool instead of
    /// copying it, so forking costs a map of `Arc`s, not a pool replay.
    /// Sound because built pools are immutable: a Σ mutation on either
    /// side installs a freshly built pool for the relation it touches
    /// (`Engine::rebuild_relation`), and `remove_dep`'s provenance
    /// relabel copies a shared pool before rewriting it — so neither
    /// engine can observe the other's mutations. The fork has no closure
    /// cache attached; attach its own, since a cache is scoped to one Σ.
    pub fn fork(&self) -> Engine<'s> {
        Engine {
            schema: self.schema.clone(),
            tables: self.tables.clone(),
            sigma: self.sigma.clone(),
            rels: self.rels.clone(),
            policy: self.policy.clone(),
            budget: self.budget.clone(),
            cache: None,
        }
    }

    /// Attaches a shared closure cache; subsequent `implies`/`closure`
    /// queries consult it before chaining. The cache must be scoped to
    /// this engine's `(Σ, policy)` compilation — sessions guarantee that
    /// by creating one cache per configuration (see
    /// [`ClosureCache`]'s soundness notes).
    pub fn with_closure_cache(mut self, cache: Arc<ClosureCache>) -> Engine<'s> {
        self.cache = Some(cache);
        self
    }

    /// Runs [`Engine::compile`]'s build for one relation
    /// (`RelEngine::build`) against the engine's *current* `sigma`,
    /// swapping the fresh pool in only on success — the commit step of
    /// [`Engine::add_dep`](crate::delta) / `remove_dep`. Relation pools
    /// never interact and builds are deterministic, so the committed
    /// pool, subsumption flags and provenance are bit-identical to a full
    /// rebuild's. On success the attached closure cache is invalidated
    /// for this relation only (every other relation stays warm); on error
    /// `self` is unchanged.
    pub(crate) fn rebuild_relation(&mut self, relation: Label) -> Result<(), CoreError> {
        let simple: Vec<Nfd> = self.sigma.iter().map(simple::to_simple).collect();
        let rel = RelEngine::build(relation, &self.tables, &self.policy, &simple, &self.budget)?;
        if let Some(cache) = &self.cache {
            cache.invalidate_relation(relation);
        }
        self.rels.insert(relation, Arc::new(rel));
        Ok(())
    }

    /// The schema the engine reasons over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The engine's hold on its schema — what a caller passes to
    /// [`Engine::compile`] to build a sibling engine over the same one.
    pub fn schema_ref(&self) -> &SchemaRef<'s> {
        &self.schema
    }

    /// The compiled path tables the engine (and its proofs) work over.
    pub fn tables(&self) -> &SchemaTables {
        &self.tables
    }

    /// The empty-set policy in force.
    pub fn policy(&self) -> &EmptySetPolicy {
        &self.policy
    }

    /// Total pool size across relations (a work measure for benches).
    pub fn pool_size(&self) -> usize {
        self.rels.values().map(|r| r.deps.len()).sum()
    }

    pub(crate) fn rel(&self, relation: Label) -> Result<&RelEngine, CoreError> {
        self.rels
            .get(&relation)
            .map(Arc::as_ref)
            .ok_or_else(|| CoreError::WrongRelation {
                expected: self
                    .rels
                    .keys()
                    .map(|k| k.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
                found: relation.to_string(),
            })
    }

    /// Normalizes a goal to simple form and returns `(relation, X ids,
    /// rhs id)`.
    pub(crate) fn normalize_goal(
        &self,
        goal: &Nfd,
    ) -> Result<(Label, Vec<PathId>, PathId), CoreError> {
        goal.validate(&self.schema)?;
        let s = simple::to_simple(goal);
        let rel = self.rel(s.base.relation)?;
        let lhs = rel.intern_lhs(s.lhs())?;
        let rhs = rel.path_id(&s.rhs)?;
        Ok((s.base.relation, lhs.to_vec(), rhs))
    }

    /// Does Σ logically imply `goal` (over instances consistent with the
    /// engine's empty-set policy)?
    pub fn implies(&self, goal: &Nfd) -> Result<bool, CoreError> {
        self.implies_queried(goal, &self.budget).map(|(v, _)| v)
    }

    /// [`Engine::implies`] plus the [`QueryTrace`]: whether a closure was
    /// looked up (reflexivity decides some goals first) and whether the
    /// attached cache answered it. The failpoint and liveness poll act on
    /// `budget` — a session passes its query's budget, [`Engine::implies`]
    /// the engine's own — and sit ahead of the cache lookup, so injected
    /// faults and cancellation behave identically whether or not the
    /// closure is cached.
    pub fn implies_queried(
        &self,
        goal: &Nfd,
        budget: &Budget,
    ) -> Result<(bool, QueryTrace), CoreError> {
        fail_point!(
            "engine::implies",
            Err(CoreError::Exhausted(nfd_govern::ResourceReport::injected())),
            budget.cancel_token()
        );
        budget.check_live().map_err(CoreError::Exhausted)?;
        let (relation, lhs, rhs) = self.normalize_goal(goal)?;
        if lhs.contains(&rhs) {
            let trace = QueryTrace {
                chained: false,
                cache_hit: false,
            };
            return Ok((true, trace));
        }
        let rel = self.rel(relation)?;
        let (c, trace) = self.chained(rel, &lhs);
        Ok((c.contains(rhs), trace))
    }

    /// The closure `C(X)` of `x_ids` — the one query path behind
    /// `implies` and `closure`: the attached cache when it holds `X`,
    /// else the counting kernel ([`RelEngine::chain`]), whose result the
    /// cache then keeps. Sound because `C(X)` is a pure function of the
    /// saturated pool and `X`, and chaining consumes no budget counters —
    /// a hit skips work but can never change a verdict or a
    /// counter-limited outcome.
    fn chained(&self, rel: &RelEngine, x_ids: &[PathId]) -> (PathSet, QueryTrace) {
        let trace = |cache_hit| QueryTrace {
            chained: true,
            cache_hit,
        };
        let Some(cache) = &self.cache else {
            return (rel.chain(x_ids, None), trace(false));
        };
        let key = PathSet::from_ids(rel.table.words(), x_ids.iter().copied());
        if let Some(hit) = cache.get(rel.relation, &key) {
            return (hit, trace(true));
        }
        let c = rel.chain(x_ids, None);
        cache.insert(rel.relation, key, c.clone());
        (c, trace(false))
    }

    /// The closure `(x0, X, Σ)*` of Appendix A: all rooted paths `x0:q`
    /// with `x0:[X → q]` derivable. Sorted by (length, path) for stable
    /// output.
    pub fn closure(&self, base: &RootedPath, lhs: &[Path]) -> Result<Vec<RootedPath>, CoreError> {
        self.closure_traced(base, lhs).map(|(c, _)| c)
    }

    /// [`Engine::closure`] plus the [`QueryTrace`] of the lookup — whether
    /// the closure came from the cache.
    pub fn closure_traced(
        &self,
        base: &RootedPath,
        lhs: &[Path],
    ) -> Result<(Vec<RootedPath>, QueryTrace), CoreError> {
        // Normalize through a synthetic goal: the closure is the set of
        // RHS paths the normalized LHS chains to, restricted to paths
        // below x0.
        fail_point!(
            "engine::closure",
            Err(CoreError::Exhausted(nfd_govern::ResourceReport::injected())),
            self.budget.cancel_token()
        );
        self.budget.check_live().map_err(CoreError::Exhausted)?;
        let rel = self.rel(base.relation)?;
        let prefix = &base.path;
        let mut x_ids: Vec<PathId> = Vec::new();
        let mut prefix_id = None;
        if !prefix.is_empty() {
            let id = rel.path_id(prefix)?;
            prefix_id = Some(id);
            x_ids.push(id);
        }
        for p in lhs {
            if p.is_empty() {
                return Err(CoreError::EmptyComponentPath);
            }
            x_ids.push(rel.path_id(&prefix.join(p))?);
        }
        x_ids.sort_unstable();
        x_ids.dedup();
        let (mut c, trace) = self.chained(rel, &x_ids);
        // Only paths strictly below x0 belong to the closure (q ≥ 1
        // labels relative to x0).
        if let Some(id) = prefix_id {
            c.intersect_with(rel.table.extensions_of(id));
        }
        let mut out: Vec<RootedPath> = c
            .iter()
            .map(|i| RootedPath::new(base.relation, rel.table.path(i).clone()))
            .collect();
        out.sort_by(|a, b| {
            let ka: Vec<&str> = a.path.labels().iter().map(|l| l.as_str()).collect();
            let kb: Vec<&str> = b.path.labels().iter().map(|l| l.as_str()).collect();
            (a.path.len(), ka).cmp(&(b.path.len(), kb))
        });
        Ok((out, trace))
    }

    /// The resource budget the engine was built under; queries made
    /// through this engine observe the same deadline and cancellation
    /// token.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Snapshot of every relation's pool in pool order, sorted by
    /// relation name — compared against `NaiveEngine::pool_dump` by the
    /// differential suite.
    #[doc(hidden)]
    pub fn pool_dump(&self) -> crate::naive::PoolDump {
        let mut out: crate::naive::PoolDump = self
            .rels
            .values()
            .map(|r| {
                (
                    r.relation.to_string(),
                    crate::naive::dump_pool_entries(&r.deps),
                )
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Verdict, closure ids and sorted `fired` provenance pairs for a
    /// goal. Identical dumps from the naive oracle and this engine imply
    /// identical reconstructed proofs: the proof builder is a
    /// deterministic function of the pool and the fired maps.
    #[doc(hidden)]
    pub fn chain_dump(&self, goal: &Nfd) -> Result<crate::naive::ChainDump, CoreError> {
        let (relation, lhs, rhs) = self.normalize_goal(goal)?;
        let rel = self.rel(relation)?;
        let mut fired: HashMap<PathId, usize> = HashMap::new();
        let c = rel.chain(&lhs, Some(&mut fired));
        let verdict = lhs.contains(&rhs) || c.contains(rhs);
        let mut fired: Vec<(PathId, usize)> = fired.into_iter().collect();
        fired.sort_unstable();
        Ok((verdict, c.to_vec(), fired))
    }

    /// Validates the engine's structural invariants; used by the test
    /// suite after saturation. Checks, per relation:
    ///
    /// 1. no pool entry is reflexive (RHS ∈ LHS);
    /// 2. the *active* (non-subsumed) entries form an antichain per RHS
    ///    (no active entry's LHS contains another active entry's LHS with
    ///    the same RHS);
    /// 3. provenance is well-founded: every premise index is smaller than
    ///    the entry's own index;
    /// 4. every `Given` provenance points into Σ;
    /// 5. the live subsumption buckets hold exactly the non-subsumed
    ///    entries, each once, in the bucket of its own RHS and with its
    ///    own LHS words — no subsumed entry sits in any bucket.
    pub fn check_invariants(&self) -> Result<(), String> {
        for rel in self.rels.values() {
            for (i, d) in rel.deps.iter().enumerate() {
                if d.lhs.contains(d.rhs) {
                    return Err(format!(
                        "relation {}: pool entry {i} is reflexive",
                        rel.relation
                    ));
                }
                let premise_indices: Vec<usize> = match &d.prov {
                    Prov::Given(k) => {
                        if *k >= self.sigma.len() {
                            return Err(format!(
                                "relation {}: entry {i} cites Σ[{k}] out of range",
                                rel.relation
                            ));
                        }
                        vec![]
                    }
                    Prov::Prefix { dep, .. } | Prov::FullLocality { dep, .. } => vec![*dep],
                    Prov::Resolve {
                        target, supplier, ..
                    } => vec![*target, *supplier],
                    Prov::Singleton { .. } => vec![],
                };
                for p in premise_indices {
                    if p >= i {
                        return Err(format!(
                            "relation {}: entry {i} cites premise {p} (not well-founded)",
                            rel.relation
                        ));
                    }
                }
            }
            if !rel.index.live_rows_aligned() {
                return Err(format!(
                    "relation {}: a live bucket's rows and pool indices are out of step",
                    rel.relation
                ));
            }
            let mut live: Vec<(PathId, usize, &[u64])> = rel.index.live_rows().collect();
            live.sort_unstable();
            let mut expected: Vec<(PathId, usize, &[u64])> = rel
                .deps
                .iter()
                .enumerate()
                .filter(|(_, d)| !d.subsumed)
                .map(|(j, d)| (d.rhs, j, d.lhs.as_words()))
                .collect();
            expected.sort_unstable();
            if live != expected {
                return Err(format!(
                    "relation {}: the live buckets' {} rows are not exactly the {} \
                     unsubsumed pool entries",
                    rel.relation,
                    live.len(),
                    expected.len()
                ));
            }
            let active: Vec<&CDep> = rel.deps.iter().filter(|d| !d.subsumed).collect();
            for (i, a) in active.iter().enumerate() {
                for (j, b) in active.iter().enumerate() {
                    if i != j && a.rhs == b.rhs && a.lhs == b.lhs {
                        return Err(format!(
                            "relation {}: duplicate active entries for rhs {}",
                            rel.relation, a.rhs
                        ));
                    }
                    if i != j && a.rhs == b.rhs && a.lhs.is_subset(&b.lhs) {
                        return Err(format!(
                            "relation {}: active pool is not an antichain at rhs {}",
                            rel.relation, a.rhs
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfd::parse_set;

    fn worked_example() -> (Schema, Vec<Nfd>) {
        let schema =
            Schema::parse("R : { <A: {<B: {<C: int>}, E: {<F: int, G: int>}>}, D: int> };")
                .unwrap();
        let sigma = parse_set(
            &schema,
            "R:[A:B:C, D -> A:E:F];
             R:A:[B -> E:G];",
        )
        .unwrap();
        (schema, sigma)
    }

    #[test]
    fn section_3_1_worked_example() {
        let (schema, sigma) = worked_example();
        let engine = Engine::new(&schema, &sigma).unwrap();
        let goal = Nfd::parse(&schema, "R:A:[B -> E]").unwrap();
        assert!(engine.implies(&goal).unwrap());
    }

    #[test]
    fn section_3_1_intermediate_steps_all_derivable() {
        let (schema, sigma) = worked_example();
        let engine = Engine::new(&schema, &sigma).unwrap();
        // The paper's eight numbered steps.
        for step in [
            "R:A:[B:C -> E:F]",
            "R:A:[B -> E:F]",
            "R:A:E:[ -> F]",
            "R:A:[E -> E:F]",
            "R:A:E:[ -> G]",
            "R:A:[E -> E:G]",
            "R:A:[E:F, E:G -> E]",
            "R:A:[B -> E]",
        ] {
            let nfd = Nfd::parse(&schema, step).unwrap();
            assert!(
                engine.implies(&nfd).unwrap(),
                "step {step} should be derivable"
            );
        }
    }

    #[test]
    fn non_implied_goals_rejected() {
        let (schema, sigma) = worked_example();
        let engine = Engine::new(&schema, &sigma).unwrap();
        for goal in [
            "R:[D -> A]",
            "R:A:[E:G -> B]",
            "R:[A -> D]",
            "R:A:[B -> B:C]",
        ] {
            let nfd = Nfd::parse(&schema, goal).unwrap();
            assert!(
                !engine.implies(&nfd).unwrap(),
                "{goal} should NOT be derivable"
            );
        }
    }

    #[test]
    fn reflexivity_and_augmentation_hold() {
        let (schema, _) = worked_example();
        let engine = Engine::new(&schema, &[]).unwrap();
        assert!(engine
            .implies(&Nfd::parse(&schema, "R:[D, A -> D]").unwrap())
            .unwrap());
        assert!(!engine
            .implies(&Nfd::parse(&schema, "R:[D -> A]").unwrap())
            .unwrap());
    }

    /// Example A.1's closure, exactly as printed in the paper.
    #[test]
    fn example_a1_closure() {
        let schema = Schema::parse(
            "R : { <A: int, B: {<C: int>}, D: int, E: {<F: int, G: int>},
                   H: {<J: int, L: int>}, I: int, M: {<N: int, O: int>}> };",
        )
        .unwrap();
        let sigma = parse_set(
            &schema,
            "R:[A -> B:C]; R:[B:C -> D]; R:[D -> E:F];
             R:[A -> E:G]; R:[B:C -> H]; R:[I -> H:J];",
        )
        .unwrap();
        let engine = Engine::new(&schema, &sigma).unwrap();
        let closure = engine
            .closure(
                &RootedPath::parse("R").unwrap(),
                &[Path::parse("B").unwrap()],
            )
            .unwrap();
        let shown: Vec<String> = closure.iter().map(|r| r.to_string()).collect();
        assert_eq!(shown, ["R:B", "R:D", "R:H", "R:B:C", "R:E:F", "R:H:J"]);
    }

    /// Example A.2's closure, exactly as printed in the paper.
    #[test]
    fn example_a2_closure() {
        let schema =
            Schema::parse("R : { <A: {<B: {<C: int, D: int, E: {<F: int, G: int>}>}>}, H: int> };")
                .unwrap();
        let sigma = parse_set(
            &schema,
            "R:[A:B:C -> A:B]; R:[A:B:C -> A:B:E:F]; R:[H -> A:B:D];",
        )
        .unwrap();
        let engine = Engine::new(&schema, &sigma).unwrap();
        let closure = engine
            .closure(
                &RootedPath::parse("R").unwrap(),
                &[Path::parse("A:B:C").unwrap()],
            )
            .unwrap();
        let shown: Vec<String> = closure.iter().map(|r| r.to_string()).collect();
        assert_eq!(shown, ["R:A:B", "R:A:B:C", "R:A:B:D", "R:A:B:E:F"]);
    }

    /// The Section 1 motivating inference: from the five Course NFDs,
    /// sid and time determine the set of books.
    #[test]
    fn intro_books_inference() {
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
        let engine = Engine::new(&schema, &sigma).unwrap();
        let goal = Nfd::parse(&schema, "Course:[time, students:sid -> books]").unwrap();
        assert!(engine.implies(&goal).unwrap());
        // But sid alone does not determine books.
        let weaker = Nfd::parse(&schema, "Course:[students:sid -> books]").unwrap();
        assert!(!engine.implies(&weaker).unwrap());
    }

    /// Singleton reasoning (Section 2.1): D → A:B and D → A:C make the
    /// whole set A determined by D.
    #[test]
    fn singleton_set_inference() {
        let schema = Schema::parse("R : { <A: {<B: int, C: int>}, D: int> };").unwrap();
        let sigma = parse_set(&schema, "R:[D -> A:B]; R:[D -> A:C];").unwrap();
        let engine = Engine::new(&schema, &sigma).unwrap();
        assert!(engine
            .implies(&Nfd::parse(&schema, "R:[D -> A]").unwrap())
            .unwrap());
        // With only one attribute determined, A is not.
        let sigma2 = parse_set(&schema, "R:[D -> A:B];").unwrap();
        let engine2 = Engine::new(&schema, &sigma2).unwrap();
        assert!(!engine2
            .implies(&Nfd::parse(&schema, "R:[D -> A]").unwrap())
            .unwrap());
    }

    /// Example 3.1: full-locality derives what locality cannot.
    #[test]
    fn example_3_1_full_locality() {
        let schema =
            Schema::parse("R : { <A: {<B: {<C: int, E: {<W: int>}>}, D: int>}> };").unwrap();
        let f1 = Nfd::parse(&schema, "R:[A:B:C, A:D -> A:B:E:W]").unwrap();
        let engine = Engine::new(&schema, &[f1]).unwrap();
        let strong = Nfd::parse(&schema, "R:[A:B, A:B:C -> A:B:E:W]").unwrap();
        assert!(engine.implies(&strong).unwrap());
    }

    /// Empty-set mode: Example 3.2's inference chain must be refused
    /// without an annotation and accepted with one.
    #[test]
    fn example_3_2_modified_transitivity() {
        let schema = Schema::parse("R : { <A: int, B: {<C: int>}, D: int, E: int> };").unwrap();
        let sigma = parse_set(&schema, "R:[A -> B:C]; R:[B:C -> D];").unwrap();
        let goal = Nfd::parse(&schema, "R:[A -> D]").unwrap();

        // Theorem 3.1 regime: derivable.
        let strict = Engine::new(&schema, &sigma).unwrap();
        assert!(strict.implies(&goal).unwrap());

        // Pessimistic empty-set regime: refused.
        let pess = Engine::with_policy(&schema, &sigma, EmptySetPolicy::pessimistic()).unwrap();
        assert!(!pess.implies(&goal).unwrap());

        // Declaring B non-empty restores the inference.
        let ann = Engine::with_policy(
            &schema,
            &sigma,
            EmptySetPolicy::non_empty([RootedPath::parse("R:B").unwrap()]),
        )
        .unwrap();
        assert!(ann.implies(&goal).unwrap());
    }

    /// Empty-set mode: the modified prefix rule (Section 3.2).
    #[test]
    fn example_3_2_modified_prefix() {
        let schema = Schema::parse("R : { <A: int, B: {<C: int>}, D: int, E: int> };").unwrap();
        let sigma = parse_set(&schema, "R:[B:C -> E];").unwrap();
        let goal = Nfd::parse(&schema, "R:[B -> E]").unwrap();

        let strict = Engine::new(&schema, &sigma).unwrap();
        assert!(strict.implies(&goal).unwrap());

        let pess = Engine::with_policy(&schema, &sigma, EmptySetPolicy::pessimistic()).unwrap();
        assert!(!pess.implies(&goal).unwrap());

        let ann = Engine::with_policy(
            &schema,
            &sigma,
            EmptySetPolicy::non_empty([RootedPath::parse("R:B").unwrap()]),
        )
        .unwrap();
        assert!(ann.implies(&goal).unwrap());
    }

    #[test]
    fn multi_relation_engine() {
        let schema = Schema::parse("R : {<A: int, B: int>}; S : {<X: int, Y: int>};").unwrap();
        let sigma = parse_set(&schema, "R:[A -> B]; S:[X -> Y];").unwrap();
        let engine = Engine::new(&schema, &sigma).unwrap();
        assert!(engine
            .implies(&Nfd::parse(&schema, "R:[A -> B]").unwrap())
            .unwrap());
        assert!(engine
            .implies(&Nfd::parse(&schema, "S:[X -> Y]").unwrap())
            .unwrap());
        // Dependencies do not leak across relations.
        assert!(!engine
            .implies(&Nfd::parse(&schema, "S:[Y -> X]").unwrap())
            .unwrap());
    }

    #[test]
    fn budget_exceeded_reports_error() {
        let (schema, sigma) = worked_example();
        match Engine::with_budget(
            &schema,
            &sigma,
            EmptySetPolicy::Forbidden,
            Budget::limited(2),
        ) {
            Err(CoreError::Exhausted(r)) => {
                assert_eq!(r.kind, ResourceKind::PoolDeps);
                assert_eq!(r.limit, 2);
            }
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("expected the saturation budget to be exceeded"),
        }
    }

    #[test]
    fn cancelled_token_stops_construction() {
        let (schema, sigma) = worked_example();
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        match Engine::with_budget(&schema, &sigma, EmptySetPolicy::Forbidden, budget) {
            Err(CoreError::Exhausted(r)) => {
                assert_eq!(r.kind, nfd_govern::ResourceKind::Cancelled)
            }
            other => panic!("expected cancellation, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn flat_schema_behaves_like_armstrong() {
        let schema = Schema::parse("R : {<A: int, B: int, C: int, D: int>};").unwrap();
        let sigma = parse_set(&schema, "R:[A -> B]; R:[B -> C];").unwrap();
        let engine = Engine::new(&schema, &sigma).unwrap();
        assert!(engine
            .implies(&Nfd::parse(&schema, "R:[A -> C]").unwrap())
            .unwrap());
        assert!(engine
            .implies(&Nfd::parse(&schema, "R:[A, D -> C]").unwrap())
            .unwrap());
        assert!(!engine
            .implies(&Nfd::parse(&schema, "R:[B -> A]").unwrap())
            .unwrap());
        assert!(!engine
            .implies(&Nfd::parse(&schema, "R:[A -> D]").unwrap())
            .unwrap());
    }

    /// The live-bucket census catches an index that drifts from the
    /// pool's subsumption flags in either direction.
    #[test]
    fn check_invariants_catches_live_bucket_drift() {
        let (schema, sigma) = worked_example();
        let engine = Engine::new(&schema, &sigma).unwrap();
        engine.check_invariants().unwrap();
        let relation = Label::new("R");
        let j = engine.rels[&relation]
            .deps
            .iter()
            .position(|d| !d.subsumed)
            .unwrap();

        let mut flagged = engine.fork();
        let rel = Arc::make_mut(flagged.rels.get_mut(&relation).unwrap());
        rel.deps[j].subsumed = true;
        let err = flagged.check_invariants().unwrap_err();
        assert!(err.contains("live buckets"), "{err}");

        let mut evicted = engine.fork();
        let rel = Arc::make_mut(evicted.rels.get_mut(&relation).unwrap());
        let (lhs, rhs) = (rel.deps[j].lhs.clone(), rel.deps[j].rhs);
        rel.index.evict_live_supersets(rhs, &lhs, |_| {});
        let err = evicted.check_invariants().unwrap_err();
        assert!(err.contains("live buckets"), "{err}");
    }

    /// Engines built over shared pre-compiled tables answer exactly like
    /// freshly built ones.
    #[test]
    fn with_tables_matches_fresh_build() {
        let (schema, sigma) = worked_example();
        let tables = SchemaTables::new(&schema).unwrap();
        let fresh = Engine::new(&schema, &sigma).unwrap();
        let shared = Engine::with_tables(
            &schema,
            tables,
            &sigma,
            EmptySetPolicy::Forbidden,
            Budget::standard(),
        )
        .unwrap();
        for goal in ["R:A:[B -> E]", "R:[D -> A]", "R:A:[E -> E:G]"] {
            let nfd = Nfd::parse(&schema, goal).unwrap();
            assert_eq!(
                fresh.implies(&nfd).unwrap(),
                shared.implies(&nfd).unwrap(),
                "{goal}"
            );
        }
        assert_eq!(fresh.pool_size(), shared.pool_size());
    }

    /// The compiled `need_x` gate: under the pessimistic policy, chaining
    /// through an undefined intermediate is only allowed when the query's
    /// X contains it.
    #[test]
    fn need_x_gate_matches_policy() {
        let schema = Schema::parse("R : { <A: int, B: {<C: int>}, D: int> };").unwrap();
        let sigma = parse_set(&schema, "R:[A -> B:C]; R:[B:C -> D];").unwrap();
        let pess = Engine::with_policy(&schema, &sigma, EmptySetPolicy::pessimistic()).unwrap();
        // A → D blocked (intermediate B:C undefined)…
        assert!(!pess
            .implies(&Nfd::parse(&schema, "R:[A -> D]").unwrap())
            .unwrap());
        // …but B:C → D fine when B:C is in X itself.
        assert!(pess
            .implies(&Nfd::parse(&schema, "R:[B:C -> D]").unwrap())
            .unwrap());
        assert!(pess
            .implies(&Nfd::parse(&schema, "R:[A, B:C -> D]").unwrap())
            .unwrap());
    }
}
