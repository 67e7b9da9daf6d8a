//! Query sessions and the unified [`Decider`] interface.
//!
//! The repository grew three independent decision procedures for
//! `Σ ⊨ σ`:
//!
//! 1. **Saturation** — the eight-rule axiomatic engine of
//!    [`nfd_core::engine`] (sound and complete, Theorem 3.1);
//! 2. **Chase** — the nested tableau chase of [`nfd_chase`] (Section 4's
//!    future work, implemented for the no-empty-sets regime);
//! 3. **LogicEval** — the Appendix A counterexample construction combined
//!    with the Section 2.2 logic translation: build the universal witness
//!    instance for `x0:[X → ·]` and evaluate the translated goal on it.
//!
//! [`Decider`] puts the three behind one interface so differential tests
//! (and curious users) can run them against each other. A budgeted
//! session query ([`Session::implies_with`]) runs only the first: one
//! Definition 3.1 closure over the session's resident pools, which
//! Theorem 3.1 makes complete. Its budget is polled for liveness only, so
//! it stops only on a deadline, a cancellation or an injected fault, and
//! each of those would stop the other two deciders too.
//!
//! Every budgeted entry point runs once, under the budget its caller
//! gives. A budget is a cap, not a reservation: the pools are a
//! deterministic function of schema, Σ and policy, so a caller whose
//! call came back `Exhausted` asks for a larger budget
//! ([`Budget::limited`], [`Budget::with_timeout_ms`]), and one run under
//! it reaches the pools and verdict any sequence of smaller attempts
//! would.
//!
//! [`Session`] is the amortizing front end: it compiles `(Schema, Σ)`
//! once — path tables, normalized dependency pool, full saturation — and
//! then serves unlimited [`implies`](Session::implies) /
//! [`closure`](Session::closure) / [`check`](Session::check) /
//! [`prove`](Session::prove) queries against the cached state. Building a
//! fresh [`Engine`] per query repeats that compilation every time; a
//! session pays it once (see `crates/bench/benches/session_amortized.rs`
//! for measurements).

use nfd_core::engine::Engine;
use nfd_core::proof::{self, Proof};
use nfd_core::{
    analysis, construct, satisfy, CacheStats, ClosureCache, CoreError, DeltaReport, EmptySetPolicy,
    Nfd, QueryTrace, SatisfyReport, SchemaRef, Tier, TierPreference,
    DEFAULT_CLOSURE_CACHE_CAPACITY,
};
use nfd_faults::fail_point;
use nfd_govern::{Budget, Verdict};
use nfd_logic::{eval_budgeted, translate_nfd, EvalError};
use nfd_model::{Instance, Label, Schema};
use nfd_path::table::SchemaTables;
use nfd_path::{Path, RootedPath};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An error from a [`Decider`] — a human-readable description carrying
/// the name of the procedure that failed.
#[derive(Debug)]
pub struct DeciderError {
    /// Which procedure failed.
    pub decider: &'static str,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for DeciderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.decider, self.message)
    }
}

impl std::error::Error for DeciderError {}

/// A decision procedure for NFD implication: does `Σ ⊨ goal` hold over
/// `schema` (in the no-empty-sets regime)?
///
/// All implementations are sound and complete on their supported inputs,
/// so any two must agree wherever both apply — a fact the differential
/// test suite exercises.
pub trait Decider {
    /// A short stable name for reports and error messages.
    fn name(&self) -> &'static str;

    /// Decides `Σ ⊨ goal` under a resource [`Budget`]. Running out of
    /// budget is reported as [`Verdict::Exhausted`] — an honest "don't
    /// know yet", never a wrong answer.
    fn decide(
        &self,
        schema: &Schema,
        sigma: &[Nfd],
        goal: &Nfd,
        budget: &Budget,
    ) -> Result<Verdict, DeciderError>;

    /// Decides `Σ ⊨ goal` under the standard budget, turning exhaustion
    /// (which the standard budget only reaches on pathological inputs)
    /// into a [`DeciderError`].
    fn implies(&self, schema: &Schema, sigma: &[Nfd], goal: &Nfd) -> Result<bool, DeciderError> {
        match self.decide(schema, sigma, goal, &Budget::standard())? {
            Verdict::Implied => Ok(true),
            Verdict::NotImplied => Ok(false),
            Verdict::Exhausted(r) => Err(DeciderError {
                decider: self.name(),
                message: format!("resources exhausted: {r}"),
            }),
        }
    }
}

/// The axiomatic saturation engine (Theorem 3.1).
#[derive(Clone, Copy, Debug, Default)]
pub struct Saturation;

impl Decider for Saturation {
    fn name(&self) -> &'static str {
        "saturation"
    }

    fn decide(
        &self,
        schema: &Schema,
        sigma: &[Nfd],
        goal: &Nfd,
        budget: &Budget,
    ) -> Result<Verdict, DeciderError> {
        let err = |e: CoreError| DeciderError {
            decider: "saturation",
            message: e.to_string(),
        };
        let engine =
            match Engine::with_budget(schema, sigma, EmptySetPolicy::Forbidden, budget.clone()) {
                Ok(e) => e,
                Err(CoreError::Exhausted(r)) => return Ok(Verdict::Exhausted(r)),
                Err(e) => return Err(err(e)),
            };
        match engine.implies(goal) {
            Ok(b) => Ok(Verdict::from_bool(b)),
            Err(CoreError::Exhausted(r)) => Ok(Verdict::Exhausted(r)),
            Err(e) => Err(err(e)),
        }
    }
}

/// The nested tableau chase of [`nfd_chase`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Chase;

impl Decider for Chase {
    fn name(&self) -> &'static str {
        "chase"
    }

    fn decide(
        &self,
        schema: &Schema,
        sigma: &[Nfd],
        goal: &Nfd,
        budget: &Budget,
    ) -> Result<Verdict, DeciderError> {
        match nfd_chase::chase_with(schema, sigma, goal, budget) {
            Ok(run) => Ok(Verdict::from_bool(run.implied)),
            Err(nfd_chase::ChaseError::Exhausted(r))
            | Err(nfd_chase::ChaseError::Core(CoreError::Exhausted(r))) => {
                Ok(Verdict::Exhausted(r))
            }
            Err(e) => Err(DeciderError {
                decider: "chase",
                message: e.to_string(),
            }),
        }
    }
}

/// The model-theoretic route: build the Appendix A universal witness for
/// `goal.base:[goal.lhs → ·]` and evaluate the Section 2.2 logic
/// translation of the goal on it. By Lemma A.1 the witness satisfies Σ
/// and violates exactly the non-implied goals, so evaluation *is*
/// decision. Requires infinite base domains (schemas using `bool` are
/// rejected, as in the construction itself).
#[derive(Clone, Copy, Debug, Default)]
pub struct LogicEval;

impl Decider for LogicEval {
    fn name(&self) -> &'static str {
        "logic-eval"
    }

    fn decide(
        &self,
        schema: &Schema,
        sigma: &[Nfd],
        goal: &Nfd,
        budget: &Budget,
    ) -> Result<Verdict, DeciderError> {
        let err = |m: String| DeciderError {
            decider: "logic-eval",
            message: m,
        };
        let engine =
            match Engine::with_budget(schema, sigma, EmptySetPolicy::Forbidden, budget.clone()) {
                Ok(e) => e,
                Err(CoreError::Exhausted(r)) => return Ok(Verdict::Exhausted(r)),
                Err(e) => return Err(err(e.to_string())),
            };
        let built = match construct::counterexample(&engine, &goal.base, goal.lhs()) {
            Ok(b) => b,
            Err(CoreError::Exhausted(r)) => return Ok(Verdict::Exhausted(r)),
            Err(e) => return Err(err(e.to_string())),
        };
        let formula = translate_nfd(schema, &goal.base, goal.lhs(), &goal.rhs)
            .map_err(|e| err(e.to_string()))?;
        match eval_budgeted(&built.instance, &formula, budget) {
            Ok(b) => Ok(Verdict::from_bool(b)),
            Err(EvalError::Exhausted(r)) => Ok(Verdict::Exhausted(r)),
            Err(e) => Err(err(e.to_string())),
        }
    }
}

/// Every built-in decision procedure, for differential testing.
pub fn all_deciders() -> Vec<Box<dyn Decider>> {
    vec![Box::new(Saturation), Box::new(Chase), Box::new(LogicEval)]
}

/// The one entry of a [`Decision`]'s attempt log. Every read is one
/// saturation closure, so `decider` is always `"saturation"`; the log
/// stays only for the benchmark, which reads it.
#[derive(Clone, Debug, PartialEq)]
pub struct Attempt {
    /// The decider's stable name.
    pub decider: &'static str,
}

/// The result of a budgeted implication query: the verdict of its one
/// saturation read.
#[derive(Clone, Debug)]
pub struct Decision {
    /// The verdict: saturation's answer, or the report of what stopped
    /// the read (a deadline, a cancellation or an injected fault).
    pub verdict: Verdict,
    /// The attempt log: always one `saturation` entry.
    pub attempts: Vec<Attempt>,
    /// How many closure-cache hits the session's shared [`ClosureCache`]
    /// served while producing this decision.
    /// Cost metadata only: hits depend on what ran before — including
    /// sibling goals racing in a batch — so equality ignores this field,
    /// keeping batch results bit-identical at every thread count.
    pub cache_hits: u64,
    /// `Some(Tier::Indexed)` when the saturation attempt looked a closure
    /// up, `None` when it never did (reflexivity answered, or the budget
    /// stopped the attempt first). Every lookup takes the one closure
    /// path, so the field
    /// stays only for the benchmark, which counts decisions per
    /// [`Tier`]; like `cache_hits`, equality ignores it.
    pub tier: Option<Tier>,
}

impl PartialEq for Decision {
    fn eq(&self, other: &Decision) -> bool {
        // `cache_hits` and `tier` are deliberately excluded: they are
        // timing/ordering metadata, not part of the decision's semantic
        // content.
        self.verdict == other.verdict && self.attempts == other.attempts
    }
}

impl Decision {
    /// The name of the decider that produced the verdict, if any did.
    pub fn answered_by(&self) -> Option<&'static str> {
        match self.verdict {
            Verdict::Exhausted(_) => None,
            _ => self.attempts.first().map(|a| a.decider),
        }
    }
}

/// The result of [`Session::implies_batch`]: one result per goal, in
/// input order, plus the first goal a deadline, a cancellation or a
/// fault stopped.
///
/// Each slot is that goal's own read, what [`Session::implies_with`]
/// returns for it: `Ok(Decision)` normally, `Err` for a goal-local
/// failure — in practice always [`CoreError::Internal`], the containment
/// of a panic inside that goal's read. A goal-local failure does **not**
/// abort the batch or disturb its siblings; the remaining goals are
/// still decided and the session stays usable. A batch that nothing
/// stops is therefore identical at every thread count.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchDecision {
    /// One result per input goal, in input order.
    pub decisions: Vec<Result<Decision, CoreError>>,
    /// The index of the first goal whose verdict is `Exhausted`, or
    /// `None` if every goal was decided.
    pub first_exhausted: Option<usize>,
}

impl BatchDecision {
    /// How many goals were decided `Implied`.
    pub fn implied_count(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| matches!(d, Ok(d) if d.verdict == Verdict::Implied))
            .count()
    }

    /// How many goals ended `Exhausted`.
    pub fn exhausted_count(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| matches!(d, Ok(d) if d.verdict.is_exhausted()))
            .count()
    }

    /// How many goals failed internally (a contained panic inside that
    /// goal's query).
    pub fn failed_count(&self) -> usize {
        self.decisions.iter().filter(|d| d.is_err()).count()
    }

    /// Did every goal come back `Implied`?
    pub fn all_implied(&self) -> bool {
        self.decisions
            .iter()
            .all(|d| matches!(d, Ok(d) if d.verdict == Verdict::Implied))
    }
}

/// Runs `f`, containing any panic as [`CoreError::Internal`] — the
/// session-boundary guarantee that no query can unwind into the caller.
fn contained<T>(what: &str, f: impl FnOnce() -> Result<T, CoreError>) -> Result<T, CoreError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        Err(CoreError::Internal(format!(
            "{what} panicked: {}",
            panic_message(p)
        )))
    })
}

/// Renders a contained panic payload for error reporting.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A compiled `(Schema, Σ)` serving unlimited queries.
///
/// Construction interns every path of every relation into dense
/// [`SchemaTables`], normalizes Σ to simple form and saturates the
/// per-relation dependency pools — once. Each query afterwards is a
/// bitset fixed point over the cached state.
///
/// ```
/// use nfd::session::Session;
/// use nfd_core::Nfd;
/// use nfd_model::Schema;
///
/// let schema = Schema::parse("R : {<A: int, B: int, C: int>};").unwrap();
/// let sigma = nfd::core::nfd::parse_set(&schema, "R:[A -> B]; R:[B -> C];").unwrap();
/// let session = Session::new(&schema, &sigma).unwrap();
/// assert!(session.implies_text("R:[A -> C]").unwrap());
/// assert!(!session.implies_text("R:[C -> A]").unwrap());
/// ```
pub struct Session<'s> {
    /// The resident engine, which also holds the schema (borrowed for
    /// `'s`, or shared-owned by a [`Session::owned`] session).
    engine: Engine<'s>,
    /// Shared closure cache, consulted by the session engine. Scoped to
    /// one `(Σ, policy)` compilation — [`Session::reconfigure`] makes a
    /// fresh one — which is what makes the `(relation, LHS set, policy)`
    /// key of the cache sound without storing the policy per entry.
    cache: Arc<ClosureCache>,
    /// Memo of completed candidate-key sweeps, keyed by
    /// `(relation, max_size)`; thread count is deliberately not part of
    /// the key because results are bit-identical at every thread count.
    /// Only successful sweeps are memoized: exhaustion must re-run.
    keys_memo: Mutex<Vec<KeysMemoEntry>>,
    keys_memo_hits: AtomicU64,
}

/// One memoized candidate-key sweep: `(relation, max_size)` → keys.
type KeysMemoEntry = ((Label, usize), Vec<Vec<Path>>);

/// Bound on the candidate-keys memo (entries; each holds one relation's
/// full key list for one size cap, so a handful suffices).
const KEYS_MEMO_CAPACITY: usize = 16;

impl Session<'static> {
    /// A session that owns its schema through an `Arc`, so it is
    /// `'static` and can be kept behind an `Arc` and read from any
    /// thread — the form `nfdtool serve` keeps resident — with no leaked
    /// schema and no self-reference.
    ///
    /// With `snapshot` it thaws under exactly the validation of
    /// [`Session::thaw`], compiling `sigma` fresh if the thaw is
    /// rejected; without one it compiles as [`Session::with_budget`]
    /// does. The flag is true when the session came from the snapshot.
    ///
    /// `cache` may be shared with other sessions compiled from the same
    /// `(schema, Σ, policy)` under the same build budget: engine builds
    /// are deterministic, so every such session saturates the identical
    /// pool and computes the identical closures, and a hit only skips
    /// work another session already did bit for bit (see the soundness
    /// note on [`nfd_core::ClosureCache`]). A thaw imports the snapshot's
    /// validated cache entries into it, which is sound because they were
    /// computed over the same `(schema, Σ, policy)` the thaw verifies
    /// against. A session whose Σ is mutated afterwards must not share
    /// its cache.
    pub fn owned(
        schema: Arc<Schema>,
        sigma: &[Nfd],
        policy: EmptySetPolicy,
        budget: Budget,
        cache: Arc<ClosureCache>,
        snapshot: Option<&nfd_snap::Snapshot>,
    ) -> Result<(Session<'static>, bool), CoreError> {
        if let Some(image) = snapshot {
            let thawed = Session::thawed(
                SchemaRef::Shared(Arc::clone(&schema)),
                sigma,
                policy.clone(),
                budget.clone(),
                image,
                Arc::clone(&cache),
            );
            if let Ok(session) = thawed {
                return Ok((session, true));
            }
        }
        let session = Session::compiled(SchemaRef::Shared(schema), sigma, policy, budget, cache)?;
        Ok((session, false))
    }
}

impl<'s> Session<'s> {
    /// Compiles a session under [`EmptySetPolicy::Forbidden`] (the
    /// paper's Theorem 3.1 regime).
    pub fn new(schema: &'s Schema, sigma: &[Nfd]) -> Result<Session<'s>, CoreError> {
        Session::with_policy(schema, sigma, EmptySetPolicy::Forbidden)
    }

    /// Compiles a session under the given empty-set policy
    /// (Section 3.2).
    pub fn with_policy(
        schema: &'s Schema,
        sigma: &[Nfd],
        policy: EmptySetPolicy,
    ) -> Result<Session<'s>, CoreError> {
        Session::with_budget(schema, sigma, policy, Budget::standard())
    }

    /// Compiles a session under an explicit resource [`Budget`]. This
    /// build budget's counters govern compilation and every later Σ
    /// delta, the builds that derive pool entries. The reads that take
    /// no budget of their own ([`Session::implies`],
    /// [`Session::closure`], [`Session::candidate_keys`]) poll it for
    /// liveness, and the candidate-key sweep counts its candidates
    /// against it; [`Session::implies_with`] and its batch form poll the
    /// budget they are given for liveness only. Running out surfaces as
    /// [`CoreError::Exhausted`], never a wrong answer, and nothing here
    /// retries: a build is a deterministic function of schema, Σ and
    /// policy, so a caller who wants it to fit asks for a larger budget.
    pub fn with_budget(
        schema: &'s Schema,
        sigma: &[Nfd],
        policy: EmptySetPolicy,
        budget: Budget,
    ) -> Result<Session<'s>, CoreError> {
        let cache = Arc::new(ClosureCache::with_capacity(DEFAULT_CLOSURE_CACHE_CAPACITY));
        Session::compiled(SchemaRef::Borrowed(schema), sigma, policy, budget, cache)
    }

    /// [`Session::with_budget`]. The ignored [`TierPreference`] stays
    /// only for the benchmark, which still calls this form.
    pub fn with_tiers(
        schema: &'s Schema,
        sigma: &[Nfd],
        policy: EmptySetPolicy,
        budget: Budget,
        _preference: TierPreference,
    ) -> Result<Session<'s>, CoreError> {
        Session::with_budget(schema, sigma, policy, budget)
    }

    fn compiled(
        schema: SchemaRef<'s>,
        sigma: &[Nfd],
        policy: EmptySetPolicy,
        budget: Budget,
        cache: Arc<ClosureCache>,
    ) -> Result<Session<'s>, CoreError> {
        let engine = catch_unwind(AssertUnwindSafe(|| {
            let tables = SchemaTables::new(&schema).map_err(|e| CoreError::Nav(e.to_string()))?;
            Engine::compile(schema, tables, sigma, policy, budget)
        }))
        .map_err(|p| {
            CoreError::Internal(format!("engine build panicked: {}", panic_message(p)))
        })??;
        Ok(Session::around(engine, cache))
    }

    /// Wraps a freshly built engine: attaches `cache`, with an empty
    /// candidate-keys memo.
    fn around(engine: Engine<'s>, cache: Arc<ClosureCache>) -> Self {
        Session {
            engine: engine.with_closure_cache(Arc::clone(&cache)),
            cache,
            keys_memo: Mutex::new(Vec::new()),
            keys_memo_hits: AtomicU64::new(0),
        }
    }

    /// A copy of this session for a writer to mutate while readers keep
    /// using this one — what a [`Session::freeze`] / [`Session::thaw`]
    /// round trip returns, without replaying anything: the same Σ and
    /// policy, the very same saturated pools (shared, see
    /// [`Engine::fork`]), a private closure cache seeded with this one's
    /// entries and an empty keys memo.
    ///
    /// `add_deps`/`remove_deps` on the fork rebuild the touched relation
    /// into a new pool and invalidate only the fork's own caches, so
    /// this session keeps answering from its own Σ, bit for bit.
    pub fn fork(&self) -> Session<'s> {
        let cache = Arc::new(ClosureCache::with_capacity(DEFAULT_CLOSURE_CACHE_CAPACITY));
        cache.import(self.cache.export());
        Session::around(self.engine.fork(), cache)
    }

    /// Freezes this session's compiled state into a portable
    /// [`nfd_snap::Snapshot`]: schema and Σ source texts, the empty-set
    /// policy, the interned path-table matrices, the saturated pools
    /// with provenance, and the current contents of the warm closure
    /// cache. Pure export — the session is untouched, and the snapshot
    /// is deterministic for a given compiled state (cache contents
    /// excepted, which depend on query history). Encode with
    /// [`nfd_snap::encode`] and persist with [`nfd_snap::write_atomic`].
    pub fn freeze(&self) -> nfd_snap::Snapshot {
        crate::snapshot::freeze_parts(self.schema(), &self.engine, &self.cache)
    }

    /// Rebuilds a session from a [`Session::freeze`] snapshot, skipping
    /// the saturation fixpoint — the warm-start path.
    ///
    /// The caller supplies the live `(schema, sigma, policy, budget)`
    /// exactly as for [`Session::with_budget`]; the snapshot must match
    /// them or thawing fails with a typed
    /// [`nfd_snap::SnapError::Mismatch`] — the schema/Σ/policy texts are compared
    /// against the embedded ones, the path tables are recompiled and
    /// required to be bit-identical to the embedded matrices, the pools
    /// replay through the engine's own validated `add` path, and cache
    /// entries are range-checked before import. A rejected thaw leaves
    /// nothing behind: callers fall back to a fresh compile
    /// ([`Session::with_budget`]) and the degradation is an event to
    /// report, not a failure. Thawed sessions are bit-identical to
    /// freshly compiled ones (proved by `tests/snapshot_differential.rs`).
    ///
    /// The [`TierPreference`] is ignored; the parameter stays only for the
    /// benchmark, which still passes it.
    pub fn thaw(
        schema: &'s Schema,
        sigma: &[Nfd],
        policy: EmptySetPolicy,
        budget: Budget,
        _preference: TierPreference,
        snapshot: &nfd_snap::Snapshot,
    ) -> Result<Session<'s>, nfd_snap::SnapError> {
        let cache = Arc::new(ClosureCache::with_capacity(DEFAULT_CLOSURE_CACHE_CAPACITY));
        Session::thawed(
            SchemaRef::Borrowed(schema),
            sigma,
            policy,
            budget,
            snapshot,
            cache,
        )
    }

    fn thawed(
        schema: SchemaRef<'s>,
        sigma: &[Nfd],
        policy: EmptySetPolicy,
        budget: Budget,
        snapshot: &nfd_snap::Snapshot,
        cache: Arc<ClosureCache>,
    ) -> Result<Session<'s>, nfd_snap::SnapError> {
        use nfd_snap::SnapError;
        let schema_text = schema.to_string();
        if snapshot.schema_text != schema_text {
            return Err(SnapError::Mismatch(
                "schema text differs from the snapshot's".to_string(),
            ));
        }
        if snapshot.sigma_text != crate::snapshot::render_sigma(sigma) {
            return Err(SnapError::Mismatch(
                "dependency set differs from the snapshot's".to_string(),
            ));
        }
        if snapshot.policy != crate::snapshot::policy_snap(&policy) {
            return Err(SnapError::Mismatch(
                "empty-set policy differs from the snapshot's".to_string(),
            ));
        }
        let tables = SchemaTables::new(&schema)
            .map_err(|e| SnapError::Mismatch(format!("schema does not compile: {e}")))?;
        crate::snapshot::verify_tables(&tables, &snapshot.tables)?;
        let pools = crate::snapshot::frozen_pools(snapshot, &schema)?;
        let imports = crate::snapshot::cache_entries(snapshot, &schema, &tables)?;
        let engine = catch_unwind(AssertUnwindSafe(|| {
            Engine::replay(schema, tables, sigma, policy, budget, pools)
        }))
        .map_err(|p| {
            SnapError::Mismatch(format!("snapshot replay panicked: {}", panic_message(p)))
        })?
        .map_err(|e| SnapError::Mismatch(format!("snapshot replay rejected: {e}")))?;
        cache.import(imports);
        Ok(Session::around(engine, cache))
    }

    /// Re-compiles this session's Σ under a different empty-set policy,
    /// reusing the already-compiled path tables (schema interning is not
    /// repeated; only saturation runs again).
    pub fn reconfigure(&self, policy: EmptySetPolicy) -> Result<Session<'s>, CoreError> {
        // A fresh cache and memo: closures are policy-dependent, and the
        // cache key deliberately leaves the policy implicit in the cache's
        // scope (see the `cache` field docs). Every relation starts cold.
        let cache = Arc::new(ClosureCache::with_capacity(DEFAULT_CLOSURE_CACHE_CAPACITY));
        let engine = Engine::compile(
            self.engine.schema_ref().clone(),
            self.engine.tables().clone(),
            &self.engine.sigma,
            policy,
            self.engine.budget().clone(),
        )?;
        Ok(Session::around(engine, cache))
    }

    /// Adds `deps` to the session's Σ in order, maintaining the resident
    /// engine incrementally ([`nfd_core::delta`]): only the relations the
    /// deps name are re-saturated (bit-identical to a from-scratch
    /// compile over the extended Σ), and invalidation is scoped — the
    /// closure cache and candidate-key memo drop their entries for the
    /// touched relations only, while
    /// every other relation's stay warm.
    ///
    /// Deps apply one at a time; on the first failure (validation, budget
    /// exhaustion, injected fault) the already-applied prefix remains in
    /// force and the session stays fully consistent — each engine
    /// mutation is atomic, so there is never a stale hybrid.
    pub fn add_deps(&mut self, deps: &[Nfd]) -> Result<Vec<DeltaReport>, CoreError> {
        self.mutate_deps(deps, Engine::add_dep)
    }

    /// Removes `deps` from the session's Σ (first content match each),
    /// maintaining the resident engine incrementally via counting
    /// retraction — see [`Session::add_deps`] for the scoped-invalidation
    /// and prefix-on-failure contracts, which are identical.
    pub fn remove_deps(&mut self, deps: &[Nfd]) -> Result<Vec<DeltaReport>, CoreError> {
        self.mutate_deps(deps, Engine::remove_dep)
    }

    fn mutate_deps(
        &mut self,
        deps: &[Nfd],
        op: fn(&mut Engine<'s>, &Nfd) -> Result<DeltaReport, CoreError>,
    ) -> Result<Vec<DeltaReport>, CoreError> {
        let mut reports = Vec::with_capacity(deps.len());
        for dep in deps {
            // Panic containment mirrors the query entry points; the
            // engine rolls Σ back before a panic unwinds through here, so
            // converting it to an error cannot strand a half-mutation.
            let report = contained("mutate", || op(&mut self.engine, dep))?;
            let mut memo = match self.keys_memo.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            memo.retain(|((rel, _), _)| *rel != report.relation);
            drop(memo);
            reports.push(report);
        }
        Ok(reports)
    }

    /// Hit/miss counters of the session's shared closure cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The session's closure cache handle — lets an embedder observe the
    /// cache a [`Session::owned`] pool shares, or hand it to the next
    /// compatible session.
    pub fn closure_cache(&self) -> &Arc<ClosureCache> {
        &self.cache
    }

    /// How many candidate-key sweeps were answered from the session memo.
    pub fn keys_memo_hits(&self) -> u64 {
        self.keys_memo_hits.load(Ordering::Relaxed)
    }

    /// The schema this session reasons over.
    pub fn schema(&self) -> &Schema {
        self.engine.schema()
    }

    /// The dependency set Σ the session was compiled from.
    pub fn sigma(&self) -> &[Nfd] {
        &self.engine.sigma
    }

    /// The compiled path tables (shared, cheap to clone).
    pub fn tables(&self) -> &SchemaTables {
        self.engine.tables()
    }

    /// The underlying saturated engine, for APIs that take one directly
    /// (proof replay, counterexample construction, analyses).
    pub fn engine(&self) -> &Engine<'s> {
        &self.engine
    }

    /// Does Σ imply `goal`? One chained bitset fixed point over the
    /// cached saturation. Panic-contained like every session entry point
    /// (`catch_unwind` is free until a panic actually unwinds, so the hot
    /// path does not pay for the guarantee).
    pub fn implies(&self, goal: &Nfd) -> Result<bool, CoreError> {
        contained("implies", || self.engine.implies(goal))
    }

    /// Parses `text` as an NFD over the session schema and decides it.
    pub fn implies_text(&self, text: &str) -> Result<bool, CoreError> {
        let goal = Nfd::parse(self.schema(), text)?;
        self.implies(&goal)
    }

    /// Decides `Σ ⊨ goal` under an explicit [`Budget`] by **saturation**
    /// over the session's resident pools: one Definition 3.1 closure,
    /// which Theorem 3.1 makes complete. The pools are never derived
    /// again, so the budget is polled for liveness only: a deadline, a
    /// cancellation or an injected fault makes the verdict `Exhausted`,
    /// and no counter is charged, because the build budget already paid
    /// for the pools ([`Session::with_budget`]).
    ///
    /// Returns the [`Verdict`] plus a log of one `saturation` attempt.
    /// `Err` is reserved for invalid input (a goal that does not
    /// validate against the schema) and a panic inside the query, which
    /// is contained here as [`CoreError::Internal`]: the session boundary
    /// is panic-free.
    pub fn implies_with(&self, goal: &Nfd, budget: &Budget) -> Result<Decision, CoreError> {
        goal.validate(self.schema())?;
        self.decide(goal, budget)
    }

    /// [`Session::implies_with`]. Stays only because nfdbench still calls
    /// this form.
    pub fn implies_with_resident(
        &self,
        goal: &Nfd,
        budget: &Budget,
    ) -> Result<Decision, CoreError> {
        self.implies_with(goal, budget)
    }

    /// [`Session::implies_with`] for one already validated goal.
    fn decide(&self, goal: &Nfd, budget: &Budget) -> Result<Decision, CoreError> {
        let (verdict, trace) = contained("saturation", || {
            fail_point!(
                "session::cascade_saturation",
                Ok((
                    Verdict::Exhausted(nfd_govern::ResourceReport::injected()),
                    None
                )),
                budget.cancel_token()
            );
            match self.engine.implies_queried(goal, budget) {
                Ok((b, trace)) => Ok((Verdict::from_bool(b), Some(trace))),
                Err(CoreError::Exhausted(r)) => Ok((Verdict::Exhausted(r), None)),
                Err(e) => Err(e),
            }
        })?;
        Ok(Decision {
            verdict,
            attempts: vec![Attempt {
                decider: "saturation",
            }],
            cache_hits: u64::from(trace.is_some_and(|t| t.cache_hit)),
            tier: trace.and_then(|t| t.chained.then_some(Tier::Indexed)),
        })
    }

    /// Decides a whole batch of goals under one shared [`Budget`],
    /// sharded across `threads` workers (`0` = all available
    /// parallelism).
    ///
    /// Every goal is answered exactly as [`Session::implies_with`]
    /// answers it, from the session's resident engine, so the batch is
    /// its goals' reads: identical at every thread count and to a
    /// sequential `implies_with` loop. The caller's budget is the one
    /// stop signal. No counter is charged, so a counter cap never stops
    /// a batch; an expired deadline or a cancelled token reaches every
    /// goal at its first liveness poll. A goal that a deadline, a
    /// cancellation or an injected fault stops reports `Exhausted` in
    /// its own slot, its siblings keep their own answers, and
    /// `first_exhausted` names the first such slot. Which goals a
    /// deadline or an external cancellation reaches is timing-dependent,
    /// exactly as it is for sequential queries.
    pub fn implies_batch(
        &self,
        goals: &[Nfd],
        budget: &Budget,
        threads: usize,
    ) -> Result<BatchDecision, CoreError> {
        // Validate everything up front so input errors are deterministic
        // (always the lowest offending index) regardless of scheduling.
        for goal in goals {
            goal.validate(self.schema())?;
        }
        // `decide` contains a panic inside one goal's read to that goal's
        // slot. This layer contains the pool machinery (spawn,
        // reassembly): a panic there aborts the whole batch as one
        // `Internal` error, after every worker has been joined.
        let decisions = catch_unwind(AssertUnwindSafe(|| {
            nfd_par::map_indexed(goals.len(), threads, |i| self.decide(&goals[i], budget))
        }))
        .map_err(|p| CoreError::Internal(format!("batch pool panicked: {}", panic_message(p))))?;
        let first_exhausted = decisions
            .iter()
            .position(|d| matches!(d, Ok(d) if d.verdict.is_exhausted()));
        Ok(BatchDecision {
            decisions,
            first_exhausted,
        })
    }

    /// [`Session::implies_batch`]. Stays only because nfdbench still calls
    /// this form.
    pub fn implies_batch_resident(
        &self,
        goals: &[Nfd],
        budget: &Budget,
        threads: usize,
    ) -> Result<BatchDecision, CoreError> {
        self.implies_batch(goals, budget, threads)
    }

    /// The dependency closure `(base, X, Σ)*` (Definition 3.1).
    pub fn closure(&self, base: &RootedPath, lhs: &[Path]) -> Result<Vec<RootedPath>, CoreError> {
        contained("closure", || self.engine.closure(base, lhs))
    }

    /// [`Session::closure`] plus the [`QueryTrace`] of the lookup —
    /// whether the closure came from the cache.
    pub fn closure_traced(
        &self,
        base: &RootedPath,
        lhs: &[Path],
    ) -> Result<(Vec<RootedPath>, QueryTrace), CoreError> {
        contained("closure", || self.engine.closure_traced(base, lhs))
    }

    /// Checks an instance against every NFD of Σ. The reports are in
    /// Σ order; `reports[i]` describes `self.sigma()[i]`.
    pub fn check(&self, instance: &Instance) -> Result<Vec<SatisfyReport>, CoreError> {
        contained("check", || {
            self.engine
                .sigma
                .iter()
                .map(|nfd| satisfy::check(self.schema(), instance, nfd))
                .collect()
        })
    }

    /// Produces a replayable derivation certificate for `goal`, or `None`
    /// when the goal is not implied.
    pub fn prove(&self, goal: &Nfd) -> Result<Option<Proof>, CoreError> {
        contained("prove", || proof::prove(&self.engine, goal))
    }

    /// Verifies a certificate against this session's Σ.
    pub fn verify(&self, pf: &Proof) -> Result<(), CoreError> {
        contained("verify", || proof::verify(&self.engine, pf))
    }

    /// Candidate keys of `relation` up to `max_size` paths, by closure
    /// search over the cached saturation. Completed sweeps are memoized
    /// per `(relation, max_size)`, so repeating a query is O(1).
    pub fn candidate_keys(
        &self,
        relation: Label,
        max_size: usize,
    ) -> Result<Vec<Vec<Path>>, CoreError> {
        self.candidate_keys_threaded(relation, max_size, 1)
    }

    /// [`Session::candidate_keys`] sharded across `threads` workers
    /// (`0` = all available parallelism); results and exhaustion reports
    /// are identical at every thread count — which is also why the memo
    /// key ignores the thread count.
    pub fn candidate_keys_threaded(
        &self,
        relation: Label,
        max_size: usize,
        threads: usize,
    ) -> Result<Vec<Vec<Path>>, CoreError> {
        if let Some(keys) = self.keys_memo_get(relation, max_size) {
            return Ok(keys);
        }
        let keys = contained("candidate_keys", || {
            analysis::candidate_keys_threaded(&self.engine, relation, max_size, threads)
        })?;
        self.keys_memo_put(relation, max_size, &keys);
        Ok(keys)
    }

    fn keys_memo_get(&self, relation: Label, max_size: usize) -> Option<Vec<Vec<Path>>> {
        let mut memo = match self.keys_memo.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let pos = memo.iter().position(|(k, _)| *k == (relation, max_size))?;
        // Move-to-front LRU: the memo is tiny, so a rotate is cheap.
        let entry = memo.remove(pos);
        let keys = entry.1.clone();
        memo.insert(0, entry);
        drop(memo);
        self.keys_memo_hits.fetch_add(1, Ordering::Relaxed);
        Some(keys)
    }

    fn keys_memo_put(&self, relation: Label, max_size: usize, keys: &[Vec<Path>]) {
        let mut memo = match self.keys_memo.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if memo.iter().all(|(k, _)| *k != (relation, max_size)) {
            memo.insert(0, ((relation, max_size), keys.to_vec()));
            memo.truncate(KEYS_MEMO_CAPACITY);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfd_core::nfd::parse_set;

    fn course() -> (Schema, &'static str) {
        let schema = Schema::parse(
            "Course : { <cnum: string, time: int,
                         students: {<sid: int, age: int, grade: string>},
                         books: {<isbn: string, title: string>}> };",
        )
        .unwrap();
        let sigma = "Course:[cnum -> time]; Course:[cnum -> students]; Course:[cnum -> books];
             Course:[books:isbn -> books:title];
             Course:students:[sid -> grade];
             Course:[students:sid -> students:age];
             Course:[time, students:sid -> cnum];";
        (schema, sigma)
    }

    #[test]
    fn session_serves_all_query_kinds() {
        let (schema, sigma_text) = course();
        let sigma = parse_set(&schema, sigma_text).unwrap();
        let s = Session::new(&schema, &sigma).unwrap();

        // implies — the paper's motivating question.
        assert!(s
            .implies_text("Course:[time, students:sid -> books]")
            .unwrap());
        assert!(!s.implies_text("Course:[time -> cnum]").unwrap());

        // closure.
        let cl = s
            .closure(
                &RootedPath::parse("Course").unwrap(),
                &[Path::parse("cnum").unwrap()],
            )
            .unwrap();
        assert!(cl.iter().any(|p| p.to_string() == "Course:time"));

        // prove + verify round-trip.
        let goal = Nfd::parse(&schema, "Course:[time, students:sid -> books]").unwrap();
        let pf = s.prove(&goal).unwrap().expect("implied goals have proofs");
        s.verify(&pf).unwrap();
        assert!(s
            .prove(&Nfd::parse(&schema, "Course:[time -> cnum]").unwrap())
            .unwrap()
            .is_none());

        // check.
        let inst = Instance::parse(&schema, "Course = {};").unwrap();
        let reports = s.check(&inst).unwrap();
        assert_eq!(reports.len(), s.sigma().len());
        assert!(reports.iter().all(|r| r.holds));

        // keys.
        let keys = s.candidate_keys(Label::new("Course"), 2).unwrap();
        assert!(keys
            .iter()
            .any(|k| k.len() == 1 && k[0].to_string() == "cnum"));
    }

    #[test]
    fn reconfigure_reuses_tables() {
        let schema = Schema::parse("R : {<A: int, B: {<C: int>}>};").unwrap();
        let sigma = parse_set(&schema, "R:[A -> B:C];").unwrap();
        let strict = Session::new(&schema, &sigma).unwrap();
        assert!(strict.implies_text("R:[A -> B:C]").unwrap());
        let pessimistic = strict.reconfigure(EmptySetPolicy::pessimistic()).unwrap();
        // Under empty-set pessimism the prefix rule loses its footing for
        // B, but the given dependency itself still holds.
        assert!(pessimistic.implies_text("R:[A -> B:C]").unwrap());
    }

    #[test]
    fn session_and_decisions_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session<'static>>();
        assert_send_sync::<Decision>();
        assert_send_sync::<BatchDecision>();
    }

    #[test]
    fn batch_matches_a_sequential_loop_at_every_thread_count() {
        let (schema, sigma_text) = course();
        let sigma = parse_set(&schema, sigma_text).unwrap();
        let s = Session::new(&schema, &sigma).unwrap();
        let goals: Vec<Nfd> = [
            "Course:[time, students:sid -> books]",
            "Course:[cnum -> students:age]",
            "Course:[time -> cnum]",
            "Course:[books:title -> books:isbn]",
            "Course:[cnum -> books:title]",
        ]
        .iter()
        .map(|t| Nfd::parse(&schema, t).unwrap())
        .collect();
        let budget = Budget::standard();
        let sequential: Vec<Result<Decision, CoreError>> = goals
            .iter()
            .map(|g| Ok(s.implies_with(g, &budget).unwrap()))
            .collect();
        for threads in [1, 2, 8] {
            let batch = s.implies_batch(&goals, &budget, threads).unwrap();
            assert_eq!(batch.decisions, sequential, "threads = {threads}");
            assert_eq!(batch.first_exhausted, None);
            let implied = sequential
                .iter()
                .filter(|d| matches!(d, Ok(d) if d.verdict == Verdict::Implied))
                .count();
            assert_eq!(batch.implied_count(), implied);
            assert_eq!(batch.failed_count(), 0);
            assert_eq!(
                batch.decisions[0].as_ref().unwrap().verdict,
                Verdict::Implied
            );
            assert!(!batch.all_implied());
        }
    }

    #[test]
    fn counter_caps_never_starve_a_batch() {
        let (schema, sigma_text) = course();
        let sigma = parse_set(&schema, sigma_text).unwrap();
        let s = Session::new(&schema, &sigma).unwrap();
        let goals: Vec<Nfd> = [
            "Course:[time, students:sid -> books]",
            "Course:[time -> cnum]",
            "Course:[cnum -> students:age]",
        ]
        .iter()
        .map(|t| Nfd::parse(&schema, t).unwrap())
        .collect();
        // A read charges no counter, so a cap of 1 — far below the
        // Course pool — still answers every goal from the resident pools.
        let budget = Budget::limited(1);
        let reference = s.implies_batch(&goals, &budget, 1).unwrap();
        assert_eq!(reference.first_exhausted, None);
        for (goal, d) in goals.iter().zip(&reference.decisions) {
            let truth = s.implies(goal).unwrap();
            assert_eq!(d.as_ref().unwrap().verdict.as_bool(), Some(truth), "{goal}");
        }
        for threads in [2, 8] {
            let batch = s.implies_batch(&goals, &budget, threads).unwrap();
            assert_eq!(batch, reference, "threads = {threads}");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (schema, sigma_text) = course();
        let sigma = parse_set(&schema, sigma_text).unwrap();
        let s = Session::new(&schema, &sigma).unwrap();
        let batch = s.implies_batch(&[], &Budget::standard(), 8).unwrap();
        assert!(batch.decisions.is_empty());
        assert_eq!(batch.first_exhausted, None);
        assert!(batch.all_implied());
    }

    #[test]
    fn deciders_agree_on_the_worked_example() {
        let (schema, sigma_text) = course();
        let sigma = parse_set(&schema, sigma_text).unwrap();
        for goal_text in [
            "Course:[time, students:sid -> books]",
            "Course:[cnum -> students:age]",
            "Course:[time -> cnum]",
            "Course:[books:title -> books:isbn]",
        ] {
            let goal = Nfd::parse(&schema, goal_text).unwrap();
            let verdicts: Vec<(&'static str, bool)> = all_deciders()
                .iter()
                .map(|d| (d.name(), d.implies(&schema, &sigma, &goal).unwrap()))
                .collect();
            assert!(
                verdicts.windows(2).all(|w| w[0].1 == w[1].1),
                "deciders disagree on {goal_text}: {verdicts:?}"
            );
        }
    }
}
