//! The multi-tenant schema registry behind `nfdtool serve`.
//!
//! [`Registry`] implements [`nfd_serve::Handler`]: it keeps many named
//! schemas resident as compiled [`Session`]s and answers the protocol's
//! workload verbs against them. The transport, admission gate, unwind
//! boundaries and drain protocol all live in the `nfd-serve` crate;
//! what lives here is the NFD side:
//!
//! * **Tenants are shared sessions, not threads.** A tenant's current
//!   epoch is an `Arc<Session<'static>>` over a schema the session owns
//!   ([`Session::owned`]). A read clones that `Arc` under the registry
//!   lock and is answered on the connection thread that received it, so
//!   reads on one hot tenant run in parallel, as many at once as the
//!   server's admission gate admits. `LOAD` and `RESTORE` compile or
//!   thaw on the connection thread too: no thread is spawned per tenant
//!   or per write.
//! * **One read path.** Every read answers from the tenant's resident
//!   compiled engine, which is never re-saturated at query time. A
//!   query budget is charged for the pools it reads (DESIGN.md §6), so
//!   a tenant whose quota is below its largest pool falls back to the
//!   chase and logic-eval, whatever the `BATCH` width.
//!   [`RegistryConfig::workers`] sets only that width: how many threads
//!   one `BATCH` fans out to.
//! * **Fork-and-swap mutation.** Write verbs (ADDDEP/DROPDEP) never
//!   touch the serving session: under a per-tenant write gate, the
//!   registry forks the current epoch ([`Session::fork`]: the same
//!   saturated pools, shared; a private closure cache), applies the
//!   delta to the fork, and swaps the tenant's pointer. Readers in
//!   flight finish on the epoch they already hold, and whoever drops the
//!   last `Arc` frees it; no reader ever observes a half-applied Σ, and
//!   a failure (or injected panic) before the swap leaves the old epoch
//!   serving untouched.
//! * **A shared cross-tenant closure cache.** Tenants loaded from
//!   identical `(schema source, Σ source, policy)` under the daemon's
//!   single build budget compile bit-identical engines, so they share
//!   one [`ClosureCache`] from a registry-held pool and warm each
//!   other. A mutated tenant's next epoch deliberately gets a private
//!   cache: its Σ has diverged, and writing its closures into the
//!   shared pool would poison the tenants still serving the original.
//! * **Crash containment in depth.** Every query is answered inside
//!   `catch_unwind` (on top of the server's per-request boundary), so a
//!   poisoned query answers `ERR` and the tenant keeps serving from the
//!   same warm caches.
//! * **Per-tenant quotas.** A tenant's remaining work units (set at
//!   `LOAD` from [`RegistryConfig::default_quota`], adjusted by
//!   `QUOTA`) cap the [`Budget`] of every query; a drained quota
//!   answers `EXHAUSTED` *before* dispatch. Queries are charged their
//!   actual decider cost (max attempt counter, min 1), so expensive
//!   tenants drain faster.
//! * **LRU residency.** At most [`RegistryConfig::max_resident`]
//!   sessions stay warm; loading past the cap drops the
//!   least-recently-used tenant, whose compiled tables are freed once
//!   the last read still holding them finishes.
//!
//! Per-request deadlines ([`RegistryConfig::request_timeout_ms`]) apply
//! to the *query* budgets only. The resident engine is compiled under a
//! counters-only budget: a deadline baked into the session at `LOAD`
//! would be in the past for every later query, poisoning `CLOSURE` and
//! `KEYS`, which run on the resident engine.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use nfd_core::{
    ClosureCache, CoreError, DeltaReport, EmptySetPolicy, Nfd, DEFAULT_CLOSURE_CACHE_CAPACITY,
};
use nfd_faults::fail_point;
use nfd_govern::{Budget, Verdict};
use nfd_model::{Label, Schema};
use nfd_path::{Path, RootedPath};
use nfd_serve::{Command, Handler, Response};

use crate::session::Session;

/// Cap on distinct shared closure caches the registry keeps pooled;
/// past it, entries no resident tenant holds are dropped first.
const SHARED_CACHE_POOL_CAP: usize = 32;

/// Tuning for the registry side of the server (the transport side is
/// [`nfd_serve::ServerConfig`]). The default is what `nfdtool serve`
/// runs with no flags.
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Resident-session cap; loading past it evicts the LRU tenant.
    pub max_resident: usize,
    /// Work-unit quota a tenant starts with (`None` = unmetered).
    pub default_quota: Option<u64>,
    /// Per-query budget counters ([`Budget::limited`]); `None` uses
    /// [`Budget::standard`]. Also governs session compilation and the
    /// resident engine serving `CLOSURE`/`KEYS`.
    pub query_budget: Option<u64>,
    /// Wall-clock deadline per `IMPLIES`/`BATCH` query (ms; 0 = none).
    pub request_timeout_ms: u64,
    /// Threads one `BATCH` fans its goals out to (`0` = all available
    /// parallelism). It sets nothing else: every read answers from the
    /// resident engine on its connection thread, as many at once as the
    /// server's admission gate admits.
    pub workers: usize,
}

impl Default for RegistryConfig {
    fn default() -> RegistryConfig {
        RegistryConfig {
            max_resident: 8,
            default_quota: None,
            query_budget: None,
            request_timeout_ms: 30_000,
            workers: 0,
        }
    }
}

/// A read-only query against a tenant's current epoch. Mutations do not
/// appear here: they fork the next epoch instead (see
/// [`Registry::run_write`]).
enum Query {
    Implies { goal: String },
    Batch { goals: String },
    Closure { base: String, lhs: Option<String> },
    Keys { relation: String },
    Snapshot { path: String },
}

struct Reply {
    response: Response,
    /// Work units to charge against the tenant quota.
    cost: u64,
}

/// One resident tenant: its current epoch, quota state, and the write
/// gate serializing its mutations. The `Vec<Tenant>` in [`Registry`] is
/// kept in most-recently-used order, front first — that ordering *is*
/// the LRU policy.
struct Tenant {
    name: String,
    /// The current epoch. Replaced by a write, never changed in place,
    /// so a reader holding a clone sees one Σ from start to finish.
    session: Arc<Session<'static>>,
    quota: Option<u64>,
    /// Serializes ADDDEP/DROPDEP on this tenant; readers never take it.
    write_gate: Arc<Mutex<()>>,
}

#[derive(Debug, Default)]
struct RegistryCounters {
    loads: AtomicU64,
    reloads: AtomicU64,
    evicted: AtomicU64,
    evicted_lru: AtomicU64,
    queries: AtomicU64,
    quota_denials: AtomicU64,
    /// `SNAPSHOT` verbs that wrote an image to disk.
    snapshots_written: AtomicU64,
    /// `RESTORE` verbs answered from a bit-identical thaw.
    restores_ok: AtomicU64,
    /// `RESTORE` verbs whose image was unusable even for salvage.
    restores_rejected: AtomicU64,
    /// `RESTORE` verbs that degraded to a fresh compile (corrupt or
    /// stale compiled sections with salvageable sources).
    thaw_fallbacks: AtomicU64,
    /// Mutations that forked and atomically installed a next epoch.
    epoch_swaps: AtomicU64,
    /// Reads being answered right now (STATS `worker_queue_depth`).
    reads_in_flight: AtomicU64,
}

/// The key under which tenants may share one closure cache: the literal
/// `(schema source, Σ source, policy)` triple. Keying on full text (not
/// a hash of it) makes accidental cross-schema sharing impossible; the
/// pool map hashes the strings internally anyway. Sound because the
/// daemon compiles every tenant under one fixed build budget and engine
/// builds are deterministic — same key, same saturated pool, same
/// closures (see DESIGN.md §"Read-parallel registry").
type CacheKey = (String, String, String);

/// The multi-tenant session registry; implement [`Handler`] and hand it
/// to [`nfd_serve::Server::bind`].
pub struct Registry {
    cfg: RegistryConfig,
    /// [`RegistryConfig::workers`] resolved once (`0` = all available
    /// parallelism, which costs a cgroup lookup to learn): the `BATCH`
    /// width, and nothing else.
    workers: usize,
    tenants: Mutex<Vec<Tenant>>,
    shared_caches: Mutex<HashMap<CacheKey, Arc<ClosureCache>>>,
    counters: RegistryCounters,
}

impl Registry {
    /// An empty registry.
    pub fn new(cfg: RegistryConfig) -> Registry {
        Registry {
            workers: match cfg.workers {
                0 => nfd_par::available(),
                n => n,
            },
            cfg,
            tenants: Mutex::new(Vec::new()),
            shared_caches: Mutex::new(HashMap::new()),
            counters: RegistryCounters::default(),
        }
    }

    fn lock_tenants(&self) -> MutexGuard<'_, Vec<Tenant>> {
        self.tenants.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The budget sessions are *compiled* under and the resident engine
    /// serves `CLOSURE`/`KEYS` with: counters only, never a deadline
    /// (see the module docs for why).
    fn build_budget(&self) -> Budget {
        match self.cfg.query_budget {
            Some(n) => Budget::limited(n),
            None => Budget::standard(),
        }
    }

    /// The budget for one `IMPLIES`/`BATCH` query: configured counters
    /// tightened to the tenant's remaining quota, plus the per-request
    /// deadline. A deadline this close to the wire is what keeps a
    /// pathological goal from holding an admission slot forever.
    fn query_budget(&self, remaining_quota: Option<u64>) -> Budget {
        let budget = match (self.cfg.query_budget, remaining_quota) {
            (None, None) => Budget::standard(),
            (cap, quota) => Budget::limited(cap.unwrap_or(u64::MAX).min(quota.unwrap_or(u64::MAX))),
        };
        if self.cfg.request_timeout_ms > 0 {
            budget.with_timeout_ms(self.cfg.request_timeout_ms)
        } else {
            budget
        }
    }

    /// The shared closure cache for `key`, created on first use. The
    /// pool is bounded: past [`SHARED_CACHE_POOL_CAP`], entries no
    /// resident tenant holds (sole `Arc` here) are dropped first.
    fn shared_cache_for(&self, key: CacheKey) -> Arc<ClosureCache> {
        fail_point!("serve::shared_cache");
        let mut pool = self
            .shared_caches
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if pool.len() >= SHARED_CACHE_POOL_CAP && !pool.contains_key(&key) {
            pool.retain(|_, cache| Arc::strong_count(cache) > 1);
        }
        Arc::clone(pool.entry(key).or_insert_with(|| {
            Arc::new(ClosureCache::with_capacity(DEFAULT_CLOSURE_CACHE_CAPACITY))
        }))
    }

    /// Registers a freshly compiled tenant: MRU-front insert, reload
    /// bookkeeping, and LRU eviction past the residency cap.
    fn adopt(&self, name: String, session: Session<'static>) {
        let tenant = Tenant {
            name,
            session: Arc::new(session),
            quota: self.cfg.default_quota,
            write_gate: Arc::new(Mutex::new(())),
        };
        let mut retired: Vec<Tenant> = Vec::new();
        {
            let mut tenants = self.lock_tenants();
            if let Some(pos) = tenants.iter().position(|t| t.name == tenant.name) {
                retired.push(tenants.remove(pos));
                self.counters.reloads.fetch_add(1, Ordering::Relaxed);
            } else {
                self.counters.loads.fetch_add(1, Ordering::Relaxed);
            }
            tenants.insert(0, tenant);
            while tenants.len() > self.cfg.max_resident.max(1) {
                if let Some(cold) = tenants.pop() {
                    self.counters.evicted_lru.fetch_add(1, Ordering::Relaxed);
                    retired.push(cold);
                }
            }
        }
        // Dropping a compiled session takes time; do it unlocked.
        drop(retired);
    }

    fn load(&self, name: String, schema: String, deps: String) -> Response {
        let key: CacheKey = (
            schema.clone(),
            deps.clone(),
            format!("{:?}", EmptySetPolicy::Forbidden),
        );
        let cache = self.shared_cache_for(key);
        let schema = match Schema::parse(&schema) {
            Ok(schema) => Arc::new(schema),
            Err(e) => return Response::Err(format!("schema: {e}")),
        };
        let sigma = match nfd_core::nfd::parse_set(&schema, &deps) {
            Ok(sigma) => sigma,
            Err(e) => return Response::Err(format!("deps: {e}")),
        };
        match Session::owned(
            schema,
            &sigma,
            EmptySetPolicy::Forbidden,
            self.build_budget(),
            cache,
            None,
        ) {
            Ok((session, _)) => {
                self.adopt(name, session);
                Response::Ok(format!("loaded deps={}", sigma.len()))
            }
            Err(e) => core_error_response(e),
        }
    }

    /// `RESTORE <name> <path>`: resurrect a session from a snapshot
    /// file. A clean image thaws without re-running saturation; an image
    /// with corrupt compiled sections but salvageable sources (or one
    /// whose thaw is rejected by replay validation) degrades to a fresh
    /// compile of those sources — a logged fallback, not a failure. Only
    /// an image too damaged to recover the sources answers `ERR`, and a
    /// rejection never registers anything.
    fn restore(&self, name: String, path: String) -> Response {
        let reject = |message: String| {
            self.counters
                .restores_rejected
                .fetch_add(1, Ordering::Relaxed);
            Response::Err(message)
        };
        let salvaged = match nfd_snap::read_file(std::path::Path::new(&path))
            .and_then(|bytes| nfd_snap::decode_lenient(&bytes))
        {
            Ok(salvaged) => salvaged,
            Err(e) => return reject(format!("restore: {e}")),
        };
        let snap = &salvaged.snapshot;
        let policy = match crate::snapshot::policy_from_snap(&snap.policy) {
            Ok(policy) => policy,
            Err(e) => return reject(format!("restore: policy: {e}")),
        };
        let key: CacheKey = (
            snap.schema_text.clone(),
            snap.sigma_text.clone(),
            format!("{policy:?}"),
        );
        let cache = self.shared_cache_for(key);
        let schema = match Schema::parse(&snap.schema_text) {
            Ok(schema) => Arc::new(schema),
            Err(e) => return reject(format!("restore: schema: {e}")),
        };
        let sigma = match nfd_core::nfd::parse_set(&schema, &snap.sigma_text) {
            Ok(sigma) => sigma,
            Err(e) => return reject(format!("restore: deps: {e}")),
        };
        let image = (!salvaged.degraded).then_some(snap);
        match Session::owned(schema, &sigma, policy, self.build_budget(), cache, image) {
            Ok((session, thawed)) => {
                self.adopt(name, session);
                if thawed {
                    self.counters.restores_ok.fetch_add(1, Ordering::Relaxed);
                    Response::Ok(format!("restored deps={} (thawed)", sigma.len()))
                } else {
                    self.counters.thaw_fallbacks.fetch_add(1, Ordering::Relaxed);
                    Response::Ok(format!(
                        "restored deps={} (thaw rejected; compiled fresh)",
                        sigma.len()
                    ))
                }
            }
            Err(e) => {
                self.counters
                    .restores_rejected
                    .fetch_add(1, Ordering::Relaxed);
                core_error_response(e)
            }
        }
    }

    /// Admits a workload verb on `name`: refuses a drained quota before
    /// any work, touches the tenant for LRU, and hands out its current
    /// epoch, remaining quota and write gate.
    fn checkout(&self, name: &str) -> Result<CheckedOut, Response> {
        let mut tenants = self.lock_tenants();
        let Some(pos) = tenants.iter().position(|t| t.name == name) else {
            return Err(unknown_tenant(name));
        };
        if tenants[pos].quota == Some(0) {
            self.counters.quota_denials.fetch_add(1, Ordering::Relaxed);
            return Err(Response::Exhausted(format!(
                "tenant `{name}` quota exhausted"
            )));
        }
        // Most-recently-used lives at the front.
        tenants[..=pos].rotate_right(1);
        let t = &tenants[0];
        Ok((Arc::clone(&t.session), t.quota, Arc::clone(&t.write_gate)))
    }

    fn run_query(&self, name: &str, query: Query) -> Response {
        fail_point!(
            "serve::tenant_query",
            Response::Exhausted("injected fault (failpoint)".to_string())
        );
        let (session, quota, _) = match self.checkout(name) {
            Ok(checked_out) => checked_out,
            Err(response) => return response,
        };
        let budget = self.query_budget(quota);
        self.counters
            .reads_in_flight
            .fetch_add(1, Ordering::Relaxed);
        // The inner unwind boundary: a poisoned query answers ERR and
        // the tenant keeps serving, without the server counting a panic.
        let reply = catch_unwind(AssertUnwindSafe(|| {
            answer(&session, query, &budget, self.workers)
        }))
        .unwrap_or_else(|payload| Reply {
            response: contained_panic(payload.as_ref()),
            cost: 1,
        });
        self.counters
            .reads_in_flight
            .fetch_sub(1, Ordering::Relaxed);
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        self.charge(name, reply.cost);
        reply.response
    }

    /// ADDDEP/DROPDEP: fork the current epoch, apply the delta to the
    /// fork (its own cache, so the shared pool is never written with the
    /// new Σ), and swap the tenant's pointer. Readers in flight finish on
    /// the old epoch; any failure — or the armed `serve::epoch_swap`
    /// failpoint — before the swap leaves the old epoch serving untouched.
    fn run_write(&self, name: &str, verb: &'static str, dep: String) -> Response {
        fail_point!(
            "serve::tenant_query",
            Response::Exhausted("injected fault (failpoint)".to_string())
        );
        let gate = match self.checkout(name) {
            Ok((_, _, gate)) => gate,
            Err(response) => return response,
        };
        let _write = gate.lock().unwrap_or_else(PoisonError::into_inner);
        // Re-read the current epoch under the gate: a racing writer may
        // have swapped since the lookup above.
        let changed = || {
            Response::Err(format!(
                "tenant `{name}` changed during mutation; not applied"
            ))
        };
        let current = {
            let tenants = self.lock_tenants();
            match tenants
                .iter()
                .find(|t| t.name == name && Arc::ptr_eq(&t.write_gate, &gate))
            {
                Some(t) => Arc::clone(&t.session),
                None => return changed(),
            }
        };
        let built = catch_unwind(AssertUnwindSafe(
            || -> Result<(Session<'static>, Vec<DeltaReport>), Response> {
                let nfd = Nfd::parse(current.schema(), &dep).map_err(core_error_response)?;
                let mut next = current.fork();
                let reports = match verb {
                    "added" => next.add_deps(std::slice::from_ref(&nfd)),
                    _ => next.remove_deps(std::slice::from_ref(&nfd)),
                }
                .map_err(core_error_response)?;
                Ok((next, reports))
            },
        ))
        .unwrap_or_else(|payload| Err(contained_panic(payload.as_ref())));
        let (next, reports) = match built {
            Ok(built) => built,
            Err(response) => {
                // Typed input failure (bad dep, not in Σ, exhausted) or a
                // contained panic: the fork is dropped, the old epoch
                // serves on.
                self.counters.queries.fetch_add(1, Ordering::Relaxed);
                self.charge(name, 1);
                return response;
            }
        };
        // The armed mid-swap failpoint: the next epoch is built, the old
        // one still installed. A panic here unwinds past `next`, which
        // is dropped unseen (proved by tests/serve_chaos.rs).
        fail_point!(
            "serve::epoch_swap",
            Response::Exhausted("injected fault (failpoint)".to_string())
        );
        // The swap is the one atomicity point: every lookup before it
        // gets the old epoch, every lookup after it the new one.
        let superseded = {
            let mut tenants = self.lock_tenants();
            match tenants
                .iter_mut()
                .find(|t| t.name == name && Arc::ptr_eq(&t.write_gate, &gate))
            {
                Some(t) => std::mem::replace(&mut t.session, Arc::new(next)),
                None => return changed(),
            }
        };
        // Whoever drops an epoch's last `Arc` frees it: this writer,
        // unless a read still holds the old epoch.
        drop((superseded, current));
        self.counters.epoch_swaps.fetch_add(1, Ordering::Relaxed);
        let reply = mutation_reply(verb, &reports);
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        self.charge(name, reply.cost);
        reply.response
    }

    fn charge(&self, name: &str, cost: u64) {
        let mut tenants = self.lock_tenants();
        if let Some(tenant) = tenants.iter_mut().find(|t| t.name == name) {
            if let Some(quota) = tenant.quota.as_mut() {
                *quota = quota.saturating_sub(cost.max(1));
            }
        }
    }

    fn set_quota(&self, name: &str, units: u64) -> Response {
        let mut tenants = self.lock_tenants();
        match tenants.iter_mut().find(|t| t.name == name) {
            Some(tenant) => {
                tenant.quota = Some(units);
                Response::Ok(format!("quota={units}"))
            }
            None => unknown_tenant(name),
        }
    }

    fn evict(&self, name: &str) -> Response {
        let gone = {
            let mut tenants = self.lock_tenants();
            tenants
                .iter()
                .position(|t| t.name == name)
                .map(|pos| tenants.remove(pos))
        };
        match gone {
            Some(_) => {
                self.counters.evicted.fetch_add(1, Ordering::Relaxed);
                Response::Ok("evicted".to_string())
            }
            None => Response::Err(format!("unknown tenant `{name}`")),
        }
    }
}

/// What [`Registry::checkout`] hands a workload verb: the tenant's
/// current epoch, its remaining quota and its write gate.
type CheckedOut = (Arc<Session<'static>>, Option<u64>, Arc<Mutex<()>>);

impl Handler for Registry {
    fn handle(&self, cmd: Command) -> Response {
        match cmd {
            Command::Load { name, schema, deps } => self.load(name, schema, deps),
            Command::Implies { name, goal } => self.run_query(&name, Query::Implies { goal }),
            Command::Batch { name, goals } => self.run_query(&name, Query::Batch { goals }),
            Command::Closure { name, base, lhs } => {
                self.run_query(&name, Query::Closure { base, lhs })
            }
            Command::Keys { name, relation } => self.run_query(&name, Query::Keys { relation }),
            Command::AddDep { name, dep } => self.run_write(&name, "added", dep),
            Command::DropDep { name, dep } => self.run_write(&name, "dropped", dep),
            Command::Snapshot { name, path } => {
                let response = self.run_query(&name, Query::Snapshot { path });
                if response.is_ok() {
                    self.counters
                        .snapshots_written
                        .fetch_add(1, Ordering::Relaxed);
                }
                response
            }
            Command::Restore { name, path } => self.restore(name, path),
            Command::Quota { name, units } => self.set_quota(&name, units),
            Command::Evict { name } => self.evict(&name),
            // The server answers these itself; reaching here means a
            // custom harness skipped it — answer something sane.
            Command::Stats => Response::Ok(self.stats_line()),
            Command::Ping => Response::Ok("pong".to_string()),
            Command::Shutdown => Response::Ok("draining".to_string()),
        }
    }

    fn stats_line(&self) -> String {
        let (resident, tenant_cache, closure) = {
            let tenants = self.lock_tenants();
            let resident: Vec<String> = tenants.iter().map(|t| t.name.clone()).collect();
            let mut per_tenant: Vec<String> = Vec::new();
            // Sum hit/miss over *distinct* caches: tenants sharing one
            // pool entry must not double-count it.
            let mut seen: Vec<*const ClosureCache> = Vec::new();
            let mut hits = 0u64;
            let mut misses = 0u64;
            for t in tenants.iter() {
                let stats = t.session.cache_stats();
                per_tenant.push(format!("{}:{}/{}", t.name, stats.hits, stats.misses));
                let ptr = Arc::as_ptr(t.session.closure_cache());
                if !seen.contains(&ptr) {
                    seen.push(ptr);
                    hits += stats.hits;
                    misses += stats.misses;
                }
            }
            (resident, per_tenant, (hits, misses))
        };
        let (pool_len, shared_hits, shared_misses) = {
            let pool = self
                .shared_caches
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let mut hits = 0u64;
            let mut misses = 0u64;
            for cache in pool.values() {
                let stats = cache.stats();
                hits += stats.hits;
                misses += stats.misses;
            }
            (pool.len(), hits, misses)
        };
        let c = &self.counters;
        // `worker_failures` stays for existing readers of this line
        // (nfdbench requires it); tenants have no threads that could
        // die, so it is always 0.
        format!(
            "sessions={} resident=[{}] loads={} reloads={} evicted={} evicted_lru={} queries={} quota_denials={} worker_failures=0 snapshots_written={} restores_ok={} restores_rejected={} thaw_fallbacks={} workers={} epoch_swaps={} worker_queue_depth={} closure_hits={} closure_misses={} shared_caches={} shared_cache_hits={} shared_cache_misses={} tenant_cache=[{}]",
            resident.len(),
            resident.join(","),
            c.loads.load(Ordering::Relaxed),
            c.reloads.load(Ordering::Relaxed),
            c.evicted.load(Ordering::Relaxed),
            c.evicted_lru.load(Ordering::Relaxed),
            c.queries.load(Ordering::Relaxed),
            c.quota_denials.load(Ordering::Relaxed),
            c.snapshots_written.load(Ordering::Relaxed),
            c.restores_ok.load(Ordering::Relaxed),
            c.restores_rejected.load(Ordering::Relaxed),
            c.thaw_fallbacks.load(Ordering::Relaxed),
            self.workers,
            c.epoch_swaps.load(Ordering::Relaxed),
            c.reads_in_flight.load(Ordering::Relaxed),
            closure.0,
            closure.1,
            pool_len,
            shared_hits,
            shared_misses,
            tenant_cache.join(","),
        )
    }

    fn on_shutdown(&self) {
        let tenants = std::mem::take(&mut *self.lock_tenants());
        drop(tenants);
    }
}

/// Answers one read on `session`'s resident engine, with `BATCH` fanned
/// out to `workers` threads.
fn answer(session: &Session<'_>, query: Query, budget: &Budget, workers: usize) -> Reply {
    let schema = session.schema();
    match query {
        Query::Implies { goal } => {
            let goal = match Nfd::parse(schema, &goal) {
                Ok(goal) => goal,
                Err(e) => return input_error(e),
            };
            match session.implies_with(&goal, budget) {
                Ok(decision) => {
                    let cost = decision_cost(&decision);
                    Reply {
                        response: verdict_response(&decision.verdict),
                        cost,
                    }
                }
                Err(e) => input_error(e),
            }
        }
        Query::Batch { goals } => {
            let goals = match nfd_core::nfd::parse_set(schema, &goals) {
                Ok(goals) => goals,
                Err(e) => return input_error(e),
            };
            if goals.is_empty() {
                return Reply {
                    response: Response::Err("BATCH: empty goal set".to_string()),
                    cost: 1,
                };
            }
            match session.implies_batch(&goals, budget, workers) {
                Ok(batch) => {
                    let statuses: Vec<&str> = batch
                        .decisions
                        .iter()
                        .map(|d| match d {
                            Ok(d) => match d.verdict {
                                Verdict::Implied => "implied",
                                Verdict::NotImplied => "not-implied",
                                Verdict::Exhausted(_) => "exhausted",
                            },
                            Err(_) => "failed",
                        })
                        .collect();
                    let cost = batch
                        .decisions
                        .iter()
                        .map(|d| d.as_ref().map(decision_cost).unwrap_or(1))
                        .sum::<u64>()
                        .max(1);
                    Reply {
                        response: Response::Ok(statuses.join(",")),
                        cost,
                    }
                }
                Err(e) => input_error(e),
            }
        }
        Query::Closure { base, lhs } => {
            let base = match RootedPath::parse(&base) {
                Ok(base) => base,
                Err(e) => {
                    return Reply {
                        response: Response::Err(format!("base: {e}")),
                        cost: 1,
                    }
                }
            };
            let lhs: Vec<Path> = match lhs
                .as_deref()
                .unwrap_or("")
                .split(',')
                .filter(|s| !s.trim().is_empty())
                .map(|s| Path::parse(s.trim()))
                .collect()
            {
                Ok(lhs) => lhs,
                Err(e) => {
                    return Reply {
                        response: Response::Err(format!("lhs: {e}")),
                        cost: 1,
                    }
                }
            };
            match session.closure(&base, &lhs) {
                Ok(closure) => Reply {
                    response: Response::Ok(
                        closure
                            .iter()
                            .map(RootedPath::to_string)
                            .collect::<Vec<_>>()
                            .join(" "),
                    ),
                    cost: 1,
                },
                Err(e) => input_error(e),
            }
        }
        Query::Snapshot { path } => {
            let image = session.freeze();
            let bytes = nfd_snap::encode(&image);
            match nfd_snap::write_atomic(std::path::Path::new(&path), &bytes) {
                // Charged by image size: persisting a bigger compiled
                // session is more of the tenant's work made durable.
                Ok(()) => Reply {
                    response: Response::Ok(format!("snapshot bytes={} path={path}", bytes.len())),
                    cost: (bytes.len() as u64 / 1024).max(1),
                },
                Err(e) => Reply {
                    response: Response::Err(format!("snapshot: {e}")),
                    cost: 1,
                },
            }
        }
        Query::Keys { relation } => match session.candidate_keys(Label::new(&relation), 4) {
            Ok(keys) if keys.is_empty() => Reply {
                response: Response::Ok("(no candidate keys of size <= 4)".to_string()),
                cost: 1,
            },
            Ok(keys) => Reply {
                response: Response::Ok(
                    keys.iter()
                        .map(|k| {
                            format!(
                                "{{{}}}",
                                k.iter().map(Path::to_string).collect::<Vec<_>>().join(",")
                            )
                        })
                        .collect::<Vec<_>>()
                        .join(" "),
                ),
                cost: 1,
            },
            Err(e) => input_error(e),
        },
    }
}

/// The wire form of a three-valued verdict.
fn verdict_response(verdict: &Verdict) -> Response {
    match verdict {
        Verdict::Implied => Response::Ok("implied".to_string()),
        Verdict::NotImplied => Response::Ok("not-implied".to_string()),
        Verdict::Exhausted(report) => Response::Exhausted(report.to_string()),
    }
}

/// The wire form of a Σ mutation, charged the rebuilt pool size: a
/// delta mutation replays the touched relation's saturation, so the
/// fresh pool length is the work the tenant actually bought.
fn mutation_reply(verb: &str, reports: &[nfd_core::DeltaReport]) -> Reply {
    let line: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "{verb} relation={} pool={}->{} overdeleted={}",
                r.relation, r.pool_before, r.pool_after, r.overdeleted
            )
        })
        .collect();
    let cost = reports
        .iter()
        .map(|r| r.pool_after as u64)
        .sum::<u64>()
        .max(1);
    Reply {
        response: Response::Ok(line.join("; ")),
        cost,
    }
}

/// Work units one decision costs its tenant: the largest decider
/// counter in the cascade log, floored at 1 so even cache hits meter.
fn decision_cost(decision: &crate::session::Decision) -> u64 {
    decision
        .attempts
        .iter()
        .filter_map(|a| a.cost)
        .max()
        .unwrap_or(0)
        .max(1)
}

fn input_error(e: CoreError) -> Reply {
    let response = core_error_response(e);
    Reply { response, cost: 1 }
}

fn core_error_response(e: CoreError) -> Response {
    match e {
        CoreError::Exhausted(report) => Response::Exhausted(report.to_string()),
        other => Response::Err(other.to_string()),
    }
}

fn unknown_tenant(name: &str) -> Response {
    Response::Err(format!("unknown tenant `{name}` (LOAD it first)"))
}

/// The `ERR` a panic caught inside the registry answers.
fn contained_panic(payload: &(dyn std::any::Any + Send)) -> Response {
    let text = if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "unknown panic payload"
    };
    Response::Err(format!("contained panic: {text}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: &str = "R : {<A: int, B: int, C: int>};";
    const DEPS: &str = "R:[A -> B]; R:[B -> C];";

    fn cmd(line: &str) -> Command {
        Command::parse(line).expect("test command parses")
    }

    fn load(reg: &Registry, name: &str) -> Response {
        reg.handle(cmd(&format!("LOAD {name} {SCHEMA} | {DEPS}")))
    }

    #[test]
    fn load_then_query_round_trip() {
        let reg = Registry::new(RegistryConfig::default());
        assert_eq!(load(&reg, "t"), Response::Ok("loaded deps=2".to_string()));
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[A -> C]")),
            Response::Ok("implied".to_string())
        );
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[C -> A]")),
            Response::Ok("not-implied".to_string())
        );
        assert_eq!(
            reg.handle(cmd("BATCH t R:[A -> C]; R:[C -> A];")),
            Response::Ok("implied,not-implied".to_string())
        );
        let keys = reg.handle(cmd("KEYS t R"));
        assert!(
            matches!(&keys, Response::Ok(p) if p.contains("{A}")),
            "{keys:?}"
        );
        let closure = reg.handle(cmd("CLOSURE t R A"));
        assert!(
            matches!(&closure, Response::Ok(p) if p.contains("R:B") && p.contains("R:C")),
            "{closure:?}"
        );
        reg.on_shutdown();
    }

    #[test]
    fn unknown_tenant_and_bad_sources_answer_err() {
        let reg = Registry::new(RegistryConfig::default());
        assert!(matches!(
            reg.handle(cmd("IMPLIES ghost R:[A -> B]")),
            Response::Err(msg) if msg.contains("unknown tenant")
        ));
        assert!(matches!(
            reg.handle(cmd("LOAD bad not-a-schema | whatever")),
            Response::Err(msg) if msg.starts_with("schema:")
        ));
        assert!(matches!(
            reg.handle(cmd(&format!("LOAD bad {SCHEMA} | not-deps"))),
            Response::Err(msg) if msg.starts_with("deps:")
        ));
        // A malformed goal against a healthy tenant: ERR, and the
        // session keeps answering.
        assert!(load(&reg, "t").is_ok());
        assert!(matches!(
            reg.handle(cmd("IMPLIES t R:[Nope -> B]")),
            Response::Err(_)
        ));
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[A -> B]")),
            Response::Ok("implied".to_string())
        );
        reg.on_shutdown();
    }

    #[test]
    fn adddep_dropdep_mutate_the_resident_session() {
        let reg = Registry::new(RegistryConfig::default());
        assert!(load(&reg, "t").is_ok());
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[C -> A]")),
            Response::Ok("not-implied".to_string())
        );
        let resp = reg.handle(cmd("ADDDEP t R:[C -> A]"));
        assert!(
            matches!(&resp, Response::Ok(msg) if msg.starts_with("added relation=R")),
            "{resp:?}"
        );
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[C -> A]")),
            Response::Ok("implied".to_string())
        );
        let resp = reg.handle(cmd("DROPDEP t R:[C -> A]"));
        assert!(
            matches!(&resp, Response::Ok(msg) if msg.starts_with("dropped relation=R")),
            "{resp:?}"
        );
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[C -> A]")),
            Response::Ok("not-implied".to_string())
        );
        // Retracting an NFD that is not in Σ answers ERR and leaves the
        // warm session serving.
        assert!(matches!(
            reg.handle(cmd("DROPDEP t R:[C -> A]")),
            Response::Err(msg) if msg.contains("not in")
        ));
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[A -> C]")),
            Response::Ok("implied".to_string())
        );
        reg.on_shutdown();
    }

    #[test]
    fn mutations_are_charged_to_the_tenant_quota() {
        let reg = Registry::new(RegistryConfig::default());
        assert!(load(&reg, "t").is_ok());
        assert_eq!(
            reg.handle(cmd("QUOTA t 2")),
            Response::Ok("quota=2".to_string())
        );
        // The mutation costs the rebuilt pool size (>= 2 here), so the
        // quota drains to zero and the next workload verb is denied
        // before dispatch.
        assert!(reg.handle(cmd("ADDDEP t R:[C -> A]")).is_ok());
        assert!(matches!(
            reg.handle(cmd("ADDDEP t R:[B -> A]")),
            Response::Exhausted(msg) if msg.contains("quota")
        ));
        reg.on_shutdown();
    }

    #[test]
    fn quota_zero_denies_before_dispatch_and_is_recoverable() {
        let reg = Registry::new(RegistryConfig::default());
        assert!(load(&reg, "t").is_ok());
        assert_eq!(
            reg.handle(cmd("QUOTA t 0")),
            Response::Ok("quota=0".to_string())
        );
        assert!(matches!(
            reg.handle(cmd("IMPLIES t R:[A -> B]")),
            Response::Exhausted(msg) if msg.contains("quota")
        ));
        // Raising the quota restores service on the same warm session.
        assert_eq!(
            reg.handle(cmd("QUOTA t 100000")),
            Response::Ok("quota=100000".to_string())
        );
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[A -> B]")),
            Response::Ok("implied".to_string())
        );
        assert!(reg.stats_line().contains("quota_denials=1"));
        reg.on_shutdown();
    }

    #[test]
    fn queries_deplete_a_metered_quota() {
        let reg = Registry::new(RegistryConfig {
            default_quota: Some(1),
            ..RegistryConfig::default()
        });
        assert!(load(&reg, "t").is_ok());
        // First query runs (cost ≥ 1 drains the single unit), second is
        // denied before dispatch. The first may itself exhaust its
        // quota-tightened budget — either way it is never an ERR.
        assert!(!matches!(
            reg.handle(cmd("IMPLIES t R:[A -> B]")),
            Response::Err(_)
        ));
        assert!(matches!(
            reg.handle(cmd("IMPLIES t R:[A -> B]")),
            Response::Exhausted(msg) if msg.contains("quota")
        ));
        reg.on_shutdown();
    }

    #[test]
    fn lru_eviction_under_resident_cap() {
        let reg = Registry::new(RegistryConfig {
            max_resident: 2,
            ..RegistryConfig::default()
        });
        assert!(load(&reg, "a").is_ok());
        assert!(load(&reg, "b").is_ok());
        // Touch `a` so `b` is the LRU when `c` arrives.
        assert!(reg.handle(cmd("IMPLIES a R:[A -> B]")).is_ok());
        assert!(load(&reg, "c").is_ok());
        assert!(matches!(
            reg.handle(cmd("IMPLIES b R:[A -> B]")),
            Response::Err(msg) if msg.contains("unknown tenant")
        ));
        assert!(reg.handle(cmd("IMPLIES a R:[A -> B]")).is_ok());
        assert!(reg.handle(cmd("IMPLIES c R:[A -> B]")).is_ok());
        let stats = reg.stats_line();
        assert!(stats.contains("evicted_lru=1"), "{stats}");
        assert!(
            stats.contains("resident=[c,a]") || stats.contains("resident=[a,c]"),
            "{stats}"
        );
        reg.on_shutdown();
    }

    #[test]
    fn evict_and_reload_lifecycle() {
        let reg = Registry::new(RegistryConfig::default());
        assert!(load(&reg, "t").is_ok());
        assert_eq!(
            reg.handle(cmd("EVICT t")),
            Response::Ok("evicted".to_string())
        );
        assert!(matches!(
            reg.handle(cmd("EVICT t")),
            Response::Err(msg) if msg.contains("unknown tenant")
        ));
        assert!(load(&reg, "t").is_ok());
        assert!(load(&reg, "t").is_ok(), "reload replaces in place");
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[A -> C]")),
            Response::Ok("implied".to_string())
        );
        let stats = reg.stats_line();
        assert!(stats.contains("reloads=1"), "{stats}");
        assert!(stats.contains("evicted=1"), "{stats}");
        reg.on_shutdown();
    }

    /// A scratch file path in the system temp dir, removed on drop.
    struct TempSnap(std::path::PathBuf);

    impl TempSnap {
        fn new(tag: &str) -> TempSnap {
            TempSnap(
                std::env::temp_dir().join(format!("nfd-serve-{tag}-{}.snap", std::process::id())),
            )
        }

        fn as_str(&self) -> String {
            self.0.to_string_lossy().into_owned()
        }
    }

    impl Drop for TempSnap {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn snapshot_then_restore_round_trips_a_tenant() {
        let file = TempSnap::new("roundtrip");
        let path = file.as_str();
        let reg = Registry::new(RegistryConfig::default());
        assert!(load(&reg, "t").is_ok());
        let resp = reg.handle(cmd(&format!("SNAPSHOT t {path}")));
        assert!(
            matches!(&resp, Response::Ok(msg) if msg.starts_with("snapshot bytes=")),
            "{resp:?}"
        );
        // Evict, then resurrect from disk under a new name: the thawed
        // session answers exactly like the compiled one did.
        assert!(reg.handle(cmd("EVICT t")).is_ok());
        let resp = reg.handle(cmd(&format!("RESTORE warm {path}")));
        assert_eq!(resp, Response::Ok("restored deps=2 (thawed)".to_string()));
        assert_eq!(
            reg.handle(cmd("IMPLIES warm R:[A -> C]")),
            Response::Ok("implied".to_string())
        );
        assert_eq!(
            reg.handle(cmd("IMPLIES warm R:[C -> A]")),
            Response::Ok("not-implied".to_string())
        );
        // Mutations work on the thawed session too.
        assert!(reg.handle(cmd("ADDDEP warm R:[C -> A]")).is_ok());
        assert_eq!(
            reg.handle(cmd("IMPLIES warm R:[C -> A]")),
            Response::Ok("implied".to_string())
        );
        let stats = reg.stats_line();
        assert!(stats.contains("snapshots_written=1"), "{stats}");
        assert!(stats.contains("restores_ok=1"), "{stats}");
        assert!(stats.contains("restores_rejected=0"), "{stats}");
        assert!(stats.contains("thaw_fallbacks=0"), "{stats}");
        reg.on_shutdown();
    }

    #[test]
    fn corrupt_restore_falls_back_or_rejects_with_typed_reason() {
        let file = TempSnap::new("corrupt");
        let path = file.as_str();
        let reg = Registry::new(RegistryConfig::default());
        assert!(load(&reg, "t").is_ok());
        assert!(reg.handle(cmd(&format!("SNAPSHOT t {path}"))).is_ok());

        // Corrupt a compiled section (late in the file): the sources
        // salvage, so RESTORE degrades to a fresh compile and the
        // session still answers correctly.
        let pristine = std::fs::read(&file.0).unwrap();
        let mut bytes = pristine.clone();
        let late = bytes.len() - 9;
        bytes[late] ^= 0xFF;
        std::fs::write(&file.0, &bytes).unwrap();
        let resp = reg.handle(cmd(&format!("RESTORE hurt {path}")));
        assert!(
            matches!(&resp, Response::Ok(msg) if msg.contains("compiled fresh")),
            "{resp:?}"
        );
        assert_eq!(
            reg.handle(cmd("IMPLIES hurt R:[A -> C]")),
            Response::Ok("implied".to_string())
        );

        // Destroy the header: nothing salvages, RESTORE answers ERR and
        // no tenant appears.
        std::fs::write(&file.0, b"garbage").unwrap();
        let resp = reg.handle(cmd(&format!("RESTORE dead {path}")));
        assert!(
            matches!(&resp, Response::Err(msg) if msg.starts_with("restore:")),
            "{resp:?}"
        );
        assert!(matches!(
            reg.handle(cmd("IMPLIES dead R:[A -> B]")),
            Response::Err(msg) if msg.contains("unknown tenant")
        ));

        // A missing file is the same typed rejection.
        let resp = reg.handle(cmd("RESTORE ghost /nonexistent/nope.snap"));
        assert!(
            matches!(&resp, Response::Err(msg) if msg.starts_with("restore:")),
            "{resp:?}"
        );
        let stats = reg.stats_line();
        assert!(stats.contains("thaw_fallbacks=1"), "{stats}");
        assert!(stats.contains("restores_rejected=2"), "{stats}");
        reg.on_shutdown();
    }

    #[test]
    fn snapshot_is_quota_charged_and_unknown_tenant_rejected() {
        let file = TempSnap::new("quota");
        let path = file.as_str();
        let reg = Registry::new(RegistryConfig::default());
        assert!(matches!(
            reg.handle(cmd(&format!("SNAPSHOT ghost {path}"))),
            Response::Err(msg) if msg.contains("unknown tenant")
        ));
        assert!(load(&reg, "t").is_ok());
        assert_eq!(
            reg.handle(cmd("QUOTA t 1")),
            Response::Ok("quota=1".to_string())
        );
        // The snapshot drains the single unit; the next workload verb is
        // denied before dispatch.
        assert!(reg.handle(cmd(&format!("SNAPSHOT t {path}"))).is_ok());
        assert!(matches!(
            reg.handle(cmd("IMPLIES t R:[A -> B]")),
            Response::Exhausted(msg) if msg.contains("quota")
        ));
        reg.on_shutdown();
    }

    #[test]
    fn shutdown_drains_every_actor() {
        let reg = Registry::new(RegistryConfig::default());
        assert!(load(&reg, "a").is_ok());
        assert!(load(&reg, "b").is_ok());
        reg.on_shutdown();
        assert!(reg.stats_line().contains("sessions=0"));
        assert!(matches!(
            reg.handle(cmd("IMPLIES a R:[A -> B]")),
            Response::Err(msg) if msg.contains("unknown tenant")
        ));
    }

    /// A 4-wide registry answers every verb — reads, mutations,
    /// reads-after-mutation — with the verdicts of the tenant's Σ.
    #[test]
    fn parallel_pool_matches_the_sequential_daemon() {
        let reg = Registry::new(RegistryConfig {
            workers: 4,
            ..RegistryConfig::default()
        });
        assert_eq!(load(&reg, "t"), Response::Ok("loaded deps=2".to_string()));
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[A -> C]")),
            Response::Ok("implied".to_string())
        );
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[C -> A]")),
            Response::Ok("not-implied".to_string())
        );
        assert_eq!(
            reg.handle(cmd("BATCH t R:[A -> C]; R:[C -> A];")),
            Response::Ok("implied,not-implied".to_string())
        );
        let keys = reg.handle(cmd("KEYS t R"));
        assert!(
            matches!(&keys, Response::Ok(p) if p.contains("{A}")),
            "{keys:?}"
        );
        let closure = reg.handle(cmd("CLOSURE t R A"));
        assert!(
            matches!(&closure, Response::Ok(p) if p.contains("R:B") && p.contains("R:C")),
            "{closure:?}"
        );
        // A mutation swaps the epoch under the pool; verdicts follow.
        let resp = reg.handle(cmd("ADDDEP t R:[C -> A]"));
        assert!(
            matches!(&resp, Response::Ok(msg) if msg.starts_with("added relation=R")),
            "{resp:?}"
        );
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[C -> A]")),
            Response::Ok("implied".to_string())
        );
        let resp = reg.handle(cmd("DROPDEP t R:[C -> A]"));
        assert!(
            matches!(&resp, Response::Ok(msg) if msg.starts_with("dropped relation=R")),
            "{resp:?}"
        );
        assert_eq!(
            reg.handle(cmd("IMPLIES t R:[C -> A]")),
            Response::Ok("not-implied".to_string())
        );
        assert!(matches!(
            reg.handle(cmd("DROPDEP t R:[C -> A]")),
            Response::Err(msg) if msg.contains("not in")
        ));
        assert_eq!(
            reg.handle(cmd("BATCH t R:[A -> C]; R:[C -> A];")),
            Response::Ok("implied,not-implied".to_string())
        );
        reg.on_shutdown();
    }

    /// Two tenants loaded from identical sources resolve to the *same*
    /// pooled closure cache and warm each other; a mutation forks the
    /// mutated tenant onto a private cache, leaving the pool entry to
    /// the tenants still serving the original Σ.
    #[test]
    fn same_source_tenants_share_a_cache_until_one_mutates() {
        let reg = Registry::new(RegistryConfig::default());
        assert!(load(&reg, "a").is_ok());
        assert!(load(&reg, "b").is_ok());
        let (cache_a, cache_b) = {
            let tenants = reg.tenants.lock().unwrap();
            let find = |name: &str| {
                Arc::clone(
                    tenants
                        .iter()
                        .find(|t| t.name == name)
                        .unwrap()
                        .session
                        .closure_cache(),
                )
            };
            (find("a"), find("b"))
        };
        assert!(
            Arc::ptr_eq(&cache_a, &cache_b),
            "identical sources must share one pooled cache"
        );
        assert!(reg.handle(cmd("ADDDEP b R:[C -> A]")).is_ok());
        let cache_b2 = {
            let tenants = reg.tenants.lock().unwrap();
            Arc::clone(
                tenants
                    .iter()
                    .find(|t| t.name == "b")
                    .unwrap()
                    .session
                    .closure_cache(),
            )
        };
        assert!(
            !Arc::ptr_eq(&cache_a, &cache_b2),
            "a mutated tenant must not keep writing into the shared cache"
        );
        // The un-mutated tenant still answers from the original Σ.
        assert_eq!(
            reg.handle(cmd("IMPLIES a R:[C -> A]")),
            Response::Ok("not-implied".to_string())
        );
        assert_eq!(
            reg.handle(cmd("IMPLIES b R:[C -> A]")),
            Response::Ok("implied".to_string())
        );
        reg.on_shutdown();
    }

    /// The new observability fields ride at the end of the STATS line:
    /// worker count, epoch swaps, queue depth, and closure-cache
    /// hit/miss broken out per tenant and for the shared pool.
    #[test]
    fn stats_line_reports_parallel_and_cache_observability() {
        let reg = Registry::new(RegistryConfig {
            workers: 2,
            ..RegistryConfig::default()
        });
        assert!(load(&reg, "t").is_ok());
        // CLOSURE twice: the second is a cache hit on the shared entry.
        assert!(reg.handle(cmd("CLOSURE t R A")).is_ok());
        assert!(reg.handle(cmd("CLOSURE t R A")).is_ok());
        assert!(reg.handle(cmd("ADDDEP t R:[C -> A]")).is_ok());
        let stats = reg.stats_line();
        for field in [
            "workers=2",
            "epoch_swaps=1",
            "worker_queue_depth=0",
            "closure_hits=",
            "closure_misses=",
            "shared_caches=1",
            "shared_cache_hits=",
            "shared_cache_misses=",
            "tenant_cache=[t:",
        ] {
            assert!(stats.contains(field), "missing `{field}` in: {stats}");
        }
        // A hot goal stays on the closure cache however often it is
        // read: every IMPLIES after the first is one more hit.
        let hits = || {
            let stats = reg.stats_line();
            stats
                .split_whitespace()
                .find_map(|f| f.strip_prefix("closure_hits="))
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("no closure_hits in: {stats}"))
        };
        assert!(reg.handle(cmd("IMPLIES t R:[A -> C]")).is_ok());
        let mut before = hits();
        for read in 2..=16 {
            assert!(reg.handle(cmd("IMPLIES t R:[A -> C]")).is_ok());
            let now = hits();
            assert_eq!(now, before + 1, "read {read} missed the closure cache");
            before = now;
        }
        reg.on_shutdown();
    }
}
