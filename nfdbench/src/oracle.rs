//! The response oracle: every source compiled in-process with the
//! library's [`Session`] before anything is spawned, seeded goal pools
//! drawn from it, and the exact reply each read must get.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use nfd::core::{Nfd, TierPreference};
use nfd::govern::Budget;
use nfd::model::{Label, Schema};
use nfd::path::{Path, RootedPath};
use nfd::session::Session;

use crate::gen::{Rng, Source, Zipf};

/// Goals per relation pool.
pub const POOL: usize = 256;

/// A source compiled in-process, with its goal pools and the time each
/// compile step took (the traced run's parse and build numbers).
pub struct Tenant {
    /// Tenant name on the wire (or fixture stem for the CLI).
    pub name: String,
    /// The sources the program receives.
    pub source: Source,
    /// Leaked so the session can be `'static`: the bench is one short
    /// process, and the serve layer's epoch threads are not an option
    /// for a caller that must query the session from many places.
    pub schema: &'static Schema,
    /// Parsed Σ.
    pub sigma: Vec<Nfd>,
    /// The oracle session (resident engine, warm caches).
    pub session: Session<'static>,
    /// One goal pool per relation.
    pub pools: Vec<Pool>,
    /// `Schema::parse` + `parse_set` time.
    pub parse_time: Duration,
    /// `Session::with_tiers` time.
    pub build_time: Duration,
}

/// Goals over one relation, most popular first (Zipf rank order).
#[derive(Clone, Debug)]
pub struct Pool {
    /// Relation label, the NFD base.
    pub base: String,
    /// Goal texts.
    pub goals: Vec<String>,
    /// Each goal's LHS paths (reused as CLOSURE arguments).
    pub lhs: Vec<Vec<String>>,
}

impl Tenant {
    /// Parses and compiles `source`, then draws `pool` goals per relation:
    /// alternately one implied (RHS inside the LHS closure) and one not
    /// implied (RHS outside it), so each pool is about half of each.
    pub fn compile(
        name: &str,
        source: Source,
        pool: usize,
        rng: &mut Rng,
    ) -> Result<Tenant, String> {
        let started = Instant::now();
        let schema: &'static Schema = Box::leak(Box::new(
            Schema::parse(&source.schema).map_err(|e| format!("{name}: schema: {e}"))?,
        ));
        let sigma = nfd::core::nfd::parse_set(schema, &source.deps)
            .map_err(|e| format!("{name}: deps: {e}"))?;
        let parse_time = started.elapsed();
        let started = Instant::now();
        let session = build(schema, &sigma).map_err(|e| format!("{name}: build: {e}"))?;
        let build_time = started.elapsed();
        let mut tenant = Tenant {
            name: name.to_string(),
            source,
            schema,
            sigma,
            session,
            pools: Vec::new(),
            parse_time,
            build_time,
        };
        tenant.pools = tenant
            .source
            .relations
            .iter()
            .map(|(base, paths)| tenant.draw_pool(base, paths, pool, rng))
            .collect::<Result<_, _>>()?;
        Ok(tenant)
    }

    fn draw_pool(
        &self,
        base: &str,
        paths: &[String],
        size: usize,
        rng: &mut Rng,
    ) -> Result<Pool, String> {
        let mut seen = HashSet::new();
        let mut pool = Pool {
            base: base.to_string(),
            goals: Vec::new(),
            lhs: Vec::new(),
        };
        let mut attempts = 0;
        while pool.goals.len() < size && attempts < size * 40 {
            attempts += 1;
            let want_implied = pool.goals.len().is_multiple_of(2);
            let width = 1 + rng.below(3.min(paths.len() - 1));
            let mut lhs: Vec<String> = Vec::new();
            while lhs.len() < width {
                let p = &paths[rng.below(paths.len())];
                if !lhs.contains(p) {
                    lhs.push(p.clone());
                }
            }
            let closed = self.closure_paths(base, &lhs)?;
            let candidates: Vec<&String> = paths
                .iter()
                .filter(|p| !lhs.contains(p) && closed.contains(*p) == want_implied)
                .collect();
            if candidates.is_empty() {
                continue;
            }
            let rhs = candidates[rng.below(candidates.len())];
            let goal = format!("{base}:[{} -> {rhs}]", lhs.join(", "));
            if seen.insert(goal.clone()) {
                pool.goals.push(goal);
                pool.lhs.push(lhs);
            }
        }
        if pool.goals.len() < size.min(8) {
            return Err(format!(
                "{}: could not draw a goal pool for {base}",
                self.name
            ));
        }
        Ok(pool)
    }

    /// The closure of `lhs` under `base`, as base-relative path texts.
    fn closure_paths(&self, base: &str, lhs: &[String]) -> Result<HashSet<String>, String> {
        let prefix = format!("{base}:");
        Ok(self
            .closure_texts(base, lhs)?
            .iter()
            .filter_map(|p| p.strip_prefix(&prefix).map(str::to_string))
            .collect())
    }

    /// The closure of `lhs` under `base`, as rooted path texts in the
    /// engine's order.
    pub fn closure_texts(&self, base: &str, lhs: &[String]) -> Result<Vec<String>, String> {
        let (base, lhs) = closure_args(base, lhs)?;
        Ok(self
            .session
            .closure(&base, &lhs)
            .map_err(|e| e.to_string())?
            .iter()
            .map(RootedPath::to_string)
            .collect())
    }

    /// Parses a goal against this tenant's schema.
    pub fn nfd(&self, text: &str) -> Result<Nfd, String> {
        Nfd::parse(self.schema, text).map_err(|e| format!("goal `{text}`: {e}"))
    }

    /// The oracle verdict for one goal.
    pub fn implied(&self, goal: &str) -> Result<bool, String> {
        self.session
            .implies(&self.nfd(goal)?)
            .map_err(|e| e.to_string())
    }

    /// The exact `OK …` reply the daemon owes `read` in this tenant's
    /// current Σ.
    pub fn reply(&self, read: &Read) -> Result<String, String> {
        let verdict = |g: &str| -> Result<&str, String> {
            Ok(if self.implied(g)? {
                "implied"
            } else {
                "not-implied"
            })
        };
        let payload = match read {
            Read::Implies(goal) => verdict(goal)?.to_string(),
            Read::Batch(goals) => goals
                .iter()
                .map(|g| verdict(g))
                .collect::<Result<Vec<_>, _>>()?
                .join(","),
            Read::Closure(base, lhs) => self.closure_texts(base, lhs)?.join(" "),
            Read::Keys(relation) => {
                let keys = self.keys(relation)?;
                if keys.is_empty() {
                    "(no candidate keys of size <= 4)".to_string()
                } else {
                    keys.iter()
                        .map(|k| format!("{{{}}}", k.join(",")))
                        .collect::<Vec<_>>()
                        .join(" ")
                }
            }
        };
        Ok(if payload.is_empty() {
            "OK".to_string()
        } else {
            format!("OK {payload}")
        })
    }

    /// Candidate keys of size ≤ 4, each as its path texts.
    pub fn keys(&self, relation: &str) -> Result<Vec<Vec<String>>, String> {
        Ok(self
            .session
            .candidate_keys(Label::new(relation), 4)
            .map_err(|e| e.to_string())?
            .iter()
            .map(|k| k.iter().map(Path::to_string).collect())
            .collect())
    }

    /// Draws one read of `kind` from the pools: relation uniform, goals
    /// and LHS sets by Zipf rank.
    pub fn draw(&self, kind: ReadKind, zipf: &Zipf, rng: &mut Rng) -> Read {
        let pool = &self.pools[rng.below(self.pools.len())];
        let mut goal = || pool.goals[zipf.sample(rng).min(pool.goals.len() - 1)].clone();
        match kind {
            ReadKind::Implies => Read::Implies(goal()),
            ReadKind::Batch => Read::Batch((0..BATCH).map(|_| goal()).collect()),
            ReadKind::Closure => Read::Closure(
                pool.base.clone(),
                pool.lhs[zipf.sample(rng).min(pool.lhs.len() - 1)].clone(),
            ),
            ReadKind::Keys => Read::Keys(pool.base.clone()),
        }
    }
}

/// Parses CLOSURE arguments.
pub fn closure_args(base: &str, lhs: &[String]) -> Result<(RootedPath, Vec<Path>), String> {
    let base = RootedPath::parse(base).map_err(|e| e.to_string())?;
    let lhs = lhs
        .iter()
        .map(|p| Path::parse(p).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    Ok((base, lhs))
}

/// Goals per BATCH request.
pub const BATCH: usize = 8;

/// Compiles the way `nfdtool` does: standard budget, automatic tiers.
pub fn build<'s>(schema: &'s Schema, sigma: &[Nfd]) -> Result<Session<'s>, nfd::core::CoreError> {
    Session::with_tiers(
        schema,
        sigma,
        nfd::core::EmptySetPolicy::Forbidden,
        Budget::standard(),
        TierPreference::Auto,
    )
}

/// The read verbs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadKind {
    /// `IMPLIES`.
    Implies,
    /// `BATCH` of [`BATCH`] goals.
    Batch,
    /// `CLOSURE`.
    Closure,
    /// `KEYS`.
    Keys,
}

/// One read request, independent of the tenant it is sent to.
#[derive(Clone, Debug, PartialEq)]
pub enum Read {
    /// One goal.
    Implies(String),
    /// Several goals on one line.
    Batch(Vec<String>),
    /// Base relation and LHS paths.
    Closure(String, Vec<String>),
    /// Relation label.
    Keys(String),
}

impl Read {
    /// The request line for `tenant`.
    pub fn wire(&self, tenant: &str) -> String {
        match self {
            Read::Implies(goal) => format!("IMPLIES {tenant} {goal}"),
            Read::Batch(goals) => format!("BATCH {tenant} {};", goals.join("; ")),
            Read::Closure(base, lhs) => format!("CLOSURE {tenant} {base} {}", lhs.join(",")),
            Read::Keys(relation) => format!("KEYS {tenant} {relation}"),
        }
    }
}
