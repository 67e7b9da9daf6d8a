//! Conversions between live compiled sessions and the portable
//! [`nfd_snap::Snapshot`] representation.
//!
//! The `nfd-snap` crate owns the bytes (format, checksums, atomic I/O)
//! and deliberately knows nothing about engines; this module owns the
//! meaning. Freezing dumps what a compile derives from `(schema, Σ,
//! policy)` — schema and Σ source texts, the empty-set policy, and per
//! relation its rendered path list and its saturated pool as
//! derivations (each entry's provenance and subsumption flag) — so one
//! source always freezes to the same image. Thawing is *re-derivation*:
//!
//! 1. the embedded schema/Σ/policy texts must equal the caller's
//!    (rendered through the same `Display` impls they were frozen with);
//! 2. the image must hold exactly one pool per relation of the live
//!    schema, each listing the live path table's paths in id order —
//!    the id space its provenance cites — so a schema edit or a process
//!    that interned labels in another order is a typed
//!    [`SnapError::Mismatch`];
//! 3. every entry is re-derived, in pool order, by the rule its
//!    provenance names, from Σ and the entries before it, under the live
//!    tables and policy gates, and pushed through the engine's own `add`
//!    path ([`nfd_core::engine::Engine::replay`]); each replayed
//!    subsumption flag must equal the stored one.
//!
//! So a thawed pool holds only rule applications: a forged image can
//! make a session answer less than a compile, never more
//! (`tests/snapshot_corruption.rs` forges every provenance of three
//! sources). Completeness is taken on trust — an image whose pool was
//! truncated and re-checksummed thaws and answers "not implied" where a
//! compile says "implied". An image that
//! [`crate::session::Session::freeze`] wrote thaws bit-identical to a
//! fresh compile (`tests/snapshot_differential.rs`).

use nfd_core::engine::{Engine, FrozenDep, FrozenPool, Prov};
use nfd_core::{EmptySetPolicy, Nfd};
use nfd_model::Schema;
use nfd_path::table::{PathTable, SchemaTables};
use nfd_path::RootedPath;
use nfd_snap::{DepSnap, PolicySnap, PoolSnap, ProvSnap, SnapError, Snapshot};

/// Renders Σ in the canonical snapshot form: one `Display`-rendered NFD
/// per line, each terminated by `;`. Round-trips through
/// [`nfd_core::nfd::parse_set`].
pub fn render_sigma(sigma: &[Nfd]) -> String {
    sigma
        .iter()
        .map(|n| format!("{n};"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The portable form of an empty-set policy: `Forbidden`, or the sorted
/// rendered rooted paths declared non-empty.
pub fn policy_snap(policy: &EmptySetPolicy) -> PolicySnap {
    match policy {
        EmptySetPolicy::Forbidden => PolicySnap::Forbidden,
        EmptySetPolicy::Annotated(paths) => {
            let mut rendered: Vec<String> = paths.iter().map(|p| p.to_string()).collect();
            rendered.sort();
            PolicySnap::Annotated(rendered)
        }
    }
}

/// Parses a portable policy back to a live [`EmptySetPolicy`].
pub fn policy_from_snap(snap: &PolicySnap) -> Result<EmptySetPolicy, SnapError> {
    match snap {
        PolicySnap::Forbidden => Ok(EmptySetPolicy::Forbidden),
        PolicySnap::Annotated(rendered) => {
            let mut paths = Vec::with_capacity(rendered.len());
            for text in rendered {
                paths.push(RootedPath::parse(text).map_err(|e| {
                    SnapError::Malformed(format!("policy path `{text}` does not parse: {e}"))
                })?);
            }
            Ok(EmptySetPolicy::non_empty(paths))
        }
    }
}

/// A relation's paths in id order, rendered: the id space of its pool's
/// provenance.
fn rendered_paths(table: &PathTable) -> Vec<String> {
    table.paths().iter().map(|p| p.to_string()).collect()
}

fn prov_snap(prov: &Prov) -> ProvSnap {
    match prov {
        Prov::Given(i) => ProvSnap::Given(*i as u64),
        Prov::Prefix { dep, shortened } => ProvSnap::Prefix {
            dep: *dep as u64,
            shortened: *shortened,
        },
        Prov::FullLocality { dep, x } => ProvSnap::FullLocality {
            dep: *dep as u64,
            x: *x,
        },
        Prov::Resolve {
            target,
            supplier,
            on,
        } => ProvSnap::Resolve {
            target: *target as u64,
            supplier: *supplier as u64,
            on: *on,
        },
        Prov::Singleton { x } => ProvSnap::Singleton { x: *x },
    }
}

fn prov_from_snap(snap: &ProvSnap) -> Prov {
    match snap {
        ProvSnap::Given(i) => Prov::Given(*i as usize),
        ProvSnap::Prefix { dep, shortened } => Prov::Prefix {
            dep: *dep as usize,
            shortened: *shortened,
        },
        ProvSnap::FullLocality { dep, x } => Prov::FullLocality {
            dep: *dep as usize,
            x: *x,
        },
        ProvSnap::Resolve {
            target,
            supplier,
            on,
        } => Prov::Resolve {
            target: *target as usize,
            supplier: *supplier as usize,
            on: *on,
        },
        ProvSnap::Singleton { x } => Prov::Singleton { x: *x },
    }
}

/// Freezes a compiled engine into the portable snapshot form. Pure
/// export — deterministic for a given compiled state, and the relation
/// orderings are sorted so the encoded bytes are reproducible.
pub(crate) fn freeze_parts(schema: &Schema, engine: &Engine<'_>) -> Snapshot {
    let pools = engine
        .export_pools()
        .into_iter()
        .map(|p| PoolSnap {
            relation: p.relation.to_string(),
            paths: engine
                .tables()
                .get(p.relation)
                .map(|t| rendered_paths(t))
                .unwrap_or_default(),
            deps: p
                .deps
                .iter()
                .map(|d| DepSnap {
                    prov: prov_snap(&d.prov),
                    subsumed: d.subsumed,
                })
                .collect(),
        })
        .collect();
    Snapshot {
        schema_text: schema.to_string(),
        sigma_text: render_sigma(&engine.sigma),
        policy: policy_snap(engine.policy()),
        pools,
    }
}

/// Converts the snapshot's pools back to the engine's frozen form for
/// the live `tables`. The image must hold exactly one pool per relation,
/// and each pool's path list must equal the live table's rendering, or
/// the thaw is a typed [`SnapError::Mismatch`]; whether each entry
/// re-derives is `Engine::replay`'s to check.
pub(crate) fn frozen_pools(
    snapshot: &Snapshot,
    tables: &SchemaTables,
) -> Result<Vec<FrozenPool>, SnapError> {
    if snapshot.pools.len() != tables.len() {
        return Err(SnapError::Mismatch(format!(
            "snapshot has {} pool(s), the schema has {} relation(s)",
            snapshot.pools.len(),
            tables.len()
        )));
    }
    let mut out: Vec<FrozenPool> = Vec::with_capacity(snapshot.pools.len());
    for pool in &snapshot.pools {
        let mismatch = |what: &str| {
            SnapError::Mismatch(format!(
                "snapshot pool of relation `{}` {what}",
                pool.relation
            ))
        };
        let (relation, table) = tables
            .iter()
            .find(|(label, _)| label.as_str() == pool.relation)
            .ok_or_else(|| mismatch("names no relation of the schema"))?;
        if out.iter().any(|p| p.relation == relation) {
            return Err(mismatch("appears twice"));
        }
        if pool.paths != rendered_paths(table) {
            return Err(mismatch("lists other paths than the schema's"));
        }
        out.push(FrozenPool {
            relation,
            deps: pool
                .deps
                .iter()
                .map(|d| FrozenDep {
                    prov: prov_from_snap(&d.prov),
                    subsumed: d.subsumed,
                })
                .collect(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_round_trips_through_portable_form() {
        let forbidden = EmptySetPolicy::Forbidden;
        assert_eq!(
            policy_from_snap(&policy_snap(&forbidden)).unwrap(),
            forbidden
        );
        let annotated = EmptySetPolicy::non_empty([
            RootedPath::parse("R:B").unwrap(),
            RootedPath::parse("R:A").unwrap(),
        ]);
        let snap = policy_snap(&annotated);
        assert_eq!(
            snap,
            PolicySnap::Annotated(vec!["R:A".to_string(), "R:B".to_string()])
        );
        assert_eq!(policy_from_snap(&snap).unwrap(), annotated);
    }

    #[test]
    fn bad_policy_paths_are_typed_errors() {
        let snap = PolicySnap::Annotated(vec!["not a path !!".to_string()]);
        assert!(matches!(
            policy_from_snap(&snap),
            Err(SnapError::Malformed(_))
        ));
    }

    #[test]
    fn path_list_check_catches_schema_skew() {
        let schema = Schema::parse("R : {<A: int, B: int>};").unwrap();
        let other = Schema::parse("R : {<A: int, B: int, C: int>};").unwrap();
        let engine = Engine::new(&schema, &[]).unwrap();
        let image = freeze_parts(&schema, &engine);
        assert!(frozen_pools(&image, engine.tables()).is_ok());
        let other_tables = SchemaTables::new(&other).unwrap();
        assert!(matches!(
            frozen_pools(&image, &other_tables),
            Err(SnapError::Mismatch(_))
        ));
    }
}
