//! Conversions between live compiled sessions and the portable
//! [`nfd_snap::Snapshot`] representation.
//!
//! The `nfd-snap` crate owns the bytes (format, checksums, atomic I/O)
//! and deliberately knows nothing about engines; this module owns the
//! meaning. Freezing dumps what a compile derives from `(schema, Σ,
//! policy)` — schema and Σ source texts, the empty-set policy, every
//! relation's interned path-table matrices and the saturated pools with
//! provenance — so one source always freezes to the same image. Thawing
//! is *checked reinstallation*:
//!
//! 1. the embedded schema/Σ/policy texts must equal the caller's
//!    (rendered through the same `Display` impls they were frozen with);
//! 2. the path tables are recompiled from the schema and required to be
//!    bit-identical to the embedded matrices — any skew (a schema edit,
//!    an interning change) is a typed [`SnapError::Mismatch`];
//! 3. the pools replay through the engine's own `add` path
//!    ([`nfd_core::engine::Engine::replay`]), which checks ids and
//!    premise indices, re-derives subsumption flags and `need_x` gates,
//!    and rejects any entry `add` would reject.
//!
//! Each entry's derivation is taken on trust: the CRCs catch accidental
//! damage (`tests/snapshot_corruption.rs`), but an image rewritten with a
//! forged entry and valid CRCs thaws and answers from it. An image that
//! [`crate::session::Session::freeze`] wrote thaws bit-identical to a fresh
//! compile (`tests/snapshot_differential.rs`).

use nfd_core::engine::{Engine, FrozenDep, FrozenPool, Prov};
use nfd_core::{EmptySetPolicy, Nfd};
use nfd_model::{Label, Schema};
use nfd_path::table::{PathId, PathSet, PathTable, SchemaTables};
use nfd_path::RootedPath;
use nfd_snap::{DepSnap, PolicySnap, PoolSnap, ProvSnap, SnapError, Snapshot, TableSnap};
use std::collections::HashMap;

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

/// `None` encoded as `u32::MAX` in [`TableSnap::parents`].
const NO_PARENT: u32 = u32::MAX;

/// Dumps one relation's compiled path table verbatim.
fn table_snap(table: &PathTable) -> TableSnap {
    let n = table.len() as PathId;
    TableSnap {
        relation: table.relation().to_string(),
        words: table.words() as u64,
        paths: table.paths().iter().map(|p| p.to_string()).collect(),
        parents: (0..n)
            .map(|id| table.parent(id).unwrap_or(NO_PARENT))
            .collect(),
        set_record: (0..n).map(|id| table.is_set_record(id)).collect(),
        prefixes: (0..n)
            .map(|id| table.prefixes_of(id).as_words().to_vec())
            .collect(),
        extensions: (0..n)
            .map(|id| table.extensions_of(id).as_words().to_vec())
            .collect(),
        followers: (0..n)
            .map(|id| table.followers_of(id).as_words().to_vec())
            .collect(),
    }
}

/// Dumps every table, sorted by relation text (deterministic bytes).
fn tables_snap(tables: &SchemaTables) -> Vec<TableSnap> {
    let mut out: Vec<TableSnap> = tables.iter().map(|(_, t)| table_snap(t)).collect();
    out.sort_by(|a, b| a.relation.cmp(&b.relation));
    out
}

/// Verifies that freshly compiled tables are bit-identical to the
/// embedded dumps — the skew check that catches schema edits and
/// interning changes between freeze and thaw.
pub(crate) fn verify_tables(tables: &SchemaTables, snaps: &[TableSnap]) -> Result<(), SnapError> {
    let fresh = tables_snap(tables);
    if fresh.len() != snaps.len() {
        return Err(SnapError::Mismatch(format!(
            "snapshot has {} path table(s), the schema compiles to {}",
            snaps.len(),
            fresh.len()
        )));
    }
    for (f, s) in fresh.iter().zip(snaps) {
        if f != s {
            return Err(SnapError::Mismatch(format!(
                "path table of relation `{}` differs from the snapshot's",
                s.relation
            )));
        }
    }
    Ok(())
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
            deps: p
                .deps
                .iter()
                .map(|d| DepSnap {
                    lhs: d.lhs.as_words().to_vec(),
                    rhs: d.rhs,
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
        tables: tables_snap(engine.tables()),
        pools,
    }
}

/// Converts the snapshot's pools back to the engine's frozen form,
/// resolving relation names and rebuilding the LHS bitsets. Id-range and
/// width validation happens inside `Engine::replay`; this layer
/// rejects unknown relations.
pub(crate) fn frozen_pools(
    snapshot: &Snapshot,
    schema: &Schema,
) -> Result<Vec<FrozenPool>, SnapError> {
    let labels: HashMap<String, Label> = schema
        .relation_names()
        .map(|l| (l.to_string(), l))
        .collect();
    let mut out = Vec::with_capacity(snapshot.pools.len());
    for pool in &snapshot.pools {
        let relation = *labels.get(&pool.relation).ok_or_else(|| {
            SnapError::Mismatch(format!(
                "snapshot pool names relation `{}` which the schema does not define",
                pool.relation
            ))
        })?;
        out.push(FrozenPool {
            relation,
            deps: pool
                .deps
                .iter()
                .map(|d| FrozenDep {
                    lhs: PathSet::from_words(d.lhs.clone()),
                    rhs: d.rhs,
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
    fn table_verification_catches_schema_skew() {
        let schema = Schema::parse("R : {<A: int, B: int>};").unwrap();
        let other = Schema::parse("R : {<A: int, B: int, C: int>};").unwrap();
        let tables = SchemaTables::new(&schema).unwrap();
        let snaps = tables_snap(&tables);
        assert!(verify_tables(&tables, &snaps).is_ok());
        let other_tables = SchemaTables::new(&other).unwrap();
        assert!(matches!(
            verify_tables(&other_tables, &snaps),
            Err(SnapError::Mismatch(_))
        ));
    }
}
