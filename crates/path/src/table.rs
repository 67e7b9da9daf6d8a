//! Compiled per-relation path tables: the shared dependency IR.
//!
//! Every reasoning layer (saturation engine, chase, closure, incremental
//! checker, counterexample construction) works over the same object — the
//! finite set `Paths(SC)` of a relation (Definition A.1) together with the
//! prefix (Definition 2.2) and *follows* (Definition 3.2) relations. A
//! [`PathTable`] interns each typed path of one relation to a dense
//! [`PathId`] and precomputes those relations as bitset matrices, so that
//! subsumption pruning, resolution, and query chaining become pure bitset
//! operations instead of repeated `Path` allocation and comparison.
//!
//! [`PathSet`] is the companion fixed-width bitset over a table's id space;
//! [`SchemaTables`] builds one shared (reference-counted) table per
//! relation of a schema, compiled once and reused by every decision
//! procedure and every query.

use crate::path::Path;
use crate::typing::{paths_of_record, PathTypeError};
use nfd_model::{Label, RecordType, Schema};
use std::collections::HashMap;
use std::sync::Arc;

/// Dense identifier of a path within one relation's [`PathTable`].
///
/// Ids are assigned in the order of
/// [`paths_of_record`] — shortest-first,
/// then declaration order — so they are stable for a given schema.
pub type PathId = u32;

/// A fixed-width bitset over one [`PathTable`]'s id space.
///
/// All sets drawn from the same table have the same width, so subset,
/// union and intersection are straight word-wise loops. Iteration yields
/// ids in ascending order, which doubles as the canonical sorted order of
/// an LHS.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PathSet {
    bits: Box<[u64]>,
}

impl PathSet {
    /// The empty set over `words` 64-bit words (see [`PathTable::words`]).
    pub fn empty(words: usize) -> PathSet {
        PathSet {
            bits: vec![0; words].into_boxed_slice(),
        }
    }

    /// A set over `words` words containing exactly `ids`.
    pub fn from_ids(words: usize, ids: impl IntoIterator<Item = PathId>) -> PathSet {
        let mut s = PathSet::empty(words);
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// Inserts `id`; returns whether it was newly added.
    pub fn insert(&mut self, id: PathId) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        let fresh = self.bits[w] & (1 << b) == 0;
        self.bits[w] |= 1 << b;
        fresh
    }

    /// Removes `id`; returns whether it was present.
    pub fn remove(&mut self, id: PathId) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        let had = self.bits[w] & (1 << b) != 0;
        self.bits[w] &= !(1 << b);
        had
    }

    /// Does the set contain `id`?
    pub fn contains(&self, id: PathId) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        self.bits.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Is `self ⊆ other`?
    pub fn is_subset(&self, other: &PathSet) -> bool {
        self.bits
            .iter()
            .zip(other.bits.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Do the sets share an element?
    pub fn intersects(&self, other: &PathSet) -> bool {
        self.bits
            .iter()
            .zip(other.bits.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// `self ∪= other`.
    pub fn union_with(&mut self, other: &PathSet) {
        for (a, b) in self.bits.iter_mut().zip(other.bits.iter()) {
            *a |= b;
        }
    }

    /// `self ∩= other`.
    pub fn intersect_with(&mut self, other: &PathSet) {
        for (a, b) in self.bits.iter_mut().zip(other.bits.iter()) {
            *a &= b;
        }
    }

    /// `self \= other`.
    pub fn difference_with(&mut self, other: &PathSet) {
        for (a, b) in self.bits.iter_mut().zip(other.bits.iter()) {
            *a &= !b;
        }
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The ids, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = PathId> + '_ {
        self.bits.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let b = w.trailing_zeros();
                w &= w - 1;
                Some(wi as u32 * 64 + b)
            })
        })
    }

    /// The ids as a sorted `Vec`.
    pub fn to_vec(&self) -> Vec<PathId> {
        self.iter().collect()
    }

    /// The raw 64-bit words backing the set — what the pool indices
    /// store and compare row by row. Word `w` bit `b` is id `w * 64 + b`.
    pub fn as_words(&self) -> &[u64] {
        &self.bits
    }
}

impl std::fmt::Debug for PathSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The compiled path table of one relation: every typed path interned to a
/// dense [`PathId`], with the prefix and follows relations as bitset
/// matrices and the record structure (parents, children, set-of-records
/// flags) resolved up front.
pub struct PathTable {
    relation: Label,
    paths: Vec<Path>,
    index: HashMap<Path, PathId>,
    words: usize,
    /// `parent[i]`: id of `paths[i]` minus its last label, when non-empty.
    parent: Vec<Option<PathId>>,
    /// Row `i`: `{j : paths[j] is a prefix of paths[i]}` (including `i`).
    prefixes_of: Vec<PathSet>,
    /// Row `i`: `{j : paths[i] is a proper prefix of paths[j]}`.
    extensions_of: Vec<PathSet>,
    /// Row `i`: `{j : paths[j] follows paths[i]}` (Definition 3.2).
    followers_of: Vec<PathSet>,
    /// Record-structure children: `children[i] = {j : parent[j] == i}`.
    children: Vec<Vec<PathId>>,
    /// Does `paths[i]` resolve to a set-of-records type?
    set_record: Vec<bool>,
}

impl PathTable {
    /// Compiles the table for `relation`'s element record type.
    pub fn from_record(relation: Label, rec: &RecordType) -> PathTable {
        let paths = paths_of_record(rec);
        let n = paths.len();
        let words = n.div_ceil(64).max(1);
        let index: HashMap<Path, PathId> = paths
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), u32::try_from(i).expect("path table fits u32")))
            .collect();
        let parent: Vec<Option<PathId>> = paths
            .iter()
            .map(|p| {
                let par = p.parent().expect("table paths are non-empty");
                if par.is_empty() {
                    None
                } else {
                    Some(index[&par])
                }
            })
            .collect();
        let mut prefixes_of = vec![PathSet::empty(words); n];
        let mut extensions_of = vec![PathSet::empty(words); n];
        let mut followers_of = vec![PathSet::empty(words); n];
        for (i, p) in paths.iter().enumerate() {
            for (j, q) in paths.iter().enumerate() {
                if q.is_prefix_of(p) {
                    prefixes_of[i].insert(j as u32);
                    if i != j {
                        extensions_of[j].insert(i as u32);
                    }
                }
                if q.follows(p) {
                    followers_of[i].insert(j as u32);
                }
            }
        }
        let mut children = vec![Vec::new(); n];
        for (j, par) in parent.iter().enumerate() {
            if let Some(i) = par {
                children[*i as usize].push(j as u32);
            }
        }
        let set_record: Vec<bool> = paths
            .iter()
            .map(|p| {
                crate::typing::resolve_in_record(rec, p)
                    .is_ok_and(|ty| ty.element_record().is_some())
            })
            .collect();
        PathTable {
            relation,
            paths,
            index,
            words,
            parent,
            prefixes_of,
            extensions_of,
            followers_of,
            children,
            set_record,
        }
    }

    /// Compiles the table for a named relation of `schema`.
    pub fn for_relation(schema: &Schema, relation: Label) -> Result<PathTable, PathTypeError> {
        let rec = schema
            .relation_type(relation)
            .map_err(|_| PathTypeError::UnknownRelation(relation))?
            .element_record()
            .ok_or(PathTypeError::BaseNotSet {
                path: relation.to_string(),
            })?;
        Ok(PathTable::from_record(relation, rec))
    }

    /// The relation this table describes.
    pub fn relation(&self) -> Label {
        self.relation
    }

    /// Number of interned paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Is the table empty (a relation of no attributes)?
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Width of this table's [`PathSet`]s in 64-bit words.
    pub fn words(&self) -> usize {
        self.words
    }

    /// A fresh empty set over this table's id space.
    pub fn empty_set(&self) -> PathSet {
        PathSet::empty(self.words)
    }

    /// The set of all ids of this table.
    pub fn full_set(&self) -> PathSet {
        PathSet::from_ids(self.words, 0..self.paths.len() as u32)
    }

    /// The path with id `id`.
    pub fn path(&self, id: PathId) -> &Path {
        &self.paths[id as usize]
    }

    /// All paths, in id order.
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// The id of `p`, when `p` is a path of this relation.
    pub fn id_of(&self, p: &Path) -> Option<PathId> {
        self.index.get(p).copied()
    }

    /// The id of `p` minus its last label (`None` for single-label paths,
    /// whose parent is the empty path).
    pub fn parent(&self, id: PathId) -> Option<PathId> {
        self.parent[id as usize]
    }

    /// Is `paths[a]` a prefix of `paths[b]` (Definition 2.2, reflexive)?
    pub fn is_prefix(&self, a: PathId, b: PathId) -> bool {
        self.prefixes_of[b as usize].contains(a)
    }

    /// Is `paths[a]` a proper prefix of `paths[b]`?
    pub fn is_proper_prefix(&self, a: PathId, b: PathId) -> bool {
        a != b && self.is_prefix(a, b)
    }

    /// Does `paths[a]` *follow* `paths[b]` (Definition 3.2)?
    pub fn follows(&self, a: PathId, b: PathId) -> bool {
        self.followers_of[b as usize].contains(a)
    }

    /// The prefixes of `paths[id]` within the table, including `id`.
    pub fn prefixes_of(&self, id: PathId) -> &PathSet {
        &self.prefixes_of[id as usize]
    }

    /// The ids that `paths[id]` is a proper prefix of.
    pub fn extensions_of(&self, id: PathId) -> &PathSet {
        &self.extensions_of[id as usize]
    }

    /// The ids whose paths follow `paths[id]`.
    pub fn followers_of(&self, id: PathId) -> &PathSet {
        &self.followers_of[id as usize]
    }

    /// The one-label extensions of `paths[id]` (its record attributes,
    /// when it is set-of-records typed).
    pub fn children(&self, id: PathId) -> &[PathId] {
        &self.children[id as usize]
    }

    /// Does `paths[id]` resolve to a set-of-records type?
    pub fn is_set_record(&self, id: PathId) -> bool {
        self.set_record[id as usize]
    }

    /// The proper prefixes of `paths[id]`, ascending by length — the parent
    /// chain, the table-level analogue of [`Path::prefixes`].
    pub fn ancestors(&self, id: PathId) -> Vec<PathId> {
        let mut chain = Vec::new();
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            chain.push(p);
            cur = self.parent(p);
        }
        chain.reverse();
        chain
    }
}

impl std::fmt::Debug for PathTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PathTable")
            .field("relation", &self.relation)
            .field("len", &self.paths.len())
            .finish()
    }
}

/// The compiled path tables of a whole schema, one shared table per
/// relation. Build once, hand `Arc` clones to every decision procedure.
#[derive(Clone, Debug)]
pub struct SchemaTables {
    tables: HashMap<Label, Arc<PathTable>>,
}

impl SchemaTables {
    /// Compiles every relation of `schema`.
    pub fn new(schema: &Schema) -> Result<SchemaTables, PathTypeError> {
        let mut tables = HashMap::new();
        for relation in schema.relation_names() {
            tables.insert(
                relation,
                Arc::new(PathTable::for_relation(schema, relation)?),
            );
        }
        Ok(SchemaTables { tables })
    }

    /// The table of `relation`, if it exists in the schema.
    pub fn get(&self, relation: Label) -> Option<&Arc<PathTable>> {
        self.tables.get(&relation)
    }

    /// All `(relation, table)` pairs, in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (Label, &Arc<PathTable>)> {
        self.tables.iter().map(|(l, t)| (*l, t))
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Is the schema empty?
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn course() -> Schema {
        Schema::parse(
            "Course : { <cnum: string, time: int,
                         students: {<sid: int, age: int, grade: string>},
                         books: {<isbn: string, title: string>}> };",
        )
        .unwrap()
    }

    #[test]
    fn interning_matches_paths_of_record() {
        let schema = course();
        let t = PathTable::for_relation(&schema, Label::new("Course")).unwrap();
        assert_eq!(t.len(), 4 + 3 + 2); // top-level + students + books
        for (i, p) in t.paths().iter().enumerate() {
            assert_eq!(t.id_of(p), Some(i as u32));
            assert_eq!(t.path(i as u32), p);
        }
        assert_eq!(t.id_of(&Path::parse("no_such").unwrap()), None);
    }

    #[test]
    fn matrices_agree_with_path_predicates() {
        let schema = course();
        let t = PathTable::for_relation(&schema, Label::new("Course")).unwrap();
        for a in 0..t.len() as u32 {
            for b in 0..t.len() as u32 {
                let (pa, pb) = (t.path(a), t.path(b));
                assert_eq!(t.is_prefix(a, b), pa.is_prefix_of(pb), "{pa} ≤ {pb}");
                assert_eq!(t.is_proper_prefix(a, b), pa.is_proper_prefix_of(pb));
                assert_eq!(t.follows(a, b), pa.follows(pb), "{pa} follows {pb}");
                assert_eq!(t.extensions_of(a).contains(b), pa.is_proper_prefix_of(pb));
                assert_eq!(t.followers_of(b).contains(a), pa.follows(pb));
            }
        }
    }

    #[test]
    fn structure_fields() {
        let schema = course();
        let t = PathTable::for_relation(&schema, Label::new("Course")).unwrap();
        let students = t.id_of(&Path::parse("students").unwrap()).unwrap();
        let sid = t.id_of(&Path::parse("students:sid").unwrap()).unwrap();
        assert!(t.is_set_record(students));
        assert!(!t.is_set_record(sid));
        assert_eq!(t.parent(sid), Some(students));
        assert_eq!(t.parent(students), None);
        assert_eq!(t.children(students).len(), 3);
        assert_eq!(t.ancestors(sid), vec![students]);
    }

    #[test]
    fn path_set_algebra() {
        let mut a = PathSet::empty(2);
        assert!(a.is_empty());
        assert!(a.insert(3));
        assert!(!a.insert(3));
        assert!(a.insert(100));
        assert_eq!(a.len(), 2);
        assert_eq!(a.to_vec(), vec![3, 100]);
        let b = PathSet::from_ids(2, [3, 100, 7]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.intersects(&b));
        let mut c = a.clone();
        c.union_with(&b);
        assert_eq!(c.to_vec(), vec![3, 7, 100]);
        c.difference_with(&a);
        assert_eq!(c.to_vec(), vec![7]);
        assert!(c.remove(7));
        assert!(!c.remove(7));
        assert!(c.is_empty());
        assert!(!c.contains(7));
    }

    #[test]
    fn schema_tables_cover_all_relations() {
        let schema = Schema::parse("R : {<A: int>}; S : {<X: int, Y: int>};").unwrap();
        let tables = SchemaTables::new(&schema).unwrap();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables.get(Label::new("R")).unwrap().len(), 1);
        assert_eq!(tables.get(Label::new("S")).unwrap().len(), 2);
        assert!(tables.get(Label::new("T")).is_none());
    }

    #[test]
    fn interned_tables_are_send_and_sync() {
        // The parallel batch executor shares compiled tables across
        // worker threads: everything here must be immutable-after-build
        // with no interior mutability. (`Label` interning goes through a
        // global `RwLock`, so labels stay `Send + Sync` too.)
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PathTable>();
        assert_send_sync::<SchemaTables>();
        assert_send_sync::<PathSet>();
        assert_send_sync::<Label>();

        // And shared reads really do agree across threads.
        let schema = Schema::parse("R : {<A: int, B: {<C: int>}>};").unwrap();
        let tables = SchemaTables::new(&schema).unwrap();
        let table = tables.get(Label::new("R")).unwrap();
        let expect: Vec<String> = (0..table.len() as PathId)
            .map(|id| table.path(id).to_string())
            .collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        (0..table.len() as PathId)
                            .map(|id| table.path(id).to_string())
                            .collect::<Vec<String>>()
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), expect);
            }
        });
    }
}
