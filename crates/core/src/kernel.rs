//! Occurrence indices and the counting-based closure kernel.
//!
//! The saturation engine of [`crate::engine`] is specified as two nested
//! scans: `add` walks the whole pool to check subsumption, and
//! `chain`/`chain_bounded` rescans every pool entry per fixed-point round.
//! This module supplies the index structures that replace those scans
//! while reproducing the naive implementation's behaviour *exactly* —
//! same pool, same subsumption flags, same `fired` provenance maps — so
//! proof reconstruction and the differential oracle stay bit-identical
//! (see DESIGN.md §9 and `crates/core/src/naive.rs`).
//!
//! Three pieces live here:
//!
//! * [`DepIndex`] — per-relation indices over the pool: one live bucket
//!   per RHS holding the unsubsumed entries with their LHS words inline
//!   (for subsumption and supplier-side resolution candidates), and a
//!   `path → deps whose LHS contains it` index (for target-side
//!   resolution candidates and for the counting kernel's decrements).
//! * [`ChainScratch`] + [`chain_counting`] — counting-based forward
//!   chaining (unit propagation): per-dep unsatisfied-LHS counters seeded
//!   from the query set, decremented as paths join the closure. The
//!   firing *order* replays the naive pass scan exactly — see the
//!   function docs for the scan-position discipline that makes the
//!   `fired` maps identical.
//! * [`ClosureCache`] — a bounded LRU cache over chain results, attached
//!   to a session so repeated implication queries and candidate-key
//!   sweeps stop recomputing identical closures.

use nfd_model::Label;
use nfd_path::table::{PathId, PathSet};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Indices over a relation's dependency pool.
///
/// Maintained incrementally by `RelEngine::add`: entry `i`'s LHS and RHS
/// are immutable once pushed (only the `subsumed` flag changes, and only
/// from `false` to `true`). The LHS-occurrence lists keep every entry —
/// subsumed ones must remain visible to bounded chaining, because proof
/// reconstruction bounds `max` below the index of the entry that
/// subsumed them. The live buckets keep only unsubsumed entries: `add`
/// evicts a row in the same step that flags its entry subsumed, so
/// subsumption and resolution never revisit retired entries.
#[derive(Clone, Debug)]
pub(crate) struct DepIndex {
    /// Words per LHS row — the relation's [`PathSet`] width.
    stride: usize,
    /// `live[r]` = the unsubsumed entries whose RHS is path `r`. Dense
    /// over the relation's path-id space.
    live: Vec<LiveBucket>,
    /// `lhs_occ[p]` = pool indices of deps whose LHS contains path `p`,
    /// in insertion order. Dense over the relation's path-id space.
    lhs_occ: Vec<Vec<usize>>,
    /// `lhs_len[i]` = |LHS| of pool entry `i` — the counting kernel's
    /// initial unsatisfied counter.
    lhs_len: Vec<u32>,
    /// Pool indices of entries with an empty LHS (always-ready deps; the
    /// seeding loops never touch them because no path occurrence exists).
    empty_lhs: Vec<usize>,
}

/// The unsubsumed pool entries with one RHS: row `k` is pool entry
/// `idx[k]`, whose LHS words are `words[k * stride..][..stride]`. Rows
/// are unordered — eviction swaps the last row into the hole — which
/// is sound because every reader either tests for existence, acts on
/// the whole matching set, or sorts what it draws.
#[derive(Clone, Debug, Default)]
struct LiveBucket {
    idx: Vec<usize>,
    words: Vec<u64>,
}

/// `a ⊆ b` over raw bitset words of equal width.
fn words_subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

impl DepIndex {
    /// An empty index over a table of `paths` interned paths whose sets
    /// are `stride` words wide.
    pub(crate) fn new(paths: usize, stride: usize) -> DepIndex {
        DepIndex {
            stride,
            live: vec![LiveBucket::default(); paths],
            lhs_occ: vec![Vec::new(); paths],
            lhs_len: Vec::new(),
            empty_lhs: Vec::new(),
        }
    }

    /// Registers pool entry `lhs_len.len()` as live (callers push to the
    /// pool and the index in lock-step).
    pub(crate) fn push(&mut self, lhs: &PathSet, rhs: PathId) {
        let di = self.lhs_len.len();
        let bucket = &mut self.live[rhs as usize];
        bucket.idx.push(di);
        bucket.words.extend_from_slice(lhs.as_words());
        let mut n: u32 = 0;
        for p in lhs.iter() {
            self.lhs_occ[p as usize].push(di);
            n += 1;
        }
        self.lhs_len.push(n);
        if n == 0 {
            self.empty_lhs.push(di);
        }
    }

    /// Is some live entry with RHS `rhs` an LHS-subset of `lhs` (so it
    /// subsumes the candidate `lhs → rhs`)?
    pub(crate) fn live_subset_of(&self, rhs: PathId, lhs: &PathSet) -> bool {
        let lhs = lhs.as_words();
        self.live[rhs as usize]
            .words
            .chunks_exact(self.stride)
            .any(|row| words_subset(row, lhs))
    }

    /// Evicts every live entry with RHS `rhs` whose LHS contains `lhs`,
    /// calling `evicted` with each one's pool index.
    pub(crate) fn evict_live_supersets(
        &mut self,
        rhs: PathId,
        lhs: &PathSet,
        mut evicted: impl FnMut(usize),
    ) {
        let (lhs, stride) = (lhs.as_words(), self.stride);
        let bucket = &mut self.live[rhs as usize];
        let mut k = 0;
        while k < bucket.idx.len() {
            if !words_subset(lhs, &bucket.words[k * stride..(k + 1) * stride]) {
                k += 1;
                continue;
            }
            evicted(bucket.idx.swap_remove(k));
            let last = bucket.idx.len();
            if k != last {
                bucket
                    .words
                    .copy_within(last * stride..(last + 1) * stride, k * stride);
            }
            bucket.words.truncate(last * stride);
        }
    }

    /// Pool indices of the live entries whose RHS is `rhs`, unordered.
    pub(crate) fn live_with_rhs(&self, rhs: PathId) -> &[usize] {
        &self.live[rhs as usize].idx
    }

    /// Does every live bucket hold exactly `stride` words per pool index?
    /// If not, [`DepIndex::live_rows`] would silently drop the surplus.
    pub(crate) fn live_rows_aligned(&self) -> bool {
        self.live
            .iter()
            .all(|bucket| bucket.words.len() == bucket.idx.len() * self.stride)
    }

    /// Every live row as `(rhs, pool index, LHS words)` — the census
    /// `Engine::check_invariants` holds against the pool.
    pub(crate) fn live_rows(&self) -> impl Iterator<Item = (PathId, usize, &[u64])> + '_ {
        self.live.iter().enumerate().flat_map(move |(rhs, bucket)| {
            bucket
                .idx
                .iter()
                .zip(bucket.words.chunks_exact(self.stride))
                .map(move |(&j, row)| (rhs as PathId, j, row))
        })
    }

    /// Pool indices of entries whose LHS contains `p`, in pool order.
    pub(crate) fn with_lhs_containing(&self, p: PathId) -> &[usize] {
        self.lhs_occ
            .get(p as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of registered entries.
    pub(crate) fn len(&self) -> usize {
        self.lhs_len.len()
    }
}

/// A dense bitset of ready pool indices, supporting the two queries the
/// scan-position discipline needs: "smallest set bit ≥ pos" and
/// "smallest set bit overall". Inserts and clears are O(1); the scans
/// walk 64 indices per word, which beats an ordered tree by a wide
/// constant on realistic pool sizes (a few hundred to a few thousand
/// entries).
#[derive(Debug, Default)]
struct ReadyBits {
    words: Vec<u64>,
}

impl ReadyBits {
    /// Clears and resizes for indices `0..max`.
    fn reset(&mut self, max: usize) {
        self.words.clear();
        self.words.resize(max.div_ceil(64), 0);
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Smallest set index `≥ pos`, if any.
    fn next_at_or_after(&self, pos: usize) -> Option<usize> {
        let mut w = pos / 64;
        if w >= self.words.len() {
            return None;
        }
        // Mask off bits below `pos` in its word, then scan forward.
        let mut word = self.words[w] & (u64::MAX << (pos % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= self.words.len() {
                return None;
            }
            word = self.words[w];
        }
    }
}

/// Reusable buffers for [`chain_counting`] — allocate once, chain many
/// times (`singleton_round` candidates, candidate-key sweeps).
#[derive(Debug, Default)]
pub(crate) struct ChainScratch {
    /// Unsatisfied-LHS counter per pool entry (`< max` slice active).
    counts: Vec<u32>,
    /// Entries whose counter reached zero and whose `need_x` gate passed,
    /// not yet fired. A bitset over pool indices, so the scan-position
    /// discipline can find "smallest ready index ≥ pos" by word scan.
    ready: ReadyBits,
}

/// Counting-based forward chaining over a dependency pool, replaying the
/// naive pass scan's firing order exactly.
///
/// The naive `chain_bounded` repeats index-order passes over
/// `deps[..max]`, firing every applicable entry in place (Gauss–Seidel:
/// later entries in the same pass see earlier firings), until a pass
/// changes nothing. Its `fired` map records, per derived path, the
/// *first* entry that produced it under that order. To reproduce those
/// maps without rescanning, this kernel tracks a virtual scan position:
///
/// * an entry becomes *ready* when its unsatisfied-LHS counter reaches
///   zero and its compiled `need_x` gate passes for this query's `X`;
/// * each step fires the smallest ready index `≥ pos` (the entry the
///   naive scan would reach next in the current pass), else wraps to the
///   smallest ready index overall (the naive scan's next pass);
/// * after considering index `di`, `pos = di + 1`;
/// * a ready entry whose RHS is already in the closure at pop time is
///   discarded, exactly as the naive scan skips it.
///
/// Counters are seeded from [`DepIndex::push`]'s `lhs_len` and
/// decremented through the LHS-occurrence index, so each entry is touched
/// O(|LHS|) times instead of once per pass. Subsumed entries participate
/// (bounded proof reconstruction relies on them); `max` bounds which
/// entries exist at all. The gate is evaluated lazily — only when a
/// counter reaches zero — because under `EmptySetPolicy::Forbidden` it
/// always passes and per-entry-per-pass gate checks were pure waste.
pub(crate) fn chain_counting(
    deps: &[crate::engine::CDep],
    index: &DepIndex,
    words: usize,
    x: &[PathId],
    mut fired: Option<&mut HashMap<PathId, usize>>,
    max: usize,
    scratch: &mut ChainScratch,
) -> PathSet {
    let x_set = PathSet::from_ids(words, x.iter().copied());
    let mut c = x_set.clone();
    let max = max.min(deps.len());

    scratch.counts.clear();
    scratch.counts.extend_from_slice(&index.lhs_len[..max]);
    scratch.ready.reset(max);

    // A ready entry whose RHS is already in the closure would be popped
    // and discarded without firing; since `c` only grows, that discard is
    // predictable at readiness time, and skipping the insertion entirely
    // leaves the fired sequence unchanged (a discarded pop only advances
    // `pos` past an index no other ready entry occupies). Saturated pools
    // are full of such entries — e.g. every derived transitive edge whose
    // RHS an earlier pool entry already produced — so this check is what
    // keeps the ready set proportional to the *productive* firings.

    // Constant-form entries (empty LHS) are ready from the start; no path
    // occurrence exists to count them down.
    for &di in &index.empty_lhs {
        if di < max && !c.contains(deps[di].rhs) && deps[di].need_x.is_subset(&x_set) {
            scratch.ready.insert(di);
        }
    }
    // Seed the counters from the query set. `x_set.iter()` deduplicates,
    // so a path repeated in `x` decrements each occurrence exactly once.
    for p in x_set.iter() {
        for &di in index.with_lhs_containing(p) {
            if di >= max {
                continue;
            }
            scratch.counts[di] -= 1;
            if scratch.counts[di] == 0
                && !c.contains(deps[di].rhs)
                && deps[di].need_x.is_subset(&x_set)
            {
                scratch.ready.insert(di);
            }
        }
    }

    let mut pos: usize = 0;
    loop {
        let di = match scratch.ready.next_at_or_after(pos) {
            Some(d) => d,
            None => match scratch.ready.next_at_or_after(0) {
                Some(d) => d, // wrap: the naive scan's next pass
                None => break,
            },
        };
        scratch.ready.clear(di);
        pos = di + 1;
        let rhs = deps[di].rhs;
        if c.contains(rhs) {
            continue; // another entry beat it to this RHS: naive skip
        }
        c.insert(rhs);
        if let Some(f) = fired.as_deref_mut() {
            f.entry(rhs).or_insert(di);
        }
        for &dj in index.with_lhs_containing(rhs) {
            if dj >= max {
                continue;
            }
            // `rhs` newly joined `c`, so every entry counting it still
            // has a positive counter: the decrement cannot underflow.
            scratch.counts[dj] -= 1;
            if scratch.counts[dj] == 0
                && !c.contains(deps[dj].rhs)
                && deps[dj].need_x.is_subset(&x_set)
            {
                scratch.ready.insert(dj);
            }
        }
    }
    c
}

/// Statistics of a [`ClosureCache`] — monotone hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a chain computation.
    pub misses: u64,
}

/// A bounded LRU cache over closure (chain) results.
///
/// Keyed by `(relation, normalized LHS PathSet)`. The third component of
/// the conceptual key — the empty-set policy — is fixed at construction
/// time: a cache is scoped to one `(Σ, policy)` compilation, and
/// `Session::reconfigure` creates a fresh one, so entries can never leak
/// across policies. Caching is sound because the closure `C(X)` is a
/// pure function of the saturated pool and `X` (the `need_x` gate
/// depends only on `X`), and chaining consumes no budget counters — so a
/// cache hit can never flip a counter-limited verdict, only skip work.
///
/// Eviction is approximate-LRU: each entry carries a last-use stamp from
/// a monotone clock; when the map exceeds capacity, the older half (by
/// stamp) is dropped in one O(n) sweep, amortizing eviction to O(1) per
/// insert without a linked-list LRU.
///
/// Caches at or above `CACHE_SHARD_THRESHOLD` capacity are split into
/// `CACHE_SHARDS` independently locked shards (selected by key hash),
/// so a read-parallel pool sharing one cache does not serialize on a
/// single mutex. Capacity, clocks and halving eviction are per shard;
/// keys hash uniformly, so the bound still holds globally. Tiny caches
/// stay single-sharded — splitting a handful of entries would make the
/// per-shard LRU meaningless.
#[derive(Debug)]
pub struct ClosureCache {
    shards: Box<[Mutex<CacheInner>]>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<(Label, PathSet), (PathSet, u64)>,
    clock: u64,
}

/// Default capacity used by sessions (entries, not bytes).
pub const DEFAULT_CLOSURE_CACHE_CAPACITY: usize = 4096;

/// Caches with at least this capacity are lock-sharded.
pub const CACHE_SHARD_THRESHOLD: usize = 256;

/// Shard count for lock-sharded caches.
pub const CACHE_SHARDS: usize = 8;

fn lock_shard(shard: &Mutex<CacheInner>) -> std::sync::MutexGuard<'_, CacheInner> {
    match shard.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl ClosureCache {
    /// An empty cache holding at most `capacity` entries (minimum 2, so
    /// the halving eviction always makes progress).
    pub fn with_capacity(capacity: usize) -> ClosureCache {
        let capacity = capacity.max(2);
        let n = if capacity >= CACHE_SHARD_THRESHOLD {
            CACHE_SHARDS
        } else {
            1
        };
        ClosureCache {
            shards: (0..n).map(|_| Mutex::new(CacheInner::default())).collect(),
            shard_capacity: (capacity / n).max(2),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, relation: &Label, x: &PathSet) -> &Mutex<CacheInner> {
        if self.shards.len() == 1 {
            return &self.shards[0];
        }
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        relation.hash(&mut h);
        x.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Looks up the closure of `x` in `relation`, refreshing its LRU
    /// stamp on a hit.
    pub fn get(&self, relation: Label, x: &PathSet) -> Option<PathSet> {
        let mut inner = lock_shard(self.shard_of(&relation, x));
        inner.clock += 1;
        let now = inner.clock;
        // Key by reference would need a borrowed key type; the clone is a
        // couple of words for realistic schemas.
        match inner.map.get_mut(&(relation, x.clone())) {
            Some((c, stamp)) => {
                *stamp = now;
                let c = c.clone();
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(c)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a computed closure, evicting the older half of its shard
    /// if the shard is full.
    pub fn insert(&self, relation: Label, x: PathSet, closure: PathSet) {
        let mut inner = lock_shard(self.shard_of(&relation, &x));
        inner.clock += 1;
        let now = inner.clock;
        if inner.map.len() >= self.shard_capacity && !inner.map.contains_key(&(relation, x.clone()))
        {
            let mut stamps: Vec<u64> = inner.map.values().map(|&(_, s)| s).collect();
            let mid = stamps.len() / 2;
            let (_, &mut cutoff, _) = stamps.select_nth_unstable(mid);
            inner.map.retain(|_, &mut (_, s)| s > cutoff);
        }
        inner.map.insert((relation, x), (closure, now));
    }

    /// Drops every cached closure for `relation`, returning how many
    /// entries were evicted. Scoped invalidation for live Σ mutation:
    /// closures are pure functions of a *relation's* saturated pool, so
    /// when `Engine::add_dep`/`remove_dep` rebuild one relation the other
    /// relations' entries stay warm (see DESIGN.md §12).
    pub fn invalidate_relation(&self, relation: Label) -> usize {
        let mut evicted = 0;
        for shard in self.shards.iter() {
            let mut inner = lock_shard(shard);
            let before = inner.map.len();
            inner.map.retain(|&(r, _), _| r != relation);
            evicted += before - inner.map.len();
        }
        evicted
    }

    /// Dumps every cached closure as `(relation, key, closure)` triples,
    /// sorted by `(relation text, key words)` so the dump — and therefore
    /// a snapshot embedding it — is deterministic regardless of hash
    /// order (and of shard layout). LRU stamps are not exported: recency
    /// is an ephemeral property of the serving process, not of the
    /// closures.
    pub fn export(&self) -> Vec<(Label, PathSet, PathSet)> {
        let mut out: Vec<(Label, PathSet, PathSet)> = Vec::new();
        for shard in self.shards.iter() {
            let inner = lock_shard(shard);
            out.extend(
                inner
                    .map
                    .iter()
                    .map(|((r, k), (c, _))| (*r, k.clone(), c.clone())),
            );
        }
        out.sort_by(|a, b| {
            (a.0.to_string(), a.1.as_words()).cmp(&(b.0.to_string(), b.1.as_words()))
        });
        out
    }

    /// Bulk-inserts entries (from [`ClosureCache::export`] of a prior
    /// process), assigning fresh monotone LRU stamps in iteration order.
    /// Entries beyond capacity are subject to the usual halving eviction.
    /// Soundness is the caller's obligation: the entries must come from
    /// the same `(Σ, policy)` compilation this cache is scoped to —
    /// snapshot thaw only imports after the full differential validation
    /// of the compiled sections.
    pub fn import(&self, entries: impl IntoIterator<Item = (Label, PathSet, PathSet)>) {
        for (relation, key, closure) in entries {
            self.insert(relation, key, closure);
        }
    }

    /// Hit/miss counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Current number of cached closures.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| lock_shard(shard).map.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn label(s: &str) -> Label {
        Label::new(s)
    }

    fn set(words: usize, ids: &[PathId]) -> PathSet {
        PathSet::from_ids(words, ids.iter().copied())
    }

    #[test]
    fn live_buckets_reject_evict_and_keep_rows_aligned() {
        // Two-word rows, so eviction has to move whole rows, not words.
        let mut index = DepIndex::new(128, 2);
        let rows = [set(2, &[1, 70]), set(2, &[2, 80]), set(2, &[3, 90])];
        for row in &rows {
            index.push(row, 0);
        }
        index.push(&set(2, &[1]), 5);
        assert!(index.live_subset_of(0, &set(2, &[1, 5, 70])));
        assert!(!index.live_subset_of(0, &set(2, &[1, 80])));
        assert!(!index.live_subset_of(4, &set(2, &[1, 70])));

        let mut evicted = Vec::new();
        index.evict_live_supersets(0, &set(2, &[70]), |j| evicted.push(j));
        assert_eq!(evicted, [0]);
        let live: Vec<(PathId, usize, Vec<u64>)> = index
            .live_rows()
            .map(|(rhs, j, row)| (rhs, j, row.to_vec()))
            .collect();
        assert_eq!(
            live,
            [
                (0, 2, rows[2].as_words().to_vec()),
                (0, 1, rows[1].as_words().to_vec()),
                (5, 3, set(2, &[1]).as_words().to_vec()),
            ]
        );
        assert!(index.live_subset_of(0, &set(2, &[3, 90])));
        assert!(!index.live_subset_of(0, &set(2, &[1, 70])));
        // The occurrence lists keep the evicted entry.
        assert_eq!(index.with_lhs_containing(70), [0]);
        assert_eq!(index.len(), 4);
    }

    #[test]
    fn cache_round_trip_and_stats() {
        let cache = ClosureCache::with_capacity(8);
        let r = label("R");
        let key = set(1, &[0, 2]);
        assert_eq!(cache.get(r, &key), None);
        cache.insert(r, key.clone(), set(1, &[0, 2, 5]));
        assert_eq!(cache.get(r, &key), Some(set(1, &[0, 2, 5])));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn cache_evicts_older_half_when_full() {
        let cache = ClosureCache::with_capacity(4);
        let r = label("R");
        for i in 0..4u32 {
            cache.insert(r, set(1, &[i]), set(1, &[i]));
        }
        // Refresh entry 0 so it is the most recently used.
        assert!(cache.get(r, &set(1, &[0])).is_some());
        cache.insert(r, set(1, &[10]), set(1, &[10]));
        assert!(cache.len() <= 4, "eviction must keep the cache bounded");
        assert!(
            cache.get(r, &set(1, &[0])).is_some(),
            "most recently used entry must survive the eviction sweep"
        );
    }

    #[test]
    fn sharded_cache_bound_export_and_invalidate() {
        let cache = ClosureCache::with_capacity(CACHE_SHARD_THRESHOLD);
        let r = label("R");
        let s = label("S");
        for i in 0..200u32 {
            cache.insert(r, set(4, &[i]), set(4, &[i]));
            cache.insert(s, set(4, &[i]), set(4, &[i]));
        }
        // 400 distinct keys against a 256-entry bound: per-shard halving
        // keeps the global bound.
        assert!(cache.len() <= CACHE_SHARD_THRESHOLD);
        // Round trip through the sharded lookup path.
        cache.insert(r, set(4, &[7, 9]), set(4, &[7, 9, 11]));
        assert_eq!(cache.get(r, &set(4, &[7, 9])), Some(set(4, &[7, 9, 11])));
        // Export is sorted regardless of shard layout.
        let dump = cache.export();
        let keys: Vec<_> = dump
            .iter()
            .map(|(rel, k, _)| (rel.to_string(), k.as_words()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // Relation invalidation sweeps every shard.
        assert!(cache.invalidate_relation(r) > 0);
        assert!(cache.export().iter().all(|(rel, _, _)| *rel != r));
    }

    #[test]
    fn keys_distinguish_relations() {
        let cache = ClosureCache::with_capacity(8);
        let key = set(1, &[1]);
        cache.insert(label("R"), key.clone(), set(1, &[1, 2]));
        assert_eq!(cache.get(label("S"), &key), None);
    }
}
