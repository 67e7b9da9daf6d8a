//! Seeded input generation: the random stream, mix apportioning, and the
//! schema/Σ source texts every workload compiles.
//!
//! The schemas and dependency sets are the ones `nfd_bench` builds for
//! the repository's other benches (B14–B18), rendered to the text the
//! program receives. The seed changes *which* inputs a run sees, never
//! *how much work* they are: the only seeded pass here renames the
//! attributes Σ mentions in the flat families through a permutation of
//! each relation's attributes, which gives an isomorphic Σ over the same
//! schema. Goal choice and op order are seeded too. Saturation cost
//! swings by 10× between structurally different Σ of the same size, so a
//! seed that changed structure would make run-to-run spread a property
//! of the seed rather than of the program.
//!
//! The schema text itself is never relabelled. Every source declares its
//! attributes in ascending order, so all processes intern shared labels
//! in the same relative order. When two sources declare the same labels
//! in different orders, a daemon that has loaded one cannot thaw a
//! snapshot of the other: `RESTORE` falls back to a fresh compile.

use std::collections::HashMap;

use nfd::core::Nfd;
use nfd::model::Schema;
use nfd::path::PathTable;

/// splitmix64: small, fast, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        self.shuffle(&mut perm);
        perm
    }
}

/// Zipf(s) over ranks `0..n`: rank 0 is the most popular.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights = zipf_weights(n, s);
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Normalised Zipf(s) probabilities of ranks `0..n`.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    let raw: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
    let total: f64 = raw.iter().sum();
    raw.iter().map(|w| w / total).collect()
}

/// `n` slots apportioned to categories by `weights` (largest remainder),
/// returned in seeded order. Every block of `n` ops therefore has the
/// same mix; only the order is random, which keeps a run's cost from
/// depending on how lucky its draws were.
pub fn quota(weights: &[f64], n: usize, rng: &mut Rng) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let short = n - counts.iter().sum::<usize>();
    for &cat in order.iter().take(short) {
        counts[cat] += 1;
    }
    let mut slots: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(cat, &c)| std::iter::repeat_n(cat, c))
        .collect();
    rng.shuffle(&mut slots);
    slots
}

/// A schema and Σ as one-line source texts (the wire form `LOAD` takes),
/// plus, per relation, the attribute paths goals are drawn from.
#[derive(Clone, Debug, PartialEq)]
pub struct Source {
    /// Schema source text.
    pub schema: String,
    /// Σ source text, `;`-terminated NFDs.
    pub deps: String,
    /// `(relation label, relative attribute paths)` per relation.
    pub relations: Vec<(String, Vec<String>)>,
}

/// Renders `schema` and `sigma` as one-line source texts, with every
/// attribute of Σ renamed through `names` (identity when empty).
fn render(schema: &Schema, sigma: &[Nfd], names: &HashMap<String, String>) -> Source {
    let schema_text = schema.to_string().replace('\n', " ");
    let deps: Vec<String> = sigma.iter().map(|d| format!("{d};")).collect();
    let deps = rename(&deps.join(" "), names);
    let relations = schema
        .relation_names()
        .map(|rel| {
            let table = PathTable::for_relation(schema, rel).expect("a relation has a table");
            let paths = table.paths().iter().map(ToString::to_string).collect();
            (rel.to_string(), paths)
        })
        .collect();
    Source {
        schema: schema_text.trim_end().to_string(),
        deps,
        relations,
    }
}

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// `text` with every identifier that `names` maps replaced.
fn rename(text: &str, names: &HashMap<String, String>) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(start) = rest.find(is_word) {
        out.push_str(&rest[..start]);
        rest = &rest[start..];
        let end = rest.find(|c| !is_word(c)).unwrap_or(rest.len());
        let word = &rest[..end];
        out.push_str(names.get(word).map_or(word, String::as_str));
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

/// A seeded relabelling of a flat schema: within each relation, a
/// permutation of its attribute labels.
fn relabelling(schema: &Schema, rng: &mut Rng) -> HashMap<String, String> {
    let mut names = HashMap::new();
    for (_, ty) in schema.relations() {
        let labels: Vec<String> = ty
            .element_record()
            .expect("a relation is a set of records")
            .labels()
            .map(|l| l.to_string())
            .collect();
        let perm = rng.permutation(labels.len());
        for (i, label) in labels.iter().enumerate() {
            names.insert(label.clone(), labels[perm[i]].clone());
        }
    }
    names
}

/// The paper's Course schema and its seven NFDs.
pub fn course() -> Source {
    let (schema, sigma) = nfd_bench::course();
    render(&schema, &sigma, &HashMap::new())
}

/// `nfd_bench::ladder_schema(depth)` with its per-level keys.
pub fn ladder(depth: usize) -> Source {
    let schema = nfd_bench::ladder_schema(depth);
    let sigma = nfd_bench::ladder_sigma(&schema, depth);
    render(&schema, &sigma, &HashMap::new())
}

/// The transitive chain over `nfd_bench::flat_schema(attrs)`, relabelled.
pub fn chain(attrs: usize, rng: &mut Rng) -> Source {
    let schema = nfd_bench::flat_schema(attrs);
    let sigma = nfd_bench::flat_chain_sigma(&schema, attrs);
    let names = relabelling(&schema, rng);
    render(&schema, &sigma, &names)
}

/// `nfd_bench::wide_sigma(attrs, n)` (B14/B15's hard shape), relabelled.
pub fn wide(attrs: usize, n: usize, rng: &mut Rng) -> Source {
    let schema = nfd_bench::flat_schema(attrs);
    let sigma = nfd_bench::wide_sigma(&schema, attrs, n);
    let names = relabelling(&schema, rng);
    render(&schema, &sigma, &names)
}

/// `nfd_bench::multi_wide_sigma(relations, attrs, n)`: isomorphic copies
/// of the wide family, one per relation, relabelled.
pub fn multi_wide(relations: usize, attrs: usize, n: usize, rng: &mut Rng) -> Source {
    multi_wide_family(relations, attrs, n, 0, rng).0
}

/// [`multi_wide`] plus, per relation, the family's next `extra` NFDs
/// (members `n..n + extra`) under the same relabelling: deps outside Σ
/// whose structure, and so whose cost to add, no seed changes.
pub fn multi_wide_family(
    relations: usize,
    attrs: usize,
    n: usize,
    extra: usize,
    rng: &mut Rng,
) -> (Source, Vec<Vec<String>>) {
    let schema = nfd_bench::multi_flat_schema(relations, attrs);
    let family = nfd_bench::multi_wide_sigma(&schema, relations, attrs, n + extra);
    let names = relabelling(&schema, rng);
    let mut sigma = Vec::new();
    let mut follow_on = Vec::new();
    for members in family.chunks(n + extra) {
        sigma.extend_from_slice(&members[..n]);
        follow_on.push(
            members[n..]
                .iter()
                .map(|d| rename(&d.to_string(), &names))
                .collect(),
        );
    }
    (render(&schema, &sigma, &names), follow_on)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_keeps_the_mix_exact() {
        let mut rng = Rng::new(7, 0);
        let slots = quota(&[0.55, 0.25, 0.15, 0.05], 20, &mut rng);
        let count = |c| slots.iter().filter(|&&s| s == c).count();
        assert_eq!([count(0), count(1), count(2), count(3)], [11, 5, 3, 1]);
    }

    #[test]
    fn relabelling_keeps_structure() {
        let a = wide(12, 24, &mut Rng::new(1, 0));
        let b = wide(12, 24, &mut Rng::new(2, 0));
        assert_ne!(a.deps, b.deps);
        assert_eq!(a.schema, b.schema);
        let canonical = nfd_bench::flat_schema(12);
        let sigma = nfd_bench::wide_sigma(&canonical, 12, 24);
        assert_eq!(a.deps.matches(';').count(), sigma.len());
    }

    #[test]
    fn rename_touches_whole_identifiers_only() {
        let names = HashMap::from([("a1".to_string(), "a12".to_string())]);
        assert_eq!(rename("R:[a1, a12 -> a1];", &names), "R:[a12, a12 -> a12];");
    }
}
