//! Tier names that outlive the tier router.
//!
//! Every `implies` and `closure` query runs one path: the closure-cache
//! lookup, then the counting kernel over the saturated pool (see
//! `Engine::implies_queried`). The names below stay only because the
//! end-to-end benchmark (`nfdbench`) still spells them; the next change to
//! the benchmark can drop them.

/// The name of the closure path that served a query, as reported in
/// `Decision.tier`. Every chain runs on [`Tier::Indexed`]; the other two
/// variants stay only for the benchmark, which counts decisions per
/// variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Never reported; kept only for the benchmark.
    Naive,
    /// The counting kernel behind the closure cache — the only path.
    Indexed,
    /// Never reported; kept only for the benchmark.
    Dense,
}

/// The one value of the retired tier preference. `Session::with_tiers`
/// and `Session::thaw` still take it and ignore it; it stays only for the
/// benchmark, which passes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TierPreference {
    /// The only preference: every query takes the one closure path.
    #[default]
    Auto,
}
