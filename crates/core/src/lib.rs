//! # nfd-core — nested functional dependencies
//!
//! The primary contribution of *"Reasoning about Nested Functional
//! Dependencies"* (Hara & Davidson, PODS 1999), implemented in full:
//!
//! * [`nfd`] — NFDs `x0:[x1,…,xm-1 → xm]` (Definition 2.3), validation
//!   against a schema, parsing and display;
//! * [`satisfy`] — satisfaction `I ⊨ f` (Definition 2.4, read through the
//!   Section 2.2 logic translation), with violation witnesses;
//! * [`rules`] — the eight NFD-rules of Section 3.1 (reflexivity,
//!   augmentation, transitivity, push-in, pull-out, locality, singleton,
//!   prefix) as syntactic transformers, plus *full-locality* from the
//!   simple-form system of Section 3.2;
//! * [`simple`] — the simple form of NFDs (base path = relation name) and
//!   the push-in/pull-out normalization between the two forms;
//! * [`engine`] — a saturation-based implication engine (the decision
//!   procedure behind Theorem 3.1's completeness argument), with recorded
//!   provenance;
//! * [`proof`] — derivation trees replayable as numbered proofs in the
//!   paper's style;
//! * [`closure`] — the path closure `(x0, X, Σ)*` of Appendix A;
//! * [`construct`] — the Appendix A counterexample-instance construction
//!   (`newValue` / `assignX0` / `assignVal` / `assignNew` / `newRow`);
//! * [`emptyset`] — the Section 3.2 empty-set-aware variants: the *follows*
//!   relation gates transitivity, and prefix/locality require non-emptiness
//!   annotations.
//!
//! ## Quick example
//!
//! ```
//! use nfd_model::Schema;
//! use nfd_core::{Nfd, engine::Engine};
//!
//! let schema = Schema::parse(
//!     "R : { <A: {<B: {<C: int>}, E: {<F: int, G: int>}>}, D: int> };",
//! ).unwrap();
//! let sigma = vec![
//!     Nfd::parse(&schema, "R:[A:B:C, D -> A:E:F]").unwrap(),
//!     Nfd::parse(&schema, "R:A:[B -> E:G]").unwrap(),
//! ];
//! let goal = Nfd::parse(&schema, "R:A:[B -> E]").unwrap();
//! let engine = Engine::new(&schema, &sigma).unwrap();
//! assert!(engine.implies(&goal).unwrap()); // the worked proof of §3.1
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod closure;
pub mod construct;
pub mod delta;
pub mod dense;
pub mod emptyset;
pub mod engine;
pub mod error;
pub mod incremental;
mod kernel;
pub mod naive;
pub mod nfd;
pub mod proof;
pub mod rules;
pub mod satisfy;
pub mod select;
pub mod simple;
pub mod view;

pub use delta::DeltaReport;
pub use dense::DenseClosure;
pub use emptyset::EmptySetPolicy;
pub use engine::SchemaRef;
pub use error::CoreError;
pub use kernel::{CacheStats, ClosureCache, DEFAULT_CLOSURE_CACHE_CAPACITY};
pub use nfd::Nfd;
pub use satisfy::{check, SatisfyReport, Violation};
pub use select::{CostFeatures, CostModel, QueryTrace, SelectState, Tier, TierPreference};
