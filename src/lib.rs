//! # nfd — Reasoning about Nested Functional Dependencies
//!
//! A complete Rust implementation of Hara & Davidson, *"Reasoning about
//! Nested Functional Dependencies"* (PODS 1999): the nested relational
//! model, NFDs with path expressions, their logic translation, the sound
//! and complete eight-rule axiomatization with a saturation-based
//! implication engine and replayable proofs, the Appendix A
//! counterexample construction, the empty-set rule variants of
//! Section 3.2, a classical-FD baseline, and a nested tableau chase.
//!
//! This facade crate re-exports the workspace members:
//!
//! | crate | contents |
//! |---|---|
//! | [`govern`] | resource budgets, cancellation tokens, three-valued verdicts |
//! | [`par`] | zero-dependency scoped worker pool for batch workloads |
//! | [`model`] | types, values, schemas, instances, parsing, rendering, generation |
//! | [`path`] | path expressions, typing, prefix/follows, navigation |
//! | [`logic`] | Section 2.2 translation to first-order logic + evaluator |
//! | [`core`] | NFDs, satisfaction, rules, engine, proofs, closure, construction |
//! | [`relational`] | Armstrong's axioms / attribute closure baseline |
//! | [`chase`] | nested tableau chase (the paper's future work) |
//! | [`net`] | crash-contained TCP serving shell (line protocol, admission, drain) |
//! | [`snap`] | crash-safe checksummed snapshots of compiled sessions |
//!
//! The [`serve`] module (this crate, not a re-export) implements the
//! multi-tenant session [`serve::Registry`] behind `nfdtool serve`, and
//! the [`snapshot`] module converts between live sessions and the
//! portable [`snap`] representation ([`session::Session::freeze`] /
//! [`session::Session::thaw`]).
//!
//! ## Quickstart
//!
//! ```
//! use nfd::prelude::*;
//!
//! let schema = Schema::parse(
//!     "Course : { <cnum: string, time: int,
//!                  students: {<sid: int, age: int, grade: string>},
//!                  books: {<isbn: string, title: string>}> };").unwrap();
//!
//! // The five constraints from the paper's introduction.
//! let sigma = nfd::core::nfd::parse_set(&schema, "
//!     Course:[cnum -> time]; Course:[cnum -> students]; Course:[cnum -> books];
//!     Course:[books:isbn -> books:title];
//!     Course:students:[sid -> grade];
//!     Course:[students:sid -> students:age];
//!     Course:[time, students:sid -> cnum];
//! ").unwrap();
//!
//! // Compile once, query forever: the paper's motivating question —
//! // do sid and time determine books?
//! let session = Session::new(&schema, &sigma).unwrap();
//! assert!(session.implies_text("Course:[time, students:sid -> books]").unwrap());
//! assert!(!session.implies_text("Course:[time -> cnum]").unwrap());
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod serve;
pub mod session;
pub mod snapshot;

pub use nfd_chase as chase;
pub use nfd_core as core;
pub use nfd_faults as faults;
pub use nfd_govern as govern;
pub use nfd_logic as logic;
pub use nfd_model as model;
pub use nfd_par as par;
pub use nfd_path as path;
pub use nfd_relational as relational;
pub use nfd_serve as net;
pub use nfd_snap as snap;

/// TUTORIAL.md's code blocks, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../TUTORIAL.md")]
pub struct TutorialDoctests;

/// README.md's code blocks, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// The most commonly used items, for `use nfd::prelude::*`.
pub mod prelude {
    pub use crate::serve::{Registry, RegistryConfig};
    pub use crate::session::{
        Attempt, BatchDecision, Chase, Decider, Decision, LogicEval, Saturation, Session,
    };
    pub use nfd_core::engine::Engine;
    pub use nfd_core::{check, CoreError, EmptySetPolicy, Nfd, SatisfyReport, Violation};
    pub use nfd_govern::{Budget, CancelToken, ResourceKind, ResourceReport, Verdict};
    pub use nfd_model::{Instance, Label, Schema, Type, Value};
    pub use nfd_path::{Path, RootedPath};
    pub use nfd_serve::{Command, Handler, Response, Server, ServerConfig, ServerStats};
}
