//! Resource governance for the decision procedures.
//!
//! Every decider in this workspace — the saturation engine, the nested
//! tableau chase, and the Appendix A construction plus Section 2.2 formula
//! evaluation — is worst-case exponential. A production service cannot let
//! an adversarial schema pin a core or blow memory, so each hot loop
//! checks a [`Budget`] cooperatively and reports exhaustion as data rather
//! than panicking or running away:
//!
//! * counter limits (pool entries, chase steps, chase nulls, assignment
//!   enumerations, key candidates) bound the memory- and time-dominating
//!   quantities of each procedure;
//! * a wall-clock deadline and a shared [`CancelToken`] bound latency; the
//!   loops poll them every few thousand iterations, so cancellation is
//!   prompt without a per-iteration clock read;
//! * an exceeded limit surfaces as a [`ResourceReport`] inside the
//!   procedure's error type, and query answers become a three-valued
//!   [`Verdict`] — `Exhausted` is an honest "ran out of resources", never
//!   a wrong `Implied`/`NotImplied`.
//!
//! This crate is dependency-free so every layer (model, logic, core,
//! chase, the facade) can share the same vocabulary.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared, thread-safe cancellation flag.
///
/// Clones observe the same flag; any holder may [`CancelToken::cancel`]
/// and every budgeted loop polling [`Budget::check_live`] stops promptly.
/// A batch shares its caller's token with every goal, so one cancel
/// reaches each goal at its next poll.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation; all clones observe it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Which resource a budget check found exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Saturation pool entries per relation (`Engine` memory).
    PoolDeps,
    /// Chase unification steps (`tableau` time).
    ChaseSteps,
    /// Nulls allocated by tableau templates (`tableau` memory).
    ChaseNulls,
    /// Assignment enumerations — quantifier instantiations in
    /// `logic::eval` and trie-assignment scans in the chase and the
    /// satisfaction checker.
    Assignments,
    /// Candidate subsets enumerated by the key search.
    KeyCandidates,
    /// Wall-clock deadline.
    Deadline,
    /// Explicit cancellation via a [`CancelToken`].
    Cancelled,
    /// A fault injected by a `fail_point!` site (chaos testing only;
    /// never produced in a build without the `failpoints` feature).
    Injected,
}

impl ResourceKind {
    /// Short human noun for reports.
    pub fn noun(self) -> &'static str {
        match self {
            ResourceKind::PoolDeps => "saturation pool entries",
            ResourceKind::ChaseSteps => "chase steps",
            ResourceKind::ChaseNulls => "chase nulls",
            ResourceKind::Assignments => "assignment enumerations",
            ResourceKind::KeyCandidates => "key candidates",
            ResourceKind::Deadline => "wall-clock deadline",
            ResourceKind::Cancelled => "cancellation",
            ResourceKind::Injected => "injected fault",
        }
    }
}

/// What ran out: the exhausted resource, its limit, and how much was used
/// when the loop gave up. Attached to `Exhausted` verdicts and errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResourceReport {
    /// The exhausted resource.
    pub kind: ResourceKind,
    /// The configured limit: counter units for counter kinds, the
    /// configured timeout in milliseconds for `Deadline` (0 when the
    /// deadline was set as an absolute instant with no stored duration),
    /// and 0 for `Cancelled`/`Injected`, where no limit applies.
    pub limit: u64,
    /// Usage at the moment the limit was hit: counter units, or elapsed
    /// milliseconds for `Deadline`.
    pub used: u64,
}

impl ResourceReport {
    /// A report for a counter limit.
    pub fn counter(kind: ResourceKind, limit: u64, used: u64) -> ResourceReport {
        ResourceReport { kind, limit, used }
    }

    /// The report attached to faults injected by `fail_point!` sites.
    pub fn injected() -> ResourceReport {
        ResourceReport::counter(ResourceKind::Injected, 0, 0)
    }
}

impl fmt::Display for ResourceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ResourceKind::Deadline if self.limit > 0 => {
                write!(
                    f,
                    "wall-clock deadline of {} ms exceeded ({} ms elapsed)",
                    self.limit, self.used
                )
            }
            ResourceKind::Deadline => f.write_str("wall-clock deadline exceeded"),
            ResourceKind::Cancelled => f.write_str("cancelled by caller"),
            ResourceKind::Injected => f.write_str("injected fault (failpoint)"),
            kind => write!(f, "{} limit of {} reached", kind.noun(), self.limit),
        }
    }
}

/// Cooperative resource limits for one query or engine build.
///
/// Counters are `u64::MAX` when unlimited. [`Budget::standard`] matches
/// the legacy hard-wired limits (100 000 pool entries, 100 000 chase
/// steps) with everything else unbounded; [`Budget::limited`] caps every
/// counter at `n` for graceful degradation under pressure.
#[derive(Clone, Debug)]
pub struct Budget {
    /// Max saturation pool entries per relation.
    pub max_pool_deps: u64,
    /// Max chase unification steps per run.
    pub max_chase_steps: u64,
    /// Max nulls allocated by tableau templates per run.
    pub max_chase_nulls: u64,
    /// Max assignment enumerations per evaluation/scan.
    pub max_assignments: u64,
    /// Max candidate subsets enumerated by the key search.
    pub max_key_candidates: u64,
    deadline: Option<Instant>,
    /// The duration the deadline was configured from, kept so exhaustion
    /// reports can say *which* timeout tripped ("deadline of 50 ms
    /// exceeded").
    timeout: Option<Duration>,
    cancel: CancelToken,
}

impl Budget {
    /// No limits at all (counters at `u64::MAX`, no deadline).
    pub fn unlimited() -> Budget {
        Budget {
            max_pool_deps: u64::MAX,
            max_chase_steps: u64::MAX,
            max_chase_nulls: u64::MAX,
            max_assignments: u64::MAX,
            max_key_candidates: u64::MAX,
            deadline: None,
            timeout: None,
            cancel: CancelToken::new(),
        }
    }

    /// The default limits historically hard-wired into the engine and the
    /// chase: 100 000 pool entries per relation, 100 000 chase steps,
    /// everything else unbounded.
    pub fn standard() -> Budget {
        Budget {
            max_pool_deps: 100_000,
            max_chase_steps: 100_000,
            ..Budget::unlimited()
        }
    }

    /// Every counter capped at `n` — the "tiny budget" shape used for
    /// graceful degradation tests and the CLI `--budget` flag.
    pub fn limited(n: u64) -> Budget {
        Budget {
            max_pool_deps: n,
            max_chase_steps: n,
            max_chase_nulls: n,
            max_assignments: n,
            max_key_candidates: n,
            ..Budget::unlimited()
        }
    }

    /// Adds a wall-clock deadline `d` from now. A zero duration is
    /// honoured literally: the budget is already past its deadline and
    /// the first [`Budget::check_live`] reports exhaustion.
    pub fn with_timeout(mut self, d: Duration) -> Budget {
        self.deadline = Some(Instant::now() + d);
        self.timeout = Some(d);
        self
    }

    /// Adds a wall-clock deadline `ms` milliseconds from now.
    pub fn with_timeout_ms(self, ms: u64) -> Budget {
        self.with_timeout(Duration::from_millis(ms))
    }

    /// Attaches an externally controlled cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Budget {
        self.cancel = token;
        self
    }

    /// The attached cancellation token (clone it to cancel from another
    /// thread).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Polls the liveness conditions: cancellation first (cheap atomic
    /// load), then the deadline (clock read). Hot loops call this every
    /// few thousand iterations.
    pub fn check_live(&self) -> Result<(), ResourceReport> {
        if self.cancel.is_cancelled() {
            return Err(ResourceReport::counter(ResourceKind::Cancelled, 0, 0));
        }
        if let Some(d) = self.deadline {
            let now = Instant::now();
            if now >= d {
                // Coherent report: limit = the configured timeout in ms,
                // used = elapsed ms (≥ limit by construction).
                let limit = self
                    .timeout
                    .map(|t| t.as_millis().min(u64::MAX as u128) as u64)
                    .unwrap_or(0);
                let over = now.duration_since(d).as_millis().min(u64::MAX as u128) as u64;
                return Err(ResourceReport::counter(
                    ResourceKind::Deadline,
                    limit,
                    limit.saturating_add(over),
                ));
            }
        }
        Ok(())
    }

    /// The limit configured for a counter kind (`u64::MAX` for the
    /// non-counter kinds).
    pub fn limit(&self, kind: ResourceKind) -> u64 {
        match kind {
            ResourceKind::PoolDeps => self.max_pool_deps,
            ResourceKind::ChaseSteps => self.max_chase_steps,
            ResourceKind::ChaseNulls => self.max_chase_nulls,
            ResourceKind::Assignments => self.max_assignments,
            ResourceKind::KeyCandidates => self.max_key_candidates,
            ResourceKind::Deadline | ResourceKind::Cancelled | ResourceKind::Injected => u64::MAX,
        }
    }

    /// Checks a counter against its limit: `Err` when `used` exceeds the
    /// configured maximum. Callers pass the would-be count, so a limit of
    /// `n` admits exactly `n` units.
    pub fn check_counter(&self, kind: ResourceKind, used: u64) -> Result<(), ResourceReport> {
        let limit = self.limit(kind);
        if used > limit {
            Err(ResourceReport::counter(kind, limit, used))
        } else {
            Ok(())
        }
    }
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::standard()
    }
}

/// A three-valued query answer: the classical verdict, or an honest
/// admission that resources ran out before one was reached.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `Σ ⊨ σ` was established.
    Implied,
    /// A counterexample regime exists: `Σ ⊭ σ`.
    NotImplied,
    /// No decider reached an answer within the budget; the report says
    /// what ran out first.
    Exhausted(ResourceReport),
}

impl Verdict {
    /// Wraps a classical boolean verdict.
    pub fn from_bool(implied: bool) -> Verdict {
        if implied {
            Verdict::Implied
        } else {
            Verdict::NotImplied
        }
    }

    /// The classical verdict, if one was reached.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Verdict::Implied => Some(true),
            Verdict::NotImplied => Some(false),
            Verdict::Exhausted(_) => None,
        }
    }

    /// Did the query run out of resources?
    pub fn is_exhausted(&self) -> bool {
        matches!(self, Verdict::Exhausted(_))
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Implied => f.write_str("implied"),
            Verdict::NotImplied => f.write_str("not implied"),
            Verdict::Exhausted(r) => write!(f, "exhausted: {r}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn standard_matches_legacy_limits() {
        let b = Budget::standard();
        assert_eq!(b.max_pool_deps, 100_000);
        assert_eq!(b.max_chase_steps, 100_000);
        assert_eq!(b.max_assignments, u64::MAX);
        assert!(b.check_live().is_ok());
    }

    #[test]
    fn counter_limits_admit_exactly_n() {
        let b = Budget::limited(3);
        assert!(b.check_counter(ResourceKind::ChaseSteps, 3).is_ok());
        let err = b.check_counter(ResourceKind::ChaseSteps, 4).unwrap_err();
        assert_eq!(err.kind, ResourceKind::ChaseSteps);
        assert_eq!(err.limit, 3);
        assert!(err.to_string().contains("chase steps"));
    }

    #[test]
    fn deadline_and_cancellation_trip_check_live() {
        let b = Budget::unlimited().with_timeout(Duration::from_secs(0));
        assert_eq!(
            b.check_live().unwrap_err().kind,
            ResourceKind::Deadline,
            "zero deadline is already past"
        );
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel(token.clone());
        assert!(b.check_live().is_ok());
        token.cancel();
        assert_eq!(b.check_live().unwrap_err().kind, ResourceKind::Cancelled);
    }

    #[test]
    fn zero_timeout_trips_first_check_with_a_labeled_report() {
        let b = Budget::unlimited().with_timeout_ms(0);
        let report = b.check_live().unwrap_err();
        assert_eq!(report.kind, ResourceKind::Deadline);
        assert_eq!(report.limit, 0, "the configured timeout was 0 ms");
        assert!(report.used >= report.limit);
        assert!(report.to_string().contains("wall-clock deadline"));
    }

    #[test]
    fn deadline_report_names_the_configured_timeout() {
        let b = Budget::unlimited().with_timeout_ms(25);
        assert!(b.check_live().is_ok(), "25 ms have not elapsed yet");
        std::thread::sleep(Duration::from_millis(30));
        let report = b.check_live().unwrap_err();
        assert_eq!(report.kind, ResourceKind::Deadline);
        assert_eq!(report.limit, 25);
        assert!(report.used >= 25, "elapsed ms at the trip: {}", report.used);
        assert!(report.to_string().contains("deadline of 25 ms"));
    }

    #[test]
    fn zero_limit_counters_trip_on_first_unit() {
        let b = Budget::limited(0);
        let report = b.check_counter(ResourceKind::PoolDeps, 1).unwrap_err();
        assert_eq!(report.kind, ResourceKind::PoolDeps);
        assert_eq!(report.limit, 0);
        assert_eq!(report.used, 1);
    }

    #[test]
    fn injected_report_renders() {
        let r = ResourceReport::injected();
        assert_eq!(r.kind, ResourceKind::Injected);
        assert!(r.to_string().contains("injected fault"));
        assert_eq!(Budget::unlimited().limit(ResourceKind::Injected), u64::MAX);
    }

    #[test]
    fn verdict_roundtrip() {
        assert_eq!(Verdict::from_bool(true), Verdict::Implied);
        assert_eq!(Verdict::from_bool(false).as_bool(), Some(false));
        let ex = Verdict::Exhausted(ResourceReport::counter(ResourceKind::PoolDeps, 5, 6));
        assert!(ex.is_exhausted());
        assert!(ex.as_bool().is_none());
        assert!(ex.to_string().contains("exhausted"));
    }
}
