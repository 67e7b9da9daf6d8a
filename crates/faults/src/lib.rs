//! Compiled-in failpoints for chaos testing, in the style of TiKV's
//! `fail-rs`.
//!
//! A *failpoint* is a named site in production code where a test can
//! inject a fault: a panic, a spurious "resources exhausted" return, a
//! delay, or a cancellation request. Sites are declared with the
//! [`fail_point!`] macro and cost nothing unless the `failpoints` cargo
//! feature is enabled: with the feature off the macro expands to an empty
//! block and its arguments are not even evaluated, so release builds
//! carry no registry, no branch and no string.
//!
//! With the feature on, every site reports to a process-global registry:
//!
//! * each trigger increments an atomic per-site hit counter (even when no
//!   action is armed), so a test can run a workload once and *census*
//!   which sites it reaches — see `sites_hit`;
//! * an armed `FaultAction` fires on trigger: `Panic` and `Delay` take
//!   effect inside the macro, `ReturnExhausted` and `Cancel` are handed
//!   back to the site, which early-returns its context's error value or
//!   cancels the `CancelToken`-like object it was given;
//! * actions can be count-limited (`2*panic` fires twice, then the site
//!   reverts to `Off`), so a test can fault exactly one of many
//!   concurrent workers.
//!
//! Sites are configured programmatically (`configure`,
//! `configure_limited`) or through the `NFD_FAILPOINTS` environment
//! variable, read once at first registry access:
//!
//! ```text
//! NFD_FAILPOINTS="chase::step=return-exhausted;par::worker=1*panic;engine::implies=delay(10)"
//! ```
//!
//! The registry is deliberately global (sites live in code that knows
//! nothing about which test is running), so tests that arm actions must
//! serialize with each other and call `reset` when done.
//!
//! This crate has no dependencies so every layer of the workspace can
//! declare sites. Only the `nfd` facade forwards the feature
//! (`failpoints = ["nfd-faults/failpoints"]`); cargo feature unification
//! then arms the macro across all consumer crates at once.

#[cfg(feature = "failpoints")]
mod registry {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock, PoisonError};
    use std::time::Duration;

    /// What an armed failpoint does when its site is reached.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum FaultAction {
        /// Count the hit but inject nothing (the census default).
        Off,
        /// Panic with a message naming the site. Exercises the
        /// `catch_unwind` containment boundaries.
        Panic,
        /// Hand the site [`Fault::Exhausted`]: it early-returns its
        /// context's "resources exhausted" value.
        ReturnExhausted,
        /// Sleep for the given number of milliseconds, then continue.
        /// Shakes out timing assumptions (deadlines, pool scheduling).
        Delay(u64),
        /// Hand the site [`Fault::Cancel`]: it cancels the cancellation
        /// token in scope (if any) and continues cooperatively.
        Cancel,
    }

    /// The fault value a triggered site must act on. `Panic` and `Delay`
    /// never reach the site — the registry applies them itself.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Fault {
        /// Early-return the context's exhaustion value.
        Exhausted,
        /// Cancel the token in scope, then continue.
        Cancel,
    }

    #[derive(Debug)]
    struct Site {
        /// `(action, remaining)`: `remaining = Some(n)` disarms the site
        /// after `n` more firings.
        armed: Mutex<(FaultAction, Option<u64>)>,
        hits: AtomicU64,
    }

    impl Default for Site {
        fn default() -> Site {
            Site::new(FaultAction::Off, None)
        }
    }

    impl Site {
        fn new(action: FaultAction, remaining: Option<u64>) -> Site {
            Site {
                armed: Mutex::new((action, remaining)),
                hits: AtomicU64::new(0),
            }
        }
    }

    fn registry() -> &'static Mutex<HashMap<String, Arc<Site>>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, Arc<Site>>>> = OnceLock::new();
        REGISTRY.get_or_init(|| {
            let mut map = HashMap::new();
            // A malformed spec arms NOTHING: silently arming the entries
            // that happened to parse would hand a chaos run a different
            // fault plan than the one it asked for, which is worse than
            // no faults at all. A library must not panic on a bad
            // environment string, so the failure is a logged no-op.
            if let Ok(spec) = std::env::var("NFD_FAILPOINTS") {
                match parse_spec_strict(&spec) {
                    Ok(entries) => {
                        for (name, action, remaining) in entries {
                            map.insert(name, Arc::new(Site::new(action, remaining)));
                        }
                    }
                    Err(bad) => {
                        eprintln!("warning: NFD_FAILPOINTS ignored ({bad}); no failpoints armed");
                    }
                }
            }
            Mutex::new(map)
        })
    }

    fn site(name: &str) -> Arc<Site> {
        let mut map = registry().lock().unwrap_or_else(PoisonError::into_inner);
        match map.get(name) {
            Some(site) => Arc::clone(site),
            None => {
                let site = Arc::new(Site::default());
                map.insert(name.to_string(), Arc::clone(&site));
                site
            }
        }
    }

    /// Parses one `site=action` list; `None` entries are malformed.
    /// Blank entries (so trailing/doubled `;` separators) are fine.
    #[allow(clippy::type_complexity)]
    fn parse_spec(spec: &str) -> Vec<Option<(String, FaultAction, Option<u64>)>> {
        spec.split(';')
            .map(str::trim)
            .filter(|entry| !entry.is_empty())
            .map(|entry| {
                let (name, action) = entry.split_once('=')?;
                let (name, action) = (name.trim(), action.trim());
                if name.is_empty() {
                    return None;
                }
                let (remaining, action) = match action.split_once('*') {
                    Some((n, rest)) => (Some(n.trim().parse::<u64>().ok()?), rest.trim()),
                    None => (None, action),
                };
                Some((name.to_string(), parse_action(action)?, remaining))
            })
            .collect()
    }

    /// All-or-nothing form of [`parse_spec`]: every entry parses, or the
    /// first malformed entry is reported and the whole spec is rejected.
    /// Shared by the env reader and [`apply_env_str`] so a partial fault
    /// plan can never be armed silently.
    #[allow(clippy::type_complexity)]
    fn parse_spec_strict(spec: &str) -> Result<Vec<(String, FaultAction, Option<u64>)>, String> {
        parse_spec(spec)
            .into_iter()
            .zip(spec.split(';').map(str::trim).filter(|e| !e.is_empty()))
            .map(|(parsed, raw)| parsed.ok_or_else(|| format!("malformed failpoint entry `{raw}`")))
            .collect()
    }

    /// Parses a single action keyword: `off`, `panic`, `return-exhausted`,
    /// `delay(ms)`, `cancel`.
    pub fn parse_action(text: &str) -> Option<FaultAction> {
        match text {
            "off" => Some(FaultAction::Off),
            "panic" => Some(FaultAction::Panic),
            "return-exhausted" => Some(FaultAction::ReturnExhausted),
            "cancel" => Some(FaultAction::Cancel),
            _ => {
                let ms = text.strip_prefix("delay(")?.strip_suffix(')')?;
                Some(FaultAction::Delay(ms.trim().parse().ok()?))
            }
        }
    }

    /// Arms `name` with `action` (unlimited firings). `Off` disarms but
    /// keeps the hit counter.
    pub fn configure(name: &str, action: FaultAction) {
        *site(name)
            .armed
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = (action, None);
    }

    /// Arms `name` with `action` for exactly `count` firings, after which
    /// the site reverts to `Off`. `2*panic` in env syntax.
    pub fn configure_limited(name: &str, count: u64, action: FaultAction) {
        *site(name)
            .armed
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = (action, Some(count));
    }

    /// Applies an `NFD_FAILPOINTS`-syntax string programmatically.
    /// Returns the number of sites armed, or the first malformed entry —
    /// in which case nothing is armed (all-or-nothing, like the env
    /// reader).
    pub fn apply_env_str(spec: &str) -> Result<usize, String> {
        let entries = parse_spec_strict(spec)?;
        let n = entries.len();
        for (name, action, remaining) in entries {
            match remaining {
                Some(count) => configure_limited(&name, count, action),
                None => configure(&name, action),
            }
        }
        Ok(n)
    }

    /// Disarms every site and zeroes every hit counter. Call between
    /// chaos-test cases.
    pub fn reset() {
        registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Every site triggered at least once since the last [`reset`], with
    /// its hit count, sorted by name. The census backbone: run a workload
    /// with nothing armed, then read off which sites it reaches.
    pub fn sites_hit() -> Vec<(String, u64)> {
        let map = registry().lock().unwrap_or_else(PoisonError::into_inner);
        let mut hit: Vec<(String, u64)> = map
            .iter()
            .map(|(name, site)| (name.clone(), site.hits.load(Ordering::Relaxed)))
            .filter(|(_, n)| *n > 0)
            .collect();
        hit.sort();
        hit
    }

    /// The hit count of one site (0 if never triggered).
    pub fn hits(name: &str) -> u64 {
        registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .map(|site| site.hits.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Called by [`fail_point!`] at every armed-build site. Counts the
    /// hit, applies `Panic`/`Delay` in place, and returns the fault the
    /// site itself must act on, if any.
    #[doc(hidden)]
    pub fn trigger(name: &str) -> Option<Fault> {
        let site = site(name);
        site.hits.fetch_add(1, Ordering::Relaxed);
        let action = {
            let mut armed = site.armed.lock().unwrap_or_else(PoisonError::into_inner);
            match armed.1 {
                Some(0) => FaultAction::Off,
                Some(ref mut n) => {
                    *n -= 1;
                    armed.0
                }
                None => armed.0,
            }
        };
        match action {
            FaultAction::Off => None,
            // Deliberate: the whole point of the Panic action is to prove
            // the `catch_unwind` boundaries contain it (tracked by the
            // unwrap_guard budget for this file).
            FaultAction::Panic => panic!("failpoint `{name}` injected panic"),
            FaultAction::Delay(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                None
            }
            FaultAction::ReturnExhausted => Some(Fault::Exhausted),
            FaultAction::Cancel => Some(Fault::Cancel),
        }
    }
}

#[cfg(feature = "failpoints")]
pub use registry::{
    apply_env_str, configure, configure_limited, hits, parse_action, reset, sites_hit, trigger,
    Fault, FaultAction,
};

/// Declares a failpoint site.
///
/// Three arities, by what the site can do when a fault is injected:
///
/// * `fail_point!("name")` — observe-only: counts hits; `Panic` and
///   `Delay` actions apply, `ReturnExhausted`/`Cancel` are ignored (the
///   site has no error channel or token). Use in infrastructure code
///   like the worker pool.
/// * `fail_point!("name", expr)` — on `ReturnExhausted` *or* `Cancel`,
///   early-returns `expr` (lazily evaluated) from the enclosing
///   function; use where an error value exists but no token is in scope.
/// * `fail_point!("name", expr, token)` — on `ReturnExhausted`,
///   early-returns `expr`; on `Cancel`, calls `.cancel()` on `token` and
///   *continues*, so the normal cooperative-cancellation machinery (and
///   its propagation to sibling workers) is what gets exercised.
///
/// With the `failpoints` feature disabled this expands to an empty block
/// and none of the arguments are evaluated.
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {{
        let _ = $crate::trigger($name);
    }};
    ($name:expr, $ret:expr) => {{
        if $crate::trigger($name).is_some() {
            return $ret;
        }
    }};
    ($name:expr, $ret:expr, $token:expr) => {{
        match $crate::trigger($name) {
            Some($crate::Fault::Exhausted) => return $ret,
            Some($crate::Fault::Cancel) => $token.cancel(),
            None => {}
        }
    }};
}

/// No-op form: the `failpoints` feature is disabled, so sites vanish —
/// arguments are swallowed unevaluated and no code is generated.
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! fail_point {
    ($name:expr $(, $rest:expr)* $(,)?) => {{}};
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock, PoisonError};

    /// The registry is process-global; tests that arm or count must not
    /// interleave. (Site names are unique per test, but `reset` is not.)
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn run(name: &str) -> Result<&'static str, &'static str> {
        fail_point!(name, Err("exhausted"));
        Ok("fine")
    }

    #[test]
    fn unarmed_sites_count_hits_and_do_nothing() {
        let _guard = serial();
        assert_eq!(run("t::unarmed"), Ok("fine"));
        assert_eq!(run("t::unarmed"), Ok("fine"));
        assert_eq!(hits("t::unarmed"), 2);
        assert!(sites_hit()
            .iter()
            .any(|(n, c)| n == "t::unarmed" && *c == 2));
    }

    #[test]
    fn return_exhausted_fires_and_off_disarms() {
        let _guard = serial();
        configure("t::ret", FaultAction::ReturnExhausted);
        assert_eq!(run("t::ret"), Err("exhausted"));
        configure("t::ret", FaultAction::Off);
        assert_eq!(run("t::ret"), Ok("fine"));
        assert_eq!(hits("t::ret"), 2, "disarmed sites still count");
    }

    #[test]
    fn count_limited_actions_disarm_themselves() {
        let _guard = serial();
        configure_limited("t::lim", 2, FaultAction::ReturnExhausted);
        assert_eq!(run("t::lim"), Err("exhausted"));
        assert_eq!(run("t::lim"), Err("exhausted"));
        assert_eq!(run("t::lim"), Ok("fine"), "third firing is disarmed");
    }

    #[test]
    fn panic_action_panics_with_site_name() {
        let _guard = serial();
        configure("t::boom", FaultAction::Panic);
        let err = std::panic::catch_unwind(|| run("t::boom")).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("t::boom"), "{msg}");
        configure("t::boom", FaultAction::Off);
    }

    #[test]
    fn cancel_reaches_the_token_and_continues() {
        let _guard = serial();
        #[derive(Default)]
        struct Token(std::cell::Cell<bool>);
        impl Token {
            fn cancel(&self) {
                self.0.set(true);
            }
        }
        fn site(token: &Token) -> Result<&'static str, &'static str> {
            fail_point!("t::cancel", Err("exhausted"), token);
            Ok("continued")
        }
        configure("t::cancel", FaultAction::Cancel);
        let token = Token::default();
        assert_eq!(site(&token), Ok("continued"), "cancel does not return");
        assert!(token.0.get(), "token observed the cancellation");
        configure("t::cancel", FaultAction::Off);
    }

    #[test]
    fn delay_sleeps_then_continues() {
        let _guard = serial();
        configure("t::delay", FaultAction::Delay(15));
        let start = std::time::Instant::now();
        assert_eq!(run("t::delay"), Ok("fine"));
        assert!(start.elapsed() >= std::time::Duration::from_millis(15));
        configure("t::delay", FaultAction::Off);
    }

    #[test]
    fn env_string_round_trips() {
        let _guard = serial();
        let n =
            apply_env_str("t::env_a = return-exhausted ; t::env_b = delay(5); t::env_c=2*panic")
                .expect("valid spec");
        assert_eq!(n, 3);
        assert_eq!(run("t::env_a"), Err("exhausted"));
        configure("t::env_a", FaultAction::Off);
        configure("t::env_b", FaultAction::Off);
        configure("t::env_c", FaultAction::Off);

        assert!(apply_env_str("justaname").is_err());
        assert!(apply_env_str("x=explode").is_err());
        assert!(apply_env_str("x=delay(abc)").is_err());
        assert!(apply_env_str("=panic").is_err());
        assert_eq!(apply_env_str(" ; ; "), Ok(0), "empty entries are fine");
    }

    #[test]
    fn malformed_specs_are_rejected_whole() {
        let _guard = serial();
        reset();
        // Empty action, unparsable count, dangling count marker, and the
        // same shapes buried mid-list.
        for bad in ["x=", "x=abc*panic", "x=3*", "a=panic;x=", "x= ;b=panic"] {
            let err = apply_env_str(bad).expect_err(bad);
            assert!(err.contains("malformed failpoint entry"), "{bad}: {err}");
        }
        // All-or-nothing: a valid prefix of a bad spec is NOT armed.
        assert!(apply_env_str("t::strict_ok=return-exhausted;oops=").is_err());
        assert_eq!(
            run("t::strict_ok"),
            Ok("fine"),
            "valid prefix stayed unarmed"
        );
        // Trailing and doubled separators are fine, though.
        assert_eq!(apply_env_str("t::trail=off;"), Ok(1));
        assert_eq!(apply_env_str(";;t::trail=off;;"), Ok(1));
        reset();
    }

    #[test]
    fn parse_action_covers_the_vocabulary() {
        assert_eq!(parse_action("off"), Some(FaultAction::Off));
        assert_eq!(parse_action("panic"), Some(FaultAction::Panic));
        assert_eq!(
            parse_action("return-exhausted"),
            Some(FaultAction::ReturnExhausted)
        );
        assert_eq!(parse_action("cancel"), Some(FaultAction::Cancel));
        assert_eq!(parse_action("delay(250)"), Some(FaultAction::Delay(250)));
        assert_eq!(parse_action("delay()"), None);
        assert_eq!(parse_action("nonsense"), None);
    }

    #[test]
    fn reset_clears_actions_and_counters() {
        let _guard = serial();
        configure("t::reset", FaultAction::ReturnExhausted);
        assert_eq!(run("t::reset"), Err("exhausted"));
        reset();
        assert_eq!(hits("t::reset"), 0);
        assert_eq!(run("t::reset"), Ok("fine"));
        reset();
    }
}
