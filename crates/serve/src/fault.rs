//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] is shared (via `Arc`) by every worker in a pool and
//! fires on a global request counter, so a given spec produces the same
//! fault schedule for the same arrival order regardless of which worker
//! picks a request up. Three probe points exist, all inside the panic
//! containment of [`crate::dispatch::Dispatcher::dispatch`]:
//!
//! - `panic=N` — every Nth probed request panics before execution
//!   (exercises catch-unwind + engine replacement, wire code `panic`),
//! - `error=N` — every Nth probed request returns a spurious engine
//!   error (wire code `engine`) without executing,
//! - `delay=N:MS` — every Nth probed request sleeps `MS` milliseconds
//!   before executing (exercises deadline expiry and queue backlog).
//!
//! Precedence when several fire on the same tick: panic > error > delay.
//! The spec string (e.g. `"panic=7,delay=5:40,error=11"`) comes from
//! `rsat serve --faults`.

use std::sync::atomic::{AtomicU64, Ordering};

/// What a probe point should do for the current request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Execute normally.
    None,
    /// Panic (the dispatcher's containment turns this into code `panic`).
    Panic,
    /// Return a spurious engine error without executing.
    Error,
    /// Sleep this many milliseconds, then execute normally.
    Delay(u64),
}

/// A deterministic, counter-driven fault schedule.
#[derive(Debug, Default)]
pub struct FaultPlan {
    panic_every: u64,
    error_every: u64,
    delay_every: u64,
    delay_ms: u64,
    ticks: AtomicU64,
}

impl FaultPlan {
    /// Parses a spec like `"panic=7,delay=5:40,error=11"`. Unknown keys
    /// and malformed clauses are errors; an empty spec is a no-op plan.
    pub fn from_spec(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
            let (key, val) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause `{clause}` is not key=value"))?;
            let key = key.trim();
            let val = val.trim();
            let parse = |s: &str| {
                s.parse::<u64>()
                    .map_err(|_| format!("fault clause `{clause}`: `{s}` is not a number"))
            };
            match key {
                "panic" => plan.panic_every = parse(val)?,
                "error" => plan.error_every = parse(val)?,
                "delay" => {
                    let (every, ms) = val
                        .split_once(':')
                        .ok_or_else(|| format!("fault clause `{clause}` wants delay=N:MS"))?;
                    plan.delay_every = parse(every)?;
                    plan.delay_ms = parse(ms)?;
                }
                other => return Err(format!("unknown fault kind `{other}`")),
            }
        }
        Ok(plan)
    }

    /// True when no clause can ever fire.
    pub fn is_empty(&self) -> bool {
        self.panic_every == 0 && self.error_every == 0 && self.delay_every == 0
    }

    /// Advances the global counter and reports what this request should do.
    pub fn next(&self) -> FaultAction {
        let n = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        if self.panic_every > 0 && n % self.panic_every == 0 {
            FaultAction::Panic
        } else if self.error_every > 0 && n % self.error_every == 0 {
            FaultAction::Error
        } else if self.delay_every > 0 && n % self.delay_every == 0 {
            FaultAction::Delay(self.delay_ms)
        } else {
            FaultAction::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trip_fires_on_schedule() {
        let plan = FaultPlan::from_spec("panic=4,delay=3:25,error=6").unwrap();
        let got: Vec<FaultAction> = (0..12).map(|_| plan.next()).collect();
        // tick:     1     2     3         4      5     6      7     8      9        10    11    12
        // delay=3:              x                x                         x                    x
        // panic=4:                        x                    x                                x
        // error=6:                               (6)                                            (12)
        // precedence panic > error > delay.
        use FaultAction::{Delay, Error, None as No, Panic};
        assert_eq!(
            got,
            vec![
                No,
                No,
                Delay(25),
                Panic,
                No,
                Error,
                No,
                Panic,
                Delay(25),
                No,
                No,
                Panic
            ]
        );
    }

    #[test]
    fn empty_and_malformed_specs() {
        assert!(FaultPlan::from_spec("").unwrap().is_empty());
        assert!(FaultPlan::from_spec("  ").unwrap().is_empty());
        assert!(FaultPlan::from_spec("panic").is_err());
        assert!(FaultPlan::from_spec("panic=x").is_err());
        assert!(FaultPlan::from_spec("delay=3").is_err());
        assert!(FaultPlan::from_spec("jitter=3").is_err());
        let plan = FaultPlan::from_spec("panic=0").unwrap();
        assert!(plan.is_empty(), "every=0 disables the clause");
        assert_eq!(plan.next(), FaultAction::None);
    }
}
