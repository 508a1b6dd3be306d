//! Correctness gates. Every workload runs its outputs through these
//! checks; an operation that fails one counts as a failed operation
//! and makes the run exit non-zero.

use std::fmt::Display;

use moldable_serve::json::Json;
use moldable_serve::Accounting;

/// Result of one check: `Err` carries what was wrong.
pub type Check = Result<(), String>;

/// Operations attempted and failed over a run, with the first few
/// failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (transport, refusal, or a failed check).
    pub failed: u64,
    /// The first failure messages (bounded).
    pub messages: Vec<String>,
}

impl Tally {
    /// Count one operation with its combined check outcome.
    pub fn op(&mut self, outcome: Check) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.fail(msg);
        }
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 16 {
            self.messages.push(msg);
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 16 {
                self.messages.push(m);
            }
        }
    }
}

/// A schedule validation result.
///
/// # Errors
///
/// The validator's message.
pub fn schedule_valid<E: Display>(name: &str, r: Result<(), E>) -> Check {
    r.map_err(|e| format!("{name}: invalid schedule: {e}"))
}

/// The makespan is at least the Lemma 2 lower bound.
///
/// # Errors
///
/// When the makespan undercuts the bound.
pub fn at_least_lower_bound(name: &str, makespan: f64, lb: f64) -> Check {
    if makespan.is_finite() && makespan >= lb * (1.0 - 1e-12) {
        Ok(())
    } else {
        Err(format!(
            "{name}: makespan {makespan} below lower bound {lb}"
        ))
    }
}

/// The measured ratio stays within the proven envelope, when one
/// exists.
///
/// # Errors
///
/// When the ratio exceeds the envelope.
pub fn within_envelope(name: &str, ratio: f64, envelope: Option<f64>) -> Check {
    match envelope {
        Some(env) if ratio.is_nan() || ratio > env => {
            Err(format!("{name}: ratio {ratio} above envelope {env}"))
        }
        _ => Ok(()),
    }
}

/// The makespan's bits equal a pinned value (when one is pinned).
///
/// # Errors
///
/// On any bit difference.
pub fn pinned_bits(name: &str, got: f64, want: Option<u64>) -> Check {
    match want {
        Some(bits) if got.to_bits() != bits => Err(format!(
            "{name}: makespan {got} ({:#018x}) differs from pinned {} ({bits:#018x})",
            got.to_bits(),
            f64::from_bits(bits)
        )),
        _ => Ok(()),
    }
}

/// A reply's `status` is `ok`.
///
/// # Errors
///
/// Names the status (or the reply) otherwise.
pub fn reply_ok(reply: &Json) -> Check {
    match reply.get("status").and_then(Json::as_str) {
        Some("ok") => Ok(()),
        Some(other) => Err(format!("reply status `{other}`: {}", reply.encode())),
        None => Err(format!("reply without status: {}", reply.encode())),
    }
}

/// A reply is `ok` and its makespan is bit-equal to the expected one.
///
/// # Errors
///
/// On a refused reply, a missing makespan, or any bit difference.
pub fn same_makespan(reply: &Json, want: f64) -> Check {
    reply_ok(reply)?;
    let got = reply
        .get("makespan")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("reply without makespan: {}", reply.encode()))?;
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!("makespan {got} differs from in-process {want}"))
    }
}

/// The daemon's submit ledger balances at quiescence.
///
/// # Errors
///
/// When the ledger is missing or unbalanced.
pub fn ledger_balanced(stats_reply: &Json) -> Check {
    match Accounting::from_stats_json(stats_reply) {
        Some(a) if a.balanced() => Ok(()),
        Some(a) => Err(format!("unbalanced submit ledger: {a:?}")),
        None => Err(format!(
            "stats reply without a ledger: {}",
            stats_reply.encode()
        )),
    }
}

/// Every tenant ledger in a `stats` reply balances, and there are
/// `tenants` of them.
///
/// # Errors
///
/// Names the first unbalanced or missing ledger.
pub fn tenant_ledgers_balanced(stats_reply: &Json, tenants: usize) -> Check {
    let Some(Json::Obj(ledgers)) = stats_reply.get("sessions").and_then(|s| s.get("ledgers"))
    else {
        return Err("stats reply without tenant ledgers".to_string());
    };
    if ledgers.len() != tenants {
        return Err(format!(
            "{} tenant ledgers, expected {tenants}",
            ledgers.len()
        ));
    }
    for (tenant, l) in ledgers {
        let n = |k: &str| l.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
        let (submitted, ok, errors, drops) = (n("submitted"), n("ok"), n("errors"), n("drops"));
        if submitted != ok.saturating_add(errors).saturating_add(drops) || errors != 0 || drops != 0
        {
            return Err(format!("tenant `{tenant}` ledger: {}", l.encode()));
        }
    }
    Ok(())
}

/// An event-log fingerprint equals the expected one.
///
/// # Errors
///
/// On a mismatch.
pub fn fingerprint_matches(what: &str, got: u64, want: u64) -> Check {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: event-log fingerprint {got:016x}, expected {want:016x}"
        ))
    }
}

/// FNV-1a over bytes: the event-log fingerprint.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use moldable_serve::json::{obj, parse};

    use super::*;

    #[test]
    fn a_failed_check_counts_one_failed_operation() {
        let mut t = Tally::default();
        t.op(Ok(()));
        t.op(Err("boom".into()));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.messages, vec!["boom".to_string()]);
    }

    #[test]
    fn schedule_and_bound_gates_fail() {
        assert!(schedule_valid("x", Err::<(), _>("overlap")).is_err());
        assert!(schedule_valid("x", Ok::<(), &str>(())).is_ok());
        assert!(at_least_lower_bound("x", 0.9, 1.0).is_err());
        assert!(at_least_lower_bound("x", f64::NAN, 1.0).is_err());
        assert!(at_least_lower_bound("x", 1.0, 1.0).is_ok());
    }

    #[test]
    fn envelope_gate_fails_above_and_on_nan() {
        assert!(within_envelope("x", 5.8, Some(5.72)).is_err());
        assert!(within_envelope("x", f64::NAN, Some(5.72)).is_err());
        assert!(within_envelope("x", 9.0, None).is_ok());
        assert!(within_envelope("x", 3.0, Some(5.72)).is_ok());
    }

    #[test]
    fn pinned_bits_gate_fails_on_one_ulp() {
        let v = 1.5f64;
        assert!(pinned_bits("x", v, Some(v.to_bits())).is_ok());
        assert!(pinned_bits("x", v, Some(v.to_bits() + 1)).is_err());
        assert!(pinned_bits("x", v, None).is_ok());
    }

    #[test]
    fn reply_gates_fail() {
        let ok = parse(r#"{"status":"ok","makespan":2.5}"#).unwrap();
        let over = parse(r#"{"status":"overloaded"}"#).unwrap();
        let bare = parse(r#"{"makespan":2.5}"#).unwrap();
        assert!(reply_ok(&ok).is_ok());
        assert!(reply_ok(&over).is_err());
        assert!(reply_ok(&bare).is_err());
        assert!(same_makespan(&ok, 2.5).is_ok());
        assert!(same_makespan(&ok, 2.500_000_000_000_001).is_err());
        assert!(same_makespan(&over, 2.5).is_err());
    }

    #[test]
    fn ledger_gates_fail() {
        let good = parse(
            r#"{"status":"ok","stats":{"submitted":3,"submit_ok":3,"submit_errors":0,"rejected_overload":0}}"#,
        )
        .unwrap();
        let bad = parse(
            r#"{"status":"ok","stats":{"submitted":3,"submit_ok":2,"submit_errors":0,"rejected_overload":0}}"#,
        )
        .unwrap();
        assert!(ledger_balanced(&good).is_ok());
        assert!(ledger_balanced(&bad).is_err());
        assert!(ledger_balanced(&obj(vec![])).is_err());
    }

    #[test]
    fn tenant_ledger_gate_fails() {
        let mk = |ok: u64, drops: u64| {
            parse(&format!(
                r#"{{"sessions":{{"ledgers":{{"t0":{{"submitted":4,"ok":{ok},"errors":0,"drops":{drops}}}}}}}}}"#
            ))
            .unwrap()
        };
        assert!(tenant_ledgers_balanced(&mk(4, 0), 1).is_ok());
        assert!(tenant_ledgers_balanced(&mk(3, 0), 1).is_err());
        // Balanced, but a quota drop was not expected.
        assert!(tenant_ledgers_balanced(&mk(3, 1), 1).is_err());
        assert!(tenant_ledgers_balanced(&mk(4, 0), 2).is_err());
        assert!(tenant_ledgers_balanced(&obj(vec![]), 0).is_err());
    }

    #[test]
    fn fingerprint_gate_fails() {
        let h = fnv1a(b"0 t0-s0 dag=0 done at=1\n");
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert!(fingerprint_matches("log", h, h).is_ok());
        assert!(fingerprint_matches("log", h, h ^ 1).is_err());
    }
}
