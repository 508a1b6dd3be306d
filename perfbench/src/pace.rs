//! Fixed-rate request driver.
//!
//! Request `i` is due at `i / rate` seconds after the phase starts.
//! Its latency is measured from the moment it was due, not from the
//! moment it was sent: when one request stalls, every request queued
//! behind it is charged the wait. How late the driver itself ran
//! (`sent - due`) is reported separately.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::trace::nanos;

/// Timing of one paced request, in nanoseconds from the phase start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacedSample {
    /// When the request was due.
    pub due: u64,
    /// When the driver sent it.
    pub sent: u64,
    /// When its reply arrived.
    pub done: u64,
    /// Whether the reply passed its checks.
    pub ok: bool,
}

impl PacedSample {
    /// Latency from the due time in milliseconds; a failed request
    /// misses every limit, so it counts as infinitely late.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        if self.ok {
            ns_to_ms(self.done.saturating_sub(self.due))
        } else {
            f64::INFINITY
        }
    }

    /// How late the driver sent the request, in milliseconds.
    #[must_use]
    pub fn lateness_ms(&self) -> f64 {
        ns_to_ms(self.sent.saturating_sub(self.due))
    }
}

#[allow(clippy::cast_precision_loss)]
fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nanoseconds between due times at `rate` requests per second.
#[must_use]
pub fn interval_ns(rate: f64) -> u64 {
    assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let ns = (1e9 / rate).round() as u64;
    ns.max(1)
}

/// Drive requests at `rate` per second while `more(due)` holds: wait
/// for each due time (`wait_until`), send (`call` returns whether the
/// reply was correct), and stamp every step with `clock`.
pub fn drive(
    rate: f64,
    more: &mut dyn FnMut(u64) -> bool,
    clock: &mut dyn FnMut() -> u64,
    wait_until: &mut dyn FnMut(u64),
    call: &mut dyn FnMut(u64) -> bool,
) -> Vec<PacedSample> {
    let step = interval_ns(rate);
    let mut out = Vec::new();
    for i in 0.. {
        let due = i * step;
        if !more(due) {
            break;
        }
        if clock() < due {
            wait_until(due);
        }
        let sent = clock();
        let ok = call(i);
        let done = clock();
        out.push(PacedSample {
            due,
            sent,
            done,
            ok,
        });
    }
    out
}

fn drive_wall_while(
    rate: f64,
    more: &mut dyn FnMut(u64) -> bool,
    call: &mut dyn FnMut(u64) -> bool,
) -> Vec<PacedSample> {
    let origin = Instant::now();
    let mut clock = || nanos(origin.elapsed());
    let mut wait = |due: u64| {
        let now = nanos(origin.elapsed());
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
    };
    drive(rate, more, &mut clock, &mut wait, call)
}

/// Drive against the wall clock for `span`, sleeping between due
/// times; requests due at or after `span` are not sent.
pub fn drive_wall(
    rate: f64,
    span: Duration,
    call: &mut dyn FnMut(u64) -> bool,
) -> Vec<PacedSample> {
    let span_ns = nanos(span);
    drive_wall_while(rate, &mut |due| due < span_ns, call)
}

/// Drive against the wall clock until `stop` is raised.
pub fn drive_until(
    rate: f64,
    stop: &AtomicBool,
    call: &mut dyn FnMut(u64) -> bool,
) -> Vec<PacedSample> {
    drive_wall_while(rate, &mut |_| !stop.load(Ordering::SeqCst), call)
}

/// Lateness of the driver over a phase: median and maximum, in
/// milliseconds.
#[must_use]
pub fn lateness(samples: &[PacedSample]) -> (f64, f64) {
    let v: Vec<f64> = samples.iter().map(PacedSample::lateness_ms).collect();
    let max = v.iter().copied().fold(0.0, f64::max);
    (crate::stats::median(&v), max)
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    /// Drive a fake clock: waiting jumps to the due time, each call
    /// costs 0.1 ms except the listed stalls.
    fn fake_run(rate: f64, span_ns: u64, stall: &[(u64, u64)]) -> Vec<PacedSample> {
        let now = Cell::new(0u64);
        let mut clock = || now.get();
        let mut wait = |t: u64| now.set(now.get().max(t));
        let mut call = |i: u64| {
            let cost = stall
                .iter()
                .find(|&&(k, _)| k == i)
                .map_or(100_000, |&(_, c)| c);
            now.set(now.get() + cost);
            true
        };
        drive(
            rate,
            &mut |due| due < span_ns,
            &mut clock,
            &mut wait,
            &mut call,
        )
    }

    #[test]
    fn the_schedule_is_fixed_by_the_rate() {
        assert_eq!(interval_ns(1000.0), 1_000_000);
        let s = fake_run(1000.0, 10_000_000, &[]);
        assert_eq!(s.len(), 10);
        let dues: Vec<u64> = s.iter().map(|x| x.due).collect();
        assert_eq!(dues, (0..10).map(|i| i * 1_000_000).collect::<Vec<_>>());
        assert!(s.iter().all(|x| x.lateness_ms() == 0.0));
        assert!(s.iter().all(|x| (x.latency_ms() - 0.1).abs() < 1e-12));
    }

    #[test]
    fn a_stall_is_charged_to_every_request_queued_behind_it() {
        // Request 2 takes 5 ms; requests 3..=6 were due during the
        // stall and are sent late.
        let s = fake_run(1000.0, 10_000_000, &[(2, 5_000_000)]);
        assert_eq!(s.len(), 10);
        assert!((s[2].latency_ms() - 5.0).abs() < 1e-9);
        assert!((s[3].lateness_ms() - 4.0).abs() < 1e-9);
        assert!((s[3].latency_ms() - 4.1).abs() < 1e-9);
        assert!((s[4].latency_ms() - 3.2).abs() < 1e-9);
        assert!((s[5].latency_ms() - 2.3).abs() < 1e-9);
        assert!((s[6].latency_ms() - 1.4).abs() < 1e-9);
        assert!((s[7].latency_ms() - 0.5).abs() < 1e-9);
        // The backlog is gone by request 8.
        assert_eq!(s[8].lateness_ms(), 0.0);
        let (p50, max) = lateness(&s);
        assert_eq!(p50, 0.0);
        assert!((max - 4.0).abs() < 1e-9);
    }

    #[test]
    fn failed_requests_miss_every_limit() {
        let s = PacedSample {
            due: 0,
            sent: 0,
            done: 1,
            ok: false,
        };
        assert!(s.latency_ms().is_infinite());
    }
}
