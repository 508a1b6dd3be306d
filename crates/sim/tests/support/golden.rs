//! Golden schedule fingerprints.
//!
//! A fingerprint is the 64-bit FNV-1a hash of everything a schedule
//! says: per placement (in start order) the task id, the bit patterns
//! of start, end and release time, the processor count and the
//! processor ranges; then the makespan's bit pattern. Two schedules
//! share a fingerprint only if they are bit-identical, so a committed
//! table of fingerprints pins bit-identity without a live reference
//! engine.
//!
//! A golden file holds one `<16 hex digits> <section> <case>` line per
//! pinned run. [`check`] compares one section of it against freshly
//! computed fingerprints, in both directions: a changed hash, a case
//! missing from the file and a file entry no longer computed all fail.
//! On failure it prints the section as it should read, so an intended
//! change of behaviour is re-pinned by pasting that block.

use std::fmt::Debug;

use moldable_sim::{Schedule, SimError};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// FNV-1a fingerprint of a schedule (see the module docs).
pub fn schedule(s: &Schedule) -> u64 {
    let mut h = Fnv::new();
    h.u32(s.p_total);
    for pl in &s.placements {
        h.u32(pl.task.0);
        h.u64(pl.start.to_bits());
        h.u64(pl.end.to_bits());
        h.u64(pl.released.to_bits());
        h.u32(pl.procs);
        h.u32(u32::try_from(pl.proc_ranges.len()).expect("range count fits u32"));
        for &(lo, hi) in &pl.proc_ranges {
            h.u32(lo);
            h.u32(hi);
        }
    }
    h.u64(s.makespan.to_bits());
    h.0
}

/// FNV-1a of any value's `Debug` rendering (errors, counters).
pub fn debug(x: &impl Debug) -> u64 {
    let mut h = Fnv::new();
    h.bytes(format!("{x:?}").as_bytes());
    h.0
}

/// Fingerprint of a run's outcome: the schedule's on success, the
/// error's `Debug` rendering on failure.
pub fn outcome(r: &Result<Schedule, SimError>) -> u64 {
    match r {
        Ok(s) => schedule(s),
        Err(e) => debug(e),
    }
}

/// Compare the `section` lines of `golden` (the contents of a golden
/// file) with `computed` `(case, fingerprint)` pairs.
///
/// # Panics
///
/// On any mismatch, printing the section as it should read.
pub fn check(golden: &str, section: &str, computed: &[(String, u64)]) {
    let prefix = format!("{section} ");
    let pinned: Vec<(&str, &str)> = golden
        .lines()
        .filter_map(|line| {
            let (hash, key) = line.split_once(' ')?;
            let case = key.strip_prefix(&prefix)?;
            Some((case, hash))
        })
        .collect();
    let mut problems = Vec::new();
    for (case, fp) in computed {
        let got = format!("{fp:016x}");
        match pinned.iter().find(|(c, _)| c == case) {
            Some((_, want)) if *want == got => {}
            Some((_, want)) => problems.push(format!("{case}: pinned {want}, got {got}")),
            None => problems.push(format!("{case}: not pinned (got {got})")),
        }
    }
    for (case, _) in &pinned {
        if !computed.iter().any(|(c, _)| c == case) {
            problems.push(format!("{case}: pinned but no longer computed"));
        }
    }
    if !problems.is_empty() {
        eprintln!("---- golden section `{section}` should read:");
        for (case, fp) in computed {
            eprintln!("{fp:016x} {section} {case}");
        }
        eprintln!("----");
        panic!(
            "{} golden mismatch(es) in `{section}`:\n{}",
            problems.len(),
            problems.join("\n")
        );
    }
}
