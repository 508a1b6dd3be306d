//! Test-only fixtures for the core crate's suites: golden schedule
//! fingerprints (shared with the simulator's suites) and the reference
//! ready queue.

#![allow(dead_code)]

#[path = "../../../sim/tests/support/golden.rs"]
pub mod golden;
pub mod linear_queue;
