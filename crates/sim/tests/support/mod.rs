//! Test-only fixtures shared by the simulator's suites (and, through
//! `#[path]`, by other crates' suites): the per-task reference loop
//! and golden schedule fingerprints.

#![allow(dead_code)]

pub mod golden;
pub mod per_task;
