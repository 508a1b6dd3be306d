//! Arrival-order tie-breaks pinned bit-identically across engines.
//!
//! A batch of tasks sharing one release instant can be expressed two
//! ways: as a [`TimedArrivals`] stream and as an independent-tasks
//! graph. Through the per-task reference loop (`support/per_task.rs`)
//! and through every entry point of the core — [`simulate_instance`],
//! [`simulate`] and the incremental [`Stepper`] — all must place every
//! task with bit-equal `(start, end, procs, released)`: the revelation
//! order for simultaneous arrivals (submission order) and the
//! completion tie-break (start sequence) are part of the engine
//! contract, not an accident of implementation.

mod support;

use moldable_graph::{GraphBuilder, TaskId};
use moldable_model::SpeedupModel;
use moldable_sim::{
    simulate, simulate_instance, GraphInstance, Placement, Scheduler, SimOptions, Stepper,
    TimedArrivals,
};
use support::per_task;

fn unit(w: f64) -> SpeedupModel {
    SpeedupModel::amdahl(w, 0.0).unwrap()
}

/// Greedy FIFO on one processor per task.
#[derive(Default)]
struct Fifo {
    queue: std::collections::VecDeque<TaskId>,
}

impl Scheduler for Fifo {
    fn release(&mut self, task: TaskId, _m: &SpeedupModel) {
        self.queue.push_back(task);
    }
    fn select(&mut self, _now: f64, free: u32) -> Vec<(TaskId, u32)> {
        let take = (free as usize).min(self.queue.len());
        self.queue.drain(..take).map(|t| (t, 1)).collect()
    }
}

fn fingerprint(placements: &[Placement]) -> Vec<(u32, u64, u64, u32, u64)> {
    placements
        .iter()
        .map(|pl| {
            (
                pl.task.0,
                pl.start.to_bits(),
                pl.end.to_bits(),
                pl.procs,
                pl.released.to_bits(),
            )
        })
        .collect()
}

/// Work mix engineered so that many tasks finish at the same instant
/// (durations repeat with period 4) — every simultaneous-completion
/// tie-break and every simultaneous-arrival revelation is exercised.
fn tie_heavy_works(n: u32) -> Vec<f64> {
    (0..n).map(|i| 1.0 + f64::from(i % 4)).collect()
}

#[test]
fn arrival_tie_breaks_agree_across_reference_and_every_entry_point() {
    let n = 64;
    let p = 6;
    let works = tie_heavy_works(n);
    let opts = SimOptions::new(p);

    // 1) TimedArrivals: all release dates equal (t = 0), reference loop.
    let releases: Vec<(f64, SpeedupModel)> = works.iter().map(|&w| (0.0, unit(w))).collect();
    let via_reference = per_task::simulate_instance(
        &mut TimedArrivals::new(releases.clone()),
        &mut Fifo::default(),
        &opts,
    )
    .unwrap();

    // 2) The same stream through the core.
    let via_arrivals = simulate_instance(
        &mut TimedArrivals::new(releases.clone()),
        &mut Fifo::default(),
        &opts,
    )
    .unwrap();

    // 3) The equivalent independent-tasks graph, both one-shot doors.
    let mut b = GraphBuilder::new();
    for &w in &works {
        b.add_task(unit(w));
    }
    let graph = b.freeze();
    let via_graph =
        simulate_instance(&mut GraphInstance::new(&graph), &mut Fifo::default(), &opts).unwrap();
    let via_simulate = simulate(&graph, &mut Fifo::default(), &opts).unwrap();

    // 4) TimedArrivals again, incremental stepper.
    let via_stepper = Stepper::new(TimedArrivals::new(releases), Fifo::default(), &opts)
        .finish()
        .unwrap();

    let reference = fingerprint(&via_reference.placements);
    for (name, s) in [
        ("arrivals", &via_arrivals),
        ("graph", &via_graph),
        ("simulate", &via_simulate),
        ("stepper", &via_stepper),
    ] {
        assert_eq!(fingerprint(&s.placements), reference, "{name}");
        assert_eq!(
            s.makespan.to_bits(),
            via_reference.makespan.to_bits(),
            "{name}"
        );
    }
}

#[test]
fn staggered_zero_gap_bursts_agree_between_engine_and_stepper() {
    // Bursts of simultaneous arrivals at t = 0, 0.5, 0.5, 2 — the
    // 0.5 burst is split across two submission groups to exercise the
    // stable tie-break between groups as well as within one.
    let mut releases = Vec::new();
    for (at, k) in [(0.0, 5u32), (0.5, 3), (0.5, 4), (2.0, 6)] {
        for i in 0..k {
            releases.push((at, unit(1.0 + f64::from(i % 2))));
        }
    }
    let opts = SimOptions::new(3);
    let reference = per_task::simulate_instance(
        &mut TimedArrivals::new(releases.clone()),
        &mut Fifo::default(),
        &opts,
    )
    .unwrap();
    let mut stepper = Stepper::new(TimedArrivals::new(releases), Fifo::default(), &opts);
    let mut done = Vec::new();
    // Advance in awkward slices that straddle the burst instants.
    for horizon in [0.4, 0.5, 0.6, 1.9, 2.0, f64::INFINITY] {
        stepper.advance_until(horizon, &mut done).unwrap();
    }
    assert_eq!(done.len(), reference.placements.len());
    assert_eq!(
        fingerprint(stepper.placements()),
        fingerprint(&reference.placements)
    );
}
