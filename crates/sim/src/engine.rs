//! The scheduler and instance traits, and the two one-shot entry
//! points: [`simulate`] for a static graph and [`simulate_instance`]
//! for any [`Instance`]. Both run the core in [`crate::Stepper`] to
//! completion.

use std::fmt;

use moldable_graph::{Frontier, TaskGraph, TaskId};
use moldable_model::SpeedupModel;

use crate::{Schedule, Stepper};

/// An online scheduling policy, driven by the engine.
///
/// The engine calls [`Scheduler::release`] exactly once per task, when
/// the task becomes *available* (all predecessors done) — this is the
/// only point where the scheduler learns the task exists and sees its
/// speedup model, matching the paper's online information model. At
/// every decision point (time 0 and each completion) the engine calls
/// [`Scheduler::select`] repeatedly until it returns an empty batch.
///
/// The core drives that contract through [`Scheduler::release_batch`]
/// and [`Scheduler::select_batch`], whose defaults are built from the
/// per-task hooks.
pub trait Scheduler {
    /// Called once before the simulation starts.
    fn init(&mut self, p_total: u32) {
        let _ = p_total;
    }

    /// A task has become available; its execution-time parameters are
    /// now known.
    fn release(&mut self, task: TaskId, model: &SpeedupModel);

    /// Choose tasks to start *now*. `free` is the number of currently
    /// idle processors; the total allocation of the returned batch must
    /// not exceed it. Return an empty batch to wait for the next event.
    fn select(&mut self, now: f64, free: u32) -> Vec<(TaskId, u32)>;

    /// [`Scheduler::select`], but appending the batch to a caller-owned
    /// buffer. The engine clears and reuses one buffer across all
    /// decision points, so schedulers overriding this run
    /// allocation-free at steady state; the default delegates to
    /// [`Scheduler::select`] so existing schedulers keep working
    /// unchanged. The buffer arrives empty; implementations must only
    /// append.
    fn select_into(&mut self, now: f64, free: u32, out: &mut Vec<(TaskId, u32)>) {
        out.extend(self.select(now, free));
    }

    /// `tasks` became available by time `now` — the tasks revealed by
    /// this instant's completions, in completion order, then its timed
    /// arrivals — with their models in `instance`; the default calls
    /// [`Scheduler::release`] once per task.
    fn release_batch(&mut self, instance: &dyn Instance, now: f64, tasks: &[TaskId]) {
        let _ = now;
        for &t in tasks {
            self.release(t, instance.model(t));
        }
    }

    /// [`Scheduler::select_into`] that can also return each pick's
    /// duration: a scheduler that already holds `model.time(procs)`
    /// for its picks appends it to `durs`, one per pick in `out`
    /// order, bit-exactly. The core prices every pick without one as
    /// `instance.model(task).time(procs)` once it has validated the
    /// pick; the default appends none. A duration that is NaN,
    /// negative or infinite, or that ends past `f64::MAX`, passed or
    /// priced, is [`SimError::BadDuration`].
    fn select_batch(
        &mut self,
        now: f64,
        free: u32,
        out: &mut Vec<(TaskId, u32)>,
        durs: &mut Vec<f64>,
    ) {
        let _ = durs;
        self.select_into(now, free, out);
    }
}

/// A source of tasks for the engine. The static case is a
/// [`TaskGraph`] (see [`GraphInstance`]); adaptive adversaries (the
/// paper's Section 5) implement this directly and may decide the
/// remaining structure *after* observing completions.
///
/// Release methods return bare [`TaskId`]s; the engine looks up the
/// speedup function through [`Instance::model`] whenever it needs one.
/// This keeps model *ownership* with the instance — the engine never
/// clones a `SpeedupModel` per task, which used to dominate release
/// cost on large instances (a clone bumps an `Arc` for table/formula
/// models and copies parameter structs for closed-form ones, per task).
pub trait Instance {
    /// Tasks available at time 0, in release order.
    fn initial(&mut self) -> Vec<TaskId>;

    /// `task` completed at simulated time `time`; return the tasks that
    /// become available as a result, in release order. Adaptive
    /// adversaries may use `time` to record their decision points.
    fn on_complete(&mut self, task: TaskId, time: f64) -> Vec<TaskId>;

    /// [`Instance::on_complete`], but appending the newly available
    /// tasks to a caller-owned buffer. The engine reuses one scratch
    /// buffer for all completions of an instant, so instances
    /// overriding this (like [`GraphInstance`]) make the completion
    /// path allocation-free; the default delegates to
    /// [`Instance::on_complete`]. The buffer may already hold tasks
    /// revealed earlier in the same instant; implementations must only
    /// append.
    fn on_complete_into(&mut self, task: TaskId, time: f64, out: &mut Vec<TaskId>) {
        out.extend(self.on_complete(task, time));
    }

    /// Have all tasks of the instance completed?
    fn is_done(&self) -> bool;

    /// The speedup model of a task this instance has released. Must be
    /// stable from the task's release to its completion.
    fn model(&self, task: TaskId) -> &SpeedupModel;

    /// Expected number of tasks this instance will release (0 when
    /// unknown). The engine pre-sizes its per-task state from this, so
    /// a good hint avoids re-allocation on million-task instances.
    fn size_hint(&self) -> usize {
        0
    }

    /// Next time at which tasks arrive *independently of completions*
    /// (release dates, the online-independent-tasks model of Ye et
    /// al.). `None` (the default) means all future releases are
    /// triggered by completions.
    fn next_arrival(&self) -> Option<f64> {
        None
    }

    /// Tasks arriving at exactly `time` (the engine calls this when the
    /// clock reaches the time previously returned by
    /// [`Instance::next_arrival`]).
    fn arrivals(&mut self, time: f64) -> Vec<TaskId> {
        let _ = time;
        Vec::new()
    }
}

/// Adapter: a static [`TaskGraph`] as an [`Instance`].
pub struct GraphInstance<'a> {
    graph: &'a TaskGraph,
    frontier: Frontier,
}

impl<'a> GraphInstance<'a> {
    /// Wrap a graph for simulation.
    #[must_use]
    pub fn new(graph: &'a TaskGraph) -> Self {
        Self {
            graph,
            frontier: Frontier::new(graph),
        }
    }
}

impl Instance for GraphInstance<'_> {
    fn initial(&mut self) -> Vec<TaskId> {
        self.frontier.initial(self.graph)
    }

    fn on_complete(&mut self, task: TaskId, _time: f64) -> Vec<TaskId> {
        self.frontier.complete(self.graph, task)
    }

    fn on_complete_into(&mut self, task: TaskId, _time: f64, out: &mut Vec<TaskId>) {
        self.frontier.complete_into(self.graph, task, out);
    }

    fn is_done(&self) -> bool {
        self.frontier.all_done()
    }

    fn model(&self, task: TaskId) -> &SpeedupModel {
        self.graph.model(task)
    }

    fn size_hint(&self) -> usize {
        self.graph.n_tasks()
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Platform size `P ≥ 1`.
    pub p_total: u32,
    /// Record concrete processor ids per placement (needed for Gantt
    /// rendering; adds O(fragments) bookkeeping per task).
    pub record_proc_ids: bool,
}

impl SimOptions {
    /// Options for a `P`-processor platform without id recording.
    #[must_use]
    pub fn new(p_total: u32) -> Self {
        assert!(p_total >= 1);
        Self {
            p_total,
            record_proc_ids: false,
        }
    }

    /// Enable concrete processor-id recording (for Gantt charts).
    #[must_use]
    pub fn with_proc_ids(mut self) -> Self {
        self.record_proc_ids = true;
        self
    }
}

/// Ways a simulation can fail. All of these indicate a *scheduler*
/// (or instance) bug, never an engine limitation; the engine refuses
/// to mask them.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The scheduler started a task the engine never released to it.
    NotAvailable(TaskId),
    /// The scheduler started a task with a zero-processor allocation.
    ZeroProcs(TaskId),
    /// A start's duration — passed by the scheduler or priced by the
    /// task's model — is NaN, negative or infinite, or overflows the
    /// end time to infinity.
    BadDuration {
        /// Offending task.
        task: TaskId,
        /// The duration it would have run for.
        dur: f64,
    },
    /// The scheduler's batch exceeded the free processors.
    Oversubscribed {
        /// Offending task.
        task: TaskId,
        /// Processors the task asked for.
        want: u32,
        /// Processors actually free at that point of the batch.
        free: u32,
    },
    /// Available tasks exist but nothing is running and the scheduler
    /// selects nothing: the simulation can make no further progress.
    Stuck {
        /// Simulated time at which progress stopped.
        time: f64,
        /// Tasks completed so far.
        completed: usize,
    },
    /// The instance reported completion while the engine still believes
    /// tasks are outstanding (or vice versa).
    InconsistentInstance,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotAvailable(t) => write!(f, "scheduler started unavailable task {t}"),
            Self::ZeroProcs(t) => write!(f, "scheduler started {t} on zero processors"),
            Self::BadDuration { task, dur } => {
                write!(f, "{task} started with invalid duration {dur}")
            }
            Self::Oversubscribed { task, want, free } => {
                write!(
                    f,
                    "scheduler oversubscribed: {task} wants {want}, only {free} free"
                )
            }
            Self::Stuck { time, completed } => {
                write!(f, "no progress at t={time} after {completed} completions")
            }
            Self::InconsistentInstance => write!(f, "instance reported inconsistent state"),
        }
    }
}

impl std::error::Error for SimError {}

/// Forwarding impl, so a borrowed scheduler (`&mut S`, or
/// `&mut dyn Scheduler`) drives the core; every provided method is
/// forwarded, so overrides are kept.
impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn init(&mut self, p_total: u32) {
        (**self).init(p_total);
    }

    fn release(&mut self, task: TaskId, model: &SpeedupModel) {
        (**self).release(task, model);
    }

    fn select(&mut self, now: f64, free: u32) -> Vec<(TaskId, u32)> {
        (**self).select(now, free)
    }

    fn select_into(&mut self, now: f64, free: u32, out: &mut Vec<(TaskId, u32)>) {
        (**self).select_into(now, free, out);
    }

    fn release_batch(&mut self, instance: &dyn Instance, now: f64, tasks: &[TaskId]) {
        (**self).release_batch(instance, now, tasks);
    }

    fn select_batch(
        &mut self,
        now: f64,
        free: u32,
        out: &mut Vec<(TaskId, u32)>,
        durs: &mut Vec<f64>,
    ) {
        (**self).select_batch(now, free, out, durs);
    }
}

/// Forwarding impl, so a borrowed instance (`&mut I`, or
/// `&mut dyn Instance`) drives the core; every provided method is
/// forwarded, so overrides are kept.
impl<I: Instance + ?Sized> Instance for &mut I {
    fn initial(&mut self) -> Vec<TaskId> {
        (**self).initial()
    }

    fn on_complete(&mut self, task: TaskId, time: f64) -> Vec<TaskId> {
        (**self).on_complete(task, time)
    }

    fn on_complete_into(&mut self, task: TaskId, time: f64, out: &mut Vec<TaskId>) {
        (**self).on_complete_into(task, time, out);
    }

    fn is_done(&self) -> bool {
        (**self).is_done()
    }

    fn model(&self, task: TaskId) -> &SpeedupModel {
        (**self).model(task)
    }

    fn size_hint(&self) -> usize {
        (**self).size_hint()
    }

    fn next_arrival(&self) -> Option<f64> {
        (**self).next_arrival()
    }

    fn arrivals(&mut self, time: f64) -> Vec<TaskId> {
        (**self).arrivals(time)
    }
}

/// Run a frozen [`TaskGraph`] to completion under `scheduler` on
/// `opts.p_total` processors: [`simulate_instance`] on a
/// [`GraphInstance`] of the graph.
///
/// # Errors
///
/// Returns a [`SimError`] if the scheduler oversubscribes, starts an
/// unavailable task, starts on zero processors, or wedges the
/// simulation — never masked.
pub fn simulate(
    graph: &TaskGraph,
    scheduler: &mut dyn Scheduler,
    opts: &SimOptions,
) -> Result<Schedule, SimError> {
    Stepper::new(GraphInstance::new(graph), scheduler, opts).finish()
}

/// Run an [`Instance`] (static or adaptive) to completion under
/// `scheduler` on `opts.p_total` processors.
///
/// Task ids issued by the instance are expected to be small dense
/// integers (they index internal vectors).
///
/// # Errors
///
/// Returns a [`SimError`] if the scheduler oversubscribes, starts an
/// unavailable task, or wedges the simulation.
pub fn simulate_instance(
    instance: &mut dyn Instance,
    scheduler: &mut dyn Scheduler,
    opts: &SimOptions,
) -> Result<Schedule, SimError> {
    Stepper::new(instance, scheduler, opts).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_graph::GraphBuilder;

    fn unit(w: f64) -> SpeedupModel {
        SpeedupModel::amdahl(w, 0.0).unwrap()
    }

    /// Run `g` through both entry points, each with a fresh scheduler
    /// from `mk`; demand identical results.
    fn both<S: Scheduler>(
        g: &TaskGraph,
        mk: impl Fn() -> S,
        opts: &SimOptions,
    ) -> Result<Schedule, SimError> {
        let fast = simulate(g, &mut mk(), opts);
        let slow = simulate_instance(&mut GraphInstance::new(g), &mut mk(), opts);
        assert_eq!(fast, slow, "simulate and simulate_instance disagree");
        fast
    }

    /// Greedy FIFO: start queued tasks on a fixed allocation while they fit.
    struct Fifo {
        alloc: u32,
        queue: std::collections::VecDeque<TaskId>,
    }

    impl Fifo {
        fn new(alloc: u32) -> Self {
            Self {
                alloc,
                queue: std::collections::VecDeque::new(),
            }
        }
    }

    impl Scheduler for Fifo {
        fn release(&mut self, task: TaskId, _m: &SpeedupModel) {
            self.queue.push_back(task);
        }
        fn select(&mut self, _now: f64, free: u32) -> Vec<(TaskId, u32)> {
            let mut out = Vec::new();
            let mut free = free;
            while free >= self.alloc {
                match self.queue.pop_front() {
                    Some(t) => {
                        out.push((t, self.alloc));
                        free -= self.alloc;
                    }
                    None => break,
                }
            }
            out
        }
    }

    #[test]
    fn chain_runs_serially() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(unit(2.0));
        let b = g.add_task(unit(3.0));
        let c = g.add_task(unit(1.0));
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        let g = g.freeze();
        let s = both(&g, || Fifo::new(1), &SimOptions::new(4)).unwrap();
        assert_eq!(s.makespan, 6.0);
        assert_eq!(s.placements.len(), 3);
        assert_eq!(s.placement(b).unwrap().start, 2.0);
        s.validate(&g).unwrap();
    }

    #[test]
    fn independents_run_in_parallel_up_to_capacity() {
        let mut g = GraphBuilder::new();
        for _ in 0..6 {
            g.add_task(unit(1.0));
        }
        let g = g.freeze();
        // P = 4, one proc each: 4 run at t=0, 2 at t=1.
        let s = both(&g, || Fifo::new(1), &SimOptions::new(4)).unwrap();
        assert_eq!(s.makespan, 2.0);
        assert_eq!(s.placements.iter().filter(|p| p.start == 0.0).count(), 4);
        s.validate(&g).unwrap();
    }

    #[test]
    fn simultaneous_completions_release_together() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(unit(1.0));
        let b = g.add_task(unit(1.0));
        let c = g.add_task(unit(1.0));
        g.add_edge(a, c).unwrap();
        g.add_edge(b, c).unwrap();
        let g = g.freeze();
        let s = both(&g, || Fifo::new(2), &SimOptions::new(4)).unwrap();
        // a and b run in parallel on 2 procs each over [0, 0.5);
        // c starts exactly when both complete.
        assert_eq!(s.placement(c).unwrap().start, 0.5);
        assert_eq!(s.makespan, 1.0);
        s.validate(&g).unwrap();
    }

    #[test]
    fn oversubscription_is_detected() {
        struct Bad;
        impl Scheduler for Bad {
            fn release(&mut self, _t: TaskId, _m: &SpeedupModel) {}
            fn select(&mut self, _now: f64, _free: u32) -> Vec<(TaskId, u32)> {
                vec![(TaskId(0), 99)]
            }
        }
        let mut g = GraphBuilder::new();
        g.add_task(unit(1.0));
        let g = g.freeze();
        let err = both(&g, || Bad, &SimOptions::new(4)).unwrap_err();
        assert!(matches!(
            err,
            SimError::Oversubscribed {
                want: 99,
                free: 4,
                ..
            }
        ));
    }

    #[test]
    fn unavailable_task_is_detected() {
        struct Eager(u32);
        impl Scheduler for Eager {
            fn release(&mut self, _t: TaskId, _m: &SpeedupModel) {}
            fn select(&mut self, _now: f64, _free: u32) -> Vec<(TaskId, u32)> {
                vec![(TaskId(self.0), 1)]
            }
        }
        let mut g = GraphBuilder::new();
        let a = g.add_task(unit(1.0));
        let b = g.add_task(unit(1.0));
        g.add_edge(a, b).unwrap();
        let g = g.freeze();
        // Task 1 is not yet revealed; task 99 does not exist.
        for id in [1, 99] {
            let err = both(&g, || Eager(id), &SimOptions::new(4)).unwrap_err();
            assert_eq!(err, SimError::NotAvailable(TaskId(id)));
        }
    }

    #[test]
    fn zero_proc_start_is_detected() {
        struct Zero;
        impl Scheduler for Zero {
            fn release(&mut self, _t: TaskId, _m: &SpeedupModel) {}
            fn select(&mut self, _now: f64, _free: u32) -> Vec<(TaskId, u32)> {
                vec![(TaskId(0), 0)]
            }
        }
        let mut g = GraphBuilder::new();
        g.add_task(unit(1.0));
        let g = g.freeze();
        let err = both(&g, || Zero, &SimOptions::new(4)).unwrap_err();
        assert_eq!(err, SimError::ZeroProcs(TaskId(0)));
    }

    #[test]
    fn lazy_scheduler_is_stuck() {
        struct Lazy;
        impl Scheduler for Lazy {
            fn release(&mut self, _t: TaskId, _m: &SpeedupModel) {}
            fn select(&mut self, _now: f64, _free: u32) -> Vec<(TaskId, u32)> {
                Vec::new()
            }
        }
        let mut g = GraphBuilder::new();
        g.add_task(unit(1.0));
        let g = g.freeze();
        let err = both(&g, || Lazy, &SimOptions::new(4)).unwrap_err();
        assert!(matches!(err, SimError::Stuck { .. }));
    }

    #[test]
    fn proc_ids_recorded_when_requested() {
        let mut g = GraphBuilder::new();
        g.add_task(unit(1.0));
        g.add_task(unit(1.0));
        let g = g.freeze();
        let opts = SimOptions::new(4).with_proc_ids();
        let s = both(&g, || Fifo::new(2), &opts).unwrap();
        assert_eq!(s.placements[0].proc_ranges, vec![(0, 1)]);
        assert_eq!(s.placements[1].proc_ranges, vec![(2, 3)]);
    }

    #[test]
    fn release_times_are_recorded() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(unit(2.0));
        let b = g.add_task(unit(3.0));
        g.add_edge(a, b).unwrap();
        let g = g.freeze();
        let s = both(&g, || Fifo::new(1), &SimOptions::new(2)).unwrap();
        assert_eq!(s.placement(a).unwrap().released, 0.0);
        // b was revealed when a completed at t = 2 and started right away.
        assert_eq!(s.placement(b).unwrap().released, 2.0);
        assert_eq!(s.placement(b).unwrap().waiting(), 0.0);
        assert_eq!(s.placement(b).unwrap().flow(), 3.0);
    }

    #[test]
    fn moldable_allocation_changes_duration() {
        let mut g = GraphBuilder::new();
        g.add_task(unit(8.0));
        let g = g.freeze();
        let s = both(&g, || Fifo::new(4), &SimOptions::new(4)).unwrap();
        assert_eq!(s.makespan, 2.0); // 8 / 4
        let s = both(&g, || Fifo::new(2), &SimOptions::new(4)).unwrap();
        assert_eq!(s.makespan, 4.0); // 8 / 2
    }

    #[test]
    fn empty_graph_simulates_to_empty_schedule() {
        let g = TaskGraph::empty();
        let s = both(&g, || Fifo::new(1), &SimOptions::new(2)).unwrap();
        assert_eq!(s.makespan, 0.0);
        assert!(s.placements.is_empty());
    }

    #[test]
    fn utilization_of_saturated_schedule_is_one() {
        let mut g = GraphBuilder::new();
        for _ in 0..4 {
            g.add_task(unit(3.0));
        }
        let g = g.freeze();
        let s = both(&g, || Fifo::new(1), &SimOptions::new(4)).unwrap();
        assert!((s.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn borrowed_schedulers_and_instances_keep_their_overrides() {
        /// FIFO whose batched hooks count their calls; the per-task
        /// `release` must never run.
        #[derive(Default)]
        struct Batched {
            fifo: std::collections::VecDeque<TaskId>,
            batches: usize,
            selects: usize,
        }
        impl Scheduler for Batched {
            fn release(&mut self, _t: TaskId, _m: &SpeedupModel) {
                unreachable!("release_batch is overridden");
            }
            fn select(&mut self, _now: f64, _free: u32) -> Vec<(TaskId, u32)> {
                unreachable!("select_batch is overridden");
            }
            fn release_batch(&mut self, _inst: &dyn Instance, _now: f64, tasks: &[TaskId]) {
                self.batches += 1;
                self.fifo.extend(tasks);
            }
            fn select_batch(
                &mut self,
                _now: f64,
                free: u32,
                out: &mut Vec<(TaskId, u32)>,
                _durs: &mut Vec<f64>,
            ) {
                self.selects += 1;
                let take = (free as usize).min(self.fifo.len());
                out.extend(self.fifo.drain(..take).map(|t| (t, 1)));
            }
        }
        /// A graph whose allocating `on_complete` must never run.
        struct IntoOnly<'a>(GraphInstance<'a>);
        impl Instance for IntoOnly<'_> {
            fn initial(&mut self) -> Vec<TaskId> {
                self.0.initial()
            }
            fn on_complete(&mut self, _t: TaskId, _time: f64) -> Vec<TaskId> {
                unreachable!("on_complete_into is overridden");
            }
            fn on_complete_into(&mut self, t: TaskId, time: f64, out: &mut Vec<TaskId>) {
                self.0.on_complete_into(t, time, out);
            }
            fn is_done(&self) -> bool {
                self.0.is_done()
            }
            fn model(&self, t: TaskId) -> &SpeedupModel {
                self.0.model(t)
            }
        }
        let mut g = GraphBuilder::new();
        let a = g.add_task(unit(1.0));
        let b = g.add_task(unit(1.0));
        g.add_edge(a, b).unwrap();
        let g = g.freeze();
        let opts = SimOptions::new(2);
        let mut sched = Batched::default();
        let s = simulate(&g, &mut sched, &opts).unwrap();
        assert_eq!(s.makespan, 2.0);
        assert_eq!((sched.batches, sched.selects), (2, 5));
        let mut sched = Batched::default();
        let mut inst = IntoOnly(GraphInstance::new(&g));
        let t = simulate_instance(&mut inst, &mut sched, &opts).unwrap();
        assert_eq!(t, s);
        assert_eq!((sched.batches, sched.selects), (2, 5));
    }
}
