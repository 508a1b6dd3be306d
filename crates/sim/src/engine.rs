//! The scheduler and instance traits, and the per-task event loop
//! ([`simulate_instance`]) that runs dynamic [`Instance`]s; static
//! graphs take the batched core ([`crate::simulate`]).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use moldable_graph::{Frontier, TaskGraph, TaskId};
use moldable_model::SpeedupModel;

use crate::{Placement, ProcPool, Schedule};

/// An online scheduling policy, driven by the engine.
///
/// The engine calls [`Scheduler::release`] exactly once per task, when
/// the task becomes *available* (all predecessors done) — this is the
/// only point where the scheduler learns the task exists and sees its
/// speedup model, matching the paper's online information model. At
/// every decision point (time 0 and each completion) the engine calls
/// [`Scheduler::select`] repeatedly until it returns an empty batch.
///
/// The batched core ([`crate::simulate`]) drives the same contract
/// through [`Scheduler::release_batch`] and [`Scheduler::select_batch`],
/// whose defaults are built from the per-task hooks.
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

    /// `tasks` became available at time `now`, in the order the
    /// per-task loop releases them; the default calls
    /// [`Scheduler::release`] once per task.
    fn release_batch(&mut self, graph: &TaskGraph, now: f64, tasks: &[TaskId]) {
        let _ = now;
        for &t in tasks {
            self.release(t, graph.model(t));
        }
    }

    /// [`Scheduler::select_into`] for the batched core, which can also
    /// take each pick's duration: a scheduler that already holds
    /// `model.time(procs)` for its picks appends it to `durs`, one per
    /// pick in `out` order, bit-exactly. The core prices every pick
    /// without one as `graph.model(task).time(procs)` once it has
    /// validated the pick; the default appends none.
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
    /// tasks to a caller-owned buffer. The engine clears and reuses one
    /// scratch buffer across all completions, so instances overriding
    /// this (like [`GraphInstance`]) make the completion path
    /// allocation-free; the default delegates to
    /// [`Instance::on_complete`]. The buffer arrives empty;
    /// implementations must only append.
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Available,
    Running,
    Done,
}

/// Completion event: ordered by time then submission sequence.
struct Event {
    time: f64,
    seq: u64,
    placement_idx: usize,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
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
    let p_total = opts.p_total;
    scheduler.init(p_total);

    // Pre-size per-task state from the instance's hint; `ensure` only
    // grows (within reserved capacity for well-hinted instances).
    let hint = instance.size_hint();
    let mut status: Vec<Option<Status>> = Vec::with_capacity(hint);
    let mut released_at: Vec<f64> = Vec::with_capacity(hint);
    let ensure = |status: &mut Vec<Option<Status>>, released_at: &mut Vec<f64>, t: TaskId| {
        let need = t.index() + 1;
        if status.len() < need {
            status.resize(need, None);
            released_at.resize(need, 0.0);
        }
    };

    let mut free = p_total;
    let mut pool = opts.record_proc_ids.then(|| ProcPool::new(p_total));
    let mut placements: Vec<Placement> = Vec::with_capacity(hint);
    // At most one outstanding completion per busy processor.
    let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::with_capacity(p_total as usize);
    let mut seq: u64 = 0;
    let mut time = 0.0f64;
    let mut completed = 0usize;

    // Release the initial frontier.
    for t in instance.initial() {
        ensure(&mut status, &mut released_at, t);
        scheduler.release(t, instance.model(t));
        status[t.index()] = Some(Status::Available);
        released_at[t.index()] = 0.0;
    }

    // Scratch buffers reused across every decision point and
    // completion: the steady-state loop allocates nothing.
    let mut picks: Vec<(TaskId, u32)> = Vec::new();
    let mut newly: Vec<TaskId> = Vec::new();

    // Decision loop: ask the scheduler until it passes.
    macro_rules! decide {
        () => {
            loop {
                picks.clear();
                scheduler.select_into(time, free, &mut picks);
                if picks.is_empty() {
                    break;
                }
                for (t, p) in picks.drain(..) {
                    if t.index() >= status.len() || status[t.index()] != Some(Status::Available) {
                        return Err(SimError::NotAvailable(t));
                    }
                    if p == 0 {
                        return Err(SimError::ZeroProcs(t));
                    }
                    if p > free {
                        return Err(SimError::Oversubscribed {
                            task: t,
                            want: p,
                            free,
                        });
                    }
                    let dur = instance.model(t).time(p);
                    let proc_ranges = match &mut pool {
                        Some(pool) => pool.alloc(p).expect("pool tracks free count"),
                        None => Vec::new(),
                    };
                    free -= p;
                    status[t.index()] = Some(Status::Running);
                    let placement_idx = placements.len();
                    placements.push(Placement {
                        task: t,
                        start: time,
                        end: time + dur,
                        procs: p,
                        proc_ranges,
                        released: released_at[t.index()],
                    });
                    heap.push(Reverse(Event {
                        time: time + dur,
                        seq,
                        placement_idx,
                    }));
                    seq += 1;
                }
            }
        };
    }

    // Timed arrivals already due at time 0 (release dates ≤ 0).
    macro_rules! drain_arrivals {
        () => {
            while let Some(a) = instance.next_arrival() {
                if a > time {
                    break;
                }
                for t in instance.arrivals(a) {
                    ensure(&mut status, &mut released_at, t);
                    scheduler.release(t, instance.model(t));
                    status[t.index()] = Some(Status::Available);
                    released_at[t.index()] = a;
                }
            }
        };
    }
    drain_arrivals!();
    decide!();

    // Completion batch, reused across decision points.
    let mut batch: Vec<usize> = Vec::new();
    loop {
        // Next event: a completion or a timed arrival, whichever first
        // (completions processed before arrivals at equal times).
        let next_completion = heap.peek().map(|Reverse(e)| e.time);
        let next_arrival = instance.next_arrival();
        let t_next = match (next_completion, next_arrival) {
            (None, None) => break,
            (Some(c), None) => c,
            (None, Some(a)) => a,
            (Some(c), Some(a)) => c.min(a),
        };
        time = t_next;
        // Gather all completions at exactly this time (in seq order —
        // BinaryHeap pops them in (time, seq) order).
        batch.clear();
        while let Some(Reverse(peek)) = heap.peek() {
            if peek.time == time {
                let Reverse(ev) = heap.pop().expect("peeked");
                batch.push(ev.placement_idx);
            } else {
                break;
            }
        }
        // 1) free the processors of every completion in the batch
        for &idx in &batch {
            let pl = &placements[idx];
            free += pl.procs;
            if let Some(pool) = &mut pool {
                pool.release(&pl.proc_ranges);
            }
            status[pl.task.index()] = Some(Status::Done);
            completed += 1;
        }
        // 2) reveal the consequences, in completion order
        for &idx in &batch {
            let task = placements[idx].task;
            newly.clear();
            instance.on_complete_into(task, time, &mut newly);
            for &t in &newly {
                ensure(&mut status, &mut released_at, t);
                scheduler.release(t, instance.model(t));
                status[t.index()] = Some(Status::Available);
                released_at[t.index()] = time;
            }
        }
        // 3) timed arrivals due now
        drain_arrivals!();
        // 4) new decision point
        decide!();

        if heap.is_empty() && instance.next_arrival().is_none() && !instance.is_done() {
            // Nothing running, nothing arriving, instance incomplete:
            // the scheduler refused available work (or the instance is
            // inconsistent).
            let any_available = status.contains(&Some(Status::Available));
            return Err(if any_available {
                SimError::Stuck { time, completed }
            } else {
                SimError::InconsistentInstance
            });
        }
    }

    if !instance.is_done() && completed > 0 {
        return Err(SimError::InconsistentInstance);
    }
    if completed == 0 && !instance.is_done() {
        // Nothing ever ran (e.g. scheduler refused the initial frontier).
        return Err(SimError::Stuck {
            time: 0.0,
            completed: 0,
        });
    }

    Ok(Schedule {
        p_total,
        placements,
        makespan: time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use moldable_graph::GraphBuilder;

    fn unit(w: f64) -> SpeedupModel {
        SpeedupModel::amdahl(w, 0.0).unwrap()
    }

    /// Run `g` through the batched core and the per-task loop, each
    /// with a fresh scheduler from `mk`; demand identical results.
    fn both<S: Scheduler>(
        g: &TaskGraph,
        mk: impl Fn() -> S,
        opts: &SimOptions,
    ) -> Result<Schedule, SimError> {
        let fast = simulate(g, &mut mk(), opts);
        let slow = simulate_instance(&mut GraphInstance::new(g), &mut mk(), opts);
        assert_eq!(fast, slow, "batched core and per-task loop disagree");
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
}
