//! The simulation core: one resumable, batched event loop.
//!
//! Every entry point runs here. [`crate::simulate`] and
//! [`crate::simulate_instance`] build a [`Stepper`] and
//! [`Stepper::finish`] it (advance to ∞); long-lived services (the
//! multi-tenant session layer) keep one and [`Stepper::advance_until`]
//! a time horizon, feeding new arrivals into the instance between
//! slices and observing each completion as an index into the growing
//! placement log.
//!
//! Completions are ordered by `(time, start sequence)`, and all
//! completions at one instant retire as a batch: processors are freed
//! first, the consequences revealed in completion order, the timed
//! arrivals due then appended, and the whole instant handed to the
//! scheduler in one [`Scheduler::release_batch`] before a new decision
//! point. Per-event costs stay flat:
//!
//! * **Run-length completion events.** Starts of one decision point
//!   that end at the same instant (bit-identical end times) share one
//!   heap entry covering their consecutive placement indices, so an
//!   instant that retires b tasks started together pops one entry,
//!   not b. Retiring a run reads its placements, which sit side by
//!   side. The Thm 6 and Thm 9 witnesses finish thousands of
//!   equal-length tasks per instant; graphs with irregular durations
//!   get runs of one.
//! * **Byte-per-task state.** Task state is a dense `u8` column beside
//!   a `released` column, sized from [`Instance::size_hint`] and grown
//!   on demand for instances that outrun their hint.
//! * **Batched scheduler calls.** One `release_batch` per instant;
//!   starts come back from [`Scheduler::select_batch`] with their
//!   durations when the scheduler already knows them.
//!
//! `tests/` holds the core to a verbatim copy of the former per-task
//! loop and to golden schedule fingerprints.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use moldable_graph::TaskId;

use crate::{Instance, Placement, ProcPool, Schedule, Scheduler, SimError, SimOptions};

/// Task state column values (plain `u8`, not an enum, so the state
/// array is a byte per task).
const NOT_RELEASED: u8 = 0;
const AVAILABLE: u8 = 1;
const RUNNING: u8 = 2;
const DONE: u8 = 3;

/// A run of completions: placements `first..first + len`, started in
/// one decision point, one after another, all ending at the same
/// `time` (bit-identical). Runs are disjoint index ranges with one end
/// time each, so popping them by `(time, first)` and expanding each in
/// index order is exactly the `(time, start sequence)` order of one
/// event per task.
#[derive(Debug, Clone, Copy)]
struct Run {
    time: f64,
    first: u32,
    len: u32,
}

impl Run {
    fn indices(self) -> std::ops::Range<usize> {
        let first = self.first as usize;
        first..first + self.len as usize
    }
}

impl PartialEq for Run {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for Run {}
impl PartialOrd for Run {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Run {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.first.cmp(&other.first))
    }
}

/// An in-flight simulation that can be advanced in time slices.
///
/// It owns both the instance and the scheduler (pass `&mut` borrows to
/// keep them), so a service can hold one `Stepper` for the lifetime of
/// a shared platform and mutate the instance between advances
/// (submitting new work) through [`Stepper::instance_mut`].
///
/// Mutation contract: between advances the caller may only *add*
/// future work — arrivals at or after [`Stepper::now`] — and register
/// state for tasks the engine has not yet seen. Rewriting the past
/// (arrivals before `now`, models of released tasks) breaks the
/// engine invariants.
pub struct Stepper<I, S> {
    instance: I,
    scheduler: S,
    p_total: u32,
    free: u32,
    pool: Option<ProcPool>,
    placements: Vec<Placement>,
    heap: BinaryHeap<Reverse<Run>>,
    time: f64,
    completed: usize,
    state: Vec<u8>,
    released: Vec<f64>,
    picks: Vec<(TaskId, u32)>,
    durs: Vec<f64>,
    newly: Vec<TaskId>,
    batch: Vec<Run>,
    primed: bool,
    error: Option<SimError>,
}

impl<I: Instance, S: Scheduler> Stepper<I, S> {
    /// Wrap `instance` and `scheduler` for simulation on
    /// `opts.p_total` processors. Calls `scheduler.init`; the initial
    /// frontier is released lazily on the first advance, so arrivals
    /// registered before the first [`Stepper::advance_until`] are seen
    /// exactly as a one-shot run would see them.
    pub fn new(instance: I, mut scheduler: S, opts: &SimOptions) -> Self {
        let p_total = opts.p_total;
        scheduler.init(p_total);
        let hint = instance.size_hint();
        Self {
            instance,
            scheduler,
            p_total,
            free: p_total,
            pool: opts.record_proc_ids.then(|| ProcPool::new(p_total)),
            placements: Vec::with_capacity(hint),
            heap: BinaryHeap::new(),
            time: 0.0,
            completed: 0,
            state: vec![NOT_RELEASED; hint],
            released: vec![0.0; hint],
            picks: Vec::new(),
            durs: Vec::new(),
            newly: Vec::new(),
            batch: Vec::new(),
            primed: false,
            error: None,
        }
    }

    /// Time of the last processed event (0 before any event).
    #[must_use]
    pub fn now(&self) -> f64 {
        self.time
    }

    /// Currently idle processors.
    #[must_use]
    pub fn free(&self) -> u32 {
        self.free
    }

    /// Platform size.
    #[must_use]
    pub fn p_total(&self) -> u32 {
        self.p_total
    }

    /// Tasks completed so far.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// The growing placement log, in start order. Completion indices
    /// reported by [`Stepper::advance_until`] index into this slice.
    #[must_use]
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Shared view of the instance.
    pub fn instance(&self) -> &I {
        &self.instance
    }

    /// Mutable access to the instance, for feeding future work in
    /// between advances (see the mutation contract on [`Stepper`]).
    pub fn instance_mut(&mut self) -> &mut I {
        &mut self.instance
    }

    /// Shared view of the scheduler.
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// Mutable access to the scheduler, for registering state about
    /// tasks the engine has not yet released (see [`Stepper`]).
    pub fn scheduler_mut(&mut self) -> &mut S {
        &mut self.scheduler
    }

    /// Nothing running and no timed arrival pending: the platform is
    /// fully idle until new work is fed in.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.heap.is_empty() && self.instance.next_arrival().is_none()
    }

    /// Process every event with time `<= until`, appending the
    /// placement index of each completion to `completions` in
    /// retirement order. `f64::INFINITY` runs to quiescence.
    ///
    /// # Errors
    ///
    /// A [`SimError`] for a scheduler or instance bug. An error
    /// poisons the stepper: every later call returns the same error.
    pub fn advance_until(
        &mut self,
        until: f64,
        completions: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        self.advance(until, Some(completions))
    }

    /// Run the remaining events to quiescence and return the final
    /// [`Schedule`].
    ///
    /// # Errors
    ///
    /// Any pending or provoked [`SimError`]; an instance that is not
    /// done once nothing runs or arrives is `Stuck` if nothing ever
    /// completed, `InconsistentInstance` otherwise.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` placements (task ids are `u32`, and each
    /// task starts once).
    pub fn finish(mut self) -> Result<Schedule, SimError> {
        self.advance(f64::INFINITY, None)?;
        if !self.instance.is_done() {
            return Err(if self.completed > 0 {
                SimError::InconsistentInstance
            } else {
                SimError::Stuck {
                    time: 0.0,
                    completed: 0,
                }
            });
        }
        Ok(Schedule {
            p_total: self.p_total,
            placements: self.placements,
            makespan: self.time,
        })
    }

    fn advance(
        &mut self,
        until: f64,
        completions: Option<&mut Vec<usize>>,
    ) -> Result<(), SimError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        let result = self.run(until, completions);
        if let Err(e) = &result {
            self.error = Some(e.clone());
        }
        result
    }

    fn run(
        &mut self,
        until: f64,
        mut completions: Option<&mut Vec<usize>>,
    ) -> Result<(), SimError> {
        if !self.primed {
            self.newly = self.instance.initial();
            self.release();
            self.decide()?;
            self.check_progress()?;
            self.primed = true;
        }
        loop {
            let next = match (self.heap.peek(), self.instance.next_arrival()) {
                (None, None) => break,
                (Some(Reverse(run)), None) => run.time,
                (None, Some(a)) => a,
                (Some(Reverse(run)), Some(a)) => run.time.min(a),
            };
            if next > until {
                break;
            }
            self.time = next;
            self.batch.clear();
            while let Some(&Reverse(run)) = self.heap.peek() {
                if run.time != next {
                    break;
                }
                self.heap.pop();
                self.batch.push(run);
            }
            // 1) free the processors of every completion in the batch
            for run in &self.batch {
                for pl in &self.placements[run.indices()] {
                    self.free += pl.procs;
                    if let Some(pool) = &mut self.pool {
                        pool.release(&pl.proc_ranges);
                    }
                    self.state[pl.task.index()] = DONE;
                }
                self.completed += run.len as usize;
            }
            // 2) reveal the consequences, in completion order
            self.newly.clear();
            for run in &self.batch {
                for pl in &self.placements[run.indices()] {
                    self.instance
                        .on_complete_into(pl.task, next, &mut self.newly);
                }
            }
            if let Some(out) = completions.as_deref_mut() {
                out.extend(self.batch.iter().flat_map(|run| run.indices()));
            }
            // 3) timed arrivals due now, and one release for the instant
            self.release();
            // 4) new decision point
            self.decide()?;
            self.check_progress()?;
        }
        Ok(())
    }

    /// Mark the tasks in `newly` (revealed now) and the timed arrivals
    /// due by now (each at its own release date) available, then hand
    /// them to the scheduler in that order, in one batch.
    fn release(&mut self) {
        let (state, released) = (&mut self.state, &mut self.released);
        let mut mark = |t: TaskId, at: f64| {
            let i = t.index();
            if i >= state.len() {
                state.resize(i + 1, NOT_RELEASED);
                released.resize(i + 1, 0.0);
            }
            state[i] = AVAILABLE;
            released[i] = at;
        };
        for &t in &self.newly {
            mark(t, self.time);
        }
        while let Some(a) = self.instance.next_arrival() {
            if a > self.time {
                break;
            }
            let arrived = self.instance.arrivals(a);
            for &t in &arrived {
                mark(t, a);
            }
            self.newly.extend(arrived);
        }
        if !self.newly.is_empty() {
            self.scheduler
                .release_batch(&self.instance, self.time, &self.newly);
        }
    }

    /// Decision point: ask the scheduler until it passes, validating
    /// and starting each pick in order. Consecutive starts that end at
    /// the same instant share one heap [`Run`]; the open run is pushed
    /// before returning, error or not.
    fn decide(&mut self) -> Result<(), SimError> {
        let mut open: Option<Run> = None;
        let result = self.start_picks(&mut open);
        if let Some(run) = open {
            self.heap.push(Reverse(run));
        }
        result
    }

    fn start_picks(&mut self, open: &mut Option<Run>) -> Result<(), SimError> {
        loop {
            self.picks.clear();
            self.durs.clear();
            self.scheduler
                .select_batch(self.time, self.free, &mut self.picks, &mut self.durs);
            if self.picks.is_empty() {
                return Ok(());
            }
            for (k, &(task, procs)) in self.picks.iter().enumerate() {
                let i = task.index();
                if self.state.get(i) != Some(&AVAILABLE) {
                    return Err(SimError::NotAvailable(task));
                }
                if procs == 0 {
                    return Err(SimError::ZeroProcs(task));
                }
                if procs > self.free {
                    return Err(SimError::Oversubscribed {
                        task,
                        want: procs,
                        free: self.free,
                    });
                }
                let dur = match self.durs.get(k) {
                    Some(&dur) => dur,
                    None => self.instance.model(task).time(procs),
                };
                let end = self.time + dur;
                // NaN would wedge the loop (no event ever equals it); a
                // negative one would end before it starts; an infinite
                // end (an infinite duration, or a finite one that
                // overflows) never completes, yet would start every
                // successor at infinity.
                if !(dur >= 0.0 && end.is_finite()) {
                    return Err(SimError::BadDuration { task, dur });
                }
                let proc_ranges = match &mut self.pool {
                    Some(pool) => pool.alloc(procs).expect("pool tracks free count"),
                    None => Vec::new(),
                };
                self.free -= procs;
                self.state[i] = RUNNING;
                let idx = u32::try_from(self.placements.len()).expect("placements fit u32");
                self.placements.push(Placement {
                    task,
                    start: self.time,
                    end,
                    procs,
                    proc_ranges,
                    released: self.released[i],
                });
                // Starts within one decision point take consecutive
                // indices, so an equal end time extends the open run.
                match open {
                    Some(run) if run.time.to_bits() == end.to_bits() => run.len += 1,
                    _ => {
                        let run = Run {
                            time: end,
                            first: idx,
                            len: 1,
                        };
                        if let Some(done) = open.replace(run) {
                            self.heap.push(Reverse(done));
                        }
                    }
                }
            }
        }
    }

    /// The wedge check: nothing runs, nothing arrives, and the instance
    /// is not done. With tasks waiting, or before the first event, the
    /// scheduler refused to start work (`Stuck`); otherwise the
    /// instance withheld tasks it owes.
    fn check_progress(&self) -> Result<(), SimError> {
        if !self.heap.is_empty()
            || self.instance.next_arrival().is_some()
            || self.instance.is_done()
        {
            return Ok(());
        }
        Err(if !self.primed || self.state.contains(&AVAILABLE) {
            SimError::Stuck {
                time: self.time,
                completed: self.completed,
            }
        } else {
            SimError::InconsistentInstance
        })
    }
}

impl<I, S> std::fmt::Debug for Stepper<I, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stepper")
            .field("p_total", &self.p_total)
            .field("free", &self.free)
            .field("now", &self.time)
            .field("completed", &self.completed)
            .field("running", &(self.placements.len() - self.completed))
            .field("poisoned", &self.error.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphInstance, TimedArrivals};
    use moldable_graph::gen;
    use moldable_model::{ModelClass, SpeedupModel};

    fn unit(w: f64) -> SpeedupModel {
        SpeedupModel::amdahl(w, 0.0).unwrap()
    }

    /// Greedy FIFO on a fixed allocation.
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

    #[test]
    fn sliced_advances_are_bit_identical_to_one_jump() {
        let g = gen::by_name("layered", 12, ModelClass::General, 16, 3).unwrap();
        let opts = SimOptions::new(16);
        let one = Stepper::new(GraphInstance::new(&g), Fifo::new(1), &opts)
            .finish()
            .unwrap();
        let mut sliced = Stepper::new(GraphInstance::new(&g), Fifo::new(1), &opts);
        let mut seen = Vec::new();
        let mut t = 0.0;
        while !(sliced.is_idle() && sliced.now() > 0.0) {
            sliced.advance_until(t, &mut seen).unwrap();
            if sliced.is_idle() && sliced.instance().is_done() {
                break;
            }
            t += 0.37; // deliberately lands between event times
            assert!(t < 1e6, "runaway");
        }
        assert_eq!(
            seen.len(),
            one.placements.len(),
            "every completion reported"
        );
        assert_eq!(
            fingerprint(sliced.placements()),
            fingerprint(&one.placements)
        );
        // Completion indices arrive in retirement order: end times are
        // non-decreasing along the reported sequence.
        let ends: Vec<f64> = seen.iter().map(|&i| sliced.placements()[i].end).collect();
        assert!(ends.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn advance_until_is_inclusive_of_the_horizon() {
        let mut g = moldable_graph::GraphBuilder::new();
        g.add_task(unit(2.0));
        g.add_task(unit(2.0));
        let g = g.freeze();
        let mut st = Stepper::new(GraphInstance::new(&g), Fifo::new(1), &SimOptions::new(2));
        let mut done = Vec::new();
        st.advance_until(1.9, &mut done).unwrap();
        assert!(done.is_empty(), "completions at t=2 are beyond 1.9");
        st.advance_until(2.0, &mut done).unwrap();
        assert_eq!(done.len(), 2, "t=2 completions retire at horizon 2.0");
        assert_eq!(st.now(), 2.0);
        assert_eq!(st.free(), 2);
    }

    #[test]
    fn work_fed_between_advances_is_scheduled() {
        // An initially empty arrivals stream is quiescent, not an
        // error; work appended later (at or after `now`) runs.
        let opts = SimOptions::new(2);
        let mut st = Stepper::new(TimedArrivals::new(Vec::new()), Fifo::new(1), &opts);
        let mut done = Vec::new();
        st.advance_until(10.0, &mut done).unwrap();
        assert!(done.is_empty());
        assert!(st.is_idle());
        *st.instance_mut() = TimedArrivals::new(vec![(3.0, unit(2.0)), (3.0, unit(1.0))]);
        st.advance_until(3.5, &mut done).unwrap();
        assert!(done.is_empty(), "both still running at 3.5");
        st.advance_until(10.0, &mut done).unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(st.placements()[0].start, 3.0);
        assert_eq!(st.placements()[1].start, 3.0);
        assert_eq!(st.now(), 5.0);
    }

    #[test]
    fn errors_poison_the_stepper() {
        struct Lazy;
        impl Scheduler for Lazy {
            fn release(&mut self, _t: TaskId, _m: &SpeedupModel) {}
            fn select(&mut self, _now: f64, _free: u32) -> Vec<(TaskId, u32)> {
                Vec::new()
            }
        }
        let mut g = moldable_graph::GraphBuilder::new();
        g.add_task(unit(1.0));
        let g = g.freeze();
        let mut st = Stepper::new(GraphInstance::new(&g), Lazy, &SimOptions::new(2));
        let mut done = Vec::new();
        let e1 = st.advance_until(1.0, &mut done).unwrap_err();
        assert!(matches!(e1, SimError::Stuck { .. }));
        let e2 = st.advance_until(2.0, &mut done).unwrap_err();
        assert_eq!(e1, e2, "poisoned stepper repeats its error");
    }

    #[test]
    fn equal_duration_starts_share_one_heap_entry() {
        let k = 9;
        let mut g = moldable_graph::GraphBuilder::new();
        for _ in 0..k {
            g.add_task(unit(2.0));
        }
        g.add_task(unit(1.0));
        let g = g.freeze();
        let mut st = Stepper::new(GraphInstance::new(&g), Fifo::new(1), &SimOptions::new(16));
        let mut done = Vec::new();
        st.advance_until(0.0, &mut done).unwrap();
        assert_eq!(st.placements().len(), k + 1, "all start at t=0");
        // One run for the k equal ends, one for the short task.
        assert_eq!(st.heap.len(), 2);
        let runs: Vec<(f64, u32, u32)> = st
            .heap
            .clone()
            .into_sorted_vec()
            .into_iter()
            .map(|Reverse(r)| (r.time, r.first, r.len))
            .rev()
            .collect();
        assert_eq!(runs, [(1.0, 9, 1), (2.0, 0, 9)]);
        assert!(format!("{st:?}").contains("running: 10"));
        st.advance_until(1.0, &mut done).unwrap();
        assert_eq!(done, [9]);
        assert!(format!("{st:?}").contains("running: 9"));
        st.advance_until(2.0, &mut done).unwrap();
        assert_eq!(done, [9, 0, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(st.heap.is_empty());
    }

    #[test]
    fn proc_ids_are_recorded_and_recycled() {
        let mut g = moldable_graph::GraphBuilder::new();
        let a = g.add_task(unit(1.0));
        let b = g.add_task(unit(1.0));
        g.add_edge(a, b).unwrap();
        let g = g.freeze();
        let opts = SimOptions::new(2).with_proc_ids();
        let s = Stepper::new(GraphInstance::new(&g), Fifo::new(2), &opts)
            .finish()
            .unwrap();
        assert_eq!(s.placements[0].proc_ranges, vec![(0, 1)]);
        assert_eq!(s.placements[1].proc_ranges, vec![(0, 1)], "procs recycled");
    }
}
