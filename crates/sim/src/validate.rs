//! Schedule validation: the safety net under every experiment.
//!
//! Both simulated and hand-built (proof) schedules are checked against
//! the platform model: each task placed exactly once, durations
//! consistent with the speedup model, precedence respected, and at most
//! `P` processors busy at any instant.

use std::fmt;

use moldable_graph::{TaskGraph, TaskId};

use crate::Schedule;

/// A violation found by [`Schedule::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// A task of the graph never ran.
    MissingTask(TaskId),
    /// The schedule placed a task that is not part of the graph.
    ForeignTask(TaskId),
    /// A task ran more than once (no restarts allowed).
    DuplicateTask(TaskId),
    /// A start or end time that is NaN or infinite.
    NonFiniteTime {
        /// Offending task.
        task: TaskId,
        /// Its start time.
        start: f64,
        /// Its end time.
        end: f64,
    },
    /// Allocation outside `[1, P]`.
    BadAllocation {
        /// Offending task.
        task: TaskId,
        /// Its processor allocation.
        procs: u32,
    },
    /// Placement duration does not equal `t(procs)`.
    WrongDuration {
        /// Offending task.
        task: TaskId,
        /// Duration found in the schedule.
        got: f64,
        /// Duration the model dictates.
        want: f64,
    },
    /// A task started before one of its predecessors finished.
    PrecedenceViolated {
        /// The dependent task.
        task: TaskId,
        /// The predecessor that was still running.
        pred: TaskId,
    },
    /// More than `P` processors busy at some instant.
    CapacityExceeded {
        /// A time at which the platform was oversubscribed.
        time: f64,
        /// Processors in use at that time.
        used: u64,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingTask(t) => write!(f, "task {t} never executed"),
            Self::ForeignTask(t) => write!(f, "task {t} is not part of the graph"),
            Self::DuplicateTask(t) => write!(f, "task {t} executed more than once"),
            Self::NonFiniteTime { task, start, end } => {
                write!(f, "task {task} runs over non-finite [{start}, {end}]")
            }
            Self::BadAllocation { task, procs } => {
                write!(f, "task {task} has invalid allocation {procs}")
            }
            Self::WrongDuration { task, got, want } => {
                write!(f, "task {task} ran for {got}, model says {want}")
            }
            Self::PrecedenceViolated { task, pred } => {
                write!(f, "task {task} started before predecessor {pred} finished")
            }
            Self::CapacityExceeded { time, used } => {
                write!(f, "{used} processors busy at t={time}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Relative tolerance used for time comparisons: durations are computed
/// in one `f64` expression each, so only a few ulps of slack are needed.
const RTOL: f64 = 1e-9;

impl Schedule {
    /// Validate this schedule against `graph`.
    ///
    /// # Errors
    ///
    /// Returns the first violation found (completeness, allocation
    /// range, model-consistent durations, precedence, capacity).
    pub fn validate(&self, graph: &TaskGraph) -> Result<(), ValidationError> {
        self.validate_inner(graph, true)
    }

    /// Like [`Schedule::validate`] but skipping the duration-vs-model
    /// check — used for schedules of *adaptive* instances whose
    /// realized models are known to the adversary, not the graph.
    ///
    /// # Errors
    ///
    /// Returns the first structural violation found.
    pub fn validate_structure(&self, graph: &TaskGraph) -> Result<(), ValidationError> {
        self.validate_inner(graph, false)
    }

    fn validate_inner(
        &self,
        graph: &TaskGraph,
        check_durations: bool,
    ) -> Result<(), ValidationError> {
        let n = graph.n_tasks();
        let mut seen: Vec<Option<usize>> = vec![None; n];
        for (idx, pl) in self.placements.iter().enumerate() {
            let t = pl.task;
            if t.index() >= n {
                return Err(ValidationError::ForeignTask(t));
            }
            if seen[t.index()].is_some() {
                return Err(ValidationError::DuplicateTask(t));
            }
            seen[t.index()] = Some(idx);
            // Every later check compares times; an infinite or NaN one
            // slips through all of them (inf - inf is NaN, and every
            // comparison with NaN is false).
            if !(pl.start.is_finite() && pl.end.is_finite()) {
                return Err(ValidationError::NonFiniteTime {
                    task: t,
                    start: pl.start,
                    end: pl.end,
                });
            }
            if pl.procs == 0 || pl.procs > self.p_total {
                return Err(ValidationError::BadAllocation {
                    task: t,
                    procs: pl.procs,
                });
            }
            if check_durations {
                let want = graph.model(t).time(pl.procs);
                let got = pl.duration();
                if (got - want).abs() > RTOL * want.max(1.0) {
                    return Err(ValidationError::WrongDuration { task: t, got, want });
                }
            }
        }
        for t in graph.task_ids() {
            if seen[t.index()].is_none() {
                return Err(ValidationError::MissingTask(t));
            }
        }
        // Precedence.
        let tol = RTOL * self.makespan.max(1.0);
        for t in graph.task_ids() {
            let start = self.placements[seen[t.index()].expect("checked")].start;
            for &p in graph.preds(t) {
                let pred_end = self.placements[seen[p.index()].expect("checked")].end;
                if start < pred_end - tol {
                    return Err(ValidationError::PrecedenceViolated { task: t, pred: p });
                }
            }
        }
        self.check_capacity(tol)
    }

    /// Sweep-line capacity check, independently useful for hand-built
    /// schedules over instances without a full graph.
    ///
    /// # Errors
    ///
    /// Returns [`ValidationError::CapacityExceeded`] if more than
    /// `p_total` processors are ever busy (after merging events closer
    /// than `tol`).
    pub fn check_capacity(&self, tol: f64) -> Result<(), ValidationError> {
        // Events: +procs at start, −procs at end. Ends sort before
        // starts at (numerically) equal times so back-to-back tasks
        // don't double-count.
        let mut events: Vec<(f64, i8, u32)> = Vec::with_capacity(self.placements.len() * 2);
        for pl in &self.placements {
            events.push((pl.start, 1, pl.procs));
            events.push((pl.end, -1, pl.procs));
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut used: i64 = 0;
        let mut i = 0;
        while i < events.len() {
            let t0 = events[i].0;
            // apply all events within tol of t0, ends first
            let mut j = i;
            while j < events.len() && events[j].0 - t0 <= tol {
                j += 1;
            }
            let mut batch: Vec<&(f64, i8, u32)> = events[i..j].iter().collect();
            batch.sort_by_key(|a| a.1);
            for &&(_, sign, procs) in &batch {
                used += i64::from(sign) * i64::from(procs);
            }
            if used > i64::from(self.p_total) {
                return Err(ValidationError::CapacityExceeded {
                    time: t0,
                    used: u64::try_from(used).expect("positive"),
                });
            }
            i = j;
        }
        debug_assert_eq!(used, 0, "every start has a matching end");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScheduleBuilder;
    use moldable_graph::GraphBuilder;
    use moldable_model::SpeedupModel;

    fn two_task_graph() -> (TaskGraph, TaskId, TaskId) {
        let mut g = GraphBuilder::new();
        let a = g.add_task(SpeedupModel::amdahl(4.0, 0.0).unwrap());
        let b = g.add_task(SpeedupModel::amdahl(2.0, 0.0).unwrap());
        g.add_edge(a, b).unwrap();
        let g = g.freeze();
        (g, a, b)
    }

    #[test]
    fn valid_schedule_passes() {
        let (g, a, b) = two_task_graph();
        let mut sb = ScheduleBuilder::new(4);
        sb.place(a, 0.0, 1.0, 4); // t(4) = 1
        sb.place(b, 1.0, 1.0, 2); // t(2) = 1
        sb.build().validate(&g).unwrap();
    }

    #[test]
    fn non_finite_times_detected() {
        // A model that prices the task at infinity: the duration check
        // alone compares inf with inf and passes.
        let mut g = GraphBuilder::new();
        let a = g.add_task(SpeedupModel::formula(|_| f64::INFINITY, true));
        let b = g.add_task(SpeedupModel::formula(|_| f64::INFINITY, true));
        g.add_edge(a, b).unwrap();
        let g = g.freeze();
        let mut sb = ScheduleBuilder::new(1);
        sb.place(a, 0.0, f64::INFINITY, 1);
        sb.place(b, f64::INFINITY, f64::INFINITY, 1);
        let err = sb.build().validate(&g).unwrap_err();
        assert_eq!(
            err,
            ValidationError::NonFiniteTime {
                task: a,
                start: 0.0,
                end: f64::INFINITY
            }
        );
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn missing_task_detected() {
        let (g, a, _b) = two_task_graph();
        let mut sb = ScheduleBuilder::new(4);
        sb.place(a, 0.0, 1.0, 4);
        let err = sb.build().validate(&g).unwrap_err();
        assert!(matches!(err, ValidationError::MissingTask(_)));
    }

    #[test]
    fn duplicate_task_detected() {
        let (g, a, b) = two_task_graph();
        let mut sb = ScheduleBuilder::new(4);
        sb.place(a, 0.0, 1.0, 4);
        sb.place(b, 1.0, 1.0, 2);
        sb.place(a, 2.0, 1.0, 4);
        let err = sb.build().validate(&g).unwrap_err();
        assert_eq!(err, ValidationError::DuplicateTask(a));
    }

    #[test]
    fn wrong_duration_detected() {
        let (g, a, b) = two_task_graph();
        let mut sb = ScheduleBuilder::new(4);
        sb.place(a, 0.0, 5.0, 4); // model says 1.0
        sb.place(b, 5.0, 1.0, 2);
        let err = sb.build().validate(&g).unwrap_err();
        assert!(matches!(err, ValidationError::WrongDuration { task, .. } if task == a));
        // validate_structure ignores durations
        let mut sb = ScheduleBuilder::new(4);
        sb.place(a, 0.0, 5.0, 4);
        sb.place(b, 5.0, 1.0, 2);
        sb.build().validate_structure(&g).unwrap();
    }

    #[test]
    fn precedence_violation_detected() {
        let (g, a, b) = two_task_graph();
        let mut sb = ScheduleBuilder::new(4);
        sb.place(a, 0.0, 1.0, 4);
        sb.place(b, 0.5, 1.0, 2); // starts before a ends
        let err = sb.build().validate_structure(&g).unwrap_err();
        assert_eq!(
            err,
            ValidationError::PrecedenceViolated { task: b, pred: a }
        );
    }

    #[test]
    fn capacity_violation_detected() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(SpeedupModel::amdahl(3.0, 0.0).unwrap());
        let b = g.add_task(SpeedupModel::amdahl(3.0, 0.0).unwrap());
        let g = g.freeze();
        let mut sb = ScheduleBuilder::new(4);
        sb.place(a, 0.0, 1.0, 3);
        sb.place(b, 0.5, 1.0, 3); // overlap: 6 > 4
        let err = sb.build().validate_structure(&g).unwrap_err();
        assert!(matches!(
            err,
            ValidationError::CapacityExceeded { used: 6, .. }
        ));
    }

    #[test]
    fn back_to_back_full_platform_is_fine() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(SpeedupModel::amdahl(4.0, 0.0).unwrap());
        let b = g.add_task(SpeedupModel::amdahl(4.0, 0.0).unwrap());
        let g = g.freeze();
        let mut sb = ScheduleBuilder::new(4);
        sb.place(a, 0.0, 1.0, 4);
        sb.place(b, 1.0, 1.0, 4); // starts exactly when a ends
        sb.build().validate_structure(&g).unwrap();
    }

    #[test]
    fn bad_allocation_detected() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(SpeedupModel::amdahl(4.0, 0.0).unwrap());
        let g = g.freeze();
        let mut sb = ScheduleBuilder::new(4);
        sb.place(a, 0.0, 0.5, 8);
        let err = sb.build().validate_structure(&g).unwrap_err();
        assert_eq!(err, ValidationError::BadAllocation { task: a, procs: 8 });
    }
}
