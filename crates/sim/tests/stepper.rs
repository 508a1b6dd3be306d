//! The resumable [`Stepper`] against the per-task reference loop in
//! `support/per_task.rs`, and the one error every entry point must
//! agree on.

mod support;

use moldable_graph::{gen, TaskId};
use moldable_model::{ModelClass, SpeedupModel};
use moldable_sim::{
    simulate, simulate_instance, GraphInstance, Instance, Scheduler, SimError, SimOptions, Stepper,
    TimedArrivals,
};
use support::per_task;

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

#[test]
fn stepper_matches_the_reference_loop_on_generated_graphs() {
    for (shape, size, p) in [
        ("cholesky", 8u32, 16u32),
        ("layered", 10, 24),
        ("fft", 5, 8),
        ("fork-join", 40, 12),
    ] {
        let g = gen::by_name(shape, size, ModelClass::Amdahl, p, 7).unwrap();
        let opts = SimOptions::new(p).with_proc_ids();
        let reference =
            per_task::simulate_instance(&mut GraphInstance::new(&g), &mut Fifo::new(2), &opts)
                .unwrap();
        let got = Stepper::new(GraphInstance::new(&g), Fifo::new(2), &opts)
            .finish()
            .unwrap();
        assert_eq!(got, reference, "{shape}");
    }
}

#[test]
fn sliced_stepper_matches_the_reference_loop_on_timed_arrivals() {
    let releases: Vec<(f64, SpeedupModel)> = (0..40)
        .map(|i| (f64::from(i % 7) * 0.5, unit(1.0 + f64::from(i % 3))))
        .collect();
    let opts = SimOptions::new(4);
    let reference = per_task::simulate_instance(
        &mut TimedArrivals::new(releases.clone()),
        &mut Fifo::new(1),
        &opts,
    )
    .unwrap();
    let mut st = Stepper::new(TimedArrivals::new(releases), Fifo::new(1), &opts);
    let mut done = Vec::new();
    let mut t = 0.0;
    while done.len() < reference.placements.len() {
        st.advance_until(t, &mut done).unwrap();
        t += 0.37; // deliberately lands between event times
        assert!(t < 1e6, "runaway");
    }
    assert_eq!(st.finish().unwrap(), reference);
}

/// Releases nothing at t = 0, has no timed arrival pending, and never
/// reports done: a broken instance no scheduler can make progress on.
struct Withholding(SpeedupModel);

impl Instance for Withholding {
    fn initial(&mut self) -> Vec<TaskId> {
        Vec::new()
    }
    fn on_complete(&mut self, _task: TaskId, _time: f64) -> Vec<TaskId> {
        Vec::new()
    }
    fn is_done(&self) -> bool {
        false
    }
    fn model(&self, _task: TaskId) -> &SpeedupModel {
        &self.0
    }
}

#[test]
fn a_withholding_instance_is_stuck_at_zero_on_every_entry_point() {
    // The one-shot surface has always answered `Stuck` at t = 0 with
    // nothing completed; the stepper answers the same, whether advanced
    // or finished.
    let stuck = SimError::Stuck {
        time: 0.0,
        completed: 0,
    };
    let opts = SimOptions::new(2);
    let inst = || Withholding(unit(1.0));
    assert_eq!(
        per_task::simulate_instance(&mut inst(), &mut Fifo::new(1), &opts),
        Err(stuck.clone()),
        "reference loop"
    );
    assert_eq!(
        simulate_instance(&mut inst(), &mut Fifo::new(1), &opts),
        Err(stuck.clone()),
        "simulate_instance"
    );
    let mut st = Stepper::new(inst(), Fifo::new(1), &opts);
    assert_eq!(
        st.advance_until(1.0, &mut Vec::new()),
        Err(stuck.clone()),
        "Stepper::advance_until"
    );
    assert_eq!(
        Stepper::new(inst(), Fifo::new(1), &opts).finish(),
        Err(stuck),
        "Stepper::finish"
    );
}

/// FIFO on one processor that hands the core `dur` for every pick.
struct Priced {
    dur: f64,
    queue: Vec<TaskId>,
}

impl Scheduler for Priced {
    fn release(&mut self, task: TaskId, _m: &SpeedupModel) {
        self.queue.push(task);
    }
    fn select(&mut self, _now: f64, _free: u32) -> Vec<(TaskId, u32)> {
        unreachable!("the core calls select_batch")
    }
    fn select_batch(
        &mut self,
        _now: f64,
        free: u32,
        out: &mut Vec<(TaskId, u32)>,
        durs: &mut Vec<f64>,
    ) {
        if free > 0 {
            if let Some(t) = self.queue.pop() {
                out.push((t, 1));
                durs.push(self.dur);
            }
        }
    }
}

/// Run the one-task graph `g` through every entry point, with a fresh
/// scheduler from `mk` each time, and demand `BadDuration` for `dur`.
fn assert_bad_duration(
    g: &moldable_graph::TaskGraph,
    mk: &dyn Fn() -> Box<dyn Scheduler>,
    dur: f64,
    ctx: &str,
) {
    let check = |e: SimError, entry: &str| {
        assert!(
            e.to_string().contains("invalid duration"),
            "{ctx} {entry}: {e}"
        );
        match e {
            SimError::BadDuration { task, dur: got } => {
                assert_eq!(task, TaskId(0), "{ctx} {entry}");
                assert_eq!(got.to_bits(), dur.to_bits(), "{ctx} {entry}");
            }
            other => panic!("{ctx} {entry}: {other:?}"),
        }
    };
    let opts = SimOptions::new(1);
    check(simulate(g, &mut *mk(), &opts).unwrap_err(), "simulate");
    check(
        simulate_instance(&mut GraphInstance::new(g), &mut *mk(), &opts).unwrap_err(),
        "simulate_instance",
    );
    let mut sched = mk();
    let mut st = Stepper::new(GraphInstance::new(g), &mut *sched, &opts);
    let mut done = Vec::new();
    check(
        st.advance_until(10.0, &mut done).unwrap_err(),
        "advance_until",
    );
    assert!(done.is_empty(), "{ctx}: nothing completes");
}

#[test]
fn an_infinite_duration_is_rejected_on_every_entry_point() {
    // An infinite end time never completes, yet the loop would pop it
    // and start every successor at infinity: a chain a -> c on one
    // processor came out as placements (0, inf) and (inf, inf), which
    // validation passed.
    let dur = f64::INFINITY;
    let mut b = moldable_graph::GraphBuilder::new();
    b.add_task(SpeedupModel::formula(move |_| dur, true));
    let priced_by_model = b.freeze();
    assert_bad_duration(
        &priced_by_model,
        &|| Box::new(Fifo::new(1)),
        dur,
        "inf from the model",
    );
    let mut b = moldable_graph::GraphBuilder::new();
    b.add_task(unit(1.0));
    let sound_model = b.freeze();
    assert_bad_duration(
        &sound_model,
        &|| {
            Box::new(Priced {
                dur,
                queue: Vec::new(),
            })
        },
        dur,
        "inf from the scheduler",
    );

    // Two finite durations whose sum overflows: the second start would
    // end at infinity.
    let mut b = moldable_graph::GraphBuilder::new();
    let a = b.add_task(SpeedupModel::formula(|_| f64::MAX, true));
    let c = b.add_task(SpeedupModel::formula(|_| f64::MAX, true));
    b.add_edge(a, c).unwrap();
    let chain = b.freeze();
    match simulate(&chain, &mut Fifo::new(1), &SimOptions::new(1)).unwrap_err() {
        SimError::BadDuration { task, dur } => {
            assert_eq!(task, c);
            assert_eq!(dur.to_bits(), f64::MAX.to_bits());
        }
        other => panic!("overflowing end: {other:?}"),
    }
}

#[test]
fn a_nan_or_negative_duration_is_rejected_on_every_entry_point() {
    // A NaN end time never equals the next event time, so the loop
    // would spin on empty batches; a negative one would end the
    // schedule before it began. Both are refused at the start, whether
    // the duration comes from the model or from the scheduler. (The
    // per-task fixture keeps the old behaviour and would hang here.)
    for dur in [f64::NAN, -1.0] {
        let mut b = moldable_graph::GraphBuilder::new();
        b.add_task(SpeedupModel::formula(move |_| dur, true));
        let priced_by_model = b.freeze();
        assert_bad_duration(
            &priced_by_model,
            &|| Box::new(Fifo::new(1)),
            dur,
            &format!("{dur} from the model"),
        );
        // The model alone would run the task for 1.
        let mut b = moldable_graph::GraphBuilder::new();
        b.add_task(unit(1.0));
        let sound_model = b.freeze();
        assert_bad_duration(
            &sound_model,
            &|| {
                Box::new(Priced {
                    dur,
                    queue: Vec::new(),
                })
            },
            dur,
            &format!("{dur} from the scheduler"),
        );
    }
}
