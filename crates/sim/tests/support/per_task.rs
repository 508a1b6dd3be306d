//! The per-task event loop, kept verbatim as a test-only reference.
//!
//! This is the loop `simulate_instance` ran before every entry point
//! moved onto the one batched core: one `release` per revealed task,
//! one `select_into` per decision round, a `(time, seq)` completion
//! heap. The randomized suites hold the core to it bit for bit — same
//! placements, same makespan, same `SimError`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use moldable_graph::TaskId;
use moldable_sim::{Instance, Placement, ProcPool, Schedule, Scheduler, SimError, SimOptions};

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
