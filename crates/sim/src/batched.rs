//! The batched simulation core behind [`simulate`]: every static
//! frozen [`TaskGraph`] runs here, whatever the scheduler.
//!
//! It has the per-task loop's semantics — events keyed by `(time,
//! seq)`, all completions at one instant retired as a batch, free →
//! reveal → decide — and bit-identical [`Schedule`]s, without that
//! loop's per-event overheads:
//!
//! * **Struct-of-arrays task state.** Status, indegree countdown and
//!   release time live in flat columns indexed by the dense CSR task
//!   ids, sized once — no `Option` wrappers, no growth checks, no
//!   [`crate::Instance`] dispatch between the loop and the frontier.
//! * **Fat completion events.** Each heap event carries its task and
//!   processor count, so retiring it reads no placement.
//! * **Batched scheduler calls.** One [`Scheduler::release_batch`] per
//!   instant instead of one `release` per task; starts come back from
//!   [`Scheduler::select_batch`], with their durations when the
//!   scheduler already knows them.
//!
//! Dynamic instances keep the per-task loop
//! ([`crate::simulate_instance`]); `tests/batched_engine_equivalence.rs`
//! holds the two to bit-equal schedules and identical errors for every
//! scheduler.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use moldable_graph::{TaskGraph, TaskId};

use crate::{Placement, ProcPool, Schedule, Scheduler, SimError, SimOptions};

/// Task state column values (plain `u8`, not an enum, so the state
/// array is a byte per task and comparisons compile to immediate
/// loads).
const NOT_RELEASED: u8 = 0;
const AVAILABLE: u8 = 1;
const RUNNING: u8 = 2;
const DONE: u8 = 3;

/// Completion event. `idx` is the placement index, which equals the
/// start submission sequence (placements are pushed in submission
/// order), so ordering by `(time, idx)` reproduces the per-task
/// loop's `(time, seq)` tie-break exactly. Task and processor count
/// ride along so retiring the event touches no other array.
#[derive(Debug, Clone, Copy)]
struct BatchEvent {
    time: f64,
    idx: u32,
    task: TaskId,
    procs: u32,
}

impl PartialEq for BatchEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.idx == other.idx
    }
}
impl Eq for BatchEvent {}
impl PartialOrd for BatchEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for BatchEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.idx.cmp(&other.idx))
    }
}

/// Run a frozen [`TaskGraph`] to completion under `scheduler` on
/// `opts.p_total` processors. Observationally identical to
/// [`crate::simulate_instance`] on a [`crate::GraphInstance`] of the
/// same graph.
///
/// # Errors
///
/// Returns a [`SimError`] if the scheduler oversubscribes, starts an
/// unavailable task, starts on zero processors, or wedges the
/// simulation — never masked.
///
/// # Panics
///
/// Panics if the graph has more than `u32::MAX` placements (the frozen
/// id space already bounds tasks to `u32`).
pub fn simulate(
    graph: &TaskGraph,
    scheduler: &mut dyn Scheduler,
    opts: &SimOptions,
) -> Result<Schedule, SimError> {
    let n = graph.n_tasks();
    let p_total = opts.p_total;
    scheduler.init(p_total);

    // SoA task state, sized once — ids are dense by construction.
    let mut state: Vec<u8> = vec![NOT_RELEASED; n];
    let mut released: Vec<f64> = vec![0.0; n];
    let mut indeg: Vec<u32> = (0..n)
        .map(|i| u32::try_from(graph.preds(TaskId(i as u32)).len()).expect("pred count fits u32"))
        .collect();

    let mut free = p_total;
    let mut pool = opts.record_proc_ids.then(|| ProcPool::new(p_total));
    let mut placements: Vec<Placement> = Vec::with_capacity(n);
    let mut heap: BinaryHeap<Reverse<BatchEvent>> =
        BinaryHeap::with_capacity((p_total as usize).min(n.max(1)));
    let mut time = 0.0f64;
    let mut completed = 0usize;

    // Scratch buffers reused across all events: the steady-state loop
    // allocates nothing.
    let mut newly: Vec<TaskId> = graph.sources().to_vec();
    let mut picks: Vec<(TaskId, u32)> = Vec::new();
    let mut durs: Vec<f64> = Vec::new();
    let mut batch: Vec<BatchEvent> = Vec::new();

    // Release the initial frontier (sources, in id order — exactly the
    // frozen Frontier's `initial`).
    for &t in &newly {
        state[t.index()] = AVAILABLE;
    }
    scheduler.release_batch(graph, 0.0, &newly);

    // Decision point: ask the scheduler until it passes, validating
    // and starting each submitted batch in order.
    macro_rules! decide {
        () => {
            loop {
                picks.clear();
                durs.clear();
                scheduler.select_batch(time, free, &mut picks, &mut durs);
                if picks.is_empty() {
                    break;
                }
                for (k, &(task, procs)) in picks.iter().enumerate() {
                    let i = task.index();
                    if i >= n || state[i] != AVAILABLE {
                        return Err(SimError::NotAvailable(task));
                    }
                    if procs == 0 {
                        return Err(SimError::ZeroProcs(task));
                    }
                    if procs > free {
                        return Err(SimError::Oversubscribed {
                            task,
                            want: procs,
                            free,
                        });
                    }
                    let dur = match durs.get(k) {
                        Some(&dur) => dur,
                        None => graph.model(task).time(procs),
                    };
                    let proc_ranges = match &mut pool {
                        Some(pool) => pool.alloc(procs).expect("pool tracks free count"),
                        None => Vec::new(),
                    };
                    free -= procs;
                    state[i] = RUNNING;
                    let idx = u32::try_from(placements.len()).expect("placements fit u32");
                    placements.push(Placement {
                        task,
                        start: time,
                        end: time + dur,
                        procs,
                        proc_ranges,
                        released: released[i],
                    });
                    heap.push(Reverse(BatchEvent {
                        time: time + dur,
                        idx,
                        task,
                        procs,
                    }));
                }
            }
        };
    }
    decide!();

    while let Some(&Reverse(head)) = heap.peek() {
        time = head.time;
        // Drain *all* completions at this instant as one batch — the
        // heap pops them in (time, idx) order, the per-task loop's
        // (time, seq) order.
        batch.clear();
        while let Some(&Reverse(ev)) = heap.peek() {
            if ev.time != time {
                break;
            }
            heap.pop();
            batch.push(ev);
        }
        // 1) free the processors of every completion in the batch
        for ev in &batch {
            free += ev.procs;
            if let Some(pool) = &mut pool {
                // Ranges live in the placements array only when id
                // recording is on; this cold path random-reads it.
                pool.release(&placements[ev.idx as usize].proc_ranges);
            }
            state[ev.task.index()] = DONE;
            completed += 1;
        }
        // 2) reveal the consequences, in completion order then
        //    successor-edge order — one concatenated batch.
        newly.clear();
        for ev in &batch {
            for &s in graph.succs(ev.task) {
                let r = &mut indeg[s.index()];
                debug_assert!(*r > 0, "{s} revealed before its predecessors");
                *r -= 1;
                if *r == 0 {
                    newly.push(s);
                }
            }
        }
        if !newly.is_empty() {
            for &t in &newly {
                debug_assert_eq!(state[t.index()], NOT_RELEASED);
                state[t.index()] = AVAILABLE;
                released[t.index()] = time;
            }
            scheduler.release_batch(graph, time, &newly);
        }
        // 3) new decision point
        decide!();

        if heap.is_empty() && completed < n {
            // Nothing running, tasks outstanding: the scheduler refused
            // available work (or a dependency cycle — impossible in a
            // frozen graph — left tasks unreleasable).
            let any_available = state.contains(&AVAILABLE);
            return Err(if any_available {
                SimError::Stuck { time, completed }
            } else {
                SimError::InconsistentInstance
            });
        }
    }

    if completed == 0 && n > 0 {
        // Nothing ever ran (the scheduler refused the initial frontier).
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
