//! Deficit-round-robin fairness across session slots.
//!
//! The session layer multiplexes many tenants' DAGs onto one platform
//! of `P` processors; the scheduler must prevent a flood from one
//! session starving the others. [`DrrScheduler`] adapts deficit round
//! robin (Shreedhar & Varghese) to processor allocation:
//!
//! * Each session owns a FIFO queue of ready tasks and a *deficit*
//!   counter in processor units. Allocation per task is the owning
//!   DAG's registered algorithm — `AlgoName::allocate(model, P, μ)`
//!   capped at `⌈μP⌉`, via one shared [`AllocCache`] per registered
//!   algorithm — the same per-task allocation the one-shot service
//!   computes; only the start-order policy (DRR instead of
//!   Algorithm 2's list order) differs. Sessions running different
//!   algorithms coexist on one platform.
//! * At each decision instant every non-empty queue is replenished by
//!   one quantum (capped at [`BURST_QUANTA`]× to bound burst credit),
//!   then a cyclic pass from a rotating cursor starts front tasks
//!   while they fit both the free processors and the session's
//!   deficit.
//! * A second, work-conserving pass ignores deficits: if processors
//!   are still free and *any* queued task fits, it starts — charged
//!   against the session's deficit (which may go negative, deferring
//!   it in later rounds). This pass makes the no-starvation invariant
//!   unconditional: after `select`, no queued task fits the remaining
//!   free processors, so a tenant can never hold ready work that fits
//!   while another tenant's processors idle.
//!
//! Determinism: slots are visited in slot-id order from a cursor that
//! only moves on phase-1 service; no hashing, no wall clock. Equal
//! world state ⇒ equal decisions, bit for bit.

use std::collections::VecDeque;

use moldable_core::registry::ALGOS;
use moldable_core::{AlgoName, AllocCache};
use moldable_graph::TaskId;
use moldable_model::SpeedupModel;
use moldable_sim::Scheduler;

/// Burst cap: a queue can bank at most this many quanta of deficit.
const BURST_QUANTA: f64 = 4.0;

struct Ready {
    task: TaskId,
    procs: u32,
}

#[derive(Default)]
struct Slot {
    queue: VecDeque<Ready>,
    deficit: f64,
}

/// Deficit-round-robin moldable scheduler over session slots.
pub struct DrrScheduler {
    /// One warm cache per registered algorithm, indexed in `ALGOS`
    /// order; a task allocates through its DAG's algorithm. The caches
    /// live as long as the session service but stay bounded: each
    /// stops interning while its models prove (almost) all distinct.
    caches: Vec<AllocCache>,
    p_total: u32,
    /// Global task id → owning slot; appended by
    /// [`DrrScheduler::register_tasks`] before the tasks can release.
    task_slot: Vec<u32>,
    /// Global task id → the owning DAG's algorithm, parallel to
    /// `task_slot`.
    task_algo: Vec<AlgoName>,
    slots: Vec<Slot>,
    cursor: usize,
    /// Decision-instant gate: the engine calls `select` repeatedly
    /// within one decision point; replenish deficits only on the
    /// first call at each distinct time.
    last_replenish: Option<u64>,
    started: u64,
}

impl DrrScheduler {
    /// A scheduler allocating with parameter `mu` on a platform of
    /// `p_total` processors (must match the engine's `SimOptions`).
    #[must_use]
    pub fn new(p_total: u32, mu: f64) -> Self {
        Self {
            caches: ALGOS
                .into_iter()
                .map(|a| AllocCache::for_algo(a, p_total, mu))
                .collect(),
            p_total,
            task_slot: Vec::new(),
            task_algo: Vec::new(),
            slots: Vec::new(),
            cursor: 0,
            last_replenish: None,
            started: 0,
        }
    }

    /// Declare that the next `n_tasks` global task ids belong to
    /// session `slot` and allocate with `algo`. Must be called in
    /// global-id order, before any of those tasks is released by the
    /// engine.
    pub fn register_tasks(&mut self, slot: usize, n_tasks: usize, algo: AlgoName) {
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, Slot::default);
        }
        let slot = u32::try_from(slot).expect("slot ids fit u32");
        self.task_slot.resize(self.task_slot.len() + n_tasks, slot);
        self.task_algo.resize(self.task_algo.len() + n_tasks, algo);
    }

    /// Number of session slots seen so far.
    #[must_use]
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// Ready tasks currently queued for `slot`.
    #[must_use]
    pub fn queued(&self, slot: usize) -> usize {
        self.slots.get(slot).map_or(0, |s| s.queue.len())
    }

    /// Total tasks started over the scheduler's lifetime.
    #[must_use]
    pub fn n_started(&self) -> u64 {
        self.started
    }

    /// One quantum of deficit, in processor units: an equal share of
    /// the platform among sessions that currently hold ready work.
    fn quantum(&self) -> f64 {
        let active = self.slots.iter().filter(|s| !s.queue.is_empty()).count();
        f64::from(self.p_total) / active.max(1) as f64
    }
}

impl Scheduler for DrrScheduler {
    fn init(&mut self, p_total: u32) {
        assert_eq!(
            p_total, self.p_total,
            "DrrScheduler built for a different platform size"
        );
    }

    fn release(&mut self, task: TaskId, model: &SpeedupModel) {
        let slot = self.task_slot[task.index()] as usize;
        let algo = self.task_algo[task.index()];
        let cache = self
            .caches
            .iter_mut()
            .find(|c| c.algo() == algo)
            .expect("every registered algorithm has a cache");
        let procs = cache.allocate(model).capped;
        self.slots[slot].queue.push_back(Ready { task, procs });
    }

    fn select(&mut self, now: f64, free: u32) -> Vec<(TaskId, u32)> {
        let mut out = Vec::new();
        self.select_into(now, free, &mut out);
        out
    }

    fn select_into(&mut self, now: f64, mut free: u32, out: &mut Vec<(TaskId, u32)>) {
        let n = self.slots.len();
        if n == 0 || free == 0 {
            return;
        }
        if self.last_replenish != Some(now.to_bits()) {
            self.last_replenish = Some(now.to_bits());
            let quantum = self.quantum();
            let cap = BURST_QUANTA * quantum;
            for slot in &mut self.slots {
                if slot.queue.is_empty() {
                    // An idle session banks no credit (classic DRR);
                    // debts from work-conserving starts do persist.
                    slot.deficit = slot.deficit.min(0.0);
                } else {
                    slot.deficit = (slot.deficit + quantum).min(cap);
                }
            }
        }

        // Phase 1: cyclic DRR pass — serve within deficit.
        let start_cursor = self.cursor;
        for step in 0..n {
            let i = (start_cursor + step) % n;
            let slot = &mut self.slots[i];
            let mut served = false;
            while let Some(front) = slot.queue.front() {
                let cost = f64::from(front.procs);
                if front.procs > free || cost > slot.deficit {
                    break;
                }
                let r = slot.queue.pop_front().expect("front exists");
                slot.deficit -= cost;
                free -= r.procs;
                out.push((r.task, r.procs));
                self.started += 1;
                served = true;
            }
            if served {
                // Rotate past the last-served slot so the next pass
                // starts with its successor.
                self.cursor = (i + 1) % n;
            }
            if free == 0 {
                return;
            }
        }

        // Phase 2: work conservation — start anything that fits,
        // borrowing against the owner's future deficit.
        loop {
            let mut any = false;
            for step in 0..n {
                let i = (self.cursor + step) % n;
                let slot = &mut self.slots[i];
                while let Some(front) = slot.queue.front() {
                    if front.procs > free {
                        break;
                    }
                    let r = slot.queue.pop_front().expect("front exists");
                    slot.deficit -= f64::from(r.procs);
                    free -= r.procs;
                    out.push((r.task, r.procs));
                    self.started += 1;
                    any = true;
                }
                if free == 0 {
                    return;
                }
            }
            if !any {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fully serial (`t(p) = w`): Algorithm 1 allocates exactly one
    /// processor.
    fn unit(w: f64) -> SpeedupModel {
        SpeedupModel::amdahl(0.0, w).unwrap()
    }

    const MU: f64 = 0.38;

    #[test]
    fn single_slot_behaves_fifo() {
        let mut s = DrrScheduler::new(4, MU);
        s.init(4);
        s.register_tasks(0, 3, AlgoName::Icpp22);
        for i in 0..3 {
            s.release(TaskId(i), &unit(1.0));
        }
        let picks = s.select(0.0, 4);
        let tasks: Vec<u32> = picks.iter().map(|(t, _)| t.0).collect();
        assert_eq!(tasks, vec![0, 1, 2], "FIFO within a slot");
        assert!(s.select(0.0, 4).is_empty(), "drained");
    }

    #[test]
    fn contended_slots_split_the_platform() {
        // Two slots, each with plenty of 1-proc work, P = 4: the DRR
        // pass gives each a quantum of 2, so the start batch holds two
        // tasks from each slot.
        let mut s = DrrScheduler::new(4, MU);
        s.init(4);
        s.register_tasks(0, 4, AlgoName::Icpp22);
        s.register_tasks(1, 4, AlgoName::Icpp22);
        for i in 0..4 {
            s.release(TaskId(i), &unit(1.0));
        }
        for i in 4..8 {
            s.release(TaskId(i), &unit(1.0));
        }
        let picks = s.select(0.0, 4);
        let mine = picks.iter().filter(|(t, _)| t.0 < 4).count();
        let theirs = picks.len() - mine;
        assert_eq!((mine, theirs), (2, 2), "equal split under contention");
    }

    #[test]
    fn work_conservation_never_idles_fitting_work() {
        // Slot 0 has burned its deficit; its queued work still starts
        // when no one else wants the processors.
        let mut s = DrrScheduler::new(2, MU);
        s.init(2);
        s.register_tasks(0, 6, AlgoName::Icpp22);
        for i in 0..6 {
            s.release(TaskId(i), &unit(1.0));
        }
        let first = s.select(0.0, 2);
        assert_eq!(first.len(), 2, "phase 2 fills past the quantum");
        let second = s.select(1.0, 2);
        assert_eq!(second.len(), 2);
        let third = s.select(2.0, 2);
        assert_eq!(third.len(), 2);
        assert_eq!(s.n_started(), 6);
    }

    #[test]
    fn replenish_happens_once_per_decision_instant() {
        let mut s = DrrScheduler::new(2, MU);
        s.init(2);
        s.register_tasks(0, 2, AlgoName::Icpp22);
        s.release(TaskId(0), &unit(1.0));
        let _ = s.select(0.0, 1);
        let d_after = s.slots[0].deficit;
        // Re-entry at the same instant (the engine's decide loop)
        // must not grant more credit.
        let _ = s.select(0.0, 0);
        assert_eq!(s.slots[0].deficit.to_bits(), d_after.to_bits());
    }

    #[test]
    fn starvation_is_impossible_while_processors_fit() {
        // Slot 0 floods; slot 1 has one task. After any select, no
        // queued task may fit the remaining free processors.
        let mut s = DrrScheduler::new(3, MU);
        s.init(3);
        s.register_tasks(0, 50, AlgoName::Icpp22);
        s.register_tasks(1, 1, AlgoName::Icpp22);
        for i in 0..50 {
            s.release(TaskId(i), &unit(1.0));
        }
        s.release(TaskId(50), &unit(1.0));
        let picks = s.select(0.0, 3);
        assert!(
            picks.iter().any(|(t, _)| t.0 == 50),
            "the lone task of the quiet slot is in the first batch: {picks:?}"
        );
    }

    #[test]
    fn allocation_follows_each_dags_algorithm() {
        // amdahl(30, 10) on P=16, mu=0.3: Algorithm 2 (min area under
        // the time stretch) picks p=3; the dual allocation (min time
        // under the area budget) spends its λ budget and picks p=4.
        // Two slots registered under different algorithms must see
        // exactly those allocations for the same model.
        let model = SpeedupModel::amdahl(30.0, 10.0).unwrap();
        let mut s = DrrScheduler::new(16, 0.3);
        s.init(16);
        s.register_tasks(0, 1, AlgoName::Icpp22);
        s.register_tasks(1, 1, AlgoName::Improved23);
        s.release(TaskId(0), &model);
        s.release(TaskId(1), &model);
        let picks = s.select(0.0, 16);
        let procs_of = |id: u32| picks.iter().find(|(t, _)| t.0 == id).unwrap().1;
        assert_eq!(
            procs_of(0),
            AlgoName::Icpp22.allocate(&model, 16, 0.3).capped
        );
        assert_eq!(
            procs_of(1),
            AlgoName::Improved23.allocate(&model, 16, 0.3).capped
        );
        assert_ne!(
            procs_of(0),
            procs_of(1),
            "the two algorithms must differ on this model for the test to bite"
        );
    }

    #[test]
    fn oversized_allocations_are_capped_to_fit_eventually() {
        // A task whose cap exceeds current free waits, but fits a full
        // platform: mu-capped allocations never exceed ceil(mu * P).
        let mut s = DrrScheduler::new(16, MU);
        s.init(16);
        s.register_tasks(0, 1, AlgoName::Icpp22);
        s.release(TaskId(0), &SpeedupModel::amdahl(100.0, 0.0).unwrap());
        let picks = s.select(0.0, 1);
        assert!(picks.is_empty(), "does not fit one free proc");
        let picks = s.select(1.0, 16);
        assert_eq!(picks.len(), 1);
        assert!(picks[0].1 <= 7, "capped at ceil(mu * 16)");
    }
}
