//! Differential and golden tests for the one simulation core.
//!
//! [`simulate`] drives the scheduler through `release_batch` /
//! `select_batch` — the trait defaults for most schedulers, and for
//! the online scheduler overrides that compute Algorithm 2 once per
//! weight run and carry durations through the queue — and retires all
//! completions of one instant as a batch. Any of that could silently
//! reorder revelation or change an allocation, and both decide
//! tie-breaks, so they decide schedules. These tests hold the core two
//! ways:
//!
//! * against the per-task reference loop in `support/per_task.rs`
//!   (one `release` per task, one event at a time), with identically
//!   configured schedulers — the online scheduler and every baseline —
//!   demanding bit-identical schedules (start times, widths,
//!   released-at stamps, processor ids, makespan, placement order) or
//!   identical errors; [`simulate_instance`] on a [`GraphInstance`]
//!   must agree too;
//! * against golden FNV-1a fingerprints (`goldens/engine.txt`), pinned
//!   from the engines as they stood before the loops were merged.
//!
//! Mirrors `crates/adversary/tests/frozen_csr_equivalence.rs`, which
//! plays the same role for the frozen-CSR graph refactor.

mod support;

use moldable_adversary::{amdahl, arbitrary, communication, general, generic, roofline};
use moldable_core::{baselines, AdaptiveScheduler, EasyBackfillScheduler, OnlineScheduler};
use moldable_graph::{gen, GraphBuilder, TaskGraph, TaskId};
use moldable_model::rng::StdRng;
use moldable_model::sample::ParamDistribution;
use moldable_model::{ModelClass, SpeedupModel};
use moldable_offline::cpa::FixedAllocScheduler;
use moldable_offline::{cpa_allocations, turek_schedule};
use moldable_sim::{
    simulate, simulate_instance, GraphInstance, Schedule, Scheduler, SimError, SimOptions, Stepper,
};
use support::{golden, per_task};

const GOLDEN: &str = include_str!("goldens/engine.txt");

/// `(case, fingerprint)` pairs one test pins.
type Pins = Vec<(String, u64)>;

/// A factory of identically configured schedulers.
type MakeScheduler = Box<dyn Fn() -> Box<dyn Scheduler>>;

/// Run `g` through the core and the reference loop, each with a fresh
/// scheduler from `mk`, with and without processor-id recording;
/// demand identical results, pin both outcomes under `ctx` and return
/// the core's first.
fn same_result(
    g: &TaskGraph,
    p_total: u32,
    mk: &dyn Fn() -> Box<dyn Scheduler>,
    ctx: &str,
    pins: &mut Pins,
) -> Result<Schedule, SimError> {
    let mut first = None;
    for (opts, tag) in [
        (SimOptions::new(p_total), ""),
        (SimOptions::new(p_total).with_proc_ids(), " ids"),
    ] {
        let fast = simulate(g, &mut *mk(), &opts);
        let slow = per_task::simulate_instance(&mut GraphInstance::new(g), &mut *mk(), &opts);
        match (&fast, &slow) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    a.makespan.to_bits(),
                    b.makespan.to_bits(),
                    "{ctx}: makespans differ"
                );
                assert_eq!(
                    a.placements, b.placements,
                    "{ctx}: placements differ (start order, widths, release stamps or proc ids)"
                );
            }
            _ => assert_eq!(fast, slow, "{ctx}: outcomes differ"),
        }
        let entry = simulate_instance(&mut GraphInstance::new(g), &mut *mk(), &opts);
        assert_eq!(
            fast, entry,
            "{ctx}: simulate_instance disagrees with simulate"
        );
        pins.push((format!("{ctx}{tag}"), golden::outcome(&fast)));
        first.get_or_insert(fast);
    }
    first.expect("two runs")
}

/// [`same_result`] for a scheduler that must succeed; validates.
fn differential(
    g: &TaskGraph,
    p_total: u32,
    mk: &dyn Fn() -> Box<dyn Scheduler>,
    ctx: &str,
    pins: &mut Pins,
) {
    let s = same_result(g, p_total, mk, ctx, pins).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    s.validate(g)
        .unwrap_or_else(|e| panic!("{ctx}: invalid schedule: {e}"));
}

/// The online scheduler (Algorithm 1) at `mu`.
fn online(g: &TaskGraph, p_total: u32, mu: f64, ctx: &str, pins: &mut Pins) {
    differential(
        g,
        p_total,
        &|| Box::new(OnlineScheduler::with_mu(mu)),
        ctx,
        pins,
    );
}

/// Every baseline that runs on a static graph: the list-scheduling
/// allocation rules, ECT, equal share, EASY backfill, adaptive μ, and
/// CPA's fixed allocations.
fn baselines_for(
    g: &TaskGraph,
    p_total: u32,
    class: ModelClass,
) -> Vec<(&'static str, MakeScheduler)> {
    let mu = class.optimal_mu();
    let cpa = cpa_allocations(g, p_total);
    vec![
        ("one-proc", Box::new(|| Box::new(baselines::one_proc()))),
        ("max-proc", Box::new(|| Box::new(baselines::max_proc()))),
        ("fixed-3", Box::new(|| Box::new(baselines::fixed(3)))),
        (
            "lpa-only",
            Box::new(move || Box::new(baselines::lpa_only(mu))),
        ),
        (
            "cap-only",
            Box::new(move || Box::new(baselines::cap_only(mu))),
        ),
        ("ect", Box::new(|| Box::new(baselines::EctScheduler::new()))),
        (
            "equal-share",
            Box::new(|| Box::new(baselines::EqualShareScheduler::new())),
        ),
        (
            "backfill",
            Box::new(move || Box::new(EasyBackfillScheduler::new(mu))),
        ),
        ("adaptive", Box::new(|| Box::new(AdaptiveScheduler::new()))),
        (
            "cpa",
            Box::new(move || Box::new(FixedAllocScheduler::new(cpa.clone()))),
        ),
    ]
}

#[test]
fn batched_core_matches_per_task_loop_on_generator_shapes() {
    let mut pins = Pins::new();
    // Every shape family exercises a distinct completion-batch pattern:
    // chains never batch, independent sets batch maximally, trees and
    // butterflies batch per level, dense kernels batch irregularly.
    let cases: &[(&str, u32)] = &[
        ("layered", 12),
        ("fft", 5),
        ("cholesky", 8),
        ("chain", 20),
        ("independent", 20),
        ("fork-join", 6),
        ("in-tree", 5),
        ("out-tree", 5),
        ("random", 40),
        ("lu", 6),
        ("wavefront", 7),
    ];
    for &(shape, size) in cases {
        for seed in [7u64, 42] {
            for class in [ModelClass::Roofline, ModelClass::Amdahl] {
                let p = 32;
                let g = gen::by_name(shape, size, class, p, seed).unwrap();
                online(
                    &g,
                    p,
                    class.optimal_mu(),
                    &format!("{shape}/{size} seed={seed} {class:?}"),
                    &mut pins,
                );
            }
        }
    }
    golden::check(
        GOLDEN,
        "batched_core_matches_per_task_loop_on_generator_shapes",
        &pins,
    );
}

#[test]
fn batched_core_matches_per_task_loop_on_lower_bound_instances() {
    let mut pins = Pins::new();
    // The Section 5 constructions are the instances most sensitive to
    // revelation order: their proofs depend on B-tasks being revealed
    // before the next A-task. Identical-length stages mean *every*
    // completion there lands in a multi-event batch.
    let instances = [
        ("roofline-17", roofline::instance(17)),
        ("roofline-64", roofline::instance(64)),
        ("communication-12", communication::instance(12)),
        ("communication-47", communication::instance(47)),
        ("amdahl-k5", amdahl::instance(5)),
        ("general-k6", general::instance(6)),
    ];
    for (name, inst) in instances {
        online(&inst.graph, inst.p_total, inst.mu, name, &mut pins);
    }
    golden::check(
        GOLDEN,
        "batched_core_matches_per_task_loop_on_lower_bound_instances",
        &pins,
    );
}

#[test]
fn batched_core_matches_per_task_loop_on_figure_graphs() {
    let mut pins = Pins::new();
    // Figure 3's chain bundle (Theorem 9's static skeleton) and the
    // Figure 1 generic layered graph at an off-theorem size.
    for l in [2u32, 3, 4] {
        let (g, _) = arbitrary::fig3_graph(l);
        let p = arbitrary::params(l).p_total;
        online(&g, p, 0.3, &format!("fig3 l={l}"), &mut pins);
    }
    let inst = generic::GenericInstance::build(
        4,
        3,
        &SpeedupModel::amdahl(8.0, 0.25).unwrap(),
        &SpeedupModel::roofline(4.0, 2).unwrap(),
        SpeedupModel::amdahl(2.0, 0.1).unwrap(),
    );
    online(&inst.graph, 16, 0.3, "generic 4x3", &mut pins);
    golden::check(
        GOLDEN,
        "batched_core_matches_per_task_loop_on_figure_graphs",
        &pins,
    );
}

#[test]
fn batched_core_matches_per_task_loop_on_random_dags() {
    let mut pins = Pins::new();
    // Density sweep over layered-random DAGs with mixed General-class
    // models: irregular adjacency (empty succ lists, high-degree hubs)
    // plus near-equal durations that produce accidental ties.
    let dist = ParamDistribution::default();
    for case in 0..8u64 {
        let p_total = 24;
        let class = ModelClass::General;
        let mut mrng = StdRng::seed_from_u64(case * 131 + 17);
        let mut assign = gen::weighted_sampler(class, dist.clone(), p_total, &mut mrng);
        let mut srng = StdRng::seed_from_u64(case * 37 + 5);
        let density = 0.1 + 0.1 * (case as f64);
        let g = gen::layered_random(5, 9, density, &mut srng, &mut assign);
        online(
            &g,
            p_total,
            0.25,
            &format!("random-dag case {case}"),
            &mut pins,
        );
    }
    // The sparse generator feeds the million-task bench; its graphs
    // must go through the same differential.
    for case in 0..4u64 {
        let p_total = 24;
        let mut mrng = StdRng::seed_from_u64(case + 900);
        let dist = ParamDistribution::default();
        let mut assign = gen::weighted_sampler(ModelClass::General, dist, p_total, &mut mrng);
        let mut srng = StdRng::seed_from_u64(case + 77);
        let g = gen::layered_random_sparse(8, 24, 0.08, &mut srng, &mut assign);
        online(
            &g,
            p_total,
            0.25,
            &format!("sparse-layered case {case}"),
            &mut pins,
        );
    }
    golden::check(
        GOLDEN,
        "batched_core_matches_per_task_loop_on_random_dags",
        &pins,
    );
}

/// A model with `time(p) = w` for every `p`: Algorithm 2 allocates a
/// single processor and the duration is exact in binary arithmetic, so
/// finish times collide bit-for-bit by construction.
fn constant(w: f64) -> SpeedupModel {
    SpeedupModel::amdahl(0.0, w).unwrap()
}

#[test]
fn simultaneous_finish_tie_break_is_pinned() {
    let mut pins = Pins::new();
    // Crafted instance: three sources finish at *exactly* t = 2.0 (the
    // durations are powers of two, so equality is bit-exact, not
    // approximate). Each source reveals two children; only 2 of the 6
    // children fit at once (P = 2, one processor each), so the start
    // order of the children is decided purely by revelation order and
    // queue tie-breaks. The per-task loop processes the three
    // completions one event at a time; the core frees and
    // reveals them as one batch. Both must reveal successors in
    // completion-event order (source id order here) and start children
    // in release-sequence order.
    let mut b = GraphBuilder::with_capacity(9);
    let s0 = b.add_task(constant(2.0));
    let s1 = b.add_task(constant(2.0));
    let s2 = b.add_task(constant(2.0));
    let mut children = Vec::new();
    for (i, &s) in [s0, s1, s2].iter().enumerate() {
        for j in 0..2 {
            // Distinct power-of-two durations so a reordering would
            // visibly change start times, not just task labels.
            let c = b.add_task(constant(0.25 * (1 + 2 * i + j) as f64));
            b.add_edge(s, c).unwrap();
            children.push(c);
        }
    }
    let g = b.freeze();
    let p_total = 2;

    online(&g, p_total, 0.3, "tie-break pin", &mut pins);

    // Pin the exact start order so a *coordinated* regression in both
    // loops cannot slip through the differential: sources in id
    // order at t = 0 (P = 2 admits two; the third waits one batch...
    // but every source needs 1 proc, so starts stagger by finish).
    let mut sched = OnlineScheduler::with_mu(0.3);
    let s = simulate(&g, &mut sched, &SimOptions::new(p_total)).unwrap();
    let order: Vec<u32> = s.placements.iter().map(|p| p.task.0).collect();
    // t=0: s0, s1 start (P=2). t=2: both finish in one batch, reveal
    // c0..c3 in source-id order; s2 was released first so it starts
    // first, then c0. t=4: s2 finishes revealing c4, c5; the queue
    // holds c1, c2, c3, c4, c5 and starts drain in release order as
    // processors free up.
    assert_eq!(order[..2], [s0.0, s1.0], "sources start in id order");
    assert_eq!(order[2], s2.0, "third source starts at the first batch");
    assert_eq!(
        order[3..5],
        [children[0].0, children[1].0],
        "children revealed by the t=2 batch start in revelation order"
    );
    let starts: Vec<f64> = s.placements.iter().map(|p| p.start).collect();
    assert_eq!(starts[..2], [0.0, 0.0]);
    assert_eq!(starts[2], 2.0, "s2 starts the instant s0/s1 finish");
    golden::check(GOLDEN, "simultaneous_finish_tie_break_is_pinned", &pins);
}

/// `sources` independent tasks of the given durations, each with one
/// child whose duration is `children[i]`. Durations are exact in binary
/// arithmetic, so equal sums are bit-equal end times.
fn sources_with_children(sources: &[f64], children: &[f64]) -> TaskGraph {
    let mut b = GraphBuilder::with_capacity(sources.len() + children.len());
    let ids: Vec<TaskId> = sources.iter().map(|&w| b.add_task(constant(w))).collect();
    for (&s, &w) in ids.iter().zip(children) {
        let c = b.add_task(constant(w));
        b.add_edge(s, c).unwrap();
    }
    b.freeze()
}

#[test]
fn equal_end_times_from_two_decision_points_are_pinned() {
    let mut pins = Pins::new();
    // t=0 starts a (duration 3) and b (duration 1); b's child c starts
    // at t=1 with duration 2, so a and c both end at t=3 although they
    // were started by different decision points (placements 0 and 2).
    // Their children are revealed in that order and, with one
    // processor free per child, start in that order.
    let mut b = GraphBuilder::with_capacity(5);
    let a = b.add_task(constant(3.0));
    let first = b.add_task(constant(1.0));
    let c = b.add_task(constant(2.0));
    b.add_edge(first, c).unwrap();
    let a_child = b.add_task(constant(0.5));
    let c_child = b.add_task(constant(0.25));
    b.add_edge(a, a_child).unwrap();
    b.add_edge(c, c_child).unwrap();
    let g = b.freeze();
    online(&g, 2, 0.3, "two decision points", &mut pins);

    let s = simulate(&g, &mut OnlineScheduler::with_mu(0.3), &SimOptions::new(2)).unwrap();
    let order: Vec<u32> = s.placements.iter().map(|p| p.task.0).collect();
    assert_eq!(order, [a.0, first.0, c.0, a_child.0, c_child.0]);
    assert_eq!(s.placements[0].end.to_bits(), s.placements[2].end.to_bits());
    golden::check(
        GOLDEN,
        "equal_end_times_from_two_decision_points_are_pinned",
        &pins,
    );
}

/// Five sources started together with durations 2, 2, 1, 2, 2: the
/// ends at t=2 are not contiguous in start order (placement 2 ends at
/// t=1), and its child (duration 1) ends at t=2 as well, from a later
/// decision point.
fn a_b_a_graph() -> TaskGraph {
    sources_with_children(&[2.0, 2.0, 1.0, 2.0, 2.0], &[0.5, 0.25, 1.0, 0.125, 0.0625])
}

#[test]
fn a_b_a_durations_at_one_decision_point_are_pinned() {
    let mut pins = Pins::new();
    let g = a_b_a_graph();
    online(&g, 5, 0.3, "a-b-a p=5", &mut pins);
    // With fewer processors the children queue behind each other, so
    // their start order is the revelation order at t=2.
    online(&g, 3, 0.3, "a-b-a p=3", &mut pins);
    golden::check(
        GOLDEN,
        "a_b_a_durations_at_one_decision_point_are_pinned",
        &pins,
    );
}

#[test]
fn a_sliced_horizon_on_a_shared_end_time_is_pinned() {
    let mut pins = Pins::new();
    let g = a_b_a_graph();
    let opts = SimOptions::new(5).with_proc_ids();
    let reference = per_task::simulate_instance(
        &mut GraphInstance::new(&g),
        &mut OnlineScheduler::with_mu(0.3),
        &opts,
    )
    .unwrap();
    // The reference loop retires completions in (end time, start
    // sequence) order; every slice must report exactly that.
    let mut retire: Vec<usize> = (0..reference.placements.len()).collect();
    retire.sort_by(|&i, &j| {
        reference.placements[i]
            .end
            .total_cmp(&reference.placements[j].end)
            .then(i.cmp(&j))
    });
    let mut st = Stepper::new(GraphInstance::new(&g), OnlineScheduler::with_mu(0.3), &opts);
    let mut slices = Vec::new();
    for horizon in [1.0, 2.0, f64::INFINITY] {
        let mut done = Vec::new();
        st.advance_until(horizon, &mut done).unwrap();
        slices.push(done);
    }
    assert_eq!(slices[0], [2], "only the short source ends by t=1");
    assert_eq!(slices[1], [0, 1, 3, 4, 5], "every t=2 end at horizon 2");
    assert_eq!(slices.concat(), retire);
    let s = st.finish().unwrap();
    assert_eq!(s, reference);
    pins.push(("schedule".to_owned(), golden::schedule(&s)));
    pins.push(("slices".to_owned(), golden::debug(&slices)));
    golden::check(
        GOLDEN,
        "a_sliced_horizon_on_a_shared_end_time_is_pinned",
        &pins,
    );
}

#[test]
fn batched_core_matches_per_task_loop_for_every_baseline() {
    let mut pins = Pins::new();
    // The baselines run on the core through the trait's
    // default `release_batch`/`select_batch`; each must see exactly the
    // per-task call sequence, including the time-aware ones (ECT and
    // backfill read `now`) and the order-sensitive fixed allocations.
    let cases: &[(&str, u32)] = &[
        ("layered", 8),
        ("fft", 4),
        ("cholesky", 5),
        ("chain", 10),
        ("independent", 16),
        ("fork-join", 4),
        ("in-tree", 4),
        ("out-tree", 4),
        ("random", 24),
        ("lu", 4),
        ("wavefront", 5),
    ];
    for &(shape, size) in cases {
        for seed in [3u64, 19] {
            for class in [
                ModelClass::Roofline,
                ModelClass::Amdahl,
                ModelClass::General,
            ] {
                let p = 16;
                let g = gen::by_name(shape, size, class, p, seed).unwrap();
                for (name, mk) in baselines_for(&g, p, class) {
                    differential(
                        &g,
                        p,
                        &*mk,
                        &format!("{name}: {shape}/{size} seed={seed} {class:?}"),
                        &mut pins,
                    );
                }
            }
        }
    }
    golden::check(
        GOLDEN,
        "batched_core_matches_per_task_loop_for_every_baseline",
        &pins,
    );
}

#[test]
fn batched_core_matches_per_task_loop_on_turek_allocations() {
    let mut pins = Pins::new();
    // Turek's dual approximation is for independent tasks; its fixed
    // allocations drive a list scheduler like CPA's.
    for seed in [1u64, 2, 3] {
        for class in [ModelClass::Communication, ModelClass::General] {
            let p = 20;
            let g = gen::by_name("independent", 30, class, p, seed).unwrap();
            let allocs = turek_schedule(&g, p).allocations;
            differential(
                &g,
                p,
                &|| Box::new(FixedAllocScheduler::new(allocs.clone())),
                &format!("turek seed={seed} {class:?}"),
                &mut pins,
            );
        }
    }
    golden::check(
        GOLDEN,
        "batched_core_matches_per_task_loop_on_turek_allocations",
        &pins,
    );
}

/// The four ways a scheduler can break the engine contract.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    Oversubscribe,
    Restart,
    Unknown,
    ZeroProcs,
    Refuse,
}

/// FIFO on one processor per task that breaks the contract on the
/// first `select` call from the `at`-th on that has a processor free
/// and two tasks waiting — after a legitimate first pick in the same
/// batch, so the error lands mid-batch, mid-run.
struct Faulty {
    fault: Fault,
    at: usize,
    calls: usize,
    queue: std::collections::VecDeque<TaskId>,
    started: Vec<TaskId>,
}

impl Faulty {
    fn new(fault: Fault, at: usize) -> Self {
        Self {
            fault,
            at,
            calls: 0,
            queue: std::collections::VecDeque::new(),
            started: Vec::new(),
        }
    }
}

impl Scheduler for Faulty {
    fn release(&mut self, task: TaskId, _m: &SpeedupModel) {
        self.queue.push_back(task);
    }

    fn select(&mut self, _now: f64, free: u32) -> Vec<(TaskId, u32)> {
        self.calls += 1;
        if self.fault == Fault::Refuse && self.calls >= self.at {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut free = free;
        if self.calls >= self.at && free >= 1 && self.queue.len() >= 2 {
            let t = self.queue.pop_front().expect("two waiting");
            out.push((t, 1));
            self.started.push(t);
            free -= 1;
            let next = self.queue[0];
            out.push(match self.fault {
                Fault::Oversubscribe => (next, free + 1),
                Fault::Restart => (self.started[0], 1),
                Fault::Unknown => (TaskId(u32::MAX - 1), 1),
                Fault::ZeroProcs => (next, 0),
                Fault::Refuse => unreachable!("handled above"),
            });
            return out;
        }
        while free >= 1 {
            let Some(t) = self.queue.pop_front() else {
                break;
            };
            out.push((t, 1));
            self.started.push(t);
            free -= 1;
        }
        out
    }
}

#[test]
fn faulty_schedulers_get_identical_errors() {
    let mut pins = Pins::new();
    let g = gen::by_name("layered", 8, ModelClass::Amdahl, 4, 5).unwrap();
    let p = 4;
    for fault in [
        Fault::Oversubscribe,
        Fault::Restart,
        Fault::Unknown,
        Fault::ZeroProcs,
        Fault::Refuse,
    ] {
        for at in [1usize, 2, 7, 20] {
            let ctx = format!("{fault:?} at select #{at}");
            let err = same_result(&g, p, &|| Box::new(Faulty::new(fault, at)), &ctx, &mut pins)
                .expect_err(&ctx);
            let expected = match (fault, &err) {
                (Fault::Oversubscribe, SimError::Oversubscribed { want, free, .. }) => {
                    want == &(free + 1)
                }
                (Fault::Restart | Fault::Unknown, SimError::NotAvailable(_))
                | (Fault::ZeroProcs, SimError::ZeroProcs(_)) => true,
                (Fault::Refuse, SimError::Stuck { completed, .. }) => at == 1 || *completed > 0,
                _ => false,
            };
            assert!(expected, "{ctx}: unexpected error {err:?}");
        }
    }
    golden::check(GOLDEN, "faulty_schedulers_get_identical_errors", &pins);
}
