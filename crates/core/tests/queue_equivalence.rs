//! Equivalence tests: the indexed ready queue and the memoized
//! allocator must be *observationally identical* to their reference
//! implementations.
//!
//! These are the safety net for the hot path — fast, deterministic,
//! and always on (unlike the `slow-tests` property suites).
//!
//! * Schedule level: each case runs an instance through
//!   `OnlineScheduler` under all five queue policies and demands the
//!   schedule whose FNV-1a fingerprint `goldens/queue.txt` pins. The
//!   fingerprints were taken from schedules that the original
//!   sorted-`Vec` queue reproduced bit for bit, so same start times,
//!   same processor counts, same makespan.
//! * Queue level: random push, pop and drain interleavings drive
//!   [`IndexedQueue`] and the sorted-`Vec` fixture
//!   (`support/linear_queue.rs`) under every policy's key shape and
//!   demand identical items in identical order.

use moldable_core::{allocate, AllocCache, IndexedQueue, OnlineScheduler, QueuePolicy, ReadyItem};
use moldable_graph::TaskId;
use moldable_graph::{gen, GraphBuilder, TaskGraph};
use moldable_model::rng::{Rng, StdRng};
use moldable_model::sample::ParamDistribution;
use moldable_model::{ModelClass, SpeedupModel, MU_MAX};
use moldable_sim::{simulate, SimOptions};

mod support;
use support::golden;
use support::linear_queue::LinearQueue;

const GOLDEN: &str = include_str!("goldens/queue.txt");

/// `(case, fingerprint)` pairs one test pins.
type Pins = Vec<(String, u64)>;

const POLICIES: [QueuePolicy; 5] = [
    QueuePolicy::Fifo,
    QueuePolicy::ShortestFirst,
    QueuePolicy::LongestFirst,
    QueuePolicy::SmallestAllocFirst,
    QueuePolicy::LargestAllocFirst,
];

/// Run one graph under one policy, validate the schedule, and pin its
/// fingerprint under `ctx`.
fn pinned_run(
    g: &TaskGraph,
    p_total: u32,
    mu: f64,
    policy: QueuePolicy,
    ctx: &str,
    pins: &mut Pins,
) {
    let mut sched = OnlineScheduler::with_mu(mu).with_policy(policy);
    let s = simulate(g, &mut sched, &SimOptions::new(p_total)).unwrap();
    s.validate(g).unwrap();
    pins.push((ctx.to_string(), golden::schedule(&s)));
}

#[test]
fn random_dags_keep_their_pinned_schedules() {
    let mut pins = Pins::new();
    let dist = ParamDistribution::default();
    for case in 0..24u64 {
        let mut crng = StdRng::seed_from_u64(0xD1FF ^ case);
        let class = [
            ModelClass::Roofline,
            ModelClass::Communication,
            ModelClass::Amdahl,
            ModelClass::General,
            ModelClass::Arbitrary,
        ][crng.gen_range(0usize..5)];
        let p_total = crng.gen_range(2u32..96);
        let layers = crng.gen_range(2usize..8);
        let width = crng.gen_range(1usize..12);
        let density = crng.gen_range(0.1f64..0.9);
        let mu = crng.gen_range(0.05f64..MU_MAX);

        let mut mrng = StdRng::seed_from_u64(case * 71 + 3);
        let mut assign = gen::weighted_sampler(class, dist.clone(), p_total, &mut mrng);
        let mut srng = StdRng::seed_from_u64(case * 31 + 1);
        let g = gen::layered_random(layers, width, density, &mut srng, &mut assign);

        for policy in POLICIES {
            pinned_run(
                &g,
                p_total,
                mu,
                policy,
                &format!("case {case} {policy:?}"),
                &mut pins,
            );
        }
    }
    golden::check(GOLDEN, "random_dags", &pins);
}

#[test]
fn structured_graphs_keep_their_pinned_schedules() {
    let mut pins = Pins::new();
    let p_total = 32;
    type Assign<'a> = &'a mut dyn FnMut(gen::TaskCtx<'_>) -> SpeedupModel;
    let build = |class: ModelClass, seed: u64, make: &dyn Fn(Assign<'_>) -> TaskGraph| {
        let mut mrng = StdRng::seed_from_u64(seed);
        let mut assign =
            gen::weighted_sampler(class, ParamDistribution::default(), p_total, &mut mrng);
        make(&mut assign)
    };
    let graphs: [(&str, TaskGraph); 4] = [
        (
            "fork_join",
            build(ModelClass::General, 0x57A7, &|a| gen::fork_join(12, 4, a)),
        ),
        (
            "fft",
            build(ModelClass::Amdahl, 0x57A8, &|a| gen::fft(4, a)),
        ),
        (
            "lu",
            build(ModelClass::Communication, 0x57A9, &|a| gen::lu(6, a)),
        ),
        (
            "independent",
            build(ModelClass::Roofline, 0x57AA, &|a| gen::independent(64, a)),
        ),
    ];
    for (name, g) in graphs {
        for policy in POLICIES {
            pinned_run(
                &g,
                p_total,
                MU_MAX,
                policy,
                &format!("{name} {policy:?}"),
                &mut pins,
            );
        }
    }
    golden::check(GOLDEN, "structured_graphs", &pins);
}

#[test]
fn equal_duration_completion_batches_break_ties_identically() {
    let mut pins = Pins::new();
    // Many identical tasks completing at the same instant stress the
    // decision-point batching: every policy primary is tied, so the
    // release-sequence tiebreak alone determines the start order.
    let mut g = GraphBuilder::new();
    let mut roots = Vec::new();
    for _ in 0..16 {
        roots.push(g.add_task(SpeedupModel::roofline(4.0, 2).unwrap()));
    }
    // A second wave fanning in/out of the first: each child depends on
    // two parents, all durations equal.
    for i in 0..24 {
        let c = g.add_task(SpeedupModel::roofline(4.0, 2).unwrap());
        g.add_edge(roots[i % 16], c).unwrap();
        g.add_edge(roots[(i + 5) % 16], c).unwrap();
    }
    let g = g.freeze();
    for p_total in [3u32, 8, 13, 64] {
        for policy in POLICIES {
            pinned_run(
                &g,
                p_total,
                0.3,
                policy,
                &format!("P={p_total} {policy:?}"),
                &mut pins,
            );
        }
    }
    golden::check(GOLDEN, "tied_completion_batches", &pins);
}

#[test]
fn tiny_platforms_and_serial_queues_match() {
    let mut pins = Pins::new();
    // P = 1 forces everything through the queue one task at a time —
    // maximal queue residency, worst case for ordering bugs.
    let dist = ParamDistribution::default();
    let mut mrng = StdRng::seed_from_u64(0x0001);
    let mut assign = gen::weighted_sampler(ModelClass::Arbitrary, dist, 4, &mut mrng);
    let mut srng = StdRng::seed_from_u64(2);
    let g = gen::layered_random(6, 6, 0.3, &mut srng, &mut assign);
    for policy in POLICIES {
        pinned_run(&g, 1, 0.2, policy, &format!("P=1 {policy:?}"), &mut pins);
        pinned_run(&g, 2, 0.2, policy, &format!("P=2 {policy:?}"), &mut pins);
    }
    golden::check(GOLDEN, "tiny_platforms", &pins);
}

#[test]
fn deep_queues_keep_their_pinned_schedules() {
    let mut pins = Pins::new();
    // 3000 independent tasks on a small platform: thousands of tasks
    // wait at once, spread over every allocation bucket, and the queue
    // drains from that depth back to empty.
    let dist = ParamDistribution::default();
    let p_total = 24;
    let mut mrng = StdRng::seed_from_u64(0xDEE9);
    let mut assign = gen::weighted_sampler(ModelClass::General, dist, p_total, &mut mrng);
    let g = gen::independent(3000, &mut assign);
    for policy in POLICIES {
        pinned_run(
            &g,
            p_total,
            MU_MAX,
            policy,
            &format!("deep {policy:?}"),
            &mut pins,
        );
    }
    golden::check(GOLDEN, "deep_queues", &pins);
}

#[test]
fn adversary_instances_keep_their_pinned_schedules() {
    let mut pins = Pins::new();
    // The paper's own lower-bound constructions are the nastiest
    // instances we know how to build: they are engineered to force the
    // algorithm into pathological allocation patterns, so any ordering
    // divergence in the queue shows up here first. Run each
    // instance at its proof μ and at a second, off-proof μ.
    use moldable_adversary as adversary;

    let instances: Vec<(&str, moldable_adversary::LowerBoundInstance)> = vec![
        ("roofline P=17", adversary::roofline::instance(17)),
        ("roofline P=64", adversary::roofline::instance(64)),
        ("communication P=12", adversary::communication::instance(12)),
        ("communication P=47", adversary::communication::instance(47)),
        ("amdahl K=5", adversary::amdahl::instance(5)),
        ("general K=6", adversary::general::instance(6)),
    ];
    for (name, inst) in &instances {
        for policy in POLICIES {
            pinned_run(
                &inst.graph,
                inst.p_total,
                inst.mu,
                policy,
                &format!("{name} proof-mu {policy:?}"),
                &mut pins,
            );
            pinned_run(
                &inst.graph,
                inst.p_total,
                (inst.mu * 0.5).max(0.05),
                policy,
                &format!("{name} off-mu {policy:?}"),
                &mut pins,
            );
        }
    }
    golden::check(GOLDEN, "adversary_instances", &pins);
}

#[test]
fn fig3_chain_graphs_keep_their_pinned_schedules() {
    let mut pins = Pins::new();
    // Theorem 9's chain forest (Figure 3): thousands of equal-duration
    // chain tasks whose releases arrive in large simultaneous batches —
    // a worst case for tie-breaking inside the ready queue.
    use moldable_adversary::arbitrary;

    for l in [1u32, 2] {
        let pr = arbitrary::params(l);
        let (g, chains) = arbitrary::fig3_graph(l);
        assert_eq!(g.n_tasks() as u64, pr.n_tasks, "l={l}: task count");
        assert_eq!(chains.len() as u64, pr.n_chains, "l={l}: chain count");
        for policy in POLICIES {
            pinned_run(
                &g,
                pr.p_total,
                MU_MAX,
                policy,
                &format!("fig3 l={l} {policy:?}"),
                &mut pins,
            );
            // Starved platform: far fewer processors than the
            // construction assumes, so the queue stays deep.
            pinned_run(
                &g,
                3,
                0.15,
                policy,
                &format!("fig3-starved l={l} {policy:?}"),
                &mut pins,
            );
        }
    }
    golden::check(GOLDEN, "fig3_chain_forests", &pins);
}

#[test]
fn layered_general_dag_keeps_its_pinned_schedules() {
    let mut pins = Pins::new();
    let mut rng = StdRng::seed_from_u64(7);
    let dist = ParamDistribution::default();
    let mut assign = gen::weighted_sampler(ModelClass::General, dist, 24, &mut rng);
    let mut srng = StdRng::seed_from_u64(8);
    let g = gen::layered_random(5, 8, 0.4, &mut srng, &mut assign);
    for policy in POLICIES {
        pinned_run(&g, 24, 0.3, policy, &format!("{policy:?}"), &mut pins);
    }
    golden::check(GOLDEN, "layered_general", &pins);
}

/// A random push/pop/drain interleaving through [`IndexedQueue`] and
/// the sorted-`Vec` fixture, with keys shaped by `policy`: FIFO ties
/// every primary, LPT and wide-first make them negative, narrow- and
/// wide-first make them per-allocation. Durations come from a small
/// set so LPT and SPT primaries tie too.
fn interleave_against_fixture(policy: QueuePolicy, seed: u64, max_alloc: u32) {
    let ctx = format!("{policy:?} seed {seed:#x}");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fixture = LinearQueue::new();
    let mut queue = IndexedQueue::new();
    let mut drained = Vec::new();
    for seq in 0..6_000u64 {
        if rng.gen_bool(0.55) || fixture.is_empty() {
            let alloc = rng.gen_range(1..=max_alloc);
            let dur = f64::from(rng.gen_range(1u32..6)) * 0.5;
            let it = ReadyItem {
                task: TaskId(u32::try_from(seq).unwrap()),
                alloc,
                key: policy.key(dur, alloc, seq),
                dur,
            };
            fixture.push(it);
            queue.push(it);
        } else if rng.gen_bool(0.5) {
            let free = rng.gen_range(0..=max_alloc + 2);
            assert_eq!(
                fixture.pop_first_fit(free),
                queue.pop_first_fit(free),
                "{ctx}"
            );
        } else {
            let budget = rng.gen_range(0..=3 * max_alloc);
            let (mut free, mut want) = (budget, budget);
            drained.clear();
            queue.pop_fits_into(&mut free, &mut drained);
            for got in &drained {
                assert_eq!(Some(*got), fixture.pop_first_fit(want), "{ctx}");
                want -= got.alloc;
            }
            assert_eq!(
                fixture.pop_first_fit(want),
                None,
                "{ctx}: drain stopped early"
            );
            assert_eq!(free, want, "{ctx}");
        }
        assert_eq!(fixture.len(), queue.len(), "{ctx}");
    }
    while let Some(want) = fixture.pop_first_fit(u32::MAX) {
        assert_eq!(queue.pop_first_fit(u32::MAX), Some(want), "{ctx}");
    }
    assert!(queue.is_empty(), "{ctx}");
}

#[test]
fn queue_matches_the_fixture_under_random_interleavings() {
    for policy in POLICIES {
        for (seed, max_alloc) in [(0xD1FF, 11), (0x5B11, 3), (0xBA7C, 200)] {
            interleave_against_fixture(policy, seed, max_alloc);
        }
    }
}

#[test]
fn negative_primary_keys_sort_before_zero() {
    // LongestFirst emits negative primaries; total_cmp must order them
    // ahead of 0.0 exactly like the fixture.
    let item = |seq: u64, primary: f64| ReadyItem {
        task: TaskId(u32::try_from(seq).unwrap()),
        alloc: 1,
        key: (primary, seq),
        dur: primary.abs(),
    };
    let mut fixture = LinearQueue::new();
    let mut queue = IndexedQueue::new();
    for it in [item(0, 0.0), item(1, -3.5), item(2, -1.0), item(3, -0.0)] {
        fixture.push(it);
        queue.push(it);
    }
    for _ in 0..5 {
        assert_eq!(fixture.pop_first_fit(4), queue.pop_first_fit(4));
    }
}

#[test]
fn memoized_allocator_matches_direct_allocate() {
    let dist = ParamDistribution::default();
    for case in 0..8u64 {
        let mut crng = StdRng::seed_from_u64(0xA110C ^ case);
        let p_total = crng.gen_range(1u32..128);
        let mu = crng.gen_range(0.05f64..MU_MAX);
        let mut cache = AllocCache::new(p_total, mu);
        for class in [
            ModelClass::Roofline,
            ModelClass::Communication,
            ModelClass::Amdahl,
            ModelClass::General,
            ModelClass::Arbitrary,
        ] {
            let mut mrng = StdRng::seed_from_u64(case * 131 + 7);
            for _ in 0..40 {
                let m = dist.sample(class, p_total, &mut mrng);
                let direct = allocate(&m, p_total, mu);
                assert_eq!(cache.allocate(&m), direct, "cold, {class}, case {case}");
                assert_eq!(cache.allocate(&m), direct, "hot, {class}, case {case}");
            }
        }
    }
}

#[test]
fn scheduler_with_cache_matches_uncached_decisions() {
    // End to end: the scheduler's cached release path must record the
    // exact decisions `allocate` would make task by task.
    let dist = ParamDistribution::default();
    let p_total = 48;
    let mu = ModelClass::General.optimal_mu();
    let mut mrng = StdRng::seed_from_u64(0xCAFE);
    let mut assign = gen::weighted_sampler(ModelClass::General, dist, p_total, &mut mrng);
    let mut srng = StdRng::seed_from_u64(0xBEEF);
    let g = gen::layered_random(6, 10, 0.4, &mut srng, &mut assign);
    let mut s = OnlineScheduler::with_mu(mu).record_decisions(true);
    let sched = simulate(&g, &mut s, &SimOptions::new(p_total)).unwrap();
    sched.validate(&g).unwrap();
    for t in g.task_ids() {
        let d = s.decision(t).expect("recorded");
        assert_eq!(d, allocate(g.model(t), p_total, mu), "task {t:?}");
    }
}
