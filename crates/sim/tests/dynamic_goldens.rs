//! Dynamic instances pinned to golden fingerprints and to the per-task
//! reference loop: Theorem 9's adaptive chain adversary, bursts of
//! timed arrivals and failure-injecting instances.
//!
//! Every run goes through three doors — [`simulate_instance`], a
//! [`Stepper`] advanced in uneven slices, and the reference loop in
//! `support/per_task.rs` — and all three must agree bit for bit with
//! the fingerprint in `goldens/dynamic.txt`, pinned from the engines
//! as they stood before the loops were merged.

mod support;

use moldable_adversary::arbitrary::AdaptiveChains;
use moldable_core::baselines::EqualShareScheduler;
use moldable_core::{AlgoName, OnlineScheduler};
use moldable_graph::gen;
use moldable_model::rng::{Rng, StdRng};
use moldable_model::{ModelClass, SpeedupModel};
use moldable_resilience::{FailureModel, FaultyInstance};
use moldable_sim::{
    simulate_instance, Instance, Schedule, Scheduler, SimOptions, Stepper, TimedArrivals,
};
use support::{golden, per_task};

const GOLDEN: &str = include_str!("goldens/dynamic.txt");

/// Horizons that land between and on event times alike.
const SLICES: [f64; 6] = [0.0, 0.3, 0.5, 1.0, 2.5, 7.25];

/// Run one instance (rebuilt by `inst` for each door) under a scheduler
/// rebuilt by `sched`; demand the three doors agree and return the
/// schedule.
fn three_doors<I: Instance, S: Scheduler>(
    inst: &dyn Fn() -> I,
    sched: &dyn Fn() -> S,
    opts: &SimOptions,
    ctx: &str,
) -> Schedule {
    let reference = per_task::simulate_instance(&mut inst(), &mut sched(), opts)
        .unwrap_or_else(|e| panic!("{ctx}: reference failed: {e}"));
    let one_shot = simulate_instance(&mut inst(), &mut sched(), opts)
        .unwrap_or_else(|e| panic!("{ctx}: simulate_instance failed: {e}"));
    assert_eq!(one_shot, reference, "{ctx}: simulate_instance vs reference");
    let mut stepper = Stepper::new(inst(), sched(), opts);
    let mut done = Vec::new();
    for horizon in SLICES {
        stepper.advance_until(horizon, &mut done).unwrap();
    }
    let stepped = stepper.finish().unwrap();
    assert_eq!(stepped, reference, "{ctx}: sliced stepper vs reference");
    reference
}

#[test]
fn theorem9_adversary_is_pinned() {
    let mut pins = Vec::new();
    for l in [1u32, 2, 3] {
        let p = AdaptiveChains::new(l).params().p_total;
        let opts = SimOptions::new(p);
        for algo in [AlgoName::Icpp22, AlgoName::Improved23] {
            let ctx = format!("l={l} {algo}");
            let s = three_doors(
                &|| AdaptiveChains::new(l),
                &|| OnlineScheduler::for_algo_class(algo, ModelClass::Arbitrary),
                &opts,
                &ctx,
            );
            pins.push((ctx, golden::schedule(&s)));
        }
        let ctx = format!("l={l} equal-share");
        let s = three_doors(
            &|| AdaptiveChains::new(l),
            &EqualShareScheduler::new,
            &opts,
            &ctx,
        );
        pins.push((ctx, golden::schedule(&s)));
        // The adversary's decision points follow from the schedule.
        let mut adv = AdaptiveChains::new(l);
        let mut sched = OnlineScheduler::for_class(ModelClass::Arbitrary);
        simulate_instance(&mut adv, &mut sched, &opts).unwrap();
        pins.push((format!("l={l} t_marks"), golden::debug(&adv.t_marks())));
    }
    golden::check(GOLDEN, "theorem9", &pins);
}

/// `(release date, model)` bursts: `k` tasks at each listed instant,
/// models cycling through a few weights so completions tie.
fn bursts(spec: &[(f64, u32)], class_seed: u64) -> Vec<(f64, SpeedupModel)> {
    let mut rng = StdRng::seed_from_u64(class_seed);
    let mut out = Vec::new();
    for &(at, k) in spec {
        for i in 0..k {
            let w = 1.0 + f64::from(i % 4);
            let model = if rng.gen_bool(0.5) {
                SpeedupModel::amdahl(w * 8.0, 0.25 * w).unwrap()
            } else {
                SpeedupModel::roofline(w * 4.0, 1 + i % 5).unwrap()
            };
            out.push((at, model));
        }
    }
    out
}

#[test]
fn timed_arrival_bursts_are_pinned() {
    let specs: [(&str, Vec<(f64, u32)>); 4] = [
        ("one-instant", vec![(0.0, 64)]),
        ("staggered", vec![(0.0, 5), (0.5, 3), (0.5, 4), (2.0, 6)]),
        ("late-start", vec![(3.0, 9), (3.0, 2), (11.0, 17)]),
        (
            "dense",
            (0..24).map(|i| (0.25 * f64::from(i % 8), 3)).collect(),
        ),
    ];
    let mut pins = Vec::new();
    for (name, spec) in &specs {
        for seed in [1u64, 2] {
            let releases = bursts(spec, seed);
            for p in [3u32, 16] {
                let opts = SimOptions::new(p);
                let inst = || TimedArrivals::new(releases.clone());
                for algo in [AlgoName::Icpp22, AlgoName::Improved23] {
                    let ctx = format!("{name} seed={seed} P={p} {algo}");
                    let s = three_doors(
                        &inst,
                        &|| OnlineScheduler::for_algo_class(algo, ModelClass::General),
                        &opts,
                        &ctx,
                    );
                    pins.push((ctx, golden::schedule(&s)));
                }
                let ctx = format!("{name} seed={seed} P={p} equal-share");
                let s = three_doors(&inst, &EqualShareScheduler::new, &opts, &ctx);
                pins.push((ctx, golden::schedule(&s)));
            }
        }
    }
    golden::check(GOLDEN, "timed_arrivals", &pins);
}

#[test]
fn faulty_instances_are_pinned() {
    let mut pins = Vec::new();
    for (shape, size) in [("layered", 8u32), ("cholesky", 5), ("fork-join", 4)] {
        for class in [ModelClass::Amdahl, ModelClass::General] {
            let p = 16;
            let g = gen::by_name(shape, size, class, p, 5).unwrap();
            let opts = SimOptions::new(p).with_proc_ids();
            for (fname, failure) in [
                ("q=0.2", FailureModel::PerAttempt(0.2)),
                ("lambda=0.002", FailureModel::PerCoreTime(0.002)),
            ] {
                for seed in [3u64, 4] {
                    let ctx = format!("{shape}/{size} {class:?} {fname} seed={seed}");
                    let s = three_doors(
                        &|| FaultyInstance::with_model(&g, failure, seed).with_max_attempts(5),
                        &|| OnlineScheduler::for_class(class),
                        &opts,
                        &ctx,
                    );
                    pins.push((ctx, golden::schedule(&s)));
                }
            }
        }
    }
    golden::check(GOLDEN, "faulty", &pins);
}
