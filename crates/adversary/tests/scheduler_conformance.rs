//! Cross-scheduler conformance harness.
//!
//! Every algorithm registered in [`moldable_core::registry`] is run
//! through the same gauntlet, so adding a scheduler to the registry
//! automatically subjects it to the full certification matrix:
//!
//! 1. **Engine equivalence** — the simulation core
//!    ([`moldable_sim::simulate`]) and the per-task reference loop
//!    (`moldable-sim`'s `tests/support/per_task.rs`, on a
//!    [`moldable_sim::GraphInstance`]) must produce *bit-identical*
//!    schedules for each algorithm over generator shapes × seeds ×
//!    speedup classes — and, in the property harness, for every
//!    baseline scheduler too. Every such schedule is also pinned by
//!    its FNV-1a fingerprint in `goldens/conformance.txt`.
//! 2. **Envelope compliance** — on each Theorem 5–8 witness and on the
//!    Figure 3 chain forests, the measured competitive ratio must stay
//!    at or below the algorithm's proven upper bound
//!    ([`moldable_core::AlgoName::proven_upper_bound`]).
//! 3. **Optimality floor** — on tiny instances the makespan must be at
//!    least the exhaustive offline optimum
//!    ([`moldable_offline::optimal_makespan`]) and at least the
//!    Lemma 2 lower bound; every schedule passes the shared validator.
//! 4. **Registry ↔ analysis cross-check** — the registry's hard-coded
//!    envelopes must round-trip against the numerically minimized
//!    bounds in [`moldable_analysis::improved`] (the analysis crate
//!    deliberately has no dependency on the core crate, so the
//!    cross-check lives here).
//!
//! A hand-rolled property harness (random layered DAGs whose tasks
//! carry speedup models sampled from
//! [`moldable_model::sample::ParamDistribution`]) feeds the same
//! matrix with random valid model parameters and, on failure, shrinks
//! to a *minimal* failing `(graph, model, P)` triple before reporting.

use moldable_adversary::{amdahl, arbitrary, communication, general, roofline, LowerBoundInstance};
use moldable_core::registry::ALGOS;
use moldable_core::{
    baselines, AdaptiveScheduler, AlgoName, EasyBackfillScheduler, OnlineScheduler,
};
use moldable_graph::{gen, TaskGraph};
use moldable_model::rng::{Rng, StdRng};
use moldable_model::sample::ParamDistribution;
use moldable_model::ModelClass;
use moldable_offline::cpa::FixedAllocScheduler;
use moldable_offline::{cpa_allocations, optimal_makespan, BruteForceLimits};
use moldable_sim::{simulate, GraphInstance, Schedule, Scheduler, SimOptions};

#[path = "../../sim/tests/support/mod.rs"]
mod support;
use support::{golden, per_task};

const GOLDEN: &str = include_str!("goldens/conformance.txt");

/// `(case, fingerprint)` pairs one test pins.
type Pins = Vec<(String, u64)>;

/// The bounded classes every envelope is proven for. `Arbitrary` is
/// excluded on purpose: Theorem 9 shows no constant ratio exists.
const BOUNDED: [ModelClass; 4] = [
    ModelClass::Roofline,
    ModelClass::Communication,
    ModelClass::Amdahl,
    ModelClass::General,
];

/// Run `algo` on `g` through the core and the per-task reference loop
/// with its envelope-optimal μ for `class`, demand bit-identical
/// schedules, validate, pin the schedule under `ctx` and return it.
fn run_both_engines(
    g: &TaskGraph,
    p_total: u32,
    algo: AlgoName,
    class: ModelClass,
    ctx: &str,
    pins: &mut Pins,
) -> Schedule {
    let opts = SimOptions::new(p_total);
    let mut fast = OnlineScheduler::for_algo_class(algo, class);
    let a = simulate(g, &mut fast, &opts)
        .unwrap_or_else(|e| panic!("{ctx} [{algo}]: core failed: {e}"));
    a.validate(g)
        .unwrap_or_else(|e| panic!("{ctx} [{algo}]: schedule invalid: {e}"));

    let mut slow = OnlineScheduler::for_algo_class(algo, class);
    let b = per_task::simulate_instance(&mut GraphInstance::new(g), &mut slow, &opts)
        .unwrap_or_else(|e| panic!("{ctx} [{algo}]: per-task loop failed: {e}"));

    assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "{ctx} [{algo}]: core and per-task makespans differ"
    );
    assert_eq!(
        a.placements, b.placements,
        "{ctx} [{algo}]: core and per-task placements differ"
    );
    pins.push((format!("{ctx} [{algo}]"), golden::schedule(&a)));
    a
}

#[test]
fn every_algorithm_is_engine_equivalent_on_generator_shapes() {
    let mut pins = Pins::new();
    // Every generator family × two seeds × every bounded class ×
    // every registered algorithm: the core must match the per-task
    // reference and its pinned fingerprint, no matter which allocation
    // rule drives it.
    let cases: &[(&str, u32)] = &[
        ("layered", 10),
        ("fft", 4),
        ("cholesky", 6),
        ("chain", 16),
        ("independent", 16),
        ("fork-join", 6),
        ("in-tree", 4),
        ("out-tree", 4),
        ("random", 30),
        ("lu", 5),
        ("wavefront", 6),
    ];
    for &(shape, size) in cases {
        for seed in [7u64, 43] {
            for class in BOUNDED {
                let p = 24;
                let g = gen::by_name(shape, size, class, p, seed).unwrap();
                for algo in ALGOS {
                    run_both_engines(
                        &g,
                        p,
                        algo,
                        class,
                        &format!("{shape}/{size} seed={seed} {class:?}"),
                        &mut pins,
                    );
                }
            }
        }
    }
    golden::check(GOLDEN, "generator_shapes", &pins);
}

#[test]
fn every_algorithm_respects_its_envelope_on_theorem_witnesses() {
    // The Section 5 witnesses are the *worst known inputs* for the
    // ICPP'22 algorithm; every registered algorithm must still clear
    // its own proven envelope on them — and on these witnesses the
    // Improved'23 dual allocation must never be worse than ICPP'22.
    let witnesses: [(&str, ModelClass, LowerBoundInstance); 4] = [
        (
            "roofline P=1e5",
            ModelClass::Roofline,
            roofline::instance(100_000),
        ),
        (
            "communication P=1001",
            ModelClass::Communication,
            communication::instance(1001),
        ),
        ("amdahl K=80", ModelClass::Amdahl, amdahl::instance(80)),
        ("general K=80", ModelClass::General, general::instance(80)),
    ];
    for (name, class, inst) in &witnesses {
        let mut by_algo = Vec::new();
        for algo in ALGOS {
            let (makespan, ratio) = inst.run_algo(algo, *class);
            let bound = algo.proven_upper_bound(*class);
            assert!(
                ratio <= bound,
                "{name} [{algo}]: measured ratio {ratio} exceeds proven envelope {bound}"
            );
            assert!(
                ratio >= 1.0,
                "{name} [{algo}]: ratio {ratio} below 1 — t_opt_upper is not an upper bound"
            );
            by_algo.push((algo, makespan, ratio));
        }
        let icpp = by_algo
            .iter()
            .find(|(a, ..)| *a == AlgoName::Icpp22)
            .unwrap();
        let improved = by_algo
            .iter()
            .find(|(a, ..)| *a == AlgoName::Improved23)
            .unwrap();
        assert!(
            improved.2 <= icpp.2 + 1e-12,
            "{name}: Improved'23 ratio {} worse than ICPP'22 {}",
            improved.2,
            icpp.2
        );
    }
}

#[test]
fn every_algorithm_stays_bounded_on_fig3_chain_forests() {
    // Theorem 9's static skeleton: the Figure 3 chain forest with its
    // explicit offline schedule. No constant ratio exists in the limit
    // (the ratio grows as Ω(ln D)), but at ℓ = 2, 3 every algorithm
    // must stay inside its arbitrary-model envelope.
    let mut pins = Pins::new();
    for l in [2u32, 3] {
        let (g, offline) = arbitrary::offline_schedule(l);
        offline.validate(&g).expect("proof schedule is valid");
        let p = arbitrary::params(l).p_total;
        for algo in ALGOS {
            let s = run_both_engines(
                &g,
                p,
                algo,
                ModelClass::Arbitrary,
                &format!("fig3 l={l}"),
                &mut pins,
            );
            let ratio = s.makespan / offline.makespan;
            let bound = algo.proven_upper_bound(ModelClass::Arbitrary);
            assert!(
                ratio <= bound,
                "fig3 l={l} [{algo}]: ratio {ratio} exceeds envelope {bound}"
            );
        }
    }
    golden::check(GOLDEN, "fig3_chain_forests", &pins);
}

#[test]
fn every_algorithm_beats_the_offline_optimum_and_lemma2_on_tiny_instances() {
    // On instances small enough to solve exhaustively, no online
    // algorithm may beat the offline optimum (that would mean the
    // simulation is cheating) and none may beat the Lemma 2 lower
    // bound (that would mean the bound is wrong).
    // Sizes chosen to stay within `BruteForceLimits::max_tasks = 10`:
    // chain-4 is 4 tasks, independent-5 is 5, fork-join-1 is 9
    // (3 stages of width 1 + fork/join), random-6 is 6.
    let cases: &[(&str, u32)] = &[
        ("chain", 4),
        ("fork-join", 1),
        ("independent", 5),
        ("random", 6),
    ];
    let mut pins = Pins::new();
    for &(shape, size) in cases {
        for class in BOUNDED {
            for p in [4u32, 7] {
                let g = gen::by_name(shape, size, class, p, 11).unwrap();
                let opt = optimal_makespan(&g, p, BruteForceLimits::default())
                    .expect("tiny instances are within brute-force limits");
                let lb = g.bounds(p).lower_bound();
                assert!(
                    opt >= lb - 1e-9,
                    "{shape}/{class:?} P={p}: brute optimum {opt} below Lemma 2 bound {lb}"
                );
                for algo in ALGOS {
                    let s = run_both_engines(
                        &g,
                        p,
                        algo,
                        class,
                        &format!("{shape}/{class:?} P={p}"),
                        &mut pins,
                    );
                    assert!(
                        s.makespan >= opt - 1e-9,
                        "{shape}/{class:?} P={p} [{algo}]: makespan {} beats the brute-force optimum {opt}",
                        s.makespan
                    );
                    assert!(
                        s.makespan >= lb - 1e-9,
                        "{shape}/{class:?} P={p} [{algo}]: makespan {} beats the Lemma 2 bound {lb}",
                        s.makespan
                    );
                }
            }
        }
    }
    golden::check(GOLDEN, "tiny_instances", &pins);
}

#[test]
fn registry_envelopes_round_trip_against_the_analysis_crate() {
    // The registry hard-codes each algorithm's proven envelope (so the
    // scheduling crates need no analysis dependency); the analysis
    // crate minimizes the same envelopes numerically. They must agree:
    // the registry constant is the numeric minimum rounded *up* at 1e-3
    // granularity, and the registry's per-class μ sits at the minimizer.
    for class in BOUNDED {
        let bound = moldable_analysis::improved::upper_bound(class);
        let registry = AlgoName::Improved23.proven_upper_bound(class);
        assert!(
            bound.ratio <= registry,
            "{class:?}: analysis minimum {} above registry envelope {registry}",
            bound.ratio
        );
        assert!(
            registry - bound.ratio < 1.5e-3,
            "{class:?}: registry envelope {registry} is loose vs analysis minimum {}",
            bound.ratio
        );
        let mu = AlgoName::Improved23.optimal_mu(class);
        assert!(
            (mu - bound.mu).abs() < 1e-3,
            "{class:?}: registry mu {mu} drifted from analysis minimizer {}",
            bound.mu
        );
        // The whole point of the dual allocation: a strictly smaller
        // proven envelope than ICPP'22 on every bounded class.
        let icpp = AlgoName::Icpp22.proven_upper_bound(class);
        assert!(
            registry < icpp,
            "{class:?}: Improved'23 envelope {registry} not below ICPP'22 {icpp}"
        );
    }
}

// ---------------------------------------------------------------------------
// Property harness: random (graph, model, P) triples with shrinking.
// ---------------------------------------------------------------------------

/// One random conformance case. The five fields fully determine the
/// `(graph, model, P)` triple: the DAG skeleton comes from
/// `gen::layered_random(layers, width, …, seed)` and every task's
/// speedup model is drawn from `ParamDistribution` for `class`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Case {
    layers: u32,
    width: u32,
    p: u32,
    class: ModelClass,
    seed: u64,
}

impl Case {
    /// Materialize the task graph for this case. Deterministic: the
    /// same case always builds the same graph with the same models.
    fn build(&self) -> TaskGraph {
        let dist = ParamDistribution::default();
        let mut mrng = StdRng::seed_from_u64(self.seed.wrapping_mul(131).wrapping_add(17));
        let mut assign = gen::weighted_sampler(self.class, dist, self.p, &mut mrng);
        let mut srng = StdRng::seed_from_u64(self.seed.wrapping_mul(37).wrapping_add(5));
        gen::layered_random(
            self.layers as usize,
            self.width as usize,
            0.35,
            &mut srng,
            &mut assign,
        )
    }

    /// Shrink candidates, strictly smaller, tried in order. The first
    /// failing candidate is taken, so shrinking is deterministic.
    fn shrink_candidates(&self) -> Vec<Case> {
        let mut out = Vec::new();
        if self.layers > 1 {
            out.push(Case {
                layers: self.layers - 1,
                ..*self
            });
        }
        if self.width > 1 {
            out.push(Case {
                width: self.width - 1,
                ..*self
            });
        }
        if self.p > 1 {
            out.push(Case {
                p: self.p / 2,
                ..*self
            });
        }
        out
    }
}

/// Greedily shrink `case` to a local minimum of `fails`: a failing
/// case none of whose shrink candidates fails.
fn shrink(mut case: Case, fails: &dyn Fn(&Case) -> Option<String>) -> (Case, String) {
    let mut why = fails(&case).expect("shrink starts from a failing case");
    loop {
        let Some((next, next_why)) = case
            .shrink_candidates()
            .into_iter()
            .find_map(|c| fails(&c).map(|w| (c, w)))
        else {
            return (case, why);
        };
        case = next;
        why = next_why;
    }
}

/// A factory of identically configured schedulers.
type MakeScheduler = Box<dyn Fn() -> Box<dyn Scheduler>>;

/// Every scheduler the matrix certifies on `g`: each registered
/// algorithm and every baseline that runs on a static graph.
fn schedulers(g: &TaskGraph, case: &Case) -> Vec<(String, MakeScheduler)> {
    let class = case.class;
    let mu = class.optimal_mu();
    let cpa = cpa_allocations(g, case.p);
    let mut out: Vec<(String, MakeScheduler)> = ALGOS
        .iter()
        .map(|&algo| {
            let mk: MakeScheduler =
                Box::new(move || Box::new(OnlineScheduler::for_algo_class(algo, class)));
            (algo.to_string(), mk)
        })
        .collect();
    out.push((
        "one-proc".into(),
        Box::new(|| Box::new(baselines::one_proc())),
    ));
    out.push((
        "max-proc".into(),
        Box::new(|| Box::new(baselines::max_proc())),
    ));
    out.push((
        "ect".into(),
        Box::new(|| Box::new(baselines::EctScheduler::new())),
    ));
    out.push((
        "equal-share".into(),
        Box::new(|| Box::new(baselines::EqualShareScheduler::new())),
    ));
    out.push((
        "backfill".into(),
        Box::new(move || Box::new(EasyBackfillScheduler::new(mu))),
    ));
    out.push((
        "adaptive".into(),
        Box::new(|| Box::new(AdaptiveScheduler::new())),
    ));
    out.push((
        "cpa".into(),
        Box::new(move || Box::new(FixedAllocScheduler::new(cpa.clone()))),
    ));
    out
}

/// The conformance predicate: `None` if the case passes for every
/// scheduler, `Some(reason)` otherwise.
fn conformance_failure(case: &Case) -> Option<String> {
    let g = case.build();
    let lb = g.bounds(case.p).lower_bound();
    for (name, mk) in schedulers(&g, case) {
        for opts in [
            SimOptions::new(case.p),
            SimOptions::new(case.p).with_proc_ids(),
        ] {
            let a = match simulate(&g, &mut *mk(), &opts) {
                Ok(s) => s,
                Err(e) => return Some(format!("[{name}] core failed: {e}")),
            };
            if let Err(e) = a.validate(&g) {
                return Some(format!("[{name}] invalid schedule: {e}"));
            }
            let b =
                match per_task::simulate_instance(&mut GraphInstance::new(&g), &mut *mk(), &opts) {
                    Ok(s) => s,
                    Err(e) => return Some(format!("[{name}] per-task loop failed: {e}")),
                };
            if a.makespan.to_bits() != b.makespan.to_bits() || a.placements != b.placements {
                return Some(format!("[{name}] core and per-task schedules diverge"));
            }
            if a.makespan < lb - 1e-9 {
                return Some(format!(
                    "[{name}] makespan {} beats the Lemma 2 bound {lb}",
                    a.makespan
                ));
            }
        }
    }
    None
}

#[test]
fn random_model_parameters_pass_the_conformance_matrix() {
    // 48 random (graph, model, P) triples across the bounded classes,
    // all through the full matrix. On failure the harness shrinks to a
    // minimal reproducer and prints it — the five `Case` fields are
    // everything needed to rebuild the exact graph and models.
    let mut rng = StdRng::seed_from_u64(0xC0FF_EE00);
    let mut pins = Pins::new();
    for i in 0..48u64 {
        let case = Case {
            layers: u32::try_from(rng.gen_range(1u64..6)).expect("bounded"),
            width: u32::try_from(rng.gen_range(1u64..7)).expect("bounded"),
            p: u32::try_from(rng.gen_range(2u64..33)).expect("bounded"),
            class: BOUNDED[usize::try_from(rng.gen_range(0u64..4)).expect("bounded")],
            seed: i,
        };
        if conformance_failure(&case).is_some() {
            let (min, why) = shrink(case, &conformance_failure);
            let g = min.build();
            panic!(
                "conformance failure, minimal reproducer: {min:?} \
                 ({} tasks, class {:?}, P = {}) — {why}",
                g.n_tasks(),
                min.class,
                min.p
            );
        }
        let g = case.build();
        for (name, mk) in schedulers(&g, &case) {
            let opts = SimOptions::new(case.p).with_proc_ids();
            let s = simulate(&g, &mut *mk(), &opts).expect("conformance passed");
            pins.push((format!("{case:?} [{name}]"), golden::schedule(&s)));
        }
    }
    golden::check(GOLDEN, "random_models", &pins);
}

#[test]
fn shrinker_reduces_to_a_minimal_failing_triple() {
    // Exercise the shrinking machinery with an artificial predicate
    // (the conformance matrix itself passes, so a real failure cannot
    // drive this path deterministically): "fails" iff the graph has at
    // least 6 tasks and P ≥ 4. The minimum must still fail while every
    // one of its shrink candidates passes — the definition of minimal.
    let fails = |c: &Case| -> Option<String> {
        let g = c.build();
        (g.n_tasks() >= 6 && c.p >= 4).then(|| format!("{} tasks", g.n_tasks()))
    };
    let start = Case {
        layers: 5,
        width: 6,
        p: 32,
        class: ModelClass::Amdahl,
        seed: 9,
    };
    assert!(fails(&start).is_some(), "start case must fail");
    let (min, why) = shrink(start, &fails);
    assert!(fails(&min).is_some(), "shrunk case still fails ({why})");
    assert!(min.build().n_tasks() >= 6);
    for cand in min.shrink_candidates() {
        assert!(
            fails(&cand).is_none(),
            "{cand:?} still fails — {min:?} was not minimal"
        );
    }
    // The artificial failure is parameter-local, so the minimum is far
    // below the start: the shrinker really walked down.
    assert!(min.layers < start.layers || min.width < start.width);
    assert!(
        min.p <= 7,
        "P should have halved toward the threshold, got {}",
        min.p
    );
}
