//! `engine_large`: the library alone, single-threaded, no daemon.
//!
//! Four instances run through `simulate` / `simulate_instance`:
//! `layered_1m` (10^6 tasks, P = 256, general models, sparse
//! generator), `thm6` (the Theorem 6 communication witness at
//! P = 1601), `wide_50k` (50 000 independent tasks, P = 64) and `thm9`
//! (the Theorem 9 adaptive adversary at ℓ = 4 against the online
//! scheduler). The first two are seeded from the workload seed; the
//! witnesses are fixed constructions.

use std::time::Instant;

use moldable_adversary::{arbitrary, communication};
use moldable_analysis::lemma10_makespan;
use moldable_core::{AlgoName, AllocCache, OnlineScheduler};
use moldable_graph::{gen, TaskGraph};
use moldable_model::rng::StdRng;
use moldable_model::sample::ParamDistribution;
use moldable_model::ModelClass;
use moldable_sim::{simulate, simulate_instance, Schedule, SimOptions};

use crate::gates::{self, Check};
use crate::report::{sub_seed, Cfg, Run, DEFAULT_SEED};
use crate::stats::median;
use crate::trace::{totals_by_name, Tracer};

/// Instance names, in run order.
pub const INSTANCES: [&str; 4] = ["layered_1m", "thm6", "wide_50k", "thm9"];

/// Theorem 9 depth parameter.
const THM9_L: u32 = 4;

/// Makespan bits at [`DEFAULT_SEED`] (the witnesses pin at every seed:
/// they do not depend on it).
const PINS: [(&str, u64); 4] = [
    ("layered_1m", 0x4125_acf1_9065_c0ce),
    ("thm6", 0x40c9_ef3c_11cb_9c1a),
    ("wide_50k", 0x4100_555c_3030_b8b8),
    ("thm9", 0x400b_cd6d_ae81_c517),
];

/// One prepared input.
enum Input {
    /// A static graph under the ICPP'22 online scheduler with `mu`.
    Graph {
        graph: TaskGraph,
        p: u32,
        mu: f64,
        class: ModelClass,
    },
    /// The Theorem 9 adaptive adversary (rebuilt for every run, since
    /// it keeps state); its static twin serves the bounds row.
    Thm9 { twin: TaskGraph },
}

struct Instance {
    name: &'static str,
    input: Input,
    seeded: bool,
}

fn build(name: &'static str, seed: u64) -> Instance {
    let (input, seeded) = match name {
        "layered_1m" => {
            let p = 256;
            let mut mrng = StdRng::seed_from_u64(sub_seed(seed, 1));
            let mut assign = gen::weighted_sampler(
                ModelClass::General,
                ParamDistribution::default(),
                p,
                &mut mrng,
            );
            let mut srng = StdRng::seed_from_u64(sub_seed(seed, 2));
            let graph = gen::layered_random_sparse(1_000, 1_000, 0.002, &mut srng, &mut assign);
            (general(graph, p), true)
        }
        "wide_50k" => {
            let p = 64;
            let mut mrng = StdRng::seed_from_u64(sub_seed(seed, 3));
            let mut assign = gen::weighted_sampler(
                ModelClass::General,
                ParamDistribution::default(),
                p,
                &mut mrng,
            );
            (general(gen::independent(50_000, &mut assign), p), true)
        }
        "thm6" => {
            let inst = communication::instance(1601);
            let input = Input::Graph {
                graph: inst.graph,
                p: inst.p_total,
                mu: inst.mu,
                class: ModelClass::Communication,
            };
            (input, false)
        }
        "thm9" => (
            Input::Thm9 {
                twin: arbitrary::fig3_graph(THM9_L).0,
            },
            false,
        ),
        other => unreachable!("unknown instance {other}"),
    };
    Instance {
        name,
        input,
        seeded,
    }
}

fn general(graph: TaskGraph, p: u32) -> Input {
    Input::Graph {
        graph,
        p,
        mu: ModelClass::General.optimal_mu(),
        class: ModelClass::General,
    }
}

fn build_all(seed: u64) -> Vec<Instance> {
    INSTANCES.iter().map(|&n| build(n, seed)).collect()
}

/// One simulation: the schedule, seconds inside `simulate` /
/// `simulate_instance`, the scheduler's allocation cache, and the
/// tasks run.
struct Sample {
    schedule: Schedule,
    secs: f64,
    cache: Option<AllocCache>,
}

fn thm9_scheduler() -> OnlineScheduler {
    OnlineScheduler::for_class(ModelClass::Arbitrary)
}

fn simulate_once(inst: &Instance) -> (Sample, Option<arbitrary::AdaptiveChains>) {
    match &inst.input {
        Input::Graph { graph, p, mu, .. } => {
            let mut sched = OnlineScheduler::with_mu(*mu);
            let opts = SimOptions::new(*p);
            let t0 = Instant::now();
            let schedule = simulate(graph, &mut sched, &opts).expect("instance simulates");
            let secs = t0.elapsed().as_secs_f64();
            let cache = sched.take_alloc_cache();
            (
                Sample {
                    schedule,
                    secs,
                    cache,
                },
                None,
            )
        }
        Input::Thm9 { .. } => {
            let mut adv = arbitrary::AdaptiveChains::new(THM9_L);
            let opts = SimOptions::new(adv.params().p_total);
            let mut sched = thm9_scheduler();
            let t0 = Instant::now();
            let schedule =
                simulate_instance(&mut adv, &mut sched, &opts).expect("adversary simulates");
            let secs = t0.elapsed().as_secs_f64();
            let cache = sched.take_alloc_cache();
            (
                Sample {
                    schedule,
                    secs,
                    cache,
                },
                Some(adv),
            )
        }
    }
}

fn pin(name: &str, seeded: bool, seed: u64) -> Option<u64> {
    if seeded && seed != DEFAULT_SEED {
        return None;
    }
    PINS.iter().find(|(n, _)| *n == name).map(|&(_, bits)| bits)
}

/// The full gate on a first sample: valid schedule, makespan at least
/// the lower bound, ratio within the envelope, pinned bits.
fn full_gate(
    inst: &Instance,
    s: &Schedule,
    adv: Option<&arbitrary::AdaptiveChains>,
    seed: u64,
) -> Check {
    let name = inst.name;
    match &inst.input {
        Input::Graph {
            graph, p, class, ..
        } => {
            gates::schedule_valid(name, s.validate(graph))?;
            let lb = graph.bounds(*p).lower_bound();
            gates::at_least_lower_bound(name, s.makespan, lb)?;
            let env = AlgoName::Icpp22.proven_upper_bound(*class);
            gates::within_envelope(name, s.makespan / lb, Some(env))?;
        }
        Input::Thm9 { .. } => {
            gates::schedule_valid(name, s.check_capacity(1e-9))?;
            let adv = adv.expect("thm9 sample carries its adversary");
            let pr = adv.params();
            for (i, &n) in adv.realized_group_sizes().iter().enumerate().skip(1) {
                let want = 1u64 << (pr.k - u32::try_from(i).expect("group fits u32"));
                if n != want {
                    return Err(format!(
                        "thm9: group {i} realized {n} chains, expected {want}"
                    ));
                }
            }
            // T_opt = 1 by construction and Lemma 10's floor exceeds
            // it, so the floor is the binding lower bound; the
            // arbitrary class has no envelope (Theorem 9).
            gates::at_least_lower_bound(name, s.makespan, lemma10_makespan(pr.k, THM9_L))?;
        }
    }
    gates::pinned_bits(name, s.makespan, pin(name, inst.seeded, seed))
}

/// Run the workload.
pub fn run(cfg: &Cfg) -> Run {
    let mut run = Run::default();

    // Set-up: input generation, three times; the median is reported.
    let mut setups = Vec::new();
    let mut insts = Vec::new();
    for _ in 0..3 {
        drop(std::mem::take(&mut insts));
        let t0 = Instant::now();
        insts = build_all(cfg.seed);
        setups.push(t0.elapsed().as_secs_f64());
    }

    if cfg.trace {
        traced(cfg, &insts, &mut run);
    } else {
        untraced(cfg, &insts, &mut run);
        run.metric("setup_s", median(&setups), "s");
    }
    run
}

/// Measured time each instance gets per pass: short instances repeat
/// within a pass so that every instance is measured for about as long.
const SLOT_S: f64 = 0.4;

/// A fully gated warm-up sample of every instance, then whole passes
/// over the instances until `budget` seconds have passed. Passes
/// interleave the instances, so each one sees the machine's fast and
/// slow spells alike. Returns per-instance seconds inside `simulate`.
fn passes(cfg: &Cfg, insts: &[Instance], run: &mut Run, budget: f64) -> Vec<Vec<f64>> {
    let mut first = Vec::new();
    let mut reps = Vec::new();
    for inst in insts {
        let (sample, adv) = simulate_once(inst);
        run.tally
            .op(full_gate(inst, &sample.schedule, adv.as_ref(), cfg.seed));
        first.push(sample.schedule.makespan);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        reps.push(((SLOT_S / sample.secs).round() as usize).clamp(1, 64));
    }
    let mut secs: Vec<Vec<f64>> = vec![Vec::new(); insts.len()];
    let t0 = Instant::now();
    while secs[0].is_empty() || t0.elapsed().as_secs_f64() < budget {
        for (k, inst) in insts.iter().enumerate() {
            for _ in 0..reps[k] {
                let (sample, _) = simulate_once(inst);
                secs[k].push(sample.secs);
                let m = sample.schedule.makespan;
                run.tally.op(if m.to_bits() == first[k].to_bits() {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: makespan {m} differs from the run's first {}",
                        inst.name, first[k]
                    ))
                });
            }
        }
    }
    for (k, inst) in insts.iter().enumerate() {
        run.note(format!(
            "{}: makespan {:?} (bits {:#018x}), {} timed samples",
            inst.name,
            first[k],
            first[k].to_bits(),
            secs[k].len()
        ));
    }
    secs
}

/// Tasks per second over all samples: total tasks over total time.
#[allow(clippy::cast_precision_loss)]
fn rate(n_tasks: f64, secs: &[f64]) -> f64 {
    n_tasks * secs.len() as f64 / secs.iter().sum::<f64>()
}

#[allow(clippy::cast_precision_loss)]
fn n_tasks(inst: &Instance) -> f64 {
    match &inst.input {
        Input::Graph { graph, .. } => graph.n_tasks() as f64,
        Input::Thm9 { .. } => arbitrary::params(THM9_L).n_tasks as f64,
    }
}

/// Geometric mean of the per-instance rates: every instance weighs the
/// same, whatever its size.
fn suite_rate(insts: &[Instance], secs: &[Vec<f64>]) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let n = insts.len() as f64;
    let log_sum: f64 = insts
        .iter()
        .zip(secs)
        .map(|(inst, s)| rate(n_tasks(inst), s).ln())
        .sum();
    (log_sum / n).exp()
}

fn untraced(cfg: &Cfg, insts: &[Instance], run: &mut Run) {
    let secs = passes(cfg, insts, run, cfg.seconds);
    for (k, inst) in insts.iter().enumerate() {
        run.metric(
            format!("{}_tasks_per_s", inst.name),
            rate(n_tasks(inst), &secs[k]),
            "tasks/s",
        );
    }
    run.metric("tasks_per_s", suite_rate(insts, &secs), "tasks/s");
    // The latency of scheduling the suite once, one call per instance:
    // mean times, which average the host's fast and slow spells.
    #[allow(clippy::cast_precision_loss)]
    let suite_ms: f64 = secs
        .iter()
        .map(|s| s.iter().sum::<f64>() / s.len() as f64)
        .sum::<f64>()
        * 1e3;
    run.metric("latency_ms", suite_ms, "ms");
}

/// The traced run: per instance, one span tree `engine.instance` >
/// {`graph.gen`, `core.allocator`, `sim.engine`, `sim.validate`,
/// `graph.bounds`}, plus an untraced pass for the overhead row.
fn traced(cfg: &Cfg, insts: &[Instance], run: &mut Run) {
    let plain = passes(cfg, insts, run, cfg.seconds * 0.3);
    let origin = Instant::now();
    let mut tr = Tracer::new(origin);
    let mut traced_secs: Vec<Vec<f64>> = vec![Vec::new(); insts.len()];
    let mut hit_ratio = vec![f64::NAN; insts.len()];
    let t0 = Instant::now();
    let mut req = 0u64;
    while traced_secs[0].is_empty() || t0.elapsed().as_secs_f64() < cfg.seconds * 0.5 {
        for (k, inst) in insts.iter().enumerate() {
            let root = tr.begin("engine.instance", req, None);
            drop(tr.time("graph.gen", req, Some(root), || build(inst.name, cfg.seed)));
            let sim_span = tr.begin("sim.engine", req, Some(root));
            let (sample, adv) = simulate_once(inst);
            tr.end(sim_span);
            traced_secs[k].push(sample.secs);
            let alloc_span = tr.begin("core.allocator", req, Some(root));
            alloc_pass(inst, sample.schedule.placements.len());
            tr.end(alloc_span);
            let ok = tr.time("sim.validate", req, Some(root), || match &inst.input {
                Input::Graph { graph, .. } => sample.schedule.validate(graph).is_ok(),
                Input::Thm9 { .. } => sample.schedule.check_capacity(1e-9).is_ok(),
            });
            let (graph, p) = match &inst.input {
                Input::Graph { graph, p, .. } => (graph, *p),
                Input::Thm9 { twin } => (twin, arbitrary::params(THM9_L).p_total),
            };
            tr.time("graph.bounds", req, Some(root), || {
                std::hint::black_box(graph.bounds(p));
            });
            tr.end(root);
            let outcome = if ok {
                full_gate(inst, &sample.schedule, adv.as_ref(), cfg.seed)
            } else {
                Err(format!("{}: traced sample failed validation", inst.name))
            };
            run.tally.op(outcome);
            if let Some(c) = &sample.cache {
                #[allow(clippy::cast_precision_loss)]
                let r = c.hits() as f64 / c.probes().max(1) as f64;
                hit_ratio[k] = r;
            }
            req += 1;
        }
    }
    let spans = tr.take();
    let n_inst = insts.len() as u64;
    for (k, inst) in insts.iter().enumerate() {
        let t = totals_by_name(&spans, |s| s.req % n_inst == k as u64);
        let count = t.get("engine.instance").map_or(1, |x| x.count).max(1);
        #[allow(clippy::cast_precision_loss)]
        let mean_ns = |name: &str| t.get(name).map_or(0.0, |x| x.total as f64 / count as f64);
        let n = n_tasks(inst);
        let alloc = mean_ns("core.allocator");
        let sim = mean_ns("sim.engine");
        let name = inst.name;
        run.metric(
            format!("graph.gen_ms.{name}"),
            mean_ns("graph.gen") / 1e6,
            "ms",
        );
        run.metric(
            format!("core.allocator.alloc_ns_per_task.{name}"),
            alloc / n,
            "ns/task",
        );
        run.metric(
            format!("core.allocator.cache_hit_ratio.{name}"),
            hit_ratio[k],
            "ratio",
        );
        run.metric(
            format!("sim.engine.self_ns_per_task.{name}"),
            (sim - alloc) / n,
            "ns/task",
        );
        run.metric(
            format!("sim.validate_ns_per_task.{name}"),
            mean_ns("sim.validate") / n,
            "ns/task",
        );
        run.metric(
            format!("graph.bounds_ns_per_task.{name}"),
            mean_ns("graph.bounds") / n,
            "ns/task",
        );
        let rows_us: Vec<(&str, f64)> = [
            "graph.gen",
            "core.allocator",
            "sim.engine",
            "sim.validate",
            "graph.bounds",
        ]
        .iter()
        .map(|&r| (r, mean_ns(r) / 1e3))
        .collect();
        run.ladder(
            &format!("engine_large.{name}"),
            &rows_us,
            mean_ns("engine.instance") / 1e3,
        );
        run.metric(
            format!("sim.engine.tasks_per_s.{name}"),
            rate(n, &plain[k]),
            "tasks/s",
        );
    }
    let roots = totals_by_name(&spans, |_| true)
        .get("engine.instance")
        .copied()
        .unwrap_or_default();
    #[allow(clippy::cast_precision_loss)]
    let per_root = |ns: u64| ns as f64 / roots.count.max(1) as f64 / 1e3;
    run.metric("trace.request_us", per_root(roots.total), "us");
    run.metric("trace.residual_us", per_root(roots.self_total), "us");
    let (untraced_rate, traced_rate) = (suite_rate(insts, &plain), suite_rate(insts, &traced_secs));
    run.metric(
        "trace.overhead_pct",
        100.0 * (untraced_rate - traced_rate) / untraced_rate,
        "%",
    );
    run.spans = spans;
}

/// Algorithm 2 alone: a fresh cache over every task's model, in task
/// id order.
fn alloc_pass(inst: &Instance, tasks: usize) {
    match &inst.input {
        Input::Graph { graph, p, mu, .. } => {
            let mut cache = AllocCache::for_algo(AlgoName::Icpp22, *p, *mu);
            for t in graph.task_ids() {
                std::hint::black_box(cache.allocate(graph.model(t)));
            }
        }
        Input::Thm9 { .. } => {
            let sched = thm9_scheduler();
            let p = arbitrary::params(THM9_L).p_total;
            let mut cache = AllocCache::for_algo(sched.algo(), p, sched.mu());
            let model = arbitrary::chain_task_model();
            for _ in 0..tasks {
                std::hint::black_box(cache.allocate(std::hint::black_box(&model)));
            }
        }
    }
}
