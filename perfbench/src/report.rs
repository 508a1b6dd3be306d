//! What one run reports: metrics with units, the operation tally, the
//! provenance stamp, and the final JSON line.

use moldable_serve::json::{obj, Json};

use crate::gates::Tally;
use crate::trace::Span;

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl Cfg {
    /// Split the measurement budget: `share` of `--seconds`.
    #[must_use]
    pub fn budget(&self, share: f64) -> std::time::Duration {
        std::time::Duration::from_secs_f64(self.seconds * share)
    }
}

/// The seed whose outputs are pinned in the benchmark.
pub const DEFAULT_SEED: u64 = 1;

/// A seeded sub-stream of the workload seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    moldable_model::rng::splitmix64_next(&mut s)
}

/// End-to-end metrics (name, unit): every workload reports each of
/// them from its untraced run. `BENCHMARK.json` lists the same.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tasks_per_s", "tasks/s"),
    ("latency_ms", "ms"),
];

/// Per-layer metrics (name, unit), reported by traced runs. A layer a
/// workload never calls reports 0: it did no work there.
/// `BENCHMARK.json` lists the same.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("graph.gen_ms.layered_1m", "ms"),
    ("graph.gen_ms.thm6", "ms"),
    ("graph.gen_ms.wide_50k", "ms"),
    ("graph.gen_ms.thm9", "ms"),
    ("core.allocator.alloc_ns_per_task.layered_1m", "ns/task"),
    ("core.allocator.alloc_ns_per_task.thm6", "ns/task"),
    ("core.allocator.alloc_ns_per_task.wide_50k", "ns/task"),
    ("core.allocator.alloc_ns_per_task.thm9", "ns/task"),
    ("core.allocator.cache_hit_ratio.layered_1m", "ratio"),
    ("core.allocator.cache_hit_ratio.thm6", "ratio"),
    ("core.allocator.cache_hit_ratio.wide_50k", "ratio"),
    ("core.allocator.cache_hit_ratio.thm9", "ratio"),
    ("sim.engine.self_ns_per_task.layered_1m", "ns/task"),
    ("sim.engine.self_ns_per_task.thm6", "ns/task"),
    ("sim.engine.self_ns_per_task.wide_50k", "ns/task"),
    ("sim.engine.self_ns_per_task.thm9", "ns/task"),
    ("sim.engine.tasks_per_s.layered_1m", "tasks/s"),
    ("sim.engine.tasks_per_s.thm6", "tasks/s"),
    ("sim.engine.tasks_per_s.wide_50k", "tasks/s"),
    ("sim.engine.tasks_per_s.thm9", "tasks/s"),
    ("sim.validate_ns_per_task.layered_1m", "ns/task"),
    ("sim.validate_ns_per_task.thm6", "ns/task"),
    ("sim.validate_ns_per_task.wide_50k", "ns/task"),
    ("sim.validate_ns_per_task.thm9", "ns/task"),
    ("graph.bounds_ns_per_task.layered_1m", "ns/task"),
    ("graph.bounds_ns_per_task.thm6", "ns/task"),
    ("graph.bounds_ns_per_task.wide_50k", "ns/task"),
    ("graph.bounds_ns_per_task.thm9", "ns/task"),
    ("serve.proto.encode_us", "us"),
    ("serve.proto.split_batch_us", "us"),
    ("serve.proto.parse_us", "us"),
    ("serve.service.handle_us", "us"),
    ("graph.gen_us", "us"),
    ("core.allocator.alloc_us", "us"),
    ("sim.engine.simulate_us", "us"),
    ("sim.validate_us", "us"),
    ("graph.bounds_us", "us"),
    ("serve.service.self_us", "us"),
    ("serve.json.reply_encode_us", "us"),
    ("serve.json.reply_parse_us", "us"),
    ("serve.server.transport_us", "us"),
    ("serve.service.graph_cache_hit_ratio", "ratio"),
    ("core.allocator.cache_hit_ratio", "ratio"),
    ("serve.proto.request_bytes", "bytes"),
    ("serve.proto.reply_bytes", "bytes"),
    ("serve.server.shard_steals", "count"),
    ("serve.sessions.open_us", "us"),
    ("serve.sessions.submit_dag_us", "us"),
    ("serve.sessions.poll_us", "us"),
    ("serve.sessions.close_us", "us"),
    ("tenant.service.submit_dag_us", "us"),
    ("tenant.service.poll_us", "us"),
    ("serve.sessions.self_us", "us"),
    ("serve.server.session_transport_us", "us"),
    ("tenant.events_per_poll", "events"),
    ("tenant.polls_per_dag", "polls"),
    ("trace.request_us", "us"),
    ("trace.residual_us", "us"),
    ("trace.wire_request_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Reported metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Human-readable lines printed before the result (ladders,
    /// percentile support, driver lateness).
    pub notes: Vec<String>,
    /// Spans recorded by a traced run.
    pub spans: Vec<Span>,
}

impl Run {
    /// Add a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Add a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Add the ladder of `rows` (name, mean µs per unit of work) whose
    /// sum should equal `total`, the traced time of that unit, with the
    /// residual as its own row.
    pub fn ladder(&mut self, title: &str, rows: &[(&str, f64)], total: f64) {
        self.note(format!("ladder {title} (mean us)"));
        let sum: f64 = rows.iter().map(|r| r.1).sum();
        for (name, v) in rows {
            self.note(format!("  {name:<36} {v:>12.3}"));
        }
        self.note(format!("  {:<36} {:>12.3}", "residual", total - sum));
        self.note(format!("  {:<36} {:>12.3}", "= traced time", total));
    }
}

/// Peak resident memory of this process in MB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Provenance of a run. A run with either serve override variable set
/// is not the default configuration the named workloads define.
#[must_use]
pub fn stamp(cfg: &Cfg) -> Json {
    let env = |k: &str| std::env::var(k).ok();
    let engine = env("MOLDABLE_SERVE_ENGINE");
    let transport = env("MOLDABLE_SERVE_TRANSPORT");
    let nondefault = engine.is_some() || transport.is_some();
    let opt = |v: Option<String>| v.map_or(Json::Null, Json::Str);
    #[allow(clippy::cast_precision_loss)]
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get) as f64;
    obj(vec![
        ("workload", Json::Str(cfg.workload.clone())),
        ("seed", Json::Str(cfg.seed.to_string())),
        ("trace", Json::Bool(cfg.trace)),
        ("nproc", Json::Num(nproc)),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("MOLDABLE_SERVE_ENGINE", opt(engine)),
        ("MOLDABLE_SERVE_TRANSPORT", opt(transport)),
        ("default_config", Json::Bool(!nondefault)),
    ])
}

/// Split a run's metrics into the declared ones of its mode (traced:
/// [`PER_LAYER`], else [`END_TO_END`]), in declaration order, and the
/// rest, which are printed as figures only. A per-layer metric the
/// workload did not report is 0 (its layer did no work); a missing
/// end-to-end metric fails the run.
pub fn declared(run: &mut Run, trace: bool) -> (Vec<Metric>, Vec<Metric>) {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut rest = std::mem::take(&mut run.metrics);
    let mut out = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        match rest.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = rest.remove(i);
                if m.unit != unit {
                    run.tally.op(Err(format!(
                        "{name} reported in {}, declared in {unit}",
                        m.unit
                    )));
                }
                out.push(m);
            }
            None if trace => out.push(Metric {
                name: name.to_string(),
                value: 0.0,
                unit,
            }),
            None => run
                .tally
                .op(Err(format!("end-to-end metric {name} not measured"))),
        }
    }
    (out, rest)
}

/// The last stdout line: `correct`, `attempted`, `failed`, `metrics`.
#[must_use]
pub fn result_line(tally: &Tally, declared: &[Metric]) -> String {
    let correct = tally.failed == 0 && tally.attempted > 0;
    let metrics: Vec<(String, Json)> = declared
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    #[allow(clippy::cast_precision_loss)]
    obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use moldable_serve::json::{parse, Json};

    use super::*;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect("field").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), table(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), table(&PER_LAYER));
    }

    #[test]
    fn missing_per_layer_metrics_read_zero_and_missing_end_to_end_ones_fail() {
        let mut run = Run::default();
        run.metric("trace.request_us", 3.0, "us");
        run.metric("requests_per_s", 9.0, "req/s");
        let (declared, figures) = declared(&mut run, true);
        assert_eq!(declared.len(), PER_LAYER.len());
        assert!(declared
            .iter()
            .all(|m| m.value == 0.0 || m.name == "trace.request_us"));
        assert_eq!(figures.len(), 1);
        assert_eq!(run.tally.failed, 0);

        let mut run = Run::default();
        run.metric("setup_s", 1.0, "s");
        let (declared, _) = super::declared(&mut run, false);
        assert_eq!(declared.len(), 1);
        assert_eq!(run.tally.failed, END_TO_END.len() as u64 - 1);
    }
}
