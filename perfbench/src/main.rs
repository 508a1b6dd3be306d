//! The repository benchmark: one command runs a named workload, prints
//! every metric with its unit, checks that the outputs are correct,
//! and ends with one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload submit_cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `engine_large`, `submit_hot`, `submit_cold`,
//! `sessions_mixed` (`perfbench/README.md` says why each exists, and
//! why `BENCHMARK.json` leaves `submit_hot` out). `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs the traced variant and
//! reports the per-layer metrics, writing its spans to `.bench_out/`.

mod daemon;
mod engine;
mod gates;
mod idle;
mod pace;
mod report;
mod sessions;
mod stats;
mod submit;
mod trace;

use std::process::ExitCode;

use report::{Cfg, DEFAULT_SEED};

const WORKLOADS: [&str; 4] = [
    "engine_large",
    "submit_hot",
    "submit_cold",
    "sessions_mixed",
];

fn parse_args(args: &[String]) -> Result<Cfg, String> {
    let mut cfg = Cfg {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 120.0) {
        return Err("--seconds must lie in (0, 120]".to_string());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("stamp {}", report::stamp(&cfg).encode());
    // The engine runs on one thread that never idles; the serving
    // workloads wake threads per request (see `idle`).
    let spinners = (cfg.workload != "engine_large").then(|| idle::Spinners::start(daemon::nproc()));
    let mut run = match cfg.workload.as_str() {
        "engine_large" => engine::run(&cfg),
        "submit_hot" => submit::run_hot(&cfg),
        "submit_cold" => submit::run_cold(&cfg),
        "sessions_mixed" => sessions::run(&cfg),
        _ => unreachable!("validated above"),
    };
    drop(spinners);
    if !cfg.trace {
        run.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    }
    for line in &run.notes {
        println!("{line}");
    }
    let (declared, figures) = report::declared(&mut run, cfg.trace);
    for m in &figures {
        println!("figure {:<48} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &declared {
        println!("metric {:<48} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if cfg.trace {
        let path = std::path::PathBuf::from(".bench_out")
            .join(format!("{}-seed{}.spans.jsonl", cfg.workload, cfg.seed));
        match trace::write_jsonl(&path, &run.spans) {
            Ok(()) => println!("spans: {} written to {}", run.spans.len(), path.display()),
            Err(e) => eprintln!("warning: could not write spans: {e}"),
        }
    }
    for m in &run.tally.messages {
        eprintln!("FAILED: {m}");
    }
    println!(
        "operations: {} attempted, {} failed",
        run.tally.attempted, run.tally.failed
    );
    println!("{}", report::result_line(&run.tally, &declared));
    if run.tally.failed == 0 && run.tally.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let c = parse_args(&args(
            "--workload submit_hot --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (c.workload.as_str(), c.seed, c.seconds, c.trace),
            ("submit_hot", 7, 3.0, true)
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload submit_hot --trace 2")).is_err());
        assert!(parse_args(&args("--workload submit_hot --seconds")).is_err());
    }
}
