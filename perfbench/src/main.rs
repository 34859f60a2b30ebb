//! The repository benchmark: three closed-loop workloads against an
//! in-process `puddled` served over its UNIX socket.
//!
//! ```text
//! perfbench --workload <kv_ycsb_a|pool_rpc|sensor_ship> --seed N --seconds S --trace 0|1
//!           [--out DIR] [--pm-dir DIR] [--commit SHA]
//! ```
//!
//! Daemons keep their puddles under `--pm-dir` (default `<out>/pm`);
//! results and spans go to `--out` (default `.bench_build/perfbench`).
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics untraced,
//! the per-layer metrics traced). Lines before it name every metric with
//! its unit and sample count. See README.md for the workloads and metrics.

mod harness;
mod host;
mod kv;
mod probes;
mod report;
mod rpc;
mod ship;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 3] = ["kv_ycsb_a", "pool_rpc", "sensor_ship"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    pm_dir: Option<PathBuf>,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_build/perfbench"),
        pm_dir: None,
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--out" => args.out = PathBuf::from(value()?),
            "--pm-dir" => args.pm_dir = Some(PathBuf::from(value()?)),
            "--commit" => args.commit = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread starts, so every thread inherits it.
    let pinned = host::pin();
    let dir = args
        .pm_dir
        .clone()
        .unwrap_or_else(|| args.out.join("pm"))
        .join(format!("run-{}-{}", args.workload, std::process::id()));
    let cfg = harness::Cfg {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        tiny: false,
        dir: dir.clone(),
    };
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: create {}: {e}", dir.display());
        return ExitCode::from(1);
    }
    let host = host::Host::detect(&dir, &args.commit, args.seed, &pinned);
    let ran = run_workload(&args.workload, &cfg);
    let _ = std::fs::remove_dir_all(&dir);
    let ran = match ran {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let rep = report::Report::new(&args.workload, &cfg, &ran);
    match rep.emit(&host, &args.out, &ran) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: writing results: {e}");
            ExitCode::from(1)
        }
    }
}

pub fn run_workload(workload: &str, cfg: &harness::Cfg) -> Result<harness::Ran, String> {
    match workload {
        "kv_ycsb_a" => kv::run(cfg),
        "pool_rpc" => rpc::run(cfg),
        "sensor_ship" => ship::run(cfg),
        other => Err(format!("unknown workload {other}")),
    }
}

#[cfg(test)]
mod smoke {
    use super::*;

    fn tiny(workload: &str, traced: bool) -> (report::Report, harness::Ran) {
        let dir = std::env::temp_dir().join(format!(
            "perfbench-smoke-{workload}-{traced}-{}",
            std::process::id()
        ));
        let cfg = harness::Cfg {
            seed: 7,
            seconds: 0.4,
            traced,
            tiny: true,
            dir: dir.clone(),
        };
        let ran = run_workload(workload, &cfg).expect("tiny run");
        let _ = std::fs::remove_dir_all(&dir);
        (report::Report::new(workload, &cfg, &ran), ran)
    }

    #[test]
    fn every_workload_runs_correctly_at_tiny_size() {
        for w in WORKLOADS {
            let (rep, ran) = tiny(w, false);
            assert!(rep.correct, "{w}: {:?}", rep.errors);
            assert_eq!(rep.failed, 0, "{w}: {:?}", rep.errors);
            assert!(ran.driven.phases[1].ops() > 0, "{w}: no ops");
            let names: Vec<_> = rep.end_to_end.iter().map(|m| m.name).collect();
            assert_eq!(names, report::END_TO_END, "{w}");
        }
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric() {
        let (rep, ran) = tiny("pool_rpc", true);
        assert!(rep.correct, "{:?}", rep.errors);
        let names: Vec<_> = rep.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, report::per_layer_names());
        assert!(ran.driven.tracers.iter().any(|t| !t.spans.is_empty()));
    }

    #[test]
    fn benchmark_json_lists_the_metrics_this_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let listed = |name: &str| text.contains(&format!("\"name\": \"{name}\""));
        for name in report::END_TO_END {
            assert!(listed(name), "{name} missing from BENCHMARK.json");
        }
        for name in report::per_layer_names() {
            assert!(listed(&name), "{name} missing from BENCHMARK.json");
        }
        // pool_rpc runs but is not gated: see README.md.
        for w in WORKLOADS.into_iter().filter(|&w| w != "pool_rpc") {
            assert!(listed(w), "workload {w} missing from BENCHMARK.json");
        }
        assert!(!listed("pool_rpc"));
    }
}
