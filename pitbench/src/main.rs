//! `pitbench` — run one benchmark workload.
//!
//! ```text
//! pitbench --workload fleet_i8|churn_zoo|search_temponet
//!          [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! The last line of standard output is the JSON result: the end-to-end
//! metrics, or with `--trace 1` the per-layer metrics. A human-readable
//! summary goes to standard error. The exit status is non-zero when any
//! correctness check fails.

use pitbench::report::Report;
use pitbench::trace::{Trace, Tracer};
use pitbench::util;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: pitbench --workload fleet_i8|churn_zoo|search_temponet [--seed N] [--seconds N] [--trace 0|1]");
    ExitCode::from(2)
}

fn run_workload(
    workload: &str,
    seed: u64,
    seconds: u64,
    tracer: &Tracer,
    trace: &mut Trace,
) -> Result<Report, String> {
    let mut report = Report::default();
    match workload {
        "fleet_i8" => pitbench::fleet::run(seed, seconds, tracer, &mut report, trace)?,
        "churn_zoo" => pitbench::churn::run(seed, seconds, tracer, &mut report, trace)?,
        "search_temponet" => pitbench::search::run(seed, seconds, tracer, &mut report, trace)?,
        other => return Err(format!("unknown workload '{other}'")),
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("daemon") {
        return match pitbench::daemon::daemon_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("pitbench daemon: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = it.next();
        match (arg.as_str(), value) {
            ("--workload", Some(v)) => workload = Some(v.clone()),
            ("--seed", Some(v)) => match v.parse() {
                Ok(n) => seed = n,
                Err(_) => return usage(),
            },
            ("--seconds", Some(v)) => match v.parse() {
                Ok(n) if n >= 1 => seconds = n,
                _ => return usage(),
            },
            ("--trace", Some(v)) => match v.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(workload) = workload else {
        return usage();
    };

    let untraced = run_workload(
        &workload,
        seed,
        seconds,
        &Tracer::new(false),
        &mut Trace::default(),
    );
    let mut report = match untraced {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pitbench {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if traced {
        // The traced pass repeats the workload on the same inputs with spans
        // on; its per-layer numbers are the result, and its end-to-end
        // numbers against the untraced pass's give the tracing overhead.
        let mut trace = Trace::default();
        let mut layered =
            match run_workload(&workload, seed, seconds, &Tracer::new(true), &mut trace) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("pitbench {workload} (traced): {e}");
                    return ExitCode::FAILURE;
                }
            };
        let overhead = |layered: &Report, name: &str| -> f64 {
            match (report.get(name), layered.get(name)) {
                (Some(base), Some(t)) if base > 0.0 => 100.0 * (t - base) / base,
                _ => 0.0,
            }
        };
        let step = overhead(&layered, "step_p50_us");
        let cpu = overhead(&layered, "cpu_ns_per_step");
        layered.layer("trace.overhead_step_p50_pct", step);
        layered.layer("trace.overhead_cpu_pct", cpu);
        let path = util::out_dir().join(format!("trace-{workload}-seed{seed}.json"));
        match trace.write(&path) {
            Ok(()) => eprintln!(
                "pitbench: {} spans written to {}",
                trace.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("pitbench: {e}"),
        }
        layered.attempted += report.attempted;
        layered.failed += report.failed;
        layered.failures.append(&mut report.failures);
        report = layered;
    }
    report.health("workload", &workload);
    report.health("seed", seed);
    report.health("nproc", util::nproc());
    report.health("pool_threads", pit_tensor::pool::max_threads());
    report.health("git_revision", util::git_revision());
    eprint!("{}", report.summary(&workload));
    let kind = if traced { "traced" } else { "result" };
    let path = util::out_dir().join(format!("{kind}-{workload}-seed{seed}.json"));
    match std::fs::create_dir_all(util::out_dir())
        .and_then(|()| std::fs::write(&path, report.to_json().render()))
    {
        Ok(()) => eprintln!("pitbench: result written to {}", path.display()),
        Err(e) => eprintln!("pitbench: cannot write {}: {e}", path.display()),
    }
    println!("{}", report.result_line(traced));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
