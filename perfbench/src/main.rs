//! `perfbench` — the repository's benchmark of record.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --server-bin PATH --out-dir DIR [--git-commit SHA] [--source-digest HEX]
//! ```
//!
//! Workloads: `http_mixed`, `session_relational`, `session_expand` (see
//! `README.md` in this directory).  The last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.  The line before it records the environment.  A run that
//! cannot complete exits non-zero without a result line.

mod client;
mod gen;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Report, Settings, Workload};

struct Args {
    workload: Workload,
    settings: Settings,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server_bin = None;
    let mut out_dir = None;
    let mut git_commit = "unknown".to_string();
    let mut source_digest = "unknown".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (known: {})", names.join(", "))
                })?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| "--seed expects an integer")?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds expects a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            "--git-commit" => git_commit = value,
            "--source-digest" => source_digest = value,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    let trace = trace.ok_or("--trace is required")?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let http = workload == Workload::HttpMixed;
    let environment = format!(
        "{{\"environment\": {{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"nproc\": {nproc}, \"engine_workers\": {}, \"http_workers\": {}, \
         \"http_clients\": {}, \"git_commit\": \"{git_commit}\", \"source_digest\": \"{source_digest}\", \
         \"build_profile\": \"{}\"}}}}",
        workload.name(),
        workloads::ENGINE_WORKERS,
        if http { workloads::HTTP_WORKERS.to_string() } else { "null".into() },
        if http { workloads::HTTP_CLIENTS } else { 0 },
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    Ok(Args {
        workload,
        settings: Settings {
            seed,
            seconds,
            trace,
            server_bin: server_bin.ok_or("--server-bin is required")?,
            out_dir: out_dir.ok_or("--out-dir is required")?,
            environment,
        },
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.failed() == 0 && report.consistent,
        report.tally.attempted,
        report.tally.failed(),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let settings = &args.settings;
    let report = match args.workload {
        Workload::HttpMixed => workloads::run_http(settings),
        _ => workloads::run_session(args.workload, settings),
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "{} seed {} ({}): {} attempted, {} failed ({} status, {} transport, {} mismatch)",
        args.workload.name(),
        settings.seed,
        if settings.trace { "traced" } else { "untraced" },
        report.tally.attempted,
        report.tally.failed(),
        report.tally.status,
        report.tally.transport,
        report.tally.mismatch
    );
    for note in &report.notes {
        eprintln!("{note}");
    }
    for m in &report.metrics {
        eprintln!("  {:<30} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", settings.environment);
    println!("{}", result_line(&report));
    ExitCode::SUCCESS
}
