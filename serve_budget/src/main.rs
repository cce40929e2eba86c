//! `serve-budget --workload <hot_filter|cold_cluster|uds_cluster|all> --seed <n>
//! --seconds <s> --trace <0|1> [--socket-dir <dir>]`
//!
//! Prints every metric with its unit and sample count, then, as the last line, one JSON
//! object: `correct`, `attempted`, `failed`, and the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics (`--trace 1`). `--workload all` measures both parts of
//! every workload in one process and ends with the combined correctness verdict.
//! Exits 1 when any answer was wrong, 2 on a usage or serving error.

use std::path::PathBuf;
use std::process::ExitCode;

use serve_budget::alloc::CountingAlloc;
use serve_budget::report::{result_line, END_TO_END, PER_LAYER};
use serve_budget::workload::Workload;
use serve_budget::{run_workload, Parts};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    all: bool,
    socket_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<Option<&String>, String> {
        match args.iter().position(|arg| arg == flag) {
            None => Ok(None),
            Some(i) => args
                .get(i + 1)
                .map(Some)
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    };
    let workload = value("--workload")?.ok_or("--workload is required")?;
    let all = workload == "all";
    let workloads = if all {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?]
    };
    let seed = match value("--seed")? {
        Some(text) => text.parse().map_err(|_| format!("bad --seed {text:?}"))?,
        None => 1,
    };
    let seconds: f64 = match value("--seconds")? {
        Some(text) => text
            .parse()
            .map_err(|_| format!("bad --seconds {text:?}"))?,
        None => 30.0,
    };
    if !(seconds.is_finite() && (1.0..=120.0).contains(&seconds)) {
        return Err(format!("--seconds must be within 1..=120, got {seconds}"));
    }
    let trace = match value("--trace")?.map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let socket_dir = value("--socket-dir")?
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    Ok(Args {
        workloads,
        seed,
        seconds,
        trace,
        all,
        socket_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("serve-budget: {message}");
            return ExitCode::from(2);
        }
    };
    if let Err(error) = std::fs::create_dir_all(&args.socket_dir) {
        eprintln!(
            "serve-budget: cannot create {}: {error}",
            args.socket_dir.display()
        );
        return ExitCode::from(2);
    }
    let parts = Parts {
        end_to_end: args.all || !args.trace,
        layers: args.all || args.trace,
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut last = None;
    for &workload in &args.workloads {
        let outcome = match run_workload(workload, args.seed, args.seconds, parts, &args.socket_dir)
        {
            Ok(outcome) => outcome,
            Err(error) => {
                eprintln!("serve-budget: {}: {error}", workload.name());
                return ExitCode::from(2);
            }
        };
        for line in outcome
            .notes
            .iter()
            .chain(&outcome.metrics.lines(workload.name()))
        {
            println!("{line}");
        }
        println!(
            "  {:<12} answers {}: {} attempted, {} failed",
            workload.name(),
            if outcome.correct {
                "all correct"
            } else {
                "WRONG"
            },
            outcome.attempted,
            outcome.failed
        );
        correct &= outcome.correct;
        attempted += outcome.attempted;
        failed += outcome.failed;
        last = Some(outcome.metrics);
    }
    let names: &[&str] = if args.all {
        &[]
    } else if args.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let metrics = last.expect("at least one workload ran");
    match result_line(correct, attempted, failed, &metrics, names) {
        Ok(line) => println!("{line}"),
        Err(message) => {
            eprintln!("serve-budget: {message}");
            return ExitCode::from(2);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
