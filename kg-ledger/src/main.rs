use kg_ledger::check::check;
use kg_ledger::inputs::{Inputs, Workload};
use kg_ledger::noise::noise;
use kg_ledger::run::{exact_answers, run_pass, score, setup, tau_gt_moved, Outcome, Pass};
use kg_ledger::traced::{trace_path, traced_run, HostProbes};
use kg_ledger::{heap, nproc, release_profile, result_line, threads};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

const USAGE: &str = "usage: kg-ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
       kg-ledger check
       kg-ledger noise [--runs N] [--seconds S]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 11,
        seconds: 20.0,
        trace: false,
        runs: 5,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => out.workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--runs" => out.runs = value.parse().map_err(|_| bad())?,
            "--trace" => out.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(out)
}

fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The numbers compare across commits only when both were built alike.
fn check_profile() -> Result<(), String> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");
    let theirs = std::fs::read_to_string(root).map_err(|e| format!("{root}: {e}"))?;
    let ours = include_str!("../Cargo.toml");
    if release_profile(&theirs) == release_profile(ours) {
        Ok(())
    } else {
        Err(format!(
            "[profile.release] of {root} is {:?} but kg-ledger/Cargo.toml has {:?}; copy it over",
            release_profile(&theirs),
            release_profile(ours)
        ))
    }
}

fn timed_run(workload: Workload, seconds: f64, inputs: &mut Inputs, tau_gt: &[f64]) -> Outcome {
    let setup = setup(workload, inputs);
    let passes: Vec<Pass> = (0..workload.passes(seconds))
        .map(|_| run_pass(&setup.stack, inputs, workload))
        .collect();
    let mut outcome = score(workload, &setup, &passes, tau_gt);
    if workload == Workload::WriteChurn {
        outcome.faults.extend(tau_gt_moved(inputs, tau_gt));
    }
    println!(
        "# boot_s={:.3} warmup_s={:.3} pass_requests={}",
        setup.boot_s,
        setup.warmup.wall_s,
        passes[0].replies.len() + passes[0].writes.len(),
    );
    for (i, p) in passes.iter().enumerate() {
        println!(
            "# pass {} wall_s={:.4} cpu_ms={:.0}",
            i + 1,
            p.wall_s,
            p.cpu_ms
        );
    }
    outcome
}

fn report(workload: Workload, trace: bool, outcome: &Outcome) {
    println!(
        "# workload={} passes={} latency_samples={}",
        workload.name(),
        outcome.passes,
        outcome.latency_samples,
    );
    if trace {
        println!("# spans written to {}", trace_path(workload).display());
    }
    for fault in &outcome.faults {
        println!("# FAULT {fault}");
    }
    for m in &outcome.metrics {
        println!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_line(
            outcome.faults.is_empty(),
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
}

fn main() -> ExitCode {
    // The service's worker threads read the variable, not a pool handle.
    std::env::set_var("RAYON_NUM_THREADS", threads().to_string());
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, flags) = match argv.first().map(String::as_str) {
        Some(c @ ("check" | "noise")) => (c, &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let args = match check_profile().and_then(|()| parse(flags)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("kg-ledger: {e}");
            return ExitCode::from(2);
        }
    };
    match command {
        "check" => {
            let faults = check();
            for fault in &faults {
                println!("FAULT {fault}");
            }
            return if faults.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        "noise" => {
            return match noise(args.runs, args.seconds) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("kg-ledger noise: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    println!(
        "# kg-ledger seed={} seconds={} trace={} nproc={} rayon_threads={} rustc={:?} commit={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        threads(),
        tool_output("rustc", &["--version"]),
        tool_output("git", &["rev-parse", "--short", "HEAD"]),
    );
    // One set of inputs serves every workload: only `write_churn`, the
    // last, moves its state (the writes issued).
    let mut inputs = Inputs::new(args.seed);
    let selected = Workload::ALL
        .into_iter()
        .filter(|w| args.workload.is_none_or(|only| only == *w));
    if args.trace {
        let host = HostProbes::run(&inputs);
        for workload in selected {
            report(workload, true, &traced_run(workload, &mut inputs, &host));
        }
    } else {
        let tau_gt = exact_answers(&inputs, &inputs.dataset.graph);
        for workload in selected {
            let outcome = timed_run(workload, args.seconds, &mut inputs, &tau_gt);
            report(workload, false, &outcome);
        }
    }
    ExitCode::SUCCESS
}
