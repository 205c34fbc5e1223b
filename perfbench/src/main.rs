//! Benchmark of the IntelliNoC reproduction: runs one named workload for
//! a fixed time, checks the program's outputs, and prints one JSON line
//! with the metrics, the operations attempted and those that failed.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! traced passes and layer probes and reports the per-layer metrics.

mod campaign;
mod checks;
mod probes;
mod report;
mod run;
mod serve;
mod sim;
mod spans;
mod stats;
mod workloads;

use run::Ctx;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const WORKLOADS: [&str; 4] = [
    "parsec-intellinoc-8x8",
    "uniform-secded-8x8-busy",
    "campaign-faults-8x8",
    "serve-closedloop-jobs",
];

fn parse(args: &[String]) -> Result<Ctx, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    let out = PathBuf::from(".perfbench-out");
    Ok(Ctx {
        work: out.join(format!("work-{}", std::process::id())),
        out,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        started: Instant::now(),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Every run checks the ECC round trips on a few thousand flits; the
    // traced run times them on more.
    let result = probes::ecc(ctx.seed, 2_000).and_then(|_| match ctx.workload.as_str() {
        "parsec-intellinoc-8x8" => workloads::run_sim_workload(&ctx, workloads::parsec_ops),
        "uniform-secded-8x8-busy" => workloads::run_sim_workload(&ctx, workloads::uniform_ops),
        "campaign-faults-8x8" => campaign::run(&ctx),
        _ => serve::run(&ctx),
    });
    // Remove the scratch and sync its parent, so that the file system
    // commits the removal now rather than during the next run's timing.
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Ok(dir) = std::fs::File::open(&ctx.out) {
        let _ = dir.sync_all();
    }
    match result {
        Ok(outcome) => {
            println!("{}", report::render(true, &outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            println!(
                "{}",
                report::render(
                    false,
                    &report::Outcome { attempted: 1, failed: 1, ..Default::default() }
                )
            );
            ExitCode::from(1)
        }
    }
}
