//! The `serve` workload: one client submits small closed-loop jobs to an
//! in-process daemon over loopback, one outstanding job at a time, waits
//! for each to finish and fetches its report.

use crate::checks;
use crate::report::{Metrics, Outcome};
use crate::run::{Ctx, E2e, Passes, REFERENCE_SEED};
use crate::sim::{self, fingerprint, SimAgg, SimOp};
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::workloads::NODES;
use intellinoc::{
    derive_seed, http_request, reference_report_csv, Daemon, Design, ExperimentConfig, JobSpec,
    JobStatus, JobsSummary, ServeConfig, SubmitRequest, SubmitResponse,
};
use noc_sim::RunReport;
use noc_traffic::{ReqReplySpec, WorkloadSpec};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Distinct job specs per round; a run submits whole rounds of them. Many
/// distinct specs keep a run's mix of jobs close to every other run's.
const JOBS_PER_ROUND: u64 = 100;
const JOB_RATE: f64 = 0.02;
const JOB_PPN: u64 = 1;
/// Daemon restarts timed after every round (the set-up metric is their
/// median): spread over the whole run, so that no single phase of the
/// host decides the median.
const STARTS_PER_ROUND: usize = 8;
/// Daemon restarts the serve-layer probe of the other workloads times.
const PROBE_STARTS: usize = 30;
/// Jobs the serve-layer probe of the other workloads submits: enough for
/// a 90th percentile with ten jobs beyond it.
const PROBE_JOBS: u64 = 100;
const POLL: Duration = Duration::from_micros(500);
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// One job spec with everything computed apart from the daemon: its
/// reference report and its single unit as a direct simulation.
struct Job {
    spec: JobSpec,
    reference: String,
    op: SimOp,
    report: RunReport,
}

fn spec(seed: u64, i: u64) -> JobSpec {
    JobSpec {
        name: format!("job-{i}"),
        designs: vec!["secded".to_owned()],
        rates: vec![JOB_RATE],
        ppn: JOB_PPN,
        seed: derive_seed(seed, &format!("job-{i}")),
        max_cycles: 0,
        reqreply: Some(ReqReplySpec::default()),
        journeys_every: 0,
    }
}

/// The CSV the daemon must serve for a one-unit job, rebuilt from the
/// unit's direct simulation.
fn expected_csv(key: &str, r: &RunReport) -> String {
    format!(
        "key,status,attempts,exec_cycles,avg_latency,p99_latency,delivery_rate,power_mw\n\
         {key},ok,1,{},{:.3},{:.3},{:.6},{:.3}\n",
        r.exec_cycles,
        r.avg_latency(),
        r.stats.latency_percentile(0.99),
        r.stats.delivery_ratio(),
        r.power.total_mw()
    )
}

/// The single unit of a one-unit job, run directly, and its report,
/// checked for transaction conservation.
fn unit(spec: &JobSpec) -> Result<(SimOp, RunReport), String> {
    let key = format!("serve/{}/r{JOB_RATE}", Design::Secded.label());
    let workload =
        WorkloadSpec::reqreply(JOB_RATE, JOB_PPN, spec.reqreply.clone().expect("closed loop"));
    let cfg =
        ExperimentConfig::new(Design::Secded, workload).with_seed(derive_seed(spec.seed, &key));
    let op = SimOp::new(key.clone(), cfg);
    let (report, _) = sim::run_direct(&op);
    checks::closed_loop_conservation(&key, &report, NODES * JOB_PPN)?;
    Ok((op, report))
}

/// Simulated statistics of the units of the reference round's jobs (on
/// `REFERENCE_SEED`, so the same on every run), the `sim_*` metrics.
fn reference_stats() -> Result<SimAgg, String> {
    let mut agg = SimAgg::default();
    for i in 0..JOBS_PER_ROUND {
        agg.add(&unit(&spec(REFERENCE_SEED, i))?.1, NODES);
    }
    Ok(agg)
}

/// Builds and checks the round's jobs: the reference report equals the
/// one rebuilt from the direct run, and the direct run conserves every
/// transaction.
fn jobs(seed: u64, n: u64) -> Result<Vec<Job>, String> {
    (0..n)
        .map(|i| {
            let spec = spec(seed, i);
            let (op, report) = unit(&spec)?;
            let key = &op.label;
            let reference = reference_report_csv(&spec)?;
            checks::same_bytes(
                &format!("{key} reference"),
                &reference,
                &expected_csv(key, &report),
            )?;
            Ok(Job { spec, reference, op, report })
        })
        .collect()
}

/// Starts a daemon over `dir` (created, or recovered if it holds a WAL);
/// returns it and the seconds `Daemon::start` took.
fn start(dir: &Path) -> Result<(Daemon, f64), String> {
    let cfg = ServeConfig {
        state_dir: dir.to_path_buf(),
        addr: "127.0.0.1:0".to_owned(),
        jobs: 1,
        ..ServeConfig::default()
    };
    let t0 = Instant::now();
    let daemon = Daemon::start(cfg)?;
    Ok((daemon, t0.elapsed().as_secs_f64()))
}

/// Drains and stops a daemon; its state directory stays until the run's
/// scratch directory is removed at exit.
fn stop(daemon: Daemon) -> Result<(), String> {
    if daemon.shutdown(Duration::from_secs(10)) {
        Ok(())
    } else {
        Err("serve: daemon did not drain cleanly".to_owned())
    }
}

/// A state directory for timed restarts, created by an untimed first
/// start: that start's WAL sync waits on a disk shared with other work (it
/// moved a run's median start between 1.2 and 5.3 ms across ten runs), and
/// a daemon pays it once.
fn starts_dir(ctx: &Ctx) -> Result<PathBuf, String> {
    let dir = ctx.dir("serve-starts")?;
    stop(start(&dir)?.0)?;
    Ok(dir)
}

/// Seconds of `n` daemon restarts over `dir`: WAL replay, recovery, bind
/// and thread start.
fn restarts(dir: &Path, n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let (daemon, secs) = start(dir)?;
            stop(daemon)?;
            Ok(secs)
        })
        .collect()
}

fn get(addr: &str, path: &str) -> Result<String, String> {
    match http_request(addr, "GET", path, None)? {
        (200, body) => Ok(body),
        (code, body) => Err(format!("GET {path}: HTTP {code}: {body}")),
    }
}

/// Timings of one submitted job.
struct Timed {
    submit_ms: f64,
    done_ms: f64,
}

/// Submits `job` under `name`, waits for it to finish, fetches its report
/// and checks it byte for byte.
fn submit_one(addr: &str, name: String, job: &Job, spans: &mut Spans) -> Result<Timed, String> {
    let body = serde_json::to_string(&SubmitRequest {
        tenant: "bench".to_owned(),
        priority: 0,
        paused: false,
        spec: JobSpec { name, ..job.spec.clone() },
    })
    .map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let (code, resp) =
        spans.time("serve.submit", || http_request(addr, "POST", "/api/jobs", Some(&body)))?;
    let submit_ms = t0.elapsed().as_secs_f64() * 1e3;
    if code != 202 {
        return Err(format!("serve: submit answered HTTP {code}: {resp}"));
    }
    let id = serde_json::from_str::<SubmitResponse>(&resp).map_err(|e| e.to_string())?.id;
    let wait = spans.enter("serve.wait_done");
    let path = format!("/api/jobs/{id}");
    let state = loop {
        let status: JobStatus =
            serde_json::from_str(&get(addr, &path)?).map_err(|e| e.to_string())?;
        if status.state != "queued" && status.state != "running" {
            break status.state;
        }
        if t0.elapsed() > JOB_TIMEOUT {
            return Err(format!("serve: job {id} still {} after {JOB_TIMEOUT:?}", status.state));
        }
        std::thread::sleep(POLL);
    };
    let done_ms = t0.elapsed().as_secs_f64() * 1e3;
    spans.exit(wait);
    if state != "done" {
        return Err(format!("serve: job {id} ended {state}"));
    }
    let csv = spans.time("serve.report", || get(addr, &format!("{path}/report")))?;
    checks::same_bytes(&format!("serve job {id}"), &csv, &job.reference)?;
    Ok(Timed { submit_ms, done_ms })
}

/// Submits every job once, in order, under names unique to `round`.
fn round(addr: &str, round: usize, jobs: &[Job], spans: &mut Spans) -> Result<Vec<Timed>, String> {
    jobs.iter()
        .enumerate()
        .map(|(i, job)| submit_one(addr, format!("r{round}-j{i}"), job, spans))
        .collect()
}

fn check_accounting(addr: &str, submitted: u64) -> checks::Check {
    let summary: JobsSummary =
        serde_json::from_str(&get(addr, "/api/jobs")?).map_err(|e| e.to_string())?;
    checks::job_accounting(&summary, submitted)
}

/// Seconds the in-process engine takes for each job's spec.
fn engine_times(jobs: &[Job]) -> Result<Vec<f64>, String> {
    jobs.iter()
        .map(|j| {
            let t0 = Instant::now();
            let csv = reference_report_csv(&j.spec)?;
            let secs = t0.elapsed().as_secs_f64();
            checks::same_bytes("serve engine", &csv, &j.reference)?;
            Ok(secs)
        })
        .collect()
}

fn serve_layer_metrics(starts: &[f64], timed: &[Timed], overhead_ms: &[f64], m: &mut Metrics) {
    let submit: Vec<f64> = timed.iter().map(|t| t.submit_ms).collect();
    let done: Vec<f64> = timed.iter().map(|t| t.done_ms).collect();
    m.push("serve.done_ms_p90", percentile(&done, 0.9), "ms");
    m.push("serve.submit_ms_p50", median(&submit), "ms");
    m.push("serve.overhead_ms_p50", median(overhead_ms), "ms");
    m.push("serve.start_ms", median(starts) * 1e3, "ms");
}

/// The serve-layer probe for the other workloads' traced runs: daemon
/// start, then `PROBE_JOBS` of the serve workload's jobs.
pub fn layer_probe(ctx: &Ctx, m: &mut Metrics) -> checks::Check {
    let starts = restarts(&starts_dir(ctx)?, PROBE_STARTS)?;
    let jobs = jobs(ctx.seed, PROBE_JOBS)?;
    let engine = engine_times(&jobs)?;
    let dir = ctx.dir("serve-probe")?;
    let (daemon, _) = start(&dir)?;
    let addr = daemon.local_addr().to_string();
    let timed = round(&addr, 0, &jobs, &mut Spans::new(false));
    let stopped = stop(daemon);
    let timed = timed?;
    stopped?;
    let overhead: Vec<f64> = timed.iter().zip(&engine).map(|(t, e)| t.done_ms - e * 1e3).collect();
    serve_layer_metrics(&starts, &timed, &overhead, m);
    Ok(())
}

/// Runs the serve workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let starts = starts_dir(ctx)?;
    let jobs = jobs(ctx.seed, JOBS_PER_ROUND)?;
    let agg = reference_stats()?;
    let dir = ctx.dir("serve")?;
    let (daemon, _) = start(&dir)?;
    let addr = daemon.local_addr().to_string();
    let result = if ctx.trace {
        traced(ctx, &addr, &jobs, &starts, &agg, &mut out)
    } else {
        measured(ctx, &addr, &jobs, &starts, &mut out).and_then(|(mut e, submitted)| {
            e.sim = agg;
            e.metrics(&mut out.metrics)?;
            Ok(submitted)
        })
    };
    let accounted = result.and_then(|submitted| check_accounting(&addr, submitted));
    let stopped = stop(daemon);
    accounted?;
    stopped?;
    Ok(out)
}

/// The untraced measuring loop, with daemon restarts over `starts` after
/// every round; returns the metrics' samples and the number of jobs
/// submitted.
fn measured(
    ctx: &Ctx,
    addr: &str,
    jobs: &[Job],
    starts: &Path,
    out: &mut Outcome,
) -> Result<(E2e, u64), String> {
    let mut e = E2e::default();
    let mut off = Spans::new(false);
    for r in 0.. {
        let timed = round(addr, r, jobs, &mut off)?;
        out.attempted += jobs.len() as u64;
        e.round_walls.push(timed.iter().map(|t| t.done_ms / 1e3).sum());
        e.op_ms.extend(timed.iter().map(|t| t.done_ms));
        e.op_cycles.extend(jobs.iter().map(|j| j.report.stats.cycles as f64));
        e.setups.extend(restarts(starts, STARTS_PER_ROUND)?);
        if ctx.done(e.op_ms.len()) {
            break;
        }
    }
    let submitted = e.op_ms.len() as u64;
    Ok((e, submitted))
}

/// The traced rounds: each job through the daemon, the in-process
/// engine, `run_experiment` and the public-call loop. Returns the number
/// of jobs submitted to the daemon.
fn traced(
    ctx: &Ctx,
    addr: &str,
    jobs: &[Job],
    starts: &Path,
    agg: &SimAgg,
    out: &mut Outcome,
) -> Result<u64, String> {
    let ops: Vec<SimOp> = jobs.iter().map(|j| j.op.clone()).collect();
    let want: Vec<String> = jobs.iter().map(|j| fingerprint(&j.report)).collect();
    let mut passes = Passes::default();
    let (mut timed, mut overhead, mut start_secs) = (Vec::new(), Vec::<f64>::new(), Vec::new());
    for r in 0.. {
        let t = round(addr, r, jobs, &mut passes.spans)?;
        let engine = engine_times(jobs)?;
        passes.runner_s += engine.iter().sum::<f64>();
        let t0 = Instant::now();
        let direct: Vec<RunReport> = ops.iter().map(|op| sim::run_direct(op).0).collect();
        passes.direct_s += t0.elapsed().as_secs_f64();
        for ((op, w), d) in ops.iter().zip(&want).zip(&direct) {
            checks::identical(&op.label, w, &fingerprint(d))?;
        }
        passes.manual_passes(&ops, &want)?;
        out.attempted += 5 * jobs.len() as u64;
        overhead.extend(t.iter().zip(&engine).map(|(t, e)| t.done_ms - e * 1e3));
        timed.extend(t);
        start_secs.extend(restarts(starts, STARTS_PER_ROUND)?);
        if ctx.traced_done() {
            break;
        }
    }
    passes.metrics(agg, &mut out.metrics);
    serve_layer_metrics(&start_secs, &timed, &overhead, &mut out.metrics);
    crate::probes::all(ctx.seed, &ops[0], &mut out.metrics)?;
    ctx.write_spans(&passes.spans)?;
    Ok(timed.len() as u64)
}
