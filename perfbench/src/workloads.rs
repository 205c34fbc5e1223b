//! The two single-simulation workloads: PARSEC-like traces on IntelliNoC
//! and busy uniform traffic on static SECDED.

use crate::checks::{self, replay_schedule};
use crate::probes;
use crate::report::Outcome;
use crate::run::{time_setups, Ctx, E2e, Passes, REFERENCE_SEED};
use crate::sim::{self, fingerprint, traffic_seed, SimAgg, SimOp};
use intellinoc::{derive_seed, Design, ExperimentConfig};
use noc_sim::{RunReport, FLITS_PER_PACKET};
use noc_traffic::{ParsecBenchmark, WorkloadSpec};
use std::hint::black_box;

/// The PARSEC-like traces with their packets per node, sized so that each
/// run takes a similar host time (about 0.15 s) and the per-operation
/// percentiles are not split between trace sizes.
const PARSEC_TRACES: [(ParsecBenchmark, u64); 4] = [
    (ParsecBenchmark::Blackscholes, 50),
    (ParsecBenchmark::Canneal, 50),
    (ParsecBenchmark::Fluidanimate, 250),
    (ParsecBenchmark::Swaptions, 35),
];
/// Just below saturation: mean latency about twice the low-load value.
const UNIFORM_RATE: f64 = 0.05;
const UNIFORM_PPN: u64 = 50;
const UNIFORM_RUNS: u64 = 2;
/// Set-up repetitions after every round: spread over the whole run, so
/// that no single phase of the host decides their median.
const SETUPS_PER_ROUND: usize = 2;
pub const NODES: u64 = 64;

/// Round `round` of the PARSEC workload under master seed `seed`:
/// IntelliNoC with online Q-learning on the four traces, each on its own
/// seed.
pub fn parsec_ops(seed: u64, round: u64) -> Vec<SimOp> {
    PARSEC_TRACES
        .iter()
        .map(|(b, ppn)| {
            let label = format!("parsec/{round}/{b:?}");
            let cfg = ExperimentConfig::new(Design::IntelliNoc, b.workload(*ppn))
                .with_seed(derive_seed(seed, &label));
            SimOp::new(label, cfg)
        })
        .collect()
}

/// Round `round` of the uniform workload under master seed `seed`: static
/// SECDED under sustained uniform-random injection, each run on its own
/// seed.
pub fn uniform_ops(seed: u64, round: u64) -> Vec<SimOp> {
    (0..UNIFORM_RUNS)
        .map(|i| {
            let label = format!("uniform/{round}/{i}");
            let cfg = ExperimentConfig::new(
                Design::Secded,
                WorkloadSpec::uniform(UNIFORM_RATE, UNIFORM_PPN),
            )
            .with_seed(derive_seed(seed, &label));
            SimOp::new(label, cfg)
        })
        .collect()
}

/// Checks one open-loop fault-free run: full delivery and the zero-load
/// bound from its replayed schedule; with `stepped`, also steps the run one
/// cycle at a time through public calls, which must reproduce it exactly
/// and shows the cycle of its last injection.
fn check_open_loop(op: &SimOp, r: &RunReport, stepped: bool) -> checks::Check {
    let want = NODES * op.cfg.workload.packets_per_node;
    let sched = replay_schedule(&op.cfg.workload, 8, 8, traffic_seed(&op.cfg));
    if sched.packets != want {
        return Err(format!(
            "{}: generator schedules {} packets, not {want}",
            op.label, sched.packets
        ));
    }
    checks::fault_free_delivery(&op.label, r, want)?;
    checks::zero_load_bound(&op.label, r.avg_latency(), &sched, usize::from(FLITS_PER_PACKET))?;
    if stepped {
        let (again, last_injection) = sim::drive(op, 1, &mut crate::spans::Spans::new(false));
        checks::identical(
            &format!("{} stepped by cycle", op.label),
            &fingerprint(r),
            &fingerprint(&again),
        )?;
        checks::exec_after_last_injection(&op.label, r.exec_cycles, last_injection)?;
    }
    Ok(())
}

/// Runs one round through `run_experiment` and checks each operation, with
/// `stepped` also cycle by cycle. Returns each operation's wall seconds
/// and report.
fn direct_round(
    ops: &[SimOp],
    stepped: bool,
    out: &mut Outcome,
) -> Result<(Vec<f64>, Vec<RunReport>), String> {
    let mut walls = Vec::with_capacity(ops.len());
    let mut reports = Vec::with_capacity(ops.len());
    for op in ops {
        let (r, wall) = sim::run_direct(op);
        check_open_loop(op, &r, stepped)?;
        out.attempted += 1;
        walls.push(wall);
        reports.push(r);
    }
    Ok((walls, reports))
}

/// Runs a single-simulation workload: the untraced measuring loop, or the
/// traced passes and layer probes. Round 0 is the reference round, on
/// `REFERENCE_SEED`; its statistics are the `sim_*` metrics, and it is run
/// again at the end and must repeat exactly. Every later round runs new
/// seeds drawn from `--seed`. Rounds 0 and 1 are also stepped cycle by
/// cycle.
pub fn run_sim_workload(
    ctx: &Ctx,
    round_ops: impl Fn(u64, u64) -> Vec<SimOp>,
) -> Result<Outcome, String> {
    let ops_of =
        |r: u64| if r == 0 { round_ops(REFERENCE_SEED, 0) } else { round_ops(ctx.seed, r) };
    let mut out = Outcome::default();
    let reference = ops_of(0);
    let mut reference_fps: Vec<String> = Vec::new();
    if !ctx.trace {
        let mut e = E2e::default();
        for r in 0.. {
            let ops = ops_of(r);
            let (walls, reports) = direct_round(&ops, r <= 1, &mut out)?;
            if r == 0 {
                reference_fps = reports.iter().map(fingerprint).collect();
                for rep in &reports {
                    e.sim.add(rep, NODES);
                }
            }
            e.round_walls.push(walls.iter().sum());
            e.op_ms.extend(walls.iter().map(|w| w * 1e3));
            e.op_cycles.extend(reports.iter().map(|r| r.stats.cycles as f64));
            e.setups.extend(time_setups(SETUPS_PER_ROUND, || {
                for op in ops_of(r) {
                    black_box(sim::build(&op.cfg));
                }
            }));
            if ctx.done(e.op_ms.len()) {
                break;
            }
        }
        repeat_reference(&reference, &reference_fps, &mut out)?;
        e.metrics(&mut out.metrics)?;
        return Ok(out);
    }

    let mut passes = Passes::default();
    let mut counts = SimAgg::default();
    for r in 0.. {
        let ops = ops_of(r);
        let (walls, reports) = direct_round(&ops, r <= 1, &mut out)?;
        let want: Vec<String> = reports.iter().map(fingerprint).collect();
        if r == 0 {
            reference_fps = want.clone();
            for rep in &reports {
                counts.add(rep, NODES);
            }
        }
        passes.round(&ops, &want, walls.iter().sum())?;
        out.attempted += 3 * ops.len() as u64;
        if ctx.traced_done() {
            break;
        }
    }
    repeat_reference(&reference, &reference_fps, &mut out)?;
    passes.metrics(&counts, &mut out.metrics);
    probes::all(ctx.seed, &ops_of(1)[0], &mut out.metrics)?;
    crate::serve::layer_probe(ctx, &mut out.metrics)?;
    ctx.write_spans(&passes.spans)?;
    Ok(out)
}

/// Runs the reference round again; its statistics must repeat exactly.
fn repeat_reference(ops: &[SimOp], want: &[String], out: &mut Outcome) -> checks::Check {
    for (op, w) in ops.iter().zip(want) {
        checks::identical(&op.label, w, &fingerprint(&sim::run_direct(op).0))?;
        out.attempted += 1;
    }
    Ok(())
}
