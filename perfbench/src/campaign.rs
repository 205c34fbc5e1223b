//! The fault-campaign workload: the default hard-fault grid (5 designs ×
//! 7 scenarios) run serially through the runner engine with the flight
//! recorder and sampled journeys on.
//!
//! The grid is pinned to master seed 1 (`REFERENCE_SEED`), where cell
//! IntelliNoC × `flapping-links-2` deadlocks and the stall watchdog aborts
//! it. That cell counts as one failed operation per grid; a full delivery
//! there counts as a success, so a fix passes. Any other failure fails the
//! run.

use crate::checks;
use crate::report::Outcome;
use crate::run::{time_setups, Ctx, E2e, Passes, REFERENCE_SEED};
use crate::sim::{self, fingerprint, SimAgg, SimOp};
use crate::workloads::NODES;
use intellinoc::{
    campaign_scenarios, campaign_unit_keys, derive_seed, run_campaign_runner_instrumented,
    BlackboxConfig, CampaignConfig, CampaignRunReport, ChaosOptions, ExperimentConfig, RunStatus,
    RunnerConfig,
};
use noc_sim::{HardFaultScenario, RunReport};
use noc_traffic::WorkloadSpec;
use std::hint::black_box;
use std::time::Instant;

/// The cell with the known deadlock at master seed 1.
const STALLED_CELL: (&str, &str) = ("IntelliNoC", "flapping-links-2");
/// Journey sampling period of every cell.
const JOURNEYS_EVERY: u64 = 16;
/// Set-up repetitions after every grid pass: spread over the whole run,
/// so that no single phase of the host decides their median.
const SETUPS_PER_GRID: usize = 10;

struct Cell {
    key: String,
    scenario: String,
    faults: HardFaultScenario,
    op: SimOp,
}

impl Cell {
    fn is_stalled_cell(&self) -> bool {
        self.op.cfg.design.label() == STALLED_CELL.0 && self.scenario == STALLED_CELL.1
    }
}

/// The grid's cells, each as the direct simulation the runner performs.
fn cells(cfg: &CampaignConfig) -> Vec<Cell> {
    let scenarios = campaign_scenarios(cfg);
    campaign_unit_keys(cfg)
        .into_iter()
        .map(|(key, si, design)| {
            let (name, faults) = scenarios[si].clone();
            let mut ecfg = ExperimentConfig {
                max_cycles: cfg.max_cycles,
                ..ExperimentConfig::new(design, WorkloadSpec::uniform(cfg.rate, cfg.ppn))
            }
            .with_seed(derive_seed(cfg.seed, &key));
            ecfg.hard_faults = faults.clone();
            ecfg.fault_aware_routing = cfg.fault_aware_routing;
            ecfg.telemetry.journeys_every = JOURNEYS_EVERY;
            let op = SimOp { label: key.clone(), cfg: ecfg, blackbox: true };
            Cell { key, scenario: name, faults, op }
        })
        .collect()
}

/// Checks one runner grid cell by cell; returns how many operations
/// failed (the stalled cell, when it stalls).
fn check_grid(
    cfg: &CampaignConfig,
    cells: &[Cell],
    rep: &CampaignRunReport,
) -> Result<u64, String> {
    if rep.runner.records.len() != cells.len() {
        return Err(format!(
            "campaign: {} records for {} cells",
            rep.runner.records.len(),
            cells.len()
        ));
    }
    let mut failed = 0;
    for (cell, rec) in cells.iter().zip(&rep.runner.records) {
        let label = &cell.key;
        if rec.key != cell.key {
            return Err(format!("campaign: record {} where {label} was expected", rec.key));
        }
        let row = rec
            .payload
            .as_ref()
            .ok_or_else(|| format!("{label}: {} without statistics", rec.status.label()))?;
        let in_flight = match (rec.status, &rec.timeout) {
            (RunStatus::Ok, _) => 0,
            (RunStatus::TimedOut, Some(t)) if cell.is_stalled_cell() && t.stall.is_some() => {
                failed += 1;
                t.stall.as_ref().map_or(0, |s| s.in_flight)
            }
            (status, _) => return Err(format!("{label}: unexpected status {}", status.label())),
        };
        checks::cell_conservation(label, row, in_flight)?;
        if rec.status == RunStatus::Ok
            && checks::mesh_connected(8, 8, &cell.faults)
            && row.delivered != row.injected
        {
            return Err(format!(
                "{label}: connected mesh delivered {} of {}",
                row.delivered, row.injected
            ));
        }
        if cell.faults.is_empty() && row.injected != NODES * cfg.ppn {
            return Err(format!("{label}: injected {} of {}", row.injected, NODES * cfg.ppn));
        }
    }
    Ok(failed)
}

/// Runs every cell directly through `run_experiment`, checks each against
/// its grid row, and returns the reports and the wall seconds.
fn direct_pass(cells: &[Cell], rep: &CampaignRunReport) -> Result<(Vec<RunReport>, f64), String> {
    let t0 = Instant::now();
    let reports: Vec<RunReport> = cells.iter().map(|c| sim::run_direct(&c.op).0).collect();
    let wall = t0.elapsed().as_secs_f64();
    for ((cell, rec), r) in cells.iter().zip(&rep.runner.records).zip(&reports) {
        let row = rec.payload.as_ref().expect("checked by check_grid");
        checks::campaign_row_matches(&cell.key, row, r)?;
        if cell.faults.is_empty() {
            checks::fault_free_delivery(&cell.key, r, row.injected)?;
        }
    }
    Ok((reports, wall))
}

fn stalled(cells: &[Cell], reports: &[RunReport]) -> u64 {
    cells.iter().zip(reports).filter(|(c, r)| c.is_stalled_cell() && r.stall.is_some()).count()
        as u64
}

/// Runs the campaign workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let cfg = CampaignConfig { seed: REFERENCE_SEED, ..CampaignConfig::default() };
    let cells = cells(&cfg);
    let rcfg = RunnerConfig {
        blackbox: Some(BlackboxConfig { dir: ctx.dir("campaign-postmortems")?, capacity: 0 }),
        ..RunnerConfig::serial()
    };
    let journeys = ctx.dir("campaign-journeys")?;
    let grid = || -> Result<(CampaignRunReport, f64), String> {
        let t0 = Instant::now();
        let rep = run_campaign_runner_instrumented(
            &cfg,
            &rcfg,
            &ChaosOptions::default(),
            None,
            Some((&journeys, JOURNEYS_EVERY)),
        )?;
        Ok((rep, t0.elapsed().as_secs_f64()))
    };
    let n = cells.len() as u64;
    let mut out = Outcome::default();

    if !ctx.trace {
        let mut e = E2e::default();
        let mut first: Option<(CampaignRunReport, String)> = None;
        loop {
            let (rep, wall) = grid()?;
            out.attempted += n;
            out.failed += check_grid(&cfg, &cells, &rep)?;
            let csv = rep.to_csv();
            e.round_walls.push(wall);
            for rec in &rep.runner.records {
                e.op_ms.push(rec.wall_ms);
                e.op_cycles.push(rec.payload.as_ref().map_or(0.0, |p| p.cycles as f64));
            }
            match &first {
                None => first = Some((rep, csv)),
                Some((_, want)) => checks::identical("campaign grid", want, &csv)?,
            }
            e.setups.extend(time_setups(SETUPS_PER_GRID, || {
                for c in self::cells(&cfg) {
                    black_box(sim::build(&c.op.cfg));
                }
            }));
            if ctx.done(e.op_ms.len()) {
                break;
            }
        }
        let (rep, _) = first.expect("at least one grid ran");
        let (reports, _) = direct_pass(&cells, &rep)?;
        out.attempted += n;
        out.failed += stalled(&cells, &reports);
        for r in &reports {
            e.sim.add(r, NODES);
        }
        e.metrics(&mut out.metrics)?;
        return Ok(out);
    }

    let ops: Vec<SimOp> = cells.iter().map(|c| c.op.clone()).collect();
    let mut passes = Passes::default();
    let mut agg = SimAgg::default();
    let mut want: Option<Vec<String>> = None;
    loop {
        let (rep, wall) = grid()?;
        out.failed += check_grid(&cfg, &cells, &rep)?;
        passes.runner_s += wall;
        let (reports, direct_s) = direct_pass(&cells, &rep)?;
        passes.direct_s += direct_s;
        let fps: Vec<String> = reports.iter().map(fingerprint).collect();
        if want.is_none() {
            for r in &reports {
                agg.add(r, NODES);
            }
            want = Some(fps.clone());
        }
        let w = want.as_ref().expect("set above");
        for ((c, a), b) in cells.iter().zip(w).zip(&fps) {
            checks::identical(&c.key, a, b)?;
        }
        passes.manual_passes(&ops, w)?;
        out.attempted += 4 * n;
        out.failed += 3 * stalled(&cells, &reports);
        if ctx.traced_done() {
            break;
        }
    }
    passes.metrics(&agg, &mut out.metrics);
    crate::probes::all(ctx.seed, &ops[0], &mut out.metrics)?;
    crate::serve::layer_probe(ctx, &mut out.metrics)?;
    ctx.write_spans(&passes.spans)?;
    Ok(out)
}
