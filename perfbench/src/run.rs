//! Shared machinery of a benchmark run: the run context, end-to-end metric
//! assembly, and the passes of the traced run.

use crate::report::Metrics;
use crate::sim::{self, fingerprint, SimAgg, SimOp};
use crate::spans::Spans;
use crate::stats::{median, peak_rss_mb};
use intellinoc::{run_units, ChaosOptions, RunnerConfig, UnitCtx, UnitVerdict};
use noc_sim::RunReport;
use std::path::PathBuf;
use std::time::Instant;

/// Operations a run performs at the least.
pub const MIN_OPS: usize = 100;

/// Master seed of every workload's reference round, whose simulated
/// statistics are the `sim_*` metrics. It does not depend on `--seed`, so
/// those metrics read the same on every run and move only when the
/// simulated model does. It is also the campaign's pinned master seed.
pub const REFERENCE_SEED: u64 = 1;

/// Command-line settings and the run's scratch directories.
#[derive(Debug)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Per-run scratch (state dirs, bundles, journeys); removed at exit.
    pub work: PathBuf,
    /// Where span dumps are written.
    pub out: PathBuf,
    pub started: Instant,
}

impl Ctx {
    /// Whether the measuring loop may stop after `ops` operations.
    pub fn done(&self, ops: usize) -> bool {
        self.started.elapsed().as_secs_f64() >= self.seconds && ops >= MIN_OPS
    }

    /// Whether the traced loop may stop (after at least one round).
    pub fn traced_done(&self) -> bool {
        self.started.elapsed().as_secs_f64() >= self.seconds
    }

    pub fn dir(&self, name: &str) -> Result<PathBuf, String> {
        let d = self.work.join(name);
        std::fs::create_dir_all(&d).map_err(|e| format!("create {}: {e}", d.display()))?;
        Ok(d)
    }

    /// Writes the traced pass's spans next to the other outputs.
    pub fn write_spans(&self, spans: &Spans) -> Result<(), String> {
        std::fs::create_dir_all(&self.out)
            .map_err(|e| format!("create {}: {e}", self.out.display()))?;
        let path = self.out.join(format!("spans-{}-seed{}.jsonl", self.workload, self.seed));
        std::fs::write(&path, spans.to_jsonl())
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// What the untraced measuring loop records.
#[derive(Debug, Default)]
pub struct E2e {
    /// Wall seconds of each round.
    pub round_walls: Vec<f64>,
    /// Wall milliseconds of each operation.
    pub op_ms: Vec<f64>,
    /// Simulated cycles of each operation.
    pub op_cycles: Vec<f64>,
    /// Seconds of each repeated set-up, a few after every round.
    pub setups: Vec<f64>,
    /// Simulated statistics of the reference round.
    pub sim: SimAgg,
}

impl E2e {
    pub fn metrics(&self, m: &mut Metrics) -> Result<(), String> {
        let rates: Vec<f64> =
            self.op_cycles.iter().zip(&self.op_ms).map(|(c, ms)| c / (ms / 1e3)).collect();
        m.push("sim_cycles_per_s", median(&rates), "cycles/s");
        m.push("grid_wall_s", median(&self.round_walls), "s");
        if self.op_ms.len() < MIN_OPS {
            return Err(format!("only {} operations ran; a run needs {MIN_OPS}", self.op_ms.len()));
        }
        m.push("job_done_ms_p50", median(&self.op_ms), "ms");
        m.push("setup_s", median(&self.setups), "s");
        m.push("peak_rss_mb", peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?, "MB");
        let s = &self.sim;
        m.push("sim_exec_cycles", s.exec_cycles as f64, "cycles");
        m.push("sim_avg_latency_cycles", s.avg_latency(), "cycles");
        m.push("sim_p99_latency_cycles", s.hist.percentile(0.99), "cycles");
        m.push("sim_energy_per_flit_pj", s.energy_per_flit_pj(), "pJ");
        m.push("sim_mttf_hours", s.mttf_hours().ok_or("no simulated router aged")?, "hours");
        Ok(())
    }
}

/// Times `reps` repetitions of a set-up; returns seconds per repetition.
pub fn time_setups(reps: usize, mut setup: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            setup();
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// The four passes of a traced round over the same operations:
/// the runner engine, `run_experiment` directly, and the public-call
/// loop without and with spans. All four must agree exactly.
#[derive(Debug)]
pub struct Passes {
    pub runner_s: f64,
    pub direct_s: f64,
    pub manual_s: f64,
    pub traced_s: f64,
    pub units: u64,
    pub cycles: u64,
    pub delivered: u64,
    pub spans: Spans,
}

impl Default for Passes {
    fn default() -> Self {
        Passes {
            runner_s: 0.0,
            direct_s: 0.0,
            manual_s: 0.0,
            traced_s: 0.0,
            units: 0,
            cycles: 0,
            delivered: 0,
            spans: Spans::new(true),
        }
    }
}

impl Passes {
    /// The runner, manual and traced passes over `ops`, each checked
    /// against `want` (the direct pass's fingerprints, whose wall time
    /// `direct_s` the caller measured). The passes alternate per operation
    /// so that drift in the host's speed falls on all of them alike.
    pub fn round(
        &mut self,
        ops: &[SimOp],
        want: &[String],
        direct_s: f64,
    ) -> Result<Vec<RunReport>, String> {
        self.direct_s += direct_s;
        let mut reports = Vec::with_capacity(ops.len());
        for (op, w) in ops.iter().zip(want) {
            self.runner_pass(std::slice::from_ref(op), std::slice::from_ref(w))?;
            reports.extend(self.manual_passes(std::slice::from_ref(op), std::slice::from_ref(w))?);
        }
        Ok(reports)
    }

    /// `ops` through the runner engine, serially.
    pub fn runner_pass(&mut self, ops: &[SimOp], want: &[String]) -> Result<(), String> {
        let keys: Vec<String> = ops.iter().map(|o| o.label.clone()).collect();
        let t0 = Instant::now();
        let rep = run_units(
            0,
            &keys,
            &RunnerConfig::serial(),
            &ChaosOptions::default(),
            |ctx: &UnitCtx| {
                let op =
                    ops.iter().find(|o| o.label == ctx.key).expect("runner runs supplied keys");
                UnitVerdict::Ok(sim::run_direct(op).0)
            },
        )?;
        self.runner_s += t0.elapsed().as_secs_f64();
        for (rec, w) in rep.records.iter().zip(want) {
            let got = rec.payload.as_ref().map(fingerprint).unwrap_or_default();
            crate::checks::identical(&format!("{} via runner", rec.key), w, &got)?;
        }
        Ok(())
    }

    /// `ops` driven through public calls, untraced and then traced; returns
    /// the traced reports.
    pub fn manual_passes(
        &mut self,
        ops: &[SimOp],
        want: &[String],
    ) -> Result<Vec<RunReport>, String> {
        let mut reports = Vec::with_capacity(ops.len());
        for (op, w) in ops.iter().zip(want) {
            let mut off = Spans::new(false);
            let t0 = Instant::now();
            let (untraced, _) = sim::drive(op, op.cfg.time_step, &mut off);
            self.manual_s += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let (traced, _) = sim::drive(op, op.cfg.time_step, &mut self.spans);
            self.traced_s += t0.elapsed().as_secs_f64();
            crate::checks::identical(
                &format!("{} via public calls", op.label),
                w,
                &fingerprint(&untraced),
            )?;
            crate::checks::identical(&format!("{} traced", op.label), w, &fingerprint(&traced))?;
            self.cycles += traced.stats.cycles;
            self.delivered += traced.stats.packets_delivered;
            self.units += 1;
            reports.push(traced);
        }
        Ok(reports)
    }

    /// Per-layer metrics from the spans and pass wall times.
    pub fn metrics(&self, round: &SimAgg, m: &mut Metrics) {
        let t = self.spans.totals();
        let per_call =
            |name: &str| t.get(name).map_or(0.0, |s| s.total_ns as f64 / s.calls.max(1) as f64);
        let run_ns = t.get("sim.run_cycles").map_or(0.0, |s| s.total_ns as f64);
        m.push("sim.us_per_cycle", run_ns / 1e3 / self.cycles.max(1) as f64, "us");
        m.push("sim.us_per_packet", run_ns / 1e3 / self.delivered.max(1) as f64, "us");
        m.push("sim.new_ms", per_call("sim.new") / 1e6, "ms");
        m.push("sim.observations_us", per_call("sim.observations") / 1e3, "us");
        m.push("sim.report_us", per_call("sim.report") / 1e3, "us");
        m.push(
            "sim.gated_router_share",
            round.gated_router_cycles as f64 / round.router_cycles.max(1) as f64,
            "ratio",
        );
        m.push("sim.reroutes", round.reroutes as f64, "count");
        m.push("sim.hop_retx", round.hop_retx as f64, "count");
        m.push("sim.dropped", round.dropped as f64, "count");
        m.push("sim.faulty_traversals", round.faulty_traversals as f64, "count");
        m.push("experiment.control_step_us", per_call("experiment.control_step") / 1e3, "us");
        m.push(
            "experiment.overhead_pct",
            100.0 * (self.direct_s - self.manual_s) / self.manual_s,
            "%",
        );
        m.push(
            "runner.overhead_ms_per_unit",
            1e3 * (self.runner_s - self.direct_s) / self.units.max(1) as f64,
            "ms",
        );
        m.push(
            "bench.trace_overhead_pct",
            100.0 * (self.traced_s - self.manual_s) / self.manual_s,
            "%",
        );
    }
}
