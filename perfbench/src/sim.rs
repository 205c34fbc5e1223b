//! One simulation operation, run three ways: through `run_experiment`,
//! through the runner engine, or driven call by call through the public
//! `Network` and `ControlPolicy` API (the traced pass), plus the
//! aggregation of simulated statistics over a round of operations.

use crate::spans::Spans;
use intellinoc::{ControlPolicy, Design, ExperimentConfig, RlControl};
use noc_sim::{shared_recorder, LatencyHistogram, Network, RunReport, DEFAULT_BLACKBOX_CAPACITY};
use std::time::Instant;

/// One simulation of a workload: a label and the experiment it runs.
#[derive(Debug, Clone)]
pub struct SimOp {
    pub label: String,
    pub cfg: ExperimentConfig,
    /// Run with a fresh flight recorder installed, as campaign cells do.
    pub blackbox: bool,
}

impl SimOp {
    pub fn new(label: impl Into<String>, cfg: ExperimentConfig) -> Self {
        SimOp { label: label.into(), cfg, blackbox: false }
    }

    /// The experiment config with this operation's instruments installed.
    pub fn config(&self) -> ExperimentConfig {
        let mut cfg = self.cfg.clone();
        if self.blackbox {
            cfg.telemetry.blackbox = Some(shared_recorder(DEFAULT_BLACKBOX_CAPACITY));
        }
        cfg
    }
}

/// Exact text of a report: equal strings mean identical statistics.
pub fn fingerprint(report: &RunReport) -> String {
    serde_json::to_string(report).expect("run reports serialize")
}

/// Runs `op` through `run_experiment`; returns its report and wall seconds.
pub fn run_direct(op: &SimOp) -> (RunReport, f64) {
    let cfg = op.config();
    let t0 = Instant::now();
    let out = intellinoc::run_experiment(cfg);
    (out.report, t0.elapsed().as_secs_f64())
}

/// The traffic seed `run_experiment` hands the network for `cfg`.
pub fn traffic_seed(cfg: &ExperimentConfig) -> u64 {
    cfg.seed.wrapping_mul(31).wrapping_add(7)
}

/// The network (with `cfg`'s recorder and journey tracing installed) and
/// the control policy `run_experiment` would build for `cfg`.
pub fn build(cfg: &ExperimentConfig) -> (Network, ControlPolicy) {
    let mut sim_cfg = cfg.design.sim_config();
    sim_cfg.seed = cfg.seed;
    sim_cfg.max_cycles = cfg.max_cycles;
    if !cfg.hard_faults.is_empty() {
        sim_cfg.hard_faults = cfg.hard_faults.clone();
    }
    if cfg.fault_aware_routing {
        sim_cfg.fault_aware_routing = true;
    }
    let routers = sim_cfg.nodes();
    let mut net = Network::new(sim_cfg, cfg.workload.clone(), traffic_seed(cfg));
    net.set_error_rate_override(cfg.error_rate_override);
    if let Some(bb) = &cfg.telemetry.blackbox {
        net.install_blackbox(bb.clone());
    }
    if cfg.telemetry.journeys_every > 0 {
        net.install_journeys(cfg.seed, cfg.telemetry.journeys_every);
    }
    let policy = match cfg.design {
        Design::IntelliNoc => {
            ControlPolicy::Rl(Box::new(RlControl::new(routers, cfg.rl, cfg.seed, cfg.reward)))
        }
        Design::Cpd => ControlPolicy::CpdHeuristic(vec![0; routers]),
        _ => ControlPolicy::Static,
    };
    (net, policy)
}

/// Drives `op` through public simulator calls, `chunk` cycles per
/// `run_cycles` call and the control policy every `time_step` cycles as
/// `run_experiment` does, with a span around each call. The report must
/// equal [`run_direct`]'s exactly. Also returns the first cycle of the
/// last `run_cycles` call that injected a packet: with `chunk` 1, the
/// cycle of the last injection.
pub fn drive(op: &SimOp, chunk: u64, spans: &mut Spans) -> (RunReport, u64) {
    let cfg = op.config();
    assert!(chunk > 0 && cfg.time_step.is_multiple_of(chunk), "chunk must divide the control step");
    let whole = spans.enter("op");
    let (mut net, mut policy) = spans.time("sim.new", || build(&cfg));
    let routers = net.config().nodes();
    let (mut injected, mut last_injection) = (0, 0);
    'run: loop {
        for _ in 0..cfg.time_step / chunk {
            let start = net.now();
            let done = spans.time("sim.run_cycles", || net.run_cycles(chunk));
            if net.stats().packets_injected > injected {
                injected = net.stats().packets_injected;
                last_injection = start;
            }
            if done {
                break 'run;
            }
        }
        let step = spans.enter("experiment.control_step");
        let obs = spans.time("sim.observations", || net.observations());
        let decisions = policy.decisions_per_step(routers);
        if decisions > 0 {
            net.charge_rl_decisions(decisions);
        }
        let directives = spans.time("policy.decide", || policy.decide(&obs));
        if let Some(d) = directives {
            spans.time("sim.apply_directives", || net.apply_directives(&d));
        }
        spans.exit(step);
    }
    let report = spans.time("sim.report", || net.report());
    spans.exit(whole);
    (report, last_injection)
}

/// Simulated statistics summed over a round of operations.
#[derive(Debug, Clone)]
pub struct SimAgg {
    pub exec_cycles: u64,
    pub cycles: u64,
    pub delivered: u64,
    pub latency_sum: u64,
    pub hist: LatencyHistogram,
    pub energy_pj: f64,
    pub inv_mttf: f64,
    pub mttf_runs: u64,
    pub gated_router_cycles: u64,
    pub router_cycles: u64,
    pub reroutes: u64,
    pub hop_retx: u64,
    pub dropped: u64,
    pub faulty_traversals: u64,
}

impl Default for SimAgg {
    fn default() -> Self {
        SimAgg {
            exec_cycles: 0,
            cycles: 0,
            delivered: 0,
            latency_sum: 0,
            hist: LatencyHistogram::new(),
            energy_pj: 0.0,
            inv_mttf: 0.0,
            mttf_runs: 0,
            gated_router_cycles: 0,
            router_cycles: 0,
            reroutes: 0,
            hop_retx: 0,
            dropped: 0,
            faulty_traversals: 0,
        }
    }
}

impl SimAgg {
    pub fn add(&mut self, r: &RunReport, routers: u64) {
        let s = &r.stats;
        self.exec_cycles += r.exec_cycles;
        self.cycles += s.cycles;
        self.delivered += s.packets_delivered;
        self.latency_sum += s.latency_sum;
        self.hist.merge(&s.latency_hist);
        self.energy_pj += r.power.total_energy_pj();
        if let Some(h) = r.mttf_hours {
            self.inv_mttf += 1.0 / h;
            self.mttf_runs += 1;
        }
        self.gated_router_cycles += s.gated_router_cycles;
        self.router_cycles += s.cycles * routers;
        self.reroutes += s.reroutes;
        self.hop_retx += s.hop_retx_events;
        self.dropped += s.packets_dropped;
        self.faulty_traversals += s.faulty_traversals;
    }

    /// Packet-weighted mean latency over the round.
    pub fn avg_latency(&self) -> f64 {
        self.latency_sum as f64 / self.delivered.max(1) as f64
    }

    /// Energy per delivered flit over the round.
    pub fn energy_per_flit_pj(&self) -> f64 {
        self.energy_pj / (self.delivered.max(1) * noc_sim::FLITS_PER_PACKET as u64) as f64
    }

    /// Harmonic mean of the runs' extrapolated MTTFs (the inverse of their
    /// mean failure rate); `None` if no run aged.
    pub fn mttf_hours(&self) -> Option<f64> {
        (self.mttf_runs > 0).then(|| self.mttf_runs as f64 / self.inv_mttf)
    }
}
