//! Per-layer probes of the traced pass: each times calls into one crate's
//! public API on inputs drawn from the run's seed or its workload.

use crate::checks::{self, Check};
use crate::report::Metrics;
use crate::sim::{self, fingerprint, SimOp};
use crate::stats::median;
use intellinoc::{intellinoc_rl_config, run_experiment_instrumented, MetricsOptions, RewardKind};
use intellinoc::{ExperimentConfig, RlControl, TelemetryOptions};
use noc_ecc::{EccScheme, EccSuite};
use noc_fault::{FaultInjector, ThermalGrid};
use noc_rl::{QTable, StateKey, PAPER_QTABLE_CAPACITY};
use noc_sim::{shared_recorder, MetricsHub, DEFAULT_BLACKBOX_CAPACITY};
use noc_traffic::TrafficGen;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// SplitMix64 stream: the generator of the probes' inputs.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn ns_per(t0: Instant, n: usize) -> f64 {
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// Encodes `n` random flits under CRC, SECDED and DECTED, flips as many
/// bits as each scheme corrects, decodes, and checks every round trip.
/// Returns `(scheme label, encode ns, decode ns)` per scheme.
pub fn ecc(seed: u64, n: usize) -> Result<Vec<(&'static str, f64, f64)>, String> {
    let suite = EccSuite::new();
    let mut rng = Rng::new(seed);
    let data: Vec<u128> =
        (0..n).map(|_| (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())).collect();
    let mut out = Vec::new();
    for (label, scheme) in
        [("crc", EccScheme::Crc), ("secded", EccScheme::Secded), ("dected", EccScheme::Dected)]
    {
        let t0 = Instant::now();
        let mut words: Vec<_> = data.iter().map(|&d| suite.encode(scheme, black_box(d))).collect();
        let encode_ns = ns_per(t0, n);
        let flips = scheme.corrects();
        for cw in &mut words {
            let len = cw.len() as u64;
            let first = rng.below(len) as usize;
            if flips >= 1 {
                cw.flip_bit(first);
            }
            if flips >= 2 {
                cw.flip_bit((first + 1 + rng.below(len - 1) as usize) % len as usize);
            }
        }
        let t0 = Instant::now();
        let decoded: Vec<_> = words.iter().map(|cw| suite.decode(scheme, black_box(cw))).collect();
        let decode_ns = ns_per(t0, n);
        for (&d, &(got, status)) in data.iter().zip(&decoded) {
            checks::ecc_round_trip(scheme, d, got, status, flips)?;
        }
        out.push((label, encode_ns, decode_ns));
    }
    Ok(out)
}

/// `QTable` lookups and updates on states drawn from the seed.
fn qtable(seed: u64, m: &mut Metrics) {
    const N: usize = 200_000;
    let mut rng = Rng::new(seed);
    let mut table = QTable::new(5, PAPER_QTABLE_CAPACITY);
    let states: Vec<StateKey> = (0..N).map(|_| StateKey(rng.below(300))).collect();
    let t0 = Instant::now();
    for (i, &s) in states.iter().enumerate() {
        table.nudge(s, i % 5, black_box(-((i % 7) as f32)), 0.1);
    }
    m.push("rl.update_ns", ns_per(t0, N), "ns");
    let t0 = Instant::now();
    for &s in &states {
        black_box(table.best_action(black_box(s)));
    }
    m.push("rl.best_action_ns", ns_per(t0, N), "ns");
}

/// One 64-router control step of the RL policy on observations taken
/// from `op`'s network after one control step.
fn rl_decide(seed: u64, op: &SimOp, m: &mut Metrics) {
    const STEPS: usize = 300;
    let (mut net, _) = sim::build(&op.cfg);
    net.run_cycles(op.cfg.time_step);
    let obs = net.observations();
    let mut rl = RlControl::new(obs.len(), intellinoc_rl_config(), seed, RewardKind::LogSpace);
    let t0 = Instant::now();
    for _ in 0..STEPS {
        black_box(rl.decide(black_box(&obs)));
    }
    m.push("rl.decide_us", ns_per(t0, STEPS) / 1e3, "us");
}

/// Transient-fault sampling for one flit traversal at the design's
/// start-of-run bit error rate.
fn fault_sample(seed: u64, op: &SimOp, m: &mut Metrics) {
    const N: usize = 1_000_000;
    let cfg = op.cfg.design.sim_config();
    let grid = ThermalGrid::new(cfg.thermal, cfg.width, cfg.height);
    let re = cfg.varius.bit_error_rate(grid.temp_c(0), cfg.vdd, 0.0);
    let bits = cfg.default_scheme.codeword_bits();
    let mut inj = FaultInjector::new(seed);
    let t0 = Instant::now();
    for _ in 0..N {
        black_box(inj.sample_flip_count(bits, black_box(re)));
    }
    m.push("fault.sample_ns", ns_per(t0, N), "ns");
}

/// `TrafficGen::poll` for every node and cycle of `op`'s workload.
fn traffic_poll(seed: u64, op: &SimOp, m: &mut Metrics) {
    const MAX_POLLS: usize = 2_000_000;
    let mut spec = op.cfg.workload.clone();
    spec.reqreply = None;
    let mut gen = TrafficGen::new(spec, 8, 8, seed);
    let mut polls = 0usize;
    let t0 = Instant::now();
    let mut cycle = 0u64;
    while !gen.is_exhausted() && polls < MAX_POLLS {
        for node in 0..64 {
            black_box(gen.poll(cycle, node, 0));
        }
        polls += 64;
        cycle += 1;
    }
    m.push("traffic.poll_ns", ns_per(t0, polls), "ns");
}

/// An instrument's name and how to switch it on.
type Instrument = (&'static str, fn(&mut TelemetryOptions));

/// The six instruments, each alone.
fn instruments() -> Vec<Instrument> {
    vec![
        ("trace", |t| t.trace = true),
        ("profile", |t| t.profile = true),
        ("attribution", |t| t.attribution = true),
        ("journeys", |t| t.journeys_every = 16),
        ("blackbox", |t| t.blackbox = Some(shared_recorder(DEFAULT_BLACKBOX_CAPACITY))),
        ("metrics", |t| {
            t.metrics = MetricsOptions {
                hub: Some(Arc::new(MetricsHub::new())),
                file: None,
                every_steps: 1,
            }
        }),
    ]
}

/// Wall time of `op` with each instrument on against all off, alternating
/// configurations; each instrument must leave the statistics unchanged.
fn telemetry(op: &SimOp, m: &mut Metrics) -> Check {
    let base = ExperimentConfig { telemetry: TelemetryOptions::default(), ..op.cfg.clone() };
    let run = |cfg: ExperimentConfig| {
        let t0 = Instant::now();
        let (out, _, _) = run_experiment_instrumented(cfg);
        let wall = t0.elapsed().as_secs_f64();
        (fingerprint(&out.report), wall)
    };
    let (want, first) = run(base.clone());
    let reps = ((1.2 / first).ceil() as usize).clamp(5, 100);
    let variants = instruments();
    let mut off = Vec::new();
    let mut on = vec![Vec::new(); variants.len()];
    for _ in 0..reps {
        off.push(run(base.clone()).1);
        for (i, (name, set)) in variants.iter().enumerate() {
            let mut cfg = base.clone();
            set(&mut cfg.telemetry);
            let (fp, wall) = run(cfg);
            checks::identical(&format!("telemetry {name} on {}", op.label), &want, &fp)?;
            on[i].push(wall);
        }
    }
    let off = median(&off);
    for ((name, _), walls) in variants.iter().zip(&on) {
        m.push(format!("telemetry.overhead_pct.{name}"), 100.0 * (median(walls) - off) / off, "%");
    }
    Ok(())
}

/// Every crate-level probe on inputs from `seed` and `op`.
pub fn all(seed: u64, op: &SimOp, m: &mut Metrics) -> Check {
    for (label, enc, dec) in ecc(seed, 50_000)? {
        m.push(format!("ecc.encode_ns.{label}"), enc, "ns");
        m.push(format!("ecc.decode_ns.{label}"), dec, "ns");
    }
    qtable(seed, m);
    rl_decide(seed, op, m);
    fault_sample(seed, op, m);
    traffic_poll(seed, op, m);
    telemetry(op, m)
}
