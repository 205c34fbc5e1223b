//! Output checks. Each compares the program's output against a value
//! computed apart from the simulator, or against a property the method
//! must have, and returns a message naming what broke.

use intellinoc::{CampaignRow, JobsSummary};
use noc_ecc::{DecodeStatus, EccScheme};
use noc_sim::{HardFaultKind, HardFaultScenario, HardFaultTarget, RunReport, TxnSummary};
use noc_traffic::{TrafficGen, WorkloadSpec};

pub type Check = Result<(), String>;

fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Check {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// An open-loop run on a fault-free mesh delivers every injected packet,
/// `nodes × packets per node` of them, with no drop and no stall.
pub fn fault_free_delivery(label: &str, report: &RunReport, expected: u64) -> Check {
    let s = &report.stats;
    ensure(
        s.packets_injected == expected
            && s.packets_delivered == expected
            && s.packets_dropped == 0
            && report.stall.is_none(),
        || {
            format!(
                "{label}: expected {expected} packets injected and delivered, got injected {} \
                 delivered {} dropped {} stalled {}",
                s.packets_injected,
                s.packets_delivered,
                s.packets_dropped,
                report.stall.is_some()
            )
        },
    )
}

/// A closed-loop run resolves every transaction and conserves them:
/// issued = completed + failed + shed, nothing left in flight, no auditor
/// violation, and every packet it injected was delivered.
pub fn closed_loop_conservation(label: &str, report: &RunReport, issued: u64) -> Check {
    let txn: &TxnSummary =
        report.txn.as_ref().ok_or_else(|| format!("{label}: no transaction summary"))?;
    ensure(txn.issued == issued, || format!("{label}: issued {} != {issued}", txn.issued))?;
    ensure(txn.completed + txn.failed + txn.shed == txn.issued && txn.in_flight == 0, || {
        format!(
            "{label}: issued {} != completed {} + failed {} + shed {} (in flight {})",
            txn.issued, txn.completed, txn.failed, txn.shed, txn.in_flight
        )
    })?;
    ensure(txn.violations == 0 && txn.orphans.is_empty(), || {
        format!("{label}: conservation auditor reported {} violations", txn.violations)
    })?;
    let s = &report.stats;
    ensure(
        s.packets_delivered == s.packets_injected
            && s.packets_dropped == 0
            && report.stall.is_none(),
        || {
            format!(
                "{label}: injected {} delivered {} dropped {}",
                s.packets_injected, s.packets_delivered, s.packets_dropped
            )
        },
    )
}

/// Two repetitions of the same seeded work produced identical statistics.
pub fn identical(label: &str, first: &str, again: &str) -> Check {
    ensure(first == again, || format!("{label}: simulated statistics differ between repetitions"))
}

/// The packets an open-loop workload's generator schedules when replayed
/// alone, with no network in the loop: their count and mesh distances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    pub packets: u64,
    pub mean_hops: f64,
    /// Standard error of `mean_hops` as an estimate of the distribution's
    /// mean distance.
    pub hops_stderr: f64,
}

/// Replays `spec`'s generator on a `width × height` mesh as if no window
/// ever throttled injection.
pub fn replay_schedule(spec: &WorkloadSpec, width: usize, height: usize, seed: u64) -> Schedule {
    let mut gen = TrafficGen::new(spec.clone(), width, height, seed);
    let (mut packets, mut sum, mut sum_sq) = (0u64, 0f64, 0f64);
    let mut cycle = 0u64;
    while !gen.is_exhausted() {
        for node in 0..width * height {
            if let Some(dest) = gen.poll(cycle, node, 0) {
                let hops = ((node % width).abs_diff(dest % width)
                    + (node / width).abs_diff(dest / width)) as f64;
                packets += 1;
                sum += hops;
                sum_sq += hops * hops;
            }
        }
        cycle += 1;
    }
    let n = packets.max(1) as f64;
    let mean_hops = sum / n;
    let var = (sum_sq / n - mean_hops * mean_hops).max(0.0);
    Schedule { packets, mean_hops, hops_stderr: (var / n).sqrt() }
}

/// The run cannot finish before its last packet was injected.
pub fn exec_after_last_injection(label: &str, exec_cycles: u64, last_injection: u64) -> Check {
    ensure(exec_cycles >= last_injection, || {
        format!("{label}: execution ended at cycle {exec_cycles}, before the last injection at {last_injection}")
    })
}

/// Zero-load bound: a packet spends at least one cycle per hop and its
/// tail trails the head by `flits − 1` cycles, so the mean latency is at
/// least the mean distance plus `flits − 1`. The network's packets are a
/// draw from the same distribution as the replayed schedule (a throttling
/// window reorders the generator's draws), so the mean distance is taken
/// five standard errors below the replay's.
pub fn zero_load_bound(label: &str, avg_latency: f64, sched: &Schedule, flits: usize) -> Check {
    let bound = sched.mean_hops - 5.0 * sched.hops_stderr + (flits as f64 - 1.0);
    ensure(avg_latency >= bound, || {
        format!("{label}: average latency {avg_latency:.3} is below the zero-load bound {bound:.3}")
    })
}

/// Packet conservation of one campaign cell.
pub fn cell_conservation(label: &str, row: &CampaignRow, in_flight: u64) -> Check {
    ensure(row.delivered + row.dropped + in_flight == row.injected, || {
        format!(
            "{label}: delivered {} + dropped {} + in flight {in_flight} != injected {}",
            row.delivered, row.dropped, row.injected
        )
    })
}

/// Whether the mesh stays connected under `scenario`'s permanent faults.
/// Flapping links come back, so they do not disconnect it; a failed router
/// strands its own traffic, so any router failure counts as disconnected.
pub fn mesh_connected(width: usize, height: usize, scenario: &HardFaultScenario) -> bool {
    let n = width * height;
    let mut down = std::collections::BTreeSet::new();
    for f in &scenario.faults {
        if !matches!(f.kind, HardFaultKind::FailStop) {
            continue;
        }
        match f.target {
            HardFaultTarget::Router { .. } => return false,
            HardFaultTarget::Link { router, dir } => {
                let r = router as usize;
                let (x, y) = (r % width, r / width);
                let other = match dir {
                    0 if x + 1 < width => r + 1,
                    1 if x > 0 => r - 1,
                    2 if y + 1 < height => r + width,
                    3 if y > 0 => r - width,
                    _ => continue,
                };
                down.insert((r.min(other), r.max(other)));
            }
        }
    }
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    while let Some(r) = stack.pop() {
        let (x, y) = (r % width, r / width);
        let mut next = Vec::with_capacity(4);
        if x + 1 < width {
            next.push(r + 1);
        }
        if x > 0 {
            next.push(r - 1);
        }
        if y + 1 < height {
            next.push(r + width);
        }
        if y > 0 {
            next.push(r - width);
        }
        for o in next {
            if !seen[o] && !down.contains(&(r.min(o), r.max(o))) {
                seen[o] = true;
                stack.push(o);
            }
        }
    }
    seen.into_iter().all(|s| s)
}

/// A campaign row equals the statistics of the same cell run directly.
pub fn campaign_row_matches(label: &str, row: &CampaignRow, direct: &RunReport) -> Check {
    let s = &direct.stats;
    let same_f64 = |a: f64, b: f64| a.to_bits() == b.to_bits();
    let fields = [
        ("injected", row.injected == s.packets_injected),
        ("delivered", row.delivered == s.packets_delivered),
        ("dropped", row.dropped == s.packets_dropped),
        ("delivery_rate", same_f64(row.delivery_rate, s.delivery_ratio())),
        ("avg_latency", same_f64(row.avg_latency, s.avg_latency())),
        ("p99_latency", same_f64(row.p99_latency, s.latency_percentile(0.99))),
        ("reroutes", row.reroutes == s.reroutes),
        ("hop_retx", row.hop_retx == s.hop_retx_events),
        ("e2e_retx", row.e2e_retx == s.e2e_retx_packets),
        ("stalled", row.stalled == direct.stall.is_some()),
        ("cycles", row.cycles == s.cycles),
        ("mttf_hours", row.mttf_hours.map(f64::to_bits) == direct.mttf_hours.map(f64::to_bits)),
    ];
    match fields.iter().find(|(_, ok)| !ok) {
        None => Ok(()),
        Some((name, _)) => {
            Err(format!("{label}: campaign row field `{name}` differs from the direct run"))
        }
    }
}

/// Byte-for-byte equality of two report artifacts.
pub fn same_bytes(label: &str, got: &str, want: &str) -> Check {
    ensure(got == want, || {
        let at = got
            .bytes()
            .zip(want.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(want.len()));
        format!("{label}: report differs from the reference at byte {at}")
    })
}

/// Job accounting of the daemon: every accepted job is done, failed or
/// cancelled, and all `submitted` jobs were accepted and finished.
pub fn job_accounting(summary: &JobsSummary, submitted: u64) -> Check {
    ensure(summary.done + summary.failed + summary.cancelled == summary.accepted, || {
        format!(
            "serve: done {} + failed {} + cancelled {} != accepted {}",
            summary.done, summary.failed, summary.cancelled, summary.accepted
        )
    })?;
    ensure(summary.accepted == submitted && summary.done == submitted, || {
        format!(
            "serve: submitted {submitted}, accepted {}, done {}",
            summary.accepted, summary.done
        )
    })
}

/// One decode of a codeword that carried `flips` flipped bits restores the
/// data whenever the scheme corrects that many, and says so.
pub fn ecc_round_trip(
    scheme: EccScheme,
    data: u128,
    decoded: u128,
    status: DecodeStatus,
    flips: u8,
) -> Check {
    let expect = match flips {
        0 => DecodeStatus::Clean,
        k if k <= scheme.corrects() => DecodeStatus::Corrected(k),
        _ => DecodeStatus::Detected,
    };
    let restored = decoded == data || expect == DecodeStatus::Detected;
    ensure(restored && status == expect, || {
        format!(
            "ecc {scheme}: {flips} flipped bits decoded as {status:?}, data restored: {}",
            decoded == data
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_ecc::EccSuite;

    fn report(injected: u64, delivered: u64, dropped: u64) -> RunReport {
        let mut r = intellinoc::run_experiment(intellinoc::ExperimentConfig::new(
            intellinoc::Design::Secded,
            WorkloadSpec::uniform(0.02, 1),
        ))
        .report;
        r.stats.packets_injected = injected;
        r.stats.packets_delivered = delivered;
        r.stats.packets_dropped = dropped;
        r
    }

    #[test]
    fn one_packet_fewer_delivered_is_rejected() {
        assert!(fault_free_delivery("ok", &report(64, 64, 0), 64).is_ok());
        assert!(fault_free_delivery("short", &report(64, 63, 0), 64).is_err());
        assert!(fault_free_delivery("dropped", &report(64, 63, 1), 64).is_err());
    }

    #[test]
    fn one_changed_report_byte_is_rejected() {
        let csv = "key,status\nserve/SECDED/r0.02,ok\n";
        assert!(same_bytes("same", csv, csv).is_ok());
        let mut bytes = csv.as_bytes().to_vec();
        bytes[20] ^= 1;
        let changed = String::from_utf8(bytes).unwrap();
        let err = same_bytes("changed", &changed, csv).unwrap_err();
        assert!(err.contains("byte 20"), "{err}");
        assert!(identical("det", "a", "b").is_err());
    }

    #[test]
    fn conservation_off_by_one_is_rejected() {
        let spec = WorkloadSpec::reqreply(0.03, 1, noc_traffic::ReqReplySpec::default());
        let r = intellinoc::run_experiment(intellinoc::ExperimentConfig::new(
            intellinoc::Design::Secded,
            spec,
        ))
        .report;
        assert!(closed_loop_conservation("clean", &r, 64).is_ok());
        let mut bad = r.clone();
        bad.txn.as_mut().unwrap().completed -= 1;
        assert!(closed_loop_conservation("txn", &bad, 64).is_err());
        assert!(closed_loop_conservation("issued", &r, 65).is_err());

        let row = CampaignRow {
            design: "SECDED".into(),
            scenario: "fault-free".into(),
            injected: 10,
            delivered: 8,
            dropped: 1,
            delivery_rate: 0.8,
            avg_latency: 1.0,
            p99_latency: 1.0,
            reroutes: 0,
            hop_retx: 0,
            e2e_retx: 0,
            stalled: true,
            cycles: 1,
            mttf_hours: None,
            txn_failed: None,
            txn_shed: None,
            txn_violations: None,
        };
        assert!(cell_conservation("cell", &row, 1).is_ok());
        assert!(cell_conservation("cell", &row, 0).is_err());
        assert!(cell_conservation("cell", &row, 2).is_err());

        let summary = JobsSummary {
            accepted: 3,
            queued: 0,
            running: 0,
            done: 3,
            failed: 0,
            cancelled: 0,
            draining: false,
            alerts_firing: Vec::new(),
            jobs: Vec::new(),
        };
        assert!(job_accounting(&summary, 3).is_ok());
        assert!(job_accounting(&JobsSummary { done: 2, ..summary.clone() }, 3).is_err());
        assert!(job_accounting(&JobsSummary { accepted: 4, ..summary }, 3).is_err());
    }

    #[test]
    fn uncorrected_flip_is_rejected() {
        let suite = EccSuite::new();
        let data = 0x0123_4567_89ab_cdef_0011_2233_4455_6677u128;
        for (scheme, flips) in [(EccScheme::Secded, 1u8), (EccScheme::Dected, 2)] {
            let mut cw = suite.encode(scheme, data);
            for b in 0..flips {
                cw.flip_bit(5 + 40 * usize::from(b));
            }
            let (decoded, status) = suite.decode(scheme, &cw);
            assert!(ecc_round_trip(scheme, data, decoded, status, flips).is_ok());
            assert!(ecc_round_trip(scheme, data, decoded ^ 1, status, flips).is_err());
            assert!(ecc_round_trip(scheme, data, decoded, DecodeStatus::Clean, flips).is_err());
        }
        let (decoded, status) = suite.decode(EccScheme::Crc, &suite.encode(EccScheme::Crc, data));
        assert!(ecc_round_trip(EccScheme::Crc, data, decoded, status, 0).is_ok());
    }

    #[test]
    fn replayed_schedule_bounds_reject_impossible_runs() {
        let spec = WorkloadSpec::uniform(0.05, 4);
        let s = replay_schedule(&spec, 8, 8, 9);
        assert_eq!(s.packets, 64 * 4);
        assert!(s.mean_hops > 1.0 && s.hops_stderr > 0.0);
        assert!(exec_after_last_injection("x", 100, 100).is_ok());
        assert!(exec_after_last_injection("x", 99, 100).is_err());
        let low = s.mean_hops - 5.0 * s.hops_stderr + 3.0;
        assert!(zero_load_bound("x", low, &s, 4).is_ok());
        assert!(zero_load_bound("x", low - 0.01, &s, 4).is_err());
    }

    #[test]
    fn connectivity_follows_permanent_faults() {
        use noc_sim::HardFault;
        let link = |router, dir| HardFault {
            at: 0,
            target: HardFaultTarget::Link { router, dir },
            kind: HardFaultKind::FailStop,
        };
        assert!(mesh_connected(8, 8, &HardFaultScenario::none()));
        // Cutting both links of corner router 0 isolates it.
        let cut = HardFaultScenario { faults: vec![link(0, 0), link(0, 2)] };
        assert!(!mesh_connected(8, 8, &cut));
        let one = HardFaultScenario { faults: vec![link(0, 0)] };
        assert!(mesh_connected(8, 8, &one));
        assert!(!mesh_connected(8, 8, &HardFaultScenario::dead_routers(8, 8, 1, 1, 0)));
        assert!(mesh_connected(8, 8, &HardFaultScenario::flapping_links(8, 8, 2, 1, 0, 200, 40)));
    }
}
