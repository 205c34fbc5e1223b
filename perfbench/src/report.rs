//! The result line: correctness, operation counts and named metrics.

use std::fmt::Write as _;

/// Named metrics with units, in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// What one benchmark run found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Renders the single JSON result line.
///
/// # Panics
///
/// Panics on a non-finite metric: every reported value must be a number.
pub fn render(correct: bool, outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.attempted, outcome.failed
    );
    for (i, (name, value, unit)) in outcome.metrics.0.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is {value}");
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_digit() {
        let mut o = Outcome { attempted: 35, failed: 1, ..Outcome::default() };
        o.metrics.push("grid_wall_s", 4.123456789012, "s");
        o.metrics.push("sim_exec_cycles", 12345.0, "cycles");
        assert_eq!(
            render(true, &o),
            "{\"correct\":true,\"attempted\":35,\"failed\":1,\"metrics\":{\
             \"grid_wall_s\":{\"value\":4.123456789012,\"unit\":\"s\"},\
             \"sim_exec_cycles\":{\"value\":12345.0,\"unit\":\"cycles\"}}}"
        );
    }
}
