//! Named metrics with units, and the output checks that gate a run.

use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in the order they were measured.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric { name, value, unit });
    }

    /// The metrics as the body of a JSON object: `"name": {"value": v, "unit": "u"}`.
    pub fn json_body(&self) -> String {
        let mut out = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out
    }
}

/// Output checks and operation counts. A failed check makes the run
/// incorrect; an operation that returned an error counts as failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }
}
