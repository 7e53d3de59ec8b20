//! What one run reports, and the JSON line it ends with.

use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The outcome of one run of one workload.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Correctness failures: any entry makes the run `correct: false`.
    pub failures: Vec<String>,
    /// Operations attempted (jobs submitted or solves started).
    pub attempted: u64,
    /// Operations that did not complete (e.g. no terminal frame within
    /// the bounded wait); checks cover the ones that did.
    pub failed: u64,
    /// Latency samples behind `lat_*` (shown in the summary line).
    pub samples: usize,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// The last line of a run's standard output.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        )
        .unwrap();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // JSON has no NaN or infinity; a metric that could not be
            // measured reads 0 rather than producing an unparsable line.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
            .unwrap();
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys_and_every_digit() {
        let mut r = RunReport {
            attempted: 10,
            failed: 1,
            ..RunReport::default()
        };
        r.metrics.push(metric("latency_ms", 1.203_412_5, "ms"));
        r.metrics.push(metric("count", 3.0, "count"));
        let line = r.to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.2034125, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        r.fail("planted");
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }
}
