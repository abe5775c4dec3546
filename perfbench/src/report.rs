//! Metric collection, percentiles and the JSON lines the benchmark prints.
//!
//! Every run prints a few detail lines (host block, server process block,
//! sample counts) and ends with the one-object result line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

use std::time::Duration;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Sample count behind each timing metric family.
    pub samples: Vec<(String, usize)>,
    /// Free-form facts printed on the detail line (lateness, trace
    /// counters, …), as `(key, value)`.
    pub facts: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct, if it is not.
    pub errors: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    pub fn fact(&mut self, key: impl Into<String>, value: f64) {
        self.facts.push((key.into(), value));
    }

    /// Records `samples` (milliseconds): the median as metric
    /// `<name>_p50`, and on the detail line their count, each tail
    /// percentile with at least ten samples beyond it, and the maximum.
    pub fn latency(&mut self, name: &str, samples: &[f64]) {
        let sorted = sorted(samples);
        self.metric(format!("{name}_p50"), "ms", quantile(&sorted, 0.5));
        for (q, label) in TAILS {
            if sorted.len() as f64 * (1.0 - q) >= 10.0 {
                self.fact(format!("{name}_{label}"), quantile(&sorted, q));
            }
        }
        self.samples.push((name.to_string(), sorted.len()));
        if let Some(&max) = sorted.last() {
            self.fact(format!("{name}_max"), max);
        }
    }

    /// Counts one failed operation and remembers why.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.errors.push(why.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The detail line: sample counts, facts and errors.
    pub fn detail_line(&self, workload: &str) -> String {
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, n)| format!("{}: {n}", json_str(k)))
            .collect();
        let facts: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
            .collect();
        let errors: Vec<String> = self.errors.iter().map(|e| json_str(e)).collect();
        format!(
            "{{\"workload\": {}, \"samples\": {{{}}}, \"facts\": {{{}}}, \"errors\": [{}]}}",
            json_str(workload),
            samples.join(", "),
            facts.join(", "),
            errors.join(", ")
        )
    }

    /// The result line the contract requires as the last line of stdout.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Tail percentiles printed next to a latency's median when the sample
/// supports them.  They are not contract metrics: on a shared two-core
/// host their run-to-run spread exceeds any bound a regression check can
/// use.
const TAILS: [(f64, &str); 2] = [(0.9, "p90"), (0.99, "p99")];

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile over a sorted slice (the definition the
/// repository's `LatencyStats` uses, kept at full precision instead of
/// whole microseconds).  `NaN` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A JSON number; non-finite values (which the self-test rejects) print as
/// `null` so the line stays parseable.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.metric("x_ms", "ms", 1.5);
        r.attempted = 3;
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        r.fail("boom");
        assert!(r.result_line().starts_with("{\"correct\": false"));
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
