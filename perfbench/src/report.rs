//! What one workload run reports, and how it is printed.

use crate::stats::Tally;
use crate::workloads::END_TO_END;

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Self {
        Self { name: name.to_string(), unit, value }
    }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    pub tally: Tally,
    /// Every output check passed (and nothing failed).
    pub checks_passed: bool,
    /// The end-to-end metrics of `BENCHMARK.json`, in its order.
    pub end_to_end: Vec<Metric>,
    /// The named view of the same run (see NOTES.md): every end-to-end metric the
    /// workload defines, with notes (sample counts, percentiles).
    pub table: Vec<(Metric, String)>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    pub provenance: Vec<(&'static str, String)>,
    /// Per-layer metrics that read 0 or are not reported, and why.
    pub dropped: Vec<(&'static str, &'static str)>,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Self { workload, checks_passed: true, ..Self::default() }
    }

    /// Adds a table row.
    pub fn row(&mut self, name: &str, unit: &'static str, value: f64, note: impl Into<String>) {
        self.table.push((Metric::new(name, unit, value), note.into()));
    }

    /// Sets the end-to-end metrics, valued in [`END_TO_END`] order.
    pub fn set_end_to_end(&mut self, values: [f64; END_TO_END.len()]) {
        self.end_to_end = END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), v)| Metric::new(name, unit, v))
            .collect();
    }

    pub fn prov(&mut self, key: &'static str, value: impl ToString) {
        self.provenance.push((key, value.to_string()));
    }

    /// Correct when every check passed, no operation failed and every
    /// reported value is a number.
    pub fn correct(&self) -> bool {
        let finite = self.end_to_end.iter().chain(&self.layers).all(|m| m.value.is_finite());
        self.checks_passed && finite && self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// Human-readable lines: every metric with its unit and a note, then
    /// provenance.
    pub fn print_table(&self, traced: bool) {
        println!("== {} ({})", self.workload, if traced { "traced" } else { "timed" });
        let note =
            |name: &str| self.dropped.iter().find(|(n, _)| *n == name).map_or("", |(_, why)| *why);
        // A traced run prints the per-layer metrics, then any extras.
        let layers = self.layers.iter().filter(|_| traced).map(|m| (m, note(&m.name)));
        let rows = layers.chain(self.table.iter().map(|(m, n)| (m, n.as_str())));
        for (m, note) in rows {
            println!("{:<34} {:>16.4} {:<8} {}", m.name, m.value, m.unit, note);
        }
        println!(
            "{:<34} {:>16.4} {:<8} {} failed of {} attempted",
            "fail_ratio",
            self.tally.fail_ratio(),
            "ratio",
            self.tally.failed,
            self.tally.attempted
        );
        for (name, why) in
            self.dropped.iter().filter(|(n, _)| !self.layers.iter().any(|m| m.name == *n))
        {
            println!("{name:<34} {:>16} {:<8} dropped: {why}", "-", "");
        }
        let prov: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        println!("provenance {{{}}}", prov.join(", "));
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self, traced: bool) -> String {
        let metrics = if traced { &self.layers } else { &self.end_to_end };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; `correct()` is false then.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("{}: {{\"value\": {v}, \"unit\": {}}}", json_str(&m.name), json_str(m.unit))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            body.join(", ")
        )
    }
}

/// A JSON string literal.
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
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("w");
        r.tally.record(true);
        r.end_to_end.push(Metric::new("setup_s", "s", 0.8127));
        r.layers.push(Metric::new("loadgen.sent", "count", 3.0));
        assert_eq!(
            r.json(false),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(r.json(true).contains("\"loadgen.sent\": {\"value\": 3, \"unit\": \"count\"}"));
        r.tally.record(false);
        assert!(r.json(false).starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
