//! Metric names, units and the result line.
//!
//! The two lists here are the benchmark's contract with
//! `BENCHMARK.json`: an untraced run reports every [`END_TO_END`]
//! metric, a traced run every [`PER_LAYER`] metric. A per-layer metric
//! of a layer the workload does not exercise (the bus on a closed loop,
//! the journal on the in-memory sentry) reads 0 and is listed as `n/a`
//! in the human-readable summary.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("events_per_s", "1/s"),
    ("detect_p50_ms", "ms"),
    ("detect_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, grouped by layer.
pub const PER_LAYER: [(&str, &str); 45] = [
    // sentry::event, sentry::bus (fleet-paced)
    ("bus.frames", "count"),
    ("bus.decode_errors", "count"),
    ("bus.refused", "count"),
    ("bus.send_block_ms", "ms"),
    ("bus.pickup_lag_ms_p50", "ms"),
    ("bus.pickup_lag_ms_p99", "ms"),
    ("gen.lateness_ms_p99", "ms"),
    // sentry::session
    ("session.apply_ns", "ns"),
    ("session.started", "count"),
    ("session.retained", "count"),
    // sentry::service
    ("service.ingest_ns", "ns"),
    ("service.poll_us_mean", "us"),
    ("service.poll_us_p99", "us"),
    ("service.polls", "count"),
    ("service.verdicts_per_poll", "count"),
    ("service.staleness_events_p99", "events"),
    ("service.stall_ms_max", "ms"),
    // accel::shard / accel::stream
    ("mux.shards", "count"),
    ("mux.lanes", "count"),
    ("mux.ticks", "count"),
    ("mux.occupancy", "share"),
    ("mux.ticks_per_verdict", "ticks"),
    ("mux.verdict_ticks_p50", "ticks"),
    ("mux.verdict_ticks_p99", "ticks"),
    ("mux.steals", "count"),
    ("mux.shed", "count"),
    // accel::engine over tensor::lanes
    ("engine.windows_per_s", "1/s"),
    // sentry::journal / durable / snapshot
    ("durable.ingest_us", "us"),
    ("durable.poll_us", "us"),
    ("durable.checkpoint_ms_mean", "ms"),
    ("durable.checkpoint_ms_max", "ms"),
    ("durable.checkpoints", "count"),
    ("journal.syncs", "count"),
    ("journal.bytes", "bytes"),
    ("checkpoint.bytes", "bytes"),
    ("recovery.replayed_events", "count"),
    ("recovery_s", "s"),
    // outcome
    ("fail_share", "share"),
    // single-shard reference (corpus-burst)
    ("ref.one_shard_events_per_s", "1/s"),
    ("ref.one_shard_poll_us", "us"),
    // the trace itself
    ("trace.events_per_s", "1/s"),
    ("trace.untraced_events_per_s", "1/s"),
    ("trace.overhead_share", "share"),
    ("trace.coverage", "share"),
    ("trace.unattributed_share", "share"),
];

/// What one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Processes sent.
    pub attempted: u64,
    /// Processes whose live incident set differed from the oracle, or
    /// that lost a window.
    pub failed: u64,
    /// Failed invariants other than per-process failures.
    pub errors: Vec<String>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Free-form lines for the human-readable summary.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed invariant unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.errors.push(what.into());
        }
    }

    /// Whether every output matched the oracle and every invariant held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Prints the summary, every metric of `list` by name with its unit,
    /// and then the result line. A metric the workload did not measure
    /// prints as `n/a` and reads 0 in the result line.
    pub fn print(&self, list: &[(&'static str, &'static str)]) {
        let share = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "fail_share = {share} ({} of {} processes)",
            self.failed, self.attempted
        );
        for e in &self.errors {
            println!("error: {e}");
        }
        for n in &self.notes {
            println!("{n}");
        }
        let mut json = String::from("{");
        for (i, &(name, unit)) in list.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(&v) => {
                    println!("{name} = {v} {unit}");
                    v
                }
                None => {
                    println!("{name} = n/a");
                    0.0
                }
            };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        json.push('}');
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {json}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the code reports is declared in `BENCHMARK.json`
    /// with the same unit, and nothing else is.
    #[test]
    fn lists_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let declared = spec.matches("\"name\"").count();
        // Workloads are declared with the same key, each with a "why".
        let workloads = spec.matches("\"why\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + workloads);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn names_follow_the_naming_rule() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(unit.len() <= 16);
        }
    }
}
