//! Raw samples of an untraced run, and how runs in separate processes
//! pool them.
//!
//! Timing on a small shared host differs from process to process (memory
//! layout, thread placement) by more than it drifts within one process.
//! An untraced run therefore measures in [`CHILDREN`] fresh processes,
//! one after another, each with an equal share of the time budget, and
//! reports statistics over their pooled samples. A child writes its
//! samples to a file the parent names; the format is one line per
//! series, a key and then whitespace-separated values.

use std::fmt::Write as _;
use std::path::Path;

use crate::report::Report;
use crate::stats;

/// Processes an untraced run measures in.
pub const CHILDREN: usize = 3;

/// Samples behind the end-to-end metrics.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Samples {
    /// Throughput, events per second, per chunk (closed loop) or per
    /// pass (open loop).
    pub rates: Vec<f64>,
    /// Detection latencies in the order incidents were raised, ms.
    pub detect_ms: Vec<f64>,
    /// Set-up times, s.
    pub setup_s: Vec<f64>,
    /// Peak resident memory of each measuring process, MB.
    pub peak_rss_mb: Vec<f64>,
    /// Recovery times after a crash, s (`durable-crash` only).
    pub recovery_s: Vec<f64>,
    /// Share of the machine's CPU time the host stole, per pass.
    pub steal: Vec<f64>,
}

impl Samples {
    fn series(&self) -> [(&'static str, &Vec<f64>); 6] {
        [
            ("rates", &self.rates),
            ("detect", &self.detect_ms),
            ("setup", &self.setup_s),
            ("rss", &self.peak_rss_mb),
            ("recovery", &self.recovery_s),
            ("steal", &self.steal),
        ]
    }

    fn series_mut(&mut self, key: &str) -> Option<&mut Vec<f64>> {
        Some(match key {
            "rates" => &mut self.rates,
            "detect" => &mut self.detect_ms,
            "setup" => &mut self.setup_s,
            "rss" => &mut self.peak_rss_mb,
            "recovery" => &mut self.recovery_s,
            "steal" => &mut self.steal,
            _ => return None,
        })
    }

    /// Appends `other`'s samples to these.
    pub fn extend(&mut self, other: &Samples) {
        for (key, values) in other.series() {
            self.series_mut(key)
                .expect("every series has a key")
                .extend_from_slice(values);
        }
    }

    /// Serialises the samples with the run's outcome counts.
    pub fn to_text(&self, r: &Report) -> String {
        let mut s = format!("attempted {}\nfailed {}\n", r.attempted, r.failed);
        for e in &r.errors {
            let _ = writeln!(s, "error {}", e.replace('\n', " "));
        }
        for (key, values) in self.series() {
            s.push_str(key);
            for v in values {
                let _ = write!(s, " {v}");
            }
            s.push('\n');
        }
        s
    }

    /// Parses [`to_text`](Self::to_text) output, adding the outcome
    /// counts and errors to `r`.
    pub fn from_text(text: &str, r: &mut Report) -> Result<Self, String> {
        let mut out = Samples::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let count = || {
                rest.trim()
                    .parse::<u64>()
                    .map_err(|e| format!("{key}: {e}"))
            };
            match key {
                "attempted" => r.attempted += count()?,
                "failed" => r.failed += count()?,
                "error" => r.errors.push(rest.to_string()),
                _ => {
                    let series = out
                        .series_mut(key)
                        .ok_or_else(|| format!("unknown series {key:?}"))?;
                    for v in rest.split_whitespace() {
                        series.push(v.parse().map_err(|e| format!("{key}: {v:?}: {e}"))?);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Writes the samples and outcome counts to `path`.
    pub fn write(&self, r: &Report, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_text(r))
    }

    /// Records the end-to-end metrics: throughput as the median of the
    /// rates, detection latency summarised in blocks by
    /// [`stats::blocked`], set-up time and peak memory as medians.
    pub fn set_end_to_end(&self, r: &mut Report) {
        let t = stats::blocked(&self.detect_ms, stats::BLOCK, 99.0);
        r.set("events_per_s", stats::median(&self.rates));
        r.set("detect_p50_ms", t.p50);
        r.set("detect_p99_ms", t.tail);
        r.set("setup_s", stats::median(&self.setup_s));
        r.set("peak_rss_mb", stats::median(&self.peak_rss_mb));
        r.notes.push(format!(
            "{} incidents in {} blocks; throughput over {} intervals; {} set-ups; host steal share per pass {:?}",
            t.n,
            (t.n / stats::BLOCK).max(1),
            self.rates.len(),
            self.setup_s.len(),
            self.steal.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>()
        ));
        if t.tail_pct != 99.0 {
            r.notes.push(format!(
                "note: {} incidents do not support p99; detect_p99_ms reports p{}",
                t.n, t.tail_pct
            ));
        }
        if !self.recovery_s.is_empty() {
            r.notes.push(format!(
                "recovery_s = {} s (median of {} crashes)",
                stats::median(&self.recovery_s),
                self.recovery_s.len()
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trips_and_pools() {
        let s = Samples {
            rates: vec![1.5, 2.25],
            detect_ms: vec![0.125],
            setup_s: vec![0.001],
            peak_rss_mb: vec![80.0],
            recovery_s: vec![],
            steal: vec![0.0, 0.03],
        };
        let mut r = Report {
            attempted: 10,
            failed: 1,
            ..Report::default()
        };
        r.errors.push("two\nlines".into());
        let text = s.to_text(&r);
        let mut back = Report::default();
        let parsed = Samples::from_text(&text, &mut back).unwrap();
        assert_eq!(parsed, s);
        assert_eq!((back.attempted, back.failed), (10, 1));
        assert_eq!(back.errors, vec!["two lines".to_string()]);

        let mut pooled = parsed.clone();
        pooled.extend(&parsed);
        assert_eq!(pooled.rates, vec![1.5, 2.25, 1.5, 2.25]);
        assert!(Samples::from_text("bogus 1", &mut back).is_err());
    }
}
