//! The host and the resolved configuration every result describes, and
//! the process's peak resident memory.

use std::fmt::Write as _;

use csd_accel::{CsdInferenceEngine, ShardedStreamMux};
use csd_sentry::{DurableConfig, JournalConfig, SentryConfig, ServiceConfig, DEFAULT_BUS_CAPACITY};

/// Names of the set `CSD_*` environment variables. The benchmark
/// refuses to run while any is set, so every number describes the
/// default configuration.
pub fn csd_env_vars() -> Vec<String> {
    std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("CSD_"))
        .collect()
}

/// One JSON line recording the host and the configuration as the
/// product resolves it.
pub fn config_record(engine: &CsdInferenceEngine, config: &SentryConfig) -> String {
    let mux = ShardedStreamMux::new(engine.clone(), config.mux);
    let cascade = match (config.mux.cascade, engine.cascade()) {
        (Some(mode), Some(_)) => format!("{mode:?}"),
        (None, Some(_)) => format!("{:?}", csd_accel::env::cascade_mode()),
        (_, None) => "Off (no screen tier mounted)".to_string(),
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let journal = JournalConfig::default();
    let durable = DurableConfig::new(std::path::Path::new("."));
    let service = ServiceConfig::default();
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"nproc\": {nproc}, \"simd\": \"{}\", \"level\": \"{:?}\", \
         \"shards\": {}, \"lanes\": {}, \"cascade\": \"{cascade}\", \"steal\": \"{:?}\", \
         \"max_pending\": {}, \"window_len\": {}, \"stride\": {}, \"votes\": \"{}-of-{}\", \
         \"poll_every\": {}, \"recv_timeout_ms\": {}, \"bus_capacity\": {DEFAULT_BUS_CAPACITY}, \
         \"sync_every\": {}, \"checkpoint_every_events\": {}}}",
        csd_tensor::lanes::simd_level(),
        engine.level(),
        mux.shards(),
        mux.width(),
        mux.steal_policy(),
        config.mux.max_pending,
        config.window_len,
        config.stride,
        config.votes_needed,
        config.vote_horizon,
        service.poll_every,
        service.recv_timeout.as_millis(),
        journal.sync_every,
        durable.checkpoint_every_events,
    );
    s
}

/// Size of the file at `path` in bytes (0 if it does not exist).
pub fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// CPU time accounting of the whole machine as this VM sees it, from the
/// `cpu` line of `/proc/stat`: `(steal, total)` in clock ticks, summed
/// over all CPUs. Steal is time the host ran something else while a
/// virtual CPU had work. Zeros when unreadable.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .map(|l| {
            l.split_whitespace()
                .skip(1)
                .take(8)
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    if fields.len() < 8 {
        return (0, 0);
    }
    (fields[7], fields.iter().sum())
}

/// Share of the machine's CPU time the host stole since `start` (a
/// [`cpu_ticks`] reading); 0 when nothing was accounted.
pub fn steal_share_since(start: (u64, u64)) -> f64 {
    let (steal, total) = cpu_ticks();
    let total = total.saturating_sub(start.1);
    if total == 0 {
        0.0
    } else {
        steal.saturating_sub(start.0) as f64 / total as f64
    }
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resets the peak-resident-memory mark to the current resident size,
/// so the peak read later covers the workload and not input generation.
/// Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory of this process in MB (10^6 bytes) since the
/// last reset.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) * 1024.0 / 1e6
}
