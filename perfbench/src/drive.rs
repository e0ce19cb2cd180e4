//! The closed loop shared by `corpus-burst` and `durable-crash`,
//! the detection-latency recorder, and the oracle check.
//!
//! Closed loop: the next event is ingested as soon as the previous call
//! returns, and the service is polled every `poll_every` events, as the
//! product's own service loop does. Detection latency runs from the
//! start of the deciding call's `ingest` to the return of the
//! `ingest`/`poll`/`drain` that hands back the incident.

use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

use csd_sentry::{DurableSentry, Incident, ProcessEvent, Sentry};

use crate::inputs::{Workload, NO_SLOT};

/// The calls the closed loop makes, over the in-memory and the durable
/// sentry alike.
pub trait Service {
    /// One event in; incidents raised on the way out.
    fn ingest(&mut self, event: &ProcessEvent) -> Vec<Incident>;
    /// One engine round.
    fn poll(&mut self) -> Vec<Incident>;
    /// Everything queued or in flight.
    fn drain(&mut self) -> Vec<Incident>;
    /// Checkpoints written so far (0 for a service without them).
    fn checkpoints(&self) -> u64 {
        0
    }
}

impl Service for Sentry {
    fn ingest(&mut self, event: &ProcessEvent) -> Vec<Incident> {
        Sentry::ingest(self, event)
    }
    fn poll(&mut self) -> Vec<Incident> {
        Sentry::poll(self)
    }
    fn drain(&mut self) -> Vec<Incident> {
        Sentry::drain(self)
    }
}

const JOURNAL_IO: &str = "journal I/O in the benchmark's work directory";

impl Service for DurableSentry {
    fn ingest(&mut self, event: &ProcessEvent) -> Vec<Incident> {
        DurableSentry::ingest(self, event).expect(JOURNAL_IO)
    }
    fn poll(&mut self) -> Vec<Incident> {
        DurableSentry::poll(self).expect(JOURNAL_IO)
    }
    fn drain(&mut self) -> Vec<Incident> {
        DurableSentry::drain(self).expect(JOURNAL_IO)
    }
    fn checkpoints(&self) -> u64 {
        self.checkpoints_written()
    }
}

/// Nanoseconds from `origin` to `t`.
pub fn ns_since(origin: Instant, t: Instant) -> u64 {
    t.duration_since(origin).as_nanos() as u64
}

/// Records when each deciding call started and when its incident came
/// back.
#[derive(Debug)]
pub struct Detect {
    origin: Instant,
    start_ns: Vec<u64>,
    /// Deciding call → incident, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Incidents whose deciding call was never stamped or does not
    /// exist in the workload.
    pub unmatched: u64,
}

impl Detect {
    /// A recorder for a workload with `slots` windows.
    pub fn new(slots: usize) -> Self {
        Self {
            origin: Instant::now(),
            start_ns: vec![u64::MAX; slots],
            latencies_ms: Vec::new(),
            unmatched: 0,
        }
    }

    /// Stamps the start of the call completing window `slot`. A re-sent
    /// call keeps its first stamp: the process issued it then.
    pub fn stamp(&mut self, slot: u32, at: Instant) {
        let s = &mut self.start_ns[slot as usize];
        if *s == u64::MAX {
            *s = ns_since(self.origin, at);
        }
    }

    /// Records incidents handed back at `at`.
    pub fn raised(&mut self, w: &Workload, incidents: &[Incident], at: Instant) {
        let now = ns_since(self.origin, at);
        for inc in incidents {
            let start = inc
                .pid
                .checked_sub(csd_ransomware::replay::REPLAY_PID_BASE)
                .map(|p| p as usize)
                .filter(|&p| p < w.processes())
                .and_then(|p| w.slot_of(p, inc.alert.at_call))
                .map(|slot| self.start_ns[slot])
                .filter(|&s| s != u64::MAX);
            match start {
                Some(s) => self.latencies_ms.push(now.saturating_sub(s) as f64 / 1e6),
                None => self.unmatched += 1,
            }
        }
    }
}

/// Per-call timings of a traced closed loop.
#[derive(Debug, Default, Clone)]
pub struct CallTimes {
    /// Total nanoseconds in `ingest` calls that wrote no checkpoint.
    pub ingest_ns: f64,
    /// Number of such calls.
    pub ingests: u64,
    /// Milliseconds of each `ingest` call that wrote a checkpoint.
    pub checkpoint_ms: Vec<f64>,
    /// Microseconds of each `poll`.
    pub poll_us: Vec<f64>,
    /// Longest gap between two consecutive ingest starts, ns.
    pub stall_ns: u64,
    /// Seconds inside timed calls: ingest, poll and drain.
    pub timed_s: f64,
}

/// Events per throughput chunk: a multiple of the default poll cadence
/// (16) and checkpoint cadence (8,192), so every full chunk carries the
/// same share of polls and checkpoints.
pub const CHUNK_EVENTS: usize = 32_768;

/// Wall time of a closed loop.
#[derive(Debug, Default)]
pub struct Timeline {
    /// Seconds from the first ingest to the return of the last call.
    pub wall_s: f64,
    /// Events per second of each full [`CHUNK_EVENTS`]-event chunk, in
    /// order. Throughput is reported as their median, so a few seconds
    /// of contention from outside the process move it little.
    pub chunk_rates: Vec<f64>,
}

/// Feeds `w.events[range]` through `svc` closed-loop, polling every
/// `poll_every` events (counting from the start of the range) and
/// draining at the end if `drain`. Times every call when `times` is
/// given.
pub fn closed_loop<S: Service>(
    svc: &mut S,
    w: &Workload,
    range: Range<usize>,
    poll_every: u64,
    drain: bool,
    detect: &mut Detect,
    mut times: Option<&mut CallTimes>,
) -> Timeline {
    let start = Instant::now();
    let mut prev = start;
    let mut chunk_start = start;
    let mut chunk_rates = Vec::new();
    let mut since_poll = 0u64;
    for (i, ev) in w.events[range].iter().enumerate() {
        let t0 = if times.is_some() || ev.slot != NO_SLOT {
            Some(Instant::now())
        } else {
            None
        };
        if let (Some(t0), true) = (t0, ev.slot != NO_SLOT) {
            detect.stamp(ev.slot, t0);
        }
        let ckpt_before = if times.is_some() {
            svc.checkpoints()
        } else {
            0
        };
        let raised = svc.ingest(&ev.to_event(&w.names));
        let t1 = Instant::now();
        if !raised.is_empty() {
            detect.raised(w, &raised, t1);
        }
        if let (Some(t), Some(t0)) = (times.as_deref_mut(), t0) {
            let d = t1.duration_since(t0);
            t.timed_s += d.as_secs_f64();
            if svc.checkpoints() != ckpt_before {
                t.checkpoint_ms.push(d.as_secs_f64() * 1e3);
            } else {
                t.ingest_ns += d.as_nanos() as f64;
                t.ingests += 1;
            }
            t.stall_ns = t.stall_ns.max(t0.duration_since(prev).as_nanos() as u64);
            prev = t0;
        }
        since_poll += 1;
        if since_poll >= poll_every {
            since_poll = 0;
            let tp = Instant::now();
            let raised = svc.poll();
            let te = Instant::now();
            if !raised.is_empty() {
                detect.raised(w, &raised, te);
            }
            if let Some(t) = times.as_deref_mut() {
                let d = te.duration_since(tp).as_secs_f64();
                t.timed_s += d;
                t.poll_us.push(d * 1e6);
            }
        }
        if (i + 1) % CHUNK_EVENTS == 0 {
            let now = Instant::now();
            chunk_rates.push(CHUNK_EVENTS as f64 / now.duration_since(chunk_start).as_secs_f64());
            chunk_start = now;
        }
    }
    if drain {
        let td = Instant::now();
        let raised = svc.drain();
        let te = Instant::now();
        if !raised.is_empty() {
            detect.raised(w, &raised, te);
        }
        if let Some(t) = times {
            t.timed_s += te.duration_since(td).as_secs_f64();
        }
    }
    Timeline {
        wall_s: start.elapsed().as_secs_f64(),
        chunk_rates,
    }
}

/// Processes whose live incident set differs from the oracle: a missing,
/// extra, duplicated or misplaced incident, or any window shed
/// (`lossy`).
pub fn failed_processes(w: &Workload, incidents: &[Incident], lossy: impl Fn(u32) -> bool) -> u64 {
    let mut live: HashMap<u32, Vec<usize>> = HashMap::new();
    for inc in incidents {
        live.entry(inc.pid).or_default().push(inc.alert.at_call);
    }
    let base = csd_ransomware::replay::REPLAY_PID_BASE;
    let stray = live
        .keys()
        .filter(|&&pid| pid < base || (pid - base) as usize >= w.processes())
        .count() as u64;
    let mismatched = w
        .expected
        .iter()
        .enumerate()
        .filter(|&(p, want)| {
            let pid = base + p as u32;
            let got = live.get(&pid).map_or(&[][..], Vec::as_slice);
            got != want.as_slice() || lossy(pid)
        })
        .count() as u64;
    mismatched + stray
}

/// Session ids of the sentry's sessions, by pid (the workload never
/// reuses a pid).
pub fn sid_by_pid(sentry: &Sentry) -> HashMap<u32, u64> {
    sentry
        .sessions()
        .sessions()
        .map(|s| (s.pid(), s.sid()))
        .collect()
}

/// Whether session `sid` lost any window to the mux (evicted, refused
/// or rejected).
pub fn lost_windows(sentry: &Sentry, sid: u64) -> bool {
    let loss = sentry.loss_for(sid);
    loss.evicted + loss.refused + loss.rejected > 0
}

/// One pass with the share of the machine's CPU time the host stole
/// while it ran.
#[derive(Debug)]
pub struct Measured<T> {
    /// The pass.
    pub pass: T,
    /// Host steal share during the pass (see [`crate::host::cpu_ticks`]).
    pub steal: f64,
}

/// Runs `pass` until `budget_s` seconds are used: another pass starts
/// only while at least half of the last pass's duration is left, so a
/// run overshoots its budget by at most half a pass. Always runs once.
pub fn repeat<T>(budget_s: f64, mut pass: impl FnMut() -> T) -> Vec<Measured<T>> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let t = Instant::now();
        let ticks = crate::host::cpu_ticks();
        let p = pass();
        out.push(Measured {
            pass: p,
            steal: crate::host::steal_share_since(ticks),
        });
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + 0.5 * last >= budget_s {
            return out;
        }
    }
}

/// Set-ups per measuring process; `setup_s` is the median of all of
/// them.
pub const SETUP_REPS: usize = 21;

/// Seconds of `SETUP_REPS` runs of `setup`, which times its own set-up
/// and returns it (so tear-down stays outside the measurement).
pub fn setup_samples(setup: impl FnMut() -> f64) -> Vec<f64> {
    std::iter::repeat_with(setup).take(SETUP_REPS).collect()
}

/// Nanoseconds per event of `SessionTable::apply` on a standalone table
/// fed the workload's events.
pub fn session_apply_ns(w: &Workload, vocab: usize, idle_timeout: Option<u64>) -> f64 {
    let mut table = csd_sentry::SessionTable::new(vocab, idle_timeout);
    let t = Instant::now();
    for ev in &w.events {
        std::hint::black_box(table.apply(&ev.to_event(&w.names)));
    }
    t.elapsed().as_nanos() as f64 / w.events.len() as f64
}

/// The mux layer's metrics from its counters; `width` is lanes per
/// shard as the mux resolved it.
pub fn mux_metrics(r: &mut crate::report::Report, stats: &csd_sentry::SentryStats, width: usize) {
    let m = &stats.mux;
    r.set("mux.shards", m.shards as f64);
    r.set("mux.lanes", width as f64);
    r.set("mux.ticks", m.ticks as f64);
    r.set("mux.occupancy", m.occupancy);
    r.set(
        "mux.ticks_per_verdict",
        m.ticks as f64 / m.verdicts.max(1) as f64,
    );
    r.set("mux.verdict_ticks_p50", m.p50_latency_ticks as f64);
    r.set("mux.verdict_ticks_p99", m.p99_latency_ticks as f64);
    r.set("mux.steals", m.steals as f64);
    r.set(
        "mux.shed",
        (m.evicted + m.refused + m.rejected + stats.shed_sessions) as f64,
    );
}

/// Coverage of a traced pass: the share of its wall time inside timed
/// calls or measured waits. Records the metrics and a note saying
/// whether the 10% check held.
pub fn coverage(r: &mut crate::report::Report, timed_s: f64, wall_s: f64) {
    let covered = timed_s / wall_s;
    r.set("trace.coverage", covered);
    r.set("trace.unattributed_share", 1.0 - covered);
    r.notes.push(if (1.0 - covered).abs() <= 0.10 {
        format!(
            "coverage check: ok, timed calls and waits cover {:.1}% of the traced pass",
            covered * 100.0
        )
    } else {
        format!(
            "coverage check: FAILED, {:.1}% of the traced pass is unattributed",
            (1.0 - covered) * 100.0
        )
    });
}

/// `config` with the mux pinned to one shard: the single-threaded
/// baseline the default shard count is compared against.
pub fn one_shard_config(config: &csd_sentry::SentryConfig) -> csd_sentry::SentryConfig {
    let mut one = config.clone();
    one.mux.shards = Some(1);
    one
}

/// Records the single-shard reference, `(events/s, poll µs samples)`,
/// next to the same numbers at the default shard count.
pub fn one_shard_reference(
    r: &mut crate::report::Report,
    one: (f64, &[f64]),
    default: (f64, &[f64]),
    shards: u64,
) {
    let one_poll = crate::stats::mean(one.1);
    r.set("ref.one_shard_events_per_s", one.0);
    r.set("ref.one_shard_poll_us", one_poll);
    r.notes.push(format!(
        "single-shard reference: {:.0} events/s and {one_poll:.1} us/poll against {:.0} events/s and {:.1} us/poll at {shards} shards",
        one.0,
        default.0,
        crate::stats::mean(default.1),
    ));
}

/// Records the traced and untraced throughput and their gap.
pub fn overhead(r: &mut crate::report::Report, traced: f64, untraced: f64) {
    r.set("trace.events_per_s", traced);
    r.set("trace.untraced_events_per_s", untraced);
    r.set("trace.overhead_share", 1.0 - traced / untraced);
}
