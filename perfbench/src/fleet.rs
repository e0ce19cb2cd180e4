//! `fleet-paced`: the deployment path, open-loop.
//!
//! One generator thread writes the fleet trace over one
//! [`SocketClient`] into a [`SocketServer`] feeding an [`EventBus`],
//! drained by the supervised [`run_service`] loop over a default
//! [`DurableSentry`] (journal, checkpoints, 2-of-3 votes). Event `j` is
//! due at `start + j / RATE` whatever the service does, so a stall shows
//! up as latency of the events due during it.
//!
//! Detection latency runs from the deciding call's *due* time to the
//! moment the incident was raised. The raise time is recovered after
//! the run: the ingest hook stamps each event as the service picks it
//! up, and the journal's record order places every incident between
//! two event records — it was raised after the earlier event's pickup
//! and no later than the next one's.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use std::{fs, thread};

use csd_accel::{CsdInferenceEngine, ShardedStreamMux};
use csd_nn::ModelWeights;
use csd_sentry::{
    run_service, DurableConfig, DurableSentry, EventBus, Incident, Journal, JournalConfig,
    JournalRecord, ProcessEvent, SentryConfig, SentryStats, ServiceConfig, SocketClient,
    SocketServer, SupervisorPolicy, DEFAULT_BUS_CAPACITY,
};

use crate::drive::{
    coverage, failed_processes, mux_metrics, ns_since, overhead, repeat, session_apply_ns,
    setup_samples,
};
use crate::host::file_len;
use crate::inputs::{self, Workload};
use crate::report::Report;
use crate::samples::Samples;
use crate::stats;
use crate::Args;

/// Offered load, events per second.
pub const RATE: f64 = 30_000.0;

/// Time between connecting and the first due event, so the service has
/// opened its journal before traffic starts.
const LEAD_NS: u64 = 50_000_000;

/// Open-loop schedule: event `j` is due `j / rate` after `start_ns`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Due time of event 0, ns from the pass origin.
    pub start_ns: u64,
    /// Nanoseconds between due times.
    pub period_ns: f64,
}

impl Schedule {
    /// Due time of event `j`.
    pub fn due(&self, j: usize) -> u64 {
        self.start_ns + (j as f64 * self.period_ns).round() as u64
    }
}

/// What the generator did.
#[derive(Debug, Default)]
pub struct Paced {
    /// Per event: send start minus due time, ns (never negative: the
    /// generator waits until an event is due).
    pub late_ns: Vec<u64>,
    /// Per event: when its send returned, ns from the origin.
    pub sent_ns: Vec<u64>,
    /// Nanoseconds inside `send`.
    pub send_ns: u64,
    /// Nanoseconds inside `sleep`.
    pub sleep_ns: u64,
}

/// Shortest sleep of the generator. Events due within one quantum go
/// out back to back after a single wake-up, so the generator wakes about
/// once a millisecond instead of once an event and leaves the cores to
/// the service; the cost is up to a quantum of lateness, which is
/// measured and reported.
pub const QUANTUM_NS: u64 = 1_000_000;

/// Sends events `0..n` on `schedule`: sleeps (at least `quantum_ns`)
/// until each is due, then calls `send(j)`. A send that runs long makes
/// the events due during it late; they are then sent back to back, and
/// their lateness is charged from their own due times.
pub fn pace(
    n: usize,
    schedule: &Schedule,
    quantum_ns: u64,
    mut now: impl FnMut() -> u64,
    mut sleep: impl FnMut(u64),
    mut send: impl FnMut(usize),
) -> Paced {
    let mut p = Paced {
        late_ns: Vec::with_capacity(n),
        sent_ns: Vec::with_capacity(n),
        ..Paced::default()
    };
    for j in 0..n {
        let due = schedule.due(j);
        let mut t = now();
        while t < due {
            sleep((due - t).max(quantum_ns));
            let after = now();
            p.sleep_ns += after - t;
            t = after;
        }
        p.late_ns.push(t - due);
        send(j);
        let done = now();
        p.send_ns += done - t;
        p.sent_ns.push(done);
    }
    p
}

/// Pairs every incident record of a journal with an upper bound on its
/// raise time: the pickup stamp of the first event record after it, or
/// `end_ns` (when the service returned) if none follows. The service
/// picks events up in journal order, so `pickups_ns[k]` is the pickup of
/// the `k`-th event record.
pub fn raise_times<'a>(
    records: impl IntoIterator<Item = &'a JournalRecord>,
    pickups_ns: &[u64],
    end_ns: u64,
) -> Vec<(&'a Incident, u64)> {
    let mut events = 0usize;
    let mut out = Vec::new();
    for rec in records {
        match rec {
            JournalRecord::Event(_) => events += 1,
            JournalRecord::Incident(inc) => {
                out.push((inc, pickups_ns.get(events).copied().unwrap_or(end_ns)));
            }
        }
    }
    out
}

/// Pickup stamps taken by the ingest hook, in ingest order.
struct Stamps {
    origin: Instant,
    next: AtomicUsize,
    at: Vec<AtomicU64>,
}

impl Stamps {
    fn stamp(&self) {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.at.get(i) {
            slot.store(ns_since(self.origin, Instant::now()), Ordering::Relaxed);
        }
    }

    /// The stamps taken, once the service thread has been joined.
    fn taken(&self) -> Vec<u64> {
        let n = self.next.load(Ordering::Relaxed).min(self.at.len());
        self.at[..n]
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }
}

struct Pass {
    events_per_s: f64,
    detect_ms: Vec<f64>,
    unmatched: u64,
    failed: u64,
    errors: Vec<String>,
    pickup_lag_ms: Vec<f64>,
    late_ms: Vec<f64>,
    send_ms: f64,
    stall_ms: f64,
    frames: u64,
    decode_errors: u64,
    refused: u64,
    stats: SentryStats,
    wall_s: f64,
    timed_s: f64,
    journal_bytes: u64,
    checkpoint_bytes: u64,
    retained: usize,
}

fn pass(engine: &CsdInferenceEngine, w: &Workload, dir: &Path, traced: bool) -> Pass {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).expect("create the pass directory");
    let n = w.events.len();
    let sock = dir.join("sentry.sock");
    let config = SentryConfig::default();
    let durable = DurableConfig::new(dir);
    let bus = EventBus::new(DEFAULT_BUS_CAPACITY);
    let server = SocketServer::bind(&sock, bus.producer()).expect("bind the sentry socket");
    let origin = Instant::now();
    let stamps = Arc::new(Stamps {
        origin,
        next: AtomicUsize::new(0),
        at: (0..n).map(|_| AtomicU64::new(0)).collect(),
    });
    let hook_stamps = Arc::clone(&stamps);
    let service = ServiceConfig {
        ingest_hook: Some(Arc::new(move |_: &ProcessEvent| hook_stamps.stamp())),
        ..ServiceConfig::default()
    };
    let stop = Arc::new(AtomicBool::new(false));

    let (result, end_ns, bus_refused, paced, schedule, pace_begin_ns, join_wait_ns) =
        thread::scope(|s| {
            let (config, durable, service, stop) = (&config, &durable, &service, &stop);
            let svc = s.spawn(move || {
                let bus = bus;
                let r = run_service(
                    &SupervisorPolicy::default(),
                    || engine.clone(),
                    config,
                    durable,
                    service,
                    &bus,
                    stop,
                );
                (r, ns_since(origin, Instant::now()), bus.refused())
            });
            let mut client = SocketClient::connect(&sock).expect("connect to the sentry socket");
            let begin = ns_since(origin, Instant::now());
            let schedule = Schedule {
                start_ns: begin + LEAD_NS,
                period_ns: 1e9 / RATE,
            };
            let paced = pace(
                n,
                &schedule,
                QUANTUM_NS,
                || ns_since(origin, Instant::now()),
                |d| thread::sleep(Duration::from_nanos(d)),
                |j| {
                    client
                        .send(&w.events[j].to_event(&w.names))
                        .expect("send a frame to the sentry");
                },
            );
            drop(client);
            stop.store(true, Ordering::SeqCst);
            let t = ns_since(origin, Instant::now());
            let (r, end_ns, refused) = svc.join().expect("service thread");
            let wait = end_ns.saturating_sub(t);
            (r, end_ns, refused, paced, schedule, begin, wait)
        });
    let frames = server.frames();
    let decode_errors = server.decode_errors();
    let reader_panics = server.reader_panics();
    drop(server);

    let mut errors = Vec::new();
    let (outcome, report) = result.expect("journal I/O in the benchmark's work directory");
    if report.panics > 0 {
        errors.push(format!(
            "service panicked {} times: {:?}",
            report.panics, report.last_panic
        ));
    }
    let outcome = outcome.expect("the supervisor escalated: the service never completed");
    let pickups = stamps.taken();
    let checks = [
        (
            frames == n as u64,
            format!("{frames} frames decoded of {n} sent"),
        ),
        (
            decode_errors == 0,
            format!("{decode_errors} connections dropped on decode errors"),
        ),
        (
            reader_panics == 0,
            format!("{reader_panics} socket reader panics"),
        ),
        (
            bus_refused == 0,
            format!("{bus_refused} events refused by the bus"),
        ),
        (
            outcome.stats.events == n as u64,
            format!("{} events ingested of {n}", outcome.stats.events),
        ),
        (
            pickups.len() == n,
            format!("{} pickups stamped of {n}", pickups.len()),
        ),
        (
            outcome.events_lost_to_panic == 0,
            format!("{} events lost to panics", outcome.events_lost_to_panic),
        ),
    ];
    errors.extend(checks.into_iter().filter(|(ok, _)| !ok).map(|(_, msg)| msg));

    // Raise times from journal order plus pickup stamps.
    let (journal, recovered) = Journal::open(&dir.join("journal.log"), JournalConfig::default())
        .expect("reopen the journal");
    drop(journal);
    let mut detect_ms = Vec::new();
    let mut unmatched = 0u64;
    for (inc, raised_ns) in raise_times(&recovered.records, &pickups, end_ns) {
        let due = inc
            .pid
            .checked_sub(csd_ransomware::replay::REPLAY_PID_BASE)
            .map(|p| p as usize)
            .filter(|&p| p < w.processes())
            .and_then(|p| w.slot_of(p, inc.alert.at_call))
            .map(|slot| schedule.due(w.slot_event[slot] as usize));
        match due {
            Some(due) => detect_ms.push(raised_ns.saturating_sub(due) as f64 / 1e6),
            None => unmatched += 1,
        }
    }
    drop(recovered);

    let s = &outcome.stats;
    let lost = s.mux.evicted + s.mux.refused + s.mux.rejected + s.shed_sessions;
    let failed =
        (failed_processes(w, &outcome.incidents, |_| false) + lost).min(w.processes() as u64);
    let pickup_lag_ms: Vec<f64> = pickups
        .iter()
        .enumerate()
        .map(|(j, &p)| p.saturating_sub(schedule.due(j)) as f64 / 1e6)
        .collect();
    // A stall: the service took longer than the gap between pickups while
    // the next event was already queued.
    let stall_ns = (1..pickups.len())
        .map(|j| pickups[j].saturating_sub(pickups[j - 1].max(paced.sent_ns[j])))
        .max()
        .unwrap_or(0);
    let last_pickup = pickups.last().copied().unwrap_or(end_ns);
    let retained = if traced {
        DurableSentry::open(engine.clone(), config.clone(), durable.clone())
            .expect("reopen the sentry's state")
            .sentry()
            .sessions()
            .sessions()
            .count()
    } else {
        0
    };
    let pass = Pass {
        events_per_s: n as f64 / ((last_pickup - schedule.start_ns) as f64 / 1e9),
        detect_ms,
        unmatched,
        failed,
        errors,
        pickup_lag_ms,
        late_ms: paced.late_ns.iter().map(|&l| l as f64 / 1e6).collect(),
        send_ms: paced.send_ns as f64 / 1e6,
        stall_ms: stall_ns as f64 / 1e6,
        frames,
        decode_errors,
        refused: bus_refused,
        stats: outcome.stats,
        wall_s: (end_ns - pace_begin_ns) as f64 / 1e9,
        timed_s: (paced.sleep_ns + paced.send_ns + join_wait_ns) as f64 / 1e9,
        journal_bytes: file_len(&dir.join("journal.log")),
        checkpoint_bytes: file_len(&dir.join("checkpoint.snap")),
        retained,
    };
    let _ = fs::remove_dir_all(dir);
    pass
}

/// Runs the workload; pass directories live under `work`.
pub fn run(args: &Args, weights: &ModelWeights, work: &Path, r: &mut Report, s: &mut Samples) {
    let engine = CsdInferenceEngine::new(weights, inputs::LEVEL);
    let config = SentryConfig::default();
    println!("config {}", crate::host::config_record(&engine, &config));
    let w = inputs::fleet(&engine, args.seed);
    println!(
        "fleet-paced: {} processes, {} events, {} windows, offered {RATE} events/s",
        w.processes(),
        w.events.len(),
        w.windows()
    );
    let dir = work.join("fleet");
    crate::host::reset_peak_rss();

    let record = |r: &mut Report, p: &Pass| {
        let d = stats::tail(&p.detect_ms, 99.0);
        let lag = stats::tail(&p.pickup_lag_ms, 99.0);
        let late = stats::tail(&p.late_ms, 99.0);
        r.notes.push(format!(
            "pass: {:.1} events/s, detect p50 {:.2} ms p{} {:.2} ms over {} incidents, pickup lag p50 {:.3} ms p99 {:.2} ms, generator lateness p99 {:.3} ms, longest stall {:.1} ms",
            p.events_per_s, d.p50, d.tail_pct, d.tail, d.n, lag.p50, lag.tail, late.tail, p.stall_ms
        ));
        r.attempted += w.processes() as u64;
        r.failed += p.failed;
        r.errors.extend(p.errors.iter().cloned());
        r.check(
            p.unmatched == 0,
            format!("{} incidents match no deciding call", p.unmatched),
        );
    };

    if !args.trace {
        s.setup_s = setup_samples(|| {
            let _ = fs::remove_dir_all(&dir);
            let bus = EventBus::new(DEFAULT_BUS_CAPACITY);
            let t = Instant::now();
            let d = DurableSentry::open(
                CsdInferenceEngine::new(weights, inputs::LEVEL),
                config.clone(),
                DurableConfig::new(&dir),
            )
            .expect("open a fresh durable sentry");
            let server = SocketServer::bind(&dir.join("sentry.sock"), bus.producer())
                .expect("bind the sentry socket");
            let secs = t.elapsed().as_secs_f64();
            drop(server);
            drop(d);
            secs
        });
        for m in repeat(args.seconds, || pass(&engine, &w, &dir, false)) {
            record(r, &m.pass);
            s.steal.push(m.steal);
            s.rates.push(m.pass.events_per_s);
            s.detect_ms.extend(m.pass.detect_ms);
        }
        return;
    }

    let traced = pass(&engine, &w, &dir, true);
    record(r, &traced);
    let rest = (args.seconds - traced.wall_s).max(0.0);
    let untraced = repeat(rest, || pass(&engine, &w, &dir, false));
    for m in &untraced {
        record(r, &m.pass);
    }
    let lag = stats::tail(&traced.pickup_lag_ms, 99.0);
    let mut late = traced.late_ms.clone();
    stats::sort(&mut late);
    r.set("bus.frames", traced.frames as f64);
    r.set("bus.decode_errors", traced.decode_errors as f64);
    r.set("bus.refused", traced.refused as f64);
    r.set("bus.send_block_ms", traced.send_ms);
    r.set("bus.pickup_lag_ms_p50", lag.p50);
    r.set("bus.pickup_lag_ms_p99", lag.tail);
    r.set("gen.lateness_ms_p99", stats::percentile(&late, 99.0));
    let width = ShardedStreamMux::new(engine.clone(), config.mux).width();
    let vocab = engine.weights().dims().vocab;
    r.set(
        "session.apply_ns",
        session_apply_ns(&w, vocab, config.idle_timeout_events),
    );
    r.set("session.started", traced.stats.sessions_started as f64);
    r.set("session.retained", traced.retained as f64);
    r.set("service.stall_ms_max", traced.stall_ms);
    mux_metrics(r, &traced.stats, width);
    r.set("engine.windows_per_s", w.windows() as f64 / w.oracle_s);
    r.set("journal.bytes", traced.journal_bytes as f64);
    r.set("checkpoint.bytes", traced.checkpoint_bytes as f64);
    let untraced_rate = stats::median(
        &untraced
            .iter()
            .map(|m| m.pass.events_per_s)
            .collect::<Vec<_>>(),
    );
    overhead(r, traced.events_per_s, untraced_rate);
    coverage(r, traced.timed_s, traced.wall_s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd_accel::Alert;
    use csd_sentry::{ActionOutcome, ActionTaken};
    use std::cell::Cell;

    fn incident(pid: u32) -> Incident {
        Incident {
            sid: u64::from(pid),
            pid,
            name: None,
            alert: Alert {
                at_call: 100,
                probability: 0.9,
                inference_us: 0.0,
            },
            action: ActionTaken::Logged,
            outcome: ActionOutcome::NotAttempted,
            post_exit: false,
        }
    }

    #[test]
    fn incidents_take_the_next_pickup_as_their_raise_time() {
        let ev = |i: u64| JournalRecord::Event(ProcessEvent::api(i, 1, 0));
        let records = vec![
            ev(0),
            ev(1),
            JournalRecord::Incident(incident(7)),
            ev(2),
            JournalRecord::Incident(incident(8)),
            JournalRecord::Incident(incident(9)),
            ev(3),
            JournalRecord::Incident(incident(10)),
        ];
        let pickups = [100, 200, 300, 400];
        let got: Vec<(u32, u64)> = raise_times(&records, &pickups, 999)
            .into_iter()
            .map(|(inc, t)| (inc.pid, t))
            .collect();
        // Raised after event 1's pickup, visible by event 2's; the last
        // one came out of the final drain.
        assert_eq!(got, vec![(7, 300), (8, 400), (9, 400), (10, 999)]);
    }

    #[test]
    fn an_incident_with_no_later_pickup_takes_the_end_time() {
        let records = vec![
            JournalRecord::Event(ProcessEvent::api(0, 1, 0)),
            JournalRecord::Incident(incident(1)),
        ];
        let got = raise_times(&records, &[10], 55);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, 55);
    }

    #[test]
    fn schedule_spaces_events_at_the_offered_rate() {
        let s = Schedule {
            start_ns: 1_000,
            period_ns: 1e9 / RATE,
        };
        assert_eq!(s.due(0), 1_000);
        assert_eq!(s.due(30_000), 1_000 + 1_000_000_000);
        assert_eq!(s.due(3), 1_000 + 100_000);
    }

    /// A generator on a fake clock: sleeps overshoot by 10 µs, sends take
    /// 1 µs, and the send of event 5 stalls for 5 ms. Events due during
    /// the stall go out back to back, each charged from its own due time;
    /// the generator then catches up and runs on time again.
    #[test]
    fn lateness_is_charged_from_each_events_due_time() {
        let clock = Cell::new(0u64);
        let schedule = Schedule {
            start_ns: 0,
            period_ns: 1_000_000.0,
        };
        let p = pace(
            12,
            &schedule,
            0,
            || clock.get(),
            |d| clock.set(clock.get() + d + 10_000),
            |j| clock.set(clock.get() + if j == 5 { 5_000_000 } else { 1_000 }),
        );
        let late_us: Vec<u64> = p.late_ns.iter().map(|l| l / 1_000).collect();
        assert_eq!(late_us[0], 0, "the first event is due at once");
        assert!(
            late_us[1..=5].iter().all(|&l| l == 10),
            "sleep overshoot only"
        );
        // Event 5's send ends at 10.010 ms; events 6..=10 were due at
        // 6..=10 ms and go out 1 µs apart.
        assert_eq!(late_us[6..=10], [4_010, 3_011, 2_012, 1_013, 14]);
        assert_eq!(late_us[11], 10, "back on schedule");
        assert!(p
            .late_ns
            .iter()
            .zip(0..)
            .all(|(&l, j)| p.sent_ns[j] >= schedule.due(j) + l));
        assert_eq!(p.send_ns, 11 * 1_000 + 5_000_000);
    }

    /// With a 1 ms quantum and events due every 100 µs, the generator
    /// wakes once a millisecond and sends the ten events due by then;
    /// none is more than a quantum late.
    #[test]
    fn the_quantum_batches_sends_and_bounds_lateness() {
        let clock = Cell::new(0u64);
        let wakeups = Cell::new(0u32);
        let schedule = Schedule {
            start_ns: 0,
            period_ns: 100_000.0,
        };
        let p = pace(
            31,
            &schedule,
            1_000_000,
            || clock.get(),
            |d| {
                wakeups.set(wakeups.get() + 1);
                clock.set(clock.get() + d);
            },
            |_| {},
        );
        assert_eq!(wakeups.get(), 3);
        let late_us: Vec<u64> = p.late_ns.iter().map(|l| l / 1_000).collect();
        assert_eq!(
            late_us[..12],
            [0, 900, 800, 700, 600, 500, 400, 300, 200, 100, 0, 900]
        );
        assert!(p.late_ns.iter().all(|&l| l < 1_000_000));
        assert_eq!(p.sleep_ns, 3_000_000);
    }
}
