//! `durable-crash`: an 8K-entry corpus subset closed-loop through the
//! [`DurableSentry`] at its default journal and checkpoint cadence.
//! After the last event the sentry crashes (`simulate_crash(0)`: the
//! unsynced journal tail is lost), reopens, takes the re-sent tail from
//! the journal's durable cursor as the at-least-once protocol
//! prescribes, drains, and must hold exactly the oracle's incidents:
//! none lost, none duplicated.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use csd_accel::{CsdInferenceEngine, ShardedStreamMux};
use csd_nn::ModelWeights;
use csd_sentry::{DurableConfig, DurableSentry, SentryConfig, SentryStats, ServiceConfig};

use crate::drive::{
    closed_loop, coverage, failed_processes, lost_windows, mux_metrics, one_shard_config,
    one_shard_reference, overhead, repeat, session_apply_ns, setup_samples, sid_by_pid, CallTimes,
    Detect,
};
use crate::host::file_len;
use crate::inputs::{self, Workload};
use crate::report::Report;
use crate::samples::Samples;
use crate::stats;
use crate::Args;

struct Pass {
    events_per_s: f64,
    wall_s: f64,
    chunk_rates: Vec<f64>,
    recovery_s: f64,
    detect: Detect,
    failed: u64,
    times: Option<CallTimes>,
    stats: SentryStats,
    staleness: Vec<u64>,
    retained: usize,
    polls_before_crash: usize,
    syncs: u64,
    journal_bytes: u64,
    checkpoint_bytes: u64,
    replayed_events: u64,
}

fn pass(
    engine: &CsdInferenceEngine,
    config: &SentryConfig,
    w: &Workload,
    dir: &Path,
    traced: bool,
) -> Pass {
    let _ = fs::remove_dir_all(dir);
    let durable = DurableConfig::new(dir);
    let poll_every = ServiceConfig::default().poll_every;
    let n = w.events.len();
    let mut detect = Detect::new(w.windows());
    let mut times = traced.then(CallTimes::default);
    let mut d = DurableSentry::open(engine.clone(), config.clone(), durable.clone())
        .expect("open a fresh durable sentry");
    let live = closed_loop(
        &mut d,
        w,
        0..n,
        poll_every,
        false,
        &mut detect,
        times.as_mut(),
    );

    // Bookkeeping between the live run and the crash; not timed.
    let sids = sid_by_pid(d.sentry());
    let lossy_before: HashSet<u32> = sids
        .iter()
        .filter(|&(_, &sid)| lost_windows(d.sentry(), sid))
        .map(|(&pid, _)| pid)
        .collect();
    let cursor = d.durable_events() as usize;
    let syncs = d.journal().syncs();
    let stats = d.sentry().stats();
    let staleness = d.sentry().service_latencies().to_vec();
    let retained = d.sentry().sessions().sessions().count();
    let polls_before_crash = times.as_ref().map_or(0, |t| t.poll_us.len());

    let t_crash = Instant::now();
    d.simulate_crash(0);
    let t_open = Instant::now();
    let mut d = DurableSentry::open(engine.clone(), config.clone(), durable)
        .expect("reopen the crashed durable sentry");
    let t_opened = Instant::now();
    let recovery_s = t_opened.duration_since(t_open).as_secs_f64();
    let report = d.recovery().clone();
    let incidents = d.sentry().incidents();
    let replay_raised = &incidents[incidents.len() - report.replay_incidents as usize..];
    detect.raised(w, replay_raised, t_opened);
    let journal_bytes = file_len(&dir.join("journal.log"));
    let checkpoint_bytes = file_len(&dir.join("checkpoint.snap"));
    let resend = closed_loop(
        &mut d,
        w,
        cursor..n,
        poll_every,
        true,
        &mut detect,
        times.as_mut(),
    );
    if let Some(t) = times.as_mut() {
        t.timed_s += t_opened.duration_since(t_crash).as_secs_f64();
    }

    let sids_after = sid_by_pid(d.sentry());
    let failed = failed_processes(w, d.sentry().incidents(), |pid| {
        lossy_before.contains(&pid)
            || sids_after
                .get(&pid)
                .is_none_or(|&sid| lost_windows(d.sentry(), sid))
    });
    drop(d);
    let _ = fs::remove_dir_all(dir);
    Pass {
        events_per_s: n as f64 / live.wall_s,
        wall_s: live.wall_s + t_opened.duration_since(t_crash).as_secs_f64() + resend.wall_s,
        chunk_rates: live.chunk_rates,
        recovery_s,
        detect,
        failed,
        times,
        stats,
        staleness,
        retained,
        polls_before_crash,
        syncs,
        journal_bytes,
        checkpoint_bytes,
        replayed_events: report.replayed_events,
    }
}

/// Runs the workload; durable state lives under `work`.
pub fn run(args: &Args, weights: &ModelWeights, work: &Path, r: &mut Report, s: &mut Samples) {
    let engine = CsdInferenceEngine::new(weights, inputs::LEVEL);
    let config = crate::burst::config();
    println!("config {}", crate::host::config_record(&engine, &config));
    let w = inputs::durable_crash(&engine, args.seed);
    println!(
        "durable-crash: {} processes, {} events, {} windows",
        w.processes(),
        w.events.len(),
        w.windows()
    );
    let dir: PathBuf = work.join("durable");
    crate::host::reset_peak_rss();

    let record = |r: &mut Report, p: &Pass| {
        let d = stats::tail(&p.detect.latencies_ms, 99.0);
        r.notes.push(format!(
            "pass: {:.0} events/s ({:.0} median over chunks), detect p50 {:.3} ms p{} {:.3} ms over {} incidents, recovery {:.3} s",
            p.events_per_s,
            stats::median(&p.chunk_rates),
            d.p50,
            d.tail_pct,
            d.tail,
            d.n,
            p.recovery_s
        ));
        r.attempted += w.processes() as u64;
        r.failed += p.failed;
        r.check(
            p.detect.unmatched == 0,
            format!("{} incidents match no deciding call", p.detect.unmatched),
        );
    };

    if !args.trace {
        s.setup_s = setup_samples(|| {
            let _ = fs::remove_dir_all(&dir);
            let t = Instant::now();
            let d = DurableSentry::open(
                CsdInferenceEngine::new(weights, inputs::LEVEL),
                config.clone(),
                DurableConfig::new(&dir),
            )
            .expect("open a fresh durable sentry");
            let secs = t.elapsed().as_secs_f64();
            drop(d);
            secs
        });
        for m in repeat(args.seconds, || pass(&engine, &config, &w, &dir, false)) {
            record(r, &m.pass);
            s.steal.push(m.steal);
            s.recovery_s.push(m.pass.recovery_s);
            s.rates.extend(m.pass.chunk_rates);
            s.detect_ms.extend(m.pass.detect.latencies_ms);
        }
        return;
    }

    let traced = pass(&engine, &config, &w, &dir, true);
    record(r, &traced);
    let rest = (args.seconds - traced.wall_s).max(0.0);
    let untraced = repeat(rest, || pass(&engine, &config, &w, &dir, false));
    for m in &untraced {
        record(r, &m.pass);
    }
    let one_shard = pass(&engine, &one_shard_config(&config), &w, &dir, true);
    record(r, &one_shard);

    let t = traced.times.as_ref().expect("traced pass has call times");
    let ref_t = one_shard
        .times
        .as_ref()
        .expect("traced pass has call times");
    one_shard_reference(
        r,
        (one_shard.events_per_s, &ref_t.poll_us),
        (traced.events_per_s, &t.poll_us),
        traced.stats.mux.shards,
    );
    let mut ckpt = t.checkpoint_ms.clone();
    stats::sort(&mut ckpt);
    let mut staleness: Vec<f64> = traced.staleness.iter().map(|&s| s as f64).collect();
    stats::sort(&mut staleness);
    let width = ShardedStreamMux::new(engine.clone(), config.mux).width();
    let vocab = engine.weights().dims().vocab;
    r.set(
        "session.apply_ns",
        session_apply_ns(&w, vocab, config.idle_timeout_events),
    );
    r.set("session.started", traced.stats.sessions_started as f64);
    r.set("session.retained", traced.retained as f64);
    r.set("service.polls", traced.polls_before_crash as f64);
    r.set(
        "service.verdicts_per_poll",
        traced.stats.verdicts_folded as f64 / traced.polls_before_crash.max(1) as f64,
    );
    r.set(
        "service.staleness_events_p99",
        stats::percentile(&staleness, 99.0),
    );
    r.set("service.stall_ms_max", t.stall_ns as f64 / 1e6);
    mux_metrics(r, &traced.stats, width);
    r.set("engine.windows_per_s", w.windows() as f64 / w.oracle_s);
    r.set(
        "durable.ingest_us",
        t.ingest_ns / t.ingests.max(1) as f64 / 1e3,
    );
    r.set("durable.poll_us", stats::mean(&t.poll_us));
    r.set("durable.checkpoint_ms_mean", stats::mean(&ckpt));
    r.set(
        "durable.checkpoint_ms_max",
        ckpt.last().copied().unwrap_or(0.0),
    );
    r.set("durable.checkpoints", ckpt.len() as f64);
    r.set("journal.syncs", traced.syncs as f64);
    r.set("journal.bytes", traced.journal_bytes as f64);
    r.set("checkpoint.bytes", traced.checkpoint_bytes as f64);
    r.set("recovery.replayed_events", traced.replayed_events as f64);
    r.set("recovery_s", traced.recovery_s);
    let untraced_rate = stats::median(
        &untraced
            .iter()
            .map(|m| m.pass.events_per_s)
            .collect::<Vec<_>>(),
    );
    overhead(r, traced.events_per_s, untraced_rate);
    coverage(r, t.timed_s, traced.wall_s);
}
