//! `corpus-burst`: the paper's 29K corpus as interleaved live traffic,
//! closed-loop at full speed through the in-memory [`Sentry`], polled
//! every `ServiceConfig::default().poll_every` events. Each process
//! yields exactly one window, so votes are 1-of-1; the mux runs at its
//! defaults.

use std::time::Instant;

use csd_accel::{CsdInferenceEngine, ShardedStreamMux};
use csd_nn::ModelWeights;
use csd_sentry::{Sentry, SentryConfig, SentryStats, ServiceConfig};

use crate::drive::{
    closed_loop, coverage, failed_processes, lost_windows, mux_metrics, one_shard_config,
    one_shard_reference, overhead, repeat, session_apply_ns, setup_samples, sid_by_pid, CallTimes,
    Detect,
};
use crate::inputs::{self, Workload};
use crate::report::Report;
use crate::samples::Samples;
use crate::stats;
use crate::Args;

/// Default sentry with one-window votes.
pub fn config() -> SentryConfig {
    SentryConfig {
        votes_needed: 1,
        vote_horizon: 1,
        ..SentryConfig::default()
    }
}

struct Pass {
    events_per_s: f64,
    wall_s: f64,
    chunk_rates: Vec<f64>,
    detect: Detect,
    failed: u64,
    times: Option<CallTimes>,
    stats: SentryStats,
    staleness: Vec<u64>,
    retained: usize,
}

fn pass(engine: &CsdInferenceEngine, config: &SentryConfig, w: &Workload, traced: bool) -> Pass {
    let mut sentry = Sentry::new(engine.clone(), config.clone());
    let mut detect = Detect::new(w.windows());
    let mut times = traced.then(CallTimes::default);
    let poll_every = ServiceConfig::default().poll_every;
    let timeline = closed_loop(
        &mut sentry,
        w,
        0..w.events.len(),
        poll_every,
        true,
        &mut detect,
        times.as_mut(),
    );
    let sids = sid_by_pid(&sentry);
    let failed = failed_processes(w, sentry.incidents(), |pid| {
        sids.get(&pid).is_none_or(|&sid| lost_windows(&sentry, sid))
    });
    Pass {
        events_per_s: sentry.events() as f64 / timeline.wall_s,
        wall_s: timeline.wall_s,
        chunk_rates: timeline.chunk_rates,
        detect,
        failed,
        times,
        stats: sentry.stats(),
        staleness: sentry.service_latencies().to_vec(),
        retained: sentry.sessions().sessions().count(),
    }
}

/// Runs the workload.
pub fn run(args: &Args, weights: &ModelWeights, r: &mut Report, s: &mut Samples) {
    let engine = CsdInferenceEngine::new(weights, inputs::LEVEL);
    let config = config();
    println!("config {}", crate::host::config_record(&engine, &config));
    let w = inputs::corpus_burst(&engine, args.seed);
    println!(
        "corpus-burst: {} processes, {} events, {} windows",
        w.processes(),
        w.events.len(),
        w.windows()
    );
    crate::host::reset_peak_rss();

    let record = |r: &mut Report, p: &Pass| {
        let d = stats::tail(&p.detect.latencies_ms, 99.0);
        r.notes.push(format!(
            "pass: {:.0} events/s ({:.0} median over chunks), detect p50 {:.3} ms p{} {:.3} ms over {} incidents",
            p.events_per_s,
            stats::median(&p.chunk_rates),
            d.p50,
            d.tail_pct,
            d.tail,
            d.n
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
            let t = Instant::now();
            let sentry = Sentry::new(
                CsdInferenceEngine::new(weights, inputs::LEVEL),
                config.clone(),
            );
            let secs = t.elapsed().as_secs_f64();
            drop(sentry);
            secs
        });
        for m in repeat(args.seconds, || pass(&engine, &config, &w, false)) {
            record(r, &m.pass);
            s.steal.push(m.steal);
            s.rates.extend(m.pass.chunk_rates);
            s.detect_ms.extend(m.pass.detect.latencies_ms);
        }
        return;
    }

    let traced = pass(&engine, &config, &w, true);
    record(r, &traced);
    let rest = (args.seconds - traced.wall_s).max(0.0);
    let untraced = repeat(rest, || pass(&engine, &config, &w, false));
    for m in &untraced {
        record(r, &m.pass);
    }
    let one_shard = pass(&engine, &one_shard_config(&config), &w, true);
    record(r, &one_shard);

    let t = traced.times.as_ref().expect("traced pass has call times");
    let polls = t.poll_us.len();
    let mut poll_us = t.poll_us.clone();
    stats::sort(&mut poll_us);
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
    r.set("service.ingest_ns", t.ingest_ns / t.ingests.max(1) as f64);
    r.set("service.poll_us_mean", stats::mean(&poll_us));
    r.set("service.poll_us_p99", stats::percentile(&poll_us, 99.0));
    r.set("service.polls", polls as f64);
    r.set(
        "service.verdicts_per_poll",
        traced.stats.verdicts_folded as f64 / polls.max(1) as f64,
    );
    r.set(
        "service.staleness_events_p99",
        stats::percentile(&staleness, 99.0),
    );
    r.set("service.stall_ms_max", t.stall_ns as f64 / 1e6);
    mux_metrics(r, &traced.stats, width);
    r.set("engine.windows_per_s", w.windows() as f64 / w.oracle_s);
    let ref_t = one_shard
        .times
        .as_ref()
        .expect("traced pass has call times");
    one_shard_reference(
        r,
        (one_shard.events_per_s, &ref_t.poll_us),
        (traced.events_per_s, &poll_us),
        traced.stats.mux.shards,
    );
    let untraced_rate = stats::median(
        &untraced
            .iter()
            .map(|m| m.pass.events_per_s)
            .collect::<Vec<_>>(),
    );
    overhead(r, traced.events_per_s, untraced_rate);
    coverage(r, t.timed_s, traced.wall_s);
}
