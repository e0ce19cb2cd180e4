//! Sharded stream multiplexer: one [`StreamMux`] per worker-pool
//! thread, with work-stealing rebalance and per-stream in-order verdict
//! delivery.
//!
//! A single [`StreamMux`] advances every lane on one thread; at fleet
//! scale (`exp_streaming` at 4096 streams) occupancy is 1.0 and the
//! host core, not the engine, is the ceiling. [`ShardedStreamMux`]
//! splits the lane block into `N` shard-owned muxes — one per
//! [`WorkerPool`] worker — and advances every *loaded* shard in
//! parallel via [`WorkerPool::scatter_scoped`] wherever the work covers
//! the handoff: during [`drain`](ShardedStreamMux::drain)'s multi-tick
//! bursts. A one-tick round (one 16-lane tick is ≈10 µs of kernel work,
//! a pool fork/join ≈35 µs on a 2-core host) runs every loaded shard on
//! the coordinator thread instead. The 0-ULP contract is untouched:
//! each shard runs the same lane kernels on the same windows, so every
//! verdict is still bit-identical to serial
//! [`classify`](CsdInferenceEngine::classify).
//!
//! # Admission, routing, and stealing
//!
//! Admission is coordinator-mediated: [`submit`](ShardedStreamMux::submit)
//! applies the global backpressure bound, assigns the window a global
//! sequence number, and routes it *fill-first*: to the lowest-index
//! shard with a free lane (pending + in-flight below its width). Only
//! when every shard is at or above width does routing fall back to the
//! least-loaded shard (ties to the lowest index). Low load therefore
//! packs into one shard and costs one lane sweep per round, not `N`
//! half-empty ones; routing stays deterministic either way. Producers
//! on other threads use a [`StreamInjector`] instead — a clone-cheap
//! handle over per-shard lock-free MPSC [`AdmissionQueue`]s
//! (hash-routed by stream id) whose pushes never block or lock; the
//! coordinator drains every inbox at each tick round and admits through
//! the same backpressure/sequence/routing path.
//!
//! Load drifts as windows of different lengths retire, so between tick
//! rounds the coordinator *rebalances* overflow: while some shard has
//! free lane capacity and another holds more windows than it has lanes
//! (work that cannot start on its next tick) at least two loads above
//! it, one pending window moves from the loaded shard's queue tail (its
//! FIFO head — the oldest, most latency-burdened work — stays put) to
//! the idle one. A shard whose load fits its lanes is never robbed, so
//! the rebalancer does not undo fill-first packing. Stealing happens
//! only at round boundaries on the coordinator thread, never mid-tick
//! between shard threads, which is what makes it reproducible: under
//! [`StealPolicy::Deterministic`] victims are chosen by (max load,
//! lowest index) and the whole schedule is a pure function of the
//! submission sequence; under [`StealPolicy::Seeded`] victim choice
//! draws from a seeded splitmix64 stream — different interleavings,
//! same seed → same run.
//!
//! # Per-stream order
//!
//! Shards retire windows independently, so cross-shard retirement can
//! invert a stream's verdict order (a short window on an idle shard
//! beats an earlier long one on a loaded shard). The monitor fold is
//! order-sensitive (vote rings, alert latching), so the coordinator
//! reorders: every window gets a global sequence number at admission,
//! and a small per-stream reorder buffer holds early verdicts until
//! their predecessors settle. The delivered contract is strictly
//! stronger than the single mux's: *each stream's verdicts arrive in
//! its submission order*. Only streams with windows in flight hold
//! reorder state — dormant streams cost nothing here.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use csd_device::FaultPlan;
use serde::{Deserialize, Serialize};

use crate::engine::CsdInferenceEngine;
use crate::mpsc::{AdmissionHandle, AdmissionQueue};
use crate::pool::WorkerPool;
use crate::stream::{MuxStats, OverflowPolicy, StreamLoss, StreamMux, StreamMuxConfig, Verdict};

/// How the rebalancer picks its steal victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StealPolicy {
    /// Victims by (max load, lowest index): the steal schedule is a
    /// pure function of the submission sequence — the mode for
    /// reproducible tests and byte-stable benchmarks.
    Deterministic,
    /// Victim choice draws from a splitmix64 stream with this seed:
    /// varied interleavings (good for shaking out order bugs), still
    /// reproducible run-to-run for a fixed seed.
    Seeded(u64),
}

impl Default for StealPolicy {
    fn default() -> Self {
        StealPolicy::Seeded(0x5EED_CA11)
    }
}

/// Ticks each loaded shard advances per scatter during `drain`: large
/// enough to amortize the pool's scatter overhead over real kernel
/// work, small enough that rebalance and inbox drains stay responsive.
/// Only these bursts are scattered to the pool; a one-tick round is too
/// little work to pay for the handoff and runs on the coordinator.
const DRAIN_BURST: usize = 64;

/// A window pushed by a [`StreamInjector`], waiting in a shard inbox.
#[derive(Debug, Clone)]
struct Admission {
    stream: u64,
    at_call: usize,
    window: Vec<usize>,
}

/// One shard: a standalone mux (unbounded queue — backpressure is
/// global, at the coordinator) plus its verdict out-buffer and producer
/// inbox.
#[derive(Debug)]
struct Shard {
    mux: StreamMux,
    /// Per-shard verdict buffer, filled inside scatter jobs (each shard
    /// writes only its own) and settled by the coordinator afterwards.
    out: Vec<Verdict>,
    inbox: AdmissionQueue<Admission>,
}

impl Shard {
    /// Windows routed here and not yet retired: pending + in flight.
    fn load(&self) -> usize {
        self.mux.pending() + self.mux.in_flight()
    }
}

impl Clone for Shard {
    fn clone(&self) -> Self {
        // A cloned shard gets a fresh, empty inbox: injector handles
        // onto the original keep feeding the original.
        Self {
            mux: self.mux.clone(),
            out: self.out.clone(),
            inbox: AdmissionQueue::new(),
        }
    }
}

/// Per-stream reorder state: sequence numbers still in flight, plus
/// verdicts (or drop tombstones) that arrived ahead of a predecessor.
/// The entry exists only while the stream has windows in flight.
#[derive(Debug, Clone, Default)]
struct StreamOrder {
    /// Admission sequence numbers not yet settled, oldest first.
    outstanding: VecDeque<u64>,
    /// Early arrivals: `(seq, verdict)`, `None` marking a window
    /// dropped by backpressure after later windows were admitted.
    held: Vec<(u64, Option<Verdict>)>,
}

/// A clone-cheap, thread-safe producer handle for pushing windows into
/// a [`ShardedStreamMux`] from other threads.
///
/// `submit` never blocks and never takes a lock (one CAS push); the
/// window is copied into a fresh buffer on the producer thread and
/// admitted — through the same backpressure and sequencing as
/// [`ShardedStreamMux::submit`] — when the coordinator next drains the
/// inboxes at a tick round. Inboxes are hash-routed by stream id, so
/// one stream's pushes from one producer stay FIFO.
#[derive(Debug, Clone)]
pub struct StreamInjector {
    inboxes: Vec<AdmissionHandle<Admission>>,
}

impl StreamInjector {
    /// Enqueues one window for admission at the next coordinator round.
    ///
    /// # Panics
    ///
    /// Panics on an empty window (the engine's contract).
    pub fn submit(&self, stream: u64, at_call: usize, window: &[usize]) {
        assert!(!window.is_empty(), "empty sequence");
        let shard =
            (stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.inboxes.len();
        self.inboxes[shard].push(Admission {
            stream,
            at_call,
            window: window.to_vec(),
        });
    }
}

/// `N` shard-owned [`StreamMux`]es behind one mux-shaped front: same
/// `submit`/`tick_into`/`drain` surface, verdicts bit-identical to
/// serial classification, per-stream delivery in submission order, and
/// every loaded shard advanced in parallel on the worker pool during
/// `drain` bursts.
///
/// See the [module docs](self) for the admission/steal protocol.
#[derive(Debug, Clone)]
pub struct ShardedStreamMux {
    shards: Vec<Shard>,
    /// Per-stream reorder buffers, only for streams with work in
    /// flight.
    order: HashMap<u64, StreamOrder>,
    /// Verdicts released by settling, awaiting the next flush into a
    /// caller's buffer.
    ready: Vec<Verdict>,
    /// Recycled drain buffer for inbox messages.
    inject_scratch: Vec<Admission>,
    max_pending: usize,
    policy: OverflowPolicy,
    steal: StealPolicy,
    /// splitmix64 state for [`StealPolicy::Seeded`] victim draws.
    rng: u64,
    next_seq: u64,
    steals: u64,
    /// Rounds dispatched to the worker pool.
    parallel_rounds: u64,
    /// Admitted windows later evicted by `DropOldest` global
    /// backpressure (charged to the stream that lost its window).
    evicted: u64,
    evicted_by_stream: HashMap<u64, u64>,
    /// Windows refused at admission by `DropNewest` global backpressure
    /// (charged to the submitting stream).
    refused: u64,
    refused_by_stream: HashMap<u64, u64>,
    /// Windows refused for out-of-vocabulary tokens, coordinator-wide
    /// (both `submit` and injector admissions validate here, before a
    /// window can reach any shard's lane block).
    rejected: u64,
    rejected_by_stream: HashMap<u64, u64>,
    /// Vocabulary size, cached for admission-time validation.
    vocab: usize,
    started: Instant,
}

impl ShardedStreamMux {
    /// Builds `N` shards around clones of `engine`.
    ///
    /// The shard count resolves `config.shards`, then the
    /// `CSD_STREAM_SHARDS` environment knob, then the worker pool's
    /// thread count. The steal policy resolves `config.steal`, then the
    /// `CSD_STREAM_DETERMINISTIC_STEAL` knob (truthy forces
    /// [`StealPolicy::Deterministic`]), then [`StealPolicy::default`].
    /// `config.lanes` and `config.max_pending` keep their
    /// [`StreamMux`] meanings, with `lanes` now *per shard* and
    /// `max_pending` bounding the *total* pending count across shards.
    ///
    /// # Panics
    ///
    /// Panics when `config.lanes` is `Some(0)` or `config.max_pending`
    /// is zero (the [`StreamMux::new`] contract).
    pub fn new(engine: CsdInferenceEngine, config: StreamMuxConfig) -> Self {
        assert!(config.max_pending > 0, "max_pending must be positive");
        let shard_count = config
            .shards
            .or_else(|| crate::env::positive_usize("CSD_STREAM_SHARDS"))
            .unwrap_or_else(|| WorkerPool::global().threads())
            .max(1);
        let steal = config
            .steal
            .or_else(|| {
                crate::env::flag("CSD_STREAM_DETERMINISTIC_STEAL").map(|on| {
                    if on {
                        StealPolicy::Deterministic
                    } else {
                        StealPolicy::default()
                    }
                })
            })
            .unwrap_or_default();
        let shard_config = StreamMuxConfig {
            lanes: config.lanes,
            // Backpressure is enforced globally before routing; a shard
            // queue must never second-guess the coordinator.
            max_pending: usize::MAX,
            policy: OverflowPolicy::DropNewest,
            shards: Some(1),
            steal: None,
            cascade: config.cascade,
        };
        let vocab = engine.weights().dims().vocab;
        let shards: Vec<Shard> = (0..shard_count)
            .map(|_| Shard {
                mux: StreamMux::new(engine.clone(), shard_config),
                out: Vec::new(),
                inbox: AdmissionQueue::new(),
            })
            .collect();
        let rng = match steal {
            StealPolicy::Seeded(seed) => seed,
            StealPolicy::Deterministic => 0,
        };
        Self {
            shards,
            order: HashMap::new(),
            ready: Vec::new(),
            inject_scratch: Vec::new(),
            max_pending: config.max_pending,
            policy: config.policy,
            steal,
            rng,
            next_seq: 0,
            steals: 0,
            parallel_rounds: 0,
            evicted: 0,
            evicted_by_stream: HashMap::new(),
            refused: 0,
            refused_by_stream: HashMap::new(),
            rejected: 0,
            rejected_by_stream: HashMap::new(),
            vocab,
            started: Instant::now(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Lane slots per shard (total lanes = `width() * shards()`).
    pub fn width(&self) -> usize {
        self.shards[0].mux.width()
    }

    /// The steal policy in effect.
    pub fn steal_policy(&self) -> StealPolicy {
        self.steal
    }

    /// The engine behind shard 0's lanes (all shards run clones of the
    /// same engine — for parity checks and accounting).
    pub fn engine(&self) -> &CsdInferenceEngine {
        self.shards[0].mux.engine()
    }

    /// Windows queued across all shards, not yet occupying lanes
    /// (injector inboxes not included — those are admitted, and
    /// counted, at the next round).
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.mux.pending()).sum()
    }

    /// Windows currently occupying lanes across all shards.
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(|s| s.mux.in_flight()).sum()
    }

    /// Whether nothing is queued, in flight, injected-but-undrained, or
    /// held for reordering.
    pub fn is_idle(&self) -> bool {
        self.ready.is_empty()
            && self.order.is_empty()
            && self
                .shards
                .iter()
                .all(|s| s.mux.is_idle() && s.inbox.is_empty())
    }

    /// Windows dropped by backpressure that belonged to `stream` — the
    /// sum of [`evicted_for`](Self::evicted_for) and
    /// [`refused_for`](Self::refused_for).
    pub fn dropped_for(&self, stream: u64) -> u64 {
        self.evicted_for(stream) + self.refused_for(stream)
    }

    /// Admitted windows of `stream` later evicted by
    /// [`OverflowPolicy::DropOldest`] global backpressure.
    pub fn evicted_for(&self, stream: u64) -> u64 {
        self.evicted_by_stream.get(&stream).copied().unwrap_or(0)
    }

    /// Windows of `stream` refused at admission by
    /// [`OverflowPolicy::DropNewest`] global backpressure.
    pub fn refused_for(&self, stream: u64) -> u64 {
        self.refused_by_stream.get(&stream).copied().unwrap_or(0)
    }

    /// The full per-stream loss breakdown (evicted / refused /
    /// rejected) for `stream`.
    pub fn loss_for(&self, stream: u64) -> StreamLoss {
        StreamLoss {
            evicted: self.evicted_for(stream),
            refused: self.refused_for(stream),
            rejected: self.rejected_for(stream),
        }
    }

    /// Windows of `stream` refused for out-of-vocabulary tokens — at
    /// [`submit`](Self::submit) or at an injector inbox drain.
    pub fn rejected_for(&self, stream: u64) -> u64 {
        self.rejected_by_stream.get(&stream).copied().unwrap_or(0)
    }

    /// A thread-safe producer handle feeding this mux's shard inboxes.
    pub fn injector(&self) -> StreamInjector {
        StreamInjector {
            inboxes: self.shards.iter().map(|s| s.inbox.handle()).collect(),
        }
    }

    /// Arms degraded mode on every shard (see [`StreamMux::arm_faults`]).
    /// Each shard derives an independent plan from `plan`'s seed so the
    /// fault streams decorrelate across shards while staying a pure
    /// function of the original seed.
    pub fn arm_faults(&mut self, plan: FaultPlan, cooldown_ticks: u64) {
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let seed = plan
                .seed()
                .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            shard
                .mux
                .arm_faults(FaultPlan::new(seed, *plan.config()), cooldown_ticks);
        }
    }

    /// Whether any shard has a fault plan armed.
    pub fn faults_armed(&self) -> bool {
        self.shards.iter().any(|s| s.mux.faults_armed())
    }

    /// Sets or clears the screen-only overload hint on every shard
    /// (see [`StreamMux::set_screen_only`]): while set, in-band windows
    /// are force-decided at the band midpoint instead of escalating to
    /// the exact path, bounding verdict latency under backlog. A no-op
    /// (beyond remembering the flag) unless the shards run a screening
    /// cascade.
    pub fn set_screen_only(&mut self, on: bool) {
        for shard in &mut self.shards {
            shard.mux.set_screen_only(on);
        }
    }

    /// Whether the screen-only overload hint is currently set.
    pub fn screen_only(&self) -> bool {
        self.shards.iter().any(|s| s.mux.screen_only())
    }

    /// Enqueues one window, exactly like [`StreamMux::submit`] but with
    /// the backpressure bound applied across all shards and the window
    /// routed fill-first: to the lowest-index shard with a free lane,
    /// else the least-loaded one. An out-of-vocabulary window is
    /// refused and tallied ([`rejected_for`](Self::rejected_for)) — a
    /// typed rejection at the coordinator, never a panic on a shard
    /// thread where it would take every co-scheduled stream's windows
    /// down with it.
    ///
    /// # Panics
    ///
    /// Panics on an empty window (the engine's contract).
    pub fn submit(&mut self, stream: u64, at_call: usize, window: &[usize]) -> bool {
        assert!(!window.is_empty(), "empty sequence");
        if !self.in_vocabulary(window) {
            self.reject(stream);
            return false;
        }
        if self.pending() >= self.max_pending && !self.make_room(stream) {
            return false;
        }
        let target = self.route();
        let mut buf = self.shards[target].mux.lease_buf();
        buf.clear();
        buf.extend_from_slice(window);
        self.enqueue(target, stream, at_call, buf);
        true
    }

    /// Runs one coordinator round — flush, inbox drain, rebalance, one
    /// tick on every loaded shard (on the coordinator thread: one tick
    /// is less work than a pool handoff), settle — appending released
    /// verdicts to `out` and returning how many were appended.
    pub fn tick_into(&mut self, out: &mut Vec<Verdict>) -> usize {
        let before = out.len();
        self.round(out, 1);
        out.len() - before
    }

    /// Convenience wrapper over [`tick_into`](Self::tick_into).
    pub fn tick(&mut self) -> Vec<Verdict> {
        let mut out = Vec::new();
        self.tick_into(&mut out);
        out
    }

    /// Runs rounds until idle, appending every released verdict to
    /// `out`. Keeps the single mux's low-occupancy shortcut: with no
    /// lane active anywhere and at most `width/4` windows pending in
    /// total, the stragglers classify serially (bit-identical) instead
    /// of paying full-width lane sweeps.
    pub fn drain_into(&mut self, out: &mut Vec<Verdict>) {
        loop {
            self.flush_ready(out);
            self.drain_inboxes();
            let active = self.in_flight();
            let pending = self.pending();
            if active == 0 && pending == 0 {
                if self.shards.iter().any(|s| !s.inbox.is_empty()) {
                    // An injector raced the idle check; go around.
                    continue;
                }
                break;
            }
            if active == 0 && pending <= (self.width() / 4).max(1) {
                for i in 0..self.shards.len() {
                    let mut buf = std::mem::take(&mut self.shards[i].out);
                    self.shards[i].mux.classify_pending_serially(&mut buf);
                    self.settle_batch(&mut buf);
                    self.shards[i].out = buf;
                }
                continue;
            }
            self.round(out, DRAIN_BURST);
        }
        self.flush_ready(out);
        debug_assert!(self.order.is_empty(), "all in-flight windows settled");
    }

    /// Convenience wrapper over [`drain_into`](Self::drain_into).
    pub fn drain(&mut self) -> Vec<Verdict> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// Aggregated counters across shards plus coordinator-level drops
    /// steals and pool-dispatched rounds. Occupancy is lane-step-weighted
    /// (`Σ occupied / Σ ticks·width`); latency percentiles merge every
    /// shard's recent-retirement samples; `ticks` sums shard ticks
    /// (lane sweeps executed, wherever they ran).
    pub fn stats(&self) -> MuxStats {
        let per: Vec<MuxStats> = self.shards.iter().map(|s| s.mux.stats()).collect();
        let mut merged: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| s.mux.latency_samples().iter().copied())
            .collect();
        merged.sort_unstable();
        let pct = |q: f64| -> u64 {
            if merged.is_empty() {
                0
            } else {
                merged[((merged.len() - 1) as f64 * q).round() as usize]
            }
        };
        let lane_steps: u64 = per.iter().map(|s| s.ticks * self.width() as u64).sum();
        let occupied: u64 = self.shards.iter().map(|s| s.mux.occupied_steps()).sum();
        let verdicts: u64 = per.iter().map(|s| s.verdicts).sum();
        MuxStats {
            ticks: per.iter().map(|s| s.ticks).sum(),
            verdicts,
            dropped: self.evicted + self.refused + per.iter().map(|s| s.dropped).sum::<u64>(),
            evicted: self.evicted + per.iter().map(|s| s.evicted).sum::<u64>(),
            refused: self.refused + per.iter().map(|s| s.refused).sum::<u64>(),
            rejected: self.rejected + per.iter().map(|s| s.rejected).sum::<u64>(),
            occupancy: if lane_steps == 0 {
                0.0
            } else {
                occupied as f64 / lane_steps as f64
            },
            p50_latency_ticks: pct(0.50),
            p99_latency_ticks: pct(0.99),
            verdicts_per_sec: verdicts as f64 / self.started.elapsed().as_secs_f64().max(1e-9),
            faults: per.iter().map(|s| s.faults).sum(),
            degraded_reruns: per.iter().map(|s| s.degraded_reruns).sum(),
            degraded_ticks: per.iter().map(|s| s.degraded_ticks).sum(),
            lanes_poisoned: per.iter().map(|s| s.lanes_poisoned).sum(),
            screened: per.iter().map(|s| s.screened).sum(),
            escalated: per.iter().map(|s| s.escalated).sum(),
            cascade_flips: per.iter().map(|s| s.cascade_flips).sum(),
            forced_screen: per.iter().map(|s| s.forced_screen).sum(),
            screen_only_ticks: per.iter().map(|s| s.screen_only_ticks).sum(),
            steals: self.steals,
            parallel_rounds: self.parallel_rounds,
            shards: self.shards.len() as u64,
        }
    }

    /// Each shard's own counters (every snapshot reports `shards: 1`,
    /// `steals: 0` and `parallel_rounds: 0` — those are coordinator
    /// events).
    pub fn shard_stats(&self) -> Vec<MuxStats> {
        self.shards.iter().map(|s| s.mux.stats()).collect()
    }

    /// Approximate heap footprint of the mux: every shard's lane block
    /// and queues, the reorder map, and the coordinator buffers. Engine
    /// weight clones are excluded (per-shard constants, identical in
    /// every clone).
    pub fn resident_bytes(&self) -> usize {
        let verdict = std::mem::size_of::<Verdict>();
        let order_heap: usize = self
            .order
            .values()
            .map(|o| {
                o.outstanding.capacity() * std::mem::size_of::<u64>()
                    + o.held.capacity() * std::mem::size_of::<(u64, Option<Verdict>)>()
            })
            .sum();
        let table = |cap: usize, slot: usize| -> usize {
            if cap == 0 {
                0
            } else {
                (cap * 8 / 7).next_power_of_two() * (slot + 1)
            }
        };
        self.shards
            .iter()
            .map(|s| s.mux.resident_bytes() + s.out.capacity() * verdict)
            .sum::<usize>()
            + table(
                self.order.capacity(),
                std::mem::size_of::<(u64, StreamOrder)>(),
            )
            + order_heap
            + table(
                self.evicted_by_stream.capacity() + self.refused_by_stream.capacity(),
                std::mem::size_of::<(u64, u64)>(),
            )
            + self.ready.capacity() * verdict
            + self.inject_scratch.capacity() * std::mem::size_of::<Admission>()
    }

    /// Assigns the next global sequence number, records it in the
    /// stream's reorder state, and hands the buffer to `target`.
    fn enqueue(&mut self, target: usize, stream: u64, at_call: usize, buf: Vec<usize>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.order
            .entry(stream)
            .or_default()
            .outstanding
            .push_back(seq);
        self.shards[target]
            .mux
            .admit_owned(stream, at_call, seq, buf);
    }

    /// Applies the overflow policy when the global pending bound is hit.
    /// Returns whether the incoming window may be admitted.
    fn make_room(&mut self, incoming: u64) -> bool {
        match self.policy {
            OverflowPolicy::DropOldest => {
                // Evict the globally oldest pending window: smallest
                // admission sequence number across shard queue heads.
                let victim = self
                    .shards
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.mux.oldest_pending_order().map(|o| (o, i)))
                    .min();
                let Some((_, i)) = victim else {
                    // Nothing pending anywhere (the bound was consumed
                    // by in-flight work): admit.
                    return true;
                };
                // The victim was selected for having pending work, but a
                // miss must not panic the coordinator — just admit.
                let Some((stream, seq)) = self.shards[i].mux.evict_oldest_pending() else {
                    return true;
                };
                self.evicted += 1;
                *self.evicted_by_stream.entry(stream).or_insert(0) += 1;
                // A tombstone settles the dropped seq so later verdicts
                // of the stream are not held forever.
                self.settle(stream, seq, None);
                true
            }
            OverflowPolicy::DropNewest => {
                self.refused += 1;
                *self.refused_by_stream.entry(incoming).or_insert(0) += 1;
                false
            }
        }
    }

    /// Whether every token of `window` indexes the embedding table.
    fn in_vocabulary(&self, window: &[usize]) -> bool {
        window
            .iter()
            .all(|&item| crate::kernels::preprocess::in_vocabulary(self.vocab, item))
    }

    /// Tallies one out-of-vocabulary rejection against `stream`.
    fn reject(&mut self, stream: u64) {
        self.rejected += 1;
        *self.rejected_by_stream.entry(stream).or_insert(0) += 1;
    }

    /// The shard to route the next admission to, fill-first: the
    /// lowest-index shard whose load (pending + in-flight) is below its
    /// width; when every shard is full, the least-loaded one (ties to
    /// the lowest index). Deterministic either way.
    fn route(&self) -> usize {
        self.shards
            .iter()
            .position(|s| s.load() < s.mux.width())
            .unwrap_or_else(|| {
                self.shards
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, s)| (s.load(), i))
                    .map(|(i, _)| i)
                    .expect("at least one shard")
            })
    }

    /// One coordinator round: flush released verdicts, drain producer
    /// inboxes, rebalance, advance every loaded shard `ticks` ticks,
    /// settle the retirements, flush again. Shards advance in parallel
    /// on the pool only for multi-tick bursts with more than one shard
    /// loaded; anything less runs on the coordinator thread.
    fn round(&mut self, out: &mut Vec<Verdict>, ticks: usize) {
        self.flush_ready(out);
        self.drain_inboxes();
        self.rebalance();
        let loaded = self.shards.iter().filter(|s| !s.mux.is_idle()).count();
        if ticks > 1 && loaded > 1 && WorkerPool::global().threads() > 1 {
            self.parallel_rounds += 1;
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = self
                .shards
                .iter_mut()
                .filter(|s| !s.mux.is_idle())
                .map(|s| {
                    let Shard { mux, out, .. } = s;
                    Box::new(move || Self::advance(mux, out, ticks))
                        as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            WorkerPool::global().scatter_scoped(jobs);
        } else if loaded > 0 {
            for s in self.shards.iter_mut().filter(|s| !s.mux.is_idle()) {
                Self::advance(&mut s.mux, &mut s.out, ticks);
            }
        }
        for i in 0..self.shards.len() {
            let mut buf = std::mem::take(&mut self.shards[i].out);
            self.settle_batch(&mut buf);
            self.shards[i].out = buf;
        }
        self.flush_ready(out);
    }

    /// Advances one shard up to `ticks` ticks (stopping early if it
    /// goes idle), collecting retirements into its out-buffer.
    fn advance(mux: &mut StreamMux, out: &mut Vec<Verdict>, ticks: usize) {
        for _ in 0..ticks {
            if mux.is_idle() {
                break;
            }
            mux.tick_into(out);
        }
    }

    /// Drains every producer inbox through the normal admission path
    /// (global backpressure, sequencing, fill-first routing). The
    /// injected buffer is adopted directly — no copy; it joins the
    /// target shard's buffer pool at retirement.
    fn drain_inboxes(&mut self) {
        for i in 0..self.shards.len() {
            if self.shards[i].inbox.is_empty() {
                continue;
            }
            let mut msgs = std::mem::take(&mut self.inject_scratch);
            self.shards[i].inbox.drain_into(&mut msgs);
            for m in msgs.drain(..) {
                if !self.in_vocabulary(&m.window) {
                    // Injected windows skip `submit`, so the vocabulary
                    // boundary is enforced here instead — same typed
                    // rejection, same per-stream tally.
                    self.reject(m.stream);
                    continue;
                }
                if self.pending() >= self.max_pending && !self.make_room(m.stream) {
                    continue;
                }
                let target = self.route();
                self.enqueue(target, m.stream, m.at_call, m.window);
            }
            self.inject_scratch = msgs;
        }
    }

    /// Moves pending windows from overflowing shards (more windows than
    /// lanes) to shards with spare lane capacity until no victim is at
    /// least two loads above the thief, or no thief has room. Runs only
    /// on the coordinator between tick rounds, so the steal schedule
    /// never races shard threads.
    fn rebalance(&mut self) {
        if self.shards.len() < 2 {
            return;
        }
        loop {
            let thief = self
                .shards
                .iter()
                .enumerate()
                .filter(|(_, s)| s.load() < s.mux.width())
                .min_by_key(|&(i, s)| (s.load(), i));
            let Some((t, t_load)) = thief.map(|(i, s)| (i, s.load())) else {
                break;
            };
            let eligible: Vec<usize> = self
                .shards
                .iter()
                .enumerate()
                // Overflow only (`load > width` implies pending work): a
                // shard whose windows all fit its lanes keeps them, so
                // fill-first packing survives the rebalance.
                .filter(|&(i, s)| i != t && s.load() > s.mux.width() && s.load() > t_load + 1)
                .map(|(i, _)| i)
                .collect();
            if eligible.is_empty() {
                break;
            }
            let victim = match self.steal {
                StealPolicy::Deterministic => eligible
                    .iter()
                    .copied()
                    .max_by_key(|&i| (self.shards[i].load(), std::cmp::Reverse(i)))
                    .expect("eligible is non-empty"),
                StealPolicy::Seeded(_) => {
                    let k = (self.next_rand() % eligible.len() as u64) as usize;
                    eligible[k]
                }
            };
            // Eligibility requires pending work; a racing miss just ends
            // this rebalance round rather than panicking mid-steal.
            let Some(window) = self.shards[victim].mux.steal_youngest() else {
                break;
            };
            self.shards[t].mux.adopt(window);
            self.steals += 1;
        }
    }

    /// splitmix64 — the seeded steal mode's victim stream.
    fn next_rand(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Settles a batch of shard retirements, draining `buf`.
    fn settle_batch(&mut self, buf: &mut Vec<Verdict>) {
        for v in buf.drain(..) {
            self.settle(v.stream, v.seq, Some(v));
        }
    }

    /// Settles one sequence number of one stream — a verdict, or `None`
    /// for a backpressure drop. In-order arrivals release immediately
    /// (plus any held successors they unblock); early arrivals are held
    /// until their predecessors settle.
    fn settle(&mut self, stream: u64, seq: u64, verdict: Option<Verdict>) {
        use std::collections::hash_map::Entry;
        let Entry::Occupied(mut entry) = self.order.entry(stream) else {
            debug_assert!(false, "settle for a stream with no reorder state");
            self.ready.extend(verdict);
            return;
        };
        let state = entry.get_mut();
        if state.outstanding.front() != Some(&seq) {
            state.held.push((seq, verdict));
            return;
        }
        state.outstanding.pop_front();
        self.ready.extend(verdict);
        // Release any held successors that are now at the front.
        while let Some(&front) = state.outstanding.front() {
            let Some(pos) = state.held.iter().position(|&(s, _)| s == front) else {
                break;
            };
            let (_, held) = state.held.swap_remove(pos);
            state.outstanding.pop_front();
            self.ready.extend(held);
        }
        if state.outstanding.is_empty() {
            debug_assert!(state.held.is_empty(), "held without outstanding");
            entry.remove();
        }
    }

    /// Appends every released verdict to `out`.
    fn flush_ready(&mut self, out: &mut Vec<Verdict>) {
        out.append(&mut self.ready);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::OptimizationLevel;
    use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};

    fn engine(seed: u64) -> CsdInferenceEngine {
        let model = SequenceClassifier::new(ModelConfig::tiny(16), seed);
        CsdInferenceEngine::new(
            &ModelWeights::from_model(&model),
            OptimizationLevel::FixedPoint,
        )
    }

    fn seq(n: usize, salt: usize) -> Vec<usize> {
        (0..n).map(|i| (i * 37 + 11 + salt * 29) % 16).collect()
    }

    fn sharded(e: CsdInferenceEngine, shards: usize, lanes: usize) -> ShardedStreamMux {
        ShardedStreamMux::new(
            e,
            StreamMuxConfig {
                lanes: Some(lanes),
                shards: Some(shards),
                steal: Some(StealPolicy::Deterministic),
                ..StreamMuxConfig::default()
            },
        )
    }

    #[test]
    fn sharded_verdicts_bit_identical_to_serial_at_every_shard_count() {
        let e = engine(7);
        let windows: Vec<Vec<usize>> = (0..17).map(|k| seq(3 + (k * 13) % 40, k)).collect();
        let serial: Vec<_> = windows.iter().map(|w| e.classify(w)).collect();
        for shards in [1usize, 2, 3, 4] {
            let mut mux = sharded(e.clone(), shards, 2);
            let mut verdicts = Vec::new();
            for (k, w) in windows.iter().enumerate() {
                mux.submit(k as u64, k, w);
                if k % 3 == 0 {
                    mux.tick_into(&mut verdicts);
                }
            }
            mux.drain_into(&mut verdicts);
            assert!(mux.is_idle());
            assert_eq!(verdicts.len(), windows.len(), "{shards} shards");
            for v in &verdicts {
                assert_eq!(
                    v.classification, serial[v.stream as usize],
                    "{shards} shards, stream {}",
                    v.stream
                );
            }
        }
    }

    #[test]
    fn per_stream_verdicts_arrive_in_submission_order() {
        // One stream's windows are deliberately ragged — a long window
        // followed by short ones — so shards would retire them out of
        // order without the reorder buffer.
        let e = engine(3);
        let mut mux = sharded(e, 4, 1);
        let lens = [60usize, 4, 30, 5, 12, 4, 40, 6];
        for (k, &n) in lens.iter().enumerate() {
            mux.submit(9, k, &seq(n, k));
            mux.submit(k as u64 + 100, k, &seq(n / 2 + 2, k + 50));
        }
        let verdicts = mux.drain();
        let stream9: Vec<usize> = verdicts
            .iter()
            .filter(|v| v.stream == 9)
            .map(|v| v.at_call)
            .collect();
        assert_eq!(stream9, (0..lens.len()).collect::<Vec<_>>());
        // And seq numbers are strictly increasing per stream.
        let seqs: Vec<u64> = verdicts
            .iter()
            .filter(|v| v.stream == 9)
            .map(|v| v.seq)
            .collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn deterministic_and_seeded_steals_are_reproducible() {
        let e = engine(11);
        let windows: Vec<Vec<usize>> = (0..24).map(|k| seq(2 + (k * 7) % 50, k)).collect();
        for policy in [
            StealPolicy::Deterministic,
            StealPolicy::Seeded(42),
            StealPolicy::Seeded(1234),
        ] {
            let run = |policy: StealPolicy| -> (Vec<(u64, u64)>, u64) {
                let mut mux = ShardedStreamMux::new(
                    e.clone(),
                    StreamMuxConfig {
                        lanes: Some(1),
                        shards: Some(3),
                        steal: Some(policy),
                        ..StreamMuxConfig::default()
                    },
                );
                let mut verdicts = Vec::new();
                for (k, w) in windows.iter().enumerate() {
                    mux.submit(k as u64, k, w);
                    mux.tick_into(&mut verdicts);
                }
                mux.drain_into(&mut verdicts);
                (
                    verdicts.iter().map(|v| (v.stream, v.seq)).collect(),
                    mux.stats().steals,
                )
            };
            let (a, steals_a) = run(policy);
            let (b, steals_b) = run(policy);
            assert_eq!(a, b, "{policy:?} must reproduce its schedule");
            assert_eq!(steals_a, steals_b);
        }
    }

    #[test]
    fn idle_shards_steal_pending_windows_from_loaded_ones() {
        // Width-1 shards and ragged lengths: the shard that lands the
        // short windows goes idle while the other still holds a
        // backlog, so the rebalancer must move work.
        let e = engine(5);
        let mut mux = sharded(e, 2, 1);
        for k in 0..12u64 {
            let n = if k % 2 == 0 { 50 } else { 3 };
            mux.submit(k, k as usize, &seq(n, k as usize));
        }
        let verdicts = mux.drain();
        assert_eq!(verdicts.len(), 12);
        assert!(mux.stats().steals > 0, "rebalancer never fired");
        // Work actually ran on both shards.
        for (i, s) in mux.shard_stats().iter().enumerate() {
            assert!(s.verdicts > 0, "shard {i} retired nothing");
        }
    }

    #[test]
    fn low_load_packs_into_one_shard() {
        // Fill-first routing: while shard 0 has a free lane, every
        // window lands there and shard 1 never sweeps its lanes.
        let e = engine(9);
        for n in 1..=4usize {
            let mut mux = sharded(e.clone(), 2, 4);
            for k in 0..n {
                mux.submit(k as u64, k, &seq(5 + 7 * k, k));
            }
            let mut verdicts = Vec::new();
            while !mux.is_idle() {
                mux.tick_into(&mut verdicts);
            }
            assert_eq!(verdicts.len(), n);
            let per = mux.shard_stats();
            assert_eq!(per[0].verdicts, n as u64, "{n} windows");
            assert_eq!(per[1].ticks, 0, "{n} windows: shard 1 stayed idle");
            assert_eq!(mux.stats().steals, 0, "{n} windows");
        }
        // Past one shard's width the overflow spills to the next shard.
        let mut mux = sharded(e, 2, 4);
        for k in 0..9u64 {
            mux.submit(k, k as usize, &seq(6, k as usize));
        }
        assert_eq!(mux.drain().len(), 9);
        for (i, s) in mux.shard_stats().iter().enumerate() {
            assert!(s.verdicts > 0, "shard {i} retired nothing");
        }
    }

    #[test]
    fn single_tick_rounds_stay_on_the_coordinator() {
        let e = engine(4);
        let windows: Vec<Vec<usize>> = (0..12).map(|k| seq(4 + (k * 11) % 30, k)).collect();
        let mut mux = sharded(e.clone(), 2, 2);
        for (k, w) in windows.iter().enumerate() {
            mux.submit(k as u64, k, w);
        }
        let mut verdicts = Vec::new();
        while !mux.is_idle() {
            mux.tick_into(&mut verdicts);
        }
        assert_eq!(verdicts.len(), windows.len());
        // Both shards were loaded, yet no one-tick round crossed threads.
        for (i, s) in mux.shard_stats().iter().enumerate() {
            assert!(s.ticks > 0, "shard {i} never ticked");
            assert_eq!(s.parallel_rounds, 0);
        }
        assert_eq!(mux.stats().parallel_rounds, 0, "tick rounds ran inline");
        // A drain of an over-width load scatters its bursts to the pool
        // (when the pool has more than one thread to scatter to).
        let mut mux = sharded(e, 2, 2);
        for (k, w) in windows.iter().enumerate() {
            mux.submit(k as u64, k, w);
        }
        assert_eq!(mux.drain().len(), windows.len());
        let parallel = mux.stats().parallel_rounds;
        if WorkerPool::global().threads() > 1 {
            assert!(parallel > 0, "drain bursts never reached the pool");
        } else {
            assert_eq!(parallel, 0);
        }
    }

    #[test]
    fn global_backpressure_drops_oldest_across_shards() {
        let e = engine(2);
        let mut mux = ShardedStreamMux::new(
            e,
            StreamMuxConfig {
                lanes: Some(1),
                max_pending: 3,
                policy: OverflowPolicy::DropOldest,
                shards: Some(2),
                steal: Some(StealPolicy::Deterministic),
                ..StreamMuxConfig::default()
            },
        );
        for k in 0..8u64 {
            // DropOldest always admits: the oldest pending window is
            // evicted to make room. Nothing occupies a lane until the
            // first tick, so 5 of the 8 are evicted and 3 survive.
            assert!(mux.submit(k, k as usize, &seq(6, k as usize)));
        }
        let stats = mux.stats();
        assert_eq!(stats.dropped, 5, "8 submitted, bound 3 → 5 evicted");
        let verdicts = mux.drain();
        assert_eq!(verdicts.len(), 3);
        // The survivors are the newest three; the evicted ones are
        // charged to their streams.
        let total_drops: u64 = (0..8u64).map(|k| mux.dropped_for(k)).sum();
        assert_eq!(total_drops, 5);
        for k in 0..5u64 {
            assert_eq!(mux.dropped_for(k), 1);
            assert_eq!(mux.evicted_for(k), 1, "DropOldest losses are evictions");
            assert_eq!(mux.refused_for(k), 0);
        }
        assert_eq!(stats.evicted, 5);
        assert_eq!(stats.refused, 0);
    }

    #[test]
    fn drop_newest_refuses_and_charges_the_submitter() {
        let e = engine(2);
        let mut mux = ShardedStreamMux::new(
            e,
            StreamMuxConfig {
                lanes: Some(1),
                max_pending: 1,
                policy: OverflowPolicy::DropNewest,
                shards: Some(2),
                steal: Some(StealPolicy::Deterministic),
                ..StreamMuxConfig::default()
            },
        );
        // The first submit queues as pending; the tick moves it into a
        // lane, freeing the pending bound for one more.
        assert!(mux.submit(0, 0, &seq(6, 0)));
        // Bound is 1: the second submit already exceeds it and, under
        // DropNewest, is refused and charged to its own stream.
        assert!(!mux.submit(1, 1, &seq(6, 1)));
        assert_eq!(mux.dropped_for(1), 1);
        let _ = mux.tick();
        assert!(mux.submit(2, 2, &seq(6, 2)));
        assert!(!mux.submit(3, 3, &seq(6, 3)), "bound hit, newest refused");
        assert_eq!(mux.dropped_for(3), 1);
        let verdicts = mux.drain();
        assert_eq!(verdicts.len(), 2, "streams 0 and 2 made it through");
        assert_eq!(mux.stats().dropped, 2);
        assert_eq!(mux.stats().refused, 2, "DropNewest losses are refusals");
        assert_eq!(mux.stats().evicted, 0);
        assert_eq!(mux.refused_for(1), 1);
        assert_eq!(mux.loss_for(3).refused, 1);
    }

    #[test]
    fn injector_feeds_the_mux_from_other_threads() {
        let e = engine(13);
        let windows: Vec<Vec<usize>> = (0..40).map(|k| seq(3 + k % 20, k)).collect();
        let serial: Vec<_> = windows.iter().map(|w| e.classify(w)).collect();
        let mut mux = sharded(e, 2, 2);
        let injector = mux.injector();
        std::thread::scope(|scope| {
            for chunk in 0..4usize {
                let injector = injector.clone();
                let windows = &windows;
                scope.spawn(move || {
                    for (k, w) in windows.iter().enumerate().skip(chunk * 10).take(10) {
                        injector.submit(k as u64, k, w);
                    }
                });
            }
        });
        // All pushes done (threads joined); drain admits and runs them.
        let verdicts = mux.drain();
        assert_eq!(verdicts.len(), windows.len());
        for v in &verdicts {
            assert_eq!(v.classification, serial[v.stream as usize]);
        }
        assert!(mux.is_idle());
    }

    #[test]
    fn env_overrides_resolve_shard_count_and_steal_policy() {
        // Unique-ish knob values, set and removed immediately; the
        // parity tests are shard-count-agnostic so a brief overlap with
        // a parallel test constructing a mux is harmless.
        std::env::set_var("CSD_STREAM_SHARDS", "3");
        std::env::set_var("CSD_STREAM_DETERMINISTIC_STEAL", "yes");
        let mux = ShardedStreamMux::new(engine(1), StreamMuxConfig::default());
        std::env::remove_var("CSD_STREAM_SHARDS");
        std::env::remove_var("CSD_STREAM_DETERMINISTIC_STEAL");
        assert_eq!(mux.shards(), 3);
        assert_eq!(mux.steal_policy(), StealPolicy::Deterministic);
        // Config wins over environment.
        std::env::set_var("CSD_STREAM_SHARDS", "7");
        let pinned = ShardedStreamMux::new(
            engine(1),
            StreamMuxConfig {
                shards: Some(2),
                ..StreamMuxConfig::default()
            },
        );
        std::env::remove_var("CSD_STREAM_SHARDS");
        assert_eq!(pinned.shards(), 2);
    }

    #[test]
    fn aggregated_stats_sum_shards_and_count_steals() {
        let e = engine(5);
        let mut mux = sharded(e, 2, 1);
        for k in 0..12u64 {
            let n = if k % 2 == 0 { 50 } else { 3 };
            mux.submit(k, k as usize, &seq(n, k as usize));
        }
        let _ = mux.drain();
        let agg = mux.stats();
        let per = mux.shard_stats();
        assert_eq!(agg.shards, 2);
        assert_eq!(agg.verdicts, per.iter().map(|s| s.verdicts).sum::<u64>());
        assert_eq!(agg.ticks, per.iter().map(|s| s.ticks).sum::<u64>());
        assert!(agg.occupancy > 0.0 && agg.occupancy <= 1.0);
        assert!(agg.p50_latency_ticks <= agg.p99_latency_ticks);
        for s in &per {
            assert_eq!(s.shards, 1);
            assert_eq!(s.steals, 0);
        }
    }

    #[test]
    fn oov_windows_rejected_at_every_shard_count_on_both_admission_paths() {
        // Regression: an out-of-vocabulary token admitted to any shard
        // would panic that shard's lane block mid-scatter and poison
        // the whole coordinator round. Both admission paths — direct
        // submit and the injector inboxes — now refuse it with a typed
        // per-stream tally, and clean streams classify bit-identically.
        let e = engine(7); // tiny(16): vocabulary is 0..=15
        let windows: Vec<Vec<usize>> = (0..9).map(|k| seq(3 + (k * 13) % 30, k)).collect();
        let serial: Vec<_> = windows.iter().map(|w| e.classify(w)).collect();
        for shards in [1usize, 2, 3] {
            let mut mux = sharded(e.clone(), shards, 2);
            let mut bad = seq(10, 1);
            bad[5] = 16;
            assert!(!mux.submit(50, 0, &bad), "{shards} shards: OOV refused");
            for (k, w) in windows.iter().enumerate() {
                assert!(mux.submit(k as u64, k, w));
            }
            // The injector path validates at inbox drain, not at push.
            let injector = mux.injector();
            injector.submit(51, 1, &bad);
            injector.submit(51, 2, &[9, 99, 9]);
            let verdicts = mux.drain();
            assert_eq!(verdicts.len(), windows.len(), "{shards} shards");
            for v in &verdicts {
                assert_eq!(v.classification, serial[v.stream as usize]);
            }
            assert_eq!(mux.rejected_for(50), 1);
            assert_eq!(mux.rejected_for(51), 2);
            assert_eq!(mux.rejected_for(0), 0);
            let stats = mux.stats();
            assert_eq!(stats.rejected, 3, "{shards} shards");
            assert_eq!(stats.dropped, 0, "rejection is not backpressure");
            assert!(mux.is_idle());
        }
    }

    #[test]
    fn resident_bytes_shrinks_when_buffers_are_small() {
        let e = engine(1);
        let narrow = sharded(e.clone(), 1, 1);
        let wide = sharded(e, 4, 16);
        assert!(narrow.resident_bytes() < wide.resident_bytes());
    }
}
