//! Continuous-batching stream multiplexer: fleet-scale online
//! classification at lane throughput.
//!
//! The paper's deployment is *continuous* monitoring of many concurrent
//! API-call streams (§I "execute the classifier continuously in the
//! background"; §II's data-center host runs thousands of processes). The
//! serial [`StreamMonitor`](crate::monitor::StreamMonitor) classifies one
//! full window per completed stride — fine for one stream, but a fleet of
//! processes turns that into thousands of independent serial `classify`
//! calls, leaving the lane-batched SoA kernels idle exactly where the
//! workload is most batchable.
//!
//! [`StreamMux`] closes that gap with *iteration-level* (continuous)
//! batching, the scheduling idea behind Orca-style LLM serving applied to
//! LSTM windows: a fixed block of `W` lane slots advances all in-flight
//! windows one timestep per [`tick`](StreamMux::tick) through
//! [`CsdInferenceEngine::step_lanes`]; a window that consumes its last
//! item retires within the tick ([`CsdInferenceEngine::retire_lane`] — the
//! FC head), and its slot is refilled from the pending queue *in the same
//! tick*, so slots never idle waiting for a batch barrier. Admission is
//! FIFO; a bounded pending queue applies backpressure with a configurable
//! drop policy. Every verdict is bit-identical to serial
//! [`classify`](crate::engine::CsdInferenceEngine::classify) of the same
//! window — the lane-stepping contract — so going online changes nothing
//! observable except throughput.
//!
//! [`FleetMonitor`] stacks the per-process monitor semantics (rolling
//! window, stride, k-of-n vote debouncing, alert latching — exactly
//! [`StreamMonitor`](crate::monitor::StreamMonitor)'s) on top of the mux:
//! `observe` only appends to per-process rolling windows and enqueues
//! completed windows; `poll`/`drain` run mux ticks and fold retired
//! verdicts back into per-process vote state, emitting [`Alert`]s.
//!
//! # Two-tier cascade
//!
//! With `CSD_CASCADE` on (or [`StreamMuxConfig::cascade`] set) *and* a
//! [`CascadeTier`] mounted on the engine, the mux runs two lane blocks
//! per tick. Pending windows are admitted to the *screen* block first —
//! the quantized `i16` model advancing in bulk through
//! [`ScreenGates::step_lanes`](crate::cascade::ScreenGates::step_lanes).
//! A retiring screen lane consults the calibrated
//! [`CascadeBand`](crate::cascade::CascadeBand): outside the band the
//! screen's verdict is emitted directly; inside it the window re-enters
//! the *exact* lane scheduler (pos reset, same latency clock) and
//! retires through the usual bit-exact path. Every serial fallback
//! (overlong windows, the low-occupancy drain shortcut, degraded-mode
//! reruns) applies the same screen-then-maybe-escalate rule, so a
//! window's verdict is a pure function of its contents — identical at
//! every shard count and on every fallback route. With cascade off the
//! mux is byte-for-byte the single-tier machine: the parity anchor.
//!
//! Two contract changes while screening, both visible and deliberate:
//! screen-resolved verdicts report the screen probability
//! (`score/scale`, not the exact path's bits), and a standalone mux's
//! retirement order interleaves the two blocks (the sharded mux still
//! delivers per-stream submission order). [`CascadeMode::Verify`]
//! shadow-classifies every screen-resolved window on the exact path and
//! counts disagreements in [`MuxStats::cascade_flips`] — the production
//! mode's zero-flip claim, measurable in place.

#![deny(clippy::unwrap_used)]

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Once};
use std::time::Instant;

use csd_device::FaultPlan;
use serde::{Deserialize, Serialize};

use crate::cascade::{CascadeMode, CascadeTier};
use crate::engine::{Classification, CsdInferenceEngine};
use crate::monitor::{Alert, MonitorConfig, RollingWindow};
use crate::schedule::PipelineSchedule;
use crate::scratch::{EngineScratch, LaneScratch, ScreenLaneScratch};
use crate::shard::{ShardedStreamMux, StealPolicy};
use crate::weights::LANE_MAX_STEPS;

/// One-shot notice when screening is requested but unavailable: the mux
/// falls back to single-tier silently after the first warning.
static CASCADE_FALLBACK_LOGGED: Once = Once::new();

/// What [`StreamMux::submit`] does when the pending queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverflowPolicy {
    /// Evict the oldest pending window to admit the new one — the
    /// freshest data wins (default: stale windows age out under
    /// overload, recent behaviour keeps being classified).
    DropOldest,
    /// Refuse the new window, keeping the queue intact.
    DropNewest,
}

/// Configuration for a [`StreamMux`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamMuxConfig {
    /// Number of lane slots `W`. `None` resolves the `CSD_STREAM_LANES`
    /// environment knob, falling back to the engine's cache-derived
    /// [`lane_width`](CsdInferenceEngine::lane_width).
    pub lanes: Option<usize>,
    /// Bound on the pending-window queue; [`OverflowPolicy`] applies
    /// beyond it.
    pub max_pending: usize,
    /// What to do when `max_pending` is reached.
    pub policy: OverflowPolicy,
    /// Shard count for a [`ShardedStreamMux`] built from this config.
    /// `None` resolves the `CSD_STREAM_SHARDS` environment knob, falling
    /// back to the worker pool's thread count. Ignored by a standalone
    /// [`StreamMux`] (always one shard).
    #[serde(default)]
    pub shards: Option<usize>,
    /// Work-steal policy for a [`ShardedStreamMux`]. `None` resolves the
    /// `CSD_STREAM_DETERMINISTIC_STEAL` environment knob, falling back
    /// to [`StealPolicy::default`]. Ignored by a standalone
    /// [`StreamMux`].
    #[serde(default)]
    pub steal: Option<StealPolicy>,
    /// Two-tier cascade mode. `None` resolves the `CSD_CASCADE`
    /// environment knob (default [`CascadeMode::Off`]). Screening also
    /// requires a [`CascadeTier`] mounted on the engine
    /// ([`with_cascade`](CsdInferenceEngine::with_cascade)); without one
    /// the mux logs a one-shot notice and runs single-tier.
    #[serde(default)]
    pub cascade: Option<CascadeMode>,
}

impl Default for StreamMuxConfig {
    fn default() -> Self {
        Self {
            lanes: None,
            max_pending: 4096,
            policy: OverflowPolicy::DropOldest,
            shards: None,
            steal: None,
            cascade: None,
        }
    }
}

/// One retired window's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// The stream (process) id the window came from.
    pub stream: u64,
    /// Caller-supplied position tag (the call index that completed the
    /// window, for monitors).
    pub at_call: usize,
    /// The classification — bit-identical to serial `classify` of the
    /// same window.
    pub classification: Classification,
    /// Ticks from submission to retirement (queue wait + compute).
    pub latency_ticks: u64,
    /// Admission sequence number, assigned by the mux at `submit` and
    /// strictly increasing in submission order (so each stream's own
    /// verdicts carry an increasing subsequence). The sharded mux uses
    /// it to deliver per-stream verdicts in submission order no matter
    /// which shard ran the window.
    #[serde(default)]
    pub seq: u64,
}

/// A snapshot of the multiplexer's tick-level counters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MuxStats {
    /// Lane-sweep ticks executed.
    pub ticks: u64,
    /// Windows retired (verdicts emitted).
    pub verdicts: u64,
    /// Windows dropped by backpressure — the sum of
    /// [`evicted`](Self::evicted) and [`refused`](Self::refused), kept
    /// as the historical aggregate so old snapshots stay comparable.
    pub dropped: u64,
    /// Windows evicted *after admission*: the queue was full under
    /// [`OverflowPolicy::DropOldest`] and the oldest pending window was
    /// discarded to make room for a newer one. Charged to the stream
    /// that lost its window, not the one that submitted.
    #[serde(default)]
    pub evicted: u64,
    /// Windows refused *at submission*: the queue was full under
    /// [`OverflowPolicy::DropNewest`] and the incoming window was turned
    /// away. Charged to the submitting stream.
    #[serde(default)]
    pub refused: u64,
    /// Windows refused at submission for out-of-vocabulary tokens — a
    /// typed rejection at the admission boundary, never a panic inside
    /// a shared lane block. Distinct from backpressure: rejection means
    /// the *data* was unclassifiable, not that the mux was overloaded.
    #[serde(default)]
    pub rejected: u64,
    /// Mean fraction of lane slots occupied per tick (1.0 = every sweep
    /// fully utilized).
    pub occupancy: f64,
    /// Median submission-to-verdict latency in ticks, over the most
    /// recent window of verdicts.
    pub p50_latency_ticks: u64,
    /// 99th-percentile submission-to-verdict latency in ticks, over the
    /// most recent window of verdicts.
    pub p99_latency_ticks: u64,
    /// Verdicts per wall-clock second since the mux was created.
    pub verdicts_per_sec: f64,
    /// Lane-corruption faults injected by an armed
    /// [`FaultPlan`] (degraded mode; 0 when no plan is armed).
    pub faults: u64,
    /// Windows evicted from a corrupted lane and re-classified through
    /// the serial fused path — every one still produced its verdict.
    pub degraded_reruns: u64,
    /// Ticks that ran (or idled forward) with at least one lane
    /// poisoned.
    pub degraded_ticks: u64,
    /// Lanes currently poisoned (out of service awaiting cooldown).
    pub lanes_poisoned: u64,
    /// Windows resolved by the screen tier without touching the exact
    /// path (0 unless the cascade is screening).
    #[serde(default)]
    pub screened: u64,
    /// Windows whose screen score fell inside the calibrated band and
    /// escalated to the exact path (0 unless the cascade is screening).
    #[serde(default)]
    pub escalated: u64,
    /// Screen-resolved windows whose verdict disagreed with the exact
    /// path's, counted only under [`CascadeMode::Verify`] (the screen
    /// verdict is still the one emitted).
    #[serde(default)]
    pub cascade_flips: u64,
    /// Windows force-decided at the screen band's midpoint while the
    /// screen-only overload hint was set — verdicts that would have
    /// escalated to the exact path under normal operation. A knowingly
    /// degraded count, kept separate from [`screened`](Self::screened)
    /// so overload-mode coverage is never mistaken for calibrated
    /// screening.
    #[serde(default)]
    pub forced_screen: u64,
    /// Ticks executed while the screen-only overload hint was set.
    #[serde(default)]
    pub screen_only_ticks: u64,
    /// Pending windows moved between shards by the rebalancer (always 0
    /// for a standalone mux, and for a shard's own snapshot — steals are
    /// coordinator events).
    #[serde(default)]
    pub steals: u64,
    /// Coordinator rounds whose shard ticks were dispatched to the
    /// worker pool instead of running on the coordinator thread (always
    /// 0 for a standalone mux, and for a shard's own snapshot).
    #[serde(default)]
    pub parallel_rounds: u64,
    /// Shards aggregated into this snapshot (1 for a standalone mux or
    /// a single shard's snapshot).
    #[serde(default = "MuxStats::one_shard")]
    pub shards: u64,
}

impl MuxStats {
    /// Serde default for [`shards`](Self::shards): historical snapshots
    /// predate sharding and were all single-mux.
    fn one_shard() -> u64 {
        1
    }
}

/// Per-stream submission-loss breakdown: every way a stream's windows
/// can fail to produce a verdict, separately countable so a monitor (or
/// the sentry service) can report *why* a process lost coverage — was
/// its data garbage, was it overload eviction, or was it turned away at
/// the door.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamLoss {
    /// Admitted windows of this stream later evicted by
    /// [`OverflowPolicy::DropOldest`] backpressure.
    pub evicted: u64,
    /// Windows refused at submission by [`OverflowPolicy::DropNewest`]
    /// backpressure.
    pub refused: u64,
    /// Windows refused at submission for out-of-vocabulary tokens.
    pub rejected: u64,
}

impl StreamLoss {
    /// Total windows of the stream that never produced a verdict.
    pub fn total(&self) -> u64 {
        self.evicted + self.refused + self.rejected
    }

    /// Backpressure losses only (evicted + refused), matching the
    /// historical `dropped` aggregate.
    pub fn dropped(&self) -> u64 {
        self.evicted + self.refused
    }
}

/// A window travelling through the mux: pending (`pos == 0`, queued) or
/// active (occupying a lane at item `pos`). `pub(crate)` so the sharded
/// mux can move pending windows between shards as opaque values; the
/// fields stay private to this module.
#[derive(Debug, Clone)]
pub(crate) struct Window {
    stream: u64,
    at_call: usize,
    seq: Vec<usize>,
    pos: usize,
    enqueued_tick: u64,
    /// Admission sequence number (see [`Verdict::seq`]).
    order: u64,
    /// Whether the screen tier already saw this window and escalated it:
    /// an escalated window must take the exact path, never re-screen.
    screened: bool,
}

/// The screen tier's lane block: the quantized `i16` model's scratch,
/// its slots, and the queue of windows it escalated to the exact lanes.
#[derive(Debug, Clone)]
struct ScreenBlock {
    scratch: ScreenLaneScratch,
    slots: Vec<Option<Window>>,
    /// Reused per-tick gather argument for `ScreenGates::step_lanes`.
    items: Vec<Option<usize>>,
    active: usize,
    /// Windows the band refused to resolve, waiting for an exact lane.
    escalated: VecDeque<Window>,
}

impl ScreenBlock {
    fn new(hidden: usize, width: usize) -> Self {
        Self {
            scratch: ScreenLaneScratch::new(hidden, width),
            slots: (0..width).map(|_| None).collect(),
            items: vec![None; width],
            active: 0,
            escalated: VecDeque::new(),
        }
    }

    /// Windows occupying screen lanes or waiting escalated.
    fn in_flight(&self) -> usize {
        self.active + self.escalated.len()
    }

    fn resident_bytes(&self) -> usize {
        let win = |w: &Window| {
            std::mem::size_of::<Window>() + w.seq.capacity() * std::mem::size_of::<usize>()
        };
        self.scratch.resident_bytes()
            + self.slots.iter().flatten().map(win).sum::<usize>()
            + self.slots.capacity() * std::mem::size_of::<Option<Window>>()
            + self.items.capacity() * std::mem::size_of::<Option<usize>>()
            + self.escalated.iter().map(win).sum::<usize>()
    }
}

/// Verdict latencies kept for percentile stats (a ring of the most
/// recent retirements, so long-running muxes stay bounded).
const LATENCY_RING: usize = 4096;

/// The continuous-batching stream multiplexer.
///
/// See the [module docs](self) for the scheduling model. Construction
/// allocates one lane block; `submit` copies each window into a pooled
/// buffer (buffers recycle through retirements, so the steady state
/// allocates nothing).
#[derive(Debug, Clone)]
pub struct StreamMux {
    engine: CsdInferenceEngine,
    width: usize,
    scratch: LaneScratch,
    serial_scratch: EngineScratch,
    /// Per-lane occupancy.
    slots: Vec<Option<Window>>,
    /// Reused per-tick gather argument for `step_lanes`.
    items: Vec<Option<usize>>,
    pending: VecDeque<Window>,
    free_bufs: Vec<Vec<usize>>,
    max_pending: usize,
    policy: OverflowPolicy,
    /// Whether the engine's lane-stepping path is available; when not,
    /// every window takes the (bit-identical) serial path.
    lane_ok: bool,
    active: usize,
    ticks: u64,
    verdicts: u64,
    /// Admitted windows later evicted by `DropOldest` backpressure.
    evicted: u64,
    /// Windows refused at submission by `DropNewest` backpressure.
    refused: u64,
    /// Per-stream backpressure-eviction tallies (which process lost
    /// already-admitted data, not just how much was lost overall).
    evicted_by_stream: HashMap<u64, u64>,
    /// Per-stream refused-at-submission tallies.
    refused_by_stream: HashMap<u64, u64>,
    /// Windows refused at submission for out-of-vocabulary tokens.
    rejected: u64,
    /// Per-stream out-of-vocabulary rejection tallies: which process
    /// fed the mux garbage, not just that garbage arrived.
    rejected_by_stream: HashMap<u64, u64>,
    /// Vocabulary size, cached for submission-boundary validation.
    vocab: usize,
    occupied_steps: u64,
    latencies: Vec<u64>,
    lat_next: usize,
    /// Next admission sequence number (see [`Verdict::seq`]).
    next_order: u64,
    started: Instant,
    /// Armed fault plan: each occupied lane draws one lane-corruption
    /// chance per tick. `None` = fault-free (zero overhead).
    faults: Option<FaultPlan>,
    /// Ticks a poisoned lane sits out before re-admission.
    lane_cooldown: u64,
    /// Per-lane poison state: `Some(t)` keeps the lane out of service
    /// until tick `t`.
    poisoned: Vec<Option<u64>>,
    fault_events: u64,
    degraded_reruns: u64,
    degraded_ticks: u64,
    /// Resolved cascade mode: [`CascadeMode::Off`] unless screening was
    /// requested *and* the engine carries a tier.
    cascade_mode: CascadeMode,
    /// The engine's mounted screen tier (present iff `cascade_mode`
    /// screens), shared by the screen block and the serial fallbacks.
    tier: Option<Arc<CascadeTier>>,
    /// The screen lane block; `None` when not screening, or when the
    /// engine's lane path is unavailable (serial cascade fallback).
    screen: Option<ScreenBlock>,
    screened: u64,
    escalated: u64,
    cascade_flips: u64,
    /// Overload hint: while set, windows the band would escalate are
    /// force-decided at the band midpoint instead of taking an exact
    /// lane (see [`set_screen_only`](Self::set_screen_only)).
    screen_only: bool,
    forced_screen: u64,
    screen_only_ticks: u64,
}

impl StreamMux {
    /// Builds a multiplexer around `engine`.
    ///
    /// # Panics
    ///
    /// Panics when `config.lanes` is `Some(0)` or `config.max_pending`
    /// is zero.
    pub fn new(engine: CsdInferenceEngine, config: StreamMuxConfig) -> Self {
        let width = config
            .lanes
            .or_else(|| crate::env::positive_usize("CSD_STREAM_LANES"))
            .unwrap_or_else(|| engine.lane_width());
        assert!(width > 0, "a stream mux needs at least one lane");
        assert!(config.max_pending > 0, "max_pending must be positive");
        let scratch = LaneScratch::new(engine.weights().dims(), width);
        let serial_scratch = engine.make_scratch();
        let lane_ok = engine.supports_lane_stepping();
        let vocab = engine.weights().dims().vocab;
        let requested = config.cascade.unwrap_or_else(crate::env::cascade_mode);
        let tier = if requested.screening() {
            let tier = engine.cascade_shared();
            if tier.is_none() {
                CASCADE_FALLBACK_LOGGED.call_once(|| {
                    eprintln!(
                        "csd-accel: CSD_CASCADE requests screening but the engine has no \
                         mounted cascade tier; the stream mux runs single-tier (exact path)"
                    );
                });
            }
            tier
        } else {
            None
        };
        let cascade_mode = if tier.is_some() {
            requested
        } else {
            CascadeMode::Off
        };
        let screen = tier.as_ref().filter(|_| lane_ok).map(|t| {
            let hidden = t.gates().hidden();
            ScreenBlock::new(hidden, width)
        });
        Self {
            engine,
            width,
            scratch,
            serial_scratch,
            slots: (0..width).map(|_| None).collect(),
            items: vec![None; width],
            pending: VecDeque::new(),
            free_bufs: Vec::new(),
            max_pending: config.max_pending,
            policy: config.policy,
            lane_ok,
            active: 0,
            ticks: 0,
            verdicts: 0,
            evicted: 0,
            refused: 0,
            evicted_by_stream: HashMap::new(),
            refused_by_stream: HashMap::new(),
            rejected: 0,
            rejected_by_stream: HashMap::new(),
            vocab,
            occupied_steps: 0,
            latencies: Vec::with_capacity(LATENCY_RING),
            lat_next: 0,
            next_order: 0,
            started: Instant::now(),
            faults: None,
            lane_cooldown: 0,
            poisoned: vec![None; width],
            fault_events: 0,
            degraded_reruns: 0,
            degraded_ticks: 0,
            cascade_mode,
            tier,
            screen,
            screened: 0,
            escalated: 0,
            cascade_flips: 0,
            screen_only: false,
            forced_screen: 0,
            screen_only_ticks: 0,
        }
    }

    /// Sets or clears the screen-only overload hint. While set, windows
    /// whose screen score falls inside the calibrated band are
    /// force-decided at the band midpoint ([`CascadeBand::force`])
    /// instead of escalating to the exact path — bounding verdict
    /// latency under backlog at the cost of calibrated accuracy, with
    /// every forced verdict counted in [`MuxStats::forced_screen`].
    /// Windows already escalated keep their claim on an exact lane.
    /// A no-op (beyond remembering the flag) unless the mux is running
    /// a screening cascade: with no screen tier there is no cheaper
    /// path to prefer.
    pub fn set_screen_only(&mut self, on: bool) {
        self.screen_only = on;
    }

    /// Whether the screen-only overload hint is currently set.
    pub fn screen_only(&self) -> bool {
        self.screen_only
    }

    /// The resolved cascade mode: [`CascadeMode::Off`] unless screening
    /// was requested and the engine carries a mounted tier.
    pub fn cascade_mode(&self) -> CascadeMode {
        self.cascade_mode
    }

    /// Arms degraded mode: each occupied lane draws one corruption
    /// chance per tick from `plan` ([`FaultPlan::corrupt_lane`]). A
    /// corrupted lane's window is evicted and re-classified through the
    /// serial fused path — bit-identical, so no verdict is lost or
    /// changed, only delayed — and the lane sits out `cooldown_ticks`
    /// ticks before taking new work.
    pub fn arm_faults(&mut self, plan: FaultPlan, cooldown_ticks: u64) {
        self.faults = Some(plan);
        self.lane_cooldown = cooldown_ticks;
    }

    /// Disarms degraded mode, returning the plan (with its counters)
    /// and clearing any lane poison.
    pub fn disarm_faults(&mut self) -> Option<FaultPlan> {
        self.poisoned.iter_mut().for_each(|p| *p = None);
        self.faults.take()
    }

    /// Whether a fault plan is armed.
    pub fn faults_armed(&self) -> bool {
        self.faults.is_some()
    }

    /// Windows dropped by backpressure that belonged to `stream` — the
    /// sum of [`evicted_for`](Self::evicted_for) and
    /// [`refused_for`](Self::refused_for).
    pub fn dropped_for(&self, stream: u64) -> u64 {
        self.evicted_for(stream) + self.refused_for(stream)
    }

    /// Admitted windows of `stream` later evicted by
    /// [`OverflowPolicy::DropOldest`] backpressure.
    pub fn evicted_for(&self, stream: u64) -> u64 {
        self.evicted_by_stream.get(&stream).copied().unwrap_or(0)
    }

    /// Windows of `stream` refused at submission by
    /// [`OverflowPolicy::DropNewest`] backpressure.
    pub fn refused_for(&self, stream: u64) -> u64 {
        self.refused_by_stream.get(&stream).copied().unwrap_or(0)
    }

    /// Windows of `stream` refused at submission for out-of-vocabulary
    /// tokens.
    pub fn rejected_for(&self, stream: u64) -> u64 {
        self.rejected_by_stream.get(&stream).copied().unwrap_or(0)
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

    /// Number of lane slots.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Windows queued but not yet occupying a lane.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Windows currently occupying lanes — exact or screen — plus any
    /// escalated windows waiting for an exact lane.
    pub fn in_flight(&self) -> usize {
        self.active + self.screen.as_ref().map_or(0, ScreenBlock::in_flight)
    }

    /// Whether no window is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.in_flight() == 0 && self.pending.is_empty()
    }

    /// The engine behind the lanes (for parity checks and accounting).
    pub fn engine(&self) -> &CsdInferenceEngine {
        &self.engine
    }

    /// Current tick-level counters.
    pub fn stats(&self) -> MuxStats {
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let pct = |q: f64| -> u64 {
            if sorted.is_empty() {
                0
            } else {
                sorted[((sorted.len() - 1) as f64 * q).round() as usize]
            }
        };
        MuxStats {
            ticks: self.ticks,
            verdicts: self.verdicts,
            dropped: self.evicted + self.refused,
            evicted: self.evicted,
            refused: self.refused,
            rejected: self.rejected,
            occupancy: if self.ticks == 0 {
                0.0
            } else {
                self.occupied_steps as f64 / (self.ticks * self.width as u64) as f64
            },
            p50_latency_ticks: pct(0.50),
            p99_latency_ticks: pct(0.99),
            verdicts_per_sec: self.verdicts as f64 / self.started.elapsed().as_secs_f64().max(1e-9),
            faults: self.fault_events,
            degraded_reruns: self.degraded_reruns,
            degraded_ticks: self.degraded_ticks,
            lanes_poisoned: self.poisoned.iter().filter(|p| p.is_some()).count() as u64,
            screened: self.screened,
            escalated: self.escalated,
            cascade_flips: self.cascade_flips,
            forced_screen: self.forced_screen,
            screen_only_ticks: self.screen_only_ticks,
            steals: 0,
            parallel_rounds: 0,
            shards: MuxStats::one_shard(),
        }
    }

    /// Enqueues one window for classification, copying it into a pooled
    /// buffer. Returns `false` when the window was refused — by
    /// backpressure ([`OverflowPolicy::DropNewest`] with a full queue)
    /// or because a token falls outside the model's vocabulary; under
    /// [`OverflowPolicy::DropOldest`] a full queue evicts its oldest
    /// window instead and this window is admitted.
    ///
    /// An out-of-vocabulary window is a *typed rejection, not a panic*:
    /// admitting it would panic the engine mid-tick and take down the
    /// whole lane block — every co-scheduled stream's windows with it —
    /// so one misbehaving (or hostile) process must be refused at the
    /// boundary instead. The rejection is tallied against the stream
    /// ([`rejected_for`](Self::rejected_for), [`MuxStats::rejected`])
    /// and every other stream is untouched.
    ///
    /// # Panics
    ///
    /// Panics on an empty window (the engine's contract).
    pub fn submit(&mut self, stream: u64, at_call: usize, window: &[usize]) -> bool {
        assert!(!window.is_empty(), "empty sequence");
        if !window
            .iter()
            .all(|&item| crate::kernels::preprocess::in_vocabulary(self.vocab, item))
        {
            self.rejected += 1;
            *self.rejected_by_stream.entry(stream).or_insert(0) += 1;
            return false;
        }
        if self.pending.len() >= self.max_pending {
            match self.policy {
                OverflowPolicy::DropOldest => {
                    // `max_pending > 0` (asserted at construction) makes a
                    // full queue non-empty, but an eviction miss must not
                    // take down the lane block — fall through to admission.
                    if let Some(old) = self.pending.pop_front() {
                        *self.evicted_by_stream.entry(old.stream).or_insert(0) += 1;
                        self.free_bufs.push(old.seq);
                        self.evicted += 1;
                    }
                }
                OverflowPolicy::DropNewest => {
                    *self.refused_by_stream.entry(stream).or_insert(0) += 1;
                    self.refused += 1;
                    return false;
                }
            }
        }
        let mut seq = self.free_bufs.pop().unwrap_or_default();
        seq.clear();
        seq.extend_from_slice(window);
        let order = self.next_order;
        self.next_order += 1;
        self.admit_owned(stream, at_call, order, seq);
        true
    }

    /// Admits an already-pooled buffer as a pending window with a
    /// caller-assigned sequence number, bypassing backpressure — the
    /// sharded mux's admission path, which numbers windows from one
    /// global counter and does its own backpressure accounting before
    /// routing here.
    pub(crate) fn admit_owned(&mut self, stream: u64, at_call: usize, order: u64, seq: Vec<usize>) {
        debug_assert!(!seq.is_empty(), "empty sequence");
        debug_assert!(
            seq.iter()
                .all(|&item| crate::kernels::preprocess::in_vocabulary(self.vocab, item)),
            "caller validated vocabulary before routing"
        );
        self.pending.push_back(Window {
            stream,
            at_call,
            seq,
            pos: 0,
            enqueued_tick: self.ticks,
            order,
            screened: false,
        });
    }

    /// Hands out a pooled buffer (possibly dirty — callers clear it) so
    /// window payloads recycle inside the shard that will retire them.
    pub(crate) fn lease_buf(&mut self) -> Vec<usize> {
        self.free_bufs.pop().unwrap_or_default()
    }

    /// Removes and returns the *youngest* pending window for the
    /// rebalancer: stealing from the queue's tail keeps the victim's
    /// FIFO head — its oldest, most latency-burdened work — in place.
    pub(crate) fn steal_youngest(&mut self) -> Option<Window> {
        self.pending.pop_back()
    }

    /// Accepts a window stolen from another shard. The tick clock is
    /// shard-local, so the latency stamp restarts here: a stolen
    /// window's reported latency covers its life on the thief only.
    pub(crate) fn adopt(&mut self, mut window: Window) {
        window.enqueued_tick = self.ticks;
        self.pending.push_back(window);
    }

    /// Evicts the oldest pending window (for coordinator-level
    /// [`OverflowPolicy::DropOldest`]), recycling its buffer and
    /// returning its `(stream, seq)` identity — the *caller* does the
    /// drop accounting.
    pub(crate) fn evict_oldest_pending(&mut self) -> Option<(u64, u64)> {
        let window = self.pending.pop_front()?;
        let identity = (window.stream, window.order);
        self.free_bufs.push(window.seq);
        Some(identity)
    }

    /// Admission sequence number of the oldest pending window, if any.
    pub(crate) fn oldest_pending_order(&self) -> Option<u64> {
        self.pending.front().map(|w| w.order)
    }

    /// Classifies every pending window through the serial path — the
    /// sharded form of the low-occupancy drain shortcut.
    pub(crate) fn classify_pending_serially(&mut self, out: &mut Vec<Verdict>) {
        while let Some(window) = self.pending.pop_front() {
            self.classify_serial(window, out);
        }
    }

    /// Raw occupied lane-steps, for cross-shard occupancy aggregation.
    pub(crate) fn occupied_steps(&self) -> u64 {
        self.occupied_steps
    }

    /// The retained latency samples (most recent retirements), for
    /// cross-shard percentile merging.
    pub(crate) fn latency_samples(&self) -> &[u64] {
        &self.latencies
    }

    /// Approximate heap footprint of this mux's lane block and queues:
    /// lane scratch, slot/pending window payloads, pooled buffers, and
    /// the latency ring. The engine clone and serial scratch are
    /// per-shard constants (shared-shape with every other engine clone)
    /// and are excluded — this accounts the state that scales with
    /// streams and lanes.
    pub(crate) fn resident_bytes(&self) -> usize {
        let buf = |v: &Vec<usize>| v.capacity() * std::mem::size_of::<usize>();
        let win = |w: &Window| std::mem::size_of::<Window>() + buf(&w.seq);
        self.scratch.resident_bytes()
            + self.slots.iter().flatten().map(win).sum::<usize>()
            + self.slots.capacity() * std::mem::size_of::<Option<Window>>()
            + self.items.capacity() * std::mem::size_of::<Option<usize>>()
            + self.pending.iter().map(win).sum::<usize>()
            + self.free_bufs.iter().map(buf).sum::<usize>()
            + self.latencies.capacity() * std::mem::size_of::<u64>()
            + self.poisoned.capacity() * std::mem::size_of::<Option<u64>>()
            + self.screen.as_ref().map_or(0, ScreenBlock::resident_bytes)
    }

    /// Classifies a window through the serial path and emits its verdict
    /// — the route for windows the lane path cannot take and for the
    /// low-occupancy drain shortcut. While screening, an unscreened
    /// window runs the screen tier first (serial screen is bit-identical
    /// to the screen lanes) and only falls through to the exact path
    /// when the band escalates it — the same rule as the lane blocks, so
    /// every fallback route produces the same verdict.
    fn classify_serial(&mut self, window: Window, out: &mut Vec<Verdict>) {
        if !window.screened {
            if let Some(tier) = self.tier.clone() {
                let (score, decision) = tier.screen(&window.seq);
                if let Some(is_positive) = decision {
                    self.screened += 1;
                    let c = Classification {
                        probability: score as f64 / tier.gates().scale() as f64,
                        is_positive,
                    };
                    self.verify_screen_verdict(&window, is_positive);
                    self.emit(window, c, out);
                    return;
                }
                if self.screen_only {
                    // Overload: force the in-band verdict rather than
                    // pay the exact path. Counted, never silent.
                    self.forced_screen += 1;
                    let c = Classification {
                        probability: score as f64 / tier.gates().scale() as f64,
                        is_positive: tier.band().force(score),
                    };
                    self.emit(window, c, out);
                    return;
                }
                self.escalated += 1;
            }
        }
        let c = self
            .engine
            .classify_with_scratch(&window.seq, &mut self.serial_scratch);
        self.emit(window, c, out);
    }

    /// Under [`CascadeMode::Verify`], shadow-classifies a screen-resolved
    /// window on the exact path and counts a disagreement.
    fn verify_screen_verdict(&mut self, window: &Window, screen_positive: bool) {
        if self.cascade_mode != CascadeMode::Verify {
            return;
        }
        let exact = self
            .engine
            .classify_with_scratch(&window.seq, &mut self.serial_scratch);
        if exact.is_positive != screen_positive {
            self.cascade_flips += 1;
        }
    }

    /// Records one verdict and recycles the window's buffer.
    fn emit(&mut self, window: Window, classification: Classification, out: &mut Vec<Verdict>) {
        let latency = self.ticks - window.enqueued_tick;
        if self.latencies.len() < LATENCY_RING {
            self.latencies.push(latency);
        } else {
            self.latencies[self.lat_next] = latency;
        }
        self.lat_next = (self.lat_next + 1) % LATENCY_RING;
        self.verdicts += 1;
        out.push(Verdict {
            stream: window.stream,
            at_call: window.at_call,
            classification,
            latency_ticks: latency,
            seq: window.order,
        });
        self.free_bufs.push(window.seq);
    }

    /// The next window owed an exact lane: the screen block's escalation
    /// queue when one is running (pending windows reach the exact lanes
    /// only *through* the screen), the pending queue otherwise.
    fn next_exact_window(&mut self) -> Option<Window> {
        if let Some(block) = self.screen.as_mut() {
            return block.escalated.pop_front();
        }
        self.pending.pop_front()
    }

    /// Fills lane `lane` from the exact-lane source if possible. Windows
    /// the lane path cannot serve (no exactness pack, or longer than
    /// [`LANE_MAX_STEPS`]) classify serially right here — bit-identical —
    /// rather than occupying a slot they cannot use.
    fn refill_slot(&mut self, lane: usize, out: &mut Vec<Verdict>) {
        debug_assert!(self.slots[lane].is_none());
        while let Some(window) = self.next_exact_window() {
            if !self.lane_ok || window.seq.len() > LANE_MAX_STEPS {
                self.classify_serial(window, out);
                continue;
            }
            // Clear at admission, not retirement: a slot left empty for
            // a few ticks keeps riding the lockstep kernels, so its
            // h/C state is garbage by the time a window arrives.
            self.scratch.clear_lane(lane);
            self.slots[lane] = Some(window);
            self.active += 1;
            return;
        }
    }

    /// Advances the screen lane block one item: admits pending windows
    /// into free screen lanes, steps the quantized recurrence in bulk,
    /// and retires finished lanes through the calibrated band — emitting
    /// the screen verdict outright or queueing the window for an exact
    /// lane. Returns the number of occupied screen lanes after the
    /// sweep; 0 (and a guaranteed no-op) when the cascade is off.
    fn tick_screen(&mut self, out: &mut Vec<Verdict>) -> usize {
        let Some(mut block) = self.screen.take() else {
            return 0;
        };
        let tier = self.tier.clone().expect("screen block implies a tier");
        for lane in 0..block.slots.len() {
            if block.slots[lane].is_none() {
                if let Some(window) = self.pending.pop_front() {
                    block.scratch.clear_lane(lane);
                    block.slots[lane] = Some(window);
                    block.active += 1;
                }
            }
        }
        if block.active == 0 {
            self.screen = Some(block);
            return 0;
        }
        for (item, slot) in block.items.iter_mut().zip(block.slots.iter()) {
            *item = slot.as_ref().map(|w| w.seq[w.pos]);
        }
        tier.gates().step_lanes(&mut block.scratch, &block.items);
        for lane in 0..block.slots.len() {
            let finished = {
                let Some(w) = block.slots[lane].as_mut() else {
                    continue;
                };
                w.pos += 1;
                w.pos == w.seq.len()
            };
            if !finished {
                continue;
            }
            let mut window = block.slots[lane].take().expect("checked occupied");
            block.active -= 1;
            let score = tier.gates().retire_lane(&block.scratch, lane);
            match tier.band().decide(score) {
                Some(is_positive) => {
                    self.screened += 1;
                    self.verify_screen_verdict(&window, is_positive);
                    let c = Classification {
                        probability: score as f64 / tier.gates().scale() as f64,
                        is_positive,
                    };
                    self.emit(window, c, out);
                }
                None if self.screen_only => {
                    // Overload: force the in-band verdict at the band
                    // midpoint instead of queueing for an exact lane.
                    self.forced_screen += 1;
                    let is_positive = tier.band().force(score);
                    let c = Classification {
                        probability: score as f64 / tier.gates().scale() as f64,
                        is_positive,
                    };
                    self.emit(window, c, out);
                }
                None => {
                    self.escalated += 1;
                    window.pos = 0;
                    window.screened = true;
                    block.escalated.push_back(window);
                }
            }
            // Same-tick refill: the screen slot starts its next window's
            // first item on the very next sweep.
            if let Some(next) = self.pending.pop_front() {
                block.scratch.clear_lane(lane);
                block.slots[lane] = Some(next);
                block.active += 1;
            }
        }
        let active = block.active;
        self.screen = Some(block);
        active
    }

    /// Runs one lockstep tick, appending retired verdicts to `out` and
    /// returning how many were emitted. A tick admits pending windows
    /// into free slots, advances every occupied lane one item, retires
    /// finished lanes (FC head), and refills each retired slot from the
    /// queue *within the same tick* — continuous batching with no batch
    /// barrier. With nothing active or pending this is a no-op.
    pub fn tick_into(&mut self, out: &mut Vec<Verdict>) -> usize {
        let ticks_before = self.ticks;
        let n = self.tick_inner(out);
        if self.screen_only {
            self.screen_only_ticks += self.ticks - ticks_before;
        }
        n
    }

    /// [`tick_into`](Self::tick_into) minus the screen-only tick
    /// accounting (which needs the before/after tick delta around the
    /// whole sweep).
    fn tick_inner(&mut self, out: &mut Vec<Verdict>) -> usize {
        let before = out.len();
        // Re-admit poisoned lanes whose cooldown has expired. The lane's
        // state is garbage after the fault, but refill clears at
        // admission anyway.
        for lane in 0..self.width {
            if matches!(self.poisoned[lane], Some(until) if self.ticks >= until) {
                self.poisoned[lane] = None;
            }
        }
        // Screen phase first: it can escalate windows this very tick,
        // and the exact refill below picks them up with no idle tick in
        // between. No-op when the cascade is off.
        let screen_active = self.tick_screen(out);
        for lane in 0..self.width {
            if self.slots[lane].is_none() && self.poisoned[lane].is_none() {
                self.refill_slot(lane, out);
            }
        }
        if self.active == 0 {
            if screen_active > 0 {
                // The screen block advanced, so the tick did real work
                // even with every exact lane empty.
                self.ticks += 1;
                if self.poisoned.iter().any(Option::is_some) {
                    self.degraded_ticks += 1;
                }
                return out.len() - before;
            }
            // Progress guarantee under total poisoning: with work queued
            // but every lane benched, time must still advance or the
            // cooldowns never expire and `drain` spins forever.
            let backlog = !self.pending.is_empty()
                || self
                    .screen
                    .as_ref()
                    .is_some_and(|b| !b.escalated.is_empty());
            if backlog && self.poisoned.iter().any(Option::is_some) {
                self.ticks += 1;
                self.degraded_ticks += 1;
            }
            return out.len() - before;
        }
        for (item, slot) in self.items.iter_mut().zip(self.slots.iter()) {
            *item = slot.as_ref().map(|w| w.seq[w.pos]);
        }
        // Split borrows: the gather buffer is rebuilt above, so the
        // engine only needs `scratch` mutably.
        self.engine.step_lanes(&mut self.scratch, &self.items);
        self.ticks += 1;
        self.occupied_steps += self.active as u64;
        if self.faults.is_some() {
            for lane in 0..self.width {
                if self.slots[lane].is_none() {
                    continue;
                }
                let corrupt = self.faults.as_mut().is_some_and(FaultPlan::corrupt_lane);
                if !corrupt {
                    continue;
                }
                // CRC catches the corrupted sweep: the lane's h/C state
                // is untrustworthy, so its window reruns on the serial
                // fused path (bit-identical — the verdict is delayed,
                // never lost or changed) and the lane sits out the
                // cooldown.
                let window = self.slots[lane].take().expect("checked occupied");
                self.active -= 1;
                self.fault_events += 1;
                self.poisoned[lane] = Some(self.ticks + self.lane_cooldown);
                self.degraded_reruns += 1;
                self.classify_serial(window, out);
            }
            if self.poisoned.iter().any(Option::is_some) {
                self.degraded_ticks += 1;
            }
        }
        for lane in 0..self.width {
            let finished = {
                let Some(w) = self.slots[lane].as_mut() else {
                    continue;
                };
                w.pos += 1;
                w.pos == w.seq.len()
            };
            if !finished {
                continue;
            }
            let window = self.slots[lane].take().expect("checked occupied");
            let classification = self.engine.retire_lane(&self.scratch, lane);
            self.active -= 1;
            self.emit(window, classification, out);
            // Same-tick refill: the slot starts its next window's first
            // item on the very next sweep.
            self.refill_slot(lane, out);
        }
        out.len() - before
    }

    /// Convenience wrapper over [`tick_into`](Self::tick_into).
    pub fn tick(&mut self) -> Vec<Verdict> {
        let mut out = Vec::new();
        self.tick_into(&mut out);
        out
    }

    /// Ticks until no window is queued or in flight, returning every
    /// verdict in retirement order.
    ///
    /// A near-empty mux takes a shortcut: when no lane is active and the
    /// queue holds at most `W/4` windows, they classify serially instead
    /// of paying full-width lane sweeps — bit-identical results either
    /// way, so the choice is invisible. This keeps low-concurrency
    /// callers (a drain after every call, a single tracked process) at
    /// serial cost while fleets run at lane throughput.
    pub fn drain(&mut self) -> Vec<Verdict> {
        let mut out = Vec::new();
        loop {
            if self.in_flight() == 0 {
                if self.pending.is_empty() {
                    break;
                }
                if self.pending.len() <= (self.width / 4).max(1) {
                    while let Some(window) = self.pending.pop_front() {
                        self.classify_serial(window, &mut out);
                    }
                    break;
                }
            }
            self.tick_into(&mut out);
        }
        out
    }
}

/// Hot per-process state inside a [`FleetMonitor`]: the rolling window
/// plus stride bookkeeping. Boxed out of the per-stream record and
/// allocated lazily on the first observed call, so *dormant* streams —
/// registered but silent, or already latched — never pay for a window
/// buffer. Dropped wholesale when the stream's alert latches (the
/// window is never read again).
#[derive(Debug, Clone)]
struct HotState {
    window: RollingWindow,
    since_classify: u32,
    /// Windows submitted to the mux (drives the first-full-window rule).
    submitted: u32,
    /// Verdicts folded into the vote state (drives time accounting).
    verdicts: u32,
}

/// What remains of a stream after its alert latches: the alert itself
/// and the final verdict count, boxed so the common (never-alerting)
/// fleet pays one null pointer for it.
#[derive(Debug, Clone, Copy)]
struct Latched {
    alert: Alert,
    verdicts: u32,
}

/// Per-process record inside a [`FleetMonitor`]: a 32-byte cold core so
/// a million registered streams fit in tens of megabytes. The vote ring
/// is packed into a `u64` bitmask (bit 0 = newest verdict, one bit
/// shifted in per verdict, masked to `vote_horizon` bits) — which is why
/// the fleet monitor caps `vote_horizon` at 64.
#[derive(Debug, Clone, Default)]
struct StreamState {
    hot: Option<Box<HotState>>,
    latched: Option<Box<Latched>>,
    calls_seen: u64,
    votes: u64,
}

/// A fleet of per-process ransomware monitors multiplexed onto one lane
/// block — the data-center deployment shape at lane throughput.
///
/// Semantics per process are exactly
/// [`StreamMonitor`](crate::monitor::StreamMonitor)'s (same windowing,
/// stride, voting, latching, and 0-ULP-identical verdicts); the
/// difference is *when* classification happens: `observe` is cheap (it
/// never classifies), and [`poll`](Self::poll) / [`drain`](Self::drain)
/// advance all in-flight windows together through the
/// [`ShardedStreamMux`] — one mux shard per worker-pool thread, so a
/// multi-core host classifies the fleet in parallel. Alerts therefore
/// surface at the poll/drain after the triggering window retires, not
/// inside `observe` — the price of batching. Under backpressure,
/// dropped windows are simply never voted on.
///
/// One extra constraint over the serial monitor: `vote_horizon` must be
/// at most 64 (votes pack into a bitmask so a registered-but-idle
/// stream costs ~32 bytes plus table overhead; see
/// [`resident_bytes`](Self::resident_bytes)).
#[derive(Debug, Clone)]
pub struct FleetMonitor {
    mux: ShardedStreamMux,
    config: MonitorConfig,
    streams: HashMap<u64, StreamState>,
    per_item_us: f64,
    /// Recycled verdict buffer for `poll`/`drain`: the hot monitoring
    /// path allocates nothing at steady state.
    verdict_buf: Vec<Verdict>,
    /// `vote_horizon` ones, precomputed.
    vote_mask: u64,
    /// Vocabulary size, cached for `observe`-time validation.
    vocab: usize,
    /// Out-of-vocabulary calls dropped, fleet-wide.
    oov_total: u64,
    /// Per-process out-of-vocabulary tallies — only offending streams
    /// pay an entry (the cold per-stream record stays 32 bytes).
    oov_by_stream: HashMap<u64, u64>,
}

/// Resident-memory accounting for a [`FleetMonitor`], by component.
/// Capacity-based (what the allocator holds, not just what is live) and
/// estimated for the hash table, whose bucket count is inferred from
/// its reported capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FleetResidentBytes {
    /// Streams tracked (registered or observed).
    pub tracked: usize,
    /// Tracked streams with no hot window state (dormant or latched).
    pub idle: usize,
    /// Stream table: buckets × (key + 32-byte cold record + control
    /// byte) — the cost every registered stream pays.
    pub table_bytes: usize,
    /// Hot state: rolling windows + stride bookkeeping, only for
    /// streams mid-window.
    pub hot_bytes: usize,
    /// Latched alert records.
    pub latched_bytes: usize,
    /// The sharded mux: lane blocks, pending queues, pooled buffers,
    /// reorder state (engine weights excluded — per-shard constants).
    pub mux_bytes: usize,
}

impl FleetResidentBytes {
    /// Sum over every component.
    pub fn total(&self) -> usize {
        self.table_bytes + self.hot_bytes + self.latched_bytes + self.mux_bytes
    }

    /// Table bytes per tracked stream — the marginal cost of a
    /// registered-but-idle stream, the number the million-stream
    /// deployment sizes RAM by.
    pub fn per_idle_stream(&self) -> f64 {
        self.table_bytes as f64 / self.tracked.max(1) as f64
    }
}

impl FleetMonitor {
    /// Builds a fleet monitor; each new process id lazily gets monitor
    /// state with `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.window_len`, `stride`, or `votes_needed` is
    /// zero, or `votes_needed > vote_horizon` (the
    /// [`StreamMonitor`](crate::monitor::StreamMonitor) contract), or on
    /// an invalid `mux_config` (see [`StreamMux::new`]).
    pub fn new(
        engine: CsdInferenceEngine,
        config: MonitorConfig,
        mux_config: StreamMuxConfig,
    ) -> Self {
        assert!(config.window_len > 0, "window length must be positive");
        assert!(config.stride > 0, "stride must be positive");
        assert!(config.votes_needed > 0, "votes_needed must be positive");
        assert!(
            config.votes_needed <= config.vote_horizon,
            "cannot need more votes than the horizon holds"
        );
        assert!(
            config.vote_horizon <= 64,
            "fleet monitor packs votes into a 64-bit ring"
        );
        let per_item_us = PipelineSchedule::for_level(engine.level()).steady_item_us;
        let vote_mask = if config.vote_horizon == 64 {
            u64::MAX
        } else {
            (1u64 << config.vote_horizon) - 1
        };
        let vocab = engine.weights().dims().vocab;
        Self {
            mux: ShardedStreamMux::new(engine, mux_config),
            config,
            streams: HashMap::new(),
            per_item_us,
            verdict_buf: Vec::new(),
            vote_mask,
            vocab,
            oov_total: 0,
            oov_by_stream: HashMap::new(),
        }
    }

    /// The monitor configuration.
    pub fn config(&self) -> MonitorConfig {
        self.config
    }

    /// The underlying sharded multiplexer (stats, occupancy, queue
    /// depth).
    pub fn mux(&self) -> &ShardedStreamMux {
        &self.mux
    }

    /// Arms the mux's degraded mode (see [`StreamMux::arm_faults`]):
    /// corrupted lanes rerun their windows serially, so fleet verdicts
    /// and alerts survive a flaky device unchanged. Each shard derives
    /// its own plan from `plan`'s seed so fault streams stay independent
    /// across lanes.
    pub fn arm_faults(&mut self, plan: FaultPlan, cooldown_ticks: u64) {
        self.mux.arm_faults(plan, cooldown_ticks);
    }

    /// Windows of process `pid` dropped by mux backpressure — the data
    /// this process lost to overload (never to faults).
    pub fn dropped_windows(&self, pid: u64) -> u64 {
        self.mux.dropped_for(pid)
    }

    /// Total windows dropped by mux backpressure across all processes.
    pub fn total_dropped(&self) -> u64 {
        self.mux.stats().dropped
    }

    /// The full loss breakdown for process `pid`: windows evicted by
    /// backpressure after admission, refused at admission, or rejected
    /// for out-of-vocabulary tokens. What a deployment reports as this
    /// process's coverage gap — and *why* the gap exists.
    pub fn loss_for(&self, pid: u64) -> StreamLoss {
        self.mux.loss_for(pid)
    }

    /// Out-of-vocabulary calls observed in process `pid` — each was
    /// dropped at [`observe`](Self::observe) (typed and tallied, never
    /// a panic in a shared lane block).
    pub fn oov_calls(&self, pid: u64) -> u64 {
        self.oov_by_stream.get(&pid).copied().unwrap_or(0)
    }

    /// Total out-of-vocabulary calls dropped across the fleet.
    pub fn total_oov(&self) -> u64 {
        self.oov_total
    }

    /// Number of processes currently tracked.
    pub fn tracked(&self) -> usize {
        self.streams.len()
    }

    /// Registers `pid` without observing anything: the stream gets its
    /// compact cold record (no window buffer — that allocates lazily on
    /// the first call) and counts as tracked. This is how a fleet
    /// pre-registers every process it *might* hear from: a million
    /// registered-but-idle streams cost ~100 bytes each (see
    /// [`resident_bytes`](Self::resident_bytes)).
    pub fn register(&mut self, pid: u64) {
        self.streams.entry(pid).or_default();
    }

    /// Feeds one API call observed in process `pid`. Never classifies:
    /// a completed window is enqueued on the mux for the next
    /// [`poll`](Self::poll) / [`drain`](Self::drain).
    ///
    /// An out-of-vocabulary call cannot be embedded, so it is dropped
    /// here — tallied per process ([`oov_calls`](Self::oov_calls)),
    /// never fed to the shared lane block where it would panic a mux
    /// shard and take the rest of the fleet's in-flight windows with
    /// it. The call still counts as observed (`calls_seen` advances so
    /// `at_call` tags stay aligned with the process's real activity);
    /// only the rolling window skips it.
    pub fn observe(&mut self, pid: u64, call: usize) {
        let config = self.config;
        if !crate::kernels::preprocess::in_vocabulary(self.vocab, call) {
            self.oov_total += 1;
            *self.oov_by_stream.entry(pid).or_insert(0) += 1;
            self.streams.entry(pid).or_default().calls_seen += 1;
            return;
        }
        let state = self.streams.entry(pid).or_default();
        state.calls_seen += 1;
        if state.latched.is_some() {
            // Latched streams stay latched; their window state is long
            // freed and the call only bumps the counter.
            return;
        }
        let hot = state.hot.get_or_insert_with(|| {
            Box::new(HotState {
                window: RollingWindow::new(config.window_len),
                since_classify: 0,
                submitted: 0,
                verdicts: 0,
            })
        });
        hot.window.push(call);
        if !hot.window.is_full() {
            return;
        }
        hot.since_classify += 1;
        let first_full = hot.submitted == 0;
        if !first_full && (hot.since_classify as usize) < config.stride {
            return;
        }
        hot.since_classify = 0;
        hot.submitted += 1;
        self.mux
            .submit(pid, state.calls_seen as usize, hot.window.as_slice());
    }

    /// Feeds a batch of calls for one process.
    pub fn observe_all(&mut self, pid: u64, calls: &[usize]) {
        for &c in calls {
            self.observe(pid, c);
        }
    }

    /// Runs one coordinator round (one tick on every loaded shard) and
    /// returns newly raised alerts. The verdict buffer is pooled: the
    /// steady-state monitoring loop allocates nothing here.
    pub fn poll(&mut self) -> Vec<(u64, Alert)> {
        let mut buf = std::mem::take(&mut self.verdict_buf);
        buf.clear();
        self.mux.tick_into(&mut buf);
        let alerts = self.apply(&buf);
        self.verdict_buf = buf;
        alerts
    }

    /// Classifies everything queued or in flight and returns newly
    /// raised alerts.
    pub fn drain(&mut self) -> Vec<(u64, Alert)> {
        let mut buf = std::mem::take(&mut self.verdict_buf);
        buf.clear();
        self.mux.drain_into(&mut buf);
        let alerts = self.apply(&buf);
        self.verdict_buf = buf;
        alerts
    }

    /// Folds retired verdicts into per-process vote state. Verdicts for
    /// retired (or already-alerted) processes are discarded — alerts
    /// latch exactly as in the serial monitor. The sharded mux delivers
    /// each stream's verdicts in submission order, so the fold is the
    /// same order-sensitive fold the serial monitor runs.
    fn apply(&mut self, verdicts: &[Verdict]) -> Vec<(u64, Alert)> {
        let mut alerts = Vec::new();
        for v in verdicts {
            let Some(state) = self.streams.get_mut(&v.stream) else {
                continue;
            };
            if state.latched.is_some() {
                continue;
            }
            let Some(hot) = state.hot.as_mut() else {
                continue;
            };
            hot.verdicts += 1;
            state.votes =
                ((state.votes << 1) | u64::from(v.classification.is_positive)) & self.vote_mask;
            if (state.votes.count_ones() as usize) >= self.config.votes_needed {
                let alert = Alert {
                    at_call: v.at_call,
                    probability: v.classification.probability,
                    inference_us: f64::from(hot.verdicts)
                        * self.config.window_len as f64
                        * self.per_item_us,
                };
                state.latched = Some(Box::new(Latched {
                    alert,
                    verdicts: hot.verdicts,
                }));
                // Latching retires the hot state: the rolling window
                // frees right here and the stream drops to its 32-byte
                // cold record.
                state.hot = None;
                alerts.push((v.stream, alert));
            }
        }
        alerts
    }

    /// The alert state of process `pid`, if tracked.
    pub fn alert_for(&self, pid: u64) -> Option<Alert> {
        self.streams
            .get(&pid)
            .and_then(|s| s.latched.as_ref())
            .map(|l| l.alert)
    }

    /// Process ids with latched alerts, ascending.
    pub fn alerted_pids(&self) -> Vec<u64> {
        let mut pids: Vec<u64> = self
            .streams
            .iter()
            .filter(|(_, s)| s.latched.is_some())
            .map(|(&pid, _)| pid)
            .collect();
        pids.sort_unstable();
        pids
    }

    /// API calls observed for process `pid` (0 if untracked).
    pub fn calls_seen(&self, pid: u64) -> usize {
        self.streams.get(&pid).map_or(0, |s| s.calls_seen as usize)
    }

    /// Verdicts folded into process `pid`'s vote state so far.
    pub fn classifications(&self, pid: u64) -> usize {
        self.streams.get(&pid).map_or(0, |s| {
            s.latched
                .as_ref()
                .map(|l| l.verdicts)
                .or_else(|| s.hot.as_ref().map(|h| h.verdicts))
                .unwrap_or(0) as usize
        })
    }

    /// Drops a finished process's state. Verdicts still in flight for it
    /// are discarded on retirement.
    pub fn retire(&mut self, pid: u64) {
        self.streams.remove(&pid);
    }

    /// Resident-memory accounting by component — the API the
    /// million-stream deployment sizes itself with. See
    /// [`FleetResidentBytes`].
    pub fn resident_bytes(&self) -> FleetResidentBytes {
        let mut idle = 0usize;
        let mut hot_bytes = 0usize;
        let mut latched_bytes = 0usize;
        for state in self.streams.values() {
            match state.hot.as_deref() {
                Some(hot) => {
                    hot_bytes += std::mem::size_of::<HotState>() + hot.window.resident_bytes();
                }
                None => idle += 1,
            }
            if state.latched.is_some() {
                latched_bytes += std::mem::size_of::<Latched>();
            }
        }
        FleetResidentBytes {
            tracked: self.streams.len(),
            idle,
            table_bytes: Self::table_bytes(&self.streams),
            hot_bytes,
            latched_bytes,
            mux_bytes: self.mux.resident_bytes(),
        }
    }

    /// Estimated allocation of the stream table: hashbrown keeps one
    /// control byte per bucket and resizes at 7/8 load, so the bucket
    /// count is the reported capacity scaled back up to its power of
    /// two.
    fn table_bytes(map: &HashMap<u64, StreamState>) -> usize {
        let cap = map.capacity();
        if cap == 0 {
            return 0;
        }
        let buckets = (cap * 8 / 7).next_power_of_two();
        buckets * (std::mem::size_of::<(u64, StreamState)>() + 1)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::monitor::StreamMonitor;
    use crate::opt::OptimizationLevel;
    use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};

    fn engine(level: OptimizationLevel) -> CsdInferenceEngine {
        let model = SequenceClassifier::new(ModelConfig::paper(), 21);
        CsdInferenceEngine::new(&ModelWeights::from_model(&model), level)
    }

    fn seq(n: usize, salt: usize) -> Vec<usize> {
        (0..n).map(|i| (i * 37 + 11 + salt * 29) % 278).collect()
    }

    fn mux_with_width(level: OptimizationLevel, width: usize) -> StreamMux {
        StreamMux::new(
            engine(level),
            StreamMuxConfig {
                lanes: Some(width),
                ..StreamMuxConfig::default()
            },
        )
    }

    #[test]
    fn streamed_verdicts_match_serial_classify() {
        for level in OptimizationLevel::ALL {
            let e = engine(level);
            let mut mux = StreamMux::new(
                e.clone(),
                StreamMuxConfig {
                    lanes: Some(4),
                    ..StreamMuxConfig::default()
                },
            );
            let windows: Vec<Vec<usize>> = (0..11).map(|k| seq(5 + k * 9 % 60, k)).collect();
            for (k, w) in windows.iter().enumerate() {
                assert!(mux.submit(k as u64, k, w));
            }
            let verdicts = mux.drain();
            assert_eq!(verdicts.len(), windows.len(), "{level}");
            for v in &verdicts {
                assert_eq!(
                    v.classification,
                    e.classify(&windows[v.stream as usize]),
                    "{level} stream {}",
                    v.stream
                );
            }
            assert!(mux.is_idle());
        }
    }

    #[test]
    fn same_tick_refill_keeps_slots_busy() {
        // 4 equal-length windows through 2 lanes: generation two starts
        // the tick after generation one retires, so the whole batch takes
        // 2·len ticks, not 2·len + idle gaps.
        let mut mux = mux_with_width(OptimizationLevel::FixedPoint, 2);
        let len = 10;
        for k in 0..4u64 {
            mux.submit(k, 0, &seq(len, k as usize));
        }
        let verdicts = mux.drain();
        assert_eq!(verdicts.len(), 4);
        let stats = mux.stats();
        assert_eq!(stats.ticks, 2 * len as u64);
        assert!((stats.occupancy - 1.0).abs() < 1e-12, "no idle lane-steps");
        // First generation retires at tick len, second at 2·len.
        assert_eq!(verdicts[0].latency_ticks, len as u64);
        assert_eq!(verdicts[3].latency_ticks, 2 * len as u64);
    }

    #[test]
    fn retirement_order_is_fifo_for_equal_lengths() {
        let mut mux = mux_with_width(OptimizationLevel::FixedPoint, 2);
        for k in 0..6u64 {
            mux.submit(k, k as usize, &seq(8, k as usize));
        }
        let verdicts = mux.drain();
        let order: Vec<u64> = verdicts.iter().map(|v| v.stream).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn drop_oldest_evicts_head() {
        let mut mux = StreamMux::new(
            engine(OptimizationLevel::FixedPoint),
            StreamMuxConfig {
                lanes: Some(2),
                max_pending: 2,
                policy: OverflowPolicy::DropOldest,
                ..StreamMuxConfig::default()
            },
        );
        for k in 0..4u64 {
            assert!(mux.submit(k, k as usize, &seq(6, k as usize)));
        }
        assert_eq!(mux.pending(), 2);
        let verdicts = mux.drain();
        let kept: Vec<u64> = verdicts.iter().map(|v| v.stream).collect();
        assert_eq!(kept, vec![2, 3], "oldest two evicted");
        assert_eq!(mux.stats().dropped, 2);
        assert_eq!(mux.stats().evicted, 2, "DropOldest losses are evictions");
        assert_eq!(mux.stats().refused, 0);
        assert_eq!(mux.evicted_for(0), 1, "stream 0 lost its admitted window");
        assert_eq!(mux.refused_for(0), 0);
        assert_eq!(mux.loss_for(1).total(), 1);
    }

    #[test]
    fn drop_newest_refuses_submission() {
        let mut mux = StreamMux::new(
            engine(OptimizationLevel::FixedPoint),
            StreamMuxConfig {
                lanes: Some(2),
                max_pending: 2,
                policy: OverflowPolicy::DropNewest,
                ..StreamMuxConfig::default()
            },
        );
        assert!(mux.submit(0, 0, &seq(6, 0)));
        assert!(mux.submit(1, 1, &seq(6, 1)));
        assert!(!mux.submit(2, 2, &seq(6, 2)), "queue full");
        let verdicts = mux.drain();
        let kept: Vec<u64> = verdicts.iter().map(|v| v.stream).collect();
        assert_eq!(kept, vec![0, 1]);
        assert_eq!(mux.stats().dropped, 1);
        assert_eq!(mux.stats().refused, 1, "DropNewest losses are refusals");
        assert_eq!(mux.stats().evicted, 0);
        assert_eq!(mux.refused_for(2), 1, "submitter charged");
        assert_eq!(mux.evicted_for(2), 0);
        assert_eq!(
            mux.loss_for(2),
            StreamLoss {
                evicted: 0,
                refused: 1,
                rejected: 0
            }
        );
    }

    #[test]
    fn mux_stats_json_predating_loss_split_still_deserializes() {
        // A BENCH_*.json snapshot written before `evicted`/`refused`
        // existed: the split fields default to zero, `dropped` keeps
        // its recorded aggregate.
        let old = r#"{
            "ticks": 10, "verdicts": 8, "dropped": 3,
            "occupancy": 0.5, "p50_latency_ticks": 1,
            "p99_latency_ticks": 2, "verdicts_per_sec": 100.0,
            "faults": 0, "degraded_reruns": 0, "degraded_ticks": 0,
            "lanes_poisoned": 0
        }"#;
        let stats: MuxStats = serde_json::from_str(old).expect("old snapshot parses");
        assert_eq!(stats.dropped, 3);
        assert_eq!(stats.evicted, 0);
        assert_eq!(stats.refused, 0);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.shards, 1);
        assert_eq!(stats.parallel_rounds, 0);
    }

    #[test]
    fn tick_on_idle_mux_is_noop() {
        let mut mux = mux_with_width(OptimizationLevel::FixedPoint, 2);
        assert!(mux.tick().is_empty());
        assert_eq!(mux.stats().ticks, 0);
    }

    #[test]
    fn overlong_windows_take_the_serial_route() {
        let mut mux = mux_with_width(OptimizationLevel::FixedPoint, 2);
        let e = engine(OptimizationLevel::FixedPoint);
        let long: Vec<usize> = (0..LANE_MAX_STEPS + 1).map(|i| i % 278).collect();
        let short = seq(9, 3);
        mux.submit(0, 0, &long);
        mux.submit(1, 1, &short);
        let verdicts = mux.drain();
        assert_eq!(verdicts.len(), 2);
        for v in &verdicts {
            let expect = if v.stream == 0 {
                e.classify(&long)
            } else {
                e.classify(&short)
            };
            assert_eq!(v.classification, expect);
        }
    }

    #[test]
    fn interleaved_submission_and_ticks_match_serial() {
        let e = engine(OptimizationLevel::FixedPoint);
        let mut mux = mux_with_width(OptimizationLevel::FixedPoint, 3);
        let windows: Vec<Vec<usize>> = (0..9).map(|k| seq(4 + (k * 13) % 40, k)).collect();
        let mut verdicts = Vec::new();
        for (k, w) in windows.iter().enumerate() {
            mux.submit(k as u64, k, w);
            // Advance a few ticks mid-stream: admission interleaves with
            // retirement.
            for _ in 0..k % 4 {
                mux.tick_into(&mut verdicts);
            }
        }
        verdicts.extend(mux.drain());
        assert_eq!(verdicts.len(), windows.len());
        for v in &verdicts {
            assert_eq!(v.classification, e.classify(&windows[v.stream as usize]));
        }
    }

    #[test]
    fn stats_track_occupancy_and_latency() {
        let mut mux = mux_with_width(OptimizationLevel::FixedPoint, 4);
        for k in 0..4u64 {
            mux.submit(k, 0, &seq(12, k as usize));
        }
        let _ = mux.drain();
        let s = mux.stats();
        assert_eq!(s.verdicts, 4);
        assert_eq!(s.ticks, 12);
        assert!((s.occupancy - 1.0).abs() < 1e-12);
        assert_eq!(s.p50_latency_ticks, 12);
        assert_eq!(s.p99_latency_ticks, 12);
        assert!(s.verdicts_per_sec > 0.0);
    }

    #[test]
    fn faulty_mux_never_loses_or_changes_a_verdict() {
        use csd_device::{FaultConfig, FaultPlan};
        let e = engine(OptimizationLevel::FixedPoint);
        let mut mux = mux_with_width(OptimizationLevel::FixedPoint, 4);
        mux.arm_faults(FaultPlan::new(42, FaultConfig::uniform(0.2)), 3);
        let windows: Vec<Vec<usize>> = (0..16).map(|k| seq(6 + (k * 11) % 50, k)).collect();
        for (k, w) in windows.iter().enumerate() {
            assert!(mux.submit(k as u64, k, w));
        }
        let verdicts = mux.drain();
        assert_eq!(verdicts.len(), windows.len(), "no verdict lost");
        for v in &verdicts {
            assert_eq!(
                v.classification,
                e.classify(&windows[v.stream as usize]),
                "stream {}",
                v.stream
            );
        }
        let s = mux.stats();
        assert!(s.faults > 0, "rate 0.2 over dozens of lane-ticks must hit");
        assert_eq!(s.degraded_reruns, s.faults);
        assert!(s.degraded_ticks > 0);
        assert!(mux.is_idle());
    }

    #[test]
    fn corrupted_lane_is_benched_for_the_cooldown_then_readmitted() {
        use csd_device::{FaultConfig, FaultPlan};
        let e = engine(OptimizationLevel::FixedPoint);
        let mut mux = mux_with_width(OptimizationLevel::FixedPoint, 1);
        let cfg = FaultConfig {
            corruption: 1.0,
            ..FaultConfig::none()
        };
        mux.arm_faults(FaultPlan::new(1, cfg), 5);
        let w0 = seq(3, 0);
        let w1 = seq(3, 1);
        mux.submit(0, 0, &w0);
        mux.submit(1, 1, &w1);
        // First tick: the lane corrupts on its first sweep; the window
        // reruns serially (verdict intact) and the lane is benched.
        let first = mux.tick();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].classification, e.classify(&w0));
        assert_eq!(mux.stats().lanes_poisoned, 1);
        // Cooldown: ticks pass with no lane able to take the pending
        // window — the progress guarantee keeps time moving.
        let mut ticks_benched = 0;
        let second = loop {
            let out = mux.tick();
            if !out.is_empty() {
                break out;
            }
            ticks_benched += 1;
            assert!(ticks_benched < 20, "cooldown must expire");
        };
        assert!(
            ticks_benched >= 4,
            "lane benched, saw {ticks_benched} idle ticks"
        );
        assert_eq!(second[0].classification, e.classify(&w1));
        let s = mux.stats();
        assert_eq!(s.faults, 2);
        assert_eq!(s.degraded_reruns, 2);
        assert!(s.degraded_ticks >= 5);
        assert!(mux.is_idle());
    }

    #[test]
    fn drops_are_counted_per_stream() {
        let mut mux = StreamMux::new(
            engine(OptimizationLevel::FixedPoint),
            StreamMuxConfig {
                lanes: Some(2),
                max_pending: 2,
                policy: OverflowPolicy::DropOldest,
                ..StreamMuxConfig::default()
            },
        );
        for k in 0..4u64 {
            mux.submit(k, 0, &seq(6, k as usize));
        }
        assert_eq!(mux.dropped_for(0), 1, "oldest evicted");
        assert_eq!(mux.dropped_for(1), 1);
        assert_eq!(mux.dropped_for(2), 0);
        assert_eq!(mux.dropped_for(99), 0, "untracked stream");

        let mut refuse = StreamMux::new(
            engine(OptimizationLevel::FixedPoint),
            StreamMuxConfig {
                lanes: Some(2),
                max_pending: 1,
                policy: OverflowPolicy::DropNewest,
                ..StreamMuxConfig::default()
            },
        );
        assert!(refuse.submit(7, 0, &seq(6, 0)));
        assert!(!refuse.submit(8, 0, &seq(6, 1)));
        assert_eq!(refuse.dropped_for(8), 1, "refused submitter charged");
        assert_eq!(refuse.dropped_for(7), 0);
    }

    #[test]
    fn fleet_survives_faults_and_counts_drops_per_process() {
        use csd_device::{FaultConfig, FaultPlan};
        let e = tiny_engine();
        let mut faulty = FleetMonitor::new(e.clone(), small_config(), StreamMuxConfig::default());
        faulty.arm_faults(FaultPlan::new(5, FaultConfig::uniform(0.1)), 4);
        let mut clean = FleetMonitor::new(e, small_config(), StreamMuxConfig::default());
        let traces: Vec<(u64, Vec<usize>)> = (0..4u64)
            .map(|pid| (pid, (0..80).map(|i| (i * 5 + pid as usize) % 16).collect()))
            .collect();
        for i in 0..80 {
            for (pid, calls) in &traces {
                faulty.observe(*pid, calls[i]);
                clean.observe(*pid, calls[i]);
            }
        }
        let _ = faulty.drain();
        let _ = clean.drain();
        // Lane corruption delays verdicts but every window still votes:
        // the same processes alert, nothing is dropped.
        for (pid, _) in &traces {
            assert_eq!(
                faulty.alert_for(*pid).is_some(),
                clean.alert_for(*pid).is_some(),
                "pid {pid}"
            );
            assert_eq!(faulty.dropped_windows(*pid), 0);
        }
        assert_eq!(
            faulty.mux().stats().verdicts,
            clean.mux().stats().verdicts,
            "no verdict lost to faults"
        );
        assert!(faulty.mux().stats().faults > 0, "rate 0.1 must hit");
        assert_eq!(faulty.total_dropped(), 0);
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_window_rejected() {
        let mut mux = mux_with_width(OptimizationLevel::FixedPoint, 2);
        mux.submit(0, 0, &[]);
    }

    #[test]
    fn oov_window_is_rejected_not_a_panic() {
        // Regression: an out-of-vocabulary token used to reach the
        // engine's step path and panic mid-tick, taking the whole lane
        // block (and every co-scheduled stream) down with it. The mux
        // now refuses the window at submission with a typed, per-stream
        // tally and everyone else's verdicts are untouched.
        let e = engine(OptimizationLevel::FixedPoint);
        let mut mux = mux_with_width(OptimizationLevel::FixedPoint, 2);
        let good = seq(8, 1);
        let mut bad = seq(8, 2);
        bad[3] = 278; // paper vocabulary is 0..=277
        assert!(mux.submit(7, 0, &good));
        assert!(!mux.submit(8, 1, &bad), "OOV refused at the boundary");
        assert!(!mux.submit(8, 2, &[usize::MAX]), "extreme token refused");
        assert_eq!(mux.rejected_for(8), 2);
        assert_eq!(mux.rejected_for(7), 0);
        let verdicts = mux.drain();
        assert_eq!(verdicts.len(), 1, "the clean stream still classifies");
        assert_eq!(verdicts[0].stream, 7);
        assert_eq!(verdicts[0].classification, e.classify(&good));
        let stats = mux.stats();
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.dropped, 0, "rejection is not backpressure");
    }

    #[test]
    fn fleet_monitor_drops_oov_calls_and_keeps_the_fleet_alive() {
        // One process feeds garbage tokens; its OOV calls are dropped
        // (tallied, typed) while a clean process interleaved on the
        // same fleet alerts exactly as it would alone.
        let e = tiny_engine();
        let mut fleet = FleetMonitor::new(e.clone(), small_config(), StreamMuxConfig::default());
        let clean_calls: Vec<usize> = (0..120).map(|i| (i * 7) % 16).collect();
        for (i, &c) in clean_calls.iter().enumerate() {
            fleet.observe(1, c);
            // pid 2 alternates good calls with out-of-vocabulary ones.
            fleet.observe(2, if i % 3 == 0 { 16 + i } else { c });
        }
        let _ = fleet.drain();
        assert_eq!(fleet.oov_calls(1), 0);
        assert_eq!(fleet.oov_calls(2), 40, "every third call was OOV");
        assert_eq!(fleet.total_oov(), 40);
        assert_eq!(
            fleet.calls_seen(2),
            clean_calls.len(),
            "OOV calls still count as observed"
        );
        // The clean stream's alert state matches a fleet of its own.
        let mut alone = FleetMonitor::new(e, small_config(), StreamMuxConfig::default());
        alone.observe_all(1, &clean_calls);
        let _ = alone.drain();
        assert_eq!(fleet.alert_for(1), alone.alert_for(1));
        assert_eq!(fleet.classifications(1), alone.classifications(1));
    }

    fn small_config() -> MonitorConfig {
        MonitorConfig {
            window_len: 8,
            stride: 4,
            votes_needed: 1,
            vote_horizon: 1,
        }
    }

    fn tiny_engine() -> CsdInferenceEngine {
        let model = SequenceClassifier::new(ModelConfig::tiny(16), 9);
        CsdInferenceEngine::new(
            &ModelWeights::from_model(&model),
            OptimizationLevel::FixedPoint,
        )
    }

    #[test]
    fn fleet_matches_stream_monitor_per_process() {
        let e = tiny_engine();
        let traces: Vec<(u64, Vec<usize>)> = (0..5u64)
            .map(|pid| {
                let n = 60 + (pid as usize) * 37;
                (
                    pid,
                    (0..n).map(|i| (i * 7 + pid as usize * 3) % 16).collect(),
                )
            })
            .collect();
        // Serial reference: one StreamMonitor per process.
        let mut reference = HashMap::new();
        for (pid, calls) in &traces {
            let mut m = StreamMonitor::new(e.clone(), small_config());
            m.observe_all(calls);
            reference.insert(*pid, m.alert());
        }
        // Fleet: interleave all processes call by call, drain at the end.
        let mut fleet = FleetMonitor::new(e, small_config(), StreamMuxConfig::default());
        let longest = traces.iter().map(|(_, c)| c.len()).max().expect("traces");
        for i in 0..longest {
            for (pid, calls) in &traces {
                if let Some(&c) = calls.get(i) {
                    fleet.observe(*pid, c);
                }
            }
        }
        let _ = fleet.drain();
        for (pid, expected) in &reference {
            assert_eq!(fleet.alert_for(*pid), *expected, "pid {pid}");
        }
    }

    #[test]
    fn fleet_alerts_latch_across_windows() {
        let e = tiny_engine();
        let mut fleet = FleetMonitor::new(e, small_config(), StreamMuxConfig::default());
        let calls: Vec<usize> = (0..400).map(|i| i % 3).collect();
        let mut alerts = 0;
        for &c in &calls {
            fleet.observe(7, c);
            alerts += fleet.drain().len();
        }
        assert!(alerts <= 1, "alerts must latch");
        if alerts == 1 {
            assert!(fleet.alert_for(7).is_some());
            assert_eq!(fleet.alerted_pids(), vec![7]);
        }
    }

    #[test]
    fn fleet_retire_drops_state_and_ignores_in_flight_verdicts() {
        let e = tiny_engine();
        let mut fleet = FleetMonitor::new(e, small_config(), StreamMuxConfig::default());
        for i in 0..40usize {
            fleet.observe(1, i % 16);
            fleet.observe(2, (i + 5) % 16);
        }
        assert_eq!(fleet.tracked(), 2);
        assert!(fleet.mux().pending() > 0, "windows enqueued, not yet run");
        fleet.retire(1);
        assert_eq!(fleet.tracked(), 1);
        // Draining classifies pid 1's in-flight windows but discards the
        // verdicts; only pid 2 can alert.
        let alerts = fleet.drain();
        assert!(alerts.iter().all(|&(pid, _)| pid == 2));
        assert!(fleet.alert_for(1).is_none());
    }

    #[test]
    fn fleet_observe_all_equals_repeated_observe() {
        let e = tiny_engine();
        let calls: Vec<usize> = (0..150).map(|i| (i * 7) % 16).collect();
        let mut one = FleetMonitor::new(e.clone(), small_config(), StreamMuxConfig::default());
        one.observe_all(3, &calls);
        let _ = one.drain();
        let mut two = FleetMonitor::new(e, small_config(), StreamMuxConfig::default());
        for &c in &calls {
            two.observe(3, c);
        }
        let _ = two.drain();
        assert_eq!(one.alert_for(3), two.alert_for(3));
        assert_eq!(one.classifications(3), two.classifications(3));
        assert_eq!(one.calls_seen(3), two.calls_seen(3));
    }

    #[test]
    fn fleet_short_trace_never_classifies() {
        let e = tiny_engine();
        let mut fleet = FleetMonitor::new(e, small_config(), StreamMuxConfig::default());
        fleet.observe_all(1, &[1, 2, 3, 4, 5, 6, 7]); // one short of a window
        let alerts = fleet.drain();
        assert!(alerts.is_empty());
        assert_eq!(fleet.classifications(1), 0);
        assert_eq!(fleet.mux().stats().verdicts, 0);
    }

    #[test]
    fn fleet_stride_longer_than_window() {
        let e = tiny_engine();
        let config = MonitorConfig {
            window_len: 8,
            stride: 20,
            votes_needed: 1,
            vote_horizon: 1,
        };
        let mut fleet = FleetMonitor::new(e.clone(), config, StreamMuxConfig::default());
        let calls: Vec<usize> = (0..70).map(|i| i % 16).collect();
        fleet.observe_all(5, &calls);
        let _ = fleet.drain();
        let mut reference = StreamMonitor::new(e, config);
        reference.observe_all(&calls);
        assert_eq!(fleet.alert_for(5), reference.alert());
        if fleet.alert_for(5).is_none() {
            assert_eq!(fleet.classifications(5), reference.classifications());
        }
    }

    #[test]
    #[should_panic(expected = "cannot need more votes")]
    fn fleet_invalid_vote_config_rejected() {
        let _ = FleetMonitor::new(
            tiny_engine(),
            MonitorConfig {
                votes_needed: 4,
                vote_horizon: 3,
                ..small_config()
            },
            StreamMuxConfig::default(),
        );
    }

    /// A paper-model engine with a mounted cascade calibrated on the
    /// returned windows (so every one of them screens or escalates with
    /// zero flips by construction), plus the bare exact engine.
    fn cascaded_engine() -> (CsdInferenceEngine, CsdInferenceEngine, Vec<Vec<usize>>) {
        let model = SequenceClassifier::new(ModelConfig::paper(), 21);
        let w = ModelWeights::from_model(&model);
        let exact = CsdInferenceEngine::new(&w, OptimizationLevel::FixedPoint);
        let windows: Vec<Vec<usize>> = (0..24).map(|k| seq(4 + (k * 13) % 50, k)).collect();
        let oracle = |s: &[usize]| exact.classify(s).is_positive;
        // Margin 0.003 (30 score units): these windows' screen scores
        // separate cleanly at 4992|5001, so a 30-unit band resolves the
        // confident windows and escalates the handful near the edge —
        // both cascade paths exercised.
        let (tier, report, _) =
            crate::cascade::build_cascade(&w, 4, 0.003, &windows, oracle).expect("screen packs");
        assert!(report.escalated > 0 && report.escalated < report.windows);
        (exact.clone().with_cascade(tier), exact, windows)
    }

    fn cascade_config(width: usize, mode: CascadeMode) -> StreamMuxConfig {
        StreamMuxConfig {
            lanes: Some(width),
            cascade: Some(mode),
            ..StreamMuxConfig::default()
        }
    }

    #[test]
    fn cascade_mux_matches_cascade_serial_and_never_flips_on_calibrated_windows() {
        let (engine, exact, windows) = cascaded_engine();
        for width in [1usize, 3, 16] {
            let mut mux = StreamMux::new(engine.clone(), cascade_config(width, CascadeMode::On));
            assert_eq!(mux.cascade_mode(), CascadeMode::On);
            for (k, w) in windows.iter().enumerate() {
                assert!(mux.submit(k as u64, k, w));
            }
            let verdicts = mux.drain();
            assert!(mux.is_idle());
            assert_eq!(verdicts.len(), windows.len(), "width {width}");
            let mut escalations = 0u64;
            for v in &verdicts {
                let w = &windows[v.stream as usize];
                let (reference, escalated) = engine.classify_cascade(w);
                assert_eq!(
                    v.classification, reference,
                    "width {width} stream {}: mux cascade disagrees with serial cascade",
                    v.stream
                );
                // Calibrated windows never flip the exact verdict.
                assert_eq!(
                    v.classification.is_positive,
                    exact.classify(w).is_positive,
                    "width {width} stream {}",
                    v.stream
                );
                escalations += u64::from(escalated);
            }
            let stats = mux.stats();
            assert_eq!(stats.escalated, escalations, "width {width}");
            assert_eq!(
                stats.screened,
                windows.len() as u64 - escalations,
                "width {width}"
            );
            assert_eq!(stats.cascade_flips, 0, "flips only count under Verify");
        }
    }

    #[test]
    fn cascade_off_is_the_single_tier_parity_anchor() {
        let (engine, exact, windows) = cascaded_engine();
        let mut mux = StreamMux::new(engine, cascade_config(4, CascadeMode::Off));
        assert_eq!(mux.cascade_mode(), CascadeMode::Off);
        for (k, w) in windows.iter().enumerate() {
            assert!(mux.submit(k as u64, k, w));
        }
        let verdicts = mux.drain();
        assert_eq!(verdicts.len(), windows.len());
        for v in &verdicts {
            assert_eq!(
                v.classification,
                exact.classify(&windows[v.stream as usize]),
                "stream {}",
                v.stream
            );
        }
        let stats = mux.stats();
        assert_eq!(
            (stats.screened, stats.escalated, stats.cascade_flips),
            (0, 0, 0)
        );
    }

    #[test]
    fn verify_mode_shadow_classifies_and_counts_zero_flips_when_calibrated() {
        let (engine, _, windows) = cascaded_engine();
        let mut mux = StreamMux::new(engine.clone(), cascade_config(4, CascadeMode::Verify));
        for (k, w) in windows.iter().enumerate() {
            assert!(mux.submit(k as u64, k, w));
        }
        let verdicts = mux.drain();
        assert_eq!(verdicts.len(), windows.len());
        for v in &verdicts {
            let (reference, _) = engine.classify_cascade(&windows[v.stream as usize]);
            assert_eq!(v.classification, reference, "stream {}", v.stream);
        }
        let stats = mux.stats();
        assert!(stats.screened > 0, "verify mode still screens");
        assert_eq!(stats.cascade_flips, 0, "calibrated windows cannot flip");
    }

    #[test]
    fn screen_only_forces_in_band_windows_and_counts_them() {
        let (engine, _, windows) = cascaded_engine();
        let tier = engine.cascade_shared().expect("fixture mounts a tier");
        let mut mux = StreamMux::new(engine.clone(), cascade_config(4, CascadeMode::On));
        mux.set_screen_only(true);
        assert!(mux.screen_only());
        for (k, w) in windows.iter().enumerate() {
            assert!(mux.submit(k as u64, k, w));
        }
        let verdicts = mux.drain();
        assert_eq!(verdicts.len(), windows.len(), "every window still verdicts");
        let mut forced = 0u64;
        for v in &verdicts {
            let (score, decision) = tier.screen(&windows[v.stream as usize]);
            match decision {
                Some(p) => assert_eq!(v.classification.is_positive, p, "out-of-band unchanged"),
                None => {
                    forced += 1;
                    assert_eq!(
                        v.classification.is_positive,
                        tier.band().force(score),
                        "in-band window takes the band-midpoint verdict"
                    );
                }
            }
        }
        let stats = mux.stats();
        assert!(forced > 0, "fixture has in-band windows by construction");
        assert_eq!(stats.forced_screen, forced);
        assert_eq!(stats.escalated, 0, "screen-only never escalates");
        assert!(stats.screen_only_ticks > 0);
        // Clearing the hint restores calibrated escalation for the same
        // windows.
        mux.set_screen_only(false);
        for (k, w) in windows.iter().enumerate() {
            assert!(mux.submit(k as u64, k, w));
        }
        let _ = mux.drain();
        let stats = mux.stats();
        assert_eq!(
            stats.escalated, forced,
            "hint cleared, band escalates again"
        );
        assert_eq!(stats.forced_screen, forced, "no further forcing");
    }

    #[test]
    fn sharded_screen_only_propagates_and_aggregates() {
        let (engine, _, windows) = cascaded_engine();
        let mut mux = ShardedStreamMux::new(
            engine,
            StreamMuxConfig {
                lanes: Some(2),
                shards: Some(2),
                cascade: Some(CascadeMode::On),
                ..StreamMuxConfig::default()
            },
        );
        assert!(!mux.screen_only());
        mux.set_screen_only(true);
        assert!(mux.screen_only());
        for (k, w) in windows.iter().enumerate() {
            assert!(mux.submit(k as u64, k, w));
        }
        let verdicts = mux.drain();
        assert_eq!(verdicts.len(), windows.len());
        let stats = mux.stats();
        assert!(stats.forced_screen > 0, "forcing crosses the coordinator");
        assert_eq!(stats.escalated, 0);
    }

    #[test]
    fn cascade_without_a_mounted_tier_falls_back_to_single_tier() {
        let e = engine(OptimizationLevel::FixedPoint);
        let mut mux = StreamMux::new(e.clone(), cascade_config(2, CascadeMode::On));
        assert_eq!(mux.cascade_mode(), CascadeMode::Off);
        let windows: Vec<Vec<usize>> = (0..5).map(|k| seq(6 + k * 3, k)).collect();
        for (k, w) in windows.iter().enumerate() {
            assert!(mux.submit(k as u64, k, w));
        }
        let verdicts = mux.drain();
        assert_eq!(verdicts.len(), windows.len());
        for v in &verdicts {
            assert_eq!(v.classification, e.classify(&windows[v.stream as usize]));
        }
        assert_eq!(mux.stats().screened, 0);
    }

    #[test]
    fn sharded_cascade_matches_serial_cascade_and_aggregates_counters() {
        let (engine, _, windows) = cascaded_engine();
        let serial: Vec<_> = windows.iter().map(|w| engine.classify_cascade(w)).collect();
        for shards in [1usize, 2, 4] {
            let mut mux = ShardedStreamMux::new(
                engine.clone(),
                StreamMuxConfig {
                    lanes: Some(2),
                    shards: Some(shards),
                    steal: Some(StealPolicy::Deterministic),
                    cascade: Some(CascadeMode::On),
                    ..StreamMuxConfig::default()
                },
            );
            let mut verdicts = Vec::new();
            for (k, w) in windows.iter().enumerate() {
                assert!(mux.submit(k as u64, k, w));
                if k % 5 == 0 {
                    mux.tick_into(&mut verdicts);
                }
            }
            mux.drain_into(&mut verdicts);
            assert!(mux.is_idle());
            assert_eq!(verdicts.len(), windows.len(), "{shards} shards");
            for v in &verdicts {
                assert_eq!(
                    v.classification, serial[v.stream as usize].0,
                    "{shards} shards, stream {}",
                    v.stream
                );
            }
            let stats = mux.stats();
            let escalations = serial.iter().filter(|(_, e)| *e).count() as u64;
            assert_eq!(stats.escalated, escalations, "{shards} shards");
            assert_eq!(
                stats.screened,
                windows.len() as u64 - escalations,
                "{shards} shards"
            );
        }
    }

    #[test]
    fn cascade_mux_survives_degraded_mode_with_identical_verdicts() {
        use csd_device::FaultConfig;
        let (engine, _, windows) = cascaded_engine();
        let mut mux = StreamMux::new(engine.clone(), cascade_config(4, CascadeMode::On));
        mux.arm_faults(FaultPlan::new(0xFA_17, FaultConfig::uniform(0.05)), 3);
        for (k, w) in windows.iter().enumerate() {
            assert!(mux.submit(k as u64, k, w));
        }
        let verdicts = mux.drain();
        assert_eq!(verdicts.len(), windows.len());
        for v in &verdicts {
            let (reference, _) = engine.classify_cascade(&windows[v.stream as usize]);
            assert_eq!(v.classification, reference, "stream {}", v.stream);
        }
    }
}
