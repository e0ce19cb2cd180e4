//! Workload inputs and the offline oracle.
//!
//! Every workload is a set of processes, each a sequence of API calls,
//! merged into one time-ordered event trace by
//! [`csd_ransomware::replay::interleave`]. The trace is kept compact
//! ([`Ev`], 16 bytes an event) so the benchmark's own inputs weigh
//! little next to the service state whose peak memory is measured.
//!
//! The oracle classifies every window a process yields offline with
//! [`CsdInferenceEngine::classify_batch_refs`] and folds the verdicts
//! with the service's k-of-n vote, cut at the first latch: the expected
//! incident of each process is the call that completed its latching
//! window, or none.

use std::time::Instant;

use csd_accel::{CsdInferenceEngine, OptimizationLevel};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
use csd_ransomware::dataset::{Dataset, DatasetBuilder, DatasetEntry};
use csd_ransomware::replay::{interleave, ReplayProfile, TraceEventKind, REPLAY_PID_BASE};
use csd_ransomware::{BenignProfile, Sandbox, Variant, WindowsVersion};
use csd_sentry::{EventKind, ProcessEvent};

/// Seed of the random-weight paper model the experiment binaries use.
pub const MODEL_SEED: u64 = 51;

/// The engine's optimization level, as in the experiment binaries.
pub const LEVEL: OptimizationLevel = OptimizationLevel::FixedPoint;

/// Entries of the paper corpus replayed by `durable-crash`.
pub const CRASH_ENTRIES: usize = 8_000;

/// Sandbox processes in one `fleet-paced` pass (half ransomware).
pub const FLEET_PROCESSES: usize = 1_000;

/// API calls each `fleet-paced` process issues.
pub const FLEET_CALLS: usize = 300;

const SPAWN: u32 = u32::MAX - 1;
const EXIT: u32 = u32::MAX;
/// `Ev::slot` of an event that completes no window.
pub const NO_SLOT: u32 = u32::MAX;

/// The paper's model with seeded random weights: the oracle compares the
/// engine against itself, so its accuracy is irrelevant.
pub fn model_weights() -> ModelWeights {
    ModelWeights::from_model(&SequenceClassifier::new(ModelConfig::paper(), MODEL_SEED))
}

/// One trace event, compactly: the process is `pid − REPLAY_PID_BASE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ev {
    t_us: u32,
    /// Process id.
    pub pid: u32,
    code: u32,
    /// The window slot this call completes, or [`NO_SLOT`].
    pub slot: u32,
}

impl Ev {
    /// Index of the event's process.
    pub fn process(self) -> usize {
        (self.pid - REPLAY_PID_BASE) as usize
    }

    /// The live event, with the spawn name looked up in `names`.
    pub fn to_event(self, names: &[String]) -> ProcessEvent {
        let kind = match self.code {
            SPAWN => EventKind::Spawn(names[self.process()].clone()),
            EXIT => EventKind::Exit,
            call => EventKind::Api(call as usize),
        };
        ProcessEvent {
            t_us: u64::from(self.t_us),
            pid: self.pid,
            kind,
        }
    }
}

/// A workload's event trace with its window bookkeeping and oracle.
#[derive(Debug)]
pub struct Workload {
    /// The merged trace.
    pub events: Vec<Ev>,
    /// Spawn name per process.
    pub names: Vec<String>,
    /// First window slot of each process.
    pub slot_base: Vec<u32>,
    /// Event index of the call completing each window slot.
    pub slot_event: Vec<u32>,
    /// Window length and stride the slots were cut with.
    pub window_len: usize,
    /// See `window_len`.
    pub stride: usize,
    /// Oracle: the `at_call` of each process's incident, if any.
    pub expected: Vec<Option<usize>>,
    /// Wall time of the oracle's `classify_batch_refs` pass.
    pub oracle_s: f64,
}

impl Workload {
    /// Builds the trace for `entries` (one process each, named by its
    /// source), interleaved with `profile`, and runs the oracle with a
    /// `votes_needed`-of-`horizon` vote.
    #[allow(clippy::too_many_arguments)]
    fn build(
        engine: &CsdInferenceEngine,
        entries: Vec<DatasetEntry>,
        seed: u64,
        profile: ReplayProfile,
        window_len: usize,
        stride: usize,
        votes_needed: usize,
        horizon: usize,
    ) -> Self {
        let windows_of = |n: usize| {
            if n < window_len {
                0
            } else {
                (n - window_len) / stride + 1
            }
        };
        let mut slot_base = Vec::with_capacity(entries.len());
        let mut slots = 0u32;
        for e in &entries {
            slot_base.push(slots);
            slots += u32::try_from(windows_of(e.sequence.len())).expect("window count fits u32");
        }

        // Oracle over every window, in slot order.
        let refs: Vec<&[usize]> = entries
            .iter()
            .flat_map(|e| {
                (0..windows_of(e.sequence.len()))
                    .map(move |m| &e.sequence[m * stride..m * stride + window_len])
            })
            .collect();
        let t = Instant::now();
        let verdicts = engine.classify_batch_refs(&refs);
        let oracle_s = t.elapsed().as_secs_f64();
        drop(refs);
        let mask = if horizon >= 64 {
            u64::MAX
        } else {
            (1u64 << horizon) - 1
        };
        let expected = entries
            .iter()
            .zip(&slot_base)
            .map(|(e, &base)| {
                let mut ring = 0u64;
                (0..windows_of(e.sequence.len())).find_map(|m| {
                    let positive = verdicts[base as usize + m].is_positive;
                    ring = ((ring << 1) | u64::from(positive)) & mask;
                    (ring.count_ones() as usize >= votes_needed).then_some(m * stride + window_len)
                })
            })
            .collect();

        let dataset = Dataset::from_entries(entries);
        let trace = interleave(&dataset, seed, profile);
        let names: Vec<String> = dataset.entries().iter().map(|e| e.source.clone()).collect();
        drop(dataset);
        let mut calls = vec![0usize; names.len()];
        let mut slot_event = vec![0u32; slots as usize];
        let events = trace
            .events
            .iter()
            .enumerate()
            .map(|(j, e)| {
                let p = (e.pid - REPLAY_PID_BASE) as usize;
                let mut slot = NO_SLOT;
                let code = match e.kind {
                    TraceEventKind::Spawn(_) => SPAWN,
                    TraceEventKind::Exit => EXIT,
                    TraceEventKind::Api(call) => {
                        calls[p] += 1;
                        let c = calls[p];
                        if c >= window_len && (c - window_len).is_multiple_of(stride) {
                            slot = slot_base[p] + ((c - window_len) / stride) as u32;
                            slot_event[slot as usize] = j as u32;
                        }
                        u32::try_from(call).expect("vocabulary index fits u32")
                    }
                };
                Ev {
                    t_us: u32::try_from(e.t_us).expect("trace spans under 71 minutes"),
                    pid: e.pid,
                    code,
                    slot,
                }
            })
            .collect();
        Self {
            events,
            names,
            slot_base,
            slot_event,
            window_len,
            stride,
            expected,
            oracle_s,
        }
    }

    /// Processes in the workload.
    pub fn processes(&self) -> usize {
        self.names.len()
    }

    /// Windows the oracle classified.
    pub fn windows(&self) -> usize {
        self.slot_event.len()
    }

    /// The window slot an incident at `at_call` of process `p` refers to.
    pub fn slot_of(&self, p: usize, at_call: usize) -> Option<usize> {
        let m = at_call.checked_sub(self.window_len)?;
        if !m.is_multiple_of(self.stride) {
            return None;
        }
        let slot = self.slot_base[p] as usize + m / self.stride;
        let end = self
            .slot_base
            .get(p + 1)
            .map_or(self.slot_event.len(), |&b| b as usize);
        (slot < end).then_some(slot)
    }
}

/// The corpus replay profile `exp_sentry` uses: 50 µs mean gaps, starts
/// spread over a quarter of the nominal makespan.
fn corpus_profile(entries: usize) -> ReplayProfile {
    ReplayProfile {
        mean_gap_us: 50,
        jitter: 0.5,
        spread_us: entries as u64 * 100 * 50 / 4,
    }
}

/// `corpus-burst`: the paper's 29K corpus as interleaved live traffic,
/// one window per process, 1-of-1 votes.
pub fn corpus_burst(engine: &CsdInferenceEngine, seed: u64) -> Workload {
    let entries = DatasetBuilder::paper(seed).build().entries().to_vec();
    let profile = corpus_profile(entries.len());
    Workload::build(engine, entries, seed, profile, 100, 10, 1, 1)
}

/// `durable-crash`: the first [`CRASH_ENTRIES`] entries of the shuffled
/// paper corpus, interleaved the same way, 1-of-1 votes.
pub fn durable_crash(engine: &CsdInferenceEngine, seed: u64) -> Workload {
    let mut entries = DatasetBuilder::paper(seed).build().entries().to_vec();
    entries.truncate(CRASH_ENTRIES);
    let profile = corpus_profile(entries.len());
    Workload::build(engine, entries, seed, profile, 100, 10, 1, 1)
}

/// `fleet-paced`: [`FLEET_PROCESSES`] sandbox processes, half
/// ransomware detonations and half benign application sessions, each
/// the first [`FLEET_CALLS`] calls of its trace, all running at once,
/// under the default window 100 / stride 10 / 2-of-3 vote.
pub fn fleet(engine: &CsdInferenceEngine, seed: u64) -> Workload {
    let sandbox = Sandbox::new(seed);
    let variants = Variant::corpus();
    let apps = BenignProfile::suite();
    let os_of = |k: usize| WindowsVersion::BOTH[k % 2];
    let clip = |mut calls: Vec<usize>| {
        assert!(calls.len() >= FLEET_CALLS, "sandbox trace too short");
        calls.truncate(FLEET_CALLS);
        calls
    };
    let entries = (0..FLEET_PROCESSES)
        .map(|i| {
            let k = i / 2;
            if i % 2 == 0 {
                let v = &variants[k % variants.len()];
                let os = os_of(k / variants.len());
                let run = (k / (2 * variants.len())) as u64;
                DatasetEntry {
                    sequence: clip(sandbox.detonate_run(v, os, run)),
                    is_ransomware: true,
                    source: format!("{}/{os:?}/r{run}", v.id()),
                }
            } else {
                let app = &apps[k % apps.len()];
                let os = os_of(k / apps.len());
                DatasetEntry {
                    sequence: clip(app.generate(
                        sandbox.vocabulary(),
                        os,
                        seed.wrapping_add(k as u64),
                    )),
                    is_ransomware: false,
                    source: format!("{}/{os:?}/s{k}", app.name),
                }
            }
        })
        .collect();
    // Starts spread over a quarter of one process's lifetime: every
    // process is live for most of the pass.
    let profile = ReplayProfile {
        mean_gap_us: 1_000,
        jitter: 0.5,
        spread_us: (FLEET_CALLS as u64) * 1_000 / 4,
    };
    Workload::build(engine, entries, seed, profile, 100, 10, 2, 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_engine() -> CsdInferenceEngine {
        let model = SequenceClassifier::new(ModelConfig::tiny(278), 3);
        CsdInferenceEngine::new(
            &ModelWeights::from_model(&model),
            OptimizationLevel::FixedPoint,
        )
    }

    fn entry(len: usize, salt: usize) -> DatasetEntry {
        DatasetEntry {
            sequence: (0..len).map(|i| (i * 7 + salt) % 278).collect(),
            is_ransomware: false,
            source: format!("p{salt}"),
        }
    }

    #[test]
    fn slots_mark_every_window_completing_call() {
        let engine = tiny_engine();
        let w = Workload::build(
            &engine,
            vec![entry(30, 1), entry(9, 2), entry(24, 3)],
            5,
            ReplayProfile::default(),
            10,
            5,
            1,
            1,
        );
        // Windows: 30 calls → 5, 9 calls → 0, 24 calls → 3.
        assert_eq!(w.slot_base, vec![0, 5, 5]);
        assert_eq!(w.windows(), 8);
        for (slot, &j) in w.slot_event.iter().enumerate() {
            assert_eq!(w.events[j as usize].slot as usize, slot);
        }
        assert_eq!(w.slot_of(0, 10), Some(0));
        assert_eq!(w.slot_of(0, 30), Some(4));
        assert_eq!(w.slot_of(0, 35), None);
        assert_eq!(w.slot_of(2, 20), Some(7));
        assert_eq!(w.slot_of(1, 10), None);
        // Expected incidents sit on window boundaries.
        for (p, at) in w.expected.iter().enumerate() {
            if let Some(at) = at {
                assert!(w.slot_of(p, *at).is_some());
            }
        }
        // Round trip through the live event type.
        let spawns = w
            .events
            .iter()
            .filter(|e| matches!(e.to_event(&w.names).kind, EventKind::Spawn(_)))
            .count();
        assert_eq!(spawns, 3);
    }
}
