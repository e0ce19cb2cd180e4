//! Microbench for the stream multiplexer's per-tick hot trio: the
//! LUT-sigmoid gathers over the gate block, the lane-batched state
//! update, and the admission/retire bookkeeping around the lane sweep —
//! plus the quantized screen-tier kernels the cascade runs in their
//! place, at the paper's dimensions (`H` = 32, `4H` = 128).
//!
//! Kernel inputs are synthetic exact integers inside the proven ranges
//! (pre-activations within the matmul bound, cell state within the
//! 8000-step growth bound), so every contender runs the same dispatch
//! tier it runs inside `StreamMux::tick_into`. The bookkeeping group
//! drives a real mux with one-item windows: every tick retires and
//! refills the full lane block, so admission, retirement, latency-ring
//! and buffer-pool work dominate the measurement. The sharded-round
//! group times one coordinator round of `ShardedStreamMux` — a
//! single `tick_into` at a fixed in-flight load, and a full `drain` —
//! at 1 and 2 shards, so the round's thread handoff has a number.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use csd_accel::{
    CsdInferenceEngine, OptimizationLevel, ShardedStreamMux, StealPolicy, StreamMux,
    StreamMuxConfig,
};
use csd_nn::{ModelConfig, ModelWeights, SequenceClassifier};
use csd_tensor::lanes;

const HIDDEN: usize = 32;
const ROWS: usize = 128; // 4H
const VOCAB: usize = 278;

/// Deterministic raw values in `[-m, m)` at 10^6 scale.
fn raw(i: usize, m: i64) -> f64 {
    ((i as i64).wrapping_mul(48_271) % m) as f64
}

fn bench_activations(c: &mut Criterion) {
    let mut group = c.benchmark_group("mux_hot/activations");
    for width in [8usize, 16, 32] {
        // Pre-activations within the LUT's interesting range (±8 units)
        // for the three sigmoid gates, candidate values for softsign.
        let gates: Vec<f64> = (0..3 * HIDDEN * width).map(|i| raw(i, 8_000_000)).collect();
        let cand: Vec<f64> = (0..HIDDEN * width).map(|i| raw(i, 8_000_000)).collect();
        group.throughput(Throughput::Elements((ROWS * width) as u64));
        group.bench_with_input(BenchmarkId::new("sigmoid_lut", width), &width, |b, _| {
            let mut xs = gates.clone();
            b.iter(|| {
                xs.copy_from_slice(&gates);
                lanes::sigmoid_lut_lanes(&mut xs);
                black_box(&mut xs);
            })
        });
        group.bench_with_input(BenchmarkId::new("softsign", width), &width, |b, _| {
            let mut xs = cand.clone();
            b.iter(|| {
                xs.copy_from_slice(&cand);
                lanes::softsign_lanes(&mut xs);
                black_box(&mut xs);
            })
        });
        // The screen tier's integer activation sweep over the same gate
        // block shape (plan sigmoid + integer softsign at 10^4 scale),
        // carried as exact integers in f64.
        let screen_g: Vec<f64> = (0..ROWS * width)
            .map(|i| ((i as i64).wrapping_mul(48_271) % 50_000) as f64)
            .collect();
        group.bench_with_input(
            BenchmarkId::new("screen_activate", width),
            &width,
            |b, _| {
                let mut g = screen_g.clone();
                b.iter(|| {
                    g.copy_from_slice(&screen_g);
                    lanes::screen_activate_lanes(&mut g, HIDDEN, width, 10_000);
                    black_box(&mut g);
                })
            },
        );
    }
    group.finish();
}

fn bench_state_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("mux_hot/update");
    for width in [8usize, 16, 32] {
        // Activated gates in [0, 1] (sigmoid outputs) for i/f/o, [-1, 1]
        // for the candidate; cell state inside the 8000-step bound.
        let mut g = vec![0.0f64; 4 * HIDDEN * width];
        let hw = HIDDEN * width;
        for j in 0..hw {
            g[j] = raw(j, 1_000_000).abs();
            g[hw + j] = raw(j + 1, 1_000_000).abs();
            g[2 * hw + j] = raw(j + 2, 2_000_000) - 1_000_000.0;
            g[3 * hw + j] = raw(j + 3, 1_000_000).abs();
        }
        let c0: Vec<f64> = (0..hw).map(|i| raw(i, 4_000_000_000)).collect();
        group.throughput(Throughput::Elements(hw as u64));
        group.bench_with_input(BenchmarkId::new("update_lanes", width), &width, |b, _| {
            let mut cell = c0.clone();
            let mut h = vec![0.0f64; hw];
            b.iter(|| {
                cell.copy_from_slice(&c0);
                lanes::update_lanes(&g, HIDDEN, width, &mut cell, &mut h);
                black_box(&mut h);
            })
        });
        // The screen tier's integer update over the same shape.
        let sg: Vec<f64> = (0..4 * hw)
            .map(|i| (i as i64).wrapping_mul(25_931).rem_euclid(10_001) as f64)
            .collect();
        let sc0: Vec<f64> = (0..hw)
            .map(|i| ((i as i64).wrapping_mul(48_271) % 40_000_000) as f64)
            .collect();
        group.bench_with_input(BenchmarkId::new("screen_update", width), &width, |b, _| {
            let mut cell = sc0.clone();
            let mut h = vec![0i16; hw];
            let g = sg.clone();
            b.iter(|| {
                cell.copy_from_slice(&sc0);
                lanes::screen_update_lanes(&g, HIDDEN, width, 10_000, &mut cell, &mut h);
                black_box(&mut h);
            })
        });
    }
    group.finish();
}

fn bench_bookkeeping(c: &mut Criterion) {
    // One-item windows: every tick retires and refills the entire lane
    // block, so per-verdict cost is dominated by admission, retirement,
    // the latency ring, and buffer recycling — the mux bookkeeping.
    let model = SequenceClassifier::new(ModelConfig::paper(), 51);
    let weights = ModelWeights::from_model(&model);
    let engine = CsdInferenceEngine::new(&weights, OptimizationLevel::FixedPoint);
    let windows: Vec<Vec<usize>> = (0..256).map(|k| vec![(k * 97 + 13) % VOCAB]).collect();
    let mut group = c.benchmark_group("mux_hot/bookkeeping");
    group.throughput(Throughput::Elements(windows.len() as u64));
    for width in [8usize, 16, 32] {
        group.bench_with_input(
            BenchmarkId::new("admit_retire_1item", width),
            &width,
            |b, &w| {
                let mut mux = StreamMux::new(
                    engine.clone(),
                    StreamMuxConfig {
                        lanes: Some(w),
                        ..StreamMuxConfig::default()
                    },
                );
                let mut out = Vec::with_capacity(windows.len());
                b.iter(|| {
                    for (k, win) in windows.iter().enumerate() {
                        mux.submit(k as u64, k, win);
                    }
                    out.clear();
                    while !mux.is_idle() {
                        mux.tick_into(&mut out);
                    }
                    black_box(&mut out);
                })
            },
        );
    }
    group.finish();
}

fn bench_sharded_round(c: &mut Criterion) {
    const LANES: usize = 16;
    const WINDOW: usize = 100;
    let model = SequenceClassifier::new(ModelConfig::paper(), 51);
    let weights = ModelWeights::from_model(&model);
    let engine = CsdInferenceEngine::new(&weights, OptimizationLevel::FixedPoint);
    let window = |k: usize, len: usize| -> Vec<usize> {
        (0..len).map(|i| (i * 131 + k * 97 + 13) % VOCAB).collect()
    };
    let sharded = |shards: usize| {
        ShardedStreamMux::new(
            engine.clone(),
            StreamMuxConfig {
                lanes: Some(LANES),
                shards: Some(shards),
                steal: Some(StealPolicy::Deterministic),
                ..StreamMuxConfig::default()
            },
        )
    };
    let mut group = c.benchmark_group("mux_hot/sharded_round");
    for shards in [1usize, 2] {
        // Steady state: `load` windows stay in flight, each retirement
        // refilled with a fresh full-length window. Staggered first
        // lengths spread the retirements across ticks.
        for load in [8usize, 32] {
            group.throughput(Throughput::Elements(load as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("tick_{shards}shard"), load),
                &load,
                |b, &load| {
                    let mut mux = sharded(shards);
                    for k in 0..load {
                        mux.submit(k as u64, 0, &window(k, 1 + k * WINDOW / load));
                    }
                    let full = window(0, WINDOW);
                    let mut next = load as u64;
                    let mut out = Vec::with_capacity(load);
                    b.iter(|| {
                        out.clear();
                        mux.tick_into(&mut out);
                        for _ in 0..out.len() {
                            mux.submit(next, 0, &full);
                            next += 1;
                        }
                        black_box(&mut out);
                    })
                },
            );
        }
        // A burst of 512 full-length windows drained to idle.
        let burst: Vec<Vec<usize>> = (0..512).map(|k| window(k, WINDOW)).collect();
        group.throughput(Throughput::Elements(burst.len() as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("drain_{shards}shard"), burst.len()),
            &shards,
            |b, &shards| {
                let mut mux = sharded(shards);
                let mut out = Vec::with_capacity(burst.len());
                b.iter(|| {
                    for (k, w) in burst.iter().enumerate() {
                        mux.submit(k as u64, 0, w);
                    }
                    out.clear();
                    mux.drain_into(&mut out);
                    black_box(&mut out);
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_activations,
    bench_state_update,
    bench_bookkeeping,
    bench_sharded_round
);
criterion_main!(benches);
