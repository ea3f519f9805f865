//! Per-layer costs: single calls into the public functions of `mac_prob`,
//! `mac_channel` and `mac_sim`, timed from here at fixed inputs.
//!
//! Every layer is sampled [`SAMPLES`] times; one sample is a batch of calls
//! sized to take roughly ten microseconds, reported per call (or per KiB,
//! per message, per merge). Inputs are drawn from the run seed, so the same
//! seed times the same inputs.

use crate::report::{ns_since, summarise, Summary};
use mac_channel::{ArrivalModel, ArrivalStream, ShardedArrivalStream};
use mac_prob::binomial::{sample_binomial_fast, ModeKernel, SlotKernelCache, SlotThresholds};
use mac_prob::cohort::CohortKernel;
use mac_prob::rng::Xoshiro256pp;
use mac_prob::sketch::StreamingLatencyStats;
use mac_prob::wire::{digest_words, Decoder, Encoder};
use mac_protocols::ProtocolKind;
use mac_sim::{RunOptions, ShardedSession};
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Samples per layer call.
const SAMPLES: usize = 1000;

/// Words in the frame the codec layers are timed on (128 KiB).
const FRAME_WORDS: usize = 16 * 1024;

/// One measured layer: its metric name, unit and timing summary.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

impl Layer {
    /// The layer's median cost, the figure the ledger multiplies by counts.
    pub fn p50(layers: &[Layer], name: &str) -> f64 {
        layers
            .iter()
            .find(|layer| layer.name == name)
            .map_or(0.0, |layer| layer.summary.p50)
    }
}

/// Times `batch` calls of `call` per sample, after one untimed warm-up
/// batch, and summarises the per-call cost in nanoseconds divided by
/// `scale` (per KiB, per message, or in µs).
fn sample<F: FnMut()>(batch: usize, scale: f64, mut call: F) -> Summary {
    for _ in 0..batch {
        call();
    }
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                call();
            }
            ns_since(start) / batch as f64 / scale
        })
        .collect();
    summarise(&samples)
}

pub fn measure(seed: u64) -> Vec<Layer> {
    let mut layers = Vec::new();
    let mut put = |name, unit, summary| {
        layers.push(Layer {
            name,
            unit,
            summary,
        })
    };
    let mut rng = Xoshiro256pp::new(seed);

    // One Xoshiro256++ f64 draw.
    let mut draw_rng = Xoshiro256pp::new(seed ^ 1);
    put(
        "rng.draw_ns",
        "ns",
        sample(4096, 1.0, || {
            black_box(draw_rng.gen::<f64>());
        }),
    );

    // SlotKernelCache::select at an unchanged, a nearby and a distant (m, p).
    let mut hit = SlotKernelCache::new(1_000_000, 1e-6);
    put(
        "binomial.select_hit_ns",
        "ns",
        sample(4096, 1.0, || {
            black_box(hit.select(black_box(1e6), black_box(1e-6)).p());
        }),
    );
    // Oracle-like drift: one station fewer per call at p = 1/m, the short
    // Taylor path of the kernel.
    let mut step = SlotKernelCache::new(20_000_000, 1.0 / 2e7);
    let mut m = 2e7;
    put(
        "binomial.select_step_ns",
        "ns",
        sample(4096, 1.0, || {
            m -= 1.0;
            black_box(step.select(m, 1.0 / m).p());
        }),
    );
    // Three probabilities decades apart: every call misses both cache
    // lines and re-anchors one of them exactly.
    let mut jump = SlotKernelCache::new(1_000_000, 1e-6);
    let far = [1e-6, 1e-3, 0.2];
    let mut i = 0usize;
    put(
        "binomial.select_jump_ns",
        "ns",
        sample(256, 1.0, || {
            i = (i + 1) % far.len();
            black_box(jump.select(1e6, far[i]).p());
        }),
    );

    // ModeKernel along a window walk at λ = n·p = 100: each slot removes
    // about λ balls and one bin.
    let (n0, w0) = (10_000_000.0, 100_000.0);
    let mut mode = ModeKernel::new(n0 as u64, 1.0 / w0);
    let (mut n, mut w) = (n0, w0);
    put(
        "binomial.mode_update_ns",
        "ns",
        sample(1024, 1.0, || {
            if w < 20_000.0 {
                (n, w) = (n0, w0);
                mode = ModeKernel::new(n0 as u64, 1.0 / w0);
            }
            n -= 100.0;
            w -= 1.0;
            mode.update(n, 1.0 / w);
            black_box(mode.pmf_mode());
        }),
    );
    let sampler = ModeKernel::new(10_000_000, 1e-5);
    let ge2 = 1.0 - SlotThresholds::exact(10_000_000, 1e-5).t1;
    let targets: Vec<f64> = (0..1024).map(|_| rng.gen::<f64>() * ge2).collect();
    let mut t = 0usize;
    put(
        "binomial.mode_sample_ns",
        "ns",
        sample(1024, 1.0, || {
            t = (t + 1) % targets.len();
            black_box(sampler.sample_cond_ge2(targets[t]));
        }),
    );
    let mut btpe_rng = Xoshiro256pp::new(seed ^ 2);
    put(
        "binomial.btpe_ns",
        "ns",
        sample(256, 1.0, || {
            black_box(sample_binomial_fast(1_000_000, 0.3, &mut btpe_rng));
        }),
    );
    let mut inv_rng = Xoshiro256pp::new(seed ^ 3);
    put(
        "binomial.inversion_ns",
        "ns",
        sample(1024, 1.0, || {
            black_box(sample_binomial_fast(1_000, 0.005, &mut inv_rng));
        }),
    );

    // CohortKernel::classify over C classes at total load ~1, alternating
    // two probability tracks (AT/BT-like) with the AT track drifting.
    for (name, classes, batch) in [
        ("cohort.classify_ns.c1", 1usize, 1024usize),
        ("cohort.classify_ns.c8", 8, 128),
        ("cohort.classify_ns.c64", 64, 16),
    ] {
        let (mut kernel, ms, at, bt) = cohort_fixture(classes);
        let mut ps = at.clone();
        let mut drift = 1.0;
        let mut odd = false;
        put(
            name,
            "ns",
            sample(batch, 1.0, || {
                odd = !odd;
                if odd {
                    ps.copy_from_slice(&bt);
                } else {
                    drift *= 1.0 - 1e-7;
                    for (p, a) in ps.iter_mut().zip(&at) {
                        *p = a * drift;
                    }
                }
                black_box(kernel.classify(&ms, &ps));
            }),
        );
    }
    let (mut kernel, ms, at, _) = cohort_fixture(64);
    let band = kernel.classify(&ms, &at);
    let width = band.t1 - band.t0;
    let offsets: Vec<f64> = (0..1024).map(|_| rng.gen::<f64>() * width).collect();
    let mut o = 0usize;
    put(
        "cohort.deliver_ns.c64",
        "ns",
        sample(256, 1.0, || {
            o = (o + 1) % offsets.len();
            black_box(kernel.delivering_cohort(offsets[o]));
        }),
    );

    // StreamingLatencyStats: push, quantile read, and the per-shard merge
    // that ShardedSession::merged_stats performs.
    let latencies: Vec<u64> = (0..4096)
        .map(|_| (-(1.0 - rng.gen::<f64>()).ln() * 5e6) as u64)
        .collect();
    let mut pushed = StreamingLatencyStats::new(seed);
    let mut l = 0usize;
    put(
        "sketch.push_ns",
        "ns",
        sample(4096, 1.0, || {
            l = (l + 1) % latencies.len();
            pushed.push(latencies[l]);
        }),
    );
    let mut full = StreamingLatencyStats::new(seed);
    for j in 0..1_000_000 {
        full.push(latencies[j % latencies.len()]);
    }
    let qs = [0.5, 0.95, 0.99];
    let mut q = 0usize;
    put(
        "sketch.quantile_ns",
        "ns",
        sample(64, 1.0, || {
            q = (q + 1) % qs.len();
            black_box(full.quantile(qs[q]));
        }),
    );
    put(
        "sketch.merge_us",
        "us",
        sample(1, 1e3, || {
            let mut merged = StreamingLatencyStats::new(0);
            merged.merge(&full);
            black_box(merged.count());
        }),
    );

    // Checkpoint codec on a 128 KiB frame: encode, decode (the slice view
    // plus the copy a fleet restore makes of each shard frame) and digest.
    let words: Vec<u64> = (0..FRAME_WORDS).map(|_| rng.gen::<u64>()).collect();
    let kib = (FRAME_WORDS * 8) as f64 / 1024.0;
    put(
        "wire.encode_ns_per_kib",
        "ns/KiB",
        sample(1, kib, || {
            let mut enc = Encoder::new();
            enc.put_words(&words);
            black_box(enc.finish());
        }),
    );
    let mut enc = Encoder::new();
    enc.put_words(&words);
    let encoded = enc.finish();
    put(
        "wire.decode_ns_per_kib",
        "ns/KiB",
        sample(1, kib, || {
            let mut dec = Decoder::new(&encoded);
            black_box(dec.take_words().map(<[u64]>::to_vec).ok());
        }),
    );
    put(
        "wire.digest_ns_per_kib",
        "ns/KiB",
        sample(1, kib, || {
            black_box(digest_words(&words));
        }),
    );

    // Arrival streams, per message: a Poisson(2) stream over 4096 slots and
    // the 2-shard view of two 4096-message bursts.
    let poisson = ArrivalModel::Poisson {
        rate: 2.0,
        horizon: 4096,
    };
    let poisson_msgs = drain(&mut ArrivalStream::new(&poisson, seed)) as f64;
    put(
        "stream.arrival_ns_per_msg",
        "ns",
        sample(1, poisson_msgs, || {
            black_box(drain(&mut ArrivalStream::new(&poisson, seed)));
        }),
    );
    let bursts = ArrivalModel::Bursts {
        bursts: vec![(0, 4096), (100, 4096)],
    };
    put(
        "stream.shard_ns_per_msg",
        "ns",
        sample(1, 8192.0, || {
            let master = ArrivalStream::new(&bursts, seed);
            let mut shard = ShardedArrivalStream::new(master, seed, 0, 2);
            let mut msgs = 0;
            while let Some((_, count)) = shard.next_burst() {
                msgs += count;
            }
            black_box(msgs);
        }),
    );

    // One ShardedSession spawn/join round with a zero slot budget.
    let kind = ProtocolKind::OneFailAdaptive { delta: 2.72 };
    let model = ArrivalModel::Bursts {
        bursts: vec![(0, 1000)],
    };
    let mut fleet = ShardedSession::new(&kind, &model, seed, &RunOptions::default(), 2)
        .expect("a two-shard One-fail fleet over one burst is valid");
    put(
        "session.dispatch_us",
        "us",
        sample(1, 1e3, || {
            black_box(fleet.advance(0).is_ok());
        }),
    );
    layers
}

/// A kernel over `classes` classes with sizes 1000·(i+1), an AT track at
/// total load 1 and a BT track at half that.
fn cohort_fixture(classes: usize) -> (CohortKernel, Vec<f64>, Vec<f64>, Vec<f64>) {
    let ms: Vec<f64> = (0..classes).map(|i| 1000.0 * (i + 1) as f64).collect();
    let at: Vec<f64> = ms.iter().map(|m| 1.0 / (classes as f64 * m)).collect();
    let bt: Vec<f64> = at.iter().map(|p| 0.5 * p).collect();
    let mut kernel = CohortKernel::with_capacity(classes);
    for (m, p) in ms.iter().zip(&at) {
        kernel.push(*m as u64, *p);
    }
    (kernel, ms, at, bt)
}

fn drain(stream: &mut ArrivalStream) -> u64 {
    let mut msgs = 0;
    while let Some((_, count)) = stream.next_burst() {
        msgs += count;
    }
    msgs
}
