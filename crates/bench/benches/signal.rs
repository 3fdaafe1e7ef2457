//! Criterion bench: DSP substrate primitives.
//!
//! The moving min/max (EMPROF's normalization) and the FFT (the
//! attribution spectrogram) dominate the signal-processing cost; each is
//! tracked here.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use emprof_signal::stats;
use emprof_signal::stft::{Stft, StftConfig};

fn bench_signal(c: &mut Criterion) {
    let n = 1_000_000usize;
    let signal: Vec<f64> = (0..n).map(|i| ((i * 31) % 101) as f64).collect();

    let mut group = c.benchmark_group("signal");
    group.sample_size(15);
    group.throughput(Throughput::Elements(n as u64));

    group.bench_function("moving_minmax_normalize_w2000", |b| {
        b.iter(|| stats::normalize_moving_minmax(&signal, 2000));
    });

    let stft = Stft::new(StftConfig {
        frame_len: 1024,
        hop: 256,
        ..Default::default()
    })
    .unwrap();
    group.bench_function("stft_1024_hop256", |b| {
        b.iter(|| stft.compute(&signal[..200_000]));
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_signal
}
criterion_main!(benches);
