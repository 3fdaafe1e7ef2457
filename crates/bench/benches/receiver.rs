//! Criterion bench: EM-synthesis receiver-chain throughput.
//!
//! The capture chain (band-limit, resample, drift, noise) processes one
//! sample per simulated cycle; its throughput bounds how much execution
//! the synthetic rig can capture per second of wall clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use emprof_emsim::{Receiver, ReceiverConfig};
use emprof_sim::PowerTrace;

fn bench_receiver(c: &mut Criterion) {
    let mut group = c.benchmark_group("receiver");
    group.sample_size(15);
    let cycles = 2_000_000usize;
    let samples: Vec<f32> = (0..cycles).map(|i| 3.0 + ((i % 23) as f32) * 0.1).collect();
    let trace = PowerTrace::from_samples(samples, 1.0e9);
    group.throughput(Throughput::Elements(cycles as u64));
    for bw in [20e6, 40e6, 160e6] {
        let rx = Receiver::new(ReceiverConfig::paper_setup(bw));
        group.bench_with_input(
            BenchmarkId::new("capture", format!("{}MHz", bw / 1e6)),
            &trace,
            |b, t| {
                b.iter(|| rx.capture(t, 1));
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_receiver
}
criterion_main!(benches);
