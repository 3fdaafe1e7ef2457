//! Criterion bench: EMPROF detector throughput.
//!
//! The paper's workflow profiles captures of seconds of execution
//! (hundreds of millions of samples), so the detector's per-sample cost —
//! normalization plus dip extraction — is what bounds offline analysis
//! turnaround.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use emprof_core::{Emprof, EmprofConfig};

/// A busy signal with one stall dip per thousand samples.
fn synthetic_magnitude(len: usize) -> Vec<f64> {
    let mut s: Vec<f64> = (0..len)
        .map(|i| 5.0 + 0.2 * ((i % 97) as f64 / 97.0 - 0.5))
        .collect();
    let mut i = 500;
    while i + 12 < len {
        for v in s.iter_mut().skip(i).take(12) {
            *v = 0.9;
        }
        i += 1000;
    }
    s
}

fn bench_detector(c: &mut Criterion) {
    let mut group = c.benchmark_group("emprof_detector");
    for &len in &[100_000usize, 1_000_000] {
        let signal = synthetic_magnitude(len);
        let emprof = Emprof::new(EmprofConfig::for_rates(40e6, 1.0e9));
        group.throughput(Throughput::Elements(len as u64));
        group.bench_with_input(
            BenchmarkId::new("profile_magnitude", len),
            &signal,
            |b, s| {
                b.iter(|| emprof.profile_magnitude(s, 40e6, 1.0e9));
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_detector
}
criterion_main!(benches);
