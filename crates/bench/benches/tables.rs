//! Criterion bench: one benchmark per paper table/figure pipeline.
//!
//! Each benchmark times a scaled-down single cell/row of the
//! corresponding experiment's full pipeline (workload → simulate →
//! capture → profile → score), so regressions anywhere in a table's
//! critical path show up attributed to that table.

use criterion::{criterion_group, criterion_main, Criterion};
use emprof_attrib::SignatureSet;
use emprof_core::accuracy::AccuracyReport;
use emprof_core::{Emprof, EmprofConfig};
use emprof_emsim::{Receiver, ReceiverConfig};
use emprof_signal::stft::StftConfig;
use emprof_sim::{DeviceModel, Interpreter, Simulator};
use emprof_workloads::microbench::MicrobenchConfig;
use emprof_workloads::spec::WorkloadSpec;
use emprof_workloads::{MARKER_MISS_END, MARKER_MISS_START};

fn em_profile_count(device: DeviceModel, tm: u64, cm: u64) -> usize {
    let program = MicrobenchConfig::new(tm, cm).build().unwrap();
    let result = Simulator::new(device.clone()).run(Interpreter::new(&program));
    let capture = Receiver::new(ReceiverConfig::paper_setup(40e6)).capture(&result.power, 1);
    let profile = Emprof::new(EmprofConfig::for_rates(
        capture.sample_rate_hz(),
        device.clock_hz,
    ))
    .profile_capture(
        &capture.magnitude(),
        capture.sample_rate_hz(),
        device.clock_hz,
    );
    let w = result
        .ground_truth
        .marker_window(MARKER_MISS_START, MARKER_MISS_END)
        .unwrap();
    let p = profile.slice_cycles(w.0, w.1);
    p.miss_count() + p.refresh_count()
}

fn bench_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("tables");
    group.sample_size(10);

    // Table II cell: one device x one TM/CM point through the EM path.
    group.bench_function("table02_cell", |b| {
        b.iter(|| em_profile_count(DeviceModel::olimex(), 64, 4));
    });

    // Table III row: simulator-path accuracy scoring of one workload.
    group.bench_function("table03_row", |b| {
        let spec = WorkloadSpec::gzip().scaled(0.01);
        b.iter(|| {
            let device = DeviceModel::sesc_like();
            let result = Simulator::new(device.clone()).run(spec.source());
            let profile = Emprof::new(EmprofConfig::for_rates(
                device.clock_hz / 20.0,
                device.clock_hz,
            ))
            .profile_power_trace(&result.power, 20);
            AccuracyReport::against_ground_truth(&profile, &result.ground_truth, None)
        });
    });

    // Table IV cell: one workload x one device, EM path end to end.
    group.bench_function("table04_cell", |b| {
        let spec = WorkloadSpec::twolf().scaled(0.01);
        b.iter(|| {
            let device = DeviceModel::samsung();
            let result = Simulator::new(device.clone()).run(spec.source());
            let capture =
                Receiver::new(ReceiverConfig::paper_setup(40e6)).capture(&result.power, 1);
            Emprof::new(EmprofConfig::for_rates(
                capture.sample_rate_hz(),
                device.clock_hz,
            ))
            .profile_capture(
                &capture.magnitude(),
                capture.sample_rate_hz(),
                device.clock_hz,
            )
            .miss_count()
        });
    });

    // Table V: signature training + classification of a two-region signal.
    group.bench_function("table05_attribution", |b| {
        let tone = |f: f64, n: usize| -> Vec<f64> {
            (0..n)
                .map(|i| 3.0 + (std::f64::consts::TAU * f * i as f64).sin())
                .collect()
        };
        let mut signal = tone(0.05, 60_000);
        signal.extend(tone(0.15, 60_000));
        let cfg = StftConfig {
            frame_len: 1024,
            hop: 256,
            ..Default::default()
        };
        b.iter(|| {
            let set =
                SignatureSet::train(&signal, &[("a", 0..60_000), ("b", 60_000..120_000)], cfg)
                    .unwrap();
            set.classify(&signal).len()
        });
    });

    // Fig. 12 point: one bandwidth of the sweep.
    group.bench_function("fig12_point", |b| {
        let spec = WorkloadSpec::mcf().scaled(0.01);
        b.iter(|| {
            let device = DeviceModel::alcatel();
            let result = Simulator::new(device.clone()).run(spec.source());
            let capture =
                Receiver::new(ReceiverConfig::paper_setup(20e6)).capture(&result.power, 1);
            Emprof::new(EmprofConfig::for_rates(
                capture.sample_rate_hz(),
                device.clock_hz,
            ))
            .profile_capture(
                &capture.magnitude(),
                capture.sample_rate_hz(),
                device.clock_hz,
            )
            .events()
            .len()
        });
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_tables
}
criterion_main!(benches);
