//! Criterion bench: the extension subsystems — queueing simulation,
//! variation binning and the thermal fixed point.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_queue_sim(c: &mut Criterion) {
    use ntc_qos::{simulate_queue, QueueSimConfig};
    let mut g = c.benchmark_group("queue_sim");
    let cfg = QueueSimConfig::near_zero_contention(1.0);
    g.throughput(Throughput::Elements(u64::from(cfg.requests)));
    g.bench_function("ggk_40k_requests", |b| {
        b.iter(|| black_box(simulate_queue(black_box(cfg)).unwrap()))
    });
    g.finish();
}

fn bench_binning(c: &mut Criterion) {
    use ntc_core::VariationStudy;
    use ntc_tech::{TechnologyKind, Volts};
    let mut g = c.benchmark_group("binning");
    g.sample_size(10);
    let study = VariationStudy::new(TechnologyKind::FdSoi28, 500, 7);
    g.bench_function("bin_500_cores_at_600mv", |b| {
        b.iter(|| black_box(study.bin_at(Volts(0.6))))
    });
    g.finish();
}

fn bench_thermal(c: &mut Criterion) {
    use ntc_tech::{Kelvin, ThermalModel, Watts};
    let mut g = c.benchmark_group("thermal");
    let m = ThermalModel::server_air_cooled();
    g.bench_function("leakage_fixed_point", |b| {
        b.iter(|| {
            black_box(
                m.steady_state(|t: Kelvin| Watts(80.0 + 8.0 * ((t.0 - 303.15) / 25.0).exp2())),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_queue_sim, bench_binning, bench_thermal);
criterion_main!(benches);
