//! Criterion bench: the simulator's hot kernels — cluster cycles under
//! each workload class, the cycle-skip fast path, the batched ladder and
//! the DRAM scheduler under load. The bodies live in
//! [`ntc_bench::kernels`], which `bench-trajectory` times too. These are
//! not paper figures; they guard the harness's own performance.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench_kernels(c: &mut Criterion) {
    for group in ntc_bench::kernels::groups() {
        let mut g = c.benchmark_group(group.name);
        g.sample_size(10);
        if let Some(n) = group.elements {
            g.throughput(Throughput::Elements(n));
        }
        for kernel in &group.kernels {
            g.bench_function(&kernel.name, |b| b.iter(|| kernel.run()));
        }
        g.finish();
    }
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
