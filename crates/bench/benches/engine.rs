//! Criterion microbenchmarks for the channel engine: raw slot throughput
//! under varying population sizes and with tracing/jamming enabled.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dcr_baselines::FixedProbability;
use dcr_core::uniform::Uniform;
use dcr_sim::engine::{Engine, EngineConfig};
use dcr_sim::jamming::{JamPolicy, Jammer};
use dcr_sim::job::JobSpec;

const SLOTS: u64 = 10_000;

fn run(n: u32, config: EngineConfig, jam: bool) -> u64 {
    let mut e = Engine::new(config, 42);
    if jam {
        e.set_jammer(Jammer::new(JamPolicy::AllSuccesses, 0.3));
    }
    for i in 0..n {
        e.add_job(
            JobSpec::new(i, 0, SLOTS),
            Box::new(FixedProbability::new(1.0 / f64::from(n))),
        );
    }
    e.run().slots_run
}

fn bench_slot_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/slots");
    group.throughput(Throughput::Elements(SLOTS));
    for n in [10u32, 100, 1000] {
        group.bench_with_input(BenchmarkId::new("stations", n), &n, |b, &n| {
            b.iter(|| run(n, EngineConfig::default(), false));
        });
    }
    group.finish();
}

fn bench_trace_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/trace");
    group.throughput(Throughput::Elements(SLOTS));
    group.bench_function("off", |b| {
        b.iter(|| run(100, EngineConfig::default(), false))
    });
    group.bench_function("on", |b| {
        b.iter(|| run(100, EngineConfig::default().with_trace(), false))
    });
    group.finish();
}

fn bench_jammer_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/jammer");
    group.throughput(Throughput::Elements(SLOTS));
    group.bench_function("off", |b| {
        b.iter(|| run(100, EngineConfig::default(), false))
    });
    group.bench_function("on", |b| b.iter(|| run(100, EngineConfig::default(), true)));
    group.finish();
}

/// Event-driven parking vs dense polling on a parkable workload: UNIFORM
/// jobs sleep in all but their one chosen slot, so wake hints collapse the
/// window.
fn bench_scheduling(c: &mut Criterion) {
    let n = 100u32;
    let window = 1u64 << 14;
    let run_uniform = |config: EngineConfig| {
        let mut e = Engine::new(config, 42);
        for i in 0..n {
            e.add_job(JobSpec::new(i, 0, window), Box::new(Uniform::single()));
        }
        e.run().slots_run
    };
    let mut group = c.benchmark_group("engine/scheduling");
    group.throughput(Throughput::Elements(window));
    group.bench_function("dense", |b| {
        b.iter(|| run_uniform(EngineConfig::default().dense()))
    });
    group.bench_function("event", |b| b.iter(|| run_uniform(EngineConfig::default())));
    group.finish();
}

/// Trial-arena reuse: per-trial engine construction through the
/// thread-local pool (`Engine::new` after a previous engine's drop) vs
/// allocating everything fresh (`Engine::fresh`) vs explicit `reset` of one
/// long-lived engine. The three produce identical reports; the spread is
/// pure allocator traffic.
fn bench_trial_reuse(c: &mut Criterion) {
    let n = 200u32;
    let window = 512u64;
    let populate = |e: &mut Engine, seed: u64| {
        for i in 0..n {
            e.add_job(
                JobSpec::new(i, 0, window),
                Box::new(FixedProbability::new(2.0 / f64::from(n))),
            );
        }
        let _ = seed;
    };
    let mut group = c.benchmark_group("engine/trial_reuse");
    group.throughput(Throughput::Elements(window));
    group.bench_function("fresh", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut e = Engine::fresh(EngineConfig::default(), seed);
            populate(&mut e, seed);
            e.run().slots_run
        })
    });
    group.bench_function("pooled", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            // Dropping the previous iteration's engine stocked the
            // thread-local arena; this construction drains it.
            let mut e = Engine::new(EngineConfig::default(), seed);
            populate(&mut e, seed);
            e.run().slots_run
        })
    });
    group.bench_function("reset", |b| {
        let mut seed = 0u64;
        let mut e = Engine::new(EngineConfig::default(), 0);
        b.iter(|| {
            seed += 1;
            e.reset(seed);
            populate(&mut e, seed);
            e.run().slots_run
        })
    });
    group.finish();
}

/// Vectorized slot kernel vs the exact per-job dispatch loop, on the
/// population the kernel owns: a one-shot UNIFORM batch (the transmission
/// calendar). Both fidelities produce bit-identical reports (DESIGN.md
/// §3f); the spread is pure dispatch cost.
fn bench_kernel(c: &mut Criterion) {
    let window = 1u64 << 12;
    let run_oneshot = |n: u32, config: EngineConfig| {
        let mut e = Engine::new(config, 42);
        for i in 0..n {
            e.add_job(JobSpec::new(i, 0, window), Box::new(Uniform::single()));
        }
        e.run().slots_run
    };
    let mut group = c.benchmark_group("engine/kernel");
    group.throughput(Throughput::Elements(window));
    for n in [1_000u32, 10_000] {
        group.bench_with_input(BenchmarkId::new("oneshot/exact", n), &n, |b, &n| {
            b.iter(|| run_oneshot(n, EngineConfig::default()));
        });
        group.bench_with_input(BenchmarkId::new("oneshot/vectorized", n), &n, |b, &n| {
            b.iter(|| run_oneshot(n, EngineConfig::default().vectorized()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_slot_throughput,
    bench_trace_overhead,
    bench_jammer_overhead,
    bench_scheduling,
    bench_trial_reuse,
    bench_kernel
);
criterion_main!(benches);
