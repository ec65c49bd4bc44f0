//! Micro-benchmark of the per-process [`EventStore`] hot paths —
//! insert, watermark collection, anti-entropy diffing, and retirement
//! pruning — on a home-sized workload (64 sensors × 64 events).
//!
//! CI runs this in smoke mode (`cargo bench --bench micro_store --
//! --test`) so the loops stay wired without paying full sample counts.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rivulet_core::store::EventStore;
use rivulet_types::{Event, EventId, EventKind, SensorId, Time};
use std::hint::black_box;

const SENSORS: u32 = 64;
const EVENTS_PER_SENSOR: u64 = 64;
const CAP_PER_SENSOR: usize = 128;

fn ev(sensor: u32, seq: u64) -> Event {
    Event::new(
        EventId::new(SensorId(sensor), seq),
        EventKind::Motion,
        Time::from_millis(seq),
    )
}

/// A store pre-filled with `EVENTS_PER_SENSOR` events on each of
/// `SENSORS` sensors, interleaved the way ring traffic arrives
/// (round-robin across sensors, ascending sequence).
fn filled() -> EventStore {
    let mut store = EventStore::new(CAP_PER_SENSOR);
    for seq in 0..EVENTS_PER_SENSOR {
        for sensor in 0..SENSORS {
            store.insert(black_box(ev(sensor, seq)));
        }
    }
    store
}

fn bench_insert(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_insert");
    g.throughput(Throughput::Elements(u64::from(SENSORS) * EVENTS_PER_SENSOR));
    g.bench_function("store", |b| b.iter(|| black_box(filled().len())));
    g.finish();
}

fn bench_watermarks(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_watermarks");
    g.throughput(Throughput::Elements(u64::from(SENSORS)));
    let store = filled();
    g.bench_function("store", |b| b.iter(|| black_box(store.watermarks())));
    g.finish();
}

fn bench_diff(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_diff_for");
    g.throughput(Throughput::Elements(u64::from(SENSORS)));
    let store = filled();
    // A peer that is halfway behind on every sensor: the diff has to
    // materialize EVENTS_PER_SENSOR / 2 events per sensor.
    let peer: Vec<(SensorId, u64)> = (0..SENSORS)
        .map(|s| (SensorId(s), EVENTS_PER_SENSOR / 2))
        .collect();
    g.bench_function("store", |b| b.iter(|| black_box(store.diff_for(&peer))));
    g.finish();
}

fn bench_retirement(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_prune_through");
    g.throughput(Throughput::Elements(u64::from(SENSORS)));
    // The vendored criterion has no `iter_batched`, so the fill is
    // measured alongside the prune.
    g.bench_function("store", |b| {
        b.iter(|| {
            let mut store = filled();
            let mut pruned = 0;
            for sensor in 0..SENSORS {
                pruned += store.prune_through(SensorId(sensor), EVENTS_PER_SENSOR / 2);
            }
            black_box(pruned)
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_insert,
    bench_watermarks,
    bench_diff,
    bench_retirement
);
criterion_main!(benches);
