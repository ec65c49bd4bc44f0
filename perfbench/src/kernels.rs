//! Layer kernels: the public entry points of each layer, timed on the
//! workload's own event mix.
//!
//! Each kernel runs a fixed batch several times on fresh state and
//! reports the median nanoseconds per operation, so one slow batch
//! (a page fault, a preempted core) does not move the figure.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rivulet_core::app::{AppRuntime, AppSpec};
use rivulet_core::messages::ProcMsg;
use rivulet_core::store::EventStore;
use rivulet_obs::Recorder;
use rivulet_storage::{
    FlushPolicy, LedgerChain, RoutineTransition, SimBackend, StorageBackend, Wal, WalOptions,
};
use rivulet_types::wire::Wire;
use rivulet_types::{
    ActuatorId, CommandId, Event, EventId, OperatorId, ProcessId, RoutineId, SensorId, Time,
};

use crate::stats::{median, sub_seed, SplitMix};

/// Events per batch.
const BATCH: usize = 4_096;
/// Batches per kernel.
const REPEATS: usize = 7;
/// Events per WAL group commit, as the durable workloads configure it.
const GROUP: usize = 8;

/// Draws a batch of events from `mix` (template event, relative
/// weight) in proportion to the weights, with per-sensor sequence
/// numbers and emission times that advance like a live stream.
#[must_use]
pub fn batch(mix: &[(Event, u64)], seed: u64) -> Vec<Event> {
    let total: u64 = mix.iter().map(|(_, w)| w).sum();
    let mut rng = SplitMix::new(sub_seed(seed, 300));
    let mut seqs = vec![0u64; mix.len()];
    (0..BATCH)
        .map(|i| {
            let mut pick = rng.next_u64() % total;
            let k = mix
                .iter()
                .position(|(_, w)| {
                    let hit = pick < *w;
                    pick = pick.saturating_sub(*w);
                    hit
                })
                .expect("weights cover the draw");
            let mut e = mix[k].0.clone();
            e.id = EventId::new(e.id.sensor, seqs[k]);
            seqs[k] += 1;
            e.emitted_at = Time::from_micros(i as u64 * 3_000);
            e
        })
        .collect()
}

/// Median over [`REPEATS`] runs of `f`'s nanoseconds per operation;
/// `f` builds fresh state, then times its own hot loop and returns
/// `(elapsed, operations)`.
fn per_op(mut f: impl FnMut() -> (std::time::Duration, usize)) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (elapsed, ops) = f();
            elapsed.as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

fn ring_msg(event: &Event) -> ProcMsg {
    ProcMsg::Ring {
        event: event.clone(),
        seen: vec![ProcessId(1)],
        need: (0..5).map(ProcessId).collect(),
    }
}

/// Runs every kernel on `events`; returns `(metric name, ns/op)`.
#[must_use]
pub fn run(app: &Arc<AppSpec>, events: &[Event], seed: u64) -> Vec<(&'static str, f64)> {
    let msgs: Vec<ProcMsg> = events.iter().map(ring_msg).collect();
    let encode_ns = per_op(|| {
        let t = Instant::now();
        for m in &msgs {
            black_box(m.to_bytes());
        }
        (t.elapsed(), msgs.len())
    });
    let frames: Vec<bytes::Bytes> = msgs.iter().map(Wire::to_bytes).collect();
    let decode_ns = per_op(|| {
        let t = Instant::now();
        for f in &frames {
            black_box(ProcMsg::from_shared_bytes(f).expect("own encoding decodes"));
        }
        (t.elapsed(), frames.len())
    });

    // The store as a process builds it: default capacity and shards,
    // payload arena on.
    let new_store = || {
        let mut s = EventStore::with_shards(100_000, 8);
        s.enable_arena();
        s
    };
    let insert_ns = per_op(|| {
        let mut store = new_store();
        let batch = events.to_vec();
        let t = Instant::now();
        for e in batch {
            black_box(store.insert(e));
        }
        (t.elapsed(), events.len())
    });
    let mut sensors: Vec<(SensorId, u64)> = Vec::new();
    for e in events {
        match sensors.iter_mut().find(|(s, _)| *s == e.id.sensor) {
            Some((_, hi)) => *hi = (*hi).max(e.id.seq),
            None => sensors.push((e.id.sensor, e.id.seq)),
        }
    }
    let prune_ns = per_op(|| {
        let mut store = new_store();
        for e in events {
            store.insert(e.clone());
        }
        let t = Instant::now();
        let pruned: usize = sensors
            .iter()
            .map(|(s, hi)| store.prune_through(*s, *hi))
            .sum();
        (t.elapsed(), pruned)
    });

    let on_event_ns = per_op(|| {
        let mut rt = AppRuntime::new(Arc::clone(app)).expect("valid app");
        let t = Instant::now();
        for e in events {
            black_box(rt.on_event(e.emitted_at, e));
        }
        (t.elapsed(), events.len())
    });

    // WAL over the simulated disk: appends buffer, every GROUP-th
    // call flushes (append + fsync), as group commit does.
    let options = WalOptions {
        flush_policy: FlushPolicy::EveryInterval(rivulet_types::Duration::from_secs(1)),
        segment_max_bytes: 256 * 1024,
    };
    let open = || {
        let disk = Arc::new(SimBackend::new(sub_seed(seed, 301))) as Arc<dyn StorageBackend>;
        Wal::open(disk, options).expect("fresh wal opens").0
    };
    let mut flush_samples = Vec::new();
    let append_ns = per_op(|| {
        let mut wal = open();
        let mut appending = std::time::Duration::ZERO;
        let mut flushing = std::time::Duration::ZERO;
        for chunk in events.chunks(GROUP) {
            let t = Instant::now();
            for e in chunk {
                black_box(wal.append_event(e).expect("sim disk append"));
            }
            appending += t.elapsed();
            let t = Instant::now();
            wal.flush().expect("sim disk flush");
            flushing += t.elapsed();
        }
        flush_samples.push(flushing.as_nanos() as f64 / events.len().div_ceil(GROUP) as f64);
        (appending, events.len())
    });
    let flush_ns = median(&flush_samples);

    let ledger_ns = per_op(|| {
        let mut wal = open();
        let mut chain = LedgerChain::seeded(seed);
        let n = BATCH / 8;
        let t = Instant::now();
        for i in 0..n as u64 {
            let cmd = |a: u32| {
                (
                    ActuatorId(a),
                    CommandId::new(ProcessId(0), OperatorId(0), 2 * i + u64::from(a)),
                )
            };
            let entry = chain.append(
                RoutineId(1),
                i,
                RoutineTransition::Staged,
                Time::from_micros(i),
                vec![cmd(1), cmd(2)],
            );
            wal.append_ledger(&entry).expect("sim disk ledger append");
        }
        (t.elapsed(), n)
    });

    // An enabled recorder, driven the way the process drives it per
    // delivered event: one counter bump, one add, one histogram sample.
    let recorder_ns = per_op(|| {
        let obs = Recorder::enabled();
        let t = Instant::now();
        for e in events {
            obs.inc("app.deliveries");
            obs.add("wal.appends", 1);
            obs.observe("app.delay_us", e.emitted_at.as_micros() & 0xffff);
        }
        black_box(obs.snapshot());
        (t.elapsed(), events.len() * 3)
    });

    vec![
        ("types.wire.encode_ns", encode_ns),
        ("types.wire.decode_ns", decode_ns),
        ("core.store.insert_ns", insert_ns),
        ("core.store.prune_ns", prune_ns),
        ("core.app.on_event_ns", on_event_ns),
        ("storage.wal.append_ns", append_ns),
        ("storage.wal.flush_ns", flush_ns),
        ("storage.ledger.append_ns", ledger_ns),
        ("obs.recorder.op_ns", recorder_ns),
    ]
}

/// Recovery of a log holding `events` (written with group commit):
/// median `(wall ms, bytes read)` of reopening it. The stand-in for
/// `storage.recovery_*` on workloads without durable storage.
#[must_use]
pub fn recovery(events: &[Event], seed: u64) -> (f64, u64) {
    let disk = Arc::new(SimBackend::new(sub_seed(seed, 302)));
    let options = WalOptions {
        flush_policy: FlushPolicy::EveryN(GROUP),
        segment_max_bytes: 256 * 1024,
    };
    let mut wal = Wal::open(Arc::clone(&disk) as Arc<dyn StorageBackend>, options)
        .expect("fresh wal opens")
        .0;
    for e in events {
        wal.append_event(e).expect("sim disk append");
    }
    wal.flush().expect("sim disk flush");
    let mut bytes = 0;
    let ms: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (ms, read, _) = crate::home::reopen(&disk).expect("log reopens");
            bytes = read;
            ms
        })
        .collect();
    (median(&ms), bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rivulet_types::{EventKind, Payload};

    #[test]
    fn batch_follows_the_mix_with_fresh_sequence_numbers() {
        let e = |s: u32, kind| Event::new(EventId::new(SensorId(s), 0), kind, Time::ZERO);
        let mix = vec![
            (e(0, EventKind::DoorOpen), 1),
            (
                Event::with_payload(
                    EventId::new(SensorId(1), 0),
                    EventKind::Reading,
                    Payload::Scalar(1.0),
                    Time::ZERO,
                ),
                9,
            ),
        ];
        let b = batch(&mix, 3);
        assert_eq!(b.len(), BATCH);
        let doors = b.iter().filter(|e| e.id.sensor == SensorId(0)).count();
        assert!((BATCH / 20..BATCH / 5).contains(&doors), "doors {doors}");
        let readings: Vec<u64> = b
            .iter()
            .filter(|e| e.id.sensor == SensorId(1))
            .map(|e| e.id.seq)
            .collect();
        assert!(readings.iter().enumerate().all(|(i, s)| *s == i as u64));
        assert_eq!(b, batch(&mix, 3), "pure in the seed");
    }
}
