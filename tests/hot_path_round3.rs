//! Integration tests for the hot-path knob that survived the round-3
//! ablation: adaptive WAL gating. It must change *how* events move
//! through a process, never *what* gets delivered — and a seeded run
//! must stay fully deterministic with the defaults.

use rivulet::core::app::{AppBuilder, CombinedWindows, CombinerSpec, OpCtx, WindowSpec};
use rivulet::core::delivery::Delivery;
use rivulet::core::deploy::{Home, HomeBuilder};
use rivulet::core::probe::AppProbe;
use rivulet::core::RivuletConfig;
use rivulet::devices::sensor::{EmissionSchedule, PayloadSpec};
use rivulet::net::sim::{SimConfig, SimNet};
use rivulet::storage::{FlushPolicy, SimBackend, StorageBackend, WalOptions};
use rivulet::types::{ActuationState, AppId, Duration, EventKind, ProcessId, SensorId, Time};
use std::sync::Arc;

struct Setup {
    net: SimNet,
    home: Home,
    probe: Arc<AppProbe>,
    sensor: SensorId,
    pids: Vec<ProcessId>,
}

fn noop() -> impl Fn(&mut OpCtx, &CombinedWindows) + Send + Sync {
    |_: &mut OpCtx, _: &CombinedWindows| {}
}

/// Three hosts; a scripted door sensor with 512-byte payloads heard by
/// hosts 1 and 2; app anchored at host 0. Blob payloads matter here:
/// they arrive as zero-copy views into network frames, which the event
/// store compacts.
fn scripted_home(script: Vec<Time>, config: RivuletConfig, seed: u64) -> Setup {
    let mut net = SimNet::new(SimConfig::with_seed(seed));
    let mut home = HomeBuilder::new(&mut net).with_config(config);
    let pids: Vec<ProcessId> = ["hub", "tv", "fridge"]
        .iter()
        .map(|n| home.add_host(*n))
        .collect();
    let (sensor, _) = home.add_push_sensor(
        "door",
        PayloadSpec::Blob {
            kind: EventKind::DoorOpen,
            len: 512,
        },
        EmissionSchedule::Script(script),
        &[pids[1], pids[2]],
    );
    let (anchor, _) = home.add_actuator("anchor", ActuationState::Switch(false), &[pids[0]]);
    let app = AppBuilder::new(AppId(1), "trace")
        .operator("sink", CombinerSpec::Any, noop())
        .sensor(sensor, Delivery::Gapless, WindowSpec::count(1))
        .actuator(anchor, Delivery::Gapless)
        .done()
        .build()
        .expect("valid app");
    let probe = home.add_app(app);
    let home = home.build();
    Setup {
        net,
        home,
        probe,
        sensor,
        pids,
    }
}

fn delivered_seqs(probe: &AppProbe) -> Vec<u64> {
    let mut seqs: Vec<u64> = probe
        .deliveries()
        .iter()
        .map(|d| d.event.seq)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    seqs.sort_unstable();
    seqs
}

#[test]
fn seeded_run_with_round3_defaults_is_byte_identical() {
    // Full determinism with the defaults: two same-seed runs must
    // agree on every delivery timestamp and every network counter,
    // not just the delivered set.
    let trace = |seed: u64| {
        let script: Vec<Time> = (1..=15).map(|i| Time::from_millis(600 * i)).collect();
        let mut s = scripted_home(script, RivuletConfig::default(), seed);
        let dev = s.home.sensor_actor(s.sensor);
        let tv = s.home.actor_of(s.pids[1]);
        s.net.topology_mut().set_loss(dev, tv, 0.3);
        s.net.crash_at(tv, Time::from_secs(5));
        s.net.recover_at(tv, Time::from_secs(9));
        s.net.run_until(Time::from_secs(14));
        let deliveries: Vec<(Time, ProcessId, u64)> = s
            .probe
            .deliveries()
            .iter()
            .map(|d| (d.at, d.by, d.event.seq))
            .collect();
        let m = s.net.metrics();
        (deliveries, m.messages_sent, m.wifi_bytes)
    };
    assert_eq!(trace(99), trace(99));
}

/// A durable home (per-process WAL on a simulated disk) for the
/// adaptive-gating twin: the gate only matters when deliveries gate
/// behind WAL appends.
fn durable_run(config: RivuletConfig, seed: u64) -> (Vec<u64>, usize) {
    let mut net = SimNet::new(SimConfig::with_seed(seed));
    let mut home = HomeBuilder::new(&mut net).with_config(config);
    let pids: Vec<ProcessId> = (0..3).map(|i| home.add_host(format!("host{i}"))).collect();
    let backends: Vec<Arc<SimBackend>> = (0..3)
        .map(|i| Arc::new(SimBackend::new(seed.wrapping_mul(31).wrapping_add(i))))
        .collect();
    let mut home = home.with_storage(
        WalOptions {
            flush_policy: FlushPolicy::EveryN(8),
            segment_max_bytes: 64 * 1024,
        },
        Duration::from_secs(5),
        move |pid: ProcessId| {
            Arc::clone(&backends[pid.as_u32() as usize]) as Arc<dyn StorageBackend>
        },
    );
    let (sensor, _) = home.add_push_sensor(
        "motion",
        PayloadSpec::KindOnly(EventKind::Motion),
        EmissionSchedule::Periodic(Duration::from_millis(100)),
        &pids,
    );
    let (anchor, _) = home.add_actuator("anchor", ActuationState::Switch(false), &[pids[0]]);
    let app = AppBuilder::new(AppId(1), "activity")
        .operator("sink", CombinerSpec::Any, noop())
        .sensor(sensor, Delivery::Gapless, WindowSpec::count(1))
        .actuator(anchor, Delivery::Gapless)
        .done()
        .build()
        .expect("valid app");
    let probe = home.add_app(app);
    let _home = home.build();
    net.run_until(Time::from_secs(20));
    (delivered_seqs(&probe), probe.unique_delivered())
}

#[test]
fn adaptive_gating_on_and_off_deliver_identical_sets() {
    let adaptive = durable_run(RivuletConfig::default().with_wal_adaptive_gating(true), 31);
    let fixed = durable_run(RivuletConfig::default().with_wal_adaptive_gating(false), 31);
    assert_eq!(adaptive.0, fixed.0, "delivered event sets must match");
    assert_eq!(adaptive.1, fixed.1);
    assert!(!adaptive.0.is_empty());
}

#[test]
fn defaults_enable_the_round3_optimizations() {
    let config = RivuletConfig::default();
    assert!(config.wal_adaptive_gating);
}
