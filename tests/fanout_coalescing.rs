//! Integration tests for encode-once fan-out, frame coalescing, and
//! cumulative acks: the optimizations must change *how many* network
//! messages carry the protocol, never *what* gets delivered — and a
//! seeded run must stay fully deterministic with them enabled.

use rivulet::core::app::{AppBuilder, CombinedWindows, CombinerSpec, OpCtx, WindowSpec};
use rivulet::core::config::{AckMode, ForwardingMode};
use rivulet::core::delivery::Delivery;
use rivulet::core::deploy::{Home, HomeBuilder};
use rivulet::core::probe::AppProbe;
use rivulet::core::RivuletConfig;
use rivulet::devices::sensor::{EmissionSchedule, PayloadSpec};
use rivulet::net::sim::{SimConfig, SimNet};
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

/// Three hosts; a scripted door sensor heard by hosts 1 and 2; app
/// anchored at host 0 (same shape as the delivery-semantics tests).
fn scripted_home(script: Vec<Time>, config: RivuletConfig, seed: u64) -> Setup {
    let mut net = SimNet::new(SimConfig::with_seed(seed));
    let mut home = HomeBuilder::new(&mut net).with_config(config);
    let pids: Vec<ProcessId> = ["hub", "tv", "fridge"]
        .iter()
        .map(|n| home.add_host(*n))
        .collect();
    let (sensor, _) = home.add_push_sensor(
        "door",
        PayloadSpec::KindOnly(EventKind::DoorOpen),
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

/// A faulty run: one receiver link drops an event, and the tv process
/// crashes and recovers mid-stream, exercising ring forwarding,
/// anti-entropy sync, and retransmission alongside steady-state
/// keep-alive traffic.
fn faulty_run(config: RivuletConfig, seed: u64) -> (Vec<u64>, usize, u64, u64) {
    // Returns (delivered seqs, unique delivered, messages sent, frames coalesced).
    let script: Vec<Time> = (1..=25).map(|i| Time::from_millis(400 * i)).collect();
    let mut s = scripted_home(script, config, seed);
    let dev = s.home.sensor_actor(s.sensor);
    let tv = s.home.actor_of(s.pids[1]);
    s.net
        .set_blocked_at(Time::from_millis(1_900), dev, tv, true);
    s.net
        .set_blocked_at(Time::from_millis(2_100), dev, tv, false);
    s.net.crash_at(tv, Time::from_secs(4));
    s.net.recover_at(tv, Time::from_secs(8));
    s.net.run_until(Time::from_secs(16));
    (
        delivered_seqs(&s.probe),
        s.probe.unique_delivered(),
        s.net.metrics().messages_sent,
        s.net.metrics().fanout.snapshot().frames_coalesced,
    )
}

#[test]
fn coalescing_on_and_off_deliver_identical_semantics() {
    // Coalescing changes message sizes (and therefore arrival micros),
    // so the comparison is semantic: the set of delivered events must
    // be identical; only the message count may shrink.
    let on = faulty_run(RivuletConfig::default().with_coalescing(true), 11);
    let off = faulty_run(RivuletConfig::default().with_coalescing(false), 11);
    assert_eq!(on.0, off.0, "delivered event sets must match");
    assert_eq!(on.1, off.1);
    assert!(
        on.3 > 0 && off.3 == 0,
        "coalescing on emitted {} frames, off {}",
        on.3,
        off.3
    );
    assert!(
        on.2 < off.2,
        "coalescing should reduce messages: on {} vs off {}",
        on.2,
        off.2
    );
}

#[test]
fn cumulative_and_per_event_acks_deliver_identical_semantics() {
    let cumulative = faulty_run(
        RivuletConfig::default().with_ack_mode(AckMode::Cumulative),
        13,
    );
    let per_event = faulty_run(
        RivuletConfig::default().with_ack_mode(AckMode::PerEvent),
        13,
    );
    assert_eq!(cumulative.0, per_event.0, "delivered event sets must match");
    assert_eq!(cumulative.1, per_event.1);
}

#[test]
fn seeded_run_with_coalescing_is_byte_identical() {
    // Full determinism with the optimizations enabled (the defaults):
    // two same-seed runs must agree on every delivery timestamp and
    // every counter, not just the delivered set.
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
        (
            deliveries,
            m.messages_sent,
            m.wifi_bytes,
            m.fanout.snapshot(),
        )
    };
    assert_eq!(trace(99), trace(99));
}

#[test]
fn defaults_enable_the_optimizations() {
    let config = RivuletConfig::default();
    assert!(config.coalescing);
    assert_eq!(config.ack_mode, AckMode::Cumulative);
}

#[test]
fn flood_retransmits_at_the_keepalive_interval() {
    // Reliable-broadcast floods retransmit at the keep-alive pace. Two
    // hosts, eager-broadcast forwarding, a blob sensor heard by the hub
    // only: once the hub↔tv link is cut, the hub's flood of the next
    // event can never be acknowledged, so until the failure timeout
    // writes tv off, every re-send shows up as a blob-sized jump in the
    // hub's sent bytes.
    const BLOB: usize = 4096;
    let keepalive = Duration::from_millis(250);
    let config = RivuletConfig::default()
        .with_keepalive_interval(keepalive)
        .with_forwarding(ForwardingMode::EagerBroadcast);
    let cut = Time::from_secs(5);
    let mut net = SimNet::new(SimConfig::with_seed(7));
    let mut home = HomeBuilder::new(&mut net).with_config(config.clone());
    let pids: Vec<ProcessId> = ["hub", "tv"].iter().map(|n| home.add_host(*n)).collect();
    let (sensor, _) = home.add_push_sensor(
        "camera",
        PayloadSpec::Blob {
            kind: EventKind::Reading,
            len: BLOB,
        },
        EmissionSchedule::Script(vec![cut + Duration::from_millis(100)]),
        &[pids[0]],
    );
    let (anchor, _) = home.add_actuator("anchor", ActuationState::Switch(false), &[pids[0]]);
    let app = AppBuilder::new(AppId(1), "flood")
        .operator("sink", CombinerSpec::Any, noop())
        .sensor(sensor, Delivery::Gapless, WindowSpec::count(1))
        .actuator(anchor, Delivery::Gapless)
        .done()
        .build()
        .expect("valid app");
    let _probe = home.add_app(app);
    let home = home.build();
    let hub = home.actor_of(pids[0]);
    let tv = home.actor_of(pids[1]);
    net.set_blocked_at(cut, hub, tv, true);
    net.set_blocked_at(cut, tv, hub, true);

    let hub_bytes = |net: &SimNet| {
        net.metrics()
            .bytes_by_sender
            .get(&hub)
            .copied()
            .unwrap_or(0)
    };
    net.run_until(cut);
    let mut last = hub_bytes(&net);
    let mut sends: Vec<Time> = Vec::new();
    let mut t = cut;
    while t < cut + config.failure_timeout {
        t += Duration::from_millis(1);
        net.run_until(t);
        let now = hub_bytes(&net);
        if now - last >= BLOB as u64 {
            sends.push(t);
        }
        last = now;
    }
    // The first send is the flood itself; the rest are re-sends.
    assert!(sends.len() >= 4, "flood plus re-sends, got {sends:?}");
    for pair in sends[1..].windows(2) {
        assert_eq!(
            pair[1] - pair[0],
            keepalive,
            "re-sends follow the keep-alive interval: {sends:?}"
        );
    }
}
