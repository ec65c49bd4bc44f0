//! The `fleet_sweep` workload: many short homes from a
//! benchmark-owned manifest, run through `rivulet_fleet::run_fleet` on
//! one worker thread.
//!
//! `run_fleet` builds each home's `SimNet` itself, so the traced run
//! cannot wrap its driver. It instead runs every home of the same
//! manifest through [`run_scenario`], a copy of
//! `rivulet_bench::common::run_delivery` that deploys on any
//! [`Driver`]; a test pins it to the original byte for byte.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use rivulet_bench::common::{payload_of, DeliveryScenario};
use rivulet_core::app::{AppBuilder, AppSpec, CombinedWindows, CombinerSpec, OpCtx, WindowSpec};
use rivulet_core::deploy::{Driver, Home, HomeBuilder};
use rivulet_core::probe::AppProbe;
use rivulet_core::RivuletConfig;
use rivulet_devices::actuator::ActuatorProbe;
use rivulet_devices::fault::{FaultPlan, FaultSpec};
use rivulet_devices::sensor::{EmissionSchedule, PayloadSpec};
use rivulet_fleet::executor::{run_fleet, FleetOutcome};
use rivulet_fleet::manifest::{FleetManifest, HomeSpec};
use rivulet_net::sim::{SimConfig, SimNet};
use rivulet_storage::{SimBackend, StorageBackend, WalOptions};
use rivulet_types::{
    ActuationState, ActuatorId, AppId, CommandKind, Duration, Event, EventId, EventKind, Payload,
    ProcessId, RoutineId, SensorId, Time,
};

use crate::trace;
use crate::wrap::{BackendCounts, TracedBackend, TracingDriver};

/// The sweep: processes {3,5} × durable {off,on} × crash {none, mid}
/// × loss {0, 0.1} × event bytes {8, 1024} × routines {off,on}, two
/// homes per configuration, each 6 virtual seconds at 20 events/s.
fn manifest_text(seed: u64) -> String {
    format!(
        r#"[fleet]
name = "perfbench-sweep"
seed = {seed}
homes_per_config = 2

[base]
receivers = 2
rate_per_sec = 20
duration_secs = 6.0
failure_timeout_secs = 1.0
delivery = "gapless"

[axes]
processes = [3, 5]
durable = [false, true]
crash_at_secs = [-1.0, 2.5]
loss = [0.0, 0.1]
event_bytes = [8, 1024]
routines = [false, true]
"#
    )
}

/// Parses and expands the sweep for `seed`: the workload's set-up.
///
/// # Panics
///
/// Panics if the benchmark's own manifest fails to parse.
#[must_use]
pub fn manifest(seed: u64) -> (FleetManifest, Vec<HomeSpec>) {
    let m = FleetManifest::from_text(&manifest_text(seed)).expect("benchmark manifest parses");
    let specs = m.expand().expect("benchmark manifest expands");
    (m, specs)
}

/// The sweep's app and event mix, for the layer kernels: the fleet
/// homes' measurement app over their two event sizes, in equal parts.
#[must_use]
pub fn kernel_inputs() -> (AppSpec, Vec<(Event, u64)>) {
    let sensor = SensorId(0);
    let app = AppBuilder::new(AppId(1), "measurement")
        .operator(
            "sink",
            CombinerSpec::Any,
            |ctx: &mut OpCtx, w: &CombinedWindows| {
                if w.all_events().any(|e| e.id.seq % 10 == 9) {
                    ctx.run_routine(RoutineId(1));
                }
            },
        )
        .sensor(
            sensor,
            rivulet_core::Delivery::Gapless,
            WindowSpec::count(1),
        )
        .actuator(ActuatorId(0), rivulet_core::Delivery::Gapless)
        .done()
        .build()
        .expect("valid app");
    let mix = [8, 1024]
        .into_iter()
        .map(|bytes| {
            let e = Event::new(EventId::new(sensor, 0), EventKind::Image, Time::ZERO);
            let payload = match payload_of(bytes) {
                PayloadSpec::Blob { len, .. } => Payload::zeros(len),
                _ => Payload::Scalar(21.0),
            };
            (Event { payload, ..e }, 1)
        })
        .collect();
    (app, mix)
}

/// One untraced fleet run.
#[derive(Debug)]
pub struct FleetRun {
    /// Manifest parse + expansion wall time.
    pub setup: std::time::Duration,
    /// `run_fleet` wall time.
    pub timed: std::time::Duration,
    /// The fleet's outcome.
    pub outcome: FleetOutcome,
}

/// Runs the sweep for `seed` on one worker thread.
#[must_use]
pub fn run(seed: u64) -> FleetRun {
    let started = Instant::now();
    let (m, _) = manifest(seed);
    let setup = started.elapsed();
    let timer = Instant::now();
    let outcome = run_fleet(&m, 1);
    FleetRun {
        setup,
        timed: timer.elapsed(),
        outcome,
    }
}

/// What the benchmark reads off one [`run_scenario`] home.
#[derive(Debug)]
pub struct ScenarioRun {
    /// The driver and everything the home recorded.
    pub net: SimNet,
    /// Events `run_until` dispatched.
    pub dispatches: u64,
    /// The anchor actuator's probe.
    pub anchor: Arc<ActuatorProbe>,
    /// Each process's disk, when durable.
    pub disks: Vec<Arc<SimBackend>>,
    /// The app probe.
    pub app: Arc<AppProbe>,
}

/// Runs one fleet home exactly as `run_delivery` does, on a plain
/// driver or (with `traced`) a [`TracingDriver`] whose disks report
/// into `counts`.
///
/// # Panics
///
/// Panics on a malformed scenario (no processes, receiver out of range).
#[must_use]
pub fn run_scenario(
    cfg: &DeliveryScenario,
    traced: bool,
    counts: &Arc<BackendCounts>,
) -> ScenarioRun {
    assert!(cfg.n_processes > 0, "need at least one process");
    let mut net = SimNet::new(SimConfig::with_seed(cfg.seed));
    net.recorder().set_enabled(cfg.obs);
    let disks: Arc<Mutex<Vec<Arc<SimBackend>>>> = Arc::default();
    let built = if traced {
        deploy(&mut TracingDriver::new(&mut net), cfg, &disks, Some(counts))
    } else {
        deploy(&mut net, cfg, &disks, None)
    };
    let (home, sensor, app, anchor, pids) = built;
    if cfg.loss > 0.0 {
        let sensor_actor = home.sensor_actor(sensor);
        for r in &cfg.receivers {
            net.topology_mut()
                .set_loss(sensor_actor, home.actor_of(pids[*r]), cfg.loss);
        }
    }
    if let Some(at) = cfg.crash_app_at {
        net.crash_at(home.actor_of(pids[0]), at);
    }
    let end = Time::ZERO + cfg.duration;
    let mut dispatches = 0;
    let mut stop = Time::ZERO;
    while stop < end {
        stop = (stop + Duration::from_secs(1)).min(end);
        dispatches += trace::span("net.sim", || net.run_until(stop));
    }
    let disks = disks.lock().expect("disk list lock").clone();
    ScenarioRun {
        net,
        dispatches,
        anchor,
        disks,
        app,
    }
}

type Deployed = (
    Home,
    SensorId,
    Arc<AppProbe>,
    Arc<ActuatorProbe>,
    Vec<ProcessId>,
);

/// The deployment half of `run_delivery_with_probes`, line for line.
fn deploy<D: Driver>(
    driver: &mut D,
    cfg: &DeliveryScenario,
    disks: &Arc<Mutex<Vec<Arc<SimBackend>>>>,
    counts: Option<&Arc<BackendCounts>>,
) -> Deployed {
    let mut config = RivuletConfig::default()
        .with_failure_timeout(cfg.failure_timeout)
        .with_forwarding(cfg.forwarding)
        .with_coalescing(cfg.coalescing)
        .with_ack_mode(cfg.ack_mode)
        .with_exec_ring(cfg.exec_ring)
        .with_payload_arena(cfg.payload_arena)
        .with_wal_adaptive_gating(cfg.wal_adaptive)
        .with_repair(cfg.repair);
    if cfg.routines {
        config = config
            .with_routines(true)
            .with_routine_ledger_seed(cfg.seed);
    }
    let mut home = HomeBuilder::new(driver).with_config(config);
    if let Some(kind) = cfg.fault_kind {
        if cfg.fault_rate > 0.0 {
            home = home.with_faults(
                FaultPlan::new(cfg.seed).sensor(SensorId(0), FaultSpec::new(kind, cfg.fault_rate)),
            );
        }
    }
    if cfg.durable {
        let seed = cfg.seed;
        let disks = Arc::clone(disks);
        let counts = counts.cloned();
        home = home.with_storage(WalOptions::default(), Duration::from_secs(10), move |pid| {
            let disk = Arc::new(SimBackend::new(seed ^ u64::from(pid.0)));
            disks
                .lock()
                .expect("disk list lock")
                .push(Arc::clone(&disk));
            let disk = disk as Arc<dyn StorageBackend>;
            match &counts {
                Some(c) => Arc::new(TracedBackend::new(disk, Arc::clone(c))),
                None => disk,
            }
        });
    }
    let pids: Vec<ProcessId> = (0..cfg.n_processes)
        .map(|i| home.add_host(format!("host{i}")))
        .collect();
    let receivers: Vec<ProcessId> = cfg.receivers.iter().map(|r| pids[*r]).collect();
    let period = Duration::from_micros(1_000_000 / cfg.rate_per_sec.max(1));
    let (sensor, _) = home.add_push_sensor(
        "software-sensor",
        payload_of(cfg.event_bytes),
        EmissionSchedule::Periodic(period),
        &receivers,
    );
    let (anchor, anchor_probe) =
        home.add_actuator("app-anchor", ActuationState::Switch(false), &[pids[0]]);
    if cfg.routines {
        let _ = home.add_routine(
            rivulet_core::RoutineSpec::new(RoutineId(1), "fleet-scene").step_compensated(
                anchor,
                CommandKind::Set(ActuationState::Switch(true)),
                CommandKind::Set(ActuationState::Switch(false)),
            ),
        );
    }
    let routines_on = cfg.routines;
    let app = AppBuilder::new(AppId(1), "measurement")
        .operator(
            "sink",
            CombinerSpec::Any,
            move |ctx: &mut OpCtx, w: &CombinedWindows| {
                if routines_on && w.all_events().any(|e| e.id.seq % 10 == 9) {
                    ctx.run_routine(RoutineId(1));
                }
            },
        )
        .sensor(sensor, cfg.delivery, WindowSpec::count(1))
        .actuator(anchor, cfg.delivery)
        .done()
        .build()
        .expect("valid app");
    let app = home.add_app(app);
    let home: Home = home.build();
    (home, sensor, app, anchor_probe, pids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rivulet_bench::common::run_delivery;

    /// The copy deploys exactly what `run_delivery` deploys, and the
    /// tracing wrappers change nothing: same deliveries, same obs JSON.
    #[test]
    fn scenario_copy_and_its_wrapped_run_match_run_delivery() {
        let (_, specs) = manifest(7);
        // A durable crashing routine home, a lossy one, a plain one.
        let pick = |f: &dyn Fn(&DeliveryScenario) -> bool| {
            specs
                .iter()
                .map(|s| s.params.to_scenario(s.seed))
                .find(|c| f(c))
                .expect("sweep has such a home")
        };
        for cfg in [
            pick(&|c| c.durable && c.crash_app_at.is_some() && c.routines),
            pick(&|c| c.loss > 0.0 && c.event_bytes == 1024 && c.n_processes == 5),
            pick(&|c| !c.durable && c.crash_app_at.is_none()),
        ] {
            let want = run_delivery(&cfg);
            let counts = Arc::new(BackendCounts::default());
            for traced in [false, true] {
                trace::install(trace::Tracer::new(0));
                let got = run_scenario(&cfg, traced, &counts);
                let _ = trace::take();
                assert_eq!(got.app.deliveries(), want.deliveries, "traced={traced}");
                assert_eq!(got.net.obs_snapshot().to_json(), want.obs.to_json());
                assert_eq!(got.net.metrics().wifi_bytes, want.wifi_bytes);
            }
            if cfg.durable {
                assert!(counts.totals().appends > 0, "wrapped disks saw the appends");
            }
        }
    }
}
