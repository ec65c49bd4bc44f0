//! The single-home workloads, `home_steady` and `home_durable_crash`.
//!
//! Both build one five-host home on the deterministic `SimNet` driver.
//! The benchmark draws every push sensor's emission instants from the
//! workload seed and hands them to the program as
//! `EmissionSchedule::Script`, so the program sees only generated
//! inputs. Virtual time runs as fast as the host allows: a run is a
//! batch job over an open-loop emission schedule.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rivulet_core::app::{
    AppBuilder, AppSpec, CombinedWindows, CombinerSpec, OpCtx, PollSpec, WindowSpec,
};
use rivulet_core::deploy::{Driver, Home, HomeBuilder};
use rivulet_core::probe::AppProbe;
use rivulet_core::{Delivery, RivuletConfig, RoutineProbe, RoutineSpec};
use rivulet_devices::actuator::ActuatorProbe;
use rivulet_devices::sensor::{EmissionProbe, EmissionSchedule, PayloadSpec};
use rivulet_devices::value::ValueModel;
use rivulet_net::link::LinkConfig;
use rivulet_net::sim::{SimConfig, SimNet};
use rivulet_obs::ObsSnapshot;
use rivulet_storage::{
    FlushPolicy, LedgerVerifier, Recovered, RoutineTransition, SimBackend, StorageBackend, Wal,
    WalOptions,
};
use rivulet_types::{
    ActuationState, ActuatorId, AppId, CommandId, CommandKind, Duration, Event, EventId, EventKind,
    Payload, ProcessId, RoutineId, SensorId, Time,
};

use crate::stats::{sub_seed, SplitMix};
use crate::trace;
use crate::wrap::{BackendCounts, BackendTotals, TracedBackend, TracingDriver};

/// What a home workload turns on.
#[derive(Debug, Clone, Copy)]
pub struct HomeShape {
    /// Attach per-process durable storage (`SimBackend`).
    pub durable: bool,
    /// Crash the app-bearing host at a third of the run and recover it
    /// at two thirds.
    pub crash: bool,
    /// Deploy the two-actuator compensated scene routine.
    pub routines: bool,
    /// Add the 1 KiB and 20 KiB camera-class sensors.
    pub blobs: bool,
    /// Virtual run length in seconds.
    pub virtual_secs: u64,
}

/// `home_steady`: small events, no durability, no crash.
pub const STEADY: HomeShape = HomeShape {
    durable: false,
    crash: false,
    routines: false,
    blobs: false,
    virtual_secs: 60,
};

/// `home_durable_crash`: the same home plus blobs, per-process WAL,
/// routines, and an app-host crash.
pub const DURABLE_CRASH: HomeShape = HomeShape {
    durable: true,
    crash: true,
    routines: true,
    blobs: true,
    virtual_secs: 240,
};

#[derive(Debug, Clone, Copy)]
enum Class {
    Door,
    Motion,
    Scalar,
    Blob(usize),
}

/// One push sensor of the home.
#[derive(Debug, Clone, Copy)]
struct Push {
    name: &'static str,
    class: Class,
    /// Mean (Poisson) or exact (periodic) gap between emissions.
    gap_ms: u64,
    poisson: bool,
    /// The two hosts that hear it. Host 0 carries the app; any two
    /// distinct hosts sit at different ring distances from it.
    reachers: [u32; 2],
}

const fn push(name: &'static str, class: Class, gap_ms: u64, reachers: [u32; 2]) -> Push {
    Push {
        name,
        class,
        gap_ms,
        poisson: matches!(class, Class::Door | Class::Motion),
        reachers,
    }
}

/// The always-present push sensors: 40 door + 80 motion + 200 scalar
/// events per virtual second.
const PUSH: [Push; 8] = [
    push("door-front", Class::Door, 50, [1, 3]),
    push("door-back", Class::Door, 50, [2, 4]),
    push("motion-hall", Class::Motion, 25, [0, 2]),
    push("motion-kitchen", Class::Motion, 25, [4, 1]),
    push("power", Class::Scalar, 20, [3, 0]),
    push("humidity", Class::Scalar, 20, [1, 2]),
    push("light-level", Class::Scalar, 20, [2, 3]),
    push("air-quality", Class::Scalar, 20, [4, 0]),
];

/// Camera-class sensors of `home_durable_crash`.
const BLOBS: [Push; 2] = [
    push("camera-1k", Class::Blob(1024), 100, [0, 3]),
    push("camera-20k", Class::Blob(20 * 1024), 1_000, [4, 1]),
];

/// Coordinated-poll temperature sensors, polled once a second.
const POLLED: [(&str, [u32; 2]); 2] = [("temp-living", [0, 3]), ("temp-bedroom", [1, 4])];

const HOSTS: u32 = 5;
/// Radio interference: each sensor→host link is blocked in bursts of
/// mean `BURST_MS` separated by gaps of mean `BURST_GAP_MS` (both
/// exponential), so it loses ~5% of frames. Scripted bursts, unlike
/// i.i.d. link loss, tell the benchmark exactly which frames reached
/// which host — the ground truth the Gapless check needs.
const BURST_MS: f64 = 50.0;
const BURST_GAP_MS: f64 = 950.0;
/// A receipt only obliges Gapless if its host stays up this long
/// afterwards (past the failure timeout): an event heard solely by a
/// host that crashes before replicating it is not owed to the app.
const RECEIPT_HOLD: Duration = Duration::from_secs(3);
const SCENE: RoutineId = RoutineId(1);
/// Emissions start after the home has settled and stop this long
/// before the end, so every event can drain before the run is judged.
const EMIT_START: Time = Time::from_millis(500);
const DRAIN: Duration = Duration::from_secs(4);

fn push_sensors(shape: &HomeShape) -> Vec<Push> {
    let mut v = PUSH.to_vec();
    if shape.blobs {
        v.extend(BLOBS);
    }
    v
}

fn payload(class: Class) -> PayloadSpec {
    match class {
        Class::Door => PayloadSpec::KindOnly(EventKind::DoorOpen),
        Class::Motion => PayloadSpec::KindOnly(EventKind::Motion),
        Class::Scalar => PayloadSpec::Scalar(ValueModel::RandomWalk {
            value: 20.0,
            step: 0.5,
            min: 0.0,
            max: 40.0,
        }),
        Class::Blob(len) => PayloadSpec::Blob {
            kind: EventKind::Image,
            len,
        },
    }
}

/// The generated inputs of one home run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// Each push sensor's emission instants, in declaration order.
    pub scripts: Vec<Vec<Time>>,
    /// Per push sensor, per reacher: `[start, end)` µs intervals in
    /// which the radio link is blocked.
    pub bursts: Vec<[Vec<(u64, u64)>; 2]>,
    /// App-host crash and recovery instants (crashing workloads only).
    pub crash: Option<(Time, Time)>,
}

/// Exponential draw with mean `mean` (at least 1).
fn exp_draw(rng: &mut SplitMix, mean: f64) -> u64 {
    ((-(1.0 - rng.next_f64()).ln()) * mean).max(1.0) as u64
}

/// Draws every input from `seed`: emission instants (exponential gaps
/// for human-triggered sensors, a seeded phase for periodic ones),
/// radio interference bursts, and the crash instants.
#[must_use]
pub fn inputs(shape: &HomeShape, seed: u64) -> Inputs {
    let end_us = shape.virtual_secs * 1_000_000;
    let emit_end = end_us - DRAIN.as_micros();
    let mut scripts = Vec::new();
    let mut bursts = Vec::new();
    for (i, p) in push_sensors(shape).iter().enumerate() {
        let mut rng = SplitMix::new(sub_seed(seed, 1 + i as u64));
        let gap_us = p.gap_ms * 1_000;
        let mut t = EMIT_START.as_micros() + (rng.next_f64() * gap_us as f64) as u64;
        let mut times = Vec::new();
        while t < emit_end {
            times.push(Time::from_micros(t));
            t += if p.poisson {
                exp_draw(&mut rng, gap_us as f64)
            } else {
                gap_us
            };
        }
        scripts.push(times);
        bursts.push([0, 1].map(|_| {
            let mut spans = Vec::new();
            let mut t = exp_draw(&mut rng, BURST_GAP_MS * 1e3);
            while t < end_us {
                let len = exp_draw(&mut rng, BURST_MS * 1e3);
                spans.push((t, t + len));
                t += len + exp_draw(&mut rng, BURST_GAP_MS * 1e3);
            }
            spans
        }));
    }
    let crash = shape.crash.then(|| {
        let mut rng = SplitMix::new(sub_seed(seed, 99));
        let jitter = |rng: &mut SplitMix| (rng.next_f64() * 1e6) as u64;
        (
            Time::from_micros(end_us / 3 + jitter(&mut rng)),
            Time::from_micros(end_us * 2 / 3 + jitter(&mut rng)),
        )
    });
    Inputs {
        scripts,
        bursts,
        crash,
    }
}

/// How a run is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// Wrap the driver and backends and record spans.
    pub traced: bool,
    /// Enable the program's observability recorder.
    pub obs: bool,
}

/// Shared log the door operators append each triggering event to,
/// in the order they issue light commands.
type TriggerLog = Arc<Mutex<Vec<(EventId, Time)>>>;

struct Built {
    home: Home,
    hosts: Vec<ProcessId>,
    emissions: Vec<(SensorId, Delivery, Arc<EmissionProbe>)>,
    app: Arc<AppProbe>,
    triggers: TriggerLog,
    light: Arc<ActuatorProbe>,
    scene: Vec<(ActuatorId, Arc<ActuatorProbe>)>,
    routine: Option<Arc<RoutineProbe>>,
}

fn build<D: Driver>(
    driver: &mut D,
    shape: &HomeShape,
    inputs: &Inputs,
    ledger_seed: u64,
    backends: &[Arc<dyn StorageBackend>],
) -> Built {
    let mut config = RivuletConfig::default();
    if shape.routines {
        config = config
            .with_routines(true)
            .with_routine_ledger_seed(ledger_seed)
            .with_routine_stage_timeout(Duration::from_secs(1));
    }
    let mut b = HomeBuilder::new(driver).with_config(config);
    if shape.durable {
        let backends = backends.to_vec();
        b = b.with_storage(
            WalOptions {
                flush_policy: FlushPolicy::EveryN(8),
                segment_max_bytes: 256 * 1024,
            },
            Duration::from_secs(5),
            move |pid: ProcessId| Arc::clone(&backends[pid.as_u32() as usize]),
        );
    }
    let hosts: Vec<ProcessId> = (0..HOSTS).map(|i| b.add_host(format!("host{i}"))).collect();
    let at = |r: [u32; 2]| [hosts[r[0] as usize], hosts[r[1] as usize]];

    let mut emissions = Vec::new();
    for (p, script) in push_sensors(shape).iter().zip(&inputs.scripts) {
        let (id, probe) = b.add_push_sensor(
            p.name,
            payload(p.class),
            EmissionSchedule::Script(script.clone()),
            &at(p.reachers),
        );
        let delivery = if matches!(p.class, Class::Door) {
            Delivery::Gap
        } else {
            Delivery::Gapless
        };
        emissions.push((id, delivery, probe));
    }
    let polled: Vec<SensorId> = POLLED
        .iter()
        .map(|(name, r)| {
            let model = ValueModel::RandomWalk {
                value: 21.0,
                step: 0.1,
                min: 15.0,
                max: 27.0,
            };
            b.add_poll_sensor(*name, model, Duration::from_millis(50), &at(*r))
                .0
        })
        .collect();

    // The light and the scene actuators are adapted by hosts 0 and 2.
    // Host 0 reaches the most of the app's devices and carries the
    // active logic node; while it is down another host takes over and
    // reaches the actuators through host 2.
    let reach = at([0, 2]);
    let (light, light_probe) = b.add_actuator("light", ActuationState::Switch(false), &reach);
    let mut scene = Vec::new();
    let mut routine = None;
    if shape.routines {
        let (lamp, lamp_probe) = b.add_actuator("lamp", ActuationState::Switch(false), &reach);
        let (blinds, blinds_probe) = b.add_actuator("blinds", ActuationState::Level(100.0), &reach);
        routine = Some(
            b.add_routine(
                RoutineSpec::new(SCENE, "evening-scene")
                    .step_compensated(
                        lamp,
                        CommandKind::Set(ActuationState::Switch(true)),
                        CommandKind::Set(ActuationState::Switch(false)),
                    )
                    .step_compensated(
                        blinds,
                        CommandKind::Set(ActuationState::Level(0.0)),
                        CommandKind::Set(ActuationState::Level(100.0)),
                    ),
            ),
        );
        scene = vec![(lamp, lamp_probe), (blinds, blinds_probe)];
    }

    let triggers: TriggerLog = Arc::default();
    let doors: Vec<SensorId> = emissions
        .iter()
        .filter(|e| e.1 == Delivery::Gap)
        .map(|e| e.0)
        .collect();
    let monitored: Vec<SensorId> = emissions
        .iter()
        .filter(|e| e.1 == Delivery::Gapless)
        .map(|e| e.0)
        .collect();
    let app = app_spec(
        &doors,
        &monitored,
        &polled,
        light,
        shape.routines,
        &triggers,
    );
    let app = b.add_app(app);
    let home = b.build();
    Built {
        home,
        hosts,
        emissions,
        app,
        triggers,
        light: light_probe,
        scene,
        routine,
    }
}

/// The home's one app, mixing Gap and Gapless inputs. Each door has
/// its own operator, so every activation carries exactly one door
/// event and issues exactly one light command (plus, every fifth door
/// event, the scene routine); `triggers` logs each triggering event in
/// command order.
fn app_spec(
    doors: &[SensorId],
    monitored: &[SensorId],
    polled: &[SensorId],
    light: ActuatorId,
    routines: bool,
    triggers: &TriggerLog,
) -> AppSpec {
    let mut app = AppBuilder::new(AppId(1), "home");
    for door in doors {
        let log = Arc::clone(triggers);
        app = app
            .operator(
                "door-light",
                CombinerSpec::Any,
                move |ctx: &mut OpCtx, w: &CombinedWindows| {
                    for e in w.all_events() {
                        log.lock()
                            .expect("trigger log lock")
                            .push((e.id, e.emitted_at));
                        ctx.set_switch(light, e.id.seq % 2 == 0);
                        if routines && e.id.seq % 5 == 4 {
                            ctx.run_routine(SCENE);
                        }
                    }
                },
            )
            .sensor(*door, Delivery::Gap, WindowSpec::count(1))
            .actuator(light, Delivery::Gap)
            .done();
    }
    let mut monitor = app.operator(
        "monitor",
        CombinerSpec::Any,
        |_: &mut OpCtx, w: &CombinedWindows| {
            std::hint::black_box(w.all_events().map(|e| e.payload.len()).sum::<usize>());
        },
    );
    for id in monitored {
        monitor = monitor.sensor(*id, Delivery::Gapless, WindowSpec::count(1));
    }
    for id in polled {
        monitor = monitor.polled_sensor(
            *id,
            Delivery::Gapless,
            WindowSpec::count(1),
            PollSpec::every(Duration::from_secs(1)),
        );
    }
    monitor.done().build().expect("valid app")
}

/// The workload's app and event mix, for the layer kernels: the app
/// spec as deployed, and one template event per sensor with its share
/// of the emission rate (polled sensors at one reading a second).
#[must_use]
pub fn kernel_inputs(shape: &HomeShape) -> (AppSpec, Vec<(Event, u64)>) {
    let pushes = push_sensors(shape);
    let id = |i: usize| SensorId(i as u32);
    let mut doors = Vec::new();
    let mut monitored = Vec::new();
    let mut mix = Vec::new();
    for (i, p) in pushes.iter().enumerate() {
        if matches!(p.class, Class::Door) {
            doors.push(id(i));
        } else {
            monitored.push(id(i));
        }
        let (kind, payload) = match p.class {
            Class::Door => (EventKind::DoorOpen, Payload::Empty),
            Class::Motion => (EventKind::Motion, Payload::Empty),
            Class::Scalar => (EventKind::Reading, Payload::Scalar(20.5)),
            Class::Blob(len) => (EventKind::Image, Payload::zeros(len)),
        };
        let e = Event::with_payload(EventId::new(id(i), 0), kind, payload, Time::ZERO);
        mix.push((e, 1_000 / p.gap_ms));
    }
    let polled: Vec<SensorId> = (pushes.len()..pushes.len() + POLLED.len())
        .map(id)
        .collect();
    for s in &polled {
        let e = Event::with_payload(
            EventId::new(*s, 0),
            EventKind::Reading,
            Payload::Scalar(21.0),
            Time::ZERO,
        );
        mix.push((e, 1));
    }
    let app = app_spec(
        &doors,
        &monitored,
        &polled,
        ActuatorId(0),
        shape.routines,
        &TriggerLog::default(),
    );
    (app, mix)
}

/// Everything the benchmark reads off one home run.
#[derive(Debug, Clone)]
pub struct HomeRun {
    /// Wall time of input generation plus home construction.
    pub setup: std::time::Duration,
    /// Wall time of the `run_until` calls.
    pub timed: std::time::Duration,
    /// Virtual-time results and correctness verdicts.
    pub outcome: Outcome,
    /// The program's observability snapshot (empty unless enabled).
    pub obs: ObsSnapshot,
    /// Events `run_until` dispatched.
    pub dispatches: u64,
    /// Summed backend counters, when traced and durable.
    pub backend: BackendTotals,
    /// Wall ms of reopening (recovering) each process's log at the
    /// end of a durable run, with the bytes it read.
    pub reopen: Vec<(f64, u64)>,
    /// Actuator commands and stage frames received, and effects applied.
    pub actuator_commands: (u64, u64),
    /// Frames coalesced and acks avoided on the send path.
    pub fanout: (u64, u64),
}

/// Virtual-time results of one run: a pure function of the seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Events the sensors emitted (push and polled).
    pub emitted: u64,
    /// Distinct events the app processed.
    pub unique_delivered: u64,
    /// Emission → first delivery, µs, ascending.
    pub deliver_us: Vec<u64>,
    /// Trigger emission → actuator effect, µs, ascending.
    pub actuate_us: Vec<u64>,
    /// Light commands issued.
    pub commands: u64,
    /// Light commands issued but never applied.
    pub commands_lost: u64,
    /// Gapless delivery tallies.
    pub gapless: GaplessTally,
    /// Crash → first post-promotion delivery or command, µs.
    pub failover_us: Option<u64>,
    /// Routine firings triggered and committed.
    pub routines: (u64, u64),
    /// Bytes sent between processes.
    pub wifi_bytes: u64,
    /// Protocol messages and timers the driver delivered.
    pub net: (u64, u64),
    /// Correctness checks: `(name, passed)`.
    pub checks: Vec<(&'static str, bool)>,
    /// FNV-1a digest of every delivery, command, effect and transition.
    pub fingerprint: u64,
}

/// How the Gapless inputs fared.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaplessTally {
    /// Owed events (some host received and kept them) never delivered.
    pub lost: u64,
    /// Events no live host received, so none are owed.
    pub unreachable: u64,
    /// Events delivered more than once.
    pub duplicated: u64,
    /// Deliveries that arrived after a later event of the same sensor.
    pub reordered: u64,
}

/// A home built and scripted, ready to run.
struct Prepared {
    net: SimNet,
    built: Built,
    inputs: Inputs,
    disks: Vec<Arc<SimBackend>>,
    counts: Arc<BackendCounts>,
    ledger_seed: u64,
    stops: BTreeSet<Time>,
    power_loss: Option<Time>,
}

/// The workload's set-up alone: input generation and home
/// construction, then everything is dropped. Returns its wall time.
#[must_use]
pub fn setup_only(shape: &HomeShape, seed: u64) -> std::time::Duration {
    let started = Instant::now();
    let prepared = prepare(
        shape,
        seed,
        Mode {
            traced: false,
            obs: false,
        },
    );
    let took = started.elapsed();
    drop(prepared);
    took
}

/// Runs one home workload to completion.
#[must_use]
pub fn run(shape: &HomeShape, seed: u64, mode: Mode) -> HomeRun {
    let started = Instant::now();
    let Prepared {
        mut net,
        built,
        inputs,
        disks,
        counts,
        ledger_seed,
        stops,
        power_loss,
    } = prepare(shape, seed, mode);
    let setup = started.elapsed();

    let timer = Instant::now();
    let mut dispatches = 0;
    for stop in stops {
        dispatches += trace::span("net.sim", || net.run_until(stop));
        if Some(stop) == power_loss {
            // The power loss takes the app host's unsynced disk tail.
            disks[0].crash();
        }
    }
    let timed = timer.elapsed();

    let mut outcome = judge(&built, shape, &inputs, &net);
    let mut reopen = Vec::new();
    if shape.durable {
        let (ok, times) = verify_ledgers(&disks, ledger_seed);
        outcome.checks.push(("ledger_verifies", ok));
        reopen = times;
    }
    let mut effects = built.light.effect_count() as u64;
    let mut received = built.light.commands_received();
    for (_, p) in &built.scene {
        effects += p.effect_count() as u64;
        received += p.commands_received() + p.staged_held();
    }
    let fanout = net.metrics().fanout.snapshot();
    HomeRun {
        setup,
        timed,
        outcome,
        obs: net.obs_snapshot(),
        dispatches,
        backend: counts.totals(),
        reopen,
        actuator_commands: (received, effects),
        fanout: (fanout.frames_coalesced, fanout.acks_avoided),
    }
}

/// Generates the inputs, builds the home, and scripts the radio
/// geometry, interference bursts and crash into the driver.
fn prepare(shape: &HomeShape, seed: u64, mode: Mode) -> Prepared {
    let inputs = inputs(shape, seed);
    let mut net = SimNet::new(SimConfig::with_seed(sub_seed(seed, 100)));
    net.recorder().set_enabled(mode.obs);
    let ledger_seed = sub_seed(seed, 101);
    let disks: Vec<Arc<SimBackend>> = (0..HOSTS)
        .map(|i| Arc::new(SimBackend::new(sub_seed(seed, 200 + u64::from(i)))))
        .collect();
    let counts = Arc::new(BackendCounts::default());
    let backends: Vec<Arc<dyn StorageBackend>> = disks
        .iter()
        .map(|d| {
            let d = Arc::clone(d) as Arc<dyn StorageBackend>;
            if mode.traced {
                Arc::new(TracedBackend::new(d, Arc::clone(&counts))) as Arc<dyn StorageBackend>
            } else {
                d
            }
        })
        .collect();
    let built = if mode.traced {
        build(
            &mut TracingDriver::new(&mut net),
            shape,
            &inputs,
            ledger_seed,
            &backends,
        )
    } else {
        build(&mut net, shape, &inputs, ledger_seed, &backends)
    };

    // Radio geometry: every device↔host link's base latency is drawn
    // from the seed, ±5% around the default.
    let mut geometry = SplitMix::new(sub_seed(seed, 98));
    let base = LinkConfig::radio().base_latency.as_micros() as f64;
    let data = built.home.directory.get();
    let device_links = data
        .sensors
        .iter()
        .map(|s| (s.actor, &s.reachers))
        .chain(data.actuators.iter().map(|a| (a.actor, &a.reachers)));
    for (device, reachers) in device_links {
        for r in reachers {
            let jitter = 0.95 + 0.1 * geometry.next_f64();
            let cfg = LinkConfig {
                base_latency: Duration::from_micros((base * jitter) as u64),
                ..LinkConfig::radio()
            };
            net.topology_mut()
                .set_link_bidir(device, built.home.actor_of(*r), cfg);
        }
    }
    for ((p, (id, _, _)), bursts) in push_sensors(shape)
        .iter()
        .zip(&built.emissions)
        .zip(&inputs.bursts)
    {
        let sensor = built.home.sensor_actor(*id);
        for (r, spans) in p.reachers.iter().zip(bursts) {
            let host = built.home.actor_of(built.hosts[*r as usize]);
            for (from, to) in spans {
                net.set_blocked_at(Time::from_micros(*from), sensor, host, true);
                net.set_blocked_at(Time::from_micros(*to), sensor, host, false);
            }
        }
    }
    let app_host = built.home.actor_of(built.hosts[0]);
    let mut stops: BTreeSet<Time> = (1..=shape.virtual_secs).map(Time::from_secs).collect();
    let power_loss = inputs.crash.map(|(crash, recover)| {
        net.crash_at(app_host, crash);
        net.recover_at(app_host, recover);
        crash + Duration::from_millis(1)
    });
    stops.extend(power_loss);
    Prepared {
        net,
        built,
        inputs,
        disks,
        counts,
        ledger_seed,
        stops,
        power_loss,
    }
}

/// Reopens every process's log as recovery would, verifies each
/// recovered ledger chain, and times the reopen.
fn verify_ledgers(disks: &[Arc<SimBackend>], seed: u64) -> (bool, Vec<(f64, u64)>) {
    let mut ok = true;
    let mut times = Vec::new();
    for disk in disks {
        match reopen(disk) {
            Some((ms, bytes, recovered)) => {
                times.push((ms, bytes));
                ok &= LedgerVerifier::verify(seed, &recovered.ledger).is_ok();
            }
            None => ok = false,
        }
    }
    (ok, times)
}

/// Recovers `disk`'s log the way a restarting process does
/// (`Wal::open`); returns the wall milliseconds it took, the bytes it
/// read, and what it recovered. `None` if the open fails. Any span
/// recorder is set aside meanwhile: this is the benchmark's own
/// check, not work the run did.
#[must_use]
pub fn reopen(disk: &Arc<SimBackend>) -> Option<(f64, u64, Recovered)> {
    let tracer = trace::take();
    let counts = Arc::new(BackendCounts::default());
    let backend = Arc::new(TracedBackend::new(
        Arc::clone(disk) as Arc<dyn StorageBackend>,
        Arc::clone(&counts),
    ));
    let t = Instant::now();
    let opened = Wal::open(backend, WalOptions::default());
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if let Some(tracer) = tracer {
        trace::install(tracer);
    }
    let (_wal, recovered) = opened.ok()?;
    Some((ms, counts.totals().read_bytes, recovered))
}

fn judge(b: &Built, shape: &HomeShape, inputs: &Inputs, net: &SimNet) -> Outcome {
    let deliveries = b.app.deliveries();
    let mut fp = Fnv::default();
    let mut first: HashMap<EventId, u64> = HashMap::new();
    let mut per_event: HashMap<EventId, u32> = HashMap::new();
    let mut highest: HashMap<SensorId, u64> = HashMap::new();
    let mut reordered = 0;
    for d in &deliveries {
        fp.add(&[
            d.at.as_micros(),
            u64::from(d.by.0),
            u64::from(d.event.sensor.0),
            d.event.seq,
        ]);
        first
            .entry(d.event)
            .or_insert_with(|| d.delay().as_micros());
        *per_event.entry(d.event).or_default() += 1;
        let hi = highest.entry(d.event.sensor).or_insert(d.event.seq);
        if d.event.seq < *hi {
            reordered += 1;
        } else {
            *hi = d.event.seq;
        }
    }
    let mut deliver_us: Vec<u64> = first.values().copied().collect();
    deliver_us.sort_unstable();

    // Gapless owes the app every event some host received and kept
    // (radio link open at emission, host up long enough to replicate
    // it); Gap never delivers an event twice.
    let owed = |p: &Push, bursts: &[Vec<(u64, u64)>; 2], t: u64| {
        p.reachers.iter().zip(bursts).any(|(host, spans)| {
            let open = !spans.iter().any(|(a, z)| *a <= t && t < *z);
            let kept = match inputs.crash {
                Some((crash, recover)) if *host == 0 => {
                    t >= recover.as_micros() || t + RECEIPT_HOLD.as_micros() <= crash.as_micros()
                }
                _ => true,
            };
            open && kept
        })
    };
    let mut gapless = GaplessTally::default();
    let mut gap_dupes = 0;
    let mut emitted = 0;
    for ((p, (_, delivery, probe)), bursts) in push_sensors(shape)
        .iter()
        .zip(&b.emissions)
        .zip(&inputs.bursts)
    {
        for (at, id) in probe.log() {
            emitted += 1;
            let n = per_event.get(&id).copied().unwrap_or(0);
            match delivery {
                Delivery::Gapless if n == 0 && owed(p, bursts, at.as_micros()) => {
                    gapless.lost += 1;
                }
                Delivery::Gapless if n == 0 => gapless.unreachable += 1,
                Delivery::Gapless if n > 1 => gapless.duplicated += 1,
                Delivery::Gap if n > 1 => gap_dupes += 1,
                _ => {}
            }
        }
    }
    // Polled readings: every distinct one the app saw.
    emitted += per_event
        .keys()
        .filter(|id| b.emissions.iter().all(|(s, _, _)| *s != id.sensor))
        .count() as u64;
    gapless.reordered = reordered;

    // Light commands, matched to their triggering door event by issue
    // order, then to the actuator's applied effects.
    let commands = b.app.commands();
    let triggers = b.triggers.lock().expect("trigger log lock").clone();
    let applied: HashMap<CommandId, Time> = b
        .light
        .effects()
        .into_iter()
        .map(|(at, id, _)| (id, at))
        .collect();
    let mut actuate_us = Vec::new();
    let mut commands_lost = 0;
    for ((issued, cmd), (_, emitted_at)) in commands.iter().zip(&triggers) {
        fp.add(&[issued.as_micros(), cmd.id.seq, u64::from(cmd.id.issuer.0)]);
        match applied.get(&cmd.id) {
            Some(at) => actuate_us.push(at.duration_since(*emitted_at).as_micros()),
            None => commands_lost += 1,
        }
    }
    actuate_us.sort_unstable();

    // Routines: a firing applies every staged step or none, and only
    // committed firings apply anything.
    let mut routine_ok = true;
    let mut routines = (0, 0);
    if let Some(probe) = &b.routine {
        let fired: BTreeMap<ActuatorId, BTreeSet<CommandId>> = b
            .scene
            .iter()
            .map(|(a, p)| (*a, p.effects().into_iter().map(|(_, c, _)| c).collect()))
            .collect();
        for rec in probe.instances() {
            let n = rec
                .commands
                .iter()
                .filter(|(a, c)| fired.get(a).is_some_and(|s| s.contains(c)))
                .count();
            let partial = n != 0 && n != rec.commands.len();
            let phantom = n > 0 && rec.state != RoutineTransition::Committed;
            routine_ok &= !partial && !phantom;
        }
        routines = (probe.triggered(), probe.committed());
        fp.add(&[routines.0, routines.1, probe.aborted()]);
    }
    for (_, p) in &b.scene {
        for (at, id, _) in p.effects() {
            fp.add(&[at.as_micros(), id.seq]);
        }
    }

    // Failover: crash → first delivery or command by another host.
    let failover_us = inputs.crash.and_then(|(crash, _)| {
        let app_host = b.hosts[0];
        let delivered = deliveries
            .iter()
            .find(|d| d.at > crash && d.by != app_host)
            .map(|d| d.at);
        let commanded = commands
            .iter()
            .find(|(at, c)| *at > crash && c.id.issuer != app_host)
            .map(|(at, _)| *at);
        let first = delivered.into_iter().chain(commanded).min();
        first.map(|t| t.duration_since(crash).as_micros())
    });
    for (at, p, active) in b.app.transitions() {
        fp.add(&[at.as_micros(), u64::from(p.0), u64::from(active)]);
    }

    let m = net.metrics();
    let net_counts = (m.messages_delivered, m.timers_fired);
    fp.add(&[m.wifi_bytes, net_counts.0, net_counts.1]);
    let mut checks = vec![
        ("gap_never_duplicates", gap_dupes == 0),
        ("commands_match_triggers", commands.len() == triggers.len()),
        ("routines_all_or_nothing", routine_ok),
    ];
    if inputs.crash.is_none() {
        checks.push(("gapless_exactly_once_failure_free", gapless.duplicated == 0));
    }
    Outcome {
        emitted,
        unique_delivered: first.len() as u64,
        deliver_us,
        actuate_us,
        commands: commands.len() as u64,
        commands_lost,
        gapless,
        failover_us,
        routines,
        wifi_bytes: m.wifi_bytes,
        net: net_counts,
        checks,
        fingerprint: fp.0,
    }
}

/// FNV-1a over 64-bit words.
#[derive(Debug)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn add(&mut self, words: &[u64]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{self, Tracer};

    const SHORT_STEADY: HomeShape = HomeShape {
        virtual_secs: 20,
        ..STEADY
    };
    const SHORT_CRASH: HomeShape = HomeShape {
        virtual_secs: 30,
        ..DURABLE_CRASH
    };

    /// The wrapping driver and backends leave every delivery, command,
    /// effect, transition and the program's obs JSON byte-identical.
    #[test]
    fn wrapped_runs_are_byte_identical_to_plain_ones() {
        for shape in [SHORT_STEADY, SHORT_CRASH] {
            let plain = run(
                &shape,
                5,
                Mode {
                    traced: false,
                    obs: true,
                },
            );
            trace::install(Tracer::new(0));
            let wrapped = run(
                &shape,
                5,
                Mode {
                    traced: true,
                    obs: true,
                },
            );
            let tracer = trace::take().expect("installed");
            assert_eq!(wrapped.outcome, plain.outcome);
            assert_eq!(wrapped.obs.to_json(), plain.obs.to_json());
            assert!(tracer.total("process.msg").count > 0, "actors were wrapped");
            if shape.durable {
                assert!(wrapped.backend.syncs > 0, "backends were wrapped");
            }
        }
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        assert_eq!(inputs(&STEADY, 3), inputs(&STEADY, 3));
        assert_ne!(inputs(&STEADY, 3), inputs(&STEADY, 4));
        let crash = inputs(&DURABLE_CRASH, 3).crash.expect("crashing workload");
        let third = Time::from_secs(DURABLE_CRASH.virtual_secs / 3);
        assert!(crash.0 >= third && crash.0 < third + Duration::from_secs(1));
        assert!(inputs(&STEADY, 3).crash.is_none());
    }

    #[test]
    fn steady_home_passes_its_checks_and_owes_nothing_lost() {
        let r = run(
            &SHORT_STEADY,
            11,
            Mode {
                traced: false,
                obs: false,
            },
        );
        let o = &r.outcome;
        assert!(o.checks.iter().all(|(_, ok)| *ok), "{:?}", o.checks);
        assert_eq!(o.gapless.lost, 0);
        assert_eq!(o.commands_lost, 0);
        assert!(o.unique_delivered > 4_000);
        assert!(o.failover_us.is_none());
    }

    #[test]
    fn crash_home_fails_over_and_verifies_its_ledgers() {
        let r = run(
            &SHORT_CRASH,
            11,
            Mode {
                traced: false,
                obs: false,
            },
        );
        let o = &r.outcome;
        assert!(o.checks.iter().all(|(_, ok)| *ok), "{:?}", o.checks);
        let failover = o.failover_us.expect("a promoted host took over");
        assert!(
            failover >= 2_000_000,
            "failover {failover} µs beats the 2 s timeout"
        );
        assert!(o.routines.1 > 0, "scene routines committed");
        assert_eq!(r.reopen.len(), HOSTS as usize, "every log reopened");
    }
}
