//! The Rivulet benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <home_steady|home_durable_crash|fleet_sweep> \
//!     --seed <n> --seconds <s> --trace <0|1> [--held-out] [--out <dir>]
//! ```
//!
//! Every workload runs on the deterministic `SimNet` driver in this one
//! process. The run repeats the workload on the seed's inputs until
//! `--seconds` have passed (at least three times), checks every
//! repetition's outputs, requires the virtual-time results to be
//! bit-identical across repetitions, and prints each metric by name and
//! unit. See `perfbench/BENCHMARK.md` for the workloads and metrics. The last line of standard output is a JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! A traced run also writes its spans and per-layer metrics under
//! `--out` (default `perfbench/out`). `--held-out` swaps the seed for a
//! derived one that no tuning run used.

mod alloc;
mod fleet;
mod home;
mod kernels;
mod layers;
mod stats;
mod trace;
mod wrap;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use crate::layers::Traced;
use crate::stats::{beyond, median, percentile, ratio, sub_seed};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Repetitions a run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Set-up samples behind `setup_s`, at least: each repetition's own
/// set-up plus one set-up-only repetition after it, spread over the
/// run so they see the same host conditions as the timed part.
const SETUP_SAMPLES: usize = 51;
/// Span records a traced run keeps for its spans file.
const SPANS_KEPT: usize = 20_000;
/// Latency samples a workload must yield so ≥10 lie beyond p99.
const MIN_SAMPLES: usize = 1_000;
/// Salt deriving the held-out seed.
const HELD_OUT: u64 = 0x0048_454c_444f_5554;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut held_out = false;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--held-out" {
            held_out = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds takes a positive number")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["home_steady", "home_durable_crash", "fleet_sweep"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed: u64 = seed.ok_or("--seed is required")?;
    Ok(Args {
        workload,
        seed: if held_out {
            sub_seed(seed, HELD_OUT)
        } else {
            seed
        },
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// One metric by name and unit.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What a run reports.
#[derive(Debug, Default)]
struct Report {
    /// The metrics of the final JSON line.
    metrics: Vec<Metric>,
    /// Further figures, printed but not part of the JSON.
    info: Vec<Metric>,
    /// Correctness checks, `(name, passed)`.
    checks: Vec<(String, bool)>,
    /// Operations attempted and failed (per repetition: repetitions
    /// are identical, which a check enforces).
    attempted: u64,
    failed: u64,
    /// Repetitions made.
    reps: usize,
}

impl Report {
    fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

fn secs(d: std::time::Duration) -> f64 {
    d.as_secs_f64()
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reports the p50 and p99 of `sorted_us` (µs) and its sample count
/// under `names` — in the JSON when `gated`, printed only otherwise —
/// and checks that p99 has at least ten samples beyond it.
fn latencies(r: &mut Report, sorted_us: &[u64], names: [&'static str; 3], gated: bool) {
    let [p50, p99, samples] = names;
    let ms = |p| percentile(sorted_us, p).map_or(0.0, |us| us as f64 / 1e3);
    let out = if gated { &mut r.metrics } else { &mut r.info };
    out.push(metric(p50, "ms", ms(50.0)));
    out.push(metric(p99, "ms", ms(99.0)));
    r.info
        .push(metric(samples, "count", sorted_us.len() as f64));
    r.check(
        format!("{p99}_has_10_samples_beyond"),
        sorted_us.len() >= MIN_SAMPLES && beyond(sorted_us, 99.0) >= 10,
    );
}

fn home_shape(workload: &str) -> home::HomeShape {
    if workload == "home_steady" {
        home::STEADY
    } else {
        home::DURABLE_CRASH
    }
}

const UNTRACED: home::Mode = home::Mode {
    traced: false,
    obs: false,
};
const TRACED: home::Mode = home::Mode {
    traced: true,
    obs: true,
};

/// `--trace 0` on a home workload. Only the first repetition's
/// outcome is kept; later ones are compared to it and dropped, so
/// memory does not grow with the repetition count.
fn home_end_to_end(shape: &home::HomeShape, seed: u64, seconds: f64) -> Report {
    let started = Instant::now();
    let first = home::run(shape, seed, UNTRACED);
    let o = &first.outcome;
    let mut timed = vec![secs(first.timed)];
    let mut setups = vec![secs(first.setup)];
    let mut identical = true;
    while timed.len() < MIN_REPS || secs(started.elapsed()) < seconds {
        let run = home::run(shape, seed, UNTRACED);
        identical &= run.outcome == *o;
        timed.push(secs(run.timed));
        setups.push(secs(run.setup));
        setups.push(secs(home::setup_only(shape, seed)));
    }
    while setups.len() < SETUP_SAMPLES {
        setups.push(secs(home::setup_only(shape, seed)));
    }
    let mut r = Report {
        reps: timed.len(),
        ..Report::default()
    };
    let rates: Vec<f64> = timed
        .iter()
        .map(|t| o.unique_delivered as f64 / t)
        .collect();
    r.metrics
        .push(metric("throughput_eps", "events/s", median(&rates)));
    let names = ["deliver_p50_ms", "deliver_p99_ms", "deliver_samples"];
    latencies(&mut r, &o.deliver_us, names, true);
    r.metrics.push(metric(
        "wifi_bytes_per_event",
        "B",
        ratio(o.wifi_bytes as f64, o.unique_delivered as f64),
    ));
    r.metrics.push(metric("setup_s", "s", median(&setups)));
    r.metrics
        .push(metric("peak_rss_mib", "MiB", peak_rss_mib()));

    let names = ["actuate_p50_ms", "actuate_p99_ms", "actuate_samples"];
    latencies(&mut r, &o.actuate_us, names, false);
    if let Some(us) = o.failover_us {
        r.info.push(metric("failover_ms", "ms", us as f64 / 1e3));
    }
    home_tallies(&mut r, o);
    r.check("virtual_results_identical_across_repetitions", identical);
    r
}

/// Attempts, failures and correctness verdicts of one home outcome.
fn home_tallies(r: &mut Report, o: &home::Outcome) {
    r.attempted = o.emitted + o.commands + o.routines.0;
    r.failed = o.gapless.lost + o.commands_lost;
    r.info.push(metric(
        "failed_fraction",
        "ratio",
        ratio(r.failed as f64, r.attempted as f64),
    ));
    r.info.extend([
        metric("emitted", "events", o.emitted as f64),
        metric("unique_delivered", "events", o.unique_delivered as f64),
        metric("gapless_lost", "events", o.gapless.lost as f64),
        metric(
            "gapless_unreachable",
            "events",
            o.gapless.unreachable as f64,
        ),
        metric("gapless_duplicated", "events", o.gapless.duplicated as f64),
        metric(
            "gapless_reordered",
            "deliveries",
            o.gapless.reordered as f64,
        ),
        metric("commands", "commands", o.commands as f64),
        metric("commands_lost", "commands", o.commands_lost as f64),
        metric("routines_triggered", "firings", o.routines.0 as f64),
        metric("routines_committed", "firings", o.routines.1 as f64),
    ]);
    for (name, ok) in &o.checks {
        r.check(*name, *ok);
    }
}

/// `--trace 1` on a home workload: alternate untraced and traced
/// repetitions, so the tracing overhead compares like with like.
fn home_layers(
    shape: &home::HomeShape,
    seed: u64,
    seconds: f64,
    spans_out: &mut Option<String>,
) -> Report {
    let started = Instant::now();
    let mut r = Report::default();
    let (mut plain_wall, mut traced_wall, mut samples) = (Vec::new(), Vec::new(), Vec::new());
    let mut identical = true;
    let mut first = None;
    while r.reps < 2 || secs(started.elapsed()) < seconds {
        let plain = home::run(shape, seed, UNTRACED);
        plain_wall.push(secs(plain.setup + plain.timed));
        trace::install(trace::Tracer::new(if r.reps == 0 { SPANS_KEPT } else { 0 }));
        alloc::set_enabled(true);
        let run = home::run(shape, seed, TRACED);
        alloc::set_enabled(false);
        let tracer = trace::take().expect("tracer installed");
        traced_wall.push(secs(run.setup + run.timed));
        // Wrapping the driver and backends and enabling the recorder
        // must not change what the program does.
        identical &= run.outcome == plain.outcome;
        let mut t = Traced {
            delivered: run.outcome.unique_delivered,
            dispatches: run.dispatches,
            messages: run.outcome.net.0,
            timers: run.outcome.net.1,
            obs: run.obs.clone(),
            backend: run.backend,
            reopen: run.reopen.clone(),
            actuator: run.actuator_commands,
            fanout: run.fanout,
            ..Traced::default()
        };
        t.absorb_spans(&tracer);
        samples.push(layers::metrics(&t));
        if r.reps == 0 {
            *spans_out = Some(tracer.spans_json());
            first = Some(run);
        }
        r.reps += 1;
    }
    let first = first.expect("at least one repetition");
    r.metrics = median_metrics(&samples);
    let (app, mix) = home::kernel_inputs(shape);
    let events = kernels::batch(&mix, seed);
    if !shape.durable {
        recovery_stand_in(&mut r, &events, seed);
    }
    kernel_metrics(&mut r, &Arc::new(app), &events, seed);
    r.metrics
        .push(metric("fleet.home_ms", "ms", median(&plain_wall) * 1e3));
    r.metrics.push(overhead(&plain_wall, &traced_wall));
    home_tallies(&mut r, &first.outcome);
    r.check("tracing_leaves_results_unchanged", identical);
    r
}

/// Median traced wall ÷ median untraced wall − 1.
fn overhead(plain_wall: &[f64], traced_wall: &[f64]) -> Metric {
    metric(
        "trace.overhead_frac",
        "ratio",
        median(traced_wall) / median(plain_wall) - 1.0,
    )
}

/// Per-metric medians over the traced repetitions.
fn median_metrics(samples: &[Vec<(&'static str, &'static str, f64)>]) -> Vec<Metric> {
    samples[0]
        .iter()
        .enumerate()
        .map(|(i, (name, unit, _))| {
            let values: Vec<f64> = samples.iter().map(|s| s[i].2).collect();
            metric(name, unit, median(&values))
        })
        .collect()
}

fn recovery_stand_in(r: &mut Report, events: &[rivulet_types::Event], seed: u64) {
    let (ms, bytes) = kernels::recovery(events, seed);
    for m in &mut r.metrics {
        match m.name {
            "storage.recovery_ms" => m.value = ms,
            "storage.recovery_read_bytes" => m.value = bytes as f64,
            _ => {}
        }
    }
}

fn kernel_metrics(
    r: &mut Report,
    app: &Arc<rivulet_core::app::AppSpec>,
    events: &[rivulet_types::Event],
    seed: u64,
) {
    for (name, ns) in kernels::run(app, events, seed) {
        r.metrics.push(metric(name, "ns", ns));
    }
}

/// Interpolated percentile of a log2-bucketed histogram: the rank's
/// position inside its bucket, spread linearly over the bucket's range.
fn histogram_percentile(buckets: &[(u64, u64)], p: f64) -> f64 {
    let total: u64 = buckets.iter().map(|(_, n)| n).sum();
    let rank = (p * total as f64 / 100.0).ceil().max(1.0);
    let mut below = 0.0;
    for (upper, n) in buckets {
        let n = *n as f64;
        if below + n >= rank {
            let lower = if *upper == 0 {
                0.0
            } else {
                (*upper / 2) as f64
            };
            return lower + (*upper as f64 - lower) * (rank - below) / n;
        }
        below += n;
    }
    0.0
}

/// `--trace 0` on `fleet_sweep`.
fn fleet_end_to_end(seed: u64, seconds: f64) -> Report {
    let started = Instant::now();
    let setup_only = || {
        let t = Instant::now();
        std::hint::black_box(fleet::manifest(seed));
        secs(t.elapsed())
    };
    let first = fleet::run(seed);
    let o = &first.outcome;
    let delivered = o.events_delivered();
    let json = o.merged.to_json();
    let mut timed = vec![secs(first.timed)];
    let mut setups = vec![secs(first.setup)];
    let mut identical = true;
    while timed.len() < MIN_REPS || secs(started.elapsed()) < seconds {
        let run = fleet::run(seed);
        identical &= run.outcome.homes == o.homes && run.outcome.merged.to_json() == json;
        timed.push(secs(run.timed));
        setups.push(secs(run.setup));
        setups.push(setup_only());
    }
    while setups.len() < SETUP_SAMPLES {
        setups.push(setup_only());
    }
    let mut r = Report {
        reps: timed.len(),
        ..Report::default()
    };
    let rates: Vec<f64> = timed.iter().map(|t| delivered as f64 / t).collect();
    r.metrics
        .push(metric("throughput_eps", "events/s", median(&rates)));
    let delays = o
        .merged
        .histogram("app.delay_us")
        .map(rivulet_obs::Histogram::nonzero_buckets)
        .unwrap_or_default();
    let samples: u64 = delays.iter().map(|(_, n)| n).sum();
    for (name, p) in [("deliver_p50_ms", 50.0), ("deliver_p99_ms", 99.0)] {
        r.metrics
            .push(metric(name, "ms", histogram_percentile(&delays, p) / 1e3));
    }
    r.info
        .push(metric("deliver_samples", "count", samples as f64));
    r.check(
        "deliver_p99_ms_has_10_samples_beyond",
        samples >= MIN_SAMPLES as u64,
    );
    r.metrics.push(metric(
        "wifi_bytes_per_event",
        "B",
        ratio(o.merged.counter("net.wifi_bytes") as f64, delivered as f64),
    ));
    r.metrics.push(metric("setup_s", "s", median(&setups)));
    r.metrics
        .push(metric("peak_rss_mib", "MiB", peak_rss_mib()));
    fleet_tallies(&mut r, o);
    r.check("virtual_results_identical_across_repetitions", identical);
    r
}

fn fleet_tallies(r: &mut Report, o: &rivulet_fleet::executor::FleetOutcome) {
    r.attempted = o.homes.len() as u64;
    r.failed = o.homes_failed();
    let failover: Vec<f64> = o
        .merged
        .spans_named("failover")
        .iter()
        .filter_map(|s| s.duration())
        .map(|d| d.as_micros() as f64 / 1e3)
        .collect();
    r.info.extend([
        metric("failover_ms", "ms", median(&failover)),
        metric(
            "failed_fraction",
            "ratio",
            ratio(r.failed as f64, r.attempted as f64),
        ),
        metric("homes", "homes", o.homes.len() as f64),
        metric("events_emitted", "events", o.events_emitted() as f64),
        metric("events_delivered", "events", o.events_delivered() as f64),
    ]);
    r.check("fleet_homes_failed_zero", o.homes_failed() == 0);
}

/// `--trace 1` on `fleet_sweep`: every home of the manifest through
/// the wrapped copy of the fleet's home runner.
fn fleet_layers(seed: u64, seconds: f64, spans_out: &mut Option<String>) -> Report {
    let started = Instant::now();
    let mut r = Report::default();
    let (_, specs) = fleet::manifest(seed);
    let (mut plain_wall, mut traced_wall, mut samples) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    let mut identical = true;
    while r.reps < 2 || secs(started.elapsed()) < seconds {
        let plain = fleet::run(seed);
        plain_wall.push(secs(plain.setup + plain.timed));
        let clock = Instant::now();
        trace::install(trace::Tracer::new(if r.reps == 0 { SPANS_KEPT } else { 0 }));
        alloc::set_enabled(true);
        let counts = Arc::new(wrap::BackendCounts::default());
        let mut t = Traced::default();
        let mut disks = Vec::new();
        for (spec, summary) in specs.iter().zip(&plain.outcome.homes) {
            let cfg = spec.params.to_scenario(spec.seed);
            let home = fleet::run_scenario(&cfg, true, &counts);
            let m = home.net.metrics();
            let delivered = home.app.unique_delivered() as u64;
            identical &= delivered == summary.delivered;
            t.delivered += delivered;
            t.dispatches += home.dispatches;
            t.messages += m.messages_delivered;
            t.timers += m.timers_fired;
            let f = m.fanout.snapshot();
            t.fanout.0 += f.frames_coalesced;
            t.fanout.1 += f.acks_avoided;
            t.obs.merge(&home.net.obs_snapshot());
            t.actuator.0 += home.anchor.commands_received() + home.anchor.staged_held();
            t.actuator.1 += home.anchor.effect_count() as u64;
            disks.extend(home.disks);
        }
        alloc::set_enabled(false);
        let tracer = trace::take().expect("tracer installed");
        traced_wall.push(secs(clock.elapsed()));
        t.reopen = disks
            .iter()
            .filter_map(|d| home::reopen(d).map(|(ms, bytes, _)| (ms, bytes)))
            .collect();
        t.backend = counts.totals();
        t.absorb_spans(&tracer);
        samples.push(layers::metrics(&t));
        if r.reps == 0 {
            *spans_out = Some(tracer.spans_json());
            first = Some(plain);
        }
        r.reps += 1;
    }
    let first = first.expect("at least one repetition");
    r.metrics = median_metrics(&samples);
    let (app, mix) = fleet::kernel_inputs();
    let events = kernels::batch(&mix, seed);
    kernel_metrics(&mut r, &Arc::new(app), &events, seed);
    let homes = specs.len() as f64;
    r.metrics.push(metric(
        "fleet.home_ms",
        "ms",
        median(&plain_wall) * 1e3 / homes,
    ));
    r.metrics.push(overhead(&plain_wall, &traced_wall));
    fleet_tallies(&mut r, &first.outcome);
    r.check("tracing_leaves_results_unchanged", identical);
    r
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn render(args: &Args, r: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {} seed {} trace {} repetitions {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        r.reps
    );
    for m in r.metrics.iter().chain(&r.info) {
        let _ = writeln!(out, "  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (name, ok) in &r.checks {
        let _ = writeln!(out, "  check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    );
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut spans = None;
    let report = match (args.workload.as_str(), args.trace) {
        ("fleet_sweep", false) => fleet_end_to_end(args.seed, args.seconds),
        ("fleet_sweep", true) => fleet_layers(args.seed, args.seconds, &mut spans),
        (w, false) => home_end_to_end(&home_shape(w), args.seed, args.seconds),
        (w, true) => home_layers(&home_shape(w), args.seed, args.seconds, &mut spans),
    };
    let text = render(&args, &report);
    if let Some(spans) = spans {
        let stem = args.out.join(format!("{}-{}", args.workload, args.seed));
        let written = std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(stem.with_extension("spans.json"), spans))
            .and_then(|()| std::fs::write(stem.with_extension("layers.txt"), &text));
        if let Err(e) = written {
            eprintln!(
                "perfbench: cannot write traced output under {}: {e}",
                args.out.display()
            );
            return ExitCode::from(2);
        }
    }
    print!("{text}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
