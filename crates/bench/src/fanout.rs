//! Fan-out throughput workloads behind `BENCH_fanout.json`.
//!
//! Two layers of measurement:
//!
//! - **Micro**: the per-activation encode path in isolation. The
//!   *naive* variant re-encodes every protocol message once per peer
//!   and sends each unframed — exactly what the process actor did
//!   before encode-once fan-out landed. The *coalesced* variant
//!   encodes each message once into pooled buffers and assembles one
//!   multi-command frame per destination from the shared parts. Both
//!   run in the same binary so the comparison is apples-to-apples.
//! - **Sim**: whole-platform runs of the §8 delivery scenario (ring
//!   and the broadcast-heavy baseline) with the optimizations toggled
//!   on and off, reporting host-side throughput, per-event network
//!   bytes, and the coalescing counters.

use std::time::Instant;

use bytes::Bytes;
use rivulet_core::config::{AckMode, ForwardingMode};
use rivulet_core::delivery::Delivery;
use rivulet_core::messages::{Frame, ProcMsg};
use rivulet_net::metrics::FanoutSnapshot;
use rivulet_obs::Recorder;
use rivulet_types::wire::{Wire, WriterPool};
use rivulet_types::{Duration, Event, EventId, EventKind, Payload, ProcessId, SensorId, Time};

use crate::common::{background_wifi_bytes, run_delivery, DeliveryScenario};

/// One micro-workload shape: an actor activation that must fan
/// `batch` broadcast messages out to `peers` destinations.
#[derive(Debug, Clone, Copy)]
pub struct MicroWorkload {
    /// Fan-out destinations per activation.
    pub peers: usize,
    /// Messages bound for each destination within one activation.
    pub batch: usize,
    /// Event payload blob size.
    pub payload_bytes: usize,
}

impl MicroWorkload {
    /// The broadcast-heavy shape: a 5-process home (4 peers) where a
    /// burst of 1 KiB camera events floods within one activation.
    #[must_use]
    pub fn broadcast_heavy() -> Self {
        Self {
            peers: 4,
            batch: 4,
            payload_bytes: 1024,
        }
    }

    /// The ring shape: one forward per activation, small payload.
    #[must_use]
    pub fn ring() -> Self {
        Self {
            peers: 1,
            batch: 1,
            payload_bytes: 8,
        }
    }
}

/// Builds the `batch` broadcast messages of one activation,
/// deterministic in `activation`.
#[must_use]
pub fn activation_msgs(w: &MicroWorkload, activation: u64) -> Vec<ProcMsg> {
    (0..w.batch as u64)
        .map(|i| {
            let seq = activation * w.batch as u64 + i;
            let payload = if w.payload_bytes > 8 {
                Payload::Blob(Bytes::from(vec![(seq & 0xff) as u8; w.payload_bytes]))
            } else {
                Payload::Scalar(seq as f64)
            };
            ProcMsg::Broadcast {
                event: Event::with_payload(
                    EventId::new(SensorId(1), seq),
                    EventKind::Image,
                    payload,
                    Time::from_millis(seq),
                ),
                origin: ProcessId(0),
            }
        })
        .collect()
}

/// The pre-optimization send path: every message is encoded afresh for
/// every peer and shipped unframed. Returns total payload bytes
/// produced (consumed by the caller so the work cannot be optimized
/// away).
#[must_use]
pub fn fan_out_naive(msgs: &[ProcMsg], peers: usize) -> u64 {
    let mut bytes = 0u64;
    for _ in 0..peers {
        for msg in msgs {
            bytes += msg.to_bytes().len() as u64;
        }
    }
    bytes
}

/// The optimized send path: each message is encoded once into a pooled
/// buffer; every destination receives cheap clones of the shared
/// parts, folded into one multi-command frame when the activation
/// queued more than one. A flood hands every destination the same
/// parts, so (as in the process outbox) the frame itself is assembled
/// once and cheap-cloned per peer.
///
/// The path carries a [`Recorder`] exactly where the production outbox
/// does; the micro benchmark passes a *disabled* recorder, which is
/// how the "disabled recorder is a no-op" claim is verified — the
/// measured throughput must stay within noise of the uninstrumented
/// baseline in `BENCH_fanout.json`.
#[must_use]
pub fn fan_out_coalesced(
    msgs: &[ProcMsg],
    peers: usize,
    pool: &mut WriterPool,
    obs: &Recorder,
) -> u64 {
    let parts: Vec<Bytes> = msgs.iter().map(|m| pool.encode(m)).collect();
    let mut bytes = 0u64;
    if parts.len() == 1 {
        for _ in 0..peers {
            bytes += parts[0].clone().len() as u64;
            obs.inc("fanout.sends");
        }
        obs.add("fanout.bytes", bytes);
        return bytes;
    }
    let mut w = pool.checkout();
    let framed = Frame::encode_parts(&mut w, &parts);
    pool.put_back(w);
    for _ in 0..peers {
        bytes += framed.clone().len() as u64;
        obs.inc("fanout.sends");
    }
    obs.add("fanout.bytes", bytes);
    obs.observe("fanout.frame_bytes", framed.len() as u64);
    bytes
}

/// Result of timing one micro variant.
#[derive(Debug, Clone, Copy)]
pub struct MicroPoint {
    /// Broadcast events fanned out per wall-clock second.
    pub events_per_sec: f64,
    /// Network payload bytes emitted per event.
    pub bytes_per_event: f64,
}

/// Times `activations` activations of `w` through one of the two send
/// paths (`coalesced` selects which). Message construction happens
/// outside the timed region — only the send path is measured.
#[must_use]
pub fn run_micro(w: &MicroWorkload, activations: u64, coalesced: bool) -> MicroPoint {
    let mut pool = WriterPool::new();
    // A disabled recorder on the timed path: the instrumentation cost
    // the production outbox pays when observability is off.
    let obs = Recorder::default();
    // A small rotation of pre-built activations keeps cache effects
    // realistic without timing event construction itself.
    let prebuilt: Vec<Vec<ProcMsg>> = (0..8).map(|a| activation_msgs(w, a)).collect();
    let mut total_bytes = 0u64;
    let start = Instant::now();
    for a in 0..activations {
        let msgs = &prebuilt[(a % prebuilt.len() as u64) as usize];
        total_bytes += if coalesced {
            fan_out_coalesced(msgs, w.peers, &mut pool, &obs)
        } else {
            fan_out_naive(msgs, w.peers)
        };
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let events = activations * w.batch as u64;
    MicroPoint {
        events_per_sec: events as f64 / elapsed,
        bytes_per_event: total_bytes as f64 / events as f64,
    }
}

/// Which whole-platform scenario a sim point runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// Ring forwarding, failure-free.
    Ring,
    /// Ring forwarding with the application-bearing process crashing
    /// mid-run — exercises the reliable-broadcast fallback and its
    /// acknowledgement traffic.
    RingCrash,
    /// The eager-broadcast baseline (broadcast-heavy).
    Broadcast,
}

impl SimWorkload {
    /// Short label used in tables and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Ring => "ring",
            Self::RingCrash => "ring_crash",
            Self::Broadcast => "broadcast",
        }
    }
}

/// Result of one whole-platform simulation point.
#[derive(Debug, Clone)]
pub struct SimPoint {
    /// Scenario label (`ring` / `ring_crash` / `broadcast`).
    pub workload: &'static str,
    /// Whether coalescing + cumulative acks were enabled.
    pub optimized: bool,
    /// Events the sensor emitted.
    pub emitted: u64,
    /// Distinct events delivered to the application.
    pub delivered: usize,
    /// Host-side throughput: delivered events per wall-clock second of
    /// simulation execution.
    pub events_per_sec: f64,
    /// Inter-process bytes per delivered event, background subtracted.
    pub bytes_per_event: f64,
    /// Coalescing counters recorded during the run.
    pub fanout: FanoutSnapshot,
}

/// The §8 scenario used for the sim points: 1 KiB events at 50/s for
/// 60 virtual seconds on a five-process home.
#[must_use]
pub fn sim_scenario(workload: SimWorkload, optimized: bool) -> DeliveryScenario {
    let mut cfg = DeliveryScenario::paper_default(Delivery::Gapless);
    cfg.event_bytes = 1024;
    cfg.rate_per_sec = 50;
    cfg.duration = Duration::from_secs(60);
    cfg.forwarding = if workload == SimWorkload::Broadcast {
        ForwardingMode::EagerBroadcast
    } else {
        ForwardingMode::Ring
    };
    if workload == SimWorkload::RingCrash {
        cfg.crash_app_at = Some(Time::ZERO + Duration::from_secs(20));
    }
    cfg.coalescing = optimized;
    cfg.ack_mode = if optimized {
        AckMode::Cumulative
    } else {
        AckMode::PerEvent
    };
    // The baseline twin also pins the fixed group-commit bound.
    cfg.wal_adaptive = optimized;
    cfg
}

/// Runs one sim point best-of-3 (see [`run_sim_point_best_of`]).
#[must_use]
pub fn run_sim_point(workload: SimWorkload, optimized: bool) -> SimPoint {
    run_sim_point_best_of(workload, optimized, 3)
}

/// Runs one sim point `runs` times and keeps the fastest repetition.
///
/// The simulation itself is deterministic (same seed → identical
/// deliveries, bytes, and counters); only the host wall clock varies,
/// and single-run timings are noisy enough to flip an
/// optimized-vs-unoptimized comparison. Best-of-N is the standard cure
/// (the micro bench already uses it): the minimum elapsed time is the
/// least-interfered-with measurement of the same fixed work.
#[must_use]
pub fn run_sim_point_best_of(workload: SimWorkload, optimized: bool, runs: usize) -> SimPoint {
    let mut cfg = sim_scenario(workload, optimized);
    cfg.obs = true;
    let background = background_wifi_bytes(&cfg);
    let mut best: Option<SimPoint> = None;
    for _ in 0..runs.max(1) {
        let point = run_sim_rep(&cfg, workload, optimized, background);
        if best
            .as_ref()
            .is_none_or(|b| point.events_per_sec > b.events_per_sec)
        {
            best = Some(point);
        }
    }
    best.expect("at least one run")
}

/// Runs a workload's unoptimized/optimized twins with *interleaved*
/// repetitions and returns `(unoptimized, optimized)` best points.
///
/// Best-of-N blocks run back to back are still fooled by host noise
/// that spans a whole block (frequency scaling, a neighbour burning
/// the core for a second): whichever twin lands in the slow phase
/// loses by 20% regardless of the code. Alternating single
/// repetitions exposes both twins to the same noise distribution, so
/// the best-of ratio measures the code, not the scheduler. The
/// `--assert-baseline` twin gates compare points from this runner.
#[must_use]
pub fn run_sim_twin(workload: SimWorkload, runs: usize) -> (SimPoint, SimPoint) {
    let mut twins: Vec<(DeliveryScenario, u64, Option<SimPoint>)> = [false, true]
        .into_iter()
        .map(|optimized| {
            let mut cfg = sim_scenario(workload, optimized);
            cfg.obs = true;
            let background = background_wifi_bytes(&cfg);
            (cfg, background, None)
        })
        .collect();
    for _ in 0..runs.max(1) {
        for (optimized, (cfg, background, best)) in [false, true].into_iter().zip(&mut twins) {
            let point = run_sim_rep(cfg, workload, optimized, *background);
            if best
                .as_ref()
                .is_none_or(|b: &SimPoint| point.events_per_sec > b.events_per_sec)
            {
                *best = Some(point);
            }
        }
    }
    let optimized = twins.pop().and_then(|t| t.2).expect("at least one run");
    let unoptimized = twins.pop().and_then(|t| t.2).expect("at least one run");
    (unoptimized, optimized)
}

/// One timed repetition of a prepared scenario.
fn run_sim_rep(
    cfg: &DeliveryScenario,
    workload: SimWorkload,
    optimized: bool,
    background: u64,
) -> SimPoint {
    let start = Instant::now();
    let out = run_delivery(cfg);
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let foreground = out.obs.counter("net.wifi_bytes").saturating_sub(background);
    SimPoint {
        workload: workload.label(),
        optimized,
        emitted: out.emitted,
        delivered: out.unique_delivered,
        events_per_sec: out.unique_delivered as f64 / elapsed,
        bytes_per_event: foreground as f64 / out.unique_delivered.max(1) as f64,
        fanout: out.fanout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_paths_agree_on_message_count_semantics() {
        let w = MicroWorkload::broadcast_heavy();
        let msgs = activation_msgs(&w, 0);
        assert_eq!(msgs.len(), w.batch);
        let mut pool = WriterPool::new();
        let naive = fan_out_naive(&msgs, w.peers);
        let coalesced = fan_out_coalesced(&msgs, w.peers, &mut pool, &Recorder::default());
        // Coalescing adds frame framing but removes nothing: the byte
        // totals stay within the frame-overhead margin of each other.
        assert!(naive > 0 && coalesced > 0);
        assert!(
            coalesced < naive + (w.peers * 64) as u64,
            "coalesced {coalesced} vs naive {naive}"
        );
    }

    #[test]
    fn single_message_ring_shape_sends_unframed() {
        let w = MicroWorkload::ring();
        let msgs = activation_msgs(&w, 3);
        let mut pool = WriterPool::new();
        // One part → no frame: byte-for-byte the plain encoding.
        assert_eq!(
            fan_out_coalesced(&msgs, w.peers, &mut pool, &Recorder::default()),
            msgs[0].to_bytes().len() as u64
        );
    }

    #[test]
    fn disabled_recorder_observes_nothing_enabled_recorder_counts_sends() {
        let w = MicroWorkload::broadcast_heavy();
        let msgs = activation_msgs(&w, 0);
        let mut pool = WriterPool::new();
        let off = Recorder::default();
        let _ = fan_out_coalesced(&msgs, w.peers, &mut pool, &off);
        assert_eq!(off.snapshot(), rivulet_obs::ObsSnapshot::default());
        let on = Recorder::default();
        on.set_enabled(true);
        let bytes = fan_out_coalesced(&msgs, w.peers, &mut pool, &on);
        let snap = on.snapshot();
        assert_eq!(snap.counter("fanout.sends"), w.peers as u64);
        assert_eq!(snap.counter("fanout.bytes"), bytes);
    }

    #[test]
    fn optimized_sim_point_records_savings() {
        let mut cfg = sim_scenario(SimWorkload::Broadcast, true);
        cfg.duration = Duration::from_secs(10);
        let out = run_delivery(&cfg);
        assert!(
            out.fanout.encode_bytes_saved > 0,
            "broadcast fan-out should reuse encodings: {:?}",
            out.fanout
        );
        assert!(
            out.fanout.frames_coalesced > 0,
            "same-destination traffic should coalesce: {:?}",
            out.fanout
        );
    }
}
