//! Per-layer metrics of a traced run, computed from the span totals,
//! the wrapped backends' counters and the program's own
//! `ObsSnapshot` counters.

use rivulet_obs::{Histogram, ObsSnapshot};

use crate::stats::ratio;
use crate::trace::{LayerTotals, Tracer};
use crate::wrap::BackendTotals;

/// Everything one traced run (one home, or a whole fleet) yields.
#[derive(Debug, Default)]
pub struct Traced {
    /// Span totals by name.
    pub spans: Vec<(&'static str, LayerTotals)>,
    /// Distinct app-delivered events: the "per event" denominator.
    pub delivered: u64,
    /// Events `run_until` dispatched.
    pub dispatches: u64,
    /// Messages the driver delivered.
    pub messages: u64,
    /// Timers the driver fired.
    pub timers: u64,
    /// The program's observability snapshot (merged over homes).
    pub obs: ObsSnapshot,
    /// Wrapped-backend totals.
    pub backend: BackendTotals,
    /// `(wall ms, bytes read)` of each log reopen.
    pub reopen: Vec<(f64, u64)>,
    /// Actuator commands and stage frames received, and effects applied.
    pub actuator: (u64, u64),
    /// Frames coalesced and acks avoided on the send path.
    pub fanout: (u64, u64),
}

impl Traced {
    /// Folds `tracer`'s totals into this run.
    pub fn absorb_spans(&mut self, tracer: &Tracer) {
        for (name, t) in tracer.totals() {
            match self.spans.iter_mut().find(|(n, _)| n == name) {
                Some((_, acc)) => {
                    acc.count += t.count;
                    acc.total_ns += t.total_ns;
                    acc.self_ns += t.self_ns;
                    acc.self_allocs += t.self_allocs;
                    acc.self_bytes += t.self_bytes;
                }
                None => self.spans.push((name, *t)),
            }
        }
    }

    fn span(&self, name: &str) -> LayerTotals {
        self.spans
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }

    /// Sum of every span whose name starts with `prefix`.
    fn prefixed(&self, prefix: &str) -> LayerTotals {
        let mut acc = LayerTotals::default();
        for (_, t) in self.spans.iter().filter(|(n, _)| n.starts_with(prefix)) {
            acc.count += t.count;
            acc.total_ns += t.total_ns;
            acc.self_ns += t.self_ns;
            acc.self_allocs += t.self_allocs;
            acc.self_bytes += t.self_bytes;
        }
        acc
    }
}

/// Per-layer metric names, units and values of a traced run. The
/// time-valued ones are per-run measurements; the benchmark reports
/// their median over the run's traced repetitions.
#[must_use]
pub fn metrics(t: &Traced) -> Vec<(&'static str, &'static str, f64)> {
    let per_event = |n: u64| ratio(n as f64, t.delivered as f64);
    let net = t.span("net.sim");
    let sim_ns = net.total_ns as f64;
    let msg = t.span("process.msg");
    let timer = t.span("process.timer");
    let process = t.prefixed("process.");
    let devices = t.prefixed("device.");
    let storage = t.prefixed("storage.");
    let c = |name: &str| t.obs.counter(name) as f64;
    let max = |name: &str| t.obs.histogram(name).and_then(Histogram::max).unwrap_or(0) as f64;
    let reopen_ms = crate::stats::median(&t.reopen.iter().map(|r| r.0).collect::<Vec<_>>());
    let reopen_bytes =
        crate::stats::median(&t.reopen.iter().map(|r| r.1 as f64).collect::<Vec<_>>());
    vec![
        ("net.sim.self_ns_per_event", "ns", per_event(net.self_ns)),
        (
            "net.sim.dispatches_per_event",
            "count",
            per_event(t.dispatches),
        ),
        ("net.messages_per_event", "count", per_event(t.messages)),
        ("net.timers_per_event", "count", per_event(t.timers)),
        (
            "core.process.msg_ns",
            "ns",
            ratio(msg.self_ns as f64, msg.count as f64),
        ),
        ("core.process.msgs_per_event", "count", per_event(msg.count)),
        (
            "core.process.timer_ns",
            "ns",
            ratio(timer.self_ns as f64, timer.count as f64),
        ),
        (
            "core.process.busy_share",
            "ratio",
            ratio(process.total_ns as f64, sim_ns),
        ),
        (
            "core.process.allocs_per_event",
            "count",
            per_event(process.self_allocs),
        ),
        (
            "core.process.alloc_bytes_per_event",
            "B",
            per_event(process.self_bytes),
        ),
        (
            "devices.busy_share",
            "ratio",
            ratio(devices.total_ns as f64, sim_ns),
        ),
        (
            "devices.actuator.wasted_ratio",
            "ratio",
            ratio(t.actuator.0 as f64, t.actuator.1 as f64),
        ),
        (
            "delivery.app_duplicate_ratio",
            "ratio",
            ratio(c("app.deliveries"), t.delivered as f64),
        ),
        (
            "delivery.acks_avoided_per_event",
            "count",
            per_event(t.fanout.1),
        ),
        (
            "delivery.coalesced_per_event",
            "count",
            per_event(t.fanout.0),
        ),
        (
            "delivery.rbcast_pending_max",
            "count",
            max("rbcast.pending"),
        ),
        ("store.len_max", "count", max("store.len")),
        (
            "ring.mean_batch",
            "count",
            ratio(c("ring.pops"), c("ring.batches")),
        ),
        (
            "arena.recycle_ratio",
            "ratio",
            ratio(c("arena.recycled"), c("arena.recycled") + c("arena.chunks")),
        ),
        (
            "storage.appends_per_event",
            "count",
            per_event(t.backend.appends),
        ),
        (
            "storage.append_bytes_per_event",
            "B",
            per_event(t.backend.append_bytes),
        ),
        (
            "storage.syncs_per_event",
            "count",
            per_event(t.backend.syncs),
        ),
        (
            "storage.busy_share",
            "ratio",
            ratio(storage.total_ns as f64, sim_ns),
        ),
        ("storage.recovery_read_bytes", "B", reopen_bytes),
        ("storage.recovery_ms", "ms", reopen_ms),
        (
            "wal.forced_flushes_per_event",
            "count",
            per_event(t.obs.counter("wal.forced_flushes")),
        ),
        (
            "routine.commit_ratio",
            "ratio",
            ratio(c("routine.committed"), c("routine.triggered")),
        ),
        (
            "ledger.appends_per_commit",
            "count",
            ratio(c("ledger.appends"), c("routine.committed")),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_shares_and_rates_come_from_span_totals() {
        let mut tr = Tracer::new(0);
        // One 100 ns run_until holding a 40 ns process message (10 ns
        // of it in a storage append) and a 20 ns device activation.
        tr.enter_at("net.sim", None, 0, (0, 0));
        tr.enter_at("process.msg", None, 10, (0, 0));
        tr.enter_at("storage.append", None, 20, (0, 0));
        tr.exit_at(30, (0, 0));
        tr.exit_at(50, (4, 64));
        tr.enter_at("device.msg", None, 60, (4, 64));
        tr.exit_at(80, (4, 64));
        tr.exit_at(100, (4, 64));
        let mut t = Traced {
            delivered: 2,
            ..Traced::default()
        };
        t.absorb_spans(&tr);
        let m = metrics(&t);
        let get = |name: &str| m.iter().find(|(n, _, _)| *n == name).unwrap().2;
        assert_eq!(get("net.sim.self_ns_per_event"), 20.0, "(100-40-20)/2");
        assert_eq!(get("core.process.msg_ns"), 30.0, "40 minus 10 in storage");
        assert_eq!(get("core.process.busy_share"), 0.4);
        assert_eq!(get("devices.busy_share"), 0.2);
        assert_eq!(get("storage.busy_share"), 0.1);
        assert_eq!(get("core.process.allocs_per_event"), 2.0);
        assert_eq!(get("core.process.alloc_bytes_per_event"), 32.0);
        assert_eq!(get("storage.syncs_per_event"), 0.0, "idle layer reads 0");
    }
}
