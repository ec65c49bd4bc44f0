//! Outside-in instrumentation: a [`Driver`] that wraps every actor the
//! home deploys, and a [`StorageBackend`] that wraps each process's
//! disk. Both only observe — they forward every call unchanged, draw
//! nothing from the driver RNG and add no effects — so a wrapped run
//! is byte-identical to an unwrapped one (see the crate's tests).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use rivulet_core::deploy::Driver;
use rivulet_core::messages::{Frame, ProcMsg};
use rivulet_devices::RadioFrame;
use rivulet_net::actor::{Actor, ActorEvent, ActorId, Context};
use rivulet_net::link::ActorClass;
use rivulet_net::metrics::FanoutStats;
use rivulet_net::sim::SimNet;
use rivulet_obs::Recorder;
use rivulet_storage::backend::Result;
use rivulet_storage::{SegmentId, StorageBackend};
use rivulet_types::wire::Wire;
use rivulet_types::EventId;

use crate::trace;

/// A [`Driver`] over a [`SimNet`] whose actors run inside spans:
/// `process.msg` / `process.timer` / `process.start` for Rivulet
/// processes, `device.*` for sensors and actuators.
pub struct TracingDriver<'a> {
    net: &'a mut SimNet,
    /// Process actors registered so far. `HomeBuilder` registers every
    /// process before any device, so process actor ids are exactly
    /// `0..processes`.
    processes: Arc<AtomicU32>,
}

impl<'a> TracingDriver<'a> {
    /// Wraps `net` for the duration of a home build.
    pub fn new(net: &'a mut SimNet) -> Self {
        Self {
            net,
            processes: Arc::new(AtomicU32::new(0)),
        }
    }
}

impl Driver for TracingDriver<'_> {
    fn add_boxed_actor(
        &mut self,
        name: &str,
        class: ActorClass,
        mut factory: Box<dyn FnMut() -> Box<dyn Actor> + Send>,
    ) -> ActorId {
        let process = class == ActorClass::Process;
        if process {
            self.processes.fetch_add(1, Ordering::Relaxed);
        }
        let processes = Arc::clone(&self.processes);
        self.net.add_actor(name, class, move || {
            Box::new(TracedActor {
                inner: factory(),
                process,
                processes: Arc::clone(&processes),
            })
        })
    }

    fn fanout_stats(&self) -> Arc<FanoutStats> {
        Arc::clone(&self.net.metrics().fanout)
    }

    fn recorder(&self) -> Recorder {
        self.net.recorder()
    }
}

struct TracedActor {
    inner: Box<dyn Actor>,
    process: bool,
    processes: Arc<AtomicU32>,
}

impl Actor for TracedActor {
    fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
        let (name, id) = match (&event, self.process) {
            (ActorEvent::Message { from, payload }, true) => {
                let from_peer = from.0 < self.processes.load(Ordering::Relaxed);
                ("process.msg", carried_event(from_peer, payload))
            }
            (ActorEvent::Timer { .. }, true) => ("process.timer", None),
            (ActorEvent::Start, true) => ("process.start", None),
            (ActorEvent::Message { .. }, false) => ("device.msg", None),
            (ActorEvent::Timer { .. }, false) => ("device.timer", None),
            (ActorEvent::Start, false) => ("device.start", None),
        };
        trace::enter(name, id);
        self.inner.on_event(ctx, event);
        trace::exit();
    }
}

/// The event a process-bound payload carries: the first event of a
/// peer's protocol message or coalesced frame, or a sensor's radio
/// event.
fn carried_event(from_peer: bool, payload: &[u8]) -> Option<EventId> {
    if !trace::is_active() {
        return None;
    }
    let of_msg = |m: &ProcMsg| match m {
        ProcMsg::Ring { event, .. }
        | ProcMsg::Broadcast { event, .. }
        | ProcMsg::GapForward { event } => Some(event.id),
        _ => None,
    };
    if !from_peer {
        return match RadioFrame::from_bytes(payload) {
            Ok(RadioFrame::Event(e)) => Some(e.id),
            _ => None,
        };
    }
    if Frame::sniff(payload) {
        return Frame::from_bytes(payload)
            .ok()
            .and_then(|f| f.msgs.iter().find_map(of_msg));
    }
    match ProcMsg::from_bytes(payload) {
        Ok(m) => of_msg(&m),
        Err(_) => None,
    }
}

/// Counters of wrapped backends (several backends may share one).
#[derive(Debug, Default)]
pub struct BackendCounts {
    appends: AtomicU64,
    append_bytes: AtomicU64,
    syncs: AtomicU64,
    read_bytes: AtomicU64,
}

/// A snapshot of [`BackendCounts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendTotals {
    /// `append` calls.
    pub appends: u64,
    /// Bytes passed to `append`.
    pub append_bytes: u64,
    /// `sync` calls (fsyncs).
    pub syncs: u64,
    /// Bytes returned by `read_segment`.
    pub read_bytes: u64,
}

impl BackendCounts {
    /// The current totals.
    #[must_use]
    pub fn totals(&self) -> BackendTotals {
        BackendTotals {
            appends: self.appends.load(Ordering::Relaxed),
            append_bytes: self.append_bytes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
        }
    }
}

/// A [`StorageBackend`] that counts and times every call into the
/// backend it wraps (`storage.append`, `storage.sync`, `storage.read`,
/// `storage.meta` spans).
pub struct TracedBackend {
    inner: Arc<dyn StorageBackend>,
    counts: Arc<BackendCounts>,
}

impl TracedBackend {
    /// Wraps `inner`, reporting into `counts`.
    pub fn new(inner: Arc<dyn StorageBackend>, counts: Arc<BackendCounts>) -> Self {
        Self { inner, counts }
    }
}

impl StorageBackend for TracedBackend {
    fn create_segment(&self, id: SegmentId) -> Result<()> {
        trace::span("storage.meta", || self.inner.create_segment(id))
    }

    fn append(&self, id: SegmentId, data: &[u8]) -> Result<()> {
        self.counts.appends.fetch_add(1, Ordering::Relaxed);
        self.counts
            .append_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        trace::span("storage.append", || self.inner.append(id, data))
    }

    fn sync(&self, id: SegmentId) -> Result<()> {
        self.counts.syncs.fetch_add(1, Ordering::Relaxed);
        trace::span("storage.sync", || self.inner.sync(id))
    }

    fn read_segment(&self, id: SegmentId) -> Result<Vec<u8>> {
        let data = trace::span("storage.read", || self.inner.read_segment(id))?;
        self.counts
            .read_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(data)
    }

    fn truncate_segment(&self, id: SegmentId, len: u64) -> Result<()> {
        trace::span("storage.meta", || self.inner.truncate_segment(id, len))
    }

    fn delete_segment(&self, id: SegmentId) -> Result<()> {
        trace::span("storage.meta", || self.inner.delete_segment(id))
    }

    fn list_segments(&self) -> Result<Vec<SegmentId>> {
        trace::span("storage.meta", || self.inner.list_segments())
    }
}
