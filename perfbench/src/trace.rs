//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer:
//! `SimNet::run_until`, every actor activation, every storage backend
//! call. Spans nest by call order on one thread, so a span's parent is
//! whatever span was open when it began. A layer's *self* time is its
//! span duration minus the time covered by its children; allocations
//! are attributed the same way. Per-name totals cover every span; the
//! individual span records are kept up to a cap and written out when
//! the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

use rivulet_types::EventId;

use crate::alloc;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span id, in order of opening.
    pub id: u64,
    /// The span open when this one began.
    pub parent: Option<u64>,
    /// Layer boundary name, e.g. `process.msg`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
    /// The event the activation's message carried, if it decodes to one.
    pub event: Option<EventId>,
    /// Allocations made in this span but not in its children.
    pub self_allocs: u64,
    /// Bytes allocated in this span but not in its children.
    pub self_bytes: u64,
}

/// Aggregate over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans closed.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
    /// Summed self allocations.
    pub self_allocs: u64,
    /// Summed self allocated bytes.
    pub self_bytes: u64,
}

#[derive(Debug)]
struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    event: Option<EventId>,
    start_ns: u64,
    start_allocs: u64,
    start_bytes: u64,
    child_ns: u64,
    child_allocs: u64,
    child_bytes: u64,
}

/// The span recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    stack: Vec<Open>,
    next_id: u64,
    spans: Vec<Span>,
    keep: usize,
    totals: BTreeMap<&'static str, LayerTotals>,
}

impl Tracer {
    /// A recorder that keeps the first `keep` span records (totals
    /// always cover every span).
    #[must_use]
    pub fn new(keep: usize) -> Self {
        Self {
            stack: Vec::with_capacity(16),
            spans: Vec::with_capacity(keep),
            keep,
            ..Self::default()
        }
    }

    /// Opens a span at `now_ns` with the allocator totals `(allocs,
    /// bytes)` read at that instant.
    pub fn enter_at(
        &mut self,
        name: &'static str,
        event: Option<EventId>,
        now_ns: u64,
        (allocs, bytes): (u64, u64),
    ) {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            id,
            parent: self.stack.last().map(|o| o.id),
            name,
            event,
            start_ns: now_ns,
            start_allocs: allocs,
            start_bytes: bytes,
            child_ns: 0,
            child_allocs: 0,
            child_bytes: 0,
        });
    }

    /// Closes the innermost open span at `now_ns`.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (an unbalanced enter/exit pair is a
    /// harness bug).
    pub fn exit_at(&mut self, now_ns: u64, (allocs, bytes): (u64, u64)) {
        let open = self.stack.pop().expect("span exit without enter");
        let dur = now_ns.saturating_sub(open.start_ns);
        let all_allocs = allocs.saturating_sub(open.start_allocs);
        let all_bytes = bytes.saturating_sub(open.start_bytes);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
            parent.child_allocs += all_allocs;
            parent.child_bytes += all_bytes;
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: now_ns,
            self_ns: dur.saturating_sub(open.child_ns),
            event: open.event,
            self_allocs: all_allocs.saturating_sub(open.child_allocs),
            self_bytes: all_bytes.saturating_sub(open.child_bytes),
        };
        let t = self.totals.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += span.self_ns;
        t.self_allocs += span.self_allocs;
        t.self_bytes += span.self_bytes;
        if self.spans.len() < self.keep {
            self.spans.push(span);
        }
    }

    /// Per-name totals.
    #[must_use]
    pub fn totals(&self) -> &BTreeMap<&'static str, LayerTotals> {
        &self.totals
    }

    /// Totals of `name` (zero if no such span closed).
    #[cfg(test)]
    #[must_use]
    pub fn total(&self, name: &str) -> LayerTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// The kept span records, in closing order.
    #[cfg(test)]
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The kept spans as a JSON array, ordered by span id.
    #[must_use]
    pub fn spans_json(&self) -> String {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| s.id);
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let event = s.event.map_or_else(
                || "null".to_owned(),
                |e| format!("\"s{}#{}\"", e.sensor.0, e.seq),
            );
            let _ = writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"event\": {event}, \"allocs\": {}, \"alloc_bytes\": {}}}{}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                s.self_ns,
                s.self_allocs,
                s.self_bytes,
                if i + 1 < spans.len() { "," } else { "" },
            );
        }
        out.push_str("]\n");
        out
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Starts recording on this thread into `tracer`.
pub fn install(tracer: Tracer) {
    ACTIVE.with(|a| *a.borrow_mut() = Some(tracer));
}

/// Stops recording on this thread and returns the recorder.
pub fn take() -> Option<Tracer> {
    ACTIVE.with(|a| a.borrow_mut().take())
}

/// Whether a recorder is installed on this thread.
pub fn is_active() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Opens a span if a recorder is installed. The clock and allocator
/// are read after the bookkeeping, so the recorder's own work stays
/// outside the span.
pub fn enter(name: &'static str, event: Option<EventId>) {
    ACTIVE.with(|a| {
        if let Some(t) = a.borrow_mut().as_mut() {
            t.enter_at(name, event, 0, (0, 0));
            let open = t.stack.last_mut().expect("just pushed");
            (open.start_allocs, open.start_bytes) = alloc::totals();
            open.start_ns = now_ns();
        }
    });
}

/// Closes the innermost span if a recorder is installed. The clock and
/// allocator are read before the bookkeeping.
pub fn exit() {
    let now = now_ns();
    let totals = alloc::totals();
    ACTIVE.with(|a| {
        if let Some(t) = a.borrow_mut().as_mut() {
            t.exit_at(now, totals);
        }
    });
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    enter(name, None);
    let r = f();
    exit();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use rivulet_types::SensorId;

    #[test]
    fn self_time_subtracts_children_only_once() {
        // run_until [0, 100) holds process [10, 60) which holds a
        // storage call [20, 30); a device activation covers [70, 90).
        let mut t = Tracer::new(16);
        t.enter_at("net", None, 0, (0, 0));
        t.enter_at("process", Some(EventId::new(SensorId(2), 5)), 10, (1, 100));
        t.enter_at("storage", None, 20, (2, 150));
        t.exit_at(30, (3, 180));
        t.exit_at(60, (6, 400));
        t.enter_at("device", None, 70, (6, 400));
        t.exit_at(90, (7, 410));
        t.exit_at(100, (9, 500));

        assert_eq!(t.total("storage").self_ns, 10);
        assert_eq!(t.total("process").total_ns, 50);
        assert_eq!(t.total("process").self_ns, 40, "50 minus the 10 in storage");
        assert_eq!(t.total("device").self_ns, 20);
        // The grandchild's 10 ns counts once, inside process's 50.
        assert_eq!(t.total("net").self_ns, 100 - 50 - 20);
        assert_eq!(t.total("net").total_ns, 100);

        assert_eq!(t.total("storage").self_allocs, 1);
        assert_eq!(
            t.total("process").self_allocs,
            5 - 1,
            "5 in span, 1 in child"
        );
        assert_eq!(t.total("process").self_bytes, 300 - 30);
        assert_eq!(t.total("net").self_allocs, 9 - 5 - 1);

        let process = t.spans().iter().find(|s| s.name == "process").unwrap();
        let net = t.spans().iter().find(|s| s.name == "net").unwrap();
        let storage = t.spans().iter().find(|s| s.name == "storage").unwrap();
        assert_eq!(process.parent, Some(net.id));
        assert_eq!(storage.parent, Some(process.id));
        assert_eq!(net.parent, None);
        assert_eq!(process.event, Some(EventId::new(SensorId(2), 5)));
    }

    #[test]
    fn totals_cover_spans_beyond_the_kept_cap() {
        let mut t = Tracer::new(2);
        for i in 0..5 {
            t.enter_at("x", None, i * 10, (0, 0));
            t.exit_at(i * 10 + 3, (0, 0));
        }
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.total("x").count, 5);
        assert_eq!(t.total("x").self_ns, 15);
        assert!(t.spans_json().contains("\"name\": \"x\""));
    }

    #[test]
    fn thread_recorder_nests_real_spans() {
        install(Tracer::new(8));
        span("outer", || {
            span("inner", || std::hint::black_box(vec![1u8; 64]))
        });
        let t = take().expect("installed");
        assert!(!is_active());
        let outer = t.total("outer");
        let inner = t.total("inner");
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
    }
}
