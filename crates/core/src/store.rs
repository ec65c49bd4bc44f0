//! The per-process replicated event store.
//!
//! Gapless delivery replicates every ingested event at all available
//! processes (§4.1). [`EventStore`] is one process's replica: it
//! deduplicates (the ring revisits processes), answers the Bayou-style
//! watermark queries used by successor synchronization, and computes
//! the difference set to ship to a lagging successor.
//!
//! Sensors live in one `BTreeMap`, so cross-sensor queries
//! (watermarks, diffs) come out in sensor order and their wire
//! encoding is deterministic.
//!
//! Stored payloads never pin an arrival frame: a blob decoded off the
//! network is a zero-copy view into its frame, so
//! [`EventStore::insert`] copies such a view into an exact-size buffer
//! before retaining it.

use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;
use rivulet_types::{Event, EventId, Payload, SensorId, Time};

/// A bounded, per-sensor-ordered store of replicated events.
#[derive(Debug)]
pub struct EventStore {
    sensors: BTreeMap<SensorId, BTreeMap<u64, Event>>,
    cap_per_sensor: usize,
    inserted: u64,
    evicted: u64,
}

impl EventStore {
    /// Creates a store retaining at most `cap_per_sensor` events per
    /// sensor (oldest evicted first).
    ///
    /// # Panics
    ///
    /// Panics if `cap_per_sensor` is zero.
    #[must_use]
    pub fn new(cap_per_sensor: usize) -> Self {
        assert!(cap_per_sensor > 0, "store capacity must be positive");
        Self {
            sensors: BTreeMap::new(),
            cap_per_sensor,
            inserted: 0,
            evicted: 0,
        }
    }

    /// Same as [`EventStore::new`]; `shards` is ignored. Kept only so
    /// the `perfbench/` benchmark still compiles.
    #[deprecated(note = "the store is no longer sharded; use `EventStore::new`")]
    #[must_use]
    pub fn with_shards(cap_per_sensor: usize, _shards: usize) -> Self {
        Self::new(cap_per_sensor)
    }

    /// Does nothing: [`EventStore::insert`] always compacts
    /// frame-pinning payloads. Kept only so the `perfbench/`
    /// benchmark still compiles.
    #[deprecated(note = "payload compaction is always on")]
    pub fn enable_arena(&mut self) {}

    /// Whether the event identified by `id` has been stored before.
    #[must_use]
    pub fn seen(&self, id: EventId) -> bool {
        self.sensors
            .get(&id.sensor)
            .is_some_and(|m| m.contains_key(&id.seq))
    }

    /// Inserts `event`; returns `true` if it was new, `false` if it was
    /// a duplicate (in which case the store is unchanged).
    pub fn insert(&mut self, mut event: Event) -> bool {
        let per = self.sensors.entry(event.id.sensor).or_default();
        if per.contains_key(&event.id.seq) {
            return false;
        }
        // Only retained payloads are copied (duplicates bailed out
        // above), and only views that keep a larger buffer alive.
        if let Payload::Blob(b) = &event.payload {
            if b.backing_len() > b.len() {
                event.payload = Payload::Blob(Bytes::copy_from_slice(b));
            }
        }
        per.insert(event.id.seq, event);
        while per.len() > self.cap_per_sensor {
            per.pop_first();
            self.evicted += 1;
        }
        self.inserted += 1;
        true
    }

    /// The highest sequence number stored for `sensor`, if any — the
    /// Bayou-style watermark exchanged during successor sync.
    #[must_use]
    pub fn watermark(&self, sensor: SensorId) -> Option<u64> {
        self.sensors
            .get(&sensor)
            .and_then(|m| m.keys().next_back().copied())
    }

    /// All `(sensor, watermark)` pairs, ascending by sensor, so the
    /// wire encoding is deterministic without a separate sort.
    #[must_use]
    pub fn watermarks(&self) -> Vec<(SensorId, u64)> {
        self.iter_watermarks().collect()
    }

    /// Iterates `(sensor, watermark)` pairs ascending by sensor without
    /// materializing a `Vec`.
    pub fn iter_watermarks(&self) -> impl Iterator<Item = (SensorId, u64)> + '_ {
        self.sensors
            .iter()
            .filter_map(|(s, m)| m.keys().next_back().map(|q| (*s, *q)))
    }

    /// Events of `sensor` with sequence numbers strictly greater than
    /// `after` (or all if `after` is `None`), ascending.
    #[must_use]
    pub fn events_after(&self, sensor: SensorId, after: Option<u64>) -> Vec<Event> {
        let Some(per) = self.sensors.get(&sensor) else {
            return Vec::new();
        };
        match after {
            None => per.values().cloned().collect(),
            Some(seq) => per
                .range(seq.saturating_add(1)..)
                .map(|(_, e)| e.clone())
                .collect(),
        }
    }

    /// Computes the events a peer with `peer_watermarks` is missing:
    /// for every sensor we know, everything above the peer's watermark.
    ///
    /// This is the paper's Bayou-style sync: it cannot recover holes
    /// *below* the peer's watermark (a deliberate, documented
    /// approximation of §4.1), but after a successor change it brings
    /// the successor up to our high-water mark.
    #[must_use]
    pub fn diff_for(&self, peer_watermarks: &[(SensorId, u64)]) -> Vec<Event> {
        let peer: HashMap<SensorId, u64> = peer_watermarks.iter().copied().collect();
        let mut out = Vec::new();
        for (sensor, per) in &self.sensors {
            match peer.get(sensor) {
                None => out.extend(per.values().cloned()),
                Some(&wm) => out.extend(per.range(wm.saturating_add(1)..).map(|(_, e)| e.clone())),
            }
        }
        out
    }

    /// Removes all events of `sensor` with sequence numbers `<= upto`,
    /// returning how many were removed.
    ///
    /// Used for watermark-based garbage collection: once every process
    /// has learned (via keep-alives) that the active logic node
    /// processed a sensor's stream through `upto`, those events can
    /// never be needed by a failover replay again, and anti-entropy
    /// only ships events above a peer's watermark — so they are dead
    /// weight. Production GC uses [`EventStore::prune_processed`],
    /// which additionally age-guards against straggler duplicates.
    pub fn prune_through(&mut self, sensor: SensorId, upto: u64) -> usize {
        let Some(per) = self.sensors.get_mut(&sensor) else {
            return 0;
        };
        let removed = if upto == u64::MAX {
            let n = per.len();
            per.clear();
            n
        } else {
            let keep = per.split_off(&(upto + 1));
            let n = per.len();
            *per = keep;
            n
        };
        self.evicted += removed as u64;
        removed
    }

    /// Removes events of `sensor` that are both processed
    /// (`seq <= upto`) **and** old (`emitted_at < emitted_before`),
    /// returning how many were removed.
    ///
    /// The age guard keeps recently processed events around so that a
    /// straggling duplicate copy (a late ring message, broadcast
    /// retransmission, or anti-entropy refill) still hits the store's
    /// duplicate check instead of being re-delivered to applications.
    pub fn prune_processed(&mut self, sensor: SensorId, upto: u64, emitted_before: Time) -> usize {
        let Some(per) = self.sensors.get_mut(&sensor) else {
            return 0;
        };
        let doomed: Vec<u64> = per
            .range(..=upto)
            .filter(|(_, e)| e.emitted_at < emitted_before)
            .map(|(seq, _)| *seq)
            .collect();
        for seq in &doomed {
            per.remove(seq);
        }
        self.evicted += doomed.len() as u64;
        doomed.len()
    }

    /// Events ever inserted (excluding rejected duplicates).
    #[must_use]
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Events evicted by the per-sensor cap.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Current number of retained events across all sensors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sensors.values().map(BTreeMap::len).sum()
    }

    /// Whether the store holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for EventStore {
    fn default() -> Self {
        Self::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rivulet_types::{EventKind, Time};

    fn ev(sensor: u32, seq: u64) -> Event {
        Event::new(
            EventId::new(SensorId(sensor), seq),
            EventKind::Motion,
            Time::from_millis(seq),
        )
    }

    #[test]
    fn insert_dedup_and_seen() {
        let mut s = EventStore::new(10);
        assert!(!s.seen(EventId::new(SensorId(1), 0)));
        assert!(s.insert(ev(1, 0)));
        assert!(s.seen(EventId::new(SensorId(1), 0)));
        assert!(!s.insert(ev(1, 0)), "duplicate rejected");
        assert_eq!(s.inserted(), 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn watermark_tracks_highest_seq() {
        let mut s = EventStore::new(10);
        assert_eq!(s.watermark(SensorId(1)), None);
        s.insert(ev(1, 5));
        s.insert(ev(1, 2));
        assert_eq!(s.watermark(SensorId(1)), Some(5));
        s.insert(ev(2, 0));
        assert_eq!(s.watermarks(), vec![(SensorId(1), 5), (SensorId(2), 0)]);
    }

    #[test]
    fn events_after_is_exclusive_and_sorted() {
        let mut s = EventStore::new(10);
        for seq in [3, 1, 7, 5] {
            s.insert(ev(1, seq));
        }
        let after3: Vec<u64> = s
            .events_after(SensorId(1), Some(3))
            .iter()
            .map(|e| e.id.seq)
            .collect();
        assert_eq!(after3, vec![5, 7]);
        let all: Vec<u64> = s
            .events_after(SensorId(1), None)
            .iter()
            .map(|e| e.id.seq)
            .collect();
        assert_eq!(all, vec![1, 3, 5, 7]);
        assert!(s.events_after(SensorId(9), None).is_empty());
    }

    #[test]
    fn diff_for_covers_unknown_sensors_and_lagging_peers() {
        let mut s = EventStore::new(10);
        s.insert(ev(1, 0));
        s.insert(ev(1, 1));
        s.insert(ev(2, 4));
        // Peer knows sensor 1 up to 0, nothing of sensor 2.
        let diff = s.diff_for(&[(SensorId(1), 0)]);
        let ids: Vec<(u32, u64)> = diff
            .iter()
            .map(|e| (e.id.sensor.as_u32(), e.id.seq))
            .collect();
        assert_eq!(ids, vec![(1, 1), (2, 4)]);
        // Peer fully caught up → empty diff.
        assert!(s.diff_for(&[(SensorId(1), 1), (SensorId(2), 4)]).is_empty());
    }

    #[test]
    fn diff_for_streams_in_sensor_order() {
        let mut s = EventStore::new(10);
        // Insert sensors out of order; output must be sensor-ascending.
        for sensor in [7u32, 2, 5, 1] {
            s.insert(ev(sensor, 0));
            s.insert(ev(sensor, 1));
        }
        let diff = s.diff_for(&[(SensorId(5), 0)]);
        let ids: Vec<(u32, u64)> = diff
            .iter()
            .map(|e| (e.id.sensor.as_u32(), e.id.seq))
            .collect();
        assert_eq!(
            ids,
            vec![(1, 0), (1, 1), (2, 0), (2, 1), (5, 1), (7, 0), (7, 1)]
        );
        let wms: Vec<(SensorId, u64)> = s.iter_watermarks().collect();
        assert_eq!(wms, s.watermarks());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut s = EventStore::new(3);
        for seq in 0..5 {
            s.insert(ev(1, seq));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.evicted(), 2);
        assert!(!s.seen(EventId::new(SensorId(1), 0)));
        assert!(!s.seen(EventId::new(SensorId(1), 1)));
        assert!(s.seen(EventId::new(SensorId(1), 4)));
        assert_eq!(s.watermark(SensorId(1)), Some(4));
    }

    #[test]
    fn prune_through_removes_only_old_events() {
        let mut s = EventStore::new(100);
        for seq in 0..10 {
            s.insert(ev(1, seq));
        }
        s.insert(ev(2, 3));
        assert_eq!(s.prune_through(SensorId(1), 4), 5, "seqs 0..=4 removed");
        assert!(!s.seen(EventId::new(SensorId(1), 4)));
        assert!(s.seen(EventId::new(SensorId(1), 5)));
        assert_eq!(s.watermark(SensorId(1)), Some(9));
        // Other sensors untouched.
        assert!(s.seen(EventId::new(SensorId(2), 3)));
        // Pruning an unknown sensor is a no-op.
        assert_eq!(s.prune_through(SensorId(9), 100), 0);
        // Re-pruning is idempotent.
        assert_eq!(s.prune_through(SensorId(1), 4), 0);
        assert_eq!(s.evicted(), 5);
    }

    #[test]
    fn prune_processed_age_guards() {
        let mut s = EventStore::new(100);
        for seq in 0..10 {
            s.insert(ev(1, seq)); // emitted at seq milliseconds
        }
        // Processed through 9, but only events emitted before t=5ms are
        // old enough to collect.
        let removed = s.prune_processed(SensorId(1), 9, Time::from_millis(5));
        assert_eq!(removed, 5);
        assert!(!s.seen(EventId::new(SensorId(1), 4)));
        assert!(
            s.seen(EventId::new(SensorId(1), 5)),
            "recent events retained"
        );
        // Unprocessed events are never collected regardless of age.
        let removed = s.prune_processed(SensorId(1), 6, Time::MAX);
        assert_eq!(removed, 2, "only seqs 5 and 6");
        assert!(s.seen(EventId::new(SensorId(1), 7)));
    }

    #[test]
    fn prune_at_u64_max_clears_sensor() {
        let mut s = EventStore::new(100);
        s.insert(Event::new(
            EventId::new(SensorId(1), u64::MAX),
            EventKind::Motion,
            Time::ZERO,
        ));
        s.insert(ev(1, 0));
        assert_eq!(s.prune_through(SensorId(1), u64::MAX), 2);
        assert_eq!(s.watermark(SensorId(1)), None);
    }

    #[test]
    #[should_panic(expected = "store capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = EventStore::new(0);
    }

    #[test]
    fn stored_payloads_never_pin_a_frame() {
        let blob = |s: &EventStore, sensor: u32| -> Bytes {
            match &s.events_after(SensorId(sensor), None)[0].payload {
                Payload::Blob(b) => b.clone(),
                other => panic!("blob stays blob, got {other:?}"),
            }
        };
        let mut s = EventStore::new(10);
        // A 40-byte view sliced out of a 4 KiB arrival frame is copied
        // into a buffer of exactly its own size.
        let frame = Bytes::from(vec![3u8; 4096]);
        let view = frame.slice_ref(&frame[10..50]);
        let mut e = ev(1, 0);
        e.payload = Payload::Blob(view.clone());
        assert!(s.insert(e));
        let stored = blob(&s, 1);
        assert_eq!(stored, view, "payload bytes preserved");
        assert_eq!(stored.backing_len(), stored.len(), "frame released");
        // A blob that owns its whole backing is kept as is.
        let whole = Bytes::from(vec![7u8; 64]);
        let mut e = ev(2, 0);
        e.payload = Payload::Blob(whole.clone());
        assert!(s.insert(e));
        assert_eq!(blob(&s, 2).as_ptr(), whole.as_ptr(), "no copy");
        // A duplicate is rejected before any copy: the stored payload
        // is still the first insert's buffer.
        let mut dup = ev(1, 0);
        dup.payload = Payload::Blob(frame.slice_ref(&frame[10..50]));
        assert!(!s.insert(dup));
        assert_eq!(blob(&s, 1).as_ptr(), stored.as_ptr());
        assert_eq!(s.inserted(), 2);
    }

    #[test]
    fn empty_store_reports_empty() {
        let s = EventStore::new(1);
        assert!(s.is_empty());
        assert!(s.watermarks().is_empty());
        assert!(s.diff_for(&[]).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rivulet_types::{EventKind, Time};

    fn ev(sensor: u32, seq: u64) -> Event {
        Event::new(
            EventId::new(SensorId(sensor), seq),
            EventKind::Motion,
            Time::from_millis(seq),
        )
    }

    proptest! {
        /// After syncing a peer with `diff_for`, the peer's watermark
        /// per sensor equals ours (the Bayou guarantee the ring sync
        /// relies on).
        #[test]
        fn sync_equalizes_watermarks(
            ours in proptest::collection::vec((0u32..4, 0u64..40), 0..80),
            theirs in proptest::collection::vec((0u32..4, 0u64..40), 0..80),
        ) {
            let mut a = EventStore::new(1000);
            let mut b = EventStore::new(1000);
            for (s, q) in ours {
                a.insert(ev(s, q));
            }
            for (s, q) in theirs.iter() {
                // The peer holds a subset of globally emitted events.
                b.insert(ev(*s, *q));
            }
            let diff = a.diff_for(&b.watermarks());
            for e in diff {
                b.insert(e);
            }
            for (sensor, wm) in a.watermarks() {
                let peer_wm = b.watermark(sensor).expect("sensor now known");
                prop_assert!(peer_wm >= wm, "peer {peer_wm} < ours {wm}");
            }
        }

        /// Insert order never affects the retained set (same events,
        /// any order, same store contents).
        #[test]
        fn insert_order_irrelevant(mut seqs in proptest::collection::vec(0u64..100, 1..50)) {
            let mut a = EventStore::new(1000);
            for &q in &seqs {
                a.insert(ev(1, q));
            }
            seqs.reverse();
            let mut b = EventStore::new(1000);
            for &q in &seqs {
                b.insert(ev(1, q));
            }
            prop_assert_eq!(a.watermark(SensorId(1)), b.watermark(SensorId(1)));
            prop_assert_eq!(a.len(), b.len());
            let ia: Vec<u64> = a.events_after(SensorId(1), None).iter().map(|e| e.id.seq).collect();
            let ib: Vec<u64> = b.events_after(SensorId(1), None).iter().map(|e| e.id.seq).collect();
            prop_assert_eq!(ia, ib);
        }
    }
}
