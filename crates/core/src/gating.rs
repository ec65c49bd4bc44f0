//! Durability gating: the actions awaiting a WAL flush, and the
//! adaptive group-commit bound that forces one.
//!
//! A process appends `Deliver` events to the WAL and holds *all*
//! resulting actions back until the append is durable
//! (`process::apply_actions_durably`); a flush releases them in
//! arrival order. A fixed bound stalls bursty workloads
//! (every burst larger than the cap pays a forced flush) and
//! over-delays sparse ones. [`AdaptiveGate`] grows the bound
//! multiplicatively when bursts force flushes and shrinks it when
//! flushes fire at low depth, following the adaptive group-commit
//! argument of the user-space WAL literature: batch size should track
//! observed arrival pressure, not a constant.

use crate::delivery::Action;

/// The group-commit bound a gate starts at: this many gated actions
/// force a flush before the adaptive policy has seen any load.
pub const INITIAL_BOUND: usize = 512;
/// Multiplicative step for [`AdaptiveGate`] growth and shrink.
const GATE_STEP: usize = 2;
/// The bound grows to at most `INITIAL_BOUND × GATE_MAX_FACTOR`.
const GATE_MAX_FACTOR: usize = 16;

/// Actions gated behind un-flushed WAL appends, with an adaptive bound
/// on how many may wait before the process forces a group commit.
///
/// Policy (multiplicative-increase / multiplicative-decrease):
///
/// * A **forced flush** means the burst outran the bound — the bound
///   doubles (capped at `INITIAL_BOUND × 16`) so the next burst batches
///   more per fsync.
/// * An **idle flush** (timer/backstop) at depth below a quarter of
///   the bound means the workload no longer fills batches — the bound
///   halves (floored at 1) so a later trickle isn't held hostage to a
///   burst-sized batch.
/// * Disabled, the bound pins at [`INITIAL_BOUND`] — the fixed-cap
///   behavior.
#[derive(Debug, Clone)]
pub struct AdaptiveGate {
    held: Vec<Action>,
    bound: usize,
    adaptive: bool,
    /// Forced flushes observed (bursts that hit the bound).
    pub forced: u64,
    /// Bound adjustments made (grow + shrink).
    pub adjustments: u64,
}

impl AdaptiveGate {
    /// Creates a gate starting at [`INITIAL_BOUND`];
    /// `adaptive = false` pins the bound there.
    #[must_use]
    pub fn new(adaptive: bool) -> Self {
        Self {
            held: Vec::new(),
            bound: INITIAL_BOUND,
            adaptive,
            forced: 0,
            adjustments: 0,
        }
    }

    /// The current group-commit bound. Never below 1.
    #[must_use]
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Holds `action` until the next flush.
    pub fn hold(&mut self, action: Action) {
        self.held.push(action);
    }

    /// Number of held actions.
    #[must_use]
    pub fn held(&self) -> usize {
        self.held.len()
    }

    /// Releases every held action, in the order they were held.
    pub fn release(&mut self) -> Vec<Action> {
        std::mem::take(&mut self.held)
    }

    /// Records that the held actions hit the bound and a flush was
    /// forced; grows the bound.
    pub fn on_forced_flush(&mut self) {
        self.forced += 1;
        if !self.adaptive {
            return;
        }
        let max = INITIAL_BOUND * GATE_MAX_FACTOR;
        let grown = self.bound.saturating_mul(GATE_STEP).min(max);
        if grown != self.bound {
            self.bound = grown;
            self.adjustments += 1;
        }
    }

    /// Records a flush that fired without back-pressure (timer tick,
    /// checkpoint, policy trigger) at the given gated depth; shrinks
    /// the bound when the batch ran well under it.
    pub fn on_idle_flush(&mut self, depth: usize) {
        if !self.adaptive {
            return;
        }
        if depth < (self.bound / 4).max(1) {
            let shrunk = (self.bound / GATE_STEP).max(1);
            if shrunk != self.bound {
                self.bound = shrunk;
                self.adjustments += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rivulet_types::{Event, EventId, EventKind, SensorId, Time};

    fn deliver(sensor: u32, seq: u64) -> Action {
        Action::Deliver {
            event: Event::new(
                EventId::new(SensorId(sensor), seq),
                EventKind::Motion,
                Time::ZERO,
            ),
        }
    }

    #[test]
    fn gate_grows_under_burst() {
        let mut gate = AdaptiveGate::new(true);
        assert_eq!(gate.bound(), INITIAL_BOUND);
        gate.on_forced_flush();
        assert_eq!(gate.bound(), INITIAL_BOUND * 2);
        for _ in 0..20 {
            gate.on_forced_flush();
        }
        assert_eq!(
            gate.bound(),
            INITIAL_BOUND * 16,
            "growth caps at initial × 16"
        );
        assert_eq!(gate.forced, 21);
    }

    #[test]
    fn gate_shrinks_when_idle_never_below_one() {
        let mut gate = AdaptiveGate::new(true);
        for _ in 0..3 {
            gate.on_forced_flush();
        }
        assert_eq!(gate.bound(), INITIAL_BOUND * 8);
        // Idle flushes at low depth walk the bound back down.
        for _ in 0..30 {
            gate.on_idle_flush(0);
        }
        assert_eq!(gate.bound(), 1, "shrink floors at 1, never 0");
        // A deep idle flush does not shrink.
        let mut gate = AdaptiveGate::new(true);
        gate.on_forced_flush();
        gate.on_idle_flush(INITIAL_BOUND / 2); // = (2 × initial) / 4
        assert_eq!(gate.bound(), INITIAL_BOUND * 2);
    }

    #[test]
    fn disabled_gate_pins_bound() {
        let mut gate = AdaptiveGate::new(false);
        for _ in 0..10 {
            gate.on_forced_flush();
            gate.on_idle_flush(0);
        }
        assert_eq!(gate.bound(), INITIAL_BOUND);
        assert_eq!(gate.adjustments, 0);
        assert_eq!(gate.forced, 10, "forced flushes still counted");
    }

    #[test]
    fn flush_releases_actions_in_hold_order() {
        let mut gate = AdaptiveGate::new(true);
        let held = [(0, 0), (1, 0), (4, 0), (0, 1), (2, 0), (4, 1), (3, 0)];
        for (sensor, seq) in held {
            gate.hold(deliver(sensor, seq));
        }
        assert_eq!(gate.held(), held.len());
        let released: Vec<(u32, u64)> = gate
            .release()
            .iter()
            .map(|a| match a {
                Action::Deliver { event } => (event.id.sensor.as_u32(), event.id.seq),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(released, held, "arrival order");
        assert_eq!(gate.held(), 0);
    }
}
