//! The controller: signals in, knob decisions out.
//!
//! Each tick maps the window's [`Signals`] onto a [`Pull`] per policy
//! (with safety vetoes applied before the policy ever sees the drive),
//! advances the two hysteresis state machines, and returns whatever
//! decisions they committed. The engine applies the resulting
//! [`KnobValues`] through its runtime setters; the controller itself
//! never touches engine state, which is what makes the simulated-signal
//! tests exact.

use crate::policy::{Decision, HysteresisPolicy, Knob, Pull};
use crate::signal::{SignalDeriver, Signals};
use crate::AutotuneConfig;
use sand_telemetry::Snapshot;

/// Cap on the retained decision history (oldest dropped first).
const DECISION_LOG_CAP: usize = 1024;

/// The engine knob levels the controller currently wants in effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KnobValues {
    /// Prefetcher look-ahead window.
    pub prefetch_depth: u64,
    /// Scheduler bounded-EDF demand slack (µs).
    pub demand_slack: u64,
}

/// Closed-loop controller over the two engine knob policies.
pub struct Controller {
    config: AutotuneConfig,
    deriver: SignalDeriver,
    prefetch: HysteresisPolicy,
    slack: HysteresisPolicy,
    tick: u64,
    decisions: Vec<Decision>,
}

impl Controller {
    /// Creates a controller starting from the engine's configured knob
    /// values.
    #[must_use]
    pub fn new(config: AutotuneConfig, initial: KnobValues) -> Self {
        Controller {
            prefetch: HysteresisPolicy::new(
                Knob::PrefetchDepth,
                config.prefetch_depth,
                initial.prefetch_depth,
            ),
            slack: HysteresisPolicy::new(
                Knob::DemandSlack,
                config.demand_slack,
                initial.demand_slack,
            ),
            config,
            deriver: SignalDeriver::new(),
            tick: 0,
            decisions: Vec::new(),
        }
    }

    /// Control ticks taken so far (including the observe-only first one).
    #[must_use]
    pub fn tick_count(&self) -> u64 {
        self.tick
    }

    /// The knob levels currently in effect.
    #[must_use]
    pub fn values(&self) -> KnobValues {
        KnobValues {
            prefetch_depth: self.prefetch.value(),
            demand_slack: self.slack.value(),
        }
    }

    /// Every decision committed so far (capped; oldest dropped first).
    #[must_use]
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// Per-policy direction-reversal counts, for oscillation checks.
    #[must_use]
    pub fn reversals(&self) -> Vec<(Knob, u64)> {
        vec![
            (Knob::PrefetchDepth, self.prefetch.reversals()),
            (Knob::DemandSlack, self.slack.reversals()),
        ]
    }

    /// Closed-loop tick: derives signals from the snapshot delta and
    /// advances the policies. The first call is observe-only (no
    /// baseline window yet) and returns no decisions.
    pub fn tick(&mut self, snapshot: &Snapshot) -> Vec<Decision> {
        match self.deriver.advance(snapshot) {
            None => {
                self.tick += 1;
                Vec::new()
            }
            Some(signals) => self.tick_with_signals(&signals),
        }
    }

    /// Deterministic tick from pre-derived signals — the simulation and
    /// test entry point (also what `tick` delegates to).
    pub fn tick_with_signals(&mut self, s: &Signals) -> Vec<Decision> {
        self.tick += 1;
        let tick = self.tick;
        let mut out = Vec::new();

        // prefetch_depth: raise while late/miss dominate the settled
        // outcomes *and* the store has budget headroom to hold a deeper
        // window; lower on cancellation churn or exhausted headroom. An
        // idle window (nothing settled, nothing cancelled) holds — it
        // carries no evidence in either direction.
        let churn = s.prefetch_cancelled > 0;
        let starved = s.store_headroom < self.config.headroom_floor;
        let (pull, reason) = if churn {
            (Pull::Lower, "cancellation churn in the prefetch window")
        } else if starved {
            (Pull::Lower, "store budget headroom exhausted")
        } else if s.prefetch_settled == 0 {
            (Pull::Hold, "")
        } else {
            match self.config.prefetch_depth.pull_for(s.prefetch_pressure) {
                Pull::Raise => (
                    Pull::Raise,
                    "late/miss dominate the prefetch window and headroom allows",
                ),
                Pull::Lower => (Pull::Lower, "prefetch window is almost all hits"),
                Pull::Hold => (Pull::Hold, ""),
            }
        };
        out.extend(self.prefetch.tick(tick, pull, reason));

        // demand_slack: widen the bounded-EDF affinity window while
        // pinned demand picks keep missing their preferred worker,
        // tighten when affinity hits dominate. No picks = no evidence.
        let (pull, reason) = if s.demand_picks == 0 {
            (Pull::Hold, "")
        } else {
            match self
                .config
                .demand_slack
                .pull_for(s.demand_affinity_miss_ratio)
            {
                Pull::Raise => (Pull::Raise, "pinned demand picks miss their worker"),
                Pull::Lower => (Pull::Lower, "demand affinity hits dominate"),
                Pull::Hold => (Pull::Hold, ""),
            }
        };
        out.extend(self.slack.tick(tick, pull, reason));

        self.decisions.extend(out.iter().cloned());
        if self.decisions.len() > DECISION_LOG_CAP {
            let excess = self.decisions.len() - DECISION_LOG_CAP;
            self.decisions.drain(..excess);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn initial() -> KnobValues {
        KnobValues {
            prefetch_depth: 0,
            demand_slack: 0,
        }
    }

    fn pressure_signals() -> Signals {
        Signals {
            prefetch_pressure: 0.9,
            prefetch_settled: 10,
            store_headroom: 0.8,
            demand_affinity_miss_ratio: 0.9,
            demand_picks: 10,
            ..Signals::default()
        }
    }

    fn relief_signals() -> Signals {
        Signals {
            prefetch_pressure: 0.0,
            prefetch_settled: 10,
            store_headroom: 0.8,
            demand_affinity_miss_ratio: 0.0,
            demand_picks: 10,
            ..Signals::default()
        }
    }

    fn hold_signals() -> Signals {
        Signals {
            prefetch_pressure: 0.15,
            prefetch_settled: 10,
            store_headroom: 0.8,
            demand_affinity_miss_ratio: 0.3,
            demand_picks: 10,
            ..Signals::default()
        }
    }

    /// The ISSUE's required deterministic simulated-signal test: drive
    /// every policy through its full hysteresis cycle (raise regime →
    /// dead band → lower regime) and check each converges with exactly
    /// one direction reversal and no decisions inside the dead band.
    #[test]
    fn full_hysteresis_cycle_converges_without_oscillation() {
        let mut c = Controller::new(AutotuneConfig::default(), initial());
        for _ in 0..30 {
            c.tick_with_signals(&pressure_signals());
        }
        let after_raise = c.values();
        assert_eq!(after_raise.prefetch_depth, 8, "raised to the clamp");
        assert_eq!(after_raise.demand_slack, 40, "10 moves x step 4");

        let moves_before_hold = c.decisions().len();
        for _ in 0..10 {
            c.tick_with_signals(&hold_signals());
        }
        assert_eq!(
            c.decisions().len(),
            moves_before_hold,
            "dead band commits nothing"
        );
        assert_eq!(c.values(), after_raise, "knobs hold in the dead band");

        for _ in 0..40 {
            c.tick_with_signals(&relief_signals());
        }
        let settled = c.values();
        assert_eq!(settled.prefetch_depth, 0, "lowered back to min");
        assert_eq!(settled.demand_slack, 0);
        for (knob, reversals) in c.reversals() {
            assert_eq!(
                reversals,
                1,
                "{}: one regime change = one reversal",
                knob.name()
            );
        }
    }

    #[test]
    fn churn_and_headroom_veto_prefetch_raises() {
        let mut c = Controller::new(AutotuneConfig::default(), initial());
        let mut s = pressure_signals();
        s.store_headroom = 0.05; // below the 0.15 floor
        for _ in 0..6 {
            c.tick_with_signals(&s);
        }
        assert_eq!(
            c.values().prefetch_depth,
            0,
            "no raise without headroom even under pressure"
        );

        // Raise once legitimately, then cancellation churn pulls down
        // despite continued pressure.
        let mut c = Controller::new(AutotuneConfig::default(), initial());
        for _ in 0..6 {
            c.tick_with_signals(&pressure_signals());
        }
        assert!(c.values().prefetch_depth >= 2);
        let mut s = pressure_signals();
        s.prefetch_cancelled = 3;
        for _ in 0..30 {
            c.tick_with_signals(&s);
        }
        assert_eq!(c.values().prefetch_depth, 0, "churn drains the window");
    }

    #[test]
    fn idle_windows_hold_every_knob() {
        let start = KnobValues {
            prefetch_depth: 4,
            demand_slack: 16,
        };
        let mut c = Controller::new(AutotuneConfig::default(), start);
        for _ in 0..10 {
            let decisions = c.tick_with_signals(&Signals {
                store_headroom: 1.0,
                ..Signals::default()
            });
            assert!(decisions.is_empty(), "no evidence, no movement");
        }
        assert_eq!(c.values(), start);
    }

    #[test]
    fn observe_only_first_snapshot_tick() {
        let r = sand_telemetry::Registry::new();
        let mut c = Controller::new(AutotuneConfig::default(), initial());
        assert!(c.tick(&r.snapshot()).is_empty());
        assert_eq!(c.tick_count(), 1);
        // A second identical snapshot is a zero-delta window: holds.
        assert!(c.tick(&r.snapshot()).is_empty());
        assert_eq!(c.tick_count(), 2);
    }

    #[test]
    fn closed_loop_raises_depth_from_real_snapshots() {
        let r = sand_telemetry::Registry::new();
        let mut c = Controller::new(AutotuneConfig::default(), initial());
        c.tick(&r.snapshot());
        for _ in 0..9 {
            r.counter("prefetch.miss").add(5);
            c.tick(&r.snapshot());
        }
        assert!(
            c.values().prefetch_depth >= 2,
            "sustained misses must deepen the window, got {}",
            c.values().prefetch_depth
        );
    }

    #[test]
    fn decision_log_is_capped() {
        let cfg = AutotuneConfig {
            prefetch_depth: crate::PolicyConfig {
                min: 0,
                max: u64::MAX,
                step: 1,
                raise_above: 0.25,
                lower_below: 0.05,
                cooldown_ticks: 0,
            },
            ..AutotuneConfig::default()
        };
        let mut c = Controller::new(cfg, initial());
        for _ in 0..1200 {
            c.tick_with_signals(&pressure_signals());
        }
        assert_eq!(c.decisions().len(), 1024, "oldest decisions are dropped");
    }
}
