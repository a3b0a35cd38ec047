//! Per-knob hysteresis policy state machines.
//!
//! A policy never reads telemetry and never touches the engine: the
//! [`Controller`](crate::Controller) translates signals into a [`Pull`]
//! each tick, and the policy decides whether acting on it is safe given
//! its hysteresis state. Three mechanisms keep the loop stable:
//!
//! - **Dead band** — [`PolicyConfig::pull_for`] maps a drive value to
//!   `Raise` only above `raise_above` and `Lower` only below
//!   `lower_below`; in between the policy holds. The gap between the two
//!   thresholds is the hysteresis band: a signal hovering around a
//!   single threshold cannot flip the knob back and forth.
//! - **Cooldown** — after every move the policy ignores `cooldown_ticks`
//!   ticks, so the effect of a change is observed before the next one.
//! - **Clamps** — moves saturate at hard `min`/`max` bounds; a move that
//!   would not change the (clamped) value emits no decision.
//!
//! Direction reversals are counted: a well-damped policy reverses at
//! most once per regime change in its input, so callers (the
//! `examples/autotune.rs` CLI, the convergence tests) can bound
//! `reversals()` to detect oscillation.

/// Which engine knob a policy (or a decision) drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Knob {
    /// The prefetcher's speculative look-ahead window.
    PrefetchDepth,
    /// The scheduler's bounded-EDF demand affinity window (µs).
    DemandSlack,
}

impl Knob {
    /// Stable snake_case name used in metrics, decisions, and lints.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Knob::PrefetchDepth => "prefetch_depth",
            Knob::DemandSlack => "demand_slack",
        }
    }
}

/// Tuning parameters for one [`HysteresisPolicy`].
#[derive(Clone, Copy, Debug)]
pub struct PolicyConfig {
    /// Hard lower clamp for the knob value.
    pub min: u64,
    /// Hard upper clamp for the knob value.
    pub max: u64,
    /// Step size per decision.
    pub step: u64,
    /// Drive threshold above which the policy wants to raise.
    pub raise_above: f64,
    /// Drive threshold below which the policy wants to lower. Must be
    /// `< raise_above`; the gap is the hysteresis dead band.
    pub lower_below: f64,
    /// Ticks to hold after a move before acting again.
    pub cooldown_ticks: u32,
}

impl PolicyConfig {
    /// Maps a drive value onto the hysteresis band: `Raise` strictly
    /// above `raise_above`, `Lower` strictly below `lower_below`,
    /// `Hold` inside the dead band.
    #[must_use]
    pub fn pull_for(&self, drive: f64) -> Pull {
        if drive > self.raise_above {
            Pull::Raise
        } else if drive < self.lower_below {
            Pull::Lower
        } else {
            Pull::Hold
        }
    }
}

/// The direction a signal pulls a knob this tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pull {
    /// Step the knob up (subject to cooldown and the max clamp).
    Raise,
    /// Step the knob down (subject to cooldown and the min clamp).
    Lower,
    /// Inside the dead band (or vetoed): leave the knob alone.
    Hold,
}

/// One committed knob change.
#[derive(Clone, Debug, PartialEq)]
pub struct Decision {
    /// Controller tick that produced the decision.
    pub tick: u64,
    /// The knob changed.
    pub knob: Knob,
    /// Value before the change.
    pub from: u64,
    /// Value after the change (clamped).
    pub to: u64,
    /// Human-readable cause, e.g. `late/miss dominate prefetch window`.
    pub reason: String,
}

impl Decision {
    /// One-line rendering used by the stall-report decision log.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "tick {}: {} {} -> {} ({})",
            self.tick,
            self.knob.name(),
            self.from,
            self.to,
            self.reason
        )
    }
}

/// Hysteresis state machine for a single knob.
#[derive(Debug)]
pub struct HysteresisPolicy {
    knob: Knob,
    config: PolicyConfig,
    value: u64,
    cooldown: u32,
    last_direction: Option<Pull>,
    reversals: u64,
    moves: u64,
}

impl HysteresisPolicy {
    /// Creates a policy starting at `initial` (the engine's configured
    /// knob value; clamps constrain *changes*, not the starting point).
    #[must_use]
    pub fn new(knob: Knob, config: PolicyConfig, initial: u64) -> Self {
        HysteresisPolicy {
            knob,
            config,
            value: initial,
            cooldown: 0,
            last_direction: None,
            reversals: 0,
            moves: 0,
        }
    }

    /// The knob this policy drives.
    #[must_use]
    pub fn knob(&self) -> Knob {
        self.knob
    }

    /// Current knob value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Committed decisions so far.
    #[must_use]
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Direction reversals so far (raise→lower or lower→raise). A
    /// policy oscillates when this exceeds the number of regime changes
    /// in its input signal.
    #[must_use]
    pub fn reversals(&self) -> u64 {
        self.reversals
    }

    /// Advances one control tick. Returns the committed decision, or
    /// `None` when holding (dead band, cooldown, or clamp saturation).
    pub fn tick(&mut self, tick: u64, pull: Pull, reason: &str) -> Option<Decision> {
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        let c = self.config;
        let target = match pull {
            Pull::Hold => return None,
            Pull::Raise => self.value.saturating_add(c.step),
            Pull::Lower => self.value.saturating_sub(c.step),
        }
        .clamp(c.min, c.max);
        if target == self.value {
            return None;
        }
        if let Some(last) = self.last_direction {
            if last != pull {
                self.reversals += 1;
            }
        }
        self.last_direction = Some(pull);
        self.cooldown = c.cooldown_ticks;
        self.moves += 1;
        let decision = Decision {
            tick,
            knob: self.knob,
            from: self.value,
            to: target,
            reason: reason.to_string(),
        };
        self.value = target;
        Some(decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> PolicyConfig {
        PolicyConfig {
            min: 0,
            max: 4,
            step: 1,
            raise_above: 0.5,
            lower_below: 0.1,
            cooldown_ticks: 0,
        }
    }

    #[test]
    fn pull_maps_the_dead_band() {
        let c = config();
        assert_eq!(c.pull_for(0.6), Pull::Raise);
        assert_eq!(c.pull_for(0.5), Pull::Hold, "threshold itself holds");
        assert_eq!(c.pull_for(0.3), Pull::Hold);
        assert_eq!(c.pull_for(0.1), Pull::Hold, "threshold itself holds");
        assert_eq!(c.pull_for(0.05), Pull::Lower);
    }

    #[test]
    fn raises_to_the_clamp_then_holds() {
        let mut p = HysteresisPolicy::new(Knob::PrefetchDepth, config(), 0);
        for t in 0..10 {
            p.tick(t, Pull::Raise, "up");
        }
        assert_eq!(p.value(), 4, "saturates at max");
        assert_eq!(p.moves(), 4, "no decisions once clamped");
        assert_eq!(p.reversals(), 0);
    }

    #[test]
    fn lower_saturates_at_min() {
        let cfg = PolicyConfig { min: 1, ..config() };
        let mut p = HysteresisPolicy::new(Knob::DemandSlack, cfg, 3);
        for t in 0..10 {
            p.tick(t, Pull::Lower, "down");
        }
        assert_eq!(p.value(), 1);
        assert_eq!(p.moves(), 2);
    }

    #[test]
    fn cooldown_spaces_decisions() {
        let cfg = PolicyConfig {
            cooldown_ticks: 2,
            ..config()
        };
        let mut p = HysteresisPolicy::new(Knob::DemandSlack, cfg, 0);
        let committed: Vec<u64> = (0..9)
            .filter_map(|t| p.tick(t, Pull::Raise, "up").map(|d| d.tick))
            .collect();
        assert_eq!(committed, vec![0, 3, 6], "one move per cooldown window");
    }

    #[test]
    fn reversals_count_direction_flips() {
        let mut p = HysteresisPolicy::new(Knob::PrefetchDepth, config(), 2);
        p.tick(0, Pull::Raise, "up");
        p.tick(1, Pull::Raise, "up");
        assert_eq!(p.reversals(), 0);
        p.tick(2, Pull::Lower, "down");
        assert_eq!(p.reversals(), 1);
        p.tick(3, Pull::Lower, "down");
        assert_eq!(p.reversals(), 1, "same direction is not a reversal");
        p.tick(4, Pull::Raise, "up");
        assert_eq!(p.reversals(), 2);
    }

    #[test]
    fn clamped_step_emits_partial_decision() {
        let cfg = PolicyConfig {
            step: 3,
            ..config()
        };
        let mut p = HysteresisPolicy::new(Knob::PrefetchDepth, cfg, 3);
        let d = p.tick(0, Pull::Raise, "up").expect("moves 3 -> 4");
        assert_eq!((d.from, d.to), (3, 4), "step clamps to max");
    }

    #[test]
    fn decision_renders_with_knob_name() {
        let mut p = HysteresisPolicy::new(Knob::PrefetchDepth, config(), 0);
        let d = p.tick(7, Pull::Raise, "late/miss dominate").expect("moves");
        assert_eq!(
            d.render(),
            "tick 7: prefetch_depth 0 -> 1 (late/miss dominate)"
        );
    }
}
