//! # sand-autotune — the closed-loop adaptive control plane
//!
//! The engine's runtime knobs (`prefetch_depth`, `demand_slack`) are
//! static configuration that must be hand-tuned per host. This crate
//! closes the loop: a [`Controller`] periodically reads the telemetry registry's
//! [`Snapshot`](sand_telemetry::Snapshot) and retunes those knobs online
//! so the engine runs at the speed the *current* hardware and workload
//! allow, not the speed somebody profiled in advance.
//!
//! Three layers, each independently testable:
//!
//! - [`Signals`] — pure derivation of rates and deltas from two
//!   successive snapshots (prefetch outcome pressure, per-stage stall
//!   shares, queue-depth trend, store budget headroom). No engine types,
//!   no clocks: snapshots in, numbers out.
//! - [`HysteresisPolicy`] — a per-knob state machine with a dead band
//!   (`raise_above`/`lower_below` thresholds), cooldown ticks between
//!   moves, and hard min/max clamps. Policies emit [`Decision`]s, never
//!   touch the engine directly.
//! - [`Controller`] — maps signals to per-policy drives (with vetoes
//!   such as "never raise prefetch depth while the store has no budget
//!   headroom"), collects decisions, and tracks direction reversals so
//!   oscillation is observable.
//!
//! The engine owns actuation: it applies each tick's
//! [`KnobValues`] through its runtime setters and exports the decisions
//! as `autotune.*` metrics plus a decision log in the stall report.
//!
//! ## Bit-identity
//!
//! Every knob this controller drives is a *scheduling* knob: none of
//! them participate in what bytes a batch contains (each is individually
//! parity-pinned by the engine's property tests). Therefore any schedule
//! of decisions the controller can emit is parity-safe by construction —
//! re-verified end to end by `prop_autotune_knob_schedule_parity` in
//! `sand-core`.

mod controller;
mod policy;
mod signal;

pub use controller::{Controller, KnobValues};
pub use policy::{Decision, HysteresisPolicy, Knob, PolicyConfig, Pull};
pub use signal::{SignalDeriver, Signals};

/// Configuration for the adaptive controller, carried by
/// `EngineConfig::autotune`. `None` there means no controller, no
/// background thread, and zero overhead (pinned by the
/// `autotune_overhead` bench).
#[derive(Clone, Debug)]
pub struct AutotuneConfig {
    /// Background control-tick interval in milliseconds. `0` spawns no
    /// thread: ticks happen only through explicit `autotune_tick` calls,
    /// which is what the deterministic tests and the example use.
    pub interval_ms: u64,
    /// Store memory-budget headroom fraction (0..1) below which the
    /// prefetch-depth policy refuses to raise and prefers to lower.
    pub headroom_floor: f64,
    /// Policy for `prefetch_depth` (raise while late/miss dominate and
    /// headroom allows; lower on cancellation churn or back-pressure).
    pub prefetch_depth: PolicyConfig,
    /// Policy for the scheduler's bounded-EDF `demand_slack` window
    /// (raise while pinned demand picks miss their preferred worker).
    pub demand_slack: PolicyConfig,
}

impl Default for AutotuneConfig {
    fn default() -> Self {
        AutotuneConfig {
            interval_ms: 0,
            headroom_floor: 0.15,
            prefetch_depth: PolicyConfig {
                min: 0,
                max: 8,
                step: 1,
                raise_above: 0.25,
                lower_below: 0.05,
                cooldown_ticks: 2,
            },
            demand_slack: PolicyConfig {
                min: 0,
                max: 64,
                step: 4,
                raise_above: 0.5,
                lower_below: 0.1,
                cooldown_ticks: 2,
            },
        }
    }
}

impl AutotuneConfig {
    /// The per-knob clamp ranges, in a shape the lint pass can consume
    /// (SL035 denies empty or inverted ranges).
    #[must_use]
    pub fn clamps(&self) -> Vec<(&'static str, u64, u64)> {
        vec![
            (
                Knob::PrefetchDepth.name(),
                self.prefetch_depth.min,
                self.prefetch_depth.max,
            ),
            (
                Knob::DemandSlack.name(),
                self.demand_slack.min,
                self.demand_slack.max,
            ),
        ]
    }
}
