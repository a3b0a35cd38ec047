//! Runtime knobs: the live values behind the config seeds, their
//! getters and setters, and the autotune controller that moves them.

use crate::engine::{Inner, SandEngine};
use sand_autotune::Decision;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

impl SandEngine {
    /// The prefetch depth currently in effect (runtime value, not the
    /// config seed).
    #[must_use]
    pub fn prefetch_depth(&self) -> usize {
        self.inner.prefetcher.depth()
    }

    /// Prefetch entries currently in flight (scheduled but not yet
    /// settled into an outcome counter).
    #[must_use]
    pub fn prefetch_pending(&self) -> usize {
        self.inner.prefetcher.pending()
    }

    /// Retunes the prefetch window depth at runtime. Entries already in
    /// flight keep their exact-conservation accounting: growing or
    /// shrinking to a nonzero depth leaves them to be consumed normally;
    /// shrinking to `0` cancels them (each settles `cancelled` exactly
    /// once), and racing serves still drain any residue because the
    /// consume path stays open while entries are pending.
    pub fn set_prefetch_depth(&self, depth: usize) {
        self.inner.prefetcher.set_depth(depth);
        self.inner.publish_effective_knobs();
    }

    /// The demand-slack window currently in effect.
    #[must_use]
    pub fn demand_slack(&self) -> u64 {
        self.inner.sched.demand_slack()
    }

    /// Retunes the scheduler's demand-slack window at runtime.
    pub fn set_demand_slack(&self, slack: u64) {
        self.inner.sched.set_demand_slack(slack);
        self.inner.publish_effective_knobs();
    }

    /// Runs one controller tick synchronously: snapshot the registry,
    /// advance the policies, apply the resulting knob values, and export
    /// decisions. Returns `None` when autotune or telemetry is disabled
    /// (the controller is inert without signals). The background loop
    /// (`autotune.interval_ms > 0`) calls exactly this; a zero interval
    /// plus explicit ticks gives deterministic, test-driven control.
    pub fn autotune_tick(&self) -> Option<Vec<Decision>> {
        self.inner.autotune_tick()
    }
}

impl Inner {
    /// Spawns the background control thread (only when autotune is
    /// configured with a nonzero interval). The thread holds a `Weak` to
    /// the engine state, so it never keeps a dropped engine alive; it
    /// wakes in 20 ms steps to observe shutdown promptly.
    pub(crate) fn spawn_autotune_loop(self: &Arc<Self>) {
        let Some(a) = &self.config.autotune else {
            return;
        };
        if a.interval_ms == 0 {
            return;
        }
        let interval = Duration::from_millis(a.interval_ms);
        let stop = Arc::clone(&self.autotune_stop);
        let weak = Arc::downgrade(self);
        let handle = std::thread::Builder::new()
            .name("sand-autotune".into())
            .spawn(move || loop {
                let mut slept = Duration::ZERO;
                while slept < interval {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let step = (interval - slept).min(Duration::from_millis(20));
                    std::thread::sleep(step);
                    slept += step;
                }
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                match weak.upgrade() {
                    Some(inner) => {
                        let _ = inner.autotune_tick();
                    }
                    None => return,
                }
            });
        if let Ok(h) = handle {
            *self.autotune_thread.lock() = Some(h);
        }
    }

    /// One closed-loop control tick: derive signals from the registry
    /// snapshot, advance every policy, apply the resulting knob values,
    /// and export the decisions (metrics + stall-report decision log).
    ///
    /// Returns `None` when autotune or telemetry is disabled — without a
    /// registry there are no signals, so the controller stays inert (lint
    /// SL034 denies that configuration up front).
    ///
    /// Bit-identity: every knob this tick can move is a *performance*
    /// knob — prefetch depth, demand slack — neither of which
    /// participates in planning, sampling, or augmentation math, so served
    /// bytes are unchanged under any decision schedule
    /// (`prop_autotune_parity`).
    fn autotune_tick(&self) -> Option<Vec<Decision>> {
        let controller = self.autotune.as_ref()?;
        let snapshot = self.telemetry.snapshot()?;
        let (decisions, values) = {
            let mut c = controller.lock();
            let decisions = c.tick(&snapshot);
            (decisions, c.values())
        };
        // Apply unconditionally (the setters are idempotent): the knob
        // values are the controller's single source of truth, so a
        // concurrent manual setter call is simply overridden at the next
        // tick.
        self.prefetcher.set_depth(values.prefetch_depth as usize);
        self.sched.set_demand_slack(values.demand_slack);
        for d in &decisions {
            self.telemetry.push_decision(d.render());
        }
        if let Some(m) = &self.autotune_metrics {
            m.ticks.inc();
            for d in &decisions {
                m.decisions.inc();
                if d.to > d.from {
                    m.raises.inc();
                } else {
                    m.lowers.inc();
                }
            }
            m.prefetch_depth.set(values.prefetch_depth as i64);
            m.demand_slack.set(values.demand_slack as i64);
        }
        self.publish_effective_knobs();
        Some(decisions)
    }

    /// Publishes the *live* knob values (not the config seeds) to the
    /// `engine.effective_*` gauges, so a snapshot always reports what the
    /// runtime is actually doing — after construction, a manual setter,
    /// or a controller tick. No-op with telemetry disabled.
    pub(crate) fn publish_effective_knobs(&self) {
        let Some(m) = &self.engine_metrics else {
            return;
        };
        m.effective_prefetch_depth
            .set(self.prefetcher.depth() as i64);
        m.effective_demand_slack
            .set(self.sched.demand_slack() as i64);
        let (peers, timeout) = self
            .remote
            .as_ref()
            .map_or((0, Duration::ZERO), |r| (r.peer_count(), r.fetch_timeout()));
        m.effective_remote_peers.set(peers as i64);
        m.effective_remote_timeout_ms
            .set(timeout.as_millis() as i64);
    }
}
