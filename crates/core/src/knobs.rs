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

    /// The materialize fan-out knob currently in effect (before the
    /// per-task `execution.aug_threads` max-fold).
    #[must_use]
    pub fn aug_threads(&self) -> usize {
        self.inner.aug_threads_live.load(Ordering::Relaxed)
    }

    /// Retunes the materialize fan-out at runtime. Applies to buckets
    /// submitted from the next chunk on; the value participates in the
    /// same max-fold as per-task hints.
    pub fn set_aug_threads(&self, n: usize) {
        self.inner
            .aug_threads_live
            .store(n.max(1), Ordering::Relaxed);
        self.inner.publish_effective_knobs();
    }

    /// The intra-video decode fan-out currently in effect.
    #[must_use]
    pub fn decode_threads(&self) -> usize {
        self.inner.decode_threads_live.load(Ordering::Relaxed)
    }

    /// Retunes the intra-video decode fan-out at runtime; read once per
    /// pre-decode pass.
    pub fn set_decode_threads(&self, n: usize) {
        self.inner
            .decode_threads_live
            .store(n.max(1), Ordering::Relaxed);
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
    /// The materialize fan-out actually in effect: the *live* engine
    /// knob, maxed with every task-level `execution.aug_threads` hint.
    ///
    /// The fold starts from the runtime value (`aug_threads_live`), not
    /// the static config, so a controller- or API-driven override
    /// participates in the same max-fold as the per-task hints — raising
    /// the knob above every hint takes effect instead of being silently
    /// shadowed by a larger static hint.
    pub(crate) fn effective_aug_threads(&self) -> usize {
        self.config
            .tasks
            .iter()
            .map(|t| t.execution.aug_threads)
            .fold(self.aug_threads_live.load(Ordering::Relaxed), usize::max)
            .max(1)
    }

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
    /// knob — prefetch depth, demand slack, thread splits — none of which
    /// participate in planning, sampling, or augmentation math, so served
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
        self.aug_threads_live
            .store((values.aug_threads as usize).max(1), Ordering::Relaxed);
        self.decode_threads_live
            .store((values.decode_threads as usize).max(1), Ordering::Relaxed);
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
            m.aug_threads.set(values.aug_threads as i64);
            m.decode_threads.set(values.decode_threads as i64);
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
        m.effective_aug_threads
            .set(self.aug_threads_live.load(Ordering::Relaxed) as i64);
        m.effective_decode_threads
            .set(self.decode_threads_live.load(Ordering::Relaxed) as i64);
        let (peers, timeout) = self
            .remote
            .as_ref()
            .map_or((0, Duration::ZERO), |r| (r.peer_count(), r.fetch_timeout()));
        m.effective_remote_peers.set(peers as i64);
        m.effective_remote_timeout_ms
            .set(timeout.as_millis() as i64);
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::tests::{dataset, TASK};
    use crate::engine::{EngineConfig, Inner, SandEngine};
    use sand_config::parse_task_config;

    #[test]
    fn runtime_aug_threads_override_joins_the_max_fold() {
        let mut task = parse_task_config(TASK).unwrap();
        task.execution.aug_threads = 4;
        let config = EngineConfig {
            tasks: vec![task],
            prematerialize: false,
            total_epochs: 4,
            epochs_per_chunk: 2,
            aug_threads: 1,
            ..Default::default()
        };
        let e = SandEngine::new(config, dataset()).unwrap();
        // The task hint dominates the static knob.
        assert_eq!(Inner::effective_aug_threads(&e.inner), 4);
        // A runtime override below the hint folds in but cannot shrink
        // past it (the hint is a per-task floor, not a suggestion).
        e.set_aug_threads(2);
        assert_eq!(Inner::effective_aug_threads(&e.inner), 4);
        // Raising above every hint takes effect — the override joins the
        // same max-fold instead of being shadowed by the static hint.
        e.set_aug_threads(8);
        assert_eq!(Inner::effective_aug_threads(&e.inner), 8);
        assert_eq!(e.aug_threads(), 8);
    }
}
