//! Serving: a batch is assembled from per-sample jobs — demand jobs the
//! serve waits on, or prefetch jobs that ran ahead of it — and handed to
//! the trainer through one bookkeeping tail.

use crate::chunk::Chunk;
use crate::engine::Inner;
use crate::materialize::Scratch;
use crate::prefetch::BatchBuild;
use crate::{CoreError, Result};
use sand_frame::tensor::{clip_refs_to_tensor, stack_to_bytes};
use sand_frame::{Frame, Tensor};
use sand_graph::{BatchRef, NodeId, SamplePlan};
use sand_sched::{Job, JobKind};
use sand_telemetry::{BatchMeta, BatchProbe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

impl Inner {
    /// Finds the batch plan for (task tag, epoch, iteration).
    pub(crate) fn find_batch<'c>(
        &self,
        chunk: &'c Chunk,
        task: &str,
        epoch: u64,
        iteration: u64,
    ) -> Result<&'c BatchRef> {
        let task_id = *self
            .task_ids
            .get(task)
            .ok_or_else(|| CoreError::UnknownView {
                what: format!("unknown task `{task}`"),
            })?;
        let idx = chunk
            .batch_index
            .get(&(task_id, epoch, iteration))
            .ok_or_else(|| CoreError::UnknownView {
                what: format!("no batch for {task}/{epoch}/{iteration}"),
            })?;
        Ok(&chunk.graph.batches[*idx])
    }

    /// The tenant a task is attributed to (`None` = untenanted).
    fn tenant_of(&self, task_id: u32) -> Option<u32> {
        let tenancy = self.tenancy.as_ref()?;
        tenancy.task_tenant.get(task_id as usize).copied().flatten()
    }

    /// One sample's final tensor: materialize the clip, then normalize
    /// and pack (the demand jobs, the prefetch jobs, and nobody else).
    fn sample_tensor(self: &Arc<Self>, chunk: &Arc<Chunk>, plan: &SamplePlan) -> Result<Tensor> {
        let memo = Scratch::new();
        self.predecode_nodes(chunk, &plan.frame_nodes, &memo)?;
        let clip = plan
            .frame_nodes
            .iter()
            .map(|&t| Ok(self.materialize(chunk, t, &memo)?.frame))
            .collect::<Result<Vec<_>>>()?;
        let channels = clip.first().map_or(3, |f| f.channels());
        let (mean, std) = match &plan.normalize {
            Some((m, s)) => (m.clone(), s.clone()),
            None => (vec![0.0; channels], vec![1.0; channels]),
        };
        let refs: Vec<&Frame> = clip.iter().map(Arc::as_ref).collect();
        Ok(clip_refs_to_tensor(&refs, &mean, &std)?)
    }

    /// Serves a training batch as serialized tensor bytes, via the
    /// prefetcher when it holds (or is assembling) this batch, inline
    /// otherwise. Either way, serving batch `n` tops the prefetch window
    /// back up to `n+1..=n+depth`.
    pub(crate) fn serve_batch(
        self: &Arc<Self>,
        task: &str,
        epoch: u64,
        iteration: u64,
    ) -> Result<Vec<u8>> {
        // The batch's t0 precedes the chunk lookup, so a boundary that
        // plans inline (or waits on an in-flight plan) books that time
        // to the trace's `plan` segment.
        let t0 = self.telemetry.now();
        let chunk = self.ensure_chunk(epoch)?;
        self.request_next_chunk(&chunk, epoch);
        let batch = self.find_batch(&chunk, task, epoch, iteration)?;
        let chunk_id = epoch / self.config.epochs_per_chunk;
        let mut served = None;
        if self.prefetcher.enabled() {
            // Chunk rollover: speculative batches built against the
            // previous chunk's plan are dead — cancel, never serve.
            self.prefetcher.cancel_stale(chunk_id);
            served = self.consume_prefetched(&chunk, chunk_id, t0, batch)?;
        }
        let bytes = match served {
            Some(bytes) => bytes,
            None => self.serve_batch_inline(&chunk, t0, batch)?,
        };
        if self.prefetcher.enabled() {
            self.schedule_prefetch(&chunk, chunk_id, batch);
        }
        Ok(bytes)
    }

    /// Consumes a prefetched batch if an entry exists for the current
    /// chunk: a complete build is a hit; an in-flight one is served late
    /// (the wait lands in the trace's `prefetch` segment). Returns
    /// `Ok(None)` on a miss — including a failed or cancelled build,
    /// which falls back to the inline path rather than erroring, since
    /// speculative work must never fail a serve the inline path could
    /// satisfy.
    fn consume_prefetched(
        self: &Arc<Self>,
        chunk: &Arc<Chunk>,
        chunk_id: u64,
        t0: Option<Instant>,
        batch: &BatchRef,
    ) -> Result<Option<Vec<u8>>> {
        let key = (batch.task, batch.epoch, batch.iteration);
        let Some(build) = self.prefetcher.take(key, chunk_id) else {
            return Ok(None);
        };
        let metrics = self.prefetcher.metrics.as_ref();
        // From here the entry is consumed and must settle exactly one of
        // the outcome counters: `cancelled` (discarded unconsumable),
        // `miss` (taken but unusable, served inline), `hit`/`late`
        // (served from the build) — `scheduled` counts entries at
        // `begin`, so the four outcomes partition it.
        // Zero-sample probe: no demand jobs run on a prefetch serve, so
        // the only attributable segments are `prefetch` (waited below)
        // and `plan`/`finalize` bookkeeping — the exact-sum invariant
        // over serve latency is preserved.
        let probe = t0.map(|t0| BatchProbe::starting_at(t0, 0));
        let was_complete = build.is_complete();
        if !was_complete && !build.cancelled() {
            let t0 = metrics.map(|_| Instant::now());
            build.wait_complete();
            if let (Some(m), Some(t0)) = (metrics, t0) {
                let waited = t0.elapsed();
                m.wait_us.observe_duration(waited);
                if let Some(p) = &probe {
                    p.record_prefetch_wait(waited);
                }
            }
        }
        if build.cancelled() {
            // Cancelled after it left the map (e.g. a rollover racing
            // this serve): the rollover path never saw this entry, so it
            // is counted here.
            if let Some(m) = metrics {
                m.cancelled.inc();
            }
            return Ok(None);
        }
        // A failed (or never-run) sample: recompute inline (the failure
        // may have been transient, and the inline path owns error
        // reporting). The entry was consumed but could not serve the
        // batch — that is the miss.
        let Some(tensors) = build
            .take_results()
            .into_iter()
            .map(|slot| slot.and_then(Result::ok))
            .collect::<Option<Vec<Tensor>>>()
        else {
            if let Some(m) = metrics {
                m.miss.inc();
            }
            return Ok(None);
        };
        // The build served the batch: settle hit vs. late only now, so a
        // post-wait cancellation or bad slot cannot double-count.
        if let Some(m) = metrics {
            if was_complete {
                m.hit.inc();
            } else {
                m.late.inc();
            }
        }
        // Consumption bookkeeping — the inline path's, at consume time
        // in consume order, so the store's clock/use/budget timeline
        // never depends on when speculation ran.
        build.mark_consumed();
        self.store.set_clock(batch.clock);
        self.report_pressure();
        self.finish_serve(chunk, batch, &tensors, probe.as_deref())
            .map(Some)
    }

    /// Submits one job per sample of `batch`, each delivering its tensor
    /// into `build`, on the tab of the batch's tenant (speculative work
    /// included: one tenant's deep prefetch window cannot eat another's
    /// weighted share). A job performs the final normalization too, keeping
    /// the serving thread off the critical path (the paper's
    /// demand-feeding threads perform "final steps of the preprocessing
    /// pipeline"), and is self-contained — no nested fan-out — so it
    /// never blocks on another job of its batch.
    fn submit_samples(
        self: &Arc<Self>,
        chunk: &Arc<Chunk>,
        batch: &BatchRef,
        kind: JobKind,
        build: &Arc<BatchBuild>,
        probe: Option<&Arc<BatchProbe>>,
    ) {
        let tenant = self.tenant_of(batch.task);
        for (i, plan) in batch.samples.iter().enumerate() {
            let inner = Arc::clone(self);
            let chunk = Arc::clone(chunk);
            let plan2 = plan.clone();
            let slot = build.slot(i);
            let probe = probe.cloned();
            if let Some(p) = &probe {
                p.mark_submitted(i);
            }
            self.sched.submit(Job {
                kind,
                deadline: batch.clock,
                remaining_work: plan.frame_nodes.len() as u64,
                affinity: Some(plan.video_id),
                tenant,
                run: Box::new(move || {
                    if slot.cancelled() {
                        // Dropping the slot counts toward completion.
                        return;
                    }
                    let work = || inner.sample_tensor(&chunk, &plan2);
                    slot.fulfill(match &probe {
                        Some(p) => p.run_sample(i, work),
                        None => work(),
                    });
                }),
            });
        }
    }

    /// Tops the prefetch window up to `depth` batches past the one just
    /// served, walking the trainer's consumption order (iterations, then
    /// the next epoch) without ever crossing the current chunk. Each
    /// sample becomes one [`JobKind::Prefetch`] job. Scheduling stops
    /// early under back-pressure: in-flight entries, sized by the last
    /// served batch, must fit the store's memory budget.
    fn schedule_prefetch(self: &Arc<Self>, chunk: &Arc<Chunk>, chunk_id: u64, served: &BatchRef) {
        let task_id = served.task;
        let est = self.last_batch_bytes.load(Ordering::Relaxed);
        let (mut e, mut i) = (served.epoch, served.iteration);
        for _ in 0..self.prefetcher.depth() {
            // Successor in consumption order.
            if chunk.batch_index.contains_key(&(task_id, e, i + 1)) {
                i += 1;
            } else {
                e += 1;
                i = 0;
            }
            if e >= self.config.total_epochs || e / self.config.epochs_per_chunk != chunk_id {
                break;
            }
            let Some(&idx) = chunk.batch_index.get(&(task_id, e, i)) else {
                break;
            };
            if est > 0 {
                let speculative = (self.prefetcher.pending() as u64 + 1) * est;
                if speculative > self.config.store.memory_budget {
                    break;
                }
            }
            let batch = &chunk.graph.batches[idx];
            let Some(build) = self
                .prefetcher
                .begin((task_id, e, i), chunk_id, batch.samples.len())
            else {
                continue; // already in flight from an earlier serve
            };
            // One `scheduled` per batch entry (not per sample): the
            // outcome counters settle per entry, and
            // `scheduled == hit + late + miss + cancelled` must hold
            // once every entry is consumed.
            if let Some(m) = &self.prefetcher.metrics {
                m.scheduled.inc();
            }
            self.submit_samples(chunk, batch, JobKind::Prefetch, &build, None);
        }
    }

    /// Serves a training batch inline (no prefetch entry): fan the
    /// samples out as demand jobs, so feeding parallelizes and preempts
    /// pre-materialization, and assemble on this thread.
    fn serve_batch_inline(
        self: &Arc<Self>,
        chunk: &Arc<Chunk>,
        t0: Option<Instant>,
        batch: &BatchRef,
    ) -> Result<Vec<u8>> {
        // Everything between the batch's t0 and each job's submission
        // is the `plan` segment of the batch's trace.
        let probe = t0.map(|t0| BatchProbe::starting_at(t0, batch.samples.len()));
        self.store.set_clock(batch.clock);
        self.report_pressure();
        let build = Arc::new(BatchBuild::new(batch.samples.len()));
        self.submit_samples(chunk, batch, JobKind::Demand, &build, probe.as_ref());
        build.wait_complete();
        let tensors = build
            .take_results()
            .into_iter()
            .map(|slot| slot.unwrap_or(Err(CoreError::JobLost)))
            .collect::<Result<Vec<Tensor>>>()?;
        self.finish_serve(chunk, batch, &tensors, probe.as_deref())
    }

    /// Burns one retained use of every *strict* ancestor of `id` in the
    /// store (video roots are never stored, so marking them is a no-op).
    fn mark_used_ancestors(&self, chunk: &Chunk, id: NodeId) {
        let mut cur = chunk.graph.nodes[id].parent;
        while let Some(p) = cur {
            self.store.mark_used(chunk.key(p));
            cur = chunk.graph.nodes[p].parent;
        }
    }

    /// The tail of every serve, from the sample tensors to the bytes
    /// returned: consumption bookkeeping, then the batch's trace.
    fn finish_serve(
        &self,
        chunk: &Chunk,
        batch: &BatchRef,
        tensors: &[Tensor],
        probe: Option<&BatchProbe>,
    ) -> Result<Vec<u8>> {
        let bytes = stack_to_bytes(tensors)?;
        // A consumed terminal burns one retained use of itself *and of
        // every ancestor*. `Chunk::build` accumulates each node's
        // `future_uses` as the total planned consumptions in its subtree,
        // so burning the whole chain on every consumption — and nothing
        // anywhere else — drives each count to exactly zero when its last
        // dependent batch is served, making spent parents evictable
        // (Algorithm 1's retained-use accounting). Burning at build time
        // instead would leak uses whenever a descendant is later served
        // from cache.
        for plan in &batch.samples {
            for &t in &plan.frame_nodes {
                self.store.mark_used(chunk.key(t));
                self.mark_used_ancestors(chunk, t);
            }
        }
        self.store.enforce_budgets()?;
        self.report_pressure();
        self.batches_served.fetch_add(1, Ordering::Relaxed);
        self.last_batch_bytes
            .store(bytes.len() as u64, Ordering::Relaxed);
        let Some(probe) = probe else {
            return Ok(bytes);
        };
        // The tenant's name labels the trace; its counters take the serve.
        let tenant = self
            .tenant_of(batch.task)
            .and_then(|t| self.tenancy.as_ref()?.tenants.get(t as usize));
        let trace = probe.finish(
            BatchMeta {
                task: self.config.tasks[batch.task as usize].tag.clone(),
                epoch: batch.epoch,
                iteration: batch.iteration,
                clock: batch.clock,
                tenant: tenant.map(|t| t.name.clone()),
            },
            self.telemetry.config().map_or(0, |c| c.stall_budget_us),
        );
        if let Some(m) = &self.engine_metrics {
            m.serve_us.observe(trace.serve_ns / 1_000);
            m.batches_served.inc();
            if trace.stalled {
                m.batches_stalled.inc();
            }
        }
        if let Some(m) = tenant.and_then(|t| t.metrics.as_ref()) {
            m.batches_served.inc();
            m.serve_us.observe(trace.serve_ns / 1_000);
            if trace.stalled {
                m.stalled.inc();
            }
        }
        self.telemetry.push_trace(trace);
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::tests::{dataset, engine, TASK};
    use crate::engine::{EngineConfig, SandEngine};
    use crate::CoreError;
    use sand_config::parse_task_config;
    use sand_frame::Tensor;
    use sand_telemetry::TelemetryConfig;

    #[test]
    fn serves_batches_with_expected_shape() {
        let e = engine(false);
        e.start().unwrap();
        let bytes = e.serve_batch("train", 0, 0).unwrap();
        let t = Tensor::from_bytes(&bytes).unwrap();
        // 2 videos/batch, (C=3, T=4, H=8, W=8).
        assert_eq!(t.shape(), &[2, 3, 4, 8, 8]);
    }

    #[test]
    fn batches_cover_epoch_once() {
        let e = engine(false);
        e.start().unwrap();
        let iters = e.iterations_per_epoch("train").unwrap();
        assert_eq!(iters, 2);
        for it in 0..iters {
            e.serve_batch("train", 0, it).unwrap();
        }
        assert_eq!(e.stats().batches_served, 2);
    }

    #[test]
    fn serving_is_deterministic_given_seed() {
        let a = engine(false);
        a.start().unwrap();
        let b = engine(false);
        b.start().unwrap();
        assert_eq!(
            a.serve_batch("train", 0, 0).unwrap(),
            b.serve_batch("train", 0, 0).unwrap()
        );
        assert_eq!(
            a.serve_batch("train", 1, 1).unwrap(),
            b.serve_batch("train", 1, 1).unwrap()
        );
    }

    #[test]
    fn second_epoch_of_chunk_reuses_nothing_spurious() {
        // Serving both epochs of a chunk works and covers every video.
        let e = engine(true);
        e.start().unwrap();
        e.wait_idle();
        for epoch in 0..2 {
            for it in 0..2 {
                let bytes = e.serve_batch("train", epoch, it).unwrap();
                assert!(!bytes.is_empty());
            }
        }
    }

    #[test]
    fn next_chunk_planned_on_demand() {
        let e = engine(false);
        e.start().unwrap();
        // Epoch 2 is in chunk 1.
        let bytes = e.serve_batch("train", 2, 0).unwrap();
        assert!(!bytes.is_empty());
    }

    #[test]
    fn epoch_beyond_total_rejected() {
        let e = engine(false);
        e.start().unwrap();
        assert!(matches!(
            e.serve_batch("train", 99, 0),
            Err(CoreError::State { .. })
        ));
    }

    #[test]
    fn unknown_task_and_iteration_rejected() {
        let e = engine(false);
        e.start().unwrap();
        assert!(matches!(
            e.serve_batch("nope", 0, 0),
            Err(CoreError::UnknownView { .. })
        ));
        assert!(matches!(
            e.serve_batch("train", 0, 999),
            Err(CoreError::UnknownView { .. })
        ));
    }

    #[test]
    fn served_chunk_leaves_no_retained_uses() {
        // Serve every batch of a chunk; afterwards each surviving store
        // object must report zero future uses — the consumption-time
        // chain burn spends parents exactly, so Algorithm 1 may evict
        // everything. (The old build-time parent burn leaked uses when a
        // descendant was later served from cache.)
        let e = engine(true);
        e.start().unwrap();
        e.wait_idle();
        for epoch in 0..2 {
            for it in 0..2 {
                e.serve_batch("train", epoch, it).unwrap();
            }
        }
        let store = e.store();
        for key in store.keys() {
            assert_eq!(
                store.future_uses_of(&key),
                Some(0),
                "object `{key}` still holds retained uses after its chunk \
                 was fully served"
            );
        }
    }

    #[test]
    fn stall_report_breakdown_sums_to_serve_latency() {
        let config = EngineConfig {
            tasks: vec![parse_task_config(TASK).unwrap()],
            prematerialize: true,
            total_epochs: 2,
            epochs_per_chunk: 2,
            // Default stall budget is 0: every batch is traced as stalled,
            // which is exactly what this invariant check wants.
            telemetry: Some(TelemetryConfig::default()),
            ..Default::default()
        };
        let e = SandEngine::new(config, dataset()).unwrap();
        e.start().unwrap();
        e.wait_idle();
        for epoch in 0..2 {
            for it in 0..2 {
                e.serve_batch("train", epoch, it).unwrap();
            }
        }
        let report = e.stall_report().expect("telemetry enabled");
        assert_eq!(report.traces.len(), 4);
        assert_eq!(report.stalled().len(), 4);
        for t in &report.traces {
            assert_eq!(
                t.breakdown_sum_ns(),
                t.serve_ns,
                "stage breakdown of {} does not reassemble its serve latency",
                t.batch_id()
            );
            assert_eq!(t.samples, 2);
        }
        // The scheduler accounted every demand job under metrics.
        let snap = e.metrics_snapshot().expect("telemetry enabled");
        assert_eq!(
            snap.histogram("sched.demand_wait_us").map(|h| h.count),
            Some(8),
            "4 batches x 2 samples pass through the demand queue"
        );
    }

    /// `prefetch_depth = 0` is statically off: a full sweep serves every
    /// batch inline, no prefetch counter moves and no `Prefetch` job
    /// reaches the scheduler. (One chunk: the only other user of the
    /// `Prefetch` band is the plan-ahead job at a chunk boundary.)
    #[test]
    fn depth_zero_serves_every_batch_inline() {
        let config = EngineConfig {
            tasks: vec![parse_task_config(TASK).unwrap()],
            prematerialize: false,
            total_epochs: 2,
            epochs_per_chunk: 2,
            prefetch_depth: 0,
            telemetry: Some(TelemetryConfig::default()),
            ..Default::default()
        };
        let e = SandEngine::new(config, dataset()).unwrap();
        e.start().unwrap();
        for epoch in 0..2 {
            for it in 0..2 {
                e.serve_batch("train", epoch, it).unwrap();
            }
        }
        e.wait_idle();
        let stats = e.stats();
        assert_eq!(stats.batches_served, 4);
        assert_eq!(stats.sched.prefetch_served, 0);
        assert_eq!(stats.sched.demand_served, 8, "4 batches x 2 samples");
        let snap = e.metrics_snapshot().expect("telemetry enabled");
        for outcome in ["scheduled", "hit", "late", "miss", "cancelled"] {
            let name = format!("prefetch.{outcome}");
            assert_eq!(snap.counter(&name), Some(0), "{name}");
        }
    }
}
