//! Serving: a batch is assembled from per-sample jobs — demand jobs the
//! serve waits on, or prefetch jobs that ran ahead of it — and handed to
//! the trainer through one bookkeeping tail.

use crate::chunk::Chunk;
use crate::engine::Inner;
use crate::materialize::Scratch;
use crate::prefetch::{BatchBuild, Sample};
use crate::{CoreError, Result};
use sand_frame::tensor::{clip_refs_to_tensor, stack_to_bytes};
use sand_frame::{Frame, Tensor};
use sand_graph::{BatchRef, NodeId, SamplePlan};
use sand_sched::{Job, JobKind};
use sand_telemetry::{BatchMeta, BatchProbe};
use std::panic::{self, AssertUnwindSafe};
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

    /// The tenant a task belongs to.
    fn tenant_of(&self, task_id: u32) -> u32 {
        self.tenancy.task_tenant[task_id as usize]
    }

    /// One sample's final tensor: materialize the clip, then normalize
    /// and pack (the demand jobs, the prefetch jobs, and nobody else).
    /// The clip's remote leaves are asked for in one request per owner,
    /// and what the job computed for other owners is pushed before the
    /// tensor is delivered.
    pub(crate) fn sample_tensor(
        self: &Arc<Self>,
        chunk: &Arc<Chunk>,
        plan: &SamplePlan,
    ) -> Result<Tensor> {
        let memo = Scratch::new();
        let clip = (|| {
            self.fetch_ahead(chunk, &plan.frame_nodes, &memo);
            self.predecode_nodes(chunk, &plan.frame_nodes, &memo)?;
            plan.frame_nodes
                .iter()
                .map(|&t| Ok(self.materialize(chunk, t, &memo)?.frame))
                .collect::<Result<Vec<_>>>()
        })();
        self.push_queued(&memo);
        let clip = clip?;
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
        let t0 = Instant::now();
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
    /// — this thread builds the samples no worker has started, then waits
    /// for the rest, and both land in the trace's `prefetch` segment.
    /// Returns `Ok(None)` on a miss — including a failed or cancelled
    /// build, which falls back to the inline path rather than erroring,
    /// since speculative work must never fail a serve the inline path
    /// could satisfy.
    fn consume_prefetched(
        self: &Arc<Self>,
        chunk: &Arc<Chunk>,
        chunk_id: u64,
        t0: Instant,
        batch: &BatchRef,
    ) -> Result<Option<Vec<u8>>> {
        let key = (batch.task, batch.epoch, batch.iteration);
        let Some(build) = self.prefetcher.take(key, chunk_id) else {
            return Ok(None);
        };
        let metrics = &self.prefetcher.metrics;
        // From here the entry is consumed and must settle exactly one of
        // the outcome counters: `cancelled` (discarded unconsumable),
        // `miss` (taken but unusable, served inline), `hit`/`late`
        // (served from the build) — `scheduled` counts entries at
        // `begin`, so the four outcomes partition it.
        // Zero-sample trace: no demand jobs run on a prefetch serve, so
        // the only attributable segments are `prefetch` (built and
        // waited below) and `plan`/`finalize` bookkeeping — the
        // exact-sum invariant over serve latency is preserved.
        let probe = BatchProbe::starting_at(t0);
        let was_complete = build.is_complete();
        if !was_complete && !build.cancelled() {
            let t0 = Instant::now();
            let built = self.build_unstarted(chunk, batch, &build);
            build.wait_complete();
            let waited = t0.elapsed();
            metrics.wait_us.observe_duration(waited);
            metrics.serve_built.add(built);
            probe.record_prefetch_wait(waited);
        }
        if build.cancelled() {
            // Cancelled after it left the map (e.g. a rollover racing
            // this serve): the rollover path never saw this entry, so it
            // is counted here.
            metrics.cancelled.inc();
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
            metrics.miss.inc();
            return Ok(None);
        };
        // The build served the batch: settle hit vs. late only now, so a
        // post-wait cancellation or bad slot cannot double-count.
        if was_complete {
            metrics.hit.inc();
        } else {
            metrics.late.inc();
        }
        // Consumption bookkeeping — the inline path's, at consume time
        // in consume order, so the store's clock/use/budget timeline
        // never depends on when speculation ran.
        build.mark_consumed();
        self.store.set_clock(batch.clock);
        self.report_pressure();
        self.finish_serve(chunk, batch, &tensors, &probe, &[])
            .map(Some)
    }

    /// Builds, on this thread, every sample of a late prefetched batch
    /// that no worker has started, and returns how many it built. It
    /// takes them last first, one claim at a time: the workers take the
    /// batch's jobs in submission order, so the two meet in the middle,
    /// and a worker that frees up meanwhile still takes its share. A
    /// panic is caught and delivered as [`CoreError::JobPanicked`], so
    /// the entry is a miss and the batch is served inline.
    ///
    /// Only the prefetch path helps: a serve that also built its own
    /// demand samples cut `remote_ddp` from ≈ 3 200 to ≈ 1 300 batches/s
    /// (DESIGN §17), so `serve_batch_inline` leaves them to the workers.
    fn build_unstarted(
        self: &Arc<Self>,
        chunk: &Arc<Chunk>,
        batch: &BatchRef,
        build: &BatchBuild,
    ) -> u64 {
        let mut built = 0;
        for (i, plan) in batch.samples.iter().enumerate().rev() {
            if build.cancelled() {
                break;
            }
            if !build.claim(i) {
                continue;
            }
            let work = || {
                #[cfg(test)]
                tests::serve_thread_fault();
                self.sample_tensor(chunk, plan)
            };
            let result =
                panic::catch_unwind(AssertUnwindSafe(work)).unwrap_or(Err(CoreError::JobPanicked));
            build.fulfill(i, result);
            built += 1;
        }
        built
    }

    /// Submits one job per sample of `batch`, each timed by `build`'s
    /// probe and delivering its tensor into `build`, on the tab of the
    /// batch's tenant (speculative work included: one tenant's deep
    /// prefetch window cannot eat another's weighted share). A job
    /// performs the final normalization too, keeping the serving thread
    /// off the critical path (the paper's demand-feeding threads perform
    /// "final steps of the preprocessing pipeline"), and is
    /// self-contained — no nested fan-out — so it never blocks on
    /// another job of its batch.
    fn submit_samples(
        self: &Arc<Self>,
        chunk: &Arc<Chunk>,
        batch: &BatchRef,
        kind: JobKind,
        build: &Arc<BatchBuild>,
    ) {
        let tenant = self.tenant_of(batch.task);
        for (i, plan) in batch.samples.iter().enumerate() {
            let inner = Arc::clone(self);
            let chunk = Arc::clone(chunk);
            let plan2 = plan.clone();
            let mut slot = build.slot(i);
            self.sched.submit(Job {
                kind,
                deadline: batch.clock,
                remaining_work: plan.frame_nodes.len() as u64,
                affinity: Some(plan.video_id),
                tenant: Some(tenant),
                run: Box::new(move || {
                    // A serve that found this prefetched batch late may
                    // have built the sample itself.
                    if !slot.claim() || slot.cancelled() {
                        // Dropping a cancelled slot counts toward
                        // completion; a claimed-away one delivers nothing.
                        return;
                    }
                    let result = slot.run(|| inner.sample_tensor(&chunk, &plan2));
                    slot.fulfill(result);
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
            self.prefetcher.metrics.scheduled.inc();
            self.submit_samples(chunk, batch, JobKind::Prefetch, &build);
        }
    }

    /// Serves a training batch inline (no prefetch entry): fan the
    /// samples out as demand jobs, so feeding parallelizes and preempts
    /// pre-materialization, and assemble on this thread.
    fn serve_batch_inline(
        self: &Arc<Self>,
        chunk: &Arc<Chunk>,
        t0: Instant,
        batch: &BatchRef,
    ) -> Result<Vec<u8>> {
        // Everything between the batch's t0 and each job's submission
        // is the `plan` segment of the batch's trace.
        let build = Arc::new(BatchBuild::new(batch.samples.len(), t0));
        self.store.set_clock(batch.clock);
        self.report_pressure();
        self.submit_samples(chunk, batch, JobKind::Demand, &build);
        build.wait_complete();
        let tensors = build
            .take_results()
            .into_iter()
            .map(|slot| slot.unwrap_or(Err(CoreError::JobLost)))
            .collect::<Result<Vec<Tensor>>>()?;
        self.finish_serve(chunk, batch, &tensors, &build.probe, &build.samples)
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
    /// returned: consumption bookkeeping, then the batch's trace over
    /// the `samples` its demand jobs built (none for a prefetched batch)
    /// and the serve's counts.
    fn finish_serve(
        &self,
        chunk: &Chunk,
        batch: &BatchRef,
        tensors: &[Tensor],
        probe: &BatchProbe,
        samples: &[Sample],
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
        self.last_batch_bytes
            .store(bytes.len() as u64, Ordering::Relaxed);
        // The tenant's name labels the trace; its counters take the serve.
        let tenant = &self.tenancy.tenants[self.tenant_of(batch.task) as usize];
        let trace = probe.finish(
            samples.iter().map(|s| &s.probe),
            BatchMeta {
                task: Arc::clone(&self.task_tags[batch.task as usize]),
                epoch: batch.epoch,
                iteration: batch.iteration,
                clock: batch.clock,
                tenant: tenant.label.clone(),
            },
            self.telemetry.config().stall_budget_us,
        );
        // A trace's latency is its segments' sum.
        let serve_us = trace.serve_ns / 1_000;
        let m = &self.engine_metrics;
        m.serve_us.observe(serve_us);
        m.batches_served.inc();
        if trace.stalled {
            m.batches_stalled.inc();
        }
        if let Some(m) = &tenant.metrics {
            m.batches_served.inc();
            m.serve_us.observe(serve_us);
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
    use crate::prefetch::BatchBuild;
    use crate::CoreError;
    use sand_config::parse_task_config;
    use sand_frame::Tensor;
    use sand_sched::{Job, JobKind, SchedConfig};
    use sand_telemetry::TelemetryConfig;
    use std::cell::Cell;
    use std::sync::mpsc;
    use std::time::Duration;

    thread_local! {
        /// Set on a test's serve thread: every sample that thread builds
        /// panics. Worker threads never see it.
        static SERVE_THREAD_FAULT: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn serve_thread_fault() {
        if SERVE_THREAD_FAULT.get() {
            panic!("injected fault in a sample built on the serve thread");
        }
    }

    /// One chunk of two epochs, prefetch depth 1, two workers: one
    /// reserved for demand work, so exactly one worker runs the Prefetch
    /// band. `depth = 0` is the sequential reference.
    fn prefetching_engine(depth: usize) -> SandEngine {
        let config = EngineConfig {
            tasks: vec![parse_task_config(TASK).unwrap()],
            prematerialize: false,
            total_epochs: 2,
            epochs_per_chunk: 2,
            prefetch_depth: depth,
            sched: SchedConfig {
                threads: 2,
                ..Default::default()
            },
            telemetry: Some(TelemetryConfig::default()),
            ..Default::default()
        };
        SandEngine::new(config, dataset()).unwrap()
    }

    /// Occupies the one Prefetch-band worker until the returned sender
    /// is dropped.
    fn hold_prefetch_worker(e: &SandEngine) -> mpsc::Sender<()> {
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel();
        e.inner.sched.submit(Job {
            kind: JobKind::Prefetch,
            deadline: 0,
            remaining_work: 1,
            affinity: None,
            tenant: None,
            run: Box::new(move || {
                let _ = started_tx.send(());
                let _ = gate_rx.recv();
            }),
        });
        started_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the gated job never started");
        gate_tx
    }

    /// Serves (0, 1) on its own thread, which panics in every sample it
    /// builds when `fault` is set, while `gate` holds the prefetch
    /// worker. Fails instead of hanging if the serve does not return
    /// while the worker is held.
    fn serve_while_held(e: &SandEngine, gate: mpsc::Sender<()>, fault: bool) -> Vec<u8> {
        std::thread::scope(|s| {
            let (done_tx, done_rx) = mpsc::channel();
            s.spawn(move || {
                SERVE_THREAD_FAULT.set(fault);
                let _ = done_tx.send(e.serve_batch("train", 0, 1));
            });
            let served = done_rx.recv_timeout(Duration::from_secs(30));
            // Releases the worker, so a serve still waiting returns and
            // the scope can end.
            drop(gate);
            served
                .expect("the serve waited on a prefetched batch no worker could start")
                .unwrap()
        })
    }

    fn counter(e: &SandEngine, name: &str) -> u64 {
        e.metrics_snapshot().unwrap().counter(name).unwrap()
    }

    /// Serves the rest of the chunk and checks that every entry the
    /// window scheduled settled exactly one outcome.
    fn finish_and_check_outcomes(e: &SandEngine, reference: &SandEngine) {
        for (epoch, it) in [(1, 0), (1, 1)] {
            assert_eq!(
                e.serve_batch("train", epoch, it).unwrap(),
                reference.serve_batch("train", epoch, it).unwrap(),
                "epoch {epoch} iteration {it}"
            );
        }
        let outcomes = ["hit", "late", "miss", "cancelled"];
        let settled: u64 = outcomes
            .iter()
            .map(|o| counter(e, &format!("prefetch.{o}")))
            .sum();
        assert_eq!(counter(e, "prefetch.scheduled"), settled);
    }

    #[test]
    fn a_serve_builds_the_late_batch_no_worker_started() {
        let reference = prefetching_engine(0);
        reference.start().unwrap();
        let e = prefetching_engine(1);
        e.start().unwrap();
        let gate = hold_prefetch_worker(&e);
        // Served inline; it queues (0, 1)'s samples behind the held worker.
        assert_eq!(
            e.serve_batch("train", 0, 0).unwrap(),
            reference.serve_batch("train", 0, 0).unwrap()
        );
        let bytes = serve_while_held(&e, gate, false);
        assert_eq!(bytes, reference.serve_batch("train", 0, 1).unwrap());
        assert_eq!(counter(&e, "prefetch.late"), 1);
        assert_eq!(counter(&e, "prefetch.serve_built"), 2, "both samples");
        finish_and_check_outcomes(&e, &reference);
        // Later batches may be late too: the report reads the counter.
        let built = counter(&e, "prefetch.serve_built");
        let report = e.stall_report().unwrap();
        assert_eq!(report.prefetch.serve_built, built);
        let line = format!("{built} sample(s) of late batches built by the serve");
        assert!(report.render_table().contains(&line));
    }

    #[test]
    fn a_panic_in_a_serve_built_sample_falls_back_to_the_inline_path() {
        let reference = prefetching_engine(0);
        reference.start().unwrap();
        let e = prefetching_engine(1);
        e.start().unwrap();
        // Built directly, each sample's slot holds the panic.
        let chunk = e.inner.ensure_chunk(0).unwrap();
        let batch = e.inner.find_batch(&chunk, "train", 0, 1).unwrap();
        let build = BatchBuild::new(batch.samples.len(), std::time::Instant::now());
        SERVE_THREAD_FAULT.set(true);
        let built = e.inner.build_unstarted(&chunk, batch, &build);
        SERVE_THREAD_FAULT.set(false);
        assert_eq!(built, 2);
        assert!(build.is_complete());
        for slot in build.take_results() {
            assert!(
                matches!(slot, Some(Err(CoreError::JobPanicked))),
                "{slot:?}"
            );
        }
        // Through the serve: the entry is a miss and the demand path
        // serves the batch.
        let gate = hold_prefetch_worker(&e);
        assert_eq!(
            e.serve_batch("train", 0, 0).unwrap(),
            reference.serve_batch("train", 0, 0).unwrap()
        );
        let bytes = serve_while_held(&e, gate, true);
        assert_eq!(bytes, reference.serve_batch("train", 0, 1).unwrap());
        assert_eq!(counter(&e, "prefetch.miss"), 1);
        assert_eq!(counter(&e, "prefetch.serve_built"), 2);
        finish_and_check_outcomes(&e, &reference);
    }

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
