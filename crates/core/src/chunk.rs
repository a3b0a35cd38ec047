//! The chunk lifecycle: planning `k` epochs at a time, ahead of need.
//!
//! A chunk is one concrete object graph over `epochs_per_chunk` epochs,
//! pruned to the cache budget. Planning is a pure function of (config,
//! seed, chunk id), so a plan can be made early, made twice, or dropped
//! and made again without changing a served byte.
//!
//! - **Once-slot.** Every chunk id has one slot in a [`Flight`]: whoever
//!   asks first claims it and plans; concurrent askers park on the slot
//!   and share the result (or the winner's error). A published slot
//!   stays in the map as the cached plan.
//! - **Plan-ahead.** The first serve that reaches a chunk's final epoch
//!   submits one prefetch-band job that plans the *next* chunk through
//!   the same slot, so the trainer's first read of that chunk finds the
//!   plan instead of computing it.
//! - **Boundary.** The first demand touch of a chunk — `start()`, a
//!   serve, an xattr read — takes the chunk's prepared fan-out and
//!   submits its pre-materialization jobs. That still happens *at* the
//!   boundary, not ahead of it: materializing chunk `k+1` while chunk
//!   `k` is being consumed would compete with `k` for the store.
//! - **Retention.** Slots are kept by last use, a constant number per
//!   task; older ones are retired. A chunk owns its pre-materialization
//!   work (the scheduler's queue holds tickets with a `Weak`), so work
//!   nobody got to is dropped with the chunk instead of running late for
//!   epochs that are over; running jobs and serves keep their chunk
//!   alive through their `Arc`, and a straggler that returns to a
//!   retired chunk simply plans it again.

use crate::engine::{video_metas, Inner};
use crate::flight::{Arrival, Flight};
use crate::keys::store_key;
use crate::materialize::Scratch;
use crate::{CoreError, Result};
use sand_graph::{prune_to_budget, ConcreteGraph, NodeId, ObjectKey, Planner, PlannerOptions};
use sand_sanitizer::TrackedMutex;
use sand_sched::{Job, JobKind};
use sand_storage::ObjectMeta;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One planned epoch chunk.
pub(crate) struct Chunk {
    pub(crate) graph: ConcreteGraph,
    /// Per-node store key, derived once here so that no probe, hand-off
    /// or consumption on the serve path formats and hashes it again.
    keys: Vec<String>,
    /// Per-node earliest-need clock.
    pub(crate) deadlines: Vec<Option<u64>>,
    /// Per-node transitive consumer count (for store `future_uses`).
    pub(crate) future_uses: Vec<u32>,
    /// Batch lookup: (task, epoch, iteration) -> batches index.
    pub(crate) batch_index: HashMap<(u32, u64, u64), usize>,
    /// Clock ticks per epoch (the widest task's iteration count).
    clocks_per_epoch: u64,
    /// The pre-materialization fan-out, prepared at plan time and taken
    /// by the chunk's first demand touch.
    fanout: TrackedMutex<Option<Vec<VideoFanout>>>,
    /// The chunk's pre-materialization work, one entry per ticket in the
    /// scheduler's queue; a ticket's job takes its entry when it runs.
    /// Owned here, not by the queue, so that work nobody got to before
    /// the chunk was retired — and the decoded frames its scratch pins —
    /// goes with it.
    work: TrackedMutex<Vec<Option<PrematWork>>>,
    /// Set by the first serve of the chunk's final epoch, which asks for
    /// the next chunk's plan.
    next_requested: AtomicBool,
}

/// One pre-materialization job's share of a video.
struct PrematWork {
    nodes: Vec<NodeId>,
    /// Nodes whose source frames this job decodes up front.
    decode_targets: Vec<NodeId>,
    /// Shared by the video's jobs; the last one to finish frees the raw
    /// decoded frames, as the paper requires once a subtree completes.
    scratch: Arc<Scratch>,
}

/// One video's cached, storable nodes in subtree preorder.
struct VideoFanout {
    video_id: u64,
    nodes: Vec<FanoutNode>,
}

#[derive(Clone, Copy)]
struct FanoutNode {
    id: NodeId,
    /// Epoch of earliest need, relative to the chunk's first epoch.
    bucket: usize,
}

impl Chunk {
    /// Derives the serving indexes and the pre-materialization fan-out
    /// from a planned graph. `video_ids` fixes the fan-out's video order.
    fn build(graph: ConcreteGraph, video_ids: impl Iterator<Item = u64>) -> Self {
        let keys = graph.nodes.iter().map(|n| store_key(&n.key)).collect();
        let deadlines = graph.deadlines();
        let mut future_uses: Vec<u32> = graph
            .nodes
            .iter()
            .map(|n| n.consumers.len() as u32)
            .collect();
        // Children have larger ids; one reverse sweep accumulates subtree
        // consumer counts into ancestors.
        for id in (0..graph.nodes.len()).rev() {
            if let Some(p) = graph.nodes[id].parent {
                future_uses[p] += future_uses[id];
            }
        }
        let mut batch_index = HashMap::new();
        for (i, b) in graph.batches.iter().enumerate() {
            batch_index.insert((b.task, b.epoch, b.iteration), i);
        }
        let clocks_per_epoch = graph
            .batches
            .iter()
            .map(|b| b.iteration + 1)
            .max()
            .unwrap_or(1);
        let epoch_span = (graph.epochs.end - graph.epochs.start) as usize;
        let mut fanout = Vec::new();
        for video_id in video_ids {
            let mut nodes = Vec::new();
            for id in graph.video_subtree(video_id) {
                let node = &graph.nodes[id];
                if node.cached && !matches!(node.key, ObjectKey::Video { .. }) {
                    let bucket = match deadlines[id] {
                        Some(clock) => {
                            ((clock / clocks_per_epoch).saturating_sub(graph.epochs.start) as usize)
                                .min(epoch_span)
                        }
                        None => epoch_span,
                    };
                    nodes.push(FanoutNode { id, bucket });
                }
            }
            if !nodes.is_empty() {
                fanout.push(VideoFanout { video_id, nodes });
            }
        }
        Chunk {
            graph,
            keys,
            deadlines,
            future_uses,
            batch_index,
            clocks_per_epoch,
            fanout: TrackedMutex::new("engine.chunk.fanout", Some(fanout)),
            work: TrackedMutex::new("engine.chunk.work", Vec::new()),
            next_requested: AtomicBool::new(false),
        }
    }

    /// The store key of node `id`'s object.
    pub(crate) fn key(&self, id: NodeId) -> &str {
        &self.keys[id]
    }

    /// The store metadata node `id`'s object is kept under.
    pub(crate) fn meta(&self, id: NodeId) -> ObjectMeta {
        ObjectMeta {
            deadline: self.deadlines[id],
            future_uses: self.future_uses[id],
        }
    }
}

/// Live chunks retained per configured task: the one being served and
/// the one planned ahead of it (tasks sharing an engine may sit in
/// different chunks).
const CHUNKS_PER_TASK: usize = 2;

/// The engine's chunk table: one once-slot per chunk id, retained by
/// last use. Generic over what a slot keeps only so that tests can watch
/// when a retired value is dropped; the engine keeps `Arc<Chunk>`.
pub(crate) struct Chunks<V = Arc<Chunk>> {
    slots: Flight<u64, V>,
    /// Chunk ids with a slot, most recently used first.
    recent: TrackedMutex<VecDeque<u64>>,
    pub(crate) retain: usize,
    /// The chunk the serve path asked for last (`u64::MAX` = none yet).
    last_served: AtomicU64,
}

impl<V: Clone> Chunks<V> {
    pub(crate) fn new(tasks: usize) -> Self {
        Chunks {
            slots: Flight::new("engine.chunks.slots", "engine.chunks.done"),
            recent: TrackedMutex::new("engine.chunks.recent", VecDeque::new()),
            retain: CHUNKS_PER_TASK * tasks.max(1),
            last_served: AtomicU64::new(u64::MAX),
        }
    }

    /// Marks `chunk_id` most recently used and retires the slots that
    /// fall off the end of the retention window. The retired slots are
    /// dropped, oldest first, only after both table locks are released:
    /// freeing a chunk's graph and unstarted work takes milliseconds, and
    /// every serve and xattr read touches the table.
    fn touch(&self, chunk_id: u64) {
        let mut recent = self.recent.lock();
        if recent.front() == Some(&chunk_id) {
            return;
        }
        if let Some(i) = recent.iter().position(|&c| c == chunk_id) {
            recent.remove(i);
        }
        recent.push_front(chunk_id);
        let mut retired = Vec::new();
        while recent.len() > self.retain {
            if let Some(old) = recent.pop_back() {
                retired.push(self.slots.retire(&old));
            }
        }
        drop(recent);
        drop(retired);
    }

    /// Slots currently held (published or in flight).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }
}

impl Chunks {
    /// The plan of `chunk_id`: found, joined in flight, or made here.
    /// The one path every plan takes — inline at a boundary and ahead of
    /// time from the plan-ahead job alike. A failed plan is not cached:
    /// the next asker (a waiter included) plans again.
    fn get_or_plan(&self, inner: &Arc<Inner>, chunk_id: u64) -> Result<(Arc<Chunk>, Arrival)> {
        self.touch(chunk_id);
        self.slots
            .get_or_compute(&chunk_id, true, || inner.plan_chunk(chunk_id).map(Arc::new))
    }

    /// The chunk the serve path asked for last, re-planned if it was
    /// retired since; `None` before anything was asked for.
    pub(crate) fn last_served(&self, inner: &Arc<Inner>) -> Result<Option<Arc<Chunk>>> {
        match self.last_served.load(Ordering::Relaxed) {
            u64::MAX => Ok(None),
            id => self.get_or_plan(inner, id).map(|(chunk, _)| Some(chunk)),
        }
    }
}

impl Inner {
    /// The chunk containing `epoch`, for the serve path: planned if need
    /// be, marked as the chunk being served, and — on its first demand
    /// touch — handed to pre-materialization.
    pub(crate) fn ensure_chunk(self: &Arc<Self>, epoch: u64) -> Result<Arc<Chunk>> {
        if epoch >= self.config.total_epochs {
            return Err(CoreError::State {
                what: format!(
                    "epoch {epoch} beyond total_epochs {}",
                    self.config.total_epochs
                ),
            });
        }
        let chunk_id = epoch / self.config.epochs_per_chunk;
        let (chunk, arrival) = self.chunks.get_or_plan(self, chunk_id)?;
        self.chunks.last_served.store(chunk_id, Ordering::Relaxed);
        // Taking the prepared fan-out is the once-flag of the boundary
        // crossing. The lock is held across the hand-off, so a racing
        // serve queues its demand behind the chunk's pre-materialization,
        // not ahead of it.
        let mut fanout = chunk.fanout.lock();
        if let Some(videos) = fanout.take() {
            let m = &self.engine_metrics;
            match arrival {
                Arrival::Found => m.chunk_plan_ahead_hit.inc(),
                Arrival::Joined => m.chunk_plan_ahead_late.inc(),
                Arrival::Computed => m.chunk_plan_ahead_miss.inc(),
            }
            if self.config.prematerialize {
                self.submit_prematerialization(&chunk, videos);
            }
        }
        drop(fanout);
        Ok(chunk)
    }

    /// Called by every serve: the first one in a chunk's final epoch
    /// queues the next chunk's planning. The job rides the prefetch band
    /// — speculative work for the trainer's next reads, below demand and
    /// never on a reserved demand worker — with the final epoch's first
    /// clock as its deadline, so it runs ahead of the batches still to be
    /// prefetched instead of after the last of them, which is the
    /// boundary. (In the pre-materialization band it starves exactly
    /// when it matters: a saturated trainer leaves that band no time.)
    pub(crate) fn request_next_chunk(self: &Arc<Self>, chunk: &Arc<Chunk>, epoch: u64) {
        let end = chunk.graph.epochs.end;
        if epoch + 1 != end
            || end >= self.config.total_epochs
            || chunk.next_requested.swap(true, Ordering::Relaxed)
        {
            return;
        }
        let next_id = end / self.config.epochs_per_chunk;
        let inner = Arc::clone(self);
        let requester = Arc::downgrade(chunk);
        self.sched.submit(Job {
            kind: JobKind::Prefetch,
            deadline: epoch * chunk.clocks_per_epoch,
            remaining_work: 1,
            affinity: None,
            tenant: None,
            run: Box::new(move || {
                // A job that comes up after the requesting chunk was
                // retired is too late to be ahead of anything. A failed
                // plan is not cached; the serve that reaches the boundary
                // plans again and reports it.
                if requester.upgrade().is_some() {
                    let _ = inner.chunks.get_or_plan(&inner, next_id);
                }
            }),
        });
    }

    /// Plans and prunes one chunk and builds its serving indexes. The
    /// plan is a function of the configs, the seed and the dataset, so a
    /// restarted engine plans again and gets the keys the store kept.
    fn plan_chunk(&self, chunk_id: u64) -> Result<Chunk> {
        let t0 = Instant::now();
        let config = &self.config;
        let k = config.epochs_per_chunk;
        let start = chunk_id * k;
        let end = (start + k).min(config.total_epochs);
        let planner = Planner::new(
            config.plan_inputs(),
            video_metas(&self.dataset),
            PlannerOptions {
                seed: config.seed,
                coordinate: true,
                epochs: start..end,
            },
        )?;
        let mut graph = planner.plan()?;
        if config.naive_leaf_cache {
            // Keep only leaves cached: the naive plan that stores final
            // training objects and recomputes everything else.
            for node in &mut graph.nodes {
                if !matches!(node.key, ObjectKey::Video { .. }) {
                    node.cached = node.children.is_empty();
                }
            }
        }
        if config.prune {
            prune_to_budget(&mut graph, config.cache_budget);
        }
        let chunk = Chunk::build(graph, self.dataset.videos().iter().map(|v| v.video_id));
        self.engine_metrics
            .chunk_plan_us
            .observe_duration(t0.elapsed());
        self.engine_metrics.chunks_planned.inc();
        Ok(chunk)
    }

    /// Submits pre-materialization jobs: one per non-empty (video,
    /// deadline bucket).
    ///
    /// Granularity matters twice over. Jobs must be small enough that a
    /// demand-feeding job never sits behind a long-running worker (the
    /// scheduler preempts between jobs, not within one), and the first
    /// job of a video decodes the *union* of the chunk's source frames
    /// in one GOP-efficient pass, keeping them — in the store where the
    /// plan caches them, in the video's shared [`Scratch`] otherwise — so
    /// every later epoch's bucket reuses the decoded frames instead of
    /// re-touching the codec: the paper's "decode once, cache for k
    /// epochs".
    ///
    /// All of a video's jobs share one [`Scratch`] and carry the
    /// video id as a scheduler affinity hint, so chains meeting at a
    /// common decoded frame merge work, and the jobs prefer one worker.
    ///
    /// This runs on the serve thread at the boundary, so it walks no
    /// graph: the per-video node lists and buckets were
    /// prepared with the plan, and what is left is one store probe per
    /// node (objects that survive from an earlier chunk or an earlier run
    /// are not queued again) and one submission per job. A video's probes
    /// take each store shard's lock once: over a value log a `put` holds
    /// that lock across its disk write, and probing key by key queued the
    /// boundary behind those writes. A video's jobs
    /// are submitted as soon as its probes are done, so the workers start
    /// on the first videos while the rest are still being handed over.
    fn submit_prematerialization(self: &Arc<Self>, chunk: &Arc<Chunk>, fanout: Vec<VideoFanout>) {
        let epoch_span = (chunk.graph.epochs.end - chunk.graph.epochs.start) as usize;
        for video in fanout {
            let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); epoch_span + 1];
            let mut todo: Vec<NodeId> = Vec::new();
            let keys: Vec<&str> = video.nodes.iter().map(|n| chunk.key(n.id)).collect();
            for (n, held) in video.nodes.iter().zip(self.store.contains_each(&keys)) {
                if !held {
                    todo.push(n.id);
                    buckets[n.bucket].push(n.id);
                }
            }
            if todo.is_empty() {
                continue;
            }
            // The video's first job pre-decodes the union of source
            // frames the whole subtree needs; the others pre-decode only
            // their own bucket (the flight claims make any overlap
            // race-free).
            let mut union = Some(todo);
            let scratch = Arc::new(Scratch::new());
            for nodes in buckets {
                if nodes.is_empty() {
                    continue;
                }
                let deadline = nodes
                    .iter()
                    .filter_map(|&id| chunk.deadlines[id])
                    .min()
                    .unwrap_or(u64::MAX);
                let remaining_work = nodes.len() as u64;
                let ticket = {
                    let mut work = chunk.work.lock();
                    work.push(Some(PrematWork {
                        decode_targets: union.take().unwrap_or_else(|| nodes.clone()),
                        nodes,
                        scratch: Arc::clone(&scratch),
                    }));
                    work.len() - 1
                };
                let inner = Arc::clone(self);
                // Weak: the queue must not keep a retired chunk
                // alive, and has nothing left to do for it.
                let weak = Arc::downgrade(chunk);
                // Pre-materialization serves the union plan — shared
                // across tenants by construction — so it stays
                // untenanted: charged to nobody's virtual clock.
                self.sched.submit(Job {
                    kind: JobKind::PreMaterialize,
                    deadline,
                    remaining_work,
                    affinity: Some(video.video_id),
                    tenant: None,
                    run: Box::new(move || {
                        if let Some(chunk) = weak.upgrade() {
                            inner.prematerialize(&chunk, ticket);
                        }
                    }),
                });
            }
        }
        self.report_pressure();
    }

    /// Runs one pre-materialization ticket of `chunk`.
    fn prematerialize(self: &Arc<Self>, chunk: &Arc<Chunk>, ticket: usize) {
        let work = chunk.work.lock().get_mut(ticket).and_then(Option::take);
        let Some(PrematWork {
            mut nodes,
            decode_targets,
            scratch,
        }) = work
        else {
            return;
        };
        // The demand path may have got to some of them since the hand-off.
        nodes.retain(|&id| !self.store.contains(chunk.key(id)));
        nodes.sort_by_key(|&id| chunk.deadlines[id].unwrap_or(u64::MAX));
        // What the ring owners hold, in one request per owner; then one
        // GOP-efficient pass (it skips targets the memo or the store
        // already covers); the frames the plan caches persist in the store.
        self.fetch_ahead(chunk, &nodes, &scratch);
        let _ = self.predecode_nodes(chunk, &decode_targets, &scratch);
        for id in nodes {
            // Failures here only delay demand-path work; they are not
            // fatal to training.
            let _ = self.materialize(chunk, id, &scratch);
        }
        self.push_queued(&scratch);
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{EngineConfig, SandEngine};
    use sand_codec::{Dataset, DatasetSpec, EncoderConfig};
    use sand_config::{parse_task_config, TaskConfig};
    use sand_graph::ObjectKey;
    use sand_sched::SchedConfig;
    use sand_telemetry::TelemetryConfig;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier, Weak};

    const TASK: &str = r#"
dataset:
  tag: train
  input_source: file
  video_dataset_path: /d
  sampling:
    videos_per_batch: 2
    frames_per_video: 4
    frame_stride: 2
  augmentation:
    - name: r
      branch_type: single
      inputs: ["frame"]
      outputs: ["a0"]
      config:
        - resize:
            shape: [16, 16]
    - name: c
      branch_type: single
      inputs: ["a0"]
      outputs: ["a1"]
      config:
        - random_crop:
            shape: [8, 8]
        - normalize:
            mean: [0.45, 0.45, 0.45]
            std: [0.225, 0.225, 0.225]
"#;

    fn dataset() -> Arc<Dataset> {
        Arc::new(
            Dataset::generate(&DatasetSpec {
                num_videos: 4,
                num_classes: 2,
                width: 32,
                height: 32,
                frames_per_video: 24,
                encoder: EncoderConfig {
                    gop_size: 6,
                    quantizer: 4,
                    fps_milli: 30_000,
                    b_frames: 0,
                },
                ..Default::default()
            })
            .unwrap(),
        )
    }

    fn tasks(n: usize) -> Vec<TaskConfig> {
        (0..n)
            .map(|i| {
                let mut t = parse_task_config(TASK).unwrap();
                if i > 0 {
                    t.tag = format!("train{i}");
                    t.sampling.frames_per_video = 3;
                }
                t
            })
            .collect()
    }

    fn engine(config: EngineConfig) -> SandEngine {
        let e = SandEngine::new(
            EngineConfig {
                telemetry: Some(TelemetryConfig::default()),
                ..config
            },
            dataset(),
        )
        .unwrap();
        e.start().unwrap();
        e
    }

    /// The sequential engine every parity test compares with: one worker,
    /// demand only.
    fn sequential(tasks: Vec<TaskConfig>, total_epochs: u64, epochs_per_chunk: u64) -> SandEngine {
        engine(EngineConfig {
            tasks,
            total_epochs,
            epochs_per_chunk,
            prematerialize: false,
            sched: SchedConfig {
                threads: 1,
                ..Default::default()
            },
            ..Default::default()
        })
    }

    /// Every batch of every task, in trainer order.
    fn serve_all(e: &SandEngine, tags: &[String], epochs: u64) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for epoch in 0..epochs {
            for it in 0..e.iterations_per_epoch(&tags[0]).unwrap() {
                for tag in tags {
                    out.push(e.serve_batch(tag, epoch, it).unwrap());
                }
            }
        }
        out
    }

    fn counter(e: &SandEngine, name: &str) -> u64 {
        e.metrics_snapshot().unwrap().counter(name).unwrap()
    }

    fn boundaries(e: &SandEngine) -> u64 {
        ["hit", "late", "miss"]
            .iter()
            .map(|o| counter(e, &format!("engine.chunk_plan_ahead_{o}")))
            .sum()
    }

    #[test]
    fn multi_chunk_serving_matches_sequential_and_plans_each_chunk_once() {
        for n_tasks in [1, 2] {
            let tags: Vec<String> = tasks(n_tasks).iter().map(|t| t.tag.clone()).collect();
            let want = serve_all(&sequential(tasks(n_tasks), 8, 2), &tags, 8);
            for prefetch_depth in [0, 2] {
                let e = engine(EngineConfig {
                    tasks: tasks(n_tasks),
                    total_epochs: 8,
                    epochs_per_chunk: 2,
                    prefetch_depth,
                    ..Default::default()
                });
                let got = serve_all(&e, &tags, 8);
                assert!(
                    got == want,
                    "{n_tasks} task(s), prefetch depth {prefetch_depth}: served bytes differ"
                );
                e.wait_idle();
                assert_eq!(counter(&e, "engine.chunks_planned"), 4);
                assert_eq!(boundaries(&e), 4);
                // The cold start plans inline; it is the only chunk that
                // must.
                assert!(counter(&e, "engine.chunk_plan_ahead_miss") >= 1);
                let report = e.stall_report().unwrap();
                assert_eq!(report.chunks.planned, 4);
                assert_eq!(report.chunks.boundaries(), 4);
                for t in &report.traces {
                    assert_eq!(t.breakdown_sum_ns(), t.serve_ns);
                }
            }
        }
    }

    #[test]
    fn racing_boundary_plans_and_fans_out_once() {
        let run = |threads: usize| {
            let e = engine(EngineConfig {
                tasks: tasks(1),
                total_epochs: 4,
                epochs_per_chunk: 2,
                ..Default::default()
            });
            e.wait_idle();
            // Epoch 2 opens chunk 1, which nobody has asked for yet.
            let barrier = Barrier::new(threads);
            let serves_per_thread = 8 / threads;
            let served: Vec<Vec<u8>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            (0..serves_per_thread)
                                .map(|_| e.serve_batch("train", 2, 0).unwrap())
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap())
                    .collect()
            });
            e.wait_idle();
            assert!(served.iter().all(|b| b == &served[0]));
            assert_eq!(counter(&e, "engine.chunks_planned"), 2);
            assert_eq!(boundaries(&e), 2);
            let s = e.stats().sched;
            (
                served[0].clone(),
                s.demand_served + s.prefetch_served + s.pre_served,
            )
        };
        let (bytes_1, jobs_1) = run(1);
        let (bytes_8, jobs_8) = run(8);
        assert_eq!(bytes_1, bytes_8);
        assert_eq!(jobs_8, jobs_1, "a racing boundary fanned out twice");
    }

    #[test]
    fn one_prematerialization_job_per_video_and_deadline_bucket() {
        let e = engine(EngineConfig {
            tasks: tasks(1),
            total_epochs: 2,
            epochs_per_chunk: 2,
            ..Default::default()
        });
        e.wait_idle();
        // Nothing has been served, so every job so far is the hand-off's.
        // Each epoch samples all 4 videos and crops them afresh, so each
        // video has objects first needed in epoch 0 and in epoch 1: two
        // non-empty buckets per video, one job each, never subdivided.
        let s = e.stats().sched;
        assert_eq!(s.demand_served + s.prefetch_served, 0);
        assert_eq!(s.pre_served, 4 * 2);
    }

    #[test]
    fn retired_chunk_is_replanned_with_identical_bytes() {
        let total = 10;
        let e = engine(EngineConfig {
            tasks: tasks(1),
            total_epochs: total,
            epochs_per_chunk: 1,
            ..Default::default()
        });
        let tags = ["train".to_string()];
        let want = serve_all(&sequential(tasks(1), total, 1), &tags, total);
        assert!(serve_all(&e, &tags, total) == want);
        e.wait_idle();
        let retain = e.inner_chunks().retain;
        assert!(e.inner_chunks().len() <= retain);
        assert_eq!(counter(&e, "engine.chunks_planned"), total);
        // Chunk 0 was retired long ago: a straggler plans it again.
        let iters = e.iterations_per_epoch("train").unwrap() as usize;
        for (it, want) in want.iter().take(iters).enumerate() {
            assert!(&e.serve_batch("train", 0, it as u64).unwrap() == want);
        }
        e.wait_idle();
        // Epoch 0 is also chunk 0's final epoch, so the straggler asked
        // for chunk 1 — retired as well — ahead of need.
        assert_eq!(counter(&e, "engine.chunks_planned"), total + 2);
        assert!(e.inner_chunks().len() <= retain);
    }

    /// The plan is a function of the configs, the seed and the dataset;
    /// the store directory holds objects, never a plan. An engine
    /// restarted over a directory an earlier run filled serves what a
    /// fresh engine with the *restarted* config serves, whatever the
    /// earlier run's config was, and a plan file an older build left
    /// there is not read.
    #[test]
    fn restart_over_a_store_dir_plans_from_the_new_config() {
        let dir = std::env::temp_dir().join(format!("sand_replan_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = |store_dir: Option<std::path::PathBuf>| EngineConfig {
            tasks: tasks(1),
            total_epochs: 2,
            epochs_per_chunk: 2,
            store_dir,
            ..Default::default()
        };
        // (served bytes, chunk 0's cached nodes)
        let run = |config: EngineConfig| {
            let tags: Vec<String> = config.tasks.iter().map(|t| t.tag.clone()).collect();
            let e = engine(config);
            let served = serve_all(&e, &tags, 2);
            e.wait_idle();
            let (chunk, _) = e.inner.chunks.get_or_plan(&e.inner, 0).unwrap();
            let cached = chunk.graph.nodes.iter().filter(|n| n.cached).count();
            (served, cached)
        };
        let first = run(config(Some(dir.clone())));
        assert!(first == run(config(None)));
        let stale = dir.join("_meta/graph_chunk_0.ckpt");
        std::fs::create_dir_all(stale.parent().unwrap()).unwrap();
        std::fs::write(&stale, b"a plan an older build wrote").unwrap();
        // The same config again: the same bytes, now off the log.
        assert!(run(config(Some(dir.clone()))) == first);

        type Change = fn(&mut EngineConfig);
        let variants: [(&str, Change); 3] = [
            ("seed", |c| c.seed += 1),
            ("cache_budget", |c| c.cache_budget = 16 << 10),
            ("tasks", |c| c.tasks = tasks(2)),
        ];
        for (what, change) in variants {
            let (mut restarted, mut fresh) = (config(Some(dir.clone())), config(None));
            change(&mut restarted);
            change(&mut fresh);
            let want = run(fresh);
            assert!(want != first, "changing {what} changes nothing: no test");
            assert!(
                run(restarted) == want,
                "restart with a different {what} did not serve that config's plan"
            );
        }
        assert_eq!(
            std::fs::read(&stale).unwrap(),
            b"a plan an older build wrote"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Under a budget the plan leaves objects uncached, decoded frames
    /// among them; serving the chunk — through the bulk pre-decode, on
    /// the demand path and from pre-materialization — stores none of them.
    #[test]
    fn store_holds_only_what_the_pruned_plan_caches() {
        for prematerialize in [false, true] {
            let e = engine(EngineConfig {
                tasks: tasks(1),
                total_epochs: 2,
                epochs_per_chunk: 2,
                cache_budget: 8 << 10,
                prematerialize,
                ..Default::default()
            });
            serve_all(&e, &["train".to_string()], 2);
            e.wait_idle();
            let (chunk, _) = e.inner.chunks.get_or_plan(&e.inner, 0).unwrap();
            let uncached: HashSet<&str> = (0..chunk.graph.nodes.len())
                .filter(|&id| !chunk.graph.nodes[id].cached)
                .map(|id| chunk.key(id))
                .collect();
            let uncached_frames = chunk
                .graph
                .nodes
                .iter()
                .filter(|n| !n.cached && matches!(n.key, ObjectKey::Frame { .. }))
                .count();
            let stored = e.store().keys();
            assert!(uncached_frames > 0, "the budget prunes no frame: no test");
            assert!(!stored.is_empty());
            for key in &stored {
                assert!(
                    !uncached.contains(key.as_str()),
                    "prematerialize {prematerialize}: {key} is stored but not cached"
                );
            }
        }
    }

    #[test]
    fn nothing_is_planned_past_the_last_epoch() {
        // (total epochs, epochs per chunk, chunks)
        for (total, k, chunks) in [(5, 2, 3), (3, 1, 3), (2, 4, 1)] {
            let e = engine(EngineConfig {
                tasks: tasks(1),
                total_epochs: total,
                epochs_per_chunk: k,
                ..Default::default()
            });
            let tags = ["train".to_string()];
            let want = serve_all(&sequential(tasks(1), total, k), &tags, total);
            assert!(serve_all(&e, &tags, total) == want);
            e.wait_idle();
            assert_eq!(counter(&e, "engine.chunks_planned"), chunks);
            assert_eq!(boundaries(&e), chunks);
            assert!(e.serve_batch("train", total, 0).is_err());
        }
    }

    #[test]
    fn aug_views_follow_the_served_chunk_not_the_newest_plan() {
        let e = engine(EngineConfig {
            tasks: tasks(1),
            total_epochs: 4,
            epochs_per_chunk: 2,
            prematerialize: false,
            ..Default::default()
        });
        let vfs = e.mount();
        let ts = vfs.getxattr_path("/train/0/0/view", "timestamps").unwrap();
        let frame: u64 = ts.split([',', ':']).next().unwrap().parse().unwrap();
        let read = |path: &str| {
            let fd = vfs.open(path).ok()?;
            let bytes = vfs.read_to_end(fd).unwrap();
            vfs.close(fd).unwrap();
            Some(bytes)
        };
        // The cropped (depth-2) view of a frame chunk 0 uses.
        let (path, before) = (0..4)
            .find_map(|v| {
                let path = format!("/train/video{v:04}/frame{frame}/aug2");
                read(&path).map(|bytes| (path, bytes))
            })
            .expect("no aug view of a planned frame");
        // Serving chunk 0's final epoch plans chunk 1 ahead of need...
        e.serve_batch("train", 1, 0).unwrap();
        e.wait_idle();
        assert_eq!(counter(&e, "engine.chunks_planned"), 2);
        // ...which must not move the view to chunk 1's crop parameters.
        assert_eq!(read(&path), Some(before));
    }

    /// A kept value that records, when dropped, whether either lock of
    /// its chunk table was held at the time.
    #[derive(Clone)]
    struct DropProbe {
        table: Weak<super::Chunks<DropProbe>>,
        dropped_locked: Arc<AtomicUsize>,
    }

    impl Drop for DropProbe {
        fn drop(&mut self) {
            let Some(table) = self.table.upgrade() else {
                return;
            };
            if table.recent.try_lock().is_none() || table.slots.is_locked() {
                self.dropped_locked.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn retired_chunks_are_dropped_outside_the_table_locks() {
        let table = Arc::new(super::Chunks::new(1));
        let dropped_locked = Arc::new(AtomicUsize::new(0));
        for id in 0..2 * table.retain as u64 {
            table.touch(id);
            let probe = DropProbe {
                table: Arc::downgrade(&table),
                dropped_locked: Arc::clone(&dropped_locked),
            };
            let (kept, _) = table
                .slots
                .get_or_compute(&id, true, || Ok::<_, ()>(probe))
                .unwrap();
            drop(kept);
        }
        // Half the chunks fell out of the window, each dropped by `touch`.
        assert_eq!(table.len(), table.retain);
        assert_eq!(dropped_locked.load(Ordering::Relaxed), 0);
    }
}
