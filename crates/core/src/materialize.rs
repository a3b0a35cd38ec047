//! Materialization: one get-or-compute path for every object.
//!
//! [`Inner::materialize`] resolves a planned node in a fixed order — the
//! pass memo, then, under the engine flight for the object's key, the
//! store (mem/disk), the key's ring owner, and finally the computation
//! (a decode or one augmentation op over the materialized parent).
//! [`Inner::lookup`] reads an object back from the store or the cluster;
//! its bulk variants claim the same flight keys without blocking:
//! `Inner::fetch_ahead` (`cluster.rs`) asks the ring owners for a job's
//! targets in one request per owner, and [`Inner::predecode_nodes`]
//! decodes source frames in one GOP-efficient pass per video.

use crate::chunk::Chunk;
use crate::engine::Inner;
use crate::flight::{Arrival, Claim};
use crate::{CoreError, Result};
use sand_codec::{CodecError, Decoder, VideoEntry};
use sand_frame::{compress_frame, decompress_frame, Frame};
use sand_graph::{NodeId, ObjectKey, ResolvedOp};
use sand_net::PutObject;
use sand_sanitizer::TrackedMutex;
use sand_storage::{ObjectMeta, Tier};
use sand_telemetry::{record_stage, Stage};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// A materialized object.
#[derive(Clone)]
pub(crate) struct Object {
    pub(crate) frame: Arc<Frame>,
    /// The compressed form, when the store holds it or a lookup read it.
    pub(crate) bytes: Option<Arc<Vec<u8>>>,
    /// The local tier a lookup found it in, *before* the read (reads may
    /// promote disk objects back to memory).
    pub(crate) tier: Option<Tier>,
}

impl From<Arc<Frame>> for Object {
    fn from(frame: Arc<Frame>) -> Self {
        Object {
            frame,
            bytes: None,
            tier: None,
        }
    }
}

/// One materialize pass's memo of raw frames.
///
/// Every sub-job of a video shares one `Scratch`, so chains that meet at
/// a common ancestor (most often the decoded source frame) merge work
/// even when the plan keeps that ancestor out of the store. Who computes
/// a node is decided by the engine flight; the memo only remembers. A
/// winner writes it *before* its flight key is retired, and re-reads it
/// after winning, so a pass-mate that arrives after the retire finds the
/// frame here instead of computing an uncached parent a second time.
///
/// It also keeps the pass's dealings with the cluster: the nodes whose
/// ring owner already answered "miss", which no lookup asks again, and
/// the remotely owned objects the pass computed, which the job pushes to
/// their owners ([`Inner::push_queued`]) before it delivers.
pub(crate) struct Scratch {
    frames: TrackedMutex<HashMap<NodeId, Arc<Frame>>>,
    asked: TrackedMutex<HashSet<NodeId>>,
    pushes: TrackedMutex<Vec<PutObject>>,
}

impl Scratch {
    pub(crate) fn new() -> Self {
        Scratch {
            frames: TrackedMutex::new("engine.scratch.frames", HashMap::new()),
            asked: TrackedMutex::new("engine.scratch.asked", HashSet::new()),
            pushes: TrackedMutex::new("engine.scratch.pushes", Vec::new()),
        }
    }

    /// Whether `id`'s owner may still be asked for it in this pass.
    pub(crate) fn may_ask(&self, id: NodeId) -> bool {
        !self.asked.lock().contains(&id)
    }

    /// Remembers that `id`'s owner answered "miss" in this pass.
    pub(crate) fn note_asked(&self, id: NodeId) {
        self.asked.lock().insert(id);
    }

    /// The queued pushes, leaving none.
    pub(crate) fn take_pushes(&self) -> Vec<PutObject> {
        std::mem::take(&mut *self.pushes.lock())
    }

    pub(crate) fn get(&self, id: NodeId) -> Option<Arc<Frame>> {
        self.frames.lock().get(&id).cloned()
    }

    pub(crate) fn insert(&self, id: NodeId, frame: Arc<Frame>) {
        self.frames.lock().insert(id, frame);
    }
}

/// A source frame the bulk pre-decode is about to decode: (video, frame
/// index, frame node, the flight claim on its key if this pass won it).
type WantedFrame<'a> = (u64, usize, NodeId, Option<Claim<'a, String, Object>>);

impl Inner {
    /// A dataset video by id.
    pub(crate) fn video(&self, video_id: u64) -> Result<&VideoEntry> {
        self.dataset
            .get(video_id)
            .ok_or_else(|| CoreError::UnknownView {
                what: format!("video {video_id} not in dataset"),
            })
    }

    /// Reads `key` back from wherever it already exists: the store
    /// (mem/disk), else — when `ask_owner` — the key's ring owner, whose
    /// bytes are adopted into the store under `adopt`. A hit is
    /// validated — bytes and the frame they decode to come back together
    /// — and an object that fails validation is a miss: a corrupt local
    /// object (a torn write from a crash) is dropped, corrupt remote bytes
    /// are ignored, and the caller recomputes. Duplicate work, never wrong
    /// bytes.
    ///
    /// Call it under the engine flight for `key`, so that concurrent
    /// misses send the owner one `Fetch`.
    pub(crate) fn lookup(
        &self,
        key: &str,
        adopt: Option<ObjectMeta>,
        ask_owner: bool,
    ) -> Option<Object> {
        if let Some(tier) = self.store.tier_of(key) {
            if let Ok(bytes) = self.store.get(key) {
                match decompress_frame(&bytes) {
                    Ok(frame) => {
                        return Some(Object {
                            frame: Arc::new(frame),
                            bytes: Some(bytes),
                            tier: Some(tier),
                        })
                    }
                    Err(_) => {
                        let _ = self.store.remove(key);
                        self.engine_metrics.corrupt_dropped_local.inc();
                    }
                }
            }
        }
        // `None` covers every degraded case: no cluster, self-owned key,
        // owner down, clean miss.
        let remote = self.remote.as_ref().filter(|_| ask_owner)?;
        let bytes = remote.fetch(&[key]).pop().flatten()?;
        self.adopt(key, bytes, adopt)
    }

    /// Validates the bytes a ring owner sent for `key` and, under `adopt`,
    /// puts them into the store. Bytes that pass the wire's checksum but
    /// are not a frame are counted and ignored.
    pub(crate) fn adopt(
        &self,
        key: &str,
        bytes: Vec<u8>,
        adopt: Option<ObjectMeta>,
    ) -> Option<Object> {
        let bytes = Arc::new(bytes);
        let Ok(frame) = decompress_frame(&bytes) else {
            self.engine_metrics.corrupt_dropped_remote.inc();
            return None;
        };
        if let Some(meta) = adopt {
            let _ = self.store.put(key, Arc::clone(&bytes), meta);
        }
        Some(Object {
            frame: Arc::new(frame),
            bytes: Some(bytes),
            tier: None,
        })
    }

    /// Runs `produce` under the engine flight for the object's store
    /// key `key`, or adopts the object of whoever is already producing it —
    /// another tenant's demand job, a prefetch build, pre-materialization
    /// — so an object is produced at most once however many callers race
    /// for it.
    pub(crate) fn in_flight(
        &self,
        key: &str,
        produce: impl FnOnce() -> Result<Object>,
    ) -> Result<(Object, Arrival)> {
        let t0 = Instant::now();
        let (object, arrival) = self.flight.get_or_compute(key, false, produce)?;
        let m = &self.fleet_metrics;
        if arrival == Arrival::Computed {
            m.dedup_wins.inc();
        } else {
            m.dedup_wait_us.observe_duration(t0.elapsed());
            m.dedup_adoptions.inc();
        }
        Ok((object, arrival))
    }

    /// Materializes a node: the pass memo, else — under the flight — the
    /// store, the ring owner, or the computation.
    pub(crate) fn materialize(
        self: &Arc<Self>,
        chunk: &Arc<Chunk>,
        id: NodeId,
        memo: &Scratch,
    ) -> Result<Object> {
        if let Some(frame) = memo.get(id) {
            return Ok(frame.into());
        }
        let node = &chunk.graph.nodes[id];
        let key = chunk.key(id);
        let (object, arrival) = self.in_flight(key, || {
            // A pass-mate may have finished the node between the check
            // above and this claim.
            if let Some(frame) = memo.get(id) {
                return Ok(frame.into());
            }
            let adopt = node.cached.then(|| chunk.meta(id));
            let object = match self.lookup(key, adopt, memo.may_ask(id)) {
                Some(hit) => hit,
                None => self.compute(chunk, id, key, memo)?,
            };
            memo.insert(id, Arc::clone(&object.frame));
            Ok(object)
        })?;
        if arrival != Arrival::Computed {
            memo.insert(id, Arc::clone(&object.frame));
        }
        Ok(object)
    }

    /// Computes a node nobody holds — a decode, or one op over the
    /// materialized parent — and, if the plan caches it, stores it and
    /// queues it for its ring owner.
    fn compute(
        self: &Arc<Self>,
        chunk: &Arc<Chunk>,
        id: NodeId,
        key: &str,
        memo: &Scratch,
    ) -> Result<Object> {
        let node = &chunk.graph.nodes[id];
        let frame = match &node.key {
            ObjectKey::Video { .. } => {
                return Err(CoreError::UnknownView {
                    what: "video roots are not frame objects".into(),
                })
            }
            ObjectKey::Frame { video_id, frame } => self.decode_one(*video_id, *frame)?,
            ObjectKey::Aug { .. } => {
                let parent = node.parent.ok_or_else(|| CoreError::State {
                    what: "aug node without parent".into(),
                })?;
                let src = self.materialize(chunk, parent, memo)?.frame;
                let op = node.op.as_ref().ok_or_else(|| CoreError::State {
                    what: "aug node without op".into(),
                })?;
                self.apply_op(op, &src)?
            }
        };
        let mut bytes = None;
        if node.cached {
            let meta = chunk.meta(id);
            let compressed = self.store_frame(key, &frame, meta)?;
            // The ring owner did not have it (the lookup missed): queue
            // it, and the job pushes it before it delivers, so the next
            // consumer anywhere in the cluster hits.
            if self.remote.as_ref().is_some_and(|r| r.is_remote(key)) {
                memo.pushes.lock().push(PutObject {
                    key: key.to_string(),
                    deadline: meta.deadline,
                    future_uses: meta.future_uses,
                    bytes: Arc::clone(&compressed),
                });
            }
            bytes = Some(compressed);
        }
        Ok(Object {
            frame: Arc::new(frame),
            bytes,
            tier: None,
        })
    }

    /// Compresses `frame` into the store; returns the stored allocation.
    fn store_frame(&self, key: &str, frame: &Frame, meta: ObjectMeta) -> Result<Arc<Vec<u8>>> {
        let compressed: Arc<Vec<u8>> = compress_frame(frame).into();
        self.store.put(key, Arc::clone(&compressed), meta)?;
        Ok(compressed)
    }

    /// Applies one augmentation op, in-process or through the
    /// custom-augmentation service.
    fn apply_op(&self, op: &ResolvedOp, src: &Frame) -> Result<Frame> {
        let t0 = Instant::now();
        let applied = if let ResolvedOp::Custom { name } = op {
            let client = self
                .config
                .aug_service
                .as_ref()
                .ok_or_else(|| CoreError::State {
                    what: format!(
                        "pipeline uses custom op `{name}` but no augmentation \
                         service is configured"
                    ),
                })?;
            client.apply(name, src)?
        } else {
            let frame_op = op.to_frame_op()?.ok_or_else(|| CoreError::State {
                what: "normalize is not a frame op".into(),
            })?;
            frame_op.apply(src)?
        };
        let spent = t0.elapsed();
        self.mat_metrics.op_us.observe_duration(spent);
        self.mat_metrics.ops.inc();
        record_stage(Stage::Aug, spent);
        Ok(applied)
    }

    /// Decodes `indices` of one video in one walk from each GOP's
    /// keyframe, timed as decode work and merged into the engine's decode
    /// counters. Every decode in the engine goes through here.
    fn decode_frames(&self, video_id: u64, indices: &[usize]) -> Result<Vec<Frame>> {
        let mut dec = Decoder::with_metrics(&self.video(video_id)?.encoded, &self.codec_metrics);
        let t0 = Instant::now();
        let frames = dec.decode_indices(indices)?;
        let spent = t0.elapsed();
        self.engine_metrics.decode_us.observe_duration(spent);
        record_stage(Stage::Decode, spent);
        self.decode_stats.lock().merge(dec.stats());
        Ok(frames)
    }

    /// Decodes one frame: a walk from its GOP's keyframe.
    pub(crate) fn decode_one(&self, video_id: u64, frame: usize) -> Result<Frame> {
        let decoded = self.decode_frames(video_id, &[frame])?.pop();
        Ok(decoded.ok_or(CodecError::Corrupt {
            what: "target not decoded",
        })?)
    }

    /// The source frame `target` still needs decoded — `None` when the
    /// target or one of its ancestors is already in the memo or the
    /// store, which makes the decode unnecessary.
    fn uncovered_frame(
        &self,
        chunk: &Chunk,
        target: NodeId,
        memo: &Scratch,
    ) -> Option<(u64, usize, NodeId)> {
        let mut frame_node = None;
        let mut cur = Some(target);
        while let Some(nid) = cur {
            let node = &chunk.graph.nodes[nid];
            if memo.get(nid).is_some() || self.store.contains(chunk.key(nid)) {
                return None;
            }
            if let ObjectKey::Frame { video_id, frame } = node.key {
                frame_node = Some((video_id, frame, nid));
            }
            cur = node.parent;
        }
        frame_node
    }

    /// Pre-decodes, in one GOP-efficient pass per video, every source
    /// frame the target nodes need that is not otherwise covered, into
    /// the memo and, for the frames the plan caches, the store.
    ///
    /// Each frame is claimed on the engine flight without blocking. The
    /// claim makes this pass the one that looks the frame up and the one
    /// every concurrent [`Inner::materialize`] of it joins instead of
    /// decoding it alone; if the pass fails, its unpublished claims fail
    /// with it and those waiters fall back to per-frame demand decodes.
    /// A frame somebody else holds the claim on is decoded here all the
    /// same: the walk through its GOP is being paid for anyway, the
    /// other job's copy may be evicted before this pass gets to use it,
    /// and waiting for it would park a demand job behind a whole
    /// pre-materialization pass.
    pub(crate) fn predecode_nodes(
        self: &Arc<Self>,
        chunk: &Arc<Chunk>,
        targets: &[NodeId],
        memo: &Scratch,
    ) -> Result<()> {
        let mut wanted: Vec<WantedFrame<'_>> = Vec::new();
        for &target in targets {
            let Some((video_id, frame, nid)) = self.uncovered_frame(chunk, target, memo) else {
                continue;
            };
            if wanted.iter().any(|w| w.2 == nid) {
                continue;
            }
            let node = &chunk.graph.nodes[nid];
            let key = chunk.key(nid);
            let claim = match self.flight.try_claim(key) {
                // Ours to deliver. A frame the store or the ring owner
                // already holds is adopted instead of re-decoded — the
                // bulk pass honors at-most-once the same way the
                // per-node path does. Only cached nodes can exist
                // remotely.
                Some(claim) if node.cached => {
                    match self.lookup(key, Some(chunk.meta(nid)), memo.may_ask(nid)) {
                        Some(hit) => {
                            memo.insert(nid, Arc::clone(&hit.frame));
                            claim.publish(hit, false);
                            continue;
                        }
                        None => Some(claim),
                    }
                }
                claim => claim,
            };
            wanted.push((video_id, frame, nid, claim));
        }
        wanted.sort_by_key(|w| (w.0, w.1));
        let mut rest = wanted.into_iter().peekable();
        while let Some(video_id) = rest.peek().map(|w| w.0) {
            let group: Vec<_> = std::iter::from_fn(|| rest.next_if(|w| w.0 == video_id)).collect();
            let indices: Vec<usize> = group.iter().map(|w| w.1).collect();
            let frames = self.decode_frames(video_id, &indices)?;
            for ((_, _, nid, claim), frame) in group.into_iter().zip(frames) {
                // Store the frame only if the plan caches it, as
                // `compute` does: an uncached frame reaches its
                // descendants through the memo and the flight claim, and
                // in the store it would only push out objects the plan
                // keeps. (Unlike `compute`, nothing is queued for the
                // ring owner here.)
                let key = chunk.key(nid);
                let bytes = if !chunk.graph.nodes[nid].cached || self.store.contains(key) {
                    None
                } else {
                    Some(self.store_frame(key, &frame, chunk.meta(nid))?)
                };
                let frame = Arc::new(frame);
                memo.insert(nid, Arc::clone(&frame));
                let decoded = Object {
                    frame,
                    bytes,
                    tier: None,
                };
                if let Some(claim) = claim {
                    claim.publish(decoded, false);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{dataset, engine, TASK};
    use crate::engine::{EngineConfig, SandEngine};
    use sand_codec::{Dataset, DecodeStats};
    use sand_config::parse_task_config;
    use sand_frame::Tensor;
    use sand_net::{PeerSpec, RemoteTierConfig, ServerConfig, ServerHandle, ViewServer};
    use sand_sched::SchedConfig;
    use sand_storage::{ObjectStore, StoreConfig};
    use sand_telemetry::{Telemetry, TelemetryConfig};
    use sand_vfs::{VfsError, ViewPath, ViewProvider};
    use std::path::PathBuf;
    use std::sync::Barrier;

    #[test]
    fn frame_view_reads_walk_from_the_keyframe() {
        let e = engine(false);
        e.start().unwrap();
        let vfs = e.mount();
        let ds = dataset();
        let entry = ds.get(1).unwrap();
        let mut expected = DecodeStats::default();
        // Each read walks its GOP from the keyframe (gop_size = 6), even
        // when an earlier read walked the same GOP: 0..=1, 0..=3, 12..=13.
        for (i, walked) in [(1usize, 2u64), (3, 4), (13, 2)] {
            let fd = vfs.open(&format!("/train/video0001/frame{i}")).unwrap();
            let bytes = vfs.read_to_end(fd).unwrap();
            vfs.close(fd).unwrap();
            let mut cold = Decoder::new(&entry.encoded);
            let want = cold.decode_indices(&[i]).unwrap();
            assert_eq!(bytes, compress_frame(&want[0]), "frame {i}");
            assert_eq!(cold.stats().frames_decoded, walked);
            assert_eq!(cold.stats().i_frames_decoded, 1);
            expected.merge(cold.stats());
            assert_eq!(e.stats().decode, expected, "after frame {i}");
        }
    }

    #[test]
    fn custom_op_pipeline_serves_through_service() {
        const CUSTOM_TASK: &str = r#"
dataset:
  tag: custom
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
        - custom:
            name: invert_custom
"#;
        let service = crate::service::AugService::builder()
            .register(
                "invert_custom",
                Box::new(|mut f: Frame| {
                    for b in f.as_bytes_mut() {
                        *b = 255 - *b;
                    }
                    Ok(f)
                }),
            )
            .start();
        let config = EngineConfig {
            tasks: vec![parse_task_config(CUSTOM_TASK).unwrap()],
            total_epochs: 1,
            epochs_per_chunk: 1,
            aug_service: Some(service.client()),
            ..Default::default()
        };
        let e = SandEngine::new(config, dataset()).unwrap();
        e.start().unwrap();
        let bytes = e.serve_batch("custom", 0, 0).unwrap();
        let t = Tensor::from_bytes(&bytes).unwrap();
        assert_eq!(t.shape(), &[2, 3, 4, 16, 16]);
        // Without the service, the same pipeline fails with a clear error.
        let config = EngineConfig {
            tasks: vec![parse_task_config(CUSTOM_TASK).unwrap()],
            total_epochs: 1,
            epochs_per_chunk: 1,
            prematerialize: false,
            ..Default::default()
        };
        let e2 = SandEngine::new(config, dataset()).unwrap();
        e2.start().unwrap();
        let err = e2.serve_batch("custom", 0, 0).unwrap_err();
        assert!(err.to_string().contains("augmentation"), "{err}");
    }

    #[test]
    fn a_panicking_custom_op_fails_only_the_batch_that_needs_it() {
        const PANIC_TASK: &str = r#"
dataset:
  tag: custom
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
        - custom:
            name: invert
"#;
        // An engine whose `invert` op panics on every frame of
        // `panic_on`; `None` is the reference engine, whose op never does.
        let start = |panic_on: Option<u64>| {
            let service = crate::service::AugService::builder()
                .register(
                    "invert",
                    Box::new(move |mut f: Frame| {
                        assert_ne!(Some(f.meta.video_id), panic_on, "bad frame");
                        for b in f.as_bytes_mut() {
                            *b = 255 - *b;
                        }
                        Ok(f)
                    }),
                )
                .start();
            let config = EngineConfig {
                tasks: vec![parse_task_config(PANIC_TASK).unwrap()],
                total_epochs: 2,
                epochs_per_chunk: 2,
                aug_service: Some(service.client()),
                ..Default::default()
            };
            (SandEngine::new(config, dataset()).unwrap(), service)
        };
        let (reference, _reference_service) = start(None);
        reference.start().unwrap();
        // Each video is in one batch per epoch, so the batch of another
        // iteration never needs the first sample's video.
        let chunk = reference.inner.ensure_chunk(0).unwrap();
        let videos = |epoch: u64, it: u64| -> Vec<u64> {
            let batch = reference.inner.find_batch(&chunk, "custom", epoch, it);
            batch.unwrap().samples.iter().map(|s| s.video_id).collect()
        };
        let bad = videos(0, 0)[0];
        let clean: Vec<(u64, u64)> = (0..2)
            .flat_map(|epoch| (0..2).map(move |it| (epoch, it)))
            .filter(|&(epoch, it)| !videos(epoch, it).contains(&bad))
            .collect();
        assert_eq!(clean.len(), 2, "{clean:?}");
        let (e, _service) = start(Some(bad));
        e.start().unwrap();
        let err = e.serve_batch("custom", 0, 0).unwrap_err();
        assert!(err.to_string().contains("custom op `invert`"), "{err}");
        // Serving goes on, byte for byte as if the op never panicked.
        for (epoch, it) in clean {
            assert_eq!(
                e.serve_batch("custom", epoch, it).unwrap(),
                reference.serve_batch("custom", epoch, it).unwrap(),
                "epoch {epoch} iteration {it}"
            );
        }
    }

    #[test]
    fn corrupt_cached_object_recomputed_not_fatal() {
        let dir = std::env::temp_dir().join(format!("sand_corrupt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = EngineConfig {
            tasks: vec![parse_task_config(TASK).unwrap()],
            total_epochs: 1,
            epochs_per_chunk: 1,
            store_dir: Some(dir.clone()),
            store: StoreConfig {
                memory_horizon: 0,
                ..Default::default()
            },
            telemetry: Some(TelemetryConfig::default()),
            ..Default::default()
        };
        let e = SandEngine::new(config, dataset()).unwrap();
        e.start().unwrap();
        e.wait_idle();
        // Corrupt every persisted object (simulating torn writes).
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_file() {
                std::fs::write(&path, b"garbage").unwrap();
            }
        }
        // Serving must still succeed by recomputing from source.
        let bytes = e.serve_batch("train", 0, 0).unwrap();
        assert!(!bytes.is_empty());
        // The log's checksum caught those: the store reported misses and
        // the engine's lookup had nothing to drop.
        let dropped = |e: &SandEngine| {
            let snap = e.metrics_snapshot().unwrap();
            let count = |at: &str| snap.counter(&format!("engine.corrupt_dropped.{at}"));
            (count("local"), count("remote"))
        };
        assert_eq!(dropped(&e), (Some(0), Some(0)));
        // Objects that pass the store's checksum but are not frames get
        // past it; the lookup drops each and recomputes, same bytes.
        let keys = e.store().keys();
        for key in &keys {
            let garbage = Arc::new(b"garbage".to_vec());
            e.store().put(key, garbage, ObjectMeta::default()).unwrap();
        }
        assert_eq!(e.serve_batch("train", 0, 0).unwrap(), bytes);
        let (local, remote) = dropped(&e);
        assert!(
            (1..=keys.len() as u64).contains(&local.unwrap()),
            "{local:?}"
        );
        assert_eq!(remote, Some(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_materialize_matches_sequential() {
        let run = |threads: usize| {
            let config = EngineConfig {
                tasks: vec![parse_task_config(TASK).unwrap()],
                prematerialize: true,
                total_epochs: 2,
                epochs_per_chunk: 2,
                sched: SchedConfig {
                    threads,
                    ..Default::default()
                },
                ..Default::default()
            };
            let e = SandEngine::new(config, dataset()).unwrap();
            e.start().unwrap();
            e.wait_idle();
            let mut batches = Vec::new();
            for epoch in 0..2 {
                for it in 0..2 {
                    batches.push(e.serve_batch("train", epoch, it).unwrap());
                }
            }
            (batches, e.stats().aug_ops_applied)
        };
        let (seq, seq_ops) = run(1);
        let (par, par_ops) = run(4);
        assert_eq!(seq, par, "worker count changed served bytes");
        assert_eq!(
            seq_ops, par_ops,
            "worker count changed the op count (duplicated or skipped \
             chain work)"
        );
    }

    /// A ring owner: a bare store behind a `ViewServer` that serves no
    /// views, with its own request counter.
    struct Owner {
        store: Arc<ObjectStore>,
        telemetry: Telemetry,
        server: ServerHandle,
    }

    struct NoViews;

    impl ViewProvider for NoViews {
        fn fetch(&self, path: &ViewPath) -> sand_vfs::Result<Arc<Vec<u8>>> {
            Err(VfsError::NoSuchView {
                path: path.to_string(),
            })
        }

        fn metadata(&self, _: &ViewPath, name: &str) -> sand_vfs::Result<String> {
            Err(VfsError::NoAttr {
                name: name.to_string(),
            })
        }
    }

    impl Owner {
        fn start() -> Owner {
            let store = Arc::new(ObjectStore::memory_only(StoreConfig::default()).unwrap());
            let telemetry = Telemetry::new(TelemetryConfig::default());
            let server = ViewServer::serve(
                "127.0.0.1:0",
                Arc::new(NoViews),
                Some(Arc::clone(&store)),
                ServerConfig::default(),
                &telemetry,
            )
            .unwrap();
            Owner {
                store,
                telemetry,
                server,
            }
        }

        fn requests(&self) -> u64 {
            let snap = self.telemetry.snapshot().unwrap();
            snap.counter("net.server_requests").unwrap()
        }
    }

    /// Node `a` of a two-node ring whose other node is `owner`; demand
    /// only, and it pushes nothing, so every request the owner sees is a
    /// `Fetch`. `remote = None` is the same engine without a cluster.
    fn node(
        dataset: &Arc<Dataset>,
        owner: Option<&Owner>,
        dir: Option<PathBuf>,
        naive_leaf_cache: bool,
    ) -> SandEngine {
        let remote = owner.map(|o| RemoteTierConfig {
            node_id: "a".into(),
            peers: vec![PeerSpec {
                node_id: "b".into(),
                addr: o.server.local_addr(),
            }],
            push_to_owner: false,
            ..Default::default()
        });
        let config = EngineConfig {
            tasks: vec![parse_task_config(TASK).unwrap()],
            prematerialize: false,
            total_epochs: 8,
            epochs_per_chunk: 8,
            naive_leaf_cache,
            store_dir: dir,
            telemetry: Some(TelemetryConfig::default()),
            remote,
            ..Default::default()
        };
        let e = SandEngine::new(config, Arc::clone(dataset)).unwrap();
        e.start().unwrap();
        e
    }

    /// The first node of `chunk` accepted by `pick`.
    fn find_node(chunk: &Chunk, pick: impl Fn(&sand_graph::ConcreteNode) -> bool) -> NodeId {
        let node = chunk.graph.nodes.iter().find(|n| pick(n));
        node.expect("no such node in the plan").id
    }

    #[derive(Clone, Copy, Debug)]
    enum Case {
        MemHit,
        DiskHit,
        CorruptLocal,
        RemoteHit { cached: bool },
        RemoteNotAFrame,
        Miss,
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Entry {
        Materialize,
        PredecodePass,
        FrameView,
        AugView,
    }

    /// What one lookup did, as every entry point must agree on it.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        right_bytes: bool,
        computed: bool,
        corrupt_local: u64,
        corrupt_remote: u64,
        fetch_hits: u64,
        fetch_misses: u64,
    }

    #[test]
    fn every_entry_point_resolves_an_object_the_same_way() {
        let ds = dataset();
        let far = ObjectMeta {
            deadline: Some(1 << 40),
            future_uses: 1,
        };
        let garbage = || Arc::new(b"checksummed, but not a frame".to_vec());
        let cases = [
            Case::MemHit,
            Case::DiskHit,
            Case::CorruptLocal,
            Case::RemoteHit { cached: true },
            Case::RemoteHit { cached: false },
            Case::RemoteNotAFrame,
            Case::Miss,
        ];
        let mut dirs = Vec::new();
        for case in cases {
            let naive = matches!(case, Case::RemoteHit { cached: false });
            // (computed, corrupt local, corrupt remote, fetch hits, misses)
            let want = match case {
                Case::MemHit | Case::DiskHit => (false, 0, 0, 0, 0),
                Case::CorruptLocal => (true, 1, 0, 0, 1),
                Case::RemoteHit { .. } => (false, 0, 0, 1, 0),
                Case::RemoteNotAFrame => (true, 0, 1, 1, 0),
                Case::Miss => (true, 0, 0, 0, 1),
            };
            let want = Outcome {
                right_bytes: true,
                computed: want.0,
                corrupt_local: want.1,
                corrupt_remote: want.2,
                fetch_hits: want.3,
                fetch_misses: want.4,
            };
            let entries: &[Entry] = if naive {
                // `cached` only decides adoption where the object is a
                // planned node that is looked up at all: frame views are
                // unplanned, and the bulk pass skips uncached frames.
                &[Entry::Materialize, Entry::AugView]
            } else {
                &[
                    Entry::Materialize,
                    Entry::PredecodePass,
                    Entry::FrameView,
                    Entry::AugView,
                ]
            };
            for &entry in entries {
                let owner = Owner::start();
                let dir = std::env::temp_dir().join(format!(
                    "sand_lookup_{}_{}",
                    std::process::id(),
                    dirs.len()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                dirs.push(dir.clone());
                let e = node(&ds, Some(&owner), Some(dir), naive);
                let inner = &e.inner;
                let chunk = inner.ensure_chunk(0).unwrap();
                let remote = e.remote_tier().unwrap();
                // The object under test: owned by the other node, and a
                // source frame — except through the aug view, which only
                // reaches (depth-1) augmented objects.
                let id = find_node(&chunk, |n| {
                    remote.is_remote(chunk.key(n.id))
                        && match &n.key {
                            ObjectKey::Frame { .. } => entry != Entry::AugView,
                            ObjectKey::Aug { depth, .. } => entry == Entry::AugView && *depth == 1,
                            ObjectKey::Video { .. } => false,
                        }
                });
                let target = &chunk.graph.nodes[id];
                assert_eq!(target.cached, !naive);
                let key = chunk.key(id);
                let (video_id, frame) = match target.key {
                    ObjectKey::Frame { video_id, frame }
                    | ObjectKey::Aug {
                        video_id, frame, ..
                    } => (video_id, frame),
                    ObjectKey::Video { .. } => unreachable!(),
                };
                // The right answer, from an engine without a cluster.
                let reference = node(&ds, None, None, naive);
                let plain = |id: NodeId| {
                    let chunk = reference.inner.ensure_chunk(0).unwrap();
                    let memo = Scratch::new();
                    reference.inner.materialize(&chunk, id, &memo).unwrap()
                };
                let right = plain(id).frame;
                let right_bytes: Arc<Vec<u8>> = compress_frame(&right).into();
                // An augmented object's parent is at hand locally, so
                // the only key that can go to the owner is the target's.
                if let Some(parent) = target.parent.filter(|_| entry == Entry::AugView) {
                    let parent_key = chunk.key(parent);
                    let bytes = compress_frame(&plain(parent).frame).into();
                    e.store().put(parent_key, bytes, far).unwrap();
                }
                match case {
                    Case::MemHit => {
                        let near = ObjectMeta::default();
                        e.store().put(key, Arc::clone(&right_bytes), near).unwrap();
                        assert_eq!(e.store().tier_of(key), Some(Tier::Memory));
                    }
                    Case::DiskHit => {
                        e.store().put(key, Arc::clone(&right_bytes), far).unwrap();
                        assert_eq!(e.store().tier_of(key), Some(Tier::Disk));
                    }
                    Case::CorruptLocal => e.store().put(key, garbage(), far).unwrap(),
                    Case::RemoteHit { .. } => {
                        owner.store.put(key, Arc::clone(&right_bytes), far).unwrap();
                    }
                    Case::RemoteNotAFrame => owner.store.put(key, garbage(), far).unwrap(),
                    Case::Miss => {}
                }
                let work = |e: &SandEngine| {
                    let stats = e.stats();
                    stats.decode.frames_decoded + stats.aug_ops_applied
                };
                let before = work(&e);
                let view = |path: String| {
                    let vfs = e.mount();
                    let fd = vfs.open(&path).unwrap();
                    let bytes = vfs.read_to_end(fd).unwrap();
                    vfs.close(fd).unwrap();
                    Arc::new(decompress_frame(&bytes).unwrap())
                };
                let got = match entry {
                    Entry::Materialize => {
                        let memo = Scratch::new();
                        inner.materialize(&chunk, id, &memo).unwrap().frame
                    }
                    Entry::PredecodePass => {
                        let memo = Scratch::new();
                        inner.predecode_nodes(&chunk, &[id], &memo).unwrap();
                        inner.materialize(&chunk, id, &memo).unwrap().frame
                    }
                    Entry::FrameView => view(format!("/train/video{video_id:04}/frame{frame}")),
                    Entry::AugView => view(format!("/train/video{video_id:04}/frame{frame}/aug1")),
                };
                let snap = e.metrics_snapshot().unwrap();
                let count = |name: &str| snap.counter(name).unwrap();
                let got = Outcome {
                    right_bytes: got == right,
                    computed: work(&e) > before,
                    corrupt_local: count("engine.corrupt_dropped.local"),
                    corrupt_remote: count("engine.corrupt_dropped.remote"),
                    fetch_hits: count("net.fetch_hits"),
                    fetch_misses: count("net.fetch_misses"),
                };
                assert_eq!(got, want, "{case:?} through {entry:?}");
                assert_eq!(owner.requests(), want.fetch_hits + want.fetch_misses);
                if let Case::RemoteHit { cached } = case {
                    // The owner's bytes are adopted iff the plan caches
                    // the node.
                    assert_eq!(e.store().contains(key), cached, "{entry:?}");
                }
            }
        }
        for dir in dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn concurrent_materializations_of_a_remote_object_fetch_it_once() {
        let ds = dataset();
        let owner = Owner::start();
        let e = node(&ds, Some(&owner), None, false);
        let chunk = e.inner.ensure_chunk(0).unwrap();
        let remote = e.remote_tier().unwrap();
        let id = find_node(&chunk, |n| {
            matches!(n.key, ObjectKey::Frame { .. }) && remote.is_remote(chunk.key(n.id))
        });
        let key = chunk.key(id);
        let reference = node(&ds, None, None, false);
        let right = reference
            .inner
            .materialize(&chunk, id, &Scratch::new())
            .unwrap();
        let bytes = compress_frame(&right.frame).into();
        owner.store.put(key, bytes, ObjectMeta::default()).unwrap();
        // Eight passes at once, each with its own memo: whoever wins the
        // flight fetches and adopts; the rest join it or, arriving after
        // it retired, find the adopted object in the store.
        let barrier = Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    barrier.wait();
                    let got = e.inner.materialize(&chunk, id, &Scratch::new()).unwrap();
                    assert_eq!(got.frame, right.frame);
                });
            }
        });
        assert_eq!(owner.requests(), 1, "one `Fetch` to the owner");
        let snap = e.metrics_snapshot().unwrap();
        assert_eq!(snap.counter("net.fetch_hits"), Some(1));
        assert_eq!(snap.counter("net.fetch_misses"), Some(0));
        assert_eq!(e.stats().decode.frames_decoded, 0);
    }

    #[test]
    fn a_sample_job_asks_the_owner_once_for_all_its_leaves() {
        let ds = dataset();
        let owner = Owner::start();
        let e = node(&ds, Some(&owner), None, false);
        let reference = node(&ds, None, None, false);
        let chunk = e.inner.ensure_chunk(0).unwrap();
        let remote = e.remote_tier().unwrap();
        let sample = chunk
            .graph
            .batches
            .iter()
            .flat_map(|b| &b.samples)
            .find(|s| {
                let leaves = &s.frame_nodes;
                leaves.iter().all(|&id| remote.is_remote(chunk.key(id)))
            });
        let sample = sample.expect("a sample whose leaves the other node owns");
        // The owner holds every leaf, as the other node's jobs leave them.
        for &id in &sample.frame_nodes {
            let leaf = reference.inner.materialize(&chunk, id, &Scratch::new());
            let bytes = compress_frame(&leaf.unwrap().frame).into();
            owner
                .store
                .put(chunk.key(id), bytes, ObjectMeta::default())
                .unwrap();
        }
        let got = e.inner.sample_tensor(&chunk, sample).unwrap();
        assert_eq!(got, reference.inner.sample_tensor(&chunk, sample).unwrap());
        assert_eq!(owner.requests(), 1, "one `Fetch` for the whole clip");
        let snap = e.metrics_snapshot().unwrap();
        let leaves = sample.frame_nodes.len() as u64;
        assert_eq!(snap.counter("net.fetch_hits"), Some(leaves));
        assert_eq!(snap.counter("net.fetch_misses"), Some(0));
        assert_eq!(
            e.stats().decode.frames_decoded + e.stats().aug_ops_applied,
            0
        );
    }

    #[test]
    fn a_claim_winner_rereads_the_memo() {
        // A pass-mate can finish a node between a job's memo miss and its
        // claim on the node's key. Played out here move by move: the test
        // holds the claim on an uncached resize while a job, having
        // missed the memo, parks on it; the test then does what a
        // pass-mate that had just computed the resize does — memo first,
        // claim gone second.
        let ds = dataset();
        let e = node(&ds, None, None, true);
        let chunk = e.inner.ensure_chunk(0).unwrap();
        let parent = find_node(&chunk, |n| matches!(n.key, ObjectKey::Aug { depth: 1, .. }));
        let child = chunk.graph.nodes[parent].children[0];
        let key = chunk.key(parent);
        let reference = node(&ds, None, None, true);
        let resized = reference
            .inner
            .materialize(&chunk, parent, &Scratch::new())
            .unwrap();
        let cropped = reference
            .inner
            .materialize(&chunk, child, &Scratch::new())
            .unwrap();
        let memo = Scratch::new();
        let claim = e.inner.flight.try_claim(key).unwrap();
        std::thread::scope(|s| {
            let job = s.spawn(|| e.inner.materialize(&chunk, child, &memo).unwrap());
            while e.inner.flight.joined(key) == 0 {
                std::thread::yield_now();
            }
            memo.insert(parent, resized.frame);
            drop(claim);
            assert_eq!(job.join().unwrap().frame, cropped.frame);
        });
        // The job won the freed key, found the resize in the memo, and
        // applied the crop alone.
        assert_eq!(e.stats().aug_ops_applied, 1);
        assert_eq!(e.stats().decode.frames_decoded, 0);
    }

    #[test]
    fn an_uncached_parent_is_computed_once_per_pass() {
        // Naive leaf caching keeps only the crops: the frame and its
        // resize are in no store, so within a pass only the memo and the
        // flight stand between eight jobs and eight decodes.
        let ds = dataset();
        let concurrent = node(&ds, None, None, true);
        let sequential = node(&ds, None, None, true);
        let chunk = concurrent.inner.ensure_chunk(0).unwrap();
        let parent = find_node(&chunk, |n| {
            matches!(n.key, ObjectKey::Aug { depth: 1, .. }) && n.children.len() >= 2
        });
        let children = &chunk.graph.nodes[parent].children;
        assert!(!chunk.graph.nodes[parent].cached);
        let work = |e: &SandEngine| (e.stats().aug_ops_applied, e.stats().decode.frames_decoded);
        for pass in 0..32 {
            let memo = Scratch::new();
            let barrier = Barrier::new(8);
            std::thread::scope(|s| {
                for t in 0..8 {
                    let (memo, barrier, chunk) = (&memo, &barrier, &chunk);
                    let inner = &concurrent.inner;
                    s.spawn(move || {
                        barrier.wait();
                        let child = children[t % children.len()];
                        inner.materialize(chunk, child, memo).unwrap();
                    });
                }
            });
            let memo = Scratch::new();
            let plan = sequential.inner.ensure_chunk(0).unwrap();
            for t in 0..8 {
                let child = children[t % children.len()];
                sequential.inner.materialize(&plan, child, &memo).unwrap();
            }
            assert_eq!(work(&concurrent), work(&sequential), "pass {pass}");
            // The next pass finds nothing in the store either.
            for &child in children {
                let key = chunk.key(child);
                concurrent.store().remove(key).unwrap();
                sequential.store().remove(key).unwrap();
            }
        }
        // One decode walk, one resize and each crop once, per pass.
        assert_eq!(work(&sequential).0, 32 * (1 + children.len() as u64));
    }
}
