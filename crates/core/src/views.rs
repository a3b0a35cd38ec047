//! The engine as a view provider: batch, video, frame and augmented-frame
//! views, and their extended attributes.

use crate::engine::SandEngine;
use crate::keys::store_key;
use crate::materialize::{Object, Scratch};
use crate::{CoreError, Result};
use sand_codec::VideoEntry;
use sand_frame::compress_frame;
use sand_graph::ObjectKey;
use sand_storage::{ObjectMeta, Tier};
use sand_vfs::{VfsError, ViewPath, ViewProvider};
use std::sync::Arc;

/// An engine failure, as the VFS reports it.
impl From<CoreError> for VfsError {
    fn from(e: CoreError) -> Self {
        VfsError::Io {
            what: e.to_string(),
        }
    }
}

impl SandEngine {
    /// The dataset video a view path names.
    fn video_named(&self, path: &ViewPath, video: &str) -> sand_vfs::Result<&VideoEntry> {
        self.inner
            .dataset
            .get_by_name(video)
            .ok_or_else(|| VfsError::NoSuchView {
                path: path.to_string(),
            })
    }

    /// An object view's bytes: the compressed form the store (or the
    /// ring owner) already held — the very allocation, zero-copy — or
    /// else the frame compressed now.
    fn object_bytes(&self, object: Object) -> Arc<Vec<u8>> {
        // A local hit was served straight from the compressed cache, no
        // decoder or augmentation work at all; count it by the tier the
        // object lived in before the read.
        if let (Some(tier), Some(m)) = (object.tier, &self.inner.engine_metrics) {
            match tier {
                Tier::Disk => m.compressed_hits_disk.inc(),
                Tier::Memory => m.compressed_hits_mem.inc(),
            }
        }
        object
            .bytes
            .unwrap_or_else(|| Arc::new(compress_frame(&object.frame)))
    }
}

impl ViewProvider for SandEngine {
    fn fetch(&self, path: &ViewPath) -> sand_vfs::Result<Arc<Vec<u8>>> {
        let inner = &self.inner;
        match path {
            ViewPath::Batch {
                task,
                epoch,
                iteration,
            } => Ok(Arc::new(inner.serve_batch(task, *epoch, *iteration)?)),
            ViewPath::Video { video, .. } => {
                Ok(Arc::new(self.video_named(path, video)?.encoded.to_bytes()))
            }
            ViewPath::Frame { video, index, .. } => {
                let video_id = self.video_named(path, video)?.video_id;
                let frame = *index as usize;
                // Not a planned object: whatever the cluster holds is
                // adopted for one use with no deadline (the default
                // meta), and a decode is not stored.
                let adopt = ObjectMeta::default();
                let key = store_key(&ObjectKey::Frame { video_id, frame });
                let (object, _) =
                    inner.in_flight(&key, || match inner.lookup(&key, Some(adopt), true) {
                        Some(hit) => Ok(hit),
                        None => Ok(Arc::new(inner.decode_one(video_id, frame)?).into()),
                    })?;
                Ok(self.object_bytes(object))
            }
            ViewPath::AugFrame {
                video,
                index,
                depth,
                ..
            } => {
                // Serve any planned augmented object at this (frame, depth)
                // from the chunk being served — not the newest plan, which
                // with plan-ahead is the *next* chunk's draws.
                let entry = self.video_named(path, video)?;
                let chunk = inner
                    .chunks
                    .last_served(inner)?
                    .ok_or_else(|| VfsError::Io {
                        what: "no planned chunk".into(),
                    })?;
                let node = chunk
                    .graph
                    .nodes
                    .iter()
                    .find(|n| match &n.key {
                        ObjectKey::Aug {
                            video_id,
                            frame,
                            depth: d,
                            ..
                        } => *video_id == entry.video_id && *frame == *index as usize && d == depth,
                        _ => false,
                    })
                    .ok_or_else(|| VfsError::NoSuchView {
                        path: path.to_string(),
                    })?;
                let memo = Scratch::new();
                let object = inner.materialize(&chunk, node.id, &memo);
                inner.push_queued(&memo);
                Ok(self.object_bytes(object?))
            }
        }
    }

    fn metadata(&self, path: &ViewPath, name: &str) -> sand_vfs::Result<String> {
        let inner = &self.inner;
        let no_attr = || VfsError::NoAttr {
            name: name.to_string(),
        };
        match path {
            ViewPath::Batch {
                task,
                epoch,
                iteration,
            } => {
                let chunk = inner.ensure_chunk(*epoch)?;
                let batch = inner.find_batch(&chunk, task, *epoch, *iteration)?;
                match name {
                    "shape" => {
                        let n = batch.samples.len();
                        let (t, dims) = batch
                            .samples
                            .first()
                            .map(|s| {
                                let terminal = s.frame_nodes.last().copied();
                                let dims = terminal
                                    .map(|id| chunk.graph.nodes[id].dims)
                                    .unwrap_or((0, 0));
                                (s.frame_indices.len(), dims)
                            })
                            .unwrap_or((0, (0, 0)));
                        Ok(format!("{n},3,{t},{},{}", dims.1, dims.0))
                    }
                    "labels" => {
                        let classes = batch
                            .samples
                            .iter()
                            .map(|s| inner.video(s.video_id).map(|v| v.class_id))
                            .collect::<Result<Vec<u32>>>()?;
                        Ok(join(&classes, ","))
                    }
                    "timestamps" => Ok(batch
                        .samples
                        .iter()
                        .map(|s| join(&s.frame_indices, ":"))
                        .collect::<Vec<_>>()
                        .join(",")),
                    _ => Err(no_attr()),
                }
            }
            ViewPath::Video { video, .. } => {
                let entry = self.video_named(path, video)?;
                match name {
                    "frames" => Ok(entry.encoded.frame_count().to_string()),
                    "class" => Ok(entry.class_id.to_string()),
                    "width" => Ok(entry.encoded.header.width.to_string()),
                    "height" => Ok(entry.encoded.header.height.to_string()),
                    _ => Err(no_attr()),
                }
            }
            ViewPath::Frame { video, index, .. } => {
                let entry = self.video_named(path, video)?;
                match name {
                    "timestamp_us" => Ok(entry
                        .encoded
                        .header
                        .timestamp_us(*index as usize)
                        .to_string()),
                    "video_id" => Ok(entry.video_id.to_string()),
                    _ => Err(no_attr()),
                }
            }
            ViewPath::AugFrame { .. } => Err(no_attr()),
        }
    }
}

/// `items` rendered and joined by `sep`.
fn join<T: ToString>(items: &[T], sep: &str) -> String {
    items
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(sep)
}

#[cfg(test)]
mod tests {
    use crate::engine::tests::{dataset, engine, TASK};
    use crate::engine::{EngineConfig, SandEngine};
    use sand_config::parse_task_config;
    use sand_frame::{decompress_frame, Tensor};
    use sand_storage::{StoreConfig, Tier};
    use sand_telemetry::TelemetryConfig;

    #[test]
    fn vfs_roundtrip_batch_and_metadata() {
        let e = engine(false);
        e.start().unwrap();
        let vfs = e.mount();
        let fd = vfs.open("/train/0/0/view").unwrap();
        let bytes = vfs.read_to_end(fd).unwrap();
        let t = Tensor::from_bytes(&bytes).unwrap();
        assert_eq!(t.shape()[0], 2);
        let labels = vfs.getxattr(fd, "labels").unwrap();
        assert_eq!(labels.split(',').count(), 2);
        let ts = vfs.getxattr(fd, "timestamps").unwrap();
        assert_eq!(ts.split(',').count(), 2);
        // The shape xattr matches the tensor actually served.
        let shape = vfs.getxattr(fd, "shape").unwrap();
        let dims: Vec<usize> = shape.split(',').map(|s| s.parse().unwrap()).collect();
        assert_eq!(&dims[..], t.shape());
        vfs.close(fd).unwrap();
    }

    #[test]
    fn vfs_serves_video_frame_and_aug_views() {
        let e = engine(false);
        e.start().unwrap();
        let vfs = e.mount();
        // Video view: container bytes round-trip.
        let fd = vfs.open("/train/video0001.svid").unwrap();
        let bytes = vfs.read_to_end(fd).unwrap();
        assert!(sand_codec::EncodedVideo::from_bytes(&bytes).is_ok());
        assert_eq!(vfs.getxattr(fd, "frames").unwrap(), "24");
        vfs.close(fd).unwrap();
        // Frame view: a self-describing compressed frame.
        let fd = vfs.open("/train/video0001/frame5").unwrap();
        let bytes = vfs.read_to_end(fd).unwrap();
        let f = decompress_frame(&bytes).unwrap();
        assert_eq!((f.width(), f.height()), (32, 32));
        assert_eq!(vfs.getxattr(fd, "video_id").unwrap(), "1");
        vfs.close(fd).unwrap();
    }

    #[test]
    fn frame_view_read_leaves_the_stored_object_intact() {
        let e = engine(true);
        e.start().unwrap();
        e.wait_idle();
        let key = e
            .store()
            .keys()
            .into_iter()
            .find(|k| {
                k.contains("/f") && !k.contains("/a") && e.store().tier_of(k) == Some(Tier::Memory)
            })
            .expect("pre-materialization stored no frame objects in memory");
        // A copy, so no reference of this test's keeps the store's buffer
        // from being handed over.
        let stored = e.store().get(&key).unwrap().to_vec();
        let video: u64 = key[1..5].parse().unwrap();
        let frame: usize = key[7..12].parse().unwrap();
        let vfs = e.mount();
        let fd = vfs
            .open(&format!("/train/video{video:04}/frame{frame}"))
            .unwrap();
        assert_eq!(vfs.read_to_end(fd).unwrap(), stored);
        vfs.close(fd).unwrap();
        assert_eq!(*e.store().get(&key).unwrap(), stored);
    }

    #[test]
    fn aug_view_reachable_after_planning() {
        let e = engine(false);
        e.start().unwrap();
        let vfs = e.mount();
        // Find a planned frame index through batch timestamps.
        let ts = vfs.getxattr_path("/train/0/0/view", "timestamps").unwrap();
        let first_frame: u64 = ts
            .split(',')
            .next()
            .unwrap()
            .split(':')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        // Depth 1 = after resize.
        let path = format!("/train/video0000/frame{first_frame}/aug1");
        // The frame may belong to a different video in this batch; try all.
        let mut served = false;
        for v in 0..4 {
            let p = format!("/train/video{v:04}/frame{first_frame}/aug1");
            if let Ok(fd) = vfs.open(&p) {
                let bytes = vfs.read_to_end(fd).unwrap();
                let f = decompress_frame(&bytes).unwrap();
                assert_eq!((f.width(), f.height()), (16, 16));
                vfs.close(fd).unwrap();
                served = true;
                break;
            }
        }
        assert!(served, "no aug view served for {path}");
    }

    #[test]
    fn compressed_cache_serves_spilled_frames_without_decode() {
        let dir = std::env::temp_dir().join(format!("sand_spill_fetch_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = EngineConfig {
            tasks: vec![parse_task_config(TASK).unwrap()],
            prematerialize: true,
            total_epochs: 2,
            epochs_per_chunk: 2,
            store_dir: Some(dir.clone()),
            store: StoreConfig {
                // Small memory + horizon 0 pushes everything to disk.
                memory_budget: 4 << 20,
                disk_budget: 512 << 20,
                memory_horizon: 0,
                ..Default::default()
            },
            telemetry: Some(TelemetryConfig::default()),
            ..Default::default()
        };
        let e = SandEngine::new(config, dataset()).unwrap();
        e.start().unwrap();
        e.wait_idle();
        // Pick a persisted source-frame object (key shape `vNNNN/fNNNNN`)
        // living on the disk tier. Horizon 0 pushes frames to disk, but
        // ones whose deadline equals the current clock keep a memory
        // copy, so filter by tier rather than assuming.
        let key = e
            .store()
            .keys()
            .into_iter()
            .find(|k| {
                k.contains("/f") && !k.contains("/a") && e.store().tier_of(k) == Some(Tier::Disk)
            })
            .expect("pre-materialization spilled no frame objects to disk");
        let video: u64 = key[1..5].parse().unwrap();
        let frame: usize = key[7..12].parse().unwrap();
        // Fetching the frame view must be served from the compressed
        // cache: zero new decoder work, one disk hit counted.
        let vfs = e.mount();
        let decoded_before = e.stats().decode.frames_decoded;
        let fd = vfs
            .open(&format!("/train/video{video:04}/frame{frame}"))
            .unwrap();
        let bytes = vfs.read_to_end(fd).unwrap();
        vfs.close(fd).unwrap();
        assert!(decompress_frame(&bytes).is_ok());
        assert_eq!(
            e.stats().decode.frames_decoded,
            decoded_before,
            "spilled frame went back through the decoder"
        );
        let snap = e.metrics_snapshot().expect("telemetry enabled");
        assert_eq!(snap.counter("engine.compressed_hits_disk"), Some(1));
        assert_eq!(snap.counter("vfs.fetches"), Some(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
