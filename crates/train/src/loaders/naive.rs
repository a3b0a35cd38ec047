//! The naive frame-caching baseline (§7.2).
//!
//! Identical to the on-demand CPU loader except that decoded frames are
//! cached in a byte-budgeted map. With random per-epoch frame selection
//! the hit rate stays tiny unless the budget covers most of the decoded
//! dataset — the paper measures a 2.7% speedup at 3 TB — which this
//! loader reproduces at scaled-down budgets.

use crate::loaders::cpu::{build_batch_parallel, LoaderCounters, TaggedBatch};
use crate::loaders::{LoadedBatch, Loader};
use crate::plan::{chain_ops, TaskPlan};
use crate::{Result, TrainError};
use crossbeam::channel::{bounded, Receiver};
use parking_lot::Mutex;
use sand_codec::{Dataset, DecodeStats, Decoder};
use sand_frame::Frame;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A byte-budgeted decoded-frame cache (no eviction: fills then stops,
/// like "cache all frames up to the storage limit").
///
/// Entries are `Arc<Frame>` so a hit is a pointer bump, not a pixel-buffer
/// memcpy; every sample sharing a hot frame reads the same allocation.
struct FrameCache {
    map: Mutex<HashMap<(u64, usize), Arc<Frame>>>,
    used: AtomicU64,
    budget: u64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl FrameCache {
    fn new(budget: u64) -> Self {
        FrameCache {
            map: Mutex::new(HashMap::new()),
            used: AtomicU64::new(0),
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn get(&self, video: u64, frame: usize) -> Option<Arc<Frame>> {
        let hit = self.map.lock().get(&(video, frame)).map(Arc::clone);
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn put(&self, video: u64, frame: usize, f: &Arc<Frame>) {
        let size = f.byte_len() as u64;
        if self.used.load(Ordering::Relaxed) + size > self.budget {
            return;
        }
        let mut map = self.map.lock();
        if map.insert((video, frame), Arc::clone(f)).is_none() {
            self.used.fetch_add(size, Ordering::Relaxed);
        }
    }
}

/// The naive caching loader.
pub struct NaiveCacheLoader {
    rx: Receiver<TaggedBatch>,
    counters: Arc<LoaderCounters>,
    cache: Arc<FrameCache>,
    _producer: JoinHandle<()>,
}

impl NaiveCacheLoader {
    /// Starts the producer with a decoded-frame cache of `cache_budget`
    /// bytes.
    #[must_use]
    pub fn new(
        dataset: Arc<Dataset>,
        plan: Arc<TaskPlan>,
        workers: usize,
        prefetch: usize,
        cache_budget: u64,
    ) -> Self {
        let counters = Arc::new(LoaderCounters::default());
        let cache = Arc::new(FrameCache::new(cache_budget));
        let (tx, rx) = bounded(prefetch.max(1));
        let c2 = Arc::clone(&counters);
        let cache2 = Arc::clone(&cache);
        let producer = std::thread::spawn(move || {
            'outer: for epoch in plan.epochs.clone() {
                for it in 0..plan.iters_per_epoch {
                    let cache3 = Arc::clone(&cache2);
                    let result = build_batch_parallel(
                        &dataset,
                        &plan,
                        epoch,
                        it,
                        workers,
                        &c2,
                        &move |ds, p, i| {
                            let batch = p.batch(epoch, it)?;
                            let sample = &batch.samples[i];
                            let entry =
                                ds.get(sample.video_id).ok_or_else(|| TrainError::State {
                                    what: "video missing".into(),
                                })?;
                            // Serve cached frames; decode only the misses.
                            let mut frames: Vec<Option<Arc<Frame>>> =
                                vec![None; sample.frame_indices.len()];
                            let mut missing = Vec::new();
                            for (k, &fi) in sample.frame_indices.iter().enumerate() {
                                match cache3.get(sample.video_id, fi) {
                                    Some(f) => frames[k] = Some(f),
                                    None => missing.push((k, fi)),
                                }
                            }
                            let mut stats = DecodeStats::default();
                            if !missing.is_empty() {
                                let indices: Vec<usize> =
                                    missing.iter().map(|&(_, fi)| fi).collect();
                                let mut dec = Decoder::new(&entry.encoded);
                                let decoded = dec.decode_indices(&indices)?;
                                stats = *dec.stats();
                                for ((k, fi), f) in missing.into_iter().zip(decoded) {
                                    let f = Arc::new(f);
                                    cache3.put(sample.video_id, fi, &f);
                                    frames[k] = Some(f);
                                }
                            }
                            // Augment per plan. The source frame stays behind
                            // the cache's `Arc`; pixels are only copied by the
                            // first op's output (or, with no ops, one clone).
                            let mut out = Vec::with_capacity(frames.len());
                            for (f, &terminal) in frames.into_iter().zip(sample.frame_nodes.iter())
                            {
                                let src = f.ok_or_else(|| TrainError::State {
                                    what: "frame slot unfilled".into(),
                                })?;
                                let mut cur: Option<Frame> = None;
                                for op in chain_ops(&p.graph, terminal) {
                                    if let Some(frame_op) = op.to_frame_op()? {
                                        let input = cur.as_ref().unwrap_or(&*src);
                                        cur = Some(frame_op.apply(input)?);
                                    }
                                }
                                out.push(cur.unwrap_or_else(|| (*src).clone()));
                            }
                            Ok((out, stats))
                        },
                    );
                    let failed = result.is_err();
                    if tx.send(result.map(|b| ((epoch, it), b))).is_err() || failed {
                        break 'outer;
                    }
                }
            }
        });
        NaiveCacheLoader {
            rx,
            counters,
            cache,
            _producer: producer,
        }
    }

    /// Cache hit count so far.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits.load(Ordering::Relaxed)
    }

    /// Cache miss count so far.
    #[must_use]
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses.load(Ordering::Relaxed)
    }
}

impl Loader for NaiveCacheLoader {
    fn next_batch(&mut self, epoch: u64, iteration: u64) -> Result<LoadedBatch> {
        let ((e, i), batch) = self.rx.recv().map_err(|_| TrainError::State {
            what: "producer terminated".into(),
        })??;
        if (e, i) != (epoch, iteration) {
            return Err(TrainError::State {
                what: format!("out-of-order request: want {epoch}/{iteration}, queue has {e}/{i}"),
            });
        }
        Ok(batch)
    }

    fn name(&self) -> &'static str {
        "naive-cache"
    }

    fn cpu_work(&self) -> Duration {
        Duration::from_nanos(self.counters.cpu_work_nanos.load(Ordering::Relaxed))
    }

    fn decode_stats(&self) -> DecodeStats {
        *self.counters.decode.lock()
    }
}
