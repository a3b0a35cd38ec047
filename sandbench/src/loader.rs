//! The bench-owned loader: Fig. 6's usage of the view filesystem.
//!
//! A reader thread walks its lane's plan in order — `open`,
//! `read_to_end`, `getxattr("labels")`, `close`, `Tensor::from_bytes` —
//! and keeps [`LOADER_DEPTH`] batches ready, the double buffering every
//! training framework does. The trainer blocks in [`Loader::next_batch`];
//! that wait is the number the benchmark is about, so it is always
//! timed. Everything else is timed only in a traced pass.

use crate::rig::Lane;
use crate::spans::{timed, SpanLog};
use crate::workloads::{LOADER_DEPTH, REFERENCE_SAMPLE_EVERY};
use sand_codec::DecodeStats;
use sand_frame::Tensor;
use sand_train::{LoadedBatch, Loader, TrainError};
use sand_vfs::{SandVfs, ViewPath};
use std::sync::mpsc::{sync_channel, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// 64-bit digest of served bytes: a multiply-rotate hash over 8-byte
/// words. Not cryptographic; it only has to make a wrong byte visible.
#[must_use]
pub fn digest64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(K).rotate_left(29);
    }
    h ^ (h >> 32)
}

/// Whether batch `(epoch, iteration)` is compared with the reference:
/// every batch of chunk 0, then a deterministic 1 in
/// [`REFERENCE_SAMPLE_EVERY`].
#[must_use]
pub fn is_sampled(epoch: u64, iteration: u64, epochs_per_chunk: u64) -> bool {
    if epoch < epochs_per_chunk {
        return true;
    }
    // splitmix64 finalizer: spreads the sample over iterations of every
    // residue, so each lane of a strided workload gets its share.
    let mut z = epoch
        .wrapping_mul(0x1_0000_0001)
        .wrapping_add(iteration)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)).is_multiple_of(REFERENCE_SAMPLE_EVERY)
}

/// Span roles inside one batch; with the lane and the batch index they
/// make span ids unique without any shared counter.
#[derive(Clone, Copy)]
pub enum Role {
    Wait = 0,
    Open = 1,
    Read = 2,
    GetXattr = 3,
    Close = 4,
    Parse = 5,
    /// The engine's own trace of the batch, placed under `Open`.
    Serve = 6,
    /// One of the trace's segments; the index carries which.
    Segment = 7,
}

#[must_use]
pub fn span_id(lane: u64, role: Role, index: u64) -> u64 {
    (lane << 44) | ((role as u64) << 40) | index
}

#[must_use]
pub fn batch_id(lane: u64, batch_index: u64) -> u64 {
    (lane << 44) | batch_index
}

struct Produced {
    epoch: u64,
    iteration: u64,
    batch: LoadedBatch,
    /// The served bytes, kept only for batches the reference checks.
    bytes: Option<Vec<u8>>,
}

fn state(what: String) -> TrainError {
    TrainError::State { what }
}

/// Reads the lane's `local`-th batch of `epoch` the way Fig. 6 does.
fn read_batch(
    vfs: &SandVfs,
    lane: &Lane,
    lane_index: u64,
    epoch: u64,
    local: u64,
    epochs_per_chunk: u64,
    mut log: Option<&mut SpanLog>,
) -> Result<Produced, TrainError> {
    let iteration = lane.global_iteration(local);
    let batch_index = epoch * lane.local_iters() + local;
    let keep_bytes = is_sampled(epoch, iteration, epochs_per_chunk);
    let parent = Some(span_id(lane_index, Role::Wait, batch_index));
    let bid = batch_id(lane_index, batch_index);
    let id = |role| span_id(lane_index, role, batch_index);
    let path = ViewPath::batch(&lane.task, epoch, iteration);
    let fd = timed(
        log.as_deref_mut(),
        "vfs.open",
        id(Role::Open),
        parent,
        bid,
        || vfs.open(&path),
    )?;
    let bytes = timed(
        log.as_deref_mut(),
        "vfs.read",
        id(Role::Read),
        parent,
        bid,
        || vfs.read_to_end(fd),
    )?;
    let labels = timed(
        log.as_deref_mut(),
        "vfs.getxattr",
        id(Role::GetXattr),
        parent,
        bid,
        || vfs.getxattr(fd, "labels"),
    )?;
    timed(
        log.as_deref_mut(),
        "vfs.close",
        id(Role::Close),
        parent,
        bid,
        || vfs.close(fd),
    )?;
    let tensor = timed(
        log,
        "train.tensor_parse",
        id(Role::Parse),
        parent,
        bid,
        || Tensor::from_bytes(&bytes),
    )?;
    let labels = labels
        .split(',')
        .map(|s| s.parse().map_err(|_| state(format!("bad label `{s}`"))))
        .collect::<Result<Vec<u32>, _>>()?;
    Ok(Produced {
        epoch,
        iteration,
        batch: LoadedBatch {
            tensor,
            labels,
            gpu_preprocess: Duration::ZERO,
        },
        bytes: keep_bytes.then_some(bytes),
    })
}

/// One trainer's loader over one lane.
pub struct BenchLoader {
    rx: Option<Receiver<Result<Produced, TrainError>>>,
    reader: Option<JoinHandle<Option<SpanLog>>>,
    lane: Lane,
    lane_index: u64,
    /// Time blocked in `next_batch`, one entry per batch asked for.
    pub waits_ns: Vec<u64>,
    /// `(epoch, global iteration, digest)` of every sampled batch.
    pub digests: Vec<(u64, u64, u64)>,
    /// Batches delivered without error.
    pub delivered: u64,
    log: Option<SpanLog>,
    /// The engine work counter when the loader was made.
    busy_before: u64,
}

impl BenchLoader {
    /// Starts the reader over `epochs` epochs of `lane`. `trace_origin`
    /// turns span recording on.
    #[must_use]
    pub fn start(
        lane: &Lane,
        lane_index: u64,
        epochs: u64,
        epochs_per_chunk: u64,
        trace_origin: Option<Instant>,
    ) -> Self {
        let (tx, rx) = sync_channel(LOADER_DEPTH);
        let reader_lane = lane.clone();
        let local_iters = lane.local_iters();
        let reader = std::thread::Builder::new()
            .name(format!("bench-reader-{lane_index}"))
            .spawn(move || {
                let vfs = reader_lane.engine.mount();
                let mut log = trace_origin.map(SpanLog::new);
                'outer: for epoch in 0..epochs {
                    for local in 0..local_iters {
                        let result = read_batch(
                            &vfs,
                            &reader_lane,
                            lane_index,
                            epoch,
                            local,
                            epochs_per_chunk,
                            log.as_mut(),
                        );
                        let failed = result.is_err();
                        if tx.send(result).is_err() || failed {
                            break 'outer;
                        }
                    }
                }
                log
            })
            .expect("spawn reader thread");
        BenchLoader {
            rx: Some(rx),
            reader: Some(reader),
            lane: lane.clone(),
            lane_index,
            waits_ns: Vec::new(),
            digests: Vec::new(),
            delivered: 0,
            log: trace_origin.map(SpanLog::new),
            busy_before: lane.engine.stats().sched.busy_nanos,
        }
    }

    /// Stops the reader and returns every span both threads recorded.
    pub fn finish(&mut self) -> Vec<crate::spans::Span> {
        // Dropping the receiver makes the reader's next send fail.
        self.rx = None;
        let mut spans = self.log.take().map_or_else(Vec::new, |l| l.spans);
        if let Some(handle) = self.reader.take() {
            if let Ok(Some(log)) = handle.join() {
                spans.extend(log.spans);
            }
        }
        spans
    }
}

impl Drop for BenchLoader {
    fn drop(&mut self) {
        self.finish();
    }
}

impl Loader for BenchLoader {
    fn next_batch(&mut self, epoch: u64, local: u64) -> Result<LoadedBatch, TrainError> {
        let iteration = self.lane.global_iteration(local);
        let rx = self
            .rx
            .as_ref()
            .ok_or_else(|| state("loader already finished".into()))?;
        let started = Instant::now();
        let got = rx.recv();
        let ended = Instant::now();
        let batch_index = self.waits_ns.len() as u64;
        self.waits_ns.push((ended - started).as_nanos() as u64);
        if let Some(log) = &mut self.log {
            log.push(
                "train.batch_wait",
                span_id(self.lane_index, Role::Wait, batch_index),
                None,
                batch_id(self.lane_index, batch_index),
                started,
                ended,
            );
        }
        let produced = got.map_err(|_| state("reader terminated".into()))??;
        if (produced.epoch, produced.iteration) != (epoch, iteration) {
            return Err(state(format!(
                "out-of-order batch: want {epoch}/{iteration}, got {}/{}",
                produced.epoch, produced.iteration
            )));
        }
        // Hashed here, after the wait was timed: the reader is already
        // fetching the next batch, so the check stays off the path the
        // wait measures.
        if let Some(bytes) = &produced.bytes {
            self.digests.push((epoch, iteration, digest64(bytes)));
        }
        self.delivered += 1;
        Ok(produced.batch)
    }

    fn name(&self) -> &'static str {
        "sandbench"
    }

    fn cpu_work(&self) -> Duration {
        let now = self.lane.engine.stats().sched.busy_nanos;
        Duration::from_nanos(now.saturating_sub(self.busy_before))
    }

    fn decode_stats(&self) -> DecodeStats {
        self.lane.engine.stats().decode
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_byte_and_the_length() {
        let base: Vec<u8> = (0..100u8).collect();
        let d = digest64(&base);
        assert_eq!(d, digest64(&base), "deterministic");
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 1;
            assert_ne!(digest64(&flipped), d, "byte {i}");
        }
        assert_ne!(digest64(&base[..99]), d);
        assert_ne!(digest64(&[]), digest64(&[0]));
    }

    #[test]
    fn sampling_covers_chunk_zero_and_about_one_in_sixteen_after() {
        assert!((0..2).all(|e| (0..16).all(|i| is_sampled(e, i, 2))));
        let later: usize = (2..202)
            .flat_map(|e| (0..16).map(move |i| (e, i)))
            .filter(|&(e, i)| is_sampled(e, i, 2))
            .count();
        // 3200 batches: expect 200, allow a wide band.
        assert!((120..280).contains(&later), "sampled {later} of 3200");
        // Both residues of a two-lane stride get samples.
        for offset in 0..2u64 {
            let n = (2..202)
                .flat_map(|e| (0..12).map(move |l| (e, l * 2 + offset)))
                .filter(|&(e, i)| is_sampled(e, i, 2))
                .count();
            assert!(n > 40, "lane {offset} sampled {n}");
        }
    }

    #[test]
    fn span_ids_do_not_collide_across_lanes_and_roles() {
        let mut seen = std::collections::HashSet::new();
        for lane in 0..2 {
            for role in [
                Role::Wait,
                Role::Open,
                Role::Read,
                Role::GetXattr,
                Role::Close,
                Role::Parse,
            ] {
                for b in [0, 1, 99_999] {
                    assert!(seen.insert(span_id(lane, role, b)));
                }
            }
        }
    }
}
