//! Streaming video sources.
//!
//! The paper's configuration selects between `file` and `streaming` input
//! sources; streaming covers online-learning settings where videos arrive
//! continuously (live ingest, content platforms). This module provides a
//! [`VideoStream`]: a lazily synthesized, rate-limited source of encoded
//! videos. Training against it proceeds in *generations*: the consumer
//! snapshots the accumulated videos into a [`Dataset`] whenever enough
//! have arrived, and plans the next epochs over that snapshot.

use crate::dataset::{video_name, Dataset, DatasetSpec, VideoEntry};
use crate::encode::Encoder;
use crate::synth::VideoSynthesizer;
use crate::Result;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A rate-limited source of synthesized encoded videos.
#[derive(Debug)]
pub struct VideoStream {
    spec: DatasetSpec,
    encoder: Encoder,
    next_id: u64,
    started: Instant,
    /// Modeled arrival interval between consecutive videos.
    interval: Duration,
}

impl VideoStream {
    /// Creates a stream producing videos shaped by `spec` (its
    /// `num_videos` bounds the stream length), one every `interval`.
    pub fn new(spec: DatasetSpec, interval: Duration) -> Result<Self> {
        spec.validate()?;
        Ok(VideoStream {
            encoder: Encoder::new(spec.encoder)?,
            spec,
            next_id: 0,
            started: Instant::now(),
            interval,
        })
    }

    /// Total videos this stream will ever produce.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        (self.spec.num_videos as u64).saturating_sub(self.next_id)
    }

    /// Arrival time of the video with id `id`.
    fn arrival(&self, id: u64) -> Instant {
        self.started + self.interval * (id as u32 + 1)
    }

    /// Produces (synthesizes + encodes) the next video, unconditionally.
    fn produce(&mut self) -> Result<VideoEntry> {
        let vid = self.next_id;
        self.next_id += 1;
        let synth = VideoSynthesizer::new(self.spec.synth_spec(vid))?;
        let frames = synth.render_all()?;
        let class_id = (vid % u64::from(self.spec.num_classes)) as u32;
        let encoded = self.encoder.encode(&frames, vid, class_id)?;
        Ok(VideoEntry {
            video_id: vid,
            class_id,
            name: video_name(vid),
            encoded: Arc::new(encoded),
        })
    }

    /// Returns the next video if it has "arrived", without blocking.
    pub fn poll(&mut self) -> Result<Option<VideoEntry>> {
        if self.remaining() == 0 {
            return Ok(None);
        }
        if Instant::now() >= self.arrival(self.next_id) {
            Ok(Some(self.produce()?))
        } else {
            Ok(None)
        }
    }

    /// Blocks (sleeping the arrival gap) until the next video arrives;
    /// `None` when the stream is exhausted.
    pub fn wait_next(&mut self) -> Result<Option<VideoEntry>> {
        if self.remaining() == 0 {
            return Ok(None);
        }
        let due = self.arrival(self.next_id);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        Ok(Some(self.produce()?))
    }
}

/// Accumulates streamed videos and cuts dataset snapshots ("generations")
/// for the training engine.
#[derive(Debug, Default)]
pub struct StreamAccumulator {
    videos: Vec<VideoEntry>,
}

impl StreamAccumulator {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        StreamAccumulator::default()
    }

    /// Adds an arrived video.
    pub fn push(&mut self, video: VideoEntry) {
        self.videos.push(video);
    }

    /// Videos accumulated so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.videos.len()
    }

    /// True when nothing has arrived yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.videos.is_empty()
    }

    /// Cuts a dataset snapshot over everything accumulated so far.
    #[must_use]
    pub fn snapshot(&self) -> Dataset {
        Dataset::from_videos(self.videos.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::Decoder;

    fn spec(n: usize) -> DatasetSpec {
        DatasetSpec {
            num_videos: n,
            width: 16,
            height: 16,
            frames_per_video: 8,
            ..Default::default()
        }
    }

    #[test]
    fn stream_produces_in_order_and_ends() {
        let mut s = VideoStream::new(spec(3), Duration::ZERO).unwrap();
        let mut seen = Vec::new();
        while let Some(v) = s.wait_next().unwrap() {
            seen.push(v.video_id);
        }
        assert_eq!(seen, vec![0, 1, 2]);
        assert!(s.wait_next().unwrap().is_none());
    }

    #[test]
    fn streamed_videos_match_batch_generation() {
        // Streaming and batch generation produce identical encodings for
        // the same spec and seed.
        let sp = spec(2);
        let batch = Dataset::generate(&sp).unwrap();
        let mut s = VideoStream::new(sp, Duration::ZERO).unwrap();
        for expected in batch.videos() {
            let v = s.wait_next().unwrap().unwrap();
            assert_eq!(*v.encoded, *expected.encoded);
        }
    }

    #[test]
    fn poll_respects_arrival_times() {
        let mut s = VideoStream::new(spec(2), Duration::from_secs(3600)).unwrap();
        // Nothing has arrived yet on an hour-long interval.
        assert!(s.poll().unwrap().is_none());
        assert_eq!(s.remaining(), 2);
    }

    #[test]
    fn accumulator_snapshots_grow() {
        let mut s = VideoStream::new(spec(3), Duration::ZERO).unwrap();
        let mut acc = StreamAccumulator::new();
        acc.push(s.wait_next().unwrap().unwrap());
        let snap1 = acc.snapshot();
        assert_eq!(snap1.len(), 1);
        acc.push(s.wait_next().unwrap().unwrap());
        acc.push(s.wait_next().unwrap().unwrap());
        let snap2 = acc.snapshot();
        assert_eq!(snap2.len(), 3);
        // Snapshots decode fine.
        let mut dec = Decoder::new(&snap2.videos()[2].encoded);
        assert_eq!(dec.decode_all().unwrap().len(), 8);
    }
}
