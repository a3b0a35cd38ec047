//! Golden digest of decoded pixels over a small generated dataset.
//!
//! The end-to-end benchmark's correctness check compares the engine against
//! a reference engine that runs the same decoder, so a decoder bug that is
//! consistent everywhere is invisible to it. This test pins the decoded
//! bytes (and the work counters) to a constant instead. Recompute it with
//! `cargo test -p sand-codec --test golden_decode -- --nocapture` only when
//! the codec's output is meant to change.

#![allow(clippy::unwrap_used)]

use sand_codec::{Dataset, DatasetSpec, DecodeStats, Decoder, EncoderConfig};
use sand_frame::PixelFormat;

/// FNV-1a, 64-bit: stable across toolchains, unlike `DefaultHasher`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fold_stats(h: u64, s: &DecodeStats) -> u64 {
    [
        s.frames_decoded,
        s.p_frames_decoded,
        s.b_frames_decoded,
        s.frames_discarded,
    ]
    .iter()
    .fold(h, |h, c| fnv(h, &c.to_le_bytes()))
}

#[test]
fn decoded_pixels_match_golden_digest() {
    let spec = DatasetSpec {
        num_videos: 4,
        num_classes: 4,
        width: 64,
        height: 64,
        frames_per_video: 24,
        format: PixelFormat::Rgb8,
        encoder: EncoderConfig {
            gop_size: 8,
            quantizer: 4,
            fps_milli: 30_000,
            b_frames: 2,
        },
        noise_level: 6,
        seed: 0x5eed,
    };
    let ds = Dataset::generate(&spec).unwrap();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in ds.videos() {
        let mut all = Decoder::new(&v.encoded);
        for f in all.decode_all().unwrap() {
            h = fnv(h, f.as_bytes());
        }
        h = fold_stats(h, all.stats());
        let mut sparse = Decoder::new(&v.encoded);
        for f in sparse.decode_indices(&[17, 1, 5, 22, 9, 5]).unwrap() {
            h = fnv(fnv(h, &f.meta.index.to_le_bytes()), f.as_bytes());
        }
        h = fold_stats(h, sparse.stats());
        let mut single = Decoder::new(&v.encoded);
        for i in [3usize, 4, 10, 11, 2, 20, 23] {
            h = fnv(h, single.decode_indices(&[i]).unwrap()[0].as_bytes());
        }
        h = fold_stats(h, single.stats());
    }
    println!("golden digest: {h:#018x}");
    assert_eq!(h, GOLDEN);
}

/// The first two sections were pinned with the per-pixel residual decoder
/// this crate shipped before the one-pass kernel. The constant was last
/// recomputed, with the decoder unchanged, when the third section became
/// seven one-index `decode_indices` calls.
const GOLDEN: u64 = 0xa1e5_4688_0eb8_b0d0;
