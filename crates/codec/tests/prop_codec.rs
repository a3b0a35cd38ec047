//! Property-based tests for the codec: round trips, dependency semantics,
//! and container robustness.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use sand_codec::{Dataset, DatasetSpec, Decoder, EncodedVideo, Encoder, EncoderConfig};
use sand_frame::{Frame, PixelFormat};

/// Strategy producing a small raw video (frames share one shape).
fn arb_video() -> impl Strategy<Value = Vec<Frame>> {
    (2usize..14, 4usize..14, 4usize..14).prop_flat_map(|(n, w, h)| {
        prop::collection::vec(prop::collection::vec(any::<u8>(), w * h..=w * h), n..=n).prop_map(
            move |bufs| {
                bufs.into_iter()
                    .map(|b| Frame::from_vec(w, h, PixelFormat::Gray8, b).expect("shape"))
                    .collect()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decode_error_bounded(frames in arb_video(), gop in 1usize..8, quant in 1u8..9, b in 0usize..3) {
        prop_assume!(b + 1 < gop || gop == 1);
        let b = if gop == 1 { 0 } else { b };
        let enc = Encoder::new(EncoderConfig { gop_size: gop, quantizer: quant, fps_milli: 30_000, b_frames: b }).unwrap();
        let v = enc.encode(&frames, 1, 0).unwrap();
        let mut dec = Decoder::new(&v);
        let out = dec.decode_all().unwrap();
        prop_assert_eq!(out.len(), frames.len());
        for (a, x) in frames.iter().zip(out.iter()) {
            // Dead-zone residual quantization bounds error by q - 1; intra
            // quantization by q / 2; B-frames compound one more level.
            let base = f64::from(quant.max(1) - 1).max(f64::from(quant) / 2.0);
            let worst = if b == 0 { base } else { 2.0 * f64::from(quant) };
            prop_assert!(a.mean_abs_diff(x).unwrap() <= worst + 1e-9);
        }
    }

    #[test]
    fn b_frame_random_access_equals_sequential(frames in arb_video(), quant in 1u8..5, picks in prop::collection::vec(any::<prop::sample::Index>(), 1..6)) {
        prop_assume!(frames.len() >= 4);
        let enc = Encoder::new(EncoderConfig { gop_size: 8, quantizer: quant, fps_milli: 30_000, b_frames: 2 }).unwrap();
        let v = enc.encode(&frames, 1, 0).unwrap();
        let mut dec_all = Decoder::new(&v);
        let all = dec_all.decode_all().unwrap();
        let indices: Vec<usize> = picks.iter().map(|p| p.index(frames.len())).collect();
        let mut dec = Decoder::new(&v);
        let out = dec.decode_indices(&indices).unwrap();
        for (k, &i) in indices.iter().enumerate() {
            prop_assert_eq!(out[k].as_bytes(), all[i].as_bytes());
        }
    }

    #[test]
    fn b_frame_decode_span_matches(frames in arb_video(), picks in prop::collection::vec(any::<prop::sample::Index>(), 1..6)) {
        prop_assume!(frames.len() >= 4);
        let enc = Encoder::new(EncoderConfig { gop_size: 8, quantizer: 2, fps_milli: 30_000, b_frames: 2 }).unwrap();
        let v = enc.encode(&frames, 1, 0).unwrap();
        let indices: Vec<usize> = picks.iter().map(|p| p.index(frames.len())).collect();
        let mut dec = Decoder::new(&v);
        let predicted = dec.decode_span(&indices).unwrap();
        dec.decode_indices(&indices).unwrap();
        prop_assert_eq!(predicted as u64, dec.stats().frames_decoded);
    }

    #[test]
    fn q1_is_lossless(frames in arb_video(), gop in 1usize..8) {
        let enc = Encoder::new(EncoderConfig { gop_size: gop, quantizer: 1, fps_milli: 30_000, b_frames: 0 }).unwrap();
        let v = enc.encode(&frames, 1, 0).unwrap();
        let mut dec = Decoder::new(&v);
        let out = dec.decode_all().unwrap();
        for (a, b) in frames.iter().zip(out.iter()) {
            prop_assert_eq!(a.as_bytes(), b.as_bytes());
        }
    }

    #[test]
    fn container_bytes_roundtrip(frames in arb_video(), gop in 1usize..8, quant in 1u8..9) {
        let enc = Encoder::new(EncoderConfig { gop_size: gop, quantizer: quant, fps_milli: 30_000, b_frames: 0 }).unwrap();
        let v = enc.encode(&frames, 3, 2).unwrap();
        let parsed = EncodedVideo::from_bytes(&v.to_bytes()).unwrap();
        prop_assert_eq!(parsed, v);
    }

    #[test]
    fn container_never_panics_on_corruption(frames in arb_video(), idx in any::<prop::sample::Index>(), bit in 0u8..8) {
        let enc = Encoder::new(EncoderConfig::default()).unwrap();
        let v = enc.encode(&frames, 3, 2).unwrap();
        let mut bytes = v.to_bytes();
        let i = idx.index(bytes.len());
        bytes[i] ^= 1 << bit;
        // Parsing and decoding must fail gracefully or succeed, never panic.
        if let Ok(parsed) = EncodedVideo::from_bytes(&bytes) {
            let mut dec = Decoder::new(&parsed);
            let _ = dec.decode_all();
        }
    }

    #[test]
    fn random_access_equals_sequential(frames in arb_video(), gop in 1usize..8, picks in prop::collection::vec(any::<prop::sample::Index>(), 1..6)) {
        let enc = Encoder::new(EncoderConfig { gop_size: gop, quantizer: 2, fps_milli: 30_000, b_frames: 0 }).unwrap();
        let v = enc.encode(&frames, 1, 0).unwrap();
        let mut dec_all = Decoder::new(&v);
        let all = dec_all.decode_all().unwrap();
        let indices: Vec<usize> = picks.iter().map(|p| p.index(frames.len())).collect();
        let mut dec = Decoder::new(&v);
        let out = dec.decode_indices(&indices).unwrap();
        for (k, &i) in indices.iter().enumerate() {
            prop_assert_eq!(out[k].as_bytes(), all[i].as_bytes());
        }
    }

    #[test]
    fn decode_span_matches_actual_work(frames in arb_video(), gop in 1usize..8, picks in prop::collection::vec(any::<prop::sample::Index>(), 1..6)) {
        let enc = Encoder::new(EncoderConfig { gop_size: gop, quantizer: 2, fps_milli: 30_000, b_frames: 0 }).unwrap();
        let v = enc.encode(&frames, 1, 0).unwrap();
        let indices: Vec<usize> = picks.iter().map(|p| p.index(frames.len())).collect();
        let mut dec = Decoder::new(&v);
        let predicted = dec.decode_span(&indices).unwrap();
        dec.decode_indices(&indices).unwrap();
        prop_assert_eq!(predicted as u64, dec.stats().frames_decoded);
    }

    #[test]
    fn amplification_at_least_one(frames in arb_video(), gop in 1usize..8, pick in any::<prop::sample::Index>()) {
        let enc = Encoder::new(EncoderConfig { gop_size: gop, quantizer: 2, fps_milli: 30_000, b_frames: 0 }).unwrap();
        let v = enc.encode(&frames, 1, 0).unwrap();
        let mut dec = Decoder::new(&v);
        dec.decode_indices(&[pick.index(frames.len())]).unwrap();
        prop_assert!(dec.stats().amplification() >= 1.0);
        // And bounded by the GOP size.
        prop_assert!(dec.stats().frames_decoded <= gop as u64);
    }
}

#[test]
fn dataset_generation_is_deterministic() {
    let spec = DatasetSpec {
        num_videos: 3,
        width: 16,
        height: 16,
        frames_per_video: 8,
        ..Default::default()
    };
    let a = Dataset::generate(&spec).unwrap();
    let b = Dataset::generate(&spec).unwrap();
    for (va, vb) in a.videos().iter().zip(b.videos().iter()) {
        assert_eq!(*va.encoded, *vb.encoded);
    }
}
