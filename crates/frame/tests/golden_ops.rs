//! Golden digest of augmented pixels over generated frames.
//!
//! The end-to-end benchmark's correctness check compares the engine against
//! a reference loader that runs the same ops, so an op bug that is
//! consistent everywhere is invisible to it. This test pins the bytes of
//! resize (bilinear and nearest; down, up, identity), crop, both flips and a
//! resize → crop → flip chain to a constant instead. Recompute it with
//! `cargo test -p sand-frame --test golden_ops -- --nocapture` only when an
//! op's output is meant to change.

#![allow(clippy::unwrap_used)]

use sand_frame::ops::{apply_chain, Crop, Flip, FlipAxis, FrameOp, Interpolation, Resize};
use sand_frame::{Frame, PixelFormat};

/// FNV-1a, 64-bit: stable across toolchains, unlike `DefaultHasher`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A smooth gradient with xorshift noise on top, so every interpolation
/// weight and both rounding directions occur.
fn generated(w: usize, h: usize, format: PixelFormat, seed: u64) -> Frame {
    let c = format.channels();
    let mut s = seed | 1;
    let mut data = Vec::with_capacity(w * h * c);
    for y in 0..h {
        for x in 0..w {
            for ch in 0..c {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let base = (x * 255 / w.max(2) + y * 97 / h.max(2) + ch * 40) as u64;
                data.push(((base + (s >> 59)) % 256) as u8);
            }
        }
    }
    Frame::from_vec(w, h, format, data).unwrap()
}

#[test]
fn augmented_pixels_match_golden_digest() {
    let mut frames = Vec::new();
    for (i, format) in [PixelFormat::Gray8, PixelFormat::Rgb8]
        .into_iter()
        .enumerate()
    {
        frames.push(generated(128, 128, format, 7 + i as u64));
        frames.push(generated(96, 72, format, 41 + i as u64));
        frames.push(generated(33, 17, format, 5 + i as u64));
        frames.push(Frame::from_vec(9, 5, format, vec![255; 45 * format.channels()]).unwrap());
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &frames {
        let (w, ht) = (f.width(), f.height());
        let mut ops: Vec<Box<dyn FrameOp>> = Vec::new();
        for interp in [Interpolation::Bilinear, Interpolation::Nearest] {
            for (ow, oh) in [
                (48, 48),
                (w / 2, ht / 2 + 1),
                (w, ht),
                (w * 2 + 1, ht + 3),
                (1, 1),
            ] {
                ops.push(Box::new(Resize::new(ow.max(1), oh.max(1), interp).unwrap()));
            }
        }
        ops.push(Box::new(
            Crop::centered(w, ht, w / 2 + 1, ht / 2 + 1).unwrap(),
        ));
        ops.push(Box::new(Crop::new(1, 0, w - 1, ht).unwrap()));
        ops.push(Box::new(Flip::new(FlipAxis::Horizontal)));
        ops.push(Box::new(Flip::new(FlipAxis::Vertical)));
        for op in &ops {
            let out = op.apply(f).unwrap();
            h = fnv(h, op.params().as_bytes());
            h = fnv(h, &(out.width() as u64).to_le_bytes());
            h = fnv(h, &(out.height() as u64).to_le_bytes());
            h = fnv(h, out.as_bytes());
        }
        let chain: Vec<Box<dyn FrameOp>> = vec![
            Box::new(Resize::new(48, 40, Interpolation::Bilinear).unwrap()),
            Box::new(Crop::new(3, 2, 40, 36).unwrap()),
            Box::new(Flip::new(FlipAxis::Horizontal)),
        ];
        h = fnv(h, apply_chain(f, &chain).unwrap().as_bytes());
    }
    println!("golden digest: {h:#018x}");
    assert_eq!(h, GOLDEN);
}

/// Computed with the per-pixel bilinear kernel and the per-pixel
/// horizontal flip this crate shipped before the row-pass kernels: this
/// file copied into a checkout of commit 53191be, then
/// `cargo test -p sand-frame --test golden_ops -- --nocapture`.
const GOLDEN: u64 = 0x5340_0405_d76d_208a;
