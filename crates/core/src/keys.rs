//! Stable storage keys for concrete objects.
//!
//! Object identity in the store must be (a) unique per distinct object,
//! (b) identical for merged objects regardless of which task asks, and
//! (c) stable across process restarts (recovery re-derives the same keys
//! from a re-planned graph). Frame keys embed the video and frame index;
//! augmented keys additionally embed the 64-bit FNV-1a digest of the
//! resolved op chain, which the planner derives once per node
//! ([`sand_graph::extend_chain_digest`]).

use sand_graph::ObjectKey;

/// The storage key for a concrete object: `v{video:04}/src`,
/// `v{video:04}/f{frame:05}` or `v{video:04}/f{frame:05}/a{digest:016x}`.
///
/// Written digit by digit rather than through `format!`: a chunk boundary
/// derives one key per planned node, and with `format!` the boundary
/// batches of a two-node loopback run waited measurably longer (p99 +16 %).
#[must_use]
pub fn store_key(key: &ObjectKey) -> String {
    let mut out = String::with_capacity(32);
    out.push('v');
    push_decimal(&mut out, key.video_id(), 4);
    match *key {
        ObjectKey::Video { .. } => out.push_str("/src"),
        ObjectKey::Frame { frame, .. } => {
            out.push_str("/f");
            push_decimal(&mut out, frame as u64, 5);
        }
        ObjectKey::Aug { frame, digest, .. } => {
            out.push_str("/f");
            push_decimal(&mut out, frame as u64, 5);
            out.push_str("/a");
            for shift in (0..16).rev() {
                let nibble = ((digest >> (4 * shift)) & 0xf) as u32;
                out.push(char::from_digit(nibble, 16).unwrap_or('0'));
            }
        }
    }
    out
}

/// Appends `n` in decimal, zero-padded to at least `width` digits.
fn push_decimal(out: &mut String, n: u64, width: usize) {
    let mut digits = [b'0'; 20];
    let mut start = digits.len();
    let mut rest = n;
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let start = start.min(digits.len() - width);
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sand_graph::{extend_chain_digest, EMPTY_CHAIN_DIGEST};

    /// The key of `frame` of `video_id` under the op chain `chain`.
    fn aug(video_id: u64, frame: usize, chain: &[(&str, &str)]) -> ObjectKey {
        ObjectKey::Aug {
            video_id,
            frame,
            depth: chain.len() as u32,
            digest: chain.iter().fold(EMPTY_CHAIN_DIGEST, |d, (name, params)| {
                extend_chain_digest(d, name, params)
            }),
        }
    }

    #[test]
    fn keys_are_stable_and_distinct() {
        let f = ObjectKey::Frame {
            video_id: 3,
            frame: 14,
        };
        assert_eq!(store_key(&f), "v0003/f00014");
        let a1 = aug(3, 14, &[("resize", "16x16:bilinear")]);
        let a2 = aug(3, 14, &[("resize", "16x16:nearest")]);
        // The FNV-1a chain digest, as the string-keyed planner spelled it.
        assert_eq!(store_key(&a1), "v0003/f00014/aed16257ae8b9d1e8");
        assert_ne!(store_key(&a1), store_key(&a2));
        assert_eq!(store_key(&a1), store_key(&a1.clone()));
    }

    #[test]
    fn chain_order_matters() {
        let ab = aug(0, 0, &[("a", "1"), ("b", "2")]);
        let ba = aug(0, 0, &[("b", "2"), ("a", "1")]);
        assert_ne!(store_key(&ab), store_key(&ba));
    }

    #[test]
    fn separator_injection_resistant() {
        // ("ab", "c") must differ from ("a", "bc").
        let x = aug(0, 0, &[("ab", "c")]);
        let y = aug(0, 0, &[("a", "bc")]);
        assert_ne!(store_key(&x), store_key(&y));
    }

    proptest! {
        /// The digit-by-digit writer spells every key as `format!` does.
        #[test]
        fn store_key_matches_format(
            video_id in prop_oneof![0u64..20_000, any::<u64>()],
            frame in prop_oneof![0usize..200_000, any::<usize>()],
            depth in 1u32..4,
            digest in any::<u64>(),
        ) {
            let video = ObjectKey::Video { video_id };
            prop_assert_eq!(store_key(&video), format!("v{video_id:04}/src"));
            let f = ObjectKey::Frame { video_id, frame };
            prop_assert_eq!(store_key(&f), format!("v{video_id:04}/f{frame:05}"));
            let a = ObjectKey::Aug { video_id, frame, depth, digest };
            prop_assert_eq!(
                store_key(&a),
                format!("v{video_id:04}/f{frame:05}/a{digest:016x}")
            );
        }
    }
}
