//! Stable storage keys for concrete objects.
//!
//! Object identity in the store must be (a) unique per distinct object,
//! (b) identical for merged objects regardless of which task asks, and
//! (c) stable across process restarts (recovery re-derives the same keys
//! from a re-planned graph). Frame keys embed the video and frame index;
//! augmented keys additionally embed a 64-bit FNV-1a digest of the
//! resolved op chain.

use sand_graph::ObjectKey;

/// FNV-1a 64-bit hash (stable across platforms and runs), fed in pieces.
struct Fnv1a(u64);

impl Fnv1a {
    const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The storage key for a concrete object.
#[must_use]
pub fn store_key(key: &ObjectKey) -> String {
    match key {
        ObjectKey::Video { video_id } => format!("v{video_id:04}/src"),
        ObjectKey::Frame { video_id, frame } => format!("v{video_id:04}/f{frame:05}"),
        ObjectKey::Aug {
            video_id,
            frame,
            chain,
        } => {
            let mut digest = Fnv1a::new();
            for (name, params) in chain {
                digest.write(name.as_bytes());
                digest.write(&[0x1f]);
                digest.write(params.as_bytes());
                digest.write(&[0x1e]);
            }
            format!("v{video_id:04}/f{frame:05}/a{:016x}", digest.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_stable_and_distinct() {
        let f = ObjectKey::Frame {
            video_id: 3,
            frame: 14,
        };
        assert_eq!(store_key(&f), "v0003/f00014");
        let a1 = ObjectKey::Aug {
            video_id: 3,
            frame: 14,
            chain: vec![("resize".into(), "16x16:bilinear".into())],
        };
        let a2 = ObjectKey::Aug {
            video_id: 3,
            frame: 14,
            chain: vec![("resize".into(), "16x16:nearest".into())],
        };
        assert_ne!(store_key(&a1), store_key(&a2));
        assert_eq!(store_key(&a1), store_key(&a1.clone()));
    }

    #[test]
    fn chain_order_matters() {
        let ab = ObjectKey::Aug {
            video_id: 0,
            frame: 0,
            chain: vec![("a".into(), "1".into()), ("b".into(), "2".into())],
        };
        let ba = ObjectKey::Aug {
            video_id: 0,
            frame: 0,
            chain: vec![("b".into(), "2".into()), ("a".into(), "1".into())],
        };
        assert_ne!(store_key(&ab), store_key(&ba));
    }

    #[test]
    fn separator_injection_resistant() {
        // ("ab", "c") must differ from ("a", "bc").
        let x = ObjectKey::Aug {
            video_id: 0,
            frame: 0,
            chain: vec![("ab".into(), "c".into())],
        };
        let y = ObjectKey::Aug {
            video_id: 0,
            frame: 0,
            chain: vec![("a".into(), "bc".into())],
        };
        assert_ne!(store_key(&x), store_key(&y));
    }
}
