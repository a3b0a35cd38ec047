//! Property tests for the `sand-net` wire protocol and placement ring.
//!
//! The protocol contract under test: any message round-trips through a
//! frame bit-identically; a frame truncated *anywhere* decodes to a
//! clean protocol error or clean EOF (never a torn message); any
//! single-bit flip in a framed message is rejected by the checksum
//! (never silently decoded). The ring contract: ownership is a pure
//! function of (key, node set) — independent of node order — and every
//! key has an owner on a non-empty ring.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use sand_net::wire::{read_frame, write_frame, PutObject, Request, Response};
use sand_net::{NetError, Placement};
use std::sync::Arc;

const MAX_FRAME: u32 = 64 << 20;

fn arb_put_object() -> impl Strategy<Value = PutObject> {
    (
        ".{0,64}",
        (any::<bool>(), any::<u64>()).prop_map(|(some, v)| some.then_some(v)),
        any::<u32>(),
        proptest::collection::vec(any::<u8>(), 0..1024),
    )
        .prop_map(|(key, deadline, future_uses, bytes)| PutObject {
            key,
            deadline,
            future_uses,
            bytes: Arc::new(bytes),
        })
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        ".{0,64}".prop_map(|path| Request::Open { path }),
        (any::<u64>(), any::<u64>(), any::<u32>()).prop_map(|(fd, offset, len)| Request::Read {
            fd,
            offset,
            len
        }),
        (any::<u64>(), ".{0,32}").prop_map(|(fd, name)| Request::GetXattr { fd, name }),
        any::<u64>().prop_map(|fd| Request::Close { fd }),
        proptest::collection::vec(arb_put_object(), 1..5)
            .prop_map(|objects| Request::Put { objects }),
        proptest::collection::vec(".{0,64}", 1..9).prop_map(|keys| Request::Fetch { keys }),
        ".{0,64}".prop_map(|key| Request::Stat { key }),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(fd, size)| Response::Opened { fd, size }),
        (
            proptest::collection::vec(any::<u8>(), 0..2048),
            any::<bool>()
        )
            .prop_map(|(bytes, eof)| Response::Data { bytes, eof }),
        ".{0,64}".prop_map(|value| Response::Xattr { value }),
        Just(Response::Closed),
        Just(Response::PutOk),
        proptest::collection::vec(
            (
                any::<bool>(),
                proptest::collection::vec(any::<u8>(), 0..1024)
            )
                .prop_map(|(some, bytes)| some.then_some(bytes)),
            1..9
        )
        .prop_map(|objects| Response::Found { objects }),
        (any::<bool>(), any::<u8>(), any::<u64>()).prop_map(|(present, tier, size)| {
            Response::Stat {
                present,
                tier,
                size,
            }
        }),
        (any::<u8>(), ".{0,64}").prop_map(|(code, what)| Response::Error { code, what }),
    ]
}

/// Frames `payload` into an in-memory buffer.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, payload).unwrap();
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every request variant round-trips through encode/frame/decode
    /// bit-identically, for arbitrary payloads.
    #[test]
    fn request_roundtrips(req in arb_request()) {
        let framed = frame(&req.encode().unwrap());
        let payload = read_frame(&mut framed.as_slice(), MAX_FRAME)
            .unwrap()
            .expect("one whole frame");
        prop_assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    /// Every response variant round-trips the same way.
    #[test]
    fn response_roundtrips(resp in arb_response()) {
        let framed = frame(&resp.encode().unwrap());
        let payload = read_frame(&mut framed.as_slice(), MAX_FRAME)
            .unwrap()
            .expect("one whole frame");
        prop_assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    /// A frame truncated at any byte boundary yields a clean outcome:
    /// truncation to zero bytes is a clean EOF (`Ok(None)`), anything
    /// else mid-frame is a protocol error — never a torn message.
    #[test]
    fn truncation_anywhere_is_clean(req in arb_request(), frac in 0.0f64..1.0) {
        let framed = frame(&req.encode().unwrap());
        let cut = ((framed.len() as f64) * frac) as usize;
        prop_assume!(cut < framed.len());
        match read_frame(&mut &framed[..cut], MAX_FRAME) {
            Ok(None) => prop_assert_eq!(cut, 0, "EOF is only clean at the frame boundary"),
            Ok(Some(_)) => prop_assert!(false, "torn read decoded as a whole frame"),
            Err(NetError::Protocol { .. } | NetError::Io { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
    }

    /// Flipping any single bit of a framed message is rejected — by the
    /// checksum for payload damage, by header validation for length/CRC
    /// damage — and never decodes to a different message.
    #[test]
    fn single_bit_flip_never_decodes(resp in arb_response(), pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let clean = frame(&resp.encode().unwrap());
        let mut damaged = clean.clone();
        let pos = ((damaged.len() as f64) * pos_frac) as usize % damaged.len();
        damaged[pos] ^= 1 << bit;
        match read_frame(&mut damaged.as_slice(), MAX_FRAME) {
            // A flip in the length prefix can make the frame short (a
            // read past the buffer = protocol error) — fine. What must
            // never happen is a *successful* decode of different bytes.
            Err(_) | Ok(None) => {}
            Ok(Some(payload)) => {
                prop_assert_eq!(
                    Response::decode(&payload).unwrap(),
                    resp,
                    "bit flip decoded to a different message"
                );
                // Reaching here means the flip landed in the length
                // prefix yet still framed the same payload — impossible
                // with an exact-length read.
                prop_assert!(false, "damaged frame decoded cleanly");
            }
        }
    }

    /// Ring ownership is independent of the order nodes are listed in,
    /// and total: every key has an owner on a non-empty ring.
    #[test]
    fn placement_is_order_invariant_and_total(
        mut nodes in proptest::collection::vec("[a-z]{1,8}", 1..6),
        keys in proptest::collection::vec(".{0,32}", 1..32),
        vnodes in 1usize..64,
    ) {
        let forward = Placement::new(&nodes, vnodes);
        nodes.reverse();
        let reversed = Placement::new(&nodes, vnodes);
        for key in &keys {
            let owner = forward.owner_of(key).expect("non-empty ring owns every key");
            prop_assert_eq!(reversed.owner_of(key), Some(owner));
            prop_assert!(nodes.iter().any(|n| n == owner));
        }
    }
}
