//! Frame-codec hardening: property tests asserting that the framing layer
//! and envelope codec treat arbitrary and adversarial bytes as clean
//! errors — never panics, never unbounded allocation, never a bogus
//! accept.

use std::io::Cursor;
use std::sync::OnceLock;

use peace_net::{build_world, WorldSpec};
use peace_net::{
    read_frame, write_frame, Bulletin, NetError, NodeMessage, DEFAULT_MAX_FRAME, FRAME_HEADER_LEN,
};
use peace_wire::{Decode, Encode};
use proptest::prelude::*;

/// A captured set of real envelopes covering every message kind that
/// carries protocol payloads (built once; group-signature setup is slow).
fn sample_envelopes() -> &'static Vec<NodeMessage> {
    static SAMPLES: OnceLock<Vec<NodeMessage>> = OnceLock::new();
    SAMPLES.get_or_init(|| {
        let mut w = build_world(&WorldSpec {
            seed: 7,
            users: 1,
            routers: 1,
        })
        .unwrap();
        let beacon = w.routers[0].beacon(10_000, &mut w.rng);
        let req = w.users[0]
            .request_access(&beacon, 10_050, &mut w.rng)
            .unwrap();
        let (confirm, _sess) = w.routers[0].process_access_request(&req, 10_100).unwrap();
        vec![
            NodeMessage::GetBulletin,
            NodeMessage::Bulletin(Bulletin {
                crl: w.no.publish_crl(10_000),
                url: w.no.publish_url(10_000),
            }),
            NodeMessage::GetBeacon,
            NodeMessage::Beacon(Box::new(beacon)),
            NodeMessage::AccessRequest(Box::new(req)),
            NodeMessage::AccessConfirm(Box::new(confirm)),
            NodeMessage::Data(vec![0xAB; 257]),
            NodeMessage::Reject {
                code: 4,
                detail: "revoked".to_owned(),
            },
            NodeMessage::Bye,
        ]
    })
}

#[test]
fn every_kind_roundtrips_through_frame_and_envelope() {
    for msg in sample_envelopes() {
        let bytes = msg.try_to_wire().unwrap();
        let mut framed = Vec::new();
        write_frame(&mut framed, &bytes, DEFAULT_MAX_FRAME).unwrap();
        let payload = read_frame(&mut Cursor::new(&framed), DEFAULT_MAX_FRAME).unwrap();
        let back = NodeMessage::from_wire(&payload).unwrap();
        assert_eq!(&back, msg, "kind {}", msg.kind_name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary garbage never panics the envelope decoder.
    #[test]
    fn garbage_never_panics_envelope_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = NodeMessage::from_wire(&bytes);
    }

    /// Arbitrary garbage never panics the frame reader, and a declared
    /// length beyond the bound is rejected *before* allocation.
    #[test]
    fn garbage_never_panics_frame_reader(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let r = read_frame(&mut Cursor::new(&bytes), 1 << 10);
        if bytes.len() >= FRAME_HEADER_LEN {
            let declared =
                u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
            if declared > 1 << 10 {
                prop_assert_eq!(
                    r,
                    Err(NetError::FrameTooLarge {
                        declared: declared as u64,
                        max: 1 << 10,
                    })
                );
            }
        } else {
            prop_assert_eq!(r, Err(NetError::Closed));
        }
    }

    /// Truncating a valid framed envelope at any cut point yields a clean
    /// error (short header or short payload), never a panic or an accept
    /// of a different message.
    #[test]
    fn truncation_at_every_cut_is_clean(salt in any::<u64>()) {
        let msgs = sample_envelopes();
        let msg = &msgs[(salt % msgs.len() as u64) as usize];
        let bytes = msg.try_to_wire().unwrap();
        let mut framed = Vec::new();
        write_frame(&mut framed, &bytes, DEFAULT_MAX_FRAME).unwrap();
        let cut = (salt >> 8) as usize % framed.len();
        let r = read_frame(&mut Cursor::new(&framed[..cut]), DEFAULT_MAX_FRAME);
        prop_assert_eq!(r, Err(NetError::Closed));
    }

    /// Flipping any single bit of a framed envelope either still decodes
    /// to the *same kind* (a flip inside an opaque field like a ciphertext
    /// body) or fails cleanly — it never panics and never changes a
    /// message into a structurally different accepted one with version
    /// intact.
    #[test]
    fn single_bit_flips_never_panic(salt in any::<u64>()) {
        let msgs = sample_envelopes();
        let msg = &msgs[(salt % msgs.len() as u64) as usize];
        let bytes = msg.try_to_wire().unwrap();
        let bit = (salt >> 8) % (bytes.len() as u64 * 8);
        let mut mutated = bytes.clone();
        mutated[(bit / 8) as usize] ^= 1 << (bit % 8);
        let _ = NodeMessage::from_wire(&mutated);

        // And through the framing layer too.
        let mut framed = Vec::new();
        write_frame(&mut framed, &mutated, DEFAULT_MAX_FRAME).unwrap();
        let payload = read_frame(&mut Cursor::new(&framed), DEFAULT_MAX_FRAME).unwrap();
        prop_assert_eq!(payload, mutated);
    }

    /// A frame whose header declares more than the size bound is rejected
    /// with the declared size reported, regardless of the actual payload.
    #[test]
    fn oversize_declared_header_rejected(declared in any::<u32>()) {
        let max = 4096usize;
        let declared = declared.saturating_add(max as u32 + 1);
        let mut framed = Vec::new();
        framed.extend_from_slice(&declared.to_be_bytes());
        framed.extend_from_slice(&[0u8; 16]);
        prop_assert_eq!(
            read_frame(&mut Cursor::new(&framed), max),
            Err(NetError::FrameTooLarge {
                declared: u64::from(declared),
                max: max as u64,
            })
        );
    }

    /// Wrong protocol versions are rejected as malformed, not accepted.
    #[test]
    fn foreign_versions_rejected(v in any::<u16>()) {
        let bytes = NodeMessage::Bye.try_to_wire().unwrap();
        let mut mutated = bytes.clone();
        // Overwrite the version field; if the sampled value happens to
        // re-encode the real VERSION the bytes are unchanged and skipped.
        mutated[4..6].copy_from_slice(&v.to_be_bytes());
        if mutated[4..6] != bytes[4..6] {
            prop_assert!(NodeMessage::from_wire(&mutated).is_err());
        }
    }
}
