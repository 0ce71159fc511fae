//! Adversarial mutation harness for the ledger's on-disk format, reusing
//! the wire-mutation operators (truncate, bit-flip, splice, excise) from
//! the protocol chaos suite.
//!
//! Properties:
//! * record encodings round-trip exactly;
//! * arbitrary garbage never panics the entry decoder or the recovery
//!   scanner;
//! * a mutated segment file either recovers to an exact prefix of the
//!   original record sequence (CRC + chain catch the damage) or refuses
//!   to open — records are never silently altered or reordered.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use peace_ledger::{
    AccessRecord, Entry, Ledger, LedgerConfig, LedgerError, LedgerRecord, SyncPolicy,
    SEGMENT_HEADER_LEN,
};
use peace_protocol::audit::LoggedSession;
use peace_protocol::entities::{NetworkOperator, Ttp, UserClient};
use peace_protocol::ids::UserId;
use peace_protocol::ProtocolConfig;
use peace_wire::{Decode, Encode};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tmpdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> LedgerConfig {
    LedgerConfig {
        sync: SyncPolicy::Always,
        ..LedgerConfig::default()
    }
}

/// A pristine single-segment ledger image holding one of every record
/// kind (a real group-signed access transcript included), plus the
/// decoded records for prefix comparison.
struct Fixture {
    image: Vec<u8>,
    originals: Vec<Entry>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn real_session() -> (LoggedSession, NetworkOperator) {
    let mut rng = StdRng::seed_from_u64(0x001E_D6E2);
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let mut ttp = Ttp::new();
    let mut gm = no.found_group("org", 2, &mut ttp, &mut rng).unwrap();
    let uid = UserId("alice".into());
    let mut alice = UserClient::new(uid, no.prepared_gpk(), *no.npk(), *no.config(), &mut rng);
    gm.enroll(&mut ttp, &mut alice).unwrap();
    let mut router = no.provision_router("MR-1", u64::MAX / 2, &mut rng);
    let beacon = router.beacon(1_000, &mut rng);
    let req = alice.request_access(&beacon, 1_050, &mut rng).unwrap();
    router.process_access_request(&req, 1_100).unwrap();
    (router.drain_log().remove(0), no)
}

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let (session, no) = real_session();
        let dir = tmpdir("mut-fixture");
        let (mut ledger, _) = Ledger::open(&dir, cfg()).unwrap();
        ledger
            .append(
                LedgerRecord::Access(AccessRecord {
                    router: "MR-1".into(),
                    session,
                }),
                1_200,
            )
            .unwrap();
        ledger
            .append(
                LedgerRecord::RouterRevocation {
                    serial: 9,
                    crl_version: 1,
                },
                1_300,
            )
            .unwrap();
        ledger
            .append(LedgerRecord::EpochRollover { epoch: 1 }, 1_400)
            .unwrap();
        ledger
            .append(
                LedgerRecord::Attribution {
                    session_seq: 0,
                    group: 0,
                    slot: 1,
                },
                1_500,
            )
            .unwrap();
        ledger.checkpoint(no.signing_key(), "NO", 1_600).unwrap();
        let originals = ledger.iter_all().unwrap();
        drop(ledger);
        let image = fs::read(dir.join(format!("seg-{:016x}.pls", 0))).unwrap();
        Fixture { image, originals }
    })
}

const OPERATORS: [&str; 4] = ["truncate", "bit-flip", "splice", "excise"];

/// Applies one mutation operator (same operators as the protocol chaos
/// suite); `None` when the result would equal the input.
fn mutate(op: &str, bytes: &[u8], salt: u64) -> Option<Vec<u8>> {
    if bytes.is_empty() {
        return None;
    }
    let len = bytes.len() as u64;
    let mut out = bytes.to_vec();
    match op {
        "truncate" => out.truncate((salt % len) as usize),
        "bit-flip" => {
            let bit = salt % (len * 8);
            out[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        "splice" => {
            let start = (salt % len) as usize;
            let run = 1 + (salt >> 17) as usize % 8;
            let mut x = salt | 1;
            for (i, slot) in out.iter_mut().skip(start).take(run).enumerate() {
                x = x.wrapping_mul(0x5DEE_CE66D).wrapping_add(11);
                *slot = (x >> 16) as u8;
                if i == 0 && *slot == bytes[start] {
                    *slot ^= 0xA5;
                }
            }
        }
        "excise" => {
            let start = (salt % len) as usize;
            let run = (1 + (salt >> 23) as usize % 16).min(out.len() - start);
            if run == 0 {
                return None;
            }
            out.drain(start..start + run);
        }
        _ => unreachable!("unknown operator {op}"),
    }
    (out != bytes).then_some(out)
}

/// Opens a ledger over `image` written as the sole segment of a fresh dir.
fn open_image(dir: &Path, image: &[u8]) -> peace_ledger::Result<(Ledger, Vec<Entry>)> {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).unwrap();
    fs::write(dir.join(format!("seg-{:016x}.pls", 0)), image).unwrap();
    let (ledger, _) = Ledger::open(dir, cfg())?;
    let entries = ledger.iter_all()?;
    Ok((ledger, entries))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Simple record kinds round-trip through the canonical encoding for
    /// arbitrary field values.
    #[test]
    fn simple_records_roundtrip(seq in any::<u64>(), at_ms in any::<u64>(),
                                a in any::<u64>(), b in any::<u64>(), c in any::<u32>()) {
        let records = [
            LedgerRecord::UserRevocation {
                token: fixture_token(),
                url_version: a,
            },
            LedgerRecord::RouterRevocation { serial: a, crl_version: b },
            LedgerRecord::EpochRollover { epoch: a },
            LedgerRecord::Attribution { session_seq: b, group: c, slot: c ^ 1 },
        ];
        for record in records {
            let e = Entry { seq, at_ms, record };
            prop_assert_eq!(Entry::from_wire(&e.to_wire()).unwrap(), e);
        }
    }

    /// The 4-operator mutation matrix against the full segment image:
    /// recovery yields an exact prefix of the original records, or the
    /// open refuses — never an altered or reordered record.
    #[test]
    fn mutated_segment_recovers_prefix_or_refuses(salt in any::<u64>()) {
        let fx = fixture();
        let dir = tmpdir("mut-matrix");
        for (oi, op) in OPERATORS.iter().enumerate() {
            let s = salt ^ ((oi as u64 + 1) << 56);
            let Some(mutated) = mutate(op, &fx.image, s) else { continue };
            match open_image(&dir, &mutated) {
                Ok((_ledger, entries)) => {
                    prop_assert!(
                        entries.len() <= fx.originals.len(),
                        "{op} salt {s:#x}: more records than written"
                    );
                    for (got, want) in entries.iter().zip(&fx.originals) {
                        prop_assert_eq!(got, want, "{} salt {:#x}: record altered", op, s);
                    }
                }
                // Header damage (or a broken chain) refuses to open: that
                // is tampering, not a crash artifact.
                Err(LedgerError::Corrupt { .. }) | Err(LedgerError::ChainBroken { .. }) => {}
                Err(e) => prop_assert!(false, "{} salt {:#x}: unexpected error {:?}", op, s, e),
            }
        }
    }

    /// Garbage never panics the entry decoder or the recovery scanner.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Entry::from_wire(&bytes);
        let dir = tmpdir("mut-garbage");
        // Any outcome is fine; it just must not panic.
        let _ = open_image(&dir, &bytes);
    }
}

/// A real revocation token for the round-trip strategy (tokens are curve
/// points; arbitrary bytes would not decode).
fn fixture_token() -> peace_groupsig::RevocationToken {
    static TOKEN: OnceLock<peace_groupsig::RevocationToken> = OnceLock::new();
    *TOKEN.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(3);
        peace_groupsig::RevocationToken(peace_curve::G1::random(&mut rng))
    })
}

/// The recovery scanner's shallow parse extracts exactly the facts the
/// full decoder derives, for every record kind (a real group-signed
/// access transcript included) — so index-only recovery can never build
/// different indexes than a deep replay would.
#[test]
fn shallow_parse_matches_full_decode() {
    let fx = fixture();
    assert!(!fx.originals.is_empty());
    for e in &fx.originals {
        let shallow = peace_ledger::ShallowEntry::parse(&e.to_wire()).unwrap();
        assert_eq!(shallow, e.to_shallow());
    }
}

/// The untouched image opens cleanly and round-trips every record.
#[test]
fn pristine_image_roundtrips() {
    let fx = fixture();
    let dir = tmpdir("mut-pristine");
    let (ledger, entries) = open_image(&dir, &fx.image).unwrap();
    assert_eq!(entries.len(), fx.originals.len());
    assert_eq!(&entries, &fx.originals);
    assert!(ledger.len() as usize == fx.originals.len());
    // Truncating below the header yields a discarded segment and a fresh
    // (empty) ledger rather than an error: nothing valid was lost.
    let (ledger, entries) = open_image(&dir, &fx.image[..SEGMENT_HEADER_LEN / 2]).unwrap();
    assert!(entries.is_empty());
    assert_eq!(ledger.head().next_seq, 0);
}
