//! The decode-once rule for the beacon's URL section: a client decodes the
//! revocation tokens when the list changes, not when a beacon arrives, and
//! never enforces — or signs against — a list one of whose tokens has not
//! passed the curve and subgroup check.
//!
//! The same rule for the operator's signatures: the certificate and CRL of
//! an accepted beacon are held, and a later beacon carrying either byte for
//! byte has only its expiry, age and serial re-checked (the last section).
//! The certificate's key travels as bytes: decompressed where the beacon
//! signature needs it, once per held certificate, and a key that names no
//! point refuses the beacon before any pairing.
//!
//! The fixture plays the operator itself (its own ECDSA key behind `npk`),
//! so it can sign lists the real `NetworkOperator` would never publish.

use peace_curve::{AffinePoint, G1};
use peace_ecdsa::{Certificate, SigningKey};
use peace_groupsig::{IssuerKey, MemberKey, OpSnapshot, RevocationToken};
use peace_protocol::entities::{GmAssignment, TtpDelivery, UserClient};
use peace_protocol::ids::{GroupId, UserId};
use peace_protocol::setup::blind_a;
use peace_protocol::{
    Beacon, ProtocolConfig, ProtocolError, ShareIndex, SignedCrl, SignedUrl, UrlSection,
};
use peace_wire::{Decode, Encode, WireError, Writer};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct World {
    operator: SigningKey,
    router: SigningKey,
    cert: Certificate,
    issuer: IssuerKey,
    grp: peace_groupsig::GroupSecret,
    config: ProtocolConfig,
    next_slot: u32,
    rng: StdRng,
}

impl World {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let operator = SigningKey::random(&mut rng);
        let router = SigningKey::random(&mut rng);
        let cert = Certificate::issue(&operator, 7, "MR-1", *router.verifying_key(), u64::MAX);
        let issuer = IssuerKey::generate(&mut rng);
        let grp = issuer.new_group_secret(&mut rng);
        Self {
            operator,
            router,
            cert,
            issuer,
            grp,
            config: ProtocolConfig::default(),
            next_slot: 0,
            rng,
        }
    }

    /// A fresh member key and a client enrolled with it.
    fn user(&mut self, name: &str) -> (UserClient, MemberKey) {
        let key = self.issuer.issue(&self.grp, &mut self.rng);
        let index = ShareIndex {
            group: GroupId(1),
            slot: self.next_slot,
        };
        self.next_slot += 1;
        let mut user = UserClient::new(
            UserId(name.to_owned()),
            *self.issuer.public_key(),
            *self.operator.verifying_key(),
            self.config,
            &mut self.rng,
        );
        user.enroll(
            &GmAssignment {
                index,
                grp: key.grp,
                x: key.x,
            },
            &TtpDelivery {
                index,
                blinded_a: blind_a(&key.a, &key.x),
            },
        )
        .unwrap();
        (user, key)
    }

    fn tokens(&mut self, n: usize) -> Vec<RevocationToken> {
        (0..n)
            .map(|_| {
                self.issuer
                    .issue(&self.grp, &mut self.rng)
                    .revocation_token()
            })
            .collect()
    }

    fn url(&self, version: u64, now: u64, tokens: Vec<RevocationToken>) -> UrlSection {
        UrlSection::from(&SignedUrl::issue(&self.operator, version, now, tokens))
    }

    /// An operator-signed URL section over arbitrary token bytes, built on
    /// the wire: `version ‖ issued_at ‖ count ‖ tokens ‖ signature`, signed
    /// behind the `peace-url-v1` label.
    fn url_of_bytes(&self, version: u64, now: u64, token_bytes: &[u8]) -> UrlSection {
        let mut body = Writer::new();
        body.put_u64(version);
        body.put_u64(now);
        body.put_len(token_bytes.len() / G1::ENCODED_LEN);
        body.put_fixed(token_bytes);
        let mut tbs = Writer::new();
        tbs.put_str("peace-url-v1");
        tbs.put_fixed(body.as_bytes());
        self.operator.sign(tbs.as_bytes()).encode(&mut body);
        UrlSection::from_wire(body.as_bytes()).unwrap()
    }

    fn beacon(&mut self, now: u64, url: UrlSection) -> Beacon {
        let g = G1::random(&mut self.rng);
        let g_rr = G1::random(&mut self.rng);
        Beacon {
            g: g.into(),
            g_rr: g_rr.into(),
            ts1: now,
            sig: self.router.sign(&Beacon::signed_payload(&g, &g_rr, now)),
            cert: self.cert.clone(),
            crl: SignedCrl::issue(&self.operator, 0, now, vec![]),
            url,
            puzzle: None,
        }
    }
}

/// Compressed encodings the token decoder must refuse, by reason.
fn bad_tokens() -> Vec<(&'static str, Vec<u8>)> {
    let encode = |x: u64| {
        let mut bytes = vec![0u8; G1::ENCODED_LEN];
        bytes[0] = 2;
        bytes[G1::ENCODED_LEN - 8..].copy_from_slice(&x.to_be_bytes());
        bytes
    };
    let off_curve = (1..)
        .map(encode)
        .find(|b| AffinePoint::from_compressed(b).is_none())
        .unwrap();
    let out_of_subgroup = (1..)
        .map(encode)
        .find(|b| AffinePoint::from_compressed(b).is_some_and(|p| !p.is_in_subgroup()))
        .unwrap();
    let mut x_not_reduced = vec![0xFF; G1::ENCODED_LEN];
    x_not_reduced[0] = 2;
    let mut bad_tag = G1::generator().to_bytes();
    bad_tag[0] = 7;
    vec![
        ("x not reduced", x_not_reduced),
        ("unknown tag", bad_tag),
        ("off curve", off_curve),
        ("out of subgroup", out_of_subgroup),
    ]
}

#[test]
fn a_list_with_a_bad_token_is_refused_whole() {
    let mut w = World::new(1);
    let (mut alice, _) = w.user("alice");
    let good = w.tokens(2);
    let beacon = w.beacon(1_000, w.url(1, 1_000, good.clone()));
    alice.request_access(&beacon, 1_000, &mut w.rng).unwrap();
    let pending = alice.pending_handshakes();
    let counts = alice.url_decode_counts();

    for (why, bad) in bad_tokens() {
        // Operator-signed, newer, and the bad token sits behind a good one.
        let mut bytes = good[0].to_bytes();
        bytes.extend_from_slice(&bad);
        let beacon = w.beacon(1_100, w.url_of_bytes(2, 1_100, &bytes));
        // The bytes survive the wire: nothing is decoded in transit.
        let beacon = Beacon::from_wire(&beacon.to_wire()).unwrap();
        let err = alice
            .request_access(&beacon, 1_100, &mut w.rng)
            .expect_err(why);
        assert!(matches!(err, ProtocolError::Wire(_)), "{why}: {err:?}");
        assert_eq!(err.code(), "wire", "{why}");
        // No signature came out, no handshake is pending, nothing was
        // adopted, and the half-decoded list was not counted.
        assert_eq!(alice.pending_handshakes(), pending, "{why}");
        assert_eq!(alice.list_versions(), (0, 1), "{why}");
        assert_eq!(alice.current_url().unwrap().tokens, good, "{why}");
        assert_eq!(alice.url_decode_counts(), counts, "{why}");
    }
}

#[test]
fn tampered_tokens_at_an_unchanged_version_fail_the_signature() {
    let mut w = World::new(2);
    let (mut alice, _) = w.user("alice");
    let tokens = w.tokens(3);
    let beacon = w.beacon(1_000, w.url(4, 1_000, tokens.clone()));
    alice.request_access(&beacon, 1_000, &mut w.rng).unwrap();

    // Same version, same stamp, same signature; one token swapped for
    // another perfectly valid one.
    let mut wire = beacon.url.to_wire();
    let other = w.tokens(1)[0].to_bytes();
    let first_token = 8 + 8 + 4;
    wire[first_token..first_token + other.len()].copy_from_slice(&other);
    let tampered = w.beacon(1_050, UrlSection::from_wire(&wire).unwrap());
    assert_eq!(
        alice.request_access(&tampered, 1_050, &mut w.rng),
        Err(ProtocolError::BadUrlSignature)
    );
    assert_eq!(alice.current_url().unwrap().tokens, tokens);
    // The held list is still the one a byte-identical section reuses.
    let again = w.beacon(1_060, beacon.url.clone());
    alice.request_access(&again, 1_060, &mut w.rng).unwrap();
    assert_eq!(alice.url_decode_counts(), (3, 1));
}

#[test]
fn an_unchanged_list_is_decoded_once() {
    let mut w = World::new(3);
    let (mut alice, _) = w.user("alice");
    let tokens = w.tokens(5);
    let url = w.url(1, 1_000, tokens);
    for (i, now) in [1_000u64, 1_200, 1_400].into_iter().enumerate() {
        // A fresh beacon each time (new DH share, new router signature)
        // around the same operator-signed list.
        let beacon = Beacon::from_wire(&w.beacon(now, url.clone()).to_wire()).unwrap();
        alice.request_access(&beacon, now, &mut w.rng).unwrap();
        assert_eq!(alice.url_decode_counts(), (5, i as u64));
    }
    // Reuse skips the decode, not the freshness bound.
    let late = 1_000 + w.config.list_max_age + 1;
    let beacon = w.beacon(late, url);
    assert_eq!(
        alice.request_access(&beacon, late, &mut w.rng),
        Err(ProtocolError::StaleUrl)
    );
}

#[test]
fn a_list_adopted_from_the_bulletin_is_reused_by_beacons() {
    let mut w = World::new(4);
    let (mut alice, _) = w.user("alice");
    let tokens = w.tokens(4);
    let url = SignedUrl::issue(&w.operator, 2, 1_000, tokens);
    let crl = SignedCrl::issue(&w.operator, 0, 1_000, vec![]);
    alice.adopt_lists(&crl, &url, 1_000).unwrap();
    let beacon = w.beacon(1_100, UrlSection::from(&url));
    alice.request_access(&beacon, 1_100, &mut w.rng).unwrap();
    assert_eq!(alice.url_decode_counts(), (0, 1));
}

#[test]
fn a_version_bump_replaces_the_list_and_is_enforced_on_peers() {
    let mut w = World::new(5);
    let (mut alice, _) = w.user("alice");
    let (mut mallory, mallory_key) = w.user("mallory");
    let mut tokens = w.tokens(2);
    let v1 = w.beacon(1_000, w.url(1, 1_000, tokens.clone()));
    alice.request_access(&v1, 1_000, &mut w.rng).unwrap();

    // Not yet revoked: mallory's hello is accepted.
    let hello = mallory
        .start_peer_handshake(&v1.g, 1_010, &mut w.rng)
        .unwrap();
    assert!(alice.handle_peer_hello(&hello, 1_010, &mut w.rng).is_ok());

    // The operator adds one token; the next beacon carries version 2.
    tokens.push(mallory_key.revocation_token());
    let v2 = w.beacon(1_100, w.url(2, 1_100, tokens.clone()));
    alice.request_access(&v2, 1_100, &mut w.rng).unwrap();
    assert_eq!(alice.list_versions(), (0, 2));
    assert_eq!(alice.current_url().unwrap().tokens, tokens);
    assert_eq!(alice.url_decode_counts(), (2 + 3, 0));
    let hello = mallory
        .start_peer_handshake(&v2.g, 1_110, &mut w.rng)
        .unwrap();
    assert_eq!(
        alice
            .handle_peer_hello(&hello, 1_110, &mut w.rng)
            .unwrap_err(),
        ProtocolError::SignerRevoked
    );

    // A rollback to the (validly signed, still fresh) older list is
    // refused, and the newer list stays in force.
    let old = w.beacon(1_200, v1.url.clone());
    assert_eq!(
        alice.request_access(&old, 1_200, &mut w.rng),
        Err(ProtocolError::StaleUrl)
    );
    assert_eq!(alice.current_url().unwrap().tokens, tokens);
    assert_eq!(
        alice
            .handle_peer_hello(&hello, 1_210, &mut w.rng)
            .unwrap_err(),
        ProtocolError::SignerRevoked
    );
}

#[test]
fn a_restamp_of_the_held_tokens_is_checked_but_not_decoded_again() {
    let mut w = World::new(6);
    let (mut alice, _) = w.user("alice");
    let tokens = w.tokens(5);
    let beacon = w.beacon(1_000, w.url(3, 1_000, tokens.clone()));
    alice.request_access(&beacon, 1_000, &mut w.rng).unwrap();
    assert_eq!(alice.url_decode_counts(), (5, 0));

    // The operator re-signs the same list later (new `issued_at`, new
    // signature; the version may or may not move). The signature is
    // checked, the stamp and version are adopted, no token is decoded.
    let late = 1_000 + w.config.list_max_age;
    for (i, (version, stamp)) in [(3, late), (4, late + 10)].into_iter().enumerate() {
        let restamp = w.url(version, stamp, tokens.clone());
        assert_ne!(restamp, beacon.url);
        let now = stamp + 1;
        let fresh = Beacon::from_wire(&w.beacon(now, restamp).to_wire()).unwrap();
        alice.request_access(&fresh, now, &mut w.rng).unwrap();
        assert_eq!(alice.url_decode_counts(), (5, 1 + i as u64));
        assert_eq!(alice.list_versions(), (0, version));
        let held = alice.current_url().unwrap();
        assert_eq!((held.version, held.issued_at), (version, stamp));
        assert_eq!(held.tokens, tokens);
    }
    // The first stamp has expired by now; the restamp is what keeps the
    // list usable.
    let stale = w.beacon(late + 11, beacon.url.clone());
    assert_eq!(
        alice.request_access(&stale, late + 11, &mut w.rng),
        Err(ProtocolError::StaleUrl)
    );

    // A restamp nobody signed is still refused on its signature, with the
    // held list untouched.
    let mut wire = w.url(5, late + 20, tokens.clone()).to_wire();
    let last = wire.len() - 1;
    wire[last] ^= 1;
    let forged = w.beacon(late + 21, UrlSection::from_wire(&wire).unwrap());
    assert_eq!(
        alice.request_access(&forged, late + 21, &mut w.rng),
        Err(ProtocolError::BadUrlSignature)
    );
    assert_eq!(alice.list_versions(), (0, 4));
    assert_eq!(alice.url_decode_counts(), (5, 2));
}

#[test]
fn a_restamp_with_one_changed_token_byte_is_decoded_and_refused_whole() {
    let mut w = World::new(7);
    let (mut alice, _) = w.user("alice");
    let tokens = w.tokens(3);
    let beacon = w.beacon(1_000, w.url(1, 1_000, tokens.clone()));
    alice.request_access(&beacon, 1_000, &mut w.rng).unwrap();
    let pending = alice.pending_handshakes();

    // Operator-signed, newer, and identical but for one byte of the last
    // token — which no longer names a group element (flipping a bit of x
    // lands in the order-q subgroup with negligible probability).
    let mut bytes: Vec<u8> = tokens.iter().flat_map(RevocationToken::to_bytes).collect();
    let last = bytes.len() - 1;
    bytes[last] ^= 1;
    assert!(RevocationToken::from_bytes(&bytes[2 * G1::ENCODED_LEN..]).is_none());
    let beacon = w.beacon(1_100, w.url_of_bytes(2, 1_100, &bytes));
    let err = alice
        .request_access(&beacon, 1_100, &mut w.rng)
        .unwrap_err();
    assert!(matches!(err, ProtocolError::Wire(_)), "{err:?}");
    assert_eq!(alice.pending_handshakes(), pending);
    assert_eq!(alice.list_versions(), (0, 1));
    assert_eq!(alice.current_url().unwrap().tokens, tokens);
    assert_eq!(alice.url_decode_counts(), (3, 0));
}

// ---------------------------------------------------------------------
// Verified once is verified: the certificate and the CRL. What a beacon
// cost is read off the 𝔾₁ multiplications its ECDSA verifications perform.
// ---------------------------------------------------------------------

/// One signature byte flipped, on the wire.
fn flip_signature<M: Encode + Decode>(msg: &M) -> M {
    let mut wire = msg.to_wire();
    let last = wire.len() - 1;
    wire[last] ^= 1;
    M::from_wire(&wire).unwrap()
}

/// 𝔾₁ multiplications `alice` spends accepting `beacon` off the wire.
fn muls_to_accept(alice: &mut UserClient, beacon: &Beacon, w: &mut World) -> u64 {
    let beacon = Beacon::from_wire(&beacon.to_wire()).unwrap();
    let scope = OpSnapshot::scope();
    alice
        .request_access(&beacon, beacon.ts1, &mut w.rng)
        .unwrap();
    scope.counts().g1_muls
}

#[test]
fn a_second_beacon_from_the_same_router_skips_the_operator_signatures() {
    let mut w = World::new(8);
    let (mut alice, _) = w.user("alice");
    let per_verify = {
        let sig = w.operator.sign(b"m");
        let scope = OpSnapshot::scope();
        assert!(w.operator.verifying_key().verify(b"m", &sig));
        scope.counts().g1_muls
    };
    assert!(per_verify > 0);

    // First contact: certificate, CRL, URL and the beacon itself, and the
    // subgroup check of the certificate's key.
    let first = w.beacon(1_000, w.url(1, 1_000, vec![]));
    let rest = muls_to_accept(&mut alice, &first, &mut w) - 4 * per_verify - 1;
    // 6 to sign, g^{r_j}, the session key, and off the wire a subgroup
    // check for each of g and g^{r_R}.
    assert_eq!(rest, 6 + 2 + 2);

    // The same router again, same lists: only the beacon's own signature,
    // under the held certificate's key.
    let mut second = w.beacon(1_100, first.url.clone());
    second.crl = first.crl.clone();
    assert_eq!(
        muls_to_accept(&mut alice, &second, &mut w),
        rest + per_verify
    );

    // A re-issued CRL is verified in full, and then held in turn.
    let reissued = w.beacon(1_200, first.url.clone());
    assert_ne!(reissued.crl, first.crl);
    assert_eq!(
        muls_to_accept(&mut alice, &reissued, &mut w),
        rest + 2 * per_verify
    );
    let mut again = w.beacon(1_300, first.url.clone());
    again.crl = reissued.crl.clone();
    assert_eq!(
        muls_to_accept(&mut alice, &again, &mut w),
        rest + per_verify
    );

    // A different router under the same lists: its certificate and key.
    let other = SigningKey::random(&mut w.rng);
    w.cert = Certificate::issue(&w.operator, 8, "MR-2", *other.verifying_key(), u64::MAX);
    w.router = other;
    let mut elsewhere = w.beacon(1_400, first.url.clone());
    elsewhere.crl = reissued.crl.clone();
    assert_eq!(
        muls_to_accept(&mut alice, &elsewhere, &mut w),
        rest + 1 + 2 * per_verify
    );
}

#[test]
fn a_held_certificate_or_crl_is_still_checked_against_the_clock_and_the_bytes() {
    let mut w = World::new(9);
    let (mut alice, _) = w.user("alice");
    let max_age = w.config.list_max_age;
    let expires = 1_000 + 2 * max_age;
    w.cert = Certificate::issue(&w.operator, 7, "MR-1", *w.router.verifying_key(), expires);
    let per_verify = {
        let scope = OpSnapshot::scope();
        w.cert.validate(w.operator.verifying_key(), 0).unwrap();
        scope.counts().g1_muls
    };
    let url = |w: &World, now| w.url(1, now, vec![]);
    let first = w.beacon(1_000, url(&w, 1_000));
    let full = muls_to_accept(&mut alice, &first, &mut w);
    // What `first` left held is what a repeat of it is checked against:
    // three operator signatures and the certificate key's subgroup check
    // fewer.
    let still_held = |alice: &mut UserClient, w: &mut World, now| {
        let mut repeat = w.beacon(now, first.url.clone());
        repeat.crl = first.crl.clone();
        assert_eq!(
            muls_to_accept(alice, &repeat, w),
            full - 3 * per_verify - 1,
            "at {now}"
        );
    };
    still_held(&mut alice, &mut w, 1_010);

    // One signature byte off: the full path, which refuses it.
    let mut forged = w.beacon(1_020, first.url.clone());
    forged.crl = first.crl.clone();
    forged.cert = flip_signature(&first.cert);
    assert_eq!(
        alice.request_access(&forged, 1_020, &mut w.rng),
        Err(ProtocolError::CertificateInvalid)
    );
    still_held(&mut alice, &mut w, 1_021);
    let mut forged = w.beacon(1_030, first.url.clone());
    forged.crl = flip_signature(&first.crl);
    assert_eq!(
        alice.request_access(&forged, 1_030, &mut w.rng),
        Err(ProtocolError::BadCrlSignature)
    );
    still_held(&mut alice, &mut w, 1_031);

    // A beacon refused after its certificate and CRL passed leaves nothing
    // behind: the next router's certificate is verified when it is accepted.
    let (mr1, mr1_cert) = (w.router.clone(), w.cert.clone());
    w.router = SigningKey::random(&mut w.rng);
    w.cert = Certificate::issue(&w.operator, 8, "MR-2", *w.router.verifying_key(), expires);
    let mut unsigned = w.beacon(1_040, first.url.clone());
    unsigned.crl = first.crl.clone();
    unsigned.sig = flip_signature(&unsigned.sig);
    assert_eq!(
        alice.request_access(&unsigned, 1_040, &mut w.rng),
        Err(ProtocolError::BadRouterSignature)
    );
    (w.router, w.cert) = (mr1, mr1_cert);
    still_held(&mut alice, &mut w, 1_041);

    // The held CRL ages out like any other...
    let late = 1_000 + max_age + 1;
    let mut aged = w.beacon(late, url(&w, late));
    aged.crl = first.crl.clone();
    assert_eq!(
        alice.request_access(&aged, late, &mut w.rng),
        Err(ProtocolError::StaleCrl)
    );
    // ...a serial that a newer CRL lists is refused under the held
    // certificate...
    let mut revoked = w.beacon(late, url(&w, late));
    revoked.crl = SignedCrl::issue(&w.operator, 1, late, vec![7]);
    assert_eq!(
        alice.request_access(&revoked, late, &mut w.rng),
        Err(ProtocolError::CertificateRevoked)
    );
    // ...and the held certificate expires on time.
    let fresh = w.beacon(expires, url(&w, expires));
    alice.request_access(&fresh, expires, &mut w.rng).unwrap();
    let expired = w.beacon(expires + 1, url(&w, expires + 1));
    assert_eq!(expired.cert, first.cert);
    assert_eq!(
        alice.request_access(&expired, expires + 1, &mut w.rng),
        Err(ProtocolError::CertificateInvalid)
    );
}

/// An operator-signed certificate over arbitrary key bytes, on the wire:
/// `serial ‖ subject ‖ key ‖ expiry ‖ signature`, signed behind the
/// `peace-cert-v1` label.
fn cert_of_key_bytes(operator: &SigningKey, serial: u64, key: &[u8]) -> Vec<u8> {
    let mut body = Writer::new();
    body.put_u64(serial);
    body.put_str("MR-bad");
    body.put_fixed(key);
    body.put_u64(u64::MAX);
    let mut tbs = Writer::new();
    tbs.put_str("peace-cert-v1");
    tbs.put_fixed(body.as_bytes());
    operator.sign(tbs.as_bytes()).encode(&mut body);
    body.into_bytes()
}

#[test]
fn a_certificate_key_that_names_no_point_refuses_the_beacon() {
    let mut w = World::new(10);
    let (mut alice, _) = w.user("alice");
    let per_verify = {
        let scope = OpSnapshot::scope();
        w.cert.validate(w.operator.verifying_key(), 0).unwrap();
        scope.counts().g1_muls
    };
    let first = w.beacon(1_000, w.url(1, 1_000, vec![]));
    let full = muls_to_accept(&mut alice, &first, &mut w);
    let pending = alice.pending_handshakes();
    let good_cert = w.cert.clone();

    let mut bad_keys = bad_tokens();
    bad_keys.push(("the identity", vec![0u8; G1::ENCODED_LEN]));
    for (why, key) in bad_keys {
        // The operator certified exactly these bytes, and the beacon
        // carries a newer CRL and URL that acceptance would adopt.
        let err = match Certificate::from_wire(&cert_of_key_bytes(&w.operator, 9, &key)) {
            // Not the canonical form of a point: the decoder refuses it.
            Err(e) => ProtocolError::from(e),
            // Canonical: refused where the key is first needed — after the
            // operator's signatures, before the beacon's and any pairing.
            Ok(cert) => {
                w.cert = cert;
                let mut beacon = w.beacon(1_100, w.url(2, 1_100, vec![]));
                beacon.crl = SignedCrl::issue(&w.operator, 1, 1_100, vec![]);
                let beacon = Beacon::from_wire(&beacon.to_wire()).unwrap();
                let scope = OpSnapshot::scope();
                let err = alice
                    .request_access(&beacon, 1_100, &mut w.rng)
                    .expect_err(why);
                let cost = scope.counts();
                assert_eq!(
                    (
                        cost.pairings,
                        cost.miller_loops,
                        cost.final_exps,
                        cost.gt_exps
                    ),
                    (0, 0, 0, 0),
                    "{why}"
                );
                err
            }
        };
        assert_eq!(
            err,
            ProtocolError::Wire(WireError::Invalid("ecdsa public key")),
            "{why}"
        );
        assert_eq!(err.code(), "wire", "{why}");
        assert_eq!(alice.pending_handshakes(), pending, "{why}");
        assert_eq!(alice.list_versions(), (0, 1), "{why}");
    }
    // Nothing was adopted: the first beacon's certificate is still held,
    // and a repeat of it is checked against it.
    w.cert = good_cert;
    let mut repeat = w.beacon(1_200, first.url.clone());
    repeat.crl = first.crl.clone();
    assert_eq!(
        muls_to_accept(&mut alice, &repeat, &mut w),
        full - 3 * per_verify - 1
    );
}
