//! The one rule every holder of a revocation list installs by
//! (`revocation::admit`), tabled. A router (`update_lists`, the delta
//! refresh) and a client (`adopt_lists`, a beacon) holding version 1 of
//! both lists are offered lists at an older version, at the same version,
//! at a newer one, and at a newer one issued for another epoch's key. Each
//! offer gets one verdict on all four paths, every refusal is coded, and a
//! refusal leaves the held lists exactly as they were.

use peace_groupsig::{GroupPublicKey, IssuerKey, RevocationToken};
use peace_protocol::entities::*;
use peace_protocol::ids::UserId;
use peace_protocol::{
    Beacon, ProtocolConfig, ProtocolError, SignedCrl, SignedUrl, UrlRestamp, UrlSection,
};
use peace_revoke::UrlDelta;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Issue time of every offered list; holders judge them at `NOW`.
const T: u64 = 10_000;
const NOW: u64 = T + 50;

/// Lists as the operator publishes them at one version, for holders of
/// `gpk`, with the re-stamp and the delta from version 1 that a delta
/// refresh carries to the same URL.
struct Offer {
    name: &'static str,
    crl: SignedCrl,
    url: SignedUrl,
    delta: UrlDelta,
    restamp: UrlRestamp,
}

struct World {
    no: NetworkOperator,
    gm: GroupManager,
    ttp: Ttp,
    rng: StdRng,
    users: u32,
}

impl World {
    fn user(&mut self) -> UserClient {
        let uid = UserId(format!("user-{}", self.users));
        self.users += 1;
        let mut user = UserClient::new(
            uid,
            self.no.prepared_gpk(),
            *self.no.npk(),
            *self.no.config(),
            &mut self.rng,
        );
        self.gm.enroll(&mut self.ttp, &mut user).unwrap();
        user
    }

    /// The operator's lists now, issued at `T`, as an offer to a holder of
    /// version 1 (whose URL lists `held`), signed for holders of `gpk`.
    fn offer(&self, name: &'static str, gpk: &GroupPublicKey, held: &[RevocationToken]) -> Offer {
        let published = self.no.publish_url(T);
        let (version, tokens) = (published.version, published.tokens);
        let key = self.no.signing_key();
        Offer {
            name,
            crl: self.no.publish_crl(T),
            url: SignedUrl::issue(key, gpk, version, T, tokens.clone()),
            delta: UrlDelta {
                epoch: 0,
                from_version: 1,
                to_version: version,
                added: tokens
                    .iter()
                    .filter(|t| !held.contains(t))
                    .copied()
                    .collect(),
                removed: held
                    .iter()
                    .filter(|t| !tokens.contains(t))
                    .copied()
                    .collect(),
            },
            restamp: UrlRestamp::issue(key, gpk, version, T, &tokens),
        }
    }
}

/// What a router holds: the lists a freshly minted beacon carries, the
/// enforced list's digest, and the beacon it broadcasts.
fn router_state(router: &mut MeshRouter, rng: &mut StdRng) -> (Beacon, [u8; 32], Beacon) {
    let held = router.current_beacon(NOW, rng);
    let minted = router.beacon(NOW, rng);
    (minted, router.revocation().digest(), held)
}

#[test]
fn every_holder_gives_each_offer_the_same_verdict() {
    let mut rng = StdRng::seed_from_u64(0x11E5);
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let mut ttp = Ttp::new();
    let gm = no.found_group("org", 10, &mut ttp, &mut rng).unwrap();
    let mut w = World {
        no,
        gm,
        ttp,
        rng,
        users: 0,
    };
    let other_epoch = *IssuerKey::generate(&mut w.rng).public_key();
    let gpk = *w.no.gpk();
    let mut tokens = (0..2).map(|_| w.user().active_credential().unwrap().key.revocation_token());
    let (first, second) = (tokens.next().unwrap(), tokens.next().unwrap());

    // Version 0, then version 1 of both lists: what every holder holds.
    let older = w.offer("older", &gpk, &[]);
    assert!(w.no.revoke_member(&first));
    w.no.revoke_router(0xBAD);
    let held = w.offer("held", &gpk, &[first]);
    let same = w.offer("same", &gpk, &[first]);
    let mut routers: Vec<MeshRouter> = (0..8)
        .map(|k| {
            w.no.provision_router(&format!("MR-{k}"), u64::MAX / 2, &mut w.rng)
        })
        .collect();
    let mut users: Vec<UserClient> = (0..8).map(|_| w.user()).collect();
    for r in &mut routers {
        r.update_lists(held.crl.clone(), held.url.clone()).unwrap();
    }
    for u in &mut users {
        u.adopt_lists(&held.crl, &held.url, NOW).unwrap();
    }
    // Version 2.
    assert!(w.no.revoke_member(&second));
    w.no.revoke_router(0xBEEF);
    let newer = w.offer("newer", &gpk, &[first]);
    let foreign = w.offer("another epoch's", &other_epoch, &[first]);

    let table = [
        (older, Err(ProtocolError::StaleCrl)),
        (same, Ok(())),
        (newer, Ok(())),
        (foreign, Err(ProtocolError::BadUrlSignature)),
    ];
    for (offer, verdict) in table {
        let name = offer.name;
        if let Err(e) = &verdict {
            assert!(!e.code().is_empty(), "{name}: refusals are coded");
        }

        let mut full = routers.pop().unwrap();
        let before = router_state(&mut full, &mut w.rng);
        assert_eq!(
            full.update_lists(offer.crl.clone(), offer.url.clone()),
            verdict,
            "{name}: update_lists"
        );
        let mut by_delta = routers.pop().unwrap();
        let before_delta = router_state(&mut by_delta, &mut w.rng);
        assert_eq!(
            by_delta.update_lists_by_delta(offer.crl.clone(), &offer.delta, &offer.restamp),
            verdict,
            "{name}: delta refresh"
        );
        let mut bulletin = users.pop().unwrap();
        let held_by_bulletin = (bulletin.list_versions(), bulletin.current_url().cloned());
        assert_eq!(
            bulletin.adopt_lists(&offer.crl, &offer.url, NOW),
            verdict,
            "{name}: adopt_lists"
        );
        let mut beaconed = users.pop().unwrap();
        let held_by_beacon = (beaconed.list_versions(), beaconed.current_url().cloned());
        let mut beacon = full.beacon(NOW, &mut w.rng);
        beacon.crl = offer.crl.clone();
        beacon.url = UrlSection::from(&offer.url);
        assert_eq!(
            beaconed
                .request_access(&beacon, NOW, &mut w.rng)
                .map(|_| ()),
            verdict,
            "{name}: beacon"
        );

        if verdict.is_err() {
            for (router, before) in [(&mut full, before), (&mut by_delta, before_delta)] {
                let after = router_state(router, &mut w.rng);
                assert_eq!(after.0.crl, before.0.crl, "{name}: the CRL in force");
                assert_eq!(after.0.url, before.0.url, "{name}: the URL in force");
                assert_eq!(after.1, before.1, "{name}: the enforced list");
                assert_eq!(after.2, before.2, "{name}: the held beacon");
            }
            for (user, before) in [(&bulletin, held_by_bulletin), (&beaconed, held_by_beacon)] {
                assert_eq!(user.list_versions(), before.0, "{name}: versions held");
                assert_eq!(user.current_url(), before.1.as_ref(), "{name}: URL held");
            }
        } else {
            let versions = (offer.crl.version, offer.url.version);
            assert_eq!(bulletin.list_versions(), versions, "{name}");
            assert_eq!(beaconed.list_versions(), versions, "{name}");
            assert_eq!(full.revocation().digest(), by_delta.revocation().digest());
            assert_eq!(full.current_url().version, offer.url.version);
        }
    }
}

/// A delta refresh is judged whole before anything lands: a newer CRL
/// that travels with a delta that does not chain, or with a re-stamp the
/// operator did not sign over the list the delta leads to, is not
/// installed either.
#[test]
fn a_refused_delta_refresh_changes_nothing() {
    let mut rng = StdRng::seed_from_u64(0x4A1F);
    let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
    let tokens: Vec<RevocationToken> = (0..3)
        .map(|_| RevocationToken(peace_curve::G1::random(&mut rng)))
        .collect();
    let mut router = no.provision_router("MR-1", u64::MAX / 2, &mut rng);
    let (epoch, v0) = (
        router.revocation().epoch(),
        router.revocation().url_version(),
    );

    // The operator revokes a router: a newer CRL rides every refresh.
    no.revoke_router(0xBAD);
    let crl = no.publish_crl(T);
    let restamp = no.restamp_url(T);
    let before = router_state(&mut router, &mut rng);

    // A delta from a version the router does not hold.
    let gap = UrlDelta {
        epoch,
        from_version: v0 + 3,
        to_version: v0 + 4,
        added: vec![tokens[0]],
        removed: vec![],
    };
    // A delta that chains, under a re-stamp of another list.
    let unattested = UrlDelta {
        from_version: v0,
        to_version: v0,
        added: vec![],
        ..gap.clone()
    };
    let forged = UrlRestamp::issue(no.signing_key(), no.gpk(), v0, T, &tokens[1..]);
    for (delta, restamp, refusal) in [
        (&gap, &restamp, ProtocolError::UrlDeltaChain),
        (&unattested, &forged, ProtocolError::BadUrlSignature),
    ] {
        assert_eq!(
            router.update_lists_by_delta(crl.clone(), delta, restamp),
            Err(refusal)
        );
        let after = router_state(&mut router, &mut rng);
        assert_eq!(after.0.crl, before.0.crl, "{refusal:?}: the CRL in force");
        assert!(!after.0.crl.contains(0xBAD));
        assert_eq!(after.0.url, before.0.url, "{refusal:?}: the URL in force");
        assert_eq!(after.1, before.1, "{refusal:?}: the enforced list");
        assert_eq!(after.2, before.2, "{refusal:?}: the held beacon");
    }

    // The same CRL with the operator's delta and re-stamp lands.
    let delta = no.publish_url_delta(epoch, v0).unwrap();
    router.update_lists_by_delta(crl, &delta, &restamp).unwrap();
    assert!(router.beacon(NOW, &mut rng).crl.contains(0xBAD));
}
