//! Revocation-list freshness enforcement for lists served *outside* a
//! beacon (`UserClient::adopt_lists` — the NO-bulletin poll path of the
//! networked runtime). A phishing router or compromised distribution
//! channel (§V.A) must not be able to feed a client a stale or
//! version-regressed URL that omits freshly revoked members.

use std::collections::HashMap;

use peace_protocol::entities::*;
use peace_protocol::ids::{GroupId, UserId};
use peace_protocol::{ProtocolConfig, ProtocolError};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct World {
    no: NetworkOperator,
    gms: HashMap<GroupId, GroupManager>,
    ttp: Ttp,
    rng: StdRng,
}

impl World {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
        Self {
            no,
            gms: HashMap::new(),
            ttp: Ttp::new(),
            rng,
        }
    }

    fn add_group(&mut self, name: &str, keys: usize) -> GroupId {
        let gm = self
            .no
            .found_group(name, keys, &mut self.ttp, &mut self.rng);
        let gm = gm.unwrap();
        let gid = gm.id();
        self.gms.insert(gid, gm);
        gid
    }

    fn enroll_user(&mut self, name: &str, gid: GroupId) -> UserClient {
        let uid = UserId(name.to_owned());
        let mut user = UserClient::new(
            uid,
            self.no.prepared_gpk(),
            *self.no.npk(),
            *self.no.config(),
            &mut self.rng,
        );
        let gm = self.gms.get_mut(&gid).unwrap();
        gm.enroll(&mut self.ttp, &mut user).unwrap();
        user
    }
}

#[test]
fn fresh_lists_adopted_and_versions_tracked() {
    let mut w = World::new(40);
    let gid = w.add_group("org", 2);
    let mut alice = w.enroll_user("alice", gid);

    assert!(alice.current_url().is_none());
    let crl = w.no.publish_crl(10_000);
    let url = w.no.publish_url(10_000);
    alice.adopt_lists(&crl, &url, 10_500).unwrap();
    assert_eq!(alice.list_versions(), (0, 0));
    assert!(alice.current_url().is_some());

    // A revocation bumps the URL version; the next adoption tracks it.
    let victim = w.enroll_user("mallory", gid);
    let token = victim.active_credential().unwrap().key.revocation_token();
    assert!(w.no.revoke_member(&token));
    let url2 = w.no.publish_url(11_000);
    alice
        .adopt_lists(&w.no.publish_crl(11_000), &url2, 11_200)
        .unwrap();
    assert_eq!(alice.list_versions(), (0, 1));
    assert_eq!(alice.current_url().unwrap().tokens.len(), 1);
}

#[test]
fn stale_lists_rejected_by_max_age() {
    let mut w = World::new(41);
    let gid = w.add_group("org", 1);
    let mut alice = w.enroll_user("alice", gid);
    let max_age = w.no.config().list_max_age;

    let crl = w.no.publish_crl(10_000);
    let url = w.no.publish_url(10_000);
    // Published at 10_000, presented after the freshness bound: rejected.
    let late = 10_000 + max_age + 1;
    assert_eq!(
        alice.adopt_lists(&crl, &url, late),
        Err(ProtocolError::StaleCrl)
    );
    // A fresh CRL with the same stale URL still fails (on the URL).
    let fresh_crl = w.no.publish_crl(late);
    assert_eq!(
        alice.adopt_lists(&fresh_crl, &url, late),
        Err(ProtocolError::StaleUrl)
    );
    // Nothing was adopted by the failed attempts.
    assert!(alice.current_url().is_none());
}

#[test]
fn version_regression_rejected_even_when_freshly_issued() {
    let mut w = World::new(42);
    let gid = w.add_group("org", 3);
    let mut alice = w.enroll_user("alice", gid);
    let victim = w.enroll_user("mallory", gid);
    let token = victim.active_credential().unwrap().key.revocation_token();

    // The attack: NO's signing key can mint a *freshly timestamped* copy
    // of the pre-revocation v0 URL (or an attacker replays one NO issued
    // moments ago for a cache). Freshness alone does not catch it —
    // version monotonicity must.
    let old_url_fresh = w.no.publish_url(20_000); // v0, empty
    assert!(w.no.revoke_member(&token)); // → v1
    let new_url = w.no.publish_url(20_100);
    assert_eq!(new_url.version, 1);

    alice
        .adopt_lists(&w.no.publish_crl(20_100), &new_url, 20_200)
        .unwrap();
    assert_eq!(alice.list_versions().1, 1);

    // The freshly issued v0 list is within max-age but regresses: reject.
    assert_eq!(
        alice.adopt_lists(&w.no.publish_crl(20_300), &old_url_fresh, 20_300),
        Err(ProtocolError::StaleUrl)
    );
    // The adopted v1 URL (listing the revoked member) stays in force.
    assert_eq!(alice.list_versions().1, 1);
    assert_eq!(alice.current_url().unwrap().tokens.len(), 1);
}

#[test]
fn forged_or_tampered_lists_rejected() {
    let mut w = World::new(43);
    let gid = w.add_group("org", 2);
    let mut alice = w.enroll_user("alice", gid);
    let victim = w.enroll_user("mallory", gid);
    let token = victim.active_credential().unwrap().key.revocation_token();

    // Tampered URL: strip the revoked token after signing.
    assert!(w.no.revoke_member(&token));
    let mut url = w.no.publish_url(30_000);
    url.tokens.clear();
    assert_eq!(
        alice.adopt_lists(&w.no.publish_crl(30_000), &url, 30_100),
        Err(ProtocolError::BadUrlSignature)
    );

    // Lists signed by a different operator: rejected outright.
    let mut other_rng = StdRng::seed_from_u64(999);
    let other_no = NetworkOperator::new(ProtocolConfig::default(), &mut other_rng);
    assert_eq!(
        alice.adopt_lists(
            &other_no.publish_crl(30_200),
            &other_no.publish_url(30_200),
            30_300
        ),
        Err(ProtocolError::BadCrlSignature)
    );
    assert!(alice.current_url().is_none());
}

#[test]
fn beacon_and_bulletin_paths_share_the_version_floor() {
    let mut w = World::new(44);
    let gid = w.add_group("org", 3);
    let mut alice = w.enroll_user("alice", gid);
    let victim = w.enroll_user("mallory", gid);
    let token = victim.active_credential().unwrap().key.revocation_token();
    let mut router = w.no.provision_router("MR-1", u64::MAX / 2, &mut w.rng);

    // Bulletin poll adopts the post-revocation v1 URL.
    assert!(w.no.revoke_member(&token));
    alice
        .adopt_lists(&w.no.publish_crl(50_000), &w.no.publish_url(50_000), 50_100)
        .unwrap();
    assert_eq!(alice.list_versions().1, 1);

    // A router still broadcasting the provisioning-time v0 URL now fails
    // beacon processing: the floor raised by the bulletin path applies.
    let beacon = router.beacon(50_200, &mut w.rng);
    assert_eq!(beacon.url.version, 0);
    let err = alice
        .request_access(&beacon, 50_250, &mut w.rng)
        .unwrap_err();
    assert_eq!(err, ProtocolError::StaleUrl);

    // Once the router refreshes its lists, the beacon is accepted again.
    router
        .update_lists(w.no.publish_crl(50_300), w.no.publish_url(50_300))
        .expect("lists admitted");
    let beacon = router.beacon(50_400, &mut w.rng);
    assert!(alice.request_access(&beacon, 50_450, &mut w.rng).is_ok());
}
