//! Regressions for the staged revocation pipeline in the router hot path:
//! delta-compressed URL updates, wholesale cache invalidation on version
//! bumps, and the revoked-then-reused rejection guarantee.

use std::collections::HashMap;

use peace_protocol::entities::*;
use peace_protocol::ids::{GroupId, UserId};
use peace_protocol::{LoggedSession, ProtocolConfig, ProtocolError};
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

    fn enroll(&mut self, name: &str, gid: GroupId) -> UserClient {
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

/// One user↔router authentication round at time `t`; returns the
/// transcript the router logged for it (what NO audits).
fn authenticate(
    user: &mut UserClient,
    router: &mut MeshRouter,
    t: u64,
    rng: &mut StdRng,
) -> Result<LoggedSession, ProtocolError> {
    let beacon = router.beacon(t, rng);
    let req = user.request_access(&beacon, t + 50, rng)?;
    let (confirm, _) = router.process_access_request(&req, t + 100)?;
    user.handle_access_confirm(&confirm, t + 100)?;
    Ok(router
        .drain_log()
        .pop()
        .expect("an admitted session is logged"))
}

/// The ISSUE's pinned regression: a user verified clean (verdict cached),
/// *then revoked via a delta*, must be rejected on their next
/// attempt — the delta's version bump flushes the stale "unrevoked" cache
/// entry rather than letting it be served again.
#[test]
fn revoked_then_reused_is_rejected_after_delta() {
    let mut w = World::new(71);
    let gid = w.add_group("org", 3);
    let mut alice = w.enroll("alice", gid);
    let mut bob = w.enroll("bob", gid);
    let mut router = w.no.provision_router("MR-1", 10_000_000, &mut w.rng);

    // Seed a non-empty URL (an empty list short-circuits before the cache):
    // bob gets revoked the hard way, via the audit.
    let bob_log = authenticate(&mut bob, &mut router, 500, &mut w.rng).unwrap();
    let bob_token = w.no.audit(&bob_log.signed_payload, &bob_log.gsig);
    let bob_token = bob_token.unwrap().token;
    assert!(w.no.revoke_member(&bob_token));
    router
        .update_lists(w.no.publish_crl(800), w.no.publish_url(800))
        .expect("lists admitted");

    // Clean authentication; the router's engine caches the verdict.
    let logged = authenticate(&mut alice, &mut router, 1_000, &mut w.rng).unwrap();
    assert!(router.revocation().cache_len() > 0);
    let v0 = router.revocation().url_version();

    // NO learns alice's token (privacy-preserving audit) and revokes her.
    let token = w.no.audit(&logged.signed_payload, &logged.gsig);
    let token = token.unwrap().token;
    assert!(w.no.revoke_member(&token));

    // The O(churn) delta path: NO serves the diff and re-stamps the list
    // it leads to, the router chains it.
    let delta =
        w.no.publish_url_delta(router.revocation().epoch(), v0)
            .unwrap();
    assert_eq!(delta.added.len(), 1, "delta carries only the churn");
    let (crl, restamp) = (w.no.publish_crl(2_000), w.no.restamp_url(2_000));
    router
        .update_lists_by_delta(crl.clone(), &delta, &restamp)
        .unwrap();
    assert_eq!(router.revocation().url_version(), w.no.url_version());
    assert_eq!(
        router.revocation().cache_len(),
        0,
        "version bump must flush every cached verdict"
    );

    // Alice's next attempt must be flagged revoked, not cache-served.
    assert_eq!(
        authenticate(&mut alice, &mut router, 3_000, &mut w.rng),
        Err(ProtocolError::SignerRevoked)
    );

    // A duplicated delta frame is idempotent.
    let digest = router.revocation().digest();
    router.update_lists_by_delta(crl, &delta, &restamp).unwrap();
    assert_eq!(router.revocation().digest(), digest);
}

/// Delta and full-fetch paths converge to the same enforced list.
#[test]
fn delta_sync_matches_full_fetch() {
    let mut w = World::new(72);
    let gid = w.add_group("org", 4);
    let mut users: Vec<UserClient> = (0..3).map(|i| w.enroll(&format!("u{i}"), gid)).collect();
    let mut delta_router = w.no.provision_router("MR-D", 10_000_000, &mut w.rng);
    let mut full_router = w.no.provision_router("MR-F", 10_000_000, &mut w.rng);

    // Revoke users one at a time; sync one router by deltas, the other by
    // full fetches.
    for (i, u) in users.iter_mut().enumerate() {
        // Learn each token by auditing a session from that user.
        let t = 1_000 * (i as u64 + 1);
        let logged = authenticate(u, &mut delta_router, t, &mut w.rng).unwrap();
        let token = w.no.audit(&logged.signed_payload, &logged.gsig);
        let token = token.unwrap().token;
        assert!(w.no.revoke_member(&token));

        let have = delta_router.revocation().url_version();
        let delta =
            w.no.publish_url_delta(delta_router.revocation().epoch(), have)
                .unwrap();
        let (crl, restamp) = (w.no.publish_crl(t + 500), w.no.restamp_url(t + 500));
        delta_router
            .update_lists_by_delta(crl, &delta, &restamp)
            .unwrap();
        full_router
            .update_lists(w.no.publish_crl(t + 500), w.no.publish_url(t + 500))
            .expect("lists admitted");
    }
    assert_eq!(
        delta_router.revocation().digest(),
        full_router.revocation().digest(),
        "delta-synced and full-synced routers enforce identical lists"
    );
    assert_eq!(delta_router.revocation().url_len(), 3);
}

/// An up-to-date consumer gets an authenticated empty delta; a consumer
/// from a stale epoch gets `None` (full fetch required); after the full
/// fetch, a previously-revoked-then-rotated-away key is clean again.
#[test]
fn epoch_rotation_forces_full_fetch() {
    let mut w = World::new(73);
    let gid = w.add_group("org", 2);
    let _user = w.enroll("u", gid);
    let mut router = w.no.provision_router("MR-1", 10_000_000, &mut w.rng);

    // Current consumer: empty, under an operator re-stamp, applies as a
    // no-op.
    let delta =
        w.no.publish_url_delta(
            router.revocation().epoch(),
            router.revocation().url_version(),
        )
        .unwrap();
    assert!(delta.is_empty());
    let (crl, restamp) = (w.no.publish_crl(1_000), w.no.restamp_url(1_000));
    let digest = router.revocation().digest();
    router
        .update_lists_by_delta(crl.clone(), &delta, &restamp)
        .unwrap();
    assert_eq!(router.revocation().digest(), digest);

    // Tampered delta: refused before any state change — it reaches a
    // version the re-stamp does not name, and a re-stamp altered to name
    // it no longer verifies.
    let mut forged = delta.clone();
    forged.to_version += 10;
    assert_eq!(
        router.update_lists_by_delta(crl.clone(), &forged, &restamp),
        Err(ProtocolError::UrlDeltaChain)
    );
    let mut forged_restamp = restamp.clone();
    forged_restamp.version = forged.to_version;
    assert_eq!(
        router.update_lists_by_delta(crl, &forged, &forged_restamp),
        Err(ProtocolError::BadUrlSignature)
    );
    assert_eq!(router.revocation().digest(), digest);

    // Rotation moves the epoch partition: the old epoch cannot delta.
    let old_epoch = router.revocation().epoch();
    let gpk = w.no.rotate_system_key(&mut w.rng);
    assert!(w
        .no
        .publish_url_delta(old_epoch, router.revocation().url_version())
        .is_none());
    router
        .install_epoch(gpk, w.no.publish_crl(2_000), w.no.publish_url(2_000))
        .expect("epoch lists admitted");
    assert_eq!(router.revocation().url_len(), 0);
    assert_eq!(
        router.revocation().cache_len(),
        0,
        "epoch install starts from a cold cache"
    );
}
