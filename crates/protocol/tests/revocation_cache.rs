//! Regressions for the staged revocation pipeline in the router hot path:
//! delta-compressed URL updates, wholesale cache invalidation on version
//! bumps, and the revoked-then-reused rejection guarantee.

use std::collections::HashMap;

use peace_protocol::entities::*;
use peace_protocol::ids::{GroupId, UserId};
use peace_protocol::{ProtocolConfig, ProtocolError, SessionId};
use peace_revoke::DeltaOutcome;
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
        let gid = self.no.register_group(name, &mut self.rng);
        let (gm_bundle, ttp_bundle) = self.no.issue_shares(gid, keys, &mut self.rng).unwrap();
        let gm = self
            .gms
            .entry(gid)
            .or_insert_with(|| GroupManager::new(gid));
        gm.receive_bundle(&gm_bundle, self.no.npk()).unwrap();
        self.ttp.receive_bundle(&ttp_bundle, self.no.npk()).unwrap();
        gid
    }

    fn enroll(&mut self, name: &str, gid: GroupId) -> UserClient {
        let uid = UserId(name.to_owned());
        let mut user = UserClient::new(
            uid.clone(),
            self.no.prepared_gpk(),
            *self.no.npk(),
            *self.no.config(),
            &mut self.rng,
        );
        let gm = self.gms.get_mut(&gid).unwrap();
        let assignment = gm.assign(&uid).unwrap();
        let delivery = self.ttp.deliver(assignment.index, &uid).unwrap();
        let receipt = user.enroll(&assignment, &delivery).unwrap();
        gm.store_receipt(&uid, receipt);
        user
    }
}

/// One user↔router authentication round at time `t`; returns the
/// established session id (the audit handle).
fn authenticate(
    user: &mut UserClient,
    router: &mut MeshRouter,
    t: u64,
    rng: &mut StdRng,
) -> Result<SessionId, ProtocolError> {
    let beacon = router.beacon(t, rng);
    let req = user.request_access(&beacon, t + 50, rng)?;
    let (confirm, router_sess) = router.process_access_request(&req, t + 100)?;
    user.handle_access_confirm(&confirm, t + 100)?;
    Ok(router_sess.id().clone())
}

/// The ISSUE's pinned regression: a user verified clean (verdict cached),
/// *then revoked via a signed delta*, must be rejected on their next
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
    let bob_sid = authenticate(&mut bob, &mut router, 500, &mut w.rng).unwrap();
    w.no.ingest_router_log(&mut router);
    let bob_token = w.no.audit(&bob_sid).unwrap().token;
    assert!(w.no.revoke_member(&bob_token));
    router.update_lists(w.no.publish_crl(800), w.no.publish_url(800));

    // Clean authentication; the router's engine caches the verdict.
    let sid = authenticate(&mut alice, &mut router, 1_000, &mut w.rng).unwrap();
    assert!(router.revocation().cache_len() > 0);
    let v0 = router.revocation().url_version();

    // NO learns alice's token (privacy-preserving audit) and revokes her.
    w.no.ingest_router_log(&mut router);
    let token = w.no.audit(&sid).unwrap().token;
    assert!(w.no.revoke_member(&token));

    // The O(churn) delta path: NO signs the diff, the router chains it.
    let signed =
        w.no.publish_url_delta(router.revocation().epoch(), v0, 2_000)
            .unwrap();
    assert_eq!(signed.delta.added.len(), 1, "delta carries only the churn");
    assert_eq!(
        router.apply_url_delta(&signed, 2_050).unwrap(),
        DeltaOutcome::Applied
    );
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
    assert_eq!(
        router.apply_url_delta(&signed, 2_100).unwrap(),
        DeltaOutcome::AlreadyCurrent
    );
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
        let sid = authenticate(u, &mut delta_router, t, &mut w.rng).unwrap();
        w.no.ingest_router_log(&mut delta_router);
        let token = w.no.audit(&sid).unwrap().token;
        assert!(w.no.revoke_member(&token));

        let have = delta_router.revocation().url_version();
        let signed =
            w.no.publish_url_delta(delta_router.revocation().epoch(), have, t + 500)
                .unwrap();
        delta_router.apply_url_delta(&signed, t + 550).unwrap();
        full_router.update_lists(w.no.publish_crl(t + 500), w.no.publish_url(t + 500));
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

    // Current consumer: empty, still operator-signed, applies as a no-op.
    let signed =
        w.no.publish_url_delta(
            router.revocation().epoch(),
            router.revocation().url_version(),
            1_000,
        )
        .unwrap();
    assert!(signed.delta.is_empty());
    assert_eq!(
        router.apply_url_delta(&signed, 1_050).unwrap(),
        DeltaOutcome::AlreadyCurrent
    );

    // Tampered delta: signature check fires before any state change.
    let mut forged = signed.clone();
    forged.delta.to_version += 10;
    assert_eq!(
        router.apply_url_delta(&forged, 1_060),
        Err(ProtocolError::BadUrlSignature)
    );

    // Rotation moves the epoch partition: the old epoch cannot delta.
    let old_epoch = router.revocation().epoch();
    let gpk = w.no.rotate_system_key(&mut w.rng);
    assert!(w
        .no
        .publish_url_delta(old_epoch, router.revocation().url_version(), 2_000)
        .is_none());
    router.install_epoch(gpk, w.no.publish_crl(2_000), w.no.publish_url(2_000));
    assert_eq!(router.revocation().url_len(), 0);
    assert_eq!(
        router.revocation().cache_len(),
        0,
        "epoch install starts from a cold cache"
    );
}
