//! Membership maintenance (§III.B "Membership Maintenance", §V.A "group
//! public key update"): periodic renewal via system-key rotation, URL size
//! control, cross-epoch audit, and session key ratcheting.

use std::collections::HashMap;
use std::sync::Arc;

use peace_protocol::entities::*;
use peace_protocol::ids::{GroupId, UserId};
use peace_protocol::{ProtocolConfig, ProtocolError, SessionId};
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
            .found_group(name, keys, &mut self.ttp, &mut self.rng)
            .unwrap();
        let gid = gm.id();
        self.gms.insert(gid, gm);
        gid
    }

    /// Re-issues `keys` shares for an existing group, as user groups must
    /// after a system-key rotation.
    fn refill_group(&mut self, gid: GroupId, keys: usize) {
        let (gm_bundle, ttp_bundle) = self.no.issue_shares(gid, keys, &mut self.rng).unwrap();
        let gm = self.gms.get_mut(&gid).unwrap();
        gm.receive_bundle(&gm_bundle, self.no.npk()).unwrap();
        self.ttp.receive_bundle(&ttp_bundle, self.no.npk()).unwrap();
    }

    fn enroll(&mut self, user: &mut UserClient, gid: GroupId) {
        let gm = self.gms.get_mut(&gid).unwrap();
        gm.enroll(&mut self.ttp, user).unwrap();
    }
}

#[test]
fn epoch_rotation_invalidates_all_old_credentials() {
    let mut w = World::new(1);
    let gid = w.add_group("org", 3);
    let uid = UserId("alice".into());
    let mut alice = UserClient::new(
        uid,
        w.no.prepared_gpk(),
        *w.no.npk(),
        *w.no.config(),
        &mut w.rng,
    );
    w.enroll(&mut alice, gid);
    let mut router = w.no.provision_router("MR-1", u64::MAX / 2, &mut w.rng);

    // Works before rotation.
    let b = router.beacon(1_000, &mut w.rng);
    let req = alice.request_access(&b, 1_010, &mut w.rng).unwrap();
    assert!(router.process_access_request(&req, 1_020).is_ok());

    // Rotate. Router learns the new gpk; Alice has NOT re-enrolled.
    assert_eq!(w.no.epoch(), 0);
    let new_gpk = w.no.rotate_system_key(&mut w.rng);
    assert_eq!(w.no.epoch(), 1);
    router
        .install_epoch(new_gpk, w.no.publish_crl(2_000), w.no.publish_url(2_000))
        .expect("epoch lists admitted");

    // Alice, still on the old gpk, refuses the new epoch's beacon: its URL
    // is issued for a key she does not hold.
    let mut b2 = router.beacon(2_000, &mut w.rng);
    assert_eq!(
        alice.request_access(&b2, 2_010, &mut w.rng).unwrap_err(),
        ProtocolError::BadUrlSignature
    );
    // Handed the old lists instead, her stale credential signs against the
    // OLD gpk: the router (new gpk) rejects the signature.
    b2.crl = b.crl.clone();
    b2.url = b.url.clone();
    let stale_req = alice.request_access(&b2, 2_010, &mut w.rng).unwrap();
    assert_eq!(
        router
            .process_access_request(&stale_req, 2_020)
            .unwrap_err(),
        ProtocolError::BadGroupSignature
    );

    // After adopting the epoch and re-enrolling, Alice works again.
    alice.install_epoch(new_gpk);
    assert_eq!(alice.credential_count(), 0);
    w.refill_group(gid, 2);
    w.enroll(&mut alice, gid);
    let b3 = router.beacon(3_000, &mut w.rng);
    let req3 = alice.request_access(&b3, 3_010, &mut w.rng).unwrap();
    let (confirm3, _) = router.process_access_request(&req3, 3_020).unwrap();
    assert!(alice.handle_access_confirm(&confirm3, 3_020).is_ok());
}

#[test]
fn rotation_empties_url() {
    let mut w = World::new(2);
    let gid = w.add_group("org", 3);
    let uid = UserId("mallory".into());
    let mut mallory = UserClient::new(
        uid,
        w.no.prepared_gpk(),
        *w.no.npk(),
        *w.no.config(),
        &mut w.rng,
    );
    w.enroll(&mut mallory, gid);
    let mut router = w.no.provision_router("MR-1", u64::MAX / 2, &mut w.rng);

    // Mallory gets revoked the hard way (audit → URL entry).
    let b = router.beacon(1_000, &mut w.rng);
    let req = mallory.request_access(&b, 1_010, &mut w.rng).unwrap();
    router.process_access_request(&req, 1_020).unwrap();
    let logged = router.drain_log().remove(0);
    let token =
        w.no.audit(&logged.signed_payload, &logged.gsig)
            .unwrap()
            .token;
    w.no.revoke_member(&token);
    assert_eq!(w.no.revoked_member_count(), 1);
    assert_eq!(w.no.publish_url(1_500).tokens.len(), 1);

    // Rotation is the paper's |URL| control: the list resets to empty
    // because every old key (revoked or not) is dead.
    w.no.rotate_system_key(&mut w.rng);
    assert_eq!(w.no.revoked_member_count(), 0);
    assert!(w.no.publish_url(2_000).tokens.is_empty());
}

#[test]
fn old_epoch_sessions_remain_auditable() {
    let mut w = World::new(3);
    let gid = w.add_group("Company XYZ", 2);
    let uid = UserId("alice".into());
    let mut alice = UserClient::new(
        uid,
        w.no.prepared_gpk(),
        *w.no.npk(),
        *w.no.config(),
        &mut w.rng,
    );
    w.enroll(&mut alice, gid);
    let mut router = w.no.provision_router("MR-1", u64::MAX / 2, &mut w.rng);

    let b = router.beacon(1_000, &mut w.rng);
    let req = alice.request_access(&b, 1_010, &mut w.rng).unwrap();
    router.process_access_request(&req, 1_020).unwrap();
    let logged = router.drain_log().remove(0);

    // Rotate twice; the pre-rotation session must still audit to the
    // correct group (disputes can surface long after renewal).
    w.no.rotate_system_key(&mut w.rng);
    w.no.rotate_system_key(&mut w.rng);
    let finding = w.no.audit(&logged.signed_payload, &logged.gsig).unwrap();
    assert_eq!(finding.group, gid);
}

#[test]
fn session_rekey_lockstep_and_forward_secrecy() {
    use peace_protocol::{Role, Session};
    let mut rng = StdRng::seed_from_u64(4);
    let g = peace_curve::G1::random(&mut rng);
    let a = peace_field::Fq::random_nonzero(&mut rng);
    let b = peace_field::Fq::random_nonzero(&mut rng);
    let secret = g.mul(&a).mul(&b);
    let id = SessionId::from_points(&g.mul(&a), &g.mul(&b));
    let mut left = Session::establish(&secret, id.clone(), Role::Responder);
    let mut right = Session::establish(&secret, id, Role::Initiator);

    // Traffic before rekey.
    let m0 = left.seal_data(b"gen0");
    assert_eq!(right.open_data(&m0).unwrap(), b"gen0");

    // Snapshot of the old receiving state (an adversary seizing the device
    // post-rekey would hold only the NEW state — simulate by cloning the
    // pre-rekey session to decrypt post-rekey traffic: must fail).
    let mut old_right = right.clone();

    left.rekey();
    right.rekey();
    assert_eq!(left.generation(), 1);
    let m1 = left.seal_data(b"gen1");
    assert_eq!(right.open_data(&m1).unwrap(), b"gen1");
    // Old-generation state cannot read new traffic.
    assert!(old_right.open_data(&m1).is_err());

    // Unsynchronized rekey breaks the channel (both must ratchet).
    left.rekey();
    let m2 = left.seal_data(b"gen2");
    assert!(right.open_data(&m2).is_err());
    right.rekey();
    // open_data does not advance state on failure, so the retransmission
    // of m2 decrypts once right has caught up.
    assert_eq!(right.open_data(&m2).unwrap(), b"gen2");
}

#[test]
fn renewal_cycle_stress() {
    // Three epochs, users re-enrolling each time; everything keeps working
    // and audits stay group-correct within each epoch.
    let mut w = World::new(5);
    let gid = w.add_group("org", 4);
    let uid = UserId("bob".into());
    let mut bob = UserClient::new(
        uid,
        w.no.prepared_gpk(),
        *w.no.npk(),
        *w.no.config(),
        &mut w.rng,
    );
    w.enroll(&mut bob, gid);
    let mut router = w.no.provision_router("MR-1", u64::MAX / 2, &mut w.rng);

    let mut t = 1_000u64;
    for epoch in 0..3 {
        let b = router.beacon(t, &mut w.rng);
        let req = bob.request_access(&b, t + 10, &mut w.rng).unwrap();
        let (confirm, _) = router.process_access_request(&req, t + 20).unwrap();
        assert!(bob.handle_access_confirm(&confirm, t + 20).is_ok());
        let logged = router.drain_log().remove(0);
        assert_eq!(
            w.no.audit(&logged.signed_payload, &logged.gsig)
                .unwrap()
                .group,
            gid
        );

        // renew
        w.no.rotate_system_key(&mut w.rng);
        assert_eq!(w.no.epoch(), epoch + 1);
        router
            .install_epoch(
                w.no.prepared_gpk(),
                w.no.publish_crl(t + 100),
                w.no.publish_url(t + 100),
            )
            .expect("epoch lists admitted");
        bob.install_epoch(w.no.prepared_gpk());
        w.refill_group(gid, 2);
        w.enroll(&mut bob, gid);
        t += 1_000;
    }
}

#[test]
fn a_rotated_epoch_is_one_new_table_set_for_the_whole_world() {
    let mut w = World::new(6);
    let gid = w.add_group("org", 4);
    let mut users: Vec<UserClient> = ["alice", "bob"]
        .into_iter()
        .map(|name| {
            let mut user = UserClient::new(
                UserId(name.into()),
                w.no.prepared_gpk(),
                *w.no.npk(),
                *w.no.config(),
                &mut w.rng,
            );
            w.enroll(&mut user, gid);
            user
        })
        .collect();
    let mut routers: Vec<MeshRouter> = ["MR-1", "MR-2"]
        .into_iter()
        .map(|id| w.no.provision_router(id, u64::MAX / 2, &mut w.rng))
        .collect();
    let shares = |w: &World, users: &[UserClient], routers: &[MeshRouter]| {
        let set = w.no.prepared_gpk();
        users.iter().all(|u| Arc::ptr_eq(u.prepared_gpk(), &set))
            && routers.iter().all(|r| Arc::ptr_eq(r.prepared_gpk(), &set))
    };
    assert!(shares(&w, &users, &routers));
    let old_set = Arc::downgrade(&w.no.prepared_gpk());

    // A request is begun, and verified, under the old epoch.
    let beacon = routers[0].beacon(1_000, &mut w.rng);
    let req = users[0].request_access(&beacon, 1_010, &mut w.rng).unwrap();
    let checked = routers[0]
        .begin_access_request(&req, 1_020)
        .unwrap()
        .verify();

    // Rotation mints a new key, so a new table set; the operator lets go
    // of the old one, which the entities and the pending request still hold.
    w.no.rotate_system_key(&mut w.rng);
    assert!(!shares(&w, &users, &routers));
    let held = old_set.upgrade().expect("entities still hold the old set");
    assert!(!Arc::ptr_eq(&held, &w.no.prepared_gpk()));
    assert_ne!(held.gpk(), w.no.gpk());
    drop(held);

    for router in &mut routers {
        router
            .install_epoch(
                w.no.prepared_gpk(),
                w.no.publish_crl(1_025),
                w.no.publish_url(1_025),
            )
            .expect("epoch lists admitted");
    }
    w.refill_group(gid, 2);
    for user in &mut users {
        user.install_epoch(w.no.prepared_gpk());
        w.enroll(user, gid);
    }
    assert!(shares(&w, &users, &routers));

    // The request begun before the install is its old set's last holder,
    // and is still refused.
    assert!(old_set.upgrade().is_some());
    assert_eq!(
        routers[0]
            .finish_access_request(checked, 1_030)
            .unwrap_err(),
        ProtocolError::UnknownBeacon
    );
    assert!(old_set.upgrade().is_none(), "the old tables are freed");

    // The new epoch works end to end on the shared set.
    let beacon = routers[1].beacon(2_000, &mut w.rng);
    let req = users[1].request_access(&beacon, 2_010, &mut w.rng).unwrap();
    let (confirm, _) = routers[1].process_access_request(&req, 2_020).unwrap();
    assert!(users[1].handle_access_confirm(&confirm, 2_020).is_ok());
}
