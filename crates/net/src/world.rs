//! Deterministic world construction for the node runtime.
//!
//! Real daemons run in separate processes, but PEACE's trust material
//! (system secret `γ`, router certificates, user credentials) originates in
//! one setup ceremony. The runtime reproduces that ceremony *bit-for-bit
//! in every process* by deriving all randomness from one seed: a NO daemon,
//! a router daemon, and a user daemon started with the same [`WorldSpec`]
//! reconstruct the identical operator, routers, and enrolled users, so no
//! key file ever crosses a socket. (Operationally this stands in for the
//! out-of-band provisioning channel the paper assumes in §IV.A.)

use peace_groupsig::RevocationToken;
use peace_protocol::entities::{GroupManager, MeshRouter, NetworkOperator, Ttp, UserClient};
use peace_protocol::ids::UserId;
use peace_protocol::ProtocolConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::{NetError, Result};

/// Everything needed to replay the setup ceremony.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorldSpec {
    /// Master seed for every key in the deployment.
    pub seed: u64,
    /// Number of enrolled users (all in one group, `user-<n>`).
    pub users: usize,
    /// Number of provisioned routers (`MR-<n>`).
    pub routers: usize,
}

impl Default for WorldSpec {
    fn default() -> Self {
        Self {
            seed: 1,
            users: 4,
            routers: 2,
        }
    }
}

/// The replayed world: identical in every process given the same spec.
pub struct BuiltWorld {
    /// The network operator (system secret, grt, signing key).
    pub no: NetworkOperator,
    /// The group manager holding enrollment receipts.
    pub gm: GroupManager,
    /// The trusted third party.
    pub ttp: Ttp,
    /// Provisioned routers, in provisioning order.
    pub routers: Vec<MeshRouter>,
    /// Enrolled users, in enrollment order.
    pub users: Vec<UserClient>,
    /// Each user's revocation token (index-aligned with `users`) — what NO
    /// feeds to `revoke_member` for dynamic user revocation.
    pub tokens: Vec<RevocationToken>,
    /// RNG state after the ceremony (for post-setup randomness in the same
    /// process, e.g. beacon nonces).
    pub rng: StdRng,
}

/// Replays the setup ceremony for `spec` and returns the built world.
///
/// # Errors
///
/// [`NetError::Unexpected`] if any ceremony step fails — impossible for a
/// well-formed spec, but the runtime never panics.
pub fn build_world(spec: &WorldSpec) -> Result<BuiltWorld> {
    build_world_with(spec, ProtocolConfig::default())
}

/// [`build_world`] with an explicit protocol configuration — e.g.
/// fixed-bases mode, where routers check revocation by table lookup
/// (`peace-noded --fixed-bases`). The config does not feed the RNG, but
/// every process in a deployment must pass the same one so signers and
/// verifiers agree on the bases mode.
///
/// # Errors
///
/// [`NetError::Unexpected`] if any ceremony step fails.
pub fn build_world_with(spec: &WorldSpec, config: ProtocolConfig) -> Result<BuiltWorld> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut no = NetworkOperator::new(config, &mut rng);

    let mut ttp = Ttp::new();
    let mut gm = no
        .found_group("metro-users", spec.users, &mut ttp, &mut rng)
        .map_err(|_| NetError::Unexpected("group founding failed"))?;

    let mut users = Vec::with_capacity(spec.users);
    let mut tokens = Vec::with_capacity(spec.users);
    for n in 0..spec.users {
        let uid = UserId(format!("user-{n}"));
        let mut user = UserClient::new(uid, no.prepared_gpk(), *no.npk(), *no.config(), &mut rng);
        gm.enroll(&mut ttp, &mut user)
            .map_err(|_| NetError::Unexpected("enrollment failed"))?;
        let token = user
            .active_credential()
            .map_err(|_| NetError::Unexpected("no credential after enrollment"))?
            .key
            .revocation_token();
        tokens.push(token);
        users.push(user);
    }

    let mut routers = Vec::with_capacity(spec.routers);
    for n in 0..spec.routers {
        routers.push(no.provision_router(&format!("MR-{n}"), u64::MAX / 2, &mut rng));
    }

    Ok(BuiltWorld {
        no,
        gm,
        ttp,
        routers,
        users,
        tokens,
        rng,
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use peace_groupsig::BasesMode;
    use peace_wire::Encode;
    use rand::RngCore;

    use super::*;

    #[test]
    fn same_seed_replays_identical_world() {
        let spec = WorldSpec::default();
        let a = build_world(&spec).unwrap();
        let b = build_world(&spec).unwrap();
        assert_eq!(a.no.npk().to_bytes(), b.no.npk().to_bytes());
        assert_eq!(a.tokens, b.tokens);
        assert_eq!(a.routers[0].cert().serial, b.routers[0].cert().serial);
        assert_eq!(
            a.routers[1].cert().public_key.to_bytes(),
            b.routers[1].cert().public_key.to_bytes()
        );
    }

    #[test]
    fn one_table_set_serves_the_whole_world() {
        let w = build_world(&WorldSpec::default()).unwrap();
        let set = w.no.prepared_gpk();
        assert!(w.users.iter().all(|u| Arc::ptr_eq(u.prepared_gpk(), &set)));
        assert!(w
            .routers
            .iter()
            .all(|r| Arc::ptr_eq(r.prepared_gpk(), &set)));
        // The operator, its handle here, four users, two routers.
        assert_eq!(Arc::strong_count(&set), 2 + 4 + 2);
    }

    /// SHA-256 over everything a replay must reproduce: npk, every
    /// revocation token, each router's certificate, each user's `A` and
    /// `x`, then the returned rng's next draw.
    fn ceremony_digest(spec: &WorldSpec, bases_mode: BasesMode) -> String {
        let config = ProtocolConfig {
            bases_mode,
            ..ProtocolConfig::default()
        };
        let mut w = build_world_with(spec, config).unwrap();
        let mut bytes = w.no.npk().to_bytes();
        for token in &w.tokens {
            bytes.extend(token.to_bytes());
        }
        for router in &w.routers {
            bytes.extend(router.cert().to_wire());
        }
        for user in &w.users {
            let key = &user.active_credential().unwrap().key;
            bytes.extend(key.a.to_bytes());
            bytes.extend(key.x.to_canonical_bytes());
        }
        bytes.extend(w.rng.next_u64().to_le_bytes());
        peace_hash::sha256(&bytes)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    /// The ceremony's draw order is what every replaying process, and the
    /// benchmark's worlds, agree on: these digests must never move.
    #[test]
    fn the_ceremony_replays_byte_for_byte() {
        let wide = WorldSpec {
            seed: 1,
            users: 16,
            routers: 3,
        };
        let digests = [WorldSpec::default(), wide].map(|spec| {
            [BasesMode::PerMessage, BasesMode::FixedBases].map(|mode| ceremony_digest(&spec, mode))
        });
        // The bases mode feeds no draw, so both columns agree.
        let (small, large) = (
            "2dd5b255623e4b9d203bb5bea2ba5db457ba638e3431a5ee58fe8273f319c8cd",
            "e6667990140a97c66dd20950ec6331d11f0837907fb493c81c000203af7ed37a",
        );
        assert_eq!(digests, [[small; 2], [large; 2]]);
    }

    #[test]
    fn different_seed_differs() {
        let a = build_world(&WorldSpec::default()).unwrap();
        let b = build_world(&WorldSpec {
            seed: 2,
            ..WorldSpec::default()
        })
        .unwrap();
        assert_ne!(a.no.npk().to_bytes(), b.no.npk().to_bytes());
        assert_ne!(a.tokens[0], b.tokens[0]);
    }

    #[test]
    fn cross_replay_handshake_works() {
        // A user from one replay authenticates against a router from an
        // independent replay — the multi-process guarantee in miniature.
        let spec = WorldSpec::default();
        let mut wa = build_world(&spec).unwrap();
        let mut wb = build_world(&spec).unwrap();
        let router = &mut wa.routers[0];
        let user = &mut wb.users[0];
        let beacon = router.current_beacon(10_000, &mut wa.rng);
        let req = user.request_access(&beacon, 10_050, &mut wb.rng).unwrap();
        let (confirm, mut r_sess) = router.process_access_request(&req, 10_100).unwrap();
        let mut u_sess = user.handle_access_confirm(&confirm, 10_150).unwrap();
        let c = u_sess.seal_data(b"cross-process hello");
        assert_eq!(r_sess.open_data(&c).unwrap(), b"cross-process hello");
    }
}
