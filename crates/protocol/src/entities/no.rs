//! The network operator (NO): system key generation, group registration,
//! router provisioning, revocation-list publication, and the
//! privacy-preserving audit.

use std::collections::HashMap;
use std::sync::Arc;

use peace_ecdsa::{Certificate, SigningKey, VerifyingKey};
use peace_groupsig::{
    open, GroupPublicKey, GroupSecret, IssuerKey, MemberKey, PreparedGpk, RevocationToken,
};
use peace_revoke::{DeltaPlan, EpochUrlStore, UrlDelta};
use rand::RngCore;

use crate::audit::AuditFinding;
use crate::config::ProtocolConfig;
use crate::error::{ProtocolError, Result};
use crate::ids::{GroupId, RouterId, ShareIndex};
use crate::revocation::{SignedCrl, SignedUrl, UrlRestamp};
use crate::setup::{blind_a, GmBundle, GmShare, TtpBundle, TtpShare};

use super::gm::GroupManager;
use super::router::MeshRouter;
use super::ttp::Ttp;

/// The network operator.
///
/// Holds the system secret `γ` (inside [`IssuerKey`]), the signing key
/// `NSK`, the full revocation-token registry `grt` with its
/// `token → [i,j] → group` mapping. The transcripts it audits are kept by
/// whoever holds them (a daemon's ledger, a test's drained router log).
pub struct NetworkOperator {
    issuer: IssuerKey,
    /// The current epoch's gpk with its tables, built when the key is
    /// minted and shared by every entity this process hands it to.
    prepared_gpk: Arc<PreparedGpk>,
    signing: SigningKey,
    config: ProtocolConfig,
    groups: HashMap<GroupId, GroupSecret>,
    group_names: HashMap<GroupId, String>,
    next_group: u32,
    next_slot: HashMap<GroupId, u32>,
    /// Full registry `grt`: token bytes → share index.
    grt: HashMap<Vec<u8>, ShareIndex>,
    grt_order: Vec<RevocationToken>,
    /// The live URL: epoch-partitioned, versioned, delta-loggable.
    url: EpochUrlStore,
    crl_serials: Vec<u64>,
    crl_version: u64,
    next_serial: u64,
    epoch: u64,
    gpk_history: Vec<GroupPublicKey>,
}

impl std::fmt::Debug for NetworkOperator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkOperator")
            .field("groups", &self.groups.len())
            .field("grt", &self.grt_order.len())
            .field("revoked", &self.url.len())
            .finish()
    }
}

impl NetworkOperator {
    /// Creates a new operator: generates `γ`, `gpk`, and the ECDSA key pair
    /// `(NPK, NSK)`.
    pub fn new(config: ProtocolConfig, rng: &mut impl RngCore) -> Self {
        let issuer = IssuerKey::generate(rng);
        Self {
            prepared_gpk: Arc::new(PreparedGpk::new(issuer.public_key())),
            issuer,
            signing: SigningKey::random(rng),
            config,
            groups: HashMap::new(),
            group_names: HashMap::new(),
            next_group: 0,
            next_slot: HashMap::new(),
            grt: HashMap::new(),
            grt_order: Vec::new(),
            url: EpochUrlStore::new(0),
            crl_serials: Vec::new(),
            crl_version: 0,
            next_serial: 1,
            epoch: 0,
            gpk_history: Vec::new(),
        }
    }

    /// The group public key `gpk`.
    pub fn gpk(&self) -> &GroupPublicKey {
        self.issuer.public_key()
    }

    /// The current epoch's prepared gpk: the handle to give
    /// [`UserClient::new`](super::UserClient::new) and the `install_epoch`s
    /// so that a process holding many entities holds one table set. A new
    /// allocation per epoch, the same one within it.
    pub fn prepared_gpk(&self) -> Arc<PreparedGpk> {
        Arc::clone(&self.prepared_gpk)
    }

    /// The operator's signature-verification key `NPK`.
    pub fn npk(&self) -> &VerifyingKey {
        self.signing.verifying_key()
    }

    /// The protocol configuration distributed to all entities.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Registers a user group (a company, university, agency…), picking its
    /// secret `grp_i` (§IV.A step 2).
    pub fn register_group(&mut self, name: &str, rng: &mut impl RngCore) -> GroupId {
        let id = GroupId(self.next_group);
        self.next_group += 1;
        self.groups.insert(id, self.issuer.new_group_secret(rng));
        self.group_names.insert(id, name.to_owned());
        self.next_slot.insert(id, 0);
        id
    }

    /// The registered display name of a group.
    pub fn group_name(&self, id: GroupId) -> Option<&str> {
        self.group_names.get(&id).map(String::as_str)
    }

    /// Issues `count` member-key shares for a group (§IV.A steps 3–7):
    /// returns the signed GM bundle (scalar parts) and TTP bundle (blinded
    /// points), and registers all revocation tokens in `grt`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Setup`] if the group is unknown.
    pub fn issue_shares(
        &mut self,
        group: GroupId,
        count: usize,
        rng: &mut impl RngCore,
    ) -> Result<(GmBundle, TtpBundle)> {
        let secret = *self
            .groups
            .get(&group)
            .ok_or(ProtocolError::Setup("unknown group"))?;
        let mut gm_shares = Vec::with_capacity(count);
        let mut ttp_shares = Vec::with_capacity(count);
        for _ in 0..count {
            let slot = self.next_slot.entry(group).or_insert(0);
            let index = ShareIndex { group, slot: *slot };
            *slot += 1;
            let member: MemberKey = self.issuer.issue(&secret, rng);
            let token = member.revocation_token();
            self.grt.insert(token.to_bytes(), index);
            self.grt_order.push(token);
            gm_shares.push(GmShare {
                index,
                grp: member.grp,
                x: member.x,
            });
            ttp_shares.push(TtpShare {
                index,
                blinded_a: blind_a(&member.a, &member.x),
            });
        }
        Ok((
            GmBundle::issue(&self.signing, gm_shares),
            TtpBundle::issue(&self.signing, ttp_shares),
        ))
    }

    /// Founds a user group with `keys` member-key slots, the operator's
    /// half of the off-line setup (§IV.A) in one process. NO picks the
    /// group secret `grp_i` and issues `(A_{i,j}, grp_i, x_j)` per slot,
    /// registering each token in `grt`. The group's manager takes the
    /// scalar parts `(grp_i, x_j)` and never sees `A_{i,j}`; `ttp` takes
    /// the blinded points `A_{i,j} ⊕ pad(x_j)` and can compute neither
    /// part. Each checks NO's ECDSA signature on its bundle. Members then
    /// join through [`GroupManager::enroll`].
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Setup`] if either bundle is refused.
    pub fn found_group(
        &mut self,
        name: &str,
        keys: usize,
        ttp: &mut Ttp,
        rng: &mut impl RngCore,
    ) -> Result<GroupManager> {
        let id = self.register_group(name, rng);
        let (gm_bundle, ttp_bundle) = self.issue_shares(id, keys, rng)?;
        let mut gm = GroupManager::new(id);
        gm.receive_bundle(&gm_bundle, self.npk())?;
        ttp.receive_bundle(&ttp_bundle, self.npk())?;
        Ok(gm)
    }

    /// Provisions a mesh router: fresh ECDSA key pair plus a certificate
    /// `Cert_k` signed by NO.
    pub fn provision_router(
        &mut self,
        id: &str,
        expires_at: u64,
        rng: &mut impl RngCore,
    ) -> MeshRouter {
        let router_key = SigningKey::random(rng);
        let serial = self.next_serial;
        self.next_serial += 1;
        let cert = Certificate::issue(
            &self.signing,
            serial,
            id,
            *router_key.verifying_key(),
            expires_at,
        );
        MeshRouter::new(
            RouterId(id.to_owned()),
            router_key,
            cert,
            self.prepared_gpk(),
            *self.npk(),
            self.config,
            self.epoch,
            self.publish_crl(0),
            self.publish_url(0),
        )
    }

    /// Publishes the current signed CRL.
    pub fn publish_crl(&self, now: u64) -> SignedCrl {
        SignedCrl::issue(
            &self.signing,
            self.crl_version,
            now,
            self.crl_serials.clone(),
        )
    }

    /// Publishes the current signed URL, for holders of the current gpk.
    pub fn publish_url(&self, now: u64) -> SignedUrl {
        SignedUrl::issue(
            &self.signing,
            self.gpk(),
            self.url.version(),
            now,
            self.url.tokens().to_vec(),
        )
    }

    /// Publishes a detached URL freshness re-stamp: an O(1)-size
    /// signature over the canonical ordering of the current list, from
    /// which a delta-synced consumer materializes a fresh
    /// [`SignedUrl`](crate::revocation::SignedUrl) without the token
    /// list crossing the wire.
    pub fn restamp_url(&self, now: u64) -> UrlRestamp {
        UrlRestamp::issue(
            &self.signing,
            self.gpk(),
            self.url.version(),
            now,
            self.url.tokens(),
        )
    }

    /// The churn since `(epoch, have_version)` (empty for a consumer already
    /// current), or `None` when no delta can chain (wrong epoch, or behind
    /// the retained diff log): then the consumer needs [`Self::publish_url`].
    /// Unsigned: [`Self::restamp_url`] attests the list it leads to.
    pub fn publish_url_delta(&self, epoch: u64, have_version: u64) -> Option<UrlDelta> {
        match self.url.delta_since(epoch, have_version) {
            DeltaPlan::Delta(d) => Some(d),
            DeltaPlan::UpToDate => Some(UrlDelta {
                epoch: self.url.epoch(),
                from_version: self.url.version(),
                to_version: self.url.version(),
                added: Vec::new(),
                removed: Vec::new(),
            }),
            DeltaPlan::NeedFull => None,
        }
    }

    /// Revokes a member key by its revocation token (dynamic user
    /// revocation). Returns `false` if the token is not in `grt`.
    pub fn revoke_member(&mut self, token: &RevocationToken) -> bool {
        if !self.grt.contains_key(&token.to_bytes()) {
            return false;
        }
        self.url.record_add(token);
        true
    }

    /// The URL version [`Self::revoke_member`] leads to (`None` for a
    /// token outside `grt`).
    pub fn url_version_after(&self, token: &RevocationToken) -> Option<u64> {
        let known = self.grt.contains_key(&token.to_bytes());
        known.then(|| self.url.version() + u64::from(!self.url.contains(token)))
    }

    /// The CRL version [`Self::revoke_router`] leads to.
    pub fn crl_version_after(&self, serial: u64) -> u64 {
        self.crl_version + u64::from(!self.crl_serials.contains(&serial))
    }

    /// Revokes a router certificate by serial.
    pub fn revoke_router(&mut self, serial: u64) {
        if !self.crl_serials.contains(&serial) {
            self.crl_serials.push(serial);
            self.crl_version += 1;
        }
    }

    /// Number of revoked member keys (|URL|).
    pub fn revoked_member_count(&self) -> usize {
        self.url.len()
    }

    /// Total issued member keys (|grt|).
    pub fn issued_member_count(&self) -> usize {
        self.grt_order.len()
    }

    /// The privacy-preserving audit of §IV.D: given a disputed transcript
    /// (a router's [`LoggedSession`](crate::audit::LoggedSession), as
    /// [`MeshRouter::drain_log`] hands it over and a NO daemon keeps it in
    /// its ledger), scan the M.2 signature with every token in `grt`
    /// (Eq.3) and return the matching group — never the user.
    ///
    /// Tokens are tried under the current epoch key, then the archived
    /// ones, newest first, and the signature is attributed only if it
    /// verifies under the key that matched. A match alone proves nothing:
    /// `T₁ = ψ(û)^α, T₂ = A·ψ(v̂)^α` with every other field random matches
    /// the token `A`, and a URL publishes exactly such tokens.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Setup`] if no token matches in any epoch (a
    /// signature from outside the registry — impossible for sessions that
    /// passed verification); [`ProtocolError::BadGroupSignature`] if a
    /// token matches a signature that does not verify, which is attributed
    /// to nobody.
    pub fn audit(
        &self,
        signed_payload: &[u8],
        gsig: &peace_groupsig::GroupSignature,
    ) -> Result<AuditFinding> {
        let mode = self.config.bases_mode;
        let (gpk, idx) = std::iter::once(self.gpk())
            .chain(self.gpk_history.iter().rev())
            .find_map(|gpk| Some((gpk, open(gpk, signed_payload, gsig, &self.grt_order, mode)?)))
            .ok_or(ProtocolError::Setup("no grt token matches session"))?;
        let verified = if gpk == self.gpk() {
            self.prepared_gpk.verify(signed_payload, gsig, mode)
        } else {
            peace_groupsig::verify(gpk, signed_payload, gsig, mode)
        };
        verified.map_err(|_| ProtocolError::BadGroupSignature)?;
        let token = self.grt_order[idx];
        let index = self.grt[&token.to_bytes()];
        Ok(AuditFinding {
            group: index.group,
            index,
            token,
        })
    }

    /// The current key epoch (bumped by [`Self::rotate_system_key`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current URL version (bumped by revocations and rotations).
    pub fn url_version(&self) -> u64 {
        self.url.version()
    }

    /// The current CRL version (bumped by router revocations).
    pub fn crl_version(&self) -> u64 {
        self.crl_version
    }

    /// Periodic membership renewal (§III.A, §V.A "group public key
    /// update"): rotates the system secret `γ`, invalidating *every*
    /// outstanding group private key at once. Revoked keys no longer need
    /// URL entries — the URL resets to empty, which is the paper's
    /// mechanism for proactively controlling |URL|.
    ///
    /// After rotation the operator must push the new `gpk` (in process:
    /// [`Self::prepared_gpk`], a new table set) to routers
    /// ([`MeshRouter::install_epoch`](super::MeshRouter::install_epoch))
    /// and user groups must re-run the share-issuance and enrollment flow.
    /// Disputes from the previous epoch can still be audited against the
    /// archived token registry.
    pub fn rotate_system_key(&mut self, rng: &mut impl RngCore) -> GroupPublicKey {
        self.epoch += 1;
        // Old tokens stay in `grt` and the old gpk is archived so that
        // pre-rotation sessions remain auditable (the H0 bases of a logged
        // signature depend on the gpk that was current when it was made).
        self.gpk_history.push(*self.gpk());
        self.issuer = IssuerKey::generate(rng);
        self.prepared_gpk = Arc::new(PreparedGpk::new(self.issuer.public_key()));
        // All registered groups get fresh secrets in the new epoch.
        let group_ids: Vec<GroupId> = self.groups.keys().copied().collect();
        for gid in group_ids {
            self.groups.insert(gid, self.issuer.new_group_secret(rng));
        }
        // Every old key is dead by construction: empty the URL. The store's
        // epoch partition advances with the key epoch, so stale-epoch delta
        // requests are refused (forcing a full refresh) instead of chained.
        self.url.rotate_epoch(self.epoch);
        *self.gpk()
    }

    /// Batch audit of many (payload, signature) pairs at once — the
    /// ledger's audit-sweep entry point. Runs [`peace_groupsig::open_batch`]
    /// against the current `gpk` (records readied a lane group at a time,
    /// early exit at the matching token, threading across groups),
    /// then retries any unresolved records against archived epochs.
    /// `out[k]` is `None` when no `grt` token matches `items[k]` in any
    /// epoch (a signature from outside the registry).
    ///
    /// Unlike [`Self::audit`] of one transcript it verifies nothing: its
    /// records are taken to have been verified before they were logged. A transcript reported by
    /// a router is not yet checked at ingest, so a forged one that matches
    /// a published token is attributed here.
    pub fn audit_batch(
        &self,
        items: &[(&[u8], &peace_groupsig::GroupSignature)],
    ) -> Vec<Option<AuditFinding>> {
        let mut out: Vec<Option<AuditFinding>> = vec![None; items.len()];
        let mut unresolved: Vec<usize> = (0..items.len()).collect();
        for gpk in std::iter::once(self.gpk()).chain(self.gpk_history.iter().rev()) {
            if unresolved.is_empty() {
                break;
            }
            let subset: Vec<(&[u8], &peace_groupsig::GroupSignature)> =
                unresolved.iter().map(|&k| items[k]).collect();
            let matches =
                peace_groupsig::open_batch(gpk, &subset, &self.grt_order, self.config.bases_mode);
            let mut still = Vec::with_capacity(unresolved.len());
            for (&k, m) in unresolved.iter().zip(&matches) {
                match m {
                    Some(idx) => {
                        let token = self.grt_order[*idx];
                        let index = self.grt[&token.to_bytes()];
                        out[k] = Some(AuditFinding {
                            group: index.group,
                            index,
                            token,
                        });
                    }
                    None => still.push(k),
                }
            }
            unresolved = still;
        }
        out
    }

    /// The operator's ECDSA signing key `NSK` — used to sign revocation
    /// lists, certificates, and accountability-ledger checkpoints.
    pub fn signing_key(&self) -> &SigningKey {
        &self.signing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn operator() -> (NetworkOperator, StdRng) {
        let mut rng = StdRng::seed_from_u64(30);
        let no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
        (no, rng)
    }

    #[test]
    fn group_registration_bookkeeping() {
        let (mut no, mut rng) = operator();
        let a = no.register_group("Company A", &mut rng);
        let b = no.register_group("Org B", &mut rng);
        assert_ne!(a, b);
        assert_eq!(no.group_name(a), Some("Company A"));
        assert_eq!(no.group_name(b), Some("Org B"));
        assert_eq!(no.group_name(GroupId(99)), None);
    }

    #[test]
    fn issue_shares_requires_registered_group() {
        let (mut no, mut rng) = operator();
        assert!(no.issue_shares(GroupId(7), 1, &mut rng).is_err());
        let gid = no.register_group("org", &mut rng);
        let (gm_b, ttp_b) = no.issue_shares(gid, 3, &mut rng).unwrap();
        assert_eq!(gm_b.shares.len(), 3);
        assert_eq!(ttp_b.shares.len(), 3);
        assert_eq!(no.issued_member_count(), 3);
        // Share indices are sequential per group.
        let slots: Vec<u32> = gm_b.shares.iter().map(|s| s.index.slot).collect();
        assert_eq!(slots, vec![0, 1, 2]);
    }

    #[test]
    fn router_serials_increment_and_revoke() {
        let (mut no, mut rng) = operator();
        let r1 = no.provision_router("MR-1", 10_000, &mut rng);
        let r2 = no.provision_router("MR-2", 10_000, &mut rng);
        assert_ne!(r1.cert().serial, r2.cert().serial);
        no.revoke_router(r1.cert().serial);
        let crl = no.publish_crl(100);
        assert!(crl.contains(r1.cert().serial));
        assert!(!crl.contains(r2.cert().serial));
        // idempotent
        let v = crl.version;
        no.revoke_router(r1.cert().serial);
        assert_eq!(no.publish_crl(100).version, v);
    }

    #[test]
    fn epoch_counter_and_url_reset() {
        let (mut no, mut rng) = operator();
        assert_eq!(no.epoch(), 0);
        let gpk0 = *no.gpk();
        let gpk1 = no.rotate_system_key(&mut rng);
        assert_eq!(no.epoch(), 1);
        assert_ne!(gpk0.w, gpk1.w, "new system secret");
        assert_eq!(no.revoked_member_count(), 0);
    }
}
