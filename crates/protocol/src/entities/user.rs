//! Network users (`uid_j`): credential enrollment, the user side of the
//! user↔router protocol (§IV.B), and both sides of the user↔user protocol
//! (§IV.C).

use std::sync::Arc;

use peace_curve::{G1Wire, G1};
use peace_ecdsa::{Certificate, Signature, SigningKey, VerifyingKey};
use peace_field::Fq;
use peace_groupsig::{MemberKey, PreparedGpk, RevocationToken};
use peace_pairing::Gt;
use peace_symmetric::{open_oneshot, seal_oneshot};
use peace_wire::{Encode, Reader, WireError, Writer};
use rand::RngCore;

use crate::config::{ProtocolConfig, HANDSHAKE_WINDOW, MAX_PENDING_HANDSHAKES};
use crate::error::{ProtocolError, Result};
use crate::ids::{SessionId, ShareIndex, UserId};
use crate::messages::{
    point, AccessConfirm, AccessRequest, Beacon, PeerConfirm, PeerHello, PeerResponse,
};
use crate::pending::PendingTable;
use crate::revocation::{admit, SignedCrl, SignedUrl, UrlSection};
use crate::session::{Role, Session};
use crate::setup::{unblind_a, Receipt};

use super::gm::GmAssignment;
use super::ttp::TtpDelivery;

/// One enrolled credential: a group private key plus its share index.
#[derive(Clone)]
pub struct Credential {
    /// The share index `[i, j]` (user-private bookkeeping).
    pub index: ShareIndex,
    /// The assembled group private key `gsk[i,j]`.
    pub key: MemberKey,
    /// `ê(A, g₂)` for `key`, as the enrolment check computed it: the
    /// signer's half of every `R₂`, so a signature costs one pairing. Key
    /// material — it names the member as `A` does — and it lives and dies
    /// with the credential.
    e_a_g2: Gt,
}

impl std::fmt::Debug for Credential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `ê(A, g₂)` is never printed; the key prints as `MemberKey(..)`.
        f.debug_struct("Credential")
            .field("index", &self.index)
            .field("key", &self.key)
            .finish_non_exhaustive()
    }
}

/// Initiator-side state between sending M.2 and receiving M.3.
struct PendingSession {
    /// The computed DH secret `g^{r_R r_j}`.
    dh_secret: G1,
    /// The session identifier.
    id: SessionId,
}

/// Responder-side state between sending M̃.2 and receiving M̃.3.
struct PeerResponderPending {
    /// The computed pairwise DH secret.
    dh_secret: G1,
    /// The session identifier `(g^{r_j}, g^{r_l})`.
    id: SessionId,
    /// `ts₁` from M̃.1 (echoed inside M̃.3).
    hello_ts: u64,
    /// `ts₂` of our M̃.2 (echoed inside M̃.3).
    resp_ts: u64,
}

/// The URL a client enforces, in both forms: the decoded tokens, and the
/// bytes they were decoded from — an incoming beacon whose URL section
/// equals `section` carries this very list and needs no decoding.
#[derive(Clone, Debug)]
struct HeldUrl {
    url: SignedUrl,
    section: UrlSection,
}

/// The signed part of the last accepted beacon — `(g, g^{r_R}, ts₁)` and the
/// router's signature over it, which verified under the held certificate —
/// and the points `g` and `g^{r_R}` name. A beacon whose signed part is
/// these bytes needs neither the signature check nor the decodes again.
#[derive(Clone, Debug)]
struct HeldBeacon {
    g: G1Wire,
    g_rr: G1Wire,
    ts1: u64,
    sig: Signature,
    points: (G1, G1),
}

impl HeldBeacon {
    fn signed_part_of(&self, beacon: &Beacon) -> bool {
        self.ts1 == beacon.ts1
            && self.sig == beacon.sig
            && self.g == beacon.g
            && self.g_rr == beacon.g_rr
    }
}

/// A network user client.
pub struct UserClient {
    uid: UserId,
    receipt_key: SigningKey,
    /// The epoch's gpk and its tables: the operator's handle in a populated
    /// world, this client's own for a lone one.
    prepared_gpk: Arc<PreparedGpk>,
    npk: VerifyingKey,
    config: ProtocolConfig,
    credentials: Vec<Credential>,
    active_role: usize,
    /// Latest URL accepted from a beacon or bulletin (used for peer
    /// revocation checks): the floor [`admit`] holds offered URLs to.
    current_url: Option<HeldUrl>,
    /// URL tokens decoded from beacons, and beacons whose URL section
    /// listed the tokens already held (see [`Self::url_decode_counts`]).
    url_tokens_decoded: u64,
    url_sections_reused: u64,
    /// The certificate of the last accepted beacon and the last accepted
    /// CRL (from a beacon or bulletin), signatures included. NO's signature
    /// on a beacon's copy that equals one of them was verified when it was
    /// accepted; only what time changes (expiry, age, and whether the
    /// serial is listed) is checked again.
    held_cert: Option<Certificate>,
    held_crl: Option<SignedCrl>,
    /// The last accepted beacon, verified under `held_cert`: routers
    /// broadcast one beacon for half a timestamp window, so a repeat is
    /// common (every check that time can change still runs on it).
    held_beacon: Option<HeldBeacon>,
    /// Half-open user↔router handshakes awaiting M.3, keyed by session id.
    pending_router: PendingTable<PendingSession>,
    /// Half-open peer handshakes we initiated (awaiting M̃.2): our exponent
    /// `r_j` and `ts₁` (for the delay-window check), keyed by our DH share
    /// `g^{r_j}`.
    pending_peer_init: PendingTable<(Fq, u64)>,
    /// Half-open peer handshakes we answered (awaiting M̃.3), keyed by
    /// session id.
    pending_peer_resp: PendingTable<PeerResponderPending>,
    /// Recently completed session ids — duplicated confirmations must not
    /// mint a second session.
    completed_recent: PendingTable<()>,
}

impl std::fmt::Debug for UserClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UserClient")
            .field("uid", &self.uid)
            .field("credentials", &self.credentials.len())
            .finish()
    }
}

impl UserClient {
    /// Creates a client with no credentials yet. `gpk` is the operator's
    /// [`prepared_gpk`](super::NetworkOperator::prepared_gpk) handle, or
    /// the bare key, which is then prepared here for this client alone.
    pub fn new(
        uid: UserId,
        gpk: impl Into<Arc<PreparedGpk>>,
        npk: VerifyingKey,
        config: ProtocolConfig,
        rng: &mut impl RngCore,
    ) -> Self {
        let (cap, ttl) = (MAX_PENDING_HANDSHAKES, HANDSHAKE_WINDOW);
        Self {
            uid,
            receipt_key: SigningKey::random(rng),
            prepared_gpk: gpk.into(),
            npk,
            config,
            credentials: Vec::new(),
            active_role: 0,
            current_url: None,
            url_tokens_decoded: 0,
            url_sections_reused: 0,
            held_cert: None,
            held_crl: None,
            held_beacon: None,
            pending_router: PendingTable::new(cap, ttl),
            pending_peer_init: PendingTable::new(cap, ttl),
            pending_peer_resp: PendingTable::new(cap, ttl),
            completed_recent: PendingTable::new(2 * cap, 2 * ttl),
        }
    }

    /// The user's essential identifier (never transmitted).
    pub fn uid(&self) -> &UserId {
        &self.uid
    }

    /// The prepared gpk this client signs and verifies under.
    pub fn prepared_gpk(&self) -> &Arc<PreparedGpk> {
        &self.prepared_gpk
    }

    /// The user's receipt-signing public key.
    pub fn receipt_vk(&self) -> &VerifyingKey {
        self.receipt_key.verifying_key()
    }

    /// Assembles `gsk[i,j]` from the GM and TTP parts (§IV.A user steps
    /// 1–3), validates it against `gpk`, and returns the signed receipt for
    /// the GM (non-repudiation).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Setup`] on index mismatch, failed unblinding, or an
    /// invalid assembled key.
    pub fn enroll(&mut self, gm: &GmAssignment, ttp: &TtpDelivery) -> Result<Receipt> {
        if gm.index != ttp.index {
            return Err(ProtocolError::Setup("GM/TTP share index mismatch"));
        }
        let a = unblind_a(&ttp.blinded_a, &gm.x)
            .ok_or(ProtocolError::Setup("unblinding produced invalid point"))?;
        let key = MemberKey {
            a,
            grp: gm.grp,
            x: gm.x,
        };
        let e_a_g2 = self
            .prepared_gpk
            .member_pairing(&key)
            .ok_or(ProtocolError::Setup("assembled gsk fails SDH check"))?;
        self.credentials.push(Credential {
            index: gm.index,
            key,
            e_a_g2,
        });
        // Receipt covers both received parts.
        let mut payload = Writer::new();
        gm.index.encode(&mut payload);
        payload.put_fixed(&gm.grp.to_canonical_bytes());
        payload.put_fixed(&gm.x.to_canonical_bytes());
        payload.put_bytes(&ttp.blinded_a);
        Ok(Receipt::sign(
            &self.receipt_key,
            "gsk delivery",
            payload.as_bytes(),
        ))
    }

    /// Number of enrolled credentials (group memberships).
    pub fn credential_count(&self) -> usize {
        self.credentials.len()
    }

    /// Adopts a new key epoch: every old credential is dropped (the system
    /// secret rotated, so they can no longer produce valid signatures) and
    /// the client must re-enroll through its group managers. `gpk` as for
    /// [`Self::new`].
    pub fn install_epoch(&mut self, gpk: impl Into<Arc<PreparedGpk>>) {
        self.prepared_gpk = gpk.into();
        self.credentials.clear();
        self.active_role = 0;
        self.current_url = None;
        // In-flight handshakes from the old epoch can never complete.
        self.pending_router.clear();
        self.pending_peer_init.clear();
        self.pending_peer_resp.clear();
    }

    /// Selects which credential (role/context) signs subsequent sessions —
    /// the paper's multi-faceted identity in action.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::MissingCredential`] if the index is out of range.
    pub fn set_active_role(&mut self, role: usize) -> Result<()> {
        if role >= self.credentials.len() {
            return Err(ProtocolError::MissingCredential);
        }
        self.active_role = role;
        Ok(())
    }

    /// The credential currently used for signing.
    pub fn active_credential(&self) -> Result<&Credential> {
        self.credentials
            .get(self.active_role)
            .ok_or(ProtocolError::MissingCredential)
    }

    /// The latest URL this client has accepted.
    pub fn current_url(&self) -> Option<&SignedUrl> {
        self.current_url.as_ref().map(|held| &held.url)
    }

    /// `(tokens decoded, sections reused)` over this client's lifetime:
    /// how many URL tokens beacon processing has decoded, and how many
    /// beacons carried the tokens already held (the same section, or a
    /// restamp of it) and so cost none. Counts only — which list, or when,
    /// is not recorded.
    pub fn url_decode_counts(&self) -> (u64, u64) {
        (self.url_tokens_decoded, self.url_sections_reused)
    }

    /// The (CRL, URL) versions this client holds — the floor below which
    /// [`admit`] refuses a list — 0 for none.
    pub fn list_versions(&self) -> (u64, u64) {
        (
            self.held_crl.as_ref().map_or(0, |crl| crl.version),
            self.current_url.as_ref().map_or(0, |held| held.url.version),
        )
    }

    /// Adopts revocation lists served outside a beacon (e.g. polled from
    /// the NO bulletin) under the rules beacon processing applies: each
    /// list passes [`admit`] and is within `list_max_age` at `now`. A
    /// refused list leaves the held lists in force — without this check a
    /// phishing mesh router (§V.A) could feed a client an old URL that
    /// omits freshly revoked members.
    ///
    /// # Errors
    ///
    /// [`admit`]'s refusal or [`ProtocolError::StaleCrl`] /
    /// [`ProtocolError::StaleUrl`] on age, the CRL's first.
    pub fn adopt_lists(&mut self, crl: &SignedCrl, url: &SignedUrl, now: u64) -> Result<()> {
        let (max_age, gpk) = (self.config.list_max_age, self.prepared_gpk.gpk());
        let (crl_version, url_version) = self.list_versions();
        admit(crl, crl_version, &self.npk, gpk)?;
        crl.check_fresh(now, max_age)?;
        let section = UrlSection::from(url);
        admit(&section, url_version, &self.npk, gpk)?;
        section.check_fresh(now, max_age)?;
        self.held_crl = Some(crl.clone());
        self.current_url = Some(HeldUrl {
            url: url.clone(),
            section,
        });
        Ok(())
    }

    /// Validates a beacon (M.1) per §IV.B step 2.1 and, on success, answers
    /// it with the access request (M.2) per step 2.2, retaining the
    /// half-open handshake until [`Self::handle_access_confirm`] or expiry.
    ///
    /// # Errors
    ///
    /// Each check failure maps to its [`ProtocolError`] variant; the beacon
    /// is rejected *before* any group-signature work.
    pub fn request_access(
        &mut self,
        beacon: &Beacon,
        now: u64,
        rng: &mut impl RngCore,
    ) -> Result<AccessRequest> {
        let cred = self.active_credential()?.clone();
        // 2.1: timestamp freshness
        if now.saturating_sub(beacon.ts1) > self.config.timestamp_window
            || beacon.ts1.saturating_sub(now) > self.config.timestamp_window
        {
            return Err(ProtocolError::StaleTimestamp);
        }
        // certificate validity (see `held_cert` for the short path)
        let cert_held = self.held_cert.as_ref() == Some(&beacon.cert);
        if cert_held {
            beacon.cert.check_unexpired(now)
        } else {
            beacon.cert.validate(&self.npk, now)
        }
        .map_err(|_| ProtocolError::CertificateInvalid)?;
        // CRL: admitted (a held one was), fresh, and not listing this cert
        let (max_age, gpk) = (self.config.list_max_age, self.prepared_gpk.gpk());
        let (crl_version, url_version) = self.list_versions();
        let crl_held = self.held_crl.as_ref() == Some(&beacon.crl);
        if !crl_held {
            admit(&beacon.crl, crl_version, &self.npk, gpk)?;
        }
        beacon.crl.check_fresh(now, max_age)?;
        if beacon.crl.contains(beacon.cert.serial) {
            return Err(ProtocolError::CertificateRevoked);
        }
        // URL: admitted and fresh. A section byte-identical to the one
        // held (signature included) was admitted when it was adopted; only
        // its age can have changed. One that lists the same token bytes
        // under a new stamp (an operator restamp) needs admitting but none
        // of its tokens decoded again.
        let held = self.current_url.as_ref();
        let same_tokens = held.is_some_and(|held| held.section.same_tokens(&beacon.url));
        let url_held = held.is_some_and(|held| held.section == beacon.url);
        if !url_held {
            admit(&beacon.url, url_version, &self.npk, gpk)?;
        }
        beacon.url.check_fresh(now, max_age)?;
        // beacon signature and points: those of the held beacon if this one
        // is the same broadcast under the same certificate (see
        // `held_beacon`), else checked now.
        let held_beacon = self
            .held_beacon
            .as_ref()
            .filter(|held| cert_held && held.signed_part_of(beacon));
        let beacon_held = held_beacon.is_some();
        let (g, g_rr) = match held_beacon {
            Some(held) => held.points,
            None => self.check_beacon_signature(beacon, cert_held)?,
        };
        // Router is legitimate: adopt its lists. A URL whose tokens differ
        // from the held one's is decoded first — every token checked for
        // curve and subgroup membership — and a list with a bad token is
        // refused whole, with the held lists still in force.
        if !url_held {
            let tokens = match &self.current_url {
                Some(held) if same_tokens => held.url.tokens.clone(),
                _ => {
                    let tokens = beacon.url.open_tokens()?;
                    self.url_tokens_decoded += tokens.len() as u64;
                    tokens
                }
            };
            self.current_url = Some(HeldUrl {
                url: beacon.url.with_tokens(tokens),
                section: beacon.url.clone(),
            });
        }
        if same_tokens {
            self.url_sections_reused += 1;
        }
        if !cert_held {
            self.held_cert = Some(beacon.cert.clone());
        }
        if !crl_held {
            self.held_crl = Some(beacon.crl.clone());
        }
        if !beacon_held {
            self.held_beacon = Some(HeldBeacon {
                g: beacon.g.clone(),
                g_rr: beacon.g_rr.clone(),
                ts1: beacon.ts1,
                sig: beacon.sig,
                points: (g, g_rr),
            });
        }

        // 2.2: build M.2, and 2.2.5's session key K = (g^{r_R})^{r_j}
        let r_j = Fq::random_nonzero(rng);
        let (g_rj, dh_secret) = share_and_secret(&g, &g_rr, &r_j);
        let g_rj = G1Wire::from(g_rj);
        let ts2 = now;
        let payload = AccessRequest::signed_payload(&g_rj, &beacon.g_rr, ts2);
        let gsig = self.prepared_gpk.sign_as(
            &cred.key,
            &cred.e_a_g2,
            &payload,
            self.config.bases_mode,
            rng,
        );
        let puzzle_solution = beacon.puzzle.as_ref().map(|p| p.solve());
        let id = SessionId::from_points(&beacon.g_rr, &g_rj);
        self.pending_router
            .insert(id.to_bytes(), PendingSession { dh_secret, id }, now);
        Ok(AccessRequest {
            g_rj,
            g_rr: beacon.g_rr.clone(),
            ts2,
            gsig,
            puzzle_solution,
        })
    }

    /// Verifies the router's signature on `beacon`, under the held
    /// certificate's key (decompressed when it was first used) if
    /// `cert_held`, and decodes `g` and `g^{r_R}`. Key bytes that name no
    /// key refuse the beacon as its decoder did when certificates were
    /// decoded eagerly; a share that is not a group element refuses it too.
    fn check_beacon_signature(&self, beacon: &Beacon, cert_held: bool) -> Result<(G1, G1)> {
        let router_key = match &self.held_cert {
            Some(held) if cert_held => &held.public_key,
            _ => &beacon.cert.public_key,
        }
        .key()
        .map_err(|_| WireError::Invalid("ecdsa public key"))?;
        if !router_key.verify(
            &Beacon::signed_payload(&beacon.g, &beacon.g_rr, beacon.ts1),
            &beacon.sig,
        ) {
            return Err(ProtocolError::BadRouterSignature);
        }
        // Only now are the beacon's points needed as points.
        Ok((
            point(&beacon.g, "beacon.g")?,
            point(&beacon.g_rr, "beacon.g_rr")?,
        ))
    }

    /// Completes a handshake opened by [`Self::request_access`] by
    /// validating M.3, idempotently: a duplicated confirmation of an
    /// already-established session is rejected with
    /// [`ProtocolError::DuplicateMessage`] and does not mint a second
    /// session.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::SessionMismatch`] when no matching half-open
    /// handshake exists (expired, evicted, or never started) or M.3 does not
    /// echo its shares; [`ProtocolError::DuplicateMessage`] on replay;
    /// [`ProtocolError::DecryptFailed`] when M.3 does not open under the
    /// session key. A corrupt confirmation leaves the pending state in place
    /// so an intact copy can still complete.
    pub fn handle_access_confirm(&mut self, confirm: &AccessConfirm, now: u64) -> Result<Session> {
        // The session id keys the table, so a hit is this session's state.
        let key = SessionId::from_points(&confirm.g_rr, &confirm.g_rj).to_bytes();
        self.completed_recent.expire(now);
        if self.completed_recent.contains(&key) {
            return Err(ProtocolError::DuplicateMessage);
        }
        self.pending_router.expire(now);
        let pending = self
            .pending_router
            .get(&key)
            .ok_or(ProtocolError::SessionMismatch)?;
        let plain = open_oneshot(&pending.dh_secret.to_bytes(), &key, &confirm.ciphertext)
            .map_err(|_| ProtocolError::DecryptFailed)?;
        // M.3 must echo (MR_k, g^{r_j}, g^{r_R}).
        let mut rd = Reader::new(&plain);
        let _router_id = rd.get_str()?;
        let g_rj_echo = rd.get_fixed(G1::ENCODED_LEN)?;
        let g_rr_echo = rd.get_fixed(G1::ENCODED_LEN)?;
        if g_rj_echo != pending.id.initiator_share.as_slice()
            || g_rr_echo != pending.id.responder_share.as_slice()
        {
            return Err(ProtocolError::SessionMismatch);
        }
        let session = Session::establish(&pending.dh_secret, pending.id.clone(), Role::Initiator);
        self.pending_router.remove(&key);
        self.completed_recent.insert(key, (), now);
        Ok(session)
    }

    // ------------------------------------------------------------------
    // User↔user protocol (§IV.C)
    // ------------------------------------------------------------------

    /// Initiates a peer handshake (M̃.1) using the generator `g` from the
    /// current service beacon, retaining the half-open state until
    /// [`Self::handle_peer_response`] or expiry.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::MissingCredential`] without a credential; a wire
    /// error when `g` is not a group element.
    pub fn start_peer_handshake(
        &mut self,
        g: &G1Wire,
        now: u64,
        rng: &mut impl RngCore,
    ) -> Result<PeerHello> {
        let cred = self.active_credential()?;
        let r_j = Fq::random_nonzero(rng);
        let g_rj = G1Wire::from(point(g, "peer1.g")?.mul(&r_j));
        let payload = PeerHello::signed_payload(g, &g_rj, now);
        let gsig = self.prepared_gpk.sign_as(
            &cred.key,
            &cred.e_a_g2,
            &payload,
            self.config.bases_mode,
            rng,
        );
        self.pending_peer_init
            .insert(g_rj.to_bytes(), (r_j, now), now);
        Ok(PeerHello {
            g: g.clone(),
            g_rj,
            ts1: now,
            gsig,
        })
    }

    /// Responder side: verifies M̃.1 and answers with M̃.2, retaining the
    /// half-open state until [`Self::handle_peer_confirm`] or expiry.
    ///
    /// # Errors
    ///
    /// Per §IV.C step 2: timestamp, group-signature, and URL checks.
    pub fn handle_peer_hello(
        &mut self,
        hello: &PeerHello,
        now: u64,
        rng: &mut impl RngCore,
    ) -> Result<PeerResponse> {
        let cred = self.active_credential()?;
        if now.saturating_sub(hello.ts1) > self.config.timestamp_window
            || hello.ts1.saturating_sub(now) > self.config.timestamp_window
        {
            return Err(ProtocolError::StaleTimestamp);
        }
        let payload = PeerHello::signed_payload(&hello.g, &hello.g_rj, hello.ts1);
        self.verify_and_check_peer(&payload, &hello.gsig)?;

        let r_l = Fq::random_nonzero(rng);
        let (g_rl, dh_secret) = share_and_secret(
            &point(&hello.g, "peer1.g")?,
            &point(&hello.g_rj, "peer1.g_rj")?,
            &r_l,
        );
        let g_rl = G1Wire::from(g_rl);
        let resp_payload = PeerResponse::signed_payload(&hello.g_rj, &g_rl, now);
        let gsig = self.prepared_gpk.sign_as(
            &cred.key,
            &cred.e_a_g2,
            &resp_payload,
            self.config.bases_mode,
            rng,
        );
        let id = SessionId::from_points(&hello.g_rj, &g_rl);
        let pending = PeerResponderPending {
            dh_secret,
            id,
            hello_ts: hello.ts1,
            resp_ts: now,
        };
        self.pending_peer_resp
            .insert(pending.id.to_bytes(), pending, now);
        Ok(PeerResponse {
            g_rj: hello.g_rj.clone(),
            g_rl,
            ts2: now,
            gsig,
        })
    }

    /// Initiator side: verifies M̃.2 against the retained half-open state
    /// and produces the confirmation M̃.3 plus the established session,
    /// idempotently (a replayed M̃.2 for an established session is
    /// rejected).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::DuplicateMessage`] on replay;
    /// [`ProtocolError::SessionMismatch`] when no matching half-open
    /// handshake exists — the state expires with the delay window, so this
    /// is also the answer once [`HANDSHAKE_WINDOW`] has passed; otherwise per
    /// §IV.C step 3: the `ts₂ − ts₁` delay-window check
    /// ([`ProtocolError::HandshakeTimeout`]), `ts₂`'s age, then the
    /// group-signature and URL checks.
    pub fn handle_peer_response(
        &mut self,
        resp: &PeerResponse,
        now: u64,
    ) -> Result<(PeerConfirm, Session)> {
        let id = SessionId::from_points(&resp.g_rj, &resp.g_rl);
        let done_key = id.to_bytes();
        self.completed_recent.expire(now);
        if self.completed_recent.contains(&done_key) {
            return Err(ProtocolError::DuplicateMessage);
        }
        let key = resp.g_rj.to_bytes();
        self.pending_peer_init.expire(now);
        let &(r_j, ts1) = self
            .pending_peer_init
            .get(&key)
            .ok_or(ProtocolError::SessionMismatch)?;
        if resp.ts2.saturating_sub(ts1) > HANDSHAKE_WINDOW {
            return Err(ProtocolError::HandshakeTimeout);
        }
        if now.saturating_sub(resp.ts2) > self.config.timestamp_window {
            return Err(ProtocolError::StaleTimestamp);
        }
        let payload = PeerResponse::signed_payload(&resp.g_rj, &resp.g_rl, resp.ts2);
        self.verify_and_check_peer(&payload, &resp.gsig)?;

        let dh_secret = point(&resp.g_rl, "peer2.g_rl")?.mul(&r_j);
        let mut confirm_payload = Writer::new();
        confirm_payload.put_fixed(resp.g_rj.as_bytes());
        confirm_payload.put_fixed(resp.g_rl.as_bytes());
        confirm_payload.put_u64(ts1);
        confirm_payload.put_u64(resp.ts2);
        let ciphertext = seal_oneshot(&dh_secret.to_bytes(), &done_key, confirm_payload.as_bytes());
        let session = Session::establish(&dh_secret, id, Role::Initiator);
        self.pending_peer_init.remove(&key);
        self.completed_recent.insert(done_key, (), now);
        Ok((
            PeerConfirm {
                g_rj: resp.g_rj.clone(),
                g_rl: resp.g_rl.clone(),
                ciphertext,
            },
            session,
        ))
    }

    /// Responder side: validates M̃.3 against the retained half-open state
    /// and finalizes the pairwise session, idempotently (a replayed M̃.3 is
    /// rejected with [`ProtocolError::DuplicateMessage`]).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::DuplicateMessage`] on replay;
    /// [`ProtocolError::SessionMismatch`] when no matching half-open
    /// handshake exists or M̃.3 does not echo its shares and timestamps;
    /// [`ProtocolError::DecryptFailed`] when it does not open under the
    /// session key. A corrupt M̃.3 leaves the pending state in place.
    pub fn handle_peer_confirm(&mut self, confirm: &PeerConfirm, now: u64) -> Result<Session> {
        let key = SessionId::from_points(&confirm.g_rj, &confirm.g_rl).to_bytes();
        self.completed_recent.expire(now);
        if self.completed_recent.contains(&key) {
            return Err(ProtocolError::DuplicateMessage);
        }
        self.pending_peer_resp.expire(now);
        let pending = self
            .pending_peer_resp
            .get(&key)
            .ok_or(ProtocolError::SessionMismatch)?;
        let plain = open_oneshot(&pending.dh_secret.to_bytes(), &key, &confirm.ciphertext)
            .map_err(|_| ProtocolError::DecryptFailed)?;
        let mut rd = Reader::new(&plain);
        let g_rj = rd.get_fixed(G1::ENCODED_LEN)?;
        let g_rl = rd.get_fixed(G1::ENCODED_LEN)?;
        let ts1 = rd.get_u64()?;
        let ts2 = rd.get_u64()?;
        if g_rj != pending.id.responder_share.as_slice()
            || g_rl != pending.id.initiator_share.as_slice()
            || ts1 != pending.hello_ts
            || ts2 != pending.resp_ts
        {
            return Err(ProtocolError::SessionMismatch);
        }
        let session = Session::establish(&pending.dh_secret, pending.id.clone(), Role::Responder);
        self.pending_peer_resp.remove(&key);
        self.completed_recent.insert(key, (), now);
        Ok(session)
    }

    /// Current number of half-open handshakes held across all tables.
    pub fn pending_handshakes(&self) -> usize {
        self.pending_router.len() + self.pending_peer_init.len() + self.pending_peer_resp.len()
    }

    /// The high-water mark of any single pending table (bounded-memory
    /// evidence for the chaos harness).
    pub fn pending_high_water(&self) -> usize {
        self.pending_router
            .high_water()
            .max(self.pending_peer_init.high_water())
            .max(self.pending_peer_resp.high_water())
    }

    /// Half-open entries shed by LRU pressure across all tables.
    pub fn pending_evictions(&self) -> u64 {
        self.pending_router.evictions()
            + self.pending_peer_init.evictions()
            + self.pending_peer_resp.evictions()
    }

    /// Drops every expired half-open handshake (periodic housekeeping).
    pub fn expire_pending(&mut self, now: u64) {
        self.pending_router.expire(now);
        self.pending_peer_init.expire(now);
        self.pending_peer_resp.expire(now);
        self.completed_recent.expire(now);
    }

    /// Peer group-signature verification plus URL revocation sweep, sharing
    /// one H₀ base derivation (§IV.C steps 2/3 checks).
    fn verify_and_check_peer(
        &self,
        payload: &[u8],
        gsig: &peace_groupsig::GroupSignature,
    ) -> Result<()> {
        let url: &[RevocationToken] = self
            .current_url
            .as_ref()
            .map(|held| held.url.tokens.as_slice())
            .unwrap_or(&[]);
        match self
            .prepared_gpk
            .verify_and_check(payload, gsig, url, self.config.bases_mode)
        {
            Err(_) => Err(ProtocolError::BadGroupSignature),
            Ok(Some(_)) => Err(ProtocolError::SignerRevoked),
            Ok(None) => Ok(()),
        }
    }
}

/// A responder's or an initiator's DH leg: its share `g^r` and the secret
/// `(g^{r_peer})^r`, as one lane group where the CPU has IFMA
/// ([`G1::mul_each`]) and two ladders elsewhere; two 𝔾₁ exponentiations
/// on the books either way.
fn share_and_secret(g: &G1, peer_share: &G1, r: &Fq) -> (G1, G1) {
    let pairs = [(*g, *r), (*peer_share, *r)];
    match G1::mul_each(&pairs) {
        Some(powers) => {
            pairs.iter().for_each(|_| peace_curve::ops::record_g1_mul());
            (powers[0], powers[1])
        }
        None => (g.mul(r), peer_share.mul(r)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::GroupId;
    use crate::setup::blind_a;
    use peace_groupsig::IssuerKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The two parts a user is handed for `key`, as GM and TTP would.
    fn parts(key: &MemberKey) -> (GmAssignment, TtpDelivery) {
        let index = ShareIndex {
            group: GroupId(1),
            slot: 0,
        };
        let gm = GmAssignment {
            index,
            grp: key.grp,
            x: key.x,
        };
        let ttp = TtpDelivery {
            index,
            blinded_a: blind_a(&key.a, &key.x),
        };
        (gm, ttp)
    }

    #[test]
    fn enroll_keeps_the_pairing_of_a_valid_key_and_refuses_any_other() {
        let mut rng = StdRng::seed_from_u64(24);
        let issuer = IssuerKey::generate(&mut rng);
        let gpk = *issuer.public_key();
        let grp = issuer.new_group_secret(&mut rng);
        let key = issuer.issue(&grp, &mut rng);
        let other = issuer.issue(&grp, &mut rng);
        let foreign_issuer = IssuerKey::generate(&mut rng);
        let foreign = foreign_issuer.issue(&grp, &mut rng);
        let npk = *SigningKey::random(&mut rng).verifying_key();
        let mut user = UserClient::new(
            UserId("alice".into()),
            gpk,
            npk,
            ProtocolConfig::default(),
            &mut rng,
        );

        let wrong_x = MemberKey { x: other.x, ..key };
        let wrong_a = MemberKey { a: other.a, ..key };
        for bad in [wrong_x, wrong_a, foreign] {
            assert!(!bad.is_valid_for(&gpk));
            let (gm, ttp) = parts(&bad);
            assert_eq!(
                user.enroll(&gm, &ttp),
                Err(ProtocolError::Setup("assembled gsk fails SDH check"))
            );
        }
        assert_eq!(user.credential_count(), 0);

        let (gm, ttp) = parts(&key);
        user.enroll(&gm, &ttp).unwrap();
        let cred = user.active_credential().unwrap();
        assert_eq!(cred.key, key);
        assert_eq!(cred.e_a_g2, peace_pairing::pairing(&key.a, &gpk.g2));

        // A new epoch drops the value with the credential it belongs to.
        user.install_epoch(*foreign_issuer.public_key());
        assert!(user.credentials.is_empty());
    }
}
