//! Mesh routers (`MR_k`): beacon generation and the router side of the
//! user↔router authentication and key agreement protocol (§IV.B).

use std::sync::Arc;

use peace_curve::{G1Encoded, G1Wire, G2Preimage, G1, G2};
use peace_ecdsa::{Certificate, SigningKey, VerifyingKey};
use peace_field::Fq;
use peace_groupsig::{BasesMode, PreparedGpk, VerifyError};
use peace_puzzle::Puzzle;
use peace_revoke::{DeltaOutcome, EngineConfig, ListChanged, RevocationCheck, RevocationEngine};
use peace_symmetric::seal_oneshot;
use peace_wire::Writer;
use rand::RngCore;

use crate::audit::LoggedSession;
use crate::config::ProtocolConfig;
use crate::error::{ProtocolError, Result};
use crate::ids::{RouterId, SessionId};
use crate::messages::{AccessConfirm, AccessRequest, Beacon};
use crate::pending::PendingTable;
use crate::revocation::{SignedCrl, SignedUrl, SignedUrlDelta, UrlSection};
use crate::session::{Role, Session};

/// Per-beacon DH state retained until the beacon expires (the expiry clock
/// lives in the [`PendingTable`] slot, not here).
#[derive(Clone, Debug)]
struct BeaconState {
    r_r: Fq,
    puzzle: Option<Puzzle>,
}

/// An access request (M.2) that passed the cheap §IV.B 3.1 gates
/// ([`MeshRouter::begin_access_request`]) and awaits its Σ-protocol check
/// and its revocation check. It holds the router's prepared key and the
/// revocation list in force by `Arc` and borrows nothing from the router,
/// so [`Self::verify`] — all of the request's pairing work — runs while
/// other requests begin and finish.
pub struct PendingAccess<'a> {
    req: &'a AccessRequest,
    state: BeaconState,
    payload: Vec<u8>,
    prepared: Arc<PreparedGpk>,
    mode: BasesMode,
    revocation: RevocationCheck,
}

impl<'a> PendingAccess<'a> {
    /// §IV.B 3.2 and 3.3: verifies the group signature, then checks an
    /// accepted signer against the revocation list that was in force at
    /// `begin`. Touches no router state.
    ///
    /// This is also where the request's points are validated — `g^{r_j}`,
    /// then `T₁` and `T₂` inside the Σ-check — after every gate that could
    /// refuse the request on its bytes alone. A point that is not a group
    /// element fails the check like any forgery.
    pub fn verify(mut self) -> CheckedAccess<'a> {
        let sigma = self.sigma();
        if let Ok((_, u_hat, v_hat)) = &sigma {
            self.revocation.run(&self.req.gsig, u_hat, v_hat);
        }
        CheckedAccess {
            sigma,
            pending: self,
        }
    }

    fn sigma(&self) -> std::result::Result<(G1, G2, G2Preimage), VerifyError> {
        let g_rj = self
            .req
            .g_rj
            .decompress()
            .map_err(VerifyError::InvalidPoint)?;
        let (u_hat, v_hat) =
            self.prepared
                .verify_bases(&self.payload, &self.req.gsig, self.mode)?;
        Ok((g_rj, u_hat, v_hat))
    }
}

/// A [`PendingAccess`] whose checks have run; redeemed by
/// [`MeshRouter::finish_access_request`].
pub struct CheckedAccess<'a> {
    pending: PendingAccess<'a>,
    /// The user's DH share and the H₀ bases the check derived (reused by
    /// admission and, if the list changed meanwhile, by the revocation
    /// stage), or why the request was refused.
    sigma: std::result::Result<(G1, G2, G2Preimage), VerifyError>,
}

/// The broadcast [`MeshRouter::current_beacon`] serves, and how many
/// sessions it has admitted.
struct HeldBeacon {
    beacon: Beacon,
    sessions: usize,
}

/// A mesh router.
pub struct MeshRouter {
    id: RouterId,
    signing: SigningKey,
    cert: Certificate,
    /// The epoch's gpk and its tables: the operator's handle, shared with
    /// every entity it was given to and every in-flight [`PendingAccess`];
    /// replaced, never mutated, by [`Self::install_epoch`].
    prepared_gpk: Arc<PreparedGpk>,
    npk: VerifyingKey,
    config: ProtocolConfig,
    crl: SignedCrl,
    /// Last *full* operator-signed URL — what beacons broadcast (users
    /// verify NO's signature over the complete list). Enforcement runs
    /// against [`Self::revocation`], which deltas advance between full
    /// refreshes.
    url: SignedUrl,
    /// [`Self::url`] encoded once, when it is installed: every beacon
    /// carries a copy of these bytes.
    url_section: UrlSection,
    /// The staged revocation engine: epoch-partitioned list, and a sweep
    /// cache or (fixed bases) a revocation table.
    revocation: RevocationEngine,
    /// Per-beacon DH state, bounded by `config.max_active_beacons` (LRU)
    /// and expired after `config.beacon_lifetime`.
    active_beacons: PendingTable<BeaconState>,
    /// The beacon [`Self::current_beacon`] broadcasts until it ages out:
    /// never one with a puzzle, and dropped whenever the CRL or URL it
    /// carries is replaced.
    held_beacon: Option<HeldBeacon>,
    /// Recently established session ids, each with the key of the beacon
    /// it was admitted on: a replayed M.2 must not mint a second session
    /// (idempotency under duplication/replay).
    recent_sessions: PendingTable<Vec<u8>>,
    under_attack: bool,
    manual_attack_mode: Option<bool>,
    recent_failures: std::collections::VecDeque<u64>,
    log_outbox: Vec<LoggedSession>,
    beacons_sent: u64,
}

impl std::fmt::Debug for MeshRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeshRouter")
            .field("id", &self.id)
            .field("serial", &self.cert.serial)
            .field("under_attack", &self.under_attack)
            .finish()
    }
}

impl MeshRouter {
    /// Assembles a provisioned router (see
    /// [`NetworkOperator::provision_router`](super::NetworkOperator::provision_router)).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: RouterId,
        signing: SigningKey,
        cert: Certificate,
        prepared_gpk: Arc<PreparedGpk>,
        npk: VerifyingKey,
        config: ProtocolConfig,
        epoch: u64,
        crl: SignedCrl,
        url: SignedUrl,
    ) -> Self {
        let mut revocation = RevocationEngine::new(
            prepared_gpk.gpk(),
            EngineConfig {
                bases_mode: config.bases_mode,
                ..EngineConfig::default()
            },
        );
        revocation.install_full(epoch, url.version, &url.tokens);
        Self {
            id,
            signing,
            cert,
            prepared_gpk,
            npk,
            config,
            crl,
            url_section: UrlSection::from(&url),
            url,
            revocation,
            active_beacons: PendingTable::new(config.max_active_beacons, config.beacon_lifetime),
            held_beacon: None,
            recent_sessions: PendingTable::new(
                config.max_active_beacons.saturating_mul(2),
                config.beacon_lifetime,
            ),
            under_attack: false,
            manual_attack_mode: None,
            recent_failures: std::collections::VecDeque::new(),
            log_outbox: Vec::new(),
            beacons_sent: 0,
        }
    }

    /// The router identifier `MR_k`.
    pub fn id(&self) -> &RouterId {
        &self.id
    }

    /// The router's certificate.
    pub fn cert(&self) -> &Certificate {
        &self.cert
    }

    /// The router's ECDSA signing key (certified by [`Self::cert`]) — used
    /// for M.3 confirmations and accountability-ledger checkpoints.
    pub fn signing_key(&self) -> &SigningKey {
        &self.signing
    }

    /// The protocol configuration this router runs under.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Forces DoS-defense mode on or off, overriding automatic detection.
    pub fn set_under_attack(&mut self, on: bool) {
        self.manual_attack_mode = Some(on);
        self.under_attack = on;
    }

    /// Returns control to the automatic flood detector.
    pub fn clear_attack_override(&mut self) {
        self.manual_attack_mode = None;
    }

    /// Whether DoS-defense mode is active.
    pub fn is_under_attack(&self) -> bool {
        self.under_attack
    }

    /// Records a verification failure and re-evaluates the suspected-attack
    /// state (sliding-window failure counting).
    fn record_failure(&mut self, now: u64) {
        self.recent_failures.push_back(now);
        self.refresh_attack_state(now);
    }

    fn refresh_attack_state(&mut self, now: u64) {
        let window = self.config.dos_window;
        while let Some(&t) = self.recent_failures.front() {
            if now.saturating_sub(t) > window {
                self.recent_failures.pop_front();
            } else {
                break;
            }
        }
        if let Some(forced) = self.manual_attack_mode {
            self.under_attack = forced;
        } else if self.config.dos_auto_defense {
            self.under_attack = self.recent_failures.len() >= self.config.dos_threshold;
        }
    }

    /// Installs fresh revocation lists pushed by NO over the pre-established
    /// secure channel (a full resync — the enforcement engine adopts the
    /// list and its sweep cache invalidates on any version change).
    pub fn update_lists(&mut self, crl: SignedCrl, url: SignedUrl) {
        self.crl = crl;
        self.revocation
            .install_full(self.revocation.epoch(), url.version, &url.tokens);
        self.set_url(url);
    }

    /// Installs the URL beacons carry. Like every list change (see
    /// [`Self::update_crl`]), it ends the held beacon, so the next poll
    /// carries the new list.
    fn set_url(&mut self, url: SignedUrl) {
        self.url_section = UrlSection::from(&url);
        self.url = url;
        self.held_beacon = None;
    }

    /// Installs a freshly-signed CRL alone, validating signature and
    /// freshness. The delta refresh path uses this: URL churn travels as
    /// an O(churn) diff, but beacons must still carry a CRL younger than
    /// `list_max_age` or every client rejects them as stale — and the
    /// CRL (revoked *routers*) is small enough to re-ship whole.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadCrlSignature`] / [`ProtocolError::StaleCrl`]
    /// from validation; version regressions are refused the same way the
    /// full bulletin path refuses them (the stored CRL is unchanged).
    pub fn update_crl(&mut self, crl: SignedCrl, now: u64) -> Result<()> {
        crl.validate(&self.npk, now, self.config.list_max_age)?;
        if crl.version < self.crl.version {
            return Err(ProtocolError::StaleCrl);
        }
        self.crl = crl;
        self.held_beacon = None;
        Ok(())
    }

    /// Adopts a detached URL freshness re-stamp: materializes a fresh
    /// [`SignedUrl`] from the engine's current token set plus the
    /// operator's O(1)-size canonical-order signature, and installs it
    /// as the list beacons carry. This is the delta refresh path's
    /// answer to beacon URL freshness — the full list never re-crosses
    /// the wire.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UrlDeltaChain`] when the re-stamp attests a
    /// version other than the engine's (caller should resync);
    /// [`ProtocolError::BadUrlSignature`] when the signature does not
    /// cover the engine's set; [`ProtocolError::StaleUrl`] on expiry.
    /// The stored URL is unchanged on any error.
    pub fn adopt_url_restamp(
        &mut self,
        restamp: &crate::revocation::UrlRestamp,
        now: u64,
    ) -> Result<()> {
        if restamp.version != self.revocation.url_version() {
            return Err(ProtocolError::UrlDeltaChain);
        }
        let url = restamp.into_signed_url(self.revocation.tokens());
        UrlSection::from(&url).validate(&self.npk, now, self.config.list_max_age)?;
        self.set_url(url);
        Ok(())
    }

    /// Applies an operator-signed delta-compressed URL diff — the
    /// O(churn) fast lane between full list refreshes. Validates the
    /// operator signature and freshness, then chains the diff onto the
    /// engine's list (a version advance invalidates the sweep cache).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadUrlSignature`] / [`ProtocolError::StaleUrl`]
    /// from validation, or [`ProtocolError::UrlDeltaChain`] when the diff
    /// does not chain onto the local state — the caller falls back to a
    /// full fetch ([`Self::update_lists`]); the engine is unchanged.
    pub fn apply_url_delta(&mut self, signed: &SignedUrlDelta, now: u64) -> Result<DeltaOutcome> {
        signed.validate(&self.npk, now, self.config.list_max_age)?;
        self.revocation
            .apply_delta(&signed.delta)
            .map_err(|_| ProtocolError::UrlDeltaChain)
    }

    /// The staged revocation engine (observability: URL version, cache
    /// fill).
    pub fn revocation(&self) -> &RevocationEngine {
        &self.revocation
    }

    /// Installs a new-epoch group public key (after
    /// [`NetworkOperator::rotate_system_key`](super::NetworkOperator::rotate_system_key)):
    /// the operator's [`prepared_gpk`](super::NetworkOperator::prepared_gpk)
    /// handle, or the bare key, which is then prepared here.
    /// All pending beacon DH state is dropped: in-flight handshakes from
    /// the old epoch cannot complete against the new key.
    pub fn install_epoch(
        &mut self,
        gpk: impl Into<Arc<PreparedGpk>>,
        crl: SignedCrl,
        url: SignedUrl,
    ) {
        self.prepared_gpk = gpk.into();
        self.crl = crl;
        // New epoch partition: fixed bases, table, and cache all derive
        // from the gpk and reset with it.
        let epoch = self.revocation.epoch() + 1;
        self.revocation.install_gpk(self.prepared_gpk.gpk());
        self.revocation
            .install_full(epoch, url.version, &url.tokens);
        self.set_url(url);
        self.active_beacons.clear();
        self.recent_sessions.clear();
    }

    /// The URL currently broadcast by this router.
    pub fn current_url(&self) -> &SignedUrl {
        &self.url
    }

    /// The beacon (M.1) to broadcast at `now` (§IV.B: one beacon, answered
    /// by every user in range). That is the last one this method minted
    /// while:
    ///
    /// * it is younger than half the timestamp window — so a user still
    ///   has the other half for clock skew — and than half the beacon
    ///   lifetime, so its DH state outlives the M.2 round trip;
    /// * its DH state is live;
    /// * it has admitted fewer than `max_active_beacons` sessions, so the
    ///   replay records of its sessions and its predecessor's all fit in
    ///   the idempotency table (see [`Self::finish_access_request`]);
    /// * the router is not under attack, and its CRL and URL are the ones
    ///   in force.
    ///
    /// Otherwise a fresh one from [`Self::beacon`]. Under attack every poll
    /// mints, each beacon with its own puzzle, and none is held.
    pub fn current_beacon(&mut self, now: u64, rng: &mut impl RngCore) -> Beacon {
        self.prune_beacons(now);
        self.refresh_attack_state(now);
        let hold_for = self
            .config
            .timestamp_window
            .min(self.config.beacon_lifetime)
            / 2;
        if let Some(held) = &self.held_beacon {
            if !self.under_attack
                && now.abs_diff(held.beacon.ts1) < hold_for
                && held.sessions < self.config.max_active_beacons
                && self.active_beacons.contains(held.beacon.g_rr.as_bytes())
            {
                return held.beacon.clone();
            }
        }
        let beacon = self.beacon(now, rng);
        self.held_beacon = beacon.puzzle.is_none().then(|| HeldBeacon {
            beacon: beacon.clone(),
            sessions: 0,
        });
        beacon
    }

    /// Mints a beacon (M.1) at time `now`, creating fresh DH state.
    pub fn beacon(&mut self, now: u64, rng: &mut impl RngCore) -> Beacon {
        self.prune_beacons(now);
        self.refresh_attack_state(now);
        self.beacons_sent += 1;
        // g = G^k as `G1::random` draws it, and g^{r_R} = G^{k·r_R}: both
        // from the generator's comb table, no ladder over a fresh base.
        let k = Fq::random_nonzero(rng);
        let r_r = Fq::random_nonzero(rng);
        let g = G1::mul_generator(&k);
        let g_rr = G1::mul_generator(&k.mul(&r_r));
        let sig = self.signing.sign(&Beacon::signed_payload(&g, &g_rr, now));
        let puzzle = if self.under_attack {
            let mut seed = Writer::new();
            seed.put_str(&self.id.0);
            seed.put_u64(now);
            seed.put_fixed(&g_rr.g1_bytes());
            Some(Puzzle::new(
                seed.as_bytes(),
                self.config.puzzle_params.0,
                self.config.puzzle_params.1,
            ))
        } else {
            None
        };
        self.active_beacons.insert(
            g_rr.to_bytes(),
            BeaconState {
                r_r,
                puzzle: puzzle.clone(),
            },
            now,
        );
        Beacon {
            g: g.into(),
            g_rr: g_rr.into(),
            ts1: now,
            sig,
            cert: self.cert.clone(),
            crl: self.crl.clone(),
            url: self.url_section.clone(),
            puzzle,
        }
    }

    fn prune_beacons(&mut self, now: u64) {
        self.active_beacons.expire(now);
        self.recent_sessions.expire(now);
    }

    /// Processes an access request (M.2), authenticating the anonymous user
    /// (§IV.B step 3). On success returns the confirmation (M.3) and the
    /// established session, and logs the request for NO's audit.
    ///
    /// This is [`Self::begin_access_request`] → [`PendingAccess::verify`] →
    /// [`Self::finish_access_request`] in one call, for callers that own
    /// the router outright. A caller sharing the router behind a lock takes
    /// the three steps itself and holds the lock only for the first and
    /// last, neither of which runs a pairing.
    ///
    /// # Errors
    ///
    /// Every §IV.B check maps to a distinct [`ProtocolError`].
    pub fn process_access_request(
        &mut self,
        req: &AccessRequest,
        now: u64,
    ) -> Result<(AccessConfirm, Session)> {
        let checked = self.begin_access_request(req, now)?.verify();
        self.finish_access_request(checked, now)
    }

    /// Processes a burst of access requests (M.2) that are in flight
    /// together: all of them begin before any is verified, then each is
    /// verified and finished in input order. `out[i]` corresponds to
    /// `reqs[i]`. A copy of an earlier request in the burst thus passes the
    /// replay gate and is refused at admission, exactly as when two
    /// connections deliver the same M.2 at once.
    pub fn process_access_requests(
        &mut self,
        reqs: &[AccessRequest],
        now: u64,
    ) -> Vec<Result<(AccessConfirm, Session)>> {
        let begun: Vec<_> = reqs
            .iter()
            .map(|req| self.begin_access_request(req, now))
            .collect();
        begun
            .into_iter()
            .map(|pending| self.finish_access_request(pending?.verify(), now))
            .collect()
    }

    /// First router-state step of an access request: the cheap §IV.B 3.1
    /// gates — beacon correlation, timestamp freshness, replay idempotency
    /// and, in DoS-defense mode, the client puzzle, which is thereby checked
    /// *before* any pairing operation (the §V.A ordering that makes floods
    /// cheap to shed) — then takes the revocation list in force by handle
    /// and asks the sweep cache about this request's bytes. Every step here
    /// reads bytes: no point of the request is decompressed, and no group
    /// operation runs, until [`PendingAccess::verify`].
    ///
    /// # Errors
    ///
    /// The gate that refused the request.
    pub fn begin_access_request<'a>(
        &mut self,
        req: &'a AccessRequest,
        now: u64,
    ) -> Result<PendingAccess<'a>> {
        // 3.1 freshness and beacon correlation
        let state = self
            .active_beacons
            .get(&req.g_rr.to_bytes())
            .cloned()
            .ok_or(ProtocolError::UnknownBeacon)?;
        if now.saturating_sub(req.ts2) > self.config.timestamp_window
            || req.ts2.saturating_sub(now) > self.config.timestamp_window
        {
            return Err(ProtocolError::StaleTimestamp);
        }
        // Idempotency: a duplicated/replayed M.2 (same DH shares) must not
        // mint a second session — rejected before any expensive crypto.
        let session_key = SessionId::from_points(&req.g_rr, &req.g_rj).to_bytes();
        self.recent_sessions.expire(now);
        if self.recent_sessions.contains(&session_key) {
            return Err(ProtocolError::DuplicateMessage);
        }
        // DoS defense: cheap check first. Under attack, a beacon minted
        // before the attack (it has no puzzle) admits no one: its holder
        // polls again and gets a puzzle.
        self.refresh_attack_state(now);
        match &state.puzzle {
            Some(puzzle) => {
                let solution = req
                    .puzzle_solution
                    .as_ref()
                    .ok_or(ProtocolError::PuzzleRequired)?;
                if !puzzle.verify(solution) {
                    return Err(ProtocolError::PuzzleInvalid);
                }
            }
            None if self.under_attack => return Err(ProtocolError::PuzzleRequired),
            None => {}
        }
        let payload = AccessRequest::signed_payload(&req.g_rj, &req.g_rr, req.ts2);
        Ok(PendingAccess {
            req,
            state,
            revocation: self.revocation.begin_check(&payload, &req.gsig),
            payload,
            prepared: Arc::clone(&self.prepared_gpk),
            mode: self.config.bases_mode,
        })
    }

    /// Second router-state step: acts on the verdicts. A refused signature
    /// is evidence for the §V.A flood detector; an accepted one is admitted
    /// (3.4) unless its signer is revoked (§IV.B 3.3) **on the list in
    /// force now**. That is the revocation verdict `verify` reached if the
    /// list is still the one it was reached against; if a list update
    /// landed in between — minutes apart in deployment — the request is
    /// checked again here, against the new list. Requests may finish in any
    /// order relative to how they began.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadGroupSignature`], [`ProtocolError::SignerRevoked`],
    /// [`ProtocolError::DuplicateMessage`] if the same M.2 finished first,
    /// and [`ProtocolError::UnknownBeacon`] if [`Self::install_epoch`] ran
    /// since `begin`: it dropped the request's beacon state, so the request
    /// gets what it would have got arriving after the rotation, and a
    /// verdict reached under the retired key is never acted on.
    pub fn finish_access_request(
        &mut self,
        checked: CheckedAccess<'_>,
        now: u64,
    ) -> Result<(AccessConfirm, Session)> {
        let CheckedAccess { pending, sigma } = checked;
        if !Arc::ptr_eq(&pending.prepared, &self.prepared_gpk) {
            return Err(ProtocolError::UnknownBeacon);
        }
        let Ok((g_rj, u_hat, v_hat)) = sigma else {
            self.record_failure(now);
            return Err(ProtocolError::BadGroupSignature);
        };
        let revoked = match self.revocation.accept(pending.revocation) {
            Ok(verdict) => verdict,
            Err(ListChanged) => self.revocation.check_revocation(
                &pending.payload,
                &pending.req.gsig,
                &u_hat,
                &v_hat,
            ),
        };
        if revoked.is_some() {
            return Err(ProtocolError::SignerRevoked);
        }
        self.admit_access_request(pending.req, &g_rj, &pending.state, pending.payload, now)
    }

    /// §IV.B 3.4 for an authenticated request: derives the session key,
    /// mints M.3, and logs the transcript for NO's audit. Re-checks the
    /// idempotency table so the same M.2 begun twice cannot mint two
    /// sessions.
    fn admit_access_request(
        &mut self,
        req: &AccessRequest,
        g_rj: &G1,
        state: &BeaconState,
        payload: Vec<u8>,
        now: u64,
    ) -> Result<(AccessConfirm, Session)> {
        let session_id = SessionId::from_points(&req.g_rr, &req.g_rj);
        let session_key = session_id.to_bytes();
        if self.recent_sessions.contains(&session_key) {
            return Err(ProtocolError::DuplicateMessage);
        }
        // 3.4 session key and confirmation
        let dh_secret = g_rj.mul(&state.r_r);
        let session = Session::establish(&dh_secret, session_id.clone(), Role::Responder);
        // A replay record must live as long as its beacon's DH state, or a
        // replayed M.2 would pass the gate and be verified and admitted
        // again. So when the table sheds a record, the beacon goes with
        // it, and the replay is `UnknownBeacon`. A held beacon is retired
        // after `max_active_beacons` sessions, half the table, so unless
        // sessions pile up on older beacons, what this drops is a beacon
        // no longer broadcast.
        let beacon_key = req.g_rr.to_bytes();
        if let Some((_, evicted)) = self.recent_sessions.insert(session_key, beacon_key, now) {
            self.active_beacons.remove(&evicted);
        }
        if let Some(held) = self
            .held_beacon
            .as_mut()
            .filter(|held| held.beacon.g_rr == req.g_rr)
        {
            held.sessions += 1;
        }
        let mut confirm_payload = Writer::new();
        confirm_payload.put_str(&self.id.0);
        confirm_payload.put_fixed(req.g_rj.as_bytes());
        confirm_payload.put_fixed(req.g_rr.as_bytes());
        let ciphertext = seal_oneshot(
            &dh_secret.to_bytes(),
            &session_id.to_bytes(),
            confirm_payload.as_bytes(),
        );
        // Log M.2 for audit (§IV.D step 1).
        self.log_outbox.push(LoggedSession {
            session_id,
            signed_payload: payload,
            gsig: req.gsig.clone(),
            established_at: now,
        });
        Ok((
            AccessConfirm {
                g_rj: req.g_rj.clone(),
                g_rr: req.g_rr.clone(),
                ciphertext,
            },
            session,
        ))
    }

    /// Drains the session log (router → NO reporting).
    pub fn drain_log(&mut self) -> Vec<LoggedSession> {
        std::mem::take(&mut self.log_outbox)
    }

    /// Puts drained log entries back at the front of the outbox — used when
    /// a report to NO fails in flight, so transcripts are never lost.
    pub fn requeue_log(&mut self, entries: Vec<LoggedSession>) {
        let tail = std::mem::replace(&mut self.log_outbox, entries);
        self.log_outbox.extend(tail);
    }

    /// Bounds the pending transcript outbox to `cap` entries by dropping
    /// the *oldest* (front) overflow, returning how many were dropped.
    /// Applied after a failed report requeue so a long NO outage trades
    /// the stalest evidence away instead of growing router memory without
    /// limit.
    pub fn cap_log(&mut self, cap: usize) -> usize {
        let over = self.log_outbox.len().saturating_sub(cap);
        if over > 0 {
            self.log_outbox.drain(..over);
        }
        over
    }

    /// Number of transcripts waiting to be reported to NO.
    pub fn pending_log_len(&self) -> usize {
        self.log_outbox.len()
    }

    /// Total beacons minted (serving the held beacon again mints none).
    pub fn beacons_sent(&self) -> u64 {
        self.beacons_sent
    }

    /// Number of live beacon DH states.
    pub fn active_beacon_count(&self) -> usize {
        self.active_beacons.len()
    }

    /// Test/simulation helper: forget the DH state of a beacon, as if it
    /// expired early.
    pub fn forget_beacon(&mut self, g_rr: &G1Wire) {
        self.active_beacons.remove(&g_rr.to_bytes());
    }

    /// High-water mark across the router's bounded pending-state tables
    /// (chaos-harness observability: proves state stayed bounded).
    pub fn pending_state_high_water(&self) -> usize {
        self.active_beacons
            .high_water()
            .max(self.recent_sessions.high_water())
    }

    /// LRU evictions across the router's bounded pending-state tables.
    pub fn pending_evictions(&self) -> u64 {
        self.active_beacons.evictions() + self.recent_sessions.evictions()
    }

    /// The prepared gpk this router verifies under.
    pub fn prepared_gpk(&self) -> &Arc<PreparedGpk> {
        &self.prepared_gpk
    }

    /// Verification key of NO as known to this router.
    pub fn npk(&self) -> &VerifyingKey {
        &self.npk
    }
}
