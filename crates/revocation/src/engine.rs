//! The staged revocation engine: cache → prefilter → shared-Miller sweep.
//!
//! One engine lives inside each verifier (mesh router) and owns the three
//! scalability layers over the paper's Eq.3 check:
//!
//! 1. **Sweep cache** ([`SweepCache`]) — a repeat work unit at an
//!    unchanged URL version returns its remembered verdict without any
//!    pairing work. Any version bump clears the cache wholesale.
//! 2. **Bloom prefilter** ([`TokenPrefilter`]) — fixed-bases mode only
//!    (per-message bases make signatures *unlinkable* to tokens without
//!    pairing against each one, which is the paper's privacy point; no
//!    sound sub-O(|URL|) prefilter can exist there). A signature exposes
//!    `D = ê(T₂, û)/ê(T₁, v̂) = ê(A, û)` in two Miller loops; if
//!    `SHA-256(D)` misses the filter the signer is **provably** not on
//!    the URL. Hits resolve through an exact fingerprint map (or the
//!    sweep when the map is disabled to save memory).
//! 3. **Shared-Miller sweep** — the `n + 1` Miller-loop fallback (`n` of
//!    them evaluations against one line table prepared for `û`).
//!
//! The engine's verdicts are byte-for-byte what
//! [`PreparedGpk::verify_and_check`](peace_groupsig::PreparedGpk::verify_and_check)
//! returns — the layers change the schedule, never the decision (the
//! equivalence tests pin this).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use peace_curve::G2;
use peace_field::Fq;
use peace_groupsig::{
    h0_bases, revocation_sweep, BasesMode, GroupPublicKey, GroupSignature, RevocationToken,
};
use peace_pairing::{pairing, pairing_ratio};
use peace_telemetry::{Counter, Histogram};

use crate::cache::{CacheKey, SweepCache};
use crate::prefilter::TokenPrefilter;
use crate::store::{DeltaError, DeltaOutcome, EpochUrlStore, UrlDelta};

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Bases mode the verifier runs in. The prefilter only arms in
    /// [`BasesMode::FixedBases`].
    pub bases_mode: BasesMode,
    /// Arm the Bloom prefilter (fixed-bases mode only; ignored in
    /// per-message mode, where it would be unsound).
    pub prefilter: bool,
    /// Target false-positive rate the filter is sized for.
    pub prefilter_fp_target: f64,
    /// Seed for the filter's keyed index derivation (per-deployment, so
    /// adversaries cannot precompute colliding fingerprints).
    pub prefilter_seed: u64,
    /// Keep an exact `fingerprint → index` map so prefilter hits resolve
    /// in O(1) instead of a sweep. Costs 36 bytes per URL token.
    pub exact_suspect_map: bool,
    /// Sweep-cache capacity in entries (0 disables the cache).
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            bases_mode: BasesMode::PerMessage,
            prefilter: false,
            prefilter_fp_target: 1e-3,
            prefilter_seed: 0x9E3C_E17E_5EED,
            exact_suspect_map: true,
            cache_capacity: 4096,
        }
    }
}

/// Telemetry handles resolved once at engine construction (the process
/// registry interns by name, so every engine shares the same series).
struct Metrics {
    cache_hit: Arc<Counter>,
    cache_miss: Arc<Counter>,
    prefilter_reject: Arc<Counter>,
    prefilter_suspect: Arc<Counter>,
    sweeps: Arc<Counter>,
    delta_applied: Arc<Counter>,
    delta_dup: Arc<Counter>,
    full_sync: Arc<Counter>,
    sweep_us: Arc<Histogram>,
    sweep_token_ns: Arc<Histogram>,
}

impl Metrics {
    fn resolve() -> Self {
        let r = peace_telemetry::global();
        Self {
            cache_hit: r.counter("revoke.cache_hit"),
            cache_miss: r.counter("revoke.cache_miss"),
            prefilter_reject: r.counter("revoke.prefilter_reject"),
            prefilter_suspect: r.counter("revoke.prefilter_suspect"),
            sweeps: r.counter("revoke.sweeps"),
            delta_applied: r.counter("revoke.delta_applied"),
            delta_dup: r.counter("revoke.delta_dup"),
            full_sync: r.counter("revoke.full_sync"),
            sweep_us: r.histogram("revoke.sweep_us"),
            sweep_token_ns: r.histogram("revoke.sweep_token_ns"),
        }
    }
}

/// The staged revocation engine (see module docs).
pub struct RevocationEngine {
    cfg: EngineConfig,
    gpk: GroupPublicKey,
    store: EpochUrlStore,
    cache: SweepCache,
    /// `H₀(gpk)` — the system-wide bases; `Some` iff fixed-bases mode.
    fixed_bases: Option<(G2, G2)>,
    prefilter: Option<TokenPrefilter>,
    /// Exact suspect resolution: token fingerprint → URL index.
    exact: HashMap<CacheKey, u32>,
    metrics: Metrics,
}

impl std::fmt::Debug for RevocationEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RevocationEngine")
            .field("epoch", &self.store.epoch())
            .field("version", &self.store.version())
            .field("url_len", &self.store.len())
            .field("prefilter", &self.prefilter.is_some())
            .field("cache_len", &self.cache.len())
            .finish()
    }
}

impl RevocationEngine {
    /// Builds an engine for `gpk` with an empty URL at epoch 0.
    pub fn new(gpk: &GroupPublicKey, cfg: EngineConfig) -> Self {
        let fixed_bases = (cfg.bases_mode == BasesMode::FixedBases)
            .then(|| h0_bases(gpk, &[], &Fq::ZERO, BasesMode::FixedBases));
        Self {
            cfg,
            gpk: *gpk,
            store: EpochUrlStore::new(0),
            cache: SweepCache::new(cfg.cache_capacity),
            fixed_bases,
            prefilter: None,
            exact: HashMap::new(),
            metrics: Metrics::resolve(),
        }
    }

    /// Installs a new group public key (epoch rotation): the fixed bases,
    /// every fingerprint, and the whole cache are derived from `gpk`, so
    /// all of them reset. Follow with [`Self::install_full`] for the new
    /// epoch's (empty) list.
    pub fn install_gpk(&mut self, gpk: &GroupPublicKey) {
        self.gpk = *gpk;
        self.fixed_bases = (self.cfg.bases_mode == BasesMode::FixedBases)
            .then(|| h0_bases(gpk, &[], &Fq::ZERO, BasesMode::FixedBases));
        self.prefilter = None;
        self.exact.clear();
        self.cache.clear();
    }

    /// Replaces the full list (a bulletin fetch landing). Rebuilds the
    /// prefilter (one pairing per token — this is the expensive path the
    /// delta flow exists to avoid) and invalidates the cache.
    pub fn install_full(&mut self, epoch: u64, version: u64, tokens: &[RevocationToken]) {
        self.store.install_full(epoch, version, tokens);
        self.metrics.full_sync.inc();
        self.rebuild_prefilter();
        self.cache.note_version(self.store.version());
    }

    /// Applies a delta-compressed diff. On success, added tokens join the
    /// prefilter incrementally (one pairing each); removals force a filter
    /// rebuild (Bloom bits cannot be cleared). The cache invalidates on
    /// any version advance.
    ///
    /// # Errors
    ///
    /// [`DeltaError`] when the diff does not chain — the caller falls back
    /// to a full fetch; the engine state is unchanged.
    pub fn apply_delta(&mut self, d: &UrlDelta) -> Result<DeltaOutcome, DeltaError> {
        let outcome = self.store.apply_delta(d)?;
        match outcome {
            DeltaOutcome::AlreadyCurrent => self.metrics.delta_dup.inc(),
            DeltaOutcome::Applied => {
                self.metrics.delta_applied.inc();
                if !d.removed.is_empty() {
                    self.rebuild_prefilter();
                } else if self.armed() {
                    // Index of each appended token = position in the store.
                    for t in &d.added {
                        if let Some(i) = self.store.tokens().iter().position(|x| x == t) {
                            self.index_token(t, i as u32);
                        }
                    }
                }
                self.cache.note_version(self.store.version());
            }
        }
        Ok(outcome)
    }

    /// Whether the prefilter stage is armed (configured on *and* sound in
    /// the current bases mode).
    pub fn armed(&self) -> bool {
        self.cfg.prefilter && self.fixed_bases.is_some()
    }

    fn index_token(&mut self, token: &RevocationToken, idx: u32) {
        let Some((u_hat, _)) = &self.fixed_bases else {
            return;
        };
        let fp = peace_hash::sha256(&pairing(&token.0, u_hat).to_bytes());
        if let Some(pf) = &mut self.prefilter {
            pf.insert(&fp);
        }
        if self.cfg.exact_suspect_map {
            self.exact.insert(fp, idx);
        }
    }

    fn rebuild_prefilter(&mut self) {
        self.exact.clear();
        if !self.armed() {
            self.prefilter = None;
            return;
        }
        let expected = (self.store.len() * 2).max(64);
        self.prefilter = Some(TokenPrefilter::new(
            expected,
            self.cfg.prefilter_fp_target,
            self.cfg.prefilter_seed,
        ));
        let tokens: Vec<RevocationToken> = self.store.tokens().to_vec();
        for (i, t) in tokens.iter().enumerate() {
            self.index_token(t, i as u32);
        }
    }

    /// The revocation stages alone, for callers that already verified the
    /// signature and hold its H₀ bases (e.g. via
    /// [`PreparedGpk::verify_bases`](peace_groupsig::PreparedGpk::verify_bases)).
    pub fn check_revocation(
        &mut self,
        msg: &[u8],
        sig: &GroupSignature,
        u_hat: &G2,
        v_hat: &G2,
    ) -> Option<usize> {
        if self.store.is_empty() {
            return None;
        }
        let version = self.store.version();
        // In fixed-bases mode with the prefilter armed, the cache key is
        // the linkable `ê(A, û)` fingerprint: repeat traffic from one key
        // share hits regardless of message. Otherwise it is a digest of
        // (msg, sig) — per-message bases keep signers unlinkable, so only
        // literal retransmissions can hit, which is exactly what the
        // retry-heavy channel produces.
        // (A signature whose `D` is undefined — impossible once it has
        // verified — takes the digest key and lets the sweep decide.)
        let d = match (&self.prefilter, &self.fixed_bases) {
            (Some(_), Some((fu, fv))) => sig
                .commitments()
                .ok()
                .and_then(|(t1, t2)| pairing_ratio(&t2, fu, &t1, fv)),
            _ => None,
        };
        let (key, d_fp) = match d {
            Some(d) => {
                let fp = peace_hash::sha256(&d.to_bytes());
                (fp, Some(fp))
            }
            None => {
                let h = peace_hash::Sha256::new()
                    .chain(b"peace-revoke-cache-v1")
                    .chain(&(msg.len() as u64).to_be_bytes())
                    .chain(msg);
                (h.chain(&sig.to_bytes()).finalize(), None)
            }
        };
        if let Some(v) = self.cache.get(&key, version) {
            self.metrics.cache_hit.inc();
            return v.map(|x| x as usize);
        }
        self.metrics.cache_miss.inc();
        if let (Some(fp), Some(pf)) = (d_fp, &self.prefilter) {
            if !pf.contains(&fp) {
                // Definitive: Bloom filters have no false negatives, so no
                // listed token's fingerprint equals this signature's.
                self.metrics.prefilter_reject.inc();
                self.cache.insert(key, version, None);
                return None;
            }
            self.metrics.prefilter_suspect.inc();
            if self.cfg.exact_suspect_map {
                let verdict = self.exact.get(&fp).map(|&i| i as usize);
                self.cache.insert(key, version, verdict.map(|x| x as u32));
                return verdict;
            }
        }
        let t0 = Instant::now();
        let verdict = revocation_sweep(sig, self.store.tokens(), u_hat, v_hat);
        self.metrics.sweeps.inc();
        let ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.metrics.sweep_us.record(ns / 1_000);
        self.metrics
            .sweep_token_ns
            .record(ns / self.store.len() as u64);
        self.cache.insert(key, version, verdict.map(|x| x as u32));
        verdict
    }

    /// Current URL version.
    pub fn url_version(&self) -> u64 {
        self.store.version()
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// |URL| this engine enforces.
    pub fn url_len(&self) -> usize {
        self.store.len()
    }

    /// The enforced token list.
    pub fn tokens(&self) -> &[RevocationToken] {
        self.store.tokens()
    }

    /// Order-insensitive list fingerprint (see
    /// [`EpochUrlStore::digest`]).
    pub fn digest(&self) -> [u8; 32] {
        self.store.digest()
    }

    /// Live sweep-cache entries (observability).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// The URL version the sweep cache is valid against.
    pub fn cache_version(&self) -> u64 {
        self.cache.version()
    }

    /// Estimated prefilter false-positive rate, if armed.
    pub fn prefilter_fp_rate(&self) -> Option<f64> {
        self.prefilter
            .as_ref()
            .map(TokenPrefilter::estimated_fp_rate)
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }
}
