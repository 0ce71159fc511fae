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
//! The pairing stages read nothing that changes between list updates, so
//! the engine publishes them as an immutable view — the list at one
//! version, with the prefilter built over it — behind an `Arc` that is
//! replaced, never mutated, by [`RevocationEngine::install_full`],
//! [`RevocationEngine::apply_delta`] and [`RevocationEngine::install_gpk`].
//! A verifier shared behind a lock takes a [`RevocationCheck`] under it
//! ([`RevocationEngine::begin_check`]: the handle and the cache lookup),
//! runs the check with the lock released ([`RevocationCheck::run`]) and
//! hands it back ([`RevocationEngine::accept`]), where it counts only if
//! the view it ran against is, by `Arc` identity, still the one in force.
//! [`RevocationEngine::check_revocation`] is the same three steps in one
//! call for a caller that owns the engine.
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

/// The prefilter stage of a [`UrlView`]: present in fixed-bases mode with
/// the prefilter configured on.
#[derive(Clone)]
struct Prefilter {
    /// `H₀(gpk)` — the system-wide bases.
    bases: (G2, G2),
    filter: TokenPrefilter,
    /// Exact suspect resolution (token fingerprint → URL index), when
    /// [`EngineConfig::exact_suspect_map`] is on.
    exact: Option<HashMap<CacheKey, u32>>,
}

impl Prefilter {
    fn index(&mut self, token: &RevocationToken, idx: u32) {
        let fp = peace_hash::sha256(&pairing(&token.0, &self.bases.0).to_bytes());
        self.filter.insert(&fp);
        if let Some(exact) = &mut self.exact {
            exact.insert(fp, idx);
        }
    }
}

/// What identifies a work unit to the cache, and to the prefilter when it
/// is the linkable fingerprint.
#[derive(Clone, Copy)]
struct WorkKey {
    key: CacheKey,
    /// Whether `key` is `SHA-256(D)`, which the prefilter can test.
    is_fingerprint: bool,
}

/// The list an engine enforces at one version, and everything the pairing
/// stages read: immutable once published, shared by `Arc`, so a check runs
/// against it without the engine. Its identity (`Arc::ptr_eq`) stands for
/// "(gpk, epoch, version, tokens) unchanged".
struct UrlView {
    version: u64,
    tokens: Vec<RevocationToken>,
    prefilter: Option<Prefilter>,
    metrics: Arc<Metrics>,
}

impl UrlView {
    fn of(
        store: &EpochUrlStore,
        prefilter: Option<Prefilter>,
        metrics: &Arc<Metrics>,
    ) -> Arc<Self> {
        Arc::new(Self {
            version: store.version(),
            tokens: store.tokens().to_vec(),
            prefilter,
            metrics: Arc::clone(metrics),
        })
    }

    /// In fixed-bases mode with the prefilter armed, the key is the
    /// linkable `ê(A, û)` fingerprint (two Miller loops): repeat traffic
    /// from one key share hits regardless of message. Otherwise it is a
    /// digest of (msg, sig) — per-message bases keep signers unlinkable,
    /// so only literal retransmissions can hit, which is exactly what the
    /// retry-heavy channel produces.
    /// (A signature whose `D` is undefined — impossible once it has
    /// verified — takes the digest key and lets the sweep decide.)
    fn key(&self, msg: &[u8], sig: &GroupSignature) -> WorkKey {
        let d = self.prefilter.as_ref().and_then(|pf| {
            let (t1, t2) = sig.commitments().ok()?;
            pairing_ratio(&t2, &pf.bases.0, &t1, &pf.bases.1)
        });
        match d {
            Some(d) => WorkKey {
                key: peace_hash::sha256(&d.to_bytes()),
                is_fingerprint: true,
            },
            None => {
                let h = peace_hash::Sha256::new()
                    .chain(b"peace-revoke-cache-v1")
                    .chain(&(msg.len() as u64).to_be_bytes())
                    .chain(msg);
                WorkKey {
                    key: h.chain(&sig.to_bytes()).finalize(),
                    is_fingerprint: false,
                }
            }
        }
    }

    /// Prefilter → sweep for a work unit the cache does not know.
    fn decide(&self, key: &WorkKey, sig: &GroupSignature, u_hat: &G2, v_hat: &G2) -> Option<usize> {
        if let (true, Some(pf)) = (key.is_fingerprint, &self.prefilter) {
            if !pf.filter.contains(&key.key) {
                // Definitive: Bloom filters have no false negatives, so no
                // listed token's fingerprint equals this signature's.
                self.metrics.prefilter_reject.inc();
                return None;
            }
            self.metrics.prefilter_suspect.inc();
            if let Some(exact) = &pf.exact {
                return exact.get(&key.key).map(|&i| i as usize);
            }
        }
        let t0 = Instant::now();
        let verdict = revocation_sweep(sig, &self.tokens, u_hat, v_hat);
        self.metrics.sweeps.inc();
        let ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.metrics.sweep_us.record(ns / 1_000);
        self.metrics
            .sweep_token_ns
            .record(ns / self.tokens.len() as u64);
        verdict
    }
}

/// One work unit's passage through the revocation stage, in three steps of
/// which only the first and last need the engine (see the module docs).
pub struct RevocationCheck {
    view: Arc<UrlView>,
    /// The work unit's key, where [`RevocationEngine::begin_check`] derived
    /// it (a digest) and asked the cache under it.
    key: Option<WorkKey>,
    /// `Some` once decided — by the cache, an empty list, or [`Self::run`].
    verdict: Option<Option<usize>>,
}

impl RevocationCheck {
    /// Prefilter → sweep against the view taken at `begin`, unless the
    /// cache already answered. Needs the bases the Σ-check derived, and no
    /// engine.
    pub fn run(&mut self, msg: &[u8], sig: &GroupSignature, u_hat: &G2, v_hat: &G2) {
        if self.verdict.is_none() {
            let key = self.key.unwrap_or_else(|| self.view.key(msg, sig));
            self.verdict = Some(self.view.decide(&key, sig, u_hat, v_hat));
        }
    }
}

/// The list changed between [`RevocationEngine::begin_check`] and
/// [`RevocationEngine::accept`]: the check's verdict says nothing about
/// the list now in force.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ListChanged;

/// The staged revocation engine (see module docs).
pub struct RevocationEngine {
    cfg: EngineConfig,
    gpk: GroupPublicKey,
    store: EpochUrlStore,
    cache: SweepCache,
    /// `H₀(gpk)` — the system-wide bases; `Some` iff fixed-bases mode.
    fixed_bases: Option<(G2, G2)>,
    /// What [`Self::store`] holds, as the pairing stages read it.
    view: Arc<UrlView>,
    metrics: Arc<Metrics>,
}

impl std::fmt::Debug for RevocationEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RevocationEngine")
            .field("epoch", &self.store.epoch())
            .field("version", &self.store.version())
            .field("url_len", &self.store.len())
            .field("prefilter", &self.view.prefilter.is_some())
            .field("cache_len", &self.cache.len())
            .finish()
    }
}

impl RevocationEngine {
    /// Builds an engine for `gpk` with an empty URL at epoch 0.
    pub fn new(gpk: &GroupPublicKey, cfg: EngineConfig) -> Self {
        let store = EpochUrlStore::new(0);
        let metrics = Arc::new(Metrics::resolve());
        Self {
            cfg,
            gpk: *gpk,
            cache: SweepCache::new(cfg.cache_capacity),
            fixed_bases: (cfg.bases_mode == BasesMode::FixedBases)
                .then(|| h0_bases(gpk, &[], &Fq::ZERO, BasesMode::FixedBases)),
            view: UrlView::of(&store, None, &metrics),
            store,
            metrics,
        }
    }

    /// Installs a new group public key (epoch rotation): the fixed bases,
    /// every fingerprint, and the whole cache are derived from `gpk`, so
    /// all of them reset. Follow with [`Self::install_full`] for the new
    /// epoch's (empty) list, which is also what rebuilds the prefilter.
    pub fn install_gpk(&mut self, gpk: &GroupPublicKey) {
        self.gpk = *gpk;
        self.fixed_bases = (self.cfg.bases_mode == BasesMode::FixedBases)
            .then(|| h0_bases(gpk, &[], &Fq::ZERO, BasesMode::FixedBases));
        self.cache.clear();
        self.publish(None);
    }

    /// Replaces the full list (a bulletin fetch landing). Rebuilds the
    /// prefilter (one pairing per token — this is the expensive path the
    /// delta flow exists to avoid) and invalidates the cache.
    pub fn install_full(&mut self, epoch: u64, version: u64, tokens: &[RevocationToken]) {
        self.store.install_full(epoch, version, tokens);
        self.metrics.full_sync.inc();
        self.publish(self.fresh_prefilter());
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
                let prefilter = match &self.view.prefilter {
                    Some(current) if d.removed.is_empty() => {
                        let mut grown = current.clone();
                        // Index of each appended token = position in the store.
                        for t in &d.added {
                            if let Some(i) = self.store.tokens().iter().position(|x| x == t) {
                                grown.index(t, i as u32);
                            }
                        }
                        Some(grown)
                    }
                    _ => self.fresh_prefilter(),
                };
                self.publish(prefilter);
            }
        }
        Ok(outcome)
    }

    /// Whether the prefilter stage is armed (configured on *and* sound in
    /// the current bases mode).
    pub fn armed(&self) -> bool {
        self.cfg.prefilter && self.fixed_bases.is_some()
    }

    /// A prefilter over the store's list, if the stage is armed.
    fn fresh_prefilter(&self) -> Option<Prefilter> {
        let mut prefilter = Prefilter {
            bases: self.fixed_bases.filter(|_| self.cfg.prefilter)?,
            filter: TokenPrefilter::new(
                (self.store.len() * 2).max(64),
                self.cfg.prefilter_fp_target,
                self.cfg.prefilter_seed,
            ),
            exact: self.cfg.exact_suspect_map.then(HashMap::new),
        };
        for (i, t) in self.store.tokens().iter().enumerate() {
            prefilter.index(t, i as u32);
        }
        Some(prefilter)
    }

    /// Puts the store's list in force as a new view: every check begun
    /// against the old one is from here on a check against a list that is
    /// no longer enforced.
    fn publish(&mut self, prefilter: Option<Prefilter>) {
        self.view = UrlView::of(&self.store, prefilter, &self.metrics);
        self.cache.note_version(self.store.version());
    }

    /// What the cache remembers for `key` against the list in force.
    fn lookup(&self, key: &WorkKey) -> Option<Option<usize>> {
        let cached = self.cache.get(&key.key, self.view.version);
        match cached {
            Some(_) => self.metrics.cache_hit.inc(),
            None => self.metrics.cache_miss.inc(),
        }
        cached.map(|v| v.map(|x| x as usize))
    }

    fn remember(&mut self, key: &WorkKey, verdict: Option<usize>) {
        self.cache
            .insert(key.key, self.view.version, verdict.map(|x| x as u32));
    }

    /// First step of a check, for a caller that will run it elsewhere:
    /// takes the view in force and, where the work unit's key is a digest,
    /// asks the cache. With the prefilter armed the key costs two Miller
    /// loops, so [`RevocationCheck::run`] derives it and goes straight to
    /// the prefilter; a check taken in steps then leaves the cache alone.
    pub fn begin_check(&self, msg: &[u8], sig: &GroupSignature) -> RevocationCheck {
        let mut check = RevocationCheck {
            view: Arc::clone(&self.view),
            key: None,
            verdict: None,
        };
        if self.view.tokens.is_empty() {
            check.verdict = Some(None);
        } else if self.view.prefilter.is_none() {
            let key = self.view.key(msg, sig);
            check.verdict = self.lookup(&key);
            check.key = Some(key);
        }
        check
    }

    /// Last step: the verdict of a check that ran against the view still in
    /// force, remembered for the next copy of the same work unit.
    ///
    /// # Errors
    ///
    /// [`ListChanged`] if the list (or the key it is checked under) was
    /// replaced since [`Self::begin_check`] — or the check never ran:
    /// decide against the list in force with [`Self::check_revocation`].
    pub fn accept(&mut self, check: RevocationCheck) -> Result<Option<usize>, ListChanged> {
        if !Arc::ptr_eq(&check.view, &self.view) {
            return Err(ListChanged);
        }
        let verdict = check.verdict.ok_or(ListChanged)?;
        if let Some(key) = &check.key {
            self.remember(key, verdict);
        }
        Ok(verdict)
    }

    /// The revocation stages alone, for callers that already verified the
    /// signature and hold its H₀ bases (e.g. via
    /// [`PreparedGpk::verify_bases`](peace_groupsig::PreparedGpk::verify_bases)),
    /// against the list in force: cache → prefilter → sweep.
    pub fn check_revocation(
        &mut self,
        msg: &[u8],
        sig: &GroupSignature,
        u_hat: &G2,
        v_hat: &G2,
    ) -> Option<usize> {
        if self.view.tokens.is_empty() {
            return None;
        }
        let key = self.view.key(msg, sig);
        if let Some(verdict) = self.lookup(&key) {
            return verdict;
        }
        let verdict = self.view.decide(&key, sig, u_hat, v_hat);
        self.remember(&key, verdict);
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
        self.view
            .prefilter
            .as_ref()
            .map(|pf| pf.filter.estimated_fp_rate())
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }
}
