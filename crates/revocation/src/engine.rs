//! The staged revocation engine: cache → table | sweep.
//!
//! One engine lives inside each verifier (mesh router) and runs the
//! paper's Eq.3 check in one of two shapes, fixed by the bases mode:
//!
//! * **Per-message bases** (the paper's default): a signature links to a
//!   token only by pairing against it, so a new work unit pays the
//!   shared-Miller sweep — `n + 1` Miller loops, `n` of them evaluations
//!   against one line table prepared for `û`. The [`SweepCache`] in front
//!   of it returns a repeat work unit's remembered verdict at an unchanged
//!   URL version without any pairing work; any version bump clears it.
//! * **Fixed bases** (§V.C): every check is one lookup in a
//!   [`RevocationTable`] — `D = ê(T₂, û)/ê(T₁, v̂) = ê(A, û)` in two Miller
//!   loops and one final exponentiation, whatever |URL|. The cache is
//!   not consulted: its key would cost the same two Miller loops.
//!
//! The pairing stages read nothing that changes between list updates, so
//! the engine publishes them as an immutable view — the list at one
//! version, with its table in fixed-bases mode — behind an `Arc` that is
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
//! returns — the stages change the schedule, never the decision (the
//! equivalence tests pin this).

use std::sync::Arc;
use std::time::Instant;

use peace_curve::G2;
use peace_groupsig::{
    revocation_sweep, BasesMode, GroupPublicKey, GroupSignature, RevocationTable, RevocationToken,
};
use peace_pairing::G2Arg;
use peace_telemetry::{Counter, Histogram};

use crate::cache::{CacheKey, SweepCache};
use crate::store::{DeltaError, DeltaOutcome, EpochUrlStore, UrlDelta};

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Bases mode the verifier runs in: [`BasesMode::FixedBases`] checks
    /// through a [`RevocationTable`], per-message bases through the sweep.
    pub bases_mode: BasesMode,
    /// Sweep-cache capacity in entries (0 disables the cache).
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            bases_mode: BasesMode::PerMessage,
            cache_capacity: 4096,
        }
    }
}

/// Telemetry handles resolved once at engine construction (the process
/// registry interns by name, so every engine shares the same series).
struct Metrics {
    cache_hit: Arc<Counter>,
    cache_miss: Arc<Counter>,
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
            sweeps: r.counter("revoke.sweeps"),
            delta_applied: r.counter("revoke.delta_applied"),
            delta_dup: r.counter("revoke.delta_dup"),
            full_sync: r.counter("revoke.full_sync"),
            sweep_us: r.histogram("revoke.sweep_us"),
            sweep_token_ns: r.histogram("revoke.sweep_token_ns"),
        }
    }
}

/// The list an engine enforces at one version, and everything the pairing
/// stages read: immutable once published, shared by `Arc`, so a check runs
/// against it without the engine. Its identity (`Arc::ptr_eq`) stands for
/// "(gpk, epoch, version, tokens) unchanged".
struct UrlView {
    version: u64,
    tokens: Vec<RevocationToken>,
    /// The list as a `ê(A, û)` table: `Some` iff fixed-bases mode.
    table: Option<RevocationTable>,
    metrics: Arc<Metrics>,
}

impl UrlView {
    fn of(
        store: &EpochUrlStore,
        table: Option<RevocationTable>,
        metrics: &Arc<Metrics>,
    ) -> Arc<Self> {
        Arc::new(Self {
            version: store.version(),
            tokens: store.tokens().to_vec(),
            table,
            metrics: Arc::clone(metrics),
        })
    }

    /// The cache key of a per-message work unit: a digest of (msg, sig).
    /// Per-message bases keep signers unlinkable, so only literal
    /// retransmissions can hit, which is exactly what the retry-heavy
    /// channel produces.
    fn key(msg: &[u8], sig: &GroupSignature) -> CacheKey {
        peace_hash::Sha256::new()
            .chain(b"peace-revoke-cache-v1")
            .chain(&(msg.len() as u64).to_be_bytes())
            .chain(msg)
            .chain(&sig.to_bytes())
            .finalize()
    }

    /// Table lookup in fixed-bases mode, else the sweep.
    fn decide(&self, sig: &GroupSignature, u_hat: &G2, v_hat: &impl G2Arg) -> Option<usize> {
        if let Some(table) = &self.table {
            return table.lookup(sig);
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
    /// The work unit's cache key, where [`RevocationEngine::begin_check`]
    /// asked the cache under it (per-message mode).
    key: Option<CacheKey>,
    /// `Some` once decided — by the cache, an empty list, or [`Self::run`].
    verdict: Option<Option<usize>>,
}

impl RevocationCheck {
    /// Table lookup or sweep against the view taken at `begin`, unless the
    /// cache already answered. Needs the bases the Σ-check derived
    /// ([`peace_groupsig::h0_verify_bases`]), and no engine.
    pub fn run(&mut self, sig: &GroupSignature, u_hat: &G2, v_hat: &impl G2Arg) {
        if self.verdict.is_none() {
            self.verdict = Some(self.view.decide(sig, u_hat, v_hat));
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
            .field("bases_mode", &self.cfg.bases_mode)
            .field("cache_len", &self.cache.len())
            .finish()
    }
}

impl RevocationEngine {
    /// Builds an engine for `gpk` with an empty URL at epoch 0.
    pub fn new(gpk: &GroupPublicKey, cfg: EngineConfig) -> Self {
        let store = EpochUrlStore::new(0);
        let metrics = Arc::new(Metrics::resolve());
        let mut engine = Self {
            cfg,
            gpk: *gpk,
            cache: SweepCache::new(cfg.cache_capacity),
            view: UrlView::of(&store, None, &metrics),
            store,
            metrics,
        };
        engine.publish(engine.fresh_table());
        engine
    }

    /// Installs a new group public key (epoch rotation): the fixed bases,
    /// the table, and the whole cache are derived from `gpk`, so all of
    /// them reset. Follow with [`Self::install_full`] for the new epoch's
    /// (empty) list.
    pub fn install_gpk(&mut self, gpk: &GroupPublicKey) {
        self.gpk = *gpk;
        self.cache.clear();
        self.publish(self.fresh_table());
    }

    /// Replaces the full list (a bulletin fetch landing). Rebuilds the
    /// table in fixed-bases mode (one pairing per token — this is the
    /// expensive path the delta flow exists to avoid) and invalidates the
    /// cache.
    pub fn install_full(&mut self, epoch: u64, version: u64, tokens: &[RevocationToken]) {
        self.store.install_full(epoch, version, tokens);
        self.metrics.full_sync.inc();
        self.publish(self.fresh_table());
    }

    /// Applies a delta-compressed diff. On success, a delta that only adds
    /// tokens grows the table (one pairing each); one that removes tokens
    /// rebuilds it. The cache invalidates on any version advance.
    ///
    /// # Errors
    ///
    /// [`DeltaError`] when the diff does not chain — the caller falls back
    /// to a full fetch; the engine state is unchanged.
    pub fn apply_delta(&mut self, d: &UrlDelta) -> Result<DeltaOutcome, DeltaError> {
        let old_len = self.store.len();
        let outcome = self.store.apply_delta(d)?;
        match outcome {
            DeltaOutcome::AlreadyCurrent => self.metrics.delta_dup.inc(),
            DeltaOutcome::Applied => {
                self.metrics.delta_applied.inc();
                let table = match &self.view.table {
                    // Adds only: the store appended the new tokens, so
                    // their table indices follow on from the old list's.
                    Some(current) if d.removed.is_empty() => {
                        let mut grown = current.clone();
                        for t in &self.store.tokens()[old_len..] {
                            grown.insert(t);
                        }
                        Some(grown)
                    }
                    _ => self.fresh_table(),
                };
                self.publish(table);
            }
        }
        Ok(outcome)
    }

    /// The table over the store's list, in fixed-bases mode.
    fn fresh_table(&self) -> Option<RevocationTable> {
        (self.cfg.bases_mode == BasesMode::FixedBases)
            .then(|| RevocationTable::build(&self.gpk, self.store.tokens()))
    }

    /// Puts the store's list in force as a new view: every check begun
    /// against the old one is from here on a check against a list that is
    /// no longer enforced.
    fn publish(&mut self, table: Option<RevocationTable>) {
        self.view = UrlView::of(&self.store, table, &self.metrics);
        self.cache.note_version(self.store.version());
    }

    /// What the cache remembers for `key` against the list in force.
    fn lookup(&self, key: &CacheKey) -> Option<Option<usize>> {
        let cached = self.cache.get(key, self.view.version);
        match cached {
            Some(_) => self.metrics.cache_hit.inc(),
            None => self.metrics.cache_miss.inc(),
        }
        cached.map(|v| v.map(|x| x as usize))
    }

    fn remember(&mut self, key: CacheKey, verdict: Option<usize>) {
        self.cache
            .insert(key, self.view.version, verdict.map(|x| x as u32));
    }

    /// First step of a check, for a caller that will run it elsewhere:
    /// takes the view in force and, in per-message mode, asks the cache.
    pub fn begin_check(&self, msg: &[u8], sig: &GroupSignature) -> RevocationCheck {
        let mut check = RevocationCheck {
            view: Arc::clone(&self.view),
            key: None,
            verdict: None,
        };
        if self.view.tokens.is_empty() {
            check.verdict = Some(None);
        } else if self.view.table.is_none() {
            let key = UrlView::key(msg, sig);
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
        if let Some(key) = check.key {
            self.remember(key, verdict);
        }
        Ok(verdict)
    }

    /// The revocation stages alone, for callers that already verified the
    /// signature and hold its H₀ bases (e.g. via
    /// [`PreparedGpk::verify_bases`](peace_groupsig::PreparedGpk::verify_bases)),
    /// against the list in force: the table in fixed-bases mode, else
    /// cache → sweep.
    pub fn check_revocation(
        &mut self,
        msg: &[u8],
        sig: &GroupSignature,
        u_hat: &G2,
        v_hat: &impl G2Arg,
    ) -> Option<usize> {
        if self.view.tokens.is_empty() {
            return None;
        }
        if let Some(table) = &self.view.table {
            return table.lookup(sig);
        }
        let key = UrlView::key(msg, sig);
        if let Some(verdict) = self.lookup(&key) {
            return verdict;
        }
        let verdict = self.view.decide(sig, u_hat, v_hat);
        self.remember(key, verdict);
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

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }
}
