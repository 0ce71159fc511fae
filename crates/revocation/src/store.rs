//! Epoch-partitioned user-revocation-list store with delta-compressed
//! diffs.
//!
//! The paper distributes the URL as a full signed list in every beacon;
//! at metropolitan scale with realistic churn that is O(|URL|) bytes per
//! refresh for a list that changed by a handful of entries. This store
//! keeps the list **partitioned by key epoch** (a system-key rotation
//! empties the URL — the paper's own |URL| control knob) and, within an
//! epoch, versioned per revocation, so a consumer at version `v` can be
//! brought current with a coalesced [`UrlDelta`] of O(churn) tokens
//! instead of a full fetch.
//!
//! Both ends of the distribution path run the same type: the operator
//! side records revocations into a bounded delta log and serves
//! [`EpochUrlStore::delta_since`]; the router side applies deltas with
//! [`EpochUrlStore::apply_delta`] under the same version-monotonicity
//! discipline `adopt_lists` enforces for full lists (exact chain match —
//! a gap or epoch mismatch refuses and forces a full resync, it never
//! guesses). [`EpochUrlStore::digest`] gives both ends an
//! order-insensitive fingerprint to prove convergence.

use std::collections::{HashMap, VecDeque};

use peace_groupsig::RevocationToken;
use peace_wire::{Decode, Encode, Reader, Writer};

/// How many coalesced log entries the operator side retains. A consumer
/// further behind than this falls back to a full fetch — the log bounds
/// operator memory, not correctness.
pub const DELTA_LOG_CAP: usize = 1024;

/// A delta-compressed URL diff: the tokens revoked (and un-revoked)
/// between two versions of one epoch's list.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UrlDelta {
    /// Key epoch this diff belongs to — diffs never span a rotation
    /// (rotation empties the list; consumers full-sync into a new epoch).
    pub epoch: u64,
    /// The version this diff applies on top of (exact-match required).
    pub from_version: u64,
    /// The version reached after applying.
    pub to_version: u64,
    /// Tokens added to the URL.
    pub added: Vec<RevocationToken>,
    /// Tokens removed from the URL (dispute resolution lifting a
    /// revocation) — rare, but they force table rebuilds downstream,
    /// so they are carried explicitly rather than synthesized.
    pub removed: Vec<RevocationToken>,
}

impl UrlDelta {
    /// Whether the diff carries no membership change (pure version ack).
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

impl Encode for UrlDelta {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.epoch);
        w.put_u64(self.from_version);
        w.put_u64(self.to_version);
        w.put_seq(&self.added);
        w.put_seq(&self.removed);
    }
}

impl Decode for UrlDelta {
    fn decode(r: &mut Reader<'_>) -> peace_wire::Result<Self> {
        Ok(Self {
            epoch: r.get_u64()?,
            from_version: r.get_u64()?,
            to_version: r.get_u64()?,
            added: r.get_seq()?,
            removed: r.get_seq()?,
        })
    }
}

/// Why a delta could not be applied. Every variant means "full resync",
/// never "guess".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeltaError {
    /// The diff belongs to a different key epoch.
    EpochMismatch,
    /// The diff's `from_version` does not chain onto the store's current
    /// version (a dropped or reordered intermediate diff).
    VersionGap,
    /// The diff is internally inconsistent (`to_version <= from_version`
    /// with changes, or a removal of an absent token).
    Inconsistent,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::EpochMismatch => write!(f, "url delta from a different epoch"),
            DeltaError::VersionGap => write!(f, "url delta does not chain onto current version"),
            DeltaError::Inconsistent => write!(f, "url delta internally inconsistent"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// Result of applying a delta.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeltaOutcome {
    /// The store advanced to the delta's `to_version`.
    Applied,
    /// The delta's range is entirely at or behind the store's version — a
    /// duplicated frame; ignored idempotently.
    AlreadyCurrent,
}

/// What the operator can serve a consumer at a given version.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DeltaPlan {
    /// The consumer already holds the current version.
    UpToDate,
    /// A coalesced diff brings the consumer current.
    Delta(UrlDelta),
    /// The consumer is behind the retained log (or ahead / cross-epoch):
    /// it must fetch the full list.
    NeedFull,
}

/// The epoch-partitioned, versioned URL store (see module docs).
#[derive(Clone, Debug)]
pub struct EpochUrlStore {
    epoch: u64,
    version: u64,
    tokens: Vec<RevocationToken>,
    /// token bytes → position in `tokens` (O(1) dedup and removal).
    index: HashMap<Vec<u8>, usize>,
    /// Operator-side per-change log, oldest first; each entry advances
    /// exactly one version.
    log: VecDeque<UrlDelta>,
}

impl EpochUrlStore {
    /// An empty store at version 0 of `epoch`.
    pub fn new(epoch: u64) -> Self {
        Self {
            epoch,
            version: 0,
            tokens: Vec::new(),
            index: HashMap::new(),
            log: VecDeque::new(),
        }
    }

    /// Replaces the entire list (a full fetch landing, or the operator
    /// seeding from persistent state). Clears the delta log — diffs
    /// across a full install cannot be synthesized.
    pub fn install_full(&mut self, epoch: u64, version: u64, tokens: &[RevocationToken]) {
        self.epoch = epoch;
        self.version = version;
        self.tokens = tokens.to_vec();
        self.index = self
            .tokens
            .iter()
            .enumerate()
            .map(|(i, t)| (t.to_bytes(), i))
            .collect();
        // Deduplicate defensively: index wins, later duplicates dropped.
        if self.index.len() != self.tokens.len() {
            let mut seen = HashMap::new();
            let mut dedup = Vec::with_capacity(self.index.len());
            for t in &self.tokens {
                if seen.insert(t.to_bytes(), dedup.len()).is_none() {
                    dedup.push(*t);
                }
            }
            self.tokens = dedup;
            self.index = seen;
        }
        self.log.clear();
    }

    /// Records one revocation (operator side): bumps the version and
    /// appends a single-token delta to the log. Returns `false` (no
    /// version bump) if the token is already listed.
    pub fn record_add(&mut self, token: &RevocationToken) -> bool {
        let key = token.to_bytes();
        if self.index.contains_key(&key) {
            return false;
        }
        self.index.insert(key, self.tokens.len());
        self.tokens.push(*token);
        let from = self.version;
        self.version += 1;
        self.push_log(UrlDelta {
            epoch: self.epoch,
            from_version: from,
            to_version: self.version,
            added: vec![*token],
            removed: Vec::new(),
        });
        true
    }

    /// Lifts one revocation (operator side, dispute resolution). Returns
    /// `false` if the token is not listed.
    pub fn record_remove(&mut self, token: &RevocationToken) -> bool {
        let key = token.to_bytes();
        let Some(pos) = self.index.remove(&key) else {
            return false;
        };
        self.tokens.swap_remove(pos);
        if pos < self.tokens.len() {
            self.index.insert(self.tokens[pos].to_bytes(), pos);
        }
        let from = self.version;
        self.version += 1;
        self.push_log(UrlDelta {
            epoch: self.epoch,
            from_version: from,
            to_version: self.version,
            added: Vec::new(),
            removed: vec![*token],
        });
        true
    }

    /// System-key rotation: the list empties (every outstanding key is
    /// dead by construction), the version still advances monotonically,
    /// and the log clears — deltas never span epochs.
    pub fn rotate_epoch(&mut self, new_epoch: u64) {
        self.epoch = new_epoch;
        self.version += 1;
        self.tokens.clear();
        self.index.clear();
        self.log.clear();
    }

    fn push_log(&mut self, d: UrlDelta) {
        self.log.push_back(d);
        while self.log.len() > DELTA_LOG_CAP {
            self.log.pop_front();
        }
    }

    /// Serves a consumer that holds `(epoch, version)`: a coalesced diff,
    /// an up-to-date ack, or a full-fetch referral (see [`DeltaPlan`]).
    ///
    /// Coalescing cancels add/remove pairs, so a token revoked and lifted
    /// within the window costs the consumer nothing.
    pub fn delta_since(&self, epoch: u64, version: u64) -> DeltaPlan {
        if epoch != self.epoch || version > self.version {
            return DeltaPlan::NeedFull;
        }
        if version == self.version {
            return DeltaPlan::UpToDate;
        }
        let Some(start) = self.log.iter().position(|d| d.from_version == version) else {
            return DeltaPlan::NeedFull;
        };
        let mut added: Vec<RevocationToken> = Vec::new();
        let mut added_keys: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut removed: Vec<RevocationToken> = Vec::new();
        let mut expect = version;
        for d in self.log.iter().skip(start) {
            if d.from_version != expect {
                // Interior log damage (should not happen) — refuse.
                return DeltaPlan::NeedFull;
            }
            expect = d.to_version;
            for t in &d.added {
                if let std::collections::hash_map::Entry::Vacant(e) = added_keys.entry(t.to_bytes())
                {
                    e.insert(added.len());
                    added.push(*t);
                }
            }
            for t in &d.removed {
                match added_keys.remove(&t.to_bytes()) {
                    Some(pos) => {
                        // Revoked and lifted inside the window: cancels.
                        added[pos] = RevocationToken(peace_curve::G1::IDENTITY);
                    }
                    None => removed.push(*t),
                }
            }
        }
        if expect != self.version {
            return DeltaPlan::NeedFull;
        }
        let added: Vec<RevocationToken> =
            added.into_iter().filter(|t| !t.0.is_identity()).collect();
        DeltaPlan::Delta(UrlDelta {
            epoch: self.epoch,
            from_version: version,
            to_version: self.version,
            added,
            removed,
        })
    }

    /// Applies a diff (consumer side) under exact version chaining.
    ///
    /// Idempotent for duplicated frames ([`DeltaOutcome::AlreadyCurrent`]);
    /// reordered or gapped frames refuse with [`DeltaError::VersionGap`]
    /// so the caller falls back to a full fetch.
    ///
    /// # Errors
    ///
    /// See [`DeltaError`]; the store is unchanged on any error.
    pub fn apply_delta(&mut self, d: &UrlDelta) -> Result<DeltaOutcome, DeltaError> {
        if d.epoch != self.epoch {
            return Err(DeltaError::EpochMismatch);
        }
        if d.to_version < d.from_version || (d.to_version == d.from_version && !d.is_empty()) {
            return Err(DeltaError::Inconsistent);
        }
        if d.to_version <= self.version {
            return Ok(DeltaOutcome::AlreadyCurrent);
        }
        if d.from_version != self.version {
            return Err(DeltaError::VersionGap);
        }
        // Validate before mutating: removals must name present tokens and
        // adds must not collide with them after coalescing.
        for t in &d.removed {
            if !self.index.contains_key(&t.to_bytes()) {
                return Err(DeltaError::Inconsistent);
            }
        }
        for t in &d.removed {
            let key = t.to_bytes();
            if let Some(pos) = self.index.remove(&key) {
                self.tokens.swap_remove(pos);
                if pos < self.tokens.len() {
                    self.index.insert(self.tokens[pos].to_bytes(), pos);
                }
            }
        }
        for t in &d.added {
            let key = t.to_bytes();
            if !self.index.contains_key(&key) {
                self.index.insert(key, self.tokens.len());
                self.tokens.push(*t);
            }
        }
        self.version = d.to_version;
        Ok(DeltaOutcome::Applied)
    }

    /// The current token list (iteration order is insertion order, which
    /// both ends may differ on — compare [`Self::digest`], not slices).
    pub fn tokens(&self) -> &[RevocationToken] {
        &self.tokens
    }

    /// Whether `token` is currently listed.
    pub fn contains(&self, token: &RevocationToken) -> bool {
        self.index.contains_key(&token.to_bytes())
    }

    /// Current version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// |URL|.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Retained delta-log length (operator observability).
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Order-insensitive fingerprint of `(epoch, version, token set)` —
    /// the convergence witness for delta vs. full-fetch distribution.
    pub fn digest(&self) -> [u8; 32] {
        digest_of(self.epoch, self.version, &self.tokens)
    }
}

/// [`EpochUrlStore::digest`] over a raw list — lets a consumer fingerprint
/// a full fetch (e.g. a signed URL body) without building a store.
pub fn digest_of(epoch: u64, version: u64, tokens: &[RevocationToken]) -> [u8; 32] {
    let mut keys: Vec<Vec<u8>> = tokens.iter().map(RevocationToken::to_bytes).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut h = peace_hash::Sha256::new()
        .chain(b"peace-url-digest-v1")
        .chain(&epoch.to_be_bytes())
        .chain(&version.to_be_bytes())
        .chain(&(keys.len() as u64).to_be_bytes());
    for k in &keys {
        h = h.chain(k);
    }
    h.finalize()
}
