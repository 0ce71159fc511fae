//! `peace-revoke` — the metropolitan-scale revocation subsystem.
//!
//! The paper's verifier-local revocation check (Eq.3) costs O(|URL|)
//! Miller loops per access request; with millions of users and realistic
//! churn the URL dwarfs every other verification cost. This crate stages
//! the check so the expensive sweep is the *last* resort:
//!
//! * [`EpochUrlStore`] — epoch-partitioned, versioned list storage with
//!   delta-compressed diffs ([`UrlDelta`]): consumers fetch O(churn)
//!   bytes instead of O(|URL|), under the same exact version-chaining
//!   discipline the full-list path enforces.
//! * [`SweepCache`] — a bounded `work unit → verdict` cache, wholesale-
//!   invalidated on every URL version bump.
//! * [`RevocationEngine`] — the staged pipeline (cache → shared-Miller
//!   sweep under per-message bases; one
//!   [`RevocationTable`](peace_groupsig::RevocationTable) lookup under
//!   fixed bases) that replaces
//!   [`PreparedGpk::verify_and_check`](peace_groupsig::PreparedGpk)
//!   verdict-for-verdict.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cache;
mod engine;
mod store;

pub use cache::{CacheKey, SweepCache, Verdict};
pub use engine::{EngineConfig, ListChanged, RevocationCheck, RevocationEngine};
pub use store::{
    digest_of, DeltaError, DeltaOutcome, DeltaPlan, EpochUrlStore, UrlDelta, DEFAULT_DELTA_LOG_CAP,
};

#[cfg(test)]
mod tests {
    use super::*;
    use peace_groupsig::{sign, BasesMode, IssuerKey, MemberKey, PreparedGpk, RevocationToken};
    use peace_wire::{Decode, Encode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tokens(n: usize, seed: u64) -> Vec<RevocationToken> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| RevocationToken(peace_curve::G1::random(&mut rng)))
            .collect()
    }

    // ---- store ----

    #[test]
    fn delta_roundtrip_matches_full_install() {
        let toks = tokens(6, 1);
        let mut operator = EpochUrlStore::new(3);
        let mut router = EpochUrlStore::new(3);
        for t in &toks[..4] {
            assert!(operator.record_add(t));
        }
        assert!(!operator.record_add(&toks[0]), "duplicate add is a no-op");
        match operator.delta_since(3, 0) {
            DeltaPlan::Delta(d) => {
                assert_eq!(d.from_version, 0);
                assert_eq!(d.to_version, 4);
                assert_eq!(d.added.len(), 4);
                assert_eq!(router.apply_delta(&d).unwrap(), DeltaOutcome::Applied);
                // Duplicated frame: idempotent.
                assert_eq!(
                    router.apply_delta(&d).unwrap(),
                    DeltaOutcome::AlreadyCurrent
                );
            }
            other => panic!("expected delta, got {other:?}"),
        }
        assert_eq!(router.digest(), operator.digest());
        assert_eq!(operator.delta_since(3, 4), DeltaPlan::UpToDate);
    }

    #[test]
    fn delta_coalesces_add_then_remove() {
        let toks = tokens(3, 2);
        let mut op = EpochUrlStore::new(0);
        op.record_add(&toks[0]);
        op.record_add(&toks[1]);
        op.record_remove(&toks[0]);
        let DeltaPlan::Delta(d) = op.delta_since(0, 0) else {
            panic!("expected delta");
        };
        // toks[0] was revoked and lifted inside the window: cancels out.
        assert_eq!(d.added, vec![toks[1]]);
        assert!(d.removed.is_empty());
        let mut consumer = EpochUrlStore::new(0);
        consumer.apply_delta(&d).unwrap();
        assert_eq!(consumer.digest(), op.digest());
    }

    #[test]
    fn gapped_and_cross_epoch_deltas_refused() {
        let toks = tokens(4, 3);
        let mut op = EpochUrlStore::new(0);
        for t in &toks {
            op.record_add(t);
        }
        let DeltaPlan::Delta(tail) = op.delta_since(0, 2) else {
            panic!("expected delta");
        };
        let mut behind = EpochUrlStore::new(0); // at version 0, delta starts at 2
        assert_eq!(behind.apply_delta(&tail), Err(DeltaError::VersionGap));
        let mut other_epoch = EpochUrlStore::new(1);
        assert_eq!(
            other_epoch.apply_delta(&tail),
            Err(DeltaError::EpochMismatch)
        );
        // Consumer behind the retained log → full fetch.
        let mut tiny = EpochUrlStore::new(0);
        tiny.set_log_cap(1);
        for t in &toks {
            tiny.record_add(t);
        }
        assert_eq!(tiny.delta_since(0, 0), DeltaPlan::NeedFull);
    }

    #[test]
    fn rotation_empties_and_advances() {
        let toks = tokens(2, 4);
        let mut op = EpochUrlStore::new(0);
        for t in &toks {
            op.record_add(t);
        }
        let v = op.version();
        op.rotate_epoch(1);
        assert_eq!(op.epoch(), 1);
        assert!(op.is_empty());
        assert!(op.version() > v, "version stays monotone across rotation");
        // Pre-rotation consumers cannot delta across the boundary.
        assert_eq!(op.delta_since(0, v), DeltaPlan::NeedFull);
    }

    #[test]
    fn url_delta_wire_roundtrip() {
        let toks = tokens(3, 5);
        let d = UrlDelta {
            epoch: 7,
            from_version: 41,
            to_version: 44,
            added: toks[..2].to_vec(),
            removed: toks[2..].to_vec(),
        };
        assert_eq!(UrlDelta::from_wire(&d.to_wire()).unwrap(), d);
    }

    #[test]
    fn digest_is_order_insensitive() {
        let toks = tokens(5, 6);
        let mut rev: Vec<RevocationToken> = toks.clone();
        rev.reverse();
        assert_eq!(digest_of(1, 9, &toks), digest_of(1, 9, &rev));
        assert_ne!(digest_of(1, 9, &toks), digest_of(1, 10, &toks));
        assert_ne!(digest_of(2, 9, &toks), digest_of(1, 9, &toks));
    }

    // ---- cache ----

    #[test]
    fn cache_version_bump_invalidates_everything() {
        let mut c = SweepCache::new(8);
        c.note_version(1);
        c.insert([1u8; 32], 1, None);
        c.insert([2u8; 32], 1, Some(7));
        assert_eq!(c.get(&[1u8; 32], 1), Some(None));
        assert_eq!(c.get(&[2u8; 32], 1), Some(Some(7)));
        c.note_version(2);
        assert!(c.is_empty(), "a version bump clears the whole cache");
        assert_eq!(c.get(&[1u8; 32], 2), None);
        // Stale-version lookups and inserts are ignored.
        c.insert([3u8; 32], 1, None);
        assert_eq!(c.get(&[3u8; 32], 1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn cache_stays_bounded() {
        let cap = 16;
        let mut c = SweepCache::new(cap);
        for i in 0u32..10_000 {
            let mut k = [0u8; 32];
            k[..4].copy_from_slice(&i.to_be_bytes());
            c.insert(k, 0, None);
            assert!(c.len() <= cap, "cache exceeded its bound at insert {i}");
        }
    }

    // ---- engine ----

    struct World {
        prepared: std::sync::Arc<PreparedGpk>,
        members: Vec<MemberKey>,
        rng: StdRng,
    }

    fn world(n_members: usize, seed: u64) -> World {
        let mut rng = StdRng::seed_from_u64(seed);
        let issuer = IssuerKey::generate(&mut rng);
        let grp = issuer.new_group_secret(&mut rng);
        let members: Vec<MemberKey> = (0..n_members)
            .map(|_| issuer.issue(&grp, &mut rng))
            .collect();
        World {
            prepared: (*issuer.public_key()).into(),
            members,
            rng,
        }
    }

    fn engine_cfg(mode: BasesMode) -> EngineConfig {
        EngineConfig {
            bases_mode: mode,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn engine_matches_direct_verify_and_check_per_message() {
        let mut w = world(4, 10);
        let mode = BasesMode::PerMessage;
        let url: Vec<RevocationToken> = vec![
            w.members[1].revocation_token(),
            w.members[3].revocation_token(),
        ];
        let mut eng = RevocationEngine::new(w.prepared.gpk(), engine_cfg(mode));
        eng.install_full(0, 2, &url);
        for (i, m) in w.members.iter().enumerate() {
            let msg = format!("access-{i}").into_bytes();
            let sig = sign(w.prepared.gpk(), m, &msg, mode, &mut w.rng);
            let direct = w.prepared.verify_and_check(&msg, &sig, &url, mode).unwrap();
            let (u, v) = w.prepared.verify_bases(&msg, &sig, mode).unwrap();
            let staged = eng.check_revocation(&msg, &sig, &u, &v);
            assert_eq!(staged, direct, "member {i}");
            // Repeat: served from the cache, same verdict.
            let again = eng.check_revocation(&msg, &sig, &u, &v);
            assert_eq!(again, direct, "cached verdict diverged for member {i}");
        }
        assert!(eng.cache_len() > 0);
    }

    #[test]
    fn engine_matches_direct_verify_and_check_fixed_bases_with_prefilter() {
        let mut w = world(4, 11);
        let mode = BasesMode::FixedBases;
        let url: Vec<RevocationToken> = vec![w.members[0].revocation_token()];
        let mut eng = RevocationEngine::new(w.prepared.gpk(), engine_cfg(mode));
        eng.install_full(0, 1, &url);
        for (i, m) in w.members.iter().enumerate() {
            let msg = format!("fb-{i}").into_bytes();
            let sig = sign(w.prepared.gpk(), m, &msg, mode, &mut w.rng);
            let direct = w.prepared.verify_and_check(&msg, &sig, &url, mode).unwrap();
            let (u, v) = w.prepared.verify_bases(&msg, &sig, mode).unwrap();
            let staged = eng.check_revocation(&msg, &sig, &u, &v);
            assert_eq!(staged, direct, "member {i}");
        }
        // The table links: a *different* message from the same revoked key
        // is found, and no fixed-bases check consults the cache.
        let msg2 = b"fb-0-second-session".to_vec();
        let sig2 = sign(w.prepared.gpk(), &w.members[0], &msg2, mode, &mut w.rng);
        let (u2, v2) = w.prepared.verify_bases(&msg2, &sig2, mode).unwrap();
        assert_eq!(eng.check_revocation(&msg2, &sig2, &u2, &v2), Some(0));
        assert_eq!(eng.cache_len(), 0, "fixed bases never fill the cache");
    }

    /// A fixed-bases engine's table follows the list through deltas: grown
    /// in place by one that only adds, rebuilt by one that removes, and
    /// every index it answers is the signer's position in the list in
    /// force.
    #[test]
    fn fixed_bases_table_follows_deltas() {
        let mut w = world(3, 12);
        let mode = BasesMode::FixedBases;
        let tok: Vec<_> = w.members.iter().map(|m| m.revocation_token()).collect();
        let mut op = EpochUrlStore::new(0);
        let mut eng = RevocationEngine::new(w.prepared.gpk(), engine_cfg(mode));
        let sigs: Vec<_> = w
            .members
            .iter()
            .map(|m| sign(w.prepared.gpk(), m, b"d", mode, &mut w.rng))
            .collect();
        let sync = |op: &mut EpochUrlStore, eng: &mut RevocationEngine| {
            let DeltaPlan::Delta(d) = op.delta_since(0, eng.url_version()) else {
                panic!("expected a delta");
            };
            assert_eq!(eng.apply_delta(&d).unwrap(), DeltaOutcome::Applied);
        };
        let check = |eng: &mut RevocationEngine, sig: &peace_groupsig::GroupSignature| {
            let (u, v) = w.prepared.verify_bases(b"d", sig, mode).unwrap();
            let naive = w
                .prepared
                .verify_and_check(b"d", sig, eng.tokens(), mode)
                .unwrap();
            let staged = eng.check_revocation(b"d", sig, &u, &v);
            assert_eq!(staged, naive, "list {:?}", eng.tokens());
            staged
        };
        op.record_add(&tok[0]);
        op.record_add(&tok[1]);
        sync(&mut op, &mut eng);
        op.record_add(&tok[2]);
        sync(&mut op, &mut eng);
        assert_eq!(
            check(&mut eng, &sigs[2]),
            Some(2),
            "grown by an add-only delta"
        );
        op.record_remove(&tok[0]);
        sync(&mut op, &mut eng);
        assert_eq!(check(&mut eng, &sigs[0]), None, "rebuilt after a removal");
        assert!(check(&mut eng, &sigs[1]).is_some());
        assert!(check(&mut eng, &sigs[2]).is_some());
    }

    /// The cache-invalidation regression the ISSUE pins: a signer verified
    /// clean (verdict cached), *then revoked*, must be rejected when the
    /// same work unit is re-presented — the version bump from the delta
    /// must have flushed the stale "unrevoked" entry.
    #[test]
    fn revoked_then_reused_is_rejected_not_cache_served() {
        let mut w = world(2, 13);
        let mode = BasesMode::PerMessage;
        let mut eng = RevocationEngine::new(w.prepared.gpk(), engine_cfg(mode));
        eng.install_full(0, 0, &[]);
        let msg = b"session-establishment".to_vec();
        let sig = sign(w.prepared.gpk(), &w.members[0], &msg, mode, &mut w.rng);
        let (u, v) = w.prepared.verify_bases(&msg, &sig, mode).unwrap();
        assert_eq!(eng.check_revocation(&msg, &sig, &u, &v), None);
        assert_eq!(eng.check_revocation(&msg, &sig, &u, &v), None);
        // Operator revokes member 0 and ships the delta.
        let mut op = EpochUrlStore::new(0);
        op.record_add(&w.members[0].revocation_token());
        let DeltaPlan::Delta(d) = op.delta_since(0, 0) else {
            panic!("expected delta");
        };
        assert_eq!(eng.apply_delta(&d).unwrap(), DeltaOutcome::Applied);
        assert_eq!(eng.cache_len(), 0, "version bump must flush the cache");
        // The very same (msg, sig) — a replayed/retried frame — must now
        // be flagged revoked, not served from a stale cache entry.
        assert_eq!(eng.check_revocation(&msg, &sig, &u, &v), Some(0));
    }

    /// The fast paths do not scale with |URL|, stated as operation counts
    /// (thread-scoped, so exact under the parallel harness): per-message
    /// mode pays the |URL| + 1 sweep once per work unit and nothing on a
    /// repeat; fixed-bases mode pays the table lookup's two Miller loops
    /// of `D = ê(T₂,û)/ê(T₁,v̂)` per check and never sweeps — for a
    /// listed signer or a clean one, first sight or repeat.
    #[test]
    fn fast_paths_cost_the_same_at_any_url_size() {
        use peace_groupsig::OpSnapshot;
        for n in [4usize, 64] {
            let mut w = world(2, 20 + n as u64);
            let mut url = tokens(n - 1, 30 + n as u64);
            url.push(w.members[0].revocation_token());

            let mode = BasesMode::PerMessage;
            let mut eng = RevocationEngine::new(w.prepared.gpk(), engine_cfg(mode));
            eng.install_full(0, 1, &url);
            let sig = sign(w.prepared.gpk(), &w.members[1], b"m", mode, &mut w.rng);
            let (u, v) = w.prepared.verify_bases(b"m", &sig, mode).unwrap();
            let scope = OpSnapshot::scope();
            assert_eq!(eng.check_revocation(b"m", &sig, &u, &v), None);
            let cold = scope.counts();
            assert_eq!(cold.miller_loops, n as u64 + 1, "|URL| = {n}: {cold:?}");
            assert_eq!((cold.final_exps, cold.miller_prepares), (1, 1), "{cold:?}");
            assert_eq!(cold.pairings, 0, "{cold:?}");
            let scope = OpSnapshot::scope();
            assert_eq!(eng.check_revocation(b"m", &sig, &u, &v), None);
            let hit = scope.counts();
            assert_eq!(hit, OpSnapshot::default(), "|URL| = {n}: cache hit");

            let mode = BasesMode::FixedBases;
            let mut eng = RevocationEngine::new(w.prepared.gpk(), engine_cfg(mode));
            eng.install_full(0, 1, &url);
            for (member, verdict) in [(0, Some(n - 1)), (1, None)] {
                let sig = sign(w.prepared.gpk(), &w.members[member], b"m", mode, &mut w.rng);
                let (u, v) = w.prepared.verify_bases(b"m", &sig, mode).unwrap();
                for sight in ["first", "repeat"] {
                    let scope = OpSnapshot::scope();
                    assert_eq!(eng.check_revocation(b"m", &sig, &u, &v), verdict);
                    let cost = scope.counts();
                    let want = OpSnapshot {
                        pairings: 2,
                        miller_loops: 2,
                        final_exps: 1,
                        ..OpSnapshot::default()
                    };
                    assert_eq!(cost, want, "|URL| = {n}, member {member}, {sight}");
                }
            }
        }
    }

    // ---- proptests ----

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Delta application converges to the operator state (same
            /// digest) for any add/remove interleaving.
            #[test]
            fn delta_stream_converges(ops in proptest::collection::vec((any::<u8>(), any::<bool>()), 1..40)) {
                let pool = tokens(16, 99);
                let mut operator = EpochUrlStore::new(0);
                let mut consumer = EpochUrlStore::new(0);
                for (pick, add) in ops {
                    let t = &pool[pick as usize % pool.len()];
                    if add {
                        operator.record_add(t);
                    } else {
                        operator.record_remove(t);
                    }
                    // Sync the consumer at every step (worst-case chatty).
                    match operator.delta_since(consumer.epoch(), consumer.version()) {
                        DeltaPlan::UpToDate => {}
                        DeltaPlan::Delta(d) => {
                            consumer.apply_delta(&d).unwrap();
                        }
                        DeltaPlan::NeedFull => {
                            consumer.install_full(
                                operator.epoch(),
                                operator.version(),
                                operator.tokens(),
                            );
                        }
                    }
                }
                prop_assert_eq!(consumer.digest(), operator.digest());
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2))]

            /// No false negative — and no false positive — through the
            /// staged engine: in both bases modes — the cache and the sweep,
            /// or the table — the verdict is the index the
            /// naive `token_matches` scan gives, whether the check is
            /// taken in one call, in three steps, or served again from the
            /// cache; at list sizes on both sides of the sweep's fan-out
            /// and block boundaries, with the signer first, in the middle,
            /// last, or not listed.
            #[test]
            fn engine_verdicts_match_the_naive_scan(seed in any::<u64>()) {
                use peace_groupsig::{h0_bases, token_matches};
                let mut w = world(1, seed);
                let pool = tokens(65, seed ^ 0x7001);
                let signer = w.members[0].revocation_token();
                for mode in [BasesMode::PerMessage, BasesMode::FixedBases] {
                    let mut eng = RevocationEngine::new(w.prepared.gpk(), engine_cfg(mode));
                    let msg = b"engine-soundness";
                    let sig = sign(w.prepared.gpk(), &w.members[0], msg, mode, &mut w.rng);
                    let (u, v) = h0_bases(w.prepared.gpk(), msg, &sig.r, mode);
                    prop_assert!(token_matches(&sig, &signer, &u, &v));
                    prop_assert!(pool.iter().all(|t| !token_matches(&sig, t, &u, &v)));
                    let mut version = 0;
                    for n in [1usize, 3, 4, 5, 7, 8, 9, 64, 65] {
                        for slot in [Some(0), Some(n / 2), Some(n - 1), None] {
                            let mut url = pool[..n].to_vec();
                            if let Some(slot) = slot {
                                url[slot] = signer;
                            }
                            version += 1;
                            eng.install_full(0, version, &url);
                            let at = format!("{mode:?}, |URL| = {n}, signer at {slot:?}");
                            let mut check = eng.begin_check(msg, &sig);
                            check.run(&sig, &u, &v);
                            prop_assert_eq!(eng.accept(check), Ok(slot), "in steps: {}", at);
                            prop_assert_eq!(eng.check_revocation(msg, &sig, &u, &v), slot, "in one call: {}", at);
                            prop_assert_eq!(eng.check_revocation(msg, &sig, &u, &v), slot, "repeated: {}", at);
                            if mode == BasesMode::PerMessage {
                                prop_assert!(eng.cache_len() > 0, "{}", at);
                            }
                        }
                    }
                }
            }

            /// Every verifier path reaches the paper oracles' verdict on
            /// `v̂`'s uncleared pre-image ([`peace_groupsig::h0_verify_bases`]):
            /// per bases mode, over an unlisted honest signature, two
            /// tamperings, a foreign key's signature and a listed signer at
            /// URL positions 0, middle and last, `PreparedGpk::verify` is
            /// the free `verify`, and `verify_and_check`, the engine's
            /// check (one call and in steps) and `open_batch` report the
            /// index the `token_matches` scan gives on the cleared bases.
            #[test]
            fn verifier_paths_match_the_paper_oracles(seed in any::<u64>()) {
                use peace_groupsig::{h0_bases, open_batch, token_matches, verify, GroupSignature};
                let mut w = world(4, seed);
                let gpk = *w.prepared.gpk();
                let stranger = world(1, seed ^ 0x5eed).members.remove(0);
                let n = 9;
                let mut url = tokens(n, seed ^ 0x7002);
                for (member, slot) in [(1, 0), (2, n / 2), (3, n - 1)] {
                    url[slot] = w.members[member].revocation_token();
                }
                for mode in [BasesMode::PerMessage, BasesMode::FixedBases] {
                    let mut eng = RevocationEngine::new(&gpk, engine_cfg(mode));
                    eng.install_full(0, 1, &url);
                    let msgs: Vec<Vec<u8>> = (0..7).map(|k| format!("path-{k}").into_bytes()).collect();
                    let honest = sign(&gpk, &w.members[0], &msgs[0], mode, &mut w.rng);
                    let bump_c = GroupSignature { c: honest.c.add(&peace_field::Fq::ONE), ..honest.clone() };
                    let moved = honest.t2.decompress().unwrap().add(&gpk.g1).into();
                    let bump_t2 = GroupSignature { t2: moved, ..honest.clone() };
                    let sigs = [
                        honest,
                        bump_c,
                        bump_t2,
                        sign(&gpk, &stranger, &msgs[3], mode, &mut w.rng),
                        sign(&gpk, &w.members[1], &msgs[4], mode, &mut w.rng),
                        sign(&gpk, &w.members[2], &msgs[5], mode, &mut w.rng),
                        sign(&gpk, &w.members[3], &msgs[6], mode, &mut w.rng),
                    ];
                    let msg_of = |k: usize| if k < 3 { &msgs[0] } else { &msgs[k] };
                    let mut listed = Vec::new();
                    for (k, sig) in sigs.iter().enumerate() {
                        let msg = msg_of(k);
                        let at = format!("{mode:?}, signature {k}");
                        let (u, v) = h0_bases(&gpk, msg, &sig.r, mode);
                        let scan = url.iter().position(|t| token_matches(sig, t, &u, &v));
                        listed.push(scan);
                        let oracle = verify(&gpk, msg, sig, mode);
                        prop_assert_eq!(oracle.is_ok(), k == 0 || k >= 4, "{}", at);
                        prop_assert_eq!(w.prepared.verify(msg, sig, mode), oracle, "{}", at);
                        let want = oracle.map(|()| scan);
                        prop_assert_eq!(w.prepared.verify_and_check(msg, sig, &url, mode), want, "{}", at);
                        let staged = w.prepared.verify_bases(msg, sig, mode).map(|(u, v_pre)| {
                            let mut check = eng.begin_check(msg, sig);
                            check.run(sig, &u, &v_pre);
                            let in_steps = eng.accept(check).expect("list unchanged");
                            (in_steps, eng.check_revocation(msg, sig, &u, &v_pre))
                        });
                        prop_assert_eq!(staged, want.map(|i| (i, i)), "{}", at);
                    }
                    prop_assert_eq!(&listed, &vec![None, None, None, None, Some(0), Some(n / 2), Some(n - 1)]);
                    let items: Vec<(&[u8], &GroupSignature)> =
                        sigs.iter().enumerate().map(|(k, s)| (msg_of(k).as_slice(), s)).collect();
                    prop_assert_eq!(open_batch(&gpk, &items, &url, mode), listed, "{:?}", mode);
                }
            }
        }
    }
}
