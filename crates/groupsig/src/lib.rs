//! The PEACE short group signature — a variation of Boneh–Shacham
//! verifier-local-revocation group signatures (CCS 2004) with the key
//! generation modified per the paper (ICDCS 2008, §IV):
//!
//! * the SDH exponent splits into `grp_i + x_j`, binding every member key to
//!   a *user group*;
//! * signatures are anonymous and unlinkable (per-message H₀ bases);
//! * the network operator can *open* a signature to its revocation token —
//!   which identifies only the user group, realizing privacy-preserving
//!   accountability;
//! * verifier-local revocation: a signature can be tested against a
//!   revocation list `URL` without contacting the signer.
//!
//! # Examples
//!
//! ```
//! use peace_groupsig::{sign, verify, BasesMode, IssuerKey};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let issuer = IssuerKey::generate(&mut rng);
//! let grp = issuer.new_group_secret(&mut rng);
//! let member = issuer.issue(&grp, &mut rng);
//!
//! let sig = sign(issuer.public_key(), &member, b"msg", BasesMode::PerMessage, &mut rng);
//! assert!(verify(issuer.public_key(), b"msg", &sig, BasesMode::PerMessage).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod keys;
mod sig;

pub use keys::{GroupPublicKey, GroupSecret, IssuerKey, MemberKey, RevocationToken};
pub use sig::{
    h0_bases, h0_verify_bases, open, open_batch, revocation_index, revocation_sweep, sign,
    token_matches, verify, BasesMode, GroupSignature, PreparedGpk, RevocationTable, VerifyError,
};

// Re-export the op-counter snapshot and scope guard for the E2 benchmark.
pub use peace_pairing::{OpScope, OpSnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use peace_wire::{Decode, Encode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        issuer: IssuerKey,
        grp_a: GroupSecret,
        grp_b: GroupSecret,
        alice: MemberKey,
        bob: MemberKey,
        carol_b: MemberKey,
        rng: StdRng,
    }

    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(42);
        let issuer = IssuerKey::generate(&mut rng);
        let grp_a = issuer.new_group_secret(&mut rng);
        let grp_b = issuer.new_group_secret(&mut rng);
        let alice = issuer.issue(&grp_a, &mut rng);
        let bob = issuer.issue(&grp_a, &mut rng);
        let carol_b = issuer.issue(&grp_b, &mut rng);
        Fixture {
            issuer,
            grp_a,
            grp_b,
            alice,
            bob,
            carol_b,
            rng,
        }
    }

    #[test]
    fn member_keys_satisfy_sdh_relation() {
        let f = fixture();
        let gpk = f.issuer.public_key();
        let prepared = PreparedGpk::new(gpk);
        for k in [&f.alice, &f.bob, &f.carol_b] {
            assert!(k.is_valid_for(gpk));
            // The prepared check agrees, and hands back ê(A, g₂).
            let e_a_g2 = peace_pairing::pairing(&k.a, &gpk.g2);
            assert_eq!(prepared.member_pairing(k), Some(e_a_g2));
        }
    }

    #[test]
    fn corrupted_member_key_detected() {
        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        let prepared = PreparedGpk::new(&gpk);
        let wrong_x = MemberKey {
            x: peace_field::Fq::random(&mut f.rng),
            ..f.alice
        };
        let wrong_grp = MemberKey {
            grp: f.carol_b.grp,
            ..f.alice
        };
        let wrong_a = MemberKey {
            a: f.bob.a,
            ..f.alice
        };
        let no_a = MemberKey {
            a: peace_curve::G1::IDENTITY,
            ..f.alice
        };
        let other_issuer = IssuerKey::generate(&mut f.rng);
        let foreign = other_issuer.issue(&f.grp_a, &mut f.rng);
        for bad in [wrong_x, wrong_grp, wrong_a, no_a, foreign] {
            assert!(!bad.is_valid_for(&gpk));
            assert_eq!(prepared.member_pairing(&bad), None);
        }
        // The same check costs no more pairing work than the plain one.
        let scope = OpSnapshot::scope();
        assert!(prepared.member_pairing(&f.alice).is_some());
        let cost = scope.counts();
        assert_eq!(
            (cost.pairings, cost.miller_loops, cost.final_exps),
            (2, 2, 1)
        );
        assert_eq!(cost.g1_muls, 0);
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        for mode in [BasesMode::PerMessage, BasesMode::FixedBases] {
            let sig = sign(&gpk, &f.alice, b"hello mesh", mode, &mut f.rng);
            assert!(verify(&gpk, b"hello mesh", &sig, mode).is_ok());
        }
    }

    #[test]
    fn wrong_message_rejected() {
        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        let sig = sign(&gpk, &f.alice, b"msg-a", BasesMode::PerMessage, &mut f.rng);
        assert_eq!(
            verify(&gpk, b"msg-b", &sig, BasesMode::PerMessage),
            Err(VerifyError::BadChallenge)
        );
    }

    #[test]
    fn wrong_mode_rejected() {
        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        let sig = sign(&gpk, &f.alice, b"m", BasesMode::PerMessage, &mut f.rng);
        assert!(verify(&gpk, b"m", &sig, BasesMode::FixedBases).is_err());
    }

    #[test]
    fn tampered_signature_rejected() {
        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        let sig = sign(&gpk, &f.alice, b"m", BasesMode::PerMessage, &mut f.rng);
        let mut bad = sig.clone();
        bad.s_x = bad.s_x.add(&peace_field::Fq::ONE);
        assert!(verify(&gpk, b"m", &bad, BasesMode::PerMessage).is_err());
        let mut bad2 = sig;
        bad2.t2 = bad2.t2.decompress().unwrap().add(&gpk.g1).into();
        assert!(verify(&gpk, b"m", &bad2, BasesMode::PerMessage).is_err());
    }

    #[test]
    fn outsider_cannot_forge() {
        // A key for a *different* gpk (different γ) must not verify.
        let mut f = fixture();
        let other_issuer = IssuerKey::generate(&mut f.rng);
        let other_grp = other_issuer.new_group_secret(&mut f.rng);
        let outsider = other_issuer.issue(&other_grp, &mut f.rng);
        let sig = sign(
            f.issuer.public_key(),
            &outsider,
            b"m",
            BasesMode::PerMessage,
            &mut f.rng,
        );
        assert!(verify(f.issuer.public_key(), b"m", &sig, BasesMode::PerMessage).is_err());
    }

    #[test]
    fn signatures_unlinkable_via_commitments() {
        // Two signatures by the same key share nothing observable:
        // (T1, T2, r, c, s_*) all differ.
        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        let s1 = sign(&gpk, &f.alice, b"m", BasesMode::PerMessage, &mut f.rng);
        let s2 = sign(&gpk, &f.alice, b"m", BasesMode::PerMessage, &mut f.rng);
        assert_ne!(s1.t1, s2.t1);
        assert_ne!(s1.t2, s2.t2);
        assert_ne!(s1.r, s2.r);
        assert_ne!(s1.c, s2.c);
    }

    #[test]
    fn revocation_scan_finds_revoked_signer_only() {
        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        let sig_alice = sign(&gpk, &f.alice, b"m", BasesMode::PerMessage, &mut f.rng);
        let sig_bob = sign(&gpk, &f.bob, b"m", BasesMode::PerMessage, &mut f.rng);

        let url = vec![f.alice.revocation_token()];
        assert_eq!(
            revocation_index(&gpk, b"m", &sig_alice, &url, BasesMode::PerMessage),
            Some(0)
        );
        assert_eq!(
            revocation_index(&gpk, b"m", &sig_bob, &url, BasesMode::PerMessage),
            None
        );
    }

    #[test]
    fn empty_url_never_matches() {
        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        let sig = sign(&gpk, &f.alice, b"m", BasesMode::PerMessage, &mut f.rng);
        assert_eq!(
            revocation_index(&gpk, b"m", &sig, &[], BasesMode::PerMessage),
            None
        );
    }

    #[test]
    fn open_identifies_correct_key_across_groups() {
        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        let grt = vec![
            f.alice.revocation_token(),
            f.bob.revocation_token(),
            f.carol_b.revocation_token(),
        ];
        for (i, key) in [&f.alice, &f.bob, &f.carol_b].iter().enumerate() {
            let sig = sign(&gpk, key, b"audit-me", BasesMode::PerMessage, &mut f.rng);
            assert_eq!(
                open(&gpk, b"audit-me", &sig, &grt, BasesMode::PerMessage),
                Some(i)
            );
        }
    }

    #[test]
    fn open_reveals_group_not_member_semantics() {
        // Two members of the same group have distinct tokens; the binding
        // token → group is what NO keeps (keys.rs docs). Check tokens differ.
        let f = fixture();
        assert_ne!(f.alice.revocation_token(), f.bob.revocation_token());
        assert_eq!(f.alice.grp, f.bob.grp);
        assert_ne!(f.alice.grp, f.carol_b.grp);
        let _ = (f.grp_a, f.grp_b);
    }

    #[test]
    fn fixed_bases_table_lookup() {
        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        let tokens = vec![
            f.alice.revocation_token(),
            f.bob.revocation_token(),
            f.carol_b.revocation_token(),
        ];
        let table = RevocationTable::build(&gpk, &tokens);
        assert_eq!(table.len(), 3);

        let sig = sign(&gpk, &f.bob, b"m", BasesMode::FixedBases, &mut f.rng);
        assert!(verify(&gpk, b"m", &sig, BasesMode::FixedBases).is_ok());
        assert_eq!(table.lookup(&sig), Some(1));

        // A non-listed signer... all three are listed; build a partial table.
        let partial = RevocationTable::build(&gpk, &tokens[..1]);
        assert_eq!(partial.lookup(&sig), None);
    }

    #[test]
    fn prepared_verification_matches_and_saves_a_pairing() {
        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        let prepared = PreparedGpk::new(&gpk);
        let sig = sign(&gpk, &f.alice, b"m", BasesMode::PerMessage, &mut f.rng);

        let scope = OpSnapshot::scope();
        prepared.verify(b"m", &sig, BasesMode::PerMessage).unwrap();
        let cost = scope.counts();
        assert_eq!(cost.pairings, 2, "prepared verify uses 2 pairings");
        // R₂ is four table evaluations and one reduction of their powers;
        // v̂'s cofactor rides in two of those exponents, so §V.C's six
        // exponentiations, and one final exponentiation.
        assert_eq!((cost.miller_loops, cost.final_exps), (4, 1), "{cost:?}");
        assert_eq!((cost.g1_muls, cost.gt_exps), (3, 3), "{cost:?}");
        assert_eq!(cost.total_exps(), 6, "{cost:?}");
        assert_eq!(cost.miller_prepares, 0, "the key's tables are built once");

        // Same acceptance/rejection behaviour as the plain verifier.
        assert!(prepared
            .verify(b"other", &sig, BasesMode::PerMessage)
            .is_err());
        assert_eq!(prepared.gpk(), &gpk);
    }

    #[test]
    fn revocation_table_incremental_maintenance() {
        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        let mut table = RevocationTable::build(&gpk, &[f.alice.revocation_token()]);
        let sig_bob = sign(&gpk, &f.bob, b"m", BasesMode::FixedBases, &mut f.rng);
        assert_eq!(table.lookup(&sig_bob), None);
        // Revoke bob incrementally.
        let bob_idx = table.insert(&f.bob.revocation_token());
        assert_eq!(table.lookup(&sig_bob), Some(bob_idx));
        assert_eq!(table.len(), 2);
        // Lift the revocation.
        assert!(table.remove(&f.bob.revocation_token()));
        assert_eq!(table.lookup(&sig_bob), None);
        assert!(!table.remove(&f.bob.revocation_token()));
        // Alice remains listed throughout.
        let sig_alice = sign(&gpk, &f.alice, b"m", BasesMode::FixedBases, &mut f.rng);
        assert_eq!(table.lookup(&sig_alice), Some(0));
    }

    #[test]
    fn signature_encoding_is_stable_golden() {
        // Regression guard: with a fixed RNG the signature encoding must be
        // byte-identical across releases (the wire format is a protocol
        // contract). The digest pins the full pipeline: keygen, H0, H,
        // point compression, scalar encoding.
        let mut rng = StdRng::seed_from_u64(0xFEED);
        let issuer = IssuerKey::generate(&mut rng);
        let grp = issuer.new_group_secret(&mut rng);
        let member = issuer.issue(&grp, &mut rng);
        let sig = sign(
            issuer.public_key(),
            &member,
            b"golden message",
            BasesMode::PerMessage,
            &mut rng,
        );
        assert!(verify(
            issuer.public_key(),
            b"golden message",
            &sig,
            BasesMode::PerMessage
        )
        .is_ok());
        let digest = peace_hash::sha256(&sig.to_bytes());
        let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
        // If this changes, the wire format changed: bump the protocol
        // version strings and update this vector deliberately.
        assert_eq!(
            hex,
            golden_signature_digest(),
            "group-signature wire format drifted"
        );
    }

    fn golden_signature_digest() -> String {
        // Computed once from the pinned RNG stream above (see test).
        include_str!("golden_sig_digest.txt").trim().to_string()
    }

    #[test]
    fn fixed_bases_consistent_with_scan() {
        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        let tokens = vec![f.alice.revocation_token(), f.bob.revocation_token()];
        let sig = sign(&gpk, &f.alice, b"m", BasesMode::FixedBases, &mut f.rng);
        assert_eq!(
            revocation_index(&gpk, b"m", &sig, &tokens, BasesMode::FixedBases),
            Some(0)
        );
        let table = RevocationTable::build(&gpk, &tokens);
        assert_eq!(table.lookup(&sig), Some(0));
    }

    #[test]
    fn signature_encoding_roundtrip_and_size() {
        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        let sig = sign(&gpk, &f.alice, b"m", BasesMode::PerMessage, &mut f.rng);
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), GroupSignature::ENCODED_LEN);
        assert_eq!(GroupSignature::from_wire(&bytes).unwrap(), sig);
        // E1: 2·|G1| + 5·|Zq| = 2·65 + 5·20 = 230 bytes on our curve.
        assert_eq!(GroupSignature::ENCODED_LEN, 230);
    }

    #[test]
    fn gpk_and_token_encoding_roundtrip() {
        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        assert_eq!(GroupPublicKey::from_wire(&gpk.to_wire()).unwrap(), gpk);
        let t = f.alice.revocation_token();
        assert_eq!(RevocationToken::from_wire(&t.to_wire()).unwrap(), t);
        let _ = &mut f.rng;
    }

    #[test]
    fn decode_rejects_corrupt_signature() {
        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        let sig = sign(&gpk, &f.alice, b"m", BasesMode::PerMessage, &mut f.rng);
        let mut bytes = sig.to_bytes();
        bytes[20] = 9; // invalid point tag for t1
        assert!(GroupSignature::from_wire(&bytes).is_err());
        assert!(GroupSignature::from_wire(&bytes[..100]).is_err());
    }

    #[test]
    fn op_counts_match_paper_shape() {
        // §V.C: "signature generation requires about 8 exponentiations and
        // 2 bilinear map computations" (7 here: two of the eight run as one
        // Shamir double multiplication); "verification takes 6
        // exponentiations and 3 + 2|URL| computations of the bilinear map" —
        // the 3 is the plain path below, the 2|URL| the naive scan at the
        // end of this test.
        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        let scope = OpSnapshot::scope();
        let sig = sign(&gpk, &f.alice, b"m", BasesMode::PerMessage, &mut f.rng);
        let sign_cost = scope.counts();
        assert_eq!(sign_cost.pairings, 2, "sign: {sign_cost:?}");
        assert_eq!(sign_cost.g1_muls, 7, "sign: {sign_cost:?}");

        // The key's two line tables, built once.
        let scope = OpSnapshot::scope();
        let prepared = PreparedGpk::new(&gpk);
        assert_eq!(scope.counts().miller_prepares, 2);

        // The product signer, handed ê(A, g₂): one bilinear map on the
        // books, paid as two table evaluations at v and one reduction of
        // their powers (one 𝔾_T exponentiation for the pair), and the 𝔾_T
        // power of ê(A, g₂). Six 𝔾₁ multiplications, three of them sharing
        // the doubling chain of u: eight exponentiations, as §V.C counts.
        let e_a_g2 = prepared.member_pairing(&f.alice).unwrap();
        let scope = OpSnapshot::scope();
        let fast = prepared.sign_as(&f.alice, &e_a_g2, b"m", BasesMode::PerMessage, &mut f.rng);
        let fast_cost = scope.counts();
        assert_eq!(
            (fast_cost.pairings, fast_cost.gt_exps),
            (1, 2),
            "{fast_cost:?}"
        );
        assert_eq!(fast_cost.g1_muls, 6, "{fast_cost:?}");
        assert_eq!(fast_cost.total_exps(), 8, "{fast_cost:?}");
        assert_eq!(
            (fast_cost.miller_loops, fast_cost.final_exps),
            (2, 1),
            "{fast_cost:?}"
        );
        verify(&gpk, b"m", &fast, BasesMode::PerMessage).unwrap();

        // Without ê(A, g₂) the prepared signer pays for it: the paper's two
        // bilinear maps.
        let scope = OpSnapshot::scope();
        let _ = prepared.sign(&f.alice, b"m", BasesMode::PerMessage, &mut f.rng);
        let cost = scope.counts();
        assert_eq!((cost.pairings, cost.final_exps), (2, 2), "{cost:?}");
        assert_eq!((cost.miller_loops, cost.g1_muls), (3, 6), "{cost:?}");

        // The prepared verifier: "verification takes 6 exponentiations"
        // (§V.C), and two bilinear maps, the plain one's three less the
        // cached ê(g₁, g₂). Three 𝔾₁ multiplications: û's cofactor
        // ladder, R₁ and R₃ — v̂ enters R₂ as its uncleared H₀ pre-image,
        // its cofactor folded into two exponents — and three 𝔾_T powers.
        let scope = OpSnapshot::scope();
        prepared.verify(b"m", &fast, BasesMode::PerMessage).unwrap();
        let cost = scope.counts();
        assert_eq!((cost.pairings, cost.final_exps), (2, 1), "{cost:?}");
        assert_eq!(cost.g1_muls, 3, "{cost:?}");
        assert_eq!(cost.total_exps(), 6, "{cost:?}");

        let before_v = OpSnapshot::capture();
        verify(&gpk, b"m", &sig, BasesMode::PerMessage).unwrap();
        let verify_cost = OpSnapshot::capture().since(&before_v);
        assert_eq!(verify_cost.pairings, 3, "verify: {verify_cost:?}");
        assert_eq!(verify_cost.g1_muls, 6, "verify: {verify_cost:?}");

        // Revocation sweep: |URL| + 1 Miller loops (|URL| of them
        // evaluations against the lines prepared for û), one batched final
        // exponentiation, and zero full pairing evaluations.
        let url: Vec<_> = (0..4)
            .map(|_| f.issuer.issue(&f.grp_a, &mut f.rng).revocation_token())
            .collect();
        let before_r = OpSnapshot::capture();
        let _ = revocation_index(&gpk, b"m", &sig, &url, BasesMode::PerMessage);
        let rev_cost = OpSnapshot::capture().since(&before_r);
        assert_eq!(rev_cost.miller_loops, url.len() as u64 + 1);
        assert_eq!(rev_cost.final_exps, 1);
        assert_eq!(rev_cost.pairings, 0);
        assert_eq!(rev_cost.miller_prepares, 1, "û is prepared once");

        // The naive per-token scan the sweep replaces still costs 2 pairings
        // (one product evaluation) per token.
        let (u_hat, v_hat) = h0_bases(&gpk, b"m", &sig.r, BasesMode::PerMessage);
        let before_n = OpSnapshot::capture();
        for t in &url {
            let _ = token_matches(&sig, t, &u_hat, &v_hat);
        }
        let naive_cost = OpSnapshot::capture().since(&before_n);
        assert_eq!(naive_cost.pairings, 2 * url.len() as u64);
        assert_eq!(naive_cost.miller_loops, 2 * url.len() as u64);
    }

    #[test]
    fn a_decoded_signature_pays_for_its_points_once() {
        // Off the wire, T₁ and T₂ are bytes. Verification decompresses
        // them (2 square roots, 2 subgroup checks on top of the verifier's
        // three 𝔾₁ exponentiations); the sweep over a 64-token URL, a second
        // verification and the copy that goes to the log all reuse them.
        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        let prepared = PreparedGpk::new(&gpk);
        let url: Vec<_> = (0..64)
            .map(|_| f.issuer.issue(&f.grp_a, &mut f.rng).revocation_token())
            .collect();
        let signed = prepared.sign(&f.alice, b"m", BasesMode::PerMessage, &mut f.rng);

        // As signed: the signer's own points, nothing to decompress.
        let scope = OpSnapshot::scope();
        prepared
            .verify(b"m", &signed, BasesMode::PerMessage)
            .unwrap();
        let cost = scope.counts();
        assert_eq!((cost.g1_muls, cost.g1_decompressions), (3, 0));
        assert_eq!((cost.miller_loops, cost.final_exps), (4, 1));

        let scope = OpSnapshot::scope();
        let sig = GroupSignature::from_wire(&signed.to_wire()).unwrap();
        assert_eq!(scope.counts(), OpSnapshot::default(), "decoding is free");
        let (u_hat, v_hat) = prepared
            .verify_bases(b"m", &sig, BasesMode::PerMessage)
            .unwrap();
        let cost = scope.counts();
        assert_eq!((cost.g1_muls, cost.g1_decompressions), (3 + 2, 2));
        assert_eq!((cost.miller_loops, cost.final_exps), (4, 1));

        assert_eq!(revocation_sweep(&sig, &url, &u_hat, &v_hat), None);
        let logged = sig.clone();
        prepared
            .verify(b"m", &logged, BasesMode::PerMessage)
            .unwrap();
        assert_eq!(open(&gpk, b"m", &logged, &url, BasesMode::PerMessage), None);
        let cost = scope.counts();
        assert_eq!(cost.g1_decompressions, 2, "not 4 or 6");
        assert_eq!(cost.miller_loops, 4 + (64 + 1) + 4 + (64 + 1));
    }

    #[test]
    fn a_commitment_outside_the_group_fails_everywhere_it_is_used() {
        let encode = |x: u64| {
            let mut bytes = vec![0u8; 65];
            bytes[0] = 2;
            bytes[57..].copy_from_slice(&x.to_be_bytes());
            bytes
        };
        let lift = |bytes: &Vec<u8>| peace_curve::AffinePoint::from_compressed(bytes);
        let off_curve = (1..).map(encode).find(|b| lift(b).is_none()).unwrap();
        let out_of_subgroup = (1..)
            .map(encode)
            .find(|b| lift(b).is_some_and(|p| !p.is_in_subgroup()))
            .unwrap();

        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        let prepared = PreparedGpk::new(&gpk);
        let url = vec![f.alice.revocation_token(), f.bob.revocation_token()];
        let good = sign(&gpk, &f.alice, b"m", BasesMode::PerMessage, &mut f.rng);
        let (u_hat, v_hat) = h0_bases(&gpk, b"m", &good.r, BasesMode::PerMessage);
        assert_eq!(revocation_sweep(&good, &url, &u_hat, &v_hat), Some(0));

        for (bad, why) in [
            (&off_curve, peace_curve::PointError::NotOnCurve),
            (&out_of_subgroup, peace_curve::PointError::NotInSubgroup),
        ] {
            for slot in [20, 20 + 65] {
                let mut bytes = good.to_bytes();
                bytes[slot..slot + 65].copy_from_slice(bad);
                // Canonical bytes: the decoder takes them, byte for byte.
                let sig = GroupSignature::from_wire(&bytes).unwrap();
                assert_eq!(sig.to_bytes(), bytes);
                assert_eq!(sig.commitments(), Err(why));
                let refused = Err(VerifyError::InvalidPoint(why));
                assert_eq!(verify(&gpk, b"m", &sig, BasesMode::PerMessage), refused);
                assert_eq!(prepared.verify(b"m", &sig, BasesMode::PerMessage), refused);
                // It verifies under no key, so it matches no token.
                assert!(!token_matches(&sig, &url[0], &u_hat, &v_hat));
                assert_eq!(revocation_sweep(&sig, &url, &u_hat, &v_hat), None);
                assert_eq!(open(&gpk, b"m", &sig, &url, BasesMode::PerMessage), None);
                assert_eq!(
                    open_batch(
                        &gpk,
                        &[(b"m", &sig), (b"m", &good)],
                        &url,
                        BasesMode::PerMessage
                    ),
                    vec![None, Some(0)]
                );
                assert_eq!(RevocationTable::build(&gpk, &url).lookup(&sig), None);
            }
        }
        // Non-canonical bytes never become a signature at all.
        let mut bytes = good.to_bytes();
        bytes[21..85].fill(0xFF);
        assert!(GroupSignature::from_wire(&bytes).is_err());
    }

    #[test]
    fn sweep_matches_naive_token_scan() {
        // Equivalence: the shared-Miller sweep must agree with a per-token
        // `token_matches` loop on every index — revoked signer at each
        // position, unrevoked signer, empty URL.
        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        let url = vec![
            f.carol_b.revocation_token(),
            f.alice.revocation_token(),
            f.bob.revocation_token(),
        ];
        for key in [&f.alice, &f.bob, &f.carol_b] {
            let sig = sign(&gpk, key, b"sweep", BasesMode::PerMessage, &mut f.rng);
            let (u_hat, v_hat) = h0_bases(&gpk, b"sweep", &sig.r, BasesMode::PerMessage);
            let naive = url
                .iter()
                .position(|t| token_matches(&sig, t, &u_hat, &v_hat));
            assert_eq!(revocation_sweep(&sig, &url, &u_hat, &v_hat), naive);
            assert!(naive.is_some());
        }
        let outsider = f.issuer.issue(&f.grp_b, &mut f.rng);
        let sig = sign(&gpk, &outsider, b"sweep", BasesMode::PerMessage, &mut f.rng);
        let (u_hat, v_hat) = h0_bases(&gpk, b"sweep", &sig.r, BasesMode::PerMessage);
        assert_eq!(revocation_sweep(&sig, &url, &u_hat, &v_hat), None);
        assert_eq!(revocation_sweep(&sig, &[], &u_hat, &v_hat), None);
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        // Above the thread fan-out threshold the sweep must return the
        // same index as below it.
        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        let mut url: Vec<_> = (0..33)
            .map(|_| f.issuer.issue(&f.grp_a, &mut f.rng).revocation_token())
            .collect();
        url[17] = f.alice.revocation_token();
        let sig = sign(&gpk, &f.alice, b"par", BasesMode::PerMessage, &mut f.rng);
        let (u_hat, v_hat) = h0_bases(&gpk, b"par", &sig.r, BasesMode::PerMessage);
        assert_eq!(revocation_sweep(&sig, &url, &u_hat, &v_hat), Some(17));
        assert_eq!(revocation_sweep(&sig, &url[..17], &u_hat, &v_hat), None);
        // Counter shape holds through the threaded path too.
        let scope = OpSnapshot::scope();
        let _ = revocation_sweep(&sig, &url, &u_hat, &v_hat);
        let cost = scope.counts();
        assert_eq!(cost.miller_loops, url.len() as u64 + 1);
        assert_eq!(cost.final_exps, 1);
    }

    #[test]
    fn degenerate_sweep_inputs_have_a_defined_outcome() {
        // A hostile signature can put T₂ on the list (the evaluation point
        // T₂ − Aᵢ is then the identity), and û may be the identity. Neither
        // panics, neither matches, and neither runs a Miller loop.
        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        let url = vec![f.bob.revocation_token(), f.carol_b.revocation_token()];
        let mut sig = sign(&gpk, &f.alice, b"m", BasesMode::PerMessage, &mut f.rng);
        let (u_hat, v_hat) = h0_bases(&gpk, b"m", &sig.r, BasesMode::PerMessage);
        sig.t2 = url[1].0.into();
        let naive = |u_hat: &peace_curve::G2| {
            url.iter()
                .position(|t| token_matches(&sig, t, u_hat, &v_hat))
        };
        let scope = OpSnapshot::scope();
        assert_eq!(revocation_sweep(&sig, &url, &u_hat, &v_hat), None);
        let cost = scope.counts();
        assert_eq!(cost.miller_loops, 2, "one token plus the shared factor");
        drop(scope);
        assert_eq!(naive(&u_hat), None);

        let identity = peace_curve::G2::IDENTITY;
        let scope = OpSnapshot::scope();
        assert_eq!(revocation_sweep(&sig, &url, &identity, &v_hat), None);
        let cost = scope.counts();
        assert_eq!((cost.miller_loops, cost.miller_prepares), (1, 0));
        drop(scope);
        assert_eq!(naive(&identity), None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        #[test]
        fn prop_prepared_sweeps_match_naive_token_scan(
            seed in proptest::prelude::any::<u64>(),
            url_len in 1usize..20,
            slot in proptest::prelude::any::<usize>(),
        ) {
            // The sweep and the batched opener both run on the one
            // prepared-û loop; each must report exactly what the per-token
            // `token_matches` oracle reports, for a revoked signer at a
            // random index and for an unrevoked one, on either side of the
            // thread fan-out threshold (8 tokens by default).
            let mut rng = StdRng::seed_from_u64(seed);
            let issuer = IssuerKey::generate(&mut rng);
            let gpk = *issuer.public_key();
            let grp = issuer.new_group_secret(&mut rng);
            let revoked = issuer.issue(&grp, &mut rng);
            let unrevoked = issuer.issue(&grp, &mut rng);
            let mut url: Vec<_> = (0..url_len)
                .map(|_| issuer.issue(&grp, &mut rng).revocation_token())
                .collect();
            let slot = slot % url_len;
            url[slot] = revoked.revocation_token();

            let mode = BasesMode::PerMessage;
            let sigs = [
                sign(&gpk, &revoked, b"prop", mode, &mut rng),
                sign(&gpk, &unrevoked, b"prop", mode, &mut rng),
            ];
            let rows: Vec<_> = sigs
                .iter()
                .map(|s| {
                    let (u_hat, v_hat) = h0_bases(&gpk, b"prop", &s.r, mode);
                    (s, u_hat, v_hat)
                })
                .collect();
            let naive: Vec<_> = rows
                .iter()
                .map(|(s, u_hat, v_hat)| url.iter().position(|t| token_matches(s, t, u_hat, v_hat)))
                .collect();
            proptest::prop_assert_eq!(&naive, &vec![Some(slot), None]);
            for ((s, u_hat, v_hat), expect) in rows.iter().zip(&naive) {
                proptest::prop_assert_eq!(revocation_sweep(s, &url, u_hat, v_hat), *expect);
            }
            let items: Vec<(&[u8], &GroupSignature)> =
                sigs.iter().map(|s| (&b"prop"[..], s)).collect();
            proptest::prop_assert_eq!(&open_batch(&gpk, &items, &url, mode), &naive);
        }
    }

    #[test]
    fn prepared_sign_matches_plain_sign() {
        // The table-driven signer must be bit-identical to the free-standing
        // one for the same RNG stream (both draw r, α, r_α, r_x, r_δ in the
        // same order and compute the same values).
        let f = fixture();
        let gpk = *f.issuer.public_key();
        let prepared = PreparedGpk::new(&gpk);
        for mode in [BasesMode::PerMessage, BasesMode::FixedBases] {
            let mut r1 = StdRng::seed_from_u64(0xABCD);
            let mut r2 = StdRng::seed_from_u64(0xABCD);
            let plain = sign(&gpk, &f.alice, b"same bytes", mode, &mut r1);
            let fast = prepared.sign(&f.alice, b"same bytes", mode, &mut r2);
            assert_eq!(plain.to_bytes(), fast.to_bytes());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        /// The signer's three identities are exact: over random issuers,
        /// member keys and messages, and in both bases modes, the product
        /// signer — given ê(A, g₂) or computing it — emits the bytes the
        /// paper-shaped `sign` emits from the same RNG state, and leaves
        /// the RNG where `sign` leaves it.
        #[test]
        fn prop_product_signer_is_the_free_sign_byte_for_byte(
            seed in proptest::prelude::any::<u64>(),
            msg in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
        ) {
            use rand::RngCore;
            let mut rng = StdRng::seed_from_u64(seed);
            let issuer = IssuerKey::generate(&mut rng);
            let gpk = *issuer.public_key();
            let member = issuer.issue(&issuer.new_group_secret(&mut rng), &mut rng);
            let prepared = PreparedGpk::new(&gpk);
            let e_a_g2 = prepared.member_pairing(&member).expect("issued key");
            for mode in [BasesMode::PerMessage, BasesMode::FixedBases] {
                let mut rngs = [rng.clone(), rng.clone(), rng.clone()];
                let plain = sign(&gpk, &member, &msg, mode, &mut rngs[0]);
                let cached = prepared.sign_as(&member, &e_a_g2, &msg, mode, &mut rngs[1]);
                let uncached = prepared.sign(&member, &msg, mode, &mut rngs[2]);
                proptest::prop_assert_eq!(&cached.to_bytes(), &plain.to_bytes());
                proptest::prop_assert_eq!(&uncached.to_bytes(), &plain.to_bytes());
                let next = rngs.map(|mut r| r.next_u64());
                proptest::prop_assert!(next[1] == next[0] && next[2] == next[0]);
                proptest::prop_assert!(prepared.verify(&msg, &cached, mode).is_ok());
            }
        }
    }

    #[test]
    fn prepared_sign_reproduces_golden_vector() {
        // The golden digest pins the full pipeline; the optimized signer
        // must hit the same bytes from the same seed.
        let mut rng = StdRng::seed_from_u64(0xFEED);
        let issuer = IssuerKey::generate(&mut rng);
        let grp = issuer.new_group_secret(&mut rng);
        let member = issuer.issue(&grp, &mut rng);
        let prepared = PreparedGpk::new(issuer.public_key());
        let sig = prepared.sign(&member, b"golden message", BasesMode::PerMessage, &mut rng);
        let digest = peace_hash::sha256(&sig.to_bytes());
        let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, golden_signature_digest());
    }

    #[test]
    fn verify_and_check_combines_both_steps() {
        let mut f = fixture();
        let gpk = *f.issuer.public_key();
        let prepared = PreparedGpk::new(&gpk);
        let url = vec![f.bob.revocation_token()];

        let sig_alice = sign(&gpk, &f.alice, b"m", BasesMode::PerMessage, &mut f.rng);
        assert_eq!(
            prepared.verify_and_check(b"m", &sig_alice, &url, BasesMode::PerMessage),
            Ok(None)
        );
        let sig_bob = sign(&gpk, &f.bob, b"m", BasesMode::PerMessage, &mut f.rng);
        assert_eq!(
            prepared.verify_and_check(b"m", &sig_bob, &url, BasesMode::PerMessage),
            Ok(Some(0))
        );
        // Invalid signatures fail without consulting the URL.
        assert!(prepared
            .verify_and_check(b"other", &sig_alice, &url, BasesMode::PerMessage)
            .is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        #[test]
        fn prop_sweep_matches_naive_token_scan(
            seed in proptest::prelude::any::<u64>(),
            url_len in 0usize..6,
            revoked_slot in 0usize..12,
        ) {
            // Equivalence under random group keys, URL sizes, and revoked
            // positions: the shared-Miller sweep must report exactly what a
            // per-token `token_matches` loop reports.
            let mut rng = StdRng::seed_from_u64(seed);
            let issuer = IssuerKey::generate(&mut rng);
            let gpk = *issuer.public_key();
            let grp = issuer.new_group_secret(&mut rng);
            let signer = issuer.issue(&grp, &mut rng);
            let mut url: Vec<_> = (0..url_len)
                .map(|_| issuer.issue(&grp, &mut rng).revocation_token())
                .collect();
            // Upper half of the slot range means "signer not on the URL".
            let expect = (revoked_slot < url_len).then_some(revoked_slot);
            if let Some(i) = expect {
                url[i] = signer.revocation_token();
            }
            let sig = sign(&gpk, &signer, b"prop", BasesMode::PerMessage, &mut rng);
            let (u_hat, v_hat) = h0_bases(&gpk, b"prop", &sig.r, BasesMode::PerMessage);
            let naive = url
                .iter()
                .position(|t| token_matches(&sig, t, &u_hat, &v_hat));
            proptest::prop_assert_eq!(naive, expect);
            proptest::prop_assert_eq!(revocation_sweep(&sig, &url, &u_hat, &v_hat), naive);
        }
    }
}
