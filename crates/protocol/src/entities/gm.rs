//! User group managers (`GM_i`): companies, universities, agencies that
//! subscribe to the WMN on behalf of their members.
//!
//! A GM holds the scalar shares `(grp_i, x_j)` and the assignment
//! `uid ↔ slot`, but never the points `A_{i,j}` — so it cannot link
//! signatures to members (§IV.A). It answers law-authority trace requests
//! by mapping a slot back to a user (§IV.D).

use std::collections::HashMap;

use peace_ecdsa::VerifyingKey;

use crate::error::{ProtocolError, Result};
use crate::ids::{GroupId, ShareIndex, UserId};
use crate::setup::{GmBundle, GmShare, Receipt};

use super::ttp::Ttp;
use super::user::UserClient;

/// The GM→user part of a credential assignment (sent over the
/// pre-established GM↔user trust channel).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GmAssignment {
    /// The share index `[i, j]`.
    pub index: ShareIndex,
    /// The group secret `grp_i`.
    pub grp: peace_field::Fq,
    /// The member scalar `x_j`.
    pub x: peace_field::Fq,
}

/// A user group manager.
#[derive(Debug)]
pub struct GroupManager {
    id: GroupId,
    unassigned: Vec<GmShare>,
    assigned: HashMap<u32, UserId>,
    assignments_by_user: HashMap<UserId, Vec<ShareIndex>>,
    receipts: Vec<(UserId, Receipt)>,
}

impl GroupManager {
    /// Creates the manager for group `id`.
    pub fn new(id: GroupId) -> Self {
        Self {
            id,
            unassigned: Vec::new(),
            assigned: HashMap::new(),
            assignments_by_user: HashMap::new(),
            receipts: Vec::new(),
        }
    }

    /// This manager's group id.
    pub fn id(&self) -> GroupId {
        self.id
    }

    /// Ingests a signed bundle of scalar shares from NO (§IV.A step 5).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Setup`] on a bad signature or a share belonging to
    /// another group.
    pub fn receive_bundle(&mut self, bundle: &GmBundle, npk: &VerifyingKey) -> Result<()> {
        bundle.validate(npk)?;
        for share in &bundle.shares {
            if share.index.group != self.id {
                return Err(ProtocolError::Setup("share for a different group"));
            }
            self.unassigned.push(share.clone());
        }
        Ok(())
    }

    /// Assigns the next unassigned share to a member (§IV.A user step 1).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Setup`] when the share pool is exhausted.
    pub fn assign(&mut self, uid: &UserId) -> Result<GmAssignment> {
        let share = self
            .unassigned
            .pop()
            .ok_or(ProtocolError::Setup("group manager out of shares"))?;
        self.assigned.insert(share.index.slot, uid.clone());
        self.assignments_by_user
            .entry(uid.clone())
            .or_default()
            .push(share.index);
        Ok(GmAssignment {
            index: share.index,
            grp: share.grp,
            x: share.x,
        })
    }

    /// Stores a user's signed delivery receipt (non-repudiation, §IV.D).
    pub fn store_receipt(&mut self, uid: &UserId, receipt: Receipt) {
        self.receipts.push((uid.clone(), receipt));
    }

    /// Enrolls `user` on this group's next slot, the user's half of the
    /// off-line setup (§IV.A) in one process. The GM assigns the slot and
    /// sends `(grp_i, x_j)`, keeping `uid ↔ slot`; `ttp` delivers the
    /// slot's blinded point, keeping `uid ↔ blinded share`; the user
    /// unblinds it with `x_j`, checks the assembled
    /// `gsk[i,j] = (A_{i,j}, grp_i, x_j)` and signs a receipt over both
    /// parts, which the GM keeps for the non-repudiation of §IV.D. A user
    /// with several roles enrolls once per group.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Setup`] if the pool is exhausted, the TTP holds no
    /// share for the slot, or the assembled key fails its check.
    pub fn enroll(&mut self, ttp: &mut Ttp, user: &mut UserClient) -> Result<()> {
        let uid = user.uid().clone();
        let assignment = self.assign(&uid)?;
        let delivery = ttp.deliver(assignment.index, &uid)?;
        let receipt = user.enroll(&assignment, &delivery)?;
        self.store_receipt(&uid, receipt);
        Ok(())
    }

    /// Law-authority trace (§IV.D): maps a share slot back to the member.
    pub fn identify(&self, index: ShareIndex) -> Option<&UserId> {
        if index.group != self.id {
            return None;
        }
        self.assigned.get(&index.slot)
    }

    /// Shares still available for new members.
    pub fn available_shares(&self) -> usize {
        self.unassigned.len()
    }

    /// Number of members with at least one credential.
    pub fn member_count(&self) -> usize {
        self.assignments_by_user.len()
    }

    /// Receipts stored for a given user.
    pub fn receipts_for(&self, uid: &UserId) -> Vec<&Receipt> {
        self.receipts
            .iter()
            .filter(|(u, _)| u == uid)
            .map(|(_, r)| r)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{GmBundle, GmShare};
    use peace_ecdsa::SigningKey;
    use peace_field::Fq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bundle(signer: &SigningKey, group: GroupId, slots: u32) -> GmBundle {
        let mut rng = StdRng::seed_from_u64(7);
        GmBundle::issue(
            signer,
            (0..slots)
                .map(|slot| GmShare {
                    index: ShareIndex { group, slot },
                    grp: Fq::random(&mut rng),
                    x: Fq::random(&mut rng),
                })
                .collect(),
        )
    }

    #[test]
    fn assign_identify_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let no_key = SigningKey::random(&mut rng);
        let gid = GroupId(4);
        let mut gm = GroupManager::new(gid);
        gm.receive_bundle(&bundle(&no_key, gid, 3), no_key.verifying_key())
            .unwrap();
        assert_eq!(gm.available_shares(), 3);

        let alice = UserId("alice".into());
        let a1 = gm.assign(&alice).unwrap();
        assert_eq!(gm.identify(a1.index), Some(&alice));
        assert_eq!(gm.member_count(), 1);
        assert_eq!(gm.available_shares(), 2);

        // multiple credentials per member are allowed
        let a2 = gm.assign(&alice).unwrap();
        assert_ne!(a1.index, a2.index);
        assert_eq!(gm.member_count(), 1);
    }

    #[test]
    fn identify_wrong_group_or_slot() {
        let mut rng = StdRng::seed_from_u64(4);
        let no_key = SigningKey::random(&mut rng);
        let gid = GroupId(5);
        let mut gm = GroupManager::new(gid);
        gm.receive_bundle(&bundle(&no_key, gid, 1), no_key.verifying_key())
            .unwrap();
        let alice = UserId("alice".into());
        let a = gm.assign(&alice).unwrap();
        // wrong group id
        assert_eq!(
            gm.identify(ShareIndex {
                group: GroupId(99),
                slot: a.index.slot
            }),
            None
        );
        // unassigned slot
        assert_eq!(
            gm.identify(ShareIndex {
                group: gid,
                slot: 1234
            }),
            None
        );
    }

    #[test]
    fn rejects_shares_for_other_groups() {
        let mut rng = StdRng::seed_from_u64(5);
        let no_key = SigningKey::random(&mut rng);
        let mut gm = GroupManager::new(GroupId(1));
        let wrong = bundle(&no_key, GroupId(2), 1);
        assert!(gm.receive_bundle(&wrong, no_key.verifying_key()).is_err());
        assert_eq!(gm.available_shares(), 0);
    }
}
