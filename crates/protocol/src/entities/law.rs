//! The law authority: full identity tracing with NO + GM cooperation
//! (§IV.D, "revocable user anonymity against law authority").

use std::collections::HashMap;

use crate::audit::LoggedSession;
use crate::error::{ProtocolError, Result};
use crate::ids::{GroupId, UserId};

use super::gm::GroupManager;
use super::no::NetworkOperator;

/// The result of a full law-authority trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceResult {
    /// The user group the session was attributed to (what NO alone learns).
    pub group: GroupId,
    /// The fully identified user (requires the GM's cooperation).
    pub uid: UserId,
}

/// The law authority.
///
/// Holds no keys of its own: its power is purely the legal ability to
/// compel NO (audit → group + token index) and the group manager
/// (index → uid) to cooperate. Neither alone can produce the mapping.
#[derive(Debug, Default)]
pub struct LawAuthority;

impl LawAuthority {
    /// Creates the authority.
    pub fn new() -> Self {
        Self
    }

    /// Traces a disputed transcript to a user: NO audits it (learning the
    /// group and share index), then the group's manager resolves the index
    /// to the member.
    ///
    /// # Errors
    ///
    /// As [`NetworkOperator::audit`]; [`ProtocolError::Setup`] also if no
    /// GM exists for the audited group or the GM has no record for the
    /// share.
    pub fn trace(
        &self,
        no: &NetworkOperator,
        managers: &HashMap<GroupId, GroupManager>,
        session: &LoggedSession,
    ) -> Result<TraceResult> {
        let finding = no.audit(&session.signed_payload, &session.gsig)?;
        let gm = managers
            .get(&finding.group)
            .ok_or(ProtocolError::Setup("no manager for audited group"))?;
        let uid = gm
            .identify(finding.index)
            .ok_or(ProtocolError::Setup("GM has no member for share index"))?;
        Ok(TraceResult {
            group: finding.group,
            uid: uid.clone(),
        })
    }
}
