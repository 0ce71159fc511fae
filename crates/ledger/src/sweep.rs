//! Batched Open/Audit sweeps over a ledger time range.
//!
//! An audit sweep collects every access transcript in a time window,
//! replays all their group signatures through NO's batched opener
//! ([`NetworkOperator::audit_batch`]: records readied eight at a time,
//! their H₀ bases, decompressions, line tables and shared Miller values
//! in AVX-512 IFMA lanes where the CPU has them, then `grt` walked only to
//! each record's match, lane groups claimed by the cores), and appends
//! one [`LedgerRecord::Attribution`] per resolved transcript. Attribution
//! rides the same append-only chain as everything else, so the audit
//! trail of *who audited what* is itself tamper-evident.
//!
//! The sweep verifies no signature: it opens what the ledger logged, and
//! a transcript a router reported is taken as verified. One that does not
//! verify but matches a published token is attributed here, where
//! [`NetworkOperator::audit`] of that one transcript refuses it.

use peace_protocol::audit::AuditFinding;
use peace_protocol::entities::NetworkOperator;

use crate::record::{Entry, LedgerRecord, RecordKind};
use crate::store::{Ledger, LedgerQuery};
use crate::Result;

/// Outcome of one sweep: which access records resolved to which group.
#[derive(Clone, Debug, Default)]
pub struct SweepOutcome {
    /// Access records examined (in the window, not yet attributed).
    pub examined: usize,
    /// `(access seq, finding)` for every transcript the batch opener
    /// matched against a revocation-token row.
    pub resolved: Vec<(u64, AuditFinding)>,
    /// Sequence numbers of transcripts no epoch's grt could open
    /// (foreign or forged signatures).
    pub unresolved: Vec<u64>,
}

/// Runs a batched Open/Audit over every not-yet-attributed access record
/// stamped within `[since_ms, until_ms]`. Does not modify the ledger —
/// pass the outcome to [`attribute_sweep`] to persist attributions.
pub fn audit_sweep(
    no: &NetworkOperator,
    ledger: &Ledger,
    since_ms: u64,
    until_ms: u64,
) -> Result<SweepOutcome> {
    let sweep_start = std::time::Instant::now();
    let entries = ledger.query(&LedgerQuery {
        kind: Some(RecordKind::Access),
        since_ms: Some(since_ms),
        until_ms: Some(until_ms),
        ..LedgerQuery::default()
    })?;
    let pending: Vec<&Entry> = entries
        .iter()
        .filter(|e| !ledger.is_attributed(e.seq))
        .collect();
    let items: Vec<(&[u8], &peace_groupsig::GroupSignature)> = pending
        .iter()
        .filter_map(|e| match &e.record {
            LedgerRecord::Access(a) => Some((a.session.signed_payload.as_slice(), &a.session.gsig)),
            _ => None,
        })
        .collect();
    let findings = no.audit_batch(&items);
    let mut out = SweepOutcome {
        examined: pending.len(),
        ..SweepOutcome::default()
    };
    for (entry, finding) in pending.iter().zip(findings) {
        match finding {
            Some(f) => out.resolved.push((entry.seq, f)),
            None => out.unresolved.push(entry.seq),
        }
    }
    crate::timing::sweep_us().record_since(sweep_start);
    Ok(out)
}

/// Persists a sweep's findings as [`LedgerRecord::Attribution`] records,
/// skipping any access record attributed in the meantime. Returns the
/// number of attributions appended.
pub fn attribute_sweep(ledger: &mut Ledger, outcome: &SweepOutcome, at_ms: u64) -> Result<usize> {
    let mut appended = 0;
    for (seq, finding) in &outcome.resolved {
        if ledger.is_attributed(*seq) {
            continue;
        }
        ledger.append(
            LedgerRecord::Attribution {
                session_seq: *seq,
                group: finding.group.0,
                slot: finding.index.slot,
            },
            at_ms,
        )?;
        appended += 1;
    }
    ledger.flush()?;
    Ok(appended)
}
