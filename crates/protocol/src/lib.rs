//! The PEACE protocol suite (Ren & Lou, ICDCS 2008, §III–§IV).
//!
//! This crate assembles the cryptographic substrates into the paper's
//! framework:
//!
//! * **Setup** ([`setup`], [`entities::NetworkOperator`], [`entities::Ttp`],
//!   [`entities::GroupManager`]) — three-party distribution of group
//!   private keys with late user binding;
//! * **User↔router AKA** (§IV.B) — beacons (M.1), anonymous access
//!   requests (M.2), confirmations (M.3);
//! * **User↔user AKA** (§IV.C) — M̃.1/M̃.2/M̃.3 pairwise handshakes;
//! * **Privacy-preserving accountability** (§IV.D) — session logging,
//!   NO audits that reveal only the user group, and full law-authority
//!   tracing via GM cooperation;
//! * **Membership dynamics** — signed CRL/URL revocation lists carried in
//!   beacons;
//! * **DoS resilience** (§V.A) — client puzzles gated on router attack
//!   state.
//!
//! # Quickstart
//!
//! ```
//! use peace_protocol::{entities::*, ids::UserId, ProtocolConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), peace_protocol::ProtocolError> {
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
//!
//! // Register a user group and run the three-party key distribution.
//! let group = no.register_group("Company XYZ", &mut rng);
//! let (gm_bundle, ttp_bundle) = no.issue_shares(group, 4, &mut rng)?;
//! let mut gm = GroupManager::new(group);
//! gm.receive_bundle(&gm_bundle, no.npk())?;
//! let mut ttp = Ttp::new();
//! ttp.receive_bundle(&ttp_bundle, no.npk())?;
//!
//! // Enroll a user.
//! let uid = UserId("alice".into());
//! let mut alice = UserClient::new(uid.clone(), no.prepared_gpk(), *no.npk(), *no.config(), &mut rng);
//! let assignment = gm.assign(&uid)?;
//! let delivery = ttp.deliver(assignment.index, &uid)?;
//! alice.enroll(&assignment, &delivery)?;
//!
//! // Authenticate to a router and exchange data.
//! let mut router = no.provision_router("MR-1", 1_000_000, &mut rng);
//! let beacon = router.beacon(1_000, &mut rng);
//! let req = alice.request_access(&beacon, 1_050, &mut rng)?;
//! let (confirm, mut router_sess) = router.process_access_request(&req, 1_100)?;
//! let mut alice_sess = alice.handle_access_confirm(&confirm, 1_100)?;
//!
//! let packet = alice_sess.seal_data(b"hello metro mesh");
//! assert_eq!(router_sess.open_data(&packet)?, b"hello metro mesh");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod audit;
pub mod config;
pub mod entities;
pub mod error;
pub mod ids;
pub mod messages;
pub mod pending;
pub mod relay;
pub mod replica;
pub mod revocation;
pub mod session;
pub mod setup;
pub mod transport;

pub use audit::{AuditFinding, LoggedSession, NetworkLog};
pub use config::ProtocolConfig;
pub use error::{ProtocolError, Result, Transient};
pub use ids::{GroupId, RouterId, SessionId, ShareIndex, UserId};
pub use messages::{AccessConfirm, AccessRequest, Beacon, PeerConfirm, PeerHello, PeerResponse};
pub use pending::PendingTable;
pub use replica::ReplicaSet;
pub use revocation::{SignedCrl, SignedUrl, SignedUrlDelta, UrlRestamp, UrlSection};
pub use session::{Role, Session};
pub use transport::{Channel, Delivery, FaultPlan, FaultStats, RetryPolicy};
