//! # PEACE — a Privacy-Enhanced yet Accountable security framework for
//! metropolitan wireless mesh networks
//!
//! A from-scratch Rust reproduction of *"A Sophisticated Privacy-Enhanced
//! Yet Accountable Security Framework for Metropolitan Wireless Mesh
//! Networks"* (Kui Ren, Wenjing Lou — ICDCS 2008), including every
//! substrate it depends on:
//!
//! | Layer | Crate | What it provides |
//! |---|---|---|
//! | big integers | [`bigint`] | fixed-width Montgomery-ready arithmetic |
//! | fields | [`field`] | `F_p` (512-bit), `F_q` (160-bit), `F_p²` |
//! | curve | [`curve`] | supersingular `E: y² = x³ + x`, 𝔾₁/𝔾₂, ψ, hash-to-curve |
//! | pairing | [`pairing`] | reduced Tate pairing with distortion map, 𝔾_T |
//! | hashing | [`hash`] | SHA-256, HMAC, HKDF, XOF (all from scratch) |
//! | symmetric | [`symmetric`] | AEAD + per-packet MACs for sessions |
//! | ECDSA | [`ecdsa`] | ECDSA-160, router certificates |
//! | codec | [`wire`] | deterministic binary encoding |
//! | puzzles | [`puzzle`] | Juels–Brainard client puzzles (DoS defense) |
//! | **group signatures** | [`groupsig`] | the paper's BS04-VLR variation |
//! | **protocol** | [`protocol`] | NO/TTP/GM/router/user/law entities, AKA protocols, audit |
//! | simulator | [`sim`] | discrete-event metropolitan WMN with adversaries |
//! | telemetry | [`telemetry`] | counters, log-scale histograms, schema-versioned snapshots |
//! | **runtime** | [`net`] | framed-TCP node daemons (NO, router, user) + fault proxy |
//! | **ledger** | [`ledger`] | durable hash-chained accountability log, signed checkpoints, batch audit |
//!
//! ## Quickstart
//!
//! ```
//! use peace::protocol::{entities::*, ids::UserId, ProtocolConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), peace::protocol::ProtocolError> {
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
//! let group = no.register_group("Company XYZ", &mut rng);
//! let (gm_bundle, ttp_bundle) = no.issue_shares(group, 4, &mut rng)?;
//!
//! let mut gm = GroupManager::new(group);
//! gm.receive_bundle(&gm_bundle, no.npk())?;
//! let mut ttp = Ttp::new();
//! ttp.receive_bundle(&ttp_bundle, no.npk())?;
//!
//! let uid = UserId("alice".into());
//! let mut alice = UserClient::new(uid.clone(), no.prepared_gpk(), *no.npk(), *no.config(), &mut rng);
//! let assignment = gm.assign(&uid)?;
//! let delivery = ttp.deliver(assignment.index, &uid)?;
//! alice.enroll(&assignment, &delivery)?;
//!
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
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every reproduced experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use peace_bigint as bigint;
pub use peace_curve as curve;
pub use peace_ecdsa as ecdsa;
pub use peace_field as field;
pub use peace_groupsig as groupsig;
pub use peace_hash as hash;
pub use peace_ledger as ledger;
pub use peace_loadgen as loadgen;
pub use peace_net as net;
pub use peace_pairing as pairing;
pub use peace_protocol as protocol;
pub use peace_puzzle as puzzle;
pub use peace_revoke as revoke;
pub use peace_sim as sim;
pub use peace_symmetric as symmetric;
pub use peace_telemetry as telemetry;
pub use peace_wire as wire;
