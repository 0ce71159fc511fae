//! The PEACE principals: network operator, TTP, group managers, mesh
//! routers, users, and the law authority (§III.A).

mod gm;
mod law;
mod no;
mod router;
mod ttp;
mod user;

pub use gm::{GmAssignment, GroupManager};
pub use law::{LawAuthority, TraceResult};
pub use no::NetworkOperator;
pub use router::{CheckedAccess, MeshRouter, PendingAccess};
pub use ttp::{Ttp, TtpDelivery};
pub use user::{Credential, UserClient};
