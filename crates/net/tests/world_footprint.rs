//! What an enrolled user costs a process that replays the ceremony.
//!
//! Alone in its binary, with one test, so that nothing else allocates in
//! the process while the resident set is read.

use peace_net::{build_world, WorldSpec};

fn resident_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn sixty_four_more_users_cost_under_three_mib() {
    let world = |users| {
        build_world(&WorldSpec {
            users,
            ..WorldSpec::default()
        })
        .unwrap()
    };
    let small = world(4);
    let after_small = resident_kib();
    let large = world(68);
    let after_large = resident_kib();
    // One prepared gpk is ≈ 139 KiB; a copy per user would put 64 users
    // near 9 MiB.
    let grown = after_large.saturating_sub(after_small);
    assert!(grown < 3 * 1024, "68 users after 4: +{grown} KiB resident");
    assert_eq!((small.users.len(), large.users.len()), (4, 68));
}
