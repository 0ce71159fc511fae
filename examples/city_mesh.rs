//! City-scale simulation (experiment E10 / paper Fig. 1 architecture):
//! a 4×4 router grid covering a 2 km² downtown, mobile users
//! authenticating, relaying, and chatting — all with real PEACE crypto,
//! over an adversarial channel that misbehaves for the first half of the
//! run and then goes clean.
//!
//! Run with: `cargo run --release --example city_mesh`

use peace::protocol::FaultPlan;
use peace::sim::{SimConfig, SimWorld, TopologyConfig};

fn main() {
    println!("== PEACE metropolitan mesh simulation ==\n");

    let config = SimConfig {
        topology: TopologyConfig {
            city_size: 2_000.0,
            routers_per_side: 4,
            ap_fraction: 0.25,
            router_range: 310.0,
            user_range: 240.0,
        },
        users: 40,
        groups: 4,
        beacon_interval: 1_000,
        list_update_interval: 10_000,
        auth_interval: 5_000,
        move_interval: 2_000,
        move_step: 80.0,
        peer_chat_prob: 0.3,
        end_time: 60_000,
        // A mildly hostile wire for the first 30 s: every fault class at
        // 5% (drops at 7%: 2% of plain radio loss on top), then the channel
        // goes clean and the city heals.
        fault: FaultPlan {
            drop_prob: 0.07,
            ..FaultPlan::uniform(0.05, 400)
        },
        fault_until: 30_000,
        seed: 20080605,
    };
    println!(
        "city: {:.0}m × {:.0}m, {} routers ({} APs), {} users in {} groups",
        config.topology.city_size,
        config.topology.city_size,
        config.topology.routers_per_side * config.topology.routers_per_side,
        ((config.topology.routers_per_side * config.topology.routers_per_side) as f64
            * config.topology.ap_fraction)
            .round(),
        config.users,
        config.groups,
    );
    println!("simulating {}s of city time...\n", config.end_time / 1000);

    let mut world = SimWorld::new(config);
    let start = std::time::Instant::now();
    world.run();
    let elapsed = start.elapsed();
    let m = world.metrics.clone();

    println!("== results ==");
    println!("  wall-clock                      : {elapsed:.2?}");
    println!("  authentications (success)       : {}", m.auth_success);
    println!(
        "  authentications (failed)        : {}",
        m.auth_fail.values().sum::<u64>()
    );
    for (reason, count) in &m.auth_fail {
        println!("      {reason}: {count}");
    }
    println!(
        "  auth success rate               : {:.1}%",
        100.0 * m.auth_success_rate()
    );
    println!("  peer handshakes (success)       : {}", m.peer_success);
    println!("  data payloads delivered         : {}", m.data_delivered);
    println!("  relay hops used                 : {}", m.relay_hops);
    println!(
        "  avg relay hops per auth         : {:.3}",
        world.avg_relay_hops()
    );
    println!(
        "  moments a user was disconnected : {}",
        m.disconnected_users
    );
    println!(
        "  channel faults injected         : {} ({} msgs sent)",
        m.fault_stats.total_faults(),
        m.fault_stats.transmitted
    );
    println!(
        "  mangled deliveries rejected     : {}",
        m.decode_failure_total()
    );
    println!(
        "  duplicates rejected             : {}",
        m.duplicate_rejects
    );
    println!(
        "  retries scheduled / exhausted   : {} / {}",
        m.retries, m.retries_exhausted
    );
    println!(
        "  pending-state high water        : {}",
        m.pending_high_water
    );
    println!(
        "  sessions logged at the operator : {}",
        world.no.logged_session_count()
    );
    println!("  busiest routers                 : {}", {
        let mut loads: Vec<_> = m.auths_by_router.iter().collect();
        loads.sort_by(|a, b| b.1.cmp(a.1));
        loads
            .iter()
            .take(3)
            .map(|(r, n)| format!("{r}×{n}"))
            .collect::<Vec<_>>()
            .join(", ")
    });

    // Show the privacy property at scale: audit a random logged session.
    if let Some(sid) = world.no.logged_session_ids().first() {
        let finding = world.no.audit(sid).expect("logged session audits");
        println!(
            "\naudit sample: session {} resolves to '{}' — and nothing more",
            sid,
            world.no.group_name(finding.group).unwrap_or("?")
        );
    }
    println!("done.");
}
