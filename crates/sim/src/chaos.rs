//! Chaos soak: the full city simulation under sustained adversarial-channel
//! faults, with recovery checks once the faults clear.
//!
//! The harness drives [`SimWorld`] with a [`FaultPlan`] that drops,
//! duplicates, reorders, delays, truncates, and bit-flips handshake
//! messages simultaneously, then clears the plan partway through the run
//! and measures whether the network heals: no panics, pending-state tables
//! bounded, and (nearly) every user re-authenticating on a clean wire.

use peace_protocol::config::{MAX_ACTIVE_BEACONS, MAX_PENDING_HANDSHAKES};
use peace_protocol::FaultPlan;

use crate::metrics::SimMetrics;
use crate::topology::TopologyConfig;
use crate::world::{SimConfig, SimWorld};

/// Parameters of a chaos soak.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Number of mobile users.
    pub users: usize,
    /// Simulation end time (ms).
    pub end_time: u64,
    /// Time at which the channel turns clean (recovery phase starts).
    pub fault_until: u64,
    /// The fault plan active until [`Self::fault_until`].
    pub fault: FaultPlan,
    /// RNG seed (world and channel derive from it deterministically).
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            users: 24,
            end_time: 60_000,
            fault_until: 36_000,
            // Every fault class at 15%, delays up to 800 ms: inside the
            // 10–20% band the robustness plan calls for, and below the
            // protocol's freshness windows so delayed copies stay usable.
            fault: FaultPlan::uniform(0.15, 800),
            seed: 0xC0DE,
        }
    }
}

/// The outcome of a chaos soak.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Full simulation metrics.
    pub metrics: SimMetrics,
    /// Users simulated.
    pub users: usize,
    /// Users whose latest successful authentication happened after the
    /// faults cleared (they recovered on the clean wire).
    pub converged_users: usize,
    /// The hard bound no endpoint's pending-state table may exceed.
    pub pending_bound: usize,
}

impl ChaosReport {
    /// Fraction of users that re-authenticated after the faults cleared.
    pub fn convergence_rate(&self) -> f64 {
        if self.users == 0 {
            1.0
        } else {
            self.converged_users as f64 / self.users as f64
        }
    }

    /// Whether every endpoint's pending state stayed within its bound.
    pub fn pending_bounded(&self) -> bool {
        self.metrics.pending_high_water <= self.pending_bound
    }
}

/// Runs the chaos soak: dense 4×4 router city (full single-hop coverage),
/// faults active until `cfg.fault_until`, then a clean recovery phase.
pub fn run_chaos_soak(cfg: &ChaosConfig) -> ChaosReport {
    let sim = SimConfig {
        users: cfg.users,
        topology: TopologyConfig {
            // 2 km city, 4×4 grid (spacing 500 m): a 420 m radius covers
            // the worst corner (≈354 m), so no user is ever disconnected
            // and convergence is purely a channel/recovery property.
            router_range: 420.0,
            ..TopologyConfig::default()
        },
        // Frequent movement keeps the event mix dense and cheap.
        move_interval: 250,
        end_time: cfg.end_time,
        fault: cfg.fault,
        fault_until: cfg.fault_until,
        seed: cfg.seed,
        ..SimConfig::default()
    };
    let mut world = SimWorld::new(sim);
    world.run();
    let converged_users = world
        .last_auth_success
        .iter()
        .filter(|t| t.is_some_and(|t| t >= cfg.fault_until))
        .count();
    // Endpoint tables are capped at `MAX_PENDING_HANDSHAKES` /
    // `MAX_ACTIVE_BEACONS` entries, with the dedup (recently-completed)
    // tables at twice that.
    let pending_bound = 2 * MAX_ACTIVE_BEACONS.max(MAX_PENDING_HANDSHAKES);
    ChaosReport {
        metrics: world.metrics.clone(),
        users: cfg.users,
        converged_users,
        pending_bound,
    }
}
