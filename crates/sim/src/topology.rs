//! Metropolitan WMN topology (paper Fig. 1): a grid of mesh routers with a
//! wired access point uplink, and mobile users that reach a router either
//! directly or through a chain of peer relays.

use rand::Rng;

/// A position in meters on the city plane.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Position {
    /// East-west coordinate (m).
    pub x: f64,
    /// North-south coordinate (m).
    pub y: f64,
}

impl Position {
    /// Euclidean distance to another position.
    pub fn distance(&self, other: &Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// City side length (m).
pub const CITY_SIZE: f64 = 2_000.0;

/// Fraction of routers that are wired access points.
pub const AP_FRACTION: f64 = 0.25;

/// Static topology parameters.
#[derive(Clone, Copy, Debug)]
pub struct TopologyConfig {
    /// Routers per grid row/column (total `routers_per_side²`).
    pub routers_per_side: usize,
    /// Router radio range (m) — downlink is one hop inside this radius.
    pub router_range: f64,
    /// User-to-user radio range (m) for relaying.
    pub user_range: f64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        Self {
            routers_per_side: 4,
            router_range: 350.0,
            user_range: 150.0,
        }
    }
}

/// The computed topology: router positions (grid) and user positions.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Configuration used to build the layout.
    pub config: TopologyConfig,
    /// Router positions in a regular grid.
    pub router_positions: Vec<Position>,
    /// Which routers double as wired access points.
    pub is_access_point: Vec<bool>,
    /// Current user positions.
    pub user_positions: Vec<Position>,
}

impl Topology {
    /// Lays out `user_count` users uniformly at random over a router grid.
    pub fn generate(config: TopologyConfig, user_count: usize, rng: &mut impl Rng) -> Self {
        let n = config.routers_per_side;
        let spacing = CITY_SIZE / n as f64;
        let mut router_positions = Vec::with_capacity(n * n);
        let mut is_access_point = Vec::with_capacity(n * n);
        for row in 0..n {
            for col in 0..n {
                router_positions.push(Position {
                    x: (col as f64 + 0.5) * spacing,
                    y: (row as f64 + 0.5) * spacing,
                });
                // Deterministic striping + configured fraction.
                let idx = row * n + col;
                is_access_point.push((idx as f64 + 0.5) / (n * n) as f64 <= AP_FRACTION);
            }
        }
        let user_positions = (0..user_count)
            .map(|_| Position {
                x: rng.gen_range(0.0..CITY_SIZE),
                y: rng.gen_range(0.0..CITY_SIZE),
            })
            .collect();
        Self {
            config,
            router_positions,
            is_access_point,
            user_positions,
        }
    }

    /// Number of routers.
    pub fn router_count(&self) -> usize {
        self.router_positions.len()
    }

    /// Number of users.
    pub fn user_count(&self) -> usize {
        self.user_positions.len()
    }

    /// The nearest router to a user, with distance.
    pub fn nearest_router(&self, user: usize) -> (usize, f64) {
        let pos = self.user_positions[user];
        self.router_positions
            .iter()
            .enumerate()
            .map(|(i, rp)| (i, pos.distance(rp)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one router")
    }

    /// Routers whose radio range covers the user (direct-link candidates).
    pub fn routers_in_range(&self, user: usize) -> Vec<usize> {
        let pos = self.user_positions[user];
        self.router_positions
            .iter()
            .enumerate()
            .filter(|(_, rp)| pos.distance(rp) <= self.config.router_range)
            .map(|(i, _)| i)
            .collect()
    }

    /// Peer users within user radio range (relay candidates).
    pub fn peers_in_range(&self, user: usize) -> Vec<usize> {
        let pos = self.user_positions[user];
        self.user_positions
            .iter()
            .enumerate()
            .filter(|(i, up)| *i != user && pos.distance(up) <= self.config.user_range)
            .map(|(i, _)| i)
            .collect()
    }

    /// BFS uplink path: the shortest chain of peer relays from `user` to any
    /// router (multi-hop uplink of §III.A). Returns the relay chain
    /// (excluding the user, excluding the router) and the terminal router,
    /// or `None` if the user is disconnected.
    pub fn uplink_path(&self, user: usize) -> Option<(Vec<usize>, usize)> {
        if let Some(&r) = self.routers_in_range(user).first() {
            return Some((Vec::new(), r));
        }
        // BFS over the peer graph until some node reaches a router.
        let n = self.user_count();
        let mut prev = vec![usize::MAX; n];
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        visited[user] = true;
        queue.push_back(user);
        while let Some(cur) = queue.pop_front() {
            for peer in self.peers_in_range(cur) {
                if visited[peer] {
                    continue;
                }
                visited[peer] = true;
                prev[peer] = cur;
                if let Some(&r) = self.routers_in_range(peer).first() {
                    // Reconstruct chain user → … → peer.
                    let mut chain = vec![peer];
                    let mut c = peer;
                    while prev[c] != usize::MAX && prev[c] != user {
                        c = prev[c];
                        chain.push(c);
                    }
                    chain.reverse();
                    return Some((chain, r));
                }
                queue.push_back(peer);
            }
        }
        None
    }

    /// Random-waypoint-style jitter: moves a user by at most `step` meters,
    /// clamped to the city.
    pub fn move_user(&mut self, user: usize, step: f64, rng: &mut impl Rng) {
        let p = &mut self.user_positions[user];
        p.x = (p.x + rng.gen_range(-step..=step)).clamp(0.0, CITY_SIZE);
        p.y = (p.y + rng.gen_range(-step..=step)).clamp(0.0, CITY_SIZE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grid_layout() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Topology::generate(TopologyConfig::default(), 50, &mut rng);
        assert_eq!(t.router_count(), 16);
        assert_eq!(t.user_count(), 50);
        assert!(t.is_access_point.iter().any(|&a| a));
        assert!(t.is_access_point.iter().any(|&a| !a));
    }

    #[test]
    fn nearest_router_is_in_grid() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = Topology::generate(TopologyConfig::default(), 10, &mut rng);
        for u in 0..10 {
            let (r, d) = t.nearest_router(u);
            assert!(r < t.router_count());
            assert!(d <= CITY_SIZE * 1.5);
        }
    }

    #[test]
    fn dense_network_mostly_direct() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = TopologyConfig {
            router_range: 5_000.0, // covers everything
            ..TopologyConfig::default()
        };
        let t = Topology::generate(cfg, 20, &mut rng);
        for u in 0..20 {
            let (chain, _) = t.uplink_path(u).expect("connected");
            assert!(chain.is_empty(), "direct link expected");
        }
    }

    #[test]
    fn sparse_user_may_be_disconnected() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = TopologyConfig {
            router_range: 1.0,
            user_range: 1.0,
            ..TopologyConfig::default()
        };
        let t = Topology::generate(cfg, 5, &mut rng);
        // With 1m ranges nobody reaches anything.
        assert!(t.uplink_path(0).is_none());
    }

    #[test]
    fn multi_hop_path_found_when_needed() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = TopologyConfig {
            routers_per_side: 1,
            router_range: 200.0,
            user_range: 250.0,
        };
        let mut t = Topology::generate(cfg, 3, &mut rng);
        // The router sits at the centre (c, c); user 0 far away, users 1, 2
        // as relays.
        let c = CITY_SIZE / 2.0;
        t.user_positions[0] = Position { x: c - 480.0, y: c };
        t.user_positions[1] = Position { x: c - 250.0, y: c };
        t.user_positions[2] = Position { x: c - 50.0, y: c };
        let (chain, router) = t.uplink_path(0).expect("relayed path exists");
        assert_eq!(router, 0);
        assert!(!chain.is_empty());
        assert!(chain.len() <= 2);
    }

    #[test]
    fn movement_stays_in_city() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut t = Topology::generate(TopologyConfig::default(), 5, &mut rng);
        for _ in 0..100 {
            t.move_user(0, 500.0, &mut rng);
            let p = t.user_positions[0];
            assert!(p.x >= 0.0 && p.x <= CITY_SIZE);
            assert!(p.y >= 0.0 && p.y <= CITY_SIZE);
        }
    }
}
