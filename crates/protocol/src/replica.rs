//! Health-checked replica-set failover for router → NO reporting.
//!
//! A federated deployment runs several NO replicas; a router ships its
//! transcript batches to whichever replica is alive, preferring the
//! configured primary. [`ReplicaSet`] tracks per-target health with the
//! same capped-exponential [`RetryPolicy`]
//! backoff the handshake layer uses: a failed target is benched for a
//! deterministic-jittered cooldown that doubles with consecutive
//! failures, and a success resets it. The set is transport-agnostic —
//! `A` is whatever addresses the caller dials (a `SocketAddr`, an index
//! into an in-process world, …).

use crate::transport::RetryPolicy;

/// One replica target with its health state.
#[derive(Clone, Copy, Debug)]
struct Target<A> {
    addr: A,
    /// Consecutive failures since the last success.
    failures: u32,
    /// Wall-clock (ms) before which the target is benched.
    down_until: u64,
}

/// An ordered set of NO replica addresses with per-target failure
/// backoff. Candidate order is primary-first among the alive targets,
/// then benched targets by soonest recovery — so a caller that walks
/// [`candidates`](Self::candidates) in order implements
/// primary → next-alive failover with a bounded last-resort retry.
#[derive(Clone, Debug)]
pub struct ReplicaSet<A> {
    targets: Vec<Target<A>>,
    retry: RetryPolicy,
}

impl<A: Copy> ReplicaSet<A> {
    /// Builds a set from addresses in priority order (index 0 is the
    /// primary) and a backoff policy for benching failed targets.
    pub fn new(addrs: impl IntoIterator<Item = A>, retry: RetryPolicy) -> Self {
        Self {
            targets: addrs
                .into_iter()
                .map(|addr| Target {
                    addr,
                    failures: 0,
                    down_until: 0,
                })
                .collect(),
            retry,
        }
    }

    /// Number of configured replicas.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// The configured addresses in priority order.
    pub fn addrs(&self) -> Vec<A> {
        self.targets.iter().map(|t| t.addr).collect()
    }

    /// Targets to try at time `now`, as `(index, addr)` pairs: alive
    /// targets in priority order first, then benched targets ordered by
    /// soonest `down_until` (a fully-benched set still yields every
    /// target — shipping evidence beats respecting a cooldown).
    pub fn candidates(&self, now: u64) -> Vec<(usize, A)> {
        let mut alive = Vec::new();
        let mut benched = Vec::new();
        for (i, t) in self.targets.iter().enumerate() {
            if now >= t.down_until {
                alive.push((i, t.addr));
            } else {
                benched.push((t.down_until, i, t.addr));
            }
        }
        benched.sort_by_key(|&(until, i, _)| (until, i));
        alive.extend(benched.into_iter().map(|(_, i, a)| (i, a)));
        alive
    }

    /// Records a successful exchange with target `index`, clearing its
    /// failure state.
    pub fn report_ok(&mut self, index: usize) {
        if let Some(t) = self.targets.get_mut(index) {
            t.failures = 0;
            t.down_until = 0;
        }
    }

    /// Records a failed exchange with target `index` at time `now`,
    /// benching it for a capped-exponential, deterministically jittered
    /// cooldown. Returns the cooldown applied (ms).
    pub fn report_failure(&mut self, index: usize, now: u64) -> u64 {
        let Some(t) = self.targets.get_mut(index) else {
            return 0;
        };
        t.failures = t.failures.saturating_add(1);
        let cooldown = self.retry.backoff(t.failures, index as u64);
        t.down_until = now.saturating_add(cooldown);
        cooldown
    }

    /// Consecutive failures recorded for target `index`.
    pub fn failures(&self, index: usize) -> u32 {
        self.targets.get(index).map_or(0, |t| t.failures)
    }

    /// Whether target `index` is currently benched at time `now`.
    pub fn is_down(&self, index: usize, now: u64) -> bool {
        self.targets.get(index).is_some_and(|t| now < t.down_until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set() -> ReplicaSet<u32> {
        ReplicaSet::new([10, 20, 30], RetryPolicy::default())
    }

    #[test]
    fn priority_order_when_all_alive() {
        let s = set();
        assert_eq!(s.candidates(0), vec![(0, 10), (1, 20), (2, 30)]);
    }

    #[test]
    fn failed_primary_moves_to_the_back() {
        let mut s = set();
        let cd = s.report_failure(0, 1_000);
        assert!(cd > 0);
        assert!(s.is_down(0, 1_000));
        let c = s.candidates(1_000);
        assert_eq!(c[0], (1, 20));
        assert_eq!(c[1], (2, 30));
        assert_eq!(c[2].0, 0);
        // After the cooldown the primary leads again.
        assert_eq!(s.candidates(1_000 + cd)[0], (0, 10));
    }

    #[test]
    fn success_resets_backoff() {
        let mut s = set();
        for _ in 0..3 {
            s.report_failure(1, 0);
        }
        assert!(s.failures(1) == 3);
        s.report_ok(1);
        assert_eq!(s.failures(1), 0);
        assert!(!s.is_down(1, 0));
    }

    #[test]
    fn backoff_grows_then_caps() {
        let mut s = set();
        let policy = RetryPolicy::default();
        let mut last = 0;
        for n in 1..=8 {
            let cd = s.report_failure(2, 0);
            assert!(cd <= policy.max_delay);
            if n <= 3 {
                assert!(cd >= last / 2, "cooldown should trend upward");
            }
            last = cd;
        }
    }

    #[test]
    fn fully_benched_set_still_yields_everyone() {
        let mut s = set();
        for i in 0..3 {
            s.report_failure(i, 5_000);
        }
        let c = s.candidates(5_001);
        assert_eq!(c.len(), 3);
    }
}
