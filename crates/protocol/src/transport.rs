//! Adversarial-channel fault injection and the retry/backoff policy.
//!
//! PEACE is specified for metropolitan radio links that are lossy *and*
//! hostile (§III adversary model, §V.A). This module models that wire: a
//! [`Channel`] carries wire-encoded handshake messages and — driven by a
//! seeded, fully deterministic [`FaultPlan`] — can drop, duplicate,
//! reorder, delay, truncate, or bit-flip any of them. Endpoints never see
//! the plan; they only see bytes, late bytes, repeated bytes, or garbage,
//! exactly as a real attacker-in-the-middle would arrange.
//!
//! [`RetryPolicy`] is the sender-side complement: capped exponential
//! backoff with deterministic jitter, driven entirely by simulation time so
//! every run is replayable from its seed.

/// Per-transmission fault probabilities. All probabilities are independent
/// per message; `0.0` everywhere ([`FaultPlan::NONE`]) is a perfect wire.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultPlan {
    /// Probability the message is dropped.
    pub drop_prob: f64,
    /// Probability the message is duplicated.
    pub duplicate_prob: f64,
    /// Probability the message is held back behind the next one.
    pub reorder_prob: f64,
    /// Probability the message is delayed.
    pub delay_prob: f64,
    /// Maximum extra delay (time units) when a delay fault fires.
    pub max_delay: u64,
    /// Probability the message is truncated.
    pub truncate_prob: f64,
    /// Probability one bit of the message is flipped.
    pub bit_flip_prob: f64,
}

impl FaultPlan {
    /// A perfect channel: no faults.
    pub const NONE: FaultPlan = FaultPlan {
        drop_prob: 0.0,
        duplicate_prob: 0.0,
        reorder_prob: 0.0,
        delay_prob: 0.0,
        max_delay: 0,
        truncate_prob: 0.0,
        bit_flip_prob: 0.0,
    };

    /// Every fault class at probability `p`, delays up to `max_delay`.
    pub fn uniform(p: f64, max_delay: u64) -> Self {
        Self {
            drop_prob: p,
            duplicate_prob: p,
            reorder_prob: p,
            delay_prob: p,
            max_delay,
            truncate_prob: p,
            bit_flip_prob: p,
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::NONE
    }
}

/// Counters for every fault the channel has injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages handed to the channel.
    pub transmitted: u64,
    /// Messages dropped.
    pub dropped: u64,
    /// Extra copies delivered.
    pub duplicated: u64,
    /// Messages released behind a later message.
    pub reordered: u64,
    /// Messages delivered late.
    pub delayed: u64,
    /// Messages cut short.
    pub truncated: u64,
    /// Messages with a flipped bit.
    pub bit_flipped: u64,
}

impl FaultStats {
    /// Total fault events injected (a duplicated+delayed message counts
    /// twice).
    pub fn total_faults(&self) -> u64 {
        self.dropped
            + self.duplicated
            + self.reordered
            + self.delayed
            + self.truncated
            + self.bit_flipped
    }
}

impl core::ops::AddAssign for FaultStats {
    /// Counter-wise sum (several channels reported as one).
    fn add_assign(&mut self, o: Self) {
        self.transmitted += o.transmitted;
        self.dropped += o.dropped;
        self.duplicated += o.duplicated;
        self.reordered += o.reordered;
        self.delayed += o.delayed;
        self.truncated += o.truncated;
        self.bit_flipped += o.bit_flipped;
    }
}

/// One arrival at the receiver: the (possibly mangled) bytes and the
/// simulation time at which they land.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// The received bytes.
    pub bytes: Vec<u8>,
    /// Arrival time.
    pub at: u64,
}

/// Deterministic splitmix64 — the channel's private noise source, so fault
/// sequences replay exactly from the seed with no dependency on the
/// simulation's RNG draw order.
#[derive(Clone, Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Bernoulli draw with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 53 uniform bits → [0, 1).
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }

    /// Uniform draw in `[0, n)` (`n` must be nonzero).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A seeded adversarial channel over wire-encoded messages.
///
/// Reordering is modelled with a holdback buffer: a reordered message is
/// withheld and released *after* the deliveries of the next transmission,
/// so the receiver observes genuine out-of-order arrival. The buffer is
/// flushed by [`Channel::transmit`] and can be drained explicitly with
/// [`Channel::flush`] at the end of a scenario.
#[derive(Debug)]
pub struct Channel {
    plan: FaultPlan,
    rng: SplitMix64,
    holdback: Vec<Delivery>,
    stats: FaultStats,
}

impl Channel {
    /// Creates a channel with the given seed and fault plan.
    pub fn new(seed: u64, plan: FaultPlan) -> Self {
        Self {
            plan,
            rng: SplitMix64(seed ^ 0xC0FF_EE00_D00D_F00D),
            holdback: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// Replaces the fault plan (e.g. clearing faults mid-run).
    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// Counters of injected faults so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Transmits one wire-encoded message at time `now`, returning every
    /// arrival the receiver observes (in arrival order). The list may be
    /// empty (drop), contain duplicates, mangled copies, and previously
    /// held-back messages.
    pub fn transmit(&mut self, bytes: &[u8], now: u64) -> Vec<Delivery> {
        self.stats.transmitted += 1;
        let mut out: Vec<Delivery> = Vec::with_capacity(2);
        // Messages reordered by *earlier* transmissions are released behind
        // this one's deliveries; a message reordered now stays parked.
        let released = std::mem::take(&mut self.holdback);

        if self.rng.chance(self.plan.drop_prob) {
            self.stats.dropped += 1;
        } else {
            let mut payload = bytes.to_vec();
            if !payload.is_empty() && self.rng.chance(self.plan.truncate_prob) {
                let cut = self.rng.below(payload.len() as u64) as usize;
                payload.truncate(cut);
                self.stats.truncated += 1;
            }
            if !payload.is_empty() && self.rng.chance(self.plan.bit_flip_prob) {
                let bit = self.rng.below(payload.len() as u64 * 8);
                payload[(bit / 8) as usize] ^= 1 << (bit % 8);
                self.stats.bit_flipped += 1;
            }
            let mut at = now;
            if self.plan.max_delay > 0 && self.rng.chance(self.plan.delay_prob) {
                at = now + 1 + self.rng.below(self.plan.max_delay);
                self.stats.delayed += 1;
            }
            let duplicated = self.rng.chance(self.plan.duplicate_prob);
            let reordered = self.rng.chance(self.plan.reorder_prob);
            let delivery = Delivery { bytes: payload, at };
            if reordered {
                self.stats.reordered += 1;
                self.holdback.push(delivery.clone());
            } else {
                out.push(delivery.clone());
            }
            if duplicated {
                self.stats.duplicated += 1;
                out.push(Delivery {
                    bytes: delivery.bytes,
                    at: at + 1,
                });
            }
        }

        // Held-back messages from earlier transmissions land after this
        // one's deliveries: the receiver sees them out of order.
        let floor = out.last().map(|d| d.at).unwrap_or(now);
        for mut held in released {
            held.at = held.at.max(floor) + 1;
            out.push(held);
        }
        out
    }

    /// Releases any still-held-back messages (end of scenario).
    pub fn flush(&mut self, now: u64) -> Vec<Delivery> {
        let mut out = std::mem::take(&mut self.holdback);
        for d in &mut out {
            d.at = d.at.max(now);
        }
        out
    }
}

/// Capped exponential backoff with deterministic jitter.
///
/// `delay(attempt) ∈ [base·2^attempt / 2, base·2^attempt]`, capped at
/// `max_delay`; the jitter half keeps synchronized handshake losers from
/// retrying in lockstep (thundering herd on the router).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryPolicy {
    /// First retry delay (time units).
    pub base_delay: u64,
    /// Upper bound on any single retry delay.
    pub max_delay: u64,
    /// Retries allowed after the initial attempt.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            base_delay: 300,
            max_delay: 5_000,
            max_attempts: 4,
        }
    }
}

impl RetryPolicy {
    /// Whether another retry is allowed after `attempt` failures
    /// (`attempt` is 1 after the first failure).
    pub fn should_retry(&self, attempt: u32) -> bool {
        attempt <= self.max_attempts
    }

    /// The backoff delay before retry number `attempt` (1-based), with
    /// jitter derived deterministically from `seed`.
    pub fn backoff(&self, attempt: u32, seed: u64) -> u64 {
        let shift = attempt.saturating_sub(1).min(16);
        let exp = self
            .base_delay
            .saturating_mul(1u64 << shift)
            .min(self.max_delay.max(1));
        let mut rng = SplitMix64(seed ^ (u64::from(attempt) << 32) ^ 0x5EED_BACC);
        let half = (exp / 2).max(1);
        half + rng.below(exp - half + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_channel_is_identity() {
        let mut ch = Channel::new(1, FaultPlan::NONE);
        for t in 0..50u64 {
            let msg = vec![t as u8; 16];
            let got = ch.transmit(&msg, t);
            assert_eq!(got, vec![Delivery { bytes: msg, at: t }]);
        }
        assert_eq!(ch.stats().total_faults(), 0);
        assert!(ch.flush(100).is_empty());
    }

    #[test]
    fn channel_is_deterministic_per_seed() {
        let plan = FaultPlan::uniform(0.3, 40);
        let run = |seed: u64| {
            let mut ch = Channel::new(seed, plan);
            let mut all = Vec::new();
            for t in 0..200u64 {
                all.extend(ch.transmit(&[t as u8; 24], t * 10));
            }
            all.extend(ch.flush(10_000));
            (all, *ch.stats())
        };
        assert_eq!(run(42), run(42));
        let (a, _) = run(42);
        let (b, _) = run(43);
        assert_ne!(a, b, "different seeds must give different fault traces");
    }

    #[test]
    fn all_fault_kinds_fire_under_uniform_plan() {
        let mut ch = Channel::new(7, FaultPlan::uniform(0.25, 100));
        for t in 0..400u64 {
            ch.transmit(&[0xAB; 32], t * 5);
        }
        let s = *ch.stats();
        assert!(s.dropped > 0, "{s:?}");
        assert!(s.duplicated > 0, "{s:?}");
        assert!(s.reordered > 0, "{s:?}");
        assert!(s.delayed > 0, "{s:?}");
        assert!(s.truncated > 0, "{s:?}");
        assert!(s.bit_flipped > 0, "{s:?}");
        assert_eq!(s.transmitted, 400);
    }

    #[test]
    fn drop_only_plan_loses_but_never_mangles() {
        let plan = FaultPlan {
            drop_prob: 0.5,
            ..FaultPlan::NONE
        };
        let mut ch = Channel::new(3, plan);
        let mut arrived = 0u64;
        for t in 0..300u64 {
            for d in ch.transmit(b"payload", t) {
                assert_eq!(d.bytes, b"payload");
                assert_eq!(d.at, t);
                arrived += 1;
            }
        }
        assert!(arrived > 50 && arrived < 250, "arrived: {arrived}");
        assert_eq!(ch.stats().dropped + arrived, 300);
    }

    #[test]
    fn reordered_message_lands_after_next_transmission() {
        let plan = FaultPlan {
            reorder_prob: 1.0,
            ..FaultPlan::NONE
        };
        let mut ch = Channel::new(9, plan);
        // First message is held back entirely.
        assert!(ch.transmit(b"first", 10).is_empty());
        // Second is also held; but the first is released behind it.
        let second = ch.transmit(b"second", 20);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].bytes, b"first");
        assert!(second[0].at >= 20);
        let rest = ch.flush(30);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].bytes, b"second");
    }

    #[test]
    fn duplicate_plan_delivers_twice_in_order() {
        let plan = FaultPlan {
            duplicate_prob: 1.0,
            ..FaultPlan::NONE
        };
        let mut ch = Channel::new(5, plan);
        let got = ch.transmit(b"msg", 7);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].bytes, b"msg");
        assert_eq!(got[1].bytes, b"msg");
        assert!(got[0].at <= got[1].at);
    }

    #[test]
    fn truncate_and_bitflip_always_change_bytes() {
        for (plan, name) in [
            (
                FaultPlan {
                    truncate_prob: 1.0,
                    ..FaultPlan::NONE
                },
                "truncate",
            ),
            (
                FaultPlan {
                    bit_flip_prob: 1.0,
                    ..FaultPlan::NONE
                },
                "bitflip",
            ),
        ] {
            let mut ch = Channel::new(11, plan);
            for t in 0..50u64 {
                for d in ch.transmit(&[0x55; 20], t) {
                    assert_ne!(d.bytes, vec![0x55; 20], "{name} must alter the message");
                }
            }
        }
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let p = RetryPolicy {
            base_delay: 100,
            max_delay: 1_000,
            max_attempts: 5,
        };
        for attempt in 1..=5u32 {
            let d = p.backoff(attempt, 77);
            let exp = (100u64 << (attempt - 1)).min(1_000);
            assert!(d >= exp / 2 && d <= exp, "attempt {attempt}: {d}");
            // Deterministic per (attempt, seed).
            assert_eq!(d, p.backoff(attempt, 77));
        }
        // Jitter differs across seeds at least somewhere.
        assert!((0..32u64).any(|s| p.backoff(3, s) != p.backoff(3, s + 1)));
        assert!(p.should_retry(5));
        assert!(!p.should_retry(6));
        // Huge attempt numbers neither overflow nor exceed the cap.
        assert!(p.backoff(60, 1) <= 1_000);
    }
}
