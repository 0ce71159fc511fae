//! City-scale sharded cost-model simulation (the `peace-loadgen sim`
//! backend).
//!
//! [`SimWorld`](crate::SimWorld) runs the *real* pairing crypto for every
//! handshake, which tops out around thousands of users. This module is the
//! complementary scale regime: an abstract cost model of a metropolitan
//! deployment (10⁵–10⁶ users) whose world state is partitioned into
//! contiguous, seed-derived **shards** that step in parallel and join at
//! every epoch boundary.
//!
//! # Determinism rules
//!
//! The report digest is byte-identical for a given seed regardless of the
//! shard count or thread interleaving, because:
//!
//! 1. **Per-user randomness is stateless.** Every decision derives from a
//!    splitmix64-style hash of `(seed, user, epoch, salt)` — there is no
//!    mutable RNG whose draw order could depend on scheduling.
//! 2. **Shards only exchange data at epoch joins.** Pass A (mobility +
//!    auth intent) runs on disjoint user ranges; the join aggregates
//!    per-router demand; pass B (admission + latency) reads only the
//!    joined global state. No shard ever observes another shard's
//!    in-progress epoch.
//! 3. **All cross-shard folds are commutative.** The digest is a
//!    wrapping-add / xor fold of per-user-epoch hashes, and telemetry
//!    counters/histograms are atomic adds on a fixed bucket grid — both
//!    are order-independent, so a [`Snapshot`] taken at a phase boundary
//!    is byte-stable.
//!
//! Consequence: `shards = 1` and `shards = N` produce identical digests
//! and identical phase snapshots (`tests/shard_equivalence.rs`), so the
//! parallel stepping is a pure throughput knob.

use std::sync::Arc;

use peace_telemetry::{Counter, Histogram, HistogramSnapshot, Registry, Snapshot};

/// Workload scripts over the shared city world. Times are simulated
/// milliseconds from run start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scenario {
    /// Background mobility and steady-state re-authentication only.
    Steady,
    /// A hotspot forms: a fraction of users converge on the city centre
    /// and authenticate at a multiple of the steady rate.
    FlashCrowd {
        /// Crowd onset (sim ms).
        at_ms: u64,
        /// Crowd dispersal (sim ms).
        until_ms: u64,
        /// Fraction of the population drawn into the crowd, `0..=1`.
        hotspot_frac: f64,
        /// Auth-rate multiplier for crowd members while the crowd lasts.
        multiplier: u64,
    },
    /// The NO revokes a fraction of the population at once; the URL grows
    /// by the revoked count, inflating every subsequent verify.
    MassRevocation {
        /// Revocation instant (sim ms).
        at_ms: u64,
        /// Fraction of users revoked, `0..=1`.
        revoke_frac: f64,
    },
    /// A key-epoch rollover: the URL resets and the entire population
    /// re-authenticates in the first epoch after the rollover.
    EpochRollover {
        /// Rollover instant (sim ms).
        at_ms: u64,
    },
    /// A region of the mesh goes dark and later heals; users inside roam
    /// to the surviving routers, concentrating load.
    Partition {
        /// Partition onset (sim ms).
        at_ms: u64,
        /// Heal instant (sim ms).
        heal_ms: u64,
        /// Fraction of the city's width (west side) cut off, `0..=1`.
        region_frac: f64,
    },
}

/// City edge length in metres.
pub const CITY_SIZE_M: f32 = 4_000.0;

/// Mean interval between a user's re-authentications (sim ms).
pub const AUTH_INTERVAL_MS: u64 = 5_000;

/// Mobility step per epoch in metres.
pub const MOVE_STEP_M: f32 = 25.0;

/// Handshakes one router can admit per epoch before overload.
pub const ROUTER_CAPACITY: u32 = 64;

/// Base verify service time per handshake (µs). A model constant: the
/// traced `protocol.process_access_request_us` measures 1.6–2.3 ms on a
/// 2-vCPU Xeon with AVX-512 IFMA (ROADMAP item 9(b) re-derives it).
pub const SERVICE_US: u64 = 3_700;

/// Added verify cost per URL entry (µs) — models the 2|URL| pairing
/// scan. A model constant: the revocation sweep measures 28–37 µs a token
/// on the same machine (ROADMAP item 9(b) re-derives it).
pub const URL_SCAN_US: u64 = 2;

/// Configuration for one city run.
#[derive(Clone, Copy, Debug)]
pub struct CityConfig {
    /// Population size (the design target is 10⁵–10⁶).
    pub users: u32,
    /// Mesh routers form a `routers_per_side²` uniform grid.
    pub routers_per_side: u32,
    /// Number of parallel world shards (≥ 1). Any value yields identical
    /// results; more shards step the epoch on more threads.
    pub shards: usize,
    /// Epoch (join-barrier) length in simulated milliseconds.
    pub epoch_ms: u64,
    /// Total simulated duration in milliseconds.
    pub end_ms: u64,
    /// Master seed; every stochastic choice derives from it.
    pub seed: u64,
    /// The workload script.
    pub scenario: Scenario,
}

impl Default for CityConfig {
    fn default() -> Self {
        Self {
            users: 10_000,
            routers_per_side: 8,
            shards: 4,
            epoch_ms: 1_000,
            end_ms: 30_000,
            seed: 0xC17F_5EED,
            scenario: Scenario::Steady,
        }
    }
}

/// Totals accumulated over the whole run (all phases).
#[derive(Clone, Debug, Default)]
pub struct CityTotals {
    /// Population size.
    pub users: u32,
    /// Router count.
    pub routers: u32,
    /// Epochs stepped.
    pub epochs: u64,
    /// Authentication attempts reaching a router.
    pub auth_attempts: u64,
    /// Attempts admitted within router capacity.
    pub auth_accepted: u64,
    /// Attempts shed by overloaded routers (transient — clients retry).
    pub auth_dropped: u64,
    /// Attempts by revoked users (terminal rejects).
    pub auth_rejected_revoked: u64,
    /// Router changes between consecutive epochs.
    pub roams: u64,
    /// User-epochs with no reachable router (partition scenarios).
    pub disconnected: u64,
    /// Users revoked during the run.
    pub revocations: u64,
    /// Final URL length.
    pub url_len: u64,
    /// End-to-end auth latency distribution (µs) over the whole run.
    pub latency: HistogramSnapshot,
}

/// The result of one city run: an order-independent event digest, one
/// telemetry snapshot per scenario phase, and run totals.
#[derive(Clone, Debug)]
pub struct CityReport {
    /// Commutative fold of every per-user-epoch outcome hash. Two runs
    /// agree on this iff they agreed on every user's every-epoch outcome.
    pub digest: u64,
    /// `(phase name, snapshot)` in scenario order.
    pub phases: Vec<(String, Snapshot)>,
    /// Whole-run totals.
    pub totals: CityTotals,
}

const F_REVOKED: u32 = 1;
const F_WANTS: u32 = 2;
const F_HOTSPOT: u32 = 4;

/// 16-byte per-user state: position, home router, flag bits.
#[derive(Clone, Copy, Debug)]
struct UserState {
    x: f32,
    y: f32,
    router: u32,
    flags: u32,
}

/// splitmix64 finalizer: the one mixing primitive behind all stateless
/// randomness in this module.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn h4(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    mix(seed ^ mix(a ^ mix(b ^ mix(c))))
}

/// Uniform fraction in `[0, 1)` from a hash.
#[inline]
fn frac_of(h: u64) -> f64 {
    (h % 1_000_000) as f64 / 1_000_000.0
}

/// Uniform f32 in `[-1, 1]` from a hash.
#[inline]
fn signed_unit(h: u64) -> f32 {
    ((h % 20_001) as f32 / 10_000.0) - 1.0
}

mod salt {
    pub const INIT_X: u64 = 1;
    pub const INIT_Y: u64 = 2;
    pub const MOVE_X: u64 = 3;
    pub const MOVE_Y: u64 = 4;
    pub const AUTH: u64 = 5;
    pub const ADMIT: u64 = 6;
    pub const JITTER: u64 = 7;
    pub const HOTSPOT: u64 = 8;
    pub const REVOKE: u64 = 9;
    pub const OUTCOME: u64 = 10;
}

/// Per-user-epoch outcome codes folded into the digest.
mod outcome {
    pub const IDLE: u64 = 0;
    pub const ACCEPTED: u64 = 1;
    pub const DROPPED: u64 = 2;
    pub const REVOKED: u64 = 3;
    pub const DISCONNECTED: u64 = 4;
}

/// Nearest-router lookup on the uniform grid, honoring the alive mask.
/// Returns `None` when every router is dead.
fn nearest_router(x: f32, y: f32, per_side: u32, spacing: f32, alive: &[bool]) -> Option<u32> {
    let clamp = |v: f32| -> u32 {
        let i = (v / spacing) as i64;
        i.clamp(0, i64::from(per_side) - 1) as u32
    };
    let (cx, cy) = (clamp(x), clamp(y));
    let direct = cy * per_side + cx;
    if alive[direct as usize] {
        return Some(direct);
    }
    // Fallback (partition scenarios only): linear scan for the nearest
    // surviving router.
    let mut best: Option<(u32, f32)> = None;
    for (idx, &up) in alive.iter().enumerate() {
        if !up {
            continue;
        }
        let rx = ((idx as u32 % per_side) as f32 + 0.5) * spacing;
        let ry = ((idx as u32 / per_side) as f32 + 0.5) * spacing;
        let d2 = (rx - x) * (rx - x) + (ry - y) * (ry - y);
        match best {
            Some((_, bd)) if bd <= d2 => {}
            _ => best = Some((idx as u32, d2)),
        }
    }
    best.map(|(i, _)| i)
}

/// Scenario phase boundaries as `(name, start_ms)`, ascending.
fn phase_starts(sc: &Scenario) -> Vec<(&'static str, u64)> {
    match *sc {
        Scenario::Steady => vec![("steady", 0)],
        Scenario::FlashCrowd {
            at_ms, until_ms, ..
        } => {
            vec![("before", 0), ("crowd", at_ms), ("after", until_ms)]
        }
        Scenario::MassRevocation { at_ms, .. } => {
            vec![("before", 0), ("after_revocation", at_ms)]
        }
        Scenario::EpochRollover { at_ms } => vec![("before", 0), ("after_rollover", at_ms)],
        Scenario::Partition { at_ms, heal_ms, .. } => {
            vec![("before", 0), ("partitioned", at_ms), ("healed", heal_ms)]
        }
    }
}

/// Handles into a [`Registry`] pre-resolved once per phase so the epoch
/// hot loop never touches the registry mutex.
struct PhaseCtrs {
    attempts: Arc<Counter>,
    accepted: Arc<Counter>,
    dropped: Arc<Counter>,
    rejected_revoked: Arc<Counter>,
    roams: Arc<Counter>,
    disconnected: Arc<Counter>,
    latency_us: Arc<Histogram>,
    router_demand: Arc<Histogram>,
    router_util_pct: Arc<Histogram>,
}

impl PhaseCtrs {
    fn new(reg: &Registry) -> Self {
        Self {
            attempts: reg.counter("city.auth_attempts"),
            accepted: reg.counter("city.auth_accepted"),
            dropped: reg.counter("city.auth_dropped"),
            rejected_revoked: reg.counter("city.auth_rejected_revoked"),
            roams: reg.counter("city.roams"),
            disconnected: reg.counter("city.disconnected"),
            latency_us: reg.histogram("city.auth_latency_us"),
            router_demand: reg.histogram("city.router_demand"),
            router_util_pct: reg.histogram("city.router_util_pct"),
        }
    }
}

/// Per-shard pass-A result: demand per router plus mobility counters.
struct IntentOut {
    demand: Vec<u64>,
    roams: u64,
    disconnected: u64,
}

/// Per-shard pass-B result: outcome counters plus the digest partial.
#[derive(Default)]
struct OutcomeOut {
    attempts: u64,
    accepted: u64,
    dropped: u64,
    rejected_revoked: u64,
    digest_add: u64,
    digest_xor: u64,
}

/// Immutable per-epoch context shared by every shard.
struct EpochCtx<'a> {
    cfg: &'a CityConfig,
    epoch: u64,
    alive: &'a [bool],
    spacing: f32,
    crowd_active: bool,
    crowd_mult: u64,
    storm: bool,
    service_eff_us: u64,
}

/// Pass A on one shard: mobility, router selection, auth intent.
fn pass_intent(ctx: &EpochCtx<'_>, base: u64, chunk: &mut [UserState]) -> IntentOut {
    let cfg = ctx.cfg;
    let routers = ctx.alive.len();
    let mut out = IntentOut {
        demand: vec![0; routers],
        roams: 0,
        disconnected: 0,
    };
    let half = CITY_SIZE_M * 0.5;
    for (i, u) in chunk.iter_mut().enumerate() {
        let uid = base + i as u64;
        // Mobility: a bounded random walk; crowd members drift to centre.
        let hx = h4(cfg.seed, uid, ctx.epoch, salt::MOVE_X);
        let hy = h4(cfg.seed, uid, ctx.epoch, salt::MOVE_Y);
        if ctx.crowd_active && u.flags & F_HOTSPOT != 0 {
            u.x += (half - u.x) * 0.25 + signed_unit(hx) * MOVE_STEP_M * 0.2;
            u.y += (half - u.y) * 0.25 + signed_unit(hy) * MOVE_STEP_M * 0.2;
        } else {
            u.x += signed_unit(hx) * MOVE_STEP_M;
            u.y += signed_unit(hy) * MOVE_STEP_M;
        }
        u.x = u.x.clamp(0.0, CITY_SIZE_M);
        u.y = u.y.clamp(0.0, CITY_SIZE_M);

        u.flags &= !F_WANTS;
        let Some(r) = nearest_router(u.x, u.y, cfg.routers_per_side, ctx.spacing, ctx.alive) else {
            out.disconnected += 1;
            continue;
        };
        if ctx.epoch > 0 && r != u.router {
            out.roams += 1;
        }
        u.router = r;

        // Auth intent: epoch_ms / AUTH_INTERVAL_MS chance per epoch,
        // scaled up for crowd members; a rollover storm re-auths everyone.
        let mult = if ctx.crowd_active && u.flags & F_HOTSPOT != 0 {
            ctx.crowd_mult
        } else {
            1
        };
        let ha = h4(cfg.seed, uid, ctx.epoch, salt::AUTH);
        let wants = ctx.storm || (ha % AUTH_INTERVAL_MS) < cfg.epoch_ms.saturating_mul(mult);
        if wants {
            u.flags |= F_WANTS;
            out.demand[r as usize] += 1;
        }
    }
    out
}

/// Pass B on one shard: admission lottery against the joined per-router
/// demand, latency accounting, digest fold.
fn pass_outcome(
    ctx: &EpochCtx<'_>,
    base: u64,
    chunk: &[UserState],
    demand: &[u64],
    ctrs: &[&PhaseCtrs],
) -> OutcomeOut {
    let cfg = ctx.cfg;
    let cap = u64::from(ROUTER_CAPACITY);
    let mut out = OutcomeOut::default();
    for (i, u) in chunk.iter().enumerate() {
        let uid = base + i as u64;
        let code = if ctx.alive.iter().all(|&a| !a) {
            outcome::DISCONNECTED
        } else if u.flags & F_WANTS == 0 {
            outcome::IDLE
        } else if u.flags & F_REVOKED != 0 {
            out.attempts += 1;
            out.rejected_revoked += 1;
            outcome::REVOKED
        } else {
            out.attempts += 1;
            let d = demand[u.router as usize].max(1);
            let admitted = d <= cap || (h4(cfg.seed, uid, ctx.epoch, salt::ADMIT) % d) < cap;
            if admitted {
                out.accepted += 1;
                // M/D/1-flavoured wait: service · ρ/(1−ρ), capped at 8
                // service times once saturated.
                let wait = if d >= cap {
                    ctx.service_eff_us * 8
                } else {
                    (ctx.service_eff_us * d / (cap - d)).min(ctx.service_eff_us * 8)
                };
                let jitter =
                    h4(cfg.seed, uid, ctx.epoch, salt::JITTER) % (ctx.service_eff_us / 4 + 1);
                let latency = ctx.service_eff_us + wait + jitter;
                for c in ctrs {
                    c.latency_us.record(latency);
                }
                outcome::ACCEPTED
            } else {
                out.dropped += 1;
                outcome::DROPPED
            }
        };
        let pos = u64::from(u.x.to_bits()) | (u64::from(u.y.to_bits()) << 32);
        let h = h4(
            cfg.seed ^ uid,
            pos,
            ctx.epoch,
            salt::OUTCOME ^ (u64::from(u.router) << 8) ^ (code << 3),
        );
        out.digest_add = out.digest_add.wrapping_add(h);
        out.digest_xor ^= h;
    }
    out
}

/// Runs one city scenario to completion and returns its report.
///
/// # Panics
///
/// On a zero-sized world (`users`, `routers_per_side`, `shards`,
/// `epoch_ms` must all be ≥ 1).
pub fn run_city(cfg: &CityConfig) -> CityReport {
    assert!(cfg.users > 0, "users must be >= 1");
    assert!(cfg.routers_per_side > 0, "routers_per_side must be >= 1");
    assert!(cfg.shards > 0, "shards must be >= 1");
    assert!(cfg.epoch_ms > 0, "epoch_ms must be >= 1");
    let routers = (cfg.routers_per_side * cfg.routers_per_side) as usize;
    let spacing = CITY_SIZE_M / cfg.routers_per_side as f32;

    // Deterministic initial placement + hotspot membership.
    let hotspot_frac = match cfg.scenario {
        Scenario::FlashCrowd { hotspot_frac, .. } => hotspot_frac,
        _ => 0.0,
    };
    let all_alive = vec![true; routers];
    let mut users: Vec<UserState> = (0..u64::from(cfg.users))
        .map(|uid| {
            let x = frac_of(h4(cfg.seed, uid, 0, salt::INIT_X)) as f32 * CITY_SIZE_M;
            let y = frac_of(h4(cfg.seed, uid, 0, salt::INIT_Y)) as f32 * CITY_SIZE_M;
            let mut flags = 0;
            if frac_of(h4(cfg.seed, uid, 0, salt::HOTSPOT)) < hotspot_frac {
                flags |= F_HOTSPOT;
            }
            let router =
                nearest_router(x, y, cfg.routers_per_side, spacing, &all_alive).unwrap_or(0);
            UserState {
                x,
                y,
                router,
                flags,
            }
        })
        .collect();

    let phases = phase_starts(&cfg.scenario);
    let mut phase_idx = 0usize;
    let mut phase_reg = Registry::new();
    let mut phase_out: Vec<(String, Snapshot)> = Vec::new();
    let total_reg = Registry::new();
    let mut ctrs_phase = PhaseCtrs::new(&phase_reg);
    let ctrs_total = PhaseCtrs::new(&total_reg);

    let mut totals = CityTotals {
        users: cfg.users,
        routers: routers as u32,
        ..CityTotals::default()
    };
    let mut url_len: u64 = 0;
    let mut revoked_done = false;
    let mut rollover_done = false;
    let mut digest_add: u64 = 0;
    let mut digest_xor: u64 = 0;

    let chunk_len = users.len().div_ceil(cfg.shards).max(1);
    let epochs = (cfg.end_ms / cfg.epoch_ms).max(1);

    for epoch in 0..epochs {
        let now_ms = epoch * cfg.epoch_ms;

        // Phase rotation at the join boundary.
        while phase_idx + 1 < phases.len() && now_ms >= phases[phase_idx + 1].1 {
            phase_out.push((phases[phase_idx].0.to_owned(), phase_reg.snapshot()));
            phase_idx += 1;
            phase_reg = Registry::new();
            ctrs_phase = PhaseCtrs::new(&phase_reg);
        }

        // Scenario joins: mass revocation marks users once; a rollover
        // resets the URL and storms the next epoch.
        let mut storm = false;
        match cfg.scenario {
            Scenario::MassRevocation { at_ms, revoke_frac } if !revoked_done && now_ms >= at_ms => {
                revoked_done = true;
                let mut n = 0u64;
                for (i, u) in users.iter_mut().enumerate() {
                    if frac_of(h4(cfg.seed, i as u64, 0, salt::REVOKE)) < revoke_frac {
                        u.flags |= F_REVOKED;
                        n += 1;
                    }
                }
                url_len += n;
                totals.revocations += n;
            }
            Scenario::EpochRollover { at_ms } if !rollover_done && now_ms >= at_ms => {
                rollover_done = true;
                url_len = 0;
                storm = true;
            }
            _ => {}
        }

        let mut alive = vec![true; routers];
        if let Scenario::Partition {
            at_ms,
            heal_ms,
            region_frac,
        } = cfg.scenario
        {
            if now_ms >= at_ms && now_ms < heal_ms {
                let cut = region_frac * f64::from(cfg.routers_per_side);
                for (idx, a) in alive.iter_mut().enumerate() {
                    if f64::from(idx as u32 % cfg.routers_per_side) < cut - 0.5 {
                        *a = false;
                    }
                }
            }
        }

        let crowd_active = matches!(
            cfg.scenario,
            Scenario::FlashCrowd { at_ms, until_ms, .. } if now_ms >= at_ms && now_ms < until_ms
        );
        let crowd_mult = match cfg.scenario {
            Scenario::FlashCrowd { multiplier, .. } => multiplier.max(1),
            _ => 1,
        };
        let ctx = EpochCtx {
            cfg,
            epoch,
            alive: &alive,
            spacing,
            crowd_active,
            crowd_mult,
            storm,
            service_eff_us: SERVICE_US + URL_SCAN_US * url_len,
        };

        // ---- Pass A (parallel): mobility + intent -------------------
        let intents: Vec<IntentOut> = std::thread::scope(|s| {
            let handles: Vec<_> = users
                .chunks_mut(chunk_len)
                .enumerate()
                .map(|(si, chunk)| {
                    let ctx = &ctx;
                    s.spawn(move || pass_intent(ctx, (si * chunk_len) as u64, chunk))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // ---- Join: aggregate per-router demand ----------------------
        let mut demand = vec![0u64; routers];
        let mut roams = 0u64;
        let mut disconnected = 0u64;
        for it in &intents {
            for (d, &v) in demand.iter_mut().zip(&it.demand) {
                *d += v;
            }
            roams += it.roams;
            disconnected += it.disconnected;
        }
        for (idx, &d) in demand.iter().enumerate() {
            if !alive[idx] {
                continue;
            }
            for c in [&ctrs_phase, &ctrs_total] {
                c.router_demand.record(d);
                c.router_util_pct
                    .record(d * 100 / u64::from(ROUTER_CAPACITY));
            }
        }
        for c in [&ctrs_phase, &ctrs_total] {
            c.roams.add(roams);
            c.disconnected.add(disconnected);
        }
        totals.roams += roams;
        totals.disconnected += disconnected;

        // ---- Pass B (parallel): admission + latency + digest --------
        let outs: Vec<OutcomeOut> = std::thread::scope(|s| {
            let handles: Vec<_> = users
                .chunks(chunk_len)
                .enumerate()
                .map(|(si, chunk)| {
                    let ctx = &ctx;
                    let demand = &demand;
                    let pair = [&ctrs_phase, &ctrs_total];
                    s.spawn(move || {
                        pass_outcome(ctx, (si * chunk_len) as u64, chunk, demand, &pair)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for o in &outs {
            for c in [&ctrs_phase, &ctrs_total] {
                c.attempts.add(o.attempts);
                c.accepted.add(o.accepted);
                c.dropped.add(o.dropped);
                c.rejected_revoked.add(o.rejected_revoked);
            }
            totals.auth_attempts += o.attempts;
            totals.auth_accepted += o.accepted;
            totals.auth_dropped += o.dropped;
            totals.auth_rejected_revoked += o.rejected_revoked;
            digest_add = digest_add.wrapping_add(o.digest_add);
            digest_xor ^= o.digest_xor;
        }
        totals.epochs += 1;
    }

    phase_out.push((phases[phase_idx].0.to_owned(), phase_reg.snapshot()));
    totals.url_len = url_len;
    let total_snap = total_reg.snapshot();
    totals.latency = total_snap
        .histograms
        .get("city.auth_latency_us")
        .cloned()
        .unwrap_or_default();

    CityReport {
        digest: digest_add ^ digest_xor.rotate_left(32),
        phases: phase_out,
        totals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(scenario: Scenario) -> CityConfig {
        CityConfig {
            users: 2_000,
            routers_per_side: 4,
            shards: 3,
            end_ms: 12_000,
            scenario,
            ..CityConfig::default()
        }
    }

    #[test]
    fn steady_runs_and_is_deterministic() {
        let cfg = small(Scenario::Steady);
        let a = run_city(&cfg);
        let b = run_city(&cfg);
        assert_eq!(a.digest, b.digest);
        assert!(a.totals.auth_attempts > 0);
        assert!(a.totals.auth_accepted > 0);
        assert_eq!(a.phases.len(), 1);
        assert_eq!(
            a.phases[0].1.to_json(),
            b.phases[0].1.to_json(),
            "phase snapshots byte-identical"
        );
        // Latency percentiles come out of the merged histogram.
        assert!(a.totals.latency.percentile(0.99) >= a.totals.latency.percentile(0.50));
    }

    #[test]
    fn different_seed_changes_digest() {
        let a = run_city(&small(Scenario::Steady));
        let b = run_city(&CityConfig {
            seed: 42,
            ..small(Scenario::Steady)
        });
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn flash_crowd_concentrates_demand() {
        let cfg = small(Scenario::FlashCrowd {
            at_ms: 4_000,
            until_ms: 9_000,
            hotspot_frac: 0.5,
            multiplier: 6,
        });
        let r = run_city(&cfg);
        assert_eq!(r.phases.len(), 3);
        let crowd = &r.phases[1].1;
        let before = &r.phases[0].1;
        let rate = |s: &Snapshot| s.counters.get("city.auth_attempts").copied().unwrap_or(0);
        // 5 crowd epochs vs 4 before epochs — normalize per epoch.
        assert!(
            rate(crowd) / 5 > rate(before) / 4,
            "crowd must raise the attempt rate: crowd={} before={}",
            rate(crowd),
            rate(before)
        );
        assert!(r.totals.auth_dropped > 0, "a real crowd overloads routers");
    }

    #[test]
    fn mass_revocation_rejects_and_inflates_service() {
        let cfg = small(Scenario::MassRevocation {
            at_ms: 6_000,
            revoke_frac: 0.2,
        });
        let r = run_city(&cfg);
        assert!(r.totals.revocations > 200);
        assert!(r.totals.auth_rejected_revoked > 0);
        assert_eq!(r.totals.url_len, r.totals.revocations);
        // URL scan cost shifts the latency distribution right.
        let before = &r.phases[0].1;
        let after = &r.phases[1].1;
        let p50 = |s: &Snapshot| {
            s.histograms
                .get("city.auth_latency_us")
                .map(|h| h.percentile(0.5))
                .unwrap_or(0)
        };
        assert!(
            p50(after) > p50(before),
            "{} vs {}",
            p50(after),
            p50(before)
        );
    }

    #[test]
    fn rollover_storms_and_resets_url() {
        let cfg = small(Scenario::EpochRollover { at_ms: 6_000 });
        let r = run_city(&cfg);
        assert_eq!(r.totals.url_len, 0);
        let before = &r.phases[0].1;
        let after = &r.phases[1].1;
        let att = |s: &Snapshot| s.counters.get("city.auth_attempts").copied().unwrap_or(0);
        // The storm epoch alone re-auths ~everyone: the after-phase count
        // dwarfs the steady-state before-phase.
        assert!(
            att(after) > att(before),
            "{} vs {}",
            att(after),
            att(before)
        );
        assert!(
            att(after) >= u64::from(cfg.users),
            "storm re-auths everyone"
        );
    }

    #[test]
    fn partition_roams_users_and_heals() {
        let cfg = small(Scenario::Partition {
            at_ms: 4_000,
            heal_ms: 8_000,
            region_frac: 0.5,
        });
        let r = run_city(&cfg);
        assert_eq!(r.phases.len(), 3);
        let roams = |s: &Snapshot| s.counters.get("city.roams").copied().unwrap_or(0);
        assert!(
            roams(&r.phases[1].1) > 0,
            "users must roam off the dead region"
        );
        // Healing triggers roams back as well.
        assert!(roams(&r.phases[2].1) > 0);
    }
}
