//! The discrete-event simulation core: a metropolitan WMN with real PEACE
//! cryptography running at every handshake.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use peace_protocol::entities::{GroupManager, MeshRouter, NetworkOperator, Ttp, UserClient};
use peace_protocol::ids::{GroupId, UserId};
use peace_protocol::{
    AccessConfirm, AccessRequest, Beacon, Channel, FaultPlan, PeerConfirm, PeerHello, PeerResponse,
    ProtocolConfig, ProtocolError, Transient,
};
use peace_wire::{Decode, Encode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{reasons, SimMetrics};
use crate::topology::{Topology, TopologyConfig};

/// Simulation events.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Event {
    /// A router broadcasts its periodic beacon.
    BeaconTick {
        /// Router index.
        router: usize,
    },
    /// NO pushes fresh revocation lists to all honest routers.
    ListPush,
    /// A user attempts network access (uplink, possibly relayed).
    UserAuth {
        /// User index.
        user: usize,
    },
    /// A user moves (random waypoint jitter).
    UserMove {
        /// User index.
        user: usize,
    },
    /// Two nearby users run the pairwise handshake and chat.
    PeerChat {
        /// Initiator index.
        a: usize,
        /// Responder index.
        b: usize,
    },
    /// A user retries a transiently failed authentication after backoff.
    AuthRetry {
        /// User index.
        user: usize,
        /// 1-based attempt number of this retry.
        attempt: u32,
    },
}

/// How one authentication attempt ended, for the retry state machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AttemptOutcome {
    /// A session was established and data flowed.
    Success,
    /// Failed for a reason retrying can fix (channel loss, stale state).
    Transient,
    /// Failed for a reason retrying cannot fix.
    Fatal,
    /// No attempt was possible (disconnected, no beacon yet).
    Skipped,
}

/// Simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Physical layout parameters.
    pub topology: TopologyConfig,
    /// Number of mobile users.
    pub users: usize,
    /// Number of user groups (users enroll round-robin).
    pub groups: usize,
    /// Beacon period (ms).
    pub beacon_interval: u64,
    /// Revocation-list push period (ms).
    pub list_update_interval: u64,
    /// Per-user re-authentication period (ms).
    pub auth_interval: u64,
    /// Per-user movement period (ms).
    pub move_interval: u64,
    /// Maximum movement step (m).
    pub move_step: f64,
    /// Probability per auth event that the user also chats with a peer.
    pub peer_chat_prob: f64,
    /// Simulation end time (ms).
    pub end_time: u64,
    /// Adversarial-channel fault plan applied to every wire-encoded
    /// handshake message (M.1–M.3, M̃.1–M̃.3). [`FaultPlan::NONE`] is a
    /// perfect wire.
    pub fault: FaultPlan,
    /// Simulation time at which the fault plan is cleared (faults stop);
    /// `u64::MAX` keeps it active for the whole run.
    pub fault_until: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            topology: TopologyConfig::default(),
            users: 24,
            groups: 3,
            beacon_interval: 1_000,
            list_update_interval: 10_000,
            auth_interval: 4_000,
            move_interval: 2_000,
            move_step: 60.0,
            peer_chat_prob: 0.25,
            end_time: 30_000,
            fault: FaultPlan::NONE,
            fault_until: u64::MAX,
            seed: 20080605,
        }
    }
}

/// The simulated world.
pub struct SimWorld {
    /// Simulation parameters.
    pub config: SimConfig,
    /// Physical topology (mutable: users move).
    pub topology: Topology,
    /// The network operator.
    pub no: NetworkOperator,
    /// Group managers by group id.
    pub gms: HashMap<GroupId, GroupManager>,
    /// The trusted third party.
    pub ttp: Ttp,
    /// Mesh routers, index-aligned with `topology.router_positions`.
    pub routers: Vec<MeshRouter>,
    /// User clients, index-aligned with `topology.user_positions`.
    pub users: Vec<UserClient>,
    /// Latest beacon per router.
    pub last_beacon: Vec<Option<Beacon>>,
    /// Metrics accumulated so far.
    pub metrics: SimMetrics,
    /// Current simulation time (ms).
    pub now: u64,
    /// The adversarial channel every wire-encoded handshake message
    /// crosses.
    pub channel: Channel,
    /// Per-user time of the most recent successful authentication.
    pub last_auth_success: Vec<Option<u64>>,
    queue: BinaryHeap<Reverse<(u64, u64, Event)>>,
    seq: u64,
    rng: StdRng,
}

impl SimWorld {
    /// Builds the world: full PEACE setup (NO, GMs, TTP, enrollment,
    /// router provisioning) and the initial event schedule.
    pub fn new(config: SimConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut no = NetworkOperator::new(ProtocolConfig::default(), &mut rng);
        let topology = Topology::generate(config.topology, config.users, &mut rng);

        // Groups and key shares.
        let mut gms = HashMap::new();
        let mut ttp = Ttp::new();
        let mut group_ids = Vec::new();
        let per_group = config.users / config.groups.max(1) + 2;
        for gi in 0..config.groups.max(1) {
            let gid = no.register_group(&format!("org-{gi}"), &mut rng);
            let (gm_bundle, ttp_bundle) = no
                .issue_shares(gid, per_group, &mut rng)
                .expect("registered group");
            let mut gm = GroupManager::new(gid);
            gm.receive_bundle(&gm_bundle, no.npk()).expect("bundle ok");
            ttp.receive_bundle(&ttp_bundle, no.npk())
                .expect("bundle ok");
            gms.insert(gid, gm);
            group_ids.push(gid);
        }

        // Users enroll round-robin across groups.
        let mut users = Vec::with_capacity(config.users);
        for ui in 0..config.users {
            let uid = UserId(format!("user-{ui}"));
            let mut client = UserClient::new(
                uid.clone(),
                no.prepared_gpk(),
                *no.npk(),
                *no.config(),
                &mut rng,
            );
            let gid = group_ids[ui % group_ids.len()];
            let gm = gms.get_mut(&gid).expect("group exists");
            let assignment = gm.assign(&uid).expect("share available");
            let delivery = ttp.deliver(assignment.index, &uid).expect("ttp share");
            let receipt = client.enroll(&assignment, &delivery).expect("valid key");
            gm.store_receipt(&uid, receipt);
            users.push(client);
        }

        // Routers on the grid.
        let routers: Vec<MeshRouter> = (0..topology.router_count())
            .map(|ri| no.provision_router(&format!("MR-{ri}"), u64::MAX / 2, &mut rng))
            .collect();
        let last_beacon = vec![None; routers.len()];

        let user_count = users.len();
        let mut world = Self {
            config,
            topology,
            no,
            gms,
            ttp,
            routers,
            users,
            last_beacon,
            metrics: SimMetrics::default(),
            now: 0,
            channel: Channel::new(config.seed, config.fault),
            last_auth_success: vec![None; user_count],
            queue: BinaryHeap::new(),
            seq: 0,
            rng,
        };
        world.schedule_initial();
        world
    }

    fn schedule_initial(&mut self) {
        for r in 0..self.routers.len() {
            self.schedule(0, Event::BeaconTick { router: r });
        }
        self.schedule(self.config.list_update_interval, Event::ListPush);
        for u in 0..self.users.len() {
            // Stagger user activity.
            let jitter = self.rng.gen_range(0..self.config.auth_interval.max(1));
            self.schedule(
                self.config.beacon_interval + jitter,
                Event::UserAuth { user: u },
            );
            let mj = self.rng.gen_range(0..self.config.move_interval.max(1));
            self.schedule(self.config.move_interval + mj, Event::UserMove { user: u });
        }
    }

    /// Schedules an event at absolute time `at`.
    pub fn schedule(&mut self, at: u64, event: Event) {
        self.seq += 1;
        self.queue.push(Reverse((at, self.seq, event)));
    }

    /// Runs to completion, consuming the world and returning its metrics.
    pub fn run_owned(mut self) -> SimMetrics {
        self.run();
        self.metrics
    }

    /// Runs until the configured end time. Returns the metrics.
    pub fn run(&mut self) -> &SimMetrics {
        while let Some(&Reverse((at, _, event))) = self.queue.peek() {
            if at > self.config.end_time {
                break;
            }
            self.queue.pop();
            self.now = at;
            if at >= self.config.fault_until {
                self.channel.set_plan(FaultPlan::NONE);
            }
            self.metrics.events_processed += 1;
            self.handle(event);
        }
        self.finalize_metrics();
        &self.metrics
    }

    /// Copies end-of-run observability (channel fault counters, pending
    /// table high-water marks) into the metrics. Idempotent.
    fn finalize_metrics(&mut self) {
        self.metrics.fault_stats = *self.channel.stats();
        self.metrics.pending_high_water = self
            .users
            .iter()
            .map(|u| u.pending_high_water())
            .chain(self.routers.iter().map(|r| r.pending_state_high_water()))
            .max()
            .unwrap_or(0);
        self.metrics.pending_evictions = self
            .users
            .iter()
            .map(|u| u.pending_evictions())
            .chain(self.routers.iter().map(|r| r.pending_evictions()))
            .sum();
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::BeaconTick { router } => {
                let beacon = self.routers[router].beacon(self.now, &mut self.rng);
                self.last_beacon[router] = Some(beacon);
                self.schedule(
                    self.now + self.config.beacon_interval,
                    Event::BeaconTick { router },
                );
            }
            Event::ListPush => {
                let crl = self.no.publish_crl(self.now);
                let url = self.no.publish_url(self.now);
                for r in &mut self.routers {
                    r.update_lists(crl.clone(), url.clone());
                }
                self.schedule(self.now + self.config.list_update_interval, Event::ListPush);
            }
            Event::UserMove { user } => {
                self.topology
                    .move_user(user, self.config.move_step, &mut self.rng);
                self.schedule(
                    self.now + self.config.move_interval,
                    Event::UserMove { user },
                );
            }
            Event::UserAuth { user } => {
                self.run_auth_attempt(user, 1);
                self.schedule(
                    self.now + self.config.auth_interval,
                    Event::UserAuth { user },
                );
                if self.rng.gen_bool(self.config.peer_chat_prob) {
                    let peers = self.topology.peers_in_range(user);
                    if let Some(&b) = peers.first() {
                        self.schedule(self.now + 10, Event::PeerChat { a: user, b });
                    }
                }
            }
            Event::AuthRetry { user, attempt } => {
                self.run_auth_attempt(user, attempt);
            }
            Event::PeerChat { a, b } => {
                self.do_peer_chat(a, b);
            }
        }
    }

    /// Runs one authentication attempt and, on transient failure, schedules
    /// a retry per the protocol's backoff policy ([`peace_protocol::RetryPolicy`]).
    fn run_auth_attempt(&mut self, user: usize, attempt: u32) {
        if self.do_user_auth(user) == AttemptOutcome::Transient {
            let policy = self.no.config().retry;
            if policy.should_retry(attempt) {
                // Jitter seed mixes user and time so synchronized losers
                // fan out, yet every run replays from the sim seed.
                let jitter_seed = self.config.seed ^ ((user as u64) << 32) ^ self.now;
                let delay = policy.backoff(attempt, jitter_seed);
                self.metrics.retries += 1;
                self.schedule(
                    self.now + delay,
                    Event::AuthRetry {
                        user,
                        attempt: attempt + 1,
                    },
                );
            } else {
                self.metrics.retries_exhausted += 1;
            }
        }
    }

    /// One full uplink authentication attempt with every wire-encoded
    /// message (M.1, M.2, M.3 and the relay chain's M̃.1–M̃.3) crossing the
    /// adversarial channel. Reports how the attempt ended so the caller can
    /// drive the retry state machine.
    fn do_user_auth(&mut self, user: usize) -> AttemptOutcome {
        let Some((relay_chain, router_idx)) = self.topology.uplink_path(user) else {
            self.metrics.disconnected_users += 1;
            return AttemptOutcome::Skipped;
        };
        let Some(beacon) = self.last_beacon[router_idx].clone() else {
            return AttemptOutcome::Skipped; // router has not beaconed yet
        };
        // Relay chain: each consecutive pair runs the peer handshake.
        let mut hops = 0u64;
        let mut prev = user;
        for &relay in &relay_chain {
            if !self.do_peer_handshake(prev, relay, &beacon) {
                self.metrics.record_auth_fail(reasons::RELAY_CHAIN_FAILED);
                return AttemptOutcome::Transient;
            }
            hops += 1;
            prev = relay;
        }
        // M.1 over the wire: the user only sees what the channel delivers.
        let (heard, _) = self.deliver("M1", &beacon.to_wire(), |_, b: Beacon, at| Ok((b, at)));
        let Some((beacon, m1_at)) = heard else {
            self.metrics.record_auth_fail(reasons::CHANNEL_LOSS_M1);
            return AttemptOutcome::Transient;
        };
        // The terminal hop: user (or last relay acting transparently)
        // authenticates the actual user to the router.
        let req = match self.users[user].request_access(&beacon, m1_at.max(self.now), &mut self.rng)
        {
            Ok(req) => req,
            Err(e) => {
                let out = Self::outcome_of(&e);
                self.metrics.record_auth_fail(e.code());
                return out;
            }
        };
        // M.2 over the wire: the router processes every delivery — mangled
        // copies fail checks, replayed copies are rejected idempotently.
        let (established, errs) = self.deliver("M2", &req.to_wire(), |w, r: AccessRequest, at| {
            w.routers[router_idx].process_access_request(&r, at)
        });
        let Some((confirm, mut router_sess)) = established else {
            return self.record_leg_failure(errs, reasons::CHANNEL_LOSS_M2);
        };
        // M.3 back over the wire to the user.
        let (user_sess, errs) =
            self.deliver("M3", &confirm.to_wire(), |w, c: AccessConfirm, at| {
                w.users[user].handle_access_confirm(&c, at)
            });
        let outcome = match user_sess {
            Some(mut user_sess) => {
                self.metrics.auth_success += 1;
                *self
                    .metrics
                    .auths_by_router
                    .entry(format!("MR-{router_idx}"))
                    .or_insert(0) += 1;
                self.metrics.relay_hops += hops;
                self.last_auth_success[user] = Some(self.now);
                // one uplink payload end-to-end
                let packet = user_sess.seal_data(b"payload");
                if router_sess.open_data(&packet).is_ok() {
                    self.metrics.data_delivered += 1;
                }
                AttemptOutcome::Success
            }
            None => self.record_leg_failure(errs, reasons::CHANNEL_LOSS_M3),
        };
        // Routers report their logs to NO opportunistically.
        self.no.ingest_router_log(&mut self.routers[router_idx]);
        outcome
    }

    /// Classifies a protocol error for the retry state machine.
    fn outcome_of(e: &ProtocolError) -> AttemptOutcome {
        if e.is_transient() {
            AttemptOutcome::Transient
        } else {
            AttemptOutcome::Fatal
        }
    }

    /// Records the failure of one handshake leg: the first protocol error
    /// if any delivery got that far, otherwise a channel-loss marker (every
    /// delivery was dropped or undecodable).
    fn record_leg_failure(
        &mut self,
        errs: Vec<ProtocolError>,
        loss_reason: &str,
    ) -> AttemptOutcome {
        match errs.into_iter().next() {
            Some(e) => {
                let out = Self::outcome_of(&e);
                self.metrics.record_auth_fail(e.code());
                out
            }
            None => {
                self.metrics.record_auth_fail(loss_reason);
                AttemptOutcome::Transient
            }
        }
    }

    fn do_peer_handshake(&mut self, a: usize, b: usize, beacon: &Beacon) -> bool {
        // Both ends need current URL knowledge; processing the beacon as a
        // listener would do that, but for relays we use the protocol's
        // pairwise handshake directly with the beacon generator. Every
        // M̃.1/M̃.2/M̃.3 crosses the adversarial channel.
        let hello = match self.users[a].start_peer_handshake(&beacon.g, self.now, &mut self.rng) {
            Ok(h) => h,
            Err(e) => {
                self.metrics.record_peer_fail(e.code());
                return false;
            }
        };
        // M̃.1: a duplicated hello makes the responder answer twice (two
        // half-open states, each bounded by its table); we carry the first.
        let lost = reasons::CHANNEL_LOSS_MT1;
        let Some(resp) = self.peer_leg("Mt1", lost, &hello.to_wire(), |w, h: PeerHello, at| {
            w.users[b].handle_peer_hello(&h, at, &mut w.rng)
        }) else {
            return false;
        };
        // M̃.2 back to the initiator; replays are rejected idempotently.
        let lost = reasons::CHANNEL_LOSS_MT2;
        let Some((confirm, mut a_sess)) =
            self.peer_leg("Mt2", lost, &resp.to_wire(), |w, r: PeerResponse, at| {
                w.users[a].handle_peer_response(&r, at)
            })
        else {
            return false;
        };
        // M̃.3 to the responder.
        let lost = reasons::CHANNEL_LOSS_MT3;
        let Some(mut b_sess) =
            self.peer_leg("Mt3", lost, &confirm.to_wire(), |w, c: PeerConfirm, at| {
                w.users[b].handle_peer_confirm(&c, at)
            })
        else {
            return false;
        };
        // exchange one payload to prove the channel works
        let m = a_sess.seal_data(b"relay-setup");
        let ok = b_sess.open_data(&m).is_ok();
        if ok {
            self.metrics.peer_success += 1;
        }
        ok
    }

    /// One peer-handshake leg over the channel: every refusal a delivery
    /// met counts as a peer failure, and so does a leg nothing came out of.
    fn peer_leg<M: Decode, T>(
        &mut self,
        kind: &str,
        loss_reason: &str,
        wire: &[u8],
        on_msg: impl FnMut(&mut Self, M, u64) -> Result<T, ProtocolError>,
    ) -> Option<T> {
        let (got, errs) = self.deliver(kind, wire, on_msg);
        for e in errs {
            self.metrics.record_peer_fail(e.code());
        }
        if got.is_none() {
            self.metrics.record_peer_fail(loss_reason);
        }
        got
    }

    /// Carries one wire-encoded handshake message across the adversarial
    /// channel and hands every arrival to its receiver: a delivery that
    /// does not decode is counted under `kind` and skipped, the rest go to
    /// `on_msg` with their arrival time. The first success wins; a replay
    /// the receiver refuses as [`ProtocolError::DuplicateMessage`] is
    /// counted as such; every other refusal is returned, in arrival order.
    fn deliver<M: Decode, T>(
        &mut self,
        kind: &str,
        wire: &[u8],
        mut on_msg: impl FnMut(&mut Self, M, u64) -> Result<T, ProtocolError>,
    ) -> (Option<T>, Vec<ProtocolError>) {
        let mut first = None;
        let mut errs = Vec::new();
        for d in self.channel.transmit(wire, self.now) {
            let msg = match M::from_wire(&d.bytes) {
                Ok(msg) => msg,
                Err(e) => {
                    self.metrics.record_decode_fail(kind, &e);
                    continue;
                }
            };
            match on_msg(self, msg, d.at) {
                Ok(out) => {
                    first.get_or_insert(out);
                }
                Err(ProtocolError::DuplicateMessage) => self.metrics.duplicate_rejects += 1,
                Err(e) => errs.push(e),
            }
        }
        (first, errs)
    }

    fn do_peer_chat(&mut self, a: usize, b: usize) {
        // Requires some beacon for the generator; use any router's latest.
        let Some(beacon) = self.last_beacon.iter().flatten().next().cloned() else {
            return;
        };
        let _ = self.do_peer_handshake(a, b, &beacon);
    }

    /// Average relay hops per successful authentication.
    pub fn avg_relay_hops(&self) -> f64 {
        if self.metrics.auth_success == 0 {
            0.0
        } else {
            self.metrics.relay_hops as f64 / self.metrics.auth_success as f64
        }
    }
}
