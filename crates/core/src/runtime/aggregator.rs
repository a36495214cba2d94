//! The socket-runtime aggregator role: `cludistream aggregator` in
//! library form.
//!
//! [`run_aggregator`] plants an [`AggregatorEngine`] between a fan-in of
//! child connections (sites or lower-level aggregators, served exactly
//! like [`super::serve`] serves sites) and one upward connection to a
//! parent (dialled exactly like [`super::run_site`] dials a
//! coordinator). Downward it terminates the children's go-back-N
//! channels, answers their handshakes, heartbeats and scrapes, and folds
//! their synopses into the local shard coordinator; upward it behaves as
//! site `index`: one reduced sequenced `NewModel` per flush interval,
//! retransmitted on RTO, resynced on reconnect.
//!
//! Durability is deliberately soft-state: the aggregator never
//! checkpoints. If the process dies, its children reconnect to the
//! replacement with `resume`, the replacement ACKs from zero, and the
//! shard re-converges from the children's *next* uploads — meanwhile the
//! parent keeps the last summary this aggregator forwarded (same-id
//! replace means stale-but-valid, never absent). The authoritative
//! crash-recovery state lives at the root and the sites, where it
//! already existed before the tier.

use std::collections::HashMap;
use std::net::{Shutdown, TcpListener};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::aggregator::{AggregatorConfig, AggregatorEngine};
use crate::coordinator::CoordinatorConfig;
use crate::driver::{DeliveryConfig, DeliveryMode};
use crate::error::CludiError;
use crate::protocol::{Frame, ReliableSender};
use crate::runtime::control::{Control, RejectCode, PROTOCOL_VERSION};
use crate::runtime::link::{
    events, send_control, spawn_acceptor, write_payload, Conn, Inbound, NetEvent, Uplink,
    UplinkSpec,
};
use crate::runtime::liveness::RoundMachine;
use crate::runtime::tcp::{validate_socket, SocketConfig};
use crate::serving::ModelSnapshot;
use cludistream_gmm::CovarianceType;
use cludistream_obs::{intern, net, Event, FleetAggregator, Obs, Recorder, TelemetryDelta};
use cludistream_simnet::{CommStats, NodeId};
use cludistream_wire::{ByteBuf, ByteReader};

/// Connection ids of the upward link: the `n`-th dial is
/// `UPLINK_CONN + n`, far above the acceptor's child ids (counted from
/// 0), so one event channel carries both directions.
const UPLINK_CONN: u64 = 1 << 63;

/// Everything one socket aggregator needs to relay a round.
///
/// Construct it with [`AggregatorRun::builder`]; the fields are private,
/// so the builder's validation is the only way in.
pub struct AggregatorRun {
    index: u32,
    child_base: u32,
    children: usize,
    epsilon: f64,
    coordinator: CoordinatorConfig,
    dim: u32,
    cov: CovarianceType,
    obs: Obs,
    socket: SocketConfig,
    delivery: DeliveryConfig,
    flush_interval_us: u64,
    telemetry: bool,
    fleet: Option<Arc<FleetAggregator>>,
}

impl AggregatorRun {
    /// Starts a builder for the aggregator serving child sites
    /// `[child_base, child_base + children)` and appearing at its parent
    /// as site `index`.
    pub fn builder(index: u32, child_base: u32, children: usize) -> AggregatorRunBuilder {
        AggregatorRunBuilder {
            index,
            child_base,
            children,
            epsilon: 0.0,
            coordinator: CoordinatorConfig {
                merge_log_cap: Some(64),
                ..CoordinatorConfig::default()
            },
            dim: 1,
            cov: CovarianceType::default(),
            obs: Obs::noop(),
            socket: SocketConfig::default(),
            delivery: DeliveryConfig { mode: DeliveryMode::Reliable, ..DeliveryConfig::default() },
            flush_interval_us: 50_000,
            telemetry: false,
            fleet: None,
        }
    }
}

/// Builder for [`AggregatorRun`]. Defaults mirror the simnet tree
/// runner: ε = 0 (forward on any change), 50 ms flush interval, shard
/// `merge_log_cap = Some(64)`, reliable delivery, default socket tuning.
pub struct AggregatorRunBuilder {
    index: u32,
    child_base: u32,
    children: usize,
    epsilon: f64,
    coordinator: CoordinatorConfig,
    dim: u32,
    cov: CovarianceType,
    obs: Obs,
    socket: SocketConfig,
    delivery: DeliveryConfig,
    flush_interval_us: u64,
    telemetry: bool,
    fleet: Option<Arc<FleetAggregator>>,
}

impl AggregatorRunBuilder {
    /// Sets the upload-on-change suppression threshold (default 0.0).
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the shard coordinator's knobs. The covariance field is
    /// overwritten by [`AggregatorRunBuilder::covariance`] at build time
    /// so the handshake and the engine can never disagree.
    pub fn coordinator(mut self, coordinator: CoordinatorConfig) -> Self {
        self.coordinator = coordinator;
        self
    }

    /// Sets the record dimension every child (and the parent) must agree
    /// on (default 1).
    pub fn dim(mut self, dim: u32) -> Self {
        self.dim = dim;
        self
    }

    /// Sets the covariance kind every child (and the parent) must agree
    /// on.
    pub fn covariance(mut self, cov: CovarianceType) -> Self {
        self.cov = cov;
        self
    }

    /// Attaches a telemetry observer (default: no-op).
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Overrides the socket tuning (both directions: the downward
    /// `heartbeat_us`/`timeout_us` pair is what this node's `Welcome`
    /// advertises to its children).
    pub fn socket(mut self, socket: SocketConfig) -> Self {
        self.socket = socket;
        self
    }

    /// Overrides the upward channel's delivery tuning (RTO base/cap).
    /// The mode must stay [`DeliveryMode::Reliable`];
    /// [`AggregatorRunBuilder::build`] rejects anything else.
    pub fn delivery(mut self, delivery: DeliveryConfig) -> Self {
        self.delivery = delivery;
        self
    }

    /// Sets how long child traffic batches before one reduced update
    /// goes upward, microseconds (default 50 ms).
    pub fn flush_interval_us(mut self, flush_interval_us: u64) -> Self {
        self.flush_interval_us = flush_interval_us;
        self
    }

    /// Opts into shipping this node's own registry deltas upward as
    /// `Telemetry` frames on the heartbeat cadence, so the root's fleet
    /// registry shows `site<index>.agg.*` series for this subtree.
    pub fn telemetry(mut self, telemetry: bool) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Opts into the downward half of the fleet telemetry plane: clock
    /// probes after every child `Welcome`, folding the children's
    /// `Telemetry` deltas into this registry, and answering
    /// `StatusRequest` scrapes with per-subtree Prometheus text (child
    /// series keep their global `site<N>.` labels).
    pub fn fleet(mut self, fleet: Arc<FleetAggregator>) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Validates and produces the run.
    pub fn build(mut self) -> Result<AggregatorRun, CludiError> {
        if self.children == 0 {
            return Err(CludiError::InvalidConfig {
                name: "children",
                constraint: "children >= 1",
            });
        }
        if self.dim == 0 {
            return Err(CludiError::InvalidConfig { name: "dim", constraint: "dim >= 1" });
        }
        if self.flush_interval_us == 0 {
            return Err(CludiError::InvalidConfig {
                name: "flush_interval_us",
                constraint: "flush_interval_us >= 1",
            });
        }
        if !self.epsilon.is_finite() || self.epsilon < 0.0 {
            return Err(CludiError::InvalidConfig {
                name: "epsilon",
                constraint: "finite and >= 0",
            });
        }
        if self.delivery.mode != DeliveryMode::Reliable {
            return Err(CludiError::Build(
                "the TCP transport is reliable-only: a reconnect needs sequence state to resync",
            ));
        }
        validate_socket(&self.socket)?;
        self.coordinator.covariance = self.cov;
        Ok(AggregatorRun {
            index: self.index,
            child_base: self.child_base,
            children: self.children,
            epsilon: self.epsilon,
            coordinator: self.coordinator,
            dim: self.dim,
            cov: self.cov,
            obs: self.obs,
            socket: self.socket,
            delivery: self.delivery,
            flush_interval_us: self.flush_interval_us,
            telemetry: self.telemetry,
            fleet: self.fleet,
        })
    }
}

/// What one socket aggregator did, returned by [`run_aggregator`].
#[derive(Debug)]
pub struct AggregatorReport {
    /// Local (shard) group count at the end of the round.
    pub groups: usize,
    /// Reduced updates sent upward.
    pub flushes: u64,
    /// Flush attempts suppressed as unchanged.
    pub flushes_suppressed: u64,
    /// Child messages folded into the shard coordinator.
    pub messages_applied: u64,
    /// Shard bookkeeping rows (registry + retained merge log) kept out
    /// of the root by the fan-in boundary.
    pub event_table_entries: usize,
    /// Frames put on the upward wire (including retransmissions).
    pub sent_messages: u64,
    /// Bytes put on the upward wire (payloads, no length prefix).
    pub sent_bytes: u64,
    /// Upward frames re-sent on RTO expiry.
    pub retransmitted_messages: u64,
    /// Upward bytes re-sent on RTO expiry.
    pub retransmitted_bytes: u64,
    /// ACK frames sent downward to children.
    pub ack_messages: u64,
    /// Bytes of ACK frames sent downward.
    pub ack_bytes: u64,
    /// Duplicate or stale child frames discarded by the inboxes.
    pub duplicates_discarded: u64,
    /// Malformed or out-of-range child frames rejected by the engine.
    pub decode_errors: u64,
    /// Children (global site indices) that ended the round evicted.
    pub evicted: Vec<u32>,
    /// Times this node reconnected to its parent and resynced.
    pub resyncs_up: u64,
    /// Child reconnect-resyncs served.
    pub resyncs_down: u64,
    /// Per-second downward communication accounting (child data in,
    /// ACKs out), child slots as nodes `0..children`, this node as node
    /// `children`.
    pub comm: CommStats,
}

/// Relays one clustering round: serves `run.children` children on
/// `listener` exactly like [`super::serve`] serves sites, while playing
/// site `run.index` toward the parent at `parent_addr` exactly like
/// [`super::run_site`] — reduced updates up, `Stop` propagated down.
///
/// The caller binds the listener (so it can publish the ephemeral port
/// before any child connects) and this function consumes it.
pub fn run_aggregator(
    parent_addr: &str,
    listener: TcpListener,
    run: AggregatorRun,
) -> Result<AggregatorReport, CludiError> {
    let AggregatorRun {
        index,
        child_base,
        children,
        epsilon,
        coordinator,
        dim,
        cov,
        obs,
        socket,
        delivery,
        flush_interval_us,
        telemetry,
        fleet,
    } = run;
    let agg = AggregatorEngine::new(
        AggregatorConfig { index, child_base, children, epsilon, coordinator },
        obs.clone(),
    )?;

    // One channel for both directions: the acceptor's child readers and
    // each upward link's reader feed it.
    let (tx, rx) = mpsc::channel::<NetEvent>();
    let acceptor = spawn_acceptor(listener, tx.clone())?;

    let mut pump = Pump {
        agg,
        machine: RoundMachine::new(children, socket.timeout_us),
        comm: CommStats::new(),
        conns: HashMap::new(),
        child_conn: vec![None; children],
        obs,
        socket,
        fleet,
        dim,
        cov,
        child_base,
        children,
        index,
        sender: ReliableSender::new(delivery.rto_us, delivery.rto_cap_us),
        flush_interval: Duration::from_micros(flush_interval_us),
        telemetry,
        sent_messages: 0,
        sent_bytes: 0,
        retransmitted_messages: 0,
        retransmitted_bytes: 0,
        resyncs_up: 0,
        resyncs_down: 0,
        started_at: Instant::now(),
    };
    let outcome = pump.run(parent_addr, &tx, &rx);

    // Tear down: cut every child socket so blocked readers exit, and
    // stop the acceptor.
    for c in pump.conns.values() {
        let _ = c.writer.shutdown(Shutdown::Both);
    }
    acceptor.stop();
    outcome?;

    Ok(AggregatorReport {
        groups: pump.agg.group_count(),
        flushes: pump.agg.flushes(),
        flushes_suppressed: pump.agg.flushes_suppressed(),
        messages_applied: pump.agg.messages_applied(),
        event_table_entries: pump.agg.event_table_entries(),
        sent_messages: pump.sent_messages,
        sent_bytes: pump.sent_bytes,
        retransmitted_messages: pump.retransmitted_messages,
        retransmitted_bytes: pump.retransmitted_bytes,
        ack_messages: pump.agg.ack_messages(),
        ack_bytes: pump.agg.ack_bytes(),
        duplicates_discarded: pump.agg.duplicates_discarded(),
        decode_errors: pump.agg.decode_errors(),
        evicted: pump
            .machine
            .evicted_sites()
            .into_iter()
            .map(|s| s + pump.child_base)
            .collect(),
        resyncs_up: pump.resyncs_up,
        resyncs_down: pump.resyncs_down,
        comm: pump.comm,
    })
}

/// The aggregator event loop's state: downward serving plumbing (as in
/// `serve`) plus the upward site-like reliable channel.
struct Pump {
    agg: AggregatorEngine,
    machine: RoundMachine,
    comm: CommStats,
    conns: HashMap<u64, Conn>,
    /// Live connection per local child slot (newest wins).
    child_conn: Vec<Option<u64>>,
    obs: Obs,
    socket: SocketConfig,
    fleet: Option<Arc<FleetAggregator>>,
    dim: u32,
    cov: CovarianceType,
    child_base: u32,
    children: usize,
    index: u32,
    sender: ReliableSender,
    flush_interval: Duration,
    telemetry: bool,
    sent_messages: u64,
    sent_bytes: u64,
    retransmitted_messages: u64,
    retransmitted_bytes: u64,
    resyncs_up: u64,
    resyncs_down: u64,
    started_at: Instant,
}

impl Pump {
    fn now_us(&self) -> u64 {
        self.started_at.elapsed().as_micros() as u64
    }

    fn in_range(&self, site: u32) -> bool {
        site >= self.child_base && (site as u64) < self.child_base as u64 + self.children as u64
    }

    /// Connect-upward / pump / reconnect loop; `Ok(())` once the parent
    /// says `Stop` (propagated downward) or, after `Done`, the link
    /// fails. Child events are served throughout, the parent handshake
    /// included.
    fn run(
        &mut self,
        parent_addr: &str,
        tx: &mpsc::Sender<NetEvent>,
        rx: &mpsc::Receiver<NetEvent>,
    ) -> Result<(), CludiError> {
        let spec = UplinkSpec {
            role: "aggregator",
            index: self.index,
            dim: self.dim,
            cov: self.cov,
            telemetry: self.telemetry,
        };
        let (socket, obs) = (self.socket, self.obs.clone());
        let mut up_reconnects = 0u64;
        'round: loop {
            let resume = up_reconnects > 0;
            let conn = UPLINK_CONN + up_reconnects;
            let mut up = Uplink::dial(parent_addr, &socket, spec, resume, conn, tx, rx, &obs, |e| {
                self.on_child_event(e)
            })?;
            self.sender.on_ack(up.ack);
            if resume {
                // Go-back-N resync on the upward channel, exactly as a
                // site would: the Welcome told us the parent's cumulative
                // position; re-send everything past it now.
                self.resyncs_up += 1;
                self.retransmit_up(&mut up);
            }

            // The pump never has work of its own between events: it
            // blocks until the next child or parent frame, or until its
            // earliest timer (heartbeat, RTO, flush, eviction, deadline).
            let mut last_flush = Instant::now();
            let mut retx_at: Option<Instant> = None;
            let mut wake: Option<Instant> = None;
            loop {
                if self.socket.deadline.is_some_and(|d| self.started_at.elapsed() > d) {
                    return Err(CludiError::Net("aggregator deadline exceeded".into()));
                }
                if self.telemetry {
                    self.obs.set_sim_time(self.now_us());
                }
                let (mut stop, mut closed) = (false, false);
                for event in events(rx, wake) {
                    match event {
                        NetEvent::Frame { conn, payload } if conn == up.conn => {
                            match up.on_frame(&payload, &self.obs, self.now_us()) {
                                Some(Inbound::Stop) => stop = true,
                                Some(Inbound::Ack(cumulative)) => {
                                    self.sender.on_ack(cumulative);
                                }
                                None => {}
                            }
                        }
                        NetEvent::Closed { conn } if conn == up.conn => closed = true,
                        event => self.on_child_event(event),
                    }
                }
                self.evict_silent();
                if stop {
                    // Propagate the round end to the subtree before
                    // tearing down our own sockets.
                    for c in self.conns.values() {
                        send_control(&c.writer, &self.obs, &Control::Stop);
                    }
                    break 'round;
                }
                if closed || up.io_err {
                    if up.done_sent && self.sender.pending() == 0 {
                        // The parent acknowledged everything before Done
                        // and nothing was sent upward since (a child that
                        // rejoins after Done can add frames); a failure
                        // now is the parent tearing down.
                        break 'round;
                    }
                    break; // reconnect upward; children stay connected
                }
                if self.agg.dirty() && last_flush.elapsed() >= self.flush_interval {
                    last_flush = Instant::now();
                    self.flush_up(&mut up, &mut retx_at);
                }
                if self.sender.pending() > 0 {
                    let due = *retx_at.get_or_insert_with(|| {
                        Instant::now() + Duration::from_micros(self.sender.next_timeout_us())
                    });
                    if Instant::now() >= due {
                        self.retransmit_up(&mut up);
                        retx_at = Some(
                            Instant::now()
                                + Duration::from_micros(self.sender.next_timeout_us()),
                        );
                    }
                } else {
                    retx_at = None;
                }
                if self.machine.finished() && !up.done_sent {
                    // Every child is done (or evicted): flush whatever
                    // is still batching, then announce Done once the
                    // parent has acknowledged everything.
                    if self.agg.dirty() {
                        self.flush_up(&mut up, &mut retx_at);
                    }
                    if self.sender.pending() == 0 && !up.io_err {
                        up.send_done(&self.obs);
                    }
                }
                up.heartbeat(&self.obs, self.now_us());
                let at = |us: u64| self.started_at + Duration::from_micros(us);
                wake = [
                    Some(up.next_ping()),
                    retx_at,
                    self.agg.dirty().then(|| last_flush + self.flush_interval),
                    self.machine.next_eviction_us().map(at),
                    self.socket.deadline.map(|d| self.started_at + d),
                ]
                .into_iter()
                .flatten()
                .min();
            }
            up_reconnects += 1;
        }
        Ok(())
    }

    /// Sends one reduced update upward, if the engine has one due.
    fn flush_up(&mut self, up: &mut Uplink, retx_at: &mut Option<Instant>) {
        let Some(msg) = self.agg.flush() else { return };
        let frame = self.sender.send_traced(msg, None);
        self.send_frame_up(&frame, up);
        *retx_at = Some(Instant::now() + Duration::from_micros(self.sender.next_timeout_us()));
    }

    /// Re-sends every unacknowledged upward frame (go-back-N).
    fn retransmit_up(&mut self, up: &mut Uplink) {
        for frame in self.sender.on_timeout() {
            let bytes = self.send_frame_up(&frame, up);
            self.retransmitted_messages += 1;
            self.retransmitted_bytes += bytes;
        }
    }

    /// Puts one upward frame on the wire; returns its payload bytes.
    fn send_frame_up(&mut self, frame: &Frame, up: &mut Uplink) -> u64 {
        let bytes = frame.encode(self.cov);
        net::on_send(&self.obs, bytes.len() as u64);
        self.sent_messages += 1;
        self.sent_bytes += bytes.len() as u64;
        up.write(bytes.as_slice());
        bytes.len() as u64
    }

    /// Applies one event from the child side. Stragglers of an earlier
    /// upward link (ids from [`UPLINK_CONN`]) are dropped.
    fn on_child_event(&mut self, event: NetEvent) {
        match event {
            NetEvent::Accepted { conn, writer } => {
                self.conns.insert(conn, Conn { writer, site: None });
            }
            NetEvent::Frame { conn, .. } | NetEvent::Closed { conn } if conn >= UPLINK_CONN => {}
            NetEvent::Frame { conn, payload } => {
                let now_us = self.now_us();
                if self.fleet.is_some() {
                    self.obs.set_sim_time(now_us);
                }
                self.on_child_frame(&payload, conn, now_us);
            }
            NetEvent::Closed { conn } => {
                if let Some(c) = self.conns.remove(&conn) {
                    if let Some(s) = c.site {
                        if self.child_conn[s] == Some(conn) {
                            self.child_conn[s] = None;
                        }
                    }
                }
            }
        }
    }

    /// Evicts children silent past the timeout.
    fn evict_silent(&mut self) {
        let now_us = self.now_us();
        for (child, silent_us) in self.machine.evictions(now_us) {
            let site = self.child_base + child as u32;
            self.obs.event(&Event::SiteEvicted { site, silent_us });
            self.obs.counter("coord.evict", 1);
            if let Some(conn) = self.child_conn[child].take() {
                if let Some(c) = self.conns.get(&conn) {
                    let _ = c.writer.shutdown(Shutdown::Both);
                }
            }
        }
    }

    /// Handles one inbound child payload: handshake and liveness for
    /// control frames, engine + ACK for data frames — the same contract
    /// `serve` gives its sites, over the child index range.
    fn on_child_frame(&mut self, payload: &[u8], conn: u64, now_us: u64) {
        if Control::is_control(payload) {
            let Ok(frame) = Control::decode(&mut ByteReader::new(payload)) else {
                return;
            };
            match frame {
                Control::Hello { version, site, dim, cov, resume } => {
                    self.on_child_hello(version, site, dim, cov, resume, conn, now_us);
                }
                Control::Ping { site, sent_us } if self.in_range(site) => {
                    self.machine.heard((site - self.child_base) as usize, now_us);
                    if let Some(c) = self.conns.get(&conn) {
                        send_control(
                            &c.writer,
                            &self.obs,
                            &Control::Pong { site, echo_us: sent_us },
                        );
                    }
                }
                Control::ClockEcho { site, t0_us, site_us } if self.in_range(site) => {
                    self.machine.heard((site - self.child_base) as usize, now_us);
                    if let Some(fleet) = &self.fleet {
                        let midpoint = (t0_us + now_us) / 2;
                        fleet.set_offset(site, midpoint as i64 - site_us as i64);
                    }
                }
                Control::Telemetry { site, payload } if self.in_range(site) => {
                    self.machine.heard((site - self.child_base) as usize, now_us);
                    let Some(fleet) = &self.fleet else { return };
                    let Ok(mut delta) = TelemetryDelta::decode(&mut ByteReader::new(&payload))
                    else {
                        self.obs.counter("coord.telemetry_decode_err", 1);
                        return;
                    };
                    delta.site = site;
                    for entry in delta.flight.drain(..) {
                        self.obs.event(&Event::FlightRecorder { site, entry });
                    }
                    fleet.apply(&delta);
                }
                Control::StatusRequest => {
                    // Subtree scrape: child series keep their global
                    // `site<N>.` labels, so a fleet-wide dashboard can
                    // union per-aggregator scrapes without relabeling.
                    let Some(c) = self.conns.get(&conn) else { return };
                    let text = match &self.fleet {
                        Some(fleet) => {
                            for (s, &state) in self.machine.states().iter().enumerate() {
                                let site = self.child_base as usize + s;
                                fleet.registry().gauge(
                                    intern(&format!("site{site}.round_state")),
                                    f64::from(RoundMachine::state_code(state)),
                                );
                            }
                            let started = if self.machine.started() { 1.0 } else { 0.0 };
                            fleet.registry().gauge("coord.round_started", started);
                            fleet.prometheus_text()
                        }
                        None => String::from("# TYPE cludistream_up gauge\ncludistream_up 1\n"),
                    };
                    send_control(
                        &c.writer,
                        &self.obs,
                        &Control::StatusReply { text: text.into_bytes() },
                    );
                }
                Control::SnapshotRequest => {
                    // Serve the *shard* model: what this subtree has
                    // agreed on, before the root's cross-shard merge.
                    let Some(c) = self.conns.get(&conn) else { return };
                    let bytes = ModelSnapshot::capture(self.agg.coordinator())
                        .map(|snapshot| snapshot.encode().into_vec())
                        .unwrap_or_default();
                    self.obs.counter("serve.snapshot_pulls", 1);
                    send_control(
                        &c.writer,
                        &self.obs,
                        &Control::SnapshotReply { snapshot: bytes },
                    );
                }
                Control::HealthRequest => {
                    // Alert rules live at the root; answer empty so
                    // monitors pointed at a shard degrade gracefully.
                    let Some(c) = self.conns.get(&conn) else { return };
                    self.obs.counter("coord.health_requests", 1);
                    send_control(
                        &c.writer,
                        &self.obs,
                        &Control::HealthReply { alerts: Vec::new() },
                    );
                }
                Control::Done { site } if self.in_range(site) => {
                    let local = (site - self.child_base) as usize;
                    self.machine.heard(local, now_us);
                    self.machine.done(local);
                }
                _ => {}
            }
            return;
        }
        // Data plane: only handshaken connections may speak it.
        let Some(local) = self.conns.get(&conn).and_then(|c| c.site) else { return };
        self.machine.heard(local, now_us);
        self.comm.record(now_us, NodeId(local), NodeId(self.children), payload.len());
        let mut buf = ByteBuf::with_capacity(payload.len());
        buf.extend_from_slice(payload);
        if let Some(ack) = self.agg.on_wire(&buf) {
            net::on_send(&self.obs, ack.len() as u64);
            self.comm.record(now_us, NodeId(self.children), NodeId(local), ack.len());
            if let Some(c) = self.conns.get(&conn) {
                if write_payload(&c.writer, ack.as_slice()).is_err() {
                    let _ = c.writer.shutdown(Shutdown::Both);
                }
            }
        }
    }

    /// Validates a child handshake and welcomes it with the resync ACK
    /// from its go-back-N inbox slot.
    #[allow(clippy::too_many_arguments)]
    fn on_child_hello(
        &mut self,
        version: u16,
        site: u32,
        site_dim: u32,
        site_cov: CovarianceType,
        resume: bool,
        conn: u64,
        now_us: u64,
    ) {
        let reject = if version != PROTOCOL_VERSION {
            Some(Control::Reject {
                code: RejectCode::Version,
                expect: u64::from(PROTOCOL_VERSION),
                got: u64::from(version),
            })
        } else if !self.in_range(site) {
            Some(Control::Reject {
                code: RejectCode::SiteIndex,
                expect: u64::from(self.child_base) + self.children as u64,
                got: u64::from(site),
            })
        } else if site_dim != self.dim {
            Some(Control::Reject {
                code: RejectCode::Dimension,
                expect: u64::from(self.dim),
                got: u64::from(site_dim),
            })
        } else if site_cov != self.cov {
            Some(Control::Reject {
                code: RejectCode::Covariance,
                expect: u64::from(self.cov != CovarianceType::Full),
                got: u64::from(site_cov != CovarianceType::Full),
            })
        } else {
            None
        };
        if let Some(reject) = reject {
            if let Some(c) = self.conns.get(&conn) {
                send_control(&c.writer, &self.obs, &reject);
                let _ = c.writer.shutdown(Shutdown::Both);
            }
            return;
        }
        let local = (site - self.child_base) as usize;
        // Newest connection wins: cut a stale one left over from a drop
        // the reader has not reported yet.
        if let Some(old) = self.child_conn[local].replace(conn) {
            if old != conn {
                if let Some(c) = self.conns.get(&old) {
                    let _ = c.writer.shutdown(Shutdown::Both);
                }
            }
        }
        if let Some(c) = self.conns.get_mut(&conn) {
            c.site = Some(local);
        }
        self.machine.join(local, now_us);
        self.obs.event(&Event::SiteJoined { site });
        self.obs.counter("coord.join", 1);
        let ack = self.agg.child_cumulative(local);
        if resume {
            self.resyncs_down += 1;
            self.obs.event(&Event::SiteResynced { site, ack });
            self.obs.counter("coord.resync", 1);
        }
        let Some(c) = self.conns.get(&conn) else { return };
        let welcome = Control::Welcome {
            version: PROTOCOL_VERSION,
            heartbeat_us: self.socket.heartbeat_us,
            timeout_us: self.socket.timeout_us,
            ack,
        };
        if !send_control(&c.writer, &self.obs, &welcome) {
            let _ = c.writer.shutdown(Shutdown::Both);
            return;
        }
        if self.fleet.is_some() {
            send_control(&c.writer, &self.obs, &Control::ClockProbe { t0_us: now_us });
        }
        if self.machine.started() {
            send_control(&c.writer, &self.obs, &Control::Start);
        }
        if self.machine.ready_to_start() {
            for &cid in self.child_conn.iter() {
                let Some(live) = cid.and_then(|id| self.conns.get(&id)) else { continue };
                send_control(&live.writer, &self.obs, &Control::Start);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::driver::{DriverConfig, RecordStream};
    use crate::runtime::tcp::{run_site, serve, CoordinatorRun, SiteRun};
    use cludistream_gmm::{ChunkParams, Gaussian};
    use cludistream_linalg::Vector;
    use cludistream_rng::StdRng;
    use std::net::TcpStream;
    use std::thread;

    fn stable_stream(center: f64, seed: u64) -> RecordStream {
        let g = Gaussian::spherical(Vector::from_slice(&[center]), 0.5).expect("gaussian");
        let mut rng = StdRng::seed_from_u64(seed);
        Box::new(std::iter::repeat_with(move || g.sample(&mut rng)))
    }

    fn site_config() -> DriverConfig {
        DriverConfig {
            site: Config {
                dim: 1,
                k: 1,
                chunk: ChunkParams { epsilon: 0.15, delta: 0.01 },
                seed: 41,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn loaded_host_socket() -> SocketConfig {
        SocketConfig {
            heartbeat_us: 50_000,
            timeout_us: 2_000_000,
            deadline: Some(Duration::from_secs(60)),
            ..SocketConfig::default()
        }
    }

    #[test]
    fn builder_validation() {
        assert!(AggregatorRun::builder(0, 0, 0).build().is_err(), "zero children");
        assert!(AggregatorRun::builder(0, 0, 1).dim(0).build().is_err(), "zero dim");
        assert!(
            AggregatorRun::builder(0, 0, 1).flush_interval_us(0).build().is_err(),
            "zero flush interval"
        );
        assert!(AggregatorRun::builder(0, 0, 1).epsilon(-1.0).build().is_err(), "negative ε");
        assert!(
            AggregatorRun::builder(0, 0, 1)
                .delivery(DeliveryConfig {
                    mode: DeliveryMode::FireAndForget,
                    ..DeliveryConfig::default()
                })
                .build()
                .is_err(),
            "fire-and-forget upward channel"
        );
        assert!(AggregatorRun::builder(2, 10, 5).build().is_ok());
    }

    /// The full 4-process shape over loopback TCP: a root coordinator
    /// serving one "site" (the aggregator), the aggregator serving two
    /// real site loops from well-separated regions, `Stop` propagating
    /// root → aggregator → sites. The root must learn both regions
    /// while only ever hearing from the aggregator.
    #[test]
    fn aggregator_relays_two_sites_to_root_over_sockets() {
        let cfg = site_config();
        let chunk = crate::remote::RemoteSite::new(cfg.site.clone())
            .expect("site config")
            .chunk_size() as u64;

        let root_listener = TcpListener::bind("127.0.0.1:0").expect("bind root");
        let root_addr = root_listener.local_addr().expect("root addr").to_string();
        let root = thread::spawn(move || {
            let run = CoordinatorRun::builder(1)
                .dim(1)
                .socket(loaded_host_socket())
                .build()
                .expect("root run");
            serve(root_listener, run)
        });

        let agg_listener = TcpListener::bind("127.0.0.1:0").expect("bind aggregator");
        let agg_addr = agg_listener.local_addr().expect("agg addr").to_string();
        let agg = thread::spawn(move || {
            let run = AggregatorRun::builder(0, 0, 2)
                .dim(1)
                .flush_interval_us(20_000)
                .socket(loaded_host_socket())
                .build()
                .expect("aggregator run");
            run_aggregator(&root_addr, agg_listener, run)
        });

        let sites: Vec<_> = (0..2u32)
            .map(|i| {
                let addr = agg_addr.clone();
                let cfg = site_config();
                thread::spawn(move || {
                    let run = SiteRun::builder(
                        i as usize,
                        stable_stream(if i == 0 { 0.0 } else { 80.0 }, 100 + u64::from(i)),
                    )
                    .config(cfg)
                    .updates(3 * chunk)
                    .socket(loaded_host_socket())
                    .build()
                    .expect("site run");
                    run_site(&addr, run)
                })
            })
            .collect();

        for (i, s) in sites.into_iter().enumerate() {
            let report = s.join().expect("site thread").expect("site run ok");
            assert!(report.stats.records >= 3 * chunk, "site {i} drained its stream");
            assert_eq!(report.resyncs, 0, "site {i} never had to resync");
        }
        let agg_report = agg.join().expect("aggregator thread").expect("aggregator run ok");
        let root_report = root.join().expect("root thread").expect("root run ok");

        // Two well-separated regions resolve as two groups at the shard,
        // and the root sees exactly that summary — one registry entry,
        // both regions.
        assert_eq!(agg_report.groups, 2, "shard resolved both regions");
        assert_eq!(root_report.groups, 2, "root learned both regions from one feed");
        assert!(root_report.global.is_some());
        assert!(agg_report.flushes >= 1, "at least one reduced update went up");
        assert!(agg_report.messages_applied >= 2, "both children reported");
        assert!(agg_report.ack_messages >= 2, "both child channels were ACKed");
        assert!(agg_report.evicted.is_empty());
        assert_eq!(agg_report.resyncs_up, 0);
        assert_eq!(agg_report.resyncs_down, 0);
        assert_eq!(agg_report.decode_errors, 0);
        // The fan-in actually reduced: the root applied fewer messages'
        // worth of traffic than the aggregator absorbed, and its inbox
        // count is the flush count, not the site message count.
        assert!(
            agg_report.flushes <= agg_report.messages_applied,
            "flushes {} must not exceed absorbed messages {}",
            agg_report.flushes,
            agg_report.messages_applied
        );
    }

    /// The aggregator uplink adds no per-batch wait either: a one-site
    /// tree round (root ← aggregator ← site) with a 10-record batch must
    /// finish within the in-process replay time of the site's stream
    /// plus 1 ms per batch — the bound `transport_tcp` puts on a star
    /// round.
    #[test]
    fn aggregator_round_time_tracks_the_in_process_replay() {
        const BATCH: usize = 10;
        let cfg = site_config();
        let chunk = crate::remote::RemoteSite::new(cfg.site.clone())
            .expect("site config")
            .chunk_size() as u64;
        let updates = 3_000u64.div_ceil(chunk) * chunk;
        let batches = updates.div_ceil(BATCH as u64);

        let replay_start = Instant::now();
        let mut replay_site = crate::remote::RemoteSite::new(cfg.site.clone()).expect("site");
        for record in stable_stream(0.0, 100).take(updates as usize) {
            replay_site.push(record).expect("push");
            replay_site.drain_events();
        }
        let replay = replay_start.elapsed();

        let round_start = Instant::now();
        let root_listener = TcpListener::bind("127.0.0.1:0").expect("bind root");
        let root_addr = root_listener.local_addr().expect("root addr").to_string();
        let root = thread::spawn(move || {
            let run = CoordinatorRun::builder(1)
                .dim(1)
                .socket(loaded_host_socket())
                .build()
                .expect("root run");
            serve(root_listener, run)
        });
        let agg_listener = TcpListener::bind("127.0.0.1:0").expect("bind aggregator");
        let agg_addr = agg_listener.local_addr().expect("agg addr").to_string();
        let agg = thread::spawn(move || {
            let run = AggregatorRun::builder(0, 0, 1)
                .dim(1)
                .flush_interval_us(20_000)
                .socket(loaded_host_socket())
                .build()
                .expect("aggregator run");
            run_aggregator(&root_addr, agg_listener, run)
        });
        let run = SiteRun::builder(0, stable_stream(0.0, 100))
            .config(DriverConfig { batch: BATCH, ..site_config() })
            .updates(updates)
            .socket(loaded_host_socket())
            .build()
            .expect("site run");
        let report = run_site(&agg_addr, run).expect("site run ok");
        let agg_report = agg.join().expect("aggregator thread").expect("aggregator run ok");
        root.join().expect("root thread").expect("root run ok");
        let round = round_start.elapsed();

        assert_eq!(report.stats, replay_site.stats(), "the round replays the same stream");
        assert!(agg_report.flushes >= 1, "the uplink carried the shard upward");
        assert_eq!(agg_report.resyncs_up, 0);
        let bound = replay + Duration::from_millis(batches);
        assert!(
            round < bound,
            "{batches} batches through the tree took {round:?}; the replay took {replay:?}, \
             bound {bound:?}"
        );
    }

    /// A child outside `[child_base, child_base + children)` must be
    /// rejected with the same `SiteIndex` code a coordinator uses, and
    /// the round must be unaffected.
    #[test]
    fn out_of_range_child_is_rejected() {
        use cludistream_wire::framing::FrameReader;

        let root_listener = TcpListener::bind("127.0.0.1:0").expect("bind root");
        let root_addr = root_listener.local_addr().expect("root addr").to_string();
        let root = thread::spawn(move || {
            let run = CoordinatorRun::builder(1)
                .dim(1)
                .socket(loaded_host_socket())
                .build()
                .expect("root run");
            serve(root_listener, run)
        });

        let agg_listener = TcpListener::bind("127.0.0.1:0").expect("bind aggregator");
        let agg_addr = agg_listener.local_addr().expect("agg addr").to_string();
        let agg = thread::spawn(move || {
            let run = AggregatorRun::builder(0, 4, 2)
                .dim(1)
                .socket(loaded_host_socket())
                .build()
                .expect("aggregator run");
            run_aggregator(&root_addr, agg_listener, run)
        });

        // Global site 3 is below child_base 4: rejected.
        let bad = TcpStream::connect(&agg_addr).expect("connect");
        let hello = Control::Hello {
            version: PROTOCOL_VERSION,
            site: 3,
            dim: 1,
            cov: CovarianceType::Full,
            resume: false,
        };
        write_payload(&bad, hello.encode().as_slice()).expect("hello");
        let mut fr = FrameReader::new();
        let reject = loop {
            let polled = fr.poll(&mut { &bad }).expect("poll");
            if let Some(frame) = polled.frames.into_iter().next() {
                break Control::decode(&mut ByteReader::new(&frame)).expect("control");
            }
            assert!(!polled.eof, "closed without a Reject");
        };
        let Control::Reject { code: RejectCode::SiteIndex, expect, got } = reject else {
            panic!("expected a SiteIndex Reject, got {reject:?}");
        };
        assert_eq!(expect, 6, "exclusive upper bound of the child range");
        assert_eq!(got, 3);
        drop(bad);

        // The in-range children finish the round normally.
        let cfg = site_config();
        let chunk = crate::remote::RemoteSite::new(cfg.site.clone())
            .expect("site config")
            .chunk_size() as u64;
        let sites: Vec<_> = (4..6u32)
            .map(|i| {
                let addr = agg_addr.clone();
                let cfg = site_config();
                thread::spawn(move || {
                    let run = SiteRun::builder(i as usize, stable_stream(0.0, u64::from(i)))
                        .config(cfg)
                        .updates(chunk)
                        .socket(loaded_host_socket())
                        .build()
                        .expect("site run");
                    run_site(&addr, run)
                })
            })
            .collect();
        for s in sites {
            s.join().expect("site thread").expect("site run ok");
        }
        let agg_report = agg.join().expect("aggregator thread").expect("aggregator run ok");
        let root_report = root.join().expect("root thread").expect("root run ok");
        assert_eq!(agg_report.groups, 1);
        assert_eq!(root_report.groups, 1);
        assert!(agg_report.evicted.is_empty(), "the rejected dialer never joined");
    }
}
