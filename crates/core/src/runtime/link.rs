//! Connection plumbing every socket role shares.
//!
//! Each role — the coordinator's [`super::serve`], the site's
//! [`super::run_site`] and the aggregator's [`super::run_aggregator`] — is
//! one single-threaded event loop fed by one `mpsc` channel of
//! [`NetEvent`]s. The blocking I/O lives on helper threads: one acceptor
//! per listener ([`spawn_acceptor`]) and one reader per connection
//! ([`read_loop`]). A loop drains its channel without blocking while it
//! has work of its own (records to push) and otherwise blocks in
//! [`events`] until its next timer deadline, so no role ever sleeps on a
//! socket or polls on a tick.
//!
//! [`Uplink`] is the upward half a site and an aggregator share: dial with
//! retries, the `Hello`/`Welcome` rendezvous, the heartbeat, the telemetry
//! flush and `Done`.

use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::error::CludiError;
use crate::protocol::Frame;
use crate::runtime::control::{Control, PROTOCOL_VERSION};
use crate::runtime::tcp::SocketConfig;
use cludistream_gmm::CovarianceType;
use cludistream_obs::{net, Obs, Recorder};
use cludistream_wire::framing::{write_frame, FrameReader};
use cludistream_wire::ByteReader;

/// Events the acceptor and reader threads feed a node loop.
pub(crate) enum NetEvent {
    /// A connection arrived; `writer` is the write half (a
    /// `try_clone`).
    Accepted { conn: u64, writer: TcpStream },
    /// One length-prefixed frame's payload arrived on `conn`.
    Frame { conn: u64, payload: Vec<u8> },
    /// The connection closed or its reader failed.
    Closed { conn: u64 },
}

/// A live downward connection as a serving loop sees it.
pub(crate) struct Conn {
    pub(crate) writer: TcpStream,
    pub(crate) site: Option<usize>,
}

/// Writes one length-prefixed frame to a blocking stream.
pub(crate) fn write_payload(stream: &TcpStream, payload: &[u8]) -> std::io::Result<()> {
    write_frame(&mut { stream }, payload)
}

/// Sends a control frame, counting it under the `net.ctrl_*` counters.
/// Returns `false` on I/O failure (the caller cuts the connection; the
/// site reconnects).
pub(crate) fn send_control(stream: &TcpStream, obs: &Obs, frame: &Control) -> bool {
    let bytes = frame.encode();
    net::on_ctrl_send(obs, bytes.len() as u64);
    write_payload(stream, bytes.as_slice()).is_ok()
}

/// Blocking per-connection reader: length-prefixed frames in, channel
/// events out, `Closed` on EOF or error.
pub(crate) fn read_loop(conn: u64, mut stream: TcpStream, tx: &mpsc::Sender<NetEvent>) {
    let mut fr = FrameReader::new();
    loop {
        match fr.poll(&mut stream) {
            Ok(polled) => {
                for payload in polled.frames {
                    if tx.send(NetEvent::Frame { conn, payload }).is_err() {
                        return;
                    }
                }
                if polled.eof {
                    let _ = tx.send(NetEvent::Closed { conn });
                    return;
                }
            }
            Err(_) => {
                let _ = tx.send(NetEvent::Closed { conn });
                return;
            }
        }
    }
}

/// The node loop's next batch of events. With `wake` set the loop is
/// idle, so it blocks for the first event until `wake`; then, and always
/// when `wake` is `None`, it takes whatever else is already queued
/// without blocking.
pub(crate) fn events(
    rx: &mpsc::Receiver<NetEvent>,
    wake: Option<Instant>,
) -> impl Iterator<Item = NetEvent> + '_ {
    let first =
        wake.and_then(|wake| rx.recv_timeout(wake.saturating_duration_since(Instant::now())).ok());
    first.into_iter().chain(rx.try_iter())
}

/// A listener's accept loop on its own thread, from [`spawn_acceptor`].
pub(crate) struct Acceptor {
    done: Arc<AtomicBool>,
    /// Where [`Acceptor::stop`] connects to wake the blocking `accept`.
    wake: SocketAddr,
    thread: JoinHandle<()>,
}

/// Accepts connections on `listener` in a blocking loop on its own
/// thread: each one is announced on `tx` as [`NetEvent::Accepted`] under
/// the next connection id (from 0) and gets a [`read_loop`] thread.
pub(crate) fn spawn_acceptor(
    listener: TcpListener,
    tx: mpsc::Sender<NetEvent>,
) -> Result<Acceptor, CludiError> {
    listener.set_nonblocking(false)?;
    let mut wake = listener.local_addr()?;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let done = Arc::new(AtomicBool::new(false));
    let thread = {
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut next_conn = 0u64;
            while let Ok((stream, _)) = listener.accept() {
                if done.load(Ordering::Acquire) {
                    return;
                }
                let _ = stream.set_nodelay(true);
                let conn = next_conn;
                next_conn += 1;
                let Ok(writer) = stream.try_clone() else { continue };
                if tx.send(NetEvent::Accepted { conn, writer }).is_err() {
                    return;
                }
                let tx = tx.clone();
                thread::spawn(move || read_loop(conn, stream, &tx));
            }
        })
    };
    Ok(Acceptor { done, wake, thread })
}

impl Acceptor {
    /// Stops accepting: flags the loop, wakes its blocking `accept` with
    /// a connection to its own listener, and joins the thread (which
    /// closes the listener).
    pub(crate) fn stop(self) {
        self.done.store(true, Ordering::Release);
        if TcpStream::connect_timeout(&self.wake, Duration::from_secs(1)).is_ok()
            || self.thread.is_finished()
        {
            let _ = self.thread.join();
        }
    }
}

/// Connects with retries (the coordinator may not be listening yet).
pub(crate) fn connect(addr: &str, socket: &SocketConfig) -> Result<TcpStream, CludiError> {
    let attempts = socket.connect_attempts.max(1);
    let mut last = String::new();
    for attempt in 0..attempts {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                last = e.to_string();
                if attempt + 1 < attempts {
                    thread::sleep(Duration::from_millis(socket.connect_retry_ms));
                }
            }
        }
    }
    Err(CludiError::Net(format!("connect to {addr} failed after {attempts} attempts: {last}")))
}

/// Who dials upward, and what its `Hello` says.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UplinkSpec {
    /// Role named in error messages (`"site"`, `"aggregator"`).
    pub(crate) role: &'static str,
    /// The site index the node speaks as.
    pub(crate) index: u32,
    /// Record dimension the parent must agree on.
    pub(crate) dim: u32,
    /// Covariance kind the parent must agree on.
    pub(crate) cov: CovarianceType,
    /// Ship the registry's staged deltas on the heartbeat cadence.
    pub(crate) telemetry: bool,
}

/// What a frame from the parent asks of the node loop. Clock probes and
/// heartbeat echoes are answered inside [`Uplink::on_frame`].
pub(crate) enum Inbound {
    /// The parent ended the round.
    Stop,
    /// The parent's cumulative ACK.
    Ack(u64),
}

/// The one connection a site — or an aggregator, playing site `index`
/// toward its parent — keeps to the node above it. Its reader thread
/// feeds the node's event channel under [`Uplink::conn`]; dropping the
/// link cuts the socket and joins the reader.
pub(crate) struct Uplink {
    stream: TcpStream,
    reader: Option<JoinHandle<()>>,
    /// The id this link's reader stamps on its events.
    pub(crate) conn: u64,
    spec: UplinkSpec,
    heartbeat: Duration,
    last_ping: Instant,
    flush_flight: bool,
    /// The parent's cumulative ACK in its `Welcome`: the resync point.
    pub(crate) ack: u64,
    /// A write failed. Sticky: nothing more is written, and the node
    /// loop redials — or, once `Done` went out, ends the round.
    pub(crate) io_err: bool,
    /// `Done` was sent, so the parent has acknowledged everything.
    pub(crate) done_sent: bool,
}

impl Uplink {
    /// Dials `addr`, says `Hello` and waits, up to the socket timeout,
    /// for the parent's `Welcome`. Events of other connections that
    /// arrive meanwhile go to `other`; frames behind the `Welcome` stay
    /// queued for the node loop.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn dial(
        addr: &str,
        socket: &SocketConfig,
        spec: UplinkSpec,
        resume: bool,
        conn: u64,
        tx: &mpsc::Sender<NetEvent>,
        rx: &mpsc::Receiver<NetEvent>,
        obs: &Obs,
        mut other: impl FnMut(NetEvent),
    ) -> Result<Uplink, CludiError> {
        let stream = connect(addr, socket)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let tx = tx.clone();
        let mut up = Uplink {
            stream,
            reader: Some(thread::spawn(move || read_loop(conn, read_half, &tx))),
            conn,
            spec,
            heartbeat: Duration::ZERO,
            last_ping: Instant::now(),
            // The first flush after a resync carries the flight-recorder
            // ring: the parent journals what this node saw before the
            // drop.
            flush_flight: spec.telemetry && resume,
            ack: 0,
            io_err: false,
            done_sent: false,
        };
        let hello = Control::Hello {
            version: PROTOCOL_VERSION,
            site: spec.index,
            dim: spec.dim,
            cov: spec.cov,
            resume,
        };
        let bytes = hello.encode();
        net::on_ctrl_send(obs, bytes.len() as u64);
        write_payload(&up.stream, bytes.as_slice())?;

        let (role, index) = (spec.role, spec.index);
        let deadline = Instant::now() + Duration::from_micros(socket.timeout_us.max(1));
        loop {
            let Ok(event) = rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
            else {
                return Err(CludiError::Net(format!("{role} {index}: handshake timed out")));
            };
            match event {
                NetEvent::Frame { conn: from, payload } if from == conn => {
                    if !Control::is_control(&payload) {
                        continue;
                    }
                    match Control::decode(&mut ByteReader::new(&payload))? {
                        Control::Welcome { heartbeat_us, ack, .. } => {
                            up.heartbeat = Duration::from_micros(heartbeat_us.max(1));
                            up.ack = ack;
                            up.last_ping = Instant::now();
                            return Ok(up);
                        }
                        Control::Reject { code, expect, got } => {
                            return Err(CludiError::Net(format!(
                                "{role} {index}: parent rejected handshake: {} mismatch \
                                 (parent has {expect}, {role} sent {got})",
                                code.describe()
                            )));
                        }
                        _ => {}
                    }
                }
                NetEvent::Closed { conn: from } if from == conn => {
                    return Err(CludiError::Net(format!(
                        "{role} {index}: connection closed during handshake"
                    )));
                }
                event => other(event),
            }
        }
    }

    /// Handles one frame from the parent: echoes clock probes, records
    /// heartbeat round trips (`now_us` is the node's local clock), and
    /// returns what the node loop must act on.
    pub(crate) fn on_frame(&mut self, payload: &[u8], obs: &Obs, now_us: u64) -> Option<Inbound> {
        if !Control::is_control(payload) {
            return match Frame::decode(&mut ByteReader::new(payload)) {
                Ok(Frame::Ack { cumulative }) => Some(Inbound::Ack(cumulative)),
                _ => None,
            };
        }
        match Control::decode(&mut ByteReader::new(payload)) {
            Ok(Control::Stop) => return Some(Inbound::Stop),
            Ok(Control::Pong { echo_us, .. }) if self.spec.telemetry => {
                obs.observe("hb.rtt_us", now_us.saturating_sub(echo_us));
            }
            Ok(Control::ClockProbe { t0_us }) => {
                let echo = Control::ClockEcho { site: self.spec.index, t0_us, site_us: now_us };
                self.send_control(obs, &echo);
            }
            _ => {}
        }
        None
    }

    /// Writes one data-plane frame unless an earlier write failed.
    pub(crate) fn write(&mut self, payload: &[u8]) {
        if !self.io_err && write_payload(&self.stream, payload).is_err() {
            self.io_err = true;
        }
    }

    fn send_control(&mut self, obs: &Obs, frame: &Control) {
        if !send_control(&self.stream, obs, frame) {
            self.io_err = true;
        }
    }

    /// When the next heartbeat is due.
    pub(crate) fn next_ping(&self) -> Instant {
        self.last_ping + self.heartbeat
    }

    /// Pings once the heartbeat is due, shipping the staged telemetry
    /// delta with it.
    pub(crate) fn heartbeat(&mut self, obs: &Obs, now_us: u64) {
        if self.last_ping.elapsed() < self.heartbeat {
            return;
        }
        self.send_control(obs, &Control::Ping { site: self.spec.index, sent_us: now_us });
        if self.spec.telemetry {
            self.flush_telemetry(obs);
        }
        self.last_ping = Instant::now();
    }

    /// Announces `Done`. The caller sends it once nothing is left to
    /// send and everything is acknowledged.
    pub(crate) fn send_done(&mut self, obs: &Obs) {
        if self.spec.telemetry {
            // Flush before Done: once every site is done the parent may
            // Stop and tear down, so this is the last delta guaranteed to
            // land in its fleet registry. Every data-plane counter is
            // final here.
            self.flush_telemetry(obs);
        }
        if send_control(&self.stream, obs, &Control::Done { site: self.spec.index }) {
            self.done_sent = true;
        } else {
            self.io_err = true;
        }
    }

    /// Drains the registry's staged telemetry and ships it as one
    /// [`Control::Telemetry`] frame. The first flush after a resync
    /// carries the flight-recorder ring, which this clears; a quiet
    /// registry (nothing staged) sends nothing.
    fn flush_telemetry(&mut self, obs: &Obs) {
        let Some(mut delta) = obs.drain_telemetry(self.flush_flight) else { return };
        self.flush_flight = false;
        delta.site = self.spec.index;
        let frame =
            Control::Telemetry { site: self.spec.index, payload: delta.encode().into_vec() };
        self.send_control(obs, &frame);
    }
}

impl Drop for Uplink {
    /// Cuts the socket, so the reader's blocking read returns, and joins
    /// the reader.
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}
