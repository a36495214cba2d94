//! The in-process pipeline, called layer by layer in the order the
//! site and coordinator engines call it:
//! `RemoteSite::push`/`drain_events` → `Message::from_site_event` →
//! `ReliableSender::send` + `Frame::encode` → `Frame::decode` →
//! `ReliableInbox::accept` → `Coordinator::apply` →
//! `SnapshotHandle::publish_from` → `score_snapshot`.
//!
//! Every call goes through the [`Ledger`], which times it only in the
//! traced run. Failed operations — push, decode, apply, publish and
//! score errors, and a reader that finds no snapshot — are counted into
//! the caller's `failed`.

use crate::ledger::Ledger;
use cludistream::{
    score_snapshot, ChunkOutcome, Config, Coordinator, CoordinatorConfig, Frame, Message,
    ReliableInbox, ReliableSender, RemoteSite, SnapshotHandle,
};
use cludistream_gmm::{Batch, CovarianceType};
use cludistream_linalg::Vector;
use cludistream_obs::{Obs, TraceId};
use cludistream_wire::ByteBuf;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Covariance representation on the wire (the site default).
pub const COV: CovarianceType = CovarianceType::Full;

/// Retransmission timeouts of the in-process senders. Nothing is lost in
/// process, so they never fire; the values match the reliable-delivery
/// defaults.
const RTO_US: u64 = 50_000;
const RTO_CAP_US: u64 = 1_000_000;

/// A chunk completed by a push.
pub struct Completed {
    /// When the completing push started (the freshness clock's start).
    pub at: Instant,
    /// The chunk's trace.
    pub trace: TraceId,
    /// The completing push's span.
    pub span: Option<usize>,
}

/// The sender half of one site's reliable link.
pub struct Link {
    sender: ReliableSender,
    index: u32,
    /// Data frames sent.
    pub frames: u64,
    /// Data-frame wire bytes sent.
    pub bytes: u64,
}

impl Link {
    /// The link of site `index`.
    pub fn new(index: u32) -> Link {
        Link { sender: ReliableSender::new(RTO_US, RTO_CAP_US), index, frames: 0, bytes: 0 }
    }

    /// `ReliableSender::send` + `Frame::encode`, one `protocol.encode`
    /// span per synopsis.
    pub fn encode(
        &mut self,
        message: Message,
        trace: TraceId,
        parent: Option<usize>,
        ledger: &mut Ledger,
    ) -> (ByteBuf, Option<usize>) {
        let sender = &mut self.sender;
        let (bytes, span) = ledger.time("protocol.encode", trace, parent, self.index, || {
            sender.send(message).encode(COV)
        });
        self.frames += 1;
        self.bytes += bytes.len() as u64;
        (bytes, span)
    }

    /// Feeds the coordinator's cumulative ACK back to the sender.
    pub fn on_ack(
        &mut self,
        ack: &ByteBuf,
        trace: TraceId,
        parent: Option<usize>,
        ledger: &mut Ledger,
    ) {
        let sender = &mut self.sender;
        ledger.time("protocol.ack", trace, parent, self.index, || {
            if let Ok(Frame::Ack { cumulative }) = Frame::decode(&mut ack.reader()) {
                sender.on_ack(cumulative);
            }
        });
    }

    /// Frames still awaiting acknowledgement.
    pub fn pending(&self) -> usize {
        self.sender.pending()
    }
}

/// One remote site and its link.
pub struct Site {
    /// The test-and-cluster engine.
    pub remote: RemoteSite,
    /// The site's reliable link.
    pub link: Link,
}

impl Site {
    /// A fresh site with the workload configuration, its EM seed offset
    /// by the site index the way the site engines de-correlate sites.
    pub fn new(index: u32) -> Site {
        let mut config = Config::default();
        config.seed = config.seed.wrapping_add(index as u64 * 7919);
        Site {
            remote: RemoteSite::new(config).expect("the default site config is valid"),
            link: Link::new(index),
        }
    }

    /// Pushes the records `rows` of `stream`, one batch. Pushes that only
    /// buffer a record are timed together, one span per run of them; the
    /// push that completes a chunk gets its own span, named after its
    /// outcome (`remote.test` or `remote.em`). At most one chunk
    /// completes per batch, since a batch is shorter than a chunk.
    pub fn push_batch(
        &mut self,
        stream: &Batch,
        rows: Range<usize>,
        ledger: &mut Ledger,
        failed: &mut u64,
    ) -> Option<Completed> {
        let index = self.link.index;
        let chunk = self.remote.chunk_size();
        let mut completed = None;
        let mut i = rows.start;
        while i < rows.end {
            let trace = TraceId::new(index, self.remote.chunk_index());
            let buffer = (chunk - self.remote.buffered_records().len() - 1).min(rows.end - i);
            if buffer > 0 {
                let start = ledger.is_on().then(Instant::now);
                for r in i..i + buffer {
                    if self.remote.push(Vector::from_slice(stream.row(r))).is_err() {
                        *failed += 1;
                    }
                }
                if let Some(start) = start {
                    let end = Instant::now();
                    ledger.record("remote.buffer", trace, None, index, buffer as u32, start, end);
                }
                i += buffer;
            }
            if i < rows.end {
                let at = Instant::now();
                let outcome = self.remote.push(Vector::from_slice(stream.row(i)));
                let name = match outcome {
                    Ok(Some(ChunkOutcome::NewModel { .. })) => "remote.em",
                    Ok(_) => "remote.test",
                    Err(_) => {
                        *failed += 1;
                        "remote.test"
                    }
                };
                let span = if ledger.is_on() {
                    ledger.record(name, trace, None, index, 1, at, Instant::now())
                } else {
                    None
                };
                completed = Some(Completed { at, trace, span });
                i += 1;
            }
        }
        completed
    }

    /// Drains the outbox after a completed chunk: `RemoteSite::drain_events`
    /// and `Message::from_site_event`, then each synopsis through the link.
    pub fn encode_outbox(&mut self, chunk: &Completed, ledger: &mut Ledger) -> Vec<ByteBuf> {
        let index = self.link.index;
        self.remote
            .drain_events()
            .into_iter()
            .map(|event| {
                let message = Message::from_site_event(index, event);
                self.link.encode(message, chunk.trace, chunk.span, ledger).0
            })
            .collect()
    }
}

/// What delivering one frame produced.
#[derive(Default)]
pub struct Delivered {
    /// When the last `publish_from` carrying the frame's synopsis
    /// returned (the freshness clock's stop).
    pub published: Option<Instant>,
    /// The cumulative ACK to return to the site.
    pub ack: Option<ByteBuf>,
}

/// The star root: one inbox per site, the coordinator, and the snapshot
/// handle readers load from.
pub struct Root {
    /// The coordinator.
    pub coordinator: Coordinator,
    inboxes: Vec<ReliableInbox>,
    /// The serving handle, published after every applied synopsis.
    pub handle: SnapshotHandle,
    node: u32,
    /// Synopses applied and published.
    pub applied: u64,
}

impl Root {
    /// A root for `sites` sites; its spans go on track `sites`.
    pub fn new(sites: usize) -> Root {
        Root {
            coordinator: Coordinator::new(CoordinatorConfig::default())
                .expect("the default coordinator config is valid"),
            inboxes: vec![ReliableInbox::new(); sites],
            handle: SnapshotHandle::new(),
            node: sites as u32,
            applied: 0,
        }
    }

    /// Carries one encoded frame through `Frame::decode`,
    /// `ReliableInbox::accept`, `Coordinator::apply` and
    /// `SnapshotHandle::publish_from`.
    pub fn deliver(
        &mut self,
        wire: &ByteBuf,
        trace: TraceId,
        parent: Option<usize>,
        ledger: &mut Ledger,
        failed: &mut u64,
    ) -> Delivered {
        let node = self.node;
        let (frame, _) = ledger
            .time("protocol.decode", trace, parent, node, || Frame::decode(&mut wire.reader()));
        let (seq, message) = match frame {
            Ok(Frame::Data { seq, message, .. })
                if (message.site() as usize) < self.inboxes.len() =>
            {
                (seq, message)
            }
            _ => {
                *failed += 1;
                return Delivered::default();
            }
        };
        let inbox = &mut self.inboxes[message.site() as usize];
        let ((ready, ack), _) = ledger.time("protocol.inbox", trace, parent, node, || {
            let ready = inbox.accept(seq, message);
            (ready, Frame::Ack { cumulative: inbox.cumulative() }.encode(COV))
        });
        let mut published = None;
        for m in ready {
            let name = match m {
                Message::NewModel { .. } => "coordinator.new_model",
                Message::WeightUpdate { .. } => "coordinator.weight_update",
                Message::Delete { .. } => "coordinator.delete",
            };
            let coordinator = &mut self.coordinator;
            let (applied, _) = ledger.time(name, trace, parent, node, || coordinator.apply(&m));
            if applied.is_err() {
                *failed += 1;
            }
            let (handle, coordinator) = (&self.handle, &self.coordinator);
            let (version, _) = ledger
                .time("serving.publish", trace, parent, node, || handle.publish_from(coordinator));
            if version.is_err() {
                *failed += 1;
            }
            published = Some(Instant::now());
            self.applied += 1;
        }
        Delivered { published, ack: Some(ack) }
    }
}

/// The reader: scores the held-out batch against the latest snapshot on
/// one thread and returns the call's latency.
pub fn score(
    handle: &SnapshotHandle,
    batch: &Batch,
    trace: TraceId,
    node: u32,
    ledger: &mut Ledger,
    failed: &mut u64,
) -> Option<Duration> {
    let Some(snapshot) = handle.load() else {
        *failed += 1;
        return None;
    };
    let obs = Obs::noop();
    let start = Instant::now();
    let scored = score_snapshot(&snapshot, batch, 1, &obs);
    let end = Instant::now();
    ledger.record("serving.score", trace, None, node, batch.len() as u32, start, end);
    match scored {
        Ok(scores) => {
            std::hint::black_box(scores);
            Some(end - start)
        }
        Err(_) => {
            *failed += 1;
            None
        }
    }
}
