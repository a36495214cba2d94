//! `tcp`: one site on the real socket runtime (`TcpTransport` on
//! loopback) streaming the paper's default evolving GMM (P_d = 0.1),
//! with the default `SocketConfig`, batch size and reliable delivery,
//! and a reader scoring the final snapshot after each round. Two working
//! threads and one connection; the runtime's acceptor and reader threads
//! spend most of their time blocked. It is the only workload that
//! exercises `core::runtime`, and its site compute is small, so the
//! runtime's own waits set its throughput.

use crate::inputs::{record_stream, StreamInputs, BATCH, TCP_P_NEW, TCP_RECORDS};
use crate::ledger::Ledger;
use crate::metrics::Pass;
use crate::pipeline::{score, Site};
use cludistream::runtime::TcpTransport;
use cludistream::{CludiError, Config, Simulation, SiteStats, SnapshotHandle};
use cludistream_gmm::avg_log_likelihood;
use cludistream_obs::{Obs, Registry, TraceId};
use cludistream_simnet::NodeId;
use std::sync::Arc;
use std::time::Instant;

/// Generator probability of a new distribution (Theorem 4's `P_d`).
pub const P_NEW: f64 = TCP_P_NEW;
/// Held-out batches the reader scores after each round.
const SCORES: usize = 32;
/// Track of the round span and the reader.
const NODE: u32 = 1;

/// What the same stream does in process: the site's compute, and the
/// synopses it must put on the wire.
pub struct Replay {
    /// `RemoteSite` statistics after the stream.
    pub stats: SiteStats,
    /// Data frames and their bytes.
    pub frames: u64,
    pub bytes: u64,
    /// Wall time of the replay, seconds.
    pub compute_s: f64,
    /// Per-layer counts of the site.
    pub counts: Vec<(&'static str, f64)>,
}

/// Replays the stream through one in-process site, batch by batch.
pub fn replay(inputs: &StreamInputs, ledger: &mut Ledger) -> Replay {
    let mut site = Site::new(0);
    let mut failed = 0;
    let stream = &inputs.streams[0];
    let start = Instant::now();
    for b in 0..stream.len() / BATCH {
        if let Some(chunk) =
            site.push_batch(stream, b * BATCH..(b + 1) * BATCH, ledger, &mut failed)
        {
            std::hint::black_box(site.encode_outbox(&chunk, ledger));
        }
    }
    let compute_s = start.elapsed().as_secs_f64();
    let stats = site.remote.stats();
    let counts = vec![
        ("remote.chunks", stats.chunks as f64),
        ("remote.em_chunks", stats.clustered as f64),
        ("remote.tests", stats.tests as f64),
        ("remote.em_iterations", stats.em_iterations as f64),
        ("remote.memory_bytes", site.remote.memory_bytes() as f64),
        ("protocol.frames", site.link.frames as f64),
        ("protocol.bytes", site.link.bytes as f64),
    ];
    Replay { stats, frames: site.link.frames, bytes: site.link.bytes, compute_s, counts }
}

/// Rounds tried per pass. A round that returns an error delivered
/// nothing: its records count as failed operations, and the pass runs
/// the round again so that every metric comes from completed rounds.
const TRIES: usize = 3;

/// One pass: a round over loopback TCP, retried when it fails, then the
/// reader. Checks the round against the in-process replay: same site
/// statistics, the same data frames on the wire, and every synopsis
/// applied and published once.
pub fn pass(
    inputs: &StreamInputs,
    expected: &Replay,
    ledger: &mut Ledger,
    problems: &mut Vec<String>,
) -> Pass {
    let records = TCP_RECORDS as u64;
    let mut failed = 0;
    for _ in 0..TRIES {
        match round(inputs, expected, ledger, problems) {
            Ok(mut pass) => {
                pass.attempted += failed;
                pass.failed += failed;
                return pass;
            }
            Err(e) => {
                eprintln!("tcp: round failed, its {records} records count as failed: {e}");
                failed += records;
            }
        }
    }
    problems.push(format!("tcp: {TRIES} rounds in a row failed"));
    Pass { heldout_ll: f64::NAN, attempted: failed, failed, ..Pass::default() }
}

/// One completed round and its reader.
fn round(
    inputs: &StreamInputs,
    expected: &Replay,
    ledger: &mut Ledger,
    problems: &mut Vec<String>,
) -> Result<Pass, CludiError> {
    let handle = Arc::new(SnapshotHandle::new());
    let registry = Arc::new(Registry::new());
    let stream = record_stream(&inputs.streams[0]);
    let first_span = ledger.spans().len();
    let start = Instant::now();
    let report = Simulation::star(1)
        .with_config(Config::default())
        .with_transport(Box::new(TcpTransport::new()))
        .with_recorder(Obs::from_registry(Arc::clone(&registry)))
        .with_snapshots(Arc::clone(&handle))
        .with_streams(vec![stream])
        .with_updates_per_site(TCP_RECORDS as u64)
        .run()?;
    let round_end = Instant::now();
    ledger.record("runtime.round", TraceId::new(0, 0), None, NODE, 1, start, round_end);
    let mut failed = 0;
    let score_us: Vec<f64> = (0..SCORES)
        .filter_map(|r| {
            let trace = TraceId::new(NODE, r as u64);
            score(&handle, &inputs.batch, trace, NODE, ledger, &mut failed)
        })
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();
    let wall_s = start.elapsed().as_secs_f64();

    let (site, hub) = (NodeId(0), NodeId(1));
    let frames = report.comm.link_messages(site, hub);
    let bytes = report.comm.link_bytes(site, hub);
    let delivery = &report.delivery;
    let first_copies = frames - delivery.retransmitted_messages;
    let first_bytes = bytes - delivery.retransmitted_bytes;
    if report.site_stats.first() != Some(&expected.stats) {
        problems.push("tcp: site statistics differ from the in-process replay".into());
    }
    if (first_copies, first_bytes) != (expected.frames, expected.bytes) {
        problems.push(format!(
            "tcp: {first_copies} data frames / {first_bytes} bytes on the wire, \
             the replay sent {} / {}",
            expected.frames, expected.bytes
        ));
    }
    // Synopses missing from the published model failed to decode or
    // apply; evictions and resyncs are failures of the link.
    let applied = handle.load().map_or(0, |s| s.messages_applied);
    failed += expected.frames.saturating_sub(applied);
    failed += registry.counter_value("coord.evict") + registry.counter_value("coord.resync");
    let records = TCP_RECORDS as u64;
    Ok(Pass {
        ingest_s: (round_end - start).as_secs_f64(),
        wall_s,
        records,
        applied,
        bytes,
        freshness_ms: Vec::new(),
        score_batch: inputs.batch.len() as u64,
        attempted: records + expected.frames + SCORES as u64,
        score_us,
        heldout_ll: report
            .global
            .as_ref()
            .map_or(f64::NAN, |g| avg_log_likelihood(g, &inputs.holdout)),
        failed,
        spans: first_span..ledger.spans().len(),
        counts: vec![
            ("runtime.data_frames", frames as f64),
            ("runtime.ack_frames", delivery.ack_messages as f64),
            ("runtime.retransmits", delivery.retransmitted_messages as f64),
            ("coordinator.groups", report.coordinator_groups as f64),
            ("coordinator.memory_bytes", report.coordinator_memory as f64),
        ],
    })
}
