//! `drift`: four sites on one thread, fed round-robin in 100-record
//! batches from the paper's evolving GMM with P_d = 0.5, every record
//! through the whole in-process pipeline, and a reader scoring the
//! held-out batch at sixteen even points of each pass. EM re-clustering
//! does most of the work and the root little, so EM and likelihood-kernel
//! changes show here and root changes do not.

use crate::inputs::{record_stream, StreamInputs, BATCH, DRIFT_P_NEW, DRIFT_RECORDS};
use crate::ledger::Ledger;
use crate::metrics::Pass;
use crate::pipeline::{score, Root, Site};
use cludistream::{Config, DeliveryConfig, DeliveryMode, Simulation};
use cludistream_gmm::avg_log_likelihood;
use cludistream_obs::TraceId;
use cludistream_simnet::NodeId;
use std::time::Instant;

/// Generator probability of a new distribution (Theorem 4's `P_d`).
pub const P_NEW: f64 = DRIFT_P_NEW;
/// Batch rounds (one batch per site) between two reads.
const SCORE_EVERY: usize = 32;

/// What the output check compares: data frames and their bytes per site.
pub struct Wire {
    pub frames: Vec<u64>,
    pub bytes: Vec<u64>,
}

/// One pass over every site's stream with fresh engines.
pub fn pass(inputs: &StreamInputs, ledger: &mut Ledger) -> (Pass, Wire) {
    let n = inputs.streams.len();
    let reader = n as u32 + 1;
    let mut sites: Vec<Site> = (0..n as u32).map(Site::new).collect();
    let mut root = Root::new(n);
    let mut failed = 0;
    let mut freshness_ms = Vec::new();
    let mut score_us = Vec::new();
    let (mut reads, mut reader_s) = (0, 0.0);
    let first_span = ledger.spans().len();
    let start = Instant::now();
    for b in 0..DRIFT_RECORDS / BATCH {
        for (s, site) in sites.iter_mut().enumerate() {
            let rows = b * BATCH..(b + 1) * BATCH;
            let Some(chunk) = site.push_batch(&inputs.streams[s], rows, ledger, &mut failed) else {
                continue;
            };
            for frame in site.encode_outbox(&chunk, ledger) {
                let out = root.deliver(&frame, chunk.trace, chunk.span, ledger, &mut failed);
                if let Some(at) = out.published {
                    freshness_ms.push((at - chunk.at).as_secs_f64() * 1e3);
                }
                if let Some(ack) = out.ack {
                    site.link.on_ack(&ack, chunk.trace, chunk.span, ledger);
                }
            }
        }
        if b % SCORE_EVERY == SCORE_EVERY - 1 {
            reads += 1;
            let reading = Instant::now();
            let trace = TraceId::new(reader, b as u64);
            if let Some(d) = score(&root.handle, &inputs.batch, trace, reader, ledger, &mut failed)
            {
                score_us.push(d.as_secs_f64() * 1e6);
            }
            reader_s += reading.elapsed().as_secs_f64();
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    let records = (n * DRIFT_RECORDS) as u64;
    let heldout_ll = root
        .coordinator
        .global_mixture()
        .map_or(f64::NAN, |g| avg_log_likelihood(&g, &inputs.holdout));
    let unacked: usize = sites.iter().map(|s| s.link.pending()).sum();
    let stats: Vec<_> = sites.iter().map(|s| s.remote.stats()).collect();
    let sum = |f: fn(&cludistream::SiteStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let c = &root.coordinator;
    let wire = Wire {
        frames: sites.iter().map(|s| s.link.frames).collect(),
        bytes: sites.iter().map(|s| s.link.bytes).collect(),
    };
    let frames: u64 = wire.frames.iter().sum();
    let bytes: u64 = wire.bytes.iter().sum();
    let counts = vec![
        ("remote.chunks", sum(|s| s.chunks)),
        ("remote.em_chunks", sum(|s| s.clustered)),
        ("remote.tests", sum(|s| s.tests)),
        ("remote.em_iterations", sum(|s| s.em_iterations)),
        (
            "remote.memory_bytes",
            sites.iter().map(|s| s.remote.memory_bytes()).sum::<usize>() as f64,
        ),
        ("protocol.frames", frames as f64),
        ("protocol.bytes", bytes as f64),
        ("coordinator.groups", c.group_count() as f64),
        ("coordinator.components", c.component_count() as f64),
        ("coordinator.event_table_entries", c.event_table_entries() as f64),
        ("coordinator.merges", (c.merge_log().len() as u64 + c.merges_compacted()) as f64),
        ("coordinator.memory_bytes", c.memory_bytes() as f64),
    ];
    let pass = Pass {
        ingest_s: wall_s - reader_s,
        wall_s,
        records,
        applied: root.applied,
        bytes,
        freshness_ms,
        score_us,
        score_batch: inputs.batch.len() as u64,
        heldout_ll,
        attempted: records + 2 * frames + reads,
        failed: failed + unacked as u64,
        spans: first_span..ledger.spans().len(),
        counts,
    };
    (pass, wire)
}

/// The output check: the same streams through `Simulation::run` with
/// reliable delivery must send the same data frames, and the same bytes,
/// from every site — the site engines are deterministic.
pub fn check_against_simulation(inputs: &StreamInputs, wire: &Wire) -> Result<(), String> {
    let n = inputs.streams.len();
    let report = Simulation::star(n)
        .with_config(Config::default())
        .with_batch(BATCH)
        .with_streams(inputs.streams.iter().map(record_stream).collect())
        .with_updates_per_site(DRIFT_RECORDS as u64)
        .with_reliability(DeliveryConfig { mode: DeliveryMode::Reliable, ..Default::default() })
        .run()
        .map_err(|e| format!("Simulation::run failed: {e}"))?;
    let hub = NodeId(n);
    for s in 0..n {
        let frames = report.comm.link_messages(NodeId(s), hub);
        let bytes = report.comm.link_bytes(NodeId(s), hub);
        if (frames, bytes) != (wire.frames[s], wire.bytes[s]) {
            return Err(format!(
                "site {s}: pipeline sent {} frames / {} bytes, Simulation::run {frames} / {bytes}",
                wire.frames[s], wire.bytes[s]
            ));
        }
    }
    if report.delivery.retransmitted_messages != 0 {
        return Err("Simulation::run retransmitted on a fault-free network".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;

    /// The site engines and the root are deterministic, so the same seed
    /// gives the same counts, pass after pass.
    #[test]
    fn same_seed_same_counts() {
        let inputs = &inputs::drift(7)[0];
        let (a, wa) = pass(inputs, &mut Ledger::new(false));
        let (b, wb) = pass(inputs, &mut Ledger::new(true));
        assert_eq!(a.counts, b.counts);
        assert_eq!((&wa.frames, &wa.bytes), (&wb.frames, &wb.bytes));
        assert!(a.counts.iter().any(|&(n, v)| n == "remote.em_chunks" && v > 0.0));
        let other = &inputs::drift(8)[0];
        assert_ne!(pass(other, &mut Ledger::new(false)).1.bytes, wa.bytes);
    }
}
