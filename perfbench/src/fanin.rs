//! `fanin`: one star root receives 1,000 sites' synopses through the wire
//! path. Each site sends one `NewModel` (a d = 4, K = 5 full-covariance
//! mixture jittered around five fixed regions), then each sends one
//! `WeightUpdate`; every synopsis is encoded, decoded, passed through
//! its inbox, applied and published, and a reader scores the held-out
//! batch against the latest snapshot after every few applies. Root apply
//! does nearly all the work and EM none; the reads beside the writes
//! catch a root change that moves apply work into snapshot capture or
//! scoring.

use crate::inputs::{FaninInputs, FANIN_SITES};
use crate::ledger::Ledger;
use crate::metrics::Pass;
use crate::pipeline::{score, Link, Root};
use cludistream::Message;
use cludistream_gmm::avg_log_likelihood;
use cludistream_obs::TraceId;
use std::time::Instant;

/// The reader scores after every this many applied synopses.
const SCORE_EVERY: usize = 8;

/// One round: fresh root and links, every site's two synopses.
pub fn pass(inputs: &FaninInputs, ledger: &mut Ledger) -> Pass {
    let reader = FANIN_SITES as u32 + 1;
    let mut links: Vec<Link> = (0..FANIN_SITES as u32).map(Link::new).collect();
    let mut root = Root::new(FANIN_SITES);
    let mut failed = 0;
    let mut freshness_ms = Vec::with_capacity(2 * FANIN_SITES);
    let mut score_us = Vec::new();
    let mut reader_s = 0.0;
    let mut reads = 0;
    let mut records = 0;
    let first_span = ledger.spans().len();
    let start = Instant::now();
    let messages = inputs.new_models.iter().chain(&inputs.updates);
    for (k, message) in messages.enumerate() {
        let site = message.site();
        records += match message {
            Message::NewModel { count, .. } => *count,
            Message::WeightUpdate { count_delta, .. } | Message::Delete { count_delta, .. } => {
                *count_delta
            }
        };
        let trace = TraceId::new(site, (k / FANIN_SITES) as u64);
        let link = &mut links[site as usize];
        let (frame, span) = link.encode(message.clone(), trace, None, ledger);
        let decoding = Instant::now();
        let out = root.deliver(&frame, trace, span, ledger, &mut failed);
        if let Some(at) = out.published {
            freshness_ms.push((at - decoding).as_secs_f64() * 1e3);
        }
        if let Some(ack) = out.ack {
            link.on_ack(&ack, trace, span, ledger);
        }
        if (k + 1) % SCORE_EVERY == 0 {
            reads += 1;
            let reading = Instant::now();
            let trace = TraceId::new(reader, k as u64);
            if let Some(d) = score(&root.handle, &inputs.batch, trace, reader, ledger, &mut failed)
            {
                score_us.push(d.as_secs_f64() * 1e6);
            }
            reader_s += reading.elapsed().as_secs_f64();
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    let heldout_ll = root
        .coordinator
        .global_mixture()
        .map_or(f64::NAN, |g| avg_log_likelihood(&g, &inputs.holdout));
    let unacked: usize = links.iter().map(Link::pending).sum();
    let frames: u64 = links.iter().map(|l| l.frames).sum();
    let bytes: u64 = links.iter().map(|l| l.bytes).sum();
    let c = &root.coordinator;
    let counts = vec![
        ("protocol.frames", frames as f64),
        ("protocol.bytes", bytes as f64),
        ("coordinator.groups", c.group_count() as f64),
        ("coordinator.components", c.component_count() as f64),
        ("coordinator.event_table_entries", c.event_table_entries() as f64),
        ("coordinator.merges", (c.merge_log().len() as u64 + c.merges_compacted()) as f64),
        ("coordinator.memory_bytes", c.memory_bytes() as f64),
    ];
    Pass {
        ingest_s: wall_s - reader_s,
        wall_s,
        records,
        applied: root.applied,
        bytes,
        freshness_ms,
        score_batch: inputs.batch.len() as u64,
        score_us,
        attempted: 2 * frames + reads,
        heldout_ll,
        failed: failed + unacked as u64,
        spans: first_span..ledger.spans().len(),
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;

    #[test]
    fn same_seed_same_counts() {
        let inputs = inputs::fanin(7);
        let a = pass(&inputs, &mut Ledger::new(false));
        let b = pass(&inputs, &mut Ledger::new(true));
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.applied, 2 * FANIN_SITES as u64);
        assert_eq!(a.heldout_ll.to_bits(), b.heldout_ll.to_bits());
    }
}
