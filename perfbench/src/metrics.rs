//! Every metric the benchmark reports, declared once with its unit and
//! direction (the same lists `BENCHMARK.json` declares), and the
//! arithmetic that turns measured passes into them.

use crate::ledger::{self_times, Ledger, Span};
use crate::stats::{mean, median, percentile, resolves};

/// One declared metric: name, unit, and whether higher is better.
pub struct Declared {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, higher_is_better: bool) -> Declared {
    Declared { name, unit, higher_is_better }
}

/// Metrics of the untraced run, reported on every workload.
pub const END_TO_END: &[Declared] = &[
    m("ingest_rps", "records/s", true),
    m("score_rps", "records/s", true),
    m("score_p50_us", "us", false),
    m("score_p95_us", "us", false),
    m("bytes_per_record", "B/record", false),
    m("heldout_ll", "nats/record", true),
    m("peak_rss_mb", "MiB", false),
    m("setup_s", "s", false),
];

/// Metrics of the traced run, reported on every workload; a layer that
/// does no work on a workload reports 0.
pub const PER_LAYER: &[Declared] = &[
    m("remote.busy_s", "s", false),
    m("remote.buffer_ns", "ns", false),
    m("remote.test_chunk_ms", "ms", false),
    m("remote.em_chunk_ms_p50", "ms", false),
    m("remote.em_chunk_ms_p95", "ms", false),
    m("remote.chunks", "count", false),
    m("remote.em_chunks", "count", false),
    m("remote.tests", "count", false),
    m("remote.em_iterations", "count", false),
    m("remote.lambda", "ratio", false),
    m("remote.theorem4_ratio", "ratio", false),
    m("remote.memory_bytes", "bytes", false),
    m("protocol.encode_us", "us", false),
    m("protocol.decode_us", "us", false),
    m("protocol.inbox_us", "us", false),
    m("protocol.frames", "count", false),
    m("protocol.bytes", "bytes", false),
    m("coordinator.busy_s", "s", false),
    m("coordinator.new_model_us_p50", "us", false),
    m("coordinator.new_model_us_p95", "us", false),
    m("coordinator.weight_update_us_p50", "us", false),
    m("coordinator.weight_update_us_p95", "us", false),
    m("coordinator.apply_growth", "ratio", false),
    m("coordinator.groups", "count", false),
    m("coordinator.components", "count", false),
    m("coordinator.event_table_entries", "count", false),
    m("coordinator.merges", "count", false),
    m("coordinator.memory_bytes", "bytes", false),
    m("serving.publish_us", "us", false),
    m("serving.publish_busy_s", "s", false),
    m("serving.score_busy_s", "s", false),
    m("runtime.compute_s", "s", false),
    m("runtime.wait_share", "ratio", false),
    m("runtime.data_frames", "count", false),
    m("runtime.ack_frames", "count", false),
    m("runtime.retransmits", "count", false),
    m("trace.coverage", "ratio", true),
    m("trace.overhead_share", "ratio", false),
    m("pipeline.apply_rps", "synopses/s", true),
    m("pipeline.freshness_p50_ms", "ms", false),
    m("pipeline.freshness_p95_ms", "ms", false),
    m("pipeline.error_share", "ratio", false),
];

/// What one pass of a workload measured.
#[derive(Default)]
pub struct Pass {
    /// Write-path wall time: the pipeline without the reader, seconds.
    pub ingest_s: f64,
    /// Whole pass, reader included, seconds.
    pub wall_s: f64,
    /// Records consumed by the sites (`fanin`: records its synopses
    /// summarize).
    pub records: u64,
    /// Synopses applied and published at the root.
    pub applied: u64,
    /// Data-frame wire bytes.
    pub bytes: u64,
    /// Freshness samples, milliseconds.
    pub freshness_ms: Vec<f64>,
    /// Reader latency per scored batch, microseconds.
    pub score_us: Vec<f64>,
    /// Records per scored batch.
    pub score_batch: u64,
    /// Average held-out log-likelihood under the final global mixture.
    pub heldout_ll: f64,
    /// Operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Ledger spans recorded by this pass (empty range when untraced).
    pub spans: std::ops::Range<usize>,
    /// Per-layer counts at the end of the pass.
    pub counts: Vec<(&'static str, f64)>,
}

/// The untraced run's end-to-end metrics (everything but `setup_s` and
/// `peak_rss_mb`, which the caller measures). The passes cycle through
/// `variants` input sets.
pub fn end_to_end(passes: &[Pass], variants: usize) -> Vec<(&'static str, f64)> {
    let records: u64 = passes.iter().map(|p| p.records).sum();
    let rates: Vec<f64> = passes.iter().map(|p| p.records as f64 / p.ingest_s).collect();
    let bytes: u64 = passes.iter().map(|p| p.bytes).sum();
    let score_us: Vec<f64> = passes.iter().flat_map(|p| p.score_us.iter().copied()).collect();
    let scored: f64 = passes.iter().map(|p| (p.score_us.len() as u64 * p.score_batch) as f64).sum();
    let heldout: Vec<f64> = passes[..variants].iter().map(|p| p.heldout_ll).collect();
    vec![
        ("ingest_rps", median(&rates)),
        ("score_rps", scored / (score_us.iter().sum::<f64>() * 1e-6)),
        ("score_p50_us", percentile(&score_us, 50.0)),
        ("score_p95_us", percentile(&score_us, 95.0)),
        ("bytes_per_record", bytes as f64 / records as f64),
        ("heldout_ll", mean(&heldout)),
    ]
}

/// Percentiles that lack ten samples above them, for a warning.
pub fn unresolved(passes: &[Pass]) -> Vec<String> {
    let freshness: usize = passes.iter().map(|p| p.freshness_ms.len()).sum();
    let scores: usize = passes.iter().map(|p| p.score_us.len()).sum();
    let mut out = Vec::new();
    if !resolves(scores, 95.0) {
        out.push(format!("score_p95_us rests on {scores} samples"));
    }
    if freshness > 0 && !resolves(freshness, 95.0) {
        out.push(format!("pipeline.freshness_p95_ms rests on {freshness} samples"));
    }
    out
}

fn durations<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |s| s.name == name)
}

fn duration_units(spans: &[Span], name: &str, per_ns: f64) -> Vec<f64> {
    durations(spans, name).map(|s| s.duration_ns() as f64 / per_ns).collect()
}

/// Per-call timings of the layers, from the spans of `passes` traced
/// passes. `p_new` is the generator's probability of a new distribution
/// (Theorem 4's `P_d`).
pub fn layer_timings(spans: &[Span], passes: usize, p_new: f64) -> Vec<(&'static str, f64)> {
    let own = self_times(spans);
    let busy = |prefix: &str| -> f64 {
        let ns: u64 = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name.starts_with(prefix))
            .map(|(_, t)| *t)
            .sum();
        ns as f64 * 1e-9 / passes as f64
    };
    let us = |name: &str| duration_units(spans, name, 1e3);
    let ms = |name: &str| duration_units(spans, name, 1e6);
    let buffered: Vec<&Span> = durations(spans, "remote.buffer").collect();
    let buffer_ns = buffered.iter().map(|s| s.duration_ns() as f64).sum::<f64>()
        / buffered.iter().map(|s| s.items as f64).sum::<f64>().max(1.0);
    let (test_ms, em_ms) = (ms("remote.test"), ms("remote.em"));
    let (test_mean, em_mean) = (mean(&test_ms), mean(&em_ms));
    let lambda = if em_mean > 0.0 { test_mean / em_mean } else { 0.0 };
    // Theorem 4: a chunk costs (P_d + λ(1 − P_d))·C on average, with C
    // the EM chunk cost and λ·C the test chunk cost. The ratio of the
    // measured mean to that prediction is reported, not gated: with
    // chunks straddling regime boundaries, more than P_d of the chunks
    // re-cluster, so it sits above 1 at the seed.
    let chunk_mean = mean(&[test_ms.as_slice(), em_ms.as_slice()].concat());
    let predicted = (p_new + lambda * (1.0 - p_new)) * em_mean;
    let theorem4 = if predicted > 0.0 { chunk_mean / predicted } else { 0.0 };
    vec![
        ("remote.busy_s", busy("remote.")),
        ("remote.buffer_ns", buffer_ns),
        ("remote.test_chunk_ms", percentile(&test_ms, 50.0)),
        ("remote.em_chunk_ms_p50", percentile(&em_ms, 50.0)),
        ("remote.em_chunk_ms_p95", percentile(&em_ms, 95.0)),
        ("remote.lambda", lambda),
        ("remote.theorem4_ratio", theorem4),
        ("protocol.encode_us", percentile(&us("protocol.encode"), 50.0)),
        ("protocol.decode_us", percentile(&us("protocol.decode"), 50.0)),
        ("protocol.inbox_us", percentile(&us("protocol.inbox"), 50.0)),
        ("coordinator.busy_s", busy("coordinator.")),
        ("coordinator.new_model_us_p50", percentile(&us("coordinator.new_model"), 50.0)),
        ("coordinator.new_model_us_p95", percentile(&us("coordinator.new_model"), 95.0)),
        ("coordinator.weight_update_us_p50", percentile(&us("coordinator.weight_update"), 50.0)),
        ("coordinator.weight_update_us_p95", percentile(&us("coordinator.weight_update"), 95.0)),
        ("serving.publish_us", percentile(&us("serving.publish"), 50.0)),
        ("serving.publish_busy_s", busy("serving.publish")),
        ("serving.score_busy_s", busy("serving.score")),
    ]
}

/// The traced run's per-layer metrics. `traced` and `untraced` passes
/// alternate in one run; `extra` carries metrics measured outside the
/// ledger and replaces same-named ones.
pub fn per_layer(
    ledger: &Ledger,
    traced: &[Pass],
    untraced: &[Pass],
    p_new: f64,
    extra: &[(&'static str, f64)],
) -> Vec<(&'static str, f64)> {
    let spans = ledger.spans();
    let growth: Vec<f64> =
        traced.iter().filter_map(|p| apply_growth(&spans[p.spans.clone()])).collect();
    let traced_wall: f64 = traced.iter().map(|p| p.wall_s).sum();
    let coverage = self_times(spans).iter().sum::<u64>() as f64 * 1e-9 / traced_wall;
    let walls = |ps: &[Pass]| median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());

    let mut out = layer_timings(spans, traced.len(), p_new);
    out.extend([
        ("coordinator.apply_growth", median(&growth)),
        ("trace.coverage", coverage),
        ("trace.overhead_share", walls(traced) / walls(untraced) - 1.0),
    ]);
    out.extend(pipeline(untraced, traced));
    out.extend(mean_counts(&traced.iter().map(|p| p.counts.clone()).collect::<Vec<_>>()));
    for &(name, value) in extra {
        match out.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => out.push((name, value)),
        }
    }
    for (_, value) in out.iter_mut() {
        // An empty sum is -0.0; report it as 0.
        *value += 0.0;
    }
    // Layers a workload does not exercise report 0.
    for d in PER_LAYER {
        if !out.iter().any(|(name, _)| *name == d.name) {
            out.push((d.name, 0.0));
        }
    }
    out
}

/// End-to-end figures that not every workload can report, so they are
/// per-layer metrics rather than `END_TO_END` ones: the root's apply rate
/// and freshness from the untraced passes (`tcp` publishes inside the
/// runtime and sends a few synopses a round), and the share of failed
/// operations over all passes.
pub fn pipeline(untraced: &[Pass], traced: &[Pass]) -> Vec<(&'static str, f64)> {
    let applied: u64 = untraced.iter().map(|p| p.applied).sum();
    let ingest_s: f64 = untraced.iter().map(|p| p.ingest_s).sum();
    let freshness: Vec<f64> =
        untraced.iter().flat_map(|p| p.freshness_ms.iter().copied()).collect();
    let attempted: u64 = traced.iter().chain(untraced).map(|p| p.attempted).sum();
    let failed: u64 = traced.iter().chain(untraced).map(|p| p.failed).sum();
    vec![
        ("pipeline.apply_rps", applied as f64 / ingest_s),
        ("pipeline.freshness_p50_ms", percentile(&freshness, 50.0)),
        ("pipeline.freshness_p95_ms", percentile(&freshness, 95.0)),
        ("pipeline.error_share", failed as f64 / attempted.max(1) as f64),
    ]
}

/// The mean of each named count over passes that all report the same
/// names.
pub fn mean_counts(counts: &[Vec<(&'static str, f64)>]) -> Vec<(&'static str, f64)> {
    let Some(first) = counts.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| (name, mean(&counts.iter().map(|c| c[i].1).collect::<Vec<_>>())))
        .collect()
}

/// Mean apply cost of the last tenth of a pass's `NewModel`s over that of
/// the first tenth; `None` with fewer than ten.
///
/// Reported, not gated: at the seed the root refolds every member of a
/// group on each insert, so the ratio grows with the site count, and a
/// gate on it belongs to the change that removes that growth.
fn apply_growth(spans: &[Span]) -> Option<f64> {
    let costs: Vec<f64> = duration_units(spans, "coordinator.new_model", 1.0);
    let tenth = costs.len() / 10;
    if tenth == 0 {
        return None;
    }
    let first = mean(&costs[..tenth]);
    let last = mean(&costs[costs.len() - tenth..]);
    (first > 0.0).then(|| last / first)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must declare exactly the metrics this file does,
    /// with the same units and directions.
    #[test]
    fn benchmark_json_declares_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json at the repository root")
            .split_whitespace()
            .collect();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let better = if d.higher_is_better { "higher" } else { "lower" };
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                d.name, d.unit, better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len(), "extra metrics in BENCHMARK.json");
    }
}
