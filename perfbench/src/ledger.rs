//! The traced run's span ledger.
//!
//! Spans are recorded only in the benchmark's own code, around each call
//! into a layer of the pipeline. Each span keeps its name, its trace, the
//! span that caused it, and its start and end in nanoseconds since the
//! ledger was created. Spans stay in memory; [`Ledger::perfetto`] renders
//! them for Perfetto when the run ends.

use cludistream_obs::{perfetto_json, SpanId, SpanRecord, TraceId};
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `remote.em` or `protocol.decode`.
    pub name: &'static str,
    /// The trace the call belongs to (a site's chunk, or one synopsis).
    pub trace: TraceId,
    /// Index of the causing span in the ledger.
    pub parent: Option<usize>,
    /// Perfetto track: a site index, or the root's node id.
    pub node: u32,
    /// Records handled by the call (buffering spans aggregate many pushes).
    pub items: u32,
    /// Start, nanoseconds since the ledger epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the ledger epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the call.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store. A disabled ledger records nothing and reads no
/// clock, so untraced runs pay only for the timings their metrics need.
pub struct Ledger {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Ledger {
    /// A ledger that records when `on`.
    pub fn new(on: bool) -> Ledger {
        Ledger { on, epoch: Instant::now(), spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Records a finished span; `None` when the ledger is off.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        name: &'static str,
        trace: TraceId,
        parent: Option<usize>,
        node: u32,
        items: u32,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.spans.push(Span { name, trace, parent, node, items, start_ns, end_ns });
        Some(self.spans.len() - 1)
    }

    /// Runs `call` inside a span named `name`; without recording, `call`
    /// runs with no clock read.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        trace: TraceId,
        parent: Option<usize>,
        node: u32,
        call: impl FnOnce() -> T,
    ) -> (T, Option<usize>) {
        if !self.on {
            return (call(), None);
        }
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        (out, self.record(name, trace, parent, node, 1, start, end))
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON of the spans in `range`, for Perfetto.
    pub fn perfetto(&self, range: std::ops::Range<usize>) -> String {
        let id = |i: usize| SpanId::new(self.spans[i].node, i as u64 + 1);
        let records: Vec<SpanRecord> = range
            .map(|i| (i, &self.spans[i]))
            .map(|(i, s)| SpanRecord {
                trace: s.trace,
                span: id(i),
                parent: s.parent.map(id),
                name: s.name,
                node: s.node,
                start_us: s.start_ns / 1_000,
                end_us: s.end_ns.div_ceil(1_000),
                cost_us: 0,
            })
            .collect();
        perfetto_json(&records)
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span itself (a child that runs
/// after its causing span — an apply after the push that produced the
/// synopsis — takes nothing from it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - union_length(kids))
        .collect()
}

/// Total length covered by a set of half-open intervals.
fn union_length(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(lo, hi) in intervals.iter() {
        current = match current {
            Some((clo, chi)) if lo <= chi => Some((clo, chi.max(hi))),
            Some((clo, chi)) => {
                total += chi - clo;
                Some((lo, hi))
            }
            None => Some((lo, hi)),
        };
    }
    total + current.map_or(0, |(lo, hi)| hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "t", trace: TraceId(0), parent, node: 0, items: 1, start_ns, end_ns }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // root [0,100) ⊃ a [10,40) ⊃ b [20,30); root's self time loses only
        // a's interval, a loses b's.
        let spans = [span(None, 0, 100), span(Some(0), 10, 40), span(Some(1), 20, 30)];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // [10,50) ∪ [30,60) ∪ [55,70) = [10,70): 60 ns covered.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 50),
            span(Some(0), 30, 60),
            span(Some(0), 55, 70),
            span(Some(0), 80, 90),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        // A causal child that starts before the parent ends and runs past
        // it, and one that runs entirely after it.
        let spans = [span(None, 0, 100), span(Some(0), 90, 150), span(Some(0), 200, 300)];
        assert_eq!(self_times(&spans), vec![90, 60, 100]);
    }

    #[test]
    fn disabled_ledger_records_nothing() {
        let mut ledger = Ledger::new(false);
        let (v, id) = ledger.time("x", TraceId(1), None, 0, || 7);
        assert_eq!((v, id), (7, None));
        let now = Instant::now();
        assert!(ledger.record("y", TraceId(1), None, 0, 1, now, now).is_none());
        assert!(ledger.spans().is_empty());
    }
}
