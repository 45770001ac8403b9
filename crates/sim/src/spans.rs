//! Causal transfer spans: hop-tree reconstruction and critical-path
//! decomposition.
//!
//! Every transfer submitted to the event-loop engine mints a **span id**
//! (`fbuf::FbufSystem::submit_transfer`); the id rides the transfer's
//! envelopes, `HopMsg` legs, RPC descent, and cross-shard SPSC payloads,
//! and the [`Tracer`](crate::Tracer) tags every event recorded while a
//! span is in scope ([`TraceEvent::span`]). When a transfer crosses into
//! a new context — today, an SPSC ring into another shard — the receiver
//! mints a *child* span and records a `SpanLink` edge back to the
//! parent, so one logical transfer remains a single connected tree even
//! though its two halves were recorded by machines with independent
//! clocks.
//!
//! This module reconstructs those trees from a (possibly merged, see
//! [`merge_rings`](crate::trace::merge_rings)) event stream and
//! decomposes where each transfer's time went, stage by stage:
//!
//! * **queueing** — `Dequeue` span durations: simulated ns an event
//!   waited in a bounded per-domain inbox before its handler ran;
//! * **service** — `HopService` span durations: ns a hop's handler
//!   spent executing (IPC descent, mapping work, the send itself);
//! * **ring-crossing** — `RingCross` span durations: receiver-side ns
//!   spent ingesting a payload that crossed a shard boundary
//!   (cross-shard clocks are independent, so the in-flight gap itself
//!   is not a measurable simulated quantity — the ingest handling cost
//!   is, and that is what this stage reports).
//!
//! Each stage aggregates into a [`Histogram`], so the report carries
//! p50/p99 (with quantization bounds) per stage. See `DESIGN.md` §13.

use crate::hist::Histogram;
use crate::json::{Json, ToJson};
use crate::trace::{EventKind, TraceEvent};

/// One span's worth of evidence inside a [`SpanTree`].
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span id.
    pub span: u64,
    /// The parent span, if this span was linked as a child.
    pub parent: Option<u64>,
    /// Child spans linked under this one, in first-seen order.
    pub children: Vec<u64>,
    /// Events tagged with this span, in stream order.
    pub events: Vec<TraceEvent>,
}

/// One transfer's reconstructed causal tree.
#[derive(Debug, Clone)]
pub struct SpanTree {
    /// The root span id (the one minted by `submit_transfer`).
    pub root: u64,
    /// Every node of the tree; index 0 is the root.
    pub nodes: Vec<SpanNode>,
}

impl SpanTree {
    /// Looks up a node by span id.
    pub fn node(&self, span: u64) -> Option<&SpanNode> {
        self.nodes.iter().find(|n| n.span == span)
    }

    /// True when every node is reachable from the root via parent
    /// links — i.e. the transfer reconstructed as one connected tree,
    /// not a forest of orphaned fragments.
    pub fn is_connected(&self) -> bool {
        self.nodes.iter().all(|n| {
            let mut cur = n.span;
            let mut steps = 0;
            while cur != self.root {
                match self.node(cur).and_then(|c| c.parent) {
                    Some(p) if steps <= self.nodes.len() => {
                        cur = p;
                        steps += 1;
                    }
                    _ => return false,
                }
            }
            true
        })
    }

    /// Sums this tree's stage durations: `(queueing, service,
    /// ring_crossing)` in simulated ns.
    pub fn stage_totals(&self) -> (u64, u64, u64) {
        let mut q = 0u64;
        let mut s = 0u64;
        let mut r = 0u64;
        for n in &self.nodes {
            for e in &n.events {
                let d = e.dur.map(|d| d.0).unwrap_or(0);
                match e.kind {
                    EventKind::Dequeue => q += d,
                    EventKind::HopService => s += d,
                    EventKind::RingCross => r += d,
                    _ => {}
                }
            }
        }
        (q, s, r)
    }
}

/// Reconstructs every transfer's span tree from an event stream.
///
/// Spans are discovered from tagged events; `SpanLink` events (child in
/// [`TraceEvent::span`], parent in [`TraceEvent::fbuf`]) supply the
/// parent/child edges. A tree is rooted at each span that has no
/// parent, and returned in first-seen order.
pub fn reconstruct(events: &[TraceEvent]) -> Vec<SpanTree> {
    // Span id -> (parent, children, events), insertion-ordered.
    let mut order: Vec<u64> = Vec::new();
    let mut nodes: Vec<SpanNode> = Vec::new();
    let idx_of = |nodes: &mut Vec<SpanNode>, order: &mut Vec<u64>, span: u64| -> usize {
        match order.iter().position(|&s| s == span) {
            Some(i) => i,
            None => {
                order.push(span);
                nodes.push(SpanNode {
                    span,
                    parent: None,
                    children: Vec::new(),
                    events: Vec::new(),
                });
                nodes.len() - 1
            }
        }
    };
    for e in events {
        let Some(span) = e.span else { continue };
        if e.kind == EventKind::SpanLink {
            let parent = e.fbuf.expect("SpanLink carries the parent span in `fbuf`");
            let ci = idx_of(&mut nodes, &mut order, span);
            nodes[ci].parent = Some(parent);
            nodes[ci].events.push(*e);
            let pi = idx_of(&mut nodes, &mut order, parent);
            if !nodes[pi].children.contains(&span) {
                nodes[pi].children.push(span);
            }
        } else {
            let i = idx_of(&mut nodes, &mut order, span);
            nodes[i].events.push(*e);
        }
    }
    // Roots in first-seen order; collect each root's subtree.
    let roots: Vec<u64> = nodes
        .iter()
        .filter(|n| n.parent.is_none())
        .map(|n| n.span)
        .collect();
    roots
        .into_iter()
        .map(|root| {
            let mut tree = Vec::new();
            let mut frontier = vec![root];
            while let Some(span) = frontier.pop() {
                if let Some(n) = nodes.iter().find(|n| n.span == span) {
                    frontier.extend(n.children.iter().copied());
                    tree.push(n.clone());
                }
            }
            SpanTree { root, nodes: tree }
        })
        .collect()
}

/// Per-stage latency decomposition aggregated across transfers. See the
/// [module docs](self) for what each stage measures.
#[derive(Debug, Clone, Default)]
pub struct StageDecomposition {
    /// Number of span trees the samples came from.
    pub spans: u64,
    /// Inbox wait per hop (`Dequeue` durations).
    pub queueing: Histogram,
    /// Handler execution per hop (`HopService` durations).
    pub service: Histogram,
    /// Receiver-side ingest handling per ring crossing (`RingCross`
    /// durations).
    pub ring_crossing: Histogram,
}

/// Builds the critical-path decomposition of every span-tagged event in
/// the stream.
pub fn decompose(events: &[TraceEvent]) -> StageDecomposition {
    let mut out = StageDecomposition::default();
    let mut seen_roots: Vec<u64> = Vec::new();
    for e in events {
        let Some(span) = e.span else { continue };
        let d = e.dur.map(|d| d.0);
        match e.kind {
            EventKind::SpanStart if !seen_roots.contains(&span) => {
                seen_roots.push(span);
            }
            EventKind::Dequeue => out.queueing.record(d.unwrap_or(0)),
            EventKind::HopService => out.service.record(d.unwrap_or(0)),
            EventKind::RingCross => out.ring_crossing.record(d.unwrap_or(0)),
            _ => {}
        }
    }
    out.spans = seen_roots.len() as u64;
    out
}

impl ToJson for StageDecomposition {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("spans", self.spans.to_json()),
            ("queueing", self.queueing.to_json()),
            ("service", self.service.to_json()),
            ("ring_crossing", self.ring_crossing.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Ns;

    fn ev(kind: EventKind, span: Option<u64>, fbuf: Option<u64>, dur: Option<u64>) -> TraceEvent {
        TraceEvent {
            seq: 0,
            at: Ns(0),
            kind,
            dom: 0,
            peer: None,
            path: None,
            fbuf,
            dur: dur.map(Ns),
            pages: None,
            span,
        }
    }

    #[test]
    fn linked_spans_reconstruct_as_one_connected_tree() {
        let events = vec![
            ev(EventKind::SpanStart, Some(10), Some(1), None),
            ev(EventKind::Dequeue, Some(10), None, Some(40)),
            ev(EventKind::HopService, Some(10), None, Some(100)),
            ev(EventKind::SpanLink, Some(20), Some(10), None),
            ev(EventKind::RingCross, Some(20), None, Some(7)),
            ev(EventKind::HopService, Some(20), None, Some(60)),
        ];
        let trees = reconstruct(&events);
        assert_eq!(trees.len(), 1, "child span folds into the parent tree");
        let tree = &trees[0];
        assert_eq!(tree.root, 10);
        assert_eq!(tree.nodes.len(), 2);
        assert!(tree.is_connected());
        assert_eq!(tree.node(20).and_then(|n| n.parent), Some(10));
        assert_eq!(tree.stage_totals(), (40, 160, 7));
    }

    #[test]
    fn unlinked_spans_are_separate_trees() {
        let events = vec![
            ev(EventKind::SpanStart, Some(1), None, None),
            ev(EventKind::SpanStart, Some(2), None, None),
            ev(EventKind::Dequeue, Some(2), None, Some(5)),
        ];
        let trees = reconstruct(&events);
        assert_eq!(trees.len(), 2);
        assert!(trees.iter().all(SpanTree::is_connected));
    }

    #[test]
    fn decompose_feeds_the_three_stage_histograms() {
        let events = vec![
            ev(EventKind::SpanStart, Some(1), None, None),
            ev(EventKind::Dequeue, Some(1), None, Some(10)),
            ev(EventKind::Dequeue, Some(1), None, Some(30)),
            ev(EventKind::HopService, Some(1), None, Some(200)),
            ev(EventKind::RingCross, Some(1), None, Some(4)),
            // Untagged events never contribute.
            ev(EventKind::Dequeue, None, None, Some(999)),
        ];
        let d = decompose(&events);
        assert_eq!(d.spans, 1);
        assert_eq!(d.queueing.count(), 2);
        assert_eq!(d.service.count(), 1);
        assert_eq!(d.ring_crossing.count(), 1);
        assert_eq!(d.queueing.max(), 30);
        let j = d.to_json();
        for key in ["spans", "queueing", "service", "ring_crossing"] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
    }
}
