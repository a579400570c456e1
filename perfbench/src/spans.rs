//! The benchmark's own in-memory spans around each public call it makes.
//!
//! Spans are recorded from outside the program — no program tracing is
//! enabled, so a traced episode runs exactly the code an untraced one
//! does. Each span has a name, a layer, start and end, a parent and a
//! per-request id; the last traced episode is written out at exit in the
//! Chrome trace-event format of `tn-trace`'s exporter, so it opens in
//! Perfetto.

use std::borrow::Cow;
use std::time::Instant;

use tn_trace::{lanes, SpanRecord, Trace, TraceId};

/// The layer a span's time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `Gateway::offer`.
    Gateway,
    /// `Gateway::drain_into`: mempool admission and its signature checks.
    Admission,
    /// `ValidatorNode::produce_block_from_mempool` on the serving node.
    Commit,
    /// Store, graph and ranking reads.
    Reads,
    /// `order_payloads_pbft_faulted`.
    Consensus,
    /// `ValidatorNode::apply_committed_batch` on the disk replica.
    Replica,
    /// `ValidatorNode::reopen`.
    Recovery,
    /// A parent span grouping a request's calls; never charged itself.
    Request,
}

impl Layer {
    /// Every charged layer, in report order.
    pub const CHARGED: [Layer; 7] = [
        Layer::Gateway,
        Layer::Admission,
        Layer::Commit,
        Layer::Reads,
        Layer::Consensus,
        Layer::Replica,
        Layer::Recovery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Gateway => "gateway",
            Layer::Admission => "admission",
            Layer::Commit => "commit",
            Layer::Reads => "reads",
            Layer::Consensus => "consensus",
            Layer::Replica => "replica",
            Layer::Recovery => "recovery",
            Layer::Request => "request",
        }
    }

    fn lane(self) -> &'static str {
        match self {
            Layer::Gateway | Layer::Admission => lanes::ADMISSION,
            Layer::Commit | Layer::Replica | Layer::Recovery => lanes::PIPELINE,
            Layer::Consensus => lanes::CONSENSUS,
            Layer::Reads | Layer::Request => "reads",
        }
    }
}

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; otherwise every call is a plain call.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            enabled: false,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a fresh episode: drops earlier spans and switches recording.
    pub fn reset(&mut self, enabled: bool) {
        self.enabled = enabled;
        self.spans.clear();
        if enabled {
            self.spans.reserve(1 << 16);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` as one span and returns its value.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, layer, parent, request, start, end);
        out
    }

    /// Records a span over `[start, end]`; returns its id (0 when off).
    fn record(
        &mut self,
        name: &'static str,
        layer: Layer,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            layer,
            start_ns,
            end_ns,
        });
        id
    }

    /// Reserves an id for a parent span recorded after its children.
    pub fn reserve_id(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a parent span under an id from [`Tracer::reserve_id`].
    pub fn record_reserved(&mut self, id: u64, name: &'static str, request: u64, start: Instant) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(Instant::now()));
        self.spans.push(Span {
            id,
            parent: 0,
            request,
            name,
            layer: Layer::Request,
            start_ns,
            end_ns,
        });
    }
}

/// Busy time per charged layer, summed over leaf spans.
pub fn layer_ns(spans: &[Span]) -> Vec<(Layer, u64)> {
    Layer::CHARGED
        .iter()
        .map(|&layer| {
            let ns = spans
                .iter()
                .filter(|s| s.layer == layer)
                .map(Span::dur_ns)
                .sum();
            (layer, ns)
        })
        .collect()
}

/// Renders spans as Chrome trace-event JSON through `tn-trace`.
pub fn chrome_json(spans: &[Span]) -> String {
    let records = spans
        .iter()
        .map(|s| SpanRecord {
            trace: TraceId(u128::from(s.request) + 1),
            id: s.id,
            parent: s.parent,
            name: Cow::Borrowed(s.name),
            replica: 0,
            lane: s.layer.lane(),
            start_ns: s.start_ns,
            dur_ns: s.dur_ns(),
            args: Default::default(),
        })
        .collect();
    Trace {
        spans: records,
        dropped: 0,
        n_replicas: 1,
    }
    .to_chrome_json()
}
