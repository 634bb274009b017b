//! Per-layer attribution: metric deltas from the program's own Prometheus
//! exposition, and per-request span self-times joined by trace id.

use std::collections::HashMap;

use ermia_telemetry::{parse_exposition, parse_spans, Span, SpanKind};

use crate::checks;
use crate::drive::TracedReq;
use crate::stats::{median, pct};

/// One scrape: every sample value keyed by sample name (labels summed),
/// plus per-label values for the families read by label. Several
/// expositions (one per shard) add up.
#[derive(Default)]
pub struct Scrape {
    totals: HashMap<String, f64>,
    labeled: HashMap<(String, String), f64>,
}

impl Scrape {
    pub fn add_text(&mut self, text: &str) -> Result<(), String> {
        let exp = parse_exposition(text)?;
        for m in exp.metrics.values() {
            for s in &m.samples {
                *self.totals.entry(s.name.clone()).or_default() += s.value;
                for (_, v) in &s.labels {
                    *self.labeled.entry((s.name.clone(), v.clone())).or_default() += s.value;
                }
            }
        }
        Ok(())
    }

    pub fn get(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    pub fn get_label(&self, name: &str, value: &str) -> f64 {
        self.labeled.get(&(name.to_string(), value.to_string())).copied().unwrap_or(0.0)
    }
}

/// Counter deltas between two scrapes.
pub struct Delta<'a> {
    pub before: &'a Scrape,
    pub after: &'a Scrape,
}

impl Delta<'_> {
    pub fn get(&self, name: &str) -> f64 {
        (self.after.get(name) - self.before.get(name)).max(0.0)
    }

    pub fn label(&self, name: &str, value: &str) -> f64 {
        (self.after.get_label(name, value) - self.before.get_label(name, value)).max(0.0)
    }
}

/// Spans gathered by repeated dumps, deduplicated (dumps overlap).
#[derive(Default)]
pub struct SpanStore {
    spans: HashMap<(u64, u64, u64, u64), Span>,
}

impl SpanStore {
    pub fn add_dump(&mut self, text: &str) -> Result<(), String> {
        let spans = parse_spans(text).ok_or("unparseable span dump")?;
        for s in spans {
            self.spans.insert((s.trace_hi, s.trace_lo, s.span_id, s.start_ns), s);
        }
        Ok(())
    }

    pub fn by_trace(&self) -> HashMap<(u64, u64), Vec<&Span>> {
        let mut m: HashMap<(u64, u64), Vec<&Span>> = HashMap::new();
        for s in self.spans.values() {
            m.entry((s.trace_hi, s.trace_lo)).or_default().push(s);
        }
        m
    }

    pub fn of_kind(&self, kind: SpanKind) -> Vec<&Span> {
        self.spans.values().filter(|s| s.kind == kind).collect()
    }
}

/// Self-times of one traced request, in microseconds, per span kind
/// plus the benchmark's own client-side pieces.
#[derive(Default, Clone)]
pub struct Attribution {
    pub rtt: f64,
    pub send: f64,
    pub frame_decode: f64,
    pub run_queue: f64,
    pub checkout: f64,
    pub request_self: f64,
    pub begin: f64,
    pub read: f64,
    pub write: f64,
    pub scan: f64,
    pub commit_deferred: f64,
    pub durability_wait: f64,
    pub prepare: f64,
    pub decide: f64,
    pub finalize: f64,
    pub cross: bool,
    /// Round trip minus the client send and the server's request span:
    /// kernel, loopback, event-loop wakeups, reply write, and queueing
    /// behind the requests pipelined ahead of this one.
    pub unattributed: f64,
}

impl Attribution {
    pub fn client(&self) -> f64 {
        self.send
    }
    pub fn server(&self) -> f64 {
        self.frame_decode + self.run_queue + self.checkout + self.request_self
    }
    pub fn core(&self) -> f64 {
        self.begin
            + self.read
            + self.write
            + self.scan
            + self.commit_deferred
            + self.prepare
            + self.decide
            + self.finalize
    }
    pub fn log(&self) -> f64 {
        self.durability_wait
    }
}

/// Kinds every traced synchronous write batch must produce.
const REQUIRED: [SpanKind; 5] = [
    SpanKind::Request,
    SpanKind::FrameDecode,
    SpanKind::TxnBegin,
    SpanKind::TxnWrite,
    SpanKind::DurabilityWait,
];

/// Join each traced request with its spans. Children of the request span
/// are siblings that do not overlap, so a request's self-time is its
/// duration minus theirs.
pub fn attribute(
    reqs: &[TracedReq],
    store: &SpanStore,
    errors: &mut Vec<String>,
) -> Vec<Attribution> {
    let traces = store.by_trace();
    let mut out = Vec::with_capacity(reqs.len());
    for r in reqs {
        let name = format!("{:016x}{:016x}", r.trace.0, r.trace.1);
        let spans = traces.get(&r.trace).map(Vec::as_slice).unwrap_or(&[]);
        if let Err(e) = checks::span_kinds(&name, spans, &REQUIRED) {
            errors.push(e);
            continue;
        }
        let cross = spans.iter().any(|s| s.kind == SpanKind::TwoPcDecide);
        let commit = if cross { SpanKind::TwoPcDecide } else { SpanKind::CommitDeferred };
        if let Err(e) = checks::span_kinds(&name, spans, &[commit]) {
            errors.push(e);
            continue;
        }
        let us = |k: SpanKind| {
            spans.iter().filter(|s| s.kind == k).map(|s| s.dur_ns as f64 / 1e3).sum::<f64>()
        };
        let request = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Request)
            .map(|s| s.dur_ns)
            .max()
            .unwrap_or(0) as f64
            / 1e3;
        let mut a = Attribution {
            rtt: r.rtt_ns as f64 / 1e3,
            send: r.send_ns as f64 / 1e3,
            frame_decode: us(SpanKind::FrameDecode),
            run_queue: us(SpanKind::RunQueue),
            checkout: us(SpanKind::WorkerCheckout),
            begin: us(SpanKind::TxnBegin),
            read: us(SpanKind::TxnRead),
            write: us(SpanKind::TxnWrite),
            scan: us(SpanKind::TxnScan),
            commit_deferred: us(SpanKind::CommitDeferred),
            durability_wait: us(SpanKind::DurabilityWait),
            prepare: us(SpanKind::TwoPcPrepare),
            decide: us(SpanKind::TwoPcDecide),
            finalize: us(SpanKind::TwoPcFinalize),
            cross,
            ..Attribution::default()
        };
        let children = a.frame_decode + a.run_queue + a.checkout + a.core() + a.log();
        a.request_self = (request - children).max(0.0);
        a.unattributed = (a.rtt - a.send - request).max(0.0);
        out.push(a);
    }
    out
}

/// `p`-th percentile of one field over the attributed requests.
pub fn field_pct(v: &[Attribution], p: f64, f: impl Fn(&Attribution) -> f64) -> f64 {
    let mut xs: Vec<f64> = v.iter().map(f).collect();
    pct(&mut xs, p)
}

pub fn field_median(v: &[Attribution], f: impl Fn(&Attribution) -> f64) -> f64 {
    let mut xs: Vec<f64> = v.iter().map(f).collect();
    median(&mut xs)
}
