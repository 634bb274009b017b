//! `ermia-telemetry` — the unified observability layer.
//!
//! Three pieces, all std-only and allocation-free on the write side:
//!
//! * [`registry`] — per-thread metric slabs (relaxed `AtomicU64`
//!   counters + [`hist::AtomicHistogram`]s) merged on read, with a
//!   retire-on-drop aggregate so thread churn neither leaks nor loses
//!   counts, plus read-side collector callbacks for subsystems that
//!   already keep their own atomics.
//! * [`prom`] — Prometheus text-format exposition: the renderer behind
//!   the `Metrics` wire frame and HTTP `GET /metrics`, and the parser
//!   the golden tests / CI smoke use to validate a live scrape.
//! * [`trace`] — one fixed-size seqlock [`Ring`] per writer holding both
//!   flight events (txn begin/commit/abort, log stall/poison, GC,
//!   checkpoints, 2PC verdicts, …) and distributed-tracing spans, all on
//!   one nanosecond timebase. The [`Tracer`] merges the rings into the
//!   bounded `DumpEvents` report (on demand, or automatically when the
//!   log stalls) and the `DumpTraces` span list, keeps a worst-K
//!   slow-op log, and mints 128-bit wire-propagated trace ids.
//!
//! [`Telemetry`] bundles one registry and one tracer; the database owns
//! one instance and every layer hangs its instruments off it.

mod hist;
mod prom;
mod registry;
mod trace;

pub use hist::{percentile_sorted, AtomicHistogram, Histogram, BUCKETS};
pub use prom::{parse_exposition, Exposition, ParsedMetric, SampleLine};
pub use registry::{FamilyDef, MetricDesc, MetricKind, Registry, Sample, Slab};
pub use trace::{
    chrome_trace_json, parse_spans, render_spans, EventKind, Ring, SlowOp, Span, SpanKind,
    TraceContext, Tracer, SLOW_OP_LOG_CAP, SLOW_OP_SPAN_CAP,
};

use std::sync::Arc;

/// Slots in each ring. A hot worker's ring takes two events per
/// transaction (begin, commit) next to its sampled spans, and a server
/// event loop's two per parked sync commit; at ~20k records/s this holds
/// ~200 ms, so a span dump polled every 50 ms still sees every span.
const RING_CAP: usize = 4096;

/// The per-database telemetry bundle.
pub struct Telemetry {
    registry: Registry,
    tracer: Arc<Tracer>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    pub fn new() -> Telemetry {
        let registry = Registry::new();
        let tracer = Arc::new(Tracer::new(RING_CAP));
        // The slow-query log rides the standard exposition: a retained-op
        // count plus one labeled latency sample per retained op (the
        // label is the op/table/key/breakdown summary the `ermia_top`
        // pane lists). Registered here so primaries and replicas alike
        // expose it without extra wiring.
        let col = Arc::clone(&tracer);
        registry.register_collector(0, move |out| {
            let ops = col.slow_ops();
            out.push(Sample::gauge(
                "ermia_slow_ops",
                "Slow traced operations currently retained in the worst-K log.",
                ops.len() as f64,
            ));
            for (rank, op) in ops.iter().enumerate() {
                out.push(
                    Sample::gauge(
                        "ermia_slow_op_ns",
                        "Total latency of one retained slow op; the label carries op, \
                         table, key prefix, and span breakdown.",
                        op.total_ns as f64,
                    )
                    .labeled("op", format!("#{rank} {}", op.summary())),
                );
            }
        });
        Telemetry { registry, tracer }
    }

    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Bounded span dump (all rings + slow-op retention) in the
    /// `DumpTraces` text format.
    pub fn dump_traces(&self, max_spans: usize) -> String {
        render_spans(&self.tracer.dump_spans(max_spans))
    }

    /// Full Prometheus exposition of everything registered.
    pub fn render_prometheus(&self) -> String {
        self.registry.render()
    }

    /// Bounded flight-event dump across all rings, in the `DumpEvents`
    /// text format.
    pub fn dump_events(&self, max_events: usize) -> String {
        self.tracer.dump_events(max_events)
    }
}
