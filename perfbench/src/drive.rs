//! Closed-loop load over the wire: a fixed pipelining window of one-shot
//! batches per connection, and an interactive long-transaction loop.
//! Every reply is checked as it arrives and every acknowledged write is
//! journaled, so the state can be verified at quiescence and after
//! recovery.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use ermia_common::AbortReason;
use ermia_server::{
    BatchOp, Client, ClientError, ErrorCode, Request, Response, TraceContext, WireIsolation,
};

use crate::checks;

/// Set on a journal slot whose last write has an unknown outcome (the
/// durability wait timed out or the log failed); the slot is skipped by
/// the state checks until a later write is acknowledged.
const UNCERTAIN: u32 = 1 << 31;

/// Last acknowledged version of every row (wide tables) or pair (paired
/// tables). Each slot has one writer connection at a time, so plain
/// atomic stores suffice.
pub struct Journal {
    slots: Vec<AtomicU32>,
}

impl Journal {
    pub fn new(n: usize) -> Journal {
        Journal { slots: (0..n).map(|_| AtomicU32::new(0)).collect() }
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `None` while the slot's last outcome is unknown.
    pub fn acked(&self, i: u32) -> Option<u32> {
        let v = self.slots[i as usize].load(Ordering::Acquire);
        (v & UNCERTAIN == 0).then_some(v)
    }

    /// The version the next write of slot `i` carries.
    pub fn next_version(&self, i: u32) -> u32 {
        (self.slots[i as usize].load(Ordering::Acquire) & !UNCERTAIN) + 1
    }

    pub fn ack(&self, i: u32, version: u32) {
        self.slots[i as usize].store(version, Ordering::Release);
    }

    fn mark_uncertain(&self, i: u32) {
        self.slots[i as usize].fetch_or(UNCERTAIN, Ordering::AcqRel);
    }
}

/// What a `Get` in a batch must return.
#[derive(Clone, Copy, Debug)]
pub enum GetCheck {
    /// A wide value this benchmark wrote for the row.
    Wide(u32),
    /// One half of a pair; both halves of the batch must agree.
    PairHalf(u32),
}

/// One generated one-shot transaction.
pub struct Planned {
    pub isolation: WireIsolation,
    pub sync: bool,
    pub ops: Vec<BatchOp>,
    /// Journal slot and version of every write, acked on commit.
    pub writes: Vec<(u32, u32)>,
    pub gets: Vec<GetCheck>,
    /// Key plus value bytes the transaction writes.
    pub user_bytes: u64,
}

/// A traced request as the client saw it.
pub struct TracedReq {
    pub trace: (u64, u64),
    pub rtt_ns: u64,
    pub send_ns: u64,
}

/// Everything one load connection observed.
#[derive(Default)]
pub struct StreamResult {
    pub attempts: u64,
    /// Attempts that did not commit, by reason.
    pub aborts: BTreeMap<String, u64>,
    /// Logical transactions that never committed.
    pub failed: u64,
    pub rtt_ns: Vec<u64>,
    pub send_ns: Vec<u64>,
    /// Ack time (ns since the phase start) of every commit in the window.
    pub ack_ns: Vec<u64>,
    /// Ack instant and commit LSN of every commit (replica visibility).
    pub acks: Vec<(Instant, u64)>,
    pub traced: Vec<TracedReq>,
    pub user_bytes: u64,
    /// Long transactions: logical latency of each committed one.
    pub long_ns: Vec<u64>,
    pub long_committed: u64,
    /// Output-check failures; any one fails the run.
    pub errors: Vec<String>,
}

impl StreamResult {
    pub fn merge(&mut self, o: StreamResult) {
        self.attempts += o.attempts;
        for (k, v) in o.aborts {
            *self.aborts.entry(k).or_default() += v;
        }
        self.failed += o.failed;
        self.rtt_ns.extend(o.rtt_ns);
        self.send_ns.extend(o.send_ns);
        self.ack_ns.extend(o.ack_ns);
        self.acks.extend(o.acks);
        self.traced.extend(o.traced);
        self.user_bytes += o.user_bytes;
        self.long_ns.extend(o.long_ns);
        self.long_committed += o.long_committed;
        self.errors.extend(o.errors);
    }

    fn abort(&mut self, reason: &str) {
        *self.aborts.entry(reason.to_string()).or_default() += 1;
    }
}

/// Label for a transaction outcome that is not a commit.
fn failure_label(resp: &Response) -> (String, bool) {
    match resp {
        Response::Busy => ("busy".into(), false),
        Response::Error { code: ErrorCode::TxnAborted(r), .. } => {
            (r.label().into(), *r == AbortReason::LogFailure)
        }
        Response::Error { code, .. } => {
            let indeterminate = matches!(code, ErrorCode::LogStalled | ErrorCode::LogFailed);
            (format!("{code:?}").to_lowercase(), indeterminate)
        }
        other => (format!("unexpected {other:?}"), true),
    }
}

/// Timing window of one phase.
#[derive(Clone, Copy)]
pub struct Window {
    pub start: Instant,
    pub end: Instant,
}

impl Window {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.start).as_nanos() as u64
    }

    fn inside(&self, t: Instant) -> bool {
        t >= self.start && t < self.end
    }
}

/// Stamp a fresh trace on the connection with `parent` as the benchmark's
/// own client span, so the server's spans for the next request hang off
/// it.
fn attach_trace(client: &mut Client, parent: u64) -> (u64, u64) {
    let ctx = client.start_trace();
    client.set_trace(Some(TraceContext { parent, ..ctx }));
    (ctx.trace_hi, ctx.trace_lo)
}

/// Keep `window` one-shot batches in flight until `win.end`, then drain.
/// Every `trace_every`-th request (0 = none) carries a trace context.
#[allow(clippy::too_many_arguments)]
pub fn run_pipelined(
    client: &mut Client,
    window: usize,
    win: Window,
    trace_every: u64,
    conn_id: u64,
    seed: u64,
    journal: &Journal,
    gen: &mut dyn FnMut(&Journal) -> Planned,
    out: &mut StreamResult,
) -> Result<(), ClientError> {
    struct Flight {
        p: Planned,
        sent: Instant,
        send_ns: u64,
        trace: Option<(u64, u64)>,
    }
    let mut inflight: VecDeque<Flight> = VecDeque::with_capacity(window);
    let mut seq = 0u64;
    loop {
        while inflight.len() < window && Instant::now() < win.end {
            let p = gen(journal);
            let traced = trace_every > 0 && seq.is_multiple_of(trace_every);
            let trace = traced.then(|| attach_trace(client, (conn_id << 48) | seq | 1 << 63));
            let req = Request::Batch { isolation: p.isolation, sync: p.sync, ops: p.ops.clone() };
            let sent = Instant::now();
            client.send(&req)?;
            client.flush()?;
            let send_ns = sent.elapsed().as_nanos() as u64;
            if traced {
                client.clear_trace();
            }
            inflight.push_back(Flight { p, sent, send_ns, trace });
            seq += 1;
        }
        if inflight.is_empty() {
            break;
        }
        let resp = client.recv()?;
        let now = Instant::now();
        let f = inflight.pop_front().expect("front checked");
        let rtt_ns = now.duration_since(f.sent).as_nanos() as u64;
        let in_window = win.inside(f.sent) && win.inside(now);
        out.attempts += 1;
        match resp {
            Response::BatchDone { results, outcome } => match *outcome {
                Response::Committed { lsn } => {
                    if let Err(e) = checks::batch_reply(seed, &f.p.gets, &f.p.ops, &results) {
                        out.errors.push(e);
                    }
                    for &(slot, v) in &f.p.writes {
                        journal.ack(slot, v);
                    }
                    out.acks.push((now, lsn));
                    out.user_bytes += f.p.user_bytes;
                    if in_window {
                        out.rtt_ns.push(rtt_ns);
                        out.send_ns.push(f.send_ns);
                        out.ack_ns.push(win.ns(now));
                        if let Some(trace) = f.trace {
                            out.traced.push(TracedReq { trace, rtt_ns, send_ns: f.send_ns });
                        }
                    }
                }
                other => fail(out, journal, &f.p, &other),
            },
            other => fail(out, journal, &f.p, &other),
        }
    }
    Ok(())
}

fn fail(out: &mut StreamResult, journal: &Journal, p: &Planned, resp: &Response) {
    let (label, indeterminate) = failure_label(resp);
    out.abort(&label);
    out.failed += 1;
    if indeterminate {
        for &(slot, _) in &p.writes {
            journal.mark_uncertain(slot);
        }
    }
}

/// One generated long transaction: scan `[low, high]` (pairs only),
/// then rewrite one pair.
pub struct LongPlan {
    pub low_row: u32,
    pub rows: u32,
    pub pair: u32,
}

/// Interactive long `Serializable` transactions until `win.end`: scan,
/// rewrite one pair, commit sync. An aborted attempt is retried with the
/// same plan (a fresh snapshot); a logical transaction fails only after
/// `MAX_ATTEMPTS`.
pub fn run_long(
    client: &mut Client,
    table: u32,
    win: Window,
    journal: &Journal,
    gen: &mut dyn FnMut(&Journal) -> LongPlan,
    out: &mut StreamResult,
) -> Result<(), ClientError> {
    const MAX_ATTEMPTS: u32 = 50;
    while Instant::now() < win.end {
        let plan = gen(journal);
        let started = Instant::now();
        let version = journal.next_version(plan.pair);
        let mut committed = false;
        for _ in 0..MAX_ATTEMPTS {
            out.attempts += 1;
            match long_attempt(client, table, &plan, version, out)? {
                Ok(()) => {
                    committed = true;
                    break;
                }
                Err(resp) => {
                    let (label, indeterminate) = failure_label(&resp);
                    out.abort(&label);
                    if indeterminate {
                        journal.mark_uncertain(plan.pair);
                        break;
                    }
                }
            }
        }
        let now = Instant::now();
        if committed {
            journal.ack(plan.pair, version);
            out.user_bytes += 2 * 16;
            if win.inside(started) && win.inside(now) {
                out.long_committed += 1;
                out.long_ns.push(now.duration_since(started).as_nanos() as u64);
            }
        } else {
            out.failed += 1;
        }
    }
    Ok(())
}

/// One attempt; `Ok(Err(reply))` is a transaction-level failure.
fn long_attempt(
    client: &mut Client,
    table: u32,
    plan: &LongPlan,
    version: u32,
    out: &mut StreamResult,
) -> Result<Result<(), Response>, ClientError> {
    let server_err = |e: ClientError| -> Result<Response, ClientError> {
        match e {
            ClientError::Server { code, detail } => Ok(Response::Error { code, detail }),
            ClientError::Busy => Ok(Response::Busy),
            other => Err(other),
        }
    };
    if let Err(e) = client.begin(WireIsolation::Serializable) {
        return Ok(Err(server_err(e)?));
    }
    let low = crate::gen::pair_key(plan.low_row);
    let high = crate::gen::pair_key(plan.low_row + plan.rows - 1);
    let step = (|| -> Result<(), ClientError> {
        let (rows, truncated) = client.scan(table, &low, &high, 0)?;
        if let Err(e) = checks::scan_pairs(plan.low_row, plan.rows, truncated, &rows) {
            out.errors.push(e);
        }
        let value = crate::gen::pair_value(plan.pair, version);
        client.put(table, &crate::gen::pair_key(2 * plan.pair), &value)?;
        client.put(table, &crate::gen::pair_key(2 * plan.pair + 1), &value)?;
        Ok(())
    })();
    if let Err(e) = step {
        let resp = server_err(e)?;
        client.abort()?;
        return Ok(Err(resp));
    }
    match client.commit(true) {
        Ok(_) => Ok(Ok(())),
        Err(e) => Ok(Err(server_err(e)?)),
    }
}
