//! Output checks. Each returns `Err(description)` on a wrong result; any
//! error fails the run (nonzero exit), never just a metric.

use ermia_server::{BatchOp, Response};
use ermia_telemetry::{Span, SpanKind};

use crate::drive::GetCheck;
use crate::gen::{pair_row, pair_version, wide_version};

/// A committed batch's per-op results: one reply per op, every write
/// done, every read a value this benchmark wrote for that key, and the
/// two halves of a pair read in one snapshot equal.
pub fn batch_reply(
    seed: u64,
    gets: &[GetCheck],
    ops: &[BatchOp],
    results: &[Response],
) -> Result<(), String> {
    if results.len() != ops.len() {
        return Err(format!("batch: {} results for {} ops", results.len(), ops.len()));
    }
    let mut gets = gets.iter();
    let mut pair_seen: Option<(u32, Vec<u8>)> = None;
    for (op, res) in ops.iter().zip(results) {
        match (op, res) {
            (BatchOp::Put { .. }, Response::Done { .. }) => {}
            (BatchOp::Get { key, .. }, Response::Value { value }) => {
                let check = gets.next().ok_or("batch: more gets than planned")?;
                let Some(v) = value else {
                    return Err(format!("batch: get {key:?} found no row"));
                };
                match *check {
                    GetCheck::Wide(row) => {
                        if wide_version(seed, row, v).is_none() {
                            return Err(format!("batch: row {row} holds foreign bytes"));
                        }
                    }
                    GetCheck::PairHalf(pair) => {
                        if pair_version(pair, v).is_none() {
                            return Err(format!("batch: pair {pair} holds foreign bytes"));
                        }
                        match &pair_seen {
                            Some((p, first)) if *p == pair && first != v => {
                                return Err(format!(
                                    "batch: pair {pair} halves differ in one snapshot (versions {:?} and {:?})",
                                    pair_version(pair, first),
                                    pair_version(pair, v)
                                ));
                            }
                            _ => pair_seen = Some((pair, v.clone())),
                        }
                    }
                }
            }
            (op, res) => return Err(format!("batch: op {op:?} answered {res:?}")),
        }
    }
    Ok(())
}

/// A long transaction's scan of `rows` rows from `low_row`: complete,
/// contiguous, and every pair equal (snapshot consistency).
pub fn scan_pairs(
    low_row: u32,
    rows: u32,
    truncated: bool,
    got: &[(Vec<u8>, Vec<u8>)],
) -> Result<(), String> {
    if truncated || got.len() != rows as usize {
        return Err(format!(
            "scan from {low_row}: {} of {rows} rows (truncated={truncated})",
            got.len()
        ));
    }
    for (i, pair) in got.chunks(2).enumerate() {
        let row = low_row + 2 * i as u32;
        let [(ka, va), (kb, vb)] = pair else {
            return Err(format!("scan from {low_row}: odd row count"));
        };
        if pair_row(ka) != Some(row) || pair_row(kb) != Some(row + 1) {
            return Err(format!("scan from {low_row}: rows out of order at {row}"));
        }
        if va != vb || pair_version(row / 2, va).is_none() {
            return Err(format!("scan from {low_row}: pair {} torn or foreign", row / 2));
        }
    }
    Ok(())
}

/// A wide row at quiescence against the journal (`None` = outcome of
/// the last write unknown, skip).
pub fn wide_row(
    seed: u64,
    row: u32,
    stored: Option<&[u8]>,
    expected: Option<u32>,
) -> Result<(), String> {
    let Some(want) = expected else { return Ok(()) };
    match stored.map(|v| wide_version(seed, row, v)) {
        Some(Some(got)) if got == want => Ok(()),
        Some(Some(got)) => Err(format!("row {row}: version {got}, last acknowledged {want}")),
        Some(None) => Err(format!("row {row}: foreign bytes")),
        None => Err(format!("row {row}: missing")),
    }
}

/// A pair at quiescence: both halves present, equal, and at the last
/// acknowledged version.
pub fn pair_state(
    pair: u32,
    a: Option<&[u8]>,
    b: Option<&[u8]>,
    expected: Option<u32>,
) -> Result<(), String> {
    let (Some(a), Some(b)) = (a, b) else {
        return Err(format!("pair {pair}: half missing"));
    };
    if a != b {
        return Err(format!("pair {pair}: halves differ"));
    }
    let got = pair_version(pair, a).ok_or_else(|| format!("pair {pair}: foreign bytes"))?;
    match expected {
        Some(want) if want != got => {
            Err(format!("pair {pair}: version {got}, last acknowledged {want}"))
        }
        _ => Ok(()),
    }
}

/// A traced request's spans cover every kind it must have produced.
pub fn span_kinds(trace: &str, spans: &[&Span], required: &[SpanKind]) -> Result<(), String> {
    for kind in required {
        if !spans.iter().any(|s| s.kind == *kind) {
            return Err(format!("trace {trace}: no {} span", kind.label()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{pair_key, pair_value, wide_key, wide_value};

    fn wide_batch(seed: u64) -> (Vec<GetCheck>, Vec<BatchOp>, Vec<Response>) {
        let ops = vec![
            BatchOp::Put {
                table: 0,
                key: wide_key(1).to_vec(),
                value: wide_value(seed, 1, 2).to_vec(),
            },
            BatchOp::Get { table: 0, key: wide_key(7).to_vec() },
        ];
        let results = vec![
            Response::Done { existed: true },
            Response::Value { value: Some(wide_value(seed, 7, 3).to_vec()) },
        ];
        (vec![GetCheck::Wide(7)], ops, results)
    }

    #[test]
    fn batch_reply_accepts_good_and_rejects_corrupted() {
        let (gets, ops, results) = wide_batch(9);
        assert!(batch_reply(9, &gets, &ops, &results).is_ok());

        let mut bad = results.clone();
        bad[1] = Response::Value { value: Some(wide_value(9, 8, 3).to_vec()) };
        assert!(batch_reply(9, &gets, &ops, &bad).is_err(), "another row's value");

        let mut bad = results.clone();
        bad[1] = Response::Value { value: None };
        assert!(batch_reply(9, &gets, &ops, &bad).is_err(), "lost row");

        assert!(batch_reply(9, &gets, &ops, &results[..1]).is_err(), "missing result");

        let mut bad = results;
        bad[0] = Response::Busy;
        assert!(batch_reply(9, &gets, &ops, &bad).is_err(), "write not done");
    }

    #[test]
    fn batch_reply_rejects_torn_pair_read() {
        let ops = vec![
            BatchOp::Get { table: 0, key: pair_key(10).to_vec() },
            BatchOp::Get { table: 0, key: pair_key(11).to_vec() },
        ];
        let gets = vec![GetCheck::PairHalf(5), GetCheck::PairHalf(5)];
        let ok = vec![
            Response::Value { value: Some(pair_value(5, 4).to_vec()) },
            Response::Value { value: Some(pair_value(5, 4).to_vec()) },
        ];
        assert!(batch_reply(0, &gets, &ops, &ok).is_ok());
        let torn = vec![
            Response::Value { value: Some(pair_value(5, 4).to_vec()) },
            Response::Value { value: Some(pair_value(5, 3).to_vec()) },
        ];
        assert!(batch_reply(0, &gets, &ops, &torn).is_err());
    }

    fn scan_rows(low: u32, n: u32) -> Vec<(Vec<u8>, Vec<u8>)> {
        (low..low + n).map(|r| (pair_key(r).to_vec(), pair_value(r / 2, 1).to_vec())).collect()
    }

    #[test]
    fn scan_check_rejects_torn_short_and_unordered_scans() {
        assert!(scan_pairs(20, 10, false, &scan_rows(20, 10)).is_ok());

        let mut torn = scan_rows(20, 10);
        torn[3].1 = pair_value(11, 2).to_vec();
        assert!(scan_pairs(20, 10, false, &torn).is_err(), "torn pair");

        assert!(scan_pairs(20, 10, false, &scan_rows(20, 8)).is_err(), "short scan");
        assert!(scan_pairs(20, 10, true, &scan_rows(20, 10)).is_err(), "truncated scan");

        let mut swapped = scan_rows(20, 10);
        swapped.swap(2, 4);
        assert!(scan_pairs(20, 10, false, &swapped).is_err(), "out of order");
    }

    #[test]
    fn state_checks_reject_stale_lost_and_torn_rows() {
        let v = wide_value(1, 5, 4);
        assert!(wide_row(1, 5, Some(&v), Some(4)).is_ok());
        assert!(wide_row(1, 5, Some(&v), Some(5)).is_err(), "stale row (lost acknowledged write)");
        assert!(wide_row(1, 5, None, Some(4)).is_err(), "missing row");
        assert!(wide_row(1, 5, Some(&v), None).is_ok(), "unknown outcome is skipped");

        let a = pair_value(3, 2);
        let b = pair_value(3, 1);
        assert!(pair_state(3, Some(&a), Some(&a), Some(2)).is_ok());
        assert!(pair_state(3, Some(&a), Some(&b), Some(2)).is_err(), "torn pair (2PC atomicity)");
        assert!(pair_state(3, Some(&b), Some(&b), Some(2)).is_err(), "stale pair");
        assert!(pair_state(3, Some(&a), None, Some(2)).is_err(), "missing half");
    }

    #[test]
    fn span_check_rejects_missing_kind() {
        let span = |kind| Span {
            trace_hi: 1,
            trace_lo: 2,
            span_id: 3,
            parent: 0,
            kind,
            start_ns: 0,
            dur_ns: 1,
            a: 0,
            b: 0,
        };
        let (req, dec) = (span(SpanKind::Request), span(SpanKind::FrameDecode));
        let need = [SpanKind::Request, SpanKind::FrameDecode];
        assert!(span_kinds("t", &[&req, &dec], &need).is_ok());
        assert!(span_kinds("t", &[&req], &need).is_err());
    }
}
