//! Per-layer numbers from a traced HTTP pass: the server's stage
//! histograms and its retained request traces.

use std::collections::HashMap;

use sketches_serve::Json;

use crate::drive::Load;
use crate::report::Report;
use crate::stats::{median, supports};

/// Stages read from `stage_latency_seconds{stage=...}`.
const STAGES: [&str; 8] = [
    "parse",
    "queue_wait",
    "engine_apply",
    "publish",
    "wal_append",
    "fsync",
    "write",
    "checkpoint",
];

fn nanos_ms(j: Option<&Json>) -> Option<f64> {
    j.and_then(Json::as_f64).map(|n| n / 1e6)
}

/// Records `serve.stage.<s>_ms.p50/.p90` from a `/metrics?format=json`
/// document. A stage that never ran on this workload's path reads 0 and
/// is named as dropped; so is a tail its sample count does not support.
/// Checkpoints are too few per run for a tail, so only their median is
/// kept.
pub fn stages(metrics: &Json, out: &mut Report) {
    let hist = metrics.get("histograms");
    for stage in STAGES {
        let h = hist.and_then(|h| h.get(&format!("stage_latency_seconds{{stage=\"{stage}\"}}")));
        let count = h
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let tails: &[(&str, &str, f64)] = if stage == "checkpoint" {
            &[("p50", "p50_nanos", 0.5)]
        } else {
            &[("p50", "p50_nanos", 0.5), ("p90", "p90_nanos", 0.9)]
        };
        for &(label, field, q) in tails {
            let name = format!("serve.stage.{stage}_ms.{label}");
            let value = h.and_then(|h| nanos_ms(h.get(field)));
            match value {
                Some(v) if supports(q, count as usize) => out.put(&name, v, "ms"),
                _ if count == 0 => {
                    out.put(&name, 0.0, "ms");
                    out.drop_metric(&name, "stage not on this workload's path (reads 0)");
                }
                _ => {
                    out.put(&name, 0.0, "ms");
                    out.drop_metric(
                        &name,
                        &format!("{count} samples do not support {label} (reads 0)"),
                    );
                }
            }
        }
    }
}

/// One retained trace reduced to what the benchmark checks.
struct Audited {
    root_ms: f64,
    stage_ms: f64,
    trace_id: String,
}

fn audit(trace: &Json) -> Result<Audited, String> {
    let root_ns = trace
        .get("duration_nanos")
        .and_then(Json::as_u64)
        .ok_or("trace without a root duration")?;
    let trace_id = trace
        .get("trace_id")
        .and_then(Json::as_str)
        .ok_or("trace without an id")?
        .to_string();
    let spans = trace
        .get("spans")
        .and_then(Json::as_array)
        .ok_or("trace without spans")?;
    let mut stage_ns = 0u64;
    for span in spans.iter().skip(1) {
        // `handle` contains the engine stages; counting it would
        // double-book them.
        if span.get("stage").and_then(Json::as_str) == Some("handle") {
            continue;
        }
        let start = span.get("start_nanos").and_then(Json::as_u64);
        let end = span.get("end_nanos").and_then(Json::as_u64);
        let (Some(start), Some(end)) = (start, end) else {
            return Err("span without start/end".to_string());
        };
        stage_ns += end.saturating_sub(start);
    }
    if stage_ns > root_ns {
        return Err(format!(
            "trace {trace_id}: stage spans ({stage_ns} ns) exceed the root span ({root_ns} ns)"
        ));
    }
    Ok(Audited {
        root_ms: root_ns as f64 / 1e6,
        stage_ms: stage_ns as f64 / 1e6,
        trace_id,
    })
}

/// Audits every trace in a `/v1/debug/traces` listing (disjoint stage
/// spans must sum to no more than the root span; a violation fails the
/// run) and records the unattributed time per request and the gap
/// between what the client saw and the server's root span.
pub fn requests(
    listing: &Json,
    client_ms: &HashMap<String, f64>,
    out: &mut Report,
    gate: &mut Load,
) {
    let traces = listing
        .get("traces")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    let mut unattributed = Vec::new();
    let mut gap = Vec::new();
    for trace in traces {
        match audit(trace) {
            Ok(a) => {
                unattributed.push(a.root_ms - a.stage_ms);
                if let Some(c) = client_ms.get(&a.trace_id) {
                    gap.push(c - a.root_ms);
                }
            }
            Err(e) => gate.fail(e),
        }
    }
    out.put("serve.traces_checked", traces.len() as f64, "count");
    out.quantiles("serve.unattributed_ms", &unattributed, &[0.5, 0.9], "ms");
    out.put_opt("serve.client_gap_ms.p50", median(&gap), "ms");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(root: u64, spans: &[(&str, u64, u64)]) -> Json {
        let mut s = format!(
            "{{\"trace_id\":\"t1\",\"duration_nanos\":{root},\"spans\":[{{\"stage\":\"request\",\"start_nanos\":0,\"end_nanos\":{root}}}"
        );
        for (stage, a, b) in spans {
            s.push_str(&format!(
                ",{{\"stage\":\"{stage}\",\"start_nanos\":{a},\"end_nanos\":{b}}}"
            ));
        }
        s.push_str("]}");
        Json::parse(&s).unwrap()
    }

    #[test]
    fn handle_is_not_double_booked_and_overruns_fail() {
        let ok = trace(
            1_000_000,
            &[
                ("parse", 0, 100_000),
                ("handle", 100_000, 900_000),
                ("publish", 200_000, 700_000),
            ],
        );
        let a = audit(&ok).unwrap();
        assert!((a.stage_ms - 0.6).abs() < 1e-12);
        let bad = trace(1_000, &[("parse", 0, 800), ("write", 0, 800)]);
        assert!(audit(&bad).is_err());
    }
}
