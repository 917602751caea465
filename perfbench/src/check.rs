//! The correctness gate's comparisons: report bodies against the
//! sequential reference, exact counts, and view decoding.

use sketches_serve::Json;
use sketches_streamdb::{AggregateResult, EngineView, SketchEngine, Value};
use sketches_workloads::ServingEvent;

/// One aggregate as a comparable shape: its name plus numeric fields in
/// rendering order.
type Shape = (String, Vec<(String, f64)>);

/// The shape the server renders for one aggregate result.
fn expected_shape(agg: &AggregateResult) -> Shape {
    let (name, fields): (&str, Vec<(&str, f64)>) = match agg {
        AggregateResult::Count(n) => ("count", vec![("value", *n as f64)]),
        AggregateResult::Sum(x) => ("sum", vec![("value", *x)]),
        AggregateResult::CountDistinct(x) => ("count_distinct", vec![("value", *x)]),
        AggregateResult::Quantiles { p50, p95, p99 } => (
            "quantiles",
            vec![("p50", *p50), ("p95", *p95), ("p99", *p99)],
        ),
        AggregateResult::Frequency { total } => ("frequency", vec![("total", *total as f64)]),
        AggregateResult::TopK(items) => ("top_k", vec![("items", items.len() as f64)]),
    };
    (
        name.to_string(),
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Parses a single-key `/v1/report` body into aggregate shapes.
///
/// # Errors
/// A description of the malformed body.
pub fn report_shapes(body: &str) -> Result<Vec<Shape>, String> {
    let doc = Json::parse(body).map_err(|e| format!("report body: {e}"))?;
    let aggs = doc
        .get("aggregates")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("report without aggregates: {body}"))?;
    aggs.iter()
        .map(|a| match a {
            Json::Obj(fields) => {
                let name = a
                    .get("agg")
                    .and_then(Json::as_str)
                    .ok_or("aggregate without a name")?;
                let values = fields
                    .iter()
                    .filter(|(k, _)| k != "agg")
                    .map(|(k, v)| {
                        v.as_f64()
                            .map(|x| (k.clone(), x))
                            .ok_or_else(|| format!("non-numeric field {k}"))
                    })
                    .collect::<Result<_, _>>()?;
                Ok((name.to_string(), values))
            }
            _ => Err("aggregate is not an object".to_string()),
        })
        .collect()
}

/// The `count` aggregate of a report body.
///
/// # Errors
/// When the body is malformed or has no count.
pub fn report_count(body: &str) -> Result<u64, String> {
    report_shapes(body)?
        .into_iter()
        .find(|(name, _)| name == "count")
        .and_then(|(_, f)| f.first().map(|(_, v)| *v as u64))
        .ok_or_else(|| format!("report without a count: {body}"))
}

/// Checks a report body against the reference engine's report for
/// `group`, aggregate by aggregate and bit for bit.
///
/// # Errors
/// A description of the first difference.
pub fn matches_reference(body: &str, group: u64, reference: &SketchEngine) -> Result<(), String> {
    let want = reference
        .report(&[Value::U64(group)])
        .map_err(|e| format!("reference report: {e}"))?
        .ok_or_else(|| format!("reference has no group {group}"))?;
    let want: Vec<Shape> = want.iter().map(expected_shape).collect();
    let got = report_shapes(body)?;
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "group {group}: server {got:?} != reference {want:?}"
        ))
    }
}

/// Rows per group (index = group key) over the preload plus `acked`
/// batches of the pool.
#[must_use]
pub fn exact_counts(
    groups: u64,
    preload: &[ServingEvent],
    pool: &[Vec<ServingEvent>],
    acked: &[usize],
) -> Vec<u64> {
    let mut counts = vec![0u64; groups as usize + 1];
    let events = preload
        .iter()
        .chain(acked.iter().flat_map(|&i| pool[i % pool.len()].iter()));
    for e in events {
        counts[e.group as usize] += 1;
    }
    counts
}

/// What a `/v1/view` body decoded to: the groups and rows it covers, or
/// why it did not decode.
pub type ViewSummary = Result<(u64, u64), String>;

/// Decodes a `/v1/view` body into the groups and rows it covers.
///
/// # Errors
/// The decode failure.
pub fn decode_view(bytes: &[u8]) -> ViewSummary {
    let view = EngineView::from_view_bytes(bytes).map_err(|e| format!("view decode: {e}"))?;
    Ok((view.num_groups() as u64, view.rows_processed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketches_streamdb::{Aggregate, QuerySpec};

    #[test]
    fn reference_comparison_accepts_equal_and_rejects_different() {
        let spec = QuerySpec::new(
            vec![0],
            vec![Aggregate::Count, Aggregate::Quantiles { field: 1 }],
        )
        .unwrap();
        let mut engine = SketchEngine::new(spec).unwrap();
        let rows: Vec<_> = (0..50u64)
            .map(|i| vec![Value::U64(1), Value::U64(i)])
            .collect();
        engine.process_batch(&rows).unwrap();
        let report = engine.report(&[Value::U64(1)]).unwrap().unwrap();
        let AggregateResult::Quantiles { p50, p95, p99 } = report[1] else {
            panic!("quantiles expected")
        };
        let body = format!(
            "{{\"key\":[1],\"aggregates\":[{{\"agg\":\"count\",\"value\":50}},\
             {{\"agg\":\"quantiles\",\"p50\":{p50},\"p95\":{p95},\"p99\":{p99}}}]}}"
        );
        assert_eq!(matches_reference(&body, 1, &engine), Ok(()));
        assert_eq!(report_count(&body), Ok(50));
        let wrong = body.replace("\"value\":50", "\"value\":49");
        assert!(matches_reference(&wrong, 1, &engine).is_err());
    }

    #[test]
    fn exact_counts_cycle_the_pool() {
        let ev = |group| ServingEvent {
            group,
            user: 0,
            value: 0.0,
        };
        let pool = vec![vec![ev(1), ev(2)], vec![ev(2)]];
        let counts = exact_counts(2, &[ev(1), ev(2)], &pool, &[0, 1, 2]);
        assert_eq!(counts, vec![0, 3, 4]);
    }
}
