//! Named metrics with units, the metrics a run had to drop (and why),
//! and their JSON rendering.

use std::fmt::Write as _;

use crate::stats::{beyond, highest_supported, quantile, MIN_BEYOND};

/// Metrics collected by one run, in insertion order.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    dropped: Vec<(String, String)>,
    samples: Vec<(String, usize)>,
}

/// `0.5 → "50"`, `0.9 → "90"`, `0.99 → "99"`.
fn pct(q: f64) -> String {
    format!("{}", (q * 100.0).round() as u32)
}

impl Report {
    /// Records a metric (a non-finite value is dropped instead).
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        if value.is_finite() {
            self.metrics
                .push((name.to_string(), value, unit.to_string()));
        } else {
            self.drop_metric(name, "not a finite number");
        }
    }

    /// Records a metric, or drops it as having no samples.
    pub fn put_opt(&mut self, name: &str, value: Option<f64>, unit: &str) {
        match value {
            Some(v) => self.put(name, v, unit),
            None => self.drop_metric(name, "no samples"),
        }
    }

    /// Names a metric the run could not report, with the reason.
    pub fn drop_metric(&mut self, name: &str, why: &str) {
        self.dropped.push((name.to_string(), why.to_string()));
    }

    /// Records `{base}.p{NN}` for each quantile the sample supports and
    /// drops the rest, plus the sample count.
    pub fn quantiles(&mut self, base: &str, samples: &[f64], qs: &[f64], unit: &str) {
        self.quantiles_named(samples, qs, unit, base, &|q| format!("{base}.p{}", pct(q)));
    }

    /// Records `{prefix}_p{NN}_ms` (the end-to-end naming) for each
    /// quantile the sample supports and drops the rest.
    pub fn latencies(&mut self, prefix: &str, samples: &[f64], qs: &[f64]) {
        self.quantiles_named(samples, qs, "ms", prefix, &|q| {
            format!("{prefix}_p{}_ms", pct(q))
        });
    }

    fn quantiles_named(
        &mut self,
        samples: &[f64],
        qs: &[f64],
        unit: &str,
        base: &str,
        name: &dyn Fn(f64) -> String,
    ) {
        self.samples.push((base.to_string(), samples.len()));
        for &q in qs {
            match quantile(samples, q) {
                Some(v) => self.put(&name(q), v, unit),
                None => self.drop_metric(
                    &name(q),
                    &format!(
                        "{} samples leave {} beyond p{}, fewer than {MIN_BEYOND}",
                        samples.len(),
                        beyond(q, samples.len()),
                        pct(q)
                    ),
                ),
            }
        }
    }

    /// A recorded metric's value.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Every recorded metric as `{"name":{"value":v,"unit":u},...}`.
    #[must_use]
    pub fn all_json(&self) -> String {
        let picked: Vec<(&str, f64, &str)> = self
            .metrics
            .iter()
            .map(|(n, v, u)| (n.as_str(), *v, u.as_str()))
            .collect();
        metrics_json(&picked)
    }

    /// The dropped metrics as `{"name":"why",...}`.
    #[must_use]
    pub fn dropped_json(&self) -> String {
        object(self.dropped.iter().map(|(n, w)| (n.as_str(), quote(w))))
    }

    /// Sample count behind each percentile family, and the highest of
    /// p50/p90/p99 that count supports.
    #[must_use]
    pub fn samples_json(&self) -> String {
        object(self.samples.iter().map(|(n, c)| {
            let top = highest_supported(&[0.5, 0.9, 0.99], *c)
                .map_or("null".to_string(), |q| quote(&format!("p{}", pct(q))));
            (n.as_str(), format!("{{\"n\":{c},\"highest\":{top}}}"))
        }))
    }
}

/// Renders `(name, value, unit)` triples as a metrics object.
#[must_use]
pub fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    object(
        metrics
            .iter()
            .map(|(n, v, u)| (*n, format!("{{\"value\":{v},\"unit\":{}}}", quote(u)))),
    )
}

/// Renders `(key, raw JSON)` pairs as an object.
pub fn object<'a>(pairs: impl Iterator<Item = (&'a str, String)>) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{v}", quote(k));
    }
    out.push('}');
    out
}

/// A JSON string literal.
#[must_use]
pub fn quote(s: &str) -> String {
    sketches_serve::json::escape(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thin_tails_are_dropped_with_a_reason() {
        let mut r = Report::default();
        let xs: Vec<f64> = (1..=150).map(f64::from).collect();
        r.latencies("ingest", &xs, &[0.5, 0.9, 0.99]);
        assert_eq!(r.value("ingest_p50_ms"), Some(75.0));
        assert_eq!(r.value("ingest_p90_ms"), Some(135.0));
        assert_eq!(r.value("ingest_p99_ms"), None);
        assert!(r.dropped_json().contains("ingest_p99_ms"));
        assert!(r.dropped_json().contains("fewer than 10"));
        assert_eq!(
            r.samples_json(),
            "{\"ingest\":{\"n\":150,\"highest\":\"p90\"}}"
        );
    }

    #[test]
    fn renders_metrics_with_units() {
        assert_eq!(
            metrics_json(&[("a", 1.5, "ms"), ("b", 2.0, "s")]),
            "{\"a\":{\"value\":1.5,\"unit\":\"ms\"},\"b\":{\"value\":2,\"unit\":\"s\"}}"
        );
    }
}
