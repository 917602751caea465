//! The traced in-process layer ladder: the workload's batches replayed
//! one thread at a time through each layer's public entry points, from
//! the sketch crates (L0) up to the durable engine (L4), with a span
//! around every call.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use sketches_cardinality::HyperLogLogPlusPlus;
use sketches_core::Update;
use sketches_frequency::SfSketch;
use sketches_quantiles::KllSketch;
use sketches_serve::Json;
use sketches_streamdb::{
    ConcurrentEngine, DurableEngine, EngineConfig, MetricsSnapshot, ShardedEngine, SketchEngine,
    Value, SF_DEPTH,
};
use sketches_workloads::ServingEvent;

use crate::drive::{err, policy};
use crate::report::Report;
use crate::stats::median;
use crate::workload::{rows, Inputs, Params, SHARDS};

/// Batches of the pool stream replayed through every layer: enough for
/// 10 samples beyond each layer's p90.
const LADDER_BATCHES: usize = 100;
/// `ReadHandle::report` calls timed against the replayed engine.
const REPORT_CALLS: usize = 2_000;
/// Repetitions of each whole-engine call (view cut, encode, checkpoint).
const REPEATS: usize = 3;

/// One completed span: a named call, its parent, and its interval in
/// nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// In-memory span recorder; written out once, when the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span and returns its result and duration in ms.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = std::hint::black_box(f());
        self.close(id);
        let s = &self.spans[id];
        (out, (s.end_ns - s.start_ns) as f64 / 1e6)
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// The ladder's batches: the first [`LADDER_BATCHES`] of the pool stream.
fn ladder_batches(inputs: &Inputs) -> Vec<&Vec<ServingEvent>> {
    (0..LADDER_BATCHES)
        .map(|i| &inputs.batches[i % inputs.batches.len()])
        .collect()
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// Replays the workload through L0–L4 and the JSON parser, recording a
/// span per call into `spans` and the per-layer metrics into `out`.
/// `dir` is scratch space for the durable layer.
///
/// # Errors
/// Any layer rejecting the replay, which the benchmark treats as a wrong
/// answer.
#[allow(clippy::too_many_lines)]
pub fn run(
    p: &Params,
    inputs: &Inputs,
    dir: &Path,
    spans: &mut Spans,
    out: &mut Report,
) -> Result<(), String> {
    let spec = p.spec();
    let config = EngineConfig::default();
    let batches = ladder_batches(inputs);
    let n_rows: usize = batches.iter().map(|b| b.len()).sum();
    let preload = rows(&inputs.preload);
    let root = Some(spans.open("ladder", None));

    // L0: one sketch per column, fed the whole replayed column at once.
    let users: Vec<Value> = batches
        .iter()
        .flat_map(|b| b.iter().map(|e| Value::U64(e.user)))
        .collect();
    let values: Vec<f64> = batches
        .iter()
        .flat_map(|b| b.iter().map(|e| (e.value as u64) as f64))
        .collect();
    let per_row = |ms: f64| ms * 1e6 / n_rows as f64;
    let mut hll = HyperLogLogPlusPlus::new(config.hll_precision, config.seed).map_err(err)?;
    let ((), t) = spans.time("cardinality.update_slice", root, || {
        hll.update_slice(&users)
    });
    out.put("cardinality.hll_update_ns_per_row", per_row(t), "ns");
    let mut kll = KllSketch::new(config.kll_k, config.seed).map_err(err)?;
    let ((), t) = spans.time("quantiles.update_slice", root, || kll.update_slice(&values));
    out.put("quantiles.kll_update_ns_per_row", per_row(t), "ns");
    let mut sf = SfSketch::new(
        config.sf_fat_width,
        config.sf_slim_width,
        SF_DEPTH,
        config.seed,
    )
    .map_err(err)?;
    let ((), t) = spans.time("frequency.update_slice", root, || sf.update_slice(&users));
    out.put("frequency.sf_update_ns_per_row", per_row(t), "ns");
    drop((users, values, hll, kll, sf));

    // Workload property: the share of all groups one batch touches.
    let share: f64 = batches
        .iter()
        .map(|b| b.iter().map(|e| e.group).collect::<HashSet<_>>().len() as f64)
        .sum::<f64>()
        / (batches.len() as f64 * p.groups as f64);
    out.put("engine.touched_group_share", share, "ratio");

    // L1: the sequential engine.
    let mut engine = SketchEngine::with_config(spec.clone(), config).map_err(err)?;
    engine.process_batch(&preload).map_err(err)?;
    let mut l1 = Vec::new();
    for b in &batches {
        let r = rows(b);
        let (res, t) = spans.time("engine.process_batch", root, || engine.process_batch(&r));
        res.map_err(err)?;
        l1.push(t);
    }
    drop(engine);
    out.quantiles("engine.process_batch_ms", &l1, &[0.5, 0.9], "ms");

    // L2: the sharded engine.
    let mut sharded = ShardedEngine::new(spec.clone(), SHARDS).map_err(err)?;
    sharded.process_batch(&preload).map_err(err)?;
    let mut l2 = Vec::new();
    for b in &batches {
        let r = rows(b);
        let (res, t) = spans.time("sharded.process_batch", root, || sharded.process_batch(&r));
        res.map_err(err)?;
        l2.push(t);
    }
    drop(sharded);
    out.quantiles("sharded.process_batch_ms", &l2, &[0.5, 0.9], "ms");

    // L3: the concurrent engine — batch commit, then its read path.
    let concurrent = ConcurrentEngine::new(spec.clone(), SHARDS).map_err(err)?;
    concurrent
        .submit_batch(preload.clone())
        .wait()
        .map_err(err)?;
    let published_before = counter(&concurrent.metrics(), "snapshots_published_total");
    let mut l3 = Vec::new();
    for b in &batches {
        let r = rows(b);
        let (res, t) = spans.time("concurrent.submit_batch+wait", root, || {
            concurrent.submit_batch(r).wait()
        });
        res.map_err(err)?;
        l3.push(t);
    }
    let published = counter(&concurrent.metrics(), "snapshots_published_total") - published_before;
    out.put(
        "concurrent.snapshots_published_per_batch",
        published as f64 / batches.len() as f64,
        "count",
    );
    out.quantiles("concurrent.batch_ms", &l3, &[0.5, 0.9], "ms");
    if let (Some(a), Some(b)) = (median(&l3), median(&l2)) {
        out.put("concurrent.over_sharded", a / b, "ratio");
    }
    let reader = concurrent.reader();
    let mut report_us = Vec::new();
    for &group in inputs.query_keys.iter().cycle().take(REPORT_CALLS) {
        let key = [Value::U64(group)];
        let (res, t) = spans.time("concurrent.report", root, || reader.report(&key));
        match res {
            Ok(Some(_)) => report_us.push(t * 1e3),
            Ok(None) => return Err(format!("ladder: no group {group} after preload")),
            Err(e) => return Err(err(e)),
        }
    }
    out.quantiles("concurrent.report_us", &report_us, &[0.5, 0.99], "us");
    let mut cut = Vec::new();
    let mut encode = Vec::new();
    let mut bytes = 0;
    for _ in 0..REPEATS {
        let (view, t) = spans.time("concurrent.query_view", root, || concurrent.query_view());
        cut.push(t);
        let (wire, t) = spans.time("view.to_view_bytes", root, || view.to_view_bytes());
        encode.push(t);
        bytes = wire.len();
    }
    out.put_opt("concurrent.query_view_ms", median(&cut), "ms");
    out.put_opt("view.encode_ms", median(&encode), "ms");
    out.put("view.bytes", bytes as f64, "bytes");
    drop((reader, concurrent));

    // L4: the durable engine over a concurrent one, then recovery and
    // checkpoints.
    let _ = std::fs::remove_dir_all(dir);
    let inner = ConcurrentEngine::new(spec, SHARDS).map_err(err)?;
    let mut durable = DurableEngine::create(dir, inner, policy(p)).map_err(err)?;
    durable.process_batch(&preload).map_err(err)?;
    let wal_before = counter(&durable.metrics(), "wal_bytes_written_total");
    let mut l4 = Vec::new();
    for b in &batches {
        let r = rows(b);
        let (res, t) = spans.time("durable.process_batch", root, || durable.process_batch(&r));
        res.map_err(err)?;
        l4.push(t);
    }
    let wal = counter(&durable.metrics(), "wal_bytes_written_total") - wal_before;
    out.quantiles("durable.batch_ms", &l4, &[0.5, 0.9], "ms");
    out.put(
        "durable.wal_bytes_per_row",
        wal as f64 / n_rows as f64,
        "bytes",
    );
    drop(durable);
    let (recovered, t) = spans.time("durable.recover", root, || {
        DurableEngine::<ConcurrentEngine>::recover_with_policy(dir, policy(p))
    });
    let mut durable = recovered.map_err(err)?;
    out.put("durable.recover_s", t / 1e3, "s");
    let (snapshot, _) = spans.time("snapshot.to_snapshot_bytes", root, || {
        durable.engine().to_snapshot_bytes()
    });
    out.put("snapshot.bytes", snapshot.len() as f64, "bytes");
    drop(snapshot);
    let mut checkpoints = Vec::new();
    for _ in 0..REPEATS {
        let (res, t) = spans.time("durable.checkpoint_now", root, || durable.checkpoint_now());
        res.map_err(err)?;
        checkpoints.push(t);
    }
    out.put_opt("durable.checkpoint_ms", median(&checkpoints), "ms");
    drop(durable);
    let _ = std::fs::remove_dir_all(dir);

    // The front door's body parser on the same batches.
    let mut parse = Vec::new();
    for i in 0..batches.len() {
        let body = &inputs.bodies[i % inputs.bodies.len()];
        let (res, t) = spans.time("json.parse", root, || Json::parse(body));
        res.map_err(err)?;
        parse.push(t);
    }
    out.put_opt("json.parse_ms_per_batch", median(&parse), "ms");
    if let Some(id) = root {
        spans.close(id);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::by_name;

    /// The count-based per-layer metrics repeat exactly for one seed.
    #[test]
    fn exact_counts_repeat_across_runs() {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("ladder-test-{}", std::process::id()));
        for name in ["ingest-durable-fewgroups", "ingest-manygroups"] {
            let p = Params {
                groups: 200,
                batch_rows: 64,
                pool_batches: 5,
                checkpoint_rows: 300,
                ..by_name(name).unwrap()
            };
            let inputs = Inputs::generate(&p, 21);
            let counts = |out: &Report| {
                [
                    "engine.touched_group_share",
                    "view.bytes",
                    "snapshot.bytes",
                    "durable.wal_bytes_per_row",
                    "concurrent.snapshots_published_per_batch",
                ]
                .map(|m| out.value(m).unwrap_or_else(|| panic!("{name}: no {m}")))
            };
            let mut first = Report::default();
            run(&p, &inputs, &dir, &mut Spans::default(), &mut first).unwrap();
            let mut second = Report::default();
            run(&p, &inputs, &dir, &mut Spans::default(), &mut second).unwrap();
            assert_eq!(counts(&first), counts(&second), "{name}");
            assert!(counts(&first).iter().all(|&c| c > 0.0), "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
