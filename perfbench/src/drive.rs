//! Driving a live server over loopback HTTP: set-up with preload, the
//! timed closed- and open-loop phases, the quiescent probe, and restart.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use sketches_serve::{Backend, Json, Sampling, Server, ServerConfig, TraceConfig};
use sketches_streamdb::{CheckpointPolicy, ConcurrentEngine, DurableEngine};

use crate::check::{self, ViewSummary};
use crate::http::{exchange, Reply};
use crate::workload::{Inputs, Params, SHARDS};

/// Failure descriptions kept per phase; the count is always exact.
const KEPT_ERRORS: usize = 20;
/// How long a restarted server may take to report ready.
const READY_WITHIN: Duration = Duration::from_secs(60);
/// Load offered before the timed phase, so the heap has grown and the
/// first densifying sketch updates are behind the measurement. Its
/// requests are checked like any other but not timed.
const WARMUP: Duration = Duration::from_secs(5);

/// A running server plus what a restart needs to rebuild it.
#[derive(Debug)]
pub struct Live {
    /// The server under test.
    pub server: Server,
    /// Its bound address.
    pub addr: SocketAddr,
    /// The WAL/checkpoint directory of a durable backend.
    dir: Option<PathBuf>,
}

/// Server settings: default admission, generous deadlines (the client
/// here is the benchmark, which waits), and the given trace sampling.
fn config(sampling: Sampling) -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        request_budget: Duration::from_secs(30),
        trace: TraceConfig {
            sampling,
            ..TraceConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// The workload's checkpoint policy (row-bounded only).
pub fn policy(p: &Params) -> CheckpointPolicy {
    CheckpointPolicy::new(p.checkpoint_rows, u64::MAX).expect("non-zero checkpoint bound")
}

/// Renders a library error as the benchmark's error text.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sends one ingest body and checks it was acknowledged whole.
fn ingest(addr: SocketAddr, body: &str, rows: usize) -> (Result<(), String>, Option<String>) {
    let reply = exchange(addr, "POST", "/v1/ingest", body.as_bytes());
    let trace = reply.as_ref().ok().and_then(|r| r.trace_id.clone());
    let verdict = reply.and_then(|r| {
        if r.status != 200 {
            return Err(format!("ingest status {}: {}", r.status, r.text()));
        }
        let ingested = Json::parse(&r.text())
            .ok()
            .and_then(|j| j.get("ingested").and_then(Json::as_u64));
        if ingested == Some(rows as u64) {
            Ok(())
        } else {
            Err(format!("ingest acked {ingested:?} rows of {rows}"))
        }
    });
    (verdict, trace)
}

/// `GET` returning the body of a 200, or a description of the failure.
fn get_ok(addr: SocketAddr, path: &str) -> (Result<Reply, String>, Duration) {
    let sent = Instant::now();
    let reply = exchange(addr, "GET", path, b"").and_then(|r| {
        if r.status == 200 {
            Ok(r)
        } else {
            Err(format!("GET {path} status {}: {}", r.status, r.text()))
        }
    });
    (reply, sent.elapsed())
}

/// The report path for one group key.
fn report_path(group: u64) -> String {
    format!("/v1/report?key=%5B{group}%5D")
}

/// Set-up: builds the engine (durable in `dir` when the workload is),
/// starts the server and preloads every group once. Returns the live
/// server and the seconds it took.
///
/// # Errors
/// Any construction failure or a preload request that was not acked.
pub fn start(
    p: &Params,
    inputs: &Inputs,
    sampling: Sampling,
    dir: Option<PathBuf>,
) -> Result<(Live, f64), String> {
    let began = Instant::now();
    let engine = ConcurrentEngine::new(p.spec(), SHARDS).map_err(err)?;
    let backend = match &dir {
        Some(d) => Backend::durable(
            DurableEngine::create(d.clone(), engine, policy(p)).map_err(err)?,
            d.clone(),
        ),
        None => Backend::Volatile(engine),
    };
    let server = Server::start(config(sampling), backend)?;
    let addr = server.addr();
    for (body, chunk) in inputs
        .preload_bodies
        .iter()
        .zip(inputs.preload.chunks(8_192))
    {
        ingest(addr, body, chunk.len()).0?;
    }
    Ok((Live { server, addr, dir }, began.elapsed().as_secs_f64()))
}

/// Drains the server, rebuilds its engine (WAL recovery for a durable
/// backend, an in-memory snapshot hand-off for a volatile one), starts a
/// new server and waits for `/readyz`. Returns the new server and the
/// seconds from drain to ready.
///
/// # Errors
/// A failed drain checkpoint, recovery, or start, or no readiness.
pub fn restart(live: Live, p: &Params, sampling: Sampling) -> Result<(Live, f64), String> {
    let began = Instant::now();
    let Live { server, dir, .. } = live;
    let reader = server.reader();
    let drained = server.shutdown();
    if let Some(e) = drained.checkpoint_error {
        return Err(format!("drain checkpoint: {e}"));
    }
    let backend = match &dir {
        Some(d) => {
            drop(reader);
            Backend::durable(
                DurableEngine::recover_with_policy(d.clone(), policy(p)).map_err(err)?,
                d.clone(),
            )
        }
        None => Backend::Volatile(
            ConcurrentEngine::from_snapshot_bytes(&reader.to_snapshot_bytes()).map_err(err)?,
        ),
    };
    let server = Server::start(config(sampling), backend)?;
    let addr = server.addr();
    loop {
        if matches!(exchange(addr, "GET", "/readyz", b""), Ok(r) if r.status == 200) {
            break;
        }
        if began.elapsed() > READY_WITHIN {
            return Err("restarted server never became ready".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok((Live { server, addr, dir }, began.elapsed().as_secs_f64()))
}

/// What one phase of requests observed.
#[derive(Debug, Default)]
pub struct Load {
    /// Ingest latencies, ms (closed loop: from send; open loop: from due).
    pub ingest_ms: Vec<f64>,
    /// Report latencies, ms (from due, or from send when quiescent).
    pub report_ms: Vec<f64>,
    /// View latencies, ms.
    pub view_ms: Vec<f64>,
    /// How late the open-loop generator sent, ms.
    pub lag_ms: Vec<f64>,
    /// Pool-stream indices of acknowledged ingests, in send order.
    pub acked: Vec<usize>,
    /// Rows acknowledged, warm-up included.
    pub rows_acked: u64,
    /// Rows acknowledged for requests sent in the timed phase.
    pub rows_timed: u64,
    /// Wall time of the timed phase, seconds.
    pub seconds: f64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed or answered wrongly.
    pub failed: u64,
    /// The first few failures, described.
    pub errors: Vec<String>,
    /// Client-observed latency from send, ms, by trace id.
    pub client_ms: HashMap<String, f64>,
    /// `(group, count)` of every report read, in send order.
    pub seen_counts: Vec<(u64, u64)>,
    /// Every view pulled, decoded as soon as it arrived (outside its
    /// timing): `(groups, rows)`, or why it did not decode.
    pub views: Vec<ViewSummary>,
}

impl Load {
    /// Counts one failure.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(what);
        }
    }

    fn traced(&mut self, trace: Option<String>, sent_ms: f64) {
        if let Some(t) = trace {
            self.client_ms.insert(t, sent_ms);
        }
    }

    /// Folds another phase's observations into this one.
    pub fn absorb(&mut self, other: Load) {
        self.ingest_ms.extend(other.ingest_ms);
        self.report_ms.extend(other.report_ms);
        self.view_ms.extend(other.view_ms);
        self.lag_ms.extend(other.lag_ms);
        self.acked.extend(other.acked);
        self.rows_acked += other.rows_acked;
        self.rows_timed += other.rows_timed;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < KEPT_ERRORS {
                self.errors.push(e);
            }
        }
        self.client_ms.extend(other.client_ms);
        self.seen_counts.extend(other.seen_counts);
        self.views.extend(other.views);
    }

    fn ingest_result(&mut self, idx: usize, rows: usize, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => {
                self.acked.push(idx);
                self.rows_acked += rows as u64;
                true
            }
            Err(e) => {
                self.fail(e);
                false
            }
        }
    }
}

/// Closed loop: `clients` threads each send the next batch of the pool
/// stream as soon as their previous ingest answered, for [`WARMUP`] and
/// then `seconds` timed.
pub fn closed_loop(
    addr: SocketAddr,
    p: &Params,
    inputs: &Inputs,
    clients: usize,
    seconds: f64,
) -> Load {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + WARMUP;
    let end = start + Duration::from_secs_f64(seconds);
    let parts: Vec<(Load, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut load = Load::default();
                    let mut last = start;
                    while Instant::now() < end {
                        let idx = next.fetch_add(1, Ordering::SeqCst);
                        let body = &inputs.bodies[idx % inputs.bodies.len()];
                        let sent = Instant::now();
                        let (result, trace) = ingest(addr, body, p.batch_rows);
                        last = Instant::now();
                        let took = ms(last - sent);
                        if load.ingest_result(idx, p.batch_rows, result) && sent >= start {
                            load.rows_timed += p.batch_rows as u64;
                            load.ingest_ms.push(took);
                            load.traced(trace, took);
                        }
                    }
                    (load, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let mut load = Load::default();
    let mut last = start;
    for (part, finished) in parts {
        load.absorb(part);
        last = last.max(finished);
    }
    load.seconds = (last - start).as_secs_f64();
    load
}

/// Timing of one scheduled slot.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// How late the slot was sent relative to when it was due, ms.
    pub lag_ms: f64,
    /// From due to done, ms.
    pub latency_ms: f64,
    /// From send to done, ms.
    pub service_ms: f64,
}

/// When slot `i` of a schedule running `per_s` slots a second is due,
/// exactly (no accumulated rounding of a per-slot period).
fn due(start: Instant, i: usize, per_s: u32) -> Instant {
    start + Duration::from_secs(i as u64) / per_s
}

/// Open-loop schedule: slot `i` is due at `start + i / per_s` s, for every
/// slot due before `end`. A slot waits for its due time but never for a
/// late predecessor beyond that predecessor finishing, and its latency
/// counts from when it was due, so a stall delays every slot behind it.
pub fn schedule<T>(
    start: Instant,
    end: Instant,
    per_s: u32,
    mut op: impl FnMut(usize) -> T,
) -> Vec<(T, Slot)> {
    let mut out = Vec::new();
    for i in 0.. {
        let due = due(start, i, per_s);
        if due >= end {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let result = op(i);
        let done = Instant::now();
        out.push((
            result,
            Slot {
                lag_ms: ms(sent.saturating_duration_since(due)),
                latency_ms: ms(done.saturating_duration_since(due)),
                service_ms: ms(done - sent),
            },
        ));
    }
    out
}

/// What the open-loop writer did in one slot.
enum WriterOp {
    Ingest(usize, Result<(), String>, Option<String>),
    View(Result<(Reply, ViewSummary), String>),
}

/// Open loop: a writer thread with fixed slots (ingests and view pulls)
/// and a reader thread sending reports on Zipf-hot keys, both on a
/// schedule, for [`WARMUP`] and then `seconds` timed.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    addr: SocketAddr,
    p: &Params,
    inputs: &Inputs,
    slots_per_s: u32,
    views_per_s: u32,
    reports_per_s: u32,
    seconds: f64,
) -> Load {
    let begin = Instant::now() + Duration::from_millis(5);
    let start = begin + WARMUP;
    let end = start + Duration::from_secs_f64(seconds);
    let (slots, views) = (slots_per_s as usize, views_per_s as usize);
    let (writer, reader) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut next = 0usize;
            schedule(begin, end, slots_per_s, |i| {
                // `views_per_s` of every `slots_per_s` slots pull a view,
                // spread evenly and ending each cycle.
                if (i + 1) * views % slots < views {
                    let reply = get_ok(addr, "/v1/view").0;
                    WriterOp::View(reply.map(|r| {
                        let decoded = check::decode_view(&r.body);
                        (r, decoded)
                    }))
                } else {
                    let idx = next;
                    next += 1;
                    let body = &inputs.bodies[idx % inputs.bodies.len()];
                    let (result, trace) = ingest(addr, body, p.batch_rows);
                    WriterOp::Ingest(idx, result, trace)
                }
            })
        });
        let reader = s.spawn(|| {
            schedule(begin, end, reports_per_s, |j| {
                let group = inputs.query_keys[j % inputs.query_keys.len()];
                let reply = get_ok(addr, &report_path(group)).0;
                (group, reply)
            })
        });
        (
            writer.join().expect("open-loop writer panicked"),
            reader.join().expect("open-loop reader panicked"),
        )
    });
    let mut load = Load {
        seconds: start.elapsed().as_secs_f64(),
        ..Load::default()
    };
    // Slots due before `start` are the warm-up: checked, not timed.
    let timed = |i: usize, per_s: u32| due(begin, i, per_s) >= start;
    for (i, (op, slot)) in writer.into_iter().enumerate() {
        let timed = timed(i, slots_per_s);
        if timed {
            load.lag_ms.push(slot.lag_ms);
        }
        match op {
            WriterOp::Ingest(idx, result, trace) => {
                if load.ingest_result(idx, p.batch_rows, result) && timed {
                    load.rows_timed += p.batch_rows as u64;
                    load.ingest_ms.push(slot.latency_ms);
                    load.traced(trace, slot.service_ms);
                }
            }
            WriterOp::View(reply) => {
                load.attempted += 1;
                match reply {
                    Ok((r, decoded)) => {
                        load.views.push(decoded);
                        if timed {
                            load.view_ms.push(slot.latency_ms);
                            load.traced(r.trace_id, slot.service_ms);
                        }
                    }
                    Err(e) => load.fail(e),
                }
            }
        }
    }
    for (j, ((group, reply), slot)) in reader.into_iter().enumerate() {
        let timed = timed(j, reports_per_s);
        if timed {
            load.lag_ms.push(slot.lag_ms);
        }
        load.attempted += 1;
        match reply.and_then(|r| Ok((check::report_count(&r.text())?, r.trace_id))) {
            Ok((count, trace)) => {
                if timed {
                    load.report_ms.push(slot.latency_ms);
                    load.traced(trace, slot.service_ms);
                }
                load.seen_counts.push((group, count));
            }
            Err(e) => load.fail(e),
        }
    }
    load
}

/// Quiescent probe: `rounds` passes of reports over `groups` (every pass
/// must read the same bodies) with `views` view pulls spread evenly
/// between them, one request at a time. Returns the phase and the first
/// pass's report bodies.
pub fn probe(
    addr: SocketAddr,
    groups: &[u64],
    rounds: usize,
    views: usize,
) -> (Load, Vec<(u64, String)>) {
    let mut load = Load::default();
    let mut first: Vec<(u64, String)> = Vec::new();
    for round in 0..rounds {
        for (k, &group) in groups.iter().enumerate() {
            load.attempted += 1;
            let (reply, took) = get_ok(addr, &report_path(group));
            match reply {
                Ok(r) => {
                    load.report_ms.push(ms(took));
                    let body = r.text();
                    if round == 0 {
                        first.push((group, body));
                    } else if first[k].1 != body {
                        load.fail(format!("group {group}: report changed while quiescent"));
                    }
                }
                Err(e) => {
                    load.fail(e);
                    if round == 0 {
                        first.push((group, String::new()));
                    }
                }
            }
        }
        let due = (round + 1) * views / rounds - round * views / rounds;
        for _ in 0..due {
            load.attempted += 1;
            let (reply, took) = get_ok(addr, "/v1/view");
            match reply {
                Ok(r) => {
                    load.view_ms.push(ms(took));
                    load.views.push(check::decode_view(&r.body));
                }
                Err(e) => load.fail(e),
            }
        }
    }
    (load, first)
}

/// Fetches a JSON document from the server.
///
/// # Errors
/// A failed request or an unparseable body.
pub fn get_json(addr: SocketAddr, path: &str) -> Result<Json, String> {
    let reply = get_ok(addr, path).0?;
    Json::parse(&reply.text()).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake server answers in 2 ms, except that its third request
    /// stalls for 120 ms. Requests are due every 10 ms.
    #[test]
    fn a_stall_inflates_the_requests_scheduled_behind_it() {
        let start = Instant::now();
        let end = start + Duration::from_millis(100);
        let fake_server = |i: usize| {
            let service = if i == 2 { 120 } else { 2 };
            std::thread::sleep(Duration::from_millis(service));
        };
        let slots = schedule(start, end, 100, fake_server);
        assert_eq!(slots.len(), 10);
        // Before the stall, latency is service time.
        assert!(slots[0].1.latency_ms < 60.0);
        // The stall itself.
        assert!(slots[2].1.latency_ms >= 120.0);
        // Every later request was due during the stall, so it waited:
        // its latency from due far exceeds its own 2 ms of service.
        for (_, slot) in &slots[3..] {
            assert!(slot.service_ms < 60.0, "{slot:?}");
            assert!(slot.lag_ms > 20.0, "{slot:?}");
            assert!(slot.latency_ms > slot.service_ms + 20.0, "{slot:?}");
        }
        // Latency from send alone would have hidden the stall.
        let from_send: f64 = slots[3..].iter().map(|(_, s)| s.service_ms).sum();
        let from_due: f64 = slots[3..].iter().map(|(_, s)| s.latency_ms).sum();
        assert!(from_due > 4.0 * from_send);
    }
}
