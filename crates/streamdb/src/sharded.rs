//! Sharded, thread-parallel GROUP BY ingest.
//!
//! The ISP-era systems the survey describes (§3) did not run one big
//! aggregation loop: Gigascope pushed GROUP BY state across processors by
//! *partitioning on the grouping key*, so every group lives in exactly one
//! partition and partitions never contend. [`ShardedEngine`] is that
//! design over [`SketchEngine`]:
//!
//! * N shards, each a complete [`SketchEngine`] with the same query spec
//!   and [`EngineConfig`] (identical sketch seeds);
//! * rows are routed by a deterministic hash of their grouping key, so a
//!   group's rows always land on the same shard, in stream order;
//! * during [`process_batch`](ShardedEngine::process_batch) each shard is
//!   driven by its own scoped worker thread, fed row *indices* through a
//!   bounded channel — workers borrow the caller's `&[Row]`, so nothing is
//!   cloned on the ingest path.
//!
//! The batch protocol itself — prevalidation, routing, router quarantine,
//! the commit-or-rollback decision and its typed error — lives in the
//! crate-private `Router`, which [`crate::ConcurrentEngine`] runs too.
//! The two engines differ only in how their shards execute.
//!
//! # Consistency model
//!
//! While a batch is in flight, a shard's state lags the router by at most
//! `channel_depth` rows (the bounded-channel capacity) — but that window
//! is internal: `process_batch` joins every worker before returning, so
//! all public reads ([`report`](ShardedEngine::report),
//! [`flush_window`](ShardedEngine::flush_window), …) observe a fully
//! drained, quiescent engine.
//!
//! Because routing is per-group and each shard applies a group's rows in
//! stream order with the same seeds as a sequential engine, every
//! per-group report is **identical** (not merely statistically close) to
//! what a single [`SketchEngine`] fed the same rows would produce.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crossbeam::channel;
use crossbeam::thread as cb_thread;
use sketches_core::{SketchError, SketchResult};
use sketches_hash::{hash_item, mix64};

use crate::engine::{EngineConfig, SketchEngine};
use crate::fault::{
    panic_message, BatchCause, BatchError, BatchSummary, DeadLetters, FaultInjector, FaultPolicy,
    QuarantinedRow,
};
use crate::metrics::{names, EngineMetrics};
use crate::query::{AggregateResult, QuerySpec};
use crate::value::{Row, Value};

/// Seed of the shard-routing hash. Distinct from every sketch seed so the
/// placement of groups is independent of sketch randomness.
const ROUTE_SEED: u64 = 0x0005_AAED_0C0D;

/// Default bounded-channel capacity between the router and each shard
/// worker (row indices, so 8 KiB per shard at the default). Shared with
/// [`crate::concurrent::ConcurrentEngine`].
pub(crate) const DEFAULT_CHANNEL_DEPTH: usize = 1024;

/// The ascending-key window listing every flush resolves to.
pub(crate) type WindowRows = Vec<(Vec<Value>, Vec<AggregateResult>)>;

/// The shard owning a grouping key: an order-sensitive hash of the key's
/// values, modulo the shard count. Both multi-shard engines route with
/// it, so they place every group on the same shard for a given count.
pub(crate) fn shard_of<'a>(key: impl Iterator<Item = &'a Value>, num_shards: usize) -> usize {
    let mut acc = ROUTE_SEED;
    for v in key {
        acc = mix64(acc ^ hash_item(v, ROUTE_SEED));
    }
    (acc % num_shards as u64) as usize
}

fn short_row() -> SketchError {
    SketchError::invalid("row", "row shorter than query fields")
}

/// The multi-shard batch protocol and the router-level state it keeps,
/// shared by [`ShardedEngine`] (scoped threads per batch) and
/// [`crate::ConcurrentEngine`] (long-lived workers). An engine drives one
/// batch as [`prevalidate`](Self::prevalidate) → start one worker per
/// shard → [`route`](Self::route) → collect each worker's
/// [`WorkerOutcome`] → [`settle`](Self::settle), supplying only how its
/// shards run, commit and roll back.
#[derive(Debug, Clone)]
pub(crate) struct Router {
    pub(crate) spec: QuerySpec,
    /// Capacity of each router→worker row-index channel.
    pub(crate) channel_depth: usize,
    /// Poison-row policy, mirrored into every shard.
    pub(crate) policy: FaultPolicy,
    /// Rows the router itself quarantined (too short to project a
    /// grouping key, so never routable to a shard).
    pub(crate) dead: DeadLetters,
    /// Batch-level telemetry. Row-level counters live in each shard; the
    /// router bumps the batch counters and latency exactly once per
    /// multi-shard batch (workers bypass the shards' own
    /// `process_batch`, so nothing double-counts).
    pub(crate) metrics: EngineMetrics,
}

impl Router {
    pub(crate) fn new(spec: QuerySpec, channel_depth: usize) -> Self {
        Self {
            spec,
            channel_depth,
            policy: FaultPolicy::default(),
            dead: DeadLetters::default(),
            metrics: EngineMetrics::new(),
        }
    }

    /// Under [`FaultPolicy::FailBatch`] the router must project every
    /// grouping key, so arity is validated for the whole batch up front
    /// and a short row rejects it before any shard ingests anything.
    pub(crate) fn prevalidate(&self, rows: &[Row]) -> Result<(), BatchError> {
        if !matches!(self.policy, FaultPolicy::FailBatch) {
            return Ok(());
        }
        let max_field = self.spec.max_field();
        match rows.iter().position(|r| r.len() <= max_field) {
            // Counted as a rollback for parity with the sequential
            // engine, which would ingest up to `idx` and roll back.
            Some(idx) => Err(self.rolled_back(BatchError {
                row: Some(idx),
                shard: None,
                cause: BatchCause::Row(short_row()),
            })),
            None => Ok(()),
        }
    }

    /// Feeds every row index to its shard's channel and returns the rows
    /// too short to route, staged for [`settle`](Self::settle) so batch
    /// atomicity covers router dead letters too. Stops early when a
    /// worker hangs up: it failed, and the batch will roll back.
    pub(crate) fn route(
        &self,
        rows: &[Row],
        senders: &[channel::Sender<usize>],
    ) -> Vec<QuarantinedRow> {
        let max_field = self.spec.max_field();
        let mut quarantine = Vec::new();
        for (idx, row) in rows.iter().enumerate() {
            if row.len() <= max_field {
                // FailBatch rejected short rows in `prevalidate`, so
                // reaching this branch means the policy is Quarantine.
                quarantine.push(QuarantinedRow {
                    row_index: idx,
                    shard: None,
                    reason: short_row(),
                    row: row.clone(),
                });
                continue;
            }
            let key = self.spec.group_by.iter().map(|&i| &row[i]);
            if senders[shard_of(key, senders.len())].send(idx).is_err() {
                break;
            }
        }
        quarantine
    }

    /// Folds the workers' outcomes (`None`: the worker thread died
    /// mid-batch) and finishes the batch. With no failure, `apply(true)`
    /// commits every shard, then the router commits its quarantine;
    /// otherwise `apply(false)` rolls every shard back and the earliest
    /// failing row (failures without a row sort last), then the lowest
    /// shard, is reported. An error from `apply` is returned as is.
    pub(crate) fn settle(
        &mut self,
        outcomes: Vec<Option<WorkerOutcome>>,
        quarantine: Vec<QuarantinedRow>,
        apply: impl FnOnce(bool) -> Result<(), BatchError>,
    ) -> Result<BatchSummary, BatchError> {
        let mut summary = BatchSummary::default();
        let mut failures = Vec::new();
        for (shard, outcome) in outcomes.into_iter().enumerate() {
            let out = outcome.unwrap_or_else(|| {
                WorkerOutcome::failed(BatchCause::WorkerPanic(
                    "shard worker thread died".to_string(),
                ))
            });
            summary.rows_ingested += out.ingested;
            summary.rows_quarantined += out.quarantined;
            if let Some((row, cause)) = out.failure {
                failures.push(BatchError {
                    row,
                    shard: Some(shard),
                    cause,
                });
            }
        }
        apply(failures.is_empty())?;
        if failures.is_empty() {
            if self.metrics.enabled {
                self.metrics.batches_committed.inc();
                self.metrics.rows_quarantined.add(quarantine.len() as u64);
            }
            summary.rows_quarantined += quarantine.len();
            for q in quarantine {
                self.dead.record(q);
            }
            Ok(summary)
        } else {
            failures.sort_by_key(|e| (e.row.unwrap_or(usize::MAX), e.shard));
            Err(self.rolled_back(failures.swap_remove(0)))
        }
    }

    /// Counts one rolled-back batch — and a contained panic, when that
    /// was the cause — and passes its error through.
    pub(crate) fn rolled_back(&self, err: BatchError) -> BatchError {
        if self.metrics.enabled {
            self.metrics.batches_rolled_back.inc();
            if matches!(err.cause, BatchCause::WorkerPanic(_)) {
                self.metrics.panics_contained.inc();
            }
        }
        err
    }

    /// Sets the poison-row policy (the caller mirrors it into shards).
    pub(crate) fn set_policy(&mut self, policy: FaultPolicy) {
        self.policy = policy;
        if let FaultPolicy::Quarantine { max_samples } = policy {
            self.dead.set_max_samples(max_samples);
        }
    }

    /// Joins the per-shard window listings into the global ascending-key
    /// order the sequential engine emits, and resets the router's dead
    /// letters, which belong to the window. Stops at the first error.
    pub(crate) fn flush_window(
        &mut self,
        shard_windows: impl IntoIterator<Item = SketchResult<WindowRows>>,
    ) -> SketchResult<WindowRows> {
        let mut out = Vec::new();
        for window in shard_windows {
            out.extend(window?);
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        self.dead.clear();
        Ok(out)
    }

    /// Folds another router's dead letters and telemetry in (merge).
    pub(crate) fn absorb(&mut self, other: &Self) {
        self.dead.absorb(&other.dead, None);
        self.metrics.absorb(&other.metrics);
    }

    /// The router's quarantine plus every shard's, with samples stamped
    /// with their shard index.
    pub(crate) fn dead_letters<'a>(
        &self,
        shards: impl Iterator<Item = &'a SketchEngine>,
    ) -> DeadLetters {
        let mut all = self.dead.clone();
        for (i, shard) in shards.enumerate() {
            all.absorb(&shard.dead_letters(), Some(i));
        }
        all
    }

    /// Telemetry merged across the router and every shard: counters and
    /// gauges add, latency histograms KLL-merge (lossless — no averaged
    /// percentiles), so the totals are exactly what a sequential engine
    /// fed the same stream would report. Adds one
    /// `shard_rows_routed{shard="i"}` gauge per shard, making routing
    /// skew directly observable, and the shard count.
    pub(crate) fn metrics<'a>(
        &self,
        shards: impl Iterator<Item = &'a SketchEngine>,
    ) -> sketches_obs::MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let mut num_shards = 0;
        for (i, shard) in shards.enumerate() {
            snap.merge(&shard.metrics())
                // lint: panic-ok(every obs histogram shares one fixed (k, seed), so snapshot merge cannot fail)
                .expect("obs snapshots share one KLL shape");
            snap.add_gauge(&names::shard_rows_routed(i), shard.rows_processed());
            num_shards += 1;
        }
        snap.add_gauge(names::SHARDS, num_shards);
        snap
    }
}

/// A sharded GROUP BY engine: N [`SketchEngine`] partitions driven in
/// parallel, with per-group results identical to a single engine.
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    pub(crate) shards: Vec<SketchEngine>,
    pub(crate) config: EngineConfig,
    pub(crate) router: Router,
}

/// What one shard worker did with its slice of the batch. Shared with
/// [`crate::concurrent::ConcurrentEngine`], whose long-lived workers run
/// the same supervised ingest loop.
pub(crate) struct WorkerOutcome {
    pub(crate) ingested: usize,
    pub(crate) quarantined: usize,
    /// `Some((row, cause))` if the worker failed (its shard still holds an
    /// undo log; the router decides commit vs rollback globally).
    pub(crate) failure: Option<(Option<usize>, BatchCause)>,
}

impl WorkerOutcome {
    fn failed(cause: BatchCause) -> Self {
        Self {
            ingested: 0,
            quarantined: 0,
            failure: Some((None, cause)),
        }
    }
}

impl ShardedEngine {
    /// Creates a sharded engine with default sketch parameters and channel
    /// depth.
    ///
    /// # Errors
    /// Returns an error if `num_shards == 0` or the spec/config produce
    /// invalid sketches.
    pub fn new(spec: QuerySpec, num_shards: usize) -> SketchResult<Self> {
        Self::with_config(
            spec,
            EngineConfig::default(),
            num_shards,
            DEFAULT_CHANNEL_DEPTH,
        )
    }

    /// Creates a sharded engine with explicit sketch parameters and
    /// router→worker channel capacity.
    ///
    /// # Errors
    /// Returns an error if `num_shards == 0`, `channel_depth == 0`, or the
    /// spec/config produce invalid sketches.
    pub fn with_config(
        spec: QuerySpec,
        config: EngineConfig,
        num_shards: usize,
        channel_depth: usize,
    ) -> SketchResult<Self> {
        let shards = Self::new_shards(&spec, config, num_shards, channel_depth)?;
        Ok(Self::from_restored_shards(
            shards,
            spec,
            config,
            channel_depth,
        ))
    }

    /// Validates the topology and builds its empty shards (shared with
    /// [`crate::ConcurrentEngine::with_config`]).
    pub(crate) fn new_shards(
        spec: &QuerySpec,
        config: EngineConfig,
        num_shards: usize,
        channel_depth: usize,
    ) -> SketchResult<Vec<SketchEngine>> {
        if num_shards == 0 {
            return Err(SketchError::invalid(
                "num_shards",
                "need at least one shard",
            ));
        }
        if channel_depth == 0 {
            return Err(SketchError::invalid("channel_depth", "need capacity >= 1"));
        }
        (0..num_shards)
            .map(|_| SketchEngine::with_config(spec.clone(), config))
            .collect()
    }

    /// Rebuilds a sharded engine from restored parts (checkpoint restore;
    /// the caller has already validated the shards share spec and config).
    pub(crate) fn from_restored_shards(
        shards: Vec<SketchEngine>,
        spec: QuerySpec,
        config: EngineConfig,
        channel_depth: usize,
    ) -> Self {
        Self {
            shards,
            config,
            router: Router::new(spec, channel_depth),
        }
    }

    /// Ingests a batch of rows, driving every shard from its own worker
    /// thread. Rows of the same group are applied in batch order.
    ///
    /// Transactional at batch granularity: on any failure — a rejected row
    /// under [`FaultPolicy::FailBatch`], an injected fault, or a worker
    /// panic (contained per worker via `catch_unwind`) — **every** shard
    /// rolls back to its pre-batch state before the error is reported, so
    /// a torn batch is never visible even though shards ingest
    /// concurrently. Under [`FaultPolicy::Quarantine`], rows too short to
    /// project a grouping key are diverted by the router itself and other
    /// poison rows by the owning shard.
    ///
    /// # Errors
    /// Returns a [`BatchError`] naming the failing row, shard, and cause;
    /// when several shards fail, the earliest failing row (then lowest
    /// shard) is reported. The engine is unchanged.
    pub fn process_batch(&mut self, rows: &[Row]) -> Result<BatchSummary, BatchError> {
        self.router.prevalidate(rows)?;
        if self.shards.len() == 1 {
            // One shard is exactly the sequential engine; skip the
            // thread/channel machinery (the engine supervises its own
            // rollback).
            return self.shards[0].process_batch(rows).map_err(|mut e| {
                e.shard = Some(0);
                e
            });
        }
        let start = self.router.metrics.start_batch();
        let router = &self.router;
        let shards = &mut self.shards;
        let scoped = cb_thread::scope(|scope| {
            let (senders, handles): (Vec<_>, Vec<_>) = shards
                .iter_mut()
                .map(|shard| {
                    let (tx, rx) = channel::bounded::<usize>(router.channel_depth);
                    (tx, scope.spawn(move |_| worker_ingest(shard, rows, &rx)))
                })
                .unzip();
            let quarantine = router.route(rows, &senders);
            drop(senders);
            let outcomes = handles
                .into_iter()
                .map(|h| {
                    Some(h.join().unwrap_or_else(|payload| {
                        WorkerOutcome::failed(BatchCause::WorkerPanic(panic_message(
                            payload.as_ref(),
                        )))
                    }))
                })
                .collect();
            (outcomes, quarantine)
        });
        let shards = &mut self.shards;
        let result = match scoped {
            Ok((outcomes, quarantine)) => self.router.settle(outcomes, quarantine, |commit| {
                for shard in shards.iter_mut() {
                    if commit {
                        shard.commit_batch();
                    } else {
                        shard.rollback_batch();
                    }
                }
                Ok(())
            }),
            Err(payload) => {
                // The scope itself panicked (outside any worker's own
                // supervisor). Roll back whatever the workers did.
                for shard in shards.iter_mut() {
                    shard.rollback_batch();
                }
                Err(self.router.rolled_back(BatchError {
                    row: None,
                    shard: None,
                    cause: BatchCause::WorkerPanic(panic_message(payload.as_ref())),
                }))
            }
        };
        self.router.metrics.finish_batch(start);
        result
    }

    /// Reports the aggregates of one group (`None` if never seen). The
    /// group lives in exactly one shard, found by re-hashing the key.
    ///
    /// # Errors
    /// Returns an error only for internal sketch query failures.
    pub fn report(&self, key: &[Value]) -> SketchResult<Option<Vec<AggregateResult>>> {
        self.shards[shard_of(key.iter(), self.shards.len())].report(key)
    }

    /// Finishes a tumbling window: every group's report in ascending key
    /// order — identical to [`SketchEngine::flush_window`] on the same
    /// stream (unified surface, PR 4; the listing used to be shard by
    /// shard) — and a state reset, including quarantined dead letters,
    /// which belong to the window.
    ///
    /// # Errors
    /// Propagates report errors.
    pub fn flush_window(&mut self) -> SketchResult<Vec<(Vec<Value>, Vec<AggregateResult>)>> {
        let windows = self.shards.iter_mut().map(SketchEngine::flush_window);
        self.router.flush_window(windows)
    }

    /// Merges another sharded engine's state (distributed GROUP BY over
    /// sharded nodes). Shard counts must match: routing places each group
    /// by `hash % num_shards`, so equal counts guarantee the two engines'
    /// shards partition the key space identically.
    ///
    /// # Errors
    /// Returns an error if shard counts, specs, or configs differ.
    pub fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.shards.len() != other.shards.len() {
            return Err(SketchError::incompatible("shard counts differ"));
        }
        for (i, (a, b)) in self.shards.iter_mut().zip(&other.shards).enumerate() {
            a.merge(b)
                .map_err(|e| SketchError::incompatible(format!("shard {i}: {e}")))?;
        }
        self.router.absorb(&other.router);
        Ok(())
    }

    /// Collapses all shards into one sequential [`SketchEngine`] (for
    /// global reporting, checkpointing, or re-sharding).
    ///
    /// # Errors
    /// Propagates merge errors (impossible for shards minted by this
    /// engine, which share spec and config).
    pub fn collapse(&self) -> SketchResult<SketchEngine> {
        let mut out = SketchEngine::with_config(self.router.spec.clone(), self.config)?;
        for shard in &self.shards {
            out.merge(shard)?;
        }
        Ok(out)
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total groups tracked across shards (groups never straddle shards).
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.shards.iter().map(SketchEngine::num_groups).sum()
    }

    /// Total rows processed across shards.
    #[must_use]
    pub fn rows_processed(&self) -> u64 {
        self.shards.iter().map(SketchEngine::rows_processed).sum()
    }

    /// All group keys currently tracked, in ascending key order across
    /// **all** shards — the same deterministic listing contract as
    /// [`SketchEngine::groups`] (unified in PR 4; before that the listing
    /// was shard-by-shard, an ordering that leaked the routing hash).
    pub fn groups(&self) -> impl Iterator<Item = &Vec<Value>> {
        // lint: sorted-iteration-ok(per-shard listings collected then fully sorted by the key total order below)
        let mut keys: Vec<&Vec<Value>> =
            self.shards.iter().flat_map(SketchEngine::groups).collect();
        keys.sort();
        keys.into_iter()
    }

    /// Total sketch memory across shards.
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        self.shards.iter().map(SketchEngine::state_bytes).sum()
    }

    /// Current poison-row policy.
    #[must_use]
    pub fn fault_policy(&self) -> FaultPolicy {
        self.router.policy
    }

    /// Sets the poison-row policy, mirroring it into every shard so the
    /// router and workers agree on how malformed rows are handled.
    pub fn set_fault_policy(&mut self, policy: FaultPolicy) {
        self.router.set_policy(policy);
        for shard in &mut self.shards {
            shard.set_fault_policy(policy);
        }
    }

    /// Arms a deterministic fault injector on one shard (test harness for
    /// torn-batch recovery; see `sketches-workloads::faults`).
    ///
    /// # Errors
    /// Returns an error if `shard` is out of range.
    pub fn arm_faults(&mut self, shard: usize, injector: FaultInjector) -> SketchResult<()> {
        let num = self.shards.len();
        let s = self
            .shards
            .get_mut(shard)
            .ok_or_else(|| SketchError::invalid("shard", format!("no shard {shard} (of {num})")))?;
        s.arm_faults(injector);
        Ok(())
    }

    /// Disarms the fault injectors on every shard, returning each armed
    /// injector with its shard index (and consumed attempt counter).
    ///
    /// Unified surface (PR 4): disarming always *returns* what was armed,
    /// matching [`SketchEngine::disarm_faults`]'s `Option` shape scaled to
    /// N shards. Callers that only want the side effect can ignore the
    /// returned `Vec`; before PR 4 this method silently dropped the
    /// injectors, so drills could not inspect attempt counters.
    pub fn disarm_faults(&mut self) -> Vec<(usize, FaultInjector)> {
        let mut out = Vec::new();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if let Some(injector) = shard.disarm_faults() {
                out.push((i, injector));
            }
        }
        out
    }

    /// Router-level dead letters (rows too short to route). Per-shard
    /// quarantines are aggregated by [`dead_letters`](Self::dead_letters).
    #[must_use]
    pub fn router_dead(&self) -> &DeadLetters {
        &self.router.dead
    }

    /// Aggregated dead-letter view: the router's own quarantine plus every
    /// shard's, with samples stamped with their shard index. Owned — the
    /// unified [`crate::StreamEngine`] dead-letter shape (see
    /// [`SketchEngine::dead_letters`]).
    #[must_use]
    pub fn dead_letters(&self) -> DeadLetters {
        self.router.dead_letters(self.shards.iter())
    }

    /// Cuts a telemetry snapshot merged across the router and every
    /// shard: counters and gauges add, latency histograms KLL-merge, so
    /// the totals are exactly what a sequential engine fed the same
    /// stream would report. Also exports one
    /// `shard_rows_routed{shard="i"}` gauge per shard.
    #[must_use]
    pub fn metrics(&self) -> sketches_obs::MetricsSnapshot {
        self.router.metrics(self.shards.iter())
    }

    /// Enables or disables metric recording on the router and every
    /// shard (on by default).
    pub fn set_metrics_enabled(&mut self, enabled: bool) {
        self.router.metrics.enabled = enabled;
        for shard in &mut self.shards {
            shard.set_metrics_enabled(enabled);
        }
    }

    /// Installs the time source behind the batch-latency histograms on
    /// the router and every shard (see [`SketchEngine::set_clock`]).
    pub fn set_clock(&mut self, clock: std::sync::Arc<dyn sketches_obs::Clock>) {
        self.router.metrics.clock = clock.clone();
        for shard in &mut self.shards {
            shard.set_clock(clock.clone());
        }
    }
}

/// One shard worker's ingest loop, supervised: panics inside
/// [`SketchEngine::ingest_row`] (including injected ones) are contained
/// here and reported as a [`BatchCause::WorkerPanic`], leaving the shard's
/// undo log intact so the router can roll the whole batch back.
/// Shared with [`crate::concurrent::ConcurrentEngine`]'s long-lived
/// workers, so both topologies ingest identically.
pub(crate) fn worker_ingest(
    shard: &mut SketchEngine,
    rows: &[Row],
    rx: &channel::Receiver<usize>,
) -> WorkerOutcome {
    shard.begin_batch();
    let mut ingested = 0usize;
    let mut quarantined = 0usize;
    let current = Cell::new(None);
    // lint: panic-boundary(worker supervisor: contains shard panics so the batch can roll back with a typed error)
    let caught = catch_unwind(AssertUnwindSafe(|| -> Result<(), (usize, SketchError)> {
        for idx in rx {
            current.set(Some(idx));
            match shard.ingest_row(idx, &rows[idx]) {
                Ok(true) => ingested += 1,
                Ok(false) => quarantined += 1,
                // Dropping `rx` closes the channel, so the router's next
                // send fails and it stops feeding the batch.
                Err(e) => return Err((idx, e)),
            }
        }
        Ok(())
    }));
    let failure = match caught {
        Ok(Ok(())) => None,
        Ok(Err((idx, e))) => Some((Some(idx), BatchCause::Row(e))),
        Err(payload) => Some((
            current.get(),
            BatchCause::WorkerPanic(panic_message(payload.as_ref())),
        )),
    };
    WorkerOutcome {
        ingested,
        quarantined,
        failure,
    }
}

#[cfg(test)]
// `row!` expands to `vec![...]`, which tests also pass to slice-taking
// query methods — fine here.
#[allow(clippy::useless_vec)]
mod tests {
    use super::*;
    use crate::query::Aggregate;
    use crate::row;

    fn spec() -> QuerySpec {
        QuerySpec::new(
            vec![0],
            vec![
                Aggregate::Count,
                Aggregate::Sum { field: 2 },
                Aggregate::CountDistinct { field: 1 },
                Aggregate::Quantiles { field: 2 },
                Aggregate::TopK { field: 1, k: 3 },
            ],
        )
        .unwrap()
    }

    fn rows(n: u64, num_groups: u64) -> Vec<Row> {
        (0..n)
            .map(|i| row![i % num_groups, i % 97, (i % 1_000) as f64])
            .collect()
    }

    #[test]
    fn matches_sequential_at_every_shard_count() {
        let data = rows(20_000, 23);
        let mut seq = SketchEngine::new(spec()).unwrap();
        seq.process_batch(&data).unwrap();
        for shards in [1usize, 2, 4, 8] {
            let mut sharded = ShardedEngine::new(spec(), shards).unwrap();
            sharded.process_batch(&data).unwrap();
            assert_eq!(sharded.rows_processed(), seq.rows_processed());
            assert_eq!(sharded.num_groups(), seq.num_groups());
            for g in 0..23u64 {
                assert_eq!(
                    sharded.report(&row![g]).unwrap(),
                    seq.report(&row![g]).unwrap(),
                    "group {g} diverged at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn multiple_batches_keep_group_order() {
        // Splitting the stream into many small batches must not change
        // per-group results: routing is deterministic, so a group's rows
        // stay on one shard in stream order.
        let data = rows(9_000, 11);
        let mut seq = SketchEngine::new(spec()).unwrap();
        seq.process_batch(&data).unwrap();
        let mut sharded = ShardedEngine::new(spec(), 4).unwrap();
        for chunk in data.chunks(257) {
            sharded.process_batch(chunk).unwrap();
        }
        for g in 0..11u64 {
            assert_eq!(
                sharded.report(&row![g]).unwrap(),
                seq.report(&row![g]).unwrap()
            );
        }
    }

    #[test]
    fn short_rows_rejected_before_ingest() {
        let mut sharded = ShardedEngine::new(spec(), 4).unwrap();
        let mut data = rows(100, 5);
        data.push(row!["short"]);
        assert!(sharded.process_batch(&data).is_err());
        // Atomic at the batch level: nothing was ingested.
        assert_eq!(sharded.rows_processed(), 0);
    }

    #[test]
    fn aggregation_error_surfaces_from_workers() {
        let mut sharded = ShardedEngine::new(spec(), 2).unwrap();
        let mut data = rows(50, 3);
        data.push(row![0u64, 1u64, "not-a-number"]);
        assert!(sharded.process_batch(&data).is_err());
    }

    #[test]
    fn flush_window_resets_all_shards() {
        let mut sharded = ShardedEngine::new(spec(), 4).unwrap();
        sharded.process_batch(&rows(1_000, 7)).unwrap();
        let window = sharded.flush_window().unwrap();
        assert_eq!(window.len(), 7);
        assert_eq!(sharded.num_groups(), 0);
        assert_eq!(sharded.rows_processed(), 0);
    }

    #[test]
    fn merge_combines_disjoint_streams() {
        // Reference: the same split merged sequentially. (Merging is not
        // identical to one engine over the concatenated stream for KLL /
        // SpaceSaving, so the fair comparison is merge-vs-merge.)
        let data = rows(12_000, 13);
        let (left, right) = data.split_at(7_000);
        let mut a = ShardedEngine::new(spec(), 4).unwrap();
        let mut b = ShardedEngine::new(spec(), 4).unwrap();
        a.process_batch(left).unwrap();
        b.process_batch(right).unwrap();
        a.merge(&b).unwrap();

        let mut seq_a = SketchEngine::new(spec()).unwrap();
        let mut seq_b = SketchEngine::new(spec()).unwrap();
        seq_a.process_batch(left).unwrap();
        seq_b.process_batch(right).unwrap();
        seq_a.merge(&seq_b).unwrap();
        assert_eq!(a.rows_processed(), seq_a.rows_processed());
        for g in 0..13u64 {
            assert_eq!(a.report(&row![g]).unwrap(), seq_a.report(&row![g]).unwrap());
        }
    }

    #[test]
    fn merge_rejects_shard_count_mismatch() {
        let mut a = ShardedEngine::new(spec(), 2).unwrap();
        let b = ShardedEngine::new(spec(), 4).unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn collapse_equals_sequential() {
        let data = rows(8_000, 17);
        let mut sharded = ShardedEngine::new(spec(), 8).unwrap();
        sharded.process_batch(&data).unwrap();
        let collapsed = sharded.collapse().unwrap();

        let mut seq = SketchEngine::new(spec()).unwrap();
        seq.process_batch(&data).unwrap();
        assert_eq!(collapsed.num_groups(), seq.num_groups());
        for g in 0..17u64 {
            assert_eq!(
                collapsed.report(&row![g]).unwrap(),
                seq.report(&row![g]).unwrap()
            );
        }
    }

    #[test]
    fn rejects_zero_shards_and_zero_depth() {
        assert!(ShardedEngine::new(spec(), 0).is_err());
        assert!(ShardedEngine::with_config(spec(), EngineConfig::default(), 2, 0).is_err());
    }

    #[test]
    fn poison_row_rolls_back_every_shard() {
        let mut sharded = ShardedEngine::new(spec(), 4).unwrap();
        sharded.process_batch(&rows(500, 7)).unwrap();
        let before = sharded.to_snapshot_bytes();

        let mut batch = rows(200, 7);
        batch.insert(60, row![0u64, 1u64, "not-a-number"]);
        let err = sharded.process_batch(&batch).unwrap_err();
        assert_eq!(err.row, Some(60));
        assert!(err.shard.is_some());
        assert!(matches!(err.cause, BatchCause::Row(_)));
        // Atomic across shards: even shards that never saw the poison row
        // rolled back their slice of the batch.
        assert_eq!(sharded.to_snapshot_bytes(), before);
        assert_eq!(sharded.rows_processed(), 500);
    }

    #[test]
    fn injected_worker_panic_is_contained_and_batch_retryable() {
        crate::fault::silence_injected_panics();
        let mut sharded = ShardedEngine::new(spec(), 4).unwrap();
        sharded.process_batch(&rows(300, 9)).unwrap();
        let before = sharded.to_snapshot_bytes();

        // The injector counts attempts from when it is armed: attempt 10
        // is the 10th row shard 2 receives from the next batch.
        sharded
            .arm_faults(
                2,
                crate::fault::FaultInjector::new().at(10, crate::fault::FaultKind::Panic),
            )
            .unwrap();
        let batch = rows(400, 9);
        let err = sharded.process_batch(&batch).unwrap_err();
        assert_eq!(err.shard, Some(2));
        assert!(matches!(err.cause, BatchCause::WorkerPanic(_)));
        assert_eq!(sharded.to_snapshot_bytes(), before);

        // Retry gets past the transient fault and converges with a
        // never-faulted engine.
        sharded.process_batch(&batch).unwrap();
        sharded.disarm_faults();
        let mut baseline = ShardedEngine::new(spec(), 4).unwrap();
        baseline.process_batch(&rows(300, 9)).unwrap();
        baseline.process_batch(&batch).unwrap();
        assert_eq!(sharded.to_snapshot_bytes(), baseline.to_snapshot_bytes());
    }

    #[test]
    fn arm_faults_rejects_bad_shard_index() {
        let mut sharded = ShardedEngine::new(spec(), 2).unwrap();
        // The first out-of-range index is num_shards itself (boundary), and
        // the rejection must be a *typed* parameter error naming both the
        // requested shard and the valid range — not a panic or a silent
        // no-op on some other shard.
        for bad in [2usize, 5, usize::MAX] {
            let err = sharded
                .arm_faults(bad, crate::fault::FaultInjector::new())
                .unwrap_err();
            assert!(
                matches!(err, SketchError::InvalidParameter { name: "shard", .. }),
                "shard {bad}: wrong error {err:?}"
            );
            assert!(err.to_string().contains("(of 2)"), "shard {bad}: {err}");
        }
        // In-range shards (0 and num_shards - 1) still arm fine.
        sharded
            .arm_faults(0, crate::fault::FaultInjector::new())
            .unwrap();
        sharded
            .arm_faults(1, crate::fault::FaultInjector::new())
            .unwrap();
        let disarmed = sharded.disarm_faults();
        assert_eq!(disarmed.len(), 2);
        assert_eq!(disarmed[0].0, 0);
        assert_eq!(disarmed[1].0, 1);
    }

    #[test]
    fn quarantine_aggregates_router_and_shard_dead_letters() {
        let mut sharded = ShardedEngine::new(spec(), 4).unwrap();
        sharded.set_fault_policy(FaultPolicy::Quarantine { max_samples: 8 });
        let mut batch = rows(100, 5);
        batch.insert(3, row![7u64]); // short: router quarantines it
        batch.insert(50, row![0u64, 1u64, "bad"]); // shard quarantines it
        let summary = sharded.process_batch(&batch).unwrap();
        assert_eq!(summary.rows_ingested, 100);
        assert_eq!(summary.rows_quarantined, 2);

        let all = sharded.dead_letters();
        assert_eq!(all.count(), 2);
        assert_eq!(all.samples().len(), 2);
        let router_sample = all.samples().iter().find(|q| q.row_index == 3).unwrap();
        assert_eq!(router_sample.shard, None);
        let shard_sample = all.samples().iter().find(|q| q.row_index == 50).unwrap();
        assert!(shard_sample.shard.is_some());

        // Quarantined rows left no trace in sketch state.
        let mut clean = ShardedEngine::new(spec(), 4).unwrap();
        clean.process_batch(&rows(100, 5)).unwrap();
        for g in 0..5u64 {
            assert_eq!(
                sharded.report(&row![g]).unwrap(),
                clean.report(&row![g]).unwrap()
            );
        }

        // Dead letters are window state.
        sharded.flush_window().unwrap();
        assert!(sharded.dead_letters().is_empty());
    }

    #[test]
    fn merge_error_names_the_failing_shard() {
        let mut a = ShardedEngine::new(spec(), 2).unwrap();
        let b = ShardedEngine::with_config(
            spec(),
            EngineConfig {
                hll_precision: 12,
                ..EngineConfig::default()
            },
            2,
            DEFAULT_CHANNEL_DEPTH,
        )
        .unwrap();
        let err = a.merge(&b).unwrap_err();
        assert!(err.to_string().contains("shard 0"), "{err}");
    }
}
